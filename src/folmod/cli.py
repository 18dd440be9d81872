"""The ``folmod`` command line tool.

Five subcommands drive the package end to end::

    folmod check <file>          validate an input document (exit 0/1)
    folmod moduli <file>         run the moduli pipelines on an input
    folmod cohomology <file>     H0/H1 of a serialized group-graph
    folmod examples <0..6>       print a bundled example document
    folmod oracle                run the randomized cross-check suites

Exit codes: 0 success, 1 validation or oracle failure, 2 unreadable or
malformed input or arguments, 3 pipeline precondition failure or an
unsupported atom map (with the witness on stderr).  ``check`` and
``moduli`` read one analysis of the input: a violation (see
:func:`folmod.foliation.validate`) is exit 1 from both, and a failed
position condition is one more violation line from ``check`` and exit 3
from ``moduli``.  ``oracle --bound`` sets the brute-force bound of the
oracle.
Reports are deterministic: identical inputs (and seeds) produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import List, Optional

from .examples import EXAMPLES, example_description, example_doc
from .foliation import FoliationError, PipelineError, load_input, _analyze, _reports
from .gg import GroupGraph, cohomology
from .abgroup import UnsupportedAtomMap, classify
from .oracle import DEFAULT_BOUND, run_oracle

__all__ = ["main", "run_moduli"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_PIPELINE = 3


def _load_json(path: str) -> dict:
    """Read a JSON document, mapping I/O and syntax problems to exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise SystemExit(_fail(f"cannot read {path}: {err.strerror}", EXIT_PARSE))
    except json.JSONDecodeError as err:
        raise SystemExit(
            _fail(f"{path}: malformed JSON at line {err.lineno}, column {err.colno}", EXIT_PARSE)
        )


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _parse_input(path: str):
    doc = _load_json(path)
    try:
        return load_input(doc)
    except (ValueError, KeyError, TypeError) as err:
        raise SystemExit(_fail(f"{path}: {err}", EXIT_PARSE))


def run_check(path: str) -> int:
    """Validate an input document; exit 0 iff no violation was found."""
    inp = _parse_input(path)
    analysis = _analyze(inp.divisor, inp.singularities, inp.holonomies)
    violations = list(analysis.violations)
    if not analysis.tc_ok:
        violations.append(
            "position condition violated: a dicritical-free part has all "
            "singular valencies equal to two"
        )
    for line in violations:
        print(f"violation: {line}")
    print(f"{path}: {len(violations)} violation(s)")
    return EXIT_OK if not violations else EXIT_VIOLATIONS


def run_moduli(path: str, fmt: str = "text") -> int:
    """Run the applicable moduli pipelines, asserting their agreement.

    The closed-form pipeline runs on non-degenerate inputs and the general
    finite-type pipeline on all finite-type inputs; when both apply, both
    reports are emitted and their classified moduli must agree.  They
    read the analysis that found no violation.
    """
    inp = _parse_input(path)
    analysis = _analyze(inp.divisor, inp.singularities, inp.holonomies)
    if analysis.violations:
        for line in analysis.violations:
            print(f"violation: {line}", file=sys.stderr)
        return EXIT_VIOLATIONS
    try:
        reports = _reports(analysis)
    except FoliationError as err:
        return _fail(f"{type(err).__name__}: {err}", EXIT_PIPELINE)
    except PipelineError as err:
        return _fail(f"PipelineError: {err}", EXIT_PIPELINE)
    except UnsupportedAtomMap as err:
        return _fail(f"UnsupportedAtomMap: {err}", EXIT_PIPELINE)
    if fmt == "json":
        payload = {
            "pipelines": [r.to_json() for r in reports],
            "agree": len(reports) < 2 or reports[0].moduli == reports[1].moduli,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n\n".join(r.text() for r in reports))
        if len(reports) == 2:
            print("\npipelines agree on the classified moduli")
    return EXIT_OK


def run_cohomology(path: str, fmt: str = "text") -> int:
    """H0 and H1 of a group-graph serialized as JSON."""
    doc = _load_json(path)
    try:
        ggraph = GroupGraph.from_json(doc)
    except (KeyError, TypeError, ValueError) as err:
        raise SystemExit(_fail(f"{path}: {err}", EXIT_PARSE))
    try:
        result = cohomology(ggraph)
    except UnsupportedAtomMap as err:
        return _fail(f"UnsupportedAtomMap: {err}", EXIT_PIPELINE)
    h0_nf, h1_nf = classify(result.h0), classify(result.h1)
    if fmt == "json":
        payload = {"h0": h0_nf.text(), "h1": h1_nf.text()}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"H0: {h0_nf.text()}")
        print(f"H1: {h1_nf.text()}")
    return EXIT_OK


def _run_examples(number: int) -> int:
    doc = example_doc(number)
    print(json.dumps(doc, sort_keys=True, indent=2))
    return EXIT_OK


def _run_oracle(seed: int, bound: int) -> int:
    report = run_oracle(seed=seed, bound=bound)
    print(report.text())
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser as it was.
    parser = argparse.ArgumentParser(
        prog="folmod",
        description="Moduli of singular foliation germs from combinatorial divisor data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate an input document")
    p_check.add_argument("file", help="input JSON document")

    p_moduli = sub.add_parser("moduli", help="compute the moduli group of an input")
    p_moduli.add_argument("file", help="input JSON document")
    p_moduli.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )

    p_coh = sub.add_parser("cohomology", help="H0/H1 of a serialized group-graph")
    p_coh.add_argument("file", help="group-graph JSON document")
    p_coh.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )

    p_ex = sub.add_parser("examples", help="print a bundled example document")
    p_ex.add_argument(
        "number",
        type=int,
        choices=EXAMPLES,
        help="; ".join(f"{n}: {example_description(n)}" for n in EXAMPLES),
    )

    p_oracle = sub.add_parser("oracle", help="run the randomized cross-check suites")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_BOUND,
        help=f"brute-force state-space cap (default {DEFAULT_BOUND})",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return run_check(args.file)
    if args.command == "moduli":
        return run_moduli(args.file, args.fmt)
    if args.command == "cohomology":
        return run_cohomology(args.file, args.fmt)
    if args.command == "examples":
        return _run_examples(args.number)
    return _run_oracle(args.seed, args.bound)


if __name__ == "__main__":
    sys.exit(main())
