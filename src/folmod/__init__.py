"""Exact cohomology of group-graphs and moduli of singular foliation germs.

The package is layered bottom-up:

- :mod:`folmod.exactnum` -- canonical scalars over Q(symbols), integer
  matrices and Smith normal form.
- :mod:`folmod.abgroup` -- finitely presented topological abelian groups
  (free complex, free discrete and opaque atom factors) with homomorphisms,
  kernels, cokernels, classification into a normal form, and direct sums
  with the one block-hom builder for maps between them.
- :mod:`folmod.gg` -- group-graphs over finite graphs: the degree-0
  coboundary and H0/H1, pruning of dead branches, Mayer-Vietoris and long
  exact sequences, and a brute-force nonabelian H1 for cross-checking.
- :mod:`folmod.foliation` -- marked divisors, symmetry/exponential/discrete
  group-graphs, coloring, finite-type and non-degeneracy tests, and
  :func:`compute_moduli`, which returns the moduli reports.
- :mod:`folmod.examples` -- bundled worked inputs.
- :mod:`folmod.cli` -- the ``folmod`` command line tool.
"""

from .foliation import (
    FoliationError,
    FoliationInput,
    ModuliReport,
    NotFiniteType,
    PipelineError,
    TCviolated,
    check_tc,
    compute_moduli,
    is_finite_type,
    is_non_degenerate,
    load_input,
    validate,
)
from .examples import EXAMPLES, example_doc

__all__ = [
    "EXAMPLES",
    "FoliationError",
    "FoliationInput",
    "ModuliReport",
    "NotFiniteType",
    "PipelineError",
    "TCviolated",
    "check_tc",
    "compute_moduli",
    "example_doc",
    "is_finite_type",
    "is_non_degenerate",
    "load_input",
    "validate",
]

__version__ = "0.1.0"

SCHEMA_VERSION = 1
