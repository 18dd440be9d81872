"""Work guards: the geodesic family stays cheap as it grows.

The moduli group is ``H^1`` of a group-graph over a tree, so its cochain
maps are mostly zero.  The linear algebra keeps those zeros out of the
Scalar arithmetic; these tests pin that down by counting the Scalars one
`folmod moduli` run constructs, and run a geodesic of 33 joints (65
components), which the dense solvers took seconds on.  The integer side
factors each system once; a guard counts the Smith forms one run asks for.
The exactness checks read only a kernel's generators, not its relations;
guards count the kernels a run computes.  Equal maps share one preimage
system, and the normal form composes only the steps that change
coordinates; guards count the systems built and the homs composed.
"Cold caches" means the algebra memos and the oracle's builders are
cleared, so a count does not depend on the runs before it.  An integer
system keeps its Smith transforms as sparse columns; a guard counts the
entries it stores.  A discrete part is an int row of its nonzero entries;
a guard counts the discrete entries an identity and a direct sum store.
A group-graph sums its cochain groups once, the identity maps between
cochain sums are written from their block offsets, and a cokernel reads
its projection off the normal form; guards count the direct sums, the
identity homs and the homs the oracle constructs.  A hom records its
verdicts, so a guard counts the checks behind ``check_hom`` per hom
object; groups without continuous generators make no field updates, and
a guard counts them.  The foliation stalks build one identity hom per
group value, and a guard counts those on the k=33 geodesic.  A kernel's
relations are the kernel of its inclusion, read off the inclusion's own
preimage system: a guard counts the integer systems the oracle builds,
and another requires that factoring a map through a kernel's inclusion
right after the kernel builds no preimage system.  The algebra builds its
own groups and homs from rows already stored, and each hom keys its images
once: guards count the rows the oracle stores through the validating
constructors and the row keys it builds.  Map equality and the sections of
surjections read the algebra's own rows too: a guard counts the homs the
oracle builds through the validating constructor.  A fresh
``import folmod.cli`` needs no dataclass machinery and no ``copy``: a guard
imports it in a new interpreter and lists the modules it loads.  An
integral Scalar holds its rational content as an int, and negation,
scaling and products or quotients with a rational keep their operand's
canonical parts: a guard checks the contents the k=9 geodesic builds, and
another counts the normalizing constructions of example 1.  A preimage
system with no continuous data is its integer side alone: a guard counts
the field eliminations and field solves of the oracle, whose groups have
no continuous generator.  The oracle builds each table hom once per value,
and a guard counts the table homs it validates.  The zones of one analysis
that are the same group-graph and cover up to their ids share one
Mayer-Vietoris gluing sequence: a guard counts the sequences the k=33
geodesic computes for its 24 zones.  Every other per-incidence step of
the moduli pipeline runs once per distinct value too: zones of one shape
are blown up once, the stalk inclusions have one cokernel each, the flow
restrictions, the morphism squares, the chart maps and the short
exactness of the stalks are built or checked once per value, and a group
the normal form returned is classified by its stored report; a guard
counts that work on the k=65 geodesic.  Splitting the continuous blocks
of a normal form and listing the singular chains are linear: guards count
the rows that the block split visits and the sets that the chain listing
builds on the k=257 geodesic.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

from folmod import abgroup, cli, exactnum, foliation, gg, oracle
from folmod.examples import EXAMPLES, example_doc
from folmod.oracle import run_oracle
from memo_caches import clear_caches

# A run on the k=9 geodesic constructed 22,254 Scalars with dense rows, the
# same under PYTHONHASHSEED 0 and 1; sparse rows need a fraction of that.
MAX_SCALARS_K9 = 6000

# Examples 0-6 constructed 5,427 Scalars when the elimination still reduced
# through each pivot's own unit entry and a sum of polynomials went through
# a negated copy; they need about 3,000 without that waste.
MAX_SCALARS_EXAMPLES = 4000


# The seed-0 k=9 geodesic asked for 635 Smith forms when every preimage
# solve rebuilt its integer matrix and every kernel relation solved its own;
# factored once per system it asks for about 160.  With one system per
# value and no Smith memo, 59 calls reach the factorization itself.
MAX_SMITH_FORMS_K9 = 250

# The seed-0 k=9 geodesic computed 22 kernels, and ten runs of each oracle
# suite (seed 0) 231, when every injectivity and exactness check built a
# whole kernel presentation; reading its generators alone leaves 9 and 63.
MAX_KERNELS_K9 = 12
MAX_KERNELS_ORACLE = 100

# The seed-0 k=9 geodesic built 281 preimage systems, and ten runs of each
# oracle suite (seed 0) 689 (609 once the oracle's own tables exist), when
# each group and hom kept its own; shared by codomain and generator images
# they need 44 and 371.  The same oracle runs composed 866 homs when the
# normal form composed its identity steps too, and 598 without them.
MAX_SYSTEMS_K9 = 80
MAX_SYSTEMS_ORACLE = 450
MAX_COMPOSES_ORACLE = 700

# Ten runs of each oracle suite (seed 0) took 320 direct sums, 263 identity
# homs and 1,780 hom constructions when the six-term sequences summed every
# cochain group again after its coboundary, the coordinate maps between
# cochain sums were assembled from identity blocks and each cokernel
# composed its projection through an identity of the codomain.  With one
# sum per group-graph and unit rows written from the offsets they take 180,
# none and 1,437.
MAX_DIRECT_SUMS_ORACLE = 200
MAX_IDENTITY_HOMS_ORACLE = 20
MAX_HOMS_ORACLE = 1550

# Ten runs of each oracle suite (seed 0) ran the check behind check_hom 433
# times on 274 hom objects when a hom kept no verdict, and made 3,813 field
# updates (`_addmul`), every one on an empty row, since no group there has
# a continuous generator; skipping empty continuous columns left 887, and
# skipping the empty rows of block_hom and hom_equal leaves none.
MAX_ADDMULS_ORACLE = 100

# Ten runs of each oracle suite (seed 0) built 490 integer systems when a
# kernel factored a syzygy system and a lattice system for its relations;
# read off the system of its inclusion, which later maps into the kernel
# reuse, they need 348.
MAX_INT_SYSTEMS_ORACLE = 400

# Ten runs of each oracle suite (seed 0) stored 9,984 rows through
# `_stored_row` and `_stored_ints` and built 6,360 row keys when every
# composite, block hom, kernel, cokernel and normal form step re-stored the
# rows it had built and every preimage system lookup keyed its hom again;
# trusting the algebra's own rows and keying each hom once leaves 760 and
# 4,378.
MAX_STORED_ROWS_ORACLE = 1500
MAX_ROW_KEYS_ORACLE = 5000

# One run of each oracle suite (seed 0) built 1,151 homs through the
# validating GroupHom constructor when `hom_equal` built each difference of
# two maps as a hom (598) and `gg._pseudo_section` its section (100); read
# as rows, they leave 453, the oracle's own tables and maps.
MAX_VALIDATED_HOMS_ORACLE = 500

# Ten runs of each oracle suite (seed 0) built 569 field eliminations and
# made 1,003 field solves (`_PreimageSystem.field_part`), all on systems with
# no continuous data; read off the integer side alone they make none.
MAX_FIELD_WORK_ORACLE = 0

# Ten runs of each oracle suite (seed 0) validated 115 table homs
# (`gg.FiniteHom`) when each instance built its own restrictions; one per
# value leaves 71.
MAX_TABLE_HOMS_ORACLE = 90

# A fresh `import folmod.cli` loaded these seven modules, about 13 ms of a
# 31 ms import, for four frozen dataclasses and one shallow copy.
NOT_IMPORTED = ("ast", "copy", "dataclasses", "dis", "inspect", "linecache", "tokenize")

# `folmod moduli` on example 1 made 874 normalizing Scalar constructions
# when negation, scaling and every product or quotient with a rational
# normalized parts that were canonical already; built as they are, about
# 200 remain.
MAX_NORMALIZING_SCALARS_EX1 = 230

# The seed-0 k=33 geodesic built 128 identity homs in `foliation`, one per
# incidence (32 on 4 group values and 96 on 1); one per value needs 5.
MAX_FOLIATION_IDENTITY_HOMS_K33 = 5


# The seed-0 k=65 geodesic (129 components, 257 stalks, 48 zones of one
# shape) did this work once per incidence: 48 zone blow-ups, 257 stalk
# cokernels in build_dis_graph, 256 factorizations in build_exp_graph,
# 512 commuting squares (hom_equal) and 265 exactness checks (is_exact_at,
# 257 of them short exactness at a stalk).  Once per distinct value it is
# 1, 6, 10, 20 and 14.
WORK_K65 = {
    "_blow_up_extremities": 1,
    "cokernel": 6,
    "factor_through": 10,
    "hom_equal": 20,
    "is_exact_at": 14,
}

# The same run made 1,191 checks behind check_hom, 128 of them on the chart
# maps of the symmetry sheaf alone, and 22 normalizations, 6 of them of a
# normal form; once per value they take 63 and 16.
MAX_HOM_CHECKS_K65 = 80
MAX_NORMALIZATIONS_K65 = 16

# `_split_cont_blocks` once picked each block's rows out of all rows, and
# `singular_chains` compared each chain's edge set with every chain kept
# before it.  On the seed-0 k=257 geodesic that made 222,344 walks over
# 1,156 rows and built 131,073 sets to list 256 chains; linear, they make
# two walks per row (1,928 over 964 rows) and two sets per chain, which
# the walk finds from both ends (514).
MAX_ROW_VISITS_K257 = 4000
MAX_CHAIN_SETS_K257 = 600


def _geodesic_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "geodesic.py"
    spec = importlib.util.spec_from_file_location("perfbench_geodesic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_geodesic(k: int, tmp_path, capsys):
    """``folmod moduli`` on the seed-0 geodesic of ``k`` joints, as the
    benchmark draws it; returns the chain periods and the JSON payload."""
    geo = _geodesic_module()
    periods = geo.chain_periods(k, random.Random(f"geodesic-0-{k}"))
    path = tmp_path / f"k{k}.json"
    path.write_text(json.dumps(geo.geodesic_doc(periods)), encoding="utf-8")
    code = cli.main(["moduli", str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return geo, periods, json.loads(out)


def _count_constructions(
    monkeypatch, cls, run, clear: bool = True, stored: bool = True
) -> int:
    """The instances of ``cls`` that ``run()`` constructs, from cold caches
    unless ``clear`` is false: through ``__init__`` and, for a class that
    has one and unless ``stored`` is false, through the ``_from_stored``
    constructor of stored rows."""
    count = 0
    init = cls.__init__

    def counted(self, *args, **kwargs) -> None:
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    if clear:
        clear_caches()
    monkeypatch.setattr(cls, "__init__", counted)
    if stored and "_from_stored" in vars(cls):
        from_stored = vars(cls)["_from_stored"].__func__

        def counted_from_stored(klass, *args, **kwargs):
            nonlocal count
            count += 1
            return from_stored(klass, *args, **kwargs)

        monkeypatch.setattr(cls, "_from_stored", classmethod(counted_from_stored))
    try:
        run()
    finally:
        monkeypatch.undo()
    return count


def _count_calls(monkeypatch, func, run) -> int:
    """The calls of ``func`` that ``run()`` makes from cold caches, wherever
    a folmod module holds it."""
    count = 0

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return func(*args, **kwargs)

    clear_caches()
    for name, module in list(sys.modules.items()):
        if name == "folmod" or name.startswith("folmod."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    try:
        run()
    finally:
        monkeypatch.undo()
    return count


def test_k9_geodesic_constructs_few_scalars(tmp_path, capsys, monkeypatch) -> None:
    count = _count_constructions(
        monkeypatch, exactnum.Scalar, lambda: _run_geodesic(9, tmp_path, capsys)
    )
    assert 0 < count <= MAX_SCALARS_K9


def test_examples_construct_few_scalars(tmp_path, capsys, monkeypatch) -> None:
    paths = []
    for n in EXAMPLES:
        path = tmp_path / f"ex{n}.json"
        path.write_text(json.dumps(example_doc(n)), encoding="utf-8")
        paths.append(path)

    def run() -> None:
        for path in paths:
            assert cli.main(["moduli", str(path), "--format", "json"]) in (0, 3)
        capsys.readouterr()

    count = _count_constructions(monkeypatch, exactnum.Scalar, run)
    assert 0 < count <= MAX_SCALARS_EXAMPLES


def test_example_1_normalizes_few_scalars(tmp_path, capsys, monkeypatch) -> None:
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(example_doc(1)), encoding="utf-8")

    def run() -> None:
        assert cli.main(["moduli", str(path), "--format", "json"]) == 0
        capsys.readouterr()

    count = _count_constructions(monkeypatch, exactnum.Scalar, run, stored=False)
    assert 0 < count <= MAX_NORMALIZING_SCALARS_EX1


def test_k9_geodesic_scalars_hold_int_contents(tmp_path, capsys, monkeypatch) -> None:
    # Every index of the geodesic is an integer, and so is every nonzero
    # Scalar a run builds; all 1,380 that __init__ built held a Fraction
    # when the rational content was always one.
    built = []
    init = exactnum.Scalar.__init__
    from_stored = vars(exactnum.Scalar)["_from_stored"].__func__

    def recorded(self, *args) -> None:
        init(self, *args)
        built.append(self)

    def recorded_from_stored(cls, *args):
        s = from_stored(cls, *args)
        built.append(s)
        return s

    clear_caches()
    monkeypatch.setattr(exactnum.Scalar, "__init__", recorded)
    monkeypatch.setattr(exactnum.Scalar, "_from_stored", classmethod(recorded_from_stored))
    _run_geodesic(9, tmp_path, capsys)
    monkeypatch.undo()
    nonzero = [s for s in built if s.rat is not exactnum._ZERO]
    assert nonzero and all(type(s.rat) is int for s in nonzero)


def test_k33_geodesic_moduli(tmp_path, capsys) -> None:
    geo, periods, payload = _run_geodesic(33, tmp_path, capsys)
    want = geo.expected_moduli_text(periods)
    assert payload["agree"] is True
    assert [p["moduli"]["text"] for p in payload["pipelines"]] == [want, want]


def test_k33_geodesic_builds_one_identity_hom_per_group(tmp_path, capsys, monkeypatch) -> None:
    count = 0
    build = foliation.identity_hom

    def counted(g):
        nonlocal count
        count += 1
        return build(g)

    monkeypatch.setattr(foliation, "identity_hom", counted)
    _run_geodesic(33, tmp_path, capsys)
    assert 0 < count <= MAX_FOLIATION_IDENTITY_HOMS_K33


def test_k33_geodesic_glues_one_zone_shape(tmp_path, capsys, monkeypatch) -> None:
    # The 24 zones of the seed-0 k=33 geodesic ran 24 gluing sequences; up
    # to their ids they are one group-graph with one cover, so one serves.
    zones = 0
    analyze = foliation._analyze_zone

    def counted(*args):
        nonlocal zones
        zones += 1
        return analyze(*args)

    monkeypatch.setattr(foliation, "_analyze_zone", counted)
    gluings = _count_calls(
        monkeypatch, gg.mayer_vietoris, lambda: _run_geodesic(33, tmp_path, capsys)
    )
    assert (zones, gluings) == (24, 1)


def test_k65_geodesic_does_per_incidence_work_once_per_value(
    tmp_path, capsys, monkeypatch
) -> None:
    counts = dict.fromkeys([*WORK_K65, "_check_hom"], 0)

    def counted(name, func):
        def call(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return call

    clear_caches()
    for module, name in (
        (foliation, "_blow_up_extremities"),
        (foliation, "cokernel"),
        (foliation, "factor_through"),
        (gg, "hom_equal"),
        (gg, "is_exact_at"),
        (abgroup, "_check_hom"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    _, _, payload = _run_geodesic(65, tmp_path, capsys)
    monkeypatch.undo()
    normalizations = abgroup._normalize_full.cache_info().misses
    assert payload["agree"] is True
    checks = counts.pop("_check_hom")
    assert counts == WORK_K65
    assert 0 < checks <= MAX_HOM_CHECKS_K65
    assert 0 < normalizations <= MAX_NORMALIZATIONS_K65


def _k257_analysis():
    geo = _geodesic_module()
    periods = geo.chain_periods(257, random.Random("geodesic-0-257"))
    inp = foliation.load_input(geo.geodesic_doc(periods))
    return foliation._valid(inp.divisor, inp.singularities, inp.holonomies)


class _CountedRow(dict):
    """A relation row that counts the walks over its columns."""

    visits = 0

    def __iter__(self):
        _CountedRow.visits += 1
        return super().__iter__()


def test_k257_geodesic_splits_continuous_blocks_in_linear_work(monkeypatch) -> None:
    # Every row of every block split is walked a bounded number of times:
    # once to join its columns and once to find its block.
    split = abgroup._split_cont_blocks
    rows = 0

    def counted(rows_t, d_c, table):
        nonlocal rows
        rows += len(rows_t)
        return split([_CountedRow(row) for row in rows_t], d_c, table)

    analysis = _k257_analysis()
    clear_caches()
    _CountedRow.visits = 0
    monkeypatch.setattr(abgroup, "_split_cont_blocks", counted)
    reports = foliation._reports(analysis)
    monkeypatch.undo()
    assert reports[0].moduli == reports[1].moduli
    assert 500 < rows and 0 < _CountedRow.visits <= MAX_ROW_VISITS_K257


def test_k257_geodesic_lists_singular_chains_in_linear_work(monkeypatch) -> None:
    # Deduplicating the chains builds one edge set per chain, not one per
    # pair of chains.
    analysis = _k257_analysis()
    built = 0

    def counting(kind):
        def make(*args):
            nonlocal built
            built += 1
            return kind(*args)

        return make

    monkeypatch.setattr(foliation, "set", counting(set), raising=False)
    monkeypatch.setattr(foliation, "frozenset", counting(frozenset), raising=False)
    chains = foliation.singular_chains(
        analysis.coloring.cut,
        analysis.divisor.val_sigma(),
        lambda e: analysis.coloring.corner_info[e].kind,
    )
    monkeypatch.undo()
    assert chains == analysis.chains and len(chains) == 256
    assert 0 < built <= MAX_CHAIN_SETS_K257


def test_k9_geodesic_requests_few_smith_forms(tmp_path, capsys, monkeypatch) -> None:
    count = _count_calls(
        monkeypatch, exactnum._smith_normal_form, lambda: _run_geodesic(9, tmp_path, capsys)
    )
    assert 0 < count <= MAX_SMITH_FORMS_K9


def _count_kernels(monkeypatch, run) -> int:
    """The kernels ``run()`` computes from cold caches: the calls that
    reach the computation behind the kernel memo."""
    count = 0
    compute = abgroup._kernel

    def counted(h):
        nonlocal count
        count += 1
        return compute(h)

    clear_caches()
    memo = lru_cache(maxsize=abgroup.KERNEL_CACHE_SIZE)(counted)
    monkeypatch.setattr(abgroup, "_kernel_cached", memo)
    try:
        run()
    finally:
        monkeypatch.undo()
    return count


def test_k9_geodesic_computes_few_kernels(tmp_path, capsys, monkeypatch) -> None:
    count = _count_kernels(monkeypatch, lambda: _run_geodesic(9, tmp_path, capsys))
    assert 0 < count <= MAX_KERNELS_K9


def test_oracle_computes_few_kernels(monkeypatch) -> None:
    count = _count_kernels(monkeypatch, lambda: run_oracle(seed=0, runs=10))
    assert 0 < count <= MAX_KERNELS_ORACLE


def test_k9_geodesic_builds_few_preimage_systems(tmp_path, capsys, monkeypatch) -> None:
    count = _count_constructions(
        monkeypatch, abgroup._PreimageSystem, lambda: _run_geodesic(9, tmp_path, capsys)
    )
    assert 0 < count <= MAX_SYSTEMS_K9


def test_oracle_builds_few_preimage_systems(monkeypatch) -> None:
    count = _count_constructions(
        monkeypatch, abgroup._PreimageSystem, lambda: run_oracle(seed=0, runs=10)
    )
    assert 0 < count <= MAX_SYSTEMS_ORACLE


def test_oracle_composes_few_homs(monkeypatch) -> None:
    count = _count_calls(monkeypatch, abgroup.compose, lambda: run_oracle(seed=0, runs=10))
    assert 0 < count <= MAX_COMPOSES_ORACLE


def test_oracle_sums_each_cochain_group_once(monkeypatch) -> None:
    count = _count_calls(monkeypatch, abgroup.direct_sum, lambda: run_oracle(seed=0, runs=10))
    assert 0 < count <= MAX_DIRECT_SUMS_ORACLE


def test_oracle_builds_few_identity_homs(monkeypatch) -> None:
    count = _count_calls(monkeypatch, abgroup.identity_hom, lambda: run_oracle(seed=0, runs=10))
    assert count <= MAX_IDENTITY_HOMS_ORACLE


def test_oracle_constructs_few_homs(monkeypatch) -> None:
    count = _count_constructions(
        monkeypatch, abgroup.GroupHom, lambda: run_oracle(seed=0, runs=10)
    )
    assert 0 < count <= MAX_HOMS_ORACLE


def test_oracle_validates_few_homs(monkeypatch) -> None:
    count = _count_constructions(
        monkeypatch, abgroup.GroupHom, lambda: run_oracle(seed=0), stored=False
    )
    assert 0 < count <= MAX_VALIDATED_HOMS_ORACLE


def test_oracle_stores_few_rows(monkeypatch) -> None:
    count = sum(
        _count_calls(monkeypatch, func, lambda: run_oracle(seed=0, runs=10))
        for func in (abgroup._stored_row, abgroup._stored_ints)
    )
    assert 0 < count <= MAX_STORED_ROWS_ORACLE


def test_oracle_keys_few_rows(monkeypatch) -> None:
    count = _count_calls(monkeypatch, abgroup._row_key, lambda: run_oracle(seed=0, runs=10))
    assert 0 < count <= MAX_ROW_KEYS_ORACLE


def test_oracle_checks_each_hom_once(monkeypatch) -> None:
    checked = []  # keeps each hom alive, so no two share an id
    body = abgroup._check_hom

    def counted(h) -> None:
        checked.append(h)
        body(h)

    clear_caches()
    monkeypatch.setattr(abgroup, "_check_hom", counted)
    run_oracle(seed=0, runs=10)
    assert checked and len(checked) == len({id(h) for h in checked})


def test_oracle_makes_few_field_updates(monkeypatch) -> None:
    count = _count_calls(monkeypatch, abgroup._addmul, lambda: run_oracle(seed=0, runs=10))
    assert count <= MAX_ADDMULS_ORACLE


def test_oracle_does_no_field_work(monkeypatch) -> None:
    solves = 0
    field_part = abgroup._PreimageSystem.field_part

    def counted(self, *args):
        nonlocal solves
        solves += 1
        return field_part(self, *args)

    monkeypatch.setattr(abgroup._PreimageSystem, "field_part", counted)
    eliminations = _count_constructions(
        monkeypatch, abgroup._Elimination, lambda: run_oracle(seed=0, runs=10)
    )
    assert eliminations <= MAX_FIELD_WORK_ORACLE
    assert solves <= MAX_FIELD_WORK_ORACLE


def test_oracle_builds_each_table_hom_once(monkeypatch) -> None:
    count = _count_constructions(monkeypatch, gg.FiniteHom, lambda: run_oracle(seed=0, runs=10))
    assert 0 < count <= MAX_TABLE_HOMS_ORACLE


def test_oracle_builds_few_int_systems(monkeypatch) -> None:
    count = _count_constructions(
        monkeypatch, abgroup._IntSystem, lambda: run_oracle(seed=0, runs=10)
    )
    assert 0 < count <= MAX_INT_SYSTEMS_ORACLE


def test_factoring_into_a_kernel_builds_no_system(monkeypatch) -> None:
    # The map an oracle cover induces on H0, factored through the piece's
    # kernel inclusion right after the kernel is computed, as
    # gg._induced_h0 does.  The check of the factored map is left out: it
    # reads the kernel group's own relation span, another system.
    rng, factored = random.Random(0), 0
    clear_caches()
    while factored < 5:
        drawn = oracle._random_mv_instance(rng)
        if drawn is None:
            continue
        G, (vs0, es0), _ = drawn
        piece = G.restrict(vs0, es0)
        f = abgroup.compose(
            gg._by_id(gg._cochains(G, 0), gg._cochains(piece, 0)),
            gg.cohomology(G).h0_inclusion,
        )
        inclusion = abgroup.kernel(gg.coboundary0(piece)).inclusion
        count = _count_constructions(
            monkeypatch,
            abgroup._PreimageSystem,
            lambda: abgroup.factor_through(f, inclusion, check=False),
            clear=False,
        )
        assert count == 0
        factored += 1


def test_cold_oracle_counts_do_not_depend_on_earlier_runs(monkeypatch) -> None:
    def cold_counts():
        return [
            _count_constructions(monkeypatch, cls, lambda: run_oracle(seed=0, runs=10))
            for cls in (abgroup.GroupHom, abgroup._PreimageSystem)
        ]

    first = cold_counts()
    run_oracle(seed=3, runs=4)
    assert cold_counts() == first


def test_int_system_stores_sparse_transforms() -> None:
    # A 300 x 300 signed permutation with five entries of 2: dense U and V
    # would hold 180,000 entries.
    n, rng = 300, random.Random(0)
    perm = rng.sample(range(n), n)
    rows = [{j: rng.choice((1, -1))} for j in perm]
    for i in rng.sample(range(n), 5):
        rows[i][perm[i]] = 2
    system = abgroup._IntSystem(rows, n)
    assert sum(map(len, system.u)) + sum(map(len, system.v)) <= 3 * n
    y = [rng.randint(-3, 3) for _ in range(n)]
    b = {i: sum(x * y[j] for j, x in row.items()) for i, row in enumerate(rows)}
    assert system.solve(b) == {j: x for j, x in enumerate(y) if x}
    assert system.nullspace() == []


def test_discrete_parts_store_their_nonzeros() -> None:
    # Dense int tuples stored n^2 ints for each of these: 4,000,000 for the
    # identity of Z^2000 and 1,000,000 for the sum of 1,000 copies of Z/2.
    table = exactnum.SymbolTable([])
    n = 2000
    ident = abgroup.identity_hom(abgroup.PresentedAbelianGroup.free_disc(table, n))
    stored = sum(len(r.disc) for r in ident.dom.relations)
    assert stored + sum(len(d) for _, d in ident.disc_images) <= n
    n = 1000
    z2 = abgroup.PresentedAbelianGroup.from_invariant_factors(table, [2])
    total, _ = abgroup.direct_sum([z2] * n)
    assert sum(len(r.disc) for r in total.relations) <= n


def test_cli_import_loads_no_dataclass_machinery() -> None:
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import folmod.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = run.stdout.split()
    assert "folmod.cli" in loaded and "folmod.oracle" in loaded
    assert sorted(set(loaded) & set(NOT_IMPORTED)) == []
