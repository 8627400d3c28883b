"""Group computations against independently derived tables.

Expected values below were worked out by hand from the zoo boundary
matrices (Smith forms of 1x1 and 1x2 integer matrices and their mod-d
reductions), not read off from the implementation.
"""

import hashlib
import random
from dataclasses import FrozenInstanceError
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cwhom.homology as homology
import cwhom.intmat as intmat
from cwhom.abgroups import FgAbGroup, normalize_diagonal, parse_group
from cwhom.chainmaps import identity_map, inclusion_map, induced_map, shift_iso
from cwhom.homology import _glue, all_groups, chain_group, cohomology, integral_homology
from cwhom.complexes import skeleton, zoo
from cwhom.documents import complex_from_doc, dumps, loads_complex
from cwhom.intmat import ContainmentViolation, IntMatrix, NotInLattice
from cwhom.verify import run_battery, standard_coefficients, standard_corpus
from lattice_helpers import EagerCycleQuotients, transform_work
from test_documents import grid_torus_doc
from test_intmat import cycle_pairs
from test_reduction import conjugates

Z = FgAbGroup.free(1)
DIGESTS = Path(__file__).parent / "data" / "presentation_digests.txt"


def hom_table(x, coeff=Z, variant="homology", reduced=False):
    return [
        str(chain_group(x, n, coeff, variant, reduced).group)
        for n in range(x.dim + 1)
    ]


class TestIntegralHomology:
    @pytest.mark.parametrize(
        "name,params,table",
        [
            ("point", (), ["Z"]),
            ("sphere", (0,), ["Z^2"]),
            ("sphere", (3,), ["Z", "0", "0", "Z"]),
            ("torus", (), ["Z", "Z^2", "Z"]),
            ("klein", (), ["Z", "Z + Z/2", "0"]),
            ("rp", (2,), ["Z", "Z/2", "0"]),
            ("rp", (3,), ["Z", "Z/2", "0", "Z"]),
            ("rp", (4,), ["Z", "Z/2", "0", "Z/2", "0"]),
            ("cp", (2,), ["Z", "0", "Z", "0", "Z"]),
            ("surface", (2,), ["Z", "Z^4", "Z"]),
            ("surface", (3,), ["Z", "Z^6", "Z"]),
            ("moore", (4, 2), ["Z", "0", "Z/4", "0"]),
            ("lens", (5,), ["Z", "Z/5", "0", "Z"]),
        ],
    )
    def test_zoo_table(self, name, params, table):
        assert hom_table(zoo(name, *params)) == table

    def test_reduced_differs_only_at_zero(self):
        for x in (zoo("torus"), zoo("sphere", 0), zoo("rp", 3)):
            for n in range(x.dim + 1):
                full = integral_homology(x, n).group
                red = integral_homology(x, n, reduced=True).group
                if n == 0:
                    assert full.rank == red.rank + 1
                    assert full.torsion == red.torsion
                else:
                    assert full == red

    def test_out_of_range_trivial(self):
        t = zoo("torus")
        table = all_groups(t, Z)
        assert table[-1].is_trivial and table[3].is_trivial


class TestCohomology:
    def test_torsion_moves_up(self):
        # integral cohomology of the klein bottle: (Z, Z, Z/2)
        assert hom_table(zoo("klein"), variant="cohomology") == ["Z", "Z", "Z/2"]
        assert hom_table(zoo("rp", 3), variant="cohomology") == ["Z", "0", "Z/2", "Z"]

    @pytest.mark.parametrize(
        "coeff,table",
        [
            ("Z/2", ["Z/2", "(Z/2)^2", "Z/2"]),
            ("Z/4", ["Z/4", "Z/2 + Z/4", "Z/2"]),
            ("Z/3", ["Z/3", "Z/3", "0"]),
        ],
    )
    def test_klein_coefficients(self, coeff, table):
        got = hom_table(zoo("klein"), parse_group(coeff), "cohomology")
        assert got == [str(parse_group(t)) for t in table]

    def test_composite_coefficients_split(self):
        # G = Z + Z/4 on rp2: factors computed independently
        g = parse_group("Z + Z/4")
        got = hom_table(zoo("rp", 2), g, "cohomology")
        assert got == ["Z + Z/4", "Z/2", "Z/2 + Z/2"]

    def test_sphere_reduced(self):
        for n in range(5):
            s = zoo("sphere", n)
            for m in range(-1, 6):
                got = cohomology(s, m, Z, reduced=True).group
                assert got == (Z if m == n else FgAbGroup.trivial())

    def test_moore_dual_shift(self):
        m = zoo("moore", 3, 2)
        assert cohomology(m, 3, Z).group == FgAbGroup.cyclic(3)
        assert cohomology(m, 2, Z).group.is_trivial
        assert cohomology(m, 2, FgAbGroup.cyclic(3), reduced=True).group == FgAbGroup.cyclic(3)

    def test_homology_with_coefficients(self):
        # H_*(RP3; Z/2) = Z/2 in every dimension
        got = hom_table(zoo("rp", 3), FgAbGroup.cyclic(2))
        assert got == ["Z/2"] * 4

    def test_unreduced_point(self):
        g = parse_group("Z^2 + Z/6")
        assert cohomology(zoo("point"), 0, g).group == g


class TestPresentations:
    def test_lifts_are_cycles(self):
        t = zoo("torus")
        cp = chain_group(t, 1, Z, "homology", False)
        b1 = t.boundary(1)
        for _, pres in cp.factors:
            for lift in pres.lifts:
                assert all(v == 0 for v in b1.apply(lift))

    def test_coords_round_trip(self):
        k = zoo("klein")
        cp = chain_group(k, 1, Z, "homology", False)
        pres = cp.factors[0][1]
        for i, lift in enumerate(pres.lifts):
            e = pres.coords(lift)
            assert e == tuple(1 if j == i else 0 for j in range(len(pres.lifts)))

    def test_glue_matches_group(self):
        g = parse_group("Z + Z/2")
        cp = chain_group(zoo("rp", 2), 1, g, "cohomology", False)
        assert cp.glue.group == cp.group

    def test_glue_group_takes_no_snf(self):
        # the whole group is the invariant-factor form of the factor orders;
        # on orders that are not canonical, (0, 3, 2), the relations' SNF
        # waits for the glue's lifts or coords
        with transform_work() as seen:
            glue = _glue([parse_group("Z + Z/3"), parse_group("Z/2")])
            assert glue.group == parse_group("Z + Z/6")
        assert seen.snfs == 0
        with transform_work() as seen:
            assert len(glue.lifts) == 2
        assert seen.snfs == 1

    def test_cached_presentations_are_frozen(self):
        # chain_group's cache hands the same objects to every caller
        cp = chain_group(zoo("klein"), 1, parse_group("Z + Z/2"), "cohomology", False)
        with pytest.raises(FrozenInstanceError):
            cp.group = FgAbGroup.trivial()
        with pytest.raises(FrozenInstanceError):
            cp.glue.coords = None
        for _, pres in cp.factors:
            with pytest.raises(FrozenInstanceError):
                pres.lifts = ()
        assert chain_group(zoo("klein"), 1, parse_group("Z + Z/2"), "cohomology", False) is cp


def _clear_presentation_caches():
    for cache in (homology.chain_group, homology.cells_presentation, homology._factor):
        cache.cache_clear()


def test_reading_presentations_builds_no_identity(monkeypatch):
    # a transform is only its log, replayed onto the vectors a read asks
    # for: the groups, lifts and coords of every corpus presentation
    # build no identity matrix
    calls = []
    real = IntMatrix.identity
    monkeypatch.setattr(IntMatrix, "identity", staticmethod(lambda n: calls.append(n) or real(n)))
    _clear_presentation_caches()
    homology._elimination.cache_clear()
    read = 0
    for x in standard_corpus():
        for coeff in standard_coefficients():
            for variant in ("homology", "cohomology"):
                for reduced in (False, True):
                    for n in range(x.dim + 1):
                        cp = chain_group(x, n, coeff, variant, reduced)
                        for pres in [p for _, p in cp.factors] + [cp.glue]:
                            for i, lift in enumerate(pres.lifts):
                                assert pres.coords(lift) == tuple(int(i == j) for j in range(len(pres.lifts)))
                                read += 1
    assert read and calls == []
    _clear_presentation_caches()


def _presented_values(cp):
    """What a reader sees of a chain_group result: the group, then the
    lifts of every factor and of the glue, each with its coordinates."""
    seen = [cp.group]
    for pres in [p for _, p in cp.factors] + [cp.glue]:
        seen.append([(lift, pres.coords(lift)) for lift in pres.lifts])
    return seen


def test_presentations_survive_deepcopy_and_pickle():
    # the presentations are frozen slotted objects, and the integral
    # factor's in-map waits behind a builder: both must copy and pickle,
    # before their lifts are first read and after
    import copy
    import pickle

    def clones(cp):
        return [copy.deepcopy(cp), pickle.loads(pickle.dumps(cp))]

    _clear_presentation_caches()
    homology._elimination.cache_clear()
    results = [chain_group(x, n, coeff, variant, reduced)
               for x in standard_corpus() for coeff in standard_coefficients()
               for variant in ("homology", "cohomology") for reduced in (False, True)
               for n in range(x.dim + 1)]
    fresh = [clones(cp) for cp in results]
    for cp, before in zip(results, fresh):
        want = _presented_values(cp)
        for clone in before + clones(cp):
            assert clone is not cp
            assert _presented_values(clone) == want
    assert len(results) == 20 * sum(x.dim + 1 for x in standard_corpus())
    _clear_presentation_caches()


def test_coefficient_groups_share_a_factor():
    # rp2 has no unit entry, so chain_group hands out the factors as built
    x = zoo("rp", 2)
    assert homology._reduction(x) is None
    _clear_presentation_caches()
    z2 = chain_group(x, 1, parse_group("Z/2"), "cohomology", False)
    free = chain_group(x, 1, Z, "cohomology", False)
    with transform_work() as seen:
        both = chain_group(x, 1, parse_group("Z + Z/2"), "cohomology", False)
    assert seen.snfs == 0
    assert both.factors[0][1] is free.factors[0][1]
    assert both.factors[1][1] is z2.factors[0][1]
    # one more factor on the same pair: its quotient is the only SNF
    with transform_work() as seen:
        chain_group(x, 1, parse_group("Z/4"), "cohomology", False)
    assert seen.snfs == 1


CELL_COEFFICIENTS = standard_coefficients() + [parse_group("Z + Z/4")]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.sampled_from(CELL_COEFFICIENTS), st.data())
def test_cells_presentation_is_the_cycle_quotient_of_zero_maps(c, coeff, data):
    # G^c on its own generators is what the engine gives for the pair of
    # zero maps (0 x c, c x 0), which stays the oracle
    cp = homology.cells_presentation(c, coeff)
    assert [d for d, _ in cp.factors] == list(coeff.generator_orders())
    vectors = [tuple(int(i == j) for i in range(c)) for j in range(c)]
    vectors += data.draw(st.lists(st.lists(st.integers(-50, 50), min_size=c, max_size=c), max_size=4))
    for d, pres in cp.factors:
        zero_maps = homology._ChainMaps(IntMatrix.zeros(0, c), IntMatrix.zeros(c, 0))
        engine = homology._factor.__wrapped__(zero_maps, "homology", d)
        assert pres.group == engine.group and pres.lifts == engine.lifts
        for v in vectors:
            assert pres.coords(v) == engine.coords(v)


def test_cold_cells_presentation_runs_no_snf():
    homology.cells_presentation.cache_clear()
    homology._elimination.cache_clear()
    with transform_work() as seen:
        for coeff in CELL_COEFFICIENTS:
            for c in range(7):
                for _, pres in homology.cells_presentation(c, coeff).factors:
                    for lift in pres.lifts:
                        pres.coords(lift)
    assert (seen.snfs, seen.transforms, seen.matmuls) == (0, [], [])


def test_failed_factor_is_not_kept():
    # out @ in = 1 is not 0 mod 2: the in-map is no cocycle mod 2
    one = IntMatrix.from_rows([[1]])
    before = homology._factor.cache_info()
    for _ in range(2):
        with pytest.raises(ContainmentViolation):
            homology._factor(homology._ChainMaps(one, one), "homology", 2)
    after = homology._factor.cache_info()
    assert (after.misses - before.misses, after.currsize) == (2, before.currsize)


def test_factor_caches_stay_bounded():
    # the factors are bounded by the lifetime of their chain maps, not by a
    # count: a thousand of one pair are all kept while its complex lives,
    # and go with it once another complex is queried
    import weakref
    x = zoo("moore", 7, 2)
    for d in range(2, 1002):
        cohomology(x, 2, FgAbGroup.cyclic(d))
    pair = homology._chain_maps(x, 2, False)
    assert homology._factor.cache_info().maxsize is None
    assert sum(key[0] is homology._factor.__wrapped__ for key in pair._memo) == 1000
    memo = weakref.ref(pair._memo)
    del x, pair
    cohomology(zoo("moore", 11, 2), 2, Z)
    assert memo() is None
    _clear_presentation_caches()


def test_glue_coords_check_the_length():
    for glue in (_glue([parse_group("Z + Z/2"), parse_group("Z/6")]), _glue([parse_group("Z + Z/2")])):
        n = glue.group.num_generators
        for v in ((1,) * (n + 1), (1,) * (n - 1)):
            with pytest.raises(ValueError, match="vector length mismatch"):
                glue.coords(v)


def _snf_glue(factor_groups):
    """The glue of the factors' orders by the SNF of their relation
    columns, on every tuple of orders: the general path."""
    orders = tuple(o for g in factor_groups for o in g.generator_orders())
    n = len(orders)
    return intmat._present(n, intmat._relations(orders), intmat._Log(n), (1,) * n, range(n))


canonical_groups = st.builds(
    lambda rank, orders: normalize_diagonal(orders, rank),
    st.integers(0, 4),
    st.lists(st.integers(2, 12), max_size=4),
)


@given(canonical_groups, st.data())
def test_one_factor_glue_matches_the_general_path(g, data):
    # one factor is glued by the identity.  The SNF of its relations
    # swaps free row t with the torsion row of pivot t, so it rotates the
    # free generators by the number k of torsion ones: the same lifts and
    # coordinates when the rank is at most 1 or divides k, and otherwise
    # free lift j is the identity's lift (j + k) mod rank
    one, general = _glue([g]), _snf_glue([g])
    assert isinstance(one, homology._Canonical)
    assert one.group == general.group == g
    n, r, k = g.num_generators, g.rank, len(g.torsion)
    v = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    turn = [(j + k) % r for j in range(r)] + list(range(r, n))
    assert general.lifts == tuple(one.lifts[i] for i in turn)
    assert general.coords(v) == tuple(one.coords(v)[i] for i in turn)


def test_glue_by_the_identity_moves_the_free_basis_of_z2_z2():
    # Z^2 + Z/2, orders (0, 0, 2), the least case that moves: the SNF
    # path's pivots swapped the two free generators; the identity rule
    # keeps them in place.  The group is the same, and so is every torsion
    # lift
    g = parse_group("Z^2 + Z/2")
    assert _glue([g]).lifts == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert _snf_glue([g]).lifts == ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert _glue([Z, Z, FgAbGroup.cyclic(2)]).lifts == _glue([g]).lifts


@pytest.mark.parametrize("text", ["Z | Z/2", "Z + Z/2 | Z/6", "Z^2 | Z/2 + Z/4", "Z/2 | Z/4 | Z/8", "Z | Z",
                                  "Z^2 | Z/2", "0 | Z/3"])
def test_canonical_orders_glue_with_no_relations_and_no_snf(monkeypatch, text):
    # free first, then a divisibility chain: the identity, which builds no
    # relation column and runs no SNF, not even once lifts and coords are read
    calls = []
    real = homology._relations
    monkeypatch.setattr(homology, "_relations", lambda orders: calls.append(orders) or real(orders))
    groups = [parse_group(part) for part in text.split("|")]
    with transform_work() as seen:
        glue = _glue(groups)
        n = glue.ambient_dim
        for i, lift in enumerate(glue.lifts):
            assert glue.coords(lift) == tuple(int(i == j) for j in range(n))
        glue.coords((3,) * n)
    assert isinstance(glue, homology._Canonical)
    assert (calls, seen.snfs, seen.transforms) == ([], 0, [])


factor_lists = st.lists(
    st.builds(lambda rank, orders: normalize_diagonal(orders, rank),
              st.integers(0, 2), st.lists(st.sampled_from([2, 3, 4, 6, 9]), max_size=3)),
    min_size=1, max_size=3,
)


@settings(deadline=None)
@given(factor_lists, st.lists(st.integers(-40, 40), min_size=15, max_size=15))
@example([FgAbGroup.cyclic(2), FgAbGroup.cyclic(3)], [1] * 15)  # (2, 3): nondecreasing, not a chain
@example([Z, FgAbGroup.cyclic(4), FgAbGroup.cyclic(6)], [5, -3, 7] * 5)
@example([FgAbGroup.cyclic(2), Z], [3, 4] * 8)  # free last
def test_glue_presents_the_invariant_factor_form_of_the_orders(groups, values):
    # whatever the rule, the glue is an isomorphism Z^n / (o_i e_i) ->
    # its group: one lift per generator, coords(lift_i) = e_i, coords
    # reduced mod the generators' orders, and lifts recombined from the
    # coords of v give v again modulo the relations
    orders = [o for g in groups for o in g.generator_orders()]
    n = len(orders)
    glue = _glue(groups)
    assert glue.group == normalize_diagonal(orders) and glue.ambient_dim == n
    k = glue.group.num_generators
    assert len(glue.lifts) == k
    for i, lift in enumerate(glue.lifts):
        assert glue.coords(lift) == tuple(int(i == j) for j in range(k))
    v = values[:n]
    c = glue.coords(v)
    assert all(0 <= x < o for x, o in zip(c, glue.group.generator_orders()) if o)
    back = [sum(x * lift[i] for x, lift in zip(c, glue.lifts)) - v[i] for i in range(n)]
    assert all(w % o == 0 if o else w == 0 for w, o in zip(back, orders))


def _corpus_matrices():
    out = []
    for x in standard_corpus():
        maps = [identity_map(x)]
        if x.dim >= 1:
            maps.append(inclusion_map(skeleton(x, x.dim - 1), x))
        for g in standard_coefficients():
            for n in range(-1, x.dim + 2):
                out.append(shift_iso(x, n, g).matrix)
                out.extend(induced_map(f, n, g).matrix for f in maps)
    return out


def test_glue_shortcuts_match_the_general_path(monkeypatch):
    # the identity glue, and _induced's shortcut between two of them, give
    # the matrices the SNF glue gives on every corpus group
    _clear_presentation_caches()
    shortcut = _corpus_matrices()
    monkeypatch.setattr(homology, "_glue", _snf_glue)
    _clear_presentation_caches()
    general = _corpus_matrices()
    monkeypatch.undo()
    _clear_presentation_caches()
    assert shortcut == general


def _corpus_presentations():
    """Every corpus presentation as a reader sees it, for the 5 standard
    groups, both variants, reduced and not, and -1 <= n <= dim + 1: the
    group, each factor's group and lifts, the glue's lifts, and the
    glue's coordinates of each unit vector, which fix its coordinate map."""
    out = []
    for x in standard_corpus():
        for coeff in standard_coefficients():
            for variant in ("homology", "cohomology"):
                for reduced in (False, True):
                    for n in range(-1, x.dim + 2):
                        cp = chain_group(x, n, coeff, variant, reduced)
                        glue, k = cp.glue, cp.glue.ambient_dim
                        out.append((str(cp.group), [(m, str(p.group), p.lifts) for m, p in cp.factors],
                                    glue.lifts, [glue.coords([int(i == j) for i in range(k)]) for j in range(k)]))
    return out


def presentation_digests() -> str:
    """The text of ``tests/data/presentation_digests.txt``: a SHA-256 of
    every corpus presentation, and one of the shift and induced matrices
    built on them (``_corpus_matrices``)."""
    _clear_presentation_caches()
    values = {"presentations": _corpus_presentations(),
              "matrices": [(m.rows, m.cols, m.entries) for m in _corpus_matrices()]}
    _clear_presentation_caches()
    return "".join(f"{name} {hashlib.sha256(repr(v).encode()).hexdigest()}\n" for name, v in values.items())


def test_corpus_presentations_keep_their_bases():
    # no refactor may move a basis the corpus reads: both digests equal
    # the committed ones, which only a change meant to move a basis
    # regenerates
    assert presentation_digests() == DIGESTS.read_text(encoding="utf-8")


def test_glue_builds_its_relations_on_first_read(monkeypatch):
    # the group of a Z + Z/3 + Z/2 glue, whose orders (0, 3, 2) are not
    # canonical, is read off the orders; the relation columns are built
    # only when lifts or coords are first read, and the presentation is
    # then the one built eagerly from those columns
    real = homology._relations
    calls = []
    monkeypatch.setattr(homology, "_relations", lambda orders: calls.append(orders) or real(orders))
    glue = _glue([parse_group("Z + Z/3"), FgAbGroup.cyclic(2)])
    assert glue.group == parse_group("Z + Z/6") and calls == []
    eager = intmat._present(3, real((0, 3, 2)), intmat._Log(3), (1, 1, 1), range(3))
    assert eager.group == glue.group
    assert glue.lifts == eager.lifts and len(calls) == 1
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (3, -5, 4), (-2, 7, 1)] + list(eager.lifts):
        assert glue.coords(v) == eager.coords(v)
    assert len(calls) == 1


def test_public_constructors_still_check_well_definedness():
    from cwhom.abgroups import AbHom
    from cwhom.homology import _induced
    with pytest.raises(ValueError, match="not well-defined"):
        AbHom(FgAbGroup.cyclic(2), Z, IntMatrix.from_rows([[1]]))
    # the generator of h^2(RP2) = Z/2 sent to the generator of h^2(S2) = Z
    src = chain_group(zoo("rp", 2), 2, Z, "cohomology", True)
    tgt = chain_group(zoo("sphere", 2), 2, Z, "cohomology", True)
    h = _induced(src, tgt, IntMatrix.identity(1))
    with pytest.raises(ValueError, match="not well-defined"):
        AbHom(h.source, h.target, h.matrix)


UCT_MODULI = (0, 2, 3, 4, 6)


def _universal_coefficients(x, n, d):
    """H^n(X; Z/d) from integral homology alone, as
    Hom(H_n, Z/d) + Ext(H_{n-1}, Z/d); d = 0 stands for Z, where this is
    free(H_n) + tors(H_{n-1}).  A cross-check only: the engine never
    goes through universal coefficients."""
    h, below = integral_homology(x, n).group, integral_homology(x, n - 1).group
    if d == 0:
        return normalize_diagonal([0] * h.rank + list(below.torsion))
    return normalize_diagonal([d] * h.rank + [gcd(t, d) for t in h.torsion + below.torsion])


def _check_universal_coefficients(x):
    for d in UCT_MODULI:
        coeff = FgAbGroup.cyclic(d) if d else Z
        for n in range(x.dim + 2):
            assert cohomology(x, n, coeff).group == _universal_coefficients(x, n, d), (x, n, d)


def test_universal_coefficients_on_corpus():
    for x in standard_corpus():
        _check_universal_coefficients(x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_universal_coefficients_on_grid_tori(k):
    _check_universal_coefficients(complex_from_doc(grid_torus_doc(k)))


@settings(max_examples=40, deadline=None)
@given(conjugates())
def test_universal_coefficients_on_conjugates(data):
    _check_universal_coefficients(data[0])


def test_one_snf_per_chain_matrix():
    # chains, cochains and the integral factor of both share one
    # elimination of each chain matrix; only a Z/4 factor runs an SNF of
    # its own relations.  x has no unit entry, so nothing is reduced away.
    from cwhom.complexes import CwComplex, require_valid
    from cwhom.homology import _chain_maps
    x = require_valid(CwComplex((1, 2, 2, 1), (
        IntMatrix.zeros(1, 2),
        IntMatrix.from_rows([[2, 2], [2, 2]]),
        IntMatrix.from_rows([[3], [-3]]),
    )))
    assert homology._reduction(x) is None
    z4 = parse_group("Z + Z/4")
    _clear_presentation_caches()
    homology._elimination.cache_clear()
    with transform_work() as seen:
        tables = [[str(g) for g in all_groups(x, coeff, variant, reduced).values()]
                  for reduced in (False, True) for coeff, variant in ((Z, "homology"), (z4, "cohomology"))]
    assert tables == [
        ["0", "Z", "Z + Z/2", "Z/3", "0", "0"],
        ["0", "Z + Z/4", "Z + Z/2 + Z/4", "Z/2 + Z/2", "Z/3", "0"],
        ["0", "0", "Z + Z/2", "Z/3", "0", "0"],
        ["0", "0", "Z + Z/2 + Z/4", "Z/2 + Z/2", "Z/3", "0"],
    ]
    pairs = {_chain_maps(x, n, reduced) for n in range(x.dim + 1) for reduced in (False, True)}
    # out-of-range dimensions read G^0 (cells_presentation), which runs no
    # SNF, and neither does a matrix with no rows or no columns (0 x 1, 1 x 0)
    matrices = {m for pair in pairs for m in (pair.out, pair.inc)}
    assert len(matrices) == 6 and len(pairs) == 5
    assert seen.snfs == sum(m.rows * m.cols > 0 for m in matrices) + len(pairs) == 9
    assert (seen.transforms, seen.matmuls) == ([], [])


def _sympy_invariants(sympy, b):
    """(rank, torsion) of b from sympy's Smith normal form."""
    from sympy.matrices.normalforms import smith_normal_form
    if not b.rows or not b.cols:
        return 0, ()
    s = smith_normal_form(sympy.Matrix(b.to_rows()), domain=sympy.ZZ)
    d = [abs(int(s[i, i])) for i in range(min(b.rows, b.cols))]
    return sum(1 for v in d if v), tuple(sorted(v for v in d if v >= 2))


def _check_against_sympy(x):
    # H_n = Z^(c_n - r_n - r_{n+1}) + tors(B_{n+1}); H^n has the same
    # rank and the torsion of B_n.  The SNF here is sympy's, not the engine's.
    sympy = pytest.importorskip("sympy")
    inv = [_sympy_invariants(sympy, x.boundary(n)) for n in range(x.dim + 2)]
    for n in range(x.dim + 1):
        free = x.cells[n] - inv[n][0] - inv[n + 1][0]
        assert chain_group(x, n, Z, "homology", False).group == normalize_diagonal([0] * free + list(inv[n + 1][1]))
        assert chain_group(x, n, Z, "cohomology", False).group == normalize_diagonal([0] * free + list(inv[n][1]))


def test_integral_groups_match_sympy_on_corpus():
    for x in standard_corpus():
        _check_against_sympy(x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integral_groups_match_sympy_on_grid_tori(k):
    _check_against_sympy(complex_from_doc(grid_torus_doc(k)))


@settings(max_examples=40, deadline=None)
@given(conjugates())
def test_integral_groups_match_sympy_on_conjugates(data):
    _check_against_sympy(data[0])


def _record_replays(monkeypatch):
    """Record, for every ``_Log.times`` and ``_coordinate_columns`` call,
    the modulus of the factor being built then (None: outside one)."""
    seen, building = [], []
    real_quotient, real_times, real_columns = (homology._cycle_quotient, intmat._Log.times,
                                               intmat._coordinate_columns)

    def quotient(*args):
        building.append(args[-1])
        try:
            return real_quotient(*args)
        finally:
            building.pop()

    def times(log, m, inverse=False):
        seen.append(("times", building[-1] if building else None))
        return real_times(log, m, inverse)

    def columns(*args):
        seen.append(("columns", building[-1] if building else None))
        return real_columns(*args)

    monkeypatch.setattr(homology, "_cycle_quotient", quotient)
    monkeypatch.setattr(intmat._Log, "times", times)
    monkeypatch.setattr(intmat, "_coordinate_columns", columns)
    return seen


def _group_tables(x):
    z4 = parse_group("Z + Z/4")
    return [[str(g) for g in all_groups(x, coeff, variant, reduced).values()]
            for reduced in (False, True) for coeff, variant in ((Z, "homology"), (z4, "cohomology"))]


def _unit_free_complex():
    from cwhom.complexes import CwComplex, require_valid
    return require_valid(CwComplex((1, 2, 2, 1), (
        IntMatrix.zeros(1, 2),
        IntMatrix.from_rows([[2, 2], [2, 2]]),
        IntMatrix.from_rows([[3], [-3]]),
    )))


def _assert_only_z4_factors_replay(x, monkeypatch):
    _clear_presentation_caches()
    homology._elimination.cache_clear()
    seen = _record_replays(monkeypatch)
    tables = _group_tables(x)
    monkeypatch.undo()
    # a pair read only over Z (every homology pair) replays nothing and
    # writes no coordinates; a cochain pair does both for Z/4 alone
    assert seen and {modulus for _, modulus in seen} == {4}
    _clear_presentation_caches()
    return tables


def test_group_tables_replay_nothing_for_the_integral_factor(monkeypatch):
    x = _unit_free_complex()
    assert _assert_only_z4_factors_replay(x, monkeypatch) == [
        ["0", "Z", "Z + Z/2", "Z/3", "0", "0"],
        ["0", "Z + Z/4", "Z + Z/2 + Z/4", "Z/2 + Z/2", "Z/3", "0"],
        ["0", "0", "Z + Z/2", "Z/3", "0", "0"],
        ["0", "0", "Z + Z/2 + Z/4", "Z/2 + Z/2", "Z/3", "0"],
    ]


@settings(max_examples=3, derandomize=True, deadline=None)
@given(conjugates().filter(lambda data: any(abs(d) >= 2 for ds in data[2].values() for d in ds)))
def test_group_tables_of_a_conjugate_replay_nothing_for_the_integral_factor(data):
    # seeded conjugates with torsion, which hypothesis would otherwise
    # begin with the one-vertex complex
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_only_z4_factors_replay(data[0], monkeypatch)


def _assert_lazy_matches_eager(lazy, eager):
    assert lazy.group == eager.group and lazy.lifts == eager.lifts
    m = eager.ambient_dim
    for v in [tuple(int(i == j) for i in range(m)) for j in range(m)] + list(eager.lifts):
        try:
            want = eager.coords(v)
        except NotInLattice:
            with pytest.raises(NotInLattice):
                lazy.coords(v)
        else:
            assert lazy.coords(v) == want


def _assert_lazy_integral_factors(out, inc):
    # the chain and cochain integral factors of the chain maps (out, inc)
    # as chain_group builds them, against the eager two-map form on the
    # graded pair.  The cochain side's V is inc's row log transposed,
    # where the eager form runs an SNF of inc^T of its own: that basis of
    # the cocycles may differ, so the eager form is read off the same V.
    o, i = homology._elimination(out), homology._elimination(inc)
    for variant, pair, (s, t, in_s) in (("homology", (out, inc), (o.s, o.cols, i.s)),
                                        ("cohomology", (inc.transpose(), out.transpose()),
                                         (i.s, i.rows.transposed(), o.s))):
        eager = EagerCycleQuotients(*pair)
        assert (eager.s, eager.in_s) == (s, in_s)
        eager.t = t
        lazy = homology._factor.__wrapped__(homology._ChainMaps(out, inc), variant, 0)
        _assert_lazy_matches_eager(lazy, eager.quotient(0))


def _assert_lazy_integral_factors_of(x):
    from cwhom.homology import _chain_maps
    red = homology._reduction(x)
    for y in (x,) if red is None else (x, red.residual):
        for n in range(y.dim + 1):
            for reduced in (False, True):
                maps = _chain_maps(y, n, reduced)
                _assert_lazy_integral_factors(maps.out, maps.inc)


def test_lazy_integral_factor_matches_the_eager_one_on_corpus():
    for x in standard_corpus():
        _assert_lazy_integral_factors_of(x)


@settings(max_examples=40, deadline=None)
@given(conjugates())
def test_lazy_integral_factor_matches_the_eager_one_on_conjugates(data):
    _assert_lazy_integral_factors_of(data[0])


@settings(max_examples=100, deadline=None)
@given(cycle_pairs(moduli=(0,)))
def test_lazy_integral_factor_matches_the_eager_one_on_cycle_pairs(pair):
    out, inn, _ = pair
    _assert_lazy_integral_factors(out, inn)


def test_chain_groups_keep_no_columns_on_the_loaded_boundaries():
    # reduction and the out-maps build their sparse columns on each call:
    # keeping them on a loaded complex's boundaries costs memory on every
    # complex a process holds, for a read made once
    x = loads_complex(dumps(grid_torus_doc(4)))
    for variant in ("homology", "cohomology"):
        for coeff in (Z, parse_group("Z + Z/2")):
            for n in range(x.dim + 1):
                for _, pres in chain_group(x, n, coeff, variant, False).factors:
                    # each lift has unit coordinates, read through the out-map and the push
                    units = IntMatrix.identity(len(pres.lifts)).to_rows()
                    assert [list(pres.coords(lift)) for lift in pres.lifts] == units
    assert not any("_columns" in b.__dict__ for b in x.boundaries)


def _relabelled_torus_text(k, seed):
    """The k x k grid torus as document text, with the cells of every
    dimension permuted and a random choice of its edges and faces
    reversed: each seed gives another complex with the same groups."""
    doc = grid_torus_doc(k)
    rng = random.Random(seed)
    cells = doc["cells"]
    perm = [rng.sample(range(c), c) for c in cells]
    sign = [[1] * cells[0]] + [[rng.choice((1, -1)) for _ in range(c)] for c in cells[1:]]
    bnds = {}
    for n in (1, 2):
        out = [[0] * cells[n] for _ in range(cells[n - 1])]
        for i, row in enumerate(doc["boundaries"][str(n)]):
            for j, v in enumerate(row):
                out[perm[n - 1][i]][perm[n][j]] = sign[n - 1][i] * v * sign[n][j]
        bnds[str(n)] = out
    return dumps({"cells": cells, "boundaries": bnds})


def test_an_equal_copy_compares_its_boundaries_once(monkeypatch):
    # two loads of one text are equal, distinct complexes: the second finds
    # the first's memo by comparing its boundaries once, and then reads it
    # off the object, so every query hands back the first's presentations
    text = _relabelled_torus_text(8, 1)
    first, second = loads_complex(text), loads_complex(text)
    coeff = parse_group("Z + Z/2")
    keys = [(n, coeff, variant, reduced) for n in range(first.dim + 1)
            for variant in ("homology", "cohomology") for reduced in (False, True)]
    want = [chain_group(first, *key) for key in keys]
    compared = []
    real = IntMatrix.__eq__
    monkeypatch.setattr(IntMatrix, "__eq__", lambda a, b: compared.append(a) or real(a, b))
    for _ in range(2):
        assert all(chain_group(second, *key) is cp for key, cp in zip(keys, want))
    assert 0 < len(compared) <= len(second.boundaries)


def test_presentations_outlive_their_complex():
    # a presentation keeps the boundary it reads, not its complex: once the
    # complex is gone, it gives the lifts and coords it gave before, and
    # still copies and pickles; a copy made before any read reads only now
    import copy
    import pickle
    import weakref
    x = loads_complex(_relabelled_torus_text(4, 2))
    coeff = parse_group("Z + Z/2")
    cps = [chain_group(x, n, coeff, variant, reduced) for n in range(x.dim + 1)
           for variant in ("homology", "cohomology") for reduced in (False, True)]
    assert any(type(p).__name__ == "_Transported" for cp in cps for _, p in cp.factors)
    unread = [copy.deepcopy(cp) for cp in cps]
    want = [_presented_values(cp) for cp in cps]
    gone = weakref.ref(x)
    del x
    chain_group(loads_complex(_relabelled_torus_text(4, 3)), 1, Z, "homology", False)
    assert gone() is None
    for cp, clone, values in zip(cps, unread, want):
        assert _presented_values(clone) == values
        assert _presented_values(cp) == values
        assert _presented_values(copy.deepcopy(cp)) == values
        assert _presented_values(pickle.loads(pickle.dumps(cp))) == values


def test_held_memory_stays_flat_over_distinct_complexes():
    # each complex's memo goes with it once another complex is queried, by
    # reference counting alone, also after a battery has registered its
    # memos in the same weak table: with the cyclic collector off, 96
    # distinct complexes leave gc.collect() nothing to free, and the memory
    # held after 96 is that held after 32, up to far less than one
    # complex's memo (about 100 KB).  gc.collect() also empties the free
    # lists, which tracemalloc would otherwise count as held.
    import gc
    import tracemalloc
    import weakref
    run_battery()
    coeff = parse_group("Z + Z/2")
    texts = [_relabelled_torus_text(6, seed) for seed in range(100, 196)]
    held, last = {}, None
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    tracemalloc.start()
    try:
        for i, text in enumerate(texts, 1):
            x = loads_complex(text)
            for variant in ("homology", "cohomology"):
                for n in range(x.dim + 1):
                    chain_group(x, n, coeff, variant, False)
            assert last is None or last() is None
            last = weakref.ref(x)
            del x
            assert last() is not None
            if i in (32, 96):
                assert gc.collect() == 0, i
                held[i] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert held[96] - held[32] <= 16 * 1024, held


def test_a_stream_of_unreducible_complexes_keeps_nothing_it_dropped(monkeypatch):
    # the 64 seed-1 conjugates of the benchmark's conjugates workload,
    # queried as it queries them: once the next complex is queried, the
    # previous one, its residual (which has no unit entry left) and the
    # residual's boundaries are gone, by reference counting alone (the
    # cyclic collector is off, and finds nothing to free at the end), with
    # every elimination and factor of them
    import gc
    import weakref
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import gen
    rng = random.Random(1)
    coeff = parse_group("Z + Z/4")
    refs = []
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    try:
        for _ in range(64):
            x = complex_from_doc(gen.conjugate_complex(8, rng, 3, 2)[0])
            for n in range(x.dim + 1):
                chain_group(x, n, Z, "homology", False)
            for n in range(x.dim + 1):
                chain_group(x, n, coeff, "cohomology", False)
            assert all(ref() is None for ref in refs)
            residual = homology._reduction(x).residual
            refs = [weakref.ref(v) for v in (x, residual, *residual.boundaries)]
            del x, residual
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert all(ref() is not None for ref in refs)


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python tests/test_homology.py
    print(presentation_digests(), end="")
