from pathlib import Path

import pytest

from cwhom.abgroups import FgAbGroup, parse_group
from cwhom.chainmaps import identity_map, inclusion_map, sphere_self_map
from cwhom.complexes import CwComplex, skeleton, validate, zoo
from cwhom.intmat import IntMatrix
from cwhom.verify import (
    CheckReport,
    check_dimension,
    check_les_exactness,
    check_skeletal_reformulation,
    check_suspension,
    check_wedge,
    equal_up_to_generator_signs,
    run_battery,
    standard_coefficients,
    standard_corpus,
)

Z = FgAbGroup.free(1)


def test_report_render():
    rep = CheckReport("suspension", "torus", Z, range(0, 4))
    assert rep.passed
    assert rep.render() == "PASS suspension torus G=Z dims=0..3"
    rep.witnesses.append("dimension 2: boom")
    out = rep.render().splitlines()
    assert out[0].startswith("FAIL suspension torus")
    assert out[1] == "    dimension 2: boom"


def test_dimension_axiom():
    for g in standard_coefficients():
        assert check_dimension(g).passed


def test_suspension_axiom_sample():
    for x in (zoo("klein"), zoo("rp", 3), zoo("sphere", 0), zoo("moore", 4, 1)):
        for g in (Z, parse_group("Z/6"), parse_group("Z + Z/2")):
            rep = check_suspension(x, g)
            assert rep.passed, rep.render()


def test_wedge_axiom_sample():
    rep = check_wedge([zoo("rp", 2), zoo("torus"), zoo("sphere", 3)], parse_group("Z/4"))
    assert rep.passed, rep.render()


def test_les_exactness_sample():
    t = zoo("torus")
    for f in (sphere_self_map(1, 4), inclusion_map(skeleton(t, 1), t), identity_map(t)):
        for g in (Z, parse_group("Z/2")):
            rep = check_les_exactness(f, g)
            assert rep.passed, rep.render()


def test_skeletal_reformulation_sample():
    for x in (zoo("klein"), zoo("cp", 2), zoo("lens", 3), zoo("sphere", 4)):
        for g in (Z, parse_group("Z/2"), parse_group("Z + Z/2")):
            rep = check_skeletal_reformulation(x, g)
            assert rep.passed, rep.render()


class TestSignComparison:
    def test_plain_equal(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert equal_up_to_generator_signs([(0, m, m, (0, 0))]) is None

    def test_column_flip(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        n = IntMatrix.from_rows([[-1, 2], [-3, 4]])
        assert equal_up_to_generator_signs([(0, m, n, (0, 0))]) is None

    def test_inconsistent_flip(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        n = IntMatrix.from_rows([[-1, 2], [3, 4]])
        assert equal_up_to_generator_signs([(0, m, n, (0, 0))]) is not None

    def test_wrong_value(self):
        m = IntMatrix.from_rows([[5]])
        n = IntMatrix.from_rows([[3]])
        assert equal_up_to_generator_signs([(0, m, n, (0,))]) is not None

    def test_torsion_rows_mod_order(self):
        # 1 and -1 agree mod 2, so either sign works
        m = IntMatrix.from_rows([[1, 1]])
        n = IntMatrix.from_rows([[1, -1]])
        assert equal_up_to_generator_signs([(0, m, n, (2,))]) is None

    def test_cross_level_consistency(self):
        # level 0 forces generator (1,0) to flip; level 1 then forces
        # a contradiction on the same generator
        a = IntMatrix.from_rows([[1]])
        na = IntMatrix.from_rows([[-1]])
        b = IntMatrix.from_rows([[1]])
        pairs = [(0, a, na, (0,)), (1, b, b, (0,))]
        assert equal_up_to_generator_signs(pairs) is None
        # but demanding both a flip at the interface and equality through
        # a chained second level cannot be satisfied
        pairs = [
            (0, IntMatrix.from_rows([[1], [1]]), IntMatrix.from_rows([[-1], [1]]), (0, 0)),
            (1, IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1, 1]]), (0,)),
        ]
        assert equal_up_to_generator_signs(pairs) is not None

    def test_shape_mismatch(self):
        m = IntMatrix.from_rows([[1]])
        n = IntMatrix.from_rows([[1, 0]])
        assert "shape" in equal_up_to_generator_signs([(0, m, n, (0,))])


def test_corpus_contents():
    names = [x.name for x in standard_corpus()]
    assert "torus" in names and "RP4" in names and "S0" in names
    assert len(names) == len(set(names))


def test_battery_suite_filter():
    reports = run_battery(
        complexes=[zoo("rp", 2)], coefficients=[Z], suites={"suspension"}
    )
    assert all(r.check == "suspension" for r in reports)
    assert all(r.passed for r in reports)


def test_full_battery():
    reports = run_battery()
    bad = [r.render() for r in reports if not r.passed]
    assert not bad, "\n".join(bad)


def test_skeletal_steps_are_valid():
    # the inclusions and cones of the skeletal check are built without
    # validation, so check them here; the collapse that the check reads in
    # cell coordinates is a chain map onto W_k / Q_k, which is Q_{k+1}
    from cwhom.chainmaps import _cone, validate_map
    from cwhom.complexes import quotient_by_skeleton, validate
    from cwhom.verify import _skeletal_quotient
    from skeletal_helpers import collapse_comparison
    for x in standard_corpus():
        for k in range(x.dim):
            j = inclusion_map(_skeletal_quotient(x, k, k), _skeletal_quotient(x, k + 1, k))
            assert validate_map(j) == [], (x.name, k)
            cone = _cone(j)
            assert validate(cone.cone) == [], (x.name, k)
            collapse = collapse_comparison(cone, quotient_by_skeleton(j.target, k))
            assert collapse.target == _skeletal_quotient(x, k + 1, k + 1), (x.name, k)
            assert validate_map(collapse) == [], (x.name, k)


def test_wedge_inclusions_are_valid():
    from cwhom.chainmaps import validate_map
    from cwhom.complexes import wedge
    from cwhom.verify import _wedge_inclusions
    groups = [
        [zoo("sphere", 1), zoo("sphere", 2)],
        [zoo("torus"), zoo("rp", 2)],
        [zoo("moore", 2, 1), zoo("sphere", 1)],
        [zoo("rp", 2), zoo("torus"), zoo("sphere", 3)],
        [zoo("sphere", 0), zoo("sphere", 0), zoo("klein")],
    ]
    for xs in groups:
        for inc in _wedge_inclusions(wedge(xs), xs):
            assert validate_map(inc) == []


def test_sign_solver_long_chain():
    from cwhom.verify import _SignSolver
    solver = _SignSolver()
    n = 5000
    for i in range(n):
        # consecutive generators have opposite signs
        assert solver.relate(i, i + 1, 1)
    assert solver.relate(0, n, n % 2)
    assert not solver.relate(n, 0, 1 - n % 2)
    assert solver.relate(1, n - 1, 0)


def test_coefficient_free_inputs_are_shared_and_nameless():
    # equal complexes share one cached tower and one suspension, which
    # carry no name, so reports name the complex they were asked about
    from cwhom.chainmaps import _cone, _suspended, validate_map
    from cwhom.complexes import quotient_by_skeleton, validate
    from cwhom.verify import _skeletal_tower
    from skeletal_helpers import collapse_comparison
    t = zoo("torus")
    other = t.with_name("other")
    assert _skeletal_tower(t) is _skeletal_tower(other)
    assert _suspended(t) is _suspended(other)
    assert _suspended(t).name == ""
    quotients, inclusions = _skeletal_tower(t)
    assert [q.name for q in quotients] == [""] * 3
    for k, j in enumerate(inclusions):
        cone = _cone(j)
        collapse = collapse_comparison(cone, quotient_by_skeleton(j.target, k))
        assert (cone.map.name, cone.cone.name, j.target.name, collapse.target.name) == ("", "cone", "", "")
        assert (j.source, j.target) == (quotients[k], cone.inclusion.source)
        assert (collapse.source, collapse.target) == (cone.cone, quotients[k + 1])
        assert validate_map(j) == [] and validate(cone.cone) == [] and validate_map(collapse) == []
    assert check_skeletal_reformulation(other, Z).render() == "PASS skeletal other G=Z dims=0..2"
    assert check_suspension(other, Z).render() == "PASS suspension other G=Z dims=0..3"
    assert _skeletal_tower.cache_info().maxsize is None and _suspended.cache_info().maxsize is None


def test_les_cone_built_once_per_map_and_nameless(monkeypatch):
    # every coefficient group of the LES check reads one cached cone, built
    # from a nameless copy, so a report names the map it was asked about
    import cwhom.chainmaps as chainmaps
    built = []
    real = chainmaps.mapping_cone

    def counting(f):
        built.append(f)
        return real(f)

    monkeypatch.setattr(chainmaps, "mapping_cone", counting)
    chainmaps._cone.cache_clear()
    s1 = zoo("sphere", 1).with_name("circle")
    f = chainmaps.ChainMap(s1, s1, sphere_self_map(1, 3).maps, "triple")
    g = chainmaps.ChainMap(s1.with_name("loop"), s1.with_name("loop"), f.maps)
    reports = [check_les_exactness(h, coeff) for h in (f, g) for coeff in standard_coefficients()]
    assert len(built) == 1
    assert [r.render().split()[2] for r in reports] == ["triple"] * 5 + ["loop->loop"] * 5
    assert all(r.passed for r in reports)
    cone = chainmaps._cone(g)
    assert (cone.map.name, cone.cone.name, cone.inclusion.source.name) == ("", "cone", "")
    assert (cone.map.source.name, cone.map.target.name) == ("", "")
    assert chainmaps._cone.cache_info().maxsize is None


def _counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that records its arguments."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_battery_proves_each_distinct_hom_once(monkeypatch):
    # the memos read their primitive from the module globals at call
    # time, so a primitive replaced there sees exactly the misses
    import cwhom.verify as verify
    memos = (verify._inverse, verify._exact, verify._subquotient)
    for memo in memos:
        memo.cache_clear()
    seen = {name: _counting(monkeypatch, verify, name)
            for name in ("invert_iso", "is_exact_pair", "hom_subquotient")}
    reports = run_battery()
    assert all(r.passed for r in reports)
    for name, calls in seen.items():
        assert calls, name
        assert len(calls) == len(set(calls)), name
    assert [m.cache_info().misses for m in memos] == [len(c) for c in seen.values()]


def test_les_builds_each_map_once_per_degree(monkeypatch):
    import cwhom.verify as verify
    from cwhom.chainmaps import _cone
    induced = _counting(monkeypatch, verify, "induced_map")
    connecting = _counting(monkeypatch, verify, "connecting_map")
    f = sphere_self_map(1, 2)
    rep = check_les_exactness(f, Z)
    assert rep.passed, rep.render()
    inclusion = _cone(f).inclusion
    iota = [args[1] for args in induced if args[0] == inclusion]
    f_star = [args[1] for args in induced if args[0] == f]
    gamma = [args[1] for args in connecting]
    assert len(iota) + len(f_star) == len(induced)
    assert iota == f_star == list(rep.dims)
    assert gamma == [rep.dims.start - 1, *rep.dims]


def test_equal_homs_share_one_memo_entry():
    from cwhom.abgroups import AbHom
    from cwhom.verify import _exact, _inverse, _subquotient
    for memo in (_inverse, _exact, _subquotient):
        memo.cache_clear()
    z2 = FgAbGroup.free(2)

    def swap():
        return AbHom(z2, z2, IntMatrix.from_rows([[0, 1], [1, 0]]))

    def project():
        return AbHom(z2, Z, IntMatrix.from_rows([[1, 0]]))

    def include():
        return AbHom(Z, z2, IntMatrix.from_rows([[0], [1]]))

    a, b = swap(), swap()
    assert a is not b and a == b
    assert _inverse(a) == _inverse(b) == a
    assert _exact(include(), project()) and _exact(include(), project())
    assert _subquotient(include(), project()).is_trivial
    assert _subquotient(include(), project()).is_trivial
    for memo in (_inverse, _exact, _subquotient):
        assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)


def test_failed_inversion_is_reproved_with_the_same_witness(monkeypatch):
    # a failure is not cached: each report re-proves it and names it alike
    import cwhom.verify as verify
    from cwhom.abgroups import zero_hom
    verify._inverse.cache_clear()
    real = verify.shift_iso

    def broken(x, n, coeff):
        s = real(x, n, coeff)
        return zero_hom(s.source, s.target)

    monkeypatch.setattr(verify, "shift_iso", broken)
    inverted = _counting(monkeypatch, verify, "invert_iso")
    t = zoo("torus")
    first = check_suspension(t, Z)
    tried = len(inverted)
    second = check_suspension(t, Z)
    assert not first.passed
    assert first.render() == second.render()
    assert "dimension 1: shift is not invertible" in first.render()
    # the trivial-group dimensions hit the memo; the failures run again
    assert len(inverted) - tried == len(first.witnesses)


def _skeletal_keys(complexes, coefficients):
    """The distinct (Q_k, k, G) and (level, k, G, B_{k+1}) the skeletal
    check proves over these complexes and groups."""
    from cwhom.verify import _skeletal_tower
    quotients, levels = set(), set()
    for x in complexes:
        qs, ls = _skeletal_tower(x)
        for coeff in coefficients:
            quotients.update((q, k, coeff) for k, q in enumerate(qs))
            levels.update((level, k, coeff, x.boundary(k + 1)) for k, level in enumerate(ls))
    return quotients, levels


def test_battery_proves_each_quotient_and_level_once():
    import cwhom.verify as verify
    memos = (verify._quotient_proof, verify._level_proof)
    for cache in _package_caches()[1]:
        cache.cache_clear()
    first = [r.render() for r in run_battery()]
    quotients, levels = _skeletal_keys(standard_corpus(), standard_coefficients())
    assert [m.cache_info().misses for m in memos] == [len(quotients), len(levels)] == [55, 105]
    assert [m.cache_info().currsize for m in memos] == [55, 105]
    # a second battery in the same process proves nothing again
    assert [r.render() for r in run_battery()] == first
    assert [m.cache_info().misses for m in memos] == [55, 105]
    want = (Path(__file__).parent / "data" / "check_battery.txt").read_text(encoding="utf-8")
    assert "".join(f"{r}\n" for r in first) == want


def test_a_second_battery_runs_no_snf(monkeypatch):
    # the first battery keeps every elimination, presentation and wedge
    # restriction in the memos the battery holds: the second runs no SNF
    import cwhom.abgroups as abgroups
    import cwhom.homology as homology
    import cwhom.intmat as intmat
    run_battery()
    calls, real = [], intmat._snf_ext
    for module in (intmat, homology, abgroups):
        monkeypatch.setattr(module, "_snf_ext", lambda a: calls.append(a) or real(a))
    assert all(r.passed for r in run_battery())
    assert calls == []


def test_battery_compares_no_chain_map_or_cone(monkeypatch):
    # each memo a check reads is found once per object through its value's
    # weak-table entry, and the level proofs are keyed by (k, G, B_{k+1}) in
    # their inclusion's memo: no chain map or cone is compared, on a miss or
    # on a hit
    from cwhom.chainmaps import ChainMap, MappingCone
    compared = {ChainMap: 0, MappingCone: 0}
    for cls in compared:
        def counting(self, other, cls=cls, real=cls.__eq__):
            compared[cls] += 1
            return real(self, other)

        monkeypatch.setattr(cls, "__eq__", counting)
    for cache in _package_caches()[1]:
        cache.cache_clear()
    assert all(r.passed for r in run_battery())
    assert compared == {ChainMap: 0, MappingCone: 0}


def test_level_proofs_sit_beside_the_cone_in_the_inclusions_memo():
    # after a skeletal check each tower inclusion's memo holds its cone, the
    # one the les check reads, and a level proof for every group; the cone's
    # map is a nameless copy of j that holds no memo, so no cycle forms
    import cwhom.verify as verify
    from cwhom.chainmaps import _cone
    x = zoo("klein")
    groups = (Z, FgAbGroup.cyclic(2))
    for coeff in groups:
        assert check_skeletal_reformulation(x, coeff).passed
    inclusions = verify._skeletal_tower(x)[1]
    assert len(inclusions) == 2
    for k, j in enumerate(inclusions):
        cone = j._memo[_cone.__wrapped__, ()]
        assert cone is _cone(j)
        assert cone.map is not j and not hasattr(cone.map, "_memo")
        for coeff in groups:
            proof = j._memo[verify._level_proof.__wrapped__, (k, coeff, x.boundary(k + 1))]
            assert proof is verify._level_proof(j, k, coeff, x.boundary(k + 1))


def test_equal_complexes_share_skeletal_proofs():
    import cwhom.verify as verify
    memos = (verify._quotient_proof, verify._level_proof)
    for memo in memos:
        memo.cache_clear()
    t = zoo("torus")
    first = check_skeletal_reformulation(t, Z)
    misses = [m.cache_info().misses for m in memos]
    assert misses == [3, 2]
    second = check_skeletal_reformulation(t.with_name("other"), Z)
    assert [m.cache_info().misses for m in memos] == misses
    assert first.render() == "PASS skeletal torus G=Z dims=0..2"
    assert second.render() == "PASS skeletal other G=Z dims=0..2"
    # another coefficient group is another proof
    check_skeletal_reformulation(t, FgAbGroup.cyclic(2))
    assert [m.cache_info().misses for m in memos] == [6, 4]


def test_skeletal_levels_go_with_their_complex():
    # each level's proofs are kept in its inclusion j's memo, beside j's
    # cone, whose map is a nameless copy of j that never finds that memo:
    # once the complex is dropped and another is queried, every level goes
    # by reference counting alone (the cyclic collector is off).  The
    # genus-3 surface is not in the standard corpus, so no battery run
    # earlier in the process holds its tower.
    import gc
    import weakref

    from cwhom.chainmaps import _cone
    from cwhom.homology import chain_group
    from cwhom.verify import _skeletal_tower
    enabled = gc.isenabled()
    gc.disable()
    try:
        x = zoo("surface", 3)
        assert check_skeletal_reformulation(x, Z).passed
        refs = [weakref.ref(v) for j in _skeletal_tower(x)[1]
                for v in (j, _cone(j).map, _cone(j).cone, _cone(j).inclusion, _cone(j).projection)]
        del x
        chain_group(zoo("sphere", 43), 43, Z, "homology", False)
        assert len(refs) == 10 and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()


def test_failed_level_proof_is_not_kept(monkeypatch):
    # a collapse comparison that is not invertible raises, is not cached,
    # and raises again with the same message when the level is met again
    import cwhom.verify as verify
    from cwhom.abgroups import NotAnIsomorphism
    from cwhom.chainmaps import _cone
    from cwhom.complexes import quotient_by_skeleton
    from skeletal_helpers import collapse_comparison
    x = zoo("rp", 2)
    check_skeletal_reformulation(x, Z)  # every quotient proof is kept
    verify._level_proof.cache_clear()
    j = verify._skeletal_tower(x)[1][0]
    collapse = collapse_comparison(_cone(j), quotient_by_skeleton(j.target, 0))
    q_star = verify.induced_map(collapse, 1, Z, "cohomology", reduced=True)
    real = verify._inverse

    def refusing(h):
        if h == q_star:
            raise NotAnIsomorphism("refused")
        return real(h)

    monkeypatch.setattr(verify, "_inverse", refusing)
    messages = []
    for _ in range(2):
        with pytest.raises(verify.IsoTransportFailure) as caught:
            check_skeletal_reformulation(x, Z)
        messages.append(str(caught.value))
    assert messages == ["collapse comparison at level 0 is not invertible: refused"] * 2
    info = verify._level_proof.cache_info()
    assert (info.misses, info.currsize) == (2, 0)
    monkeypatch.undo()
    assert check_skeletal_reformulation(x, Z).passed


def test_failed_quotient_proof_is_not_kept(monkeypatch):
    # a cell-basis isomorphism that is not invertible raises, is not cached,
    # and raises again with the same message when the quotient is met again.
    # Q_0's is not an identity hom, so no level's inversion meets it
    import cwhom.verify as verify
    from cwhom.abgroups import NotAnIsomorphism
    x = zoo("rp", 2)
    iso = verify._cell_basis_iso(verify._skeletal_tower(x)[0][0], 0, Z)
    assert iso.matrix != IntMatrix.identity(iso.matrix.rows)
    real = verify._inverse

    def refusing(h):
        if h == iso:
            raise NotAnIsomorphism("refused")
        return real(h)

    verify._quotient_proof.cache_clear()
    monkeypatch.setattr(verify, "_inverse", refusing)
    messages = []
    for _ in range(2):
        with pytest.raises(verify.IsoTransportFailure) as caught:
            check_skeletal_reformulation(x, Z)
        messages.append(str(caught.value))
    assert messages == ["h^0(Q_0) is not free on cells: refused"] * 2
    info = verify._quotient_proof.cache_info()
    assert (info.misses, info.currsize) == (2, 0)
    monkeypatch.undo()
    assert check_skeletal_reformulation(x, Z).passed


def test_level_maps_equal_the_composite_through_the_collapse():
    # each level read in cell coordinates is the composite built the long
    # way: the connecting map of j, then the inverse of the collapse's
    # induced map, between the cell-basis isomorphisms of Q_k and Q_{k+1};
    # and the collapse at the top level is the cone's inclusion there
    import cwhom.verify as verify
    from cwhom.chainmaps import _cone
    from cwhom.complexes import quotient_by_skeleton
    from cwhom.documents import complex_from_doc
    from skeletal_helpers import collapse_comparison, composite_through_collapse
    from test_documents import grid_torus_doc
    xs = standard_corpus() + [complex_from_doc(grid_torus_doc(k)) for k in (3, 4)]
    compared = 0
    for x in xs:
        for k, j in enumerate(verify._skeletal_tower(x)[1]):
            cone = _cone(j)
            collapse = collapse_comparison(cone, quotient_by_skeleton(j.target, k))
            assert collapse.level(k + 1).transpose() == cone.inclusion.level(k + 1), (x.name, k)
            for coeff in standard_coefficients():
                delta = verify._level_proof(j, k, coeff, x.boundary(k + 1))[0]
                assert delta == composite_through_collapse(j, cone, k, coeff), (x.name, k, coeff)
                compared += 1
    assert compared == 5 * sum(x.dim for x in xs)


@pytest.mark.parametrize("coeff", ["Z", "Z + Z/2"])
def test_skeletal_check_inverts_a_collapse_that_is_not_the_identity(coeff):
    # on the grid torus the collapse at level 1, read in cell coordinates,
    # is not an identity hom, as it is on every corpus complex: a check that
    # used it in place of its inverse fails here
    import cwhom.verify as verify
    from cwhom.chainmaps import _cone
    from cwhom.documents import complex_from_doc
    from cwhom.homology import _induced, cells_presentation, chain_group
    from test_documents import grid_torus_doc
    x = complex_from_doc(grid_torus_doc(3)).with_name("T3")
    g = parse_group(coeff)
    cone = _cone(verify._skeletal_tower(x)[1][1])
    collapse = _induced(cells_presentation(x.cells[2], g), chain_group(cone.cone, 2, g, "cohomology", True),
                        cone.inclusion.level(2))
    assert collapse.matrix != IntMatrix.identity(collapse.matrix.rows)
    assert check_skeletal_reformulation(x, g).render() == f"PASS skeletal T3 G={g} dims=0..2"


def _relabelled(x, rng):
    """x with the cells of each dimension permuted at random, every cell
    above the vertices reoriented at random and the basepoint moved along:
    B_n' = P_{n-1} B_n P_n^-1 for signed permutations P_n."""
    perms = [rng.sample(range(c), c) for c in x.cells]
    signs = [[1] * x.cells[0]] + [[rng.choice((1, -1)) for _ in range(c)] for c in x.cells[1:]]
    boundaries = []
    for n in range(1, x.dim + 1):
        b = x.boundary(n)
        rows = [[0] * b.cols for _ in range(b.rows)]
        for i in range(b.rows):
            for j in range(b.cols):
                rows[perms[n - 1][i]][perms[n][j]] = signs[n - 1][i] * signs[n][j] * b.entry(i, j)
        boundaries.append(IntMatrix.from_rows(rows, cols=b.cols))
    return CwComplex(x.cells, tuple(boundaries), perms[0][x.basepoint], x.name)


def test_reports_do_not_see_cell_labels():
    # the skeletal and suspension checks render the same bytes after any
    # signed relabelling of the cells that moves the basepoint along
    import random

    from cwhom.documents import complex_from_doc
    from test_documents import grid_torus_doc
    rng, moved = random.Random(24), 0
    for x in standard_corpus() + [complex_from_doc(grid_torus_doc(3)).with_name("T3")]:
        for _ in range(3):
            y = _relabelled(x, rng)
            assert validate(y) == [], x.name
            moved += y != x
            for coeff in standard_coefficients():
                for check in (check_skeletal_reformulation, check_suspension):
                    assert check(y, coeff).render() == check(x, coeff).render(), (x.name, y, coeff)
    # the rest equal their original: zero boundaries, or signs that cancel
    assert moved == 29


def test_check_memos_are_bounded():
    from cwhom.verify import _exact, _inverse, _subquotient
    for memo in (_inverse, _exact, _subquotient):
        assert memo.cache_info().maxsize


def _package_caches():
    import importlib
    import pkgutil

    import cwhom
    names, caches = set(), {}
    for info in pkgutil.iter_modules(cwhom.__path__):
        module = importlib.import_module(f"cwhom.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and hasattr(value, "cache_parameters"):
                names.add(f"{info.name}.{name}")
                caches[id(value)] = value
    return names, list(caches.values())


def test_factor_caches_are_package_caches():
    names, _ = _package_caches()
    assert {"homology._elimination", "homology._factor"} <= names


def test_every_cache_is_bounded_and_holds_a_battery():
    import weakref

    import cwhom.chainmaps as chainmaps
    import cwhom.cli as cli
    import cwhom.homology as homology
    import cwhom.verify as verify
    names, caches = _package_caches()
    assert {"homology.chain_group", "homology._reduction", "homology.cells_presentation",
            "verify._inverse", "verify._exact", "verify._subquotient",
            "verify._quotient_proof", "verify._level_proof"} <= names
    # what is keyed by a complex, a chain map or a matrix is kept in the
    # memo of that value: no entry count bounds it, the lifetime of the
    # value does.  The caches keyed by groups, homs or nothing are bounded.
    per_value = [homology.chain_group, homology._reduction, homology._chain_maps, homology._elimination,
                 homology._factor, chainmaps._suspended, chainmaps._cone, verify._restrictions,
                 verify._skeletal_tower, verify._quotient_proof, verify._level_proof]
    bounded = [homology.cells_presentation, verify._inverse, verify._exact, verify._subquotient, cli.build_parser]
    assert len(caches) == len(per_value) + len(bounded)
    per_complex = per_value[:2]
    for cache in caches:
        cache.cache_clear()
    run_battery()
    for cache in caches:
        info = cache.cache_info()
        assert (info.maxsize is None) == any(cache is m for m in per_value), cache
        assert (info.maxsize is not None) == any(cache is m for m in bounded), cache
        # nothing was released or evicted during the battery
        assert info.currsize == info.misses, (cache, info)
    # a dropped complex goes at once when another is queried, and its
    # entries with it
    held = [m.cache_info().currsize for m in per_complex]
    x = zoo("sphere", 41)
    homology.chain_group(x, 41, Z, "homology", False)
    gone = weakref.ref(x)
    del x
    homology.chain_group(zoo("sphere", 42), 42, Z, "homology", False)
    assert gone() is None
    assert [m.cache_info().currsize for m in per_complex] == [h + 1 for h in held]


def test_born_valid_maps_pass_a_fresh_check():
    # cone inclusions and projections carry an empty violation report from
    # birth, so validate_map runs on them afresh here, with the skeletal
    # tower's inclusions
    from cwhom.chainmaps import _cone, validate_map
    from cwhom.verify import _skeletal_tower
    t, r = zoo("torus"), zoo("rp", 3)
    les = [sphere_self_map(1, d) for d in (0, 1, 2, 6)]
    les += [sphere_self_map(2, 3), identity_map(t), inclusion_map(skeleton(t, 1), t),
            inclusion_map(skeleton(r, 2), r)]
    born = [m for f in les for m in (_cone(f).inclusion, _cone(f).projection)]
    for x in standard_corpus():
        for j in _skeletal_tower(x)[1]:
            cone = _cone(j)
            born += [j, cone.inclusion, cone.projection]
    assert len(born) == 16 + 3 * sum(x.dim for x in standard_corpus())
    for f in born:
        assert f._violations == ()
        assert validate_map(f) == [], (f.name, f.source, f.target)


def test_derived_homs_equal_the_checked_constructor(monkeypatch):
    # every hom the battery builds without the well-definedness check
    # passes that check, and comes out as the public constructor makes it
    from cwhom.abgroups import AbHom
    derived, real = [], AbHom._derived
    monkeypatch.setattr(AbHom, "_derived", staticmethod(lambda *a: derived.append(real(*a)) or derived[-1]))
    for cache in _package_caches()[1]:
        cache.cache_clear()
    assert all(r.passed for r in run_battery())
    # the skeletal proofs are memos, so the floor counts distinct homs
    assert len(set(derived)) >= 153
    for h in set(derived):
        assert AbHom(h.source, h.target, h.matrix) == h


def test_battery_validates_only_what_enters(monkeypatch):
    # complexes are validated where edge words enter (from_presentation)
    # and maps where they are handed to the LES check; every complex and
    # map the package derives from them is born with its report
    import cwhom.chainmaps as chainmaps
    import cwhom.complexes as complexes
    import cwhom.verify as verify
    validated, presented, maps_validated, handed = [], [], [], []
    real_validate, real_present = complexes.validate, complexes.from_presentation
    real_validate_map, real_les = chainmaps.validate_map, verify.check_les_exactness
    monkeypatch.setattr(complexes, "validate", lambda x: validated.append(x) or real_validate(x))
    monkeypatch.setattr(complexes, "from_presentation", lambda p: presented.append(real_present(p)) or presented[-1])
    monkeypatch.setattr(chainmaps, "validate_map", lambda f: maps_validated.append(f) or real_validate_map(f))
    monkeypatch.setattr(verify, "check_les_exactness", lambda f, g: handed.append(f) or real_les(f, g))
    for cache in _package_caches()[1]:
        cache.cache_clear()
    assert all(r.passed for r in run_battery())
    assert [id(x) for x in validated] == [id(x) for x in presented]
    assert len(presented) == 6
    # inclusion_map validates its two maps when run_battery builds them,
    # before the LES checks start
    assert sorted(map(id, maps_validated)) == sorted({id(f) for f in handed})
    assert len(maps_validated) == 8


def test_cached_derived_complexes_are_born_valid():
    # every complex the skeletal tower and the cone cache hold, and every
    # quotient W_k / Q_k, carries an empty report from birth, and passes
    # validate afresh
    from cwhom.chainmaps import _cone
    from cwhom.complexes import quotient_by_skeleton, validate
    from cwhom.verify import _skeletal_tower
    for cache in _package_caches()[1]:
        cache.cache_clear()
    run_battery()
    towers, cones = _skeletal_tower.cache_info(), _cone.cache_info()
    t, r = zoo("torus"), zoo("rp", 3)
    les = [sphere_self_map(1, d) for d in (0, 1, 2, 6)]
    les += [sphere_self_map(2, 3), identity_map(t), inclusion_map(skeleton(t, 1), t),
            inclusion_map(skeleton(r, 2), r)]
    held, coned = [], list(les)
    for x in standard_corpus():
        quotients, inclusions = _skeletal_tower(x)
        held += quotients
        coned += inclusions
        held += [quotient_by_skeleton(j.target, k) for k, j in enumerate(inclusions)]
    for f in coned:
        c = _cone(f)
        held += [f.source, f.target, c.map.source, c.map.target, c.cone, c.projection.target]
    # every lookup hit, and every entry was looked up
    assert (_skeletal_tower.cache_info().misses, _cone.cache_info().misses) == (towers.misses, cones.misses)
    assert (towers.currsize, cones.currsize) == (len(set(standard_corpus())), len(set(coned)))
    for x in held:
        assert x._violations == ()
        assert validate(x) == [], x
