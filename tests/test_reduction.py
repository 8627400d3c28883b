"""The unit-pivot reduction under chain_group, against independent values.

Complexes come in four kinds: unimodular conjugates of diagonal chain
complexes, whose groups are read off the diagonal form; square-grid tori;
subdivided spheres with self-maps of known degree; and mapping cones of
skeleton inclusions.  Every group is
also compared with the unreduced engine, factor by factor.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwhom.abgroups import normalize_diagonal, parse_group
from cwhom.chainmaps import ChainMap, degree, induced_map, require_valid_map
from cwhom.complexes import CwComplex, EdgePresentation, from_presentation, require_valid, zoo
from cwhom.homology import _chain_maps, all_groups, chain_group
from cwhom.intmat import IntMatrix, NotInLattice, _coordinate_columns, _coordinates_from_ext, snf
from cwhom.reduction import reduce_complex
from lattice_helpers import factor_presentation as _factor_presentation, transform_work

COEFFS = [parse_group(g) for g in ("Z", "Z/2", "Z + Z/4")]
VARIANTS = [(v, r) for v in ("homology", "cohomology") for r in (False, True)]


def coeff_factors(coeff):
    """The cyclic factor moduli of G, free factors (0) first."""
    return coeff.generator_orders()


def _graded_maps(x, n, variant, reduced):
    """(outgoing map, incoming map) at dimension n; ambient is c_n: the
    chain maps, or for cochains their transposes swapped."""
    maps = _chain_maps(x, n, reduced)
    out, inc = maps.out, maps.inc
    if variant == "homology":
        return out, inc
    return inc.transpose(), out.transpose()


def _matmul(a, b, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def _unimodular(draw, m, fixed_last):
    """(A, A^-1) from elementary row operations and a signed permutation;
    with ``fixed_last`` the last row of A stays e_m."""
    a = [[int(i == j) for j in range(m)] for i in range(m)]
    ainv = [row[:] for row in a]
    free = m - 1 if fixed_last else m
    if free < 1 or m < 2:
        return a, ainv
    ops = draw(st.lists(st.tuples(st.integers(0, free - 1), st.integers(0, m - 1),
                                  st.sampled_from((1, -1, 2, -2))), max_size=3 * m))
    for i, j, c in ops:
        if i == j:
            continue
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in ainv:
            row[j] -= c * row[i]
    perm = draw(st.permutations(range(free))) + list(range(free, m))
    sign = [draw(st.sampled_from((1, -1))) for _ in range(free)] + [1] * (m - free)
    a = [[sign[i] * v for v in a[perm[i]]] for i in range(m)]
    ainv = [[row[perm[j]] * sign[j] for j in range(m)] for row in ainv]
    return a, ainv


@st.composite
def conjugates(draw):
    """A diagonal complex conjugated by unimodular matrices, with its
    diagonal data: (complex, free counts h_n, diagonals d_n of B_n).

    C_n has basis [A_n | H_n | D_n]; B_n maps D_n onto A_{n-1} by the
    diagonal d_n.  B_n' = A_{n-1} B_n A_n^-1, with A_0 = E A' where E is
    the difference matrix and A' keeps its last row, so that the
    augmentation reads the last (free) vertex and B_1' has zero column
    sums."""
    top = draw(st.integers(1, 3))
    ranks = [0] + [draw(st.integers(0, 2)) for _ in range(top)] + [0]
    free = [draw(st.integers(1 if n == 0 else 0, 2)) for n in range(top + 1)]
    diag = {n: [draw(st.sampled_from((1, -1, 2, -2, 3, 4, 6))) for _ in range(ranks[n])]
            for n in range(1, top + 1)}
    cells = [ranks[n + 1] + free[n] + ranks[n] for n in range(top + 1)]
    conj = []
    for n in range(top + 1):
        m = cells[n]
        a, ainv = _unimodular(draw, m, fixed_last=(n == 0))
        if n == 0:
            e = [[1 if i == j else (-1 if i == j + 1 else 0) for j in range(m)] for i in range(m)]
            einv = [[1 if i >= j else 0 for j in range(m)] for i in range(m)]
            a, ainv = _matmul(e, a, m), _matmul(ainv, einv, m)
        conj.append((a, ainv))
    bnds = []
    for n in range(1, top + 1):
        rows, cols = cells[n - 1], cells[n]
        b = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag[n]):
            b[i][cols - ranks[n] + i] = d
        b = _matmul(_matmul(conj[n - 1][0], b, cols), conj[n][1], cols)
        bnds.append(IntMatrix.from_rows(b, cols=cols))
    x = require_valid(CwComplex(tuple(cells), tuple(bnds)))
    return x, free, diag


def diagonal_orders(free, diag, n, variant, reduced, m):
    """Cyclic orders of the (co)homology of a diagonal complex with
    coefficients Z/m (m = 0 for Z), in dimension n."""
    h = free[n] - (1 if reduced and n == 0 else 0)
    here, above = diag.get(n, []), diag.get(n + 1, [])
    if variant == "cohomology":
        here, above = above, here
    # cokernels of the diagonal entries of the incoming map, and kernels
    # (nonzero only mod m) of those of the outgoing map
    return [m] * h + [gcd(d, m) for d in above] + ([gcd(d, m) for d in here] if m else [])


def check_against_unreduced(x, n, variant, reduced, coeff):
    """Each factor of chain_group equals the unreduced engine's, its lifts
    are (co)cycles, coords inverts them, and coords rejects exactly the
    vectors the unreduced engine rejects.  Returns how many rejected unit
    vectors the chain equivalence sends to residual (co)cycles."""
    cp = chain_group(x, n, coeff, variant, reduced)
    out, inc = _graded_maps(x, n, variant, reduced)
    red = reduce_complex(x)
    res_out = _graded_maps(red.residual, n, variant, reduced)[0] if red else None
    dual = variant == "cohomology"
    fooled = 0
    for (m, pres), m_want in zip(cp.factors, coeff_factors(coeff)):
        assert m == m_want
        assert pres.group == _factor_presentation(out, inc, m).group
        assert pres.ambient_dim == x.cells[n]
        for i, lift in enumerate(pres.lifts):
            assert all(v % m == 0 if m else v == 0 for v in out.apply(lift))
            assert pres.coords(lift) == tuple(int(i == j) for j in range(len(pres.lifts)))
        for j in range(x.cells[n]):
            e = tuple(int(i == j) for i in range(x.cells[n]))
            if all(v % m == 0 if m else v == 0 for v in out.apply(e)):
                pres.coords(e)
                continue
            with pytest.raises(NotInLattice):
                pres.coords(e)
            if red and all(v % m == 0 if m else v == 0 for v in res_out.apply(red.push(n, e, dual))):
                fooled += 1
    return fooled


@settings(max_examples=40, deadline=None)
@given(conjugates())
def test_conjugates_match_diagonal_form(data):
    x, free, diag = data
    for coeff in COEFFS:
        for variant, reduced in VARIANTS:
            for n in range(x.dim + 1):
                want = normalize_diagonal(
                    [o for m in coeff_factors(coeff)
                     for o in diagonal_orders(free, diag, n, variant, reduced, m)])
                assert chain_group(x, n, coeff, variant, reduced).group == want
                check_against_unreduced(x, n, variant, reduced, coeff)


@settings(max_examples=40, deadline=None)
@given(conjugates())
def test_chain_equivalence(data):
    """g is a chain map, f g = id on every level, and g_0 includes the
    residual vertices, so the carried augmentation is the all-ones row."""
    x, _, _ = data
    red = reduce_complex(x)
    if red is None:
        return
    y = red.residual
    require_valid(y)
    for n in range(x.dim + 1):
        for r in range(y.cells[n]):
            e = tuple(int(i == r) for i in range(y.cells[n]))
            for dual in (False, True):
                assert red.push(n, red.pull(n, e, dual), dual) == e
            lift = red.pull(n, e)
            if n == 0:
                assert sorted(lift) == [0] * (x.cells[0] - 1) + [1]
            else:
                assert x.boundary(n).apply(lift) == red.pull(n - 1, y.boundary(n).col(r))


def grid_torus(k):
    """The k x k square-grid torus, cells (k^2, 2k^2, k^2)."""
    def v(i, j):
        return (i % k) * k + j % k
    edges = []
    for i in range(k):
        for j in range(k):
            edges.append((v(i, j), v(i + 1, j)))  # horizontal, index 2v + 1
            edges.append((v(i, j), v(i, j + 1)))  # vertical, index 2v + 2
    faces = []
    for i in range(k):
        for j in range(k):
            h, up = 2 * v(i, j) + 1, 2 * v(i + 1, j) + 2
            top, left = 2 * v(i, j + 1) + 1, 2 * v(i, j) + 2
            faces.append((h, up, -top, -left))
    return from_presentation(EdgePresentation(k * k, tuple(edges), tuple(faces)))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_grid_torus(k):
    x = grid_torus(k)
    red = reduce_complex(x)
    assert red.residual.cells == (1, 2, 1)
    assert all(b.is_zero() for b in red.residual.boundaries)
    fooled = 0
    for coeff in COEFFS:
        for variant, reduced in VARIANTS:
            for n, betti in enumerate((1, 2, 1)):
                if reduced and n == 0:
                    betti = 0
                want = normalize_diagonal([m for m in coeff_factors(coeff)] * betti)
                assert chain_group(x, n, coeff, variant, reduced).group == want
                fooled += check_against_unreduced(x, n, variant, reduced, coeff)
    # the out-map check is what rejects these: f alone would accept them
    assert fooled > 0


def test_nothing_to_cancel():
    for x in (zoo("rp", 3), zoo("torus"), zoo("moore", 4, 2), zoo("point")):
        assert reduce_complex(x) is None


def subdivided_sphere(dim, k):
    """S^1 as a k-gon (edge j runs from vertex j to j + 1), and S^2 as two
    discs glued along it (upper disc first)."""
    edges = tuple((j, (j + 1) % k) for j in range(k))
    faces = ()
    if dim == 2:
        faces = (tuple(range(1, k + 1)), tuple(-j for j in range(k, 0, -1)))
    return from_presentation(EdgePresentation(k, edges, faces))


def circle_levels(k, d):
    """F_0, F_1 of the degree-d wrap of the k-gon: vertex i goes to vertex
    d i, edge i to the |d| edges from d i towards d (i + 1)."""
    f0 = [[0] * k for _ in range(k)]
    f1 = [[0] * k for _ in range(k)]
    for i in range(k):
        f0[d * i % k][i] = 1
        for t in range(abs(d)):
            if d > 0:
                f1[(d * i + t) % k][i] += 1
            else:
                f1[(d * i + d + t) % k][i] -= 1
    return IntMatrix.from_rows(f0), IntMatrix.from_rows(f1)


@pytest.mark.parametrize("d", [-3, -1, 0, 1, 2, 5])
def test_circle_degree(d):
    s = subdivided_sphere(1, 4)
    f = require_valid_map(ChainMap(s, s, circle_levels(4, d)), pointed=True)
    assert degree(f) == d
    g = parse_group("Z + Z/4")
    for variant in ("homology", "cohomology"):
        h = induced_map(f, 1, g, variant, reduced=True)
        assert h.matrix == IntMatrix.from_rows([[d, 0], [0, d % 4]])


@pytest.mark.parametrize("a,c,e", [(1, 0, 1), (2, 1, 0), (-1, -1, 3), (0, 0, -2)])
def test_sphere2_degree(a, c, e):
    """F_2 sends the upper disc to a U + (a - e) L and the lower one to
    c U + (c + e) L over an equator map of degree e; the degree is a + c."""
    k = 5
    s = subdivided_sphere(2, k)
    f0, f1 = circle_levels(k, e)
    f2 = IntMatrix.from_rows([[a, c], [a - e, c + e]])
    f = require_valid_map(ChainMap(s, s, (f0, f1, f2)), pointed=True)
    assert degree(f) == a + c
    for coeff, want in ((parse_group("Z"), [[a + c]]), (parse_group("Z/2"), [[(a + c) % 2]])):
        for variant in ("homology", "cohomology"):
            assert induced_map(f, 2, coeff, variant).matrix == IntMatrix.from_rows(want)


@pytest.mark.parametrize("x", [grid_torus(3), zoo("rp", 3), zoo("moore", 4, 2), zoo("point")],
                         ids=["T3", "rp3", "moore", "point"])
def test_out_columns_are_the_out_map(x):
    from cwhom.homology import _out_boundary, _out_columns
    from cwhom.intmat import _sparse_columns
    for variant, reduced in VARIANTS:
        for n in range(x.dim + 1):
            want = _sparse_columns(_graded_maps(x, n, variant, reduced)[0])
            assert _out_columns(_out_boundary(x, n, variant), n, variant, reduced) == want


def test_reduced_path_builds_no_original_out_map(monkeypatch):
    # chain_group on a reducible complex works on the residual alone; the
    # original out-map is read sparse, and only once coords is asked
    import cwhom.homology as homology
    x = grid_torus(5)
    maps_on_x, big_transposes = [], []
    real_maps, real_transpose = homology._chain_maps, IntMatrix.transpose

    def counting_maps(y, *args):
        if y == x:
            maps_on_x.append(args)
        return real_maps(y, *args)

    def counting_transpose(m):
        if max(m.shape) >= x.cells[0]:
            big_transposes.append(m.shape)
        return real_transpose(m)

    real_columns = homology._out_columns
    column_reads = []

    def counting_columns(*args):
        column_reads.append(args)
        return real_columns(*args)

    monkeypatch.setattr(homology, "_chain_maps", counting_maps)
    monkeypatch.setattr(homology, "_out_columns", counting_columns)
    monkeypatch.setattr(IntMatrix, "transpose", counting_transpose)
    homology.chain_group.cache_clear()
    groups = {}
    for coeff in COEFFS:
        for variant, reduced in VARIANTS:
            for n in range(3):
                groups[coeff, variant, reduced, n] = chain_group(x, n, coeff, variant, reduced)
    assert (maps_on_x, big_transposes, column_reads) == ([], [], [])
    # coords reads the out-map, rejecting what f alone would accept
    rejected = 0
    for cp in groups.values():
        for _, pres in cp.factors:
            for lift in pres.lifts:
                assert sum(pres.coords(lift)) == 1
            for cell in range(cp.ambient_dim):
                try:
                    pres.coords(tuple(int(i == cell) for i in range(cp.ambient_dim)))
                except NotInLattice:
                    rejected += 1
    assert rejected > 0 and column_reads
    assert (maps_on_x, big_transposes) == ([], [])


def test_reduced_path_reads_no_chain_maps_of_the_original(monkeypatch):
    # the factor caches are keyed by the residual's chain maps alone
    import cwhom.homology as homology
    x = grid_torus(5)
    on_x = []
    real = homology._chain_maps

    def counting(y, *args):
        if y == x:
            on_x.append(args)
        return real(y, *args)

    monkeypatch.setattr(homology, "_chain_maps", counting)
    homology.chain_group.cache_clear()
    for coeff in COEFFS:
        for variant, reduced in VARIANTS:
            for n in range(3):
                chain_group(x, n, coeff, variant, reduced)
    assert on_x == [] and homology.chain_group.cache_info().currsize == 3 * len(COEFFS) * len(VARIANTS)
    # x's memo holds one entry per (n, coeff, variant, reduced), and x's reduction
    want = {(n, coeff, variant, reduced) for coeff in COEFFS for variant, reduced in VARIANTS for n in range(3)}
    got = [key[1] for key in x._memo if key[0] is homology.chain_group.__wrapped__]
    assert len(got) == len(want) and set(got) == want
    assert x._memo[homology._reduction.__wrapped__, ()] is homology._reduction(x) is not None


def _read_everything(cps):
    for cp in cps:
        for pres in [p for _, p in cp.factors] + [cp.glue]:
            pres.lifts
            pres.coords(pres.lifts[0] if pres.lifts else (0,) * pres.ambient_dim)


@settings(max_examples=20, deadline=None)
@given(conjugates())
def test_groups_alone_replay_no_transform(data):
    import cwhom.homology as homology
    x, _, _ = data
    homology.chain_group.cache_clear()
    with transform_work() as seen:
        cps = [chain_group(x, n, coeff, variant, reduced)
               for coeff in COEFFS for variant, reduced in VARIANTS for n in range(x.dim + 1)]
        assert all(cp.group is not None for cp in cps)
    assert (seen.transforms, seen.matmuls) == ([], [])
    # the recorder sees the work once a presentation is read
    with transform_work() as seen:
        _read_everything(cps)
    assert seen.transforms


def test_torus_table_replays_no_transform():
    import cwhom.homology as homology
    x = grid_torus(4)
    homology.chain_group.cache_clear()
    with transform_work() as seen:
        for coeff in COEFFS:
            for variant, reduced in VARIANTS:
                assert all_groups(x, coeff, variant, reduced)[1] == normalize_diagonal(
                    [m for m in coeff_factors(coeff)] * 2)
    assert (seen.transforms, seen.matmuls) == ([], [])


def _eager_present(rel, lift, to_basis, e, live):
    """Lifts and coords as a presentation built them before they were
    lazy: from the U and U^-1 that snf() tracks for the relations."""
    ext = snf(rel)
    d, r, rank = ext.diagonal(), rel.rows, ext.rank
    tors = [i for i in range(rank) if d[i] >= 2]
    gens = list(range(rank, r)) + tors
    orders = [0] * (r - rank) + [d[i] for i in tors]
    uinv = IntMatrix.from_rows([ext.Uinv.row(j) for j in gens], cols=r)

    def coords(v):
        y = _coordinates_from_ext(to_basis(v), e, live)
        return tuple(w % o if o else w for w, o in zip(uinv.apply(y), orders))

    return tuple(lift(ext.U.col(j)) for j in gens), coords


def _eager_factor(out, inn, d):
    """One cyclic factor from snf(out)'s V and V^-1 and a dense V @ in."""
    ext = snf(out)
    s, m = ext.diagonal()[:ext.rank], out.cols
    g = [gcd(d, si) for si in s] + [d] * (m - len(s))
    e = tuple(d // gi if gi else 1 for gi in g)
    live = tuple(i for i in range(m) if e[i] and g[i] != 1)
    rel = _coordinate_columns(ext.V @ inn, e, live)
    if d:
        orders = [g[i] for i in live]
        reduced = [[w % o for w in rel.row(k)] for k, o in enumerate(orders)]
        rel = IntMatrix.hstack(IntMatrix.from_rows(reduced, cols=rel.cols), IntMatrix.diagonal(orders))

    def lift(c):
        y = [0] * m
        for i, ci in zip(live, c):
            y[i] = e[i] * ci
        return ext.Vinv.apply(y)

    return _eager_present(rel, lift, ext.V.apply, e, live)


def _outcome(coords, v):
    try:
        return coords(v)
    except NotInLattice:
        return NotInLattice


def _eager_carried(red, x, n, variant, reduced, m, lifts, coords):
    """A residual factor's eager lifts and coords carried back to x."""
    out, dual = _graded_maps(x, n, variant, reduced)[0], variant == "cohomology"

    def carried(v):
        if any(s % m if m else s for s in out.apply(v)):
            raise NotInLattice("vector outside the numerator lattice")
        return coords(red.push(n, v, dual))

    return tuple(red.pull(n, lift, dual) for lift in lifts), carried


def test_lazy_presentations_match_eager_ones():
    # every group first, then lifts and coords read after the fact, each
    # bit-identical to the presentation rebuilt eagerly from snf()
    from cwhom.verify import standard_coefficients, standard_corpus
    import cwhom.homology as homology
    homology.chain_group.cache_clear()
    spaces = standard_corpus() + [grid_torus(3), subdivided_sphere(2, 4)]
    keys = [(x, n, coeff, variant, reduced) for x in spaces for coeff in standard_coefficients()
            for variant, reduced in VARIANTS for n in range(x.dim + 1)]
    assert all(chain_group(*key).group is not None for key in keys)
    carried = 0
    for x, n, coeff, variant, reduced in keys:
        cp = chain_group(x, n, coeff, variant, reduced)
        red = reduce_complex(x)
        out, inn = _graded_maps(x if red is None else red.residual, n, variant, reduced)
        units = [tuple(int(i == j) for i in range(x.cells[n])) for j in range(x.cells[n])]
        for m, pres in cp.factors:
            lifts, coords = _eager_factor(out, inn, m)
            if red is not None:
                carried += 1
                lifts, coords = _eager_carried(red, x, n, variant, reduced, m, lifts, coords)
            assert pres.lifts == lifts
            for v in units + list(lifts):
                assert _outcome(pres.coords, v) == _outcome(coords, v)
        orders = [o for _, p in cp.factors for o in p.group.generator_orders()]
        k = len(orders)
        rel = IntMatrix.from_columns([[o if i == j else 0 for i in range(k)] for j, o in enumerate(orders) if o],
                                     rows=k)
        lifts, coords = _eager_present(rel, tuple, tuple, (1,) * k, range(k))
        assert cp.glue.lifts == lifts
        for v in [tuple(int(i == j) for i in range(k)) for j in range(k)] + list(lifts):
            assert cp.glue.coords(v) == coords(v)
    assert carried


def _bench_gen(monkeypatch):
    """The benchmark's seeded generators (bench/gen.py)."""
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import gen
    return gen


def _phase_two_entries(monkeypatch):
    """Patches the reduction so that each run records how many cells
    phase 1 cancelled in each dimension, and the live cells it left."""
    import cwhom.reduction as reduction
    real, entries = reduction._markowitz, []

    def markowitz(cols, rows, steps):
        entries.append(([len(s) for s in steps], [len(rows[1])] + [len(c) for c in cols[1:]]))
        real(cols, rows, steps)

    monkeypatch.setattr(reduction, "_markowitz", markowitz)
    return entries


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_tori_reduce_to_the_minimal_torus(monkeypatch, seed):
    # phase 1 contracts a spanning tree of the 1-skeleton onto the
    # basepoint, and its cascade climbs to the 2-cells
    from cwhom.documents import complex_from_doc
    gen = _bench_gen(monkeypatch)
    entries = _phase_two_entries(monkeypatch)
    for k in range(2, 9):
        red = reduce_complex(complex_from_doc(gen.torus_doc(k, seed)))
        assert red.residual.cells == (1, 2, 1)
        assert all(b.is_zero() for b in red.residual.boundaries)
        cancelled, live = entries[-1]
        assert cancelled[0] == k * k - 1 and live[0] == 1
        assert cancelled[2] > 0 or k == 2


def test_coreduction_cancels_nothing_on_the_benchmark_conjugates(monkeypatch):
    # the 64 seed-1 conjugates are dense: no coface of the basepoint is a
    # pair, so phase 1 only reads row b, and phase 2 makes the same
    # cancellations as the fill order alone always did
    from cwhom.documents import complex_from_doc
    gen = _bench_gen(monkeypatch)
    entries = _phase_two_entries(monkeypatch)
    rng = random.Random(1)
    for _ in range(64):
        reduce_complex(complex_from_doc(gen.conjugate_complex(8, rng, 3, 2)[0]))
    assert [cancelled for cancelled, _ in entries] == [[0, 0, 0, 0]] * 64


def _class_moves(x, n, variant):
    """Vectors whose addition keeps a class: the boundaries of the
    (n+1)-cells on chains, the coboundaries of the (n-1)-cells on
    cochains."""
    if variant == "homology":
        b = x.boundary(n + 1)
        return [b.col(j) for j in range(b.cols)]
    b = x.boundary(n)
    return [b.row(i) for i in range(b.rows)]


def _combination(rng, moves):
    """A random integer combination of three of ``moves``."""
    picks = [(rng.choice((-2, -1, 1, 3)), rng.choice(moves)) for _ in range(3)]
    return tuple(sum(c * m[i] for c, m in picks) for i in range(len(moves[0])))


def _coords_moved_off_their_class(x, coeff, rng):
    """(lift, move) pairs, over both variants, every dimension and every
    factor, whose coords change when a move is added to the lift: each
    cell's (co)boundary, and random combinations of them."""
    moved = []
    for variant in ("homology", "cohomology"):
        for n in range(x.dim + 1):
            moves = _class_moves(x, n, variant)
            if moves:
                moves += [_combination(rng, moves) for _ in range(4)]
            for _, pres in chain_group(x, n, coeff, variant, False).factors:
                for lift in pres.lifts:
                    want = pres.coords(lift)
                    moved += [(lift, move) for move in moves
                              if pres.coords(tuple(a + b for a, b in zip(lift, move))) != want]
    return moved


def _reducible_constructions():
    """Complexes built from the zoo that reduce: the mapping cones of
    1-skeleton inclusions, each with homology left in dimensions 2 or 3."""
    from cwhom.chainmaps import inclusion_map, mapping_cone
    from cwhom.complexes import skeleton
    return [mapping_cone(inclusion_map(skeleton(x, 1), x)).cone
            for x in (zoo("torus"), zoo("klein"), zoo("rp", 3), zoo("lens", 3))]


def test_coords_are_constant_on_classes(monkeypatch):
    # a lift plus a (co)boundary has the lift's coordinates: f, which
    # carries coords to the residual, is a chain map
    from cwhom.documents import complex_from_doc
    gen = _bench_gen(monkeypatch)
    rng = random.Random(19)
    z2 = parse_group("Z + Z/2")
    spaces = [(complex_from_doc(gen.torus_doc(k, seed)), z2) for k in (4, 6) for seed in (1, 2)]
    conj = random.Random(1)
    spaces += [(complex_from_doc(gen.conjugate_complex(8, conj, 3, 2)[0]), parse_group("Z + Z/4"))
               for _ in range(64)]
    spaces += [(x, z2) for x in _reducible_constructions()]
    for x, coeff in spaces:
        assert reduce_complex(x) is not None
        assert _coords_moved_off_their_class(x, coeff, rng) == [], x
