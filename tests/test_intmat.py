import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cwhom.intmat import (
    ChainConditionViolation,
    ContainmentViolation,
    IntMatrix,
    NotInLattice,
    _nonzeros,
    _snf_ext,
    _sparse_columns,
    kernel_basis,
    snf,
)
from lattice_helpers import (
    EagerCycleQuotients,
    in_lattice,
    lattice_basis,
    lattice_coordinates,
    mod_d_quotient,
    preimage_lattice,
    quotient_group,
    scale,
    solve_columns,
)


def bareiss_det(m):
    """Fraction-free determinant, used as an independent oracle."""
    n = m.rows
    assert m.cols == n
    a = [list(r) for r in m.to_rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_matrix(rng, max_side=8, lo=-9, hi=9):
    r = rng.randint(1, max_side)
    c = rng.randint(1, max_side)
    return IntMatrix(r, c, tuple(rng.randint(lo, hi) for _ in range(r * c)))


class TestIntMatrix:
    def test_shape_guard(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_matmul_identity(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        assert IntMatrix.identity(3) @ m == m
        assert m @ IntMatrix.identity(2) == m

    def test_transpose_involution(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m
        assert m.transpose().shape == (3, 2)

    def test_empty_shapes(self):
        z = IntMatrix.zeros(0, 3)
        assert (z @ IntMatrix.zeros(3, 2)).shape == (0, 2)
        assert z.transpose().shape == (3, 0)

    def test_delete_row_col(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m.delete_row(0) == IntMatrix.from_rows([[3, 4]])


class TestSnf:
    def test_known_form(self):
        # [TRIVIAL] 2x2 example computable by hand
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        res = snf(a)
        assert res.diagonal() == (2, 4)
        assert res.U @ res.S @ res.V == a

    def test_diagonal_matrix_renormalized(self):
        a = IntMatrix.diagonal([4, 6])
        assert snf(a).diagonal() == (2, 12)

    def test_zero_matrix(self):
        res = snf(IntMatrix.zeros(3, 2))
        assert res.diagonal() == (0, 0)
        assert res.rank == 0

    def test_soundness_random(self):
        rng = random.Random(5)
        for _ in range(300):
            a = random_matrix(rng)
            res = snf(a)
            assert res.U @ res.S @ res.V == a
            d = res.diagonal()
            assert all(x >= 0 for x in d)
            for i in range(len(d) - 1):
                if d[i + 1]:
                    assert d[i] != 0 and d[i + 1] % d[i] == 0
                # a zero is never followed by a nonzero
                if d[i] == 0:
                    assert d[i + 1] == 0
            assert abs(bareiss_det(res.U)) == 1
            assert abs(bareiss_det(res.V)) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_soundness_property(self, r, c, data):
        entries = data.draw(
            st.lists(st.integers(-50, 50), min_size=r * c, max_size=r * c)
        )
        a = IntMatrix(r, c, tuple(entries))
        res = snf(a)
        assert res.U @ res.S @ res.V == a
        assert abs(bareiss_det(res.U)) == 1
        assert abs(bareiss_det(res.V)) == 1
        for i in range(min(r, c)):
            assert res.S.entry(i, i) >= 0
        # off-diagonal is zero
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert res.S.entry(i, j) == 0


def test_snf_inverse_transforms():
    rng = random.Random(41)
    for _ in range(200):
        a = random_matrix(rng)
        res = snf(a)
        assert res.Uinv @ res.U == IntMatrix.identity(a.rows)
        assert res.Vinv @ res.V == IntMatrix.identity(a.cols)


class TestLattices:
    def test_kernel_basis_annihilates(self):
        rng = random.Random(17)
        for _ in range(100):
            a = random_matrix(rng, max_side=6)
            k = kernel_basis(a)
            assert (a @ k).is_zero()
            # kernel basis columns are independent: their lattice has full rank
            assert lattice_basis(k).cols == k.cols

    def test_kernel_rank(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        assert kernel_basis(a).cols == 2

    def test_lattice_membership(self):
        basis = IntMatrix.from_columns([[2, 0], [0, 3]], rows=2)
        assert in_lattice(basis, (4, -3))
        assert not in_lattice(basis, (1, 0))
        assert lattice_coordinates(basis, (4, 3)) == (2, 1)
        with pytest.raises(NotInLattice):
            lattice_coordinates(basis, (1, 1))

    def test_lattice_basis_spans_same(self):
        rng = random.Random(23)
        for _ in range(60):
            a = random_matrix(rng, max_side=5)
            b = lattice_basis(a)
            for j in range(a.cols):
                assert in_lattice(b, a.col(j))
            for j in range(b.cols):
                assert in_lattice(lattice_basis(a), b.col(j))

    def test_solve_columns(self):
        a = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert solve_columns(a, IntMatrix.column([4, 6])) is not None
        assert solve_columns(a, IntMatrix.column([1, 0])) is None
        x = solve_columns(a, IntMatrix.from_columns([[2, 2], [-4, 0]], rows=2))
        assert a @ x == IntMatrix.from_columns([[2, 2], [-4, 0]], rows=2)

    def test_preimage_lattice(self):
        # preimage of 3Z under multiplication by 2 on Z is 3Z
        m = IntMatrix.from_rows([[2]])
        rel = IntMatrix.from_rows([[3]])
        p = preimage_lattice(m, rel)
        b = lattice_basis(p)
        assert in_lattice(b, (3,))
        assert not in_lattice(b, (1,))

    def test_preimage_is_sound_random(self):
        rng = random.Random(31)
        for _ in range(60):
            m = random_matrix(rng, max_side=4)
            rel = random_matrix(rng, max_side=4)
            rel = IntMatrix(m.rows, rel.cols, tuple(
                rng.randint(-4, 4) for _ in range(m.rows * rel.cols)))
            p = preimage_lattice(m, rel)
            rb = lattice_basis(IntMatrix.hstack(rel, IntMatrix.zeros(m.rows, 0)))
            for j in range(p.cols):
                img = m.apply(p.col(j))
                if rel.cols:
                    assert in_lattice(rb, img) or all(v == 0 for v in img)
                else:
                    assert all(v == 0 for v in img)


class TestQuotients:
    def test_z_mod_2(self):
        q = quotient_group(1, IntMatrix.identity(1), IntMatrix.from_rows([[2]]))
        assert str(q.group) == "Z/2"
        assert q.coords((1,)) in ((1,),)
        assert q.coords((2,)) == (0,)

    def test_free_quotient(self):
        q = quotient_group(2, IntMatrix.identity(2), IntMatrix.zeros(2, 0))
        assert q.group.rank == 2 and not q.group.torsion
        # lifts actually present the generators
        for lift, want in zip(q.lifts, ((1, 0), (0, 1))):
            coords = q.coords(lift)
            assert sorted(map(abs, coords)) == [0, 1]

    def test_containment_enforced(self):
        with pytest.raises(ContainmentViolation):
            quotient_group(1, IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[3]]))

    def test_dependent_numerator(self):
        num = IntMatrix.from_columns([[1, 1], [2, 2], [1, -1]], rows=2)
        q = quotient_group(2, num, IntMatrix.zeros(2, 0))
        assert q.group.rank == 2

    def test_klein_bottle_h1(self):
        # [DERIVED] ker/im for the klein bottle middle dimension:
        # boundary in = column (0, 2), boundary out = zero row
        q = quotient_group(
            2, kernel_basis(IntMatrix.zeros(1, 2)), IntMatrix.from_columns([[0, 2]], rows=2)
        )
        assert q.group.rank == 1 and q.group.torsion == (2,)

    def test_mod_d_quotient_circle(self):
        # reduced mod-4 chain complex of the circle: everything cycles
        q = mod_d_quotient(IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 0), 4)
        assert q.group.torsion == (4,)

    def test_mod_d_quotient_mult2_in_z4(self):
        # ker(2: Z/4 -> Z/4) / im(2: Z/4 -> Z/4) is trivial
        two = IntMatrix.from_rows([[2]])
        q = mod_d_quotient(two, two, 4)
        assert q.group.is_trivial

    def test_coords_invert_lifts(self):
        rng = random.Random(47)
        for _ in range(40):
            num = random_matrix(rng, max_side=4)
            den_cols = []
            for _ in range(2):
                combo = num.apply([rng.randint(-2, 2) for _ in range(num.cols)])
                k = rng.randint(0, 2)
                den_cols.append([k * v for v in combo])
            den = IntMatrix.from_columns(den_cols, rows=num.rows)
            q = quotient_group(num.rows, num, den)
            k = q.group.num_generators
            for i, lift in enumerate(q.lifts):
                e = tuple(1 if j == i else 0 for j in range(k))
                assert q.coords(lift) == e


def _unimodular(draw, n):
    """A random unimodular n x n matrix and its inverse, from elementary
    row operations."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    ainv = [row[:] for row in a]
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.sampled_from((1, -1, 2, -2))), max_size=2 * n)) if n else []
    for i, j, c in ops:
        if i != j:
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            for row in ainv:
                row[j] -= c * row[i]
    return IntMatrix.from_rows(a, cols=n), IntMatrix.from_rows(ainv, cols=n)


@st.composite
def cycle_pairs(draw, moduli=(0, 2, 4, 6, 9)):
    """(out, in, d) with out @ in = 0 mod d, in one of three shapes: a
    conjugated diagonal out = P [S 0] Q with in-columns Q^-1 y + d z, where
    y is a (co)cycle of [S 0] mod d; the all-ones augmentation row with
    in-columns summing to 0 mod d; or the all-ones augmentation column
    with out-rows summing to 0 mod d."""
    d = draw(st.sampled_from(moduli))
    m = draw(st.integers(1, 5))

    def ints(n):
        return draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))

    def zero_sum(n):
        v = ints(n)
        v[-1] += d * draw(st.integers(-1, 1)) - sum(v)
        return v

    kind = draw(st.sampled_from(("conjugate", "augmentation row", "augmentation column")))
    if kind == "augmentation row":
        out = IntMatrix.from_rows([[1] * m])
        inn = IntMatrix.from_columns([zero_sum(m) for _ in range(draw(st.integers(0, 3)))], rows=m)
    elif kind == "augmentation column":
        out = IntMatrix.from_rows([zero_sum(m) for _ in range(draw(st.integers(0, 3)))], cols=m)
        inn = IntMatrix.from_columns([[1] * m], rows=m)
    else:
        k = draw(st.integers(0, 4))
        s = [draw(st.sampled_from((0, 1, 2, 3, 4, 6))) for _ in range(min(k, m))]
        p, _ = _unimodular(draw, k)
        q, qinv = _unimodular(draw, m)
        out = p @ IntMatrix.diagonal(s, rows=k, cols=m) @ q
        cols = []
        for _ in range(draw(st.integers(0, 3))):
            # s_i y_i = 0 mod d: y_i a multiple of d / gcd(d, s_i)
            y = [(d // gcd(d, si) if gcd(d, si) else 1) * yi for si, yi in zip(s, ints(len(s)))]
            y += ints(m - len(s))
            cols.append([a + d * b for a, b in zip(qinv.apply(y), ints(m))])
        inn = IntMatrix.from_columns(cols, rows=m)
    assert all(v % d == 0 if d else v == 0 for v in (out @ inn).entries)
    return out, inn, d


def _is_cycle(out, v, d):
    return all(x % d == 0 if d else x == 0 for x in out.apply(v))


def _kernel_image_factor(out, inn, d):
    """The factor as the old three-SNF formulation computed it: the
    kernel (or mod-d preimage) lattice over im(in) (+ d Z^m)."""
    m = out.cols
    if d == 0:
        return quotient_group(m, kernel_basis(out), inn)
    return quotient_group(m, preimage_lattice(out, scale(IntMatrix.identity(out.rows), d)),
                          IntMatrix.hstack(inn, scale(IntMatrix.identity(m), d)))


@settings(max_examples=150, deadline=None)
@given(cycle_pairs())
def test_cycle_quotient_matches_kernel_image_formulation(pair):
    out, inn, d = pair
    pres = EagerCycleQuotients(out, inn).quotient(d)
    assert pres.group == _kernel_image_factor(out, inn, d).group
    if d:
        assert mod_d_quotient(out, inn, d).group == pres.group


@settings(max_examples=60, deadline=None)
@given(cycle_pairs(moduli=(0,)))
def test_one_out_map_snf_serves_every_modulus(pair):
    out, inn, _ = pair  # out @ inn = 0 over Z, so mod every d
    quotients = EagerCycleQuotients(out, inn)
    for d in (0, 2, 4, 6, 9):
        assert quotients.quotient(d).group == _kernel_image_factor(out, inn, d).group


@settings(max_examples=150, deadline=None)
@given(cycle_pairs(), st.data())
def test_cycle_quotient_presentation(pair, data):
    out, inn, d = pair
    pres = EagerCycleQuotients(out, inn).quotient(d)
    k = pres.group.num_generators
    assert len(pres.lifts) == k and pres.ambient_dim == out.cols
    for i, lift in enumerate(pres.lifts):
        assert _is_cycle(out, lift, d)
        assert pres.coords(lift) == tuple(int(i == j) for j in range(k))
    for col in inn.columns():
        assert pres.coords(col) == (0,) * k
    m = out.cols
    vectors = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    vectors += data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m), max_size=4))
    for v in vectors:
        if _is_cycle(out, v, d):
            pres.coords(v)
        else:
            with pytest.raises(NotInLattice):
                pres.coords(v)


def test_mod_d_quotient_chain_condition():
    one = IntMatrix.from_rows([[1]])
    with pytest.raises(ChainConditionViolation):
        mod_d_quotient(one, one, 2)
    assert mod_d_quotient(one, IntMatrix.from_rows([[2]]), 2).group.is_trivial


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_hash_agrees_across_constructions(r, c, data):
    from functools import lru_cache
    ents = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=r * c, max_size=r * c)))
    built = [
        IntMatrix(r, c, ents),
        IntMatrix.from_rows([list(ents[i * c:(i + 1) * c]) for i in range(r)], cols=c),
        IntMatrix.from_columns([ents[j::c] for j in range(c)], rows=r) if c else IntMatrix.zeros(r, 0),
        IntMatrix(c, r, tuple(ents[i * c + j] for j in range(c) for i in range(r))).transpose(),
    ]
    # the value dataclass would compute, whichever way the matrix was made
    assert {hash(m) for m in built} == {hash((r, c, ents))}
    assert all(m == built[0] for m in built)
    table = {built[0]: "hit"}
    assert [table.get(m) for m in built] == ["hit"] * 4
    calls = []

    @lru_cache(maxsize=None)
    def keyed(m):
        calls.append(m)
        return m.rows
    for m in built:
        keyed(m)
    assert len(calls) == 1 and keyed.cache_info().hits == 3
    if ents:
        other = IntMatrix(r, c, (ents[0] + 1,) + ents[1:])
        assert other != built[0] and table.get(other) is None


def test_hash_is_kept_on_the_instance():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert "_hash" not in m.__dict__
    h = hash(m)
    assert m.__dict__["_hash"] == h == hash(m)
    assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(3, 0)


def test_replayed_products_match_snf_transforms():
    # V @ M, U^-1 @ M and their inverses replayed from a transform-free
    # SNF's logs are the products with snf()'s transforms, at every shape
    rng = random.Random(59)

    def rand(r, c):
        return IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))

    for _ in range(150):
        a = rand(rng.randint(0, 7), rng.randint(0, 7))
        full, lean = snf(a), _snf_ext(a)
        assert lean.s == full.diagonal()[:full.rank]
        k = rng.randint(0, 3)
        m, mr = rand(a.cols, k), rand(a.rows, k)
        assert lean.cols.times(m) == full.V @ m
        assert lean.cols.times(m, inverse=True) == full.Vinv @ m
        assert lean.rows.times(mr) == full.Uinv @ mr
        assert lean.rows.times(mr, inverse=True) == full.U @ mr


def test_snf_matches_sympy():
    # an independent Smith normal form, up to the sign of each entry;
    # half the cases are products through a narrow middle, so that zero
    # invariant factors are common
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    rng = random.Random(11)
    for case in range(300):
        a = random_matrix(rng, max_side=6)
        if case % 2:
            inner = rng.randint(1, 3)
            a = (IntMatrix(a.rows, inner, tuple(rng.randint(-4, 4) for _ in range(a.rows * inner)))
                 @ IntMatrix(inner, a.cols, tuple(rng.randint(-4, 4) for _ in range(inner * a.cols))))
        want = smith_normal_form(sympy.Matrix([list(a.row(i)) for i in range(a.rows)]), domain=sympy.ZZ)
        k = min(a.rows, a.cols)
        assert snf(a).diagonal() == tuple(abs(int(want[i, i])) for i in range(k)), a


def test_transposed_row_log_replays_u_transpose():
    # A = U S V gives A^T = V^T S^T U^T: the row log transposed builds U^T,
    # the V of A^T, with no SNF of A^T and no product with U
    rng = random.Random(61)

    def rand(r, c):
        return IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))

    for _ in range(150):
        a = rand(rng.randint(0, 7), rng.randint(0, 7))
        full, lean = snf(a), _snf_ext(a)
        m = rand(a.rows, rng.randint(0, 3))
        log = lean.rows.transposed()
        assert log.times(m) == full.U.transpose() @ m
        assert log.times(m, inverse=True) == full.Uinv.transpose() @ m


@pytest.mark.parametrize("out, inn", [
    ([[1]], [[1]]),
    ([[2]], [[3]]),
    ([[1, 1]], [[1], [0]]),
    ([[2, 0], [0, 0]], [[0, 1], [1, 0]]),
])
def test_integral_factor_of_a_non_complex_pair_still_raises(out, inn):
    # the group over Z is read off in's SNF, but the in-map is still
    # checked against the cycles at once
    out, inn = IntMatrix.from_rows(out), IntMatrix.from_rows(inn)
    assert not (out @ inn).is_zero()
    with pytest.raises(ContainmentViolation):
        EagerCycleQuotients(out, inn).quotient(0)


def test_transposed_log_shares_its_operations():
    # the transposed log reads its source's list in place: building it
    # copies none of the 10 000 operations, and transposing it again
    # gives back T (its replays are checked against snf() above)
    import tracemalloc
    from cwhom.intmat import _Log
    rng = random.Random(67)
    log = _Log(6)
    for _ in range(10_000):
        i, j = rng.randrange(6), rng.randrange(6)
        log.ops += (i, j, rng.choice((-2, -1, 1, 2)) if i != j else 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        transposed = log.transposed()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1024
    assert transposed.ops is log.ops and transposed.transposed().ops is log.ops
    m = IntMatrix(6, 2, tuple(rng.randint(-3, 3) for _ in range(12)))
    assert transposed.transposed().times(m) == log.times(m)


def _dense_matmul(a, b):
    """The row-by-column product ``@`` computed before it read sparse
    columns; kept here as the oracle."""
    return IntMatrix(a.rows, b.cols, tuple(
        sum(a.entries[i * a.cols + k] * b.entries[k * b.cols + j] for k in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def _dense_apply(m, vec):
    """The dense ``apply`` formula, as the oracle."""
    return tuple(sum(m.entries[i * m.cols + j] * vec[j] for j in range(m.cols)) for i in range(m.rows))


# mostly zero, with unit and 71-bit entries of both signs
_PRODUCT_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2**70, -2**70))


@st.composite
def _product_operands(draw):
    """a (r x k), b (k x c) and a vector of length k, every side 0..7;
    a square operand is the identity a quarter of the time."""
    r, k, c = (draw(st.integers(0, 7)) for _ in range(3))

    def matrix(rows, cols):
        if rows == cols and draw(st.integers(0, 3)) == 0:
            return IntMatrix.identity(rows)
        n = rows * cols
        return IntMatrix(rows, cols, tuple(draw(st.lists(_PRODUCT_ENTRIES, min_size=n, max_size=n))))

    a, b = matrix(r, k), matrix(k, c)
    return a, b, tuple(draw(st.lists(_PRODUCT_ENTRIES, min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None)
@given(_product_operands())
def test_sparse_products_match_the_dense_formulas(operands):
    a, b, v = operands
    want = _dense_matmul(a, b)
    assert a @ b == want and a @ b == want  # the second product reads the kept columns
    assert a.apply(v) == _dense_apply(a, v) and b.transpose().apply(v) == _dense_apply(b.transpose(), v)
    assert all(type(x) is int for x in (a @ b).entries + a.apply(v))


def test_products_keep_their_shape_errors():
    a, b = IntMatrix.zeros(2, 3), IntMatrix.zeros(2, 3)
    with pytest.raises(ValueError, match=r"^shape mismatch \(2, 3\) @ \(2, 3\)$"):
        a @ b
    with pytest.raises(ValueError, match="^vector length mismatch$"):
        a.apply((1, 2))


def test_products_build_each_matrix_columns_once(monkeypatch):
    # the nonzero columns are kept on the matrix: 50 applies and two
    # products read them, but build each operand's columns once
    from cwhom import intmat
    built = []
    real = intmat._sparse_columns
    monkeypatch.setattr(intmat, "_sparse_columns", lambda m: built.append(m) or real(m))
    m = IntMatrix.from_rows([[0, 3, 0], [-1, 0, 0], [0, 0, 2**70]])
    other = IntMatrix.from_rows([[1, 0], [0, 0], [5, -2]])
    for k in range(50):
        assert m.apply((k, 1, -k)) == (3, -k, -k * 2**70)
    assert m @ other == m @ other == _dense_matmul(m, other)
    assert len(built) == 2 and built[0] is m and built[1] is other
    # the kept columns are not part of equality or the hash
    assert m == IntMatrix.from_rows(m.to_rows()) and hash(m) == hash((3, 3, m.entries))


def _run_scanning_always(w):
    """``_SnfWork.run`` with the divisibility scan after every pivot, 1
    included: the oracle for skipping that scan when the pivot is 1."""
    t = 0
    while t < min(w.r, w.c):
        piv = w._find_pivot(t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            w.row_swap(t, pi)
        if pj != t:
            w.col_swap(t, pj)
        if w.s[t][t] < 0:
            w.row_neg(t)
        while True:
            p = w.s[t][t]
            for i in range(t + 1, w.r):
                q = w.s[i][t] // p
                if q:
                    w.row_add(i, t, -q)
            i = next((i for i in range(t + 1, w.r) if w.s[i][t]), None)
            if i is not None:
                w.row_swap(t, i)
                continue
            for j in range(t + 1, w.c):
                q = w.s[t][j] // p
                if q:
                    w.col_add(j, t, -q)
            j = next((j for j in range(t + 1, w.c) if w.s[t][j]), None)
            if j is not None:
                w.col_swap(t, j)
                continue
            bad = next((i for i in range(t + 1, w.r) if any(v % p for v in w.s[i][t + 1:])), None)
            if bad is None:
                break
            w.row_add(t, bad, 1)
        t += 1


def test_unit_pivots_skip_a_scan_that_finds_nothing():
    # a pivot of 1 divides every entry, so skipping the divisibility scan
    # leaves S and both logs equal, operation for operation, to the run
    # that scans after every pivot
    from cwhom.intmat import _SnfWork
    rng = random.Random(20)
    palettes = [range(-9, 10), (0, 0, 2, -2, 3, 4, 6), (0, 0, 0, 1, -1, 2), (0, 2, 4, -4, 8, 3)]
    shapes = [(r, c) for r in range(4) for c in range(4) if not r * c]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(400)]
    mats = [IntMatrix.from_rows([[2, 0], [0, 3]])]
    for r, c in shapes:
        palette = rng.choice(palettes)
        mats.append(IntMatrix(r, c, tuple(rng.choice(palette) for _ in range(r * c))))
    for m in mats:
        fast, slow = _SnfWork(m), _SnfWork(m)
        fast.run()
        _run_scanning_always(slow)
        assert fast.s == slow.s, m
        assert (fast.row_log.ops, fast.col_log.ops) == (slow.row_log.ops, slow.col_log.ops), m


def test_vector_replay_equals_times_on_one_column():
    from cwhom.intmat import _Log
    rng = random.Random(21)
    for _ in range(150):
        m = random_matrix(rng, max_side=7, lo=-5, hi=5)
        _, rows, cols = _snf_ext(m)
        for log in (rows, cols, rows.transposed(), cols.transposed(), _Log(m.rows)):
            v = [rng.randint(-6, 6) for _ in range(log.n)]
            for inverse in (False, True):
                assert log.replay(v, inverse) == list(log.times(IntMatrix.column(v), inverse).entries)


@st.composite
def _sparse_reads(draw):
    """An r x c matrix, r and c in 0..7, of entries in {0, +-1, +-2^70}."""
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    return IntMatrix(r, c, tuple(draw(st.lists(_PRODUCT_ENTRIES, min_size=r * c, max_size=r * c))))


@settings(max_examples=300, deadline=None)
@given(_sparse_reads())
def test_nonzero_reads_match_the_enumerate_filters(m):
    # the enumerate filters that _nonzeros replaced, kept here as the oracle
    for v in (m.entries, list(m.entries), *(m.row(i) for i in range(m.rows))):
        assert _nonzeros(v) == [(i, a) for i, a in enumerate(v) if a]
    want = [[(i, a) for i, a in enumerate(m.entries[j::m.cols]) if a] for j in range(m.cols)]
    assert _sparse_columns(m) == want
