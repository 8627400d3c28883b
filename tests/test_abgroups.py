import sys
import time
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from cwhom.abgroups import (
    AbHom,
    FgAbGroup,
    GroupSyntaxError,
    NotAnIsomorphism,
    compose_hom,
    direct_sum,
    format_group,
    hom_image,
    hom_kernel,
    hom_subquotient,
    identity_hom,
    invert_iso,
    is_exact_pair,
    normalize_diagonal,
    parse_group,
    zero_hom,
)
from cwhom.abgroups import _kernel_quotient
from cwhom.intmat import ContainmentViolation, IntMatrix, snf
from lattice_helpers import (
    lattice_basis,
    lattice_coordinates,
    preimage_lattice,
    solve_columns,
    transform_work,
)


groups = st.builds(
    lambda rank, primes: normalize_diagonal(primes, rank),
    st.integers(0, 3),
    st.lists(st.integers(2, 12), max_size=3),
)


class TestCanonicalForm:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(-1)

    def test_normalize_examples(self):
        assert normalize_diagonal([4, 6]) == FgAbGroup(0, (2, 12))
        assert normalize_diagonal([2, 3]) == FgAbGroup(0, (6,))
        assert normalize_diagonal([1, 1, 5]) == FgAbGroup(0, (5,))
        assert normalize_diagonal([0, 2, 0]) == FgAbGroup(2, (2,))
        assert normalize_diagonal([-2]) == FgAbGroup(0, (2,))

    @given(st.lists(st.integers(-12, 12), max_size=5), st.integers(0, 3))
    def test_normalize_permutation_invariant(self, diag, free):
        a = normalize_diagonal(diag, free)
        b = normalize_diagonal(list(reversed(diag)), free)
        assert a == b

    def test_order(self):
        assert FgAbGroup(0, (2, 4)).order() == 8
        assert FgAbGroup(1, (2,)).order() == 0
        assert FgAbGroup.trivial().order() == 1

    @given(groups, groups)
    def test_direct_sum_commutes(self, a, b):
        assert direct_sum(a, b) == direct_sum(b, a)

    @given(groups, groups, groups)
    def test_direct_sum_associates(self, a, b, c):
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


class TestGrammar:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("0", FgAbGroup.trivial()),
            ("Z", FgAbGroup.free(1)),
            ("Z^3", FgAbGroup.free(3)),
            ("Z/2", FgAbGroup.cyclic(2)),
            ("(Z/2)^2", FgAbGroup(0, (2, 2))),
            ("Z + Z/2 + Z/4", FgAbGroup(1, (2, 4))),
            ("Z/2 + Z/3", FgAbGroup(0, (6,))),
            ("  Z  +  Z  ", FgAbGroup.free(2)),
        ],
    )
    def test_parse(self, text, want):
        assert parse_group(text) == want

    @pytest.mark.parametrize("bad", ["", "Z +", "+ Z", "Z/1", "Z/0", "Q", "Z^0", "Z Z", "(Z/3)^0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(GroupSyntaxError):
            parse_group(bad)

    def test_error_position(self):
        try:
            parse_group("Z + Q")
        except GroupSyntaxError as e:
            assert e.position == 4
        else:
            pytest.fail("expected a syntax error")

    @given(groups)
    def test_roundtrip(self, g):
        assert parse_group(format_group(g)) == g

    def test_format_examples(self):
        assert format_group(FgAbGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
        assert format_group(FgAbGroup.trivial()) == "0"

    @pytest.mark.parametrize("text", ["Z/٢", "Z/２", "(Z/٣)^٢", "Z^٣", "Z/2 + Z/٢"])
    def test_parse_rejects_non_ascii_digits(self, text):
        with pytest.raises(GroupSyntaxError):
            parse_group(text)

    @pytest.mark.parametrize("text,position", [
        ("Z/" + "7" * 4301, 2),
        ("Z + Z^" + "1" * 4301, 6),
        ("(Z/2)^" + "3" * 4301, 6),
    ])
    def test_parse_reports_overlong_numbers(self, text, position):
        with pytest.raises(GroupSyntaxError) as exc:
            parse_group(text)
        assert exc.value.position == position


class TestHoms:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            AbHom(FgAbGroup.free(2), FgAbGroup.free(1), IntMatrix.identity(2))

    def test_torsion_normalization(self):
        h = AbHom(FgAbGroup.cyclic(4), FgAbGroup.cyclic(4), IntMatrix.from_rows([[5]]))
        assert h.matrix.entry(0, 0) == 1

    def test_well_definedness(self):
        # Z/2 -> Z cannot send the generator anywhere but 0
        with pytest.raises(ValueError):
            AbHom(FgAbGroup.cyclic(2), FgAbGroup.free(1), IntMatrix.from_rows([[1]]))
        # Z/2 -> Z/4 may only hit the 2-torsion
        with pytest.raises(ValueError):
            AbHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), IntMatrix.from_rows([[1]]))
        AbHom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), IntMatrix.from_rows([[2]]))

    def test_out_of_range_torsion_entries_come_out_reduced(self):
        # free rows are kept as given; torsion rows land in [0, order)
        target = parse_group("Z + Z/4 + Z/12")
        h = AbHom(FgAbGroup.free(2), target, IntMatrix.from_rows([[-5, 7], [5, -1], [12, 3]]))
        assert h.matrix == IntMatrix.from_rows([[-5, 7], [1, 3], [0, 3]])
        reduced = IntMatrix.from_rows([[-5, 7], [1, 3], [0, 3]])
        assert AbHom(FgAbGroup.free(2), target, reduced).matrix is reduced

    def test_in_range_hom_that_is_not_well_defined_raises(self):
        # entries already in range skip the rebuild, not the check
        source, target = FgAbGroup.cyclic(2), parse_group("Z + Z/4")
        for rows in ([[0], [1]], [[1], [2]], [[0], [3]]):
            with pytest.raises(ValueError, match="not well-defined"):
                AbHom(source, target, IntMatrix.from_rows(rows))
        AbHom(source, target, IntMatrix.from_rows([[0], [2]]))

    def test_compose(self):
        g = FgAbGroup.free(1)
        double = AbHom(g, g, IntMatrix.from_rows([[2]]))
        assert compose_hom(double, double).matrix.entry(0, 0) == 4

    def test_kernel_image(self):
        z = FgAbGroup.free(1)
        times6 = AbHom(z, z, IntMatrix.from_rows([[6]]))
        assert hom_kernel(times6).is_trivial
        assert hom_image(times6) == z
        # Z -> Z/6 projection
        proj = AbHom(z, FgAbGroup.cyclic(6), IntMatrix.from_rows([[1]]))
        assert hom_kernel(proj) == z
        assert hom_image(proj) == FgAbGroup.cyclic(6)
        # multiplication by 2 on Z/6: kernel and image both computable by hand
        two = AbHom(FgAbGroup.cyclic(6), FgAbGroup.cyclic(6), IntMatrix.from_rows([[2]]))
        assert hom_kernel(two) == FgAbGroup.cyclic(2)
        assert hom_image(two) == FgAbGroup.cyclic(3)

    def test_exactness(self):
        z = FgAbGroup.free(1)
        z2 = FgAbGroup.cyclic(2)
        double = AbHom(z, z, IntMatrix.from_rows([[2]]))
        proj = AbHom(z, z2, IntMatrix.from_rows([[1]]))
        # 0 -> Z --2--> Z --proj--> Z/2 -> 0
        assert is_exact_pair(double, proj)
        assert is_exact_pair(proj, zero_hom(z2, z))
        assert is_exact_pair(zero_hom(z, z), double)
        triple = AbHom(z, z, IntMatrix.from_rows([[3]]))
        assert not is_exact_pair(triple, proj)

    def test_subquotient(self):
        z = FgAbGroup.free(1)
        four = AbHom(z, z, IntMatrix.from_rows([[4]]))
        two_out = AbHom(z, z, IntMatrix.from_rows([[0]]))
        assert hom_subquotient(four, two_out) == FgAbGroup.cyclic(4)
        with pytest.raises(ValueError):
            # image 1*Z is not inside kernel of multiplication by 2
            hom_subquotient(identity_hom(z), AbHom(z, z, IntMatrix.from_rows([[2]])))

    def test_invert_iso(self):
        g = FgAbGroup(1, (4,))
        m = IntMatrix.from_rows([[1, 0], [3, 1]])
        h = AbHom(g, g, m)
        inv = invert_iso(h)
        assert compose_hom(inv, h) == identity_hom(g)
        assert compose_hom(h, inv) == identity_hom(g)

    def test_invert_iso_rejects(self):
        z = FgAbGroup.free(1)
        with pytest.raises(NotAnIsomorphism):
            invert_iso(AbHom(z, z, IntMatrix.from_rows([[2]])))
        with pytest.raises(NotAnIsomorphism):
            invert_iso(zero_hom(FgAbGroup.cyclic(2), FgAbGroup.cyclic(2)))
        # negation is invertible
        neg = AbHom(z, z, IntMatrix.from_rows([[-1]]))
        assert invert_iso(neg).matrix.entry(0, 0) == -1

    def test_invert_iso_mixed_torsion(self):
        # an automorphism of Z/2 + Z/8 that mixes the factors
        g = FgAbGroup(0, (2, 8))
        h = AbHom(g, g, IntMatrix.from_rows([[1, 1], [4, 1]]))
        inv = invert_iso(h)
        assert compose_hom(h, inv) == identity_hom(g)


# -- the one-step paths against their formulations from public primitives


def _relations(g):
    """Columns order * e_i for the torsion generators of g, inside Z^n."""
    n = g.num_generators
    cols = [[o if i == k else 0 for i in range(n)] for k, o in enumerate(g.generator_orders()) if o]
    return IntMatrix.from_columns(cols, rows=n)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as e:  # NotAnIsomorphism included
        return (type(e).__name__, str(e))


def _invert_iso_reference(h):
    """Surjectivity by a solve, injectivity by the kernel reference, then
    the two verifying composites."""
    t = h.target.num_generators
    sol = solve_columns(IntMatrix.hstack(h.matrix, _relations(h.target)), IntMatrix.identity(t))
    if sol is None:
        raise NotAnIsomorphism("not surjective")
    if not _kernel_reference(h).is_trivial:
        raise NotAnIsomorphism("kernel is nontrivial")
    rows = [sol.row(i) for i in range(h.source.num_generators)]
    g = AbHom(h.target, h.source, IntMatrix.from_rows(rows, cols=t))
    if compose_hom(g, h) != identity_hom(h.source) or compose_hom(h, g) != identity_hom(h.target):
        raise NotAnIsomorphism("candidate inverse failed verification")
    return g


def _kernel_generators(h):
    return preimage_lattice(h.matrix, _relations(h.target))


def _quotient_reference(num, den):
    """span(num) / span(den), for den inside span(num), through ``snf``
    alone: the Smith form of den's coordinates against a basis of
    span(num)."""
    basis = lattice_basis(num)
    coords = IntMatrix.from_columns([lattice_coordinates(basis, c) for c in den.columns()], rows=basis.cols)
    d = snf(coords).diagonal() if coords.rows and coords.cols else ()
    return FgAbGroup(basis.cols - sum(1 for v in d if v), tuple(v for v in d if v >= 2))


def _kernel_reference(h):
    return _quotient_reference(_kernel_generators(h), _relations(h.source))


def _is_exact_reference(g, h):
    im = IntMatrix.hstack(g.matrix, _relations(g.target))
    ker = _kernel_generators(h)
    return solve_columns(ker, im) is not None and solve_columns(im, ker) is not None


def _subquotient_reference(g, h):
    ker = _kernel_generators(h)
    if solve_columns(ker, g.matrix) is None:
        raise ValueError("subquotient: image is not contained in the kernel")
    return _quotient_reference(ker, IntMatrix.hstack(g.matrix, _relations(g.target)))


small_groups = st.builds(
    lambda rank, orders: normalize_diagonal(orders, rank),
    st.integers(0, 2),
    st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 12]), max_size=3),
)


@st.composite
def homs(draw, source=None, target=None):
    """A well-defined homomorphism: a torsion generator of order d may only
    reach multiples of o / gcd(o, d) in a torsion row of order o."""
    src = draw(small_groups) if source is None else source
    tgt = draw(small_groups) if target is None else target
    cols = []
    for d in src.generator_orders():
        col = []
        for o in tgt.generator_orders():
            k = draw(st.integers(-3, 3))
            col.append(k if d == 0 else 0 if o == 0 else k * (o // gcd(o, d)))
        cols.append(col)
    return AbHom(src, tgt, IntMatrix.from_columns(cols, rows=tgt.num_generators))


@st.composite
def automorphisms(draw):
    """A product of elementary automorphisms: e_i -> e_i + k e_j where that
    is well defined, negations, units on cyclic factors, swaps of equal
    orders."""
    g = draw(small_groups)
    n = g.num_generators
    orders = g.generator_orders()
    h = identity_hom(g)
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        m = IntMatrix.identity(n).to_rows()
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        oi, oj = orders[i], orders[j]
        kind = draw(st.sampled_from(["add", "neg", "unit", "swap"]))
        if kind == "add" and i != j:
            k = draw(st.integers(-3, 3))
            m[j][i] = k if oi == 0 else 0 if oj == 0 else k * (oj // gcd(oj, oi))
        elif kind == "neg":
            m[i][i] = -1
        elif kind == "unit" and oi:
            u = draw(st.integers(1, oi - 1))
            if gcd(u, oi) == 1:
                m[i][i] = u
        elif kind == "swap" and oi == oj:
            m[i][i] = m[j][j] = 0
            m[i][j] = m[j][i] = 1
        h = compose_hom(AbHom(g, g, IntMatrix.from_rows(m, cols=n)), h)
    return h


@st.composite
def broken_automorphisms(draw):
    """An automorphism followed by a random endomorphism or a map onto a
    smaller group: mostly not bijective, sometimes onto."""
    a = draw(automorphisms())
    return compose_hom(draw(homs(source=a.target)), a)


@given(st.one_of(automorphisms(), homs(), broken_automorphisms()))
@example(AbHom(FgAbGroup(1), FgAbGroup(0, (2,)), IntMatrix.from_rows([[1]])))  # onto, kernel 2Z
@example(AbHom(FgAbGroup(0, (4,)), FgAbGroup(0, (2,)), IntMatrix.from_rows([[1]])))  # onto, kernel Z/2
@example(AbHom(FgAbGroup(2), FgAbGroup(1), IntMatrix.from_rows([[1, 0]])))  # onto, kernel Z
@example(AbHom(FgAbGroup(1), FgAbGroup(1), IntMatrix.from_rows([[2]])))  # into, not onto
@example(AbHom(FgAbGroup(0, (2, 4)), FgAbGroup(0, (2, 4)), IntMatrix.from_rows([[1, 1], [2, 1]])))
def test_invert_iso_matches_reference(h):
    assert hom_kernel(h) == _kernel_reference(h)
    rel = _relations(h.target)
    assert hom_image(h) == _quotient_reference(IntMatrix.hstack(h.matrix, rel), rel)
    got, want = _outcome(invert_iso, h), _outcome(_invert_iso_reference, h)
    assert got == want
    if got[0] == "ok":
        assert got[1].matrix.entries == want[1].matrix.entries


@st.composite
def composable_pairs(draw):
    """(g, h) with h g = 0 built from the kernel lattice of h (its
    generators, combinations of them, or both), or g drawn freely."""
    h = draw(homs())
    mid = h.source
    mode = draw(st.sampled_from(["kernel", "combinations", "free"]))
    if mode == "free":
        return draw(homs(target=mid)), h
    ker = _kernel_generators(h)
    cols = ker.columns() if mode == "kernel" else []
    for _ in range(draw(st.integers(0, 3))):
        c = [draw(st.integers(-2, 2)) for _ in range(ker.cols)]
        cols.append(tuple(sum(a * b for a, b in zip(c, ker.row(i))) for i in range(ker.rows)))
    g = AbHom(FgAbGroup.free(len(cols)), mid, IntMatrix.from_columns(cols, rows=mid.num_generators))
    return g, h


@given(composable_pairs())
def test_exactness_matches_mutual_containment(pair):
    g, h = pair
    assert hom_kernel(g) == _kernel_reference(g) and hom_kernel(h) == _kernel_reference(h)
    assert is_exact_pair(g, h) == _is_exact_reference(g, h)
    assert _outcome(hom_subquotient, g, h) == _outcome(_subquotient_reference, g, h)


@given(composable_pairs())
def test_kernel_reads_take_two_snfs(pair):
    # one SNF of [h | rel] reads ker(h), and one more its quotient by
    # columns inside it, or the image Z^s / ker(h); exactness stops early
    # or takes the same two
    g, h = pair
    for read in (hom_kernel, hom_image):
        with transform_work() as seen:
            read(h)
        assert seen.snfs == 2
    with transform_work() as seen:
        is_exact_pair(g, h)
    assert seen.snfs <= 2
    if compose_hom(h, g).matrix.is_zero():
        with transform_work() as seen:
            hom_subquotient(g, h)
        assert seen.snfs == 2


@st.composite
def kernel_columns(draw):
    """(h, d): columns d that combine the generators of ker(h) in Z^s,
    some of them moved off it by a multiple of a unit vector."""
    h = draw(homs())
    ker, s = _kernel_generators(h), h.source.num_generators
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        c = [draw(st.integers(-2, 2)) for _ in range(ker.cols)]
        col = [sum(a * b for a, b in zip(c, ker.row(i))) for i in range(s)]
        if s and draw(st.booleans()):
            col[draw(st.integers(0, s - 1))] += draw(st.sampled_from([-1, 1, 2]))
        cols.append(col)
    return h, IntMatrix.from_columns(cols, rows=s)


_Z, _Z4 = FgAbGroup.free(1), FgAbGroup.cyclic(4)


@given(kernel_columns())
@example((AbHom(_Z, _Z, IntMatrix.from_rows([[2]])), IntMatrix.from_rows([[1]])))  # 2 is not 0 in Z
@example((AbHom(_Z, _Z4, IntMatrix.from_rows([[1]])), IntMatrix.from_rows([[2, 4]])))  # 2 is not 0 in Z/4
@example((AbHom(_Z, _Z4, IntMatrix.from_rows([[1]])), IntMatrix.from_rows([[8]])))  # 4Z / 8Z = Z/2
def test_kernel_quotient_matches_reference(case):
    # ker(h) / span(d) against span(ker's generators) / span(d), through
    # snf alone; a column outside ker(h) fails the head check
    h, d = case
    ker = _kernel_generators(h)
    if solve_columns(ker, d) is None:
        with pytest.raises(ContainmentViolation, match="outside numerator lattice"):
            _kernel_quotient(h, d)
    else:
        assert _kernel_quotient(h, d) == _quotient_reference(ker, d)


def test_invert_iso_verifies_its_candidate(monkeypatch):
    # one extra row operation in the log of U^-1 leaves the bijectivity
    # tests alone but spoils the candidate inverse; only the verifying
    # composites can notice
    import cwhom.abgroups as ab
    from cwhom.intmat import _Log

    real = ab._snf_ext

    def skewed(a):
        s, rows, cols = real(a)
        return s, _Log(rows.n, rows.ops + [0, rows.n - 1, 1]), cols

    monkeypatch.setattr(ab, "_snf_ext", skewed)
    with pytest.raises(NotAnIsomorphism, match="candidate inverse failed verification"):
        invert_iso(identity_hom(FgAbGroup.free(2)))


def test_kernel_image_subquotient_materialize_nothing():
    # group-only queries: no transform is built and no presentation read
    z, z2, z4 = FgAbGroup.free(1), FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    pair = (AbHom(z, FgAbGroup.free(2), IntMatrix.from_rows([[3], [-2]])),
            AbHom(FgAbGroup.free(2), z, IntMatrix.from_rows([[2, 3]])))
    torsion = (AbHom(z2, z4, IntMatrix.from_rows([[2]])), AbHom(z4, z2, IntMatrix.from_rows([[1]])))
    with transform_work() as seen:
        for (g, h), ker, im in ((pair, z, z), (torsion, z2, z2)):
            assert hom_kernel(h) == ker and hom_image(h) == im
            assert hom_kernel(g).is_trivial and hom_image(g) == g.source
            assert hom_subquotient(g, h).is_trivial
        assert hom_subquotient(zero_hom(z4, z4), zero_hom(z4, z2)) == z4
    assert seen.transforms == []


# -- invariant factors without a matrix, exact printing at any size

_HUGE = 10 ** 60 + 7


def _snf_route(orders, free):
    """The invariant factors as the SNF of the diagonal matrix."""
    tors = [abs(d) for d in orders if abs(d) >= 2]
    diag = snf(IntMatrix.diagonal(tors)).diagonal() if tors else ()
    return FgAbGroup(free + sum(1 for d in orders if d == 0), tuple(d for d in diag if d >= 2))


order_atoms = st.sampled_from([1, 2, 3, 4, 6, 9, 12, 2 ** 200, _HUGE, 6 * _HUGE, _HUGE ** 3, 3 ** 150 * 5])


@given(
    st.lists(
        st.one_of(
            st.integers(-30, 30),
            st.builds(lambda a, b, s: s * a * b, order_atoms, order_atoms, st.sampled_from([1, -1])),
        ),
        max_size=7,
    ),
    st.integers(0, 2),
)
def test_normalize_matches_snf_route(orders, free):
    assert normalize_diagonal(orders, free) == _snf_route(orders, free)


def test_many_equal_orders_parse_fast():
    start = time.perf_counter()
    g = parse_group("(Z/2)^100000")
    elapsed = time.perf_counter() - start
    assert g == FgAbGroup(0, (2,) * 100000)
    assert elapsed < 1.0
    assert parse_group("(Z/4)^3 + (Z/6)^2 + Z/9") == FgAbGroup(0, (2, 2, 12, 12, 36))


def _decimal_reference(n):
    digits = []
    while True:
        n, r = divmod(n, 10)
        digits.append("0123456789"[r])
        if not n:
            return "".join(reversed(digits))


@pytest.mark.parametrize(
    "order",
    [10 ** 499, 10 ** 500 - 1, 10 ** 500, 10 ** 500 + 1, 10 ** 4301 + 17, 7 ** 9000],
    ids=lambda n: f"{n.bit_length()}-bit",
)
def test_format_group_huge_orders(order):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    text = format_group(FgAbGroup(1, (order,)))
    assert text == "Z + Z/" + _decimal_reference(order)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_generator_ceiling():
    from cwhom.abgroups import _MAX_GENERATORS
    assert parse_group(f"Z^{_MAX_GENERATORS}") == FgAbGroup(_MAX_GENERATORS)
    assert parse_group(f"Z^{_MAX_GENERATORS - 2} + Z/2 + Z") == FgAbGroup(_MAX_GENERATORS - 1, (2,))
    for text, position in [(f"Z^{_MAX_GENERATORS + 1}", 0), (f"(Z/2)^{_MAX_GENERATORS + 1}", 0),
                           (f"Z^{_MAX_GENERATORS} + Z", 12), (f"(Z/3)^{10 ** 30}", 0),
                           (f"Z + (Z/2)^{_MAX_GENERATORS}", 4)]:
        with pytest.raises(GroupSyntaxError) as exc:
            parse_group(text)
        assert exc.value.position == position
        assert "more than 1000000 generators" in str(exc.value)
