import pytest
from hypothesis import given, strategies as st

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
from cwhom.intmat import IntMatrix


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
