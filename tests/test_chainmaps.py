import pytest

from cwhom.abgroups import FgAbGroup, hom_image
from cwhom.chainmaps import (
    ChainMap,
    NotASphereModel,
    compose,
    connecting_map,
    degree,
    identity_map,
    inclusion_map,
    induced_map,
    is_pointed,
    mapping_cone,
    require_valid_map,
    sphere_self_map,
    susp_map,
    validate_map,
)
from cwhom.complexes import CwComplex, skeleton, suspension, zoo
from cwhom.intmat import IntMatrix

Z = FgAbGroup.free(1)


class TestValidation:
    def test_identity_is_valid(self):
        for x in (zoo("torus"), zoo("rp", 3), zoo("sphere", 0)):
            f = identity_map(x)
            assert validate_map(f) == []
            assert is_pointed(f)

    def test_chain_condition_reported(self):
        k = zoo("klein")
        # swapping the 1-cells clashes with the attaching word a b a b^-1
        maps = [IntMatrix.identity(1), IntMatrix.from_rows([[0, 1], [1, 0]]),
                IntMatrix.identity(1)]
        bad = ChainMap(k, k, tuple(maps))
        assert any("chain condition" in v for v in validate_map(bad))

    def test_augmentation_reported(self):
        s = zoo("sphere", 0)
        f = ChainMap(s, s, (IntMatrix.from_rows([[1, 1], [1, 0]]),))
        assert any("sum" in v for v in validate_map(f))

    def test_pointedness_separate(self):
        swap = sphere_self_map(0, -1)
        msgs = validate_map(swap)
        assert msgs and all("basepoint" in m for m in msgs)
        # non-pointed maps pass the default gate but not the pointed one
        require_valid_map(swap)
        with pytest.raises(ValueError):
            require_valid_map(swap, pointed=True)

    def test_wrong_level_count(self):
        s = zoo("sphere", 1)
        f = ChainMap(s, s, (IntMatrix.identity(1),))
        assert any("level matrices" in v for v in validate_map(f))


class TestDegree:
    def test_identity_law(self):
        for n in range(5):
            assert degree(identity_map(zoo("sphere", n))) == 1

    def test_multiplicativity(self):
        for d in range(-5, 6):
            for e in range(-5, 6):
                f = sphere_self_map(2, d)
                g = sphere_self_map(2, e)
                assert degree(compose(g, f)) == d * e

    def test_suspension_law(self):
        for n in range(1, 4):
            for d in (-3, 0, 2, 7):
                assert degree(susp_map(sphere_self_map(n, d))) == d

    def test_s0_table(self):
        assert degree(sphere_self_map(0, 1)) == 1
        assert degree(sphere_self_map(0, -1)) == -1
        assert degree(sphere_self_map(0, 0)) == 0
        with pytest.raises(ValueError):
            sphere_self_map(0, 2)

    def test_s0_suspends_to_circle_swap(self):
        # the swap is not pointed, yet its suspension is a genuine
        # pointed degree -1 self-map of the circle
        swap = sphere_self_map(0, -1)
        sw = susp_map(swap)
        assert is_pointed(sw)
        assert degree(sw) == -1
        assert degree(susp_map(sw)) == -1

    def test_degree_on_nonminimal_model(self):
        # a 2-vertex circle; the map rotating it by one step
        c = CwComplex((2, 2), (IntMatrix.from_rows([[1, -1], [-1, 1]]),))
        rot = ChainMap(c, c, (
            IntMatrix.from_rows([[0, 1], [1, 0]]),
            IntMatrix.from_rows([[0, 1], [1, 0]]),
        ))
        require_valid_map(rot)
        assert degree(rot) in (1, -1)
        assert degree(identity_map(c)) == 1

    def test_not_a_sphere(self):
        with pytest.raises(NotASphereModel):
            degree(identity_map(zoo("torus")))
        with pytest.raises(NotASphereModel):
            degree(identity_map(zoo("point")))

    def test_degree_needs_self_map(self):
        f = inclusion_map(skeleton(zoo("rp", 2), 1), zoo("rp", 2))
        with pytest.raises(NotASphereModel):
            degree(f)


class TestMappingCone:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_cone_is_moore_space(self, q, n):
        mc = mapping_cone(sphere_self_map(n, q))
        assert mc.cone == zoo("moore", q, n)

    def test_cone_of_identity_contractible(self):
        mc = mapping_cone(identity_map(zoo("sphere", 2)))
        from cwhom.homology import integral_homology
        for n in range(mc.cone.dim + 1):
            assert integral_homology(mc.cone, n, reduced=True).group.is_trivial

    def test_cone_of_constant_is_wedge_with_suspension(self):
        from cwhom.homology import integral_homology
        mc = mapping_cone(sphere_self_map(2, 0))
        hs = [str(integral_homology(mc.cone, n, reduced=True).group)
              for n in range(4)]
        assert hs == ["0", "0", "Z", "Z"]

    def test_cone_with_many_source_vertices(self):
        # collapsing the 1-skeleton inclusion of the torus: cone is
        # homotopy-wise torus with a cone on its wedge of circles
        t = zoo("torus")
        f = inclusion_map(skeleton(t, 1), t)
        mc = mapping_cone(f)
        assert mc.cone.cells == (1, 2, 3)
        assert validate_map(mc.inclusion) == []
        assert validate_map(mc.projection) == []

    def test_projection_is_chain_map_with_signs(self):
        f = sphere_self_map(1, 3)
        mc = mapping_cone(f)
        sx = suspension(f.source)
        assert mc.projection.target == sx
        assert validate_map(mc.projection) == []

    def test_cone_requires_pointed(self):
        with pytest.raises(ValueError):
            mapping_cone(sphere_self_map(0, -1))


class TestInducedAndConnecting:
    def test_functoriality_on_h1(self):
        t = zoo("torus")
        idm = induced_map(identity_map(t), 1, Z)
        assert idm.matrix == IntMatrix.identity(2)

    def test_degree_two_on_cohomology(self):
        f = sphere_self_map(1, 2)
        h = induced_map(f, 1, Z, "cohomology", reduced=True)
        assert h.matrix.entry(0, 0) in (2, -2)

    def test_homology_variant_covariant(self):
        f = sphere_self_map(2, 3)
        h = induced_map(f, 2, Z, "homology", reduced=True)
        assert h.matrix.entry(0, 0) in (3, -3)

    def test_connecting_onto_torsion(self):
        # gamma: h^1(S^1; Z) = Z -> h^2(M(Z/2,1); Z) = Z/2 must be onto
        f = sphere_self_map(1, 2)
        g = connecting_map(f, 1, Z)
        assert g.source == Z
        assert g.target == FgAbGroup.cyclic(2)
        assert hom_image(g) == FgAbGroup.cyclic(2)

    def test_connecting_out_of_range(self):
        f = sphere_self_map(1, 2)
        g = connecting_map(f, 5, Z)
        assert g.source.is_trivial and g.target.is_trivial


def _battery_les_maps():
    maps = [sphere_self_map(1, d) for d in (0, 1, 2, 6)]
    maps.append(sphere_self_map(2, 3))
    t, r = zoo("torus"), zoo("rp", 3)
    maps.append(identity_map(t))
    maps.append(inclusion_map(skeleton(t, 1), t))
    maps.append(inclusion_map(skeleton(r, 2), r))
    return maps


def test_cones_of_battery_maps_are_valid():
    # mapping_cone skips validating what it builds, so check it here
    from cwhom.complexes import validate
    for f in _battery_les_maps():
        mc = mapping_cone(f)
        assert validate(mc.cone) == []
        assert validate_map(mc.inclusion) == []
        assert validate_map(mc.projection) == []


def test_sphere_maps_and_suspensions_are_valid():
    for n in range(4):
        for d in (-1, 0, 1) if n == 0 else (-3, -1, 0, 1, 2, 6):
            f = sphere_self_map(n, d)
            if (n, d) != (0, -1):  # the swap of S^0 is not pointed
                assert validate_map(f) == []
            assert validate_map(susp_map(f)) == []
            assert validate_map(susp_map(susp_map(f))) == []


def test_map_validity_is_computed_once_per_object(monkeypatch):
    import cwhom.chainmaps as chainmaps
    calls = []
    real = chainmaps.validate_map
    monkeypatch.setattr(chainmaps, "validate_map", lambda f: calls.append(f) or real(f))
    f = sphere_self_map(2, 5)
    for _ in range(3):
        require_valid_map(f, pointed=True)
        induced_map(f, 2, Z)
    assert calls == [f]
