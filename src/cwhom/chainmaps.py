"""Cellular chain maps, degrees, mapping cones and induced maps.

Cofibers are realized as algebraic mapping cones of the reduced chain
complexes: the cone has the target's cells plus one (n+1)-cell for each
non-basepoint n-cell of the source, with the block boundary

    [[ B'_n,  F_{n-1} (reduced) ],
     [ 0,    -B_{n-1} (reduced) ]].

That layout is decided in ``mapping_cone`` alone: in every dimension the
target's cells come first and the cells over the source, read off its
suspension, follow.  The boundary is stacked from those four blocks, the
inclusion of the target is the unit columns of the first block and the
projection the transposed unit columns of the second.

Chain maps are frozen and cache their violation report, so each is
validated once, where it enters (``require_valid_map``).  Maps built
valid from checked input are born with an empty report
(``complexes._born_valid``): the cone's inclusion and projection, and
``verify``'s collapse maps, wedge inclusions and skeletal-tower
inclusions.  So is the cone complex itself.

The cone of the degree-q sphere self-map reproduces the Moore space cell
for cell.  The connecting homomorphism of the long exact sequence is the
cohomology map induced by the cone's projection onto the (suspended)
source, composed with the dimension-shift identification; the projection
carries the alternating sign that makes it an honest chain map.
"""

from __future__ import annotations

from functools import cached_property

from .abgroups import AbHom, FgAbGroup, compose_hom, zero_hom
from .complexes import CwComplex, _born_valid, suspension, zoo
from .homology import _induced, _per_value, chain_group, integral_homology
from .intmat import IntMatrix, _kept_hash, _ones, _sparse_columns, _sparse_product, _unit_columns, _Value, _vstack

__all__ = [
    "ChainMap",
    "MappingCone",
    "NotASphereModel",
    "validate_map",
    "require_valid_map",
    "is_pointed",
    "identity_map",
    "compose",
    "inclusion_map",
    "sphere_self_map",
    "susp_map",
    "degree",
    "mapping_cone",
    "induced_map",
    "connecting_map",
    "shift_iso",
]


class NotASphereModel(ValueError):
    pass


class ChainMap(_Value):
    __match_args__ = ("source", "target", "maps", "name")

    def __init__(self, source: CwComplex, target: CwComplex, maps: tuple, name: str = ""):
        # maps: F_0 .. F_K, K = max(dims); F_n is c'_n x c_n
        self._init(source, target, maps, name)

    def _key(self) -> tuple:
        return (self.source, self.target, self.maps)  # not the name

    __hash__ = _kept_hash

    @property
    def top(self) -> int:
        return len(self.maps) - 1

    def level(self, n: int) -> IntMatrix:
        if 0 <= n <= self.top:
            return self.maps[n]
        return IntMatrix.zeros(self.target.cells_at(n), self.source.cells_at(n))

    @cached_property
    def _violations(self) -> tuple:
        # the map is frozen, so its validity is computed at most once
        return tuple(validate_map(self))


def _padded(source: CwComplex, target: CwComplex, maps) -> tuple:
    k = max(source.dim, target.dim)
    out = list(maps[: k + 1])
    while len(out) < k + 1:
        n = len(out)
        out.append(IntMatrix.zeros(target.cells_at(n), source.cells_at(n)))
    return tuple(out)


def validate_map(f: ChainMap) -> list[str]:
    """Violation report: shapes, chain condition, augmentation columns,
    and pointedness.  Pointedness is reported but only enforced by the
    constructions that need it (cones, wedges of maps)."""
    out = []
    out.extend(f"source: {v}" for v in f.source._violations)
    out.extend(f"target: {v}" for v in f.target._violations)
    if out:
        return out
    k = max(f.source.dim, f.target.dim)
    if f.top != k:
        out.append(f"expected {k + 1} level matrices, found {f.top + 1}")
        return out
    for n in range(k + 1):
        m = f.maps[n]
        expected = (f.target.cells_at(n), f.source.cells_at(n))
        if m.shape != expected:
            out.append(f"level {n}: shape {m.shape} != {expected}")
    if out:
        return out
    cols = [_sparse_columns(m) for m in f.maps]
    for n in range(1, k + 1):
        lhs = _sparse_product(_sparse_columns(f.target.boundary(n)), cols[n])
        rhs = _sparse_product(cols[n - 1], _sparse_columns(f.source.boundary(n)))
        if list(lhs) != list(rhs):
            out.append(f"level {n}: chain condition B' @ F != F @ B")
    for j, col in enumerate(cols[0]):
        s = sum(v for _, v in col)
        if s != 1:
            out.append(f"level 0: column {j} has entry sum {s}, not 1")
    if not is_pointed(f):
        out.append("level 0: basepoint column is not the target basepoint unit vector")
    return out


def is_pointed(f: ChainMap) -> bool:
    f0 = f.level(0)
    col = f0.col(f.source.basepoint)
    return all(
        v == (1 if i == f.target.basepoint else 0) for i, v in enumerate(col)
    )


def require_valid_map(f: ChainMap, pointed: bool = False) -> ChainMap:
    bad = [v for v in f._violations if pointed or not v.startswith("level 0: basepoint")]
    if bad:
        raise ValueError("invalid chain map: " + "; ".join(bad))
    return f


def identity_map(x: CwComplex) -> ChainMap:
    maps = tuple(IntMatrix.identity(x.cells[n]) for n in range(x.dim + 1))
    return ChainMap(x, x, maps, f"id({x.name})" if x.name else "id")


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f (matrices multiply dimensionwise)."""
    if f.target != g.source:
        raise ValueError("compose: f.target != g.source")
    k = max(f.source.dim, g.target.dim)
    maps = tuple(g.level(n) @ f.level(n) for n in range(k + 1))
    return ChainMap(f.source, g.target, _padded(f.source, g.target, maps))


def inclusion_map(sub: CwComplex, total: CwComplex) -> ChainMap:
    """The evident inclusion of a complex whose cells are an initial
    segment of ``total``'s in every dimension (e.g. a skeleton)."""
    return require_valid_map(_inclusion(sub, total))


def _inclusion(sub: CwComplex, total: CwComplex) -> ChainMap:
    """``inclusion_map`` without the check."""
    k = max(sub.dim, total.dim)
    maps = []
    for n in range(k + 1):
        cs, ct = sub.cells_at(n), total.cells_at(n)
        if cs > ct:
            raise ValueError(f"level {n}: {cs} cells do not fit in {ct}")
        maps.append(_unit_columns(ct, range(cs)))
    return ChainMap(sub, total, tuple(maps), "incl")


def sphere_self_map(n: int, d: int) -> ChainMap:
    """Self-map of the minimal sphere model with top-level multiplier d.

    For n = 0 only |d| <= 1 is expressible: identity (1), the swap (-1,
    not pointed) and the constant to the basepoint (0).
    """
    s = zoo("sphere", n)
    if n == 0:
        if d == 1:
            f0 = IntMatrix.identity(2)
        elif d == -1:
            f0 = IntMatrix.from_rows([[0, 1], [1, 0]])
        elif d == 0:
            f0 = IntMatrix.from_rows([[1, 1], [0, 0]])
        else:
            raise ValueError("S^0 self-maps only exist for d in {-1, 0, 1}")
        return ChainMap(s, s, (f0,), f"S0 map d={d}")
    maps = [IntMatrix.identity(1)]
    maps.extend(IntMatrix.zeros(0, 0) for _ in range(n - 1))
    maps.append(IntMatrix.from_rows([[d]]))
    return ChainMap(s, s, tuple(maps), f"deg {d} on S{n}")


def susp_map(f: ChainMap) -> ChainMap:
    """The map between reduced suspensions.

    Level n+1 is F_n for n >= 1.  Level 1 sends the loop of a source
    vertex v to F_0(v) - F_0(basepoint), both with the target basepoint
    row removed; for pointed maps this is just the basepoint-deleted F_0.
    """
    require_valid_map(f)
    sx, sy = suspension(f.source), suspension(f.target)
    level1 = _relative_columns(f.level(0), f.source.basepoint).delete_row(f.target.basepoint)
    maps = [IntMatrix.identity(1), level1]
    k = max(f.source.dim, f.target.dim)
    maps.extend(f.level(n) for n in range(1, k + 1))
    return ChainMap(sx, sy, _padded(sx, sy, maps), f"susp({f.name})" if f.name else "")


def _sphere_dimension(x: CwComplex) -> int:
    hit = None
    for n in range(x.dim + 1):
        g = integral_homology(x, n, reduced=True).group
        if g.is_trivial:
            continue
        if g == FgAbGroup.free(1) and hit is None:
            hit = n
        else:
            raise NotASphereModel(f"reduced H_{n} = {g}")
    if hit is None:
        raise NotASphereModel("reduced homology is trivial everywhere")
    return hit


def degree(f: ChainMap) -> int:
    """The integer by which f acts on the reduced top homology of a
    sphere model; representation-independent."""
    if f.source != f.target:
        raise NotASphereModel("degree needs a self-map")
    require_valid_map(f)
    n = _sphere_dimension(f.source)
    pres = integral_homology(f.source, n, reduced=True)
    image = f.level(n).apply(pres.lifts[0])
    return pres.coords(image)[0]


class MappingCone(_Value):
    """Cofiber data: the cone complex, the inclusion of the target, and
    the (sign-corrected) projection onto the suspended source."""

    __match_args__ = ("map", "cone", "inclusion", "projection")
    __slots__ = (*__match_args__, "_hash")

    def __init__(self, map: ChainMap, cone: CwComplex, inclusion: ChainMap, projection: ChainMap):
        # inclusion: target -> cone; projection: cone -> suspension(source)
        self._init(map, cone, inclusion, projection)

    __hash__ = _kept_hash


def _relative_columns(m: IntMatrix, bp: int) -> IntMatrix:
    """The columns m_v - m_bp of m, one for each v != bp: where a map
    whose level 0 is m sends the loop, or cone 1-cell, over vertex v."""
    pt = m.col(bp)
    return IntMatrix.from_columns([[a - b for a, b in zip(m.col(v), pt)] for v in range(m.cols) if v != bp],
                                  rows=m.rows)


def _corner(f: ChainMap, n: int) -> IntMatrix:
    """The block of the cone's B_n that takes the cells over the source
    to the target's: F_{n-1}, and at n = 1 F_0(v) - F_0(basepoint) for
    each other source vertex v, because the new 1-cell over v runs from
    f(v) to the basepoint."""
    return f.level(n - 1) if n > 1 else _relative_columns(f.level(0), f.source.basepoint)


def mapping_cone(f: ChainMap) -> MappingCone:
    """Cone, inclusion and projection, on the cell layout of the module
    docstring; level n of the projection carries the sign (-1)^(n+1)."""
    require_valid_map(f, pointed=True)
    y, sx = f.target, _suspended(f.source)
    cells = [y.cells_at(n) + (sx.cells_at(n) if n else 0) for n in range(max(y.dim, sx.dim) + 1)]
    while len(cells) > 1 and cells[-1] == 0:
        cells.pop()

    bnds = []
    for n in range(1, len(cells)):
        low = -sx.boundary(n) if n > 1 else IntMatrix.zeros(0, sx.cells_at(1))
        bnds.append(_vstack(IntMatrix.hstack(y.boundary(n), _corner(f, n)),
                            IntMatrix.hstack(IntMatrix.zeros(low.rows, y.cells_at(n)), low)))
    cone = _born_valid(CwComplex(tuple(cells), tuple(bnds), y.basepoint,
                                 f"cone({f.name})" if f.name else "cone"))

    inclusion = ChainMap(y, cone, tuple(_unit_columns(cone.cells_at(n), range(y.cells_at(n)))
                                        for n in range(max(y.dim, cone.dim) + 1)), "cfcod")
    proj_maps = [_ones(cone.cells[0])]
    for n in range(1, max(cone.dim, sx.dim) + 1):
        cy = y.cells_at(n)
        m = _unit_columns(cone.cells_at(n), range(cy, cy + sx.cells_at(n))).transpose()
        proj_maps.append(m if n % 2 else -m)
    projection = ChainMap(cone, sx, tuple(proj_maps), "cone proj")
    return MappingCone(f, cone, _born_valid(inclusion), _born_valid(projection))


def induced_map(f: ChainMap, n: int, coeff: FgAbGroup, variant: str = "cohomology",
                reduced: bool = True) -> AbHom:
    """h^n(f) (contravariant) or H_n(f) (covariant) on presented groups."""
    require_valid_map(f)
    if variant == "cohomology":
        src = chain_group(f.target, n, coeff, "cohomology", reduced)
        tgt = chain_group(f.source, n, coeff, "cohomology", reduced)
        if not (src.num_generators and tgt.num_generators):
            return zero_hom(src.group, tgt.group)
        return _induced(src, tgt, f.level(n).transpose())
    if variant == "homology":
        src = chain_group(f.source, n, coeff, "homology", reduced)
        tgt = chain_group(f.target, n, coeff, "homology", reduced)
        return _induced(src, tgt, f.level(n))
    raise ValueError(f"unknown variant {variant!r}")


def shift_iso(x: CwComplex, n: int, coeff: FgAbGroup) -> AbHom:
    """The suspension identification h^n(X; G) -> h^{n+1}(susp X; G)
    (reduced), as a map of presented groups.

    For n >= 1 the ambient cochain spaces coincide and the identity
    matrix realizes it; at n = 0 a cocycle is first shifted to vanish on
    the basepoint and then restricted to the non-basepoint vertices.
    """
    sx = _suspended(x)
    src = chain_group(x, n, coeff, "cohomology", True)
    tgt = chain_group(sx, n + 1, coeff, "cohomology", True)
    if not (src.num_generators and tgt.num_generators):  # so for every n < 0 or n > x.dim
        return zero_hom(src.group, tgt.group)
    t = IntMatrix.identity(x.cells[n]) if n >= 1 else _basepoint_differences(x)
    return _induced(src, tgt, t)


@_per_value
def _suspended(x: CwComplex) -> CwComplex:
    """suspension(x) for shift_iso and mapping_cone, kept in x's memo as long
    as x or an equal complex lives; shared by names, so it carries none."""
    return suspension(x).with_name("")


@_per_value
def _cone(f: ChainMap) -> MappingCone:
    """mapping_cone(f) for the checks that visit f with every coefficient
    group, kept in f's memo like ``_suspended``.  Built from nameless copies
    of f and its complexes, which take over their violation reports: equal
    maps with different names share it, and no kept name reaches a report."""
    copy = ChainMap(f.source.with_name(""), f.target.with_name(""), f.maps)
    return mapping_cone(_born_valid(copy, f._violations))


def _basepoint_differences(x: CwComplex) -> IntMatrix:
    """One row e_v - e_basepoint per non-basepoint vertex v: shifts a
    0-cochain to vanish on the basepoint and restricts it to the other
    vertices."""
    return _relative_columns(IntMatrix.identity(x.cells[0]), x.basepoint).transpose()


def connecting_map(f: ChainMap, n: int, coeff: FgAbGroup, cone: MappingCone | None = None) -> AbHom:
    """gamma_n : h^n(X; G) -> h^{n+1}(cofiber(f); G) for the long exact
    sequence; no extra sign beyond the one carried by the cone blocks."""
    if cone is None:
        cone = _cone(f)
    proj_star = induced_map(cone.projection, n + 1, coeff, "cohomology", reduced=True)
    return compose_hom(proj_star, shift_iso(f.source, n, coeff))
