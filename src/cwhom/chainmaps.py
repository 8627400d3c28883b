"""Cellular chain maps, degrees, mapping cones and induced maps.

Cofibers are realized as algebraic mapping cones of the reduced chain
complexes: the cone has the target's cells plus one (n+1)-cell for each
non-basepoint n-cell of the source, with the block boundary

    [[ B'_n,  F_{n-1} (reduced) ],
     [ 0,    -B_{n-1} (reduced) ]].

The cone of the degree-q sphere self-map reproduces the Moore space cell
for cell.  The connecting homomorphism of the long exact sequence is the
cohomology map induced by the cone's projection onto the (suspended)
source, composed with the dimension-shift identification; the projection
carries the alternating sign that makes it an honest chain map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .abgroups import AbHom, FgAbGroup, compose_hom
from .complexes import CwComplex, suspension, zoo
from .homology import CoeffPresentation, chain_group, induced_hom, integral_homology
from .intmat import IntMatrix

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


@dataclass(frozen=True)
class ChainMap:
    source: CwComplex
    target: CwComplex
    maps: tuple           # F_0 .. F_K, K = max(dims); F_n is c'_n x c_n
    name: str = field(default="", compare=False)

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
        want = (f.target.cells_at(n), f.source.cells_at(n))
        if m.shape != want:
            out.append(f"level {n}: shape {m.shape} != {want}")
    if out:
        return out
    for n in range(1, k + 1):
        lhs = f.target.boundary(n) @ f.level(n)
        rhs = f.level(n - 1) @ f.source.boundary(n)
        if lhs != rhs:
            out.append(f"level {n}: chain condition B' @ F != F @ B")
    f0 = f.level(0)
    for j in range(f0.cols):
        s = sum(f0.col(j))
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
    k = max(sub.dim, total.dim)
    maps = []
    for n in range(k + 1):
        cs, ct = sub.cells_at(n), total.cells_at(n)
        if cs > ct:
            raise ValueError(f"level {n}: {cs} cells do not fit in {ct}")
        rows = [[1 if i == j else 0 for j in range(cs)] for i in range(ct)]
        maps.append(IntMatrix.from_rows(rows, cols=cs))
    f = ChainMap(sub, total, tuple(maps), "incl")
    return require_valid_map(f)


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
    f0 = f.level(0)
    pt_col = f0.col(f.source.basepoint)
    cols = []
    for v in range(f.source.cells[0]):
        if v == f.source.basepoint:
            continue
        col = [a - b for a, b in zip(f0.col(v), pt_col)]
        del col[f.target.basepoint]
        cols.append(col)
    level1 = IntMatrix.from_columns(cols, rows=f.target.cells[0] - 1)
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


@dataclass(frozen=True)
class MappingCone:
    """Cofiber data: the cone complex, the inclusion of the target, and
    the (sign-corrected) projection onto the suspended source."""

    map: ChainMap
    cone: CwComplex
    inclusion: ChainMap    # target -> cone
    projection: ChainMap   # cone -> suspension(source)


def _reduced_cells(x: CwComplex, n: int) -> int:
    if n < 0:
        return 0
    c = x.cells_at(n)
    return c - 1 if n == 0 else c


def _reduced_boundary(x: CwComplex, n: int) -> IntMatrix:
    b = x.boundary(n)
    return b.delete_row(x.basepoint) if n == 1 else b


def _reduced_map_level(f: ChainMap, n: int) -> IntMatrix:
    """F_n between reduced complexes (basepoint row/column removed at 0).
    Requires f pointed at level 0."""
    m = f.level(n)
    if n == 0:
        return m.delete_row(f.target.basepoint).delete_col(f.source.basepoint)
    return m


def mapping_cone(f: ChainMap) -> MappingCone:
    require_valid_map(f, pointed=True)
    x, y = f.source, f.target
    top = max(y.dim, x.dim + 1)
    cells = []
    for n in range(top + 1):
        cells.append(y.cells_at(n) + _reduced_cells(x, n - 1))
    while len(cells) > 1 and cells[-1] == 0:
        cells.pop()
    cone_dim = len(cells) - 1

    bnds = []
    for n in range(1, cone_dim + 1):
        ry, rx = y.cells_at(n - 1), _reduced_cells(x, n - 2)
        cy, cx = y.cells_at(n), _reduced_cells(x, n - 1)
        grid = [[0] * (cy + cx) for _ in range(ry + rx)]
        by = y.boundary(n)
        for i in range(by.rows):
            for j in range(by.cols):
                grid[i][j] = by.entry(i, j)
        if n == 1:
            # a new 1-cell over source vertex v runs from f(v) to the
            # basepoint, so its column is F_0(v) minus the basepoint unit
            f0 = f.level(0)
            vs = [v for v in range(x.cells[0]) if v != x.basepoint]
            for j, v in enumerate(vs):
                col = list(f0.col(v))
                col[y.basepoint] -= 1
                for i in range(ry):
                    grid[i][cy + j] = col[i]
        else:
            fm = _reduced_map_level(f, n - 1)
            for i in range(fm.rows):
                for j in range(fm.cols):
                    grid[i][cy + j] = fm.entry(i, j)
            bx = _reduced_boundary(x, n - 1)
            for i in range(bx.rows):
                for j in range(bx.cols):
                    grid[ry + i][cy + j] = -bx.entry(i, j)
        bnds.append(IntMatrix.from_rows(grid, cols=cy + cx))

    cone = CwComplex(tuple(cells), tuple(bnds), y.basepoint,
                     f"cone({f.name})" if f.name else "cone")

    inc_maps = []
    for n in range(cone_dim + 1):
        cy = y.cells_at(n)
        rows = [[1 if i == j else 0 for j in range(cy)] for i in range(cone.cells_at(n))]
        inc_maps.append(IntMatrix.from_rows(rows, cols=cy))
    inclusion = ChainMap(y, cone, _padded(y, cone, inc_maps), "cfcod")

    sx = _suspended(x)
    proj_maps = [IntMatrix(1, cone.cells[0], (1,) * cone.cells[0])]
    for n in range(1, max(cone_dim, sx.dim) + 1):
        cy = cone.cells_at(n) - _reduced_cells(x, n - 1) if n <= cone_dim else 0
        rx = _reduced_cells(x, n - 1)
        sgn = 1 if (n + 1) % 2 == 0 else -1
        rows = []
        for i in range(sx.cells_at(n)):
            row = [0] * cone.cells_at(n)
            if i < rx:
                row[cy + i] = sgn
            rows.append(row)
        proj_maps.append(IntMatrix.from_rows(rows, cols=cone.cells_at(n)))
    projection = ChainMap(cone, sx, _padded(cone, sx, proj_maps), "cone proj")
    return MappingCone(f, cone, inclusion, projection)


def induced_map(f: ChainMap, n: int, coeff: FgAbGroup, variant: str = "cohomology",
                reduced: bool = True) -> AbHom:
    """h^n(f) (contravariant) or H_n(f) (covariant) on presented groups."""
    require_valid_map(f)
    if variant == "cohomology":
        src = chain_group(f.target, n, coeff, "cohomology", reduced)
        tgt = chain_group(f.source, n, coeff, "cohomology", reduced)
        return induced_hom(src, tgt, f.level(n).transpose())
    if variant == "homology":
        src = chain_group(f.source, n, coeff, "homology", reduced)
        tgt = chain_group(f.target, n, coeff, "homology", reduced)
        return induced_hom(src, tgt, f.level(n))
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
    if n < 0 or n > x.dim:
        return induced_hom(src, tgt, IntMatrix.zeros(tgt.ambient_dim, src.ambient_dim))
    t = IntMatrix.identity(x.cells[n]) if n >= 1 else _basepoint_differences(x)
    return induced_hom(src, tgt, t)


@lru_cache(maxsize=64)
def _suspended(x: CwComplex) -> CwComplex:
    """suspension(x), built once per complex for shift_iso and
    mapping_cone; bounded, with headroom over the 25 complexes one
    battery suspends.  Equal complexes with different names share an
    entry, so the cached copy carries no name."""
    return suspension(x).with_name("")


@lru_cache(maxsize=16)
def _cone(f: ChainMap) -> MappingCone:
    """mapping_cone(f), built once per chain map for the checks that visit
    it with every coefficient group; bounded like ``_suspended``.  Built
    from a nameless copy of f and of its complexes: equal maps with
    different names share an entry, and no cached name can reach a
    report."""
    return mapping_cone(ChainMap(f.source.with_name(""), f.target.with_name(""), f.maps))


def _basepoint_differences(x: CwComplex) -> IntMatrix:
    """One row e_v - e_basepoint per non-basepoint vertex v: shifts a
    0-cochain to vanish on the basepoint and restricts it to the other
    vertices."""
    c0 = x.cells[0]
    rows = []
    for v in range(c0):
        if v == x.basepoint:
            continue
        row = [0] * c0
        row[v] = 1
        row[x.basepoint] -= 1
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=c0)


def connecting_map(f: ChainMap, n: int, coeff: FgAbGroup, cone: MappingCone | None = None) -> AbHom:
    """gamma_n : h^n(X; G) -> h^{n+1}(cofiber(f); G) for the long exact
    sequence; no extra sign beyond the one carried by the cone blocks."""
    if cone is None:
        cone = _cone(f)
    proj_star = induced_map(cone.projection, n + 1, coeff, "cohomology", reduced=True)
    return compose_hom(proj_star, shift_iso(f.source, n, coeff))
