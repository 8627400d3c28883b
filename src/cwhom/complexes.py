"""Combinatorial finite CW complexes.

A complex is a list of cell counts per dimension together with integer
boundary matrices; column b of the n-th boundary matrix is the boundary
of the n-cell b, expressed in (n-1)-cells.  Attaching data above
dimension 2 enters only through these integer degree matrices; 2-cells
can alternatively be described by edge words, whose exponent sums become
the boundary coefficients (the winding numbers of the attaching loops).

Sign convention for 1-cells: an edge from x to y contributes +1 at x and
-1 at y; a self-loop contributes the zero column.

Complexes are frozen and cache their violation report, so ``validate``
runs at most once per object.  ``from_presentation`` checks its output,
because it is where word presentations enter.  The constructions below
are born with their report (``_born_valid``, shared with chain maps):
``suspension``, ``add_disjoint_basepoint``, ``wedge`` and
``quotient_by_skeleton`` check only their input and build valid output,
the fixed zoo complexes are valid as written, and so is a skeleton of a
valid complex; ``with_name`` takes over the report of its original.
"""

from __future__ import annotations

from functools import cached_property

from .intmat import IntMatrix, _kept_hash, _put, _sparse_columns, _sparse_product, _Value, _vstack

__all__ = [
    "CwComplex",
    "EdgePresentation",
    "MalformedWord",
    "InvalidComplex",
    "validate",
    "require_valid",
    "from_presentation",
    "euler_characteristic",
    "skeleton",
    "quotient_by_skeleton",
    "suspension",
    "wedge",
    "add_disjoint_basepoint",
    "zoo",
    "ZOO_NAMES",
]


class MalformedWord(ValueError):
    pass


class InvalidComplex(ValueError):
    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class CwComplex(_Value):
    __match_args__ = ("cells", "boundaries", "basepoint", "name")

    def __init__(self, cells: tuple, boundaries: tuple, basepoint: int = 0, name: str = ""):
        # cells: the cell counts per dimension, c0 >= 1; boundaries: the
        # IntMatrix B_1 .. B_N, B_n is c_{n-1} x c_n
        self._init(cells, boundaries, basepoint, name)

    def _key(self) -> tuple:
        return (self.cells, self.boundaries, self.basepoint)  # not the name

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def cells_at(self, n: int) -> int:
        return self.cells[n] if 0 <= n <= self.dim else 0

    def boundary(self, n: int) -> IntMatrix:
        """B_n, with correctly-shaped zero matrices outside 1..dim."""
        if 1 <= n <= self.dim:
            return self.boundaries[n - 1]
        return IntMatrix.zeros(self.cells_at(n - 1), self.cells_at(n))

    __hash__ = _kept_hash

    @cached_property
    def _violations(self) -> tuple:
        # the complex is frozen, so its validity is computed at most once
        return tuple(validate(self))

    def with_name(self, name: str) -> "CwComplex":
        return _born_valid(CwComplex(self.cells, self.boundaries, self.basepoint, name), self._violations)

    def __str__(self) -> str:
        label = self.name or "complex"
        return f"{label}{list(self.cells)}"


class EdgePresentation(_Value):
    __slots__ = __match_args__ = ("vertices", "edges", "faces", "basepoint")

    def __init__(self, vertices: int, edges: tuple, faces: tuple = (), basepoint: int = 0):
        # edges: (source, target) pairs, 0-based vertices; faces: attaching
        # words, nonzero signed 1-based edge indices
        self._init(vertices, edges, faces, basepoint)


def _born_valid(obj, report: tuple = ()):
    """obj (a complex or a chain map) with ``report`` as its cached
    violation report: empty, or that of the object obj copies."""
    _put(obj, "_violations", report)
    return obj


def validate(x: CwComplex) -> list[str]:
    """Violation report; the empty list means the complex is valid."""
    out = []
    if not x.cells:
        return ["no dimensions: cells list is empty"]
    if x.cells[0] < 1:
        out.append("dimension 0: at least one 0-cell required")
    if any(c < 0 for c in x.cells):
        out.append("negative cell count")
    if not (0 <= x.basepoint < max(x.cells[0], 1)):
        out.append(f"basepoint {x.basepoint} out of range for {x.cells[0]} vertices")
    if len(x.boundaries) != x.dim:
        out.append(
            f"expected {x.dim} boundary matrices, found {len(x.boundaries)}"
        )
        return out
    for n in range(1, x.dim + 1):
        b = x.boundaries[n - 1]
        if b.shape != (x.cells[n - 1], x.cells[n]):
            out.append(
                f"dimension {n}: boundary shape {b.shape} != "
                f"({x.cells[n - 1]}, {x.cells[n]})"
            )
    if out:
        return out
    lower = _sparse_columns(x.boundary(1))
    for j, col in enumerate(lower):
        s = sum(v for _, v in col)
        if s != 0:
            out.append(f"dimension 1: column {j} has entry sum {s}, not 0")
    for n in range(2, x.dim + 1):
        upper = _sparse_columns(x.boundary(n))
        if any(_sparse_product(lower, upper)):
            out.append(f"dimension {n}: chain condition B_{n-1} @ B_{n} != 0")
        lower = upper
    return out


def require_valid(x: CwComplex) -> CwComplex:
    if x._violations:
        raise InvalidComplex(x._violations)
    return x


def from_presentation(p: EdgePresentation) -> CwComplex:
    """Build a complex of dimension <= 2 from vertices, edges and words.

    Each word must be a closed composable edge loop; the 2-cell boundary
    coefficient for an edge is the word's exponent sum on that edge.
    """
    nv = len(p.edges) and max(max(e) for e in p.edges) + 1
    if p.vertices < 1:
        raise MalformedWord("at least one vertex required")
    if nv > p.vertices:
        raise MalformedWord("edge endpoint out of range")
    if not (0 <= p.basepoint < p.vertices):
        raise MalformedWord("basepoint out of range")
    ne = len(p.edges)

    b1_cols = []
    for (s, t) in p.edges:
        col = [0] * p.vertices
        if s != t:
            col[s] += 1
            col[t] -= 1
        b1_cols.append(col)
    b1 = IntMatrix.from_columns(b1_cols, rows=p.vertices)

    b2_cols = []
    for w, word in enumerate(p.faces):
        if not word:
            raise MalformedWord(f"face {w}: empty word")
        col = [0] * ne
        at = None
        start = None
        for letter in word:
            if letter == 0 or abs(letter) > ne:
                raise MalformedWord(f"face {w}: edge index {letter} out of range")
            e = abs(letter) - 1
            s, t = p.edges[e]
            if letter < 0:
                s, t = t, s
            if at is None:
                start = s
            elif at != s:
                raise MalformedWord(f"face {w}: edges do not compose")
            at = t
            col[e] += 1 if letter > 0 else -1
        if at != start:
            raise MalformedWord(f"face {w}: loop does not close")
        b2_cols.append(col)

    if p.faces:
        cells = (p.vertices, ne, len(p.faces))
        bnds = (b1, IntMatrix.from_columns(b2_cols, rows=ne))
    elif p.edges:
        cells = (p.vertices, ne)
        bnds = (b1,)
    else:
        cells = (p.vertices,)
        bnds = ()
    return require_valid(CwComplex(cells, bnds, p.basepoint))


def euler_characteristic(x: CwComplex) -> int:
    return sum((-1) ** n * c for n, c in enumerate(x.cells))


def skeleton(x: CwComplex, n: int) -> CwComplex:
    if not (0 <= n <= x.dim):
        raise ValueError(f"skeleton dimension {n} out of range 0..{x.dim}")
    s = CwComplex(x.cells[: n + 1], x.boundaries[:n], x.basepoint, f"{x.name}_skel{n}" if x.name else "")
    return s if x._violations else _born_valid(s)


def quotient_by_skeleton(x: CwComplex, m: int) -> CwComplex:
    """Collapse the m-skeleton to the basepoint.

    Cells become [1, 0, ..., 0, c_{m+1}, ..., c_N]; the first surviving
    boundary is replaced by the zero matrix into the single base vertex
    and everything above is unchanged.
    """
    require_valid(x)
    if not (0 <= m < x.dim):
        raise ValueError(f"quotient dimension {m} out of range 0..{x.dim - 1}")
    cells = (1,) + (0,) * m + x.cells[m + 1:]
    bnds = [IntMatrix.zeros(cells[n - 1], cells[n]) for n in range(1, m + 2)]
    bnds.extend(x.boundaries[m + 1:])
    name = f"{x.name}/skel{m}" if x.name else ""
    return _born_valid(CwComplex(cells, tuple(bnds), 0, name))


def suspension(x: CwComplex) -> CwComplex:
    """Reduced suspension: one new vertex, each non-basepoint 0-cell
    becomes a loop 1-cell, each n-cell becomes an (n+1)-cell."""
    require_valid(x)
    c0 = x.cells[0]
    cells = (1, c0 - 1) + x.cells[1:]
    bnds = [IntMatrix.zeros(1, c0 - 1)]
    if x.dim >= 1:
        bnds.append(x.boundary(1).delete_row(x.basepoint))
        bnds.extend(x.boundaries[1:])
    name = f"susp({x.name})" if x.name else ""
    return _born_valid(CwComplex(tuple(cells), tuple(bnds), 0, name))


def add_disjoint_basepoint(x: CwComplex) -> CwComplex:
    """X_+ : the same complex with one extra vertex, which becomes the
    basepoint (appended as the last 0-cell)."""
    require_valid(x)
    c0 = x.cells[0]
    cells = (c0 + 1,) + x.cells[1:]
    bnds = list(x.boundaries)
    if x.dim >= 1:
        bnds[0] = _vstack(x.boundary(1), IntMatrix.zeros(1, x.cells[1]))
    name = f"{x.name}+" if x.name else ""
    return _born_valid(CwComplex(cells, tuple(bnds), c0, name))


def _wedge_cells(xs) -> tuple:
    """The cell layout of wedge(xs), decided here and nowhere else: the
    wedge's cell counts, and for each summand k and dimension n the list
    of wedge indices its n-cells land at.  Every basepoint lands at
    vertex 0; every other cell follows the earlier summands' cells of its
    dimension, in input order."""
    nxt = [1] + [0] * max(x.dim for x in xs)  # next free index per dimension
    lands = []
    for x in xs:
        at = []
        for n in range(len(nxt)):
            idx = []
            for i in range(x.cells_at(n)):
                if n == 0 and i == x.basepoint:
                    idx.append(0)
                else:
                    idx.append(nxt[n])
                    nxt[n] += 1
            at.append(idx)
        lands.append(at)
    return tuple(nxt), lands


def wedge(xs) -> CwComplex:
    """One-point union: basepoints merged into vertex 0, all other cells
    concatenated in input order (``_wedge_cells``).  Each boundary entry
    of each summand is added in at its cells' wedge indices, which folds
    every basepoint row onto the shared row."""
    xs = list(xs)
    if not xs:
        raise ValueError("wedge of nothing")
    for x in xs:
        require_valid(x)
    cells, lands = _wedge_cells(xs)
    grids = [[[0] * cells[n] for _ in range(cells[n - 1])] for n in range(1, len(cells))]
    for x, at in zip(xs, lands):
        for n, b in enumerate(x.boundaries, 1):
            for i, r in enumerate(at[n - 1]):
                row = grids[n - 1][r]
                for c, v in zip(at[n], b.row(i)):
                    row[c] += v
    bnds = tuple(IntMatrix.from_rows(g, cols=cells[n]) for n, g in enumerate(grids, 1))
    name = "wedge(" + ", ".join(x.name or "?" for x in xs) + ")"
    return _born_valid(CwComplex(cells, bnds, 0, name))


_ZOO_MAX = 10 ** 5  # largest zoo dimension or genus, so a mistyped size cannot exhaust memory


def _size(what: str, v: int, low: int) -> int:
    """v, if it is a zoo dimension or genus in low.._ZOO_MAX."""
    if v < low:
        raise ValueError(f"{what} must be >= {low}")
    if v > _ZOO_MAX:
        raise ValueError(f"{what} must be <= {_ZOO_MAX}")
    return v


def _sphere(n: int) -> CwComplex:
    if n == 0:
        return _born_valid(CwComplex((2,), (), 0, "S0"))
    cells = (1,) + (0,) * (n - 1) + (1,)
    bnds = tuple(IntMatrix.zeros(cells[k - 1], cells[k]) for k in range(1, n + 1))
    return _born_valid(CwComplex(cells, bnds, 0, f"S{n}"))


def _surface_word(g: int):
    word = []
    for i in range(g):
        a, b = 2 * i + 1, 2 * i + 2
        word.extend([a, b, -a, -b])
    return tuple(word)


def _rp(n: int) -> CwComplex:
    cells = (1,) * (n + 1)
    bnds = tuple(IntMatrix.from_rows([[1 + (-1) ** k]]) for k in range(1, n + 1))
    return _born_valid(CwComplex(cells, bnds, 0, f"RP{n}"))


def _cp(n: int) -> CwComplex:
    cells = tuple(1 if k % 2 == 0 else 0 for k in range(2 * n + 1))
    bnds = tuple(IntMatrix.zeros(cells[k - 1], cells[k]) for k in range(1, 2 * n + 1))
    return _born_valid(CwComplex(cells, bnds, 0, f"CP{n}"))


def _moore(q: int, n: int) -> CwComplex:
    if q < 2 or n < 1:
        raise ValueError("moore requires q >= 2 and n >= 1")
    _size("moore dimension", n, 1)
    cells = (1,) + (0,) * (n - 1) + (1, 1)
    bnds = [IntMatrix.zeros(cells[k - 1], cells[k]) for k in range(1, n + 1)]
    bnds.append(IntMatrix.from_rows([[q]]))
    return _born_valid(CwComplex(cells, tuple(bnds), 0, f"M(Z/{q},{n})"))


def _lens(p: int) -> CwComplex:
    if p < 2:
        raise ValueError("lens requires p >= 2")
    bnds = (
        IntMatrix.from_rows([[0]]),
        IntMatrix.from_rows([[p]]),
        IntMatrix.from_rows([[0]]),
    )
    return _born_valid(CwComplex((1, 1, 1, 1), bnds, 0, f"L({p})"))


ZOO_NAMES = ("point", "sphere", "torus", "klein", "rp", "cp", "moore", "surface", "lens")


def zoo(name: str, *params: int) -> CwComplex:
    """Standard complexes by name; every output passes validate."""
    def arity(k):
        if len(params) != k:
            raise ValueError(f"zoo {name!r} takes {k} parameter(s)")

    if name == "point":
        arity(0)
        return _born_valid(CwComplex((1,), (), 0, "point"))
    if name == "sphere":
        arity(1)
        return _sphere(_size("sphere dimension", params[0], 0))
    if name == "torus":
        arity(0)
        return from_presentation(
            EdgePresentation(1, ((0, 0), (0, 0)), ((1, 2, -1, -2),))
        ).with_name("torus")
    if name == "klein":
        arity(0)
        return from_presentation(
            EdgePresentation(1, ((0, 0), (0, 0)), ((1, 2, 1, -2),))
        ).with_name("klein")
    if name == "surface":
        arity(1)
        g = _size("surface genus", params[0], 1)
        edges = tuple((0, 0) for _ in range(2 * g))
        return from_presentation(
            EdgePresentation(1, edges, (_surface_word(g),))
        ).with_name(f"surface{g}")
    if name == "rp":
        arity(1)
        return _rp(_size("rp dimension", params[0], 1))
    if name == "cp":
        arity(1)
        return _cp(_size("cp dimension", params[0], 1))
    if name == "moore":
        arity(2)
        return _moore(params[0], params[1])
    if name == "lens":
        arity(1)
        return _lens(params[0])
    raise ValueError(f"unknown zoo name {name!r}")
