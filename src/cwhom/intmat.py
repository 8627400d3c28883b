"""Exact integer matrix algebra.

Everything here runs over Python's arbitrary-precision integers; there is
deliberately no floating point and no fixed-width fast path.  The central
routine is Smith normal form with unimodular transformation matrices, from
which kernels, lattice membership and finitely generated quotient groups
are derived.

Matrices with zero rows and/or zero columns are first-class values; they
show up constantly (complexes with empty dimensions) and every operation
must accept them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "IntMatrix",
    "SnfResult",
    "GroupWithPresentation",
    "NotInLattice",
    "ContainmentViolation",
    "ChainConditionViolation",
    "snf",
    "kernel_basis",
    "lattice_basis",
    "lattice_coordinates",
    "in_lattice",
    "solve_columns",
    "preimage_lattice",
    "quotient_group",
    "mod_d_quotient",
]


class NotInLattice(ValueError):
    """A vector is not an integer combination of the given basis."""


class ContainmentViolation(ValueError):
    """A denominator generator lies outside the numerator lattice."""


class ChainConditionViolation(ValueError):
    """Two maps that should compose to zero (mod d) do not."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple  # length rows * cols

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            if cols is None:
                cols = 0
            return IntMatrix(0, cols, ())
        c = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(int(v) for v in row)
        return IntMatrix(r, c, tuple(flat))

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def diagonal(values: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        k = len(values)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        ent = [0] * (rows * cols)
        for i, v in enumerate(values):
            if i < rows and i < cols:
                ent[i * cols + i] = int(v)
        return IntMatrix(rows, cols, tuple(ent))

    @staticmethod
    def column(vec: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(vec), 1, tuple(int(v) for v in vec))

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int) -> "IntMatrix":
        for col in columns:
            if len(col) != rows:
                raise ValueError("column length mismatch")
        c = len(columns)
        return IntMatrix(rows, c, tuple(columns[j][i] for i in range(rows) for j in range(c)))

    @staticmethod
    def hstack(*ms: "IntMatrix") -> "IntMatrix":
        if not ms:
            raise ValueError("hstack of nothing")
        rows = ms[0].rows
        for m in ms:
            if m.rows != rows:
                raise ValueError("row count mismatch in hstack")
        out = []
        for i in range(rows):
            for m in ms:
                out.extend(m.entries[i * m.cols:(i + 1) * m.cols])
        return IntMatrix(rows, sum(m.cols for m in ms), tuple(out))

    # -- access -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j::self.cols]

    def columns(self) -> list[tuple]:
        return [self.col(j) for j in range(self.cols)]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols, self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-v for v in self.entries))

    def scale(self, k: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(k * v for v in self.entries))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        a, b = self, other
        bt = b.transpose()
        out = []
        for i in range(a.rows):
            ra = a.row(i)
            for j in range(b.cols):
                rb = bt.row(j)
                out.append(sum(x * y for x, y in zip(ra, rb)))
        return IntMatrix(a.rows, b.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(self.entries[i * self.cols + j] * vec[j] for j in range(self.cols))
            for i in range(self.rows)
        )

    def delete_row(self, i: int) -> "IntMatrix":
        rows = self.to_rows()
        del rows[i]
        return IntMatrix.from_rows(rows, cols=self.cols)

    def delete_col(self, j: int) -> "IntMatrix":
        rows = [r[:j] + r[j + 1:] for r in self.to_rows()]
        return IntMatrix.from_rows(rows, cols=self.cols - 1)


def _sparse_columns(m: IntMatrix) -> list:
    """The nonzero (row, value) pairs of each column of m, rows ascending."""
    c = m.cols
    return [[(i, v) for i, v in enumerate(m.entries[j::c]) if v] for j in range(c)]


def _sparse_apply(columns, pairs) -> dict:
    """m @ v as {row: value}, for m given by ``_sparse_columns`` and v by
    its nonzero (index, value) pairs; rows never reached are omitted."""
    out = {}
    for j, vj in pairs:
        for i, a in columns[j]:
            out[i] = out.get(i, 0) + a * vj
    return out


class _SnfWork:
    """Row/column elimination tracking U, U^-1, V, V^-1 alongside S.

    Invariant maintained throughout: A = U @ S @ V, Uinv = U^-1, Vinv = V^-1.
    """

    def __init__(self, a: IntMatrix):
        self.r = a.rows
        self.c = a.cols
        self.s = a.to_rows()
        self.u = [[1 if i == j else 0 for j in range(self.r)] for i in range(self.r)]
        self.uinv = [row[:] for row in self.u]
        self.v = [[1 if i == j else 0 for j in range(self.c)] for i in range(self.c)]
        self.vinv = [row[:] for row in self.v]

    # Row operation on S corresponds to a column operation on U (with the
    # inverse elementary matrix) and the same row operation on Uinv;
    # dually for columns.

    def row_swap(self, i, j):
        self.s[i], self.s[j] = self.s[j], self.s[i]
        self.uinv[i], self.uinv[j] = self.uinv[j], self.uinv[i]
        for row in self.u:
            row[i], row[j] = row[j], row[i]

    def row_add(self, i, j, k):
        # row_i += k * row_j
        si, sj = self.s[i], self.s[j]
        self.s[i] = [a + k * b for a, b in zip(si, sj)]
        ui, uj = self.uinv[i], self.uinv[j]
        self.uinv[i] = [a + k * b for a, b in zip(ui, uj)]
        for row in self.u:
            row[j] -= k * row[i]

    def row_neg(self, i):
        self.s[i] = [-a for a in self.s[i]]
        self.uinv[i] = [-a for a in self.uinv[i]]
        for row in self.u:
            row[i] = -row[i]

    def col_swap(self, i, j):
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        for row in self.vinv:
            row[i], row[j] = row[j], row[i]
        self.v[i], self.v[j] = self.v[j], self.v[i]

    def col_add(self, i, j, k):
        # col_i += k * col_j
        for row in self.s:
            row[i] += k * row[j]
        for row in self.vinv:
            row[i] += k * row[j]
        vj, vi = self.v[j], self.v[i]
        self.v[j] = [a - k * b for a, b in zip(vj, vi)]

    def col_neg(self, i):
        for row in self.s:
            row[i] = -row[i]
        for row in self.vinv:
            row[i] = -row[i]
        self.v[i] = [-a for a in self.v[i]]

    def _find_pivot(self, t):
        # nonzero entry of minimal absolute value; ties broken by lowest
        # row, then lowest column (row-major scan with strict improvement)
        best = None
        for i in range(t, self.r):
            row = self.s[i]
            for j in range(t, self.c):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if best[0] == 1:
                        return (i, j)
        return None if best is None else (best[1], best[2])

    def run(self):
        t = 0
        limit = min(self.r, self.c)
        while t < limit:
            piv = self._find_pivot(t)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                self.row_swap(t, pi)
            if pj != t:
                self.col_swap(t, pj)
            if self.s[t][t] < 0:
                self.row_neg(t)
            while True:
                p = self.s[t][t]
                # clear the pivot column; floor division keeps remainders
                # in [0, p), so a surviving remainder is a smaller pivot
                swapped = False
                for i in range(t + 1, self.r):
                    v = self.s[i][t]
                    if v:
                        q = v // p
                        if q:
                            self.row_add(i, t, -q)
                for i in range(t + 1, self.r):
                    if self.s[i][t]:
                        self.row_swap(t, i)
                        swapped = True
                        break
                if swapped:
                    continue
                for j in range(t + 1, self.c):
                    v = self.s[t][j]
                    if v:
                        q = v // p
                        if q:
                            self.col_add(j, t, -q)
                for j in range(t + 1, self.c):
                    if self.s[t][j]:
                        self.col_swap(t, j)
                        swapped = True
                        break
                if swapped:
                    continue
                # divisibility repair: fold a non-divisible entry into the
                # pivot row so the next pass shrinks the pivot
                bad = None
                for i in range(t + 1, self.r):
                    row = self.s[i]
                    for j in range(t + 1, self.c):
                        if row[j] % p:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                self.row_add(t, bad, 1)
            t += 1

    def result_matrices(self):
        U = IntMatrix.from_rows(self.u, cols=self.r)
        Uinv = IntMatrix.from_rows(self.uinv, cols=self.r)
        S = IntMatrix.from_rows(self.s, cols=self.c)
        V = IntMatrix.from_rows(self.v, cols=self.c)
        Vinv = IntMatrix.from_rows(self.vinv, cols=self.c)
        return U, Uinv, S, V, Vinv


@dataclass(frozen=True)
class SnfResult:
    """Decomposition A = U @ S @ V with unimodular U, V and diagonal S;
    Uinv and Vinv are the inverses of U and V."""

    U: IntMatrix
    Uinv: IntMatrix
    S: IntMatrix
    V: IntMatrix
    Vinv: IntMatrix

    def diagonal(self) -> tuple:
        k = min(self.S.rows, self.S.cols)
        return tuple(self.S.entry(i, i) for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def _snf_ext(a: IntMatrix) -> SnfResult:
    w = _SnfWork(a)
    w.run()
    return SnfResult(*w.result_matrices())


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form A = U @ S @ V with unimodular U and V.

    The diagonal of S is non-negative, satisfies the divisibility chain
    s1 | s2 | ..., and has all zeros trailing.  Output is deterministic.
    """
    return _snf_ext(a)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of the integer kernel {x : a @ x = 0}."""
    ext = _snf_ext(a)
    r = ext.rank
    cols = [ext.Vinv.col(j) for j in range(r, a.cols)]
    return IntMatrix.from_columns(cols, rows=a.cols)


def _span_basis(ext: SnfResult) -> IntMatrix:
    """The columns d_i * U_i for the nonzero diagonal entries d_i: an
    independent basis of the column lattice of U @ S @ V."""
    d = ext.diagonal()
    cols = [tuple(d[i] * x for x in ext.U.col(i)) for i in range(ext.rank)]
    return IntMatrix.from_columns(cols, rows=ext.U.rows)


def lattice_basis(a: IntMatrix) -> IntMatrix:
    """Independent basis of the lattice spanned by the columns of a."""
    return _span_basis(_snf_ext(a))


def _coordinates_from_ext(uinv: IntMatrix, d: tuple, v: Sequence[int]) -> tuple:
    """The z with (U^-1 v)_i = d_i z_i for the nonzero diagonal d, i.e. the
    coordinates of v against ``_span_basis``; NotInLattice when v is not
    in that lattice."""
    w = uinv.apply(v)
    z = []
    for i, wi in enumerate(w):
        if i < len(d):
            if wi % d[i]:
                raise NotInLattice(f"coordinate {i} not divisible")
            z.append(wi // d[i])
        elif wi != 0:
            raise NotInLattice(f"coordinate {i} outside column span")
    return tuple(z)


def _solve(ext: SnfResult, v: Sequence[int]) -> tuple:
    """An integer x with U @ S @ V @ x = v; NotInLattice if there is none."""
    z = _coordinates_from_ext(ext.Uinv, ext.diagonal()[:ext.rank], v)
    return ext.Vinv.apply(z + (0,) * (ext.Vinv.cols - len(z)))


def lattice_coordinates(basis: IntMatrix, v: Sequence[int]) -> tuple:
    """Solve basis @ c = v over Z; raises NotInLattice when unsolvable.

    The columns of ``basis`` must be linearly independent.
    """
    if len(v) != basis.rows:
        raise ValueError("vector length mismatch")
    ext = _snf_ext(basis)
    if ext.rank != basis.cols:
        raise ValueError("basis columns are not independent")
    return _solve(ext, v)


def in_lattice(basis: IntMatrix, v: Sequence[int]) -> bool:
    try:
        lattice_coordinates(basis, v)
        return True
    except NotInLattice:
        return False


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer X with a @ X = b, or None if some column is unsolvable."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    ext = _snf_ext(a)
    try:
        cols = [_solve(ext, b.col(j)) for j in range(b.cols)]
    except NotInLattice:
        return None
    return IntMatrix.from_columns(cols, rows=a.cols)


def preimage_lattice(m: IntMatrix, relations: IntMatrix) -> IntMatrix:
    """Generators of {x : m @ x lies in the column lattice of relations}.

    Returned as a matrix of (possibly dependent) generator columns.
    """
    if m.rows != relations.rows:
        raise ValueError("row count mismatch")
    big = IntMatrix.hstack(m, relations)
    ker = kernel_basis(big)
    rows = [ker.row(i) for i in range(m.cols)]
    return IntMatrix.from_rows(rows, cols=ker.cols)


@dataclass
class GroupWithPresentation:
    """A canonical-form group plus an explicit presentation in an ambient Z^m.

    ``lifts`` hold one ambient vector per canonical generator (free
    generators first, then torsion generators in divisibility-chain
    order).  ``coords`` maps any ambient vector of the numerator lattice
    to its canonical-generator coordinates, with torsion coordinates
    reduced into [0, order).
    """

    group: "FgAbGroup"  # forward ref; cwhom.abgroups.FgAbGroup
    ambient_dim: int
    lifts: tuple
    coords: Callable[[Sequence[int]], tuple]


def quotient_group(ambient_dim: int, numerator: IntMatrix, denominator: IntMatrix) -> GroupWithPresentation:
    """Canonical form of span(numerator) / span(denominator) inside Z^m.

    The numerator columns may be dependent; every denominator column must
    lie in the numerator lattice (ContainmentViolation otherwise).
    """
    from .abgroups import FgAbGroup  # deferred to avoid an import cycle

    if numerator.rows != ambient_dim or denominator.rows != ambient_dim:
        raise ValueError("ambient dimension mismatch")

    ext = _snf_ext(numerator)
    r = ext.rank
    if r == 0:
        if not denominator.is_zero():
            raise ContainmentViolation("denominator outside the zero lattice")
        trivial = FgAbGroup(0, ())

        def coords0(v):
            if any(x != 0 for x in v):
                raise NotInLattice("nonzero vector in zero lattice")
            return ()

        return GroupWithPresentation(trivial, ambient_dim, (), coords0)

    # L = U diag(d) is a basis of the numerator lattice, and the same SNF
    # gives coordinates against it: c_i = (U^-1 v)_i / d_i
    L = _span_basis(ext)
    luinv, ld = ext.Uinv, ext.diagonal()[:r]
    try:
        mcols = [_coordinates_from_ext(luinv, ld, denominator.col(j)) for j in range(denominator.cols)]
    except NotInLattice as e:
        raise ContainmentViolation(f"denominator column outside numerator lattice: {e}") from None
    M = IntMatrix.from_columns(mcols, rows=r)
    mext = _snf_ext(M)
    d = mext.diagonal()
    t = mext.rank

    tors_cols = [i for i in range(t) if d[i] >= 2]
    free_cols = list(range(t, r))
    gen_cols = free_cols + tors_cols
    orders = [0] * len(free_cols) + [d[i] for i in tors_cols]
    group = FgAbGroup(len(free_cols), tuple(d[i] for i in tors_cols))

    lifts = tuple(L.apply(mext.U.col(j)) for j in gen_cols)
    muinv = mext.Uinv

    def coords(v):
        w = muinv.apply(_coordinates_from_ext(luinv, ld, v))
        out = []
        for j, o in zip(gen_cols, orders):
            out.append(w[j] if o == 0 else w[j] % o)
        return tuple(out)

    return GroupWithPresentation(group, ambient_dim, lifts, coords)


def mod_d_quotient(out_map: IntMatrix, in_map: IntMatrix, d: int) -> GroupWithPresentation:
    """ker(out_map mod d) / im(in_map mod d) inside (Z/d)^m.

    Presented on integer cochain representatives: the ambient space is
    Z^m and the relation lattice includes d * I.
    """
    if d < 2:
        raise ValueError("modulus must be >= 2")
    m = out_map.cols
    if in_map.rows != m:
        raise ValueError("shapes not composable")
    # only residues matter: an entry beyond d/2 in size is replaced by its
    # least absolute residue, which keeps SNF entries small
    half = d // 2
    out_map, in_map = (IntMatrix(a.rows, a.cols, tuple(v if -half <= v <= half else (v + half) % d - half
                                                       for v in a.entries))
                       for a in (out_map, in_map))
    comp = out_map @ in_map
    if any(v % d for v in comp.entries):
        raise ChainConditionViolation("out_map @ in_map is nonzero mod d")
    lam = preimage_lattice(out_map, IntMatrix.identity(out_map.rows).scale(d))
    denom = IntMatrix.hstack(in_map, IntMatrix.identity(m).scale(d))
    return quotient_group(m, lam, denom)
