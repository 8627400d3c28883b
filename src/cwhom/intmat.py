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
from functools import cached_property
from math import gcd
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

    @cached_property
    def _hash(self) -> int:
        # the matrix is frozen, so its entries are hashed at most once; the
        # value is the one dataclass would compute on every call
        return hash((self.rows, self.cols, self.entries))

    def __hash__(self) -> int:
        return self._hash

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
    """Row/column elimination on S, tracking those of U, U^-1, V, V^-1
    that ``want`` names; the others stay None and cost nothing.

    Invariant maintained throughout: A = U @ S @ V, Uinv = U^-1, Vinv = V^-1.
    """

    def __init__(self, a: IntMatrix, want):
        self.r = a.rows
        self.c = a.cols
        self.s = a.to_rows()

        def eye(n, name):
            return [[int(i == j) for j in range(n)] for i in range(n)] if name in want else None

        self.u, self.uinv = eye(self.r, "U"), eye(self.r, "Uinv")
        self.v, self.vinv = eye(self.c, "V"), eye(self.c, "Vinv")
        # a row operation on S is the same row operation on Uinv and the
        # inverse column operation on U; dually for columns
        self.row_mats = [m for m in (self.s, self.uinv) if m is not None]
        self.col_mats = [m for m in (self.s, self.vinv) if m is not None]

    def row_swap(self, i, j):
        for m in self.row_mats:
            m[i], m[j] = m[j], m[i]
        if self.u is not None:
            for row in self.u:
                row[i], row[j] = row[j], row[i]

    def row_add(self, i, j, k):
        # row_i += k * row_j
        for m in self.row_mats:
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
        if self.u is not None:
            for row in self.u:
                row[j] -= k * row[i]

    def row_neg(self, i):
        for m in self.row_mats:
            m[i] = [-a for a in m[i]]
        if self.u is not None:
            for row in self.u:
                row[i] = -row[i]

    def col_swap(self, i, j):
        for m in self.col_mats:
            for row in m:
                row[i], row[j] = row[j], row[i]
        if self.v is not None:
            self.v[i], self.v[j] = self.v[j], self.v[i]

    def col_add(self, i, j, k):
        # col_i += k * col_j
        for m in self.col_mats:
            for row in m:
                row[i] += k * row[j]
        if self.v is not None:
            vj, vi = self.v[j], self.v[i]
            self.v[j] = [a - k * b for a, b in zip(vj, vi)]

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

    def result(self) -> "SnfResult":
        def mat(rows, cols):
            return None if rows is None else IntMatrix.from_rows(rows, cols=cols)

        return SnfResult(mat(self.u, self.r), mat(self.uinv, self.r), mat(self.s, self.c),
                         mat(self.v, self.c), mat(self.vinv, self.c))


@dataclass(frozen=True)
class SnfResult:
    """Decomposition A = U @ S @ V with unimodular U, V and diagonal S;
    Uinv and Vinv are the inverses of U and V.  A transform its caller
    did not ask ``_snf_ext`` for is None."""

    U: IntMatrix | None
    Uinv: IntMatrix | None
    S: IntMatrix
    V: IntMatrix | None
    Vinv: IntMatrix | None

    def diagonal(self) -> tuple:
        k = min(self.S.rows, self.S.cols)
        return tuple(self.S.entry(i, i) for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


_ALL_TRANSFORMS = ("U", "Uinv", "V", "Vinv")


def _snf_ext(a: IntMatrix, want) -> SnfResult:
    """SNF of a tracking only the transforms named in ``want``.  The
    elimination does not depend on ``want``, so every transform returned
    is the one ``snf`` returns."""
    w = _SnfWork(a, want)
    w.run()
    return w.result()


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form A = U @ S @ V with unimodular U and V.

    The diagonal of S is non-negative, satisfies the divisibility chain
    s1 | s2 | ..., and has all zeros trailing.  Output is deterministic.
    """
    return _snf_ext(a, _ALL_TRANSFORMS)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of the integer kernel {x : a @ x = 0}."""
    ext = _snf_ext(a, ("Vinv",))
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
    return _span_basis(_snf_ext(a, ("U",)))


def _coordinates_from_ext(y: Sequence[int], e: Sequence[int], live: Sequence[int]) -> tuple:
    """Coordinates read off an SNF: y = T x for a transform T of the SNF,
    and x lies in the lattice exactly when every y_i is a multiple of e_i
    (e_i = 0: zero).  The coordinates of x are then y_i / e_i for i in
    ``live``; NotInLattice when x is outside the lattice."""
    for i, ei in enumerate(e):
        if ei != 1 and (y[i] % ei if ei else y[i]):
            raise NotInLattice(f"coordinate {i} is not a multiple of {ei}")
    return tuple(y[i] // e[i] for i in live)


def _coordinate_columns(tx: IntMatrix, e: Sequence[int], live: Sequence[int]) -> IntMatrix:
    """``_coordinates_from_ext`` of every column of x, from tx = T @ x."""
    return IntMatrix.from_columns([_coordinates_from_ext(y, e, live) for y in tx.columns()], rows=len(live))


def _solve(ext: SnfResult, b: IntMatrix) -> IntMatrix:
    """An integer X with U @ S @ V @ X = b, NotInLattice if there is none:
    X = V^-1 [Z; 0] with S Z = U^-1 b."""
    r = ext.rank
    z = _coordinate_columns(ext.Uinv @ b, ext.diagonal()[:r] + (0,) * (b.rows - r), range(r))
    vinv = ext.Vinv
    return IntMatrix.from_rows([vinv.row(i)[:r] for i in range(vinv.rows)], cols=r) @ z


def lattice_coordinates(basis: IntMatrix, v: Sequence[int]) -> tuple:
    """Solve basis @ c = v over Z; raises NotInLattice when unsolvable.

    The columns of ``basis`` must be linearly independent.
    """
    if len(v) != basis.rows:
        raise ValueError("vector length mismatch")
    ext = _snf_ext(basis, ("Uinv", "Vinv"))
    if ext.rank != basis.cols:
        raise ValueError("basis columns are not independent")
    return _solve(ext, IntMatrix.column(v)).entries


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
    try:
        return _solve(_snf_ext(a, ("Uinv", "Vinv")), b)
    except NotInLattice:
        return None


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


@dataclass(frozen=True)
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


def _present(ambient_dim: int, rel: IntMatrix, lift, t: IntMatrix | None, e, live) -> GroupWithPresentation:
    """The quotient of a lattice N in Z^m by a sublattice D, from D's
    generators written in coordinates against a basis of N (the columns
    of ``rel``): one SNF rel = U S V gives the canonical group, the lifts
    ``lift(U_j)`` of its generators and the coordinate map.  ``lift``
    sends basis coordinates into Z^m; the coordinates of v against the
    basis are ``_coordinates_from_ext(T v, e, live)`` (T None: v itself),
    which raises NotInLattice off N, and U^-1 takes them to the
    generators'."""
    from .abgroups import FgAbGroup  # deferred to avoid an import cycle

    ext = _snf_ext(rel, ("U", "Uinv"))
    d = ext.diagonal()
    r, rank = rel.rows, ext.rank
    tors_cols = [i for i in range(rank) if d[i] >= 2]
    gen_cols = list(range(rank, r)) + tors_cols
    orders = [0] * (r - rank) + [d[i] for i in tors_cols]
    group = FgAbGroup(r - rank, tuple(d[i] for i in tors_cols))
    lifts = tuple(lift(ext.U.col(j)) for j in gen_cols)
    # only the generators' rows of U^-1: the others are killed coordinates
    uinv = IntMatrix.from_rows([ext.Uinv.row(j) for j in gen_cols], cols=r)

    def coords(v):
        y = _coordinates_from_ext(v if t is None else t.apply(v), e, live)
        return tuple(w % o if o else w for w, o in zip(uinv.apply(y), orders))

    return GroupWithPresentation(group, ambient_dim, lifts, coords)


def quotient_group(ambient_dim: int, numerator: IntMatrix, denominator: IntMatrix) -> GroupWithPresentation:
    """Canonical form of span(numerator) / span(denominator) inside Z^m.

    The numerator columns may be dependent; every denominator column must
    lie in the numerator lattice (ContainmentViolation otherwise).  One
    SNF numerator = U S V gives the basis L = U diag(s) of the numerator
    lattice and the coordinates (U^-1 v)_i / s_i against it; the
    denominator's coordinates are one product U^-1 @ denominator, and
    ``_present`` reads the quotient off them.
    """
    if numerator.rows != ambient_dim or denominator.rows != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ext = _snf_ext(numerator, ("U", "Uinv"))
    r = ext.rank
    e = ext.diagonal()[:r] + (0,) * (ambient_dim - r)
    try:
        rel = _coordinate_columns(ext.Uinv @ denominator, e, range(r))
    except NotInLattice as exc:
        raise ContainmentViolation(f"denominator column outside numerator lattice: {exc}") from None
    return _present(ambient_dim, rel, _span_basis(ext).apply, ext.Uinv, e, range(r))


class _CycleQuotients:
    """ker(out mod d) / im(in mod d) for every modulus d (d = 0: over Z),
    all read off one SNF out = U S V that tracks V and V^-1 only.

    With y = V v and s the diagonal (s_i = 0 past the rank), out v = 0
    mod d exactly when d divides every s_i y_i, that is when e_i divides
    y_i, e_i = d / gcd(d, s_i) (so e_i = 0, y_i = 0, when d = 0 and s_i
    != 0).  The columns e_i V^-1_i are therefore a basis of the numerator
    and y_i / e_i are the coordinates against it.  The denominator im(in)
    + d Z^m has coordinates (V in)_i / e_i, computed as one product V @ in
    shared by every modulus, and, because V Z^m = Z^m, the diagonal block
    d / e_i, which lets row i of the in-part be reduced mod d / e_i.
    Coordinates where d / e_i = 1 are killed outright and dropped.
    """

    def __init__(self, out_map: IntMatrix, in_map: IntMatrix):
        if in_map.rows != out_map.cols:
            raise ValueError("shapes not composable")
        ext = _snf_ext(out_map, ("V", "Vinv"))
        self.v, self.vinv, self.s = ext.V, ext.Vinv, ext.diagonal()[:ext.rank]
        self.v_in = ext.V @ in_map

    def quotient(self, d: int) -> GroupWithPresentation:
        """The factor for modulus d; ContainmentViolation when some column
        of the in-map is not a (co)cycle mod d."""
        m = self.v.rows
        # g_i = d / e_i is the order of coordinate i in the quotient (0: free)
        g = [gcd(d, si) for si in self.s] + [d] * (m - len(self.s))
        e = tuple(d // gi if gi else 1 for gi in g)
        live = tuple(i for i in range(m) if e[i] and g[i] != 1)
        try:
            rel = _coordinate_columns(self.v_in, e, live)
        except NotInLattice as exc:
            raise ContainmentViolation(f"in-map column outside the cycle lattice: {exc}") from None
        if d:
            orders = [g[i] for i in live]
            reduced = [[w % o for w in rel.row(k)] for k, o in enumerate(orders)]
            rel = IntMatrix.hstack(IntMatrix.from_rows(reduced, cols=rel.cols), IntMatrix.diagonal(orders))
        vinv = self.vinv

        def lift(c):
            y = [0] * m
            for i, ci in zip(live, c):
                y[i] = e[i] * ci
            return vinv.apply(y)

        return _present(m, rel, lift, self.v, e, live)


def mod_d_quotient(out_map: IntMatrix, in_map: IntMatrix, d: int) -> GroupWithPresentation:
    """ker(out_map mod d) / im(in_map mod d) inside (Z/d)^m.

    Presented on integer cochain representatives: the ambient space is
    Z^m, the numerator is the lattice of vectors that out_map sends into
    d Z^k and the denominator is im(in_map) + d Z^m.  Both are read off one
    SNF of out_map (see ``_CycleQuotients``).  ChainConditionViolation
    when out_map @ in_map is nonzero mod d.
    """
    if d < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return _CycleQuotients(out_map, in_map).quotient(d)
    except ContainmentViolation:
        raise ChainConditionViolation("out_map @ in_map is nonzero mod d") from None
