"""Exact integer matrix algebra.

Everything here runs over Python's arbitrary-precision integers; there is
deliberately no floating point and no fixed-width fast path.  The central
routine is Smith normal form, from which kernels, cokernels and the
cycle quotients of (co)homology are derived.  Its one kernel,
``_snf_ext``, works on S alone and logs every row and column operation.
A unimodular transform is only ever that log: each caller replays it onto
the vectors it reads (a product, a lift, one coordinate vector), and
``snf`` alone replays it onto the identity.  A query that needs only the
group pays for no transform.  Storage is dense; ``@`` and ``apply`` are
one product, ``_sparse_apply``, over the nonzero columns a matrix keeps.
Every dense vector becomes sparse through one read, ``_nonzeros``, which
skips zeros at C speed.  Each cyclic factor of a (co)homology group is
one ``_cycle_quotient``, read off the eliminations of its two chain maps.

Matrices with zero rows and/or zero columns are first-class values; they
show up constantly (complexes with empty dimensions) and every operation
must accept them.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import compress
from math import gcd
from typing import NamedTuple, Sequence

__all__ = [
    "IntMatrix",
    "SnfResult",
    "GroupWithPresentation",
    "NotInLattice",
    "ContainmentViolation",
    "ChainConditionViolation",
    "snf",
    "kernel_basis",
]


class NotInLattice(ValueError):
    """A vector is not an integer combination of the given basis."""


class ContainmentViolation(ValueError):
    """A denominator generator lies outside the numerator lattice."""


class ChainConditionViolation(ValueError):
    """Two maps that should compose to zero (mod d) do not."""


_put = object.__setattr__


class _Value:
    """The one convention for the package's immutable values, shared by
    the eleven value types (``IntMatrix`` to ``CheckReport``, which alone
    stays mutable), whose ``__match_args__`` list the constructor's fields
    in order.  Each field
    is set once, through ``_put``; assigning or deleting any attribute
    raises dataclasses' ``FrozenInstanceError``.  ``==`` and ``hash`` read
    ``_key()``, the compared fields (all but ``name``), and repr, pickle
    and copy go through the constructor.  These are plain classes rather
    than dataclasses: generating dataclass methods, and importing
    dataclasses with the inspect and ast it pulls in, took about 20 ms and
    1 MB at every CLI start."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__match_args__, values):
            _put(self, name, value)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # imported on this error path only
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _kept_hash(self) -> int:
    """``__hash__`` of a frozen value: its key is hashed once, into ``_hash``."""
    try:
        return self._hash
    except AttributeError:
        _put(self, "_hash", hash(self._key()))
        return self._hash


class IntMatrix(_Value):
    """Dense integer matrix, row-major, immutable; ``@`` and ``apply``
    read its nonzero columns, kept from the first product on."""

    __match_args__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):  # entries: length rows * cols
        # the fields are put one by one, not through ``_init``: this is the
        # constructor the package calls most (23 000 times in a battery)
        _put(self, "rows", rows)
        _put(self, "cols", cols)
        _put(self, "entries", entries)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} != {rows}x{cols}")

    def _key(self) -> tuple:
        return (self.rows, self.cols, self.entries)

    __hash__ = _kept_hash

    @cached_property
    def _columns(self) -> list:
        # what @ and apply read: the nonzeros of each column, built once on
        # the frozen matrix, like its hash, and outside eq and hash
        return _sparse_columns(self)

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
        return _unit_columns(n, range(n))

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

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        cols = list(_sparse_product(self._columns, other._columns))
        return IntMatrix(self.rows, other.cols, tuple(col.get(i, 0) for i in range(self.rows) for col in cols))

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        image = _sparse_apply(self._columns, _nonzeros(vec))
        return tuple(image.get(i, 0) for i in range(self.rows))

    def delete_row(self, i: int) -> "IntMatrix":
        rows = self.to_rows()
        del rows[i]
        return IntMatrix.from_rows(rows, cols=self.cols)


def _nonzeros(v) -> list:
    """The (index, value) pairs of v's nonzero entries, ascending; compress
    skips the zeros, so the Python work is per nonzero."""
    return [(i, v[i]) for i in compress(range(len(v)), v)]


def _sparse_columns(m: IntMatrix) -> list:
    """The nonzero (row, value) pairs of each column of m, rows ascending."""
    c = m.cols
    return [_nonzeros(m.entries[j::c]) for j in range(c)]


def _sparse_apply(columns, pairs) -> dict:
    """m @ v as {row: value}, for m given by ``_sparse_columns`` and v by
    its nonzero (index, value) pairs; rows never reached are omitted."""
    out = {}
    for j, vj in pairs:
        for i, a in columns[j]:
            out[i] = out.get(i, 0) + a * vj
    return out


def _sparse_product(a, b):
    """The columns of a @ b, for a and b given by ``_sparse_columns``, as
    {row: value} without zero entries: the one chain-condition check."""
    for col in b:
        yield {i: v for i, v in _sparse_apply(a, col).items() if v}


class _Log:
    """The row operations that build one unimodular transform T of an SNF
    from the n x n identity, in order, as flat (i, j, k) triples: row_i +=
    k row_j when k != 0; otherwise rows i and j swap (i != j) or row i
    changes sign (i == j).  T @ M replays them onto the rows of M, and
    T^-1 @ M replays their inverses backwards; an empty log is the
    identity and replays nothing.  A transposed log builds T^-T from the
    same list, reading row_i += k row_j as row_j -= k row_i.  No transform
    is kept densely: every presentation and cycle quotient sharing a log
    replays it onto what it reads.
    """

    __slots__ = ("n", "ops", "_transposed")

    def __init__(self, n: int, ops=None, transposed: bool = False):
        self.n = n
        self.ops = [] if ops is None else ops
        self._transposed = transposed

    def _steps(self, inverse: bool):
        """The row operations (i, j, k) that build T, or T^-1 when ``inverse``."""
        it = reversed(self.ops) if inverse else iter(self.ops)
        ops = zip(it, it, it)  # (k, j, i) when reversed
        if self._transposed:
            return ((j, i, k) for k, j, i in ops) if inverse else ((j, i, -k) for i, j, k in ops)
        return ((i, j, -k) for k, j, i in ops) if inverse else ops

    def replay(self, v: Sequence[int], inverse: bool = False) -> list:
        """T v, or T^-1 v when ``inverse``, for one vector v of length n:
        ``times`` on a single column, with no per-row list."""
        v = list(v)
        for i, j, k in self._steps(inverse):
            if k:
                v[i] += k * v[j]
            elif i != j:
                v[i], v[j] = v[j], v[i]
            else:
                v[i] = -v[i]
        return v

    def times(self, m: IntMatrix, inverse: bool = False) -> IntMatrix:
        """T @ m, or T^-1 @ m when ``inverse``."""
        if m.rows != self.n:
            raise ValueError(f"shape mismatch {self.n}x{self.n} @ {m.shape}")
        if not self.ops:  # T = I
            return m
        rows = m.to_rows()
        for i, j, k in self._steps(inverse):
            if k:
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            elif i != j:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                rows[i] = [-a for a in rows[i]]
        return IntMatrix(m.rows, m.cols, tuple(v for row in rows for v in row))

    def transposed(self) -> "_Log":
        """The log of T^-T, reading this log's operations in place."""
        return _Log(self.n, self.ops, not self._transposed)


class _SnfWork:
    """Row/column elimination on S alone.  A row operation on S is logged
    as the same operation on U^-1 (``row_log``), a column operation as the
    row operation it makes on V (``col_log``): A = U @ S @ V throughout,
    with U^-1 and V built from the identity by their logs."""

    def __init__(self, a: IntMatrix):
        self.r = a.rows
        self.c = a.cols
        self.s = a.to_rows()
        self.row_log = _Log(self.r)
        self.col_log = _Log(self.c)

    def row_swap(self, i, j):
        s = self.s
        s[i], s[j] = s[j], s[i]
        self.row_log.ops += (i, j, 0)

    def row_add(self, i, j, k):
        # row_i += k * row_j
        s = self.s
        s[i] = [a + k * b for a, b in zip(s[i], s[j])]
        self.row_log.ops += (i, j, k)

    def row_neg(self, i):
        self.s[i] = [-a for a in self.s[i]]
        self.row_log.ops += (i, i, 0)

    def col_swap(self, i, j):
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        self.col_log.ops += (i, j, 0)

    def col_add(self, i, j, k):
        # col_i += k * col_j, which is row_j -= k * row_i on V
        for row in self.s:
            row[i] += k * row[j]
        self.col_log.ops += (j, i, -k)

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
                # column t is p e_t now, so col_j -= q col_t changes row t
                # alone: one entry, and the operation ``col_add`` logs
                row, ops = self.s[t], self.col_log.ops
                for j in range(t + 1, self.c):
                    v = row[j]
                    if v:
                        q = v // p
                        if q:
                            row[j] = v - q * p
                            ops += (t, j, q)
                for j in range(t + 1, self.c):
                    if self.s[t][j]:
                        self.col_swap(t, j)
                        swapped = True
                        break
                if swapped:
                    continue
                if p == 1:  # 1 divides every entry: the scan below finds nothing
                    break
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


class SnfResult(_Value):
    """Decomposition A = U @ S @ V with unimodular U, V and diagonal S;
    Uinv and Vinv are the inverses of U and V.  ``snf`` builds all five
    from one ``_snf_ext``: S from its diagonal, each transform replayed
    from its log onto the identity."""

    __slots__ = __match_args__ = ("U", "Uinv", "S", "V", "Vinv")

    def __init__(self, U: IntMatrix, Uinv: IntMatrix, S: IntMatrix, V: IntMatrix, Vinv: IntMatrix):
        self._init(U, Uinv, S, V, Vinv)

    def diagonal(self) -> tuple:
        k = min(self.S.rows, self.S.cols)
        return tuple(self.S.entry(i, i) for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


class _Elimination(NamedTuple):
    """An SNF A = U S V with no transform: the nonzero diagonal s of S and
    the logs that build U^-1 (``rows``) and V (``cols``)."""

    s: tuple
    rows: _Log
    cols: _Log


def _snf_ext(a: IntMatrix) -> _Elimination:
    """The one SNF kernel: S is eliminated alone, and each transform is
    left as its log for the caller to replay onto what it reads."""
    w = _SnfWork(a)
    w.run()
    # the nonzero entries lead the diagonal
    s = tuple(v for v in (w.s[i][i] for i in range(min(a.rows, a.cols))) if v)
    return _Elimination(s, w.row_log, w.col_log)


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form A = U @ S @ V with unimodular U and V.

    The diagonal of S is non-negative, satisfies the divisibility chain
    s1 | s2 | ..., and has all zeros trailing.  Output is deterministic.
    """
    s, rows, cols = _snf_ext(a)
    eye_r, eye_c = IntMatrix.identity(a.rows), IntMatrix.identity(a.cols)
    return SnfResult(rows.times(eye_r, inverse=True), rows.times(eye_r),
                     IntMatrix.diagonal(s, a.rows, a.cols), cols.times(eye_c), cols.times(eye_c, inverse=True))


# Builders of the structured matrices the package makes; every inclusion,
# projection, collapse, augmentation and relation matrix comes from one.


def _unit_columns(n: int, idx) -> IntMatrix:
    """The n x len(idx) matrix whose columns are e_i, i in idx."""
    idx = list(idx)
    ent = [0] * (n * len(idx))
    for j, i in enumerate(idx):
        ent[i * len(idx) + j] = 1
    return IntMatrix(n, len(idx), tuple(ent))


def _ones(c: int) -> IntMatrix:
    """The 1 x c all-ones row: the augmentation of c vertices."""
    return IntMatrix(1, c, (1,) * c)


def _relations(orders) -> IntMatrix:
    """The relation columns o_i e_i in Z^n, n = len(orders), one for each
    nonzero order o_i (0 is a free generator, with no relation)."""
    live = [i for i, o in enumerate(orders) if o]
    ent = [0] * (len(orders) * len(live))
    for j, i in enumerate(live):
        ent[i * len(live) + j] = orders[i]
    return IntMatrix(len(orders), len(live), tuple(ent))


def _vstack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    """top stacked above bottom."""
    if top.cols != bottom.cols:
        raise ValueError("column count mismatch in vstack")
    return IntMatrix(top.rows + bottom.rows, top.cols, top.entries + bottom.entries)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns form a Z-basis of the integer kernel {x : a @ x = 0}: the
    columns rank.. of V^-1, replayed onto those unit vectors alone."""
    s, _, cols = _snf_ext(a)
    return cols.times(_unit_columns(a.cols, range(len(s), a.cols)), inverse=True)


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


class GroupWithPresentation:
    """A canonical-form group plus an explicit presentation in an ambient Z^m.

    ``lifts`` hold one ambient vector per canonical generator (free
    generators first, then torsion generators in divisibility-chain
    order).  ``coords`` maps any ambient vector of the numerator lattice
    to its canonical-generator coordinates, with torsion coordinates
    reduced into [0, order).  The group is computed at once; lifts and
    coords are built on their first read, so a caller that reads only
    ``group`` pays for no transform.  Instances are immutable.
    """

    __slots__ = ("group", "ambient_dim")
    # frozen like the value types, but compared by identity
    __setattr__, __delattr__ = _Value.__setattr__, _Value.__delattr__

    def __init__(self, group: "FgAbGroup", ambient_dim: int):  # FgAbGroup: cwhom.abgroups
        _put(self, "group", group)
        _put(self, "ambient_dim", ambient_dim)

    def __setstate__(self, state):
        # pickle and copy hand back (None, the slots' values): put each
        for name, value in state[1].items():
            _put(self, name, value)

    @property
    def lifts(self) -> tuple:
        raise NotImplementedError

    def coords(self, v: Sequence[int]) -> tuple:
        raise NotImplementedError


class _Presented(GroupWithPresentation):
    """The quotient N / D of a lattice N in Z^m by a sublattice D, kept as
    the log of the SNF rel = U S V of D's coordinates against a basis of N
    (or a callable that builds rel, while that SNF waits for the first
    read of lifts or coords).  N's basis is e_i T^-1_i, i in ``live``, for
    a unimodular T given by its log: v lies in N when e_i divides (T v)_i
    for every i, and its coordinates are then (T v)_i / e_i, i in live.
    The generators are the columns of U past the rank of rel, then those
    of its torsion entries.  Their lifts are one replay of T^-1 onto those
    columns, scaled by e; the coordinates of v are T replayed onto v, then
    U^-1 onto N's coordinates, read at the generators' rows.  No transform
    is kept densely."""

    __slots__ = ("_t", "_e", "_live", "_rel", "_lifts")

    def __init__(self, group, ambient_dim, t: _Log, e, live, rel):
        super().__init__(group, ambient_dim)
        for name, value in (("_t", t), ("_e", e), ("_live", live), ("_rel", rel), ("_lifts", None)):
            _put(self, name, value)

    def _generators(self) -> tuple:
        """rel's row log (rel built and its SNF run now if they wait) and
        the generators' indices: the free ones past the rank, then the
        torsion entries of S."""
        rel = self._rel
        if not isinstance(rel, _Log):
            rel = _snf_ext(rel()).rows
            _put(self, "_rel", rel)
        rank = rel.n - self.group.rank
        return rel, [*range(rank, rel.n), *range(rank - len(self.group.torsion), rank)]

    @property
    def lifts(self) -> tuple:
        if self._lifts is None:
            rel, gens = self._generators()
            u, k = rel.times(_unit_columns(rel.n, gens), inverse=True), len(gens)
            y = [0] * (self.ambient_dim * k)
            for row, i in enumerate(self._live):
                y[i * k:(i + 1) * k] = [self._e[i] * c for c in u.row(row)]
            scaled = IntMatrix(self.ambient_dim, k, tuple(y))
            _put(self, "_lifts", tuple(self._t.times(scaled, inverse=True).columns()))
        return self._lifts

    def coords(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        rel, gens = self._generators()
        w = rel.replay(_coordinates_from_ext(self._t.replay(v), self._e, self._live))
        return tuple(w[j] % o if o else w[j] for j, o in zip(gens, self.group.generator_orders()))


def _cokernel(rows: int, s) -> "FgAbGroup":  # FgAbGroup: cwhom.abgroups
    """Z^rows over relations whose SNF has the nonzero diagonal s."""
    from .abgroups import FgAbGroup  # deferred to avoid an import cycle
    return FgAbGroup(rows - len(s), tuple(x for x in s if x >= 2))


def _present(ambient_dim: int, rel, t: _Log, e, live, group=None) -> GroupWithPresentation:
    """The quotient of a lattice N in Z^m by a sublattice D, from D's
    generators written in coordinates against the basis of N that t, e
    and live describe (the columns of ``rel``; see ``_Presented``; an
    empty log is T = I).  One SNF of rel, with no transform, gives the
    canonical group now; the lifts and the coordinate map wait for their
    first read, and replay the logs onto what they read.  A caller
    that knows the group passes it with rel as a callable, and building
    rel and its SNF wait for that read too."""
    if group is None:
        s, log, _ = _snf_ext(rel)
        group, rel = _cokernel(rel.rows, s), log
    return _Presented(group, ambient_dim, t, e, live, rel)


def _cycle_coordinates(t: _Log, in_map, e, live) -> IntMatrix:
    """The columns of the in-map that ``in_map()`` builds, in coordinates
    against the cycle basis t, e, live: the product V @ in, replayed from
    t onto it; ContainmentViolation when a column is not a cycle."""
    try:
        return _coordinate_columns(t.times(in_map()), e, live)
    except NotInLattice as exc:
        raise ContainmentViolation(f"in-map column outside the cycle lattice: {exc}") from None


def _cycle_quotient(s: tuple, t: _Log, in_s: tuple, in_map, d: int) -> GroupWithPresentation:
    """ker(out mod d) / im(in mod d) for the modulus d (d = 0: over Z),
    read off an SNF out = U S V and one of in, with no transform: out's
    nonzero diagonal s and the log t of its V, in's nonzero diagonal in_s,
    and ``in_map``, a callable that builds in.

    With y = V v and s the diagonal (s_i = 0 past the rank), out v = 0
    mod d exactly when d divides every s_i y_i, that is when e_i divides
    y_i, e_i = d / gcd(d, s_i) (so e_i = 0, y_i = 0, when d = 0 and s_i
    != 0).  The columns e_i V^-1_i are therefore a basis of the numerator
    and y_i / e_i are the coordinates against it (T = V).  The
    denominator im(in) + d Z^m has coordinates (V in)_i / e_i, from the
    product V @ in replayed onto in (``_cycle_coordinates``), and,
    because V Z^m = Z^m, the diagonal block d / e_i, which lets row i of
    the in-part be reduced mod d / e_i.  Coordinates where d / e_i = 1
    are killed outright and dropped.  Over Z, ker(out) is saturated and
    contains im(in): the group is Z^(m - rank out - rank in) plus the
    invariant factors of in, and only a factor mod d >= 2 runs the SNF of
    its coordinates now.  V and V^-1 are replayed only onto the vectors
    a read of the factor's lifts or coords asks for.

    The pair is one of a complex proved valid where it came in, so it is
    not checked again: V @ in, and the in-map, are built at once for d >=
    2 (ContainmentViolation when some column of the in-map is not a
    (co)cycle mod d), and for d = 0 on the first read of lifts or coords,
    never for the group alone.
    """
    m = t.n
    # g_i = d / e_i is the order of coordinate i in the quotient (0: free)
    g = [gcd(d, si) for si in s] + [d] * (m - len(s))
    e = tuple(d // gi if gi else 1 for gi in g)
    live = tuple(i for i in range(m) if e[i] and g[i] != 1)
    if not d:
        return _present(m, partial(_cycle_coordinates, t, in_map, e, live), t, e, live,
                        group=_cokernel(len(live), in_s))
    rel = _cycle_coordinates(t, in_map, e, live)
    orders = [g[i] for i in live]
    reduced = [[w % o for w in rel.row(k)] for k, o in enumerate(orders)]
    rel = IntMatrix.hstack(IntMatrix.from_rows(reduced, cols=rel.cols), _relations(orders))
    return _present(m, rel, t, e, live)
