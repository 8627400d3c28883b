"""Lattice operations that only the tests read, built from the package's
kept primitives (``snf``, ``_present``, ``_cycle_quotient``): solving,
preimages and coordinates against the full transforms of ``snf``, which
share no code with the log replays of ``abgroups``' kernel read; the
quotient of any two lattices, presented; the eager two-map cycle
quotients the tests compare the package's lazy ones with; and a recorder
of the transform work a block of code does."""

from contextlib import ExitStack, contextmanager
from types import SimpleNamespace
from unittest import mock

import cwhom.abgroups as abgroups
import cwhom.homology as homology
import cwhom.intmat as intmat
from cwhom.intmat import (
    ChainConditionViolation,
    ContainmentViolation,
    IntMatrix,
    NotInLattice,
    snf,
)


def scale(m: IntMatrix, k: int) -> IntMatrix:
    """k times m, entrywise."""
    return IntMatrix(m.rows, m.cols, tuple(k * v for v in m.entries))


def lattice_basis(a: IntMatrix) -> IntMatrix:
    """Independent basis of the lattice spanned by the columns of a: the
    columns d_i U_i for the nonzero diagonal entries d_i of a = U S V."""
    ext = snf(a)
    d = ext.diagonal()
    return IntMatrix.from_columns([[d[i] * x for x in ext.U.col(i)] for i in range(ext.rank)], rows=a.rows)


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer X with a @ X = b, or None if some column is unsolvable:
    with a = U S V, X = V^-1 Z for the Z with S Z = U^-1 b, zero past the
    rank."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    ext = snf(a)
    d, y = ext.diagonal(), ext.Uinv @ b
    z = [[0] * b.cols for _ in range(a.cols)]
    for i in range(a.rows):
        for j, v in enumerate(y.row(i)):
            if i < ext.rank and v % d[i] == 0:
                z[i][j] = v // d[i]
            elif v:
                return None
    return ext.Vinv @ IntMatrix.from_rows(z, cols=b.cols)


def preimage_lattice(m: IntMatrix, relations: IntMatrix) -> IntMatrix:
    """Generators (possibly dependent) of {x : m @ x lies in the column
    lattice of relations}: the first m.cols rows of the kernel basis of
    [m | relations], the columns rank.. of V^-1."""
    if m.rows != relations.rows:
        raise ValueError("row count mismatch")
    ext = snf(IntMatrix.hstack(m, relations))
    ker = range(ext.rank, ext.Vinv.cols)
    return IntMatrix.from_rows([[ext.Vinv.entry(i, j) for j in ker] for i in range(m.cols)], cols=len(ker))


def lattice_coordinates(basis: IntMatrix, v) -> tuple:
    """Solve basis @ c = v over Z; NotInLattice when unsolvable.  The
    columns of ``basis`` must be linearly independent."""
    if len(v) != basis.rows:
        raise ValueError("vector length mismatch")
    if snf(basis).rank != basis.cols:
        raise ValueError("basis columns are not independent")
    x = solve_columns(basis, IntMatrix.column(v))
    if x is None:
        raise NotInLattice("vector outside the lattice")
    return x.entries


def in_lattice(basis: IntMatrix, v) -> bool:
    try:
        lattice_coordinates(basis, v)
        return True
    except NotInLattice:
        return False


def quotient_group(ambient_dim: int, numerator: IntMatrix, denominator: IntMatrix):
    """Canonical form of span(numerator) / span(denominator) inside Z^m,
    presented.

    The numerator columns may be dependent; every denominator column must
    lie in the numerator lattice (ContainmentViolation otherwise).  One
    SNF numerator = U S V gives the basis U diag(s) of the numerator
    lattice and the coordinates (U^-1 v)_i / s_i against it (T = U^-1);
    the denominator's coordinates are U^-1 replayed onto it, and
    ``_present`` reads the quotient off them.
    """
    if numerator.rows != ambient_dim or denominator.rows != ambient_dim:
        raise ValueError("ambient dimension mismatch")
    s, rows, _ = intmat._snf_ext(numerator)
    e = s + (0,) * (ambient_dim - len(s))
    try:
        rel = intmat._coordinate_columns(rows.times(denominator), e, range(len(s)))
    except NotInLattice as exc:
        raise ContainmentViolation(f"denominator column outside numerator lattice: {exc}") from None
    return intmat._present(ambient_dim, rel, rows, e, range(len(s)))


class EagerCycleQuotients:
    """Cycle quotients of any two maps, which the tests compare the
    package's factors (``homology._factor``) with: both SNFs run as it is
    built, and every factor, the integral one too, checks the in-map
    against the cycles as it is built (ContainmentViolation), where the
    package's integral factor, for a complex proved valid, waits for its
    first read."""

    def __init__(self, out_map: IntMatrix, in_map: IntMatrix):
        if in_map.rows != out_map.cols:
            raise ValueError("shapes not composable")
        self.s, _, self.t = intmat._snf_ext(out_map)
        self.in_s, self._in_map = intmat._snf_ext(in_map).s, lambda: in_map

    def quotient(self, d: int):
        if not d:
            # over Z, e_i = 0 on out's rank (coordinate 0 there) and 1 past it
            m, r = self.t.n, len(self.s)
            intmat._cycle_coordinates(self.t, self._in_map, (0,) * r + (1,) * (m - r), range(r, m))
        return intmat._cycle_quotient(self.s, self.t, self.in_s, self._in_map, d)


def factor_presentation(out_map: IntMatrix, in_map: IntMatrix, modulus: int):
    """ker(out mod d) / im(in mod d) for one modulus, 0 (Z) or d >= 2."""
    return EagerCycleQuotients(out_map, in_map).quotient(modulus)


def mod_d_quotient(out_map: IntMatrix, in_map: IntMatrix, d: int):
    """ker(out_map mod d) / im(in_map mod d) inside (Z/d)^m, presented on
    integer representatives; ChainConditionViolation when out_map @
    in_map is nonzero mod d."""
    if d < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return factor_presentation(out_map, in_map, d)
    except ContainmentViolation:
        raise ChainConditionViolation("out_map @ in_map is nonzero mod d") from None


@contextmanager
def transform_work():
    """Record, while the block runs, every transform built on the identity
    (an ``snf`` call) or read off a presentation (its lifts or coords) in
    ``transforms``, every dense product ``IntMatrix.__matmul__`` in
    ``matmuls``, and the number of SNFs in ``snfs``."""
    seen = SimpleNamespace(transforms=[], matmuls=[], snfs=0)
    real_ext, real_snf, real_matmul = intmat._snf_ext, intmat.snf, IntMatrix.__matmul__
    real_lifts, real_coords = intmat._Presented.lifts, intmat._Presented.coords

    def snf_ext(a):
        seen.snfs += 1
        return real_ext(a)

    def snf(a):
        seen.transforms.append(("snf", a.shape))
        return real_snf(a)

    def lifts(pres):
        seen.transforms.append(("_Presented.lifts", pres.group))
        return real_lifts.fget(pres)

    def coords(pres, v):
        seen.transforms.append(("_Presented.coords", pres.group))
        return real_coords(pres, v)

    def matmul(a, b):
        seen.matmuls.append((a.shape, b.shape))
        return real_matmul(a, b)

    with ExitStack() as stack:
        for module in (intmat, abgroups, homology):  # every binding of the kernel
            stack.enter_context(mock.patch.object(module, "_snf_ext", snf_ext))
        for owner, name, value in ((intmat, "snf", snf), (intmat._Presented, "lifts", property(lifts)),
                                   (intmat._Presented, "coords", coords), (IntMatrix, "__matmul__", matmul)):
            stack.enter_context(mock.patch.object(owner, name, value))
        yield seen
