"""Lattice operations that only the tests read, built from the package's
kept primitives (``snf``, ``solve_columns``, ``_CycleQuotients``), and a
recorder of the transform work a block of code does."""

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
    _CycleQuotients,
    snf,
    solve_columns,
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


def factor_presentation(out_map: IntMatrix, in_map: IntMatrix, modulus: int):
    """ker(out mod d) / im(in mod d) for one modulus, 0 (Z) or d >= 2."""
    return _CycleQuotients(out_map, in_map).quotient(modulus)


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
