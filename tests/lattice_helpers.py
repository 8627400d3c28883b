"""Lattice operations that only the tests read, built from the package's
kept primitives (``snf``, ``solve_columns``, ``_CycleQuotients``), and a
recorder of the transform work a block of code does."""

from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

import cwhom.abgroups as abgroups
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
    (an SNF asked for transforms, a shared log replayed, a presentation's
    lifts and coords built) in ``transforms``, every dense product
    ``IntMatrix.__matmul__`` in ``matmuls``, and the number of SNFs in
    ``snfs``."""
    seen = SimpleNamespace(transforms=[], matmuls=[], snfs=0)
    real_snf, real_pair = intmat._snf_ext, intmat._Log.pair
    real_read, real_matmul = intmat._Presented._read, IntMatrix.__matmul__

    def snf_ext(a, want):
        seen.snfs += 1
        if want:
            seen.transforms.append(("_snf_ext", tuple(want)))
        return real_snf(a, want)

    def pair(log):
        seen.transforms.append(("_Log.pair", log.n))
        return real_pair(log)

    def read(pres):
        seen.transforms.append(("_Presented._read", pres.group))
        return real_read(pres)

    def matmul(a, b):
        seen.matmuls.append((a.shape, b.shape))
        return real_matmul(a, b)

    with mock.patch.object(intmat, "_snf_ext", snf_ext), mock.patch.object(abgroups, "_snf_ext", snf_ext), \
            mock.patch.object(intmat._Log, "pair", pair), mock.patch.object(intmat._Presented, "_read", read), \
            mock.patch.object(IntMatrix, "__matmul__", matmul):
        yield seen
