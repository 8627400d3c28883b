"""(Co)homology engines.

Integral homology is the kernel-image quotient of the boundary matrices;
cohomology with coefficients in a finitely generated abelian group G is
computed by dualizing the chain complex per cyclic factor of G (never via
universal coefficients).  Each cyclic factor Z/d (Z for d = 0) is the
quotient of the (co)cycles mod d, {v : out v = 0 mod d}, by im(in) + d Z^m,
both built from the (co)chain complex itself.  At each dimension one SNF
of the outgoing map, out = U S V, serves every factor: the cycle lattice
mod d is read off S and V, the denominator is written against it with the
single product V @ in, and one SNF of those coordinates gives the factor's
group, lifts and coordinate map (``intmat._CycleQuotients``).  Neither
SNF builds a transform: V @ in is replayed from the first one's operation
log straight onto in, and the group is read off the second one's
diagonal.  The whole group, across factors, is the invariant-factor form
of the factors' generator orders, with no SNF at all.

The reduced variants use the augmented complex: at dimension 0 the
all-ones augmentation row (for chains) or column (for cochains) is fed to
the quotient engines, which is the one place where reduced and unreduced
bookkeeping differ.

Every group is returned together with a presentation: explicit cocycle
(or cycle) lifts for the canonical generators and a coordinate map back,
which is what induced homomorphisms are written against.  Presentations
are built from the logs on their first read, so a query that reads only
groups (the CLI's tables) does no transform work, and one that reads
them all does the work once.

The quotient engines run on a small chain-equivalent complex.  Once per
complex, ``reduction`` cancels pairs of cells joined by a unit (+-1)
boundary entry, recording chain maps f: C -> C' and g: C' -> C.  Each
factor presentation computed on the residual C' is carried back exactly,
when it is read: lifts through g (f^T for cochains), coordinates through
f (g^T), after a sparse check of the vector against the original outgoing
map, because f is not injective.  That map is never built densely: its
sparse columns are read off the original boundaries on the first
coordinate query, and only then.  The pivots are units, so the reduction
is over Z and every cyclic factor of G is still computed directly on C'.  The carried
augmentation e g_0 is again the all-ones row, so the reduced variants go
through ``_graded_maps`` on C' unchanged.  A complex with no unit entry is
used as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abgroups import AbHom, FgAbGroup, normalize_diagonal
from .complexes import CwComplex, require_valid
from .intmat import (
    GroupWithPresentation,
    IntMatrix,
    NotInLattice,
    _CycleQuotients,
    _present,
    _put,
    _sparse_apply,
    _sparse_columns,
)
from .reduction import Reduction, reduce_complex

__all__ = [
    "CoeffPresentation",
    "chain_group",
    "integral_homology",
    "cohomology",
    "all_groups",
    "cells_presentation",
    "induced_hom",
]


def _ones(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, (1,) * (rows * cols))


def coeff_factors(g: FgAbGroup) -> tuple:
    """Cyclic factor moduli of G, free factors (0) first."""
    return (0,) * g.rank + g.torsion


def _factor_presentations(out_map: IntMatrix, in_map: IntMatrix, coeff: FgAbGroup) -> list:
    """(modulus, presentation) for each cyclic factor of coeff, all read
    off one SNF of the outgoing map."""
    quotients = _CycleQuotients(out_map, in_map)
    return [(m, quotients.quotient(m)) for m in coeff_factors(coeff)]


@dataclass(frozen=True)
class CoeffPresentation:
    """A (co)homology group with coefficients in G, with presentations.

    ``factors`` holds one presentation per cyclic factor of G, all living
    in the same ambient chain/cochain space.  ``glue`` canonicalizes the
    concatenated factor generators into the invariant-factor form of the
    whole group; its lifts/coords translate between the two.
    """

    group: FgAbGroup
    coeff: FgAbGroup
    ambient_dim: int
    factors: tuple        # ((modulus, GroupWithPresentation), ...)
    glue: GroupWithPresentation

    @property
    def num_generators(self) -> int:
        return self.group.num_generators


def _glue(factor_groups) -> GroupWithPresentation:
    """Z^n over the relations o_i e_i for the generator orders o_i of the
    factors: the group is their invariant-factor form, with no SNF; the
    relations' SNF waits for the first read of lifts or coords."""
    orders = [o for g in factor_groups for o in g.generator_orders()]
    n = len(orders)
    rel_cols = [[o if i == j else 0 for i in range(n)] for j, o in enumerate(orders) if o]
    # the numerator is all of Z^n: its coordinates are the vector itself
    return _present(n, IntMatrix.from_columns(rel_cols, rows=n), None, (1,) * n, range(n),
                    group=normalize_diagonal(orders))


def _assemble(coeff: FgAbGroup, ambient_dim: int, factor_pres) -> CoeffPresentation:
    glue = _glue([p.group for _, p in factor_pres])
    return CoeffPresentation(glue.group, coeff, ambient_dim, tuple(factor_pres), glue)


def _graded_maps(x: CwComplex, n: int, variant: str, reduced: bool):
    """(outgoing map, incoming map) at dimension n; ambient is c_n."""
    if variant == "homology":
        if n == 0:
            out = _ones(1, x.cells[0]) if reduced else IntMatrix.zeros(0, x.cells[0])
        else:
            out = x.boundary(n)
        inc = x.boundary(n + 1)
    elif variant == "cohomology":
        out = x.boundary(n + 1).transpose()
        if n == 0:
            inc = _ones(x.cells[0], 1) if reduced else IntMatrix.zeros(x.cells[0], 0)
        else:
            inc = x.boundary(n).transpose()
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return out, inc


def _out_columns(x: CwComplex, n: int, variant: str, reduced: bool) -> list:
    """The sparse columns of ``_graded_maps(x, n, variant, reduced)[0]``,
    read off x's row-major boundaries without building the map: the
    columns of B_n (the all-ones row, or no row, at n = 0) for chains,
    the rows of B_{n+1} for cochains."""
    if variant == "cohomology":
        b = x.boundary(n + 1)
        return [[(j, v) for j, v in enumerate(b.row(i)) if v] for i in range(b.rows)]
    if n == 0:
        return [[(0, 1)] if reduced else [] for _ in range(x.cells[0])]
    return _sparse_columns(x.boundary(n))


class _Transported(GroupWithPresentation):
    """A residual factor presentation carried back to the cells of the
    original complex x: lifts through g (f^T on cochains), coordinates
    through f (g^T).  f is not injective, so a vector is first checked
    against the original out-map, mod the factor's modulus, and rejected
    exactly where the unreduced presentation would reject it.  Nothing is
    carried before it is read: the lifts are pulled on their first read,
    and the out-map's sparse columns are read off x's boundaries on the
    first coords call, because most groups are never queried."""

    __slots__ = ("_pres", "_red", "_x", "_n", "_variant", "_reduced", "_modulus", "_out_cols", "_lifts")

    def __init__(self, pres: GroupWithPresentation, red: Reduction, x: CwComplex, n: int,
                 variant: str, reduced: bool, modulus: int):
        super().__init__(pres.group, red.cells[n])
        for name, value in (("_pres", pres), ("_red", red), ("_x", x), ("_n", n), ("_variant", variant),
                            ("_reduced", reduced), ("_modulus", modulus), ("_out_cols", None),
                            ("_lifts", None)):
            _put(self, name, value)

    @property
    def lifts(self) -> tuple:
        if self._lifts is None:
            dual = self._variant == "cohomology"
            _put(self, "_lifts", tuple(self._red.pull(self._n, lift, dual) for lift in self._pres.lifts))
        return self._lifts

    def coords(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        if self._out_cols is None:
            _put(self, "_out_cols", _out_columns(self._x, self._n, self._variant, self._reduced))
        image = _sparse_apply(self._out_cols, ((j, a) for j, a in enumerate(v) if a))
        m = self._modulus
        if any(s % m if m else s for s in image.values()):
            raise NotInLattice("vector outside the numerator lattice")
        return self._pres.coords(self._red.push(self._n, v, self._variant == "cohomology"))


# one reduction per complex, shared by every query on it.  This cache,
# chain_group's and cells_presentation's are bounded with headroom over
# what one check battery holds (62, 1 370 and 20 entries), so a
# long-lived process does not grow without bound.
_reduction = lru_cache(maxsize=256)(reduce_complex)


@lru_cache(maxsize=4096)
def chain_group(x: CwComplex, n: int, coeff: FgAbGroup, variant: str, reduced: bool) -> CoeffPresentation:
    """The n-th (co)homology of x with coefficients in ``coeff``.

    Out-of-range dimensions yield the trivial group (the long-exact-
    sequence machinery indexes beyond the complex dimension).
    """
    require_valid(x)
    if n < 0 or n > x.dim:
        return cells_presentation(0, coeff)
    red = _reduction(x)
    if red is None:
        pres = _factor_presentations(*_graded_maps(x, n, variant, reduced), coeff)
    else:
        pres = [(m, _Transported(p, red, x, n, variant, reduced, m))
                for m, p in _factor_presentations(*_graded_maps(red.residual, n, variant, reduced), coeff)]
    return _assemble(coeff, x.cells[n], pres)


@lru_cache(maxsize=256)
def cells_presentation(c: int, coeff: FgAbGroup) -> CoeffPresentation:
    """G^c presented on the standard basis of a rank-c cell space."""
    pres = _factor_presentations(IntMatrix.zeros(0, c), IntMatrix.zeros(c, 0), coeff)
    return _assemble(coeff, c, pres)


def integral_homology(x: CwComplex, n: int, reduced: bool = False) -> GroupWithPresentation:
    """H_n(x; Z) as a presented group (single integral factor)."""
    cp = chain_group(x, n, FgAbGroup.free(1), "homology", reduced)
    return cp.factors[0][1]


def cohomology(x: CwComplex, n: int, coeff: FgAbGroup, reduced: bool = False) -> CoeffPresentation:
    return chain_group(x, n, coeff, "cohomology", reduced)


def all_groups(x: CwComplex, coeff: FgAbGroup, variant: str = "homology", reduced: bool = False) -> dict:
    """Table of groups for -1 <= n <= dim + 1."""
    return {
        n: chain_group(x, n, coeff, variant, reduced).group
        for n in range(-1, x.dim + 2)
    }


def induced_hom(src: CoeffPresentation, tgt: CoeffPresentation, chain_matrix: IntMatrix) -> AbHom:
    """The homomorphism src.group -> tgt.group induced by an ambient
    integer matrix acting factor-by-factor on representatives.

    ``chain_matrix`` must send the source's representative lattice into
    the target's in every factor (a NotInLattice escape here means the
    matrix is not a chain-level map for these presentations).
    """
    if src.coeff != tgt.coeff:
        raise ValueError("coefficient groups differ")
    if chain_matrix.shape != (tgt.ambient_dim, src.ambient_dim):
        raise ValueError(
            f"chain matrix shape {chain_matrix.shape} != "
            f"({tgt.ambient_dim}, {src.ambient_dim})"
        )
    # block-diagonal action on concatenated factor generators
    concat_cols = []
    tgt_sizes = [p.group.num_generators for _, p in tgt.factors]
    for fi, (modulus, sp) in enumerate(src.factors):
        tp = tgt.factors[fi][1]
        for lift in sp.lifts:
            img = chain_matrix.apply(lift)
            fc = tp.coords(img)
            col = []
            for fj, size in enumerate(tgt_sizes):
                col.extend(fc if fj == fi else (0,) * size)
            concat_cols.append(col)
    total_tgt = sum(tgt_sizes)
    mconcat = IntMatrix.from_columns(concat_cols, rows=total_tgt)
    # conjugate through the canonicalizations
    cols = []
    for lift in src.glue.lifts:
        cols.append(tgt.glue.coords(mconcat.apply(lift)))
    mat = IntMatrix.from_columns(cols, rows=tgt.group.num_generators)
    return AbHom(src.group, tgt.group, mat)
