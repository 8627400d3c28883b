"""(Co)homology engines.

Integral homology is the kernel-image quotient of the boundary matrices;
cohomology with coefficients in a finitely generated abelian group G is
computed by dualizing the chain complex per cyclic factor of G (never via
universal coefficients).  Each cyclic factor Z/d (Z for d = 0) is the
quotient of the (co)cycles mod d, {v : out v = 0 mod d}, by im(in) + d Z^m,
both built from the (co)chain complex itself.  One SNF of the outgoing
map, out = U S V, serves every factor: the cycle lattice mod d is read
off S and V, and the denominator is written against it with the product
V @ in (``intmat._cycle_quotient``).  Each chain matrix B is
eliminated once, with no transform, as the out-map of chains (V) and of
cochains (B^T = V^T S^T U^T: U^T, B's row log read transposed in place),
and as the in-map of both, whose diagonal gives the integral factor's
group: only a factor Z/d, d >= 2, runs an SNF of its own.  The complex
was proved valid where it came in, so V @ in (and a cochain in-map B^T)
is built only for such a factor or on the first read of the integral
factor's lifts or coords, never for its group alone.  These eliminations
and each factor presentation of (out, in, d) are built once per distinct
key in a process, in bounded caches keyed by the value of the chain
maps: every coefficient group that contains Z/d, and every complex with
equal (residual) boundaries there, shares one immutable presentation.
G^c itself (``cells_presentation``) is presented on its own generators,
with no elimination.  The whole group, across factors, is the
invariant-factor form of the factors' generator orders, with no SNF at
all; a coefficient group with one cyclic factor is glued by the identity
when that is what the general glue gives (see ``_glue``).

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
through ``_chain_maps`` on C' unchanged.  A complex with no unit entry is
used as it is.

A complex's ``chain_group`` results and reduction sit in one memo per
complex value, shared by equal complexes and released with the last of
them; the complex last queried is kept (``_last``).
"""

from __future__ import annotations

from functools import _CacheInfo, lru_cache, partial, update_wrapper
from weakref import WeakValueDictionary

from .abgroups import AbHom, FgAbGroup, normalize_diagonal
from .complexes import CwComplex, require_valid
from .intmat import (
    GroupWithPresentation,
    IntMatrix,
    NotInLattice,
    _Elimination,
    _cycle_quotient,
    _Log,
    _nonzeros,
    _ones,
    _present,
    _put,
    _snf_ext,
    _sparse_apply,
    _sparse_columns,
    _unit_columns,
    _Value,
)
from .reduction import Reduction, reduce_complex

__all__ = [
    "CoeffPresentation",
    "chain_group",
    "integral_homology",
    "cohomology",
    "all_groups",
    "cells_presentation",
]


class CoeffPresentation(_Value):
    """A (co)homology group with coefficients in G, with presentations.

    ``factors`` holds one presentation per cyclic factor of G, all living
    in the same ambient chain/cochain space.  ``glue`` canonicalizes the
    concatenated factor generators into the invariant-factor form of the
    whole group; its lifts/coords translate between the two.
    """

    __slots__ = __match_args__ = ("group", "coeff", "ambient_dim", "factors", "glue")

    def __init__(self, group: FgAbGroup, coeff: FgAbGroup, ambient_dim: int, factors: tuple,
                 glue: GroupWithPresentation):
        # factors: ((modulus, GroupWithPresentation), ...)
        self._init(group, coeff, ambient_dim, factors, glue)

    @property
    def num_generators(self) -> int:
        return self.group.num_generators


class _Canonical(GroupWithPresentation):
    """A canonical group presented on its own generators: unit lifts, and
    coordinates reduced mod the generator orders."""

    __slots__ = ()

    @property
    def lifts(self) -> tuple:
        return tuple(_unit_columns(self.ambient_dim, range(self.ambient_dim)).columns())

    def coords(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return tuple(w % o if o else w for w, o in zip(v, self.group.generator_orders()))


def _glue(factor_groups) -> GroupWithPresentation:
    """Z^n over the relations o_i e_i for the generator orders o_i of the
    factors: the group is their invariant-factor form, with no SNF.  Only
    the orders are kept; the relation columns are built, and their SNF
    run, on the first read of lifts or coords.

    One factor of rank at most 1, or with no torsion, is glued by the
    identity (``_Canonical``), which is what that SNF would give; on a
    larger rank with torsion its pivots permute the free generators."""
    if len(factor_groups) == 1 and (factor_groups[0].rank <= 1 or not factor_groups[0].torsion):
        g = factor_groups[0]
        return _Canonical(g, g.num_generators)
    orders = tuple(o for g in factor_groups for o in g.generator_orders())
    n = len(orders)
    # the numerator is all of Z^n: its coordinates are the vector itself
    return _present(n, orders, _Log(n), (1,) * n, range(n), group=normalize_diagonal(orders))


def _assemble(coeff: FgAbGroup, ambient_dim: int, factor_pres) -> CoeffPresentation:
    glue = _glue([p.group for _, p in factor_pres])
    return CoeffPresentation(glue.group, coeff, ambient_dim, tuple(factor_pres), glue)


def _chain_maps(x: CwComplex, n: int, reduced: bool):
    """(outgoing, incoming) chain maps at dimension n: B_n (at n = 0 the
    all-ones augmentation row when reduced, no row otherwise) and B_{n+1}."""
    if n == 0:
        out = _ones(x.cells[0]) if reduced else IntMatrix.zeros(0, x.cells[0])
    else:
        out = x.boundary(n)
    return out, x.boundary(n + 1)


# one elimination per distinct chain matrix and one presentation per
# distinct (chain maps, variant, d), bounded with headroom over one check
# battery (23 matrices, 176 factors).  The keys are the chain maps the
# complex already holds, not the cochain maps: transposes would be built
# and hashed on every miss and kept alive by the keys.  A factor whose
# in-map is not a (co)cycle mod d raises, and is not kept.
@lru_cache(maxsize=96)
def _elimination(a: IntMatrix) -> _Elimination:
    # _snf_ext is looked up when a miss runs, so a replaced kernel sees it
    return _snf_ext(a)


@lru_cache(maxsize=256)
def _factor(out: IntMatrix, inc: IntMatrix, variant: str, modulus: int) -> GroupWithPresentation:
    """The factor for ``modulus`` of the chain maps of a complex
    ``require_valid`` proved (or of its residual), so the chain condition
    is not checked."""
    if variant == "homology":
        s, _, t = _elimination(out)
        # a builder of an equal copy of inc: it pickles, where a lambda would not
        build_inc = partial(IntMatrix, inc.rows, inc.cols, inc.entries)
        return _cycle_quotient(s, t, _elimination(inc).s, build_inc, modulus)
    if variant == "cohomology":
        # inc^T = V^T S^T U^T: its V is U^T, inc's row log read transposed
        s, rows, _ = _elimination(inc)
        return _cycle_quotient(s, rows.transposed(), _elimination(out).s, out.transpose, modulus)
    raise ValueError(f"unknown variant {variant!r}")


def _out_boundary(x: CwComplex, n: int, variant: str) -> IntMatrix:
    """The boundary the out-map at dimension n is read off: B_{n+1} for
    cochains, B_n for chains (at n = 0 the 0 x c_0 zero matrix)."""
    return x.boundary(n + 1) if variant == "cohomology" else x.boundary(n)


def _out_columns(b: IntMatrix, n: int, variant: str, reduced: bool) -> list:
    """The sparse columns of the out-map at dimension n, read off the
    row-major ``_out_boundary`` b without building it: the columns of B_n
    (the all-ones row, or no row, at n = 0) for chains, the rows of
    B_{n+1} for cochains."""
    if variant == "cohomology":
        return [_nonzeros(b.row(i)) for i in range(b.rows)]
    if n == 0:
        return [[(0, 1)] if reduced else [] for _ in range(b.cols)]
    return _sparse_columns(b)


class _Transported(GroupWithPresentation):
    """A residual factor presentation carried back to the cells of the
    original complex: lifts through g (f^T on cochains), coordinates
    through f (g^T).  f is not injective, so a vector is first checked
    against the original out-map, mod the factor's modulus, and rejected
    exactly where the unreduced presentation would reject it.  Nothing is
    carried before it is read: the lifts are pulled on their first read,
    and the out-map's sparse columns are read off the boundary ``b`` it
    keeps (``_out_boundary``; not the complex, which it outlives) on the
    first coords call, because most groups are never queried."""

    __slots__ = ("_pres", "_red", "_b", "_n", "_variant", "_reduced", "_modulus", "_out_cols", "_lifts")

    def __init__(self, pres: GroupWithPresentation, red: Reduction, b: IntMatrix, n: int,
                 variant: str, reduced: bool, modulus: int):
        super().__init__(pres.group, red.cells[n])
        for name, value in (("_pres", pres), ("_red", red), ("_b", b), ("_n", n), ("_variant", variant),
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
            _put(self, "_out_cols", _out_columns(self._b, self._n, self._variant, self._reduced))
        image = _sparse_apply(self._out_cols, _nonzeros(v))
        m = self._modulus
        if any(s % m if m else s for s in image.values()):
            raise NotInLattice("vector outside the numerator lattice")
        return self._pres.coords(self._red.push(self._n, v, self._variant == "cohomology"))


# chain_group's results and the reduction are kept per complex value, not
# in a count-bounded cache: equal complexes share one memo, found once per
# object through a weak table keyed by (cells, boundaries, basepoint) and
# then read off the object, so a hit with an equal copy compares its
# boundaries at most once.  The memo lives as long as some complex equal to
# it does, and the complex last queried is kept alive, so that CLI calls on
# one document in one process (homology, then cohomology) share its
# reduction and groups; keeping 2, 4 or 8 recent complexes computed nothing
# less on any benchmark workload and held more.  A stream of distinct
# complexes thus holds a fixed amount of memory, released by reference
# counting alone: nothing in a memo refers back to its complex
# (``_Transported`` keeps the boundary it reads, not x), so no memo and
# complex form a cycle that only the cyclic collector would free.
_memos = WeakValueDictionary()
_last = None


class _Memo(dict):
    # a plain dict takes no weak reference
    __slots__ = ("__weakref__",)


def _per_complex(fn):
    """``fn(x, *args)`` kept in the memo of x's value, with ``lru_cache``'s
    statistics and ``cache_clear``; ``maxsize`` is None."""
    counts = [0, 0]  # hits, misses

    def memoized(x, *args):
        global _last
        memo = x.__dict__.get("_memo")
        if memo is None:
            value_key = x._key()
            memo = _memos.get(value_key)
            if memo is None:
                memo = _memos[value_key] = _Memo()
            _put(x, "_memo", memo)
        _last = x
        key = (fn, args)
        try:
            value = memo[key]
        except KeyError:
            counts[1] += 1
            value = memo[key] = fn(x, *args)
            return value
        counts[0] += 1
        return value

    def entries():
        return [(memo, key) for memo in _memos.values() for key in memo if key[0] is fn]

    def cache_clear():
        for memo, key in entries():
            del memo[key]
        counts[:] = 0, 0

    memoized.cache_info = lambda: _CacheInfo(*counts, None, len(entries()))
    memoized.cache_clear = cache_clear
    memoized.cache_parameters = lambda: {"maxsize": None, "typed": False}
    return update_wrapper(memoized, fn)


# one reduction per complex value, shared by every query on it
_reduction = _per_complex(reduce_complex)


@_per_complex
def chain_group(x: CwComplex, n: int, coeff: FgAbGroup, variant: str, reduced: bool) -> CoeffPresentation:
    """The n-th (co)homology of x with coefficients in ``coeff``.

    Out-of-range dimensions yield the trivial group (the long-exact-
    sequence machinery indexes beyond the complex dimension).
    """
    require_valid(x)
    if n < 0 or n > x.dim:
        return cells_presentation(0, coeff)
    red = _reduction(x)
    out, inc = _chain_maps(x if red is None else red.residual, n, reduced)
    pres = [(m, _factor(out, inc, variant, m)) for m in coeff.generator_orders()]
    if red is not None:
        b = _out_boundary(x, n, variant)
        pres = [(m, _Transported(p, red, b, n, variant, reduced, m)) for m, p in pres]
    return _assemble(coeff, x.cells[n], pres)


# bounded with headroom over the 20 entries one check battery holds
@lru_cache(maxsize=256)
def cells_presentation(c: int, coeff: FgAbGroup) -> CoeffPresentation:
    """G^c presented on the standard basis of a rank-c cell space: each
    factor Z/d is (Z/d)^c on its own generators (Z^c for d = 0), which is
    what the cycle quotient of the zero maps gives, with no SNF."""
    pres = [(d, _Canonical(FgAbGroup(c) if d == 0 else FgAbGroup(0, (d,) * c), c))
            for d in coeff.generator_orders()]
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


def _induced(src: CoeffPresentation, tgt: CoeffPresentation, chain_matrix: IntMatrix) -> AbHom:
    """The hom src.group -> tgt.group that a validated chain map, or a
    chain-level matrix the package builds, induces factor by factor on
    representatives: well defined, so not checked again."""
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
    if isinstance(src.glue, _Canonical) and isinstance(tgt.glue, _Canonical):
        # each side is its one factor, on its own generators
        return AbHom._derived(src.group, tgt.group, mconcat)
    # conjugate through the canonicalizations
    cols = []
    for lift in src.glue.lifts:
        cols.append(tgt.glue.coords(mconcat.apply(lift)))
    mat = IntMatrix.from_columns(cols, rows=tgt.group.num_generators)
    return AbHom._derived(src.group, tgt.group, mat)
