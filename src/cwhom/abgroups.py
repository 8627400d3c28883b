"""Finitely generated abelian groups in invariant-factor form.

A group is stored as its canonical data: the free rank plus a torsion
chain d1 | d2 | ... with every entry >= 2.  Equality of groups is plain
structural equality.  Homomorphisms between presented groups are integer
matrices on canonical generators (free generators first, then torsion
generators in chain order), with entries against torsion generators read
modulo the generator order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod

from .intmat import (
    IntMatrix,
    _snf_ext,
    preimage_lattice,
    quotient_group,
    solve_columns,
)

__all__ = [
    "FgAbGroup",
    "AbHom",
    "GroupSyntaxError",
    "NotAnIsomorphism",
    "normalize_diagonal",
    "direct_sum",
    "parse_group",
    "format_group",
    "identity_hom",
    "zero_hom",
    "compose_hom",
    "hom_kernel",
    "hom_image",
    "is_exact_pair",
    "hom_subquotient",
    "invert_iso",
]


class GroupSyntaxError(ValueError):
    """Raised by parse_group; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotAnIsomorphism(ValueError):
    pass


@dataclass(frozen=True)
class FgAbGroup:
    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion order {d} < 2")
            if prev is not None and d % prev:
                raise ValueError("torsion orders do not form a divisibility chain")
            prev = d

    @staticmethod
    def trivial() -> "FgAbGroup":
        return FgAbGroup(0, ())

    @staticmethod
    def free(rank: int) -> "FgAbGroup":
        return FgAbGroup(rank, ())

    @staticmethod
    def cyclic(d: int) -> "FgAbGroup":
        return FgAbGroup(0, (d,))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def num_generators(self) -> int:
        return self.rank + len(self.torsion)

    def generator_orders(self) -> tuple:
        """Order of each canonical generator; 0 means infinite."""
        return (0,) * self.rank + self.torsion

    def order(self) -> int:
        """Cardinality; 0 stands for infinite."""
        return 0 if self.rank else prod(self.torsion, start=1)

    def __str__(self) -> str:
        return format_group(self)


def normalize_diagonal(diagonal, extra_free: int = 0) -> FgAbGroup:
    """Canonicalize SNF-style diagonal data into a group.

    Units are dropped, each zero contributes a Z summand, and the
    remaining orders are renormalized into a divisibility chain (via SNF
    of the diagonal lattice, so any permutation of the same multiset
    gives the same result).
    """
    free = extra_free + sum(1 for d in diagonal if d == 0)
    tors = [abs(d) for d in diagonal if abs(d) >= 2]
    if tors:
        res = _snf_ext(IntMatrix.diagonal(tors), ())
        tors = [d for d in res.diagonal() if d >= 2]
    return FgAbGroup(free, tuple(tors))


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    return normalize_diagonal(a.torsion + b.torsion, a.rank + b.rank)


# ASCII digits only: without re.ASCII, \d also matches digits such as
# '٢' and '２', which int() would accept
_TERM = re.compile(
    r"Z\^(?P<zk>\d+)"
    r"|Z/(?P<d>\d+)"
    r"|\(Z/(?P<pd>\d+)\)\^(?P<pk>\d+)"
    r"|Z",
    re.ASCII,
)


def _number(m: re.Match, name: str) -> int:
    try:
        return int(m.group(name))
    except ValueError:  # past Python's limit on int-string conversion
        raise GroupSyntaxError("number has too many digits", m.start(name)) from None


def parse_group(text: str) -> FgAbGroup:
    """Parse the group grammar: terms 'Z', 'Z^k', 'Z/d', '(Z/d)^k' joined
    by '+'; '0' is the trivial group."""
    stripped = text.strip()
    if stripped == "0":
        return FgAbGroup.trivial()
    rank = 0
    tors: list[int] = []
    pos = 0
    expect_term = True
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        if expect_term:
            m = _TERM.match(text, pos)
            if not m:
                raise GroupSyntaxError("expected a group term", pos)
            if m.group("zk") is not None:
                k = _number(m, "zk")
                if k < 1:
                    raise GroupSyntaxError("exponent must be >= 1", pos)
                rank += k
            elif m.group("d") is not None:
                d = _number(m, "d")
                if d < 2:
                    raise GroupSyntaxError("torsion order must be >= 2", pos)
                tors.append(d)
            elif m.group("pd") is not None:
                d = _number(m, "pd")
                k = _number(m, "pk")
                if d < 2:
                    raise GroupSyntaxError("torsion order must be >= 2", pos)
                if k < 1:
                    raise GroupSyntaxError("exponent must be >= 1", pos)
                tors.extend([d] * k)
            else:
                rank += 1
            pos = m.end()
            expect_term = False
        else:
            if text[pos] != "+":
                raise GroupSyntaxError("expected '+'", pos)
            pos += 1
            expect_term = True
    if expect_term:
        raise GroupSyntaxError("expected a group term", pos)
    return normalize_diagonal(tors, rank)


def format_group(g: FgAbGroup) -> str:
    """Free part first, then torsion in chain order; '0' when trivial."""
    if g.is_trivial:
        return "0"
    parts = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank > 1:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " + ".join(parts)


def _relation_matrix(g: FgAbGroup) -> IntMatrix:
    """Columns order_i * e_i for each torsion generator, inside Z^n."""
    n = g.num_generators
    cols = []
    for i, d in enumerate(g.torsion):
        col = [0] * n
        col[g.rank + i] = d
        cols.append(col)
    return IntMatrix.from_columns(cols, rows=n)


@dataclass(frozen=True)
class AbHom:
    """Homomorphism between canonically presented groups.

    The matrix has one column per source generator and one row per
    target generator; entries in torsion rows are normalized into
    [0, order).  Construction checks well-definedness: for a source
    generator of finite order d, d times its column must lie in the
    target's relation lattice.
    """

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        m = self.matrix
        if m.rows != self.target.num_generators or m.cols != self.source.num_generators:
            raise ValueError(
                f"matrix shape {m.shape} does not match generators "
                f"({self.target.num_generators} x {self.source.num_generators})"
            )
        t_orders = self.target.generator_orders()
        rows = m.to_rows()
        for i, o in enumerate(t_orders):
            if o:
                rows[i] = [v % o for v in rows[i]]
        norm = IntMatrix.from_rows(rows, cols=m.cols)
        object.__setattr__(self, "matrix", norm)
        for j, d in enumerate(self.source.generator_orders()):
            if d == 0:
                continue
            for i, o in enumerate(t_orders):
                v = d * norm.entry(i, j)
                if (o == 0 and v != 0) or (o != 0 and v % o):
                    raise ValueError(
                        f"not well-defined: generator {j} of order {d} maps outside relations"
                    )


def identity_hom(g: FgAbGroup) -> AbHom:
    return AbHom(g, g, IntMatrix.identity(g.num_generators))


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> AbHom:
    return AbHom(source, target, IntMatrix.zeros(target.num_generators, source.num_generators))


def compose_hom(g: AbHom, f: AbHom) -> AbHom:
    """g after f."""
    if f.target != g.source:
        raise ValueError("compose: f.target != g.source")
    return AbHom(f.source, g.target, g.matrix @ f.matrix)


def _kernel_lattice(h: AbHom) -> IntMatrix:
    """Generators of the full preimage of the target relations in Z^n_src."""
    rel = _relation_matrix(h.target)
    return preimage_lattice(h.matrix, rel)


def hom_kernel(h: AbHom) -> FgAbGroup:
    n = h.source.num_generators
    lam = _kernel_lattice(h)
    return quotient_group(n, lam, _relation_matrix(h.source)).group


def hom_image(h: AbHom) -> FgAbGroup:
    n = h.target.num_generators
    rel = _relation_matrix(h.target)
    num = IntMatrix.hstack(h.matrix, rel)
    return quotient_group(n, num, rel).group


def _mutual_containment(a: IntMatrix, b: IntMatrix) -> bool:
    """The column lattices of a and b are equal: each spans the other."""
    return solve_columns(b, a) is not None and solve_columns(a, b) is not None


def is_exact_pair(g: AbHom, h: AbHom) -> bool:
    """True iff im(g) = ker(h) as subgroups of the shared middle group.

    Compared by mutual lattice membership after lifting presentations,
    never by order counting.
    """
    if g.target != h.source:
        raise ValueError("exactness: g.target != h.source")
    rel = _relation_matrix(g.target)
    im = IntMatrix.hstack(g.matrix, rel)
    ker = _kernel_lattice(h)
    return _mutual_containment(im, ker)


def hom_subquotient(g: AbHom, h: AbHom) -> FgAbGroup:
    """ker(h) / im(g) inside the shared middle group (requires im <= ker)."""
    if g.target != h.source:
        raise ValueError("subquotient: g.target != h.source")
    n = g.target.num_generators
    rel = _relation_matrix(g.target)
    ker = _kernel_lattice(h)
    if solve_columns(ker, g.matrix) is None:
        raise ValueError("subquotient: image is not contained in the kernel")
    denom = IntMatrix.hstack(g.matrix, rel)
    return quotient_group(n, ker, denom).group


def invert_iso(h: AbHom) -> AbHom:
    """Two-sided inverse of an isomorphism; NotAnIsomorphism otherwise."""
    rel = _relation_matrix(h.target)
    ext = IntMatrix.hstack(h.matrix, rel)
    sol = solve_columns(ext, IntMatrix.identity(h.target.num_generators))
    if sol is None:
        raise NotAnIsomorphism("not surjective")
    if not hom_kernel(h).is_trivial:
        raise NotAnIsomorphism("kernel is nontrivial")
    n = h.source.num_generators
    inv_rows = [sol.row(i) for i in range(n)]
    g = AbHom(h.target, h.source, IntMatrix.from_rows(inv_rows, cols=sol.cols))
    if compose_hom(g, h) != identity_hom(h.source) or compose_hom(h, g) != identity_hom(h.target):
        raise NotAnIsomorphism("candidate inverse failed verification")
    return g
