"""Finitely generated abelian groups in invariant-factor form.

A group is stored as its canonical data: the free rank plus a torsion
chain d1 | d2 | ... with every entry >= 2.  Equality of groups is plain
structural equality.  Homomorphisms between presented groups are integer
matrices on canonical generators (free generators first, then torsion
generators in chain order), with entries against torsion generators read
modulo the generator order.  ``AbHom(...)`` checks that its matrix is
well defined; ``AbHom._derived`` builds the homs that are well defined by
construction without that check: composites, identities, zero maps,
proven inverses and the induced maps of validated chain maps.
"""

from __future__ import annotations

import re
from math import gcd, prod

from .intmat import (
    ContainmentViolation,
    IntMatrix,
    NotInLattice,
    _cokernel,
    _coordinate_columns,
    _kept_hash,
    _put,
    _relations,
    _snf_ext,
    _unit_columns,
    _Value,
    _vstack,
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


class FgAbGroup(_Value):
    __match_args__ = ("rank", "torsion")
    __slots__ = (*__match_args__, "_hash")
    __hash__ = _kept_hash

    def __init__(self, rank: int, torsion: tuple = ()):
        self._init(rank, torsion)
        if rank < 0:
            raise ValueError("negative rank")
        prev = None
        for d in torsion:
            if d < 2:
                raise ValueError(f"torsion order {d} < 2")
            if prev is not None and d % prev:
                raise ValueError("torsion orders do not form a divisibility chain")
            prev = d

    def _key(self) -> tuple:
        return (self.rank, self.torsion)

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
    remaining orders are renormalized into a divisibility chain, so any
    permutation of the same multiset gives the same result.  No matrix is
    built and no integer is factored: every order d is a product of powers
    b^v_b(d) of a pairwise coprime basis (``_coprime_basis``), so Z/d is
    the sum of the Z/b^v_b(d) by CRT, and the j-th largest invariant
    factor is the product over b of b to the j-th largest exponent of b.
    """
    free = extra_free
    counts: dict = {}
    for d in diagonal:
        d = abs(d)
        if d == 0:
            free += 1
        elif d >= 2:
            counts[d] = counts.get(d, 0) + 1
    largest_first: list = []
    for b in _coprime_basis(counts):
        # (exponent of b, multiplicity), largest exponent first
        runs = sorted(((_valuation(d, b), c) for d, c in counts.items() if d % b == 0), reverse=True)
        i = 0
        for e, c in runs:
            power = b ** e
            for _ in range(c):
                if i == len(largest_first):
                    largest_first.append(1)
                largest_first[i] *= power
                i += 1
    return FgAbGroup(free, tuple(reversed(largest_first)))


def _coprime_basis(numbers) -> list:
    """Pairwise coprime integers >= 2 of which every given number >= 2 is
    a product (with repetition).  A number sharing a factor g with a basis
    element b is replaced by b / g, g and n / g; the product of all
    pending numbers drops by g >= 2 each time, so this terminates."""
    basis: list = []
    pending = list(numbers)
    while pending:
        n = pending.pop()
        if n == 1:
            continue
        for i, b in enumerate(basis):
            g = gcd(n, b)
            if g != 1:
                del basis[i]
                pending.extend((b // g, g, n // g))
                break
        else:
            basis.append(n)
    return basis


def _valuation(d: int, b: int) -> int:
    """The largest e with b^e dividing d (b >= 2, d != 0)."""
    e = 0
    while d % b == 0:
        d //= b
        e += 1
    return e


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


# the most generators a group expression may name: each generator becomes
# a tuple entry (torsion) or a cyclic factor (rank), so a short exponent
# must not ask for unbounded memory
_MAX_GENERATORS = 1_000_000


def parse_group(text: str) -> FgAbGroup:
    """Parse the group grammar: terms 'Z', 'Z^k', 'Z/d', '(Z/d)^k' joined
    by '+'; '0' is the trivial group.  At most ``_MAX_GENERATORS``
    generators in all."""
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
            d, k = None, 1  # k copies of Z/d, or of Z when d is None
            if m.group("zk") is not None:
                k = _number(m, "zk")
            elif m.group("d") is not None:
                d = _number(m, "d")
            elif m.group("pd") is not None:
                d = _number(m, "pd")
                k = _number(m, "pk")
            if d is not None and d < 2:
                raise GroupSyntaxError("torsion order must be >= 2", pos)
            if k < 1:
                raise GroupSyntaxError("exponent must be >= 1", pos)
            if rank + len(tors) + k > _MAX_GENERATORS:
                raise GroupSyntaxError(f"more than {_MAX_GENERATORS} generators", pos)
            if d is None:
                rank += k
            else:
                tors.extend([d] * k)
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
    """Free part first, then torsion in chain order; '0' when trivial.
    Orders print exactly in decimal at any size."""
    if g.is_trivial:
        return "0"
    parts = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank > 1:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{_decimal(d)}" for d in g.torsion)
    return " + ".join(parts)


# decimal digits per chunk: below 640, the least limit on int-to-string
# conversion that Python lets a program set, so str() of one chunk is
# always allowed
_CHUNK_DIGITS = 500
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(n: int) -> str:
    """str(n) for n >= 0 of any size, without Python's int-to-string
    limit: peel chunks off with divmod and print each below the limit."""
    if n < _CHUNK:
        return str(n)
    chunks = []
    while n:
        n, r = divmod(n, _CHUNK)
        chunks.append(r)
    head = str(chunks.pop())
    return head + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks))


def _relation_matrix(g: FgAbGroup) -> IntMatrix:
    """Columns order_i * e_i for each torsion generator, inside Z^n."""
    return _relations(g.generator_orders())


class AbHom(_Value):
    """Homomorphism between canonically presented groups.

    The matrix has one column per source generator and one row per
    target generator; entries in torsion rows are normalized into
    [0, order).  Construction checks well-definedness: for a source
    generator of finite order d, d times its column must lie in the
    target's relation lattice (but not in ``_derived``).
    """

    __slots__ = __match_args__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        self._init(source, target, matrix)
        self._normalize()
        t_orders = self.target.generator_orders()
        for j, d in enumerate(self.source.generator_orders()):
            if d and any(d * v % o if o else v for v, o in zip(self.matrix.col(j), t_orders)):
                raise ValueError(f"not well-defined: generator {j} of order {d} maps outside relations")

    def _key(self) -> tuple:
        return (self.source, self.target, self.matrix)

    def _normalize(self):
        m = self.matrix
        if m.rows != self.target.num_generators or m.cols != self.source.num_generators:
            raise ValueError(
                f"matrix shape {m.shape} does not match generators "
                f"({self.target.num_generators} x {self.source.num_generators})"
            )
        t_orders = self.target.generator_orders()
        if any(not 0 <= v < o for i, o in enumerate(t_orders) if o for v in m.row(i)):
            rows = m.to_rows()
            for i, o in enumerate(t_orders):
                if o:
                    rows[i] = [v % o for v in rows[i]]
            _put(self, "matrix", IntMatrix.from_rows(rows, cols=m.cols))

    @classmethod
    def _derived(cls, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix) -> "AbHom":
        """``AbHom(source, target, matrix)`` for a matrix derived from
        checked homs: normalized, but not checked again."""
        h = object.__new__(cls)
        h._init(source, target, matrix)
        h._normalize()
        return h


def identity_hom(g: FgAbGroup) -> AbHom:
    return AbHom._derived(g, g, IntMatrix.identity(g.num_generators))


def zero_hom(source: FgAbGroup, target: FgAbGroup) -> AbHom:
    return AbHom._derived(source, target, IntMatrix.zeros(target.num_generators, source.num_generators))


def compose_hom(g: AbHom, f: AbHom) -> AbHom:
    """g after f."""
    if f.target != g.source:
        raise ValueError("compose: f.target != g.source")
    return AbHom._derived(f.source, g.target, g.matrix @ f.matrix)


def _hom_snf(h: AbHom) -> tuple:
    """The SNF [h | rel] = U S V (rel: the target relations) that every
    kernel, image and inverse of h is read off, with no transform: the
    nonzero diagonal and the logs of U^-1 and V.  The columns r.. of V^-1
    (r: the rank) are a basis of ker [h | rel], and their first s rows
    (s: the source generators), the heads, are a basis of the lattice
    ker(h) = {x : h x in span(rel)}: (0, y) in ker [h | rel] forces y = 0,
    since rel's columns are independent.  Callers unpack the result."""
    return _snf_ext(IntMatrix.hstack(h.matrix, _relation_matrix(h.target)))


def _heads(h: AbHom, r: int, cols) -> IntMatrix:
    """The heads of ``_hom_snf``: the columns r.. of V^-1, replayed onto
    those unit vectors alone, cut to their first s rows."""
    n, s = cols.n, h.source.num_generators
    kernel = cols.times(_unit_columns(n, range(r, n)), inverse=True)
    return IntMatrix(s, n - r, kernel.entries[:s * (n - r)])


def _kernel_quotient(h: AbHom, d: IntMatrix) -> FgAbGroup:
    """ker(h) / span(d), for columns d that lie in ker(h).

    x lies in ker(h) exactly when h x = -rel y for some y, and then y =
    -(h x) / o on the torsion rows is the only one.  So against the heads
    of ``_hom_snf`` the coordinates of x are (V (x, y))_r.., and (V (x,
    y))_<r is zero exactly when [h | rel] (x, y) = 0 (ContainmentViolation
    otherwise).  The group is Z^k over those coordinates: one more SNF,
    with no transform.  A zero h needs neither: its kernel is the whole
    source lattice, on its own basis, so the group is read off d alone.
    """
    if h.matrix.is_zero():
        return _cokernel(d.rows, _snf_ext(d).s)
    s, _, cols = _hom_snf(h)
    r, n = len(s), cols.n
    hd = h.matrix @ d
    y = IntMatrix.from_rows([[-v // o for v in hd.row(i)] for i, o in enumerate(h.target.generator_orders()) if o],
                            cols=d.cols)
    try:
        c = _coordinate_columns(cols.times(_vstack(d, y)), (0,) * r + (1,) * (n - r), range(r, n))
    except NotInLattice as exc:
        raise ContainmentViolation(f"denominator column outside numerator lattice: {exc}") from None
    return _cokernel(c.rows, _snf_ext(c).s)


def hom_kernel(h: AbHom) -> FgAbGroup:
    """ker(h), its lattice over the source relations: two SNFs, or one
    when h is zero."""
    return _kernel_quotient(h, _relation_matrix(h.source))


def hom_image(h: AbHom) -> FgAbGroup:
    """im(h) = Z^s / ker(h), over the heads of ``_hom_snf``: two SNFs."""
    s, _, cols = _hom_snf(h)
    heads = _heads(h, len(s), cols)
    return _cokernel(heads.rows, _snf_ext(heads).s)


def is_exact_pair(g: AbHom, h: AbHom) -> bool:
    """True iff im(g) = ker(h) as subgroups of the shared middle group.

    im(g) <= ker(h) is h g = 0, read off the normalized composite; the
    middle relations lie in ker(h) because h is well defined.  ker(h) <=
    im(g) is then ker(h) / im(g) = 0, read off two SNFs
    (``_kernel_quotient``).  Never decided by order counting.
    """
    if g.target != h.source:
        raise ValueError("exactness: g.target != h.source")
    if not g.target.num_generators:
        return True  # im g = ker h = 0
    if not compose_hom(h, g).matrix.is_zero():
        return False
    return _kernel_quotient(h, IntMatrix.hstack(g.matrix, _relation_matrix(g.target))).is_trivial


def hom_subquotient(g: AbHom, h: AbHom) -> FgAbGroup:
    """ker(h) / im(g) inside the shared middle group (requires im <= ker,
    that is h g = 0): two SNFs, or one when h is zero."""
    if g.target != h.source:
        raise ValueError("subquotient: g.target != h.source")
    if not compose_hom(h, g).matrix.is_zero():
        raise ValueError("subquotient: image is not contained in the kernel")
    return _kernel_quotient(h, IntMatrix.hstack(g.matrix, _relation_matrix(g.target)))


def invert_iso(h: AbHom) -> AbHom:
    """Two-sided inverse of an isomorphism; NotAnIsomorphism otherwise.

    One SNF [h | rel] = U S V (``_hom_snf``) decides all of it, read off
    its logs with no dense transform.  h is onto iff that lattice is Z^t:
    rank t, every s_i = 1.  Its heads then generate the preimage of the
    target relations, and h is injective iff those lie in the source
    relations: 0 in free rows, a multiple of the order in torsion rows.
    The inverse is the first s rows of V^-1 [U^-1; 0], replayed onto U^-1
    stacked above zeros, which solves [h | rel] X = I; both composites are
    still verified.
    """
    s, t = h.source.num_generators, h.target.num_generators
    d, rows, cols = _hom_snf(h)
    if d != (1,) * t:
        raise NotAnIsomorphism("not surjective")
    heads = _heads(h, t, cols)
    for i, o in enumerate(h.source.generator_orders()):
        if any(v % o if o else v for v in heads.row(i)):
            raise NotAnIsomorphism("kernel is nontrivial")
    x = cols.times(_vstack(rows.times(IntMatrix.identity(t)), IntMatrix.zeros(cols.n - t, t)), inverse=True)
    sol = IntMatrix(s, t, x.entries[:s * t])
    # well defined unchecked: h g e_i = e_i modulo the target relations, so
    # for e_i of order o, h(o g e_i) lies in them, and injectivity puts
    # o g e_i in the source relations
    g = AbHom._derived(h.target, h.source, sol)
    if (compose_hom(g, h).matrix != IntMatrix.identity(s)
            or compose_hom(h, g).matrix != IntMatrix.identity(t)):
        raise NotAnIsomorphism("candidate inverse failed verification")
    return g
