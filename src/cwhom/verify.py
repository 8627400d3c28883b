"""Mechanical verification of the axioms on concrete complexes.

Each check returns a CheckReport; `run_battery` sweeps a standard corpus
of complexes against a spread of coefficient groups.  All comparisons
are exact: group identities go through presented isomorphisms
(invert_iso, which proves bijectivity and verifies the inverse both
ways), and exactness goes through lattice containment, im <= ker as a
zero composite and ker <= im as a solve, never cardinality.

The skeletal check rebuilds the cellular cochain complex from axiomatic
ingredients alone: for each k it forms the filtration quotients
Q_k = X_k/X_{k-1} (with a disjoint basepoint glued at the bottom so that
h^0(Q_0) is G to the number of vertices) and proves (b) that each
h^k(Q_k) is free of rank c_k over G on cell generators and every other
h^n(Q_k) trivial.  Through those isomorphisms it reads, in cell
coordinates, the composite connecting map G^{c_k} -> G^{c_{k+1}}: the
connecting map of the inclusion j: Q_k -> W_k = X_{k+1}/X_{k-1}, then
the inverse of the collapse of j's mapping cone onto Q_{k+1}.  It then
verifies (a) that the subquotients of the resulting cochain complex agree
with reduced cohomology and (c) that the composite maps are the
transposed boundary matrices up to a consistent choice of generator
signs.  The quotients and the inclusions do not depend on G, so they are
built once per complex (``_skeletal_tower``), as the suspension is for
the shift isomorphism (``chainmaps._suspended``), and they are all the
tower holds.  Each j's cone is the one the les check reads
(``chainmaps._cone``), kept in j's memo; on cell generators the
connecting map is its projection at level k + 1 and the collapse its
inclusion there, so no collapse chain map is built.

The checks meet the same homs again and again: across the coefficient
groups, in equal complexes under other names, and between checks.  Every
inversion, exactness test and subquotient reads through a memo keyed by
value (``_inverse``, ``_exact``, ``_subquotient``; ``AbHom`` is frozen
and hashed by its source, target and matrix), bounded by count like
``homology.cells_presentation`` and ``cli.build_parser`` (one parser per
CLI command, and the full one).  Each distinct value is proved in full,
once: an isomorphism is inverted and its inverse verified both ways, and
a failure is not cached, so a hom that is not invertible is tried again,
with the same witness, every time it is met.
What is keyed by a complex or a chain map lives in that value's memo
(``homology._per_value``): the tower in x's, part (b) for Q_k in Q_k's,
each level's composite in cell coordinates and part (c) in its
inclusion's, beside its cone, a wedge check's restrictions in the
wedge's.
Spheres, Moore spaces, RP^n and lens spaces share wedges of spheres as
quotients.  A sphere is its own top quotient: its tower and the memo
holding it form a cycle, freed by the cyclic collector.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .abgroups import (
    AbHom,
    FgAbGroup,
    NotAnIsomorphism,
    compose_hom,
    direct_sum,
    hom_subquotient,
    invert_iso,
    is_exact_pair,
    zero_hom,
)
from .chainmaps import (
    ChainMap,
    _basepoint_differences,
    _cone,
    _inclusion,
    connecting_map,
    identity_map,
    inclusion_map,
    induced_map,
    require_valid_map,
    shift_iso,
    sphere_self_map,
)
from .complexes import (
    CwComplex,
    _born_valid,
    _wedge_cells,
    add_disjoint_basepoint,
    quotient_by_skeleton,
    require_valid,
    skeleton,
    wedge,
    zoo,
)
from .homology import _glue, _induced, _memo_of, _per_value, cells_presentation, chain_group, cohomology
from .intmat import IntMatrix, _ones, _unit_columns, _Value

__all__ = [
    "CheckReport",
    "IsoTransportFailure",
    "check_dimension",
    "check_suspension",
    "check_wedge",
    "check_les_exactness",
    "check_skeletal_reformulation",
    "equal_up_to_generator_signs",
    "standard_corpus",
    "standard_coefficients",
    "run_battery",
]


class IsoTransportFailure(ValueError):
    """An identification that the axioms promise to be invertible was not."""


class CheckReport(_Value):
    __slots__ = __match_args__ = ("check", "subject", "coeff", "dims", "witnesses")
    # filled in as the check runs: mutable, so not hashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, check: str, subject: str, coeff: FgAbGroup, dims: range, witnesses: list | None = None):
        self._init(check, subject, coeff, dims, [] if witnesses is None else witnesses)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        head = (
            f"{verdict} {self.check} {self.subject} "
            f"G={self.coeff} dims={self.dims.start}..{self.dims.stop - 1}"
        )
        lines = [head]
        lines.extend(f"    {w}" for w in self.witnesses)
        return "\n".join(lines)


def _subject(x: CwComplex) -> str:
    return x.name or str(x)


# Value-keyed memos for the exact proofs.  Each looks its primitive up in
# the module globals at call time rather than wrapping it at import, so a
# primitive replaced in this namespace (a test, a tracer) sees every miss.
# Sized with headroom over the distinct values of one battery (34, 102
# and 127).


@lru_cache(maxsize=256)
def _inverse(h: AbHom) -> AbHom:
    return invert_iso(h)


@lru_cache(maxsize=512)
def _exact(g: AbHom, h: AbHom) -> bool:
    return is_exact_pair(g, h)


@lru_cache(maxsize=512)
def _subquotient(g: AbHom, h: AbHom) -> FgAbGroup:
    return hom_subquotient(g, h)


# ---------------------------------------------------------------------------
# dimension axiom


def check_dimension(coeff: FgAbGroup, span: int = 3) -> CheckReport:
    """h^n(point) is G at n = 0 and trivial elsewhere; reduced, trivial
    everywhere."""
    pt = zoo("point")
    rep = CheckReport("dimension", "point", coeff, range(-span, span + 1))
    for n in rep.dims:
        g = cohomology(pt, n, coeff, reduced=False).group
        expected = coeff if n == 0 else FgAbGroup.trivial()
        if g != expected:
            rep.witnesses.append(f"h^{n}(point) = {g}, expected {expected}")
        gr = cohomology(pt, n, coeff, reduced=True).group
        if not gr.is_trivial:
            rep.witnesses.append(f"reduced h^{n}(point) = {gr}, expected 0")
    return rep


# ---------------------------------------------------------------------------
# suspension axiom


def check_suspension(x: CwComplex, coeff: FgAbGroup, dims: range | None = None) -> CheckReport:
    """shift h^n(X) -> h^{n+1}(susp X) is an isomorphism of presented
    groups in every dimension."""
    require_valid(x)
    rep = CheckReport("suspension", _subject(x), coeff, dims or range(0, x.dim + 2))
    # every group outside the default range is 0: no witness comes from there
    for n in range(max(rep.dims.start, 0), min(rep.dims.stop, x.dim + 2)):
        s = shift_iso(x, n, coeff)
        try:
            _inverse(s)
        except NotAnIsomorphism as e:
            rep.witnesses.append(f"dimension {n}: shift is not invertible ({e})")
    return rep


# ---------------------------------------------------------------------------
# additivity on wedges


def _wedge_inclusions(w: CwComplex, xs) -> list[ChainMap]:
    """The evident pointed inclusions X_k -> w = wedge(xs): level n of X_k
    is the unit columns at the wedge indices that ``complexes._wedge_cells``
    gives X_k's n-cells, the layout ``wedge`` itself is built from."""
    return [_born_valid(ChainMap(x, w, tuple(_unit_columns(c, idx) for c, idx in zip(w.cells, at))))
            for x, at in zip(xs, _wedge_cells(xs)[1])]


def _stack_homs(homs) -> AbHom:
    """Combine maps with a common source into one map to the canonical
    direct sum of the targets."""
    glue = _glue([h.target for h in homs])
    src = homs[0].source
    cols = []
    for j in range(src.num_generators):
        vec = []
        for h in homs:
            vec.extend(h.matrix.col(j))
        cols.append(glue.coords(vec))
    mat = IntMatrix.from_columns(cols, rows=glue.group.num_generators)
    return AbHom._derived(src, glue.group, mat)


@_per_value
def _restrictions(w: CwComplex, xs: tuple, coeff: FgAbGroup) -> tuple:
    """For each n in 0..w.dim + 1, the restriction along the inclusions
    into w = wedge(xs), from reduced h^n(w) to the canonical direct sum of
    the h^n(X_k) (``_stack_homs``).  Kept in w's memo, which nothing in xs
    reaches: a later check of an equal wedge builds no glue and runs no SNF."""
    incs = _wedge_inclusions(w, xs)
    return tuple(_stack_homs([induced_map(i, n, coeff, "cohomology", reduced=True) for i in incs])
                 for n in range(w.dim + 2))


def check_wedge(xs, coeff: FgAbGroup) -> CheckReport:
    """Restriction along the inclusions identifies reduced h^n of a wedge
    with the direct sum over the factors."""
    xs = tuple(xs)
    w = wedge(xs)
    rep = CheckReport("wedge", _subject(w), coeff, range(0, w.dim + 2))
    for n, restricted in zip(rep.dims, _restrictions(w, xs, coeff)):
        expected = FgAbGroup.trivial()
        for x in xs:
            expected = direct_sum(expected, cohomology(x, n, coeff, reduced=True).group)
        if restricted.target != expected:
            rep.witnesses.append(
                f"dimension {n}: factor sum is {restricted.target}, expected {expected}"
            )
            continue
        try:
            _inverse(restricted)
        except NotAnIsomorphism as e:
            rep.witnesses.append(f"dimension {n}: restriction is not invertible ({e})")
    return rep


# ---------------------------------------------------------------------------
# exactness


def check_les_exactness(f: ChainMap, coeff: FgAbGroup, dims: range | None = None) -> CheckReport:
    """Exactness of  h^n(Cf) -> h^n(Y) -> h^n(X) -> h^{n+1}(Cf)  at all
    three kinds of node, over the full dimension range of the cone."""
    require_valid_map(f, pointed=True)
    cone = _cone(f)
    top = cone.cone.dim
    name = f.name or f"{_subject(f.source)}->{_subject(f.target)}"
    rep = CheckReport("les-exactness", name, coeff, dims or range(-1, top + 3))

    # each map built once per degree: gamma(n - 1) is the previous
    # degree's gamma
    @cache
    def iota_star(n):
        return induced_map(cone.inclusion, n, coeff, "cohomology", reduced=True)

    @cache
    def f_star(n):
        return induced_map(f, n, coeff, "cohomology", reduced=True)

    @cache
    def gamma(n):
        return connecting_map(f, n, coeff, cone)

    # every group outside the default range is 0: no witness comes from there
    for n in range(max(rep.dims.start, -1), min(rep.dims.stop, top + 3)):
        if not _exact(gamma(n - 1), iota_star(n)):
            rep.witnesses.append(f"not exact at h^{n}(cone)")
        if not _exact(iota_star(n), f_star(n)):
            rep.witnesses.append(f"not exact at h^{n}(target)")
        if not _exact(f_star(n), gamma(n)):
            rep.witnesses.append(f"not exact at h^{n}(source)")
    return rep


# ---------------------------------------------------------------------------
# skeletal reformulation


class _SignSolver:
    """Union-find with parity: nodes are generators, an edge asserts that
    two generator signs agree (parity 0) or differ (parity 1)."""

    def __init__(self):
        self.parent = {}
        self.parity = {}

    def _find(self, a):
        """(root of a, parity of a relative to the root), compressing the
        path so that every node on it points at the root."""
        if a not in self.parent:
            self.parent[a] = a
            self.parity[a] = 0
            return a, 0
        path = []
        while self.parent[a] != a:
            path.append(a)
            a = self.parent[a]
        # walk back from the node nearest the root, accumulating parity
        p = 0
        for node in reversed(path):
            p ^= self.parity[node]
            self.parent[node] = a
            self.parity[node] = p
        return a, p

    def relate(self, a, b, rel: int) -> bool:
        """Record sign(a) = sign(b) * (-1)^rel; False on contradiction."""
        ra, pa = self._find(a)
        rb, pb = self._find(b)
        if ra == rb:
            return (pa ^ pb) == rel
        self.parent[ra] = rb
        self.parity[ra] = pa ^ pb ^ rel
        return True


def equal_up_to_generator_signs(pairs) -> str | None:
    """Given ((tag, M, N, row_orders), ...) decide whether a single
    assignment of signs to generators makes every M equal to its N with
    row i scaled by sign(tag+1, i) and column j by sign(tag, j).

    Torsion rows are compared modulo the generator order.  Returns None
    on success, otherwise a human-readable witness.
    """
    solver = _SignSolver()
    for tag, m, n_mat, row_orders in pairs:
        if m.shape != n_mat.shape:
            return f"level {tag}: shape {m.shape} != {n_mat.shape}"
        for i in range(m.rows):
            o = row_orders[i]
            for j in range(m.cols):
                a, b = m.entry(i, j), n_mat.entry(i, j)
                ok = [
                    s for s in (1, -1)
                    if (a - s * b) == 0 or (o and (a - s * b) % o == 0)
                ]
                if not ok:
                    return (
                        f"level {tag}: entry ({i},{j}) is {a}, "
                        f"expected +-{b}" + (f" mod {o}" if o else "")
                    )
                if len(ok) == 1:
                    rel = 0 if ok[0] == 1 else 1
                    if not solver.relate((tag + 1, i), (tag, j), rel):
                        return (
                            f"level {tag}: entry ({i},{j}) forces an "
                            f"inconsistent sign for generator ({tag}, {j})"
                        )
    return None


def _skeletal_quotient(x: CwComplex, top: int, k: int) -> CwComplex:
    """X_top / X_{k-1}, with X_{-1} empty and X / empty = X_+ (a disjoint
    basepoint): Q_k is (x, k, k) and W_k is (x, k + 1, k)."""
    s = skeleton(x, top)
    return add_disjoint_basepoint(s) if k == 0 else quotient_by_skeleton(s, k - 1)


@_per_value
def _skeletal_tower(x: CwComplex) -> tuple:
    """The coefficient-free part of the skeletal check, built once per
    complex and kept in x's memo: the quotients (Q_0, ..., Q_dim) and, for
    each k < dim, the inclusion j: Q_k -> W_k.  Built from a nameless copy
    of x: equal complexes with different names share it, and no kept name
    can reach a report."""
    x = x.with_name("")
    quotients = tuple(_skeletal_quotient(x, k, k) for k in range(x.dim + 1))
    return quotients, tuple(_born_valid(_inclusion(quotients[k], _skeletal_quotient(x, k + 1, k)))
                            for k in range(x.dim))


def _cell_basis_iso(q: CwComplex, k: int, coeff: FgAbGroup) -> AbHom:
    """k_k : h^k(Q_k; G) -> G^{c_k} on cell generators."""
    tgt = cells_presentation(q.cells_at(k) if k >= 1 else q.cells[0] - 1, coeff)
    src = chain_group(q, k, coeff, "cohomology", True)
    t = IntMatrix.identity(q.cells_at(k)) if k >= 1 else _basepoint_differences(q)
    return _induced(src, tgt, t)


@_per_value
def _quotient_proof(q: CwComplex, k: int, coeff: FgAbGroup) -> tuple:
    """Part (b) for Q_k: the witnesses of every h^n(Q_k), n != k, that is
    not trivial, once the cell-basis isomorphism is proved invertible."""
    witnesses = []
    for n in range(q.dim + 1):
        if n == k:
            continue
        g = cohomology(q, n, coeff, reduced=True).group
        if not g.is_trivial:
            witnesses.append(f"h^{n}(Q_{k}) = {g}, expected 0")
    try:
        _inverse(_cell_basis_iso(q, k, coeff))
    except NotAnIsomorphism as e:
        raise IsoTransportFailure(f"h^{k}(Q_{k}) is not free on cells: {e}")
    return tuple(witnesses)


@_per_value
def _level_proof(j: ChainMap, k: int, coeff: FgAbGroup, boundary: IntMatrix) -> tuple:
    """Level k of the tower, j: Q_k -> W_k, for a complex whose B_{k+1} is
    ``boundary``: the connecting composite delta_k : G^{c_k} -> G^{c_{k+1}}
    in cell coordinates, and part (c)'s (k, delta_k, B_{k+1}^T, row
    orders).  Part (b)'s isomorphisms send cell generator i to the class of
    cochain i (at k = 0, of original vertex i), so on cell generators the
    connecting map is the cone's projection at k + 1 and the collapse onto
    Q_{k+1} its inclusion there.  Inverted through ``_inverse``, the collapse
    shares the entry of an equal cell-basis isomorphism.  Kept in j's memo
    beside j's cone, whose map is ``_cone``'s nameless copy of j, not j."""
    cone = _cone(j)
    cells, cells_next = (cells_presentation(c, coeff) for c in boundary.shape)
    cochains = chain_group(cone.cone, k + 1, coeff, "cohomology", True)
    connecting = _induced(cells, cochains, cone.projection.level(k + 1).transpose())
    try:
        collapse_inv = _inverse(_induced(cells_next, cochains, cone.inclusion.level(k + 1)))
    except NotAnIsomorphism as e:
        raise IsoTransportFailure(
            f"collapse comparison at level {k} is not invertible: {e}"
        )
    delta = compose_hom(collapse_inv, connecting)
    expected = _induced(cells, cells_next, boundary.transpose())
    return delta, (k, delta.matrix, expected.matrix, delta.target.generator_orders())


def check_skeletal_reformulation(x: CwComplex, coeff: FgAbGroup) -> CheckReport:
    require_valid(x)
    rep = CheckReport("skeletal", _subject(x), coeff, range(0, x.dim + 1))
    dim = x.dim

    quotients, inclusions = _skeletal_tower(x)

    # (b) h^n(Q_k) is G^{c_k} at n = k, free on cells, and trivial elsewhere
    for k, q in enumerate(quotients):
        rep.witnesses.extend(_quotient_proof(q, k, coeff))

    # the connecting composites G^{c_k} -> G^{c_{k+1}} in cell coordinates,
    # through (b)'s isomorphisms, with (c)'s comparison at each level
    deltas, comparisons = [], []
    for k, j in enumerate(inclusions):
        delta, comparison = _level_proof(j, k, coeff, x.boundary(k + 1))
        deltas.append(delta)
        comparisons.append(comparison)
    deltas.append(zero_hom(cells_presentation(x.cells[dim], coeff).group, FgAbGroup.trivial()))

    # the augmentation G -> G^{c_0}: the cocycle with value g on every
    # original vertex, read in cell coordinates
    c0 = x.cells[0]
    aug = _induced(cells_presentation(1, coeff), cells_presentation(c0, coeff), _ones(c0).transpose())

    # (a) subquotients of the rebuilt cochain complex = reduced cohomology
    for n in range(dim + 1):
        lower = aug if n == 0 else deltas[n - 1]
        try:
            got = _subquotient(lower, deltas[n])
        except ValueError as e:
            rep.witnesses.append(f"dimension {n}: {e}")
            continue
        expected = cohomology(x, n, coeff, reduced=True).group
        if got != expected:
            rep.witnesses.append(
                f"dimension {n}: rebuilt group {got}, cellular group {expected}"
            )

    # (c) in cell coordinates every composite is the transposed boundary
    # matrix, up to one global sign per generator
    witness = equal_up_to_generator_signs(comparisons)
    if witness is not None:
        rep.witnesses.append("composite != transposed boundary: " + witness)
    return rep


# ---------------------------------------------------------------------------
# battery


def standard_corpus() -> list[CwComplex]:
    out = [zoo("point")]
    out.extend(zoo("sphere", n) for n in range(5))
    out.extend([zoo("torus"), zoo("klein"), zoo("surface", 2)])
    out.extend(zoo("rp", n) for n in range(1, 5))
    out.extend(zoo("cp", n) for n in (1, 2))
    out.extend(zoo("moore", q, n) for q in (2, 3, 5) for n in (1, 2))
    out.extend(zoo("lens", p) for p in (2, 3))
    return out


def standard_coefficients() -> list[FgAbGroup]:
    return [
        FgAbGroup.free(1),
        FgAbGroup.cyclic(2),
        FgAbGroup.cyclic(3),
        FgAbGroup.cyclic(4),
        FgAbGroup(1, (2,)),
    ]


SUITES = ("dimension", "suspension", "wedge", "les", "reformulation")


# the inputs of the last battery, held so that the next one finds their memos
_last_battery = None


def run_battery(complexes=None, coefficients=None, suites=None) -> list[CheckReport]:
    """The default verification sweep; every report should pass."""
    complexes = standard_corpus() if complexes is None else list(complexes)
    coefficients = standard_coefficients() if coefficients is None else list(coefficients)
    if suites is None or "all" in suites:
        suites = set(SUITES)
    else:
        suites = set(suites)
    reports = []
    if "dimension" in suites:
        for g in coefficients:
            reports.append(check_dimension(g))
    for x in complexes:
        for g in coefficients:
            if "suspension" in suites:
                reports.append(check_suspension(x, g))
            if "reformulation" in suites:
                reports.append(check_skeletal_reformulation(x, g))
    wedges = maps = ()
    if "wedge" in suites:
        pairs = [
            (zoo("sphere", 1), zoo("sphere", 2)),
            (zoo("torus"), zoo("rp", 2)),
            (zoo("moore", 2, 1), zoo("sphere", 1)),
        ]
        # the wedges' memos, held, keep the restrictions of every check of a
        # wedge and serve the cone of the degree-0 circle map (S^1 v S^2)
        wedges = [_memo_of(wedge(pair)) for pair in pairs]
        for a, b in pairs:
            for g in coefficients:
                reports.append(check_wedge([a, b], g))
    if "les" in suites:
        maps = [sphere_self_map(1, d) for d in (0, 1, 2, 6)]
        maps.append(sphere_self_map(2, 3))
        maps.append(identity_map(zoo("torus")))
        t = zoo("torus")
        maps.append(inclusion_map(skeleton(t, 1), t))
        r = zoo("rp", 3)
        maps.append(inclusion_map(skeleton(r, 2), r))
        for f in maps:
            for g in coefficients:
                reports.append(check_les_exactness(f, g))
    global _last_battery
    _last_battery = complexes, wedges, maps
    return reports
