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
h^0(Q_0) is G to the number of vertices), produces the composite
connecting map h^k(Q_k) -> h^{k+1}(Q_{k+1}) through the mapping cone of
Q_k -> X_{k+1}/X_{k-1}, and then verifies that (a) the subquotients of
the resulting cochain complex agree with reduced cohomology, (b) each
h^k(Q_k) is free of rank c_k over G on cell generators, and (c) written
in cell coordinates the composite maps are the transposed boundary
matrices up to a consistent choice of generator signs.  The quotients,
inclusions, cones and collapse maps do not depend on G, so they are built
once per complex (``_skeletal_tower``), as the suspension is for the
shift isomorphism (``chainmaps._suspended``).

The checks meet the same homs again and again: across the coefficient
groups, in equal complexes under other names, and between checks.  Every
inversion, exactness test and subquotient therefore reads through a
bounded memo keyed by value (``_inverse``, ``_exact``, ``_subquotient``;
``AbHom`` is frozen and hashed by its source, target and matrix).  Each
distinct value is still proved in full, once: an isomorphism is
inverted and its inverse verified both ways, and a failure is not
cached, so a hom that is not invertible is tried again, with the same
witness, every time it is met.  The skeletal check's per-k work is
memoized the same way one layer up: each filtration quotient's part (b)
and cell-basis isomorphism, keyed by (Q_k, k, G), and each level's
connecting composite and part (c) comparison, keyed by (level, k, G,
B_{k+1}), are proved once per distinct value, and a failed proof is not
kept.  Spheres, Moore spaces, RP^n and lens spaces share wedges of
spheres as quotients.
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
    MappingCone,
    _basepoint_differences,
    _cone,
    _inclusion,
    connecting_map,
    identity_map,
    inclusion_map,
    induced_map,
    mapping_cone,
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
from .homology import _glue, _induced, cells_presentation, chain_group, cohomology
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


def _wedge_inclusions(xs) -> list[ChainMap]:
    """The evident pointed inclusions X_k -> wedge(xs), all into one
    wedge: level n of X_k is the unit columns at the wedge indices that
    ``complexes._wedge_cells`` gives X_k's n-cells, the layout ``wedge``
    itself is built from."""
    return list(_wedged(tuple(xs), tuple(x.name for x in xs)))


@lru_cache(maxsize=16)
def _wedged(xs: tuple, names: tuple) -> tuple:
    # built once per summands and names (which name the wedge) for the
    # wedge check, which visits it with every coefficient group; kept, the
    # wedge keeps its chain_group memo for the equal complexes met later
    # (the cone of a degree-0 sphere map is S^1 v S^2); without it one
    # battery computes 20 more chain groups and 9 more reductions
    w = wedge(xs)
    return tuple(_born_valid(ChainMap(x, w, tuple(_unit_columns(c, idx) for c, idx in zip(w.cells, at))))
                 for x, at in zip(xs, _wedge_cells(xs)[1]))


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


def check_wedge(xs, coeff: FgAbGroup) -> CheckReport:
    """Restriction along the inclusions identifies reduced h^n of a wedge
    with the direct sum over the factors."""
    xs = list(xs)
    incs = _wedge_inclusions(xs)
    w = incs[0].target
    rep = CheckReport("wedge", _subject(w), coeff, range(0, w.dim + 2))
    for n in rep.dims:
        restricted = _stack_homs(
            [induced_map(i, n, coeff, "cohomology", reduced=True) for i in incs]
        )
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


def _filtration_quotient(x: CwComplex, k: int) -> CwComplex:
    """Q_k = X_k / X_{k-1} for k >= 1; Q_0 = X_0 with a disjoint basepoint."""
    if k == 0:
        return add_disjoint_basepoint(skeleton(x, 0))
    return quotient_by_skeleton(skeleton(x, k), k - 1)


def _double_quotient(x: CwComplex, k: int) -> CwComplex:
    """W_k = X_{k+1} / X_{k-1} (with the same bottom convention as Q_k),
    so that W_k / Q_k is Q_{k+1}."""
    if k == 0:
        return add_disjoint_basepoint(skeleton(x, 1))
    return quotient_by_skeleton(skeleton(x, k + 1), k - 1)


def _collapse_comparison(cone: MappingCone, q_next: CwComplex) -> ChainMap:
    """cone(Q_k -> W_k) -> Q_{k+1}: identity on the top cells of W_k,
    everything else to the basepoint.  The cone's n-cells start with
    W_k's (``chainmaps.mapping_cone``), whose top cells are Q_{k+1}'s, so
    level n >= 1 is the transposed unit columns of the first
    Q_{k+1}.cells_at(n) cells, and level 0 sends every vertex to Q_{k+1}'s
    single one."""
    c = cone.cone
    maps = [_ones(c.cells[0])]
    maps += [_unit_columns(c.cells_at(n), range(q_next.cells_at(n))).transpose()
             for n in range(1, max(c.dim, q_next.dim) + 1)]
    return _born_valid(ChainMap(c, q_next, tuple(maps)))


@lru_cache(maxsize=64)
def _skeletal_tower(x: CwComplex) -> tuple:
    """The coefficient-free part of the skeletal check, built once per
    complex: (Q_0, ..., Q_dim) and, for each k < dim, (j, cone(j),
    collapse) with j: Q_k -> W_k the inclusion and collapse: cone(j) ->
    Q_{k+1}.  Bounded, with headroom over the 19 distinct complexes of
    one battery.  Built from a nameless copy of x: equal complexes with
    different names share an entry, and no cached name can reach a
    report."""
    x = x.with_name("")
    quotients = tuple(_filtration_quotient(x, k) for k in range(x.dim + 1))
    levels = []
    for k in range(x.dim):
        j = _born_valid(_inclusion(quotients[k], _double_quotient(x, k)))
        cone = mapping_cone(j)
        levels.append((j, cone, _collapse_comparison(cone, quotients[k + 1])))
    return quotients, tuple(levels)


def _cell_basis_iso(q: CwComplex, k: int, coeff: FgAbGroup) -> AbHom:
    """k_k : h^k(Q_k; G) -> G^{c_k} on cell generators."""
    tgt = cells_presentation(q.cells_at(k) if k >= 1 else q.cells[0] - 1, coeff)
    src = chain_group(q, k, coeff, "cohomology", True)
    t = IntMatrix.identity(q.cells_at(k)) if k >= 1 else _basepoint_differences(q)
    return _induced(src, tgt, t)


# The per-k proofs of the skeletal check, keyed by value like the memos
# above: the corpus shares filtration quotients (wedges of spheres) and
# levels across complexes.  Sized with headroom over the distinct keys of
# one battery (55 and 105).


@lru_cache(maxsize=128)
def _quotient_proof(q: CwComplex, k: int, coeff: FgAbGroup) -> tuple:
    """Part (b) for Q_k: the witnesses of every h^n(Q_k), n != k, that is
    not trivial, then the cell-basis isomorphism and its proven inverse."""
    witnesses = []
    for n in range(q.dim + 1):
        if n == k:
            continue
        g = cohomology(q, n, coeff, reduced=True).group
        if not g.is_trivial:
            witnesses.append(f"h^{n}(Q_{k}) = {g}, expected 0")
    try:
        iso = _cell_basis_iso(q, k, coeff)
        return tuple(witnesses), iso, _inverse(iso)
    except NotAnIsomorphism as e:
        raise IsoTransportFailure(f"h^{k}(Q_{k}) is not free on cells: {e}")


@lru_cache(maxsize=256)
def _level_proof(level: tuple, k: int, coeff: FgAbGroup, boundary: IntMatrix) -> tuple:
    """Level k = (j, cone(j), collapse) of the tower, for a complex whose
    B_{k+1} is ``boundary``: the connecting composite delta_k : h^k(Q_k)
    -> h^{k+1}(Q_{k+1}), and part (c)'s (k, delta_k in cell coordinates,
    B_{k+1}^T, row orders)."""
    j, cone, collapse = level
    q_star = induced_map(collapse, k + 1, coeff, "cohomology", reduced=True)
    try:
        q_inv = _inverse(q_star)
    except NotAnIsomorphism as e:
        raise IsoTransportFailure(
            f"collapse comparison at level {k} is not invertible: {e}"
        )
    delta = compose_hom(q_inv, connecting_map(j, k, coeff, cone))
    iso_next = _quotient_proof(collapse.target, k + 1, coeff)[1]
    inv_here = _quotient_proof(j.source, k, coeff)[2]
    cellwise = compose_hom(iso_next, compose_hom(delta, inv_here))
    expected = _induced(
        cells_presentation(boundary.rows, coeff),
        cells_presentation(boundary.cols, coeff),
        boundary.transpose(),
    )
    return delta, (k, cellwise.matrix, expected.matrix, cellwise.target.generator_orders())


def check_skeletal_reformulation(x: CwComplex, coeff: FgAbGroup) -> CheckReport:
    require_valid(x)
    rep = CheckReport("skeletal", _subject(x), coeff, range(0, x.dim + 1))
    dim = x.dim

    quotients, levels = _skeletal_tower(x)

    # (b) h^n(Q_k) is G^{c_k} at n = k and trivial elsewhere
    for k, q in enumerate(quotients):
        rep.witnesses.extend(_quotient_proof(q, k, coeff)[0])

    # the connecting composites h^k(Q_k) -> h^{k+1}(Q_{k+1}), with (c)'s
    # comparison at each level
    deltas, comparisons = [], []
    for k, level in enumerate(levels):
        delta, comparison = _level_proof(level, k, coeff, x.boundary(k + 1))
        deltas.append(delta)
        comparisons.append(comparison)

    top_group = chain_group(quotients[dim], dim, coeff, "cohomology", True).group
    deltas.append(zero_hom(top_group, FgAbGroup.trivial()))

    # the augmentation G -> h^0(Q_0): the cocycle with value g on every
    # original vertex and 0 on the added basepoint
    q0 = quotients[0]
    col = [[1] for _ in range(q0.cells[0])]
    col[q0.basepoint] = [0]
    aug = _induced(
        cells_presentation(1, coeff),
        chain_group(q0, 0, coeff, "cohomology", True),
        IntMatrix.from_rows(col, cols=1),
    )

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
    if "wedge" in suites:
        pairs = [
            (zoo("sphere", 1), zoo("sphere", 2)),
            (zoo("torus"), zoo("rp", 2)),
            (zoo("moore", 2, 1), zoo("sphere", 1)),
        ]
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
    return reports
