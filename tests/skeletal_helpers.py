"""The skeletal check's collapse of a mapping cone onto the next filtration
quotient, which the package no longer builds: the check reads the collapse
in cell coordinates, as the cone's inclusion at the top level.  The tests
build it to pin its bytes (``tests/data/constructions.txt``), to check it
is a valid chain map, and to rebuild each level's connecting composite the
long way, through its induced map, for comparison with the check's."""

from cwhom.abgroups import compose_hom, invert_iso
from cwhom.chainmaps import ChainMap, MappingCone, connecting_map, induced_map
from cwhom.complexes import CwComplex, quotient_by_skeleton
from cwhom.intmat import _ones, _unit_columns
from cwhom.verify import _cell_basis_iso


def collapse_comparison(cone: MappingCone, q_next: CwComplex) -> ChainMap:
    """cone(Q_k -> W_k) -> Q_{k+1}: identity on the top cells of W_k,
    everything else to the basepoint.  The cone's n-cells start with
    W_k's (``mapping_cone``), whose top cells are Q_{k+1}'s, so level
    n >= 1 is the transposed unit columns of the first Q_{k+1}.cells_at(n)
    cells, and level 0 sends every vertex to Q_{k+1}'s single one."""
    c = cone.cone
    maps = [_ones(c.cells[0])]
    maps += [_unit_columns(c.cells_at(n), range(q_next.cells_at(n))).transpose()
             for n in range(1, max(c.dim, q_next.dim) + 1)]
    return ChainMap(c, q_next, tuple(maps))


def composite_through_collapse(j: ChainMap, cone: MappingCone, k: int, coeff):
    """Level k's connecting composite G^{c_k} -> G^{c_{k+1}} built the long
    way: the collapse's induced map inverted, after the connecting map of
    j, between the cell-basis isomorphisms of Q_k and Q_{k+1}."""
    collapse = collapse_comparison(cone, quotient_by_skeleton(j.target, k))
    q_star = induced_map(collapse, k + 1, coeff, "cohomology", reduced=True)
    delta = compose_hom(invert_iso(q_star), connecting_map(j, k, coeff, cone))
    here = invert_iso(_cell_basis_iso(j.source, k, coeff))
    return compose_hom(_cell_basis_iso(collapse.target, k + 1, coeff), compose_hom(delta, here))
