"""Cell layouts of the constructions the check battery runs: wedges,
suspensions, disjoint basepoints, skeletal quotients, mapping cones and
their inclusion, projection and collapse maps.

``tests/data/constructions.txt`` pins their bytes: canonical ``dumps`` of
every complex and the rows of every level matrix.  Regenerate it, after a
change that is meant to move those bytes, with

    PYTHONPATH=src python tests/test_constructions.py > tests/data/constructions.txt

The wedge layout is also checked against an oracle that shares nothing
with the package: each boundary of a wedge is the sum over its summands
of i_{n-1} B_n i_n^T, with the inclusions i read off the cell order.
"""

import json
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cwhom.chainmaps import (
    identity_map,
    inclusion_map,
    mapping_cone,
    sphere_self_map,
    validate_map,
)
from cwhom.complexes import (
    CwComplex,
    add_disjoint_basepoint,
    quotient_by_skeleton,
    require_valid,
    skeleton,
    suspension,
    wedge,
    zoo,
)
from cwhom.documents import complex_to_doc, dumps
from cwhom.intmat import IntMatrix
from cwhom.verify import _skeletal_tower, _wedge_inclusions, standard_corpus
from skeletal_helpers import collapse_comparison

DATA = Path(__file__).parent / "data" / "constructions.txt"


def _battery_wedges():
    return [
        [zoo("sphere", 1), zoo("sphere", 2)],
        [zoo("torus"), zoo("rp", 2)],
        [zoo("moore", 2, 1), zoo("sphere", 1)],
    ]


def _battery_les_maps():
    maps = [sphere_self_map(1, d) for d in (0, 1, 2, 6)]
    maps.append(sphere_self_map(2, 3))
    maps.append(identity_map(zoo("torus")))
    t, r = zoo("torus"), zoo("rp", 3)
    maps.append(inclusion_map(skeleton(t, 1), t))
    maps.append(inclusion_map(skeleton(r, 2), r))
    return maps


def constructions_text() -> str:
    """Every construction the battery builds, as one canonical text."""
    out = []

    def complex_(title, x):
        out.append(f"== {title}\n{dumps(complex_to_doc(x))}")

    def map_(title, f):
        levels = "".join(f"{n}: {json.dumps(m.to_rows())}\n" for n, m in enumerate(f.maps))
        out.append(f"== {title} {f.source.cells} -> {f.target.cells}\n{levels}")

    def cone_(title, c):
        complex_(f"{title} cone", c.cone)
        map_(f"{title} inclusion", c.inclusion)
        map_(f"{title} projection", c.projection)

    for x in standard_corpus():
        complex_(f"suspension {x.name}", suspension(x))
        complex_(f"disjoint basepoint {x.name}", add_disjoint_basepoint(x))
    for xs in _battery_wedges():
        label = ", ".join(x.name for x in xs)
        complex_(f"wedge {label}", wedge(xs))
        for k, inc in enumerate(_wedge_inclusions(wedge(xs), xs)):
            map_(f"wedge {label} inclusion {k}", inc)
    for x in standard_corpus():
        quotients, inclusions = _skeletal_tower(x)
        for k, q in enumerate(quotients):
            complex_(f"skeletal {x.name} Q_{k}", q)
        for k, j in enumerate(inclusions):
            # the check reads the same cone through chainmaps._cone, which
            # names it "cone" where this one is "cone(incl)"
            cone = mapping_cone(j)
            map_(f"skeletal {x.name} j_{k}", j)
            cone_(f"skeletal {x.name} level {k}", cone)
            map_(f"skeletal {x.name} collapse {k}", collapse_comparison(cone, quotient_by_skeleton(j.target, k)))
    for f in _battery_les_maps():
        cone_(f"les {f.name}", mapping_cone(f))
    return "".join(out)


def test_construction_bytes():
    assert constructions_text().encode() == DATA.read_bytes()


# ---------------------------------------------------------------------------
# the wedge layout against an independent oracle


@st.composite
def pointed_complexes(draw):
    """A valid complex of dimension <= 3 with a random basepoint, or S^0,
    or a disjoint-basepoint complex, whose basepoint is its last vertex.
    1-cells are random edges; each higher cell's boundary is an integer
    combination of kernel vectors of the boundary below: e_j for a cell j
    with zero boundary, and e_a - e_b for two cells with equal ones."""
    kind = draw(st.sampled_from(("random", "random", "sphere0", "plus")))
    if kind == "sphere0":
        return CwComplex((2,), (), draw(st.integers(0, 1)), "S0")
    c0 = draw(st.integers(1, 4))
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        s, t = draw(st.integers(0, c0 - 1)), draw(st.integers(0, c0 - 1))
        col = [0] * c0
        col[s] += 1
        col[t] -= 1
        cols.append(col)
    cells, bnds = [c0], []
    while cols and len(cells) <= 3:
        rows = cells[-1]
        cells.append(len(cols))
        bnds.append(IntMatrix.from_columns(cols, rows=rows))
        lower = [bnds[-1].col(j) for j in range(len(cols))]
        kernel = [[int(i == j) for i in range(len(cols))] for j, c in enumerate(lower) if not any(c)]
        kernel += [[int(i == a) - int(i == b) for i in range(len(cols))]
                   for a in range(len(cols)) for b in range(a + 1, len(cols)) if lower[a] == lower[b]]
        cols = []
        for _ in range(draw(st.integers(0, 3)) if kernel else 0):
            ks = draw(st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel)))
            cols.append([sum(k * v[i] for k, v in zip(ks, kernel)) for i in range(len(lower))])
    x = require_valid(CwComplex(tuple(cells), tuple(bnds), draw(st.integers(0, c0 - 1))))
    return add_disjoint_basepoint(x) if kind == "plus" else x


def _oracle_layout(xs):
    """The wedge's cell counts and, for each summand and dimension, the
    wedge index of each of its cells: the basepoint at vertex 0, every
    other cell after all the earlier summands' cells of its dimension."""
    dim = max(x.dim for x in xs)
    nxt = [1] + [0] * dim
    out = []
    for x in xs:
        at = []
        for n in range(dim + 1):
            idx = []
            for i in range(x.cells_at(n)):
                if n == 0 and i == x.basepoint:
                    idx.append(0)
                else:
                    idx.append(nxt[n])
                    nxt[n] += 1
            at.append(idx)
        out.append(at)
    return nxt, out


def _product(a, b, rows, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(rows)]


@settings(max_examples=60, deadline=None)
@given(st.lists(pointed_complexes(), min_size=1, max_size=3))
def test_wedge_boundary_is_the_sum_of_included_blocks(xs):
    w = wedge(xs)
    cells, at = _oracle_layout(xs)
    assert list(w.cells) == cells
    # iota[k][n]: the dense 0/1 inclusion of summand k's n-cells
    iota = [[[[int(i == idx[n][j]) for j in range(x.cells_at(n))] for i in range(cells[n])]
             for n in range(len(cells))] for x, idx in zip(xs, at)]
    for n in range(1, w.dim + 1):
        want = [[0] * cells[n] for _ in range(cells[n - 1])]
        for x, inc in zip(xs, iota):
            b = x.boundary(n).to_rows()
            inc_t = [list(r) for r in zip(*inc[n])]
            block = _product(_product(inc[n - 1], b, cells[n - 1], x.cells_at(n)), inc_t, cells[n - 1], cells[n])
            want = [[u + v for u, v in zip(r, s)] for r, s in zip(want, block)]
        assert w.boundary(n).to_rows() == want
    incs = _wedge_inclusions(w, xs)
    assert [(f.source, f.target) for f in incs] == [(x, w) for x in xs]
    for x, f, inc in zip(xs, incs, iota):
        assert validate_map(f) == []
        assert [m.to_rows() for m in f.maps] == inc


if __name__ == "__main__":
    sys.stdout.write(constructions_text())
