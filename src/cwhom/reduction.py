"""Chain-equivalent reduction of a complex by cancelling unit pivots.

A pair of cells sigma in C_n and tau in C_{n-1} whose boundary
coefficient p = <d sigma, tau> is a unit (+-1) can be cancelled without
changing the chain homotopy type (Kaczynski, Mischaikow and Mrozek,
*Computational Homology*, ch. 4; Mrozek and Batko, "Coreduction homology
algorithm").  Splitting B_n along row tau and column sigma as
[[p, b], [c, D]], the cancellation

- replaces B_n by D - c p b (p is its own inverse), a rank-one update,
- deletes row sigma of B_{n+1} and column tau of B_{n-1},

and comes with chain maps f: C -> C' and g: C' -> C with f g = id and
g f homotopic to id, equal to the identity except at

- f_{n-1}(t tau + a) = a - p t c, and f_n, which drops sigma;
- g_n(x) = x - p (b . x) sigma, and g_{n-1}, which includes.

The pivots are units, so the reduction is over Z and stays a chain
equivalence after tensoring or dualizing with any cyclic group; callers
still compute every coefficient factor directly on the residual complex.
No pair is ever cancelled against the augmentation, so g_0 is a
coordinate inclusion and the carried augmentation e' = e g_0 is again the
all-ones row: the residual is an ordinary complex.

Pairs are cancelled in two phases.  Phase 1 coreduces from the
basepoint b: it takes columns from a FIFO queue seeded with b's cofaces,
and cancels a column sigma when it holds exactly one entry tau off row b
(in B_1; in B_n, n > 1, one entry at all) and that entry is a unit.  In
B_1 the rank-one update then touches only row b: the edge's other end
is merged into b.  Above B_1 tau is a free face, and there is no fill.
Each cancellation queues the columns it shortened, so the cascade climbs
dimensions, at a cost linear in the entries it touches.  Phase 1 stops
when its queue runs dry, and leaves every cell it did not cancel to
phase 2; a complex whose basepoint starts no pair costs it one scan of
row b.  Phase 2 cancels the units left in order of least fill, the
Markowitz cost (|row tau| - 1)(|column sigma| - 1) in B_n, ties going to
the lowest (n, sigma, tau), until no unit entry is left.  Matrices stay
sparse columns with a row index throughout; only the residual is made
dense.
"""

from __future__ import annotations

import heapq
from collections import deque

from .complexes import CwComplex
from .intmat import IntMatrix, _nonzeros, _sparse_columns

__all__ = ["Reduction", "reduce_complex"]


class Reduction:
    """A complex's residual together with the chain maps f and g.

    ``cells`` are the original cell counts.  ``keep[m]`` lists, ascending,
    the original m-cells that survive as the basis of the residual C'_m.
    ``steps[m]`` records, in cancellation order, every cancellation that
    removed an m-cell, as ``(cell, p, vector, upper)``: ``upper`` marks
    the cell as the sigma of its pair, with ``vector`` = b; otherwise it
    is the tau, with ``vector`` = c.
    """

    # a plain class, as every value in the package is (``intmat._Value``):
    # dataclasses cost about 20 ms and 1 MB at every CLI start
    __slots__ = ("residual", "cells", "keep", "steps")

    def __init__(self, residual: CwComplex, cells: tuple, keep: tuple, steps: tuple):
        self.residual = residual
        self.cells = cells
        self.keep = keep
        self.steps = steps

    def push(self, n: int, v, dual: bool = False) -> tuple:
        """f_n(v) on chains, or g_n^T(v) on cochains when ``dual``:
        an ambient vector in residual coordinates."""
        w = dict(_nonzeros(v))
        for cell, p, vec, upper in self.steps[n]:
            t = w.pop(cell, 0)
            if t and upper == dual:
                for j, a in vec.items():
                    w[j] = w.get(j, 0) - p * t * a
        return tuple(w.get(j, 0) for j in self.keep[n])

    def pull(self, n: int, x, dual: bool = False) -> tuple:
        """g_n(x) on chains, or f_n^T(x) on cochains when ``dual``:
        a residual vector back in the ambient cell space."""
        w = dict(zip(self.keep[n], x))
        for cell, p, vec, upper in reversed(self.steps[n]):
            if upper != dual:
                w[cell] = -p * sum(a * w.get(j, 0) for j, a in vec.items())
        return tuple(w.get(j, 0) for j in range(self.cells[n]))


def reduce_complex(x: CwComplex) -> Reduction | None:
    """Cancel unit pivots until none is left; None when x has no unit
    boundary entry, so nothing would be cancelled."""
    if not any(v == 1 or v == -1 for b in x.boundaries for v in b.entries):
        return None
    top = x.dim
    # cols[n][sigma][tau] and rows[n][tau][sigma] both hold B_n[tau, sigma];
    # cols[n] keys the live n-cells, rows[n] the live (n-1)-cells
    cols = [None]
    rows = [None]
    for n in range(1, top + 1):
        sc = [dict(col) for col in _sparse_columns(x.boundary(n))]
        sr = [{} for _ in range(x.cells[n - 1])]
        for j, col in enumerate(sc):
            for i, v in col.items():
                sr[i][j] = v
        cols.append(dict(enumerate(sc)))
        rows.append(dict(enumerate(sr)))
    steps = [[] for _ in range(top + 1)]
    _coreduce(cols, rows, steps, x.basepoint)
    _markowitz(cols, rows, steps)

    keep = [sorted(rows[1])] + [sorted(cols[n]) for n in range(1, top + 1)]
    bnds = []
    for n in range(1, top + 1):
        at = {t: i for i, t in enumerate(keep[n - 1])}
        width = len(keep[n])
        ent = [0] * (len(keep[n - 1]) * width)
        for j, s in enumerate(keep[n]):
            for t, v in cols[n][s].items():
                ent[at[t] * width + j] = v
        bnds.append(IntMatrix(len(keep[n - 1]), width, tuple(ent)))
    residual = CwComplex(tuple(len(k) for k in keep), tuple(bnds), 0, x.name)
    return Reduction(residual, x.cells, tuple(tuple(k) for k in keep),
                     tuple(tuple(s) for s in steps))


def _cancel(cols, rows, steps, n, s, t):
    """Cancel the unit pair (s, t) of B_n and record it.  Returns the row t
    and column s split off (without the pivot), and the columns of B_{n+1}
    that lost row s and the rows of B_{n-1} that lost column t."""
    # split off row t (b) and column s (c), then D <- D - c p b
    col = cols[n].pop(s)
    row = rows[n].pop(t)
    p = col.pop(t)
    del row[s]
    for i in col:
        del rows[n][i][s]
    for j in row:
        del cols[n][j][t]
    for i, ci in col.items():
        ri = rows[n][i]
        for j, bj in row.items():
            v = ri.get(j, 0) - p * ci * bj
            if v:
                ri[j] = cols[n][j][i] = v
            else:
                del ri[j], cols[n][j][i]
    steps[n].append((s, p, row, True))
    steps[n - 1].append((t, p, col, False))
    above = rows[n + 1].pop(s) if n + 1 < len(cols) else {}
    for j in above:
        del cols[n + 1][j][s]
    below = cols[n - 1].pop(t) if n > 1 else {}
    for i in below:
        del rows[n - 1][i][t]
    return row, col, above, below


def _coreduce(cols, rows, steps, b):
    """Phase 1: coreduction from the basepoint b.  Columns are taken from
    a FIFO queue seeded with b's cofaces; a column is a pair when it holds
    exactly one entry off row b of B_1, a unit.  Each cancellation queues
    the columns it shortened, the cofaces of the pair's lower cell and of
    its upper one, so the cascade climbs dimensions."""
    queue = deque((1, s) for s in rows[1].get(b, ()))
    while queue:
        n, s = queue.popleft()
        col = cols[n].get(s)
        if col is None or len(col) - (n == 1 and b in col) != 1:
            continue
        t = next(i for i in col if i != b or n > 1)
        if col[t] != 1 and col[t] != -1:
            continue
        row, _, above, _ = _cancel(cols, rows, steps, n, s, t)
        queue.extend((n, j) for j in row)
        queue.extend((n + 1, j) for j in above)


def _markowitz(cols, rows, steps):
    """Phase 2: cancel the unit entries left in order of least fill, ties
    going to the lowest (n, sigma, tau)."""
    heap = []

    def fill(n, s, t):
        return (len(rows[n][t]) - 1) * (len(cols[n][s]) - 1)

    def push_col(n, s, skip=()):
        for t, v in cols[n][s].items():
            if (v == 1 or v == -1) and t not in skip:
                heapq.heappush(heap, (fill(n, s, t), n, s, t))

    def push_row(n, t):
        for s, v in rows[n][t].items():
            if v == 1 or v == -1:
                heapq.heappush(heap, (fill(n, s, t), n, s, t))

    for n in range(1, len(cols)):
        for s in cols[n]:
            push_col(n, s)

    while heap:
        cost, n, s, t = heapq.heappop(heap)
        col = cols[n].get(s)
        if col is None or col.get(t) not in (1, -1):
            continue
        if cost != fill(n, s, t):
            continue  # stale: an entry with the current cost was pushed too
        row, col, above, below = _cancel(cols, rows, steps, n, s, t)
        # every unit whose row or column changed length gets its new cost
        for i in col:
            push_row(n, i)
        for j in row:
            push_col(n, j, skip=col)
        for j in above:
            push_col(n + 1, j)
        for i in below:
            push_row(n - 1, i)
