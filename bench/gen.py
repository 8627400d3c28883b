"""Seeded input generators and independent oracles for the benchmark.

Nothing here imports cwhom: the generators build boundary matrices as
plain lists, and the oracles read the expected groups off structure the
generator knows (Betti numbers of the torus, the diagonal form of a
conjugated complex).  A group is compared as ``(rank, torsion)`` with
``torsion`` the invariant factors in divisibility-chain order.
"""

from __future__ import annotations

import random
from math import gcd

TORSION_ORDERS = (2, 3, 4, 6)


# ---------------------------------------------------------------------------
# canonical groups


def _prime_powers(t: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= t:
        if t % p == 0:
            q = 1
            while t % p == 0:
                t //= p
                q *= p
            out.append((p, q))
        p += 1
    if t > 1:
        out.append((t, t))
    return out


def canonical(orders) -> tuple[int, tuple]:
    """Invariant-factor form of the direct sum of cyclic groups Z/t.

    An order 0 is a free summand Z; orders 1 are dropped.  The torsion is
    split into prime powers and reassembled, which is independent of the
    SNF route the engine takes.
    """
    rank = 0
    by_prime: dict[int, list[int]] = {}
    for t in orders:
        if t == 0:
            rank += 1
        elif t > 1:
            for p, q in _prime_powers(t):
                by_prime.setdefault(p, []).append(q)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    length = max((len(qs) for qs in by_prime.values()), default=0)
    factors = []
    for i in range(length):
        f = 1
        for qs in by_prime.values():
            if i < len(qs):
                f *= qs[i]
        factors.append(f)
    return rank, tuple(reversed(factors))


def parse_rendered_group(text: str) -> tuple[int, tuple]:
    """Read a group as the CLI renders it: 'Z^2 + Z/2 + Z/4', or '0'."""
    text = text.strip()
    if text == "0":
        return 0, ()
    orders = []
    for term in text.split(" + "):
        if term == "Z":
            orders.append(0)
        elif term.startswith("Z^"):
            orders.extend([0] * int(term[2:]))
        elif term.startswith("Z/"):
            orders.append(int(term[2:]))
        else:
            raise ValueError(f"unrecognised group term {term!r}")
    return canonical(orders)


# ---------------------------------------------------------------------------
# square-grid tori


def torus_boundaries(n: int, seed: int) -> tuple[list, list]:
    """B_1 and B_2 of the n x n square-grid torus, cells (n^2, 2n^2, n^2).

    The seed relabels the cells of every dimension and reverses the
    orientation of a random half of the edges and faces, so each seed gives
    a different matrix with the same homology.
    """
    rng = random.Random(seed * 1_000_003 + n)
    nv, ne = n * n, 2 * n * n

    def vert(i, j):
        return (i % n) * n + (j % n)

    def hor(i, j):
        return vert(i, j)

    def ver(i, j):
        return nv + vert(i, j)

    b1 = [[0] * ne for _ in range(nv)]
    for i in range(n):
        for j in range(n):
            for e, tgt in ((hor(i, j), vert(i + 1, j)), (ver(i, j), vert(i, j + 1))):
                b1[vert(i, j)][e] += 1
                b1[tgt][e] -= 1
    b2 = [[0] * nv for _ in range(ne)]
    for i in range(n):
        for j in range(n):
            f = vert(i, j)
            for e, s in ((hor(i, j), 1), (ver(i + 1, j), 1), (hor(i, j + 1), -1), (ver(i, j), -1)):
                b2[e][f] += s

    pv, pe, pf = (rng.sample(range(k), k) for k in (nv, ne, nv))
    se = [rng.choice((1, -1)) for _ in range(ne)]
    sf = [rng.choice((1, -1)) for _ in range(nv)]
    c1 = [[0] * ne for _ in range(nv)]
    for a in range(nv):
        for e in range(ne):
            c1[pv[a]][pe[e]] = b1[a][e] * se[e]
    c2 = [[0] * nv for _ in range(ne)]
    for e in range(ne):
        for f in range(nv):
            c2[pe[e]][pf[f]] = se[e] * b2[e][f] * sf[f]
    return c1, c2


def torus_doc(n: int, seed: int) -> dict:
    b1, b2 = torus_boundaries(n, seed)
    return {
        "cells": [n * n, 2 * n * n, n * n],
        "boundaries": {"1": b1, "2": b2},
        "basepoint": 0,
        "name": f"T{n}",
    }


TORUS_BETTI = (1, 2, 1)


def torus_expected(coeff_orders) -> list[tuple[int, tuple]]:
    """H_n (or H^n) of the torus with coefficients the sum of Z/t, t in
    ``coeff_orders``: the torus has free (co)homology, so each dimension is
    G^(b_n)."""
    return [canonical(list(coeff_orders) * b) for b in TORUS_BETTI]


# ---------------------------------------------------------------------------
# unimodular conjugates of diagonal complexes


def _matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def random_unimodular(m: int, rng: random.Random, ops: int, keep_last_row: bool = False):
    """(A, A^-1) built from ``ops`` elementary row operations and a signed
    permutation.  With ``keep_last_row`` the last row of A stays e_m."""
    a = [[int(i == j) for j in range(m)] for i in range(m)]
    ainv = [row[:] for row in a]
    free = m - 1 if keep_last_row else m
    for _ in range(ops):
        i = rng.randrange(free)
        j = rng.randrange(m - 1)
        j += j >= i
        c = rng.choice((1, -1, 2, -2))
        # A <- (I + c E_ij) A ; A^-1 <- A^-1 (I - c E_ij)
        ri, rj = a[i], a[j]
        a[i] = [x + c * y for x, y in zip(ri, rj)]
        for row in ainv:
            row[j] -= c * row[i]
    perm = rng.sample(range(free), free) + list(range(free, m))
    sign = [rng.choice((1, -1)) for _ in range(free)] + [1] * (m - free)
    a = [[sign[i] * v for v in a[perm[i]]] for i in range(m)]
    ainv = [[row[perm[j]] * sign[j] for j in range(m)] for row in ainv]
    return a, ainv


def conjugate_complex(k: int, rng: random.Random, ops_per_dim: int, torsion_per_dim: int):
    """A chain complex with cells (k, 2k, 2k, k) and known homology.

    The diagonal form orders the basis of C_n as [A_n | H_n | D_n]: B_n
    maps D_n onto A_{n-1} by a diagonal of units and ``torsion_per_dim``
    orders from TORSION_ORDERS, and H_n is one free class.  Every B_n is
    then conjugated, B_n' = A_{n-1} B_n A_n^-1; A_0 has column sums
    (0, ..., 0, 1), so B_1' keeps zero column sums.

    Returns the document and the diagonals ``{n: [d, ...]}``.
    """
    cells = [k, 2 * k, 2 * k, k]
    ranks = [0, k - 1, k, k - 1, 0]  # rank of B_n, n = 0..4
    diag = {}
    bnds = {}
    for n in range(1, 4):
        r = ranks[n]
        d = [1] * r
        for pos in rng.sample(range(r), torsion_per_dim):
            d[pos] = rng.choice(TORSION_ORDERS)
        diag[n] = d
        b = [[0] * cells[n] for _ in range(cells[n - 1])]
        first_d = cells[n] - r  # D_n is the last r basis vectors of C_n
        for i, v in enumerate(d):
            b[i][first_d + i] = v
        bnds[n] = b

    conj = []
    for n in range(4):
        a, ainv = random_unimodular(cells[n], rng, ops_per_dim * cells[n], keep_last_row=(n == 0))
        if n == 0:
            m = cells[0]
            e = [[1 if i == j else (-1 if i == j + 1 else 0) for j in range(m)] for i in range(m)]
            a = _matmul(e, a)
            einv = [[1 if i >= j else 0 for j in range(m)] for i in range(m)]
            ainv = _matmul(ainv, einv)
        conj.append((a, ainv))
    doc_b = {
        str(n): _matmul(_matmul(conj[n - 1][0], bnds[n]), conj[n][1]) for n in range(1, 4)
    }
    doc = {"cells": cells, "boundaries": doc_b, "basepoint": 0}
    return doc, diag


def diagonal_homology(cells, diag) -> list[tuple[int, tuple]]:
    """H_n(C; Z) of a diagonal complex: a free class per H_n basis vector
    and Z/d for every entry d >= 2 of B_{n+1}."""
    top = len(cells) - 1
    out = []
    for n in range(top + 1):
        here = diag.get(n, [])
        above = diag.get(n + 1, [])
        free = cells[n] - len(here) - len(above)
        out.append(canonical([0] * free + [d for d in above]))
    return out


def diagonal_cohomology(cells, diag, coeff_orders) -> list[tuple[int, tuple]]:
    """H^n(C; G) of a diagonal complex, G the sum of Z/m for m in
    ``coeff_orders`` (0 for Z), read off factor by factor.

    For an entry d of B_n, the cochain map is multiplication by d from the
    A_{n-1}^* coordinate to the D_n^* coordinate: over Z/m its kernel
    Z/gcd(d, m) sits in degree n-1 and its cokernel Z/gcd(d, m) in degree
    n; over Z the kernel is 0 and the cokernel Z/d.
    """
    top = len(cells) - 1
    orders = [[] for _ in range(top + 1)]
    for m in coeff_orders:
        for n in range(top + 1):
            here = diag.get(n, [])
            above = diag.get(n + 1, [])
            orders[n] += [m] * (cells[n] - len(here) - len(above))
            orders[n] += [gcd(d, m) if m else d for d in here]
            if m:
                orders[n] += [gcd(d, m) for d in above]
    return [canonical(o) for o in orders]
