"""Seeded generators of graph families whose automorphism group order has a
closed form, for the canonizer conformance suite (test_conformance.py).

Each family function returns a Graph; `FAMILIES` lists the suite's members
with their orders:

- Paley(p), p = 1 mod 4 prime: p(p-1)/2.
- Kneser K(n, 2): n!. The Petersen graph is K(5, 2).
- Hypercube Q_d: 2^d d!.
- Rook's graph K_n x K_n: 2 (n!)^2.
- a x b grid: 4, or 8 when square.
- Complete binary tree of depth d: 2^(2^d - 1).
- k copies of a connected G: |Aut(G)|^k k!.
- CFI graph over a connected base graph with n vertices, m edges and no
  automorphism, untwisted: 2^(m-n+1) (Cai, Fuerer & Immerman, "An optimal
  lower bound on the number of variables for graph identification", 1992).
  Twisting one edge gives a graph that color refinement cannot tell from
  the untwisted one, and that is not isomorphic to it.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import List, Tuple

from shufflecodec.graphs import Graph


def paley(p: int) -> Graph:
    squares = {x * x % p for x in range(1, p)}
    return Graph(p, [(i, j) for i, j in combinations(range(p), 2) if (j - i) % p in squares])


def kneser(n: int, k: int) -> Graph:
    sets = [frozenset(s) for s in combinations(range(n), k)]
    return Graph(len(sets), [(i, j) for (i, a), (j, b) in combinations(enumerate(sets), 2)
                             if not a & b])


def hypercube(d: int) -> Graph:
    return Graph(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                          if not v >> b & 1])


def rook(n: int) -> Graph:
    cells = [(r, c) for r in range(n) for c in range(n)]
    return Graph(n * n, [(i, j) for (i, a), (j, b) in combinations(enumerate(cells), 2)
                         if a[0] == b[0] or a[1] == b[1]])


def grid(a: int, b: int) -> Graph:
    edges = [(v, v + 1) for v in range(a * b) if v % b + 1 < b]
    return Graph(a * b, edges + [(v, v + b) for v in range(a * b - b)])


def binary_tree(depth: int) -> Graph:
    """The complete binary tree with 2^(depth+1) - 1 vertices, vertex v's
    children 2v+1 and 2v+2."""
    n = (1 << depth + 1) - 1
    return Graph(n, [((v - 1) // 2, v) for v in range(1, n)])


def copies(k: int, g: Graph) -> Graph:
    return Graph(k * g.n, [(c * g.n + i, c * g.n + j) for c in range(k) for i, j in g.edges])


def random_cubic(seed: int, n: int) -> Graph:
    """A connected simple cubic graph on n vertices (n even): the first
    seeded pairing of 3n half-edges with no loop, no double edge and one
    component."""
    rng = random.Random(f"cubic:{seed}:{n}")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(i != j for i, j in edges):
            g = Graph(n, sorted(edges))
            if len(_component(g, 0)) == n:
                return g


def _component(g: Graph, v: int) -> set:
    adj = {u: set() for u in range(g.n)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, frontier = {v}, [v]
    while frontier:
        for u in adj[frontier.pop()] - seen:
            seen.add(u)
            frontier.append(u)
    return seen


def cfi(base: Graph, twisted: bool = False) -> Graph:
    """The CFI graph over base: per base vertex v, one middle vertex per
    even-sized set S of v's edges and two end vertices (v, e, 0), (v, e, 1)
    per edge e at v, the middle vertex of S joined to (v, e, e in S). Each
    base edge {u, v} joins (u, e, i) to (v, e, i), or, on the first edge
    when twisted, to (v, e, 1 - i)."""
    edges_at: List[List[Tuple[int, int]]] = [[] for _ in range(base.n)]
    for e in base.edges:
        for v in e:
            edges_at[v].append(e)
    ids = {}

    def vertex(key) -> int:
        return ids.setdefault(key, len(ids))

    out = []
    for v, es in enumerate(edges_at):
        for r in range(0, len(es) + 1, 2):
            for s in combinations(es, r):
                out += [(vertex(("mid", v, s)), vertex(("end", v, e, e in s))) for e in es]
    for k, (u, v) in enumerate(base.edges):
        e = (u, v)
        for i in (0, 1):
            j = 1 - i if twisted and k == 0 else i
            out.append((vertex(("end", u, e, i)), vertex(("end", v, e, j))))
    return Graph(len(ids), out)


# (n, seed) of random_cubic graphs with no automorphism, found by canonizing
# them (test_conformance.py checks it again). No cubic graph on fewer than 12
# vertices is asymmetric.
CFI_BASES = ((12, 0),)

PETERSEN = kneser(5, 2)

# (name, graph, |Aut|)
FAMILIES = [
    *((f"Paley{p}", paley(p), p * (p - 1) // 2) for p in (13, 17, 29)),
    ("K(5,2)", PETERSEN, math.factorial(5)),
    ("K(7,2)", kneser(7, 2), math.factorial(7)),
    ("Q5", hypercube(5), 2**5 * math.factorial(5)),
    ("rook4x4", rook(4), 2 * math.factorial(4) ** 2),
    ("grid4x7", grid(4, 7), 4),
    ("grid6x6", grid(6, 6), 8),
    ("tree5", binary_tree(5), 2 ** (2**5 - 1)),
    ("5Petersen", copies(5, PETERSEN), math.factorial(5) ** 5 * math.factorial(5)),
]
