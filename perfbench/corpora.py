"""Seeded corpus generators for the benchmark workloads and the diagnostic one.

Every corpus is a pure function of (workload, seed, size): the same arguments
give the same objects, so nothing is downloaded and runs are reproducible.
Object sizes follow a fixed schedule and only the structure inside each object
comes from the seed, which keeps the spread between seeds small.
"""

from __future__ import annotations

import random
import sys
from typing import List, Tuple

from shufflecodec import Corpus, Graph, apply_perm

# Objects per corpus. The benchmark repeats the corpus until its time is up.
SIZES = {"er-attr": 1000, "pa-pu": 9, "symmetric": 100, "multiset": 20}

# Alphabet masses of the multiset model; elements are drawn to match them.
MULTISET_MASSES = (1, 1)


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"{kind}:{seed}")


def er_attr(seed: int, num: int) -> Corpus:
    """Erdős–Rényi graphs, n = 16±4, p = 0.3, 5 vertex and 3 edge labels."""
    rng = _rng("er-attr", seed)
    graphs = []
    for i in range(num):
        n = 12 + i % 9
        edges = [(j, k) for k in range(n) for j in range(k) if rng.random() < 0.3]
        graphs.append(
            Graph(
                n,
                edges,
                [rng.randrange(5) for _ in range(n)],
                {e: rng.randrange(3) for e in edges},
            )
        )
    return Corpus(tuple(graphs), "er-attr", True, True)


def _preferential_attachment(rng: random.Random, n: int, attachment: int) -> Graph:
    """Each arriving vertex joins `attachment` distinct earlier vertices,
    chosen with probability proportional to degree + 1."""
    weight = [1] * n
    edges = []
    for v in range(attachment, n):
        targets = set()
        while len(targets) < attachment:
            r = rng.randrange(sum(weight[:v]))
            u = 0
            while r >= weight[u]:
                r -= weight[u]
                u += 1
            targets.add(u)
        for u in sorted(targets):
            edges.append((u, v))
            weight[u] += 1
            weight[v] += 1
    return Graph(n, edges)


def pa_pu(seed: int, num: int) -> Corpus:
    """Preferential-attachment graphs, n = 22±4, attachment 2, no labels."""
    rng = _rng("pa-pu", seed)
    graphs = [_preferential_attachment(rng, 18 + i % 9, 2) for i in range(num)]
    return Corpus(tuple(graphs), "pa-pu", False, False)


def _graph(n: int, edges) -> Graph:
    return Graph(n, list(edges))


def symmetric_family() -> List[Tuple[str, Graph]]:
    """Highly symmetric graphs from nine families, in a fixed order."""
    out = []
    for k in range(6, 16):
        out.append((f"K1,{k}", _graph(k + 1, ((0, i) for i in range(1, k + 1)))))
    for n in range(6, 16):
        out.append((f"E{n}", _graph(n, ())))
    for t in range(2, 7):
        tri = ((3 * s + a, 3 * s + b) for s in range(t) for a, b in ((0, 1), (1, 2), (0, 2)))
        out.append((f"{t}K3", _graph(3 * t, tri)))
    for n in range(5, 13):
        out.append((f"K{n}", _graph(n, ((i, j) for j in range(n) for i in range(j)))))
    for a in range(2, 7):
        for b in range(a, 7):
            out.append((f"K{a},{b}", _graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))))
    for n in range(6, 31):
        out.append((f"C{n}", _graph(n, ((i, (i + 1) % n) for i in range(n)))))
    for a in range(2, 7):
        for b in range(a, 7):
            grid = []
            for v in range(a * b):
                if v % b + 1 < b:
                    grid.append((v, v + 1))
                if v + b < a * b:
                    grid.append((v, v + b))
            out.append((f"grid{a}x{b}", _graph(a * b, grid)))
    for d in range(3, 6):
        cube = ((v, v | 1 << k) for v in range(1 << d) for k in range(d) if not v >> k & 1)
        out.append((f"Q{d}", _graph(1 << d, cube)))
    for spokes in range(2, 5):
        for twins in range(2, 5):
            # Hub 0, spokes 1..s, each spoke with `twins` pendant leaves.
            edges = [(0, s) for s in range(1, spokes + 1)]
            leaf = spokes + 1
            for s in range(1, spokes + 1):
                for _ in range(twins):
                    edges.append((s, leaf))
                    leaf += 1
            out.append((f"hub{spokes}x{twins}", _graph(leaf, edges)))
    return out


def random_perm(rng: random.Random, n: int) -> Tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def symmetric(seed: int, num: int) -> Corpus:
    """The first `num` graphs of the repeated symmetric family, each under its
    own seeded random relabeling."""
    rng = _rng("symmetric", seed)
    family = [g for _, g in symmetric_family()]
    graphs = []
    for i in range(num):
        g = family[i % len(family)]
        graphs.append(apply_perm(random_perm(rng, g.n), g))
    return Corpus(tuple(graphs), "symmetric", False, False)


def multiset(seed: int, num: int) -> List[Tuple[int, ...]]:
    """Binary sequences of lengths 10..40, elements i.i.d. with P(1) = 1/2."""
    rng = _rng("multiset", seed)
    p_one = MULTISET_MASSES[1] / sum(MULTISET_MASSES)
    return [
        tuple(int(rng.random() < p_one) for _ in range(10 + 31 * i // num))
        for i in range(num)
    ]


def generate(workload: str, seed: int, size: int):
    """The corpus of a workload: a Corpus of graphs, or for `multiset` a list
    of sequences."""
    return {"er-attr": er_attr, "pa-pu": pa_pu, "symmetric": symmetric, "multiset": multiset}[
        workload
    ](seed, size)


if __name__ == "__main__":
    # What the benchmark's setup_s times in a fresh process: start Python,
    # import the program and generate one corpus.
    generate(sys.argv[1], int(sys.argv[2]), SIZES[sys.argv[1]])
