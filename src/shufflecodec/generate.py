"""Synthetic graph generators for tests and experiments."""

from __future__ import annotations

import random
from typing import Optional

from .datasets import Corpus
from .graphs import Graph, graph_pairs


def sample_er_graph(
    rng: random.Random,
    n: int,
    p: float,
    vertex_alphabet: Optional[int] = None,
    edge_alphabet: Optional[int] = None,
    self_loops: bool = False,
) -> Graph:
    edges = [e for e in graph_pairs(n, self_loops) if rng.random() < p]
    vertex_attrs = (
        [rng.randrange(vertex_alphabet) for _ in range(n)]
        if vertex_alphabet
        else None
    )
    edge_attrs = (
        {e: rng.randrange(edge_alphabet) for e in edges} if edge_alphabet else None
    )
    return Graph(n, edges, vertex_attrs, edge_attrs)


def sample_pa_graph(rng: random.Random, n: int, attachment: int = 2) -> Graph:
    """Preferential-attachment graph: each arriving vertex attaches to
    `attachment` distinct existing vertices chosen with probability
    proportional to degree + 1."""
    if n < attachment + 1:
        raise ValueError("need more vertices than the attachment count")
    edges = set()
    degree = [0] * n
    for v in range(1, n):
        k = min(attachment, v)
        targets = set()
        while len(targets) < k:
            weights = [degree[u] + 1 for u in range(v)]
            total = sum(weights)
            r = rng.randrange(total)
            for u in range(v):
                r -= weights[u]
                if r < 0:
                    break
            targets.add(u)
        for u in targets:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, edges)


def generate_corpus(
    kind: str = "er",
    num: int = 100,
    n: int = 16,
    n_jitter: int = 4,
    p: float = 0.3,
    attachment: int = 2,
    vertex_alphabet: int = 0,
    edge_alphabet: int = 0,
    seed: int = 0,
) -> Corpus:
    """`num` seeded ER (`kind="er"`) or PA (`kind="pa"`) graphs on n ± n_jitter
    vertices, named by their parameters: ER500-n16-p0.3-v5-e3, PA100-n50-a2.
    An alphabet of 0 gives no attributes; PA graphs have none."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(num):
        size = n + rng.randint(-n_jitter, n_jitter)
        if kind == "er":
            attrs = (vertex_alphabet or None, edge_alphabet or None)
            graphs.append(sample_er_graph(rng, max(size, 0), p, *attrs))
        else:
            graphs.append(sample_pa_graph(rng, max(size, attachment + 1), attachment))
    if kind == "pa":
        return Corpus(tuple(graphs), f"PA{num}-n{n}-a{attachment}", False, False)
    name = f"ER{num}-n{n}-p{p:g}"
    if vertex_alphabet:
        name += f"-v{vertex_alphabet}"
    if edge_alphabet:
        name += f"-e{edge_alphabet}"
    return Corpus(tuple(graphs), name, bool(vertex_alphabet), bool(edge_alphabet))
