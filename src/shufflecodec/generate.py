"""Synthetic graph generators for tests and experiments."""

from __future__ import annotations

import random
from typing import Optional

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
