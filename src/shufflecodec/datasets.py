"""TUDataset-format corpus ingestion and the Corpus container.

The TU text format: DS_A.txt lists directed edge pairs of 1-based global
vertex ids (undirected edges appear in both directions), DS_graph_indicator.txt
maps each vertex to its 1-based graph id, and optional DS_node_labels.txt /
DS_edge_labels.txt carry one categorical label per vertex / per DS_A line.
Continuous-attribute files (DS_node_attributes.txt etc.) are ignored.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .graphs import Graph


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Corpus:
    graphs: Tuple[Graph, ...]
    name: str
    has_vertex_attrs: bool
    has_edge_attrs: bool

    def __post_init__(self):
        for g in self.graphs:
            if g.has_vertex_attrs != self.has_vertex_attrs:
                raise DatasetError("inconsistent vertex attribute presence")
            if g.has_edge_attrs != self.has_edge_attrs:
                raise DatasetError("inconsistent edge attribute presence")

    @cached_property
    def self_loops(self) -> bool:
        """Whether any graph has a self-loop; scanned once per corpus."""
        return any(i == j for g in self.graphs for i, j in g.edges)

    @property
    def total_edges(self) -> int:
        return sum(g.num_edges for g in self.graphs)


def _read_lines(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def _dense_remap(values: List[int]) -> Dict[int, int]:
    return {v: i for i, v in enumerate(sorted(set(values)))}


def load_tu_dataset(directory: str) -> Corpus:
    """Parse a TU-format dataset directory into a Corpus.

    Vertex ids are reindexed per graph from 0; both directions of an
    undirected edge collapse to one; label vocabularies are remapped to dense
    ids 0..K-1 in sorted order of the raw values.
    """
    if not os.path.isdir(directory):
        raise DatasetError(f"not a directory: {directory}")
    a_files = sorted(glob.glob(os.path.join(directory, "*_A.txt")))
    if not a_files:
        raise DatasetError(f"no *_A.txt in {directory}")
    if len(a_files) > 1:
        raise DatasetError(f"multiple *_A.txt files in {directory}")
    prefix = os.path.basename(a_files[0])[: -len("_A.txt")]

    def path(suffix: str) -> str:
        return os.path.join(directory, f"{prefix}_{suffix}.txt")

    if not os.path.exists(path("graph_indicator")):
        raise DatasetError(f"missing {prefix}_graph_indicator.txt")

    indicator = [int(x) for x in _read_lines(path("graph_indicator"))]
    if not indicator:
        raise DatasetError("empty graph indicator file")
    num_graphs = max(indicator)
    if sorted(set(indicator)) != list(range(1, num_graphs + 1)):
        raise DatasetError("graph ids must cover 1..N")

    # global vertex id (1-based) -> (graph index, local id)
    local: List[Tuple[int, int]] = []
    counters = [0] * num_graphs
    for gid in indicator:
        local.append((gid - 1, counters[gid - 1]))
        counters[gid - 1] += 1

    edge_lines = _read_lines(path("A")) if os.path.exists(path("A")) else []
    raw_edges: List[Tuple[int, int]] = []
    for lineno, line in enumerate(edge_lines, 1):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetError(f"{prefix}_A.txt:{lineno}: expected two ids")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u <= len(indicator) and 1 <= v <= len(indicator)):
            raise DatasetError(f"{prefix}_A.txt:{lineno}: dangling vertex id")
        raw_edges.append((u, v))

    node_labels = None
    if os.path.exists(path("node_labels")):
        node_labels = [int(x) for x in _read_lines(path("node_labels"))]
        if len(node_labels) != len(indicator):
            raise DatasetError("node label count != vertex count")
        node_map = _dense_remap(node_labels)

    edge_labels = None
    if os.path.exists(path("edge_labels")):
        edge_labels = [int(x) for x in _read_lines(path("edge_labels"))]
        if len(edge_labels) != len(raw_edges):
            raise DatasetError("edge label count != edge line count")
        edge_map = _dense_remap(edge_labels)

    per_graph_edges: List[Dict[Tuple[int, int], Optional[int]]] = [
        {} for _ in range(num_graphs)
    ]
    for k, (u, v) in enumerate(raw_edges):
        gu, lu = local[u - 1]
        gv, lv = local[v - 1]
        if gu != gv:
            raise DatasetError(f"edge ({u}, {v}) crosses graphs")
        e = (lu, lv) if lu <= lv else (lv, lu)
        label = edge_map[edge_labels[k]] if edge_labels is not None else None
        seen = per_graph_edges[gu]
        if e in seen:
            if seen[e] != label:
                raise DatasetError(f"conflicting labels for edge ({u}, {v})")
        else:
            seen[e] = label

    vertex_attrs_of = [[0] * n for n in counters]
    if node_labels is not None:
        for (gi, li), label in zip(local, node_labels):
            vertex_attrs_of[gi][li] = node_map[label]

    graphs = []
    for gi in range(num_graphs):
        n = counters[gi]
        edges = sorted(per_graph_edges[gi])
        vertex_attrs = vertex_attrs_of[gi] if node_labels is not None else None
        edge_attrs = (
            {e: per_graph_edges[gi][e] for e in edges}
            if edge_labels is not None
            else None
        )
        graphs.append(Graph(n, edges, vertex_attrs, edge_attrs))

    return Corpus(
        tuple(graphs),
        prefix,
        has_vertex_attrs=node_labels is not None,
        has_edge_attrs=edge_labels is not None,
    )


def write_tu_dataset(corpus: Corpus, directory: str, name: Optional[str] = None) -> None:
    """Write a corpus back out in TU text format (both edge directions)."""
    os.makedirs(directory, exist_ok=True)
    prefix = name or corpus.name

    def path(suffix: str) -> str:
        return os.path.join(directory, f"{prefix}_{suffix}.txt")

    offsets = []
    total = 0
    for g in corpus.graphs:
        offsets.append(total)
        total += g.n

    with open(path("graph_indicator"), "w", encoding="utf-8") as fh:
        for gi, g in enumerate(corpus.graphs, 1):
            for _ in range(g.n):
                fh.write(f"{gi}\n")

    a_lines = []
    label_lines = []
    for g, off in zip(corpus.graphs, offsets):
        for i, j in sorted(g.edges):
            u, v = i + off + 1, j + off + 1
            a_lines.append(f"{u}, {v}")
            if corpus.has_edge_attrs:
                label_lines.append(str(g.edge_attrs[(i, j)]))
            if i != j:
                a_lines.append(f"{v}, {u}")
                if corpus.has_edge_attrs:
                    label_lines.append(str(g.edge_attrs[(i, j)]))
    with open(path("A"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(a_lines) + ("\n" if a_lines else ""))
    if corpus.has_edge_attrs:
        with open(path("edge_labels"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(label_lines) + ("\n" if label_lines else ""))
    if corpus.has_vertex_attrs:
        with open(path("node_labels"), "w", encoding="utf-8") as fh:
            for g in corpus.graphs:
                for a in g.vertex_attrs:
                    fh.write(f"{a}\n")
