"""TUDataset-format corpus ingestion and the Corpus container.

The TU text format: DS_A.txt lists directed edge pairs of 1-based global
vertex ids (undirected edges appear in both directions), DS_graph_indicator.txt
maps each vertex to its 1-based graph id, and optional DS_node_labels.txt /
DS_edge_labels.txt carry one categorical label per vertex / per DS_A line.
Continuous-attribute files (DS_node_attributes.txt etc.) are ignored.
"""

from __future__ import annotations

import contextlib
import glob
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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


def _read_labels(path: str, count: int, miscount: str) -> Optional[List[int]]:
    """A label file's labels as dense ids 0..K-1 in sorted order of the raw
    values, or None if there is no such file; DatasetError(miscount) unless
    it holds count labels."""
    if not os.path.exists(path):
        return None
    raw = [int(x) for x in _read_lines(path)]
    if len(raw) != count:
        raise DatasetError(miscount)
    dense = {v: i for i, v in enumerate(sorted(set(raw)))}
    return [dense[v] for v in raw]


def _prefixes(directory: str) -> List[str]:
    """The sorted prefixes of the *_A.txt files in directory, one per TU
    dataset in it."""
    a_files = glob.glob(os.path.join(glob.escape(directory), "*_A.txt"))
    return sorted(os.path.basename(f)[: -len("_A.txt")] for f in a_files)


def load_tu_dataset(directory: str) -> Corpus:
    """Parse a TU-format dataset directory into a Corpus.

    Vertex ids are reindexed per graph from 0; both directions of an
    undirected edge collapse to one; label vocabularies are remapped to dense
    ids 0..K-1 in sorted order of the raw values.
    """
    if not os.path.isdir(directory):
        raise DatasetError(f"not a directory: {directory}")
    prefixes = _prefixes(directory)
    if not prefixes:
        raise DatasetError(f"no *_A.txt in {directory}")
    if len(prefixes) > 1:
        raise DatasetError(f"multiple *_A.txt files in {directory}")
    prefix = prefixes[0]

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

    # Each graph's vertices as global ids from 0, and each vertex's (graph, local id).
    members: List[List[int]] = [[] for _ in range(num_graphs)]
    local: List[Tuple[int, int]] = []
    for x, gid in enumerate(indicator):
        local.append((gid - 1, len(members[gid - 1])))
        members[gid - 1].append(x)

    pairs: List[Tuple[int, int]] = []
    for lineno, line in enumerate(_read_lines(path("A")), 1):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DatasetError(f"{prefix}_A.txt:{lineno}: expected two ids")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u <= len(indicator) and 1 <= v <= len(indicator)):
            raise DatasetError(f"{prefix}_A.txt:{lineno}: dangling vertex id")
        pairs.append((u, v))

    node_labels = _read_labels(
        path("node_labels"), len(indicator), "node label count != vertex count"
    )
    edge_labels = _read_labels(
        path("edge_labels"), len(pairs), "edge label count != edge line count"
    )

    # Each graph's edges, keyed (i, j) with i <= j, with their labels.
    edges_of: List[Dict[Tuple[int, int], Optional[int]]] = [{} for _ in members]
    for k, (u, v) in enumerate(pairs):
        (gu, lu), (gv, lv) = local[u - 1], local[v - 1]
        if gu != gv:
            raise DatasetError(f"edge ({u}, {v}) crosses graphs")
        label = edge_labels[k] if edge_labels is not None else None
        if edges_of[gu].setdefault((min(lu, lv), max(lu, lv)), label) != label:
            raise DatasetError(f"conflicting labels for edge ({u}, {v})")

    graphs = []
    for xs, edges in zip(members, edges_of):
        vertex_attrs = [node_labels[x] for x in xs] if node_labels is not None else None
        edge_attrs = edges if edge_labels is not None else None
        graphs.append(Graph(len(xs), edges, vertex_attrs, edge_attrs))
    return Corpus(tuple(graphs), prefix, node_labels is not None, edge_labels is not None)


def write_tu_dataset(corpus: Corpus, directory: str, name: Optional[str] = None) -> None:
    """Write a corpus back out in TU text format (both edge directions).

    All lines are built before anything is created, so a corpus with no
    graphs or a graph with no vertices, which the format cannot hold, raises
    DatasetError first, as does a directory that holds another prefix's
    dataset, which would then not load: an earlier write of the same prefix
    is overwritten, and its label files that the corpus has no labels for
    are removed."""
    if not corpus.graphs:
        raise DatasetError("the corpus has no graphs; the TU format cannot hold it")
    files: Dict[str, List[str]] = {"graph_indicator": [], "A": []}
    if corpus.has_edge_attrs:
        files["edge_labels"] = []
    if corpus.has_vertex_attrs:
        files["node_labels"] = []
    offset = 0
    for gi, g in enumerate(corpus.graphs, 1):
        if g.n == 0:
            raise DatasetError(f"graph {gi} has no vertices; the TU format cannot hold it")
        files["graph_indicator"] += [str(gi)] * g.n
        for (i, j), label in sorted(zip(g.edges, g.edge_attrs or repeat(None))):
            u, v = i + offset + 1, j + offset + 1
            directed = [f"{u}, {v}"] if i == j else [f"{u}, {v}", f"{v}, {u}"]
            files["A"] += directed
            if corpus.has_edge_attrs:
                files["edge_labels"] += [str(label)] * len(directed)
        if corpus.has_vertex_attrs:
            files["node_labels"] += map(str, g.vertex_attrs)
        offset += g.n
    prefix = name or corpus.name
    others = [p for p in _prefixes(directory) if p != prefix]
    if others:
        raise DatasetError(f"{directory} holds another dataset, {others[0]}")
    os.makedirs(directory, exist_ok=True)
    for suffix in ("node_labels", "edge_labels"):
        if suffix not in files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(directory, f"{prefix}_{suffix}.txt"))
    for suffix, lines in files.items():
        with open(os.path.join(directory, f"{prefix}_{suffix}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
