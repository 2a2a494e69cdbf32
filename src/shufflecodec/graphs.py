"""Attributed graphs and the vertex-relabeling action on them.

A Graph holds a vertex count, its undirected edges as one tuple of (i, j)
pairs with i <= j (a self-loop is the edge (i, i)) in graph_pairs order, by
the larger endpoint and then the smaller, optional categorical vertex
attributes, and optional categorical edge attributes as one tuple aligned
with the edges. Equal graphs have equal tuples, and the models code the
edges and their attributes in the order they are kept; this module is the
one that knows that order. The vertex count, vertex ids and attributes are
ints (a bool or a float equal to an int is refused); the count and
attributes are non-negative. Whether loops are coded is the model
parameters' choice, not the graph's.

The pair tuples of a graph on at most PAIR_TABLE_ORDER vertices, built by
the constructor, the relabeling action or the ER decoder, are objects of
one shared table, so equal pairs of two such graphs are one object; only
their values, never their identity, are part of a graph.
"""

from __future__ import annotations

import operator
import threading
from math import isqrt
from typing import Iterable, Mapping, Optional, Sequence

from .perms import DegreeMismatch, Perm, is_perm


def _all_ints(xs: Iterable) -> bool:
    """Whether every x is an int; bools and floats equal to ints are not."""
    return set(map(type, xs)) <= {int}


def _check_edges(pairs: Iterable, n: int) -> None:
    """Raises ValueError naming the first of pairs that is not two ints in
    [0, n)."""
    for i, j in pairs:
        if not (type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i!r}, {j!r}) is not a pair of ints in [0, {n})")


def _ordered(pairs: Iterable, n: int) -> list:
    """Each pair as (i, j) with i <= j; _check_edges's ValueError for a pair
    whose ids do not order against each other, such as ("a", 1)."""
    try:
        return [(i, j) if i <= j else (j, i) for i, j in pairs]
    except TypeError:
        _check_edges(pairs, n)
        raise  # pairs was an iterator, spent past the pair


# Graphs on at most PAIR_TABLE_ORDER vertices share their pairs: _PAIRS[k]
# is the pair (i, j), i <= j, of index k = j * (j + 1) // 2 + i, the
# graph_pairs order with loops. It grows on demand, to at most 32896 pairs,
# under _GROWING, so that two threads never append the same rows.
PAIR_TABLE_ORDER = 256
_PAIRS: list = []
_GROWING = threading.Lock()


def indexed_pairs(n: int, keys: Iterable[int]) -> tuple:
    """The pairs of the pair indices keys, j * (j + 1) // 2 + i for (i, j),
    of a graph on n vertices, as a tuple in the keys' order: the shared
    table's pair objects for n <= PAIR_TABLE_ORDER, and above it new tuples,
    with one square root per run of keys in one row j."""
    if n <= PAIR_TABLE_ORDER:
        if len(_PAIRS) < n * (n + 1) >> 1:
            with _GROWING:
                rows = isqrt(2 * len(_PAIRS))  # the table holds rows j < rows
                _PAIRS.extend([(i, j) for j in range(rows, n) for i in range(j + 1)])
        return tuple(map(_PAIRS.__getitem__, keys))
    pairs = []
    j = start = end = 0  # row j holds the indices [start, end)
    for k in keys:
        if not start <= k < end:
            j = (isqrt(8 * k + 1) - 1) >> 1
            start = j * (j + 1) >> 1
            end = start + j + 1
        pairs.append((k - start, j))
    return tuple(pairs)


def pair_sorted(pairs: Iterable) -> tuple:
    """Edges (i, j), i <= j, as a tuple in graph_pairs order: by j, then i.
    Sorted by (i, j) and then stably by j, which is faster than one sort by
    (j, i) and finds sorted input in one pass."""
    return tuple(sorted(sorted(pairs), key=operator.itemgetter(1)))


class Graph:
    """Immutable-by-convention attributed graph on vertex set {0..n-1}.

    The constructor takes the edges as any iterable of pairs, in any order
    and either orientation, and the edge attributes as a Mapping from pairs
    to attributes; it keeps both as tuples in graph_pairs order."""

    __slots__ = ("n", "edges", "vertex_attrs", "edge_attrs")

    def __init__(
        self,
        n: int,
        edges: Iterable = (),
        vertex_attrs: Optional[Sequence[int]] = None,
        edge_attrs: Optional[Mapping] = None,
    ):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count {n!r} is not a nonnegative int")
        edge_list = _ordered(edges, n)
        edge_set = set(edge_list)
        if len(edge_list) != len(edge_set):
            raise ValueError("duplicate edges")
        _check_edges(edge_list, n)
        self.n = n
        self.edges = indexed_pairs(n, sorted([j * (j + 1) // 2 + i for i, j in edge_list]))
        if vertex_attrs is not None:
            vertex_attrs = tuple(vertex_attrs)
            if len(vertex_attrs) != n:
                raise ValueError("vertex attribute count != vertex count")
            if not _all_ints(vertex_attrs):
                raise ValueError("vertex attributes must be ints")
            if vertex_attrs and min(vertex_attrs) < 0:
                raise ValueError("negative vertex attribute")
        self.vertex_attrs = vertex_attrs
        if edge_attrs is not None:
            named = dict(zip(_ordered(edge_attrs, n), edge_attrs.values()))
            if len(named) != len(edge_attrs):
                raise ValueError("an edge is named twice in the edge attributes")
            if named.keys() != edge_set:
                raise ValueError("edge attributes must cover exactly the edge set")
            edge_attrs = tuple(map(named.__getitem__, self.edges))
            if not _all_ints(edge_attrs):
                raise ValueError("edge attributes must be ints")
            if edge_attrs and min(edge_attrs) < 0:
                raise ValueError("negative edge attribute")
        self.edge_attrs = edge_attrs

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def has_vertex_attrs(self) -> bool:
        return self.vertex_attrs is not None

    @property
    def has_edge_attrs(self) -> bool:
        return self.edge_attrs is not None

    def key(self) -> tuple:
        """Total-order encoding: graphs are compared/canonized under this key.
        It lists the edges, and the (edge, attribute) pairs, in (i, j) order."""
        return (
            self.n,
            self.vertex_attrs if self.vertex_attrs is not None else (),
            tuple(sorted(self.edges)),
            tuple(sorted(zip(self.edges, self.edge_attrs))) if self.edge_attrs else (),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.vertex_attrs == other.vertex_attrs
            and self.edge_attrs == other.edge_attrs
        )

    __hash__ = None  # not hashable: use key()

    def __repr__(self) -> str:
        return (
            f"Graph(n={self.n}, edges={self.edges!r},"
            f" vertex_attrs={self.vertex_attrs!r}, edge_attrs={self.edge_attrs!r})"
        )


def trusted_graph(
    n: int,
    edges: tuple,
    vertex_attrs: Optional[tuple] = None,
    edge_attrs: Optional[tuple] = None,
) -> Graph:
    """A Graph from parts that are valid by construction, without checking
    them again: edges a tuple of distinct (i, j), i <= j, inside [0, n), in
    graph_pairs order; vertex_attrs a tuple of n naturals; edge_attrs a
    tuple of naturals, one per edge in the edges' order. The pairs may be
    objects shared with other graphs (see indexed_pairs), as the relabeling
    action and the model decoders, which build their graphs this way, pass
    them."""
    g = Graph.__new__(Graph)
    g.n, g.edges = n, edges
    g.vertex_attrs, g.edge_attrs = vertex_attrs, edge_attrs
    return g


def apply_perm(s: Perm, g: Graph) -> Graph:
    """Relabel: edge {i, j} moves to {s(i), s(j)}; the attribute of vertex i
    moves to position s(i). A left group action.

    Raises DegreeMismatch for a wrong length and ValueError if s is not a
    permutation, in O(n); g's edges are valid already, so the result is
    built without checking them again. Each moved edge (a, b), a <= b, is
    sorted as its pair index b * (b + 1) // 2 + a, which orders as
    graph_pairs does."""
    n = g.n
    if len(s) != n:
        raise DegreeMismatch(f"permutation degree {len(s)} != graph order {n}")
    if not is_perm(s):
        raise ValueError(f"not a permutation: {tuple(s)!r}")
    vertex_attrs = None
    if g.vertex_attrs is not None:
        out = [0] * n
        for i, a in enumerate(g.vertex_attrs):
            out[s[i]] = a
        vertex_attrs = tuple(out)
    keys = []
    for i, j in g.edges:
        a, b = s[i], s[j]
        keys.append(a * (a + 1) // 2 + b if a >= b else b * (b + 1) // 2 + a)
    edge_attrs = None
    if g.edge_attrs is not None:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        keys = [keys[k] for k in order]
        edge_attrs = tuple([g.edge_attrs[k] for k in order])
    else:
        keys.sort()
    return trusted_graph(n, indexed_pairs(n, keys), vertex_attrs, edge_attrs)


def plain_graph(g: Graph) -> Graph:
    """The graph with its attributes dropped. It shares g's validated edge
    tuple instead of checking it again."""
    if g.vertex_attrs is None and g.edge_attrs is None:
        return g
    return trusted_graph(g.n, g.edges)


def graph_pairs(n: int, self_loops: bool = False):
    """Vertex pairs in the model coding order: for each i, all j <= i."""
    for i in range(n):
        for j in range(i + 1 if self_loops else i):
            yield (j, i)


def pair_count(n: int, self_loops: bool = False) -> int:
    return n * (n + 1) // 2 if self_loops else n * (n - 1) // 2
