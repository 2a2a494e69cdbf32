"""Attributed graphs and the vertex-relabeling action on them.

A Graph holds a vertex count, a set of undirected edges (stored as (i, j)
tuples with i <= j; a self-loop is the edge (i, i)), optional categorical
vertex attributes, and optional categorical edge attributes covering every
edge. The vertex count, vertex ids and attributes are ints (a bool or a
float equal to an int is refused); the count and attributes are
non-negative. Whether loops are coded is the model parameters' choice, not
the graph's.
"""

from __future__ import annotations

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


class Graph:
    """Immutable-by-convention attributed graph on vertex set {0..n-1}."""

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
        edge_set = frozenset(edge_list)
        if len(edge_list) != len(edge_set):
            raise ValueError("duplicate edges")
        _check_edges(edge_set, n)
        self.n = n
        self.edges = edge_set
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
            # Keyed by the edge set's own tuples: a key such as (0.0, 1)
            # equals (0, 1), and update keeps the key already present.
            edge_attrs = dict.fromkeys(edge_set)
            edge_attrs.update(named)
            if not _all_ints(edge_attrs.values()):
                raise ValueError("edge attributes must be ints")
            if edge_attrs and min(edge_attrs.values()) < 0:
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
        """Total-order encoding: graphs are compared/canonized under this key."""
        return (
            self.n,
            self.vertex_attrs if self.vertex_attrs is not None else (),
            tuple(sorted(self.edges)),
            tuple(sorted(self.edge_attrs.items())) if self.edge_attrs else (),
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
            f"Graph(n={self.n}, edges={sorted(self.edges)!r},"
            f" vertex_attrs={self.vertex_attrs!r}, edge_attrs={self.edge_attrs!r})"
        )


def trusted_graph(
    n: int,
    edges: frozenset,
    vertex_attrs: Optional[tuple] = None,
    edge_attrs: Optional[dict] = None,
) -> Graph:
    """A Graph from parts that are valid by construction, without checking
    them again: edges a frozenset of (i, j), i <= j, inside [0, n);
    vertex_attrs a tuple of n naturals; edge_attrs a dict of naturals keyed
    by exactly the edges. The relabeling action and the model decoders build
    their graphs this way."""
    g = Graph.__new__(Graph)
    g.n, g.edges = n, edges
    g.vertex_attrs, g.edge_attrs = vertex_attrs, edge_attrs
    return g


def apply_perm(s: Perm, g: Graph) -> Graph:
    """Relabel: edge {i, j} moves to {s(i), s(j)}; the attribute of vertex i
    moves to position s(i). A left group action.

    Raises DegreeMismatch for a wrong length and ValueError if s is not a
    permutation, in O(n); g's edges are valid already, so the result is
    built without checking them again."""
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
    edge_attrs = None
    if g.edge_attrs is not None:
        edge_attrs = {
            ((s[i], s[j]) if s[i] <= s[j] else (s[j], s[i])): attr
            for (i, j), attr in g.edge_attrs.items()
        }
        edges = frozenset(edge_attrs)  # the attributes cover exactly the edges
    else:
        edges = frozenset(
            [(s[i], s[j]) if s[i] <= s[j] else (s[j], s[i]) for i, j in g.edges]
        )
    return trusted_graph(n, edges, vertex_attrs, edge_attrs)


def plain_graph(g: Graph) -> Graph:
    """The graph with its attributes dropped. It shares g's validated edge
    set instead of checking it again."""
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
