"""Exchangeable ordered-object models: i.i.d.-categorical strings,
Erdős-Rényi graphs, the Pólya-urn edge-sequence model (preferential
attachment) with an inner shuffle over the edge list, and one i.i.d.
attribute layer over either graph model.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .ans import (
    Codec,
    ContractViolation,
    Message,
    ParameterError,
    bernoulli_codec,
    categorical_codec,
    pop_symbols,
    push_symbols,
)
from .graphs import Graph, graph_pairs, pair_count, plain_graph, trusted_graph

# Probability resolution for model parameters derived from data. Encoder and
# decoder rebuild identical tables from identical integer counts.
PARAM_PRECISION = 20

# Degenerate empirical edge probabilities are clamped into this open interval.
_P_FLOOR = Fraction(1, 1 << PARAM_PRECISION)


def clamp_probability(p) -> Fraction:
    p = Fraction(p)
    return min(max(p, _P_FLOOR), 1 - _P_FLOOR)


@dataclass(frozen=True)
class ErParams:
    """Erdős-Rényi model on plain graphs: the edge probability of every
    vertex pair (self-loops included when enabled)."""

    n: int
    edge_p: Fraction
    self_loops: bool = False

    def __post_init__(self):
        object.__setattr__(self, "edge_p", clamp_probability(self.edge_p))


@dataclass(frozen=True)
class PuParams:
    """Pólya-urn model: a fixed number of edges drawn sequentially with
    probability proportional to (degree + 1) products."""

    n: int
    num_edges: int
    allow_redraws: bool = False
    allow_self_loops: bool = False

    def __post_init__(self):
        if self.num_edges < 0:
            raise ParameterError("negative edge count")
        if not self.allow_redraws:
            cap = pair_count(self.n, self.allow_self_loops)
            if self.num_edges > cap:
                raise ParameterError(
                    f"{self.num_edges} edges exceed the {cap} available pairs"
                )


def string_codec(ps: Sequence[int], length: int) -> Codec:
    """Fixed-length strings of alphabet symbols, coded i.i.d. categorical,
    as one run of the table kernel."""
    if length < 0:
        raise ParameterError("negative length")
    char_codec = categorical_codec(ps)
    table = char_codec.table

    def encode(m: Message, string) -> None:
        if len(string) != length:
            raise ContractViolation(f"string length {len(string)} != {length}")
        push_symbols(m, table, string)

    def decode(m: Message) -> Tuple[int, ...]:
        return tuple(pop_symbols(m, table, length))

    def prob(string) -> Fraction:
        p = Fraction(1)
        for c in string:
            p *= char_codec.prob(c)
        return p

    return Codec(encode, decode, prob)


def _attr_codec(ps: Optional[Tuple[int, ...]], uniform_attrs: bool) -> Optional[Codec]:
    """The categorical codec of one attribute. Uniform attributes use equal
    weights, whose table is the uniform codec's: quantize_masses gives the
    spare units to the lowest symbols, as uniform_codec does."""
    if ps is None:
        return None
    return categorical_codec([1] * len(ps) if uniform_attrs else ps)


def _check_plain(g, n: int) -> None:
    if not isinstance(g, Graph) or g.n != n:
        raise ContractViolation(f"expected a graph on {n} vertices")
    if g.has_vertex_attrs or g.has_edge_attrs:
        raise ContractViolation("attributed graph: code it through with_attributes")


def erdos_renyi_codec(params: ErParams) -> Codec:
    """Plain graphs under G(n, p): one Bernoulli per vertex pair in
    graph_pairs order, as one run of the table kernel. Equal pair
    probabilities make it exchangeable."""
    n = params.n
    bern = bernoulli_codec(params.edge_p, PARAM_PRECISION)
    pairs = list(graph_pairs(n, params.self_loops))

    def encode(m: Message, g: Graph) -> None:
        _check_plain(g, n)
        edges = g.edges
        bits = [e in edges for e in pairs]
        if sum(bits) != len(edges):  # only a disallowed self-loop is not a pair
            raise ContractViolation("graph has self-loops but params disallow them")
        push_symbols(m, bern.table, bits)

    def decode(m: Message) -> Graph:
        bits = pop_symbols(m, bern.table, len(pairs))
        edges = frozenset([e for e, bit in zip(pairs, bits) if bit])
        return trusted_graph(n, edges, self_loops_allowed=params.self_loops)

    def prob(g: Graph) -> Fraction:
        p_edge = bern.prob(1)
        present = sum(1 for e in pairs if e in g.edges)
        if present != len(g.edges):  # an edge the model cannot draw
            return Fraction(0)
        return p_edge**present * (1 - p_edge) ** (len(pairs) - present)

    return Codec(encode, decode, prob)


class _Urn:
    """Mutable preferential-attachment state: per-vertex weights (degree + 1)
    and, without redraws, the partners already drawn with each lower endpoint.

    The urn draws a pair (i, j), i < j (i <= j with self-loops), with
    probability proportional to w_i * w_j among the eligible pairs: all of
    them with redraws, the ones not drawn yet without. That draw is factorized
    into two categoricals at most n wide. The lower endpoint i has mass
    w_i * S_i, where S_i is the total weight of the partners still eligible
    for i; the partner j then has mass w_j among those. Their product is
    w_i * w_j over the sum of all eligible pair masses, the joint exactly.
    S_i is a suffix sum of the weights minus the drawn partners of i, so a
    step costs O(n + m) integer work for n vertices and m drawn pairs.
    """

    def __init__(self, params: PuParams):
        self.params = params
        self.weights = [1] * params.n
        self.drawn: List[List[int]] = [[] for _ in range(params.n)]
        self.offset = 0 if params.allow_self_loops else 1

    def lower_masses(self) -> List[int]:
        w = self.weights
        masses = [0] * len(w)
        suffix = 0  # total weight of the vertices above i
        for i in range(len(w) - 1, -1, -1):
            partners = suffix if self.offset else suffix + w[i]
            for j in self.drawn[i]:
                partners -= w[j]
            masses[i] = w[i] * partners
            suffix += w[i]
        return masses

    def partner_masses(self, i: int) -> List[int]:
        """Masses of the partners j = i + offset + k, indexed by k."""
        lo = i + self.offset
        masses = self.weights[lo:]
        for j in self.drawn[i]:
            masses[j - lo] = 0
        return masses

    def draw(self, pair: Tuple[int, int]) -> None:
        i, j = pair
        if not self.params.allow_redraws:
            self.drawn[i].append(j)
        self.weights[i] += 1
        self.weights[j] += 1


def pu_sequence_codec(params: PuParams) -> Codec:
    """Ordered codec over length-m edge sequences under the urn model.

    Each step codes one pair as its lower endpoint, then its partner (see
    _Urn), at O(n + m) integer work. Without redraws the masses depend on the
    draw history, so the model is not edge-exchangeable: a graph's bits depend
    on the edge order that the inner shuffle codec picks, by a fraction of a
    percent. It stays exactly invertible either way.
    """
    m_edges = params.num_edges
    n = params.n

    def lower_codec(urn: _Urn) -> Codec:
        masses = urn.lower_masses()
        if not any(masses):
            raise ContractViolation("no eligible pairs left")
        return categorical_codec(masses)

    def encode(msg: Message, seq) -> None:
        if len(seq) != m_edges:
            raise ContractViolation(f"sequence length {len(seq)} != {m_edges}")
        urn = _Urn(params)
        plan = []
        for pair in seq:
            lower = lower_codec(urn)
            try:
                i, j = map(operator.index, pair)
            except (TypeError, ValueError):
                raise ContractViolation(f"{pair!r} is not a vertex pair") from None
            k = j - i - urn.offset
            masses = urn.partner_masses(i) if 0 <= i < n else []
            if not (0 <= k < len(masses) and masses[k]):
                raise ContractViolation(f"pair {pair} not eligible")
            plan.append((lower, i, categorical_codec(masses), k))
            urn.draw((i, j))
        for lower, i, partner, k in reversed(plan):
            partner.encode(msg, k)
            lower.encode(msg, i)

    def decode(msg: Message) -> Tuple[Tuple[int, int], ...]:
        urn = _Urn(params)
        seq = []
        for _ in range(m_edges):
            i = lower_codec(urn).decode(msg)
            k = categorical_codec(urn.partner_masses(i)).decode(msg)
            pair = (i, i + urn.offset + k)
            seq.append(pair)
            urn.draw(pair)
        return tuple(seq)

    return Codec(encode, decode)


# Sort key that lists edges (i, j), i <= j, in graph_pairs order.
_pair_order = operator.itemgetter(1, 0)


def with_attributes(
    base: Codec,
    vertex_attr_ps: Optional[Tuple[int, ...]] = None,
    edge_attr_ps: Optional[Tuple[int, ...]] = None,
    uniform_attrs: bool = False,
) -> Codec:
    """Layer i.i.d. attribute coding over a plain-graph codec (either model).

    Decode order: the base graph, then one attribute per vertex, then one per
    edge in graph_pairs order. The attribute masses are fixed-point tables;
    uniform_attrs codes every attribute uniformly over the table's alphabet.
    ``prob`` is the base probability times the attribute masses, when the
    base has one.
    """
    v_codec = _attr_codec(vertex_attr_ps, uniform_attrs)
    e_codec = _attr_codec(edge_attr_ps, uniform_attrs)

    def encode(m: Message, g: Graph) -> None:
        if not isinstance(g, Graph):
            raise ContractViolation("expected a graph")
        if g.has_vertex_attrs != (v_codec is not None):
            raise ContractViolation("vertex attribute presence mismatch")
        if g.has_edge_attrs != (e_codec is not None):
            raise ContractViolation("edge attribute presence mismatch")
        if e_codec is not None:
            edge_attrs = g.edge_attrs
            attrs = [edge_attrs[e] for e in sorted(g.edges, key=_pair_order)]
            push_symbols(m, e_codec.table, attrs)
        if v_codec is not None:
            push_symbols(m, v_codec.table, g.vertex_attrs)
        base.encode(m, plain_graph(g))

    def decode(m: Message) -> Graph:
        g = base.decode(m)
        vertex_attrs = None
        if v_codec is not None:
            vertex_attrs = tuple(pop_symbols(m, v_codec.table, g.n))
        edge_attrs = None
        if e_codec is not None:
            ordered = sorted(g.edges, key=_pair_order)
            edge_attrs = dict(zip(ordered, pop_symbols(m, e_codec.table, len(ordered))))
        return trusted_graph(
            g.n, g.edges, vertex_attrs, edge_attrs, g.self_loops_allowed
        )

    def prob(g: Graph) -> Fraction:
        p = base.prob(plain_graph(g))
        if v_codec is not None:
            for a in g.vertex_attrs:
                p *= v_codec.prob(a)
        if e_codec is not None:
            for a in g.edge_attrs.values():
                p *= e_codec.prob(a)
        return p

    return Codec(encode, decode, prob if base.prob is not None else None)


def polya_urn_codec(params: PuParams) -> Codec:
    """Graphs coded as an unordered edge list under the urn model: the edge
    sequence codec wrapped in an inner shuffle codec over list order."""
    from .shuffle import ShuffleCodec, sequence_class

    inner = ShuffleCodec(pu_sequence_codec(params), sequence_class())

    def encode(m: Message, g: Graph) -> None:
        _check_plain(g, params.n)
        if g.num_edges != params.num_edges:
            raise ContractViolation(
                f"graph has {g.num_edges} edges, params say {params.num_edges}"
            )
        if any(i == j for i, j in g.edges) and not params.allow_self_loops:
            raise ContractViolation("graph has self-loops but params disallow them")
        inner.encode(m, tuple(sorted(g.edges)))

    def decode(m: Message) -> Graph:
        seq = inner.decode(m)
        return Graph(
            params.n, set(seq), self_loops_allowed=params.allow_self_loops
        )

    return Codec(encode, decode)
