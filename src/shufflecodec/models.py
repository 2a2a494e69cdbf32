"""Exchangeable ordered-object models: i.i.d.-categorical strings,
Erdős-Rényi graphs, the Pólya-urn edge-sequence model (preferential
attachment) under its edge count and an inner shuffle over the edge list,
and one i.i.d. attribute layer over either graph model, on ans.table_for.
An encoder's refusal leaves the message as it was. The attribute layer
restores a snapshot of the head and stack depth: pushes only append words,
and the one base that pops (the urn's inner shuffle) restores itself first.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .ans import (
    MAX_PRECISION,
    Codec,
    CodecError,
    ContractViolation,
    Message,
    ParameterError,
    bernoulli_block_table,
    bernoulli_weights,
    pop_exact,
    pop_symbols,
    pop_uniforms,
    push_exact,
    push_symbols,
    push_uniforms,
    table_for,
)
from .graphs import Graph, indexed_pairs, pair_count, pair_sorted, plain_graph, trusted_graph
from .shuffle import ShuffleCodec, sequence_class

# Edge probabilities in [0, 1] are clamped into [_P_FLOOR, 1 - _P_FLOOR].
_P_FLOOR = Fraction(1, 1 << 20)


def clamp_probability(p) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ParameterError(f"edge probability {p} outside [0, 1]")
    return min(max(p, _P_FLOOR), 1 - _P_FLOOR)


def _check_count(x, what: str) -> None:
    """ParameterError unless x is a nonnegative int, as Graph checks its
    vertex count (a bool or a float equal to an int is refused)."""
    if type(x) is not int or x < 0:
        raise ParameterError(f"{what} {x!r} is not a nonnegative int")


def _check_flag(x, what: str) -> None:
    """ParameterError unless x is a bool: a truthy string such as "no" would
    otherwise turn the option on."""
    if type(x) is not bool:
        raise ParameterError(f"{what} {x!r} is not a bool")


@dataclass(frozen=True)
class ErParams:
    """Erdős-Rényi model on plain graphs: the edge probability of every
    vertex pair (self-loops included when enabled)."""

    n: int
    edge_p: Fraction
    self_loops: bool = False

    def __post_init__(self):
        _check_count(self.n, "vertex count")
        _check_flag(self.self_loops, "self_loops")
        object.__setattr__(self, "edge_p", clamp_probability(self.edge_p))


@dataclass(frozen=True)
class PuParams:
    """Pólya-urn model on n vertices: edges drawn sequentially with
    probability proportional to (degree + 1) products."""

    n: int
    allow_redraws: bool = False
    allow_self_loops: bool = False

    def __post_init__(self):
        _check_count(self.n, "vertex count")
        _check_flag(self.allow_redraws, "allow_redraws")
        _check_flag(self.allow_self_loops, "allow_self_loops")


def _iid_prob(weights: Tuple[int, ...], symbols) -> Fraction:
    """The exact probability of i.i.d. symbols under integer weights."""
    symbols = list(symbols)
    numerator = math.prod(map(weights.__getitem__, symbols))
    return Fraction(numerator, sum(weights) ** len(symbols))


def string_codec(ps: Sequence[int], length: int) -> Codec:
    """Fixed-length strings of alphabet symbols, coded i.i.d. categorical
    over table_for(ps), as one run of the table kernel."""
    _check_count(length, "string length")
    weights = tuple(ps)
    table = table_for(weights)

    def encode(m: Message, string) -> None:
        if len(string) != length:
            raise ContractViolation(f"string length {len(string)} != {length}")
        push_symbols(m, table, string)

    def decode(m: Message) -> Tuple[int, ...]:
        return tuple(pop_symbols(m, table, length))

    return Codec(encode, decode, lambda string: _iid_prob(weights, string))


def _attr_weights(ps: Optional[Sequence[int]]) -> Optional[tuple]:
    """The weights of one attribute: its counts. Counts that are all zero
    (no vertex or no edge carries the attribute) give the one-symbol
    weights (1,), whose table never codes a symbol."""
    if ps is None:
        return None
    return tuple(ps) if any(ps) else (1,)


def _check_plain(g, n: int) -> None:
    if not isinstance(g, Graph) or g.n != n:
        raise ContractViolation(f"expected a graph on {n} vertices")
    if g.has_vertex_attrs or g.has_edge_attrs:
        raise ContractViolation("attributed graph: code it through with_attributes")


# _SET_BITS[x]: the positions of the set bits of the byte x, in order.
_SET_BITS = tuple(tuple(t for t in range(8) if x >> t & 1) for x in range(256))


def erdos_renyi_codec(params: ErParams) -> Codec:
    """Plain graphs under G(n, p), coded eight vertex pairs per symbol.

    The N pairs in graph_pairs order are cut into blocks of 8 and a last
    block of N mod 8; a block is the symbol whose bit t says whether its pair
    t is an edge. The blocks of 8 are one run of the table kernel over
    bernoulli_block_table(p, 8), the last block one symbol over
    bernoulli_block_table(p, N mod 8): p is rounded as bernoulli_weights rounds
    it, and the tables' rounding costs below 256 * 2**-32 relative per block.
    Encode sets bit k & 7 of block k >> 3 per edge, k the edge's pair index;
    decode walks the rows of the set bits' indices, row i holding the pairs
    (j, i), so it lists the edges in graph_pairs order, the order a Graph
    keeps them in, and takes each pair by its index from indexed_pairs. Both
    directions cost O(n + m + N/8) for m edges, and the codec keeps no list
    of pairs. Equal pair probabilities make it exchangeable; ``prob`` is the
    exact model probability.
    """
    n, loops, p = params.n, params.self_loops, params.edge_p
    num_pairs = pair_count(n, loops)
    full, rest = divmod(num_pairs, 8)
    block_table = bernoulli_block_table(p, 8)
    rest_table = bernoulli_block_table(p, rest) if rest else None

    def encode(m: Message, g: Graph) -> None:
        _check_plain(g, n)
        blocks = bytearray(full + (rest > 0))
        # Pair (j, i), j <= i, has index i(i-1)/2 + j, or i(i+1)/2 + j with loops.
        for j, i in g.edges:
            if j == i and not loops:
                raise ContractViolation("graph has self-loops but params disallow them")
            k = (i * (i + 1) >> 1 if loops else i * (i - 1) >> 1) + j
            blocks[k >> 3] |= 1 << (k & 7)
        if rest:
            push_symbols(m, rest_table, blocks[full:])
        push_symbols(m, block_table, blocks[:full])

    def decode(m: Message) -> Graph:
        blocks = pop_symbols(m, block_table, full)
        if rest:
            blocks += pop_symbols(m, rest_table, 1)
        keys = []
        i = 0  # row i holds the indices below end
        end = 1 if loops else 0
        for b, x in enumerate(blocks):
            if x:
                for t in _SET_BITS[x]:
                    k = b << 3 | t
                    while k >= end:
                        i += 1
                        end += i + loops
                    keys.append(k if loops else k + i)
        return trusted_graph(n, indexed_pairs(n, keys))

    def prob(g: Graph) -> Fraction:
        if any(i >= n or (j == i and not loops) for j, i in g.edges):
            return Fraction(0)  # an edge the model cannot draw
        q0, q1 = bernoulli_weights(p)
        p_edge = Fraction(q1, q0 + q1)
        present = len(g.edges)
        return p_edge**present * (1 - p_edge) ** (num_pairs - present)

    return Codec(encode, decode, prob)


class _Urn:
    """Mutable preferential-attachment state: per-vertex weights (degree + 1)
    and, without redraws, the partners already drawn with each lower endpoint,
    listed only for the vertices drawn so far.

    The urn draws a pair (i, j), i < j (i <= j with self-loops), with
    probability proportional to w_i * w_j among the eligible pairs: all of
    them with redraws, the ones not drawn yet without. That draw is one
    symbol over the exact integer masses. Pairs are listed by lower endpoint
    i, then partner j; i's block has mass w_i * S_i, where S_i is the total
    weight of the partners still eligible for i, and starts at the prefix sum
    C_i of the blocks below it. Within the block, j starts at w_i * P_i(j),
    with P_i(j) the weight of i's eligible partners below j. The total T is
    the sum of all eligible pair masses, so the symbol's probability is
    w_i * w_j / T, the joint exactly.

    With d_i the weight of i's drawn partners and P_k, Q_k, D_k the sums of
    w_i, w_i**2 and w_i * d_i over i < k, the block start is
    C_k = W * P_k - (P_k**2 + Q_k) / 2 - D_k, with P_k**2 - Q_k in place of
    P_k**2 + Q_k when self-loops are allowed, and T = C_n. The urn keeps W
    and T as running totals, which a draw updates from that closed form in
    O(deg) integer work. So T costs O(1), and the subrange of a pair to
    encode costs C-level sums over the vertices below i and over i's
    partners below j. Decoding finds the block that holds its target in one
    pass from C_0 that stops there, O(i + 1) work for the lower endpoint i,
    then sums i's partners in one C-level pass.
    """

    def __init__(self, params: PuParams):
        self.allow_redraws = params.allow_redraws
        self.weights = [1] * params.n
        # drawn[i]: the partners drawn with i; drawn_by[j]: the lower endpoints
        # i with j in drawn[i]. Each is the shared empty tuple until the
        # vertex's first draw makes it a list. drawn_weight[i]: the total
        # weight of drawn[i], kept up to date as weights grow.
        self.drawn: List[Sequence[int]] = [()] * params.n
        self.drawn_by: List[Sequence[int]] = [()] * params.n
        self.drawn_weight = [0] * params.n
        self.offset = 0 if params.allow_self_loops else 1
        self.w_sum = params.n
        self._total = pair_count(params.n, params.allow_self_loops)

    def _block_start(self, k: int) -> int:
        """C_k from W and C-level sums over the vertices below k (both
        P_k**2 - Q_k and P_k**2 + Q_k are even, so the halving is exact)."""
        below = self.weights[:k]
        p = sum(below)
        q = sum(map(operator.mul, below, below))
        d = sum(map(operator.mul, below, self.drawn_weight))
        return self.w_sum * p - ((p * p + (q if self.offset else -q)) >> 1) - d

    @property
    def total(self) -> int:
        """T, the sum of the eligible pair masses; raises once none is left."""
        if not self._total:
            raise ContractViolation("no eligible pairs left")
        return self._total

    def subrange(self, i: int, j: int) -> Tuple[int, int]:
        """(start, mass) of the pair (i, j); ContractViolation if it is not
        eligible."""
        w, lo = self.weights, i + self.offset
        if not (0 <= i and lo <= j < len(w)) or j in self.drawn[i]:
            raise ContractViolation(f"pair {(i, j)} not eligible")
        partners = sum(w[lo:j]) - sum(w[a] for a in self.drawn[i] if a < j)
        w_i = w[i]
        return self._block_start(i) + w_i * partners, w_i * w[j]

    def locate(self, t: int) -> Tuple[Tuple[int, int], int, int]:
        """The pair whose subrange holds t in [0, T), with its start and mass;
        ContractViolation for t outside [0, T).

        One pass over the blocks stops at the first block k whose end passes
        t: with rest = W - P_k, the weight of the vertices at or above k,
        block k's mass is w_k * (rest - d_k), less w_k**2 without self-loops.
        Within the block, the partners' weights are summed up to j."""
        if t < 0:
            raise ContractViolation(f"target {t} is negative")
        w, drawn_weight, offset = self.weights, self.drawn_weight, self.offset
        end, rest = 0, self.w_sum
        for i, w_i in enumerate(w):
            mass = w_i * (rest - offset * w_i - drawn_weight[i])
            end += mass
            if t < end:
                break
            rest -= w_i
        else:
            raise ContractViolation(f"target {t} is not below the total {end}")
        start = end - mass
        lo = i + offset
        masses = w[lo:]
        for j in self.drawn[i]:
            masses[j - lo] = 0
        cums = list(accumulate(masses, initial=0))  # P_i at the partners lo + k
        k = bisect.bisect_right(cums, (t - start) // w_i) - 1
        return (i, lo + k), start + w_i * cums[k], w_i * w[lo + k]

    def draw(self, i: int, j: int) -> None:
        w, drawn, drawn_by = self.weights, self.drawn, self.drawn_by
        drawn_weight = self.drawn_weight
        w_sum, total, loops = self.w_sum, self._total, not self.offset
        if not self.allow_redraws:
            if drawn[i]:
                drawn[i].append(j)
            else:
                drawn[i] = [j]
            if drawn_by[j]:
                drawn_by[j].append(i)
            else:
                drawn_by[j] = [i]
            drawn_weight[i] += w[j]
            total -= w[i] * w[j]
        # Raising w_v by 1 raises W by 1, Q by 2 * w_v + 1 and D by d_v, so T
        # gains W - w_v - d_v, or W + w_v + 1 - d_v with loops; each d_a that
        # then grows by 1 lowers T by w_a.
        for v in (i, j):  # a self-loop adds 2 to w_i
            w_v = w[v]
            w[v] = w_v + 1
            total += w_sum - drawn_weight[v] + (w_v + 1 if loops else -w_v)
            w_sum += 1
            for a in drawn_by[v]:
                drawn_weight[a] += 1
                total -= w[a]
        self.w_sum, self._total = w_sum, total


def pu_sequence_codec(params: PuParams, num_edges: int) -> Codec:
    """Ordered codec over num_edges-long edge sequences under the urn model;
    ParameterError for a count that is not a nonnegative int or, without
    redraws, exceeds the pairs.

    Each step codes one pair as one exact-mass symbol (see _Urn): one
    push_exact symbol to encode, its subrange read from the urn's running
    totals and C-level sums below the pair, and one pop_exact to decode,
    whose block search stops at the pair's lower endpoint i, O(i + 1)
    integer work, before one C-level pass over i's partners; no table is
    built. The encoder checks every pair, the exhausted urn and the 2**48
    bound on T before the message changes.
    Without redraws the masses depend on the draw history, so the model is
    not edge-exchangeable: a graph's bits depend on the edge order that the
    inner shuffle codec picks. On K4, certain when m = N, a uniformly picked
    order costs 0.11358720 bits more than -log2 P(graph) = 0 in expectation.
    It stays exactly invertible either way.
    """
    _check_count(num_edges, "edge count")
    cap = pair_count(params.n, params.allow_self_loops)
    if not params.allow_redraws and num_edges > cap:
        raise ParameterError(f"{num_edges} edges exceed the {cap} available pairs")

    def encode(msg: Message, seq) -> None:
        if len(seq) != num_edges:
            raise ContractViolation(f"sequence length {len(seq)} != {num_edges}")
        urn = _Urn(params)
        plan = []
        for pair in seq:
            total = urn.total
            try:
                i, j = map(operator.index, pair)
            except (TypeError, ValueError):
                raise ContractViolation(f"{pair!r} is not a vertex pair") from None
            plan.append((*urn.subrange(i, j), total))
            urn.draw(i, j)
        push_exact(msg, plan)

    def decode(msg: Message) -> Tuple[Tuple[int, int], ...]:
        urn = _Urn(params)
        locate, draw = urn.locate, urn.draw
        seq = []
        for _ in range(num_edges):
            pair = pop_exact(msg, urn.total, locate)
            seq.append(pair)
            draw(*pair)
        return tuple(seq)

    return Codec(encode, decode)


def with_attributes(
    base: Codec,
    vertex_attr_ps: Optional[Tuple[int, ...]] = None,
    edge_attr_ps: Optional[Tuple[int, ...]] = None,
) -> Codec:
    """Layer i.i.d. attribute coding over a plain-graph codec (either model).

    Decode order: the base graph, then one attribute per vertex, then one per
    edge in graph_pairs order, the order in which a Graph keeps its edges and
    their attributes. Each attribute is coded over the table of its
    integer counts (equal counts code it uniformly). ``prob`` is the base
    probability times the attribute probabilities, when the base has one.
    An encode refused with a CodecError restores the head and stack depth
    it found: pushes only append words, and a base that pops (the urn's
    inner shuffle) restores itself before it raises.
    """
    v_weights = _attr_weights(vertex_attr_ps)
    e_weights = _attr_weights(edge_attr_ps)
    v_table = None if v_weights is None else table_for(v_weights)
    e_table = None if e_weights is None else table_for(e_weights)

    def encode(m: Message, g: Graph) -> None:
        if not isinstance(g, Graph):
            raise ContractViolation("expected a graph")
        if g.has_vertex_attrs != (v_table is not None):
            raise ContractViolation("vertex attribute presence mismatch")
        if g.has_edge_attrs != (e_table is not None):
            raise ContractViolation("edge attribute presence mismatch")
        head, depth = m.head, len(m.tail)
        try:
            if e_table is not None:
                push_symbols(m, e_table, g.edge_attrs)
            if v_table is not None:
                push_symbols(m, v_table, g.vertex_attrs)
            base.encode(m, plain_graph(g))
        except CodecError:
            del m.tail[depth:]
            m.head = head
            raise

    def decode(m: Message) -> Graph:
        g = base.decode(m)
        vertex_attrs = None
        if v_table is not None:
            vertex_attrs = tuple(pop_symbols(m, v_table, g.n))
        edge_attrs = None
        if e_table is not None:
            edge_attrs = tuple(pop_symbols(m, e_table, g.num_edges))
        return trusted_graph(g.n, g.edges, vertex_attrs, edge_attrs)

    def prob(g: Graph) -> Fraction:
        p = base.prob(plain_graph(g))
        if v_weights is not None:
            p *= _iid_prob(v_weights, g.vertex_attrs)
        if e_weights is not None:
            p *= _iid_prob(e_weights, g.edge_attrs)
        return p

    return Codec(encode, decode, prob if base.prob is not None else None)


def polya_urn_codec(params: PuParams) -> Codec:
    """Graphs on params.n vertices under the urn model: the edge count m,
    one uniform symbol over 0..N (N the vertex pairs) that decode pops
    first, then the length-m edge sequence codec wrapped in an inner
    shuffle codec over list order."""
    count_size = (pair_count(params.n, params.allow_self_loops) + 1,)
    if count_size[0] > 1 << MAX_PRECISION:
        raise ParameterError(f"{params.n} vertices: too many pairs to count edges")

    def inner(num_edges: int) -> ShuffleCodec:
        return ShuffleCodec(pu_sequence_codec(params, num_edges), sequence_class())

    def encode(m: Message, g: Graph) -> None:
        _check_plain(g, params.n)
        if any(i == j for i, j in g.edges) and not params.allow_self_loops:
            raise ContractViolation("graph has self-loops but params disallow them")
        inner(g.num_edges).encode(m, g.edges)
        push_uniforms(m, [g.num_edges], count_size)

    def decode(m: Message) -> Graph:
        (num_edges,) = pop_uniforms(m, count_size)
        # Decoded pairs are eligible by construction: i <= j inside [0, n),
        # loops only when allowed. A pair repeated under redraws is one edge:
        # dict.fromkeys drops the repeat and keeps the sorted order in which
        # the inner codec returns the pairs, which pair_sorted takes in one pass.
        edges = pair_sorted(dict.fromkeys(inner(num_edges).decode(m)))
        return trusted_graph(params.n, edges)

    return Codec(encode, decode)
