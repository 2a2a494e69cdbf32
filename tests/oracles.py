"""Reference implementations the tests compare the codec against.

Each is a slow, direct version of something the package computes fast, or a
diagnostic only tests run: the deterministic Schreier-Sims chain of any
generators, brute-force canonization over all n! relabelings, isomorphism
by canonical forms, a color refinement pass over (color, attribute) pair
signatures, canonization of edge-attributed graphs through a vertex-colored
embedding, an exchangeability check for ordered codecs, orbits by
breadth-first closure, generators of an automorphism group on its n points
(the runs' generators and the block chain's labels lifted blockwise) and the
degree-n chain they generate, enumeration of a stabilizer chain's group, the
sequence class's ordering step coded through permutations, the parameter
block's list code on its own, the urn's block starts in one pass over all
vertices with the bisection that finds a decode target's pair in them,
stripping re-materialized pad words from a message, a check of the
layout a Graph keeps its edges and edge attributes in, the Fisher-Yates
shuffle coded through the uniform kernel, and refinement's ranking of
signatures through a dict of the distinct ones.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, permutations, product
from typing import Any, Dict, List, Optional, Sequence, Tuple

from shufflecodec.ans import Codec, Message, pad_word, pop_uniforms, push_uniforms
from shufflecodec.canon import Canonized, canonize
from shufflecodec.graphs import PAIR_TABLE_ORDER, Graph, apply_perm
from shufflecodec.params import _natural_symbols, _pop_list
from shufflecodec.perms import (
    ChainLevel,
    Perm,
    StabilizerChain,
    SymmetricRuns,
    as_perm,
    compose,
    element_unrank,
    group_order,
    identity,
    inverse,
    is_identity,
    smallest_moved,
)
from shufflecodec.shuffle import PermutableClass, graph_class, sequence_class


class SizeError(ValueError):
    pass


def schreier_sims(degree: int, generators: Sequence[Perm]) -> StabilizerChain:
    """Deterministic Schreier-Sims relative to the fixed base 0..n-1, from any
    generators: the reference for perms.schreier_sims, which needs them
    strong relative to a known base.

    Level k holds the strong generators whose smallest moved point is the
    level's base point; the orbit at a level is the closure under all
    generators at that level and below. Every Schreier generator is sifted,
    and a level is done when none leaves a residue.
    """
    n = degree
    levels: List[ChainLevel] = []  # ascending by point
    gens_at: Dict[int, List[Perm]] = {}  # strong generators by smallest moved point

    def strong_gens(idx: int) -> List[Perm]:
        return [g for lvl in levels[idx:] for g in gens_at[lvl.point]]

    def sift(g: Perm, start_idx: int) -> Perm:
        for lvl in levels[start_idx:]:
            img = g[lvl.point]
            if img == lvl.point:
                continue
            if img not in lvl.tree:
                return g
            g = compose(inverse(lvl.any_rep(img)), g)
        return g

    def install(g: Perm) -> int:
        mp = smallest_moved(g)
        assert mp is not None
        points = [lvl.point for lvl in levels]
        idx = bisect.bisect_left(points, mp)
        if idx == len(levels) or levels[idx].point != mp:
            levels.insert(idx, ChainLevel(mp, n))
        gens_at.setdefault(mp, []).append(g)
        for k in range(idx + 1):
            levels[k].grow(strong_gens(k))
        return idx

    def first_open_residue(idx: int) -> Optional[Perm]:
        lvl = levels[idx]
        gens = strong_gens(idx)
        lvl.grow(gens)
        for w in lvl.orbit:
            uw = lvl.any_rep(w)
            for g in gens:
                sch = compose(inverse(lvl.any_rep(g[w])), compose(g, uw))
                if is_identity(sch):
                    continue
                residue = sift(sch, idx + 1)
                if not is_identity(residue):
                    return residue
        return None

    for g in generators:
        residue = sift(as_perm(g), 0)
        if not is_identity(residue):
            install(residue)

    idx = len(levels) - 1
    while idx >= 0:
        residue = first_open_residue(idx)
        if residue is None:
            idx -= 1
        else:
            idx = install(residue)
    return StabilizerChain(n, tuple(levels))


def canonize_bruteforce(g: Graph) -> Canonized:
    """Oracle canonizer: minimum over all n! relabelings; n <= 9."""
    if g.n > 9:
        raise SizeError(f"brute-force canonization limited to n <= 9, got {g.n}")
    g_key = g.key()
    best_key = None
    best_perm = None
    auts = []
    for s in permutations(range(g.n)):
        key = apply_perm(s, g).key()
        if best_key is None or key < best_key:
            best_key, best_perm = key, s
        if key == g_key:
            auts.append(s)
    chain = schreier_sims(g.n, [a for a in auts if a != identity(g.n)])
    assert group_order(chain) == len(auts)
    return Canonized(g, best_perm, SymmetricRuns(g.n, (), chain))


def canon_equal(a: Graph, b: Graph) -> bool:
    """Isomorphism test via canonical forms."""
    if a.n != b.n:
        return False
    return canonize(a).canon_graph == canonize(b).canon_graph


def refine_pass_by_pairs(g: Graph, colors: List[int]) -> List[int]:
    """One color refinement pass whose signatures are (color, sorted tuple of
    (neighbour color, edge attribute) pairs), loops left out: the reference
    for canon's integer-coded passes, which must give equal colorings."""
    pairs: List[list] = [[] for _ in range(g.n)]
    for (i, j), a in zip(g.edges, g.edge_attrs or [0] * g.num_edges):
        if i != j:
            pairs[i].append((colors[j], a))
            pairs[j].append((colors[i], a))
    sigs = [(c, tuple(sorted(p))) for c, p in zip(colors, pairs)]
    rank = {sig: c for c, sig in enumerate(sorted(set(sigs)))}
    return [rank[sig] for sig in sigs]


def embed_edge_colors(g: Graph) -> Tuple[Graph, Tuple[Tuple[int, int], ...]]:
    """Embed an edge-colored graph into a vertex-colored one.

    Each edge becomes a fresh vertex carrying the edge's attribute, adjacent
    to the edge's endpoints. Original vertex colors and edge colors live in
    disjoint ranges so no spurious symmetry arises. Returns the embedded graph
    and the edge order assigning edge k to vertex n + k.
    """
    if g.edge_attrs is None:
        raise ValueError("graph has no edge attributes to embed")
    base = (max(g.vertex_attrs) + 1) if g.vertex_attrs else 1
    labelled = sorted(zip(g.edges, g.edge_attrs))
    edge_order = tuple(e for e, _ in labelled)
    attrs = list(g.vertex_attrs) if g.vertex_attrs is not None else [0] * g.n
    edges = []
    for k, ((i, j), a) in enumerate(labelled):
        ve = g.n + k
        attrs.append(base + a)
        edges.append((i, ve))
        if j != i:
            edges.append((j, ve))
    return (
        Graph(g.n + len(edge_order), edges, attrs),
        edge_order,
    )


def canonize_via_embedding(g: Graph) -> Canonized:
    """Canonize an edge-attributed graph through its vertex-colored embedding.

    The embedding's canonical order restricted to the original vertices is a
    valid canonical order of the original, and Aut restricts isomorphically.
    """
    embedded, _ = embed_edge_colors(g)
    c = canonize(embedded)
    originals = list(range(g.n))
    rank = {v: r for r, v in enumerate(sorted(originals, key=lambda v: c.canon_perm[v]))}
    perm = tuple(rank[v] for v in originals)
    restricted = tuple(
        tuple(a[v] for v in originals) for a in group_generators(c.aut_group)
    )
    chain = schreier_sims(g.n, restricted)
    result = Canonized(g, perm, SymmetricRuns(g.n, (), chain))
    assert result.aut_order == c.aut_order
    return result


@dataclass(frozen=True)
class ClassReport:
    """Per-isomorphism-class findings of symmetrize_check."""

    representative: Any
    size: int
    aut_order: int
    orbit_formula_holds: bool  # size * |Aut| == n!
    equal_probability: bool
    class_mass: Optional[Any]  # sum of member probabilities (Fraction)
    mass_matches_formula: Optional[bool]  # class_mass == size * P(rep)


@dataclass(frozen=True)
class SymmetrizeReport:
    exchangeable: bool
    num_classes: int
    classes: List[ClassReport]
    total_mass: Optional[Any]


def symmetrize_check(
    codec: Codec, samples, pclass: Optional[PermutableClass] = None
) -> SymmetrizeReport:
    """Diagnostic: verify that an ordered codec treats isomorphic objects
    equally, and that class masses match the orbit-size formula.

    With an exact probability function on the codec, checks are exact; for
    stochastic codecs (no ``prob``) members are compared by measured encode
    length from a fixed reference message, which flags non-exchangeable
    behaviour without proving it absent.
    """
    pclass = pclass or graph_class()
    by_class = {}
    for f in samples:
        info = pclass.canonize(f)
        canon = pclass.apply(info.canon_perm, f)
        key = canon.key() if isinstance(canon, Graph) else tuple(canon)
        by_class.setdefault(key, (info, canon, []))[2].append(f)

    def measured_bits(f) -> float:
        m = Message(pad_seed=1)
        before = m.length_bits
        codec.encode(m, f)
        return m.length_bits - before

    classes = []
    exchangeable = True
    total_mass = Fraction(0) if codec.prob is not None else None
    for key, (info, canon, members) in sorted(by_class.items()):
        n = pclass.degree(members[0])
        orbit_ok = len(members) * info.aut_order == math.factorial(n)
        if codec.prob is not None:
            probs = [codec.prob(f) for f in members]
            equal = len(set(probs)) == 1
            mass = sum(probs)
            matches = mass == len(members) * probs[0] if equal else False
            total_mass += mass
        else:
            lengths = [measured_bits(f) for f in members]
            equal = max(lengths) - min(lengths) < 1e-6
            mass = None
            matches = None
        exchangeable = exchangeable and equal
        classes.append(
            ClassReport(
                representative=canon,
                size=len(members),
                aut_order=info.aut_order,
                orbit_formula_holds=orbit_ok,
                equal_probability=equal,
                class_mass=mass,
                mass_matches_formula=matches,
            )
        )
    return SymmetrizeReport(
        exchangeable=exchangeable,
        num_classes=len(classes),
        classes=classes,
        total_mass=total_mass,
    )


def run_generators(n: int, runs: Sequence[Tuple[int, int]]) -> Tuple[Perm, ...]:
    """A transposition of a run's first two points and the cycle over the
    run, for each run [a, b) (the transposition alone for a run of two):
    generators of the product of the symmetric groups on the runs."""
    gens = []
    for a, b in runs:
        swap = list(range(n))
        swap[a], swap[a + 1] = a + 1, a
        gens.append(tuple(swap))
        if b - a > 2:
            cycle = list(range(n))
            cycle[a : b - 1] = range(a + 1, b)
            cycle[b - 1] = a
            gens.append(tuple(cycle))
    return tuple(gens)


def lift_blocks(group: SymmetricRuns, b: Perm) -> Perm:
    """The permutation of the n points that moves each block j onto block
    b[j], its points in order: b lifted blockwise."""
    spans = group.block_spans()
    image = list(range(group.degree))
    for (a, end), j in zip(spans, b):
        image[a:end] = range(spans[j][0], spans[j][0] + end - a)
    return tuple(image)


def group_generators(group: SymmetricRuns) -> Tuple[Perm, ...]:
    """Generators of an automorphism group as canonize returns it, on its n
    points: the runs' generators and the block chain's distinct
    Schreier-tree labels, lifted blockwise, in level order. Every coset
    representative of a chain is a product of its tree labels, and the
    representatives generate the group."""
    gens = run_generators(group.degree, group.runs)
    if group.blocks is None:
        return gens
    labels = dict.fromkeys(group.blocks.labels())
    return gens + tuple(lift_blocks(group, b) for b in labels)


def reference_chain(group: SymmetricRuns) -> StabilizerChain:
    """The degree-n schreier_sims chain of group_generators: the reference
    for a SymmetricRuns's order and coset codec, for small n."""
    return schreier_sims(group.degree, group_generators(group))


def orbit_of(degree: int, generators: Sequence[Perm], point: int) -> frozenset:
    """The orbit of a point under the generated group (breadth-first closure)."""
    if not 0 <= point < degree:
        raise ValueError(f"point {point} outside [0, {degree})")
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for w in sorted(frontier):
            for g in generators:
                img = g[w]
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def chain_elements(chain: StabilizerChain):
    """Iterate all group elements in increasing lexicographic order, through
    element_unrank of every digit tuple in mixed-radix order (for testing;
    the order can be huge)."""
    sizes = [range(len(lvl.orbit)) for lvl in chain.levels]
    for digits in product(*sizes):
        yield element_unrank(chain, digits)


def run_transpositions(n: int, runs: Sequence[Tuple[int, int]]) -> Tuple[Perm, ...]:
    """The adjacent transpositions (k, k+1) inside the runs [a, b), in
    increasing k: generators of the product of the symmetric groups on the
    runs."""
    return tuple(
        (*range(k), k + 1, k, *range(k + 2, n)) for a, b in runs for k in range(a, b - 1)
    )


def runs_chain(n: int, runs: Sequence[Tuple[int, int]]) -> StabilizerChain:
    """The schreier_sims chain of the product of the symmetric groups on the
    runs, from their adjacent transpositions, for small n."""
    return schreier_sims(n, run_transpositions(n, runs))


def permutation_sequence_class() -> PermutableClass:
    """Sequences on PermutableClass's generic ordering step: canonize_string's
    sort permutation, the coset codec of its SymmetricRuns
    (uniform_l_coset_codec) and apply_sequence. The reference for
    sequence_class, which codes the same ordering on the values, with no
    permutation."""
    seq = sequence_class()
    return PermutableClass(seq.apply, seq.canonize, seq.degree)


def natural_list_codec() -> Codec:
    """Codec over lists of naturals below 2**46, any length below 2**46, coded
    as the parameter block codes its lists: the length, then the elements.
    encode raises ContractViolation, before the message changes, for a list
    it cannot code, bools and other non-int elements included."""

    def encode(m: Message, xs) -> None:
        xs = list(xs)
        push_uniforms(m, *_natural_symbols([len(xs), *xs]))

    return Codec(encode, _pop_list)


def urn_block_starts(urn) -> List[int]:
    """C_0..C_n of a models._Urn, in one C-level pass over the vertices:
    block k's mass is w_k times the weight of the vertices at or above
    k + offset, less the weight of k's drawn partners."""
    w = urn.weights
    suffix = list(accumulate(reversed(w), initial=0))
    suffix.reverse()  # suffix[i]: the total weight of the vertices >= i
    partners = map(operator.sub, suffix[urn.offset :], urn.drawn_weight)
    return list(accumulate(map(operator.mul, w, partners), initial=0))


def urn_locate(urn, t: int):
    """The pair of a models._Urn whose subrange holds t in [0, T), with its
    start and mass: the block found by bisection over urn_block_starts, the
    partner by bisection over the block's partner weights."""
    w, starts = urn.weights, urn_block_starts(urn)
    i = bisect.bisect_right(starts, t) - 1
    w_i, lo = w[i], i + urn.offset
    masses = w[lo:]
    for j in urn.drawn[i]:
        masses[j - lo] = 0
    cums = list(accumulate(masses, initial=0))  # P_i at the partners lo + k
    k = bisect.bisect_right(cums, (t - starts[i]) // w_i) - 1
    return (i, lo + k), starts[i] + w_i * cums[k], w_i * w[lo + k]


def without_pad_residue(m: Message) -> Message:
    """Copy with re-materialized pad words stripped from the stack top.

    After a full encode/decode round trip that dipped into the pad, the
    consumed pad words sit back on top of the stack; stripping them
    recovers the original message for comparison.
    """
    m = m.copy()
    if m.pad_seed is None:
        return m
    index = 0
    while m.tail and m.tail[-1] == pad_word(m.pad_seed, index):
        m.tail.pop()
        index += 1
    return m


def assert_graph_layout(g: Graph) -> None:
    """Asserts the layout a Graph keeps: its edges a tuple of distinct int
    pairs (i, j), 0 <= i <= j < n, in graph_pairs order (by j, then i), its
    edge attributes None or a tuple of naturals aligned with the edges, its
    vertex attributes None or a tuple of n naturals; and that the graph
    built from its pairs in another order, or reversed, equals it."""
    assert type(g.edges) is tuple
    rank = []  # each edge's index among the pairs (i, j), i <= j, by j then i
    for e in g.edges:
        assert type(e) is tuple and len(e) == 2
        i, j = e
        assert type(i) is int and type(j) is int and 0 <= i <= j < g.n
        rank.append(j * (j + 1) // 2 + i)
    assert all(a < b for a, b in zip(rank, rank[1:])), "edges not in graph_pairs order"
    if g.vertex_attrs is not None:
        assert type(g.vertex_attrs) is tuple and len(g.vertex_attrs) == g.n
        assert all(type(a) is int and a >= 0 for a in g.vertex_attrs)
    labels = None
    if g.edge_attrs is not None:
        assert type(g.edge_attrs) is tuple and len(g.edge_attrs) == g.num_edges
        assert all(type(a) is int and a >= 0 for a in g.edge_attrs)
        labels = dict(zip(g.edges, g.edge_attrs))
    shuffled = list(g.edges)
    random.Random(g.num_edges).shuffle(shuffled)
    flipped = [(j, i) for i, j in reversed(g.edges)]
    for pairs in (shuffled, flipped):
        named = None if labels is None else {p: labels[tuple(sorted(p))] for p in pairs}
        other = Graph(g.n, pairs, g.vertex_attrs, named)
        assert other == g and other.key() == g.key()


def assert_pairs_shared(g: Graph, h: Graph) -> None:
    """Asserts that g and h, graphs on at most PAIR_TABLE_ORDER vertices,
    hold each pair they both have as one object."""
    assert max(g.n, h.n) <= PAIR_TABLE_ORDER
    held = {p: p for p in h.edges}
    for p in g.edges:
        assert held.get(p, p) is p, f"pair {p} is two objects"


def push_shuffle_by_uniforms(m: Message, s: Perm) -> None:
    """The reference for ans.push_shuffle: the Fisher-Yates draws that
    shuffle the identity into s, found by the swap loop for j = n..2 and
    pushed as one push_uniforms run over the sizes n..2."""
    n = len(s)
    p = list(range(n))
    p_inv = list(range(n))
    draws: List[int] = []
    for j in range(n, 1, -1):
        i = p_inv[s[j - 1]]
        p_inv[p[j - 1]], p_inv[s[j - 1]] = p_inv[s[j - 1]], p_inv[p[j - 1]]
        p[i], p[j - 1] = p[j - 1], p[i]
        draws.append(i)
    push_uniforms(m, draws, range(n, 1, -1))


def pop_shuffle_by_uniforms(m: Message, n: int) -> Perm:
    """The reference for ans.pop_shuffle: one pop_uniforms run over the
    sizes n..2, then the swaps that shuffle the identity."""
    s = list(range(n))
    sizes = range(n, 1, -1)
    for j, i in zip(sizes, pop_uniforms(m, sizes)):
        s[i], s[j - 1] = s[j - 1], s[i]
    return tuple(s)


def ranks_by_dict(sigs: list) -> List[int]:
    """The reference for canon._ranks: each signature's rank among the
    sorted set of distinct signatures, looked up in a dict."""
    rank = {sig: c for c, sig in enumerate(sorted(set(map(_hashable, sigs))))}
    return [rank[_hashable(sig)] for sig in sigs]


def _hashable(sig):
    return tuple(sig) if isinstance(sig, list) else sig
