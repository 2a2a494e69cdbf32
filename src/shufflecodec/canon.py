"""Canonical orderings and automorphism groups.

Graphs are canonized by color refinement plus individualization search: refine
to an equitable coloring, branch on a target cell, and take the minimum leaf
form under the fixed total order of Graph.key(). Equal-form leaves certify
automorphisms, which generate Aut and prune the search: a backjump past the
automorphic subtree, and orbit pruning at each node. Sequences
(strings) are canonized by stable sorting.

Twins, vertices whose swap is an automorphism, are taken in closed form. A
discrete first refinement is the canonical order, and its group is trivial.
Otherwise each class of twins becomes one vertex of a quotient graph, only
the quotient is searched, and each class takes a run of consecutive
canonical positions. Aut is the product of the symmetric groups on the runs
(as for a sorted sequence), extended by the quotient's automorphisms, which
permute whole blocks: one SymmetricRuns value, whose block chain, if the
quotient has automorphisms, schreier_sims completes on the quotient's own
degree from the search's automorphisms, strong relative to its first path,
to the order they give. Nothing is lifted to degree n.

Refinement signatures are tuples of ints (see _refine), and every pass reads
them off the edge list. The canonical form is built from the canonical
permutation only when read, so a caller that relabels the graph anyway
relabels it once.

The canonical form of a graph depends only on its isomorphism class, never on
the input labeling. The automorphisms found by its one search are conjugated
onto the canonical form. The block chain they build may have other Schreier
trees for another input, but its base points, orbits and coset codes depend
only on the group (see perms), and the runs are read off the canonical form:
compressed bitstreams match across isomorphic inputs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .graphs import Graph, apply_perm, pair_sorted, trusted_graph
from .perms import (
    DegreeMismatch,
    Perm,
    PermGroup,
    SymmetricRuns,
    compose,
    group_order,
    inverse,
    is_perm,
    schreier_sims,
    trivial_group,
)


@dataclass(frozen=True)
class Canonized:
    """Result of canonizing a graph: the input graph, a permutation mapping it
    onto its class representative, and the automorphism group of the
    representative. The group is one SymmetricRuns value, runs and an
    optional block chain (the trivial group has neither), and is what the
    coset codec reads. The representative, canon_graph, is built on first
    access, and the group's order, aut_order, on each read."""

    graph: Graph
    canon_perm: Perm
    aut_group: SymmetricRuns

    @cached_property
    def canon_graph(self) -> Graph:
        return apply_perm(self.canon_perm, self.graph)

    @property
    def aut_order(self) -> int:
        return group_order(self.aut_group)


def _initial_colors(g: Graph) -> List[int]:
    """The ranks of 2 * vertex attribute + (1 if the vertex has a loop),
    which order as the (attribute, has a loop) pairs."""
    keys = [2 * a for a in g.vertex_attrs] if g.vertex_attrs is not None else [0] * g.n
    for i, j in g.edges:
        if i == j:
            keys[i] += 1
    return _ranks(keys)


def _ranks(sigs: list) -> List[int]:
    """Each signature's rank among the distinct signatures: colors 0..k-1
    in signature order. One sort of the indices by signature, then one pass
    that counts the distinct signatures: no signature is hashed."""
    ranks = [0] * len(sigs)
    color, prev = -1, None
    for v in sorted(range(len(sigs)), key=sigs.__getitem__):
        sig = sigs[v]
        if sig != prev:
            color += 1
            prev = sig
        ranks[v] = color
    return ranks


def _refine(g: Graph, colors: List[int], base: int) -> List[int]:
    """1-WL refinement to the coarsest stable coloring finer than the input.

    A vertex's signature is its color followed by the sorted codes
    color * base + attribute of its neighbours: the full multiset of
    (neighbour color, edge attribute) pairs, in their lexicographic order;
    base exceeds every edge attribute. New color ids follow signature order,
    so the result is canonical for isomorphic (graph, coloring) pairs. Colors
    are 0..k-1, so a discrete coloring is returned as it is: one more pass
    could only give it back.
    """
    n = len(colors)
    num = max(colors, default=-1) + 1
    while num < n:
        new = _refine_pass(g, colors, base)
        new_num = max(new) + 1
        if new_num == num:
            return new
        colors, num = new, new_num
    return colors


def _refine_pass(g: Graph, colors: List[int], base: int) -> List[int]:
    """One refinement pass, read off g's edges: each vertex's color becomes
    the rank of its signature (color, *sorted neighbour codes), so the new
    colors are 0..k-1.

    Each vertex's list starts with its color minus n, below every code, so it
    stays first when the list is sorted: the sorted lists, ranked as they
    are, order as the signatures do."""
    n = len(colors)
    codes = [[c - n] for c in colors]
    if g.edge_attrs is None:  # base is 1: a code is the neighbour's color
        for i, j in g.edges:
            if i != j:  # loops are folded into vertex colors
                codes[i].append(colors[j])
                codes[j].append(colors[i])
    else:
        for (i, j), a in zip(g.edges, g.edge_attrs):
            if i != j:
                codes[i].append(colors[j] * base + a)
                codes[j].append(colors[i] * base + a)
    for c in codes:
        c.sort()
    return _ranks(codes)


def _individualize(colors: List[int], v: int) -> List[int]:
    cv = colors[v]
    return [
        c if (c < cv or (c == cv and u == v)) else c + 1
        for u, c in enumerate(colors)
    ]


def _target_cell(colors: List[int]) -> List[int]:
    """The smallest non-singleton cell, ties broken by the lower color.

    Colors are canonical and vertex labels are not, so the choice must not
    look at the labels: otherwise relabelings explore different trees and
    can reach different minimum leaves.
    """
    cells: Dict[int, List[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    _, color = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)
    return cells[color]


def _orbit_closure(points: List[int], gens: List[Perm]) -> set:
    seen = set(points)
    frontier = list(points)
    while frontier:
        w = frontier.pop()
        for g in gens:
            img = g[w]
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return seen


def _search(g: Graph, colors: List[int], base: int) -> Tuple[Perm, List[Perm], List[int]]:
    """Individualization-refinement from colors, an equitable coloring of g:
    returns the canonical labeling (the permutation minimizing
    apply(s, g).key() over the leaves), the automorphisms of g it found, and
    the vertices individualized on the path to the first leaf. Each sibling
    on that path is explored or pruned by the automorphisms fixing the path
    above it, so they are a strong generating set relative to the path
    (McKay, "Practical graph isomorphism", 1981).

    A leaf with the key of the first or the best leaf maps that leaf's subtree
    onto its own, so the search jumps back to where their paths split
    (McKay & Piperno, "Practical graph isomorphism, II", 2014).

    Every refinement pass reads the edge list, so a discrete coloring costs
    nothing more: it is the one leaf, at the empty path."""
    if max(colors, default=-1) + 1 == g.n:
        return tuple(colors), [], []
    # [key, perm, path] of the first and of the best leaf so far.
    best: Optional[list] = None
    first: Optional[list] = None
    auts: List[Perm] = []

    def leaf(colors: List[int], path: List[int]) -> int:
        nonlocal best, first
        perm = tuple(colors)
        key = apply_perm(perm, g).key()
        if first is None:
            first = best = [key, perm, path]
            return len(path)
        for ref in (first, best):
            if key == ref[0]:
                # Distinct leaves have distinct perms and split paths, so
                # the automorphism is new and never the identity.
                auts.append(compose(inverse(ref[1]), perm))
                return next(k for k, (u, v) in enumerate(zip(ref[2], path)) if u != v)
        if key < best[0]:
            best = [key, perm, path]
        return len(path)

    def rec(colors: List[int], path: List[int]) -> int:
        """Explores the subtree at path; returns the depth to resume at."""
        if len(set(colors)) == len(colors):
            return leaf(colors, path)
        processed: List[int] = []
        for v in sorted(_target_cell(colors)):
            if processed:
                gens = [a for a in auts if all(a[u] == u for u in path)]
                if gens and v in _orbit_closure(processed, gens):
                    continue
            depth = rec(_refine(g, _individualize(colors, v), base), path + [v])
            if depth < len(path):
                return depth
            processed.append(v)
        return len(path)

    rec(colors, [])
    assert best is not None and first is not None
    return best[1], auts, first[2]


def _twin_classes(
    g: Graph, colors: List[int], base: int
) -> Tuple[List[Tuple[List[int], int]], List[int]]:
    """The classes of two or more twins, each in increasing vertex order and
    with its internal edge attribute (-1 for open twins), and every vertex's
    loop attribute (-1 for no loop).

    Twins have one refined color and one loop attribute, and the same
    neighbours with the same edge attributes apart from each other: open
    twins are not adjacent, closed twins are, all by one internal attribute
    a. Swapping two twins is an automorphism. Both relations are
    equivalences, and a vertex is in a nontrivial class of at most one kind
    (and one a), so each vertex is keyed once as open and once per attribute
    a of its edges into its own cell, with its own code v * base + a added
    to its neighbour codes as closed: members of a class share the key. Only
    vertices of non-singleton cells are keyed, in vertex order, and only
    those with a non-loop edge get a list of codes: the others have none."""
    n = g.n
    size = [0] * n
    for c in colors:
        size[c] += 1
    codes: Dict[int, List[int]] = {}
    loop = [-1] * n
    for (i, j), a in zip(g.edges, g.edge_attrs or repeat(0)):
        if i == j:
            loop[i] = a
            continue
        if size[colors[i]] > 1:
            codes.setdefault(i, []).append(j * base + a)
        if size[colors[j]] > 1:
            codes.setdefault(j, []).append(i * base + a)
    keyed: Dict[tuple, List[int]] = {}
    for v, c in enumerate(colors):
        if size[c] == 1:
            continue
        nb = sorted(codes.get(v, ()))
        keyed.setdefault((c, loop[v], -1, tuple(nb)), []).append(v)
        for a in {x % base for x in nb if colors[x // base] == c}:
            keyed.setdefault((c, loop[v], a, tuple(sorted(nb + [v * base + a]))), []).append(v)
    return [(vs, key[2]) for key, vs in keyed.items() if len(vs) > 1], loop


def _quotient(
    g: Graph, colors: List[int], classes: List[Tuple[List[int], int]], loop: List[int]
) -> Tuple[Graph, List[List[int]]]:
    """The twin quotient Q: one vertex per twin class and per vertex in no
    class, numbered by least member, with g's edges between them and their
    attributes. Its vertex attributes are the ranks of (refined color, loop
    attribute, class size, internal attribute), which carry the loops, so Q
    has none. Returns Q and the members of each of its vertices."""
    n = g.n
    least = list(range(n))
    inner = {}
    for vs, a in classes:
        for v in vs:
            least[v] = vs[0]
        inner[vs[0]] = a
    reps = [v for v in range(n) if least[v] == v]
    index = {v: x for x, v in enumerate(reps)}
    of = [index[v] for v in least]
    groups: List[List[int]] = [[] for _ in reps]
    for v, x in enumerate(of):
        groups[x].append(v)
    pairs: Dict[Tuple[int, int], int] = {}
    for (i, j), a in zip(g.edges, g.edge_attrs or repeat(0)):
        x, y = of[i], of[j]
        if x != y:
            pairs[(x, y) if x < y else (y, x)] = a
    attrs = _ranks([(colors[v], loop[v], len(vs), inner.get(v, -1)) for v, vs in zip(reps, groups)])
    edges = pair_sorted(pairs)
    edge_attrs = tuple(map(pairs.__getitem__, edges)) if g.edge_attrs is not None else None
    return trusted_graph(len(reps), edges, tuple(attrs), edge_attrs), groups


def canonize(g: Graph) -> Canonized:
    """Canonical permutation and Aut of the canonical form; the canonical
    form itself is built only when read.

    A discrete first refinement is the canonical order, with the trivial
    group, one shared value per degree (perms.trivial_group). Otherwise
    each class of twins becomes one vertex of the quotient Q (with no
    twins, Q is g and keeps its refined coloring), only Q is searched, and
    each class takes a run of consecutive canonical positions in Q's
    canonical order, its members in increasing order (they are
    interchangeable). Aut is the product of the symmetric groups on the runs
    extended by Aut(Q), which permutes the blocks (the runs and the points
    outside them, which are Q's vertices in canonical order): a SymmetricRuns
    whose block chain, when the search finds automorphisms of Q, is the
    schreier_sims chain of those automorphisms in Q's canonical order, with
    the search's first path, in canonical positions, as their base."""
    n = g.n
    base = max(g.edge_attrs, default=0) + 1 if g.edge_attrs else 1
    colors = _refine(g, _initial_colors(g), base)
    if max(colors, default=-1) + 1 == n:
        return Canonized(g, tuple(colors), trivial_group(n))
    classes, loop = _twin_classes(g, colors, base)
    if classes:
        q, groups = _quotient(g, colors, classes, loop)
        q_colors = _refine(q, list(q.vertex_attrs), base)
    else:
        q, groups, q_colors = g, [[v] for v in range(n)], colors
    q_perm, q_auts, q_path = _search(q, q_colors, base)
    q_inv = inverse(q_perm)
    start = [0] * len(groups)
    pos = 0
    for x in q_inv:
        start[x] = pos
        pos += len(groups[x])
    perm = [0] * n
    for x, vs in enumerate(groups):
        for k, v in enumerate(vs, start[x]):
            perm[v] = k
    runs = [(start[x], start[x] + len(groups[x])) for x in q_inv if len(groups[x]) > 1]
    auts = tuple(tuple(q_perm[a[x]] for x in q_inv) for a in q_auts)
    blocks = PermGroup(len(groups), auts, tuple(q_perm[x] for x in q_path))
    group = SymmetricRuns(n, runs, schreier_sims(blocks) if auts else None)
    return Canonized(g, tuple(perm), group)


@dataclass(frozen=True)
class SequenceCanonized:
    """Canonized sequence: the stable sort, the permutation achieving it, and
    the automorphism group (a product of symmetric groups on equal runs)."""

    canon_seq: Sequence
    canon_perm: Perm
    aut_order: int
    aut_group: SymmetricRuns


def apply_sequence(s: Perm, x: Sequence) -> Sequence:
    """The rearrangement action: the element at position i moves to s(i).
    Raises DegreeMismatch for a wrong length and ValueError if s is not a
    permutation."""
    if len(s) != len(x):
        raise DegreeMismatch(
            f"permutation degree {len(s)} != sequence length {len(x)}"
        )
    if not is_perm(s):
        raise ValueError(f"not a permutation: {tuple(s)!r}")
    out = [None] * len(x)
    for i, item in enumerate(x):
        out[s[i]] = item
    if isinstance(x, str):
        return "".join(out)
    return tuple(out)


def equal_runs(ordered: Sequence) -> List[Tuple[int, int]]:
    """The maximal runs [a, b) of equal elements of a sorted sequence, found
    by bisection: one step per run."""
    runs = []
    a = 0
    while a < len(ordered):
        b = bisect_right(ordered, ordered[a], a)
        runs.append((a, b))
        a = b
    return runs


def canonize_string(x: Sequence) -> SequenceCanonized:
    """Canonical ordering for sequences/multisets: stable sort, with the sort
    permutation.

    The automorphism group of the sorted sequence is the product of the
    symmetric groups on its runs of equal elements, so aut_order is the
    product of the factorials of the element multiplicities. It is kept as
    its runs (SymmetricRuns), with no Schreier-Sims and no chain. This is
    sequence_class's canonizer for the generic permutation interface
    (symmetrize checks, verifying a decoded multiset); its coding path
    sorts the values and builds no permutation (see shuffle).
    """
    n = len(x)
    order = sorted(range(n), key=lambda i: (x[i], i))
    perm = [0] * n
    for pos, i in enumerate(order):
        perm[i] = pos
    perm = tuple(perm)
    canon = apply_sequence(perm, x)
    group = SymmetricRuns(n, equal_runs(canon))
    return SequenceCanonized(canon, perm, group_order(group), group)
