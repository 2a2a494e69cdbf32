"""Canonical orderings and automorphism groups.

Graphs are canonized by color refinement plus individualization search: refine
to an equitable coloring, branch on a target cell, and take the minimum leaf
form under the fixed total order of Graph.key(). Equal-form leaves certify
automorphisms, which generate Aut and prune the search: a backjump past the
automorphic subtree, and orbit pruning at each node. Sequences
(strings) are canonized by stable sorting.

Refinement signatures are tuples of ints (see _refine), and every pass reads
them off the edge list. The canonical form is built from the canonical
permutation only when read, so a caller that relabels the graph anyway
relabels it once.

The canonical form of a graph depends only on its isomorphism class, never on
the input labeling. The automorphisms found by its one search are conjugated
onto the canonical form. The chain they build may have other Schreier trees
for another input, but its base points, orbits and coset codes depend only on
the group (see perms): compressed bitstreams match across isomorphic inputs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from .graphs import Graph, apply_perm
from .perms import (
    DegreeMismatch,
    Perm,
    PermGroup,
    StabilizerChain,
    SymmetricRuns,
    compose,
    group_order,
    inverse,
    is_perm,
    schreier_sims,
)


@dataclass(frozen=True)
class Canonized:
    """Result of canonizing a graph: the input graph, a permutation mapping it
    onto its class representative, and the representative's automorphism
    group: generators, order and chain. The representative itself,
    canon_graph, is built on first access."""

    graph: Graph
    canon_perm: Perm
    aut_generators: PermGroup
    aut_order: int
    aut_group: StabilizerChain

    @cached_property
    def canon_graph(self) -> Graph:
        return apply_perm(self.canon_perm, self.graph)


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
    in signature order."""
    rank = {sig: c for c, sig in enumerate(sorted(set(sigs)))}
    return list(map(rank.__getitem__, sigs))


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
    stays first when the list is sorted: the sorted lists order as the
    signatures do."""
    n = len(colors)
    codes = [[c - n] for c in colors]
    labelled = g.edge_attrs.items() if g.edge_attrs is not None else zip(g.edges, repeat(0))
    for (i, j), a in labelled:
        if i != j:  # loops are folded into vertex colors
            codes[i].append(colors[j] * base + a)
            codes[j].append(colors[i] * base + a)
    return _ranks(list(map(tuple, map(sorted, codes))))


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


def _search(g: Graph) -> Tuple[Perm, List[Perm]]:
    """Individualization-refinement: returns the canonical labeling (the
    permutation minimizing apply(s, g).key() over the leaves) and a list of
    discovered automorphisms of g (complete as a generating set).

    A leaf with the key of the first or the best leaf maps that leaf's subtree
    onto its own, so the search jumps back to where their paths split
    (McKay & Piperno, "Practical graph isomorphism, II", 2014).

    Every refinement pass reads the edge list, so a graph whose first
    refinement is discrete costs that refinement and its one leaf."""
    base = max(g.edge_attrs.values(), default=0) + 1 if g.edge_attrs else 1
    colors = _refine(g, _initial_colors(g), base)
    if max(colors, default=-1) + 1 == g.n:
        return tuple(colors), []
    # [key, perm, path] of the first and of the best leaf so far.
    best: Optional[list] = None
    first: Optional[list] = None
    auts: List[Perm] = []

    def leaf(colors: List[int], path: List[int]) -> int:
        # A leaf's key is computed only once a second leaf needs it: most
        # graphs reach one leaf, which is then canonical without comparison.
        nonlocal best, first
        perm = tuple(colors)
        if first is None:
            first = best = [None, perm, path]
            return len(path)
        if first[0] is None:
            first[0] = apply_perm(first[1], g).key()
        key = apply_perm(perm, g).key()
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
    assert best is not None
    return best[1], auts


def canonize(g: Graph) -> Canonized:
    """Canonical permutation and Aut of the canonical form; the canonical
    form itself is built only when read."""
    perm, auts = _search(g)
    perm_inv = inverse(perm)
    grp = PermGroup(g.n, tuple(compose(perm, compose(a, perm_inv)) for a in auts))
    chain = schreier_sims(grp)
    return Canonized(g, perm, grp, group_order(chain), chain)


def canon_equal(a: Graph, b: Graph) -> bool:
    """Isomorphism test via canonical forms."""
    if a.n != b.n:
        return False
    return canonize(a).canon_graph == canonize(b).canon_graph


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
