"""Permutations and permutation groups.

Permutations are tuples in one-line notation (p[i] is the image of i) and
compose like functions: compose(s, t) performs t, then s. A PermGroup holds
generators strong relative to a base of its own, as canonize's search finds
them, and schreier_sims completes from them, to the order that base gives,
the stabilizer chain that coding reads. Chains built here use the fixed base
0, 1, ..., n-1 (levels with trivial orbits are omitted), so a level's
subgroup fixes every point below its base point. The members of a left coset
s*H are coded by their lexicographic rank in one-line notation: coset_rank
reads one digit per level off the member itself, and coset_unrank walks from
any member to the member of given digits, one Schreier-tree element per
level. The base points, the orbits and so every rank depend only on the
group, never on its generators or on the seeded random members sifted;
coset_canon is rank zero, and element_rank/element_unrank are the same order
on the group itself.

An automorphism group as canonize returns it is one SymmetricRuns value:
symmetric groups on runs of consecutive points (a sorted sequence's group,
and a graph's twins), and optionally a chain over the blocks, the runs and
the points outside them, that permutes whole blocks. Its order is a product
of factorials times the chain's order, and its coset codec codes the runs
directly (see perm_codecs). The trivial group is a SymmetricRuns with no
run and no chain; trivial_group shares one per degree.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Perm = Tuple[int, ...]

# Degrees whose trivial group, and its coset codec (see perm_codecs), are kept
# and shared: a corpus of small graphs has a few dozen vertex counts.
SHARED_DEGREES = 64


class DegreeMismatch(ValueError):
    pass


class NotInGroup(ValueError):
    pass


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(s: Sequence[int]) -> bool:
    """Whether s lists each of 0..len(s)-1 once, in O(n). Entries must be
    ints: floats and bools equal to an index are rejected."""
    return {int}.issuperset(map(type, s)) and set(s).issuperset(range(len(s)))


def as_perm(images: Iterable[int]) -> Perm:
    p = tuple(images)
    if not is_perm(p):
        raise ValueError(f"not a permutation: {p!r}")
    return p


def compose(s: Perm, t: Perm) -> Perm:
    """The permutation performing t, then s."""
    if len(s) != len(t):
        raise DegreeMismatch(f"degrees {len(s)} and {len(t)} differ")
    return tuple(map(s.__getitem__, t))


def inverse(s: Perm) -> Perm:
    inv = [0] * len(s)
    for i, x in enumerate(s):
        inv[x] = i
    return tuple(inv)


def is_identity(s: Perm) -> bool:
    return all(i == x for i, x in enumerate(s))


def smallest_moved(s: Perm) -> Optional[int]:
    for i, x in enumerate(s):
        if i != x:
            return i
    return None


@dataclass(frozen=True)
class PermGroup:
    """A permutation group: its degree, its generators and a base, distinct
    points relative to which the generators are strong (for each k, those
    fixing the first k base points generate the stabilizer of those points,
    and none but the identity fixes them all). The input of schreier_sims."""

    degree: int
    generators: Tuple[Perm, ...]
    base: Tuple[int, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree:
                raise DegreeMismatch(
                    f"generator degree {len(g)} != group degree {self.degree}"
                )
            as_perm(g)
        if len(set(self.base)) < len(self.base) or not set(self.base) <= set(range(self.degree)):
            raise ValueError(f"base {self.base!r} repeats a point or leaves [0, {self.degree})")


class ChainLevel:
    """One level of a stabilizer chain: a base point and the Schreier tree of
    its orbit under the level's subgroup G, which fixes every point below the
    base point."""

    __slots__ = ("point", "orbit", "tree", "_walk")

    def __init__(self, point: int, degree: int):
        self.point = point
        self._walk: Dict[int, Perm] = {point: identity(degree)}
        self.grow(())

    def grow(self, gens: Sequence[Perm]) -> None:
        """Rebuild the Schreier tree breadth-first over gens, which generate G."""
        tree: Dict[int, Tuple[int, Perm]] = {self.point: None}  # type: ignore[dict-item]
        frontier = [self.point]
        while frontier:
            nxt = []
            for w in sorted(frontier):
                for g in gens:
                    img = g[w]
                    if img not in tree:
                        tree[img] = (w, g)
                        nxt.append(img)
            frontier = nxt
        self.tree = tree
        self.orbit = tuple(sorted(tree))
        self._walk = {self.point: self._walk[self.point]}

    def any_rep(self, point: int) -> Perm:
        """Some u in G with u(base) = point: climb the Schreier tree to the
        nearest walked ancestor, then compose back down, caching every node
        on the path. Iterative, so a tree as deep as the degree needs no deep
        recursion."""
        tree, walk = self.tree, self._walk
        path = []
        r = walk.get(point)
        while r is None:
            path.append(point)
            point = tree[point][0]
            r = walk.get(point)
        for w in reversed(path):
            r = compose(tree[w][1], r)
            walk[w] = r
        return r


class StabilizerChain:
    """Stabilizer chain with base points in increasing order; levels with
    trivial orbits are omitted. The terminal subgroup is trivial.

    Two chains are equal when they hold the same group: the same degree, base
    points and orbits (so the same order), and every Schreier-tree label of
    one a member of the other. The base points and orbits alone do not tell
    groups apart: the cyclic group and the Klein group on 4 points both have
    one level, point 0 with orbit (0, 1, 2, 3)."""

    __slots__ = ("degree", "levels")

    def __init__(self, degree: int, levels: Tuple[ChainLevel, ...]):
        self.degree = degree
        self.levels = levels

    def labels(self) -> List[Perm]:
        """The Schreier-tree labels of every level, which generate the group."""
        return [e[1] for lvl in self.levels for e in lvl.tree.values() if e]

    def _shape(self) -> tuple:
        return self.degree, tuple((lvl.point, lvl.orbit) for lvl in self.levels)

    def __eq__(self, other):
        if not isinstance(other, StabilizerChain):
            return NotImplemented
        return self._shape() == other._shape() and all(
            is_identity(coset_canon(self, g)) for g in other.labels()
        )

    def __hash__(self):
        return hash(self._shape())


@dataclass(frozen=True)
class SymmetricRuns:
    """S_{k1} x ... x S_{kr}, one symmetric group per run [a, b) of
    consecutive points, extended by a block chain: a sorted sequence's
    automorphism group, and a twin graph's.

    Runs must be disjoint, increasing and inside [0, degree), with int
    endpoints; runs of one point contribute nothing and are dropped. The
    blocks are the runs and the points outside them, in position order;
    blocks, if given, is a stabilizer chain over them whose members move
    each block onto an equal-sized block, its points in order. No chain on
    the points themselves is built: group_order and the coset codec (see
    perm_codecs) read the runs.
    """

    degree: int
    runs: Tuple[Tuple[int, int], ...]
    blocks: Optional[StabilizerChain] = None

    def __post_init__(self):
        n = self.degree
        if type(n) is not int or n < 0:
            raise ValueError(f"degree {n!r} is not a nonnegative int")
        runs = tuple((a, b) for a, b in self.runs)
        prev = 0
        for a, b in runs:
            if type(a) is not int or type(b) is not int or not prev <= a < b <= n:
                raise ValueError(
                    f"runs {runs!r} are not disjoint increasing int runs in [0, {n})"
                )
            prev = b
        object.__setattr__(self, "runs", tuple((a, b) for a, b in runs if b - a > 1))
        if self.blocks is not None:
            sizes = [b - a for a, b in self.block_spans()]
            if self.blocks.degree != len(sizes) or any(
                sizes[x] != k for g in self.blocks.labels() for x, k in zip(g, sizes)
            ):
                raise ValueError(f"blocks is no size-keeping chain on {len(sizes)} blocks")

    def block_spans(self) -> List[Tuple[int, int]]:
        """The blocks, the runs and the points outside them, as [a, b) in
        position order."""
        inside = {i for a, b in self.runs for i in range(a + 1, b)}
        first = [i for i in range(self.degree) if i not in inside]
        return list(zip(first, first[1:] + [self.degree]))


@lru_cache(maxsize=SHARED_DEGREES)
def trivial_group(n: int) -> SymmetricRuns:
    """SymmetricRuns(n, ()), one shared value per degree."""
    return SymmetricRuns(n, ())


def schreier_sims(group: PermGroup) -> StabilizerChain:
    """The chain on the fixed base 0..n-1, completed to the known order.

    A level per point of group.base, grown by the generators fixing the
    earlier ones, gives the order (their orbit lengths' product) and random
    members (one random Schreier-tree element per level, multiplied). The
    generators, then seeded random members, are sifted into the chain on
    0..n-1 until its orbit lengths reach that order, which only a complete
    chain does (Seress, "Permutation Group Algorithms", 2003, ch. 4). Level
    k holds the residues whose smallest moved point is its base point; its
    orbit is the closure under the residues at that level and above.
    """
    n = group.degree
    given: List[ChainLevel] = []
    gens = group.generators
    for b in group.base:
        given.append(ChainLevel(b, n))
        given[-1].grow(gens)
        gens = [g for g in gens if g[b] == b]
    order = math.prod(len(lvl.orbit) for lvl in given)
    rng = random.Random(0)
    members = itertools.chain(group.generators, (
        reduce(compose, [lvl.any_rep(rng.choice(lvl.orbit)) for lvl in given], identity(n))
        for _ in itertools.repeat(None)
    ))
    levels: List[ChainLevel] = []  # ascending by point
    gens_at: Dict[int, List[Perm]] = {}  # sifted residues by smallest moved point
    while math.prod(len(lvl.orbit) for lvl in levels) < order:
        g = next(members)
        for lvl in levels:
            img = g[lvl.point]
            if img != lvl.point:
                if img not in lvl.tree:
                    break
                g = compose(inverse(lvl.any_rep(img)), g)
        mp = smallest_moved(g)
        if mp is None:
            continue
        idx = bisect.bisect_left([lvl.point for lvl in levels], mp)
        if idx == len(levels) or levels[idx].point != mp:
            levels.insert(idx, ChainLevel(mp, n))
        gens_at.setdefault(mp, []).append(g)
        for k in range(idx + 1):
            levels[k].grow([h for lvl in levels[k:] for h in gens_at[lvl.point]])
    return StabilizerChain(n, tuple(levels))


def group_order(group: Union[StabilizerChain, SymmetricRuns]) -> int:
    if isinstance(group, SymmetricRuns):
        order = math.prod(math.factorial(b - a) for a, b in group.runs)
        return order if group.blocks is None else order * group_order(group.blocks)
    return math.prod(len(lvl.orbit) for lvl in group.levels)


def _check_degree(chain: StabilizerChain, s: Perm) -> None:
    if len(s) != chain.degree:
        raise DegreeMismatch(f"degrees {len(s)} and {chain.degree} differ")


def coset_rank(chain: StabilizerChain, s: Perm) -> Tuple[int, ...]:
    """The lexicographic rank of s among the one-line vectors of its left
    coset s*H, one digit per level, most significant first.

    The members of s*H that agree with s below a level's base point b take
    the images s(O) at b, O the level's orbit; the digit is how many of them
    lie below s[b]. No composition.
    """
    _check_degree(chain, s)
    digits = []
    for lvl in chain.levels:
        image = s[lvl.point]
        digits.append(sum(s[w] < image for w in lvl.orbit))
    return tuple(digits)


def coset_unrank(chain: StabilizerChain, s: Perm, digits: Sequence[int]) -> Perm:
    """The member of s*H whose coset_rank is digits, from any member s.

    At each level the walk moves the base point's image to the digit-th
    smallest image of the orbit, by one Schreier-tree element of the level's
    subgroup, which fixes every point below. So the result depends only on
    the coset, the group and the digits.
    """
    _check_degree(chain, s)
    if len(digits) != len(chain.levels):
        raise ValueError(f"expected {len(chain.levels)} digits, got {len(digits)}")
    cur = s
    for lvl, digit in zip(chain.levels, digits):
        if not 0 <= digit < len(lvl.orbit):
            raise ValueError(f"digit {digit} outside orbit of size {len(lvl.orbit)}")
        w = heapq.nsmallest(digit + 1, lvl.orbit, key=cur.__getitem__)[-1]
        cur = compose(cur, lvl.any_rep(w))
    return cur


def coset_canon(chain: StabilizerChain, s: Perm) -> Perm:
    """Lexicographically smallest one-line vector in the left coset s*H."""
    return coset_unrank(chain, s, (0,) * len(chain.levels))


def element_rank(chain: StabilizerChain, h: Perm) -> Tuple[int, ...]:
    """The lexicographic rank of a group member among all members (see
    coset_rank). Raises NotInGroup for non-members."""
    if not is_identity(coset_canon(chain, h)):
        raise NotInGroup(f"{h!r} is not in the group")
    return coset_rank(chain, h)


def element_unrank(chain: StabilizerChain, digits: Sequence[int]) -> Perm:
    """Inverse of element_rank."""
    return coset_unrank(chain, identity(chain.degree), digits)
