"""Permutations and permutation groups.

Permutations are tuples in one-line notation (p[i] is the image of i) and
compose like functions: compose(s, t) performs t, then s. Groups are stored as
generator lists; stabilizer chains built here use the fixed base 0, 1, ..., n-1
(levels with trivial orbits are omitted), which makes the coset-canonical
element the lexicographic minimum in one-line notation. A level's transversal
element for orbit point w is the lex-min element of its group mapping the base
point to w, so all derived quantities depend only on the group and the base.

schreier_sims builds the chain of any generator list; a level walks its
Schreier tree to some element mapping the base point to w and takes the
lex-min of its coset over the levels below. A product of symmetric groups on
runs of consecutive points (a sorted sequence's automorphism group) is no
chain but a SymmetricRuns value: its order is a product of factorials, and
its coset codec codes the runs directly (see perm_codecs).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Perm = Tuple[int, ...]


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
    return tuple(s[x] for x in t)


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
    """A permutation group given by its degree and a generator list."""

    degree: int
    generators: Tuple[Perm, ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.degree:
                raise DegreeMismatch(
                    f"generator degree {len(g)} != group degree {self.degree}"
                )
            as_perm(g)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, ())

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        if degree < 2:
            return cls.trivial(degree)
        swap = (1, 0) + tuple(range(2, degree))
        cycle = tuple(range(1, degree)) + (0,)
        return cls(degree, (swap, cycle))


class ChainLevel:
    """One level of a stabilizer chain: a base point, its orbit under the
    current stabilizer subgroup G, and the canonical transversal of G."""

    __slots__ = ("point", "orbit", "_index", "_tree", "_walk", "_reps", "_below")

    def __init__(
        self,
        point: int,
        degree: int,
        tree: Dict[int, Tuple[int, Perm]],
        below: "StabilizerChain",
    ):
        self.point = point
        self.orbit = tuple(sorted(tree))
        self._index = {w: i for i, w in enumerate(self.orbit)}
        self._tree = tree
        self._walk: Dict[int, Perm] = {point: identity(degree)}
        self._reps = dict(self._walk)
        self._below = below

    def orbit_index(self, point: int) -> Optional[int]:
        return self._index.get(point)

    def any_rep(self, point: int) -> Perm:
        """Some u in G with u(base) = point (Schreier-tree walk, path-compressed)."""
        return _tree_rep(self._tree, self._walk, point)

    def rep(self, point: int) -> Perm:
        """The lex-min u in G with u(base) = point: the coset_canon of
        any_rep(point) over the levels below. Cached per point."""
        if point not in self._reps:
            self._reps[point] = coset_canon(self._below, self.any_rep(point))
        return self._reps[point]


class StabilizerChain:
    """Stabilizer chain with base points in increasing order; levels with
    trivial orbits are omitted. The terminal subgroup is trivial."""

    __slots__ = ("degree", "levels")

    def __init__(self, degree: int, levels: Tuple[ChainLevel, ...]):
        self.degree = degree
        self.levels = levels


@dataclass(frozen=True)
class SymmetricRuns:
    """S_{k1} x ... x S_{kr}, one symmetric group per run [a, b) of
    consecutive points: the automorphism group of a sorted sequence.

    Runs must be disjoint, increasing and inside [0, degree), with int
    endpoints; runs of one point contribute nothing and are dropped. No chain
    is built: group_order and the coset codec (see perm_codecs) read the
    runs.
    """

    degree: int
    runs: Tuple[Tuple[int, int], ...]

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


def _tree_rep(
    tree: Dict[int, Tuple[int, Perm]], reps: Dict[int, Perm], point: int
) -> Perm:
    """Transversal element for point: climb the Schreier tree to the nearest
    cached ancestor, then compose back down, caching every node on the path.
    Iterative, so a tree as deep as the degree needs no deep recursion."""
    path = []
    r = reps.get(point)
    while r is None:
        path.append(point)
        point = tree[point][0]
        r = reps.get(point)
    for w in reversed(path):
        r = compose(tree[w][1], r)
        reps[w] = r
    return r


def _bfs_tree(point: int, gens: Sequence[Perm]) -> Dict[int, Tuple[int, Perm]]:
    tree: Dict[int, Tuple[int, Perm]] = {point: None}  # type: ignore[dict-item]
    frontier = [point]
    while frontier:
        nxt = []
        for w in sorted(frontier):
            for g in gens:
                img = g[w]
                if img not in tree:
                    tree[img] = (w, g)
                    nxt.append(img)
        frontier = nxt
    return tree


class _BuildLevel:
    __slots__ = ("point", "gens", "tree", "reps")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: List[Perm] = []
        self.tree: Dict[int, Tuple[int, Perm]] = {point: None}  # type: ignore[dict-item]
        self.reps: Dict[int, Perm] = {point: identity(degree)}


def schreier_sims(group: PermGroup) -> StabilizerChain:
    """Deterministic Schreier-Sims relative to the fixed base 0..n-1.

    Level k holds the strong generators whose smallest moved point is the
    level's base point; the orbit at a level is the closure under all
    generators at that level and below.
    """
    n = group.degree
    e = identity(n)
    levels: List[_BuildLevel] = []  # ascending by point

    def strong_gens(idx: int) -> List[Perm]:
        return [g for lvl in levels[idx:] for g in lvl.gens]

    def recompute(idx: int) -> None:
        lvl = levels[idx]
        lvl.tree = _bfs_tree(lvl.point, strong_gens(idx))
        lvl.reps = {lvl.point: e}

    def rep(idx: int, point: int) -> Perm:
        return _tree_rep(levels[idx].tree, levels[idx].reps, point)

    def sift(g: Perm, start_idx: int) -> Perm:
        for idx in range(start_idx, len(levels)):
            lvl = levels[idx]
            img = g[lvl.point]
            if img == lvl.point:
                continue
            if img not in lvl.tree:
                return g
            g = compose(inverse(rep(idx, img)), g)
        return g

    def install(g: Perm) -> int:
        mp = smallest_moved(g)
        assert mp is not None
        points = [lvl.point for lvl in levels]
        idx = bisect.bisect_left(points, mp)
        if idx == len(levels) or levels[idx].point != mp:
            levels.insert(idx, _BuildLevel(mp, n))
        levels[idx].gens.append(g)
        for k in range(idx + 1):
            recompute(k)
        return idx

    def first_open_residue(idx: int) -> Optional[Perm]:
        recompute(idx)
        lvl = levels[idx]
        gens = strong_gens(idx)
        for w in sorted(lvl.tree):
            uw = rep(idx, w)
            for g in gens:
                sch = compose(inverse(rep(idx, g[w])), compose(g, uw))
                if is_identity(sch):
                    continue
                residue = sift(sch, idx + 1)
                if not is_identity(residue):
                    return residue
        return None

    for g in group.generators:
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

    frozen: Tuple[ChainLevel, ...] = ()  # bottom-up: a level reads those below
    for k in reversed(range(len(levels))):
        lvl, below = levels[k], StabilizerChain(n, frozen)
        frozen = (ChainLevel(lvl.point, n, lvl.tree, below),) + frozen
    return StabilizerChain(n, frozen)


def group_order(group: Union[StabilizerChain, SymmetricRuns]) -> int:
    if isinstance(group, SymmetricRuns):
        return math.prod(math.factorial(b - a) for a, b in group.runs)
    return math.prod(len(lvl.orbit) for lvl in group.levels)


def _check_degree(chain: StabilizerChain, s: Perm) -> None:
    if len(s) != chain.degree:
        raise DegreeMismatch(f"degrees {len(s)} and {chain.degree} differ")


def coset_canon(chain: StabilizerChain, s: Perm) -> Perm:
    """Lexicographically smallest one-line vector in the left coset s*H.

    Descends the stabilizer chain: at each level the base point's image is
    minimized over the orbit, globally optimal as the base is increasing and
    points between base points have trivial orbits. Any transversal will do.
    """
    _check_degree(chain, s)
    cur = s
    for lvl in chain.levels:
        best = min(lvl.orbit, key=lambda w: cur[w])
        cur = compose(cur, lvl.any_rep(best))
    return cur


def element_rank(chain: StabilizerChain, h: Perm) -> Tuple[int, ...]:
    """Orbit-index tuple of a group member under the chain's transversal
    factorization h = u_0 * u_1 * ... Raises NotInGroup for non-members."""
    _check_degree(chain, h)
    cur = h
    indices = []
    for lvl in chain.levels:
        img = cur[lvl.point]
        idx = lvl.orbit_index(img)
        if idx is None:
            raise NotInGroup(f"image {img} of base point {lvl.point} outside orbit")
        indices.append(idx)
        cur = compose(inverse(lvl.rep(img)), cur)
    if not is_identity(cur):
        raise NotInGroup("nontrivial residue after sifting")
    return tuple(indices)


def element_unrank(chain: StabilizerChain, indices: Sequence[int]) -> Perm:
    """Inverse of element_rank."""
    if len(indices) != len(chain.levels):
        raise ValueError(
            f"expected {len(chain.levels)} indices, got {len(indices)}"
        )
    h = identity(chain.degree)
    for lvl, idx in zip(chain.levels, indices):
        if not 0 <= idx < len(lvl.orbit):
            raise ValueError(f"index {idx} outside orbit of size {len(lvl.orbit)}")
        h = compose(h, lvl.rep(lvl.orbit[idx]))
    return h
