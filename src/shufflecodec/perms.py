"""Permutations and permutation groups.

Permutations are tuples in one-line notation (p[i] is the image of i) and
compose like functions: compose(s, t) performs t, then s. Groups are stored as
generator lists; stabilizer chains built here use the fixed base 0, 1, ..., n-1
(levels with trivial orbits are omitted), which makes the coset-canonical
element the lexicographic minimum in one-line notation. A level's transversal
element for orbit point w is the lex-min element of its group mapping the base
point to w, so all derived quantities depend only on the group and the base.

Chains come from two functions. schreier_sims works for any generator list; a
level walks its Schreier tree to some element mapping the base point to w and
takes the lex-min of its coset over the levels below. symmetric_runs_chain
builds the chain of a product of symmetric groups on runs of consecutive
points in closed form: it keeps the runs, and builds its levels (each orbit
index in O(1), each transversal element in O(n)) only when they are read.
The coset codec of such a chain codes the runs directly and reads no level
(see perm_codecs). group_order and coset_canon work on the runs too, and
element_rank and element_unrank take and decode each run's Lehmer code, with
O(n log n) Python steps in place of O(n) per level.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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

    __slots__ = ("point", "gens", "orbit", "_index", "_tree", "_walk", "_reps", "_below")

    def __init__(
        self,
        point: int,
        degree: int,
        gens: Sequence[Perm],
        tree: Dict[int, Tuple[int, Perm]],
        below: "StabilizerChain",
    ):
        self.point = point
        self.gens = tuple(gens)
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


class RunLevel(ChainLevel):
    """Level p of the chain of a product of symmetric groups whose factor
    acts on the run [a, b) containing p, in closed form.

    The orbit is range(p, b) and the transversal element for w is the cycle
    p -> w, k -> k-1 on (p, w]: the closed form of the lex-min element that
    maps p to w. rep is O(n) and orbit_index O(1); nothing is cached.
    gens, the adjacent transpositions (k, k+1) with k >= p within the runs, is
    built on demand, since no coset operation reads it.
    """

    __slots__ = ("_end", "_degree", "_runs")

    def __init__(
        self, point: int, end: int, degree: int, runs: Tuple[Tuple[int, int], ...]
    ):
        self.point = point
        self.orbit = range(point, end)
        self._end = end
        self._degree = degree
        self._runs = runs

    @property
    def gens(self) -> Tuple[Perm, ...]:
        return run_transpositions(self._degree, self._runs, self.point)

    def orbit_index(self, point: int) -> Optional[int]:
        return point - self.point if self.point <= point < self._end else None

    def rep(self, point: int) -> Perm:
        p = self.point
        if not p <= point < self._end:
            raise KeyError(point)
        return (*range(p), point, *range(p, point), *range(point + 1, self._degree))

    any_rep = rep


class StabilizerChain:
    """Stabilizer chain with base points in increasing order; levels with
    trivial orbits are omitted. The terminal subgroup is trivial.

    ``runs`` is set on the chains of symmetric_runs_chain: the runs [a, b) of
    two or more points whose symmetric groups the product has as factors.
    group_order, coset_canon, element_rank and element_unrank then work on
    the runs in closed form, with the results of the level walk, and the
    levels are built only when something reads them.
    """

    __slots__ = ("degree", "runs", "_levels")

    def __init__(
        self,
        degree: int,
        levels: Optional[Tuple[ChainLevel, ...]] = None,
        runs: Optional[Tuple[Tuple[int, int], ...]] = None,
    ):
        self.degree = degree
        self.runs = runs
        self._levels = levels

    @property
    def levels(self) -> Tuple[ChainLevel, ...]:
        if self._levels is None:
            self._levels = tuple(
                RunLevel(p, b, self.degree, self.runs)
                for a, b in self.runs
                for p in range(a, b - 1)
            )
        return self._levels


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
        frozen = (ChainLevel(lvl.point, n, strong_gens(k), lvl.tree, below),) + frozen
    return StabilizerChain(n, frozen)


def run_transpositions(
    n: int, runs: Sequence[Tuple[int, int]], start: int = 0
) -> Tuple[Perm, ...]:
    """The adjacent transpositions (k, k+1) inside the runs [a, b) with
    k >= start, in increasing k. With start = 0 they generate the product of
    the symmetric groups on the runs; with start = p, its pointwise stabilizer
    of the points below p."""
    gens = []
    for a, b in runs:
        for k in range(max(a, start), b - 1):
            gens.append((*range(k), k + 1, k, *range(k + 2, n)))
    return tuple(gens)


def symmetric_runs_chain(n: int, runs: Sequence[Tuple[int, int]]) -> StabilizerChain:
    """Stabilizer chain of S_{k1} x ... x S_{kr}, one factor per run [a, b) of
    consecutive points, without Schreier-Sims: one RunLevel per point of a
    run except its last, built when the levels are first read. Equal, level
    by level, to the schreier_sims chain of run_transpositions(n, runs). Runs
    must be disjoint, increasing and inside [0, n); runs of one point
    contribute nothing."""
    runs = tuple((a, b) for a, b in runs)
    prev = 0
    for a, b in runs:
        if not prev <= a < b <= n:
            raise ValueError(
                f"runs {runs!r} are not disjoint increasing runs in [0, {n})"
            )
        prev = b
    return StabilizerChain(n, runs=tuple((a, b) for a, b in runs if b - a > 1))


def group_order(chain: StabilizerChain) -> int:
    if chain.runs is not None:
        return math.prod(math.factorial(b - a) for a, b in chain.runs)
    order = 1
    for lvl in chain.levels:
        order *= len(lvl.orbit)
    return order


def _check_degree(chain: StabilizerChain, s: Perm) -> None:
    if len(s) != chain.degree:
        raise DegreeMismatch(f"degrees {len(s)} and {chain.degree} differ")


def _sort_runs(runs: Tuple[Tuple[int, int], ...], s: Perm) -> List[int]:
    """s with the values inside each run sorted."""
    out = list(s)
    for a, b in runs:
        out[a:b] = sorted(s[a:b])
    return out


def coset_canon(chain: StabilizerChain, s: Perm) -> Perm:
    """Lexicographically smallest one-line vector in the left coset s*H.

    Descends the stabilizer chain: at each level the base point's image is
    minimized over the orbit, globally optimal as the base is increasing and
    points between base points have trivial orbits. Any transversal will do.
    On a chain with runs, s*H permutes the values inside each run, so the
    minimum sorts them.
    """
    _check_degree(chain, s)
    if chain.runs is not None:
        return tuple(_sort_runs(chain.runs, s))
    cur = s
    for lvl in chain.levels:
        best = min(lvl.orbit, key=lambda w: cur[w])
        cur = compose(cur, lvl.any_rep(best))
    return cur


def element_rank(chain: StabilizerChain, h: Perm) -> Tuple[int, ...]:
    """Orbit-index tuple of a group member under the chain's transversal
    factorization h = u_0 * u_1 * ... Raises NotInGroup for non-members.

    On a chain with runs, the index at level p is the number of later
    positions in p's run whose value is below h[p]: each run's Lehmer code.
    """
    _check_degree(chain, h)
    if chain.runs is not None:
        if _sort_runs(chain.runs, h) != list(range(chain.degree)):
            raise NotInGroup("permutation does not keep the runs")
        indices: List[int] = []
        for a, b in chain.runs:
            below = [h[b - 1]]  # the run's later values, sorted
            code = []
            for p in range(b - 2, a - 1, -1):
                i = bisect.bisect_left(below, h[p])
                code.append(i)
                below.insert(i, h[p])
            indices.extend(reversed(code))
        return tuple(indices)
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
    """Inverse of element_rank. On a chain with runs, level p takes the
    index-th smallest value of its run not taken yet."""
    if len(indices) != len(chain.levels):
        raise ValueError(
            f"expected {len(chain.levels)} indices, got {len(indices)}"
        )
    if chain.runs is not None:
        h = list(range(chain.degree))
        it = iter(indices)
        for a, b in chain.runs:
            left = list(range(a, b))
            for p in range(a, b - 1):
                idx = next(it)
                if not 0 <= idx < b - p:
                    raise ValueError(f"index {idx} outside orbit of size {b - p}")
                h[p] = left.pop(idx)
            h[b - 1] = left[0]
        return tuple(h)
    h = identity(chain.degree)
    for lvl, idx in zip(chain.levels, indices):
        if not 0 <= idx < len(lvl.orbit):
            raise ValueError(f"index {idx} outside orbit of size {len(lvl.orbit)}")
        h = compose(h, lvl.rep(lvl.orbit[idx]))
    return h
