"""The bits-back coset step: uniform_l_coset_codec, the one uniform codec
over the left cosets of an automorphism group H in the symmetric group.

H is a SymmetricRuns: symmetric groups on runs of positions (a multiset's
group, and a twin graph's), extended by a chain that permutes whole blocks,
the runs and the points outside them. A coset s*H is coded in two stages.
Encoding first *decodes*, bits back, the lexicographic rank of the blocks'
order within its coset of the block chain (log2 of the chain's order) and
moves the blocks to that order; it then encodes which values each block
holds, as one arrangement of block labels over the values, or as a
Fisher-Yates shuffle when every block is a point (log2 of n!/(k1! ... kr!)
for runs of k1, ..., kr points). The net rate is log2(n!/|H|). Decoding
pops the values, pushes the blocks' rank back and returns the coset's
lex-min member. The sequence class codes a multiset's ordering with the
same arrangement directly, with no permutation.

The trivial group's codec is the Fisher-Yates shuffle alone, O(1) per
point, where an arrangement draw walks a Fenwick tree, O(log n): coding
graphs' coset members as arrangements of n labels of one copy each cost
about 8% of encode and 3% of decode throughput on small attributed ER
graphs (perfbench er-attr, median ratio of 5 alternating 6 s pairs on a
2-core Xeon VM, Python 3.11). The Fisher-Yates kernels, push_shuffle and
pop_shuffle, live in ans beside the other coder loops; the trivial group's
codec is built once per degree and shared.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from .ans import (
    Codec,
    Message,
    pop_arrangement,
    pop_shuffle,
    pop_uniforms,
    push_arrangement,
    push_shuffle,
    push_uniforms,
)
from .perms import (
    SHARED_DEGREES,
    DegreeMismatch,
    Perm,
    SymmetricRuns,
    as_perm,
    coset_canon,
    coset_rank,
    coset_unrank,
    inverse,
)


def _checked(s, n: int) -> Perm:
    """s as a permutation of degree n; raises before any coding."""
    s = as_perm(s)
    if len(s) != n:
        raise DegreeMismatch(f"degrees {len(s)} and {n} differ")
    return s


@functools.lru_cache(maxsize=SHARED_DEGREES)
def _shuffle_codec(n: int) -> Codec:
    """The trivial group's coset codec on degree n, shared by every caller,
    which must not change it."""
    return Codec(lambda m, s: push_shuffle(m, _checked(s, n)), lambda m: pop_shuffle(m, n))


def _ranked(s: Perm, spans) -> Tuple[Perm, List[Perm]]:
    """Each block's rank by the least value s puts on it, and the values of
    the blocks in rank order."""
    parts = [s[a:b] for a, b in spans]
    order = sorted(range(len(parts)), key=lambda j: min(parts[j]))
    return inverse(order), [parts[j] for j in order]


def uniform_l_coset_codec(group: SymmetricRuns) -> Codec:
    """Uniform codec over left cosets of H in the symmetric group.

    encode accepts any member of the coset and is constant on it; decode
    returns the canonical (lex-min) member. Net rate: log2 n! - log2 |H|.
    Only the permutation passed to encode is checked. With a block chain,
    encode ranks the blocks by their least values, pops the chain's digits
    and moves the blocks so that their ranks become the member of the
    ranking's coset that the digits name; then it pushes the arrangement,
    or, when every block is a point, the shuffle. The trivial group codes
    the shuffle alone and builds no block layout: its codec is one shared
    value per degree.
    """
    n, chain = group.degree, group.blocks
    if not group.runs and chain is None:
        return _shuffle_codec(n)
    spans = group.block_spans()
    sizes = [b - a for a, b in spans]
    block_of = [j for j, (a, b) in enumerate(spans) for _ in range(a, b)]
    orbit_sizes = [len(lvl.orbit) for lvl in chain.levels] if chain is not None else []

    def encode(m: Message, s) -> None:
        s = _checked(s, n)
        if chain is not None:
            t, ranked = _ranked(s, spans)
            u = coset_unrank(chain, t, pop_uniforms(m, orbit_sizes))
            s = tuple(v for r in u for v in ranked[r])
        if not group.runs:
            return push_shuffle(m, s)
        labels = [0] * n
        for i, v in enumerate(s):
            labels[v] = block_of[i]
        push_arrangement(m, labels, sizes)

    def decode(m: Message) -> Perm:
        if group.runs:
            fill = [a for a, _ in spans]
            s = [0] * n
            for v, j in enumerate(pop_arrangement(m, sizes)):
                s[fill[j]] = v
                fill[j] += 1
        else:
            s = pop_shuffle(m, n)
        if chain is None:
            return tuple(s)
        t, ranked = _ranked(s, spans)
        push_uniforms(m, coset_rank(chain, t), orbit_sizes)
        return tuple(v for r in coset_canon(chain, t) for v in ranked[r])

    return Codec(encode, decode)
