"""Uniform codecs over permutations: the full symmetric group, an arbitrary
permutation group given by a stabilizer chain, and left cosets of such a group.

The coset codec is the bits-back workhorse: encoding a coset first *decodes* a
group element from the message (reclaiming log2 |H| bits) and then encodes a
permutation of the full symmetric group (paying log2 n!), for a net rate of
log2(n!/|H|). On a product of symmetric groups on runs (SymmetricRuns, a
multiset's automorphism group) it codes the coset itself instead, as an
arrangement of run labels over the values and a Fisher-Yates shuffle of the
values outside the runs: log2(n!/|H|) bits with no group element. The
uniform codec over the symmetric group is that coset codec of the trivial
group.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from .ans import (
    Codec,
    Message,
    pop_arrangement,
    pop_uniforms,
    push_arrangement,
    push_uniforms,
)
from .perms import (
    DegreeMismatch,
    Perm,
    StabilizerChain,
    SymmetricRuns,
    as_perm,
    compose,
    coset_canon,
    element_rank,
    element_unrank,
    inverse,
)


def _push_shuffle(m: Message, s: Perm) -> None:
    """Push the Fisher-Yates draws that shuffle the identity into s, a
    permutation already checked, as one run of the uniform kernel."""
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


def _pop_shuffle(m: Message, n: int) -> Perm:
    """Pop the Fisher-Yates draws for j = n..2 and shuffle the identity."""
    s = list(range(n))
    sizes = range(n, 1, -1)
    for j, i in zip(sizes, pop_uniforms(m, sizes)):
        s[i], s[j - 1] = s[j - 1], s[i]
    return tuple(s)


def uniform_s_codec(n: int) -> Codec:
    """Uniform codec over the symmetric group on n points: the coset codec of
    the trivial SymmetricRuns, a Fisher-Yates shuffle driven by Uniform(j)
    draws for j = n..2. One run of the uniform kernel each way; the
    aggregate rate is log2 n! per permutation."""
    return uniform_l_coset_codec(SymmetricRuns(n, ()))


def uniform_perm_grp_codec(chain: StabilizerChain) -> Codec:
    """Uniform codec over the members of a permutation group.

    Codes the orbit-index tuple of the transversal factorization, one uniform
    symbol per chain level, for a total of sum_k log2 |O_k| = log2 |H| bits.
    """
    sizes = [len(lvl.orbit) for lvl in chain.levels]

    def encode(m: Message, h) -> None:
        push_uniforms(m, element_rank(chain, as_perm(h)), sizes)

    def decode(m: Message) -> Perm:
        return element_unrank(chain, pop_uniforms(m, sizes))

    return Codec(encode, decode)


def uniform_l_coset_codec(group: Union[StabilizerChain, SymmetricRuns]) -> Codec:
    """Uniform codec over left cosets of H in the symmetric group.

    encode accepts any member of the coset and is constant on it; decode
    returns the canonical (lex-min) member. Net rate: log2 n! - log2 |H|.
    Only the permutation passed to encode is checked; the group element t
    and the shuffle u are built here and coded through element_rank and
    the Fisher-Yates draws directly. SymmetricRuns codes its cosets
    directly (see _runs_coset_codec).
    """
    if isinstance(group, SymmetricRuns):
        return _runs_coset_codec(group.degree, group.runs)
    n = group.degree
    sizes = [len(lvl.orbit) for lvl in group.levels]

    def encode(m: Message, s) -> None:
        s_canon = coset_canon(group, as_perm(s))
        t = element_unrank(group, pop_uniforms(m, sizes))
        _push_shuffle(m, compose(s_canon, t))

    def decode(m: Message) -> Perm:
        u = _pop_shuffle(m, n)
        s_canon = coset_canon(group, u)
        t = compose(inverse(s_canon), u)
        push_uniforms(m, element_rank(group, t), sizes)
        return s_canon

    return Codec(encode, decode)


def _runs_coset_codec(n: int, runs: Tuple[Tuple[int, int], ...]) -> Codec:
    """The coset codec of S_{k1} x ... x S_{kr}, one factor per run [a, b).

    A coset s*H is fixed by which values s puts on each run, and by the
    values on the positions outside the runs. Each run is one label, the
    positions outside them share one more label, and the coset is the
    arrangement of these labels over the values 0..n-1 (push_arrangement,
    log2 of n!/(k1! ... kr! q!) bits for q positions outside the runs),
    then a Fisher-Yates shuffle of the q values labelled outside (log2 q!
    bits). With no runs the arrangement codes nothing and the shuffle is
    that of the trivial group's chain.
    """
    r = len(runs)
    label_of = [r] * n
    counts = []
    for j, (a, b) in enumerate(runs):
        label_of[a:b] = [j] * (b - a)
        counts.append(b - a)
    counts.append(n - sum(counts))
    singles = [i for i in range(n) if label_of[i] == r]

    def encode(m: Message, s) -> None:
        s = as_perm(s)
        if len(s) != n:
            raise DegreeMismatch(f"degrees {len(s)} and {n} differ")
        labels = [label_of[i] for i in inverse(s)]
        rank = [0] * n
        for k, v in enumerate([v for v in range(n) if labels[v] == r]):
            rank[v] = k
        _push_shuffle(m, [rank[s[i]] for i in singles])
        push_arrangement(m, labels, counts)

    def decode(m: Message) -> Perm:
        labels = pop_arrangement(m, counts)
        u = _pop_shuffle(m, len(singles))
        s = [0] * n
        fill = [a for a, _ in runs]
        outside = []
        for v, j in enumerate(labels):
            if j == r:
                outside.append(v)
            else:
                s[fill[j]] = v
                fill[j] += 1
        for i, k in zip(singles, u):
            s[i] = outside[k]
        return tuple(s)

    return Codec(encode, decode)
