"""Uniform codecs over permutations: the full symmetric group, an arbitrary
permutation group given by a stabilizer chain, and left cosets of such a group.

The coset codec is the bits-back workhorse: encoding a coset first *decodes* a
group element from the message (reclaiming log2 |H| bits) and then encodes a
permutation of the full symmetric group (paying log2 n!), for a net rate of
log2(n!/|H|).
"""

from __future__ import annotations

from typing import List

from .ans import Codec, ContractViolation, Message, pop_uniforms, push_uniforms
from .perms import (
    Perm,
    StabilizerChain,
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
    """Uniform codec over the symmetric group on n points, via Fisher-Yates.

    The decoder is the Fisher-Yates shuffle driven by Uniform(j) draws for
    j = n..2; the encoder recovers the draw sequence by unshuffling and then
    encodes it in reverse. Both directions run in O(n) coder operations, one
    run of the uniform kernel, and the aggregate rate is log2 n! per
    permutation.
    """

    def encode(m: Message, s) -> None:
        s = as_perm(s)
        if len(s) != n:
            raise ContractViolation(f"permutation degree {len(s)} != {n}")
        _push_shuffle(m, s)

    def decode(m: Message) -> Perm:
        return _pop_shuffle(m, n)

    return Codec(encode, decode)


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


def uniform_l_coset_codec(chain: StabilizerChain) -> Codec:
    """Uniform codec over left cosets of H in the symmetric group.

    encode accepts any member of the coset and is constant on it; decode
    returns the canonical (lex-min) member. Net rate: log2 n! - log2 |H|.
    Only the permutation passed to encode is checked; the group element t
    and the shuffle u are built here and coded through element_rank and
    the Fisher-Yates draws directly.
    """
    n = chain.degree
    sizes = [len(lvl.orbit) for lvl in chain.levels]

    def encode(m: Message, s) -> None:
        s_canon = coset_canon(chain, as_perm(s))
        t = element_unrank(chain, pop_uniforms(m, sizes))
        _push_shuffle(m, compose(s_canon, t))

    def decode(m: Message) -> Perm:
        u = _pop_shuffle(m, n)
        s_canon = coset_canon(chain, u)
        t = compose(inverse(s_canon), u)
        push_uniforms(m, element_rank(chain, t), sizes)
        return s_canon

    return Codec(encode, decode)
