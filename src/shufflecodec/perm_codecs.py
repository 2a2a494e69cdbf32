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


def uniform_s_codec(n: int) -> Codec:
    """Uniform codec over the symmetric group on n points, via Fisher-Yates.

    The decoder is the Fisher-Yates shuffle driven by Uniform(j) draws for
    j = n..2; the encoder recovers the draw sequence by unshuffling and then
    encodes it in reverse. Both directions run in O(n) coder operations, one
    run of the uniform kernel, and the aggregate rate is log2 n! per
    permutation.
    """
    sizes = range(n, 1, -1)

    def encode(m: Message, s) -> None:
        s = as_perm(s)
        if len(s) != n:
            raise ContractViolation(f"permutation degree {len(s)} != {n}")
        p = list(range(n))
        p_inv = list(range(n))
        draws: List[int] = []
        for j in sizes:
            i = p_inv[s[j - 1]]
            p_inv[p[j - 1]], p_inv[s[j - 1]] = p_inv[s[j - 1]], p_inv[p[j - 1]]
            p[i], p[j - 1] = p[j - 1], p[i]
            draws.append(i)
        push_uniforms(m, draws, sizes)

    def decode(m: Message) -> Perm:
        s = list(range(n))
        for j, i in zip(sizes, pop_uniforms(m, sizes)):
            s[i], s[j - 1] = s[j - 1], s[i]
        return tuple(s)

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
    """
    n = chain.degree
    grp_codec = uniform_perm_grp_codec(chain)
    s_codec = uniform_s_codec(n)

    def encode(m: Message, s) -> None:
        s_canon = coset_canon(chain, as_perm(s))
        t = grp_codec.decode(m)
        u = compose(s_canon, t)
        s_codec.encode(m, u)

    def decode(m: Message) -> Perm:
        u = s_codec.decode(m)
        s_canon = coset_canon(chain, u)
        t = compose(inverse(s_canon), u)
        grp_codec.encode(m, t)
        return s_canon

    return Codec(encode, decode)
