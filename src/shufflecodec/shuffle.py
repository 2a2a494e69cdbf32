"""Shuffle coding: turn a codec for ordered objects into a codec for their
isomorphism classes.

Encoding bits-back decodes a coset of the object's automorphism group (worth
log2(n!/|Aut|) bits), applies the decoded ordering to the canonical form, and
encodes the resulting ordered object under the model. Decoding inverts the
three steps and returns the canonical representative. Near the initial message
the coset decode draws deterministic pseudo-random pad words instead of
content, so the first object costs about its ordered rate and the discount is
amortized over later objects.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Union

from .ans import WORD_BITS, Codec, Message
from .canon import canonize, canonize_string, apply_sequence
from .graphs import Graph, apply_perm
from .perm_codecs import uniform_l_coset_codec
from .perms import Perm, StabilizerChain, SymmetricRuns, inverse


class CanonInfo(NamedTuple):
    """Canonizer output in the shape the shuffle codec needs."""

    value: Any
    perm: Perm
    aut_group: Union[StabilizerChain, SymmetricRuns]
    aut_order: int


@dataclass(frozen=True)
class PermutableClass:
    """A set with a vertex/position relabeling action and a canonizer."""

    apply: Callable[[Perm, Any], Any]
    canonize: Callable[[Any], CanonInfo]
    degree: Callable[[Any], int]


def graph_class() -> PermutableClass:
    def canon(g: Graph) -> CanonInfo:
        c = canonize(g)
        return CanonInfo(c.canon_graph, c.canon_perm, c.chain, c.aut_order)

    return PermutableClass(apply_perm, canon, lambda g: g.n)


def sequence_class() -> PermutableClass:
    def canon(x) -> CanonInfo:
        c = canonize_string(x)
        return CanonInfo(c.canon_seq, c.canon_perm, c.aut_group, c.aut_order)

    return PermutableClass(apply_sequence, canon, len)


@dataclass(frozen=True)
class RateReport:
    """Exact accounting for one shuffle-coded object, from measured message
    length deltas (so it stays meaningful for stochastic models), and the
    wall time its canonization took."""

    ordered_bits: float
    discount_bits: float
    net_bits: float
    aut_order: int
    initial_bits_overhead: float
    canonize_seconds: float


def log2_factorial(n: int) -> float:
    return math.log2(math.factorial(n))


def discount_bits(f: Graph) -> float:
    """log2 n! - log2 |Aut(f)|: the rate saved by forgetting vertex order."""
    return log2_factorial(f.n) - math.log2(canonize(f).aut_order)


class ShuffleCodec:
    """Codec for unordered objects built from an ordered-object codec.

    The ordered codec should be exchangeable for the optimal-rate guarantee;
    invertibility holds regardless. encode accepts any member of the class and
    produces the same bitstream for all of them; decode returns the canonical
    member.
    """

    def __init__(self, ordered_codec: Codec, pclass: PermutableClass):
        self.ordered_codec = ordered_codec
        self.pclass = pclass

    def encode(self, m: Message, f) -> RateReport:
        started = time.perf_counter()
        info = self.pclass.canonize(f)
        canonize_seconds = time.perf_counter() - started
        n = self.pclass.degree(f)
        pad_before = m.pad_consumed
        coset_codec = uniform_l_coset_codec(info.aut_group)
        s = coset_codec.decode(m)
        length_mid = m.length_bits
        g = self.pclass.apply(s, info.value)
        self.ordered_codec.encode(m, g)
        ordered = m.length_bits - length_mid
        discount = log2_factorial(n) - math.log2(info.aut_order)
        return RateReport(
            ordered_bits=ordered,
            discount_bits=discount,
            net_bits=ordered - discount,
            aut_order=info.aut_order,
            initial_bits_overhead=WORD_BITS * (m.pad_consumed - pad_before),
            canonize_seconds=canonize_seconds,
        )

    def decode(self, m: Message):
        g = self.ordered_codec.decode(m)
        info = self.pclass.canonize(g)
        s = inverse(info.perm)
        uniform_l_coset_codec(info.aut_group).encode(m, s)
        return info.value
