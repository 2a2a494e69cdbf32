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
from fractions import Fraction
from typing import Any, Callable, List, NamedTuple, Optional

from .ans import WORD_BITS, Codec, Message
from .canon import canonize, canonize_string, apply_sequence
from .graphs import Graph, apply_perm
from .perm_codecs import uniform_l_coset_codec
from .perms import Perm, StabilizerChain, inverse


class CanonInfo(NamedTuple):
    """Canonizer output in the shape the shuffle codec needs."""

    value: Any
    perm: Perm
    chain: StabilizerChain
    aut_order: int


@dataclass(frozen=True)
class PermutableClass:
    """A set with a vertex/position relabeling action and a canonizer."""

    apply: Callable[[Perm, Any], Any]
    canonize: Callable[[Any], CanonInfo]
    degree: Callable[[Any], int]


@dataclass
class CanonStats:
    """Accumulates canonization call counts and wall time (for speed reports)."""

    calls: int = 0
    seconds: float = 0.0


def graph_class(stats: Optional[CanonStats] = None) -> PermutableClass:
    def canon(g: Graph) -> CanonInfo:
        if stats is None:
            c = canonize(g)
        else:
            start = time.perf_counter()
            c = canonize(g)
            stats.seconds += time.perf_counter() - start
            stats.calls += 1
        return CanonInfo(c.canon_graph, c.canon_perm, c.chain, c.aut_order)

    return PermutableClass(apply_perm, canon, lambda g: g.n)


def sequence_class() -> PermutableClass:
    def canon(x) -> CanonInfo:
        c = canonize_string(x)
        return CanonInfo(c.canon_seq, c.canon_perm, c.chain, c.aut_order)

    return PermutableClass(apply_sequence, canon, len)


@dataclass(frozen=True)
class RateReport:
    """Exact accounting for one shuffle-coded object, from measured message
    length deltas (so it stays meaningful for stochastic models)."""

    ordered_bits: float
    discount_bits: float
    net_bits: float
    aut_order: int
    initial_bits_overhead: float


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
        info = self.pclass.canonize(f)
        n = self.pclass.degree(f)
        pad_before = m.pad_consumed
        coset_codec = uniform_l_coset_codec(info.chain)
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
        )

    def decode(self, m: Message):
        g = self.ordered_codec.decode(m)
        info = self.pclass.canonize(g)
        s = inverse(info.perm)
        uniform_l_coset_codec(info.chain).encode(m, s)
        return info.value


@dataclass(frozen=True)
class ClassReport:
    """Per-isomorphism-class findings of symmetrize_check."""

    representative: Any
    size: int
    aut_order: int
    orbit_formula_holds: bool  # size * |Aut| == n!
    equal_probability: bool
    class_mass: Optional[Any]  # sum of member probabilities (Fraction)
    mass_matches_formula: Optional[bool]  # class_mass == size * P(rep)


@dataclass(frozen=True)
class SymmetrizeReport:
    exchangeable: bool
    num_classes: int
    classes: List[ClassReport]
    total_mass: Optional[Any]


def symmetrize_check(
    codec: Codec, samples, pclass: Optional[PermutableClass] = None
) -> SymmetrizeReport:
    """Diagnostic: verify that an ordered codec treats isomorphic objects
    equally, and that class masses match the orbit-size formula.

    With an exact probability function on the codec, checks are exact; for
    stochastic codecs (no ``prob``) members are compared by measured encode
    length from a fixed reference message, which flags non-exchangeable
    behaviour without proving it absent.
    """
    pclass = pclass or graph_class()
    by_class = {}
    for f in samples:
        info = pclass.canonize(f)
        key = info.value.key() if isinstance(info.value, Graph) else tuple(info.value)
        by_class.setdefault(key, (info, []))[1].append(f)

    def measured_bits(f) -> float:
        m = Message(pad_seed=1)
        before = m.length_bits
        codec.encode(m, f)
        return m.length_bits - before

    classes = []
    exchangeable = True
    total_mass = Fraction(0) if codec.prob is not None else None
    for key, (info, members) in sorted(by_class.items()):
        n = pclass.degree(members[0])
        orbit_ok = len(members) * info.aut_order == math.factorial(n)
        if codec.prob is not None:
            probs = [codec.prob(f) for f in members]
            equal = len(set(probs)) == 1
            mass = sum(probs)
            matches = mass == len(members) * probs[0] if equal else False
            total_mass += mass
        else:
            lengths = [measured_bits(f) for f in members]
            equal = max(lengths) - min(lengths) < 1e-6
            mass = None
            matches = None
        exchangeable = exchangeable and equal
        classes.append(
            ClassReport(
                representative=info.value,
                size=len(members),
                aut_order=info.aut_order,
                orbit_formula_holds=orbit_ok,
                equal_probability=equal,
                class_mass=mass,
                mass_matches_formula=matches,
            )
        )
    return SymmetrizeReport(
        exchangeable=exchangeable,
        num_classes=len(classes),
        classes=classes,
        total_mass=total_mass,
    )
