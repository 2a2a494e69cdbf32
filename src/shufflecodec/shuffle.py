"""Shuffle coding: turn a codec for ordered objects into a codec for their
isomorphism classes.

Encoding bits-back pops a uniformly random ordered member of the object's
class (log2(n!/|Aut|) bits) and encodes it under the model; decoding decodes
it, pushes its ordering back and returns the canonical member. The class owns
that ordering step: in general a coset of the canonical form's automorphism
group, coded as a permutation (a Fisher-Yates shuffle when the group is
trivial), composed with the canonical permutation and applied to the object
in one relabeling; for sequences the arrangement of the values, one label
per distinct value, or the Fisher-Yates shuffle of the sorted values when no
value repeats, with the bytes of that coset and no permutation check. Near
the initial message the pop draws deterministic pseudo-random pad words
instead of content, so the first object costs about its ordered rate and
the discount is amortized over later objects.

Each encode returns a RateReport. Its discount_bits, log2 n! - log2 |Aut|,
is summed from log-factorials over n and over the group's runs, less log2
of the block chain's orbit lengths, so encoding multiplies out no
factorial; its aut_order, the exact |Aut|, is multiplied out from the runs
and the chain the ordering step holds only when it is read.
"""

from __future__ import annotations

import math
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .ans import (
    WORD_BITS,
    Codec,
    CodecError,
    Message,
    pop_arrangement,
    pop_shuffle,
    push_arrangement,
    push_shuffle,
)
from .canon import (
    Canonized,
    SequenceCanonized,
    apply_sequence,
    canonize,
    canonize_string,
    equal_runs,
)
from .graphs import Graph, apply_perm
from .perm_codecs import uniform_l_coset_codec
from .perms import Perm, StabilizerChain, compose, group_order, inverse


def _aut_order(runs: Sequence[int], blocks: Optional[StabilizerChain]) -> int:
    """|Aut| of a group with symmetric groups on runs of the given sizes and
    an optional block chain: the runs' factorials times the chain's order."""
    order = math.prod(map(math.factorial, runs))
    return order if blocks is None else order * group_order(blocks)


class Drawn(NamedTuple):
    """pop_ordered's member, its automorphism group as the sizes of its runs
    and its block chain (see perms.SymmetricRuns), and canonize time."""

    ordered: Any
    aut_runs: Sequence[int]
    aut_blocks: Optional[StabilizerChain]
    canonize_seconds: float

    @property
    def aut_order(self) -> int:
        return _aut_order(self.aut_runs, self.aut_blocks)


@dataclass(frozen=True)
class PermutableClass:
    """A set with a vertex/position relabeling action and a canonizer, and
    the bits-back ordering step over it: pop_ordered and push_ordering. The
    canonizer returns canon.Canonized or canon.SequenceCanonized: the
    permutation mapping the object onto its canonical member (canon_perm),
    and that member's automorphism group (aut_group) and its order."""

    apply: Callable[[Perm, Any], Any]
    canonize: Callable[[Any], Union[Canonized, SequenceCanonized]]
    degree: Callable[[Any], int]

    def pop_ordered(self, m: Message, f) -> Drawn:
        """Pop a uniformly random ordered member of f's class: the canonical
        member relabeled by a member s of a coset of its automorphism group,
        built as f relabeled once by s composed with the canonical
        permutation."""
        started = time.perf_counter()
        info = self.canonize(f)
        canonize_seconds = time.perf_counter() - started
        group = info.aut_group
        s = uniform_l_coset_codec(group).decode(m)
        ordered = self.apply(compose(s, info.canon_perm), f)
        return Drawn(ordered, [b - a for a, b in group.runs], group.blocks, canonize_seconds)

    def push_ordering(self, m: Message, g):
        """Push back the ordering of g, an ordered member, as the coset that
        maps the canonical member onto it; return the canonical member, g
        relabeled by the canonical permutation."""
        info = self.canonize(g)
        uniform_l_coset_codec(info.aut_group).encode(m, inverse(info.canon_perm))
        return self.apply(info.canon_perm, g)


def graph_class() -> PermutableClass:
    # canonize is looked up in this module at each call, so that rebinding
    # the name here (a tracer, a test) sees every canonization.
    return PermutableClass(apply_perm, lambda g: canonize(g), lambda g: g.n)


def _value_counts(xs: Sequence) -> Tuple[List[Any], List[Any], Sequence[int]]:
    """xs sorted, its distinct values, increasing, and how often each
    occurs, or no counts when no value repeats (the group is trivial). Such
    a sequence is recognized by one C-level pass over neighbouring pairs,
    with no search for runs."""
    ordered = sorted(xs)
    if all(map(operator.lt, ordered, islice(ordered, 1, None))):
        return ordered, ordered, ()
    runs = equal_runs(ordered)
    return ordered, [ordered[a] for a, _ in runs], [b - a for a, b in runs]


class _SequenceClass(PermutableClass):
    """Sequences under rearrangement, with the bytes of the sorted sequence's
    SymmetricRuns coset and no permutation check. When a value repeats, the
    ordering step is the arrangement of the values, each labelled by its
    index among the distinct values (ans.pop_arrangement). When none does,
    the group is trivial and the ordering is the Fisher-Yates shuffle that
    puts the sorted values in place, O(1) per element where an arrangement
    draw walks a Fenwick tree."""

    def pop_ordered(self, m: Message, f) -> Drawn:
        started = time.perf_counter()
        _, values, sizes = _value_counts(f)
        canonize_seconds = time.perf_counter() - started
        if len(values) == len(f):
            g = [None] * len(f)
            for v, i in zip(values, pop_shuffle(m, len(f))):
                g[i] = v
        else:
            g = list(map(values.__getitem__, pop_arrangement(m, sizes)))
        g = "".join(g) if isinstance(f, str) else tuple(g)
        return Drawn(g, sizes, None, canonize_seconds)

    def push_ordering(self, m: Message, g):
        canon, values, sizes = _value_counts(g)
        if len(values) == len(g):
            push_shuffle(m, tuple(sorted(range(len(g)), key=g.__getitem__)))
        else:
            push_arrangement(m, [bisect_left(values, x) for x in g], sizes)
        return "".join(canon) if isinstance(g, str) else tuple(canon)


def sequence_class() -> PermutableClass:
    # Looked up at each call, as in graph_class.
    return _SequenceClass(apply_sequence, lambda x: canonize_string(x), len)


@dataclass(frozen=True)
class RateReport:
    """One shuffle-coded object's accounting: the measured ordered_bits and
    pad drawn (initial_bits_overhead), the ideal discount_bits log2 n! -
    log2 |Aut| and net_bits = ordered - discount, and canonization's time.

    The discount is summed from log-factorials, with no factorial multiplied
    out: log n! less log k! for each run of k points (math.lgamma), in bits,
    less log2 of each of the block chain's orbit lengths. The exact |Aut|,
    aut_order, is computed from the runs and the chain the ordering step
    found, and only when read."""

    ordered_bits: float
    discount_bits: float
    net_bits: float
    initial_bits_overhead: float
    canonize_seconds: float
    aut_runs: Sequence[int] = field(repr=False)
    aut_blocks: Optional[StabilizerChain] = field(repr=False)

    @property
    def aut_order(self) -> int:
        return _aut_order(self.aut_runs, self.aut_blocks)


_LN2 = math.log(2)


def _discount_bits(n: int, runs: Sequence[int], blocks: Optional[StabilizerChain]) -> float:
    """log2 n! - log2 |Aut| for RateReport, from log-factorials; 0.0 exactly
    when Aut is S_n, one run of n points."""
    bits = (math.lgamma(n + 1) - sum(math.lgamma(k + 1) for k in runs)) / _LN2
    if blocks is not None:
        bits -= sum(math.log2(len(lvl.orbit)) for lvl in blocks.levels)
    return bits


def discount_bits(f: Graph) -> float:
    """log2 n! - log2 |Aut(f)|: the rate saved by forgetting vertex order,
    from the exact integers."""
    return math.log2(math.factorial(f.n) // canonize(f).aut_order)


class ShuffleCodec:
    """Codec for unordered objects built from an ordered-object codec.

    The ordered codec should be exchangeable for the optimal-rate guarantee;
    invertibility holds regardless. encode accepts any member of the class and
    produces the same bitstream for all of them; decode returns the canonical
    member. An encode that raises a CodecError, an ordered codec's refusal
    or a bits-back pop from a message with no pad source that runs out,
    leaves the message and its pad count as they were.
    """

    def __init__(self, ordered_codec: Codec, pclass: PermutableClass):
        self.ordered_codec = ordered_codec
        self.pclass = pclass

    def encode(self, m: Message, f) -> RateReport:
        n = self.pclass.degree(f)
        pad_before = m.pad_consumed
        # Only a message with no pad source can run out mid-pop: only it is
        # copied, and the coding paths, which all have a pad seed, copy none.
        saved = m.copy() if m.pad_seed is None else None
        try:
            drawn = self.pclass.pop_ordered(m, f)
            length_mid = m.length_bits
            self.ordered_codec.encode(m, drawn.ordered)
        except CodecError:
            if saved is not None:
                m.head, m.tail = saved.head, saved.tail
                raise
            # The ordered codec refused, leaving the message as the pop left
            # it: pushing the ordering back restores it, with the pad words
            # the pop drew re-materialized at the bottom of the stack.
            self.pclass.push_ordering(m, drawn.ordered)
            del m.tail[: m.pad_consumed - pad_before]
            m.pad_consumed = pad_before
            raise
        ordered = m.length_bits - length_mid
        discount = _discount_bits(n, drawn.aut_runs, drawn.aut_blocks)
        return RateReport(
            ordered_bits=ordered,
            discount_bits=discount,
            net_bits=ordered - discount,
            initial_bits_overhead=WORD_BITS * (m.pad_consumed - pad_before),
            canonize_seconds=drawn.canonize_seconds,
            aut_runs=drawn.aut_runs,
            aut_blocks=drawn.aut_blocks,
        )

    def decode(self, m: Message):
        return self.pclass.push_ordering(m, self.ordered_codec.decode(m))
