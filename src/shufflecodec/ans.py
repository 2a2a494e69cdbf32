"""Stack-like (LIFO) rANS entropy coder.

The coder state is a Message: a 64-bit head register plus a stack of 16-bit
words. The head is kept in the renormalization interval [2**48, 2**64), which
admits distributions over 2**p mass units for p <= 48; with power-of-two
denominators every renormalization interval is exactly b-unique and each
encode/decode pair an exact bijection.

One rounding rule serves every symbol. A symbol is the subrange [C, C + w)
of a distribution over k symbols whose exact integer weights sum to
T <= 2**48, and it owns the subrange

    [floor(C * 2**p / T), floor((C + w) * 2**p / T))  of 2**p,
    p = min(48, max(bitlen(T - 1), bitlen(k - 1) + 16)).

Since T <= 2**p, every positive weight keeps at least one unit, zero weights
get none, and the masses sum to 2**p with no sort or repair. Each coded
probability is off by less than 2**-p, which bounds the expected rounding
cost by k * 2**-p nats <= 2**-16 nats (about 2.2e-5 bits) per symbol. A
uniform symbol x < n is the subrange (x, 1, n), with k = T = n. The rANS
step itself adds about log2(1 + f/h) bits for mass f and head h >= 2**48.

Five kernel pairs code runs of symbols with the head in a local variable:
push_symbols/pop_symbols over one Table (the floors of a weight vector),
push_uniforms/pop_uniforms over uniform symbols of varying sizes (pushed
by push_exact's loop), push_exact/pop_exact over symbols given only by
their subrange of an exact total, for alphabets too large or too
short-lived to tabulate (there the decoder maps the popped value back to
the exact target in [0, T) and lets the caller find the symbol),
push_arrangement/pop_arrangement over a uniformly random arrangement of a
label multiset, one exact-mass draw without replacement per element, and
push_shuffle/pop_shuffle over a uniformly random permutation, the
Fisher-Yates draws for sizes n..2 as uniform symbols, the trivial group's
bits-back step. A push checks every symbol before the message changes,
except push_shuffle, whose caller checks the permutation. A single symbol
is a run of one: there are no scalar codecs. Tables are shared: table_for
builds one per weight tuple (bernoulli_weights gives a Bernoulli bit's),
and bernoulli_block_table tabulates up to 8 Bernoulli bits as one symbol.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import struct
import zlib
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Any, Callable, List, Optional, Sequence, Tuple

WORD_BITS = 16
WORD_MASK = (1 << WORD_BITS) - 1
HEAD_MIN = 1 << 48
HEAD_LIMIT = 1 << 64
MAX_PRECISION = 48

# Headroom (in bits) between the mass unit 2**-p and the smallest probability
# 1/k of a uniform choice among k symbols.
_HEADROOM_BITS = 16

_TOTAL_LIMIT = 1 << MAX_PRECISION
_BERNOULLI_GRID = 1 << 32

MAGIC = b"SHUF"
FORMAT_VERSION = 15

DEFAULT_PAD_SEED = 0x53485546  # arbitrary fixed constant; see Message.pop_word


class CodecError(Exception):
    """Base class for coder errors."""


class ParameterError(CodecError):
    """A codec was constructed with invalid parameters."""


class ContractViolation(CodecError):
    """A value outside the codec's contract was passed to encode."""


class MessageUnderflow(CodecError):
    """A decode required more message content than is available."""


class FormatError(CodecError):
    """Serialized message bytes are malformed."""


_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def pad_word(seed: int, index: int) -> int:
    """The index-th pseudo-random 16-bit pad word for a given seed."""
    return _splitmix64(((seed & _M64) << 20) ^ index) & WORD_MASK


class Message:
    """Mutable rANS coder state: head register plus a word stack.

    A Message is a value with single-owner mutation; never share one between
    concurrent operations. ``pad_seed`` controls the behaviour of pops from an
    empty stack: with a seed set, deterministic pseudo-random pad words are
    supplied (and counted in ``pad_consumed``), which is how bits-back decodes
    near the initial message obtain their "initial bits". With ``pad_seed``
    None such pops raise MessageUnderflow instead.

    Equality compares head and stack contents only, not pad bookkeeping.
    """

    __slots__ = ("head", "tail", "pad_seed", "pad_consumed")

    def __init__(
        self,
        head: int = HEAD_MIN,
        tail: Sequence[int] = (),
        pad_seed: Optional[int] = DEFAULT_PAD_SEED,
    ):
        if not HEAD_MIN <= head < HEAD_LIMIT:
            raise ParameterError(f"head {head:#x} outside [2**48, 2**64)")
        self.head = head
        self.tail: List[int] = list(tail)
        self.pad_seed = pad_seed
        self.pad_consumed = 0

    def copy(self) -> "Message":
        m = Message(self.head, self.tail, self.pad_seed)
        m.pad_consumed = self.pad_consumed
        return m

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return self.head == other.head and self.tail == other.tail

    def __repr__(self) -> str:
        return f"Message(head={self.head:#x}, tail_words={len(self.tail)})"

    @property
    def length_bits(self) -> float:
        """Exact-log size: log2(head) plus 16 bits per stack word."""
        return math.log2(self.head) + WORD_BITS * len(self.tail)

    def pop_word(self) -> int:
        if self.tail:
            return self.tail.pop()
        if self.pad_seed is None:
            raise MessageUnderflow("message exhausted (no pad source)")
        word = pad_word(self.pad_seed, self.pad_consumed)
        self.pad_consumed += 1
        return word


def message_init(pad_seed: Optional[int] = DEFAULT_PAD_SEED) -> Message:
    """The fixed initial message: lowest valid head, empty stack."""
    return Message(HEAD_MIN, (), pad_seed)


def _precision(total: int, size: int) -> int:
    """The precision p of a distribution over `size` symbols whose weights
    sum to `total`; ParameterError unless total is an integer in [1, 2**48]."""
    if not (type(total) is int and 1 <= total <= _TOTAL_LIMIT):
        raise ParameterError(f"total {total!r} outside [1, 2**{MAX_PRECISION}]")
    # Plain comparisons: push_exact and pop_exact call this once per symbol,
    # and builtin min/max calls would make it about three times as slow.
    precision = (size - 1).bit_length() + _HEADROOM_BITS
    exact = (total - 1).bit_length()
    if exact > precision:
        precision = exact
    return precision if precision < MAX_PRECISION else MAX_PRECISION


def _check_totals(totals: Sequence[int]) -> None:
    """ParameterError unless every total is an int in [1, 2**48]: one pass
    over the set of types, then min and max, in place of a call per total."""
    if totals and not (
        {int}.issuperset(map(type, totals))
        and min(totals) >= 1
        and max(totals) <= _TOTAL_LIMIT
    ):
        bad = next(t for t in totals if not (type(t) is int and 1 <= t <= _TOTAL_LIMIT))
        raise ParameterError(f"total {bad!r} outside [1, 2**{MAX_PRECISION}]")


def quantize_masses(weights: Sequence[int], precision: int) -> List[int]:
    """The cumulative floors of integer weights over 2**precision: a weight w
    whose predecessors weigh C gets floor((C + w) * 2**precision / T) -
    floor(C * 2**precision / T), T the total.

    The masses sum to 2**precision; as T <= 2**precision, every positive
    weight keeps at least one unit and zeros stay zero. Raises ParameterError
    for a precision outside [1, 48], weights that are not nonnegative
    integers, and a total outside [1, 2**precision].
    """
    if not 1 <= precision <= MAX_PRECISION:
        raise ParameterError(f"precision {precision} outside [1, {MAX_PRECISION}]")
    ws = list(weights)
    if not {int}.issuperset(map(type, ws)) or min(ws, default=0) < 0:
        raise ParameterError("weights must be nonnegative integers")
    cums = list(accumulate(ws, initial=0))
    total = cums[-1]
    if not 1 <= total <= 1 << precision:
        raise ParameterError(f"weight total {total} outside [1, 2**{precision}]")
    if total == 1 << precision:  # every floor is exact: the masses are the weights
        return ws
    floors = [(c << precision) // total for c in cums]
    return list(map(operator.sub, floors[1:], floors))


class Table:
    """The distribution on {0..k-1} of k exact integer weights with total at
    most 2**48, rounded by cumulative floors: symbol x owns the subrange
    [cums[x], cums[x] + masses[x]) of 2**precision."""

    __slots__ = ("precision", "masses", "cums")

    def __init__(self, weights: Sequence[int]):
        weights = list(weights)
        self.precision = _precision(sum(weights), len(weights))
        self.masses = quantize_masses(weights, self.precision)
        self.cums = list(accumulate(self.masses, initial=0))


def table_for(weights: Sequence[int]) -> Table:
    """The Table of the weights, built once per weight tuple and shared by
    every caller, which must not mutate it. Raises ParameterError unless the
    weights are nonnegative ints with total in [1, 2**48], checked before the
    cache is consulted: bools hash as the ints they equal, so a cached
    (1, 1) table must not stand in for (True, True)."""
    weights = tuple(weights)
    if not {int}.issuperset(map(type, weights)) or min(weights, default=0) < 0:
        raise ParameterError("weights must be nonnegative integers")
    _precision(sum(weights), len(weights))
    return _cached_table(weights)


# A few tables serve a corpus: its attribute tables, the ER block tables of its
# edge probability, a string model's symbol table. The bound keeps the memory
# of large alphabets in check: a 20 000-symbol table and its key take 1.8 MB.
@functools.lru_cache(maxsize=32)
def _cached_table(weights: Tuple[int, ...]) -> Table:
    return Table(weights)


def _bad_symbol(masses: List[int], x: Any) -> ContractViolation:
    k = len(masses)
    if isinstance(x, int) and 0 <= x < k:
        return ContractViolation(f"symbol {x} has zero mass")
    return ContractViolation(f"symbol {x!r} outside [0, {k})")


def push_symbols(m: Message, table: Table, symbols: Sequence[int]) -> None:
    """Push a run of symbols over one table, last symbol first, so that
    pop_symbols returns them in order. Raises ContractViolation, before the
    message changes, if a symbol has no mass."""
    masses, cums, precision = table.masses, table.cums, table.precision
    k = len(masses)
    try:
        valid = not symbols or (
            min(symbols) >= 0 and max(symbols) < k and all(map(masses.__getitem__, symbols))
        )
    except TypeError:  # a symbol that is not an int
        valid = False
    if not valid:
        bad = next(x for x in symbols if not (isinstance(x, int) and 0 <= x < k and masses[x]))
        raise _bad_symbol(masses, bad)
    shift = 64 - precision
    head = m.head
    append = m.tail.append
    for x in reversed(symbols):
        freq = masses[x]
        limit = freq << shift
        while head >= limit:
            append(head & WORD_MASK)
            head >>= WORD_BITS
        head = ((head // freq) << precision) + head % freq + cums[x]
    m.head = head


def pop_symbols(m: Message, table: Table, count: int) -> List[int]:
    """Pop a run of count symbols over one table, first symbol first."""
    masses, cums, precision = table.masses, table.cums, table.precision
    mask = (1 << precision) - 1
    locate = bisect.bisect_right
    head, tail = m.head, m.tail
    out: List[int] = []
    append = out.append
    for _ in range(count):
        cf = head & mask
        x = locate(cums, cf) - 1
        head = masses[x] * (head >> precision) + cf - cums[x]
        while head < HEAD_MIN:
            head = (head << WORD_BITS) | (tail.pop() if tail else m.pop_word())
        append(x)
    m.head = head
    return out


def push_uniforms(m: Message, symbols: Sequence[int], sizes: Sequence[int]) -> None:
    """Push symbols[i], uniform on {0..sizes[i]-1}, last symbol first, so
    that pop_uniforms(m, sizes) returns them in order. Each symbol x < n is
    the subrange (x, 1, n) of push_exact, with its bytes. Raises, before the
    message changes, ParameterError for a size outside [1, 2**48] and
    ContractViolation for a symbol that is not an int in its range."""
    if len(symbols) != len(sizes):
        raise ContractViolation(f"{len(symbols)} symbols for {len(sizes)} sizes")
    _check_totals(sizes)
    for x, n in zip(symbols, sizes):
        if type(x) is not int or not 0 <= x < n:
            raise ContractViolation(f"symbol {x!r} outside [0, {n})")
    _push_subranges(m, list(zip(symbols, repeat(1), sizes)))


def pop_uniforms(m: Message, sizes: Sequence[int]) -> List[int]:
    """Pop one uniform symbol on {0..n-1} per size n, first size first.
    Raises ParameterError, before the message changes, for a bad size."""
    _check_totals(sizes)
    head, tail = m.head, m.tail
    out = []
    for n in sizes:
        precision = (n - 1).bit_length() + _HEADROOM_BITS
        if precision > MAX_PRECISION:
            precision = MAX_PRECISION
        cf = head & ((1 << precision) - 1)
        x = ((cf + 1) * n - 1) >> precision
        lo = (x << precision) // n
        head = (((x + 1) << precision) // n - lo) * (head >> precision) + cf - lo
        while head < HEAD_MIN:
            head = (head << WORD_BITS) | (tail.pop() if tail else m.pop_word())
        out.append(x)
    m.head = head
    return out


def push_exact(m: Message, symbols: Sequence[Tuple[int, int, int]]) -> None:
    """Push a run of symbols, each given as (start, mass, total): the subrange
    [start, start + mass) of an exact integer total. Last symbol first, so
    that pop_exact pops them in order. Raises, before the message changes,
    ParameterError for a total outside [1, 2**48] and ContractViolation for
    an empty, non-integral or out-of-range subrange."""
    for start, mass, total in symbols:
        _precision(total, total)
        if not (type(start) is int and type(mass) is int):
            raise ContractViolation(f"subrange ({start!r}, {mass!r}) is not integral")
        if not 0 <= start < start + mass <= total:
            raise ContractViolation(
                f"subrange [{start}, {start + mass}) empty or outside [0, {total})"
            )
    _push_subranges(m, symbols)


def _push_subranges(m: Message, symbols: Sequence[Tuple[int, int, int]]) -> None:
    """push_exact's coding loop, for subranges already checked."""
    head = m.head
    append = m.tail.append
    for start, mass, total in reversed(symbols):
        precision = (total - 1).bit_length() + _HEADROOM_BITS
        if precision > MAX_PRECISION:
            precision = MAX_PRECISION
        lo = (start << precision) // total
        freq = ((start + mass) << precision) // total - lo
        limit = freq << (64 - precision)
        while head >= limit:
            append(head & WORD_MASK)
            head >>= WORD_BITS
        head = ((head // freq) << precision) + head % freq + lo
    m.head = head


def pop_exact(
    m: Message, total: int, locate: Callable[[int], "tuple[Any, int, int]"]
) -> Any:
    """Pop a symbol pushed by push_exact with the same total. locate maps the
    exact target t in [0, total) to (symbol, start, mass) with
    start <= t < start + mass, for the symbol that owns t. Raises, before the
    message changes, ParameterError for a bad total and ContractViolation if
    locate's subrange misses t."""
    precision = _precision(total, total)
    head = m.head
    cf = head & ((1 << precision) - 1)
    t = ((cf + 1) * total - 1) >> precision
    symbol, start, mass = locate(t)
    if not start <= t < start + mass:
        raise ContractViolation(f"located subrange [{start}, {start + mass}) misses {t}")
    lo = (start << precision) // total
    freq = ((start + mass) << precision) // total - lo
    head = freq * (head >> precision) + cf - lo
    while head < HEAD_MIN:
        head = (head << WORD_BITS) | m.pop_word()
    m.head = head
    return symbol


def push_shuffle(m: Message, s: Sequence[int]) -> None:
    """Push the Fisher-Yates draws that shuffle the identity into s, a
    permutation the caller has checked: for j = n..2, the position i < j
    whose value swaps into position j - 1, uniform on {0..j-1}, with the
    bytes of push_uniforms(m, draws, range(n, 1, -1)). The draws are found
    first, largest j first, then pushed smallest j first, so that
    pop_shuffle pops them in order."""
    n = len(s)
    p = list(range(n))  # the values of the partial shuffle, by position
    p_inv = list(range(n))  # and their positions, by value
    draws = [0] * n
    for j in range(n - 1, 0, -1):
        # Positions >= j are final: only positions and values below are read.
        i = p_inv[s[j]]
        u = p[j]
        p[i] = u
        p_inv[u] = i
        draws[j] = i
    head = m.head
    append = m.tail.append
    for j in range(1, n):
        size = j + 1
        precision = j.bit_length() + _HEADROOM_BITS
        if precision > MAX_PRECISION:
            precision = MAX_PRECISION
        x = draws[j]
        lo = (x << precision) // size
        freq = ((x + 1) << precision) // size - lo
        limit = freq << (64 - precision)
        while head >= limit:
            append(head & WORD_MASK)
            head >>= WORD_BITS
        head = ((head // freq) << precision) + head % freq + lo
    m.head = head


def pop_shuffle(m: Message, n: int) -> Tuple[int, ...]:
    """Pop the Fisher-Yates draws for j = n..2, each uniform on {0..j-1},
    swapping each into place in the identity as it is popped: the inverse
    of push_shuffle."""
    s = list(range(n))
    head, tail = m.head, m.tail
    for j in range(n - 1, 0, -1):
        size = j + 1
        precision = j.bit_length() + _HEADROOM_BITS
        if precision > MAX_PRECISION:
            precision = MAX_PRECISION
        cf = head & ((1 << precision) - 1)
        i = ((cf + 1) * size - 1) >> precision
        lo = (i << precision) // size
        head = (((i + 1) << precision) // size - lo) * (head >> precision) + cf - lo
        while head < HEAD_MIN:
            head = (head << WORD_BITS) | (tail.pop() if tail else m.pop_word())
        s[i], s[j] = s[j], s[i]
    m.head = head
    return tuple(s)


def _arrangement_state(counts: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The counts as a list and their Fenwick tree (tree[i] sums the counts
    of labels i - (i & -i) .. i - 1). ParameterError unless the counts are
    nonnegative ints with total at most 2**48."""
    left = list(counts)
    if not {int}.issuperset(map(type, left)) or min(left, default=0) < 0:
        raise ParameterError("label counts must be nonnegative integers")
    if sum(left) > _TOTAL_LIMIT:
        raise ParameterError(f"label count total above 2**{MAX_PRECISION}")
    tree = [0, *left]
    r = len(left)
    for i in range(1, r + 1):
        j = i + (i & -i)
        if j <= r:
            tree[j] += tree[i]
    return left, tree


def push_arrangement(m: Message, labels: Sequence[int], counts: Sequence[int]) -> None:
    """Push labels, an arrangement of the multiset holding counts[j] copies of
    each label j, as a uniform choice among its n!/prod(counts[j]!)
    arrangements. Element i is one exact-mass symbol drawn without
    replacement from the n - i labels left: its start is the count left of
    the lower labels, its mass the count left of its own label, rounded as
    push_exact rounds. Once a single label is left each draw has the whole
    total as its mass, so it codes nothing and leaves the head as it is. A
    Fenwick tree over the counts makes each draw O(log r) for r labels.
    Raises ParameterError for bad counts and ContractViolation, before the
    message changes, unless labels is such an arrangement."""
    left, tree = _arrangement_state(counts)
    r, total = len(left), sum(left)
    if len(labels) != total:
        raise ContractViolation(f"{len(labels)} labels for counts totalling {total}")
    subranges = []
    for x in labels:
        if type(x) is not int or not 0 <= x < r or not left[x]:
            raise ContractViolation(f"label {x!r} outside [0, {r}) or over its count")
        start = 0
        i = x
        while i:
            start += tree[i]
            i &= i - 1
        mass = left[x]
        subranges.append((start, mass, total))
        left[x] = mass - 1
        i = x + 1
        while i <= r:
            tree[i] -= 1
            i += i & -i
        total -= 1
    _push_subranges(m, subranges)


def pop_arrangement(m: Message, counts: Sequence[int]) -> List[int]:
    """Pop an arrangement pushed by push_arrangement with the same counts,
    first element first. Raises ParameterError, before the message changes,
    for bad counts."""
    left, tree = _arrangement_state(counts)
    r, total = len(left), sum(left)
    top = 1 << (r.bit_length() - 1) if r else 0
    head, tail = m.head, m.tail
    out: List[int] = []
    append = out.append
    while total:
        precision = (total - 1).bit_length() + _HEADROOM_BITS
        if precision > MAX_PRECISION:
            precision = MAX_PRECISION
        cf = head & ((1 << precision) - 1)
        t = ((cf + 1) * total - 1) >> precision
        # The label x whose counts below sum to at most t: the largest
        # Fenwick prefix x with tree-prefix(x) <= t.
        x, rest, step = 0, t, top
        while step:
            i = x + step
            if i <= r and tree[i] <= rest:
                x = i
                rest -= tree[i]
            step >>= 1
        start, mass = t - rest, left[x]
        lo = (start << precision) // total
        head = (((start + mass) << precision) // total - lo) * (head >> precision) + cf - lo
        while head < HEAD_MIN:
            head = (head << WORD_BITS) | (tail.pop() if tail else m.pop_word())
        append(x)
        left[x] = mass - 1
        i = x + 1
        while i <= r:
            tree[i] -= 1
            i += i & -i
        total -= 1
    m.head = head
    return out


class Codec:
    """A paired encode/decode over a value set.

    encode(m, x) pushes x onto the message; decode(m) pops the last-pushed
    value and restores the message exactly (LIFO discipline). ``prob``, when
    set, maps a value to its exact probability as a Fraction.
    """

    __slots__ = ("encode", "decode", "prob")

    def __init__(
        self,
        encode: Callable[[Message, Any], None],
        decode: Callable[[Message], Any],
        prob: Optional[Callable[[Any], Fraction]] = None,
    ):
        self.encode = encode
        self.decode = decode
        self.prob = prob


def bernoulli_weights(p) -> Tuple[int, int]:
    """The weights (den - num, num) of p = num/den, p strictly in (0, 1). A
    denominator above 2**32 (a float such as 0.3) is first rounded to the
    2**-32 grid inside (0, 1): at totals near 2**48 each rANS step would
    lose rate."""
    pf = Fraction(p)
    if not 0 < pf < 1:
        raise ParameterError(f"Bernoulli p={p!r} outside (0, 1)")
    if pf.denominator > _BERNOULLI_GRID:
        num = min(max(round(pf * _BERNOULLI_GRID), 1), _BERNOULLI_GRID - 1)
        pf = Fraction(num, _BERNOULLI_GRID)
    return pf.denominator - pf.numerator, pf.numerator


# Maps a list indexed by popcount to the tuple of its entries at the popcounts
# of the bytes 0..255.
_BY_POPCOUNT = operator.itemgetter(*map(int.bit_count, range(256)))


def bernoulli_block_table(p, size: int) -> Table:
    """The shared Table of `size` i.i.d. Bernoulli(p) bits, 1 <= size <= 8,
    as one symbol x < 2**size whose bit t is the t-th bit, p rounded to the
    weights (q0, q1) of bernoulli_weights. The exact probability
    q0**(size - c) * q1**c / (q0 + q1)**size of x with c set bits is scaled
    to 2**32 and floored, at least 1; the most probable symbol (all zeros or
    all ones) takes up the remainder, so the weights total exactly 2**32 and
    are the masses. Each probability moves by under 2**size * 2**-32, a
    rounding cost below 2**size * 2**-32 relative per symbol. The weights
    are ints by construction, so the cache is consulted without table_for's
    check."""
    if not (type(size) is int and 1 <= size <= 8):
        raise ParameterError(f"block size {size!r} outside [1, 8]")
    q0, q1 = bernoulli_weights(p)
    den = (q0 + q1) ** size
    by_count = [
        max(1, (q0 ** (size - c) * q1**c << 32) // den) for c in range(size + 1)
    ]
    by_count += [0] * (8 - size)  # popcounts above size come after x = 2**size
    weights = list(_BY_POPCOUNT(by_count)[: 1 << size])
    weights[0 if q0 >= q1 else -1] += (1 << 32) - sum(weights)
    return _cached_table(tuple(weights))


def message_serialize(m: Message) -> bytes:
    """On-disk format: magic, u16 version, u32 word count, u16 words
    (oldest first), u64 head, u32 CRC32 of the payload. Little-endian."""
    count = len(m.tail)
    payload = struct.pack("<I", count)
    payload += struct.pack(f"<{count}H", *m.tail) if count else b""
    payload += struct.pack("<Q", m.head)
    return MAGIC + struct.pack("<H", FORMAT_VERSION) + payload + struct.pack(
        "<I", zlib.crc32(payload)
    )


def message_deserialize(data: bytes) -> Message:
    """Inverse of message_serialize; raises FormatError on any corruption.

    The returned message has no pad source: decoding more than was encoded
    raises MessageUnderflow rather than fabricating content.
    """
    if len(data) < 18:
        raise FormatError("truncated message")
    if data[:4] != MAGIC:
        raise FormatError("bad magic")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    (count,) = struct.unpack_from("<I", data, 6)
    end = 10 + 2 * count + 8
    if len(data) != end + 4:
        raise FormatError("length mismatch")
    payload = data[6:end]
    (crc,) = struct.unpack_from("<I", data, end)
    if zlib.crc32(payload) != crc:
        raise FormatError("checksum mismatch")
    words = struct.unpack_from(f"<{count}H", data, 10) if count else ()
    (head,) = struct.unpack_from("<Q", data, 10 + 2 * count)
    if not HEAD_MIN <= head < HEAD_LIMIT:
        raise FormatError("head outside renormalization interval")
    return Message(head, words, None)
