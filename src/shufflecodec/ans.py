"""Stack-like (LIFO) rANS entropy coder.

The coder state is a Message: a 64-bit head register plus a stack of 16-bit
words. The head is kept in the renormalization interval [2**48, 2**64), which
admits fixed-point symbol distributions with denominators up to 2**48. All
primitive codecs here use power-of-two denominators; that keeps every
renormalization interval exactly b-unique and the encode/decode pair an exact
bijection.

Rate accuracy: the per-operation overhead of rANS is about log2(1 + f/h) bits
where f is the coded symbol's mass and h >= 2**48 the head. Builders below
leave >= 16 bits of headroom between the largest mass and 2**48 whenever the
alphabet permits, so measured rates track the ideal rate to well under 0.001
bits per symbol.

Runs of symbols go through two loop kernels that keep the head in a local
variable: push_symbols/pop_symbols code a run over one cumulative Table (the
table of a categorical or Bernoulli codec, Codec.table), and
push_uniforms/pop_uniforms a run of uniform symbols of varying sizes. They do
exactly the arithmetic of the single-symbol codecs, symbol by symbol, so a run
costs the bits and produces the bytes of coding its symbols one at a time. A
push checks every symbol before the message changes.

A third primitive pair, push_exact/pop_exact, codes symbols given as the
subrange [start, start + mass) of an exact integer total T <= 2**48, for
alphabets too large or too short-lived to tabulate; each symbol may have its
own total, and push_exact takes a run of them. It quantizes by
cumulative floors: the symbol owns [floor(start * 2**p / T),
floor((start + mass) * 2**p / T)) of 2**p, p = min(48, bitlen(T - 1) + 16),
which is non-empty for every mass >= 1 because T <= 2**p. There is no
apportionment, sort or Table; the decoder maps the popped value back to the
exact target in [0, T) and lets the caller find the symbol there.
"""

from __future__ import annotations

import bisect
import heapq
import math
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

# Headroom (in bits) kept between the largest symbol mass and the head's lower
# bound when we are free to choose the denominator.
_HEADROOM_BITS = 16

_UNIFORM_LIMIT = 1 << MAX_PRECISION

MAGIC = b"SHUF"
FORMAT_VERSION = 5

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


def _push(m: Message, start: int, freq: int, precision: int) -> None:
    """Encode one symbol given its subrange [start, start+freq) of 2**precision."""
    if freq <= 0:
        raise ContractViolation("symbol has zero mass")
    head = m.head
    limit = freq << (64 - precision)
    while head >= limit:
        m.tail.append(head & WORD_MASK)
        head >>= WORD_BITS
    m.head = ((head // freq) << precision) + (head % freq) + start


def _pop(
    m: Message,
    precision: int,
    locate: Callable[[int], "tuple[Any, int, int]"],
) -> Any:
    """Decode one symbol; locate maps a cumulative value to (symbol, start, freq)."""
    mask = (1 << precision) - 1
    cf = m.head & mask
    symbol, start, freq = locate(cf)
    head = freq * (m.head >> precision) + cf - start
    while head < HEAD_MIN:
        head = (head << WORD_BITS) | m.pop_word()
    m.head = head
    return symbol


class Table:
    """A fixed-point distribution on {0..k-1}: symbol x owns the subrange
    [cums[x], cums[x] + masses[x]) of 2**precision."""

    __slots__ = ("precision", "masses", "cums")

    def __init__(self, masses: Sequence[int], precision: int):
        self.precision = precision
        self.masses = list(masses)
        self.cums = list(accumulate(masses, initial=0))


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
    if symbols and not (
        min(symbols) >= 0 and max(symbols) < k and all(map(masses.__getitem__, symbols))
    ):
        bad = next(x for x in symbols if not (0 <= x < k and masses[x]))
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


def _uniform_split(n: int) -> Tuple[int, int, int]:
    """(precision, base, rem) of the uniform distribution on {0..n-1}: symbols
    below rem have mass base + 1 and the others base, so symbol x starts at
    x*base + min(x, rem). Powers of two are exact (base 1, rem 0; n = 1 codes
    nothing); other sizes get 2**p mass units with headroom, which perturbs
    the rate by under n/2**p bits per symbol."""
    if n & (n - 1) == 0:
        return n.bit_length() - 1, 1, 0
    precision = min(MAX_PRECISION, (n - 1).bit_length() + _HEADROOM_BITS)
    base, rem = divmod(1 << precision, n)
    return precision, base, rem


def _check_uniform_size(n: Any) -> None:
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"uniform size must be a positive integer, got {n!r}")
    if n > _UNIFORM_LIMIT:
        raise ParameterError(f"uniform size {n} exceeds 2**{MAX_PRECISION}")


def push_uniforms(m: Message, symbols: Sequence[int], sizes: Sequence[int]) -> None:
    """Push symbols[k], uniform on {0..sizes[k]-1}, last symbol first, so
    that pop_uniforms(m, sizes) returns them in order. Raises, before the
    message changes, ParameterError for a bad size and ContractViolation for
    a symbol outside its range."""
    if len(symbols) != len(sizes):
        raise ContractViolation(f"{len(symbols)} symbols for {len(sizes)} sizes")
    for x, n in zip(symbols, sizes):
        if not 0 <= x < n <= _UNIFORM_LIMIT:
            _check_uniform_size(n)
            raise ContractViolation(f"symbol {x!r} outside [0, {n})")
    head = m.head
    append = m.tail.append
    for x, n in zip(reversed(symbols), reversed(sizes)):
        precision, base, rem = _uniform_split(n)
        if x < rem:
            freq = base + 1
            start = x * freq
        else:
            freq = base
            start = x * base + rem
        limit = freq << (64 - precision)
        while head >= limit:
            append(head & WORD_MASK)
            head >>= WORD_BITS
        head = ((head // freq) << precision) + head % freq + start
    m.head = head


def pop_uniforms(m: Message, sizes: Sequence[int]) -> List[int]:
    """Pop one uniform symbol on {0..n-1} per size n, first size first."""
    for n in sizes:
        if not 1 <= n <= _UNIFORM_LIMIT:
            _check_uniform_size(n)
    head, tail = m.head, m.tail
    out = []
    for n in sizes:
        precision, base, rem = _uniform_split(n)
        cf = head & ((1 << precision) - 1)
        split = rem * (base + 1)
        if cf < split:
            freq = base + 1
            x = cf // freq
            start = x * freq
        else:
            freq = base
            x = rem + (cf - split) // base
            start = x * base + rem
        head = freq * (head >> precision) + cf - start
        while head < HEAD_MIN:
            head = (head << WORD_BITS) | (tail.pop() if tail else m.pop_word())
        out.append(x)
    m.head = head
    return out


def _exact_precision(total: int) -> int:
    if not (isinstance(total, int) and 1 <= total <= _UNIFORM_LIMIT):
        raise ParameterError(f"total {total!r} outside [1, 2**{MAX_PRECISION}]")
    return min(MAX_PRECISION, (total - 1).bit_length() + _HEADROOM_BITS)


def push_exact(m: Message, symbols: Sequence[Tuple[int, int, int]]) -> None:
    """Push a run of symbols, each given as (start, mass, total): the subrange
    [start, start + mass) of an exact integer total. Last symbol first, so
    that pop_exact pops them in order. Raises, before the message changes,
    ParameterError for a total outside [1, 2**48] and ContractViolation for
    an empty, non-integral or out-of-range subrange."""
    precisions = []
    for start, mass, total in symbols:
        precisions.append(_exact_precision(total))
        if not (type(start) is int and type(mass) is int):
            raise ContractViolation(f"subrange ({start!r}, {mass!r}) is not integral")
        if not 0 <= start < start + mass <= total:
            raise ContractViolation(
                f"subrange [{start}, {start + mass}) empty or outside [0, {total})"
            )
    head = m.head
    append = m.tail.append
    for (start, mass, total), precision in zip(reversed(symbols), reversed(precisions)):
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
    precision = _exact_precision(total)
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


class Codec:
    """A paired encode/decode over a value set.

    encode(m, x) pushes x onto the message; decode(m) pops the last-pushed
    value and restores the message exactly (LIFO discipline). ``prob``, when
    set, maps a value to its exact probability as a Fraction. ``table``, when
    set, is the one Table the codec codes its symbol over, so that runs of
    such symbols can go through push_symbols/pop_symbols.
    """

    __slots__ = ("encode", "decode", "prob", "table")

    def __init__(
        self,
        encode: Callable[[Message, Any], None],
        decode: Callable[[Message], Any],
        prob: Optional[Callable[[Any], Fraction]] = None,
        table: Optional[Table] = None,
    ):
        self.encode = encode
        self.decode = decode
        self.prob = prob
        self.table = table


def quantize_masses(weights: Sequence, precision: int) -> List[int]:
    """Largest-remainder apportionment of 2**precision over the given weights.

    Every strictly positive weight receives mass >= 1; zero weights stay zero.
    Deterministic: remainder ties break toward lower indices, and mass needed
    to un-zero small weights is taken from the largest mass.

    Weights may be ints, Fractions or floats; the result is exactly that of
    apportioning their rational values. Non-integer weights are scaled by the
    common denominator, so all arithmetic is on plain integers: weight w gets
    floor(w * 2**precision / total), and the leftover units go to the largest
    remainders.
    """
    if not 1 <= precision <= MAX_PRECISION:
        raise ParameterError(f"precision {precision} outside [1, {MAX_PRECISION}]")
    ws = list(weights)
    if not {int}.issuperset(map(type, ws)):
        fs = [Fraction(w) for w in ws]
        scale = math.lcm(*(f.denominator for f in fs))
        ws = [f.numerator * (scale // f.denominator) for f in fs]
    if min(ws, default=0) < 0:
        raise ParameterError("negative weight")
    total = sum(ws)
    if total <= 0:
        raise ParameterError("all weights zero")
    denom = 1 << precision
    if len(ws) > denom and sum(1 for w in ws if w) > denom:
        raise ParameterError("more nonzero weights than mass units")
    scaled = [w << precision for w in ws]
    masses = [x // total for x in scaled]
    remainders = [x % total for x in scaled]
    shortfall = denom - sum(masses)
    if shortfall:
        # A stable descending sort keeps equal remainders in index order.
        order = sorted(range(len(ws)), key=remainders.__getitem__, reverse=True)
        for i in order[:shortfall]:
            masses[i] += 1
    if total << _HEADROOM_BITS > denom:
        # Below 16 bits of headroom a positive weight can floor to zero mass.
        # Each zeroed weight takes one unit from the largest mass (ties to the
        # lower index); the heap keeps that lookup O(log n).
        zeroed = [i for i, w in enumerate(ws) if w > 0 and masses[i] == 0]
        if zeroed:
            heap = [(-x, j) for j, x in enumerate(masses) if x]
            heapq.heapify(heap)
            for i in zeroed:
                neg, j = heap[0]
                masses[j] -= 1
                heapq.heapreplace(heap, (neg + 1, j))
                masses[i] = 1
                heapq.heappush(heap, (-1, i))
    return masses


def uniform_codec(n: int) -> Codec:
    """Optimal codec for a uniform distribution on {0..n-1}; n <= 2**48.

    Power-of-two n is coded exactly; otherwise 2**p mass units (with headroom)
    are apportioned as evenly as possible, which perturbs the rate by under
    n/2**p bits per symbol.
    """
    _check_uniform_size(n)
    precision, base, rem = _uniform_split(n)
    split = rem * (base + 1)

    def encode(m: Message, x: Any) -> None:
        if not 0 <= x < n:
            raise ContractViolation(f"symbol {x!r} outside [0, {n})")
        _push(m, x * base + min(x, rem), base + (x < rem), precision)

    def locate(cf: int) -> "tuple[int, int, int]":
        if cf < split:
            x = cf // (base + 1)
        else:
            x = rem + (cf - split) // base
        return x, x * base + min(x, rem), base + (x < rem)

    def decode(m: Message) -> int:
        return _pop(m, precision, locate)

    return Codec(encode, decode, prob=lambda x: Fraction(1, n))


def _table_codec(table: Table) -> Codec:
    """Single-symbol codec over a table; prob is the table's exact mass."""
    masses, cums, precision = table.masses, table.cums, table.precision
    k = len(masses)

    def encode(m: Message, x: Any) -> None:
        if not (0 <= x < k and masses[x]):
            raise _bad_symbol(masses, x)
        _push(m, cums[x], masses[x], precision)

    def locate(cf: int) -> "tuple[int, int, int]":
        x = bisect.bisect_right(cums, cf) - 1
        return x, cums[x], masses[x]

    def decode(m: Message) -> int:
        return _pop(m, precision, locate)

    def prob(x: int) -> Fraction:
        return Fraction(masses[x], 1 << precision)

    return Codec(encode, decode, prob, table)


def categorical_codec(masses: Sequence[int]) -> Codec:
    """Optimal codec for a categorical distribution given fixed-point masses.

    Masses are nonnegative integers; their sum (the denominator) must be at
    most 2**48. Non power-of-two denominators are rescaled internally to one,
    preserving ratios to within 2**-16. ``prob`` is the input masses' exact
    ratio.
    """
    masses = list(masses)
    if not masses:
        raise ParameterError("empty mass table")
    if not all(map(isinstance, masses, repeat(int))) or min(masses) < 0:
        raise ParameterError("masses must be nonnegative integers")
    total = sum(masses)
    if total <= 0:
        raise ParameterError("all masses zero")
    if total > (1 << MAX_PRECISION):
        raise ParameterError(f"mass sum {total} exceeds 2**{MAX_PRECISION}")
    if total & (total - 1) == 0:
        codec = _table_codec(Table(masses, total.bit_length() - 1))
    else:
        precision = min(MAX_PRECISION, (total - 1).bit_length() + _HEADROOM_BITS)
        codec = _table_codec(Table(quantize_masses(masses, precision), precision))
        codec.prob = lambda x: Fraction(masses[x], total)
    return codec


def bernoulli_codec(p, precision: int = 32) -> Codec:
    """Optimal codec for a Bernoulli(p) bit; p must lie strictly in (0, 1)."""
    pf = Fraction(p)
    if not 0 < pf < 1:
        raise ParameterError(f"Bernoulli p={p!r} outside (0, 1)")
    return _table_codec(Table(quantize_masses([1 - pf, pf], precision), precision))


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


def message_deserialize(
    data: bytes, pad_seed: Optional[int] = None
) -> Message:
    """Inverse of message_serialize; raises FormatError on any corruption.

    The returned message has no pad source unless one is supplied: decoding
    more than was encoded raises rather than fabricating content.
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
    return Message(head, words, pad_seed)
