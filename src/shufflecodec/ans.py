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
"""

from __future__ import annotations

import bisect
import heapq
import math
import struct
import zlib
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence

WORD_BITS = 16
WORD_MASK = (1 << WORD_BITS) - 1
HEAD_MIN = 1 << 48
HEAD_LIMIT = 1 << 64
MAX_PRECISION = 48

# Headroom (in bits) kept between the largest symbol mass and the head's lower
# bound when we are free to choose the denominator.
_HEADROOM_BITS = 16

MAGIC = b"SHUF"
FORMAT_VERSION = 4

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
    if not all(type(w) is int for w in ws):
        fs = [Fraction(w) for w in ws]
        scale = math.lcm(*(f.denominator for f in fs))
        ws = [f.numerator * (scale // f.denominator) for f in fs]
    if any(w < 0 for w in ws):
        raise ParameterError("negative weight")
    total = sum(ws)
    if total <= 0:
        raise ParameterError("all weights zero")
    denom = 1 << precision
    nonzero = sum(1 for w in ws if w > 0)
    if nonzero > denom:
        raise ParameterError("more nonzero weights than mass units")
    scaled = [w << precision for w in ws]
    masses = [x // total for x in scaled]
    remainders = [x % total for x in scaled]
    shortfall = denom - sum(masses)
    # A stable descending sort keeps equal remainders in index order.
    order = sorted(range(len(ws)), key=remainders.__getitem__, reverse=True)
    for i in order[:shortfall]:
        masses[i] += 1
    zeroed = [i for i, w in enumerate(ws) if w > 0 and masses[i] == 0]
    if zeroed:
        # Each zeroed weight takes one unit from the largest mass (ties to the
        # lower index); the heap keeps that lookup O(log n).
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
    if not isinstance(n, int) or n < 1:
        raise ParameterError(f"uniform size must be a positive integer, got {n!r}")
    if n > (1 << MAX_PRECISION):
        raise ParameterError(f"uniform size {n} exceeds 2**{MAX_PRECISION}")

    if n == 1:
        def encode1(m: Message, x: Any) -> None:
            if x != 0:
                raise ContractViolation(f"symbol {x!r} outside {{0}}")

        return Codec(encode1, lambda m: 0, prob=lambda x: Fraction(1))

    if n & (n - 1) == 0:
        precision = n.bit_length() - 1

        def encode_pow2(m: Message, x: Any) -> None:
            if not 0 <= x < n:
                raise ContractViolation(f"symbol {x!r} outside [0, {n})")
            _push(m, x, 1, precision)

        def decode_pow2(m: Message) -> int:
            return _pop(m, precision, lambda cf: (cf, cf, 1))

        return Codec(encode_pow2, decode_pow2, prob=lambda x: Fraction(1, n))

    precision = min(MAX_PRECISION, (n - 1).bit_length() + _HEADROOM_BITS)
    base, rem = divmod(1 << precision, n)
    # Symbols < rem get mass base+1; cum(x) = x*base + min(x, rem).

    def mass(x: int) -> int:
        return base + (1 if x < rem else 0)

    def cum(x: int) -> int:
        return x * base + min(x, rem)

    def encode(m: Message, x: Any) -> None:
        if not 0 <= x < n:
            raise ContractViolation(f"symbol {x!r} outside [0, {n})")
        _push(m, cum(x), mass(x), precision)

    def locate(cf: int) -> "tuple[int, int, int]":
        split = rem * (base + 1)
        if cf < split:
            x = cf // (base + 1)
        else:
            x = rem + (cf - split) // base
        return x, cum(x), mass(x)

    def decode(m: Message) -> int:
        return _pop(m, precision, locate)

    return Codec(encode, decode, prob=lambda x: Fraction(1, n))


def _masses_codec(masses: Sequence[int], precision: int) -> Codec:
    """Categorical codec over integer masses summing to exactly 2**precision."""
    cums = [0]
    for w in masses:
        cums.append(cums[-1] + w)

    def encode(m: Message, x: Any) -> None:
        if not 0 <= x < len(masses):
            raise ContractViolation(f"symbol {x!r} outside [0, {len(masses)})")
        if masses[x] == 0:
            raise ContractViolation(f"symbol {x} has zero mass")
        _push(m, cums[x], masses[x], precision)

    def locate(cf: int) -> "tuple[int, int, int]":
        x = bisect.bisect_right(cums, cf) - 1
        return x, cums[x], masses[x]

    def decode(m: Message) -> int:
        return _pop(m, precision, locate)

    total = 1 << precision
    return Codec(encode, decode, prob=lambda x: Fraction(masses[x], total))


def categorical_codec(masses: Sequence[int]) -> Codec:
    """Optimal codec for a categorical distribution given fixed-point masses.

    Masses are nonnegative integers; their sum (the denominator) must be at
    most 2**48. Non power-of-two denominators are rescaled internally to one,
    preserving ratios to within 2**-16.
    """
    masses = list(masses)
    if not masses:
        raise ParameterError("empty mass table")
    if any(not isinstance(w, int) or w < 0 for w in masses):
        raise ParameterError("masses must be nonnegative integers")
    total = sum(masses)
    if total <= 0:
        raise ParameterError("all masses zero")
    if total > (1 << MAX_PRECISION):
        raise ParameterError(f"mass sum {total} exceeds 2**{MAX_PRECISION}")
    input_masses = list(masses)
    if total & (total - 1) == 0:
        precision = total.bit_length() - 1
        scaled = masses
    else:
        precision = min(MAX_PRECISION, (total - 1).bit_length() + _HEADROOM_BITS)
        scaled = quantize_masses(masses, precision)
    codec = _masses_codec(scaled, precision)
    codec.prob = lambda x, t=total, mm=input_masses: Fraction(mm[x], t)
    return codec


def bernoulli_codec(p, precision: int = 32) -> Codec:
    """Optimal codec for a Bernoulli(p) bit; p must lie strictly in (0, 1)."""
    pf = Fraction(p)
    if not 0 < pf < 1:
        raise ParameterError(f"Bernoulli p={p!r} outside (0, 1)")
    masses = quantize_masses([1 - pf, pf], precision)
    codec = _masses_codec(masses, precision)
    codec.prob = lambda x, q=Fraction(masses[1], 1 << precision): q if x else 1 - q
    return codec


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
