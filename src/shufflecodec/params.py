"""Per-dataset model parameter coding.

Everything the decoder needs is carried inside the single compressed message,
decoded before any graph: model and flag bits, run-length coded vertex counts,
attribute count tables, and er's edge and non-edge counts (the urn codes
each graph's edge count with the graph, in models). Lists of naturals
are coded as one run of uniform symbols: list length (46-bit uniform), the
bit count B of the maximum element (uniform over 0..32), then each element
with a log-uniform code: a bit-length k uniform on {0..B} followed by the
k-1 free bits (k = 0 encodes the value 0). Zeros cost no bits when B = 0,
so such a list is capped at _ZERO_LIST_LIMIT elements: a few header bits
cannot demand 2**46 of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .ans import Codec, CodecError, ContractViolation, FormatError, Message
from .ans import pop_uniforms, push_uniforms

_LENGTH_LIMIT = 1 << 46
_ELEMENT_LIMIT = 1 << 32
_ZERO_LIST_LIMIT = 1 << 16

_HEADER_SIZES = (_LENGTH_LIMIT, 33)  # list length, bit count of the maximum
_FLAG = (2,)  # a flag is one uniform symbol over {0, 1}


def natural_list_codec() -> Codec:
    """Codec over lists of naturals below 2**32, any length below 2**46.
    Element x is its bit length k and then x - 2**(k-1) as one uniform symbol
    over 2**(k-1) values (over one value, which costs nothing, for k <= 1).
    encode raises ContractViolation, before the message changes, for a list
    it cannot code, bools and other non-int elements included."""

    def encode(m: Message, xs) -> None:
        xs = list(xs)
        if len(xs) >= _LENGTH_LIMIT:
            raise ContractViolation("list too long")
        if not {int}.issuperset(map(type, xs)):
            raise ContractViolation("elements must be ints")
        top = max(xs, default=0)
        if any(x < 0 for x in xs) or top >= _ELEMENT_LIMIT:
            raise ContractViolation("element outside [0, 2**32)")
        bit_count = top.bit_length()
        if bit_count == 0 and len(xs) > _ZERO_LIST_LIMIT:
            raise ContractViolation(f"all-zero list longer than {_ZERO_LIST_LIMIT}")
        symbols = [len(xs), bit_count]
        sizes = list(_HEADER_SIZES)
        for x in xs:
            k = x.bit_length()
            lead = 1 << k >> 1
            symbols += (k, x - lead)
            sizes += (bit_count + 1, lead or 1)
        push_uniforms(m, symbols, sizes)

    def decode(m: Message) -> List[int]:
        length, bit_count = pop_uniforms(m, _HEADER_SIZES)
        if bit_count == 0 and length > _ZERO_LIST_LIMIT:
            raise FormatError(f"all-zero list of length {length}")
        k_sizes = (bit_count + 1,)
        xs = []
        for _ in range(length):
            (k,) = pop_uniforms(m, k_sizes)
            lead = 1 << k >> 1
            xs.append(lead + pop_uniforms(m, (lead or 1,))[0])
        return xs

    return Codec(encode, decode)


_naturals = natural_list_codec()


@dataclass(frozen=True)
class DatasetParams:
    """Everything shared by encoder and decoder for one dataset.

    vertex_count_runs holds (vertex count, multiplicity) pairs ascending by
    count; graphs are coded largest-first, so the coding order is the runs
    expanded in reverse, which order_perm follows. redraws is the urn's.
    """

    model: str  # "er" | "pu"
    vertex_count_runs: Tuple[Tuple[int, int], ...]
    vertex_attr_counts: Optional[Tuple[int, ...]] = None
    edge_attr_counts: Optional[Tuple[int, ...]] = None
    er_counts: Optional[Tuple[int, int]] = None  # (edges, non-edges)
    self_loops: bool = False
    uniform_attrs: bool = False
    redraws: bool = False
    order_perm: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.model not in ("er", "pu"):
            raise ValueError(f"unknown model {self.model!r}")
        runs = self.vertex_count_runs
        if any(count <= 0 for _, count in runs):
            raise ValueError("non-positive run length")
        if list(runs) != sorted(runs) or len({n for n, _ in runs}) != len(runs):
            raise ValueError("runs must be strictly ascending in vertex count")
        if self.model == "er" and self.er_counts is None:
            raise ValueError("er model requires er_counts")
        if self.redraws and self.model != "pu":
            raise ValueError(f"redraws applies to model 'pu' only, got {self.model!r}")


def _runs_to_lists(runs) -> Tuple[List[int], List[int]]:
    lengths = [count for _, count in runs]
    diffs = []
    prev = 0
    for n, _ in runs:
        diffs.append(n - prev)
        prev = n
    return lengths, diffs


def _lists_to_runs(lengths, diffs) -> Tuple[Tuple[int, int], ...]:
    if len(lengths) != len(diffs):
        raise FormatError("run/diff length mismatch")
    runs = []
    n = 0
    for count, diff in zip(lengths, diffs):
        n += diff
        runs.append((n, count))
    return tuple(runs)


def encode_dataset_params(m: Message, params: DatasetParams) -> None:
    """Push the parameter block; the reverse of decode_dataset_params. A
    refused block restores the head and stack depth it found, which leaves
    the message as it was: every push only appends words."""
    head, depth = m.head, len(m.tail)
    try:
        if params.order_perm is not None:
            _naturals.encode(m, list(params.order_perm))
        if params.model == "er":
            _naturals.encode(m, list(params.er_counts))
        if params.edge_attr_counts is not None:
            _naturals.encode(m, list(params.edge_attr_counts))
        push_uniforms(m, [int(params.edge_attr_counts is not None)], _FLAG)
        if params.vertex_attr_counts is not None:
            _naturals.encode(m, list(params.vertex_attr_counts))
        push_uniforms(m, [int(params.vertex_attr_counts is not None)], _FLAG)
        lengths, diffs = _runs_to_lists(params.vertex_count_runs)
        _naturals.encode(m, diffs)
        _naturals.encode(m, lengths)
        flags = (
            params.model == "pu",
            params.self_loops,
            params.uniform_attrs,
            params.redraws,
            params.order_perm is not None,
        )
        push_uniforms(m, [1 if f else 0 for f in flags], _FLAG * len(flags))
    except CodecError:
        del m.tail[depth:]
        m.head = head
        raise


def decode_dataset_params(m: Message) -> DatasetParams:
    """Pop the parameter block. Raises FormatError for flags, vertex-count
    runs, er_counts or a graph order that encode_dataset_params never
    writes, before any graph is decoded."""
    is_pu, self_loops, uniform_attrs, redraws, has_order = map(
        bool, pop_uniforms(m, _FLAG * 5)
    )
    model = "pu" if is_pu else "er"
    if redraws and not is_pu:
        raise FormatError("redraws flag set under model 'er'")
    lengths = _naturals.decode(m)
    diffs = _naturals.decode(m)
    runs = _lists_to_runs(lengths, diffs)
    if 0 in lengths or 0 in diffs[1:]:
        raise FormatError("vertex-count runs need positive lengths and distinct counts")
    vertex_attr_counts = tuple(_naturals.decode(m)) if pop_uniforms(m, _FLAG)[0] else None
    edge_attr_counts = tuple(_naturals.decode(m)) if pop_uniforms(m, _FLAG)[0] else None
    er_counts = None
    if model == "er":
        pair = _naturals.decode(m)
        if len(pair) != 2:
            raise FormatError("er_counts must hold two numbers")
        er_counts = (pair[0], pair[1])
    order_perm = None
    if has_order:
        order_perm = tuple(_naturals.decode(m))
        k = len(order_perm)
        if k != sum(lengths) or sorted(order_perm) != list(range(k)):
            raise FormatError("graph order is not a permutation of the graphs")
    return DatasetParams(
        model,
        runs,
        vertex_attr_counts,
        edge_attr_counts,
        er_counts,
        self_loops,
        uniform_attrs,
        redraws,
        order_perm,
    )
