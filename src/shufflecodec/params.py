"""Per-dataset model parameter coding.

Everything the decoder needs is carried inside the single compressed message,
decoded before any graph: the flags, the vertex-count runs, the attribute
count tables, er's edge and non-edge counts (the urn codes each graph's edge
count with the graph, in models) and the optional graph order. The runs are
one list of (rise over the previous vertex count, multiplicity) pairs.

Every number of the block is a natural below 2**46, coded one way: its bit
length k as one uniform symbol over 0..46, then x - 2**(k-1) as one uniform
symbol over 2**(k-1) values (over one value, which costs nothing, for
k <= 1). A list is its length followed by its elements. Each number costs at
least log2(47) ~ 5.55 bits, so a decoder reads at most one number per 5.55
bits of message. DatasetParams is the block's one validator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .ans import ContractViolation, FormatError, Message
from .ans import pop_uniforms, push_uniforms

_NATURAL_LIMIT = 1 << 46
_BIT_LENGTHS = _NATURAL_LIMIT.bit_length()  # k in 0..46
# The block's lists after the vertex-count runs, each under a flag: er_counts
# is present under model 'er' alone, so it tells the model.
_LISTS = ("vertex_attr_counts", "edge_attr_counts", "er_counts", "order_perm")
_FLAGS = (2,) * (2 + len(_LISTS))  # self-loops, redraws, then each list present


def _natural_symbols(xs: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The uniform symbols and sizes of naturals xs, first number first;
    ContractViolation unless each is an int in [0, 2**46), bools refused."""
    if not {int}.issuperset(map(type, xs)) or not all(
        0 <= x < _NATURAL_LIMIT for x in xs
    ):
        raise ContractViolation("numbers must be ints in [0, 2**46)")
    symbols, sizes = [], []
    for x in xs:
        k = x.bit_length()
        lead = 1 << k >> 1
        symbols += (k, x - lead)
        sizes += (_BIT_LENGTHS, lead or 1)
    return symbols, sizes


def _pop_natural(m: Message) -> int:
    (k,) = pop_uniforms(m, (_BIT_LENGTHS,))
    lead = 1 << k >> 1
    return lead + pop_uniforms(m, (lead or 1,))[0]


def _pop_list(m: Message) -> List[int]:
    return [_pop_natural(m) for _ in range(_pop_natural(m))]


@dataclass(frozen=True)
class DatasetParams:
    """Everything shared by encoder and decoder for one dataset, checked
    here alone: decode_dataset_params refuses what this refuses.

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
        if (self.er_counts is not None) != (self.model == "er"):
            raise ValueError("er_counts go with model 'er', and only with it")
        if self.er_counts is not None and len(self.er_counts) != 2:
            raise ValueError("er_counts must hold two numbers")
        if self.redraws and self.model != "pu":
            raise ValueError(f"redraws applies to model 'pu' only, got {self.model!r}")
        order, graphs = self.order_perm, sum(count for _, count in runs)
        # The length first: a block that claims 2**40 graphs builds no range.
        if order is not None and (
            len(order) != graphs or sorted(order) != list(range(graphs))
        ):
            raise ValueError("graph order is not a permutation of the graphs")


def encode_dataset_params(m: Message, params: DatasetParams) -> None:
    """Push the parameter block, the reverse of decode_dataset_params, as one
    run of uniform symbols: ContractViolation, before the message changes,
    for a number that is not an int in [0, 2**46)."""
    lists = [getattr(params, name) for name in _LISTS]
    flags = [params.self_loops, params.redraws] + [xs is not None for xs in lists]
    numbers = [len(params.vertex_count_runs)]
    previous = 0
    for n, count in params.vertex_count_runs:
        numbers += (n - previous, count)
        previous = n
    for xs in lists:
        if xs is not None:
            numbers += (len(xs), *xs)
    symbols, sizes = _natural_symbols(numbers)
    push_uniforms(m, [1 if f else 0 for f in flags] + symbols, list(_FLAGS) + sizes)


def decode_dataset_params(m: Message) -> DatasetParams:
    """Pop the parameter block; FormatError, before any graph is decoded, for
    a block that DatasetParams refuses."""
    self_loops, redraws, *present = map(bool, pop_uniforms(m, _FLAGS))
    runs, n = [], 0
    for _ in range(_pop_natural(m)):
        n += _pop_natural(m)
        runs.append((n, _pop_natural(m)))
    lists = dict(zip(_LISTS, (tuple(_pop_list(m)) if has else None for has in present)))
    model = "pu" if lists["er_counts"] is None else "er"
    try:
        return DatasetParams(
            model, tuple(runs), self_loops=self_loops, redraws=redraws, **lists
        )
    except ValueError as e:
        raise FormatError(str(e)) from None
