"""Whole-dataset compression: parameter block plus shuffle-coded graphs in one
message, benchmark reporting, and the single-graph net-rate mode.

Graphs are coded largest-first, so the one object whose order discount cannot
be reclaimed (the first encoded, which is the smallest) wastes the least. By
default the dataset's original graph order is not stored (matching the
bits-per-edge accounting convention of run-length coded vertex counts);
keep_order=True additionally codes the ordering permutation so decompression
restores original positions.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Tuple

from .ans import (
    DEFAULT_PAD_SEED,
    Codec,
    message_deserialize,
    message_init,
    message_serialize,
)
from .datasets import Corpus, DatasetError
from .graphs import Graph, pair_count, plain_graph
from .models import (
    ErParams,
    PuParams,
    erdos_renyi_codec,
    polya_urn_codec,
    with_attributes,
)
from .params import DatasetParams, decode_dataset_params, encode_dataset_params
from .shuffle import ShuffleCodec, graph_class

ATTR_MODES = ("auto", "none", "uniform")
MODELS = ("er", "pu")


@dataclass
class BenchmarkReport:
    dataset: str
    model: str
    attrs: str
    num_graphs: int
    total_edges: int
    total_bits: float
    param_bits: float
    # Per-edge rates; None for a corpus without edges.
    ordered_bits_per_edge: Optional[float]
    shuffle_bits_per_edge: Optional[float]
    net_bits_per_edge: Optional[float]
    initial_bits_per_edge: Optional[float]
    discount_percent: float
    encode_seconds: float
    decode_seconds: float = 0.0
    canonize_seconds: float = 0.0
    canonize_share: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _prepared_graphs(corpus: Corpus, attrs: str) -> List[Graph]:
    if attrs not in ATTR_MODES:
        raise ValueError(f"attrs must be one of {ATTR_MODES}, got {attrs!r}")
    if attrs == "none":
        return [plain_graph(g) for g in corpus.graphs]
    return list(corpus.graphs)


def _attr_counts(values, uniform: bool) -> Tuple[int, ...]:
    """How often each value 0..max occurs; under uniform a count of 1 for
    each, so every value is coded at the same cost."""
    size = max(values, default=-1) + 1
    if uniform:
        return (1,) * size
    counts = [0] * size
    for v in values:
        counts[v] += 1
    return tuple(counts)


def build_dataset_params(
    corpus: Corpus,
    model: str = "er",
    attrs: str = "auto",
    redraws: bool = False,
    keep_order: bool = False,
) -> Tuple[DatasetParams, List[int]]:
    """Empirical parameters plus the coding order (original indices,
    largest graph first, stable). redraws applies to model 'pu' only."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    graphs = _prepared_graphs(corpus, attrs)
    order = sorted(range(len(graphs)), key=lambda i: (-graphs[i].n, i))

    self_loops = corpus.self_loops

    vertex_attr_counts = None
    edge_attr_counts = None
    if attrs != "none":
        uniform = attrs == "uniform"
        if corpus.has_vertex_attrs:
            vertex_attr_counts = _attr_counts(
                [a for g in graphs for a in g.vertex_attrs], uniform
            )
        if corpus.has_edge_attrs:
            edge_attr_counts = _attr_counts(
                [a for g in graphs for a in g.edge_attrs], uniform
            )

    er_counts = None
    if model == "er":
        edges = sum(g.num_edges for g in graphs)
        pairs = sum(pair_count(g.n, self_loops) for g in graphs)
        er_counts = (edges, pairs - edges)

    params = DatasetParams(
        model=model,
        vertex_count_runs=tuple(sorted(Counter(g.n for g in graphs).items())),
        vertex_attr_counts=vertex_attr_counts,
        edge_attr_counts=edge_attr_counts,
        er_counts=er_counts,
        self_loops=self_loops,
        redraws=redraws,
        order_perm=tuple(order) if keep_order else None,
    )
    return params, order


def validate_dataset_params(params: DatasetParams, corpus: Corpus, attrs: str) -> None:
    """Reject a parameter block that does not describe the corpus.

    compress_corpus does not call this: the block it builds always matches.
    """
    rebuilt, _ = build_dataset_params(
        corpus, params.model, attrs, params.redraws, params.order_perm is not None
    )
    if rebuilt != params:
        raise DatasetError("parameters inconsistent with corpus")


def _er_probability(params: DatasetParams) -> Fraction:
    edges, non_edges = params.er_counts
    total = edges + non_edges
    return Fraction(edges, total) if total else Fraction(1, 2)


def graph_codec_for(params: DatasetParams, n: int) -> Codec:
    """The ordered-graph codec for graphs on n vertices under the dataset
    params: the plain-graph model, under the attribute layer when the
    dataset has attributes."""
    if params.model == "er":
        base = erdos_renyi_codec(ErParams(n, _er_probability(params), params.self_loops))
    else:
        base = polya_urn_codec(PuParams(n, params.redraws, params.self_loops))
    if params.vertex_attr_counts is None and params.edge_attr_counts is None:
        return base
    return with_attributes(base, params.vertex_attr_counts, params.edge_attr_counts)


def _slot_codecs(
    params: DatasetParams, runs: Iterable[Tuple[int, int]]
) -> Iterator[ShuffleCodec]:
    """The shuffle codec of each graph slot in turn, for runs of
    (vertex count, multiplicity): one codec per run, yielded once per graph
    of the run, so at most one is alive at a time."""
    pclass = graph_class()
    for n, count in runs:
        yield from repeat(ShuffleCodec(graph_codec_for(params, n), pclass), count)


def compress_corpus(
    corpus: Corpus,
    model: str = "er",
    attrs: str = "auto",
    redraws: bool = False,
    keep_order: bool = False,
    seed: int = DEFAULT_PAD_SEED,
) -> Tuple[bytes, BenchmarkReport]:
    """Compress a corpus into one SHUF message; returns bytes and a report."""
    started = time.perf_counter()
    params, order = build_dataset_params(corpus, model, attrs, redraws, keep_order)
    graphs = _prepared_graphs(corpus, attrs)

    m = message_init(pad_seed=seed)
    initial_bits = m.length_bits
    ordered_bits = pad_bits = canonize_seconds = 0.0
    # Encode in reverse coding order so decoding runs largest-first.
    codecs = _slot_codecs(params, params.vertex_count_runs)
    for i, codec in zip(reversed(order), codecs):
        report = codec.encode(m, graphs[i])
        ordered_bits += report.ordered_bits
        pad_bits += report.initial_bits_overhead
        canonize_seconds += report.canonize_seconds
    before_params = m.length_bits
    encode_dataset_params(m, params)
    param_bits = m.length_bits - before_params
    data = message_serialize(m)
    encode_seconds = time.perf_counter() - started

    total_bits = m.length_bits - initial_bits
    edges = sum(g.num_edges for g in graphs)

    def per_edge(bits: float) -> Optional[float]:
        return bits / edges if edges else None

    ordered_total = ordered_bits + param_bits
    report = BenchmarkReport(
        dataset=corpus.name,
        model=model,
        attrs=attrs,
        num_graphs=len(graphs),
        total_edges=edges,
        total_bits=total_bits,
        param_bits=param_bits,
        ordered_bits_per_edge=per_edge(ordered_total),
        shuffle_bits_per_edge=per_edge(total_bits),
        net_bits_per_edge=per_edge(total_bits - pad_bits),
        initial_bits_per_edge=per_edge(pad_bits),
        discount_percent=(
            100.0 * (1.0 - total_bits / ordered_total) if ordered_total else 0.0
        ),
        encode_seconds=encode_seconds,
        canonize_seconds=canonize_seconds,
        canonize_share=canonize_seconds / encode_seconds if encode_seconds else 0.0,
    )
    return data, report


def decompress_corpus(data: bytes, name: str = "decoded") -> Corpus:
    """Decode a SHUF message back into a corpus of canonical-form graphs.

    Graphs come back in coding order (largest first) unless the message
    carries an ordering permutation, in which case original positions are
    restored.
    """
    m = message_deserialize(data)
    params = decode_dataset_params(m)
    graphs = [c.decode(m) for c in _slot_codecs(params, reversed(params.vertex_count_runs))]
    if params.order_perm is not None:
        restored: List[Optional[Graph]] = [None] * len(graphs)
        for pos, original in enumerate(params.order_perm):
            restored[original] = graphs[pos]
        graphs = restored
    return Corpus(
        tuple(graphs),
        name,
        has_vertex_attrs=params.vertex_attr_counts is not None,
        has_edge_attrs=params.edge_attr_counts is not None,
    )


def net_rate_single(
    graph: Graph, model: str = "er", er_p=None, seed: int = DEFAULT_PAD_SEED
) -> float:
    """Net bits of shuffle-coding one graph: one encode's message growth less
    the pad its bits-back pop drew, which is its cost in a message that
    already holds data, model parameter bits excluded (under pu the urn
    codes the edge count with the graph). The codec is the one
    compress_corpus would use for a one-graph corpus; er_p, when given,
    replaces the empirical edge density and must lie in [0, 1]; it is
    refused with any other model."""
    if er_p is not None and model != "er":
        raise ValueError(f"er_p applies to model 'er' only, got model {model!r}")
    corpus = Corpus((graph,), "single", graph.has_vertex_attrs, graph.has_edge_attrs)
    params, _ = build_dataset_params(corpus, model)
    if er_p is not None:
        p = Fraction(er_p)
        params = replace(params, er_counts=(p.numerator, p.denominator - p.numerator))
    shuffler = ShuffleCodec(graph_codec_for(params, graph.n), graph_class())
    m = message_init(pad_seed=seed)
    before = m.length_bits
    report = shuffler.encode(m, graph)
    return m.length_bits - before - report.initial_bits_overhead
