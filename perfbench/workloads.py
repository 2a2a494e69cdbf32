"""The workloads: what one round compresses, decompresses and verifies.

A round is one closed loop by one caller: compress the whole corpus, then
decompress it, then check every decoded object against the canonical form of
its input. The benchmark's timers cover only the compress and the decompress.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass
from typing import Any, List, Sequence

from shufflecodec import (
    Corpus,
    ShuffleCodec,
    apply_perm,
    build_dataset_params,
    canonize,
    canonize_string,
    compress_corpus,
    decompress_corpus,
    message_init,
    sequence_class,
)
from shufflecodec import ans, models
from shufflecodec.canon import apply_sequence

import corpora

# The workloads BENCHMARK.json lists. `symmetric` runs the same way but is a
# diagnostic: canonization is not canonical on some of its graphs, so it does
# not verify (see NOTES.md, "Known defect").
MEASURED = ("er-attr", "pa-pu", "multiset")
DIAGNOSTIC = ("symmetric",)
WORKLOADS = MEASURED + DIAGNOSTIC


@dataclass
class Encoded:
    payloads: List[bytes]
    bits: float  # exact message bits, parameter block and pad included
    param_bits: float


def _report_decode_error(workload: str, exc: BaseException) -> None:
    print(f"[{workload}] decode raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


class GraphWorkload:
    """Graphs through compress_corpus/decompress_corpus.

    `per_object` codes each graph as a one-graph corpus of its own, so that a
    graph that decodes wrong does not corrupt the graphs decoded after it.
    """

    def __init__(self, name: str, corpus: Corpus, model: str, per_object: bool):
        self.name = name
        self.model = model
        self.inputs = list(corpus.graphs)
        self.corpora = (
            [Corpus((g,), corpus.name, corpus.has_vertex_attrs, corpus.has_edge_attrs)
             for g in corpus.graphs]
            if per_object else [corpus]
        )
        self.forms = [self.canonical_form(g) for g in self.inputs]
        # Expected outputs of each corpus in the order decompress returns them.
        self.expected = []
        offset = 0
        for c in self.corpora:
            _, order = build_dataset_params(c, model)
            self.expected.append([self.forms[offset + i] for i in order])
            offset += len(c.graphs)
        self.items = sum(g.num_edges for g in self.inputs)

    def encode(self) -> Encoded:
        payloads, bits, param_bits = [], 0.0, 0.0
        for c in self.corpora:
            data, report = compress_corpus(c, self.model)
            payloads.append(data)
            bits += report.total_bits
            param_bits += report.param_bits
        return Encoded(payloads, bits, param_bits)

    def decode(self, encoded: Encoded) -> List[List[Any]]:
        out = []
        for data in encoded.payloads:
            try:
                out.append(list(decompress_corpus(data).graphs))
            except Exception as exc:  # a failed decode is counted, not fatal
                _report_decode_error(self.name, exc)
                out.append([])
        return out

    @staticmethod
    def canonical_form(g):
        return canonize(g).canon_graph

    @staticmethod
    def relabel(rng: random.Random, g):
        return apply_perm(corpora.random_perm(rng, g.n), g)


class MultisetWorkload:
    """Sequences shuffle-coded one after another into one message.

    The decoder is told each sequence's length and the alphabet masses; the
    message carries no parameter block.
    """

    def __init__(self, name: str, seqs: Sequence[tuple]):
        self.name = name
        self.inputs = list(seqs)
        self.forms = [tuple(sorted(s)) for s in seqs]
        self.expected = [self.forms]
        self.items = sum(len(s) for s in seqs)

    def _codec(self, length: int, pclass) -> ShuffleCodec:
        # Looked up at call time so that a traced run sees its spans.
        return ShuffleCodec(models.string_codec(corpora.MULTISET_MASSES, length), pclass)

    def encode(self) -> Encoded:
        m = message_init()
        start = m.length_bits
        pclass = sequence_class()
        for s in reversed(self.inputs):
            self._codec(len(s), pclass).encode(m, s)
        return Encoded([ans.message_serialize(m)], m.length_bits - start, 0.0)

    def decode(self, encoded: Encoded) -> List[List[Any]]:
        out = []
        try:
            m = ans.message_deserialize(encoded.payloads[0])
            pclass = sequence_class()
            for s in self.inputs:
                out.append(self._codec(len(s), pclass).decode(m))
        except Exception as exc:  # a failed decode is counted, not fatal
            _report_decode_error(self.name, exc)
        return [out]

    @staticmethod
    def canonical_form(s):
        return canonize_string(s).canon_seq

    @staticmethod
    def relabel(rng: random.Random, s):
        return apply_sequence(corpora.random_perm(rng, len(s)), s)


def count_failures(expected: List[List[Any]], decoded: List[List[Any]]) -> int:
    """Objects missing from the decode or different from their expected form."""
    failed = 0
    for want, got in zip(expected, decoded):
        failed += len(want) - sum(1 for w, g in zip(want, got) if w == g)
    return failed


def noncanonical_inputs(workload, seed: int) -> int:
    """Inputs whose canonical form changes under a second seeded relabeling;
    0 when canonization is label-independent."""
    rng = random.Random(f"relabel:{seed}")
    return sum(
        workload.canonical_form(workload.relabel(rng, x)) != form
        for x, form in zip(workload.inputs, workload.forms)
    )


def build(name: str, data):
    """The workload of a corpus from corpora.generate."""
    if name == "multiset":
        return MultisetWorkload(name, data)
    model = "pu" if name == "pa-pu" else "er"
    return GraphWorkload(name, data, model, per_object=name == "symmetric")
