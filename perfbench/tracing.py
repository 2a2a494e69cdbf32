"""Per-layer spans for the traced benchmark run.

Spans are recorded around calls into each module's public functions by
rebinding those names, inside this process only, in every shufflecodec module
that holds them; `Tracer.installed()` puts the originals back on exit. No
program file changes, and an untraced run executes the original functions.

A span's self time is its duration minus the durations of the spans opened
directly inside it. Spans are aggregated in memory per name (durations and
self time); counters are kept beside them.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from shufflecodec import Codec, ShuffleCodec
from shufflecodec.ans import WORD_BITS

# (module, name): the functions whose calls are spans. Each is rebound in every
# shufflecodec module that imported it.
TRACED_FUNCTIONS = [
    ("canon", "canonize"),
    ("canon", "canonize_string"),
    ("perms", "schreier_sims"),
    ("perms", "coset_canon"),
    ("perms", "element_rank"),
    ("perms", "element_unrank"),
    ("ans", "quantize_masses"),
    ("ans", "message_serialize"),
    ("ans", "message_deserialize"),
    ("graphs", "apply_perm"),
    ("params", "encode_dataset_params"),
    ("params", "decode_dataset_params"),
    ("compress", "build_dataset_params"),
    ("compress", "validate_dataset_params"),
    ("compress", "graph_codec_for"),
    ("models", "string_codec"),
    ("perm_codecs", "uniform_l_coset_codec"),
]

# Factories whose returned codec's encode/decode become spans of their own.
_CODEC_SPANS = {
    "compress.graph_codec_for": ("models.ordered_encode", "models.ordered_decode"),
    "models.string_codec": ("models.ordered_encode", "models.ordered_decode"),
    "perm_codecs.uniform_l_coset_codec": (
        "perm_codecs.coset_encode",
        "perm_codecs.coset_decode",
    ),
}


class SpanStats:
    __slots__ = ("durations", "self_s")

    def __init__(self):
        self.durations: List[float] = []
        self.self_s = 0.0

    @property
    def total_s(self) -> float:
        return sum(self.durations)


def latency(durations: List[float]):
    """(p50, tail, tail percentile) in seconds. The tail is the highest of the
    99.9th, 99th and 90th percentiles with at least ten samples beyond it;
    with fewer than 100 samples it falls back to the median."""
    ordered = sorted(durations)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 50.0

    def rank(per_mille: int) -> int:  # nearest-rank, 1-based
        return max(1, -(-per_mille * n // 1000))

    tail = next((q for q in (999, 990, 900) if n - rank(q) >= 10), 500)
    return ordered[rank(500) - 1], ordered[rank(tail) - 1], tail / 10


class Tracer:
    def __init__(self):
        self.spans: Dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: Dict[str, float] = defaultdict(float)
        # Outermost ShuffleCodec.encode/decode durations: one per object.
        self.object_latency: Dict[str, List[float]] = defaultdict(list)
        self._open: List[float] = []  # child time of each open span
        self._shuffle_depth = 0

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        stats = self.spans[name]
        open_spans = self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.durations.append(elapsed)
                stats.self_s += elapsed - child
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_codec_factory(self, name: str, factory: Callable) -> Callable:
        enc_name, dec_name = _CODEC_SPANS[name]

        def build(*args, **kwargs):
            codec = factory(*args, **kwargs)
            return Codec(
                self.wrap(enc_name, codec.encode),
                self.wrap(dec_name, codec.decode),
                codec.prob,
            )

        return build

    def _after(self, name: str) -> Optional[Callable]:
        c = self.counters
        if name == "canon.canonize":
            def after(args, result):
                c["canon.canonize.nontrivial_aut"] += result.aut_order > 1
        elif name == "perms.schreier_sims":
            def after(args, result):
                c["perms.schreier_sims.generators"] += len(args[0].generators)
                c["perms.chain_levels"] += len(result.levels)
        elif name == "ans.quantize_masses":
            def after(args, result):
                c["ans.quantize_masses.weights"] += len(args[0])
        else:
            after = None
        return after

    def _shuffle_method(self, direction: str, method: Callable) -> Callable:
        """ShuffleCodec.encode/decode as spans; objects are the outermost
        calls (the urn model nests a shuffle codec inside its ordered codec)."""
        name = f"shuffle.{direction}"
        c = self.counters

        def after(args, report):
            if direction == "encode":
                c["shuffle.discount_bits"] += report.discount_bits
                c["perms.log2_aut_order"] += math.log2(report.aut_order)
                if self._shuffle_depth == 1:
                    c["shuffle.pad_words"] += report.initial_bits_overhead / WORD_BITS

        traced = self.wrap(name, method, after)

        def outer(codec, *args):
            self._shuffle_depth += 1
            start = time.perf_counter()
            try:
                return traced(codec, *args)
            finally:
                if self._shuffle_depth == 1:
                    self.object_latency[name].append(time.perf_counter() - start)
                self._shuffle_depth -= 1

        return outer

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "shufflecodec" or key.startswith("shufflecodec.")
        ]
        undo = []
        for module_name, attr in TRACED_FUNCTIONS:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"shufflecodec.{module_name}"], attr)
            if name in _CODEC_SPANS:
                replacement = self.wrap(name, self._wrap_codec_factory(name, original))
            else:
                replacement = self.wrap(name, original, self._after(name))
            for m in modules:
                if getattr(m, attr, None) is original:
                    undo.append((m, attr, original))
                    setattr(m, attr, replacement)
        for direction in ("encode", "decode"):
            original = getattr(ShuffleCodec, direction)
            undo.append((ShuffleCodec, direction, original))
            setattr(ShuffleCodec, direction, self._shuffle_method(direction, original))
        try:
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    def metrics(self) -> Dict[str, float]:
        """Per-layer figures of everything recorded so far."""
        s, c = self.spans, self.counters
        out: Dict[str, float] = {}
        for name in (
            "canon.canonize", "canon.canonize_string", "perms.schreier_sims",
            "ans.quantize_masses", "compress.graph_codec_for", "graphs.apply_perm",
            "perm_codecs.uniform_l_coset_codec", "shuffle.encode", "shuffle.decode",
        ):
            out[f"{name}.calls"] = len(s[name].durations)
        for name in (
            "canon.canonize", "canon.canonize_string", "models.ordered_encode",
            "models.ordered_decode", "shuffle.encode", "shuffle.decode",
        ):
            out[f"{name}.self_s"] = s[name].self_s
        for name in (
            "perms.schreier_sims", "ans.quantize_masses", "compress.graph_codec_for",
            "compress.build_dataset_params", "compress.validate_dataset_params",
            "graphs.apply_perm", "perm_codecs.coset_decode", "perm_codecs.coset_encode",
            "perms.coset_canon", "perms.element_rank", "perms.element_unrank",
            "params.encode_dataset_params", "params.decode_dataset_params",
            "ans.message_serialize", "ans.message_deserialize",
        ):
            out[f"{name}.s"] = s[name].total_s
        calls = len(s["canon.canonize"].durations)
        out["canon.canonize.nontrivial_aut_share"] = (
            c["canon.canonize.nontrivial_aut"] / calls if calls else 0.0
        )
        _, tail, q = latency(s["canon.canonize"].durations)
        out["canon.canonize.tail_ms"] = 1e3 * tail
        out["canon.canonize.tail_pct"] = q
        for name in ("shuffle.encode", "shuffle.decode"):
            samples = self.object_latency[name]
            p50, tail, q = latency(samples)
            out[f"{name}.p50_ms"] = 1e3 * p50
            out[f"{name}.tail_ms"] = 1e3 * tail
            out[f"{name}.tail_pct"] = q
            out[f"{name}.samples"] = len(samples)
        for name in (
            "perms.schreier_sims.generators", "perms.chain_levels",
            "ans.quantize_masses.weights", "shuffle.discount_bits",
            "shuffle.pad_words", "perms.log2_aut_order",
        ):
            out[name] = c[name]
        return out
