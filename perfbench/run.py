#!/usr/bin/env python3
"""Benchmark of shufflecodec on generated corpora.

    python3 perfbench/run.py --workload er-attr --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. One process
and one caller run a closed loop: compress the whole corpus, decompress it,
verify every decoded object, and repeat until --seconds are used. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced rounds and reports the per-layer metrics. Human-readable
lines go first; the last line of standard output is one JSON object.
See perfbench/NOTES.md for the workloads and what each metric predicts.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh processes timed per run; setup_s reports the median of their times.
SETUP_REPEATS = 9

# Median time of yardstick() on the machine the benchmark was built on (a
# 2-vCPU Xeon VM at 2.1 GHz, Python 3.11). Reported times are wall times
# rescaled by REFERENCE_YARDSTICK_S / (yardstick time measured next to them),
# which removes most of that machine's drift in speed (±20% over minutes).
REFERENCE_YARDSTICK_S = 0.008


def declared_units(kind: str) -> Dict[str, str]:
    """Units of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def import_program() -> None:
    """Import shufflecodec from this checkout's src, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import shufflecodec
    except ImportError as exc:
        sys.exit(f"cannot import shufflecodec from {SRC}: {exc}")
    if not os.path.abspath(shufflecodec.__file__).startswith(SRC + os.sep):
        sys.exit(f"shufflecodec imported from {shufflecodec.__file__}, not {SRC}")


def yardstick() -> int:
    """Fixed pure-Python work (tuples, dicts, sorting, integer and Fraction
    arithmetic) that measures how fast the machine runs right now."""
    keys = [((i * 7919) % 61, (i * 104729) % 53, i % 7, (i * 31) % 97) for i in range(4000)]
    counts: Dict[tuple, int] = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    acc = 0
    for a, b, c, d in sorted(keys):
        acc = (acc * 31 + a * b - c + d) & 0xFFFFFFFF
    weights = [Fraction((i * 37) % 101 + 1) for i in range(300)]
    total = sum(weights)
    return acc + len(counts) + sum(int(w / total * (1 << 20)) for w in weights)


def speed_scale() -> float:
    """Factor from wall seconds now to reference seconds (median of 5 shots)."""
    shots = []
    for _ in range(5):
        start = time.perf_counter()
        yardstick()
        shots.append(time.perf_counter() - start)
    return REFERENCE_YARDSTICK_S / statistics.median(shots)


def setup_seconds(workload: str, seed: int) -> float:
    """Median reference seconds a fresh process takes from its start until
    the program is imported and the corpus generated (corpora.py as a script)."""
    cmd = [sys.executable, os.path.join(HERE, "corpora.py"), workload, str(seed)]
    env = dict(os.environ, PYTHONPATH=SRC)
    shots = []
    scale = speed_scale()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        after = speed_scale()
        shots.append(wall * (scale + after) / 2)
        scale = after
    return statistics.median(shots)


@dataclass
class Round:
    encoded: "workloads.Encoded"
    encode_s: float  # wall seconds
    decode_s: float
    encode_ref_s: float  # reference seconds
    decode_ref_s: float
    failed: int

    @property
    def wall_s(self) -> float:
        return self.encode_s + self.decode_s


def one_round(workload) -> Round:
    from workloads import count_failures

    before = speed_scale()
    start = time.perf_counter()
    encoded = workload.encode()
    encode_s = time.perf_counter() - start
    between = speed_scale()
    start = time.perf_counter()
    decoded = workload.decode(encoded)
    decode_s = time.perf_counter() - start
    after = speed_scale()
    return Round(
        encoded,
        encode_s,
        decode_s,
        encode_s * (before + between) / 2,
        decode_s * (between + after) / 2,
        count_failures(workload.expected, decoded),
    )


def repeat(step, seconds: float) -> list:
    """Run step() until the next call would end after `seconds`; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def end_to_end(workload, rounds: List[Round], setup_s: float) -> Dict[str, float]:
    objects = len(workload.inputs)
    verified = [objects - r.failed for r in rounds]
    return {
        "setup_s": setup_s,
        "encode_objects_per_s": statistics.median(
            v / r.encode_ref_s for v, r in zip(verified, rounds)
        ),
        "decode_objects_per_s": statistics.median(
            v / r.decode_ref_s for v, r in zip(verified, rounds)
        ),
        "bits_per_item": rounds[0].encoded.bits / workload.items,
        "verified_objects_share": sum(verified) / (objects * len(rounds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pair(workload):
    """One untraced and one traced round, with the traced round's layers."""
    from tracing import Tracer

    plain = one_round(workload)
    tracer = Tracer()
    with tracer.installed():
        traced = one_round(workload)
    layers = tracer.metrics()
    layers["params.bits"] = traced.encoded.param_bits
    layers["trace.overhead_share"] = (traced.wall_s - plain.wall_s) / plain.wall_s
    return plain, traced, layers


def main() -> int:
    import_program()
    import corpora
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    data = corpora.generate(args.workload, args.seed, corpora.SIZES[args.workload])
    workload = workloads.build(args.workload, data)

    if args.trace:
        pairs = repeat(lambda: traced_pair(workload), args.seconds)
        rounds = [r for plain, traced, _ in pairs for r in (plain, traced)]
        metrics = {
            key: statistics.median(layers[key] for _, _, layers in pairs)
            for key in pairs[0][2]
        }
        metrics["canon.noncanonical_inputs"] = workloads.noncanonical_inputs(
            workload, args.seed
        )
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        rounds = repeat(lambda: one_round(workload), args.seconds)
        metrics = end_to_end(workload, rounds, setup_s)
        verified = len(workload.inputs) - rounds[0].failed
        print("wall-clock objects/s: encode "
              f"{statistics.median(verified / r.encode_s for r in rounds)} decode "
              f"{statistics.median(verified / r.decode_s for r in rounds)}")

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"measured and declared metrics differ: {sorted(set(metrics) ^ set(units))}")

    # Same corpus, same bytes: across rounds, and with tracing on or off.
    payloads = rounds[0].encoded.payloads
    deterministic = all(r.encoded.payloads == payloads for r in rounds)
    attempted = len(workload.inputs) * len(rounds)
    failed = sum(r.failed for r in rounds)

    print(f"workload={args.workload} seed={args.seed} objects={len(workload.inputs)} "
          f"items={workload.items} rounds={len(rounds)} trace={args.trace}")
    print(f"attempted={attempted} failed={failed} failed_objects_share="
          f"{failed / attempted} share identical_bytes={deterministic}")
    for key in sorted(metrics):
        print(f"{key} = {metrics[key]} {units[key]}")
    print(json.dumps({
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
