"""Command-line interface: compress / decompress / bench."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

from .ans import CodecError, DEFAULT_PAD_SEED
from .compress import (
    ATTR_MODES,
    MODELS,
    compress_corpus,
    decompress_corpus,
)
from .datasets import DatasetError, load_tu_dataset, write_tu_dataset

def _cmd_compress(args) -> int:
    corpus = load_tu_dataset(args.dataset)
    data, report = compress_corpus(
        corpus,
        model=args.model,
        attrs=args.attrs,
        redraws=args.redraws,
        keep_order=args.keep_order,
        seed=args.seed,
    )
    with open(args.out, "wb") as fh:
        fh.write(data)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    rate = report.shuffle_bits_per_edge
    print(
        f"{corpus.name}: {report.num_graphs} graphs, {report.total_edges} edges -> "
        f"{len(data)} bytes ({'no edges' if rate is None else f'{rate:.3f} bits/edge'})"
    )
    return 0


def _cmd_decompress(args) -> int:
    with open(args.infile, "rb") as fh:
        data = fh.read()
    corpus = decompress_corpus(data, name=args.name)
    write_tu_dataset(corpus, args.out)
    print(f"wrote {len(corpus.graphs)} graphs to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    for model in models:
        if model not in MODELS:
            raise DatasetError(f"unknown model {model!r}")
    reports = []
    for directory in args.dataset:
        corpus = load_tu_dataset(directory)
        for model in models:
            data, report = compress_corpus(
                corpus, model=model, attrs=args.attrs, seed=args.seed
            )
            started = time.perf_counter()
            decompress_corpus(data)
            report.decode_seconds = time.perf_counter() - started
            reports.append(report)
    if args.json:
        print(json.dumps([asdict(r) for r in reports], sort_keys=True, indent=2))
    else:
        for r in reports:
            if r.total_edges:
                rates = (
                    f"ordered {r.ordered_bits_per_edge:.3f}, "
                    f"shuffle {r.shuffle_bits_per_edge:.3f} bits/edge "
                    f"(discount {r.discount_percent:.1f}%, initial "
                    f"{r.initial_bits_per_edge:.4f} b/e"
                )
            else:
                rates = f"no edges ({r.total_bits:.1f} bits, discount {r.discount_percent:.1f}%"
            print(
                f"{r.dataset} {r.model}: {rates}, canonize "
                f"{100 * r.canonize_share:.0f}% of encode time)"
            )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shufflecodec",
        description="Lossless compression of unordered graphs by shuffle coding.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_PAD_SEED, help="pad seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a TU-format dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=MODELS, default="er")
    p.add_argument("--attrs", choices=ATTR_MODES, default="auto")
    p.add_argument("--redraws", action="store_true", help="allow urn edge redraws")
    p.add_argument("--keep-order", action="store_true", help="store graph order")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decode a compressed file to TU format")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="decoded")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("bench", help="compress+decompress and report rates")
    p.add_argument(
        "--dataset", required=True, action="append", help="repeat for more datasets"
    )
    p.add_argument("--models", default="er")
    p.add_argument("--attrs", choices=ATTR_MODES, default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # The reader went away, which is not a data error. Point stdout at
        # the null device so that the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a writer it killed
    except (CodecError, DatasetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
