#!/usr/bin/env python3
"""Generate a synthetic TU-format dataset for experiments without downloads.

The dataset name carries the generator parameters, so corpora of different
settings never share file names: the first example writes
ER500-n16-p0.3-v5-e3_*.txt, the second PA100-n50-a2_*.txt.

Examples:
    python3 scripts/gen_corpus.py --out /tmp/corpora/ER500-n16-p0.3-v5-e3 --kind er \
        --num 500 --n 16 --p 0.3 --vertex-alphabet 5 --edge-alphabet 3
    python3 scripts/gen_corpus.py --out /tmp/corpora/PA100-n50-a2 --kind pa \
        --num 100 --n 50 --attachment 2
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from shufflecodec.datasets import Corpus, write_tu_dataset
from shufflecodec.generate import sample_er_graph, sample_pa_graph


def dataset_name(args: argparse.Namespace) -> str:
    if args.kind == "pa":
        return f"PA{args.num}-n{args.n}-a{args.attachment}"
    name = f"ER{args.num}-n{args.n}-p{args.p:g}"
    if args.vertex_alphabet:
        name += f"-v{args.vertex_alphabet}"
    if args.edge_alphabet:
        name += f"-e{args.edge_alphabet}"
    return name


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--kind", choices=["er", "pa"], default="er")
    ap.add_argument("--num", type=int, default=100)
    ap.add_argument("--n", type=int, default=16, help="vertices per graph")
    ap.add_argument("--n-jitter", type=int, default=4, help="± range on --n")
    ap.add_argument("--p", type=float, default=0.3, help="er edge probability")
    ap.add_argument("--attachment", type=int, default=2, help="pa edges per vertex")
    ap.add_argument("--vertex-alphabet", type=int, default=0)
    ap.add_argument("--edge-alphabet", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    graphs = []
    for _ in range(args.num):
        n = args.n + rng.randint(-args.n_jitter, args.n_jitter)
        n = max(n, args.attachment + 1 if args.kind == "pa" else 0)
        if args.kind == "er":
            graphs.append(
                sample_er_graph(
                    rng,
                    n,
                    args.p,
                    vertex_alphabet=args.vertex_alphabet or None,
                    edge_alphabet=args.edge_alphabet or None,
                )
            )
        else:
            graphs.append(sample_pa_graph(rng, n, args.attachment))
    name = dataset_name(args)
    corpus = Corpus(
        tuple(graphs),
        name,
        has_vertex_attrs=bool(args.vertex_alphabet) and args.kind == "er",
        has_edge_attrs=bool(args.edge_alphabet) and args.kind == "er",
    )
    write_tu_dataset(corpus, args.out, name=name)
    edges = corpus.total_edges
    print(f"wrote {args.num} graphs ({edges} edges) to {args.out} as {name}_*.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
