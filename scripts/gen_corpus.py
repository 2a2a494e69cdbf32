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
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from shufflecodec.datasets import write_tu_dataset
from shufflecodec.generate import generate_corpus


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
    args = vars(ap.parse_args())
    out = args.pop("out")
    corpus = generate_corpus(**args)
    write_tu_dataset(corpus, out)
    edges = corpus.total_edges
    print(f"wrote {len(corpus.graphs)} graphs ({edges} edges) to {out} as {corpus.name}_*.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
