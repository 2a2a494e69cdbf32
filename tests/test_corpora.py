"""Corpus-level checks, on corpora built in memory by the generator that
scripts/gen_corpus.py runs and from families.py: relabeling invariance of the
compressed bytes, wall-clock guards on inputs that were once pathologically
slow (`within` interrupts a hang), a memory cap on one large ER graph, and
decoded directories that compress back to the bytes they came from."""

import functools
import os
import random
import resource
import subprocess
import sys

import pytest

from shufflecodec import ShuffleCodec, message_init, sequence_class, string_codec
from shufflecodec.canon import canonize
from shufflecodec.compress import build_dataset_params, compress_corpus, decompress_corpus
from shufflecodec.datasets import Corpus, load_tu_dataset, write_tu_dataset
from shufflecodec.generate import generate_corpus
from shufflecodec.graphs import Graph, apply_perm

from conftest import within
from families import CFI_BASES, SYM11, cfi, copies, cycle, paley, random_cubic


def plain(name, *graphs):
    return Corpus(graphs, name, False, False)


def cfi_pair():
    base = random_cubic(CFI_BASES[0][1], CFI_BASES[0][0])
    return plain("CFI2", cfi(base), cfi(base, twisted=True))


BUILDERS = {
    "ER20-n10-p0.3-v3-e2": lambda: generate_corpus(
        "er", 20, 10, vertex_alphabet=3, edge_alphabet=2
    ),
    "PA20-n12-a2": lambda: generate_corpus("pa", 20, 12),
    # Trees: every graph needs a search past its first refinement.
    "PA20-n80-a1": lambda: generate_corpus("pa", 20, 80, attachment=1),
    # Each decoded urn edge scans blocks over up to 500 vertices.
    "PA4-n500-a2": lambda: generate_corpus("pa", 4, 500),
    # Isolated vertices, pendant twins and K2 components: twin quotients
    # with no automorphism (runs alone) and with some (a block chain).
    "ER20-n40-p0.05": lambda: generate_corpus("er", 20, 40, p=0.05),
    "SYM11": lambda: plain("SYM11", *SYM11),
    # S_40 on 40 alike blocks: built on the 120 points it took 8 to 10 s.
    "K3x40": lambda: plain("K3x40", copies(40, cycle(3))),
    "PALEY3": lambda: plain("PALEY3", paley(13), paley(17), paley(29)),
    # Untwisted and twisted: color refinement leaves each as one cell.
    "CFI2": cfi_pair,
    # 120 alike twin classes: sifting every Schreier generator took 20 s.
    "K2x120": lambda: plain("K2x120", copies(120, Graph(2, [(0, 1)]))),
    # One twin class: a search over the graph itself took about 10 s.
    "ER2-n80-p0": lambda: generate_corpus("er", 2, 80, p=0),
    # The star: 60 twin leaves, one run of 60 positions.
    "K1,60": lambda: plain("K1,60", Graph(61, [(0, i) for i in range(1, 61)])),
    # Above the 256-vertex shared pair table.
    "ER4-n300-p0.1-v3-e2": lambda: generate_corpus(
        "er", 4, 300, p=0.1, vertex_alphabet=3, edge_alphabet=2
    ),
}

INVARIANT = [
    "ER20-n10-p0.3-v3-e2", "PA20-n12-a2", "PA20-n80-a1", "PA4-n500-a2",
    "ER20-n40-p0.05", "SYM11", "K3x40", "PALEY3", "CFI2",
]

# Seconds each for compress and for decompress, without redraws. Any other
# compress takes at most 10 s.
GUARDS = {
    ("PA20-n80-a1", "er"): 10, ("PA20-n80-a1", "pu"): 10, ("PA4-n500-a2", "pu"): 10,
    ("K3x40", "er"): 5, ("K3x40", "pu"): 5, ("K2x120", "er"): 15, ("K2x120", "pu"): 15,
    ("ER2-n80-p0", "er"): 10, ("ER2-n80-p0", "pu"): 10, ("K1,60", "er"): 10,
}


@functools.cache
def corpus(name):
    built = BUILDERS[name]()
    assert built.name == name
    return built


@functools.cache
def compressed(name, model="er", redraws=False, attrs="auto"):
    with within(10 if redraws else GUARDS.get((name, model), 10)):
        return compress_corpus(corpus(name), model, attrs, redraws)[0]


@functools.cache
def canonical(name):
    return [canonize(g).canon_graph for g in corpus(name).graphs]


@pytest.mark.parametrize(
    "model, redraws", [("er", False), ("pu", False), ("pu", True)], ids=["er", "pu", "pu-redraws"]
)
@pytest.mark.parametrize(
    "name, attrs",
    [(name, "auto") for name in INVARIANT]
    + [("ER20-n10-p0.3-v3-e2", attrs) for attrs in ("uniform", "none")],
)
def test_relabeling_gives_the_same_bytes(name, attrs, model, redraws):
    data = compressed(name, model, redraws, attrs)
    c, rng = corpus(name), random.Random(1)
    graphs = tuple(apply_perm(tuple(rng.sample(range(g.n), g.n)), g) for g in c.graphs)
    with within(10):
        again, _ = compress_corpus(Corpus(graphs, name, c.has_vertex_attrs, c.has_edge_attrs),
                                   model, attrs, redraws)
    assert again == data


@pytest.mark.parametrize("name, model", list(GUARDS))
def test_round_trip_within_bound(name, model):
    data = compressed(name, model)
    with within(GUARDS[name, model]):
        out = decompress_corpus(data)
    _, order = build_dataset_params(corpus(name), model)
    assert list(out.graphs) == [canonical(name)[i] for i in order]


def test_long_multisets_round_trip_within_bound():
    # 20 000 elements: a constant string, 10 000 distinct pairs, a 16-letter
    # string and 20 000 distinct values (the shape of the urn's edge list).
    # A label search linear in the number of labels took about 20 s on the
    # pairs. Then a constant sequence of 10^6 elements, whose |Aut| is 10^6!:
    # math.factorial(10**6) alone takes about 15 s, and the draws of its one
    # label code nothing.
    n = 20000
    rng = random.Random(1)
    with within(60):
        for xs in ([0] * n, [i // 2 for i in range(n)], [i % 16 for i in range(n)],
                   list(range(n))):
            rng.shuffle(xs)
            with within(5):
                codec = ShuffleCodec(string_codec([1] * (max(xs) + 1), n), sequence_class())
                m = message_init()
                codec.encode(m, xs)
                assert codec.decode(m) == tuple(sorted(xs))
        with within(5):
            codec = ShuffleCodec(string_codec([1], 10**6), sequence_class())
            m = message_init()
            assert codec.encode(m, [0] * 10**6).discount_bits == 0.0
            assert codec.decode(m) == (0,) * 10**6


CAPPED = """
import sys
from shufflecodec.compress import compress_corpus, decompress_corpus
from shufflecodec.datasets import write_tu_dataset
from shufflecodec.generate import generate_corpus
data, _ = compress_corpus(generate_corpus("er", 1, 3000, p=0.0013))
write_tu_dataset(decompress_corpus(data), sys.argv[1])
"""


def test_large_er_graph_under_a_memory_cap(tmp_path):
    # One 3000-vertex ER graph under a 400 000 KiB address-space cap: the ER
    # codec keeps no list of its 4.5 million vertex pairs, a list that alone
    # took more than the cap.
    cap = 400_000 * 1024
    result = subprocess.run(
        [sys.executable, "-c", CAPPED, str(tmp_path / "decoded")],
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", ["ER20-n10-p0.3-v3-e2", "ER4-n300-p0.1-v3-e2"])
def test_written_directory_compresses_to_its_bytes(tmp_path, name):
    data = compressed(name)
    write_tu_dataset(decompress_corpus(data), str(tmp_path))
    assert compress_corpus(load_tu_dataset(str(tmp_path)))[0] == data
