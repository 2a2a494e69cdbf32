"""The benchmark in perfbench/ imports names from the package, and its traced
run rebinds each (module, name) that perfbench/tracing.py lists in
TRACED_FUNCTIONS. Every one must exist in the package, and a traced round
must write the untraced bytes, or only a benchmark run would notice."""

import importlib
import importlib.util
import os
import sys

from shufflecodec import ShuffleCodec, message_init, sequence_class, string_codec
from shufflecodec.ans import message_serialize
from shufflecodec.canon import canonize
from shufflecodec.compress import compress_corpus, decompress_corpus
from shufflecodec.datasets import Corpus
from shufflecodec.graphs import Graph
from shufflecodec.perm_codecs import uniform_l_coset_codec
from shufflecodec.perms import SymmetricRuns

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py as a module, registered in sys.modules for the
    test only (dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(monkeypatch):
    tracing = load_perfbench("tracing", monkeypatch)
    assert tracing.TRACED_FUNCTIONS
    for module, name in tracing.TRACED_FUNCTIONS:
        owner = importlib.import_module(f"shufflecodec.{module}")
        assert callable(getattr(owner, name, None)), f"{module}.{name}"


def test_workloads_imports_resolve(monkeypatch):
    # workloads.py imports corpora.py from its own directory.
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = load_perfbench("workloads", monkeypatch)
    assert workloads.MEASURED == ("er-attr", "pa-pu", "multiset")


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_traced_round_writes_the_untraced_bytes(monkeypatch):
    # Two disjoint triangles and C6 canonize to groups with a block chain
    # built from their twin quotients, so the tracer's hooks on canonize,
    # schreier_sims and the coset codec all run.
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    graphs = (two_triangles, cycle(6))
    assert all(canonize(g).aut_group.blocks is not None for g in graphs)
    corpus = Corpus(graphs, "lifted", False, False)
    multiset = [1, 0, 2, 1, 1, 0, 2, 2, 1]

    def round_trip():
        data, _ = compress_corpus(corpus)
        decoded = decompress_corpus(data).graphs
        codec = ShuffleCodec(string_codec([1, 1, 1], len(multiset)), sequence_class())
        m = message_init()
        codec.encode(m, multiset)
        payload = message_serialize(m)
        assert codec.decode(m) == tuple(sorted(multiset))
        return data, payload, decoded

    untraced = round_trip()
    tracer = load_perfbench("tracing", monkeypatch).Tracer()
    with tracer.installed():
        traced = round_trip()
    assert traced == untraced
    metrics = tracer.metrics()
    assert metrics["perms.schreier_sims.calls"] >= 1
    assert metrics["perm_codecs.uniform_l_coset_codec.calls"] >= 1
    assert metrics["canon.canonize.nontrivial_aut_share"] == 1.0


def test_traced_round_leaves_the_shared_trivial_codec_untraced(monkeypatch):
    # The tracer wraps each codec the coset factory returns in a new Codec;
    # the trivial group's codec, one per degree, must keep its own functions.
    asymmetric = Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert canonize(asymmetric).aut_order == 1
    shared = uniform_l_coset_codec(SymmetricRuns(7, ()))
    encode, decode = shared.encode, shared.decode
    corpus = Corpus((asymmetric,), "asymmetric", False, False)
    untraced, _ = compress_corpus(corpus)
    tracer = load_perfbench("tracing", monkeypatch).Tracer()
    with tracer.installed():
        traced, _ = compress_corpus(corpus)
        decompress_corpus(traced)
    assert traced == untraced
    assert tracer.metrics()["perm_codecs.uniform_l_coset_codec.calls"] == 2
    assert uniform_l_coset_codec(SymmetricRuns(7, ())) is shared
    assert (shared.encode, shared.decode) == (encode, decode)
