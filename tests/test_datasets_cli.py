import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace

from fractions import Fraction

import pytest

from shufflecodec import canon, compress, perms, shuffle
from shufflecodec.ans import DEFAULT_PAD_SEED, ParameterError, message_init
from shufflecodec.canon import canonize
from shufflecodec.cli import main
from shufflecodec.compress import (
    build_dataset_params,
    compress_corpus,
    decompress_corpus,
    net_rate_single,
    validate_dataset_params,
)
from shufflecodec.datasets import (
    Corpus,
    DatasetError,
    load_tu_dataset,
    write_tu_dataset,
)
from shufflecodec.generate import sample_er_graph
from shufflecodec.graphs import Graph, plain_graph
from shufflecodec.shuffle import ShuffleCodec, graph_class

from oracles import assert_graph_layout, assert_pairs_shared, canon_equal

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "toy_tu")
GEN_CORPUS = os.path.join(os.path.dirname(__file__), "..", "scripts", "gen_corpus.py")


def fixture_corpus():
    return load_tu_dataset(FIXTURE)


class TestTuLoader:
    def test_fixture_shape(self):
        corpus = fixture_corpus()
        assert corpus.name == "TOY"
        assert [g.n for g in corpus.graphs] == [3, 4]
        # Edges in graph_pairs order: by the larger endpoint, then the smaller.
        assert corpus.graphs[0].edges == ((0, 1), (1, 2))
        assert corpus.graphs[1].edges == ((0, 1), (0, 2), (1, 2), (2, 3))
        for g in corpus.graphs:
            assert_graph_layout(g)

    def test_fixture_labels_remapped_dense(self):
        corpus = fixture_corpus()
        # raw node labels {5, 7, 9} -> dense {0, 1, 2}
        assert corpus.graphs[0].vertex_attrs == (0, 1, 0)
        assert corpus.graphs[1].vertex_attrs == (2, 1, 1, 0)
        # raw edge labels {1, 3} -> dense {0, 1}
        # One label per edge, in the edges' order.
        assert dict(zip(corpus.graphs[0].edges, corpus.graphs[0].edge_attrs)) == {
            (0, 1): 1,
            (1, 2): 0,
        }
        assert dict(zip(corpus.graphs[1].edges, corpus.graphs[1].edge_attrs)) == {
            (0, 1): 1,
            (1, 2): 1,
            (2, 3): 0,
            (0, 2): 0,
        }
        assert corpus.graphs[0].edge_attrs == (1, 0)
        assert corpus.graphs[1].edge_attrs == (1, 0, 1, 0)

    def test_empty_indicator_rejected(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("")
        (tmp_path / "X_graph_indicator.txt").write_text("")
        with pytest.raises(DatasetError):
            load_tu_dataset(str(tmp_path))

    def test_missing_indicator_rejected(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 2\n")
        with pytest.raises(DatasetError):
            load_tu_dataset(str(tmp_path))

    def test_dangling_vertex_rejected(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 9\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n")
        with pytest.raises(DatasetError):
            load_tu_dataset(str(tmp_path))

    def test_mismatched_label_counts_rejected(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 2\n2, 1\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "X_node_labels.txt").write_text("4\n")
        with pytest.raises(DatasetError):
            load_tu_dataset(str(tmp_path))

    # Each malformed directory by its files, the path handed to the loader
    # (relative to the directory) and the exception with its exact message;
    # {dir} stands for the directory.
    MALFORMED = {
        "crossing-edge": (
            {"X_A.txt": "1, 3\n", "X_graph_indicator.txt": "1\n1\n2\n"},
            ".", DatasetError, "edge (1, 3) crosses graphs",
        ),
        "three-ids": (
            {"X_A.txt": "1 2 3\n", "X_graph_indicator.txt": "1\n1\n1\n"},
            ".", DatasetError, "X_A.txt:1: expected two ids",
        ),
        "dangling-id": (
            {"X_A.txt": "1, 9\n", "X_graph_indicator.txt": "1\n1\n"},
            ".", DatasetError, "X_A.txt:1: dangling vertex id",
        ),
        "conflicting-labels": (
            {
                "X_A.txt": "1, 2\n2, 1\n",
                "X_graph_indicator.txt": "1\n1\n",
                "X_edge_labels.txt": "0\n1\n",
            },
            ".", DatasetError, "conflicting labels for edge (2, 1)",
        ),
        "edge-label-count": (
            {
                "X_A.txt": "1, 2\n2, 1\n",
                "X_graph_indicator.txt": "1\n1\n",
                "X_edge_labels.txt": "0\n",
            },
            ".", DatasetError, "edge label count != edge line count",
        ),
        "node-label-count": (
            {
                "X_A.txt": "1, 2\n2, 1\n",
                "X_graph_indicator.txt": "1\n1\n",
                "X_node_labels.txt": "4\n",
            },
            ".", DatasetError, "node label count != vertex count",
        ),
        "label-count-before-crossing": (
            {
                "X_A.txt": "1, 3\n",
                "X_graph_indicator.txt": "1\n1\n2\n",
                "X_node_labels.txt": "4\n",
            },
            ".", DatasetError, "node label count != vertex count",
        ),
        "graph-id-gap": (
            {"X_A.txt": "1, 2\n", "X_graph_indicator.txt": "1\n3\n"},
            ".", DatasetError, "graph ids must cover 1..N",
        ),
        "empty-indicator": (
            {"X_A.txt": "", "X_graph_indicator.txt": "\n\n"},
            ".", DatasetError, "empty graph indicator file",
        ),
        "missing-indicator": (
            {"X_A.txt": "1, 2\n"},
            ".", DatasetError, "missing X_graph_indicator.txt",
        ),
        "two-a-files": (
            {"X_A.txt": "", "Y_A.txt": "", "X_graph_indicator.txt": "1\n"},
            ".", DatasetError, "multiple *_A.txt files in {dir}",
        ),
        "no-a-file": (
            {"X_graph_indicator.txt": "1\n"},
            ".", DatasetError, "no *_A.txt in {dir}",
        ),
        "not-a-directory": (
            {"X_A.txt": ""},
            "X_A.txt", DatasetError, "not a directory: {dir}/X_A.txt",
        ),
        "non-integer-edge-id": (
            {"X_A.txt": "1, x\n", "X_graph_indicator.txt": "1\n1\n"},
            ".", ValueError, "invalid literal for int() with base 10: 'x'",
        ),
        "non-integer-graph-id": (
            {"X_A.txt": "", "X_graph_indicator.txt": "1\none\n"},
            ".", ValueError, "invalid literal for int() with base 10: 'one'",
        ),
        "non-integer-label": (
            {
                "X_A.txt": "1, 2\n",
                "X_graph_indicator.txt": "1\n1\n",
                "X_edge_labels.txt": "0.5\n",
            },
            ".", ValueError, "invalid literal for int() with base 10: '0.5'",
        ),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_directory(self, tmp_path, case):
        files, target, error, message = self.MALFORMED[case]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        target = os.path.normpath(os.path.join(str(tmp_path), target))
        with pytest.raises(ValueError) as exc:
            load_tu_dataset(target)
        assert type(exc.value) is error
        assert str(exc.value) == message.format(dir=tmp_path)

    def test_blank_lines_skipped_and_negative_labels_remapped(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("\n1 2\n  \n2, 1\n3, 3\n\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n\n1\n2\n")
        (tmp_path / "X_node_labels.txt").write_text("-3\n5\n\n-3\n")
        (tmp_path / "X_edge_labels.txt").write_text("-1\n-1\n\n7\n")
        corpus = load_tu_dataset(str(tmp_path))
        assert corpus.name == "X"
        assert corpus.graphs == (
            Graph(2, [(0, 1)], (0, 1), {(0, 1): 0}),
            Graph(1, [(0, 0)], (0,), {(0, 0): 1}),
        )

    def test_written_files_exact(self, tmp_path):
        # Graph ids per vertex; each edge as both directions in sorted edge
        # order, a loop once; one edge label per edge line; vertex labels in
        # vertex order.
        corpus = Corpus(
            (
                Graph(3, [(1, 2), (0, 1), (1, 1)], (2, 0, 1), {(0, 1): 1, (1, 1): 0, (1, 2): 1}),
                Graph(2, [(0, 1)], (0, 0), {(0, 1): 0}),
            ),
            "W",
            True,
            True,
        )
        write_tu_dataset(corpus, str(tmp_path / "out"))
        assert {p.name: p.read_text() for p in (tmp_path / "out").iterdir()} == {
            "W_graph_indicator.txt": "1\n1\n1\n2\n2\n",
            "W_A.txt": "1, 2\n2, 1\n2, 2\n2, 3\n3, 2\n4, 5\n5, 4\n",
            "W_edge_labels.txt": "1\n1\n0\n1\n1\n0\n0\n",
            "W_node_labels.txt": "2\n0\n1\n0\n0\n",
        }
        assert load_tu_dataset(str(tmp_path / "out")).graphs == corpus.graphs
        plain = Corpus((Graph(2), Graph(1)), "P", False, False)
        write_tu_dataset(plain, str(tmp_path / "plain"), name="Q")
        assert {p.name: p.read_text() for p in (tmp_path / "plain").iterdir()} == {
            "Q_graph_indicator.txt": "1\n1\n2\n",
            "Q_A.txt": "",
        }

    def test_graph_with_no_vertices_refused(self, tmp_path):
        # The TU format has no line for a graph without vertices: the writer
        # refuses it before it creates anything.
        corpus = Corpus((Graph(0), Graph(2, [(0, 1)]), Graph(0)), "Z", False, False)
        out = tmp_path / "out"
        with pytest.raises(DatasetError, match="graph 1 has no vertices"):
            write_tu_dataset(corpus, str(out))
        assert not out.exists()

    def test_corpus_with_no_graphs_refused(self, tmp_path):
        # Empty files would make a directory that the reader refuses: the
        # writer refuses the corpus before it creates anything.
        out = tmp_path / "out"
        with pytest.raises(DatasetError, match="no graphs"):
            write_tu_dataset(Corpus((), "E", False, False), str(out))
        assert not out.exists()

    def test_label_files_of_an_earlier_write_removed(self, tmp_path):
        # An unlabelled corpus written where a labelled one was, under the
        # same prefix, loads as the unlabelled corpus: the old label files go.
        out = str(tmp_path / "out")
        write_tu_dataset(fixture_corpus(), out, name="S")
        plain = Corpus(tuple(plain_graph(g) for g in fixture_corpus().graphs), "S", False, False)
        write_tu_dataset(plain, out)
        assert sorted(os.listdir(out)) == ["S_A.txt", "S_graph_indicator.txt"]
        assert load_tu_dataset(out) == plain

    @pytest.mark.parametrize("directory", ["out", "out[1]"])
    def test_another_dataset_in_the_directory_refused(self, tmp_path, directory):
        # Two prefixes in one directory would not load: writing a second is
        # refused before any file is created or removed, and rewriting the
        # same prefix stays allowed. A directory name is not a glob pattern.
        out = tmp_path / directory
        write_tu_dataset(fixture_corpus(), str(out), name="decoded")
        before = {f: (out / f).read_bytes() for f in os.listdir(out)}
        plain = tuple(plain_graph(g) for g in fixture_corpus().graphs)
        other = Corpus(plain, "other", False, False)
        with pytest.raises(DatasetError, match="another dataset, decoded"):
            write_tu_dataset(other, str(out))
        assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before
        write_tu_dataset(other, str(out), name="decoded")
        assert load_tu_dataset(str(out)) == Corpus(plain, "decoded", False, False)

    def test_write_read_round_trip(self, tmp_path):
        corpus = fixture_corpus()
        write_tu_dataset(corpus, str(tmp_path))
        again = load_tu_dataset(str(tmp_path))
        assert again.graphs == corpus.graphs

    def test_loop_in_one_graph_round_trips(self, tmp_path):
        # one graph with a loop, one without: the loop-free graph is the same
        # graph as one built by hand, and both decode to their canonical forms
        (tmp_path / "X_A.txt").write_text("1, 1\n2, 3\n3, 2\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n2\n2\n")
        corpus = load_tu_dataset(str(tmp_path))
        assert corpus.self_loops
        assert corpus.graphs[1] == Graph(2, [(0, 1)])
        data, _ = compress_corpus(corpus, keep_order=True)
        out = decompress_corpus(data)
        assert list(out.graphs) == [canonize(g).canon_graph for g in corpus.graphs]


def synthetic_corpus(seed=0, num=12, with_attrs=False, loops=False):
    rng = random.Random(seed)
    graphs = []
    for _ in range(num):
        n = rng.randint(0, 9)
        graphs.append(
            sample_er_graph(
                rng,
                n,
                0.4,
                vertex_alphabet=3 if with_attrs else None,
                edge_alphabet=2 if with_attrs else None,
                self_loops=loops,
            )
        )
    return Corpus(tuple(graphs), "synthetic", with_attrs, with_attrs)


class TestCorpus:
    def test_self_loops_read_once(self):
        loops = synthetic_corpus(seed=3, loops=True)
        plain = synthetic_corpus(seed=3)
        for corpus, want in ((loops, True), (plain, False)):
            assert any(i == j for g in corpus.graphs for i, j in g.edges) == want
            assert "self_loops" not in vars(corpus)
            assert corpus.self_loops is want
            assert vars(corpus)["self_loops"] is want  # cached, not rescanned
            assert corpus.self_loops is want
        assert Corpus((), "empty", False, False).self_loops is False


class TestBuildParams:
    def test_er_counts_ten_single_edge_graphs(self):
        graphs = tuple(Graph(3, [(0, 1)]) for _ in range(10))
        corpus = Corpus(graphs, "ten", False, False)
        params, _ = build_dataset_params(corpus, "er", "auto")
        assert params.er_counts == (10, 20)

    def test_uniform_size_corpus_runs(self):
        graphs = tuple(Graph(5, [(0, 1)]) for _ in range(3))
        corpus = Corpus(graphs, "same", False, False)
        params, _ = build_dataset_params(corpus, "er", "auto")
        assert params.vertex_count_runs == ((5, 3),)

    def test_mixed_size_runs_and_order(self):
        graphs = (Graph(5), Graph(7), Graph(5))
        corpus = Corpus(graphs, "mix", False, False)
        params, order = build_dataset_params(corpus, "er", "auto")
        assert params.vertex_count_runs == ((5, 2), (7, 1))
        assert order == [1, 0, 2]  # largest first, ties stable

    def test_redraws_refused_with_other_models(self):
        # Only the urn draws edges, so redraws would change the block's
        # flags and nothing else.
        corpus = Corpus((Graph(3, [(0, 1)]),), "one", False, False)
        with pytest.raises(ValueError, match="redraws"):
            build_dataset_params(corpus, "er", redraws=True)
        with pytest.raises(ValueError, match="redraws"):
            compress_corpus(corpus, "er", redraws=True)

    @pytest.mark.parametrize("model,redraws", [("er", False), ("pu", False), ("pu", True)])
    def test_validate_accepts_its_own_block_only(self, model, redraws):
        corpus = synthetic_corpus(seed=21, num=6, with_attrs=True)
        other = synthetic_corpus(seed=22, num=6, with_attrs=True)
        for keep_order in (False, True):
            params, _ = build_dataset_params(corpus, model, "auto", redraws, keep_order)
            validate_dataset_params(params, corpus, "auto")
            with pytest.raises(DatasetError, match="inconsistent"):
                validate_dataset_params(params, other, "auto")


class TestCompressDecompress:
    @pytest.mark.parametrize("model", ["er", "pu"])
    @pytest.mark.parametrize("attrs", ["auto", "none", "uniform"])
    def test_fixture_round_trip_canon_equal(self, model, attrs):
        corpus = fixture_corpus()
        data, report = compress_corpus(corpus, model=model, attrs=attrs)
        out = decompress_corpus(data)
        params, order = build_dataset_params(corpus, model, attrs)
        assert len(out.graphs) == len(corpus.graphs)
        for pos, original_index in enumerate(order):
            reference = corpus.graphs[original_index]
            if attrs == "none":
                reference = Graph(reference.n, reference.edges)
            assert canon_equal(out.graphs[pos], reference)

    @pytest.mark.parametrize("model", ["er", "pu"])
    @pytest.mark.parametrize("attrs", ["auto", "uniform"])
    @pytest.mark.parametrize(
        "graphs,edge_attrs",
        [
            ((Graph(3, [], vertex_attrs=(0, 1, 0), edge_attrs={}),), True),
            ((Graph(0, [], vertex_attrs=()),), False),
        ],
        ids=["no-edge-carries-one", "no-vertex-carries-one"],
    )
    def test_attribute_that_never_occurs(self, graphs, edge_attrs, model, attrs):
        # An attribute whose count table is empty codes no symbol; its
        # one-symbol table must not stop the corpus from compressing.
        corpus = Corpus(graphs, "unused-attr", True, edge_attrs)
        data, _ = compress_corpus(corpus, model=model, attrs=attrs)
        out = decompress_corpus(data)
        assert len(out.graphs) == len(graphs)
        for got, want in zip(out.graphs, graphs):
            assert canon_equal(got, want)
            assert got.has_edge_attrs == edge_attrs

    @pytest.mark.parametrize("model", ["er", "pu"])
    def test_loop_round_trips(self, model):
        g = Graph(2, [(0, 0)])
        data, _ = compress_corpus(Corpus((g,), "loop", False, False), model=model)
        assert list(decompress_corpus(data).graphs) == [canonize(g).canon_graph]

    @pytest.mark.parametrize("model", ["er", "pu"])
    def test_keep_order_restores_positions(self, model):
        corpus = synthetic_corpus(seed=3, with_attrs=True)
        data, _ = compress_corpus(corpus, model=model, keep_order=True)
        out = decompress_corpus(data)
        assert len(out.graphs) == len(corpus.graphs)
        for got, want in zip(out.graphs, corpus.graphs):
            assert got.n == want.n
            assert canon_equal(got, want)

    @pytest.mark.parametrize("model", ["er", "pu"])
    def test_synthetic_round_trip(self, model):
        corpus = synthetic_corpus(seed=5, num=15, with_attrs=True)
        data, report = compress_corpus(corpus, model=model)
        out = decompress_corpus(data)
        params, order = build_dataset_params(corpus, model, "auto")
        for pos, original_index in enumerate(order):
            assert canon_equal(out.graphs[pos], corpus.graphs[original_index])
        assert report.num_graphs == 15

    @pytest.mark.parametrize("model", ["er", "pu"])
    def test_decoding_never_computes_the_group_order(self, model, monkeypatch):
        # |Aut| enters only the encoder's rate report; decoding reads the
        # group itself. Twin graphs (K1,5, two disjoint triangles) and C6,
        # whose group is a block chain found by search.
        graphs = (
            Graph(6, [(0, i) for i in range(1, 6)]),
            Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            Graph(6, [(i, (i + 1) % 6) for i in range(6)]),
        )
        data, _ = compress_corpus(Corpus(graphs, "twins", False, False), model=model)

        def no_order(group):
            raise AssertionError("group_order called while decoding")

        monkeypatch.setattr(canon, "group_order", no_order)
        monkeypatch.setattr(perms, "group_order", no_order)
        out = decompress_corpus(data)
        assert sorted(g.key() for g in out.graphs) == sorted(
            canonize(g).canon_graph.key() for g in graphs
        )

    @pytest.mark.parametrize("model", ["er", "pu"])
    def test_decoded_graphs_share_their_pairs(self, model):
        # The decoded graphs, and the corpus's graphs, which the constructor
        # built, hold each pair they have in common as one object.
        corpus = synthetic_corpus(seed=7, num=10, with_attrs=True)
        data, _ = compress_corpus(corpus, model=model)
        out = decompress_corpus(data).graphs
        for g in out:
            assert_graph_layout(g)
            for h in out + corpus.graphs:
                assert_pairs_shared(g, h)

    def test_self_loop_corpus(self):
        corpus = synthetic_corpus(seed=7, num=10, loops=True)
        data, _ = compress_corpus(corpus)
        out = decompress_corpus(data)
        params, order = build_dataset_params(corpus, "er", "auto")
        for pos, original_index in enumerate(order):
            assert canon_equal(out.graphs[pos], corpus.graphs[original_index])

    def test_report_accounting(self):
        corpus = synthetic_corpus(seed=9, num=20)
        data, report = compress_corpus(corpus)
        assert report.total_bits <= len(data) * 8
        assert report.param_bits > 0
        assert report.shuffle_bits_per_edge <= report.ordered_bits_per_edge
        assert 0 <= report.discount_percent < 100
        # same-model discount: ordered - shuffle tracks the aut discounts
        diff = report.ordered_bits_per_edge - report.shuffle_bits_per_edge
        from shufflecodec.shuffle import discount_bits

        per_edge = sum(discount_bits(g) for g in corpus.graphs) / max(
            1, corpus.total_edges
        )
        pad_per_edge = report.initial_bits_per_edge
        assert abs(diff - (per_edge - pad_per_edge)) <= 0.02 + 0.02 * per_edge

    def test_deterministic_bytes(self):
        corpus = synthetic_corpus(seed=11, num=8)
        a, _ = compress_corpus(corpus)
        b, _ = compress_corpus(corpus)
        assert a == b

    def test_empty_corpus(self):
        corpus = Corpus((), "empty", False, False)
        data, report = compress_corpus(corpus)
        assert report.num_graphs == 0
        out = decompress_corpus(data)
        assert out.graphs == ()

    def test_degenerate_edge_densities_clamped(self):
        # all-edgeless and all-complete corpora exercise the p clamp
        from itertools import combinations

        for edges in ([], list(combinations(range(5), 2))):
            graphs = tuple(Graph(5, edges) for _ in range(6))
            corpus = Corpus(graphs, "degenerate", False, False)
            data, _ = compress_corpus(corpus)
            out = decompress_corpus(data)
            for got in out.graphs:
                assert canon_equal(got, graphs[0])

    def test_canonize_share_reported(self):
        corpus = synthetic_corpus(seed=17, num=10)
        _, report = compress_corpus(corpus)
        assert 0 < report.canonize_share <= 1
        assert report.canonize_seconds <= report.encode_seconds

    def test_canonize_seconds_sum_the_per_graph_times(self, monkeypatch):
        # A fake clock that only canonization advances: one second per graph.
        clock = SimpleNamespace(now=0.0)
        fake_time = SimpleNamespace(perf_counter=lambda: clock.now)
        original = shuffle.canonize

        def one_second_canonize(g):
            clock.now += 1.0
            return original(g)

        monkeypatch.setattr(shuffle, "time", fake_time)
        monkeypatch.setattr(compress, "time", fake_time)
        monkeypatch.setattr(shuffle, "canonize", one_second_canonize)
        for model in ("er", "pu"):
            clock.now = 0.0
            _, report = compress_corpus(synthetic_corpus(seed=17, num=10), model)
            assert report.canonize_seconds == 10.0
            assert report.encode_seconds == 10.0
            assert report.canonize_share == 1.0

    @pytest.mark.parametrize("model", ["er", "pu"])
    def test_one_codec_per_run_of_equal_slots(self, model, monkeypatch):
        # Coding order is largest-first, so graphs with equal vertex counts
        # are adjacent: each run of them builds one codec, on both sides,
        # under the urn too, whose codec codes each graph's edge count.
        corpus = synthetic_corpus(seed=5, num=15, with_attrs=True)
        params, order = build_dataset_params(corpus, model)
        keys = [corpus.graphs[i].n for i in order]
        runs = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
        assert runs == len(params.vertex_count_runs) < len(keys)
        if model == "pu":
            edge_counts = {(g.n, g.num_edges) for g in corpus.graphs}
            assert len(edge_counts) > runs
        built = []
        original = compress.graph_codec_for

        def counting(params, n):
            built.append(n)
            return original(params, n)

        monkeypatch.setattr(compress, "graph_codec_for", counting)
        data, _ = compress_corpus(corpus, model=model)
        assert len(built) == runs
        built.clear()
        out = decompress_corpus(data)
        assert len(built) == runs
        for pos, original_index in enumerate(order):
            assert canon_equal(out.graphs[pos], corpus.graphs[original_index])

    def test_corrupted_file_rejected(self):
        corpus = synthetic_corpus(seed=13, num=5)
        data, _ = compress_corpus(corpus)
        from shufflecodec.ans import FormatError

        corrupted = bytearray(data)
        corrupted[len(corrupted) // 2] ^= 0xFF
        with pytest.raises(FormatError):
            decompress_corpus(bytes(corrupted))


class TestNetRateSingle:
    def test_edgeless_three(self):
        rate = net_rate_single(Graph(3), er_p=Fraction(1, 2))
        assert abs(rate - 3) <= 0.05

    def test_single_edge_three_vertices(self):
        import math

        rate = net_rate_single(Graph(3, [(0, 1)]), er_p=Fraction(1, 2))
        assert abs(rate - (3 - math.log2(3))) <= 0.05

    def test_triangle(self):
        rate = net_rate_single(
            Graph(3, [(0, 1), (0, 2), (1, 2)]), er_p=Fraction(1, 2)
        )
        assert abs(rate - 3) <= 0.05

    def test_empirical_p_and_pu(self):
        rng = random.Random(15)
        g = sample_er_graph(rng, 12, 0.3)
        assert net_rate_single(g) > 0
        assert net_rate_single(g, model="pu") > 0

    def test_deterministic_and_discount_realized(self):
        import math

        rng = random.Random(16)
        g = sample_er_graph(rng, 14, 0.4)
        assert net_rate_single(g, model="pu") == net_rate_single(g, model="pu")
        # less the pad its pop drew, the full order discount is reclaimed, so
        # the net rate sits well below the ordered cost
        from shufflecodec.shuffle import discount_bits

        pairs = 14 * 13 // 2
        p = g.num_edges / pairs
        ordered = pairs * (-p * math.log2(p) - (1 - p) * math.log2(1 - p))
        assert net_rate_single(g) <= ordered - discount_bits(g) + 2

    def test_canonizes_once(self, monkeypatch):
        calls = []
        original = shuffle.canonize

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(shuffle, "canonize", counting)
        g = sample_er_graph(random.Random(18), 10, 0.4)
        for model in ("er", "pu"):
            calls.clear()
            net_rate_single(g, model=model)
            assert len(calls) == 1

    @pytest.mark.parametrize("model", ["er", "pu"])
    @pytest.mark.parametrize("seed", [DEFAULT_PAD_SEED, 12345])
    def test_one_encode_less_its_pad(self, model, seed):
        # The net rate is one encode's message growth less the pad words its
        # bits-back pop drew from the empty message.
        g = sample_er_graph(random.Random(19), 12, 0.3)
        corpus = Corpus((g,), "single", False, False)
        params, _ = build_dataset_params(corpus, model)
        codec = ShuffleCodec(
            compress.graph_codec_for(params, g.n), graph_class()
        )
        m = message_init(pad_seed=seed)
        before = m.length_bits
        report = codec.encode(m, g)
        assert report.initial_bits_overhead > 0
        expected = m.length_bits - before - report.initial_bits_overhead
        assert net_rate_single(g, model=model, seed=seed) == expected

    def test_er_p_outside_unit_interval_refused(self):
        for p in (2, -3, Fraction(3, 2)):
            with pytest.raises(ParameterError):
                net_rate_single(Graph(3, [(0, 1)]), er_p=p)

    def test_er_p_refused_with_other_models(self):
        # er_p sets the ER edge probability; any other model would ignore it.
        g = Graph(5, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="er_p"):
            net_rate_single(g, "pu", er_p=7)
        with pytest.raises(ValueError, match="er_p"):
            net_rate_single(g, "pu", er_p=Fraction(1, 2))

    def test_pu_codes_attributes(self):
        # Attributes cost about the same under either model; the urn's inner
        # edge-list shuffle moves its bits by a fraction of a bit.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (4, 5), (3, 6)]
        plain = Graph(7, edges)
        g = Graph(7, edges, [0, 1, 1, 0, 1, 1, 1], {e: k % 2 for k, e in enumerate(edges)})
        er_cost = net_rate_single(g) - net_rate_single(plain)
        pu_cost = net_rate_single(g, model="pu") - net_rate_single(plain, model="pu")
        assert er_cost > 10
        assert abs(pu_cost - er_cost) < 1


class TestGenCorpus:
    @pytest.mark.parametrize(
        "args, name, model",
        [
            (
                ["--kind", "er", "--vertex-alphabet", "3", "--edge-alphabet", "2"],
                "ER6-n8-p0.3-v3-e2",
                "er",
            ),
            (["--kind", "pa", "--attachment", "2"], "PA6-n8-a2", "pu"),
        ],
    )
    def test_generated_corpus_round_trips(self, tmp_path, args, name, model):
        out = tmp_path / "corpus"
        argv = ["--out", str(out), "--num", "6", "--n", "8", "--n-jitter", "2"]
        subprocess.run(
            [sys.executable, GEN_CORPUS, *argv, *args], check=True, capture_output=True
        )
        assert (out / f"{name}_A.txt").exists()
        corpus = load_tu_dataset(str(out))
        assert corpus.name == name
        assert len(corpus.graphs) == 6
        assert corpus.has_vertex_attrs == corpus.has_edge_attrs == (model == "er")
        data, _ = compress_corpus(corpus, model)
        _, order = build_dataset_params(corpus, model)
        assert list(decompress_corpus(data).graphs) == [
            canonize(corpus.graphs[i]).canon_graph for i in order
        ]


class TestCli:
    def test_compress_decompress_cycle(self, tmp_path, capsys):
        blob = tmp_path / "toy.shuf"
        report = tmp_path / "report.json"
        outdir = tmp_path / "decoded"
        assert main(
            [
                "compress",
                "--dataset",
                FIXTURE,
                "--out",
                str(blob),
                "--report",
                str(report),
                "--keep-order",
            ]
        ) == 0
        assert blob.exists()
        payload = json.loads(report.read_text())
        assert payload["num_graphs"] == 2
        assert main(["decompress", "--in", str(blob), "--out", str(outdir)]) == 0
        decoded = load_tu_dataset(str(outdir))
        original = fixture_corpus()
        for got, want in zip(decoded.graphs, original.graphs):
            assert canon_equal(got, want)

    def test_bench_json(self, tmp_path, capsys):
        rng = random.Random(17)
        plain = Corpus(
            tuple(sample_er_graph(rng, 6, 0.4) for _ in range(3)), "PLAIN", False, False
        )
        write_tu_dataset(plain, str(tmp_path / "plain"))
        argv = ["bench", "--dataset", FIXTURE, "--dataset", str(tmp_path / "plain")]
        assert main(argv + ["--models", "er,pu", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [(r["dataset"], r["model"]) for r in payload] == [
            ("TOY", "er"),
            ("TOY", "pu"),
            ("PLAIN", "er"),
            ("PLAIN", "pu"),
        ]
        for r in payload:
            assert r["shuffle_bits_per_edge"] > 0
            assert r["decode_seconds"] > 0

    def test_edgeless_corpus_has_no_per_edge_rates(self, tmp_path, capsys):
        # Two empty graphs on 40 vertices: there is no edge to divide by, so
        # the per-edge rates are None (null in JSON) and the CLI prints
        # "no edges" where a rate would be.
        empty = Corpus((Graph(40), Graph(40)), "EMPTY", False, False)
        corpus_dir = str(tmp_path / "empty")
        write_tu_dataset(empty, corpus_dir)
        rates = (
            "ordered_bits_per_edge", "shuffle_bits_per_edge",
            "net_bits_per_edge", "initial_bits_per_edge",
        )
        report = tmp_path / "report.json"
        argv = ["compress", "--dataset", corpus_dir, "--out", str(tmp_path / "e.shuf")]
        assert main(argv + ["--report", str(report)]) == 0
        assert capsys.readouterr().out.endswith("(no edges)\n")
        payload = json.loads(report.read_text())
        assert payload["total_edges"] == 0 and payload["total_bits"] > 0
        assert [payload[k] for k in rates] == [None] * 4
        assert main(["bench", "--dataset", corpus_dir, "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)
        assert [entry[k] for k in rates] == [None] * 4
        assert main(["bench", "--dataset", corpus_dir, "--models", "er,pu"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            "EMPTY er: no edges", "EMPTY pu: no edges",
        ]

    def test_bench_refuses_an_unknown_model(self, capsys):
        # Refused before any corpus is coded: one error line, no report.
        assert main(["bench", "--dataset", FIXTURE, "--models", "er,xx"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unknown model 'xx'\n"

    def test_redraws_under_er_exit_one(self, tmp_path, capsys):
        blob = tmp_path / "x.shuf"
        argv = ["compress", "--dataset", FIXTURE, "--model", "er", "--redraws"]
        assert main(argv + ["--out", str(blob)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "redraws" in err
        assert not blob.exists()

    @pytest.mark.parametrize("keep_order", [False, True])
    def test_decompress_refuses_a_graph_with_no_vertices(self, tmp_path, capsys, keep_order):
        # A dropped empty graph would leave a directory of fewer graphs, or,
        # with the stored order, one that does not load: refused instead.
        corpus = Corpus((Graph(0), Graph(2, [(0, 1)]), Graph(0)), "Z", False, False)
        data, _ = compress_corpus(corpus, keep_order=keep_order)
        blob = tmp_path / "z.shuf"
        blob.write_bytes(data)
        out = tmp_path / "decoded"
        assert main(["decompress", "--in", str(blob), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no vertices" in err
        assert not out.exists()

    def test_decompress_refuses_an_empty_corpus(self, tmp_path, capsys):
        # A corpus with no graphs has no TU directory that loads: refused,
        # with one error line and no directory.
        data, _ = compress_corpus(Corpus((), "E", False, False))
        blob = tmp_path / "e.shuf"
        blob.write_bytes(data)
        out = tmp_path / "decoded"
        assert main(["decompress", "--in", str(blob), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no graphs" in err
        assert not out.exists()

    def test_decompress_refuses_a_directory_with_another_dataset(self, tmp_path, capsys):
        # --name other into a directory that holds the dataset "decoded":
        # one error line, exit 1, and the directory as it was.
        blob = tmp_path / "fixture.shuf"
        blob.write_bytes(compress_corpus(fixture_corpus())[0])
        out = tmp_path / "decoded"
        assert main(["decompress", "--in", str(blob), "--out", str(out)]) == 0
        before = {f: (out / f).read_bytes() for f in os.listdir(out)}
        capsys.readouterr()
        argv = ["decompress", "--in", str(blob), "--out", str(out), "--name", "other"]
        assert main(argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "another dataset, decoded" in err
        assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before

    def test_data_error_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["compress", "--dataset", str(missing), "--out", "x"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["compress", "--model", "bogus"])
        assert exc.value.code == 2

    def test_seed_option(self, tmp_path):
        # --seed is the pad seed compress_corpus codes with; without it the
        # default seed gives other bytes.
        seeded = tmp_path / "seeded.shuf"
        default = tmp_path / "default.shuf"
        argv = ["compress", "--dataset", FIXTURE, "--out"]
        assert main(["--seed", "12345", *argv, str(seeded)]) == 0
        assert main([*argv, str(default)]) == 0
        data, _ = compress_corpus(fixture_corpus(), seed=12345)
        assert seeded.read_bytes() == data
        assert default.read_bytes() != data

    def test_closed_stdout_exits_quietly(self):
        # A reader that is gone before any output (`bench --json | head -c 0`)
        # is not a data error: exit 141 (128 + SIGPIPE), nothing on stderr.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "shufflecodec.cli", "bench", "--dataset",
                 FIXTURE, "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert result.stderr == ""

    def test_console_script_installed(self):
        result = subprocess.run(
            [sys.executable, "-m", "shufflecodec.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
