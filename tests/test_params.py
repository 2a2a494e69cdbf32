import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecodec import compress
from shufflecodec import params as params_module
from shufflecodec.ans import (
    CodecError,
    ContractViolation,
    FormatError,
    message_deserialize,
    message_init,
    message_serialize,
    push_uniforms,
)
from shufflecodec.cli import main
from shufflecodec.compress import compress_corpus, decompress_corpus
from shufflecodec.datasets import Corpus
from shufflecodec.graphs import Graph
from shufflecodec.params import (
    DatasetParams,
    decode_dataset_params,
    encode_dataset_params,
    natural_list_codec,
)

from conftest import random_message


class TestNaturalList:
    def test_empty_list(self):
        codec = natural_list_codec()
        m = message_init()
        before = m.length_bits
        codec.encode(m, [])
        # length header (46 bits) plus the bit-count header (log2 33)
        assert abs((m.length_bits - before) - (46 + math.log2(33))) <= 0.5
        assert codec.decode(m) == []

    def test_all_zero_elements_cost_nothing_extra(self):
        codec = natural_list_codec()
        m = message_init()
        before = m.length_bits
        codec.encode(m, [0, 0, 0])
        # B = 0, so each element's bit-length symbol is over {0}: free
        assert abs((m.length_bits - before) - (46 + math.log2(33))) <= 0.5
        assert codec.decode(m) == [0, 0, 0]

    def test_five_five_seven_cost(self):
        codec = natural_list_codec()
        m = message_init()
        before = m.length_bits
        codec.encode(m, [5, 5, 7])
        # headers 46 + log2(33); three bit-length symbols over {0..3}; and
        # two free bits for each element (5 = 101b, 7 = 111b).
        expected = 46 + math.log2(33) + 3 * math.log2(4) + 6
        assert abs((m.length_bits - before) - expected) <= 2.0
        assert codec.decode(m) == [5, 5, 7]

    @given(st.lists(st.integers(0, 2**32 - 1), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, xs):
        codec = natural_list_codec()
        m = random_message(seed=1, tail_words=8)
        snapshot = m.copy()
        codec.encode(m, xs)
        assert codec.decode(m) == xs
        assert m == snapshot

    def test_bounds(self):
        codec = natural_list_codec()
        with pytest.raises(ContractViolation):
            codec.encode(message_init(), [1 << 32])
        with pytest.raises(ContractViolation):
            codec.encode(message_init(), [-1])
        with pytest.raises(ContractViolation, match="all-zero"):
            codec.encode(message_init(), [0] * (1 << 20))

    def test_non_int_elements_refused_before_the_message_changes(self):
        codec = natural_list_codec()
        for xs in ([1.5], ["a"], [None], [True, 2], [3, False], [2.0]):
            m = random_message(seed=4, tail_words=8)
            snapshot = m.copy()
            with pytest.raises(ContractViolation):
                codec.encode(m, xs)
            assert m == snapshot


def zero_list_header(m, length):
    """Push the header of a list of `length` zeros: bit count 0, then length."""
    push_uniforms(m, [length, 0], [1 << 46, 33])


class TestUntrustedLists:
    # Zeros cost no bits when the bit count is 0, so without a cap a few
    # header bits could make the decoder loop for 2**46 elements.
    def test_long_zero_list_refused(self):
        m = message_init()
        zero_list_header(m, (1 << 20) + 1)
        with pytest.raises(FormatError, match="all-zero"):
            natural_list_codec().decode(m)

    def test_framed_message_with_long_zero_list_refused(self):
        m = message_init()
        zero_list_header(m, (1 << 20) + 1)
        # model, loops, uniform attrs, redraws and order flags, all 0
        push_uniforms(m, [0] * 5, [2] * 5)
        with pytest.raises(CodecError, match="all-zero"):
            decompress_corpus(message_serialize(m))


def tampered_message(**fields) -> bytes:
    """A framed message of three er graphs (vertex counts 3, 4, 4, stored
    order) whose parameter block has the given fields instead, bypassing the
    checks an encoder's DatasetParams makes."""
    graphs = (Graph(3, [(0, 1)]), Graph(4, [(0, 1)]), Graph(4, [(1, 2), (2, 3)]))
    data, _ = compress_corpus(Corpus(graphs, "t", False, False), keep_order=True)
    m = message_deserialize(data)
    params = decode_dataset_params(m)
    assert params.vertex_count_runs == ((3, 1), (4, 2))
    assert params.order_perm == (1, 2, 0)
    for name, value in fields.items():
        object.__setattr__(params, name, value)
    encode_dataset_params(m, params)
    return message_serialize(m)


MALFORMED_BLOCKS = {
    "repeated vertex count": dict(vertex_count_runs=((3, 1), (3, 2))),
    "zero run length": dict(vertex_count_runs=((3, 0), (4, 3))),
    "order entry past the last graph": dict(order_perm=(1, 2, 3)),
    "order longer than the graphs": dict(order_perm=(1, 2, 0, 0)),
    "order shorter than the graphs": dict(order_perm=(1, 2)),
    "order with a duplicate": dict(order_perm=(1, 1, 0)),
    "er_counts of three numbers": dict(er_counts=(4, 9, 1)),
    "redraws flag under er": dict(redraws=True),
}


class TestMalformedParameterBlocks:
    @pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
    def test_refused_before_any_graph(self, case, monkeypatch, tmp_path, capsys):
        data = tampered_message(**MALFORMED_BLOCKS[case])
        with pytest.raises(FormatError):
            decode_dataset_params(message_deserialize(data))

        def no_graph(*args):
            raise AssertionError("a graph codec was built")

        monkeypatch.setattr(compress, "graph_codec_for", no_graph)
        with pytest.raises(CodecError):
            decompress_corpus(data)
        blob = tmp_path / "bad.shuf"
        blob.write_bytes(data)
        argv = ["decompress", "--in", str(blob), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_run_and_diff_lists_of_different_lengths(self, monkeypatch):
        m = message_deserialize(tampered_message())
        params = decode_dataset_params(m)
        real = params_module._runs_to_lists

        def uneven(runs):
            lengths, diffs = real(runs)
            return lengths, diffs[:-1]

        monkeypatch.setattr(params_module, "_runs_to_lists", uneven)
        encode_dataset_params(m, params)
        monkeypatch.undo()
        data = message_serialize(m)
        with pytest.raises(FormatError, match="run/diff length mismatch"):
            decode_dataset_params(message_deserialize(data))
        with pytest.raises(FormatError):
            decompress_corpus(data)

    def test_untampered_message_decodes(self):
        corpus = decompress_corpus(tampered_message())
        assert [g.n for g in corpus.graphs] == [3, 4, 4]


def make_params(**kw):
    base = dict(
        model="er",
        vertex_count_runs=((3, 2), (5, 1)),
        er_counts=(4, 9),
    )
    base.update(kw)
    return DatasetParams(**base)


class TestDatasetParams:
    def test_runs_validation(self):
        with pytest.raises(ValueError):
            make_params(vertex_count_runs=((5, 1), (3, 2)))
        with pytest.raises(ValueError):
            make_params(vertex_count_runs=((3, 0),))
        with pytest.raises(ValueError):
            DatasetParams("er", ((3, 1),), er_counts=None)

    def test_unknown_model_refused(self):
        with pytest.raises(ValueError, match="unknown model 'xx'"):
            DatasetParams("xx", ((3, 1),), er_counts=(1, 2))

    def test_runs_and_diffs_convention(self):
        # counts {5, 5, 7}: runs (5 x2), (7 x1); diff sequence [5, 2]
        from shufflecodec.params import _runs_to_lists

        lengths, diffs = _runs_to_lists(((5, 2), (7, 1)))
        assert lengths == [2, 1]
        assert diffs == [5, 2]

    def test_round_trip_er(self):
        params = make_params(
            vertex_attr_counts=(3, 0, 7),
            edge_attr_counts=(2, 2),
            self_loops=True,
            uniform_attrs=True,
        )
        m = random_message(seed=2, tail_words=16)
        snapshot = m.copy()
        encode_dataset_params(m, params)
        assert decode_dataset_params(m) == params
        assert m == snapshot

    @pytest.mark.parametrize(
        "params",
        [
            # An edge attribute count of 2**32 in a pu block, refused after
            # the graph order is pushed.
            DatasetParams("pu", ((3, 1),), edge_attr_counts=(1 << 32,), order_perm=(0,)),
            # A vertex attribute count of 2**32, refused after the edge
            # counts, the edge attribute counts and their flag are pushed.
            make_params(vertex_attr_counts=(1 << 32,), edge_attr_counts=(2, 2)),
        ],
        ids=["pu-edge-attr-count", "vertex-attr-count"],
    )
    def test_refused_block_leaves_the_message_unchanged(self, params):
        m = random_message(seed=6, tail_words=8)
        snapshot = m.copy()
        with pytest.raises(ContractViolation):
            encode_dataset_params(m, params)
        assert m == snapshot
        assert m.pad_consumed == snapshot.pad_consumed

    def test_round_trip_pu(self):
        params = make_params(model="pu", er_counts=None, redraws=True)
        m = random_message(seed=3, tail_words=16)
        encode_dataset_params(m, params)
        assert decode_dataset_params(m) == params

    def test_round_trip_with_order(self):
        params = make_params(order_perm=(2, 0, 1))
        m = random_message(seed=4, tail_words=16)
        encode_dataset_params(m, params)
        assert decode_dataset_params(m) == params

    def test_random_round_trips(self):
        rng = random.Random(11)
        for _ in range(60):
            sizes = sorted(rng.randint(0, 9) for _ in range(rng.randint(1, 6)))
            runs = []
            for n in sizes:
                if runs and runs[-1][0] == n:
                    runs[-1][1] += 1
                else:
                    runs.append([n, 1])
            runs = tuple((n, c) for n, c in runs)
            model = rng.choice(["er", "pu"])
            loops = rng.random() < 0.3
            if model == "er":
                params = DatasetParams(
                    "er",
                    runs,
                    er_counts=(rng.randint(0, 50), rng.randint(0, 50)),
                    self_loops=loops,
                )
            else:
                params = DatasetParams(
                    "pu", runs, self_loops=loops, redraws=rng.random() < 0.5
                )
            m = random_message(seed=5, tail_words=16)
            snapshot = m.copy()
            encode_dataset_params(m, params)
            assert decode_dataset_params(m) == params
            assert m == snapshot
