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
    pop_uniforms,
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
)

from conftest import random_message
from oracles import natural_list_codec


# Every number costs its bit-length symbol, one of 47, plus its free bits.
NUMBER_BITS = math.log2(47)


class TestNaturalList:
    def test_empty_list(self):
        codec = natural_list_codec()
        m = message_init()
        before = m.length_bits
        codec.encode(m, [])
        # the length 0: its bit length alone
        assert abs((m.length_bits - before) - NUMBER_BITS) <= 0.01
        assert codec.decode(m) == []

    def test_each_zero_costs_its_bit_length_symbol(self):
        codec = natural_list_codec()
        m = message_init()
        before = m.length_bits
        codec.encode(m, [0, 0, 0])
        # the length 3 = 11b with its one free bit, then three zeros, which
        # have none
        assert abs((m.length_bits - before) - (4 * NUMBER_BITS + 1)) <= 0.01
        assert codec.decode(m) == [0, 0, 0]

    def test_five_five_seven_cost(self):
        codec = natural_list_codec()
        m = message_init()
        before = m.length_bits
        codec.encode(m, [5, 5, 7])
        # four bit-length symbols; one free bit for the length 3 = 11b and
        # two for each element (5 = 101b, 7 = 111b).
        expected = 4 * NUMBER_BITS + 1 + 6
        assert abs((m.length_bits - before) - expected) <= 0.01
        assert codec.decode(m) == [5, 5, 7]

    @given(st.lists(st.integers(0, 2**46 - 1), max_size=60))
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
        for xs in ([1 << 46], [-1], [3, 1 << 60]):
            m = random_message(seed=2, tail_words=8)
            snapshot = m.copy()
            with pytest.raises(ContractViolation):
                codec.encode(m, xs)
            assert m == snapshot

    def test_non_int_elements_refused_before_the_message_changes(self):
        codec = natural_list_codec()
        for xs in ([1.5], ["a"], [None], [True, 2], [3, False], [2.0]):
            m = random_message(seed=4, tail_words=8)
            snapshot = m.copy()
            with pytest.raises(ContractViolation):
                codec.encode(m, xs)
            assert m == snapshot


class TestUntrustedLists:
    # No number is free, so a list length read from a few bits cannot make
    # the decoder loop past the end of the message.
    def test_framed_runs_list_of_2_40_numbers_refused_within_a_few_pops(
        self, monkeypatch
    ):
        m = message_init()
        push_uniforms(m, [41, 0], [47, 1 << 40])  # the natural 2**40
        push_uniforms(m, [0] * 6, [2] * 6)  # flags: no loops, lists or redraws
        calls = []
        pop = params_module.pop_uniforms

        def counted(m, sizes):
            calls.append(sizes)
            return pop(m, sizes)

        monkeypatch.setattr(params_module, "pop_uniforms", counted)
        with pytest.raises(CodecError):
            decompress_corpus(message_serialize(m))
        # the flags, the length's two symbols, the first rise's bit length
        assert len(calls) == 4


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
    "er_counts of one number": dict(er_counts=(4,)),
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
        # counts {5, 5, 7}: runs (5 x2), (7 x1), coded after the six flags as
        # the run count, then (rise over the previous count, multiplicity)
        # pairs: 2, then (5, 2) and (2, 1).
        m = message_init()
        encode_dataset_params(m, DatasetParams("pu", ((5, 2), (7, 1))))
        assert pop_uniforms(m, [2] * 6) == [0] * 6
        assert [params_module._pop_natural(m) for _ in range(5)] == [2, 5, 2, 2, 1]
        assert m == message_init()

    @pytest.mark.parametrize(
        "fields",
        [
            dict(er_counts=(4, 9, 1)),
            dict(er_counts=(4,)),
            dict(model="pu", er_counts=(4, 9)),
            dict(vertex_count_runs=((3, 2),), order_perm=(0, 0)),
            dict(order_perm=(0, 1)),
            dict(order_perm=(0, 1, 3)),
        ],
        ids=[
            "three-er-counts",
            "one-er-count",
            "er-counts-under-pu",
            "order-with-a-repeat",
            "order-too-short",
            "order-past-the-end",
        ],
    )
    def test_malformed_fields_refused(self, fields):
        # Each passed DatasetParams at format 14, where some were refused
        # by the decoder alone.
        with pytest.raises(ValueError):
            make_params(**fields)

    def test_round_trip_er(self):
        params = make_params(
            vertex_attr_counts=(3, 0, 7),
            edge_attr_counts=(2, 2),
            self_loops=True,
        )
        m = random_message(seed=2, tail_words=16)
        snapshot = m.copy()
        encode_dataset_params(m, params)
        assert decode_dataset_params(m) == params
        assert m == snapshot

    @pytest.mark.parametrize(
        "params",
        [
            # An edge attribute count of 2**46 in a pu block with a graph
            # order.
            DatasetParams("pu", ((3, 1),), edge_attr_counts=(1 << 46,), order_perm=(0,)),
            # A vertex attribute count of 2**46 with er counts and edge
            # attribute counts.
            make_params(vertex_attr_counts=(1 << 46,), edge_attr_counts=(2, 2)),
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

    def test_er_counts_past_2_32_round_trip(self):
        # An er corpus with 2**32 or more vertex pairs.
        params = make_params(er_counts=(1000, 1 << 32))
        m = random_message(seed=7, tail_words=16)
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
