import hashlib
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from shufflecodec import ans, models
from shufflecodec.ans import (
    ContractViolation,
    ParameterError,
    message_init,
    message_serialize,
    pop_uniforms,
    push_exact,
    push_uniforms,
)
from shufflecodec.canon import canonize
from shufflecodec.compress import compress_corpus, decompress_corpus
from shufflecodec.datasets import Corpus
from shufflecodec.generate import sample_er_graph, sample_pa_graph
from shufflecodec.graphs import Graph, apply_perm, graph_pairs, pair_count
from shufflecodec.models import (
    ErParams,
    PuParams,
    clamp_probability,
    erdos_renyi_codec,
    polya_urn_codec,
    pu_sequence_codec,
    string_codec,
    with_attributes,
)
from shufflecodec.shuffle import ShuffleCodec, graph_class

from conftest import random_message
from oracles import (
    assert_graph_layout,
    assert_pairs_shared,
    pop_exact_one,
    urn_block_start,
    urn_block_starts,
    urn_locate,
    urn_subrange,
)


class TestStringCodec:
    def test_zero_length_free(self):
        m = message_init()
        codec = string_codec([1, 1], 0)
        before = m.length_bits
        codec.encode(m, ())
        assert m.length_bits == before
        assert codec.decode(m) == ()

    def test_uniform_256_four_chars(self):
        m = message_init()
        codec = string_codec([1] * 256, 4)
        before = m.length_bits
        codec.encode(m, (65, 0, 255, 17))
        assert abs((m.length_bits - before) - 32) <= 0.5
        assert codec.decode(m) == (65, 0, 255, 17)

    def test_entropy_rate(self, rng):
        codec = string_codec([3, 1], 10_000)
        s = tuple(0 if rng.random() < 0.75 else 1 for _ in range(10_000))
        m = message_init()
        before = m.length_bits
        codec.encode(m, s)
        expected = sum(-math.log2([0.75, 0.25][c]) for c in s)
        assert abs((m.length_bits - before) - expected) <= 0.001 * expected

    def test_wrong_length_rejected(self):
        with pytest.raises(ContractViolation):
            string_codec([1, 1], 3).encode(message_init(), (0, 1))

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ContractViolation):
            string_codec([1, 1], 1).encode(message_init(), (2,))

    @pytest.mark.parametrize("length", [2.5, True, -1, "3"])
    def test_length_must_be_a_nonnegative_int(self, length):
        # 2.5 would build a codec that can never encode, and True would act
        # as length 1.
        with pytest.raises(ParameterError):
            string_codec((1, 1), length)


class TestErdosRenyi:
    def test_fair_coin_costs_six_bits(self, rng):
        codec = erdos_renyi_codec(ErParams(4, Fraction(1, 2)))
        for edges in [[], [(0, 1)], [(0, 1), (2, 3)], [(0, 1), (0, 2), (0, 3)]]:
            m = message_init()
            before = m.length_bits
            codec.encode(m, Graph(4, edges))
            assert abs((m.length_bits - before) - 6) <= 0.01

    def test_single_edge_three_bits(self):
        codec = erdos_renyi_codec(ErParams(3, Fraction(1, 2)))
        m = message_init()
        before = m.length_bits
        codec.encode(m, Graph(3, [(0, 1)]))
        assert abs((m.length_bits - before) - 3) <= 0.01

    def test_aggregate_rate_g8(self, rng):
        codec = erdos_renyi_codec(ErParams(8, Fraction(3, 10)))
        m = message_init()
        graphs = [sample_er_graph(rng, 8, 0.3) for _ in range(1000)]
        before = m.length_bits
        expected = 0.0
        for g in graphs:
            codec.encode(m, g)
            e = g.num_edges
            expected += -e * math.log2(0.3) - (28 - e) * math.log2(0.7)
        added = m.length_bits - before
        assert abs(added - expected) <= 0.002 * expected
        # 10^3 * 28 * H(0.3) is about 24672 bits
        assert abs(expected - 24672) < 400

    def test_round_trip_with_attributes(self, rng):
        codec = with_attributes(
            erdos_renyi_codec(ErParams(6, Fraction(2, 5))),
            vertex_attr_ps=(3, 1),
            edge_attr_ps=(1, 1, 2),
        )
        for _ in range(50):
            g = sample_er_graph(rng, 6, 0.4, vertex_alphabet=2, edge_alphabet=3)
            m = random_message(seed=3, tail_words=8)
            snapshot = m.copy()
            codec.encode(m, g)
            out = codec.decode(m)
            assert out == g
            assert_graph_layout(out)
            assert m == snapshot

    def test_round_trip_with_self_loops(self, rng):
        params = ErParams(5, Fraction(1, 3), self_loops=True)
        codec = erdos_renyi_codec(params)
        for _ in range(50):
            g = sample_er_graph(rng, 5, 0.3, self_loops=True)
            m = random_message(seed=4, tail_words=8)
            codec.encode(m, g)
            out = codec.decode(m)
            assert out == g
            assert_graph_layout(out)

    def test_exchangeable_exact(self, rng):
        codec = with_attributes(
            erdos_renyi_codec(ErParams(7, Fraction(1, 4))), vertex_attr_ps=(2, 1, 1)
        )
        for _ in range(100):
            g = sample_er_graph(rng, 7, 0.25, vertex_alphabet=3)
            s = tuple(rng.sample(range(7), 7))
            assert codec.prob(g) == codec.prob(apply_perm(s, g))

    def test_probabilities_sum_to_one_n3(self):
        from itertools import combinations

        codec = erdos_renyi_codec(ErParams(3, Fraction(1, 2)))
        pairs = list(combinations(range(3), 2))
        total = Fraction(0)
        for bits in range(8):
            g = Graph(3, [e for k, e in enumerate(pairs) if bits >> k & 1])
            total += codec.prob(g)
        assert total == 1

    def test_self_loop_rejected_without_loops(self):
        codec = erdos_renyi_codec(ErParams(3, Fraction(1, 2)))
        g = Graph(3, [(0, 0), (0, 1)])
        m = message_init()
        with pytest.raises(ContractViolation, match="self-loops"):
            codec.encode(m, g)
        assert m == message_init()

    def test_prob_zero_for_graphs_refused(self):
        # A self-loop lies outside the pairs of a loop-free model: encode
        # refuses the graph, so prob must give it nothing.
        codec = erdos_renyi_codec(ErParams(3, Fraction(1, 2)))
        assert codec.prob(Graph(3, [(0, 1)])) == Fraction(1, 8)
        g = Graph(3, [(0, 0), (0, 1)])
        assert codec.prob(g) == 0
        attributed = Graph(3, g.edges, vertex_attrs=[0, 1, 0])
        assert with_attributes(codec, (1, 1)).prob(attributed) == 0

    def test_vertex_count_mismatch(self):
        codec = erdos_renyi_codec(ErParams(4, Fraction(1, 2)))
        with pytest.raises(ContractViolation):
            codec.encode(message_init(), Graph(5))

    def test_probability_clamping(self):
        assert 0 < clamp_probability(0) < 1
        assert 0 < clamp_probability(1) < 1
        p = ErParams(4, Fraction(0)).edge_p
        assert 0 < p < 1
        # Only p in [0, 1] is clamped; anything else is refused, not coded as
        # the nearest clamp bound.
        for bad in (1.5, -3, Fraction(-1, 1 << 30), 1 + Fraction(1, 1 << 30)):
            with pytest.raises(ParameterError):
                clamp_probability(bad)
            with pytest.raises(ParameterError):
                ErParams(4, bad)


# Edge probabilities of the block tests: the clamp floor and ceiling, a float
# whose denominator exceeds 2**32 (rounded to the 2**-32 grid), and two exact
# fractions.
BLOCK_PS = [
    Fraction(1, 1 << 20),
    1 - Fraction(1, 1 << 20),
    0.3,
    Fraction(3, 10),
    Fraction(1, 2),
]


class TestErBlocks:
    """Vertex pairs coded eight per block symbol, the last N mod 8 pairs as
    one more symbol. n = 0..20 with and without self-loops covers every
    residue N mod 8, 0 included."""

    @pytest.mark.parametrize("p", BLOCK_PS)
    @pytest.mark.parametrize("loops", [False, True])
    def test_round_trip_every_residue(self, p, loops):
        rng = random.Random(17)
        residues = set()
        for n in range(21):
            params = ErParams(n, p, loops)
            codec = erdos_renyi_codec(params)
            residues.add(pair_count(n, loops) % 8)
            for t in range(4):
                q = float(params.edge_p) if t < 2 else (0.0, 1.0)[t - 2]
                g = sample_er_graph(rng, n, q, self_loops=loops)
                m = random_message(seed=n, tail_words=4)
                snapshot = m.copy()
                codec.encode(m, g)
                out = codec.decode(m)
                assert out == g
                assert_graph_layout(out)
                assert m == snapshot
        assert residues == set(range(8))

    @pytest.mark.parametrize("p", BLOCK_PS)
    @pytest.mark.parametrize("loops", [False, True])
    def test_coded_bits_track_prob(self, p, loops):
        # Summed over graphs drawn from the model: block rounding and the
        # rANS steps together cost under 1e-6 bits per pair.
        rng = random.Random(23)
        coded = exact = pairs = 0.0
        for n in range(21):
            params = ErParams(n, p, loops)
            codec = erdos_renyi_codec(params)
            for t in range(5):
                g = sample_er_graph(rng, n, float(params.edge_p), self_loops=loops)
                m = random_message(seed=t, tail_words=4)
                before = m.length_bits
                codec.encode(m, g)
                coded += m.length_bits - before
                prob = codec.prob(g)
                exact -= math.log2(prob.numerator) - math.log2(prob.denominator)
                pairs += pair_count(n, loops)
        assert abs(coded - exact) <= 1e-6 * pairs

    @pytest.mark.parametrize(
        "g",
        [
            Graph(5, [(1, 1), (0, 3)]),
            Graph(6, [(0, 1)]),
            Graph(5, [(0, 1)], vertex_attrs=[0, 1, 0, 0, 1]),
        ],
        ids=["loop-under-loop-free-params", "wrong-n", "attributed"],
    )
    def test_refused_graphs_leave_the_message_unchanged(self, g):
        codec = erdos_renyi_codec(ErParams(5, Fraction(3, 10)))
        m = random_message(seed=9, tail_words=4)
        snapshot = m.copy()
        with pytest.raises(ContractViolation):
            codec.encode(m, g)
        assert m == snapshot
        assert m.pad_consumed == snapshot.pad_consumed

    def test_ordered_bytes_pinned(self):
        # Seeded graphs on 0..40 vertices, with and without self-loops, at
        # each block-test probability, coded into one message: the bytes of
        # the blocks of eight pairs and of the last N mod 8 pairs, as
        # versions 14 and 15 write them.
        rng = random.Random(2408)
        m = message_init()
        graphs = []
        for loops in (False, True):
            for p in BLOCK_PS:
                for n in range(0, 41, 3):
                    params = ErParams(n, p, loops)
                    codec = erdos_renyi_codec(params)
                    q = max(float(params.edge_p), 0.05)
                    g = sample_er_graph(rng, n, q, self_loops=loops)
                    codec.encode(m, g)
                    graphs.append((codec, g))
        data = message_serialize(m)
        assert len(data) == 3400
        assert hashlib.sha256(data[6:]).hexdigest() == (
            "ceacb349f5ab13190a3a5691c3fd9a9262170ae87443a184a800f43db3e2def1"
        )
        for codec, g in reversed(graphs):
            assert codec.decode(m) == g

    @pytest.mark.parametrize("loops", [False, True])
    def test_complete_graphs_round_trip(self, loops):
        # Every bit of every block set: decode walks each row to its end.
        for n in range(41):
            codec = erdos_renyi_codec(ErParams(n, Fraction(9, 10), loops))
            g = Graph(n, graph_pairs(n, loops))
            m = random_message(seed=n, tail_words=4)
            snapshot = m.copy()
            codec.encode(m, g)
            out = codec.decode(m)
            assert out == g
            assert_graph_layout(out)
            assert m == snapshot

    @pytest.mark.parametrize("loops", [False, True])
    def test_decoded_graphs_share_their_pairs(self, loops):
        # Two decodes, and a graph built by the constructor, hold each pair
        # they have in common as one object.
        rng = random.Random(35)
        for n in (5, 20, 40):
            codec = erdos_renyi_codec(ErParams(n, Fraction(1, 3), loops))
            g, h = (sample_er_graph(rng, n, 0.3, self_loops=loops) for _ in range(2))
            m = random_message(seed=n, tail_words=4)
            codec.encode(m, g)
            codec.encode(m, h)
            decoded_h, decoded_g = codec.decode(m), codec.decode(m)
            assert (decoded_g, decoded_h) == (g, h)
            assert_pairs_shared(decoded_g, decoded_h)
            assert_pairs_shared(decoded_g, Graph(n, graph_pairs(n, loops)))

    def test_building_keeps_no_pair_list(self):
        # G(2000, 1/500) has 1 999 000 pairs; a list of them takes over
        # 100 MB.
        erdos_renyi_codec(ErParams(2000, Fraction(1, 500)))  # tables cached
        tracemalloc.start()
        try:
            codec = erdos_renyi_codec(ErParams(2000, Fraction(1, 500)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert codec.prob(Graph(2000, [(0, 1), (1, 1)])) == 0

    @pytest.mark.parametrize("p", BLOCK_PS)
    def test_every_block_mass_positive(self, p):
        p = clamp_probability(p)
        for size in range(1, 9):
            table = ans.bernoulli_block_table(p, size)
            assert len(table.masses) == 1 << size
            assert min(table.masses) > 0
            assert table.precision == 32 and sum(table.masses) == 1 << 32
            assert ans.bernoulli_block_table(p, size) is table
        for size in (0, 9, 8.0, True):
            with pytest.raises(ParameterError):
                ans.bernoulli_block_table(p, size)


URN_SETTINGS = [(False, False), (True, False), (False, True), (True, True)]

# Hand-picked sequences on 7 vertices: repeats where redraws are allowed,
# self-loops (including repeated ones) where loops are.
_FIXED_SEQUENCES = {
    (False, False): ((0, 1), (1, 2), (1, 3), (0, 4), (2, 4), (3, 4), (0, 2), (5, 6)),
    (True, False): ((0, 1), (0, 1), (1, 2), (0, 1), (2, 3), (1, 3), (5, 6)),
    (False, True): ((0, 0), (0, 1), (1, 1), (1, 2), (0, 2), (6, 6)),
    (True, True): ((0, 0), (0, 0), (0, 1), (2, 2), (0, 1), (6, 6)),
}


class TestAttributeLayer:
    def test_probabilities_sum_to_one_n3(self):
        from itertools import combinations, product

        # Count weights, and the uniform weights of `--attrs uniform`.
        for v_ps, e_ps in (((3, 1), (1, 2)), ((1, 1), (1, 1))):
            codec = with_attributes(erdos_renyi_codec(ErParams(3, Fraction(1, 3))), v_ps, e_ps)
            pairs = list(combinations(range(3), 2))
            total = Fraction(0)
            for bits in range(8):
                edges = [e for k, e in enumerate(pairs) if bits >> k & 1]
                for vattrs in product(range(2), repeat=3):
                    for eattrs in product(range(2), repeat=len(edges)):
                        g = Graph(3, edges, vattrs, dict(zip(edges, eattrs)))
                        total += codec.prob(g)
            assert total == 1

    def test_prob_matches_coded_bits(self, rng):
        codec = with_attributes(
            erdos_renyi_codec(ErParams(6, Fraction(2, 5))), (3, 1), (1, 1, 2)
        )
        for _ in range(20):
            g = sample_er_graph(rng, 6, 0.4, vertex_alphabet=2, edge_alphabet=3)
            m = random_message(seed=5, tail_words=8)
            before = m.length_bits
            codec.encode(m, g)
            bits = m.length_bits - before
            assert abs(bits + math.log2(codec.prob(g))) <= 0.01

    def test_prob_only_over_a_base_with_prob(self):
        urn = with_attributes(polya_urn_codec(PuParams(3)), (1, 1))
        assert urn.prob is None

    def test_plain_codecs_reject_attributes(self):
        g = Graph(3, [(0, 1)], vertex_attrs=[0, 1, 0])
        for codec in (
            erdos_renyi_codec(ErParams(3, Fraction(1, 2))),
            polya_urn_codec(PuParams(3)),
        ):
            with pytest.raises(ContractViolation):
                codec.encode(message_init(), g)

    @pytest.mark.parametrize("tail_words", [0, 6])
    @pytest.mark.parametrize(
        "base,g",
        [
            # Vertex attribute 1 has zero mass: refused after the edge
            # attribute run is pushed.
            (
                erdos_renyi_codec(ErParams(2, Fraction(1, 2))),
                Graph(2, [(0, 1)], (1, 0), {(0, 1): 1}),
            ),
            # A self-loop the urn's params exclude: refused by the base,
            # after both attribute runs are pushed.
            (polya_urn_codec(PuParams(3)), Graph(3, [(0, 0)], (0, 0, 0), {(0, 0): 1})),
        ],
        ids=["zero-mass-vertex-attr", "urn-self-loop"],
    )
    def test_refused_encode_leaves_the_message_unchanged(self, base, g, tail_words):
        # Alone and under ShuffleCodec, whose refusal path pushes the
        # ordering back and so needs the ordered codec to leave the message
        # as it found it; with no stack words the bits-back pop draws pad.
        codec = with_attributes(base, (1, 0), (1, 1))
        for coder in (codec, ShuffleCodec(codec, graph_class())):
            m = random_message(seed=12, tail_words=tail_words)
            snapshot = m.copy()
            with pytest.raises(ContractViolation):
                coder.encode(m, g)
            assert m == snapshot
            assert m.pad_consumed == snapshot.pad_consumed

    def test_non_graph_refused(self):
        codec = with_attributes(erdos_renyi_codec(ErParams(2, Fraction(1, 2))), (1, 1))
        for obj in (((0, 1),), None, "graph"):
            m = random_message(seed=3, tail_words=4)
            snapshot = m.copy()
            with pytest.raises(ContractViolation, match="expected a graph"):
                codec.encode(m, obj)
            assert m == snapshot

    def test_presence_mismatch_rejected(self):
        codec = with_attributes(erdos_renyi_codec(ErParams(3, Fraction(1, 2))), (1, 1))
        with pytest.raises(ContractViolation):
            codec.encode(message_init(), Graph(3, [(0, 1)]))
        with pytest.raises(ContractViolation):
            codec.encode(
                message_init(), Graph(3, [(0, 1)], [0, 0, 0], {(0, 1): 0})
            )


def _eligible_pairs(n, drawn, redraws, loops):
    return [
        (i, j)
        for i in range(n)
        for j in range(i if loops else i + 1, n)
        if redraws or (i, j) not in drawn
    ]


class _Index:
    """An int stand-in that converts only through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _random_urn_sequence(rng, n, length, redraws, loops):
    drawn = set()
    seq = []
    for _ in range(length):
        pair = rng.choice(_eligible_pairs(n, drawn, redraws, loops))
        drawn.add(pair)
        seq.append(pair)
    return tuple(seq)


def _urn_sequence_prob(params, seq):
    """Exact urn probability of an edge sequence: each pair with mass
    w_i * w_j (w = degree + 1) over the masses of all eligible pairs."""
    w = [1] * params.n
    drawn = set()
    p = Fraction(1)
    for i, j in seq:
        eligible = _eligible_pairs(
            params.n, drawn, params.allow_redraws, params.allow_self_loops
        )
        p *= Fraction(w[i] * w[j], sum(w[a] * w[b] for a, b in eligible))
        drawn.add((i, j))
        w[i] += 1
        w[j] += 1
    return p


class TestPolyaUrn:
    def test_empty_graph(self):
        # No edge to code: only the edge count 0, one of 0..6 on 4 vertices.
        codec = polya_urn_codec(PuParams(4))
        m = message_init()
        before = m.length_bits
        codec.encode(m, Graph(4))
        assert abs((m.length_bits - before) - math.log2(7)) <= 1e-4
        assert codec.decode(m) == Graph(4)

    def test_single_edge_net_rate_log2_3(self):
        # log2 3 for the edge among 3 pairs, log2 4 for its count in 0..3.
        codec = polya_urn_codec(PuParams(3))
        m = random_message(seed=9, tail_words=32)
        before = m.length_bits
        codec.encode(m, Graph(3, [(0, 2)]))
        assert abs((m.length_bits - before) - math.log2(12)) <= 0.01

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_one_codec_codes_every_edge_count(self, redraws, loops):
        # Graphs on 5 vertices with 0 to N edges go through one urn codec;
        # decode pops the edge count first, one uniform symbol over 0..N.
        n = 5
        size = pair_count(n, loops) + 1
        codec = polya_urn_codec(PuParams(n, redraws, loops))
        pairs = list(graph_pairs(n, loops))
        rng = random.Random(f"urn-counts:{redraws}:{loops}")
        graphs = [Graph(n, rng.sample(pairs, k)) for k in range(size)]
        m = random_message(seed=8, tail_words=32)
        snapshot = m.copy()
        for g in graphs:
            codec.encode(m, g)
        for g in reversed(graphs):
            assert pop_uniforms(m.copy(), (size,)) == [g.num_edges]
            assert codec.decode(m) == g
        assert m == snapshot

    def test_a_pair_drawn_twice_is_one_edge(self):
        # Under redraws a message can hold a sequence that draws a pair
        # twice; the decoded graph has that pair once.
        params = PuParams(3, allow_redraws=True)
        m = message_init()
        pu_sequence_codec(params, 3).encode(m, ((0, 1), (1, 2), (0, 1)))
        push_uniforms(m, [3], (pair_count(3) + 1,))
        g = polya_urn_codec(params).decode(m)
        assert g == Graph(3, [(1, 2), (0, 1)])
        assert_graph_layout(g)

    def test_decoding_without_edges_lists_no_partners(self):
        # Partner lists are made at a vertex's first draw: an urn on 10**6
        # vertices that draws nothing holds four lists of 10**6 pointers,
        # 32 MB. Two of them as lists of 10**6 empty lists took 145 MB.
        decode = pu_sequence_codec(PuParams(10**6), 0).decode
        tracemalloc.start()
        try:
            assert decode(message_init()) == ()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 10**6

    def test_too_many_pairs_to_count_refused(self):
        # 2**25 vertices have about 2**49 pairs: the edge count's uniform
        # symbol would exceed the coder's 2**48 total, so the codec is
        # refused when built, before any graph is coded.
        with pytest.raises(ParameterError):
            polya_urn_codec(PuParams(1 << 25))

    def test_sequence_of_the_wrong_length_refused(self):
        codec = pu_sequence_codec(PuParams(4), 2)
        for seq in ((), ((0, 1),), ((0, 1), (0, 2), (0, 3))):
            m = random_message(seed=4, tail_words=8)
            snapshot = m.copy()
            with pytest.raises(ContractViolation, match="sequence length"):
                codec.encode(m, seq)
            assert m == snapshot

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_round_trips(self, rng, redraws, loops):
        for _ in range(250):
            n = rng.randint(2, 8)
            g = sample_er_graph(rng, n, 0.4, self_loops=loops)
            params = PuParams(n, allow_redraws=redraws, allow_self_loops=loops)
            codec = polya_urn_codec(params)
            m = random_message(seed=n, tail_words=64)
            snapshot = m.copy()
            codec.encode(m, g)
            out = codec.decode(m)
            assert out == g
            assert_graph_layout(out)
            assert m == snapshot

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_any_message_decodes_to_a_valid_graph(self, redraws, loops):
        # polya_urn_codec.decode skips the Graph checks: every decoded pair
        # must be eligible whatever the message holds.
        rng = random.Random(23)
        for seed in range(60):
            n = rng.randint(1, 7)
            params = PuParams(n, redraws, loops)
            g = polya_urn_codec(params).decode(random_message(seed, rng.randint(0, 8)))
            assert g == Graph(n, g.edges)
            assert_graph_layout(g)
            assert loops or all(i != j for i, j in g.edges)

    def test_sequence_codec_tracks_urn_state(self, rng):
        codec = pu_sequence_codec(PuParams(5), 4)
        seq = ((0, 1), (1, 2), (1, 3), (0, 4))
        m = random_message(seed=6, tail_words=32)
        snapshot = m.copy()
        codec.encode(m, seq)
        assert codec.decode(m) == seq
        assert m == snapshot

    def test_ineligible_pair_rejected(self):
        codec = pu_sequence_codec(PuParams(3), 2)
        with pytest.raises(ContractViolation):
            codec.encode(message_init(), ((0, 1), (0, 1)))

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_sequence_rate_is_exact_urn_probability(self, redraws, loops):
        rng = random.Random(17)
        n = 7
        seqs = [_FIXED_SEQUENCES[redraws, loops]]
        seqs += [_random_urn_sequence(rng, n, 12, redraws, loops) for _ in range(6)]
        for seq in seqs:
            params = PuParams(n, allow_redraws=redraws, allow_self_loops=loops)
            codec = pu_sequence_codec(params, len(seq))
            m = random_message(seed=len(seq), tail_words=64)
            snapshot = m.copy()
            before = m.length_bits
            codec.encode(m, seq)
            bits = m.length_bits - before
            exact = -math.log2(_urn_sequence_prob(params, seq))
            assert abs(bits - exact) <= 1e-3 * len(seq)
            assert codec.decode(m) == seq
            assert m == snapshot

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_bad_pairs_rejected_message_unchanged(self, redraws, loops):
        bad = [((2, 1),), ((0, 4),), ((-1, 2),), ((4, 4),), ((0, 1, 2),), ((0.5, 2),)]
        if not loops:
            bad.append(((1, 1),))
        if not redraws:
            bad.append(((0, 1), (0, 1)))
        for seq in bad:
            params = PuParams(4, allow_redraws=redraws, allow_self_loops=loops)
            m = random_message(seed=5, tail_words=16)
            snapshot = m.copy()
            with pytest.raises(ContractViolation):
                pu_sequence_codec(params, len(seq)).encode(m, seq)
            assert m == snapshot

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_exhausted_urn_is_contract_violation(self, redraws, loops):
        # Without redraws pu_sequence_codec already refuses more edges than
        # pairs.
        n = 0 if loops else 1
        if not redraws:
            with pytest.raises(ParameterError):
                pu_sequence_codec(PuParams(n, allow_self_loops=loops), 1)
            return
        codec = pu_sequence_codec(PuParams(n, True, loops), 1)
        m = random_message(seed=2, tail_words=4)
        snapshot = m.copy()
        with pytest.raises(ContractViolation):
            codec.encode(m, ((0, 0),))
        assert m == snapshot
        with pytest.raises(ContractViolation):
            codec.decode(m)

    @pytest.mark.parametrize("redraws", [False, True])
    def test_corpus_without_quantized_tables(self, monkeypatch, redraws):
        # Each urn draw is one exact-mass symbol: no table and no
        # quantize_masses call on either side of a PU corpus round trip.
        def refuse(*args, **kwargs):
            raise AssertionError("quantized table built")

        rng = random.Random(41)
        graphs = tuple(sample_pa_graph(rng, rng.randint(2, 16), 2) for _ in range(12))
        monkeypatch.setattr(ans, "quantize_masses", refuse)
        monkeypatch.setattr(models, "table_for", refuse)
        data, _ = compress_corpus(
            Corpus(graphs, "pa", False, False), model="pu", redraws=redraws
        )
        out = decompress_corpus(data)
        assert sorted(canonize(g).canon_graph.key() for g in out.graphs) == sorted(
            canonize(g).canon_graph.key() for g in graphs
        )

    def test_edge_count_cap_validated(self):
        # The cap is the sequence codec's: 3 pairs on 3 vertices, 6 with
        # loops, and none with redraws.
        with pytest.raises(ParameterError):
            pu_sequence_codec(PuParams(3), 4)
        with pytest.raises(ParameterError):
            pu_sequence_codec(PuParams(3, allow_self_loops=True), 7)
        pu_sequence_codec(PuParams(3, allow_self_loops=True), 6)
        pu_sequence_codec(PuParams(3, allow_redraws=True), 4)

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_block_starts_match_running_totals(self, redraws, loops):
        # After every draw, each closed-form block start C_k (running totals
        # and sums below k) equals the oracle's start from one pass over all
        # vertices, and T equals C_n.
        rng = random.Random(f"urn-totals:{redraws}:{loops}")
        for _ in range(50):
            n = rng.randint(0, 12)
            cap = pair_count(n, loops)
            length = rng.randint(0, 20 if redraws and cap else cap)
            seq = _random_urn_sequence(rng, n, length, redraws, loops)
            urn = models._Urn(PuParams(n, redraws, loops))
            for pair in (*seq, None):
                starts = urn_block_starts(urn)
                assert [urn_block_start(urn, k) for k in range(n + 1)] == starts
                assert urn.total == starts[-1]
                if pair is not None:
                    urn.draw(*pair)

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_locate_matches_the_block_start_oracle(self, redraws, loops):
        # After every draw, decode locates each target t in [0, T) as the
        # oracle does, by bisection over all n + 1 block starts. The message
        # holds (t, 1, T) under the encoded prefix: decoding one pair more
        # than the prefix gives the oracle's pair and leaves the message that
        # popping the oracle's subrange leaves.
        rng = random.Random(f"urn-locate:{redraws}:{loops}")
        targets = 0
        for _ in range(60):
            n = rng.randint(1, 9)
            cap = pair_count(n, loops)
            length = rng.randint(0, 12 if redraws and cap else cap)
            seq = _random_urn_sequence(rng, n, length, redraws, loops)
            params = PuParams(n, redraws, loops)
            urn = models._Urn(params)
            for k in range(len(seq) + 1):
                total = urn.total
                if total:
                    prefix = pu_sequence_codec(params, k)
                    longer = pu_sequence_codec(params, k + 1)
                    # Both ends of every pair's subrange, and a few targets
                    # inside them.
                    ends = set(rng.sample(range(total), min(total, 8)))
                    for i in range(n):
                        for j in range(i, n):
                            try:
                                start, mass = urn_subrange(urn, i, j)
                            except ContractViolation:
                                continue
                            ends.update((start, start + mass - 1))
                    for t in sorted(ends):
                        m = random_message(t % 5, 2)
                        push_exact(m, [(t, 1, total)])
                        expected = m.copy()
                        pair = pop_exact_one(expected, total, lambda t: urn_locate(urn, t))
                        prefix.encode(m, seq[:k])
                        assert longer.decode(m) == (*seq[:k], pair)
                        assert m == expected
                    targets += len(ends)
                if k < len(seq):
                    urn.draw(*seq[k])
        assert targets > 5_000

    @pytest.mark.parametrize("redraws,loops", URN_SETTINGS)
    def test_locate_refuses_targets_outside_the_total(self, redraws, loops):
        # Targets run over [0, T): target 0 decodes to the oracle's first
        # pair and T - 1 to its last, whose partner is n - 1, on a fresh urn
        # and after draws. An urn with no pair left has no target: decoding
        # from it is refused.
        n = 5
        params = PuParams(n, redraws, loops)
        urn = models._Urn(params)
        seq = ((0, 1), (1, 2))
        for k in range(len(seq) + 1):
            total = urn.total
            for t in (0, total - 1):
                m = random_message(t, 2)
                push_exact(m, [(t, 1, total)])
                pu_sequence_codec(params, k).encode(m, seq[:k])
                pair = pu_sequence_codec(params, k + 1).decode(m)[-1]
                assert pair == urn_locate(urn, t)[0]
            assert pair[1] == n - 1
            if k < len(seq):
                urn.draw(*seq[k])
        empty = PuParams(0 if loops else 1, True, loops)
        assert models._Urn(empty).total == 0
        with pytest.raises(ContractViolation, match="no eligible pairs"):
            pu_sequence_codec(empty, 1).decode(random_message(1, 2))

    def test_coder_loops_match_the_subrange_oracle(self):
        # 500 seeded sequences on 1 to 40 vertices, with and without redraws
        # and self-loops: encode leaves the message of one push_exact run
        # over the oracle's subranges and the urn's draws, and decode gives
        # the sequence back. Each refused sequence leaves the message as it
        # was.
        rng = random.Random("urn-loops")
        for k in range(500):
            redraws, loops = URN_SETTINGS[k % 4]
            n = rng.randint(1, 40)
            cap = pair_count(n, loops)
            length = rng.randint(0, (30 if cap else 0) if redraws else min(cap, 30))
            seq = _random_urn_sequence(rng, n, length, redraws, loops)
            params = PuParams(n, redraws, loops)
            urn = models._Urn(params)
            plan = []
            for pair in seq:
                plan.append((*urn_subrange(urn, *pair), urn.total))
                urn.draw(*pair)
            m = random_message(k, rng.randint(0, 4))
            before, expected = m.copy(), m.copy()
            push_exact(expected, plan)
            codec = pu_sequence_codec(params, length)
            codec.encode(m, seq)
            assert m == expected
            assert codec.decode(m) == seq
            assert m == before
            # Values that are not ints code as the ints their __index__ gives.
            mixed = [(_Index(i), j) if k % 2 else [i, _Index(j)] for k, (i, j) in enumerate(seq)]
            codec.encode(m, mixed)
            assert m == expected
            assert codec.decode(m) == seq
            if not seq:
                continue
            x = rng.randrange(len(seq))
            bad = [(0, n), (-1, 0), (0.0, 1), ("a", 1), (0,), None, (1, 0) if n > 1 else (0, n)]
            wrongs = [(*seq[:x], pair, *seq[x + 1 :]) for pair in bad]
            if not redraws and x:
                wrongs.append((*seq[:x], seq[0], *seq[x + 1 :]))  # a repeated pair
            for wrong in wrongs:
                with pytest.raises(ContractViolation):
                    codec.encode(m, wrong)
                assert m == before
            with pytest.raises(ContractViolation, match="sequence length"):
                codec.encode(m, seq[1:])
            assert m == before
        m = random_message(2, 2)
        with pytest.raises(ContractViolation, match="no eligible pairs"):
            pu_sequence_codec(PuParams(1, True), 1).encode(m, ((0, 0),))
        assert m == random_message(2, 2)

    def test_long_sequence_bytes_pinned(self):
        # One 300-vertex preferential-attachment edge sequence, large enough
        # that the block starts run over many vertices, as versions 11 to 15
        # write it.
        g = sample_pa_graph(random.Random(300), 300, 2)
        seq = tuple(sorted(g.edges))
        codec = pu_sequence_codec(PuParams(g.n), len(seq))
        m = message_init()
        codec.encode(m, seq)
        data = message_serialize(m)
        assert data[:6] == b"SHUF\x0f\x00"
        assert len(data) == 1154
        assert hashlib.sha256(data[6:]).hexdigest() == (
            "50b32c6ec13fbdcd9e9fd75084a51449ac6edf800ea77901c45fc6276254e0fa"
        )
        assert codec.decode(m) == seq

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ErParams(-2, Fraction(1, 2)),
            lambda: ErParams(2.0, Fraction(1, 2)),
            lambda: ErParams(True, Fraction(1, 2)),
            lambda: PuParams(-1),
            lambda: PuParams(2.0),
            lambda: pu_sequence_codec(PuParams(3), 1.5),
            lambda: pu_sequence_codec(PuParams(3), True),
            lambda: pu_sequence_codec(PuParams(3), -1),
        ],
    )
    def test_counts_must_be_nonnegative_ints(self, make):
        # The rule Graph applies to its vertex count: a float or a bool equal
        # to an int is refused, not coded as that int.
        with pytest.raises(ParameterError):
            make()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ErParams(3, Fraction(1, 2), self_loops="no"),
            lambda: ErParams(3, Fraction(1, 2), self_loops=1),
            lambda: PuParams(3, allow_redraws="no"),
            lambda: PuParams(3, allow_redraws=0),
            lambda: PuParams(3, allow_self_loops="no"),
            lambda: PuParams(3, allow_self_loops=None),
        ],
    )
    def test_flags_must_be_bools(self, make):
        # A truthy string such as "no" would turn the option on.
        with pytest.raises(ParameterError):
            make()

    def test_pu_beats_er_on_preferential_corpus(self, rng):
        # Directional: same graphs, net rates under PU vs ER with matched
        # empirical parameters. ER's matched p comes free, so the urn's
        # edge count, log2(N + 1) bits per graph, is left out of its side.
        graphs = [sample_pa_graph(rng, 30, attachment=2) for _ in range(30)]
        pu_bits = er_bits = 0.0
        for g in graphs:
            m = random_message(seed=1, tail_words=512)
            before = m.length_bits
            polya_urn_codec(PuParams(g.n)).encode(m, g)
            pu_bits += m.length_bits - before - math.log2(pair_count(g.n, False) + 1)

            pairs = g.n * (g.n - 1) // 2
            p = clamp_probability(Fraction(g.num_edges, pairs))
            m = random_message(seed=2, tail_words=512)
            before = m.length_bits
            erdos_renyi_codec(ErParams(g.n, p)).encode(m, g)
            er_bits += m.length_bits - before
        assert pu_bits < er_bits

    def test_no_redraws_not_worse(self, rng):
        graphs = [sample_pa_graph(rng, 20, attachment=2) for _ in range(20)]
        strict = loose = 0.0
        for g in graphs:
            for redraws, acc in ((False, "strict"), (True, "loose")):
                m = random_message(seed=3, tail_words=512)
                before = m.length_bits
                codec = polya_urn_codec(PuParams(g.n, allow_redraws=redraws))
                codec.encode(m, g)
                bits = m.length_bits - before
                if redraws:
                    loose += bits
                else:
                    strict += bits
        assert strict <= loose


def _urn_order_probs(n):
    """The probability of every edge order of K_n under the urn without
    redraws and with m = N edges, so that the graph itself is certain: the
    product of _Urn's own subrange masses over its totals, as Fractions."""
    params = PuParams(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    probs = {}
    for seq in permutations(pairs):
        urn = models._Urn(params)
        p = Fraction(1)
        for pair in seq:
            total = urn.total
            p *= Fraction(urn_subrange(urn, *pair)[1], total)
            urn.draw(*pair)
        probs[seq] = p
    return params, probs


class TestUrnOrderGap:
    """Without redraws the urn is not edge-exchangeable: the inner shuffle
    codes a uniformly popped edge order, whose expected cost
    E[-log2 P(seq)] - log2 m! exceeds -log2 P(graph) by a Jensen gap. On a
    complete graph P(graph) = 1, so the gap is the whole expected rate."""

    def test_k3_orders_are_equally_likely(self):
        _, probs = _urn_order_probs(3)
        assert len(probs) == 6
        assert set(probs.values()) == {Fraction(1, 6)}

    def test_k4_gap_pinned(self):
        params, probs = _urn_order_probs(4)
        assert len(probs) == 720
        assert sum(probs.values()) == 1
        assert len(set(probs.values())) == 6
        assert all(p == _urn_sequence_prob(params, seq) for seq, p in probs.items())
        log_orders = math.log2(720)
        costs = [-math.log2(p) - log_orders for p in probs.values()]
        assert abs(sum(costs) / 720 - 0.11358720) <= 1e-8
        assert abs(min(costs) - -0.6925715) <= 1e-7
        assert abs(max(costs) - 1.2630344) <= 1e-7

    def test_k4_message_growth_is_minus_log2_p(self):
        params, probs = _urn_order_probs(4)
        codec = pu_sequence_codec(params, pair_count(4, False))
        for k, (seq, p) in enumerate(probs.items()):
            m = random_message(seed=k % 7, tail_words=16)
            before = m.length_bits
            codec.encode(m, seq)
            assert abs(m.length_bits - before + math.log2(p)) <= 1e-4
