import ast
import hashlib
import inspect
import math
import pathlib
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shufflecodec
from shufflecodec import canon, perm_codecs, perms, shuffle
from shufflecodec.ans import (
    HEAD_MIN,
    Codec,
    CodecError,
    ContractViolation,
    Message,
    MessageUnderflow,
    message_init,
    message_serialize,
)
from shufflecodec.canon import canonize, canonize_string
from shufflecodec.generate import sample_er_graph
from shufflecodec.graphs import Graph, apply_perm
from shufflecodec.models import (
    ErParams,
    PuParams,
    erdos_renyi_codec,
    polya_urn_codec,
    string_codec,
    with_attributes,
)
from shufflecodec.perm_codecs import uniform_l_coset_codec
from shufflecodec.perms import SymmetricRuns
from shufflecodec.shuffle import (
    PermutableClass,
    ShuffleCodec,
    discount_bits,
    graph_class,
    sequence_class,
)

from conftest import random_message
from oracles import (
    canon_equal,
    permutation_sequence_class,
    symmetrize_check,
    without_pad_residue,
)


def er_shuffle(n, p, vertex_attr_ps=None):
    ordered = erdos_renyi_codec(ErParams(n, p))
    if vertex_attr_ps is not None:
        ordered = with_attributes(ordered, vertex_attr_ps)
    return ShuffleCodec(ordered, graph_class())


def all_simple_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


# Molecule-style attributed graphs; attribute ids stand for atom types.
NITRIC_OXIDE = Graph(2, [(0, 1)], vertex_attrs=[0, 1])
WATER = Graph(3, [(0, 1), (0, 2)], vertex_attrs=[0, 1, 1])
HYDROGEN_PEROXIDE = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_attrs=[1, 0, 0, 1])
ETHYLENE = Graph(
    6,
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
    vertex_attrs=[0, 0, 1, 1, 1, 1],
)
BORIC_ACID = Graph(
    7,
    [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)],
    vertex_attrs=[0, 1, 1, 1, 2, 2, 2],
)


class TestDiscountBits:
    def test_molecule_table(self):
        expected = [
            (NITRIC_OXIDE, 1.00),
            (WATER, 1.58),
            (HYDROGEN_PEROXIDE, 3.58),
            (ETHYLENE, 6.49),
            (BORIC_ACID, 9.71),
        ]
        for graph, value in expected:
            assert abs(discount_bits(graph) - value) < 0.005

    def test_ethylene_components(self):
        # log2 6! = 9.49, |Aut| = 8 -> 9.49 - 3.00 = 6.49
        assert canonize(ETHYLENE).aut_order == 8
        assert abs(discount_bits(ETHYLENE) - (math.log2(720) - 3.0)) < 1e-9

    def test_fully_symmetric_zero(self):
        assert discount_bits(Graph(3)) == 0.0
        assert discount_bits(Graph(3, [(0, 1), (0, 2), (1, 2)])) == 0.0


def _graphs_with_groups(rng):
    """Graphs of up to 200 vertices whose groups have runs, block chains,
    both or neither, and seeded ER graphs."""
    yield Graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])  # asymmetric
    yield Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    yield Graph(60, [(3 * k + i, 3 * k + j) for k in range(20) for i, j in ((0, 1), (1, 2), (0, 2))])
    yield Graph(61, [(0, i) for i in range(1, 61)])
    yield Graph(8, [(0, 1), (2, 3), (4, 5)])
    for n, p in ((20, 0.05), (50, 0.04), (120, 0.01), (200, 0.005), (30, 0.5)):
        yield sample_er_graph(rng, n, p)


class TestRateReport:
    """ShuffleCodec.encode sums the discount from log-factorials and
    multiplies out no factorial; |Aut| is exact when read."""

    def test_encoding_calls_no_factorial(self, monkeypatch):
        def refuse(k):
            raise AssertionError("math.factorial called")

        xs = [0] * 10**4
        seq_codec = ShuffleCodec(string_codec([1], len(xs)), sequence_class())
        urn_codec = ShuffleCodec(polya_urn_codec(PuParams(2000)), graph_class())
        with monkeypatch.context() as patch:
            patch.setattr(math, "factorial", refuse)
            reports = [
                (seq_codec.encode(message_init(), xs), len(xs)),
                (urn_codec.encode(message_init(), Graph(2000)), 2000),
            ]
        for report, n in reports:
            assert report.discount_bits == 0.0
            assert report.aut_order == math.factorial(n)

    def test_discount_bits_match_the_exact_value(self):
        rng = random.Random(35)
        objects = [(g, er_shuffle(g.n, Fraction(1, 3))) for g in _graphs_with_groups(rng)]
        for length in (1, 5, 40, 200):
            for alphabet in (1, 3, 50, 400):
                xs = [rng.randrange(alphabet) for _ in range(length)]
                codec = ShuffleCodec(string_codec([1] * alphabet, length), sequence_class())
                objects.append((xs, codec))
        m = random_message(seed=35, tail_words=64)
        for f, codec in objects:
            report = codec.encode(m, f)
            n = len(f) if isinstance(f, list) else f.n
            exact = math.log2(math.factorial(n) // report.aut_order)
            assert abs(report.discount_bits - exact) < 1e-9
            if isinstance(f, Graph):
                assert report.aut_order == canonize(f).aut_order
                assert exact == discount_bits(f)
            else:
                assert report.aut_order == math.prod(math.factorial(f.count(v)) for v in set(f))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 200])
    def test_discount_is_zero_when_aut_is_symmetric(self, n):
        complete = [(i, j) for j in range(n) for i in range(j)]
        m = random_message(seed=n, tail_words=8)
        for g in (Graph(n), Graph(n, complete)):
            report = er_shuffle(n, Fraction(1, 2)).encode(m, g)
            assert report.discount_bits == 0.0 and report.aut_order == math.factorial(n)
        report = ShuffleCodec(string_codec([1, 1], n), sequence_class()).encode(m, [1] * n)
        assert report.discount_bits == 0.0 and report.aut_order == math.factorial(n)


def _discrete(g: Graph) -> bool:
    """Whether g's first refinement is discrete: canonize's trivial case."""
    base = max(g.edge_attrs, default=0) + 1 if g.edge_attrs else 1
    return len(set(canon._refine(g, canon._initial_colors(g), base))) == g.n


class TestSharedTrivialGroup:
    def test_the_trivial_group_has_one_codec_per_degree(self):
        for n in range(21):
            shared = uniform_l_coset_codec(perms.trivial_group(n))
            assert uniform_l_coset_codec(SymmetricRuns(n, ())) is shared
            if n > 1:
                assert uniform_l_coset_codec(SymmetricRuns(n, [(0, 2)])) is not shared

    def test_coding_builds_no_group_or_codec_after_the_first_graph_of_a_size(self, monkeypatch):
        # Graphs shaped like the er-attr benchmark's: n = 12..20, p = 0.3,
        # 5 vertex and 3 edge labels, under one shuffle codec per size.
        rng = random.Random(35)
        graphs = []
        for i in range(100):
            n = 12 + i % 9
            edges = [(j, k) for k in range(n) for j in range(k) if rng.random() < 0.3]
            labels = {e: rng.randrange(3) for e in edges}
            graphs.append(Graph(n, edges, [rng.randrange(5) for _ in range(n)], labels))
        codecs = {
            n: ShuffleCodec(
                with_attributes(
                    erdos_renyi_codec(ErParams(n, Fraction(3, 10))), (1,) * 5, (1,) * 3
                ),
                graph_class(),
            )
            for n in range(12, 21)
        }
        perms.trivial_group.cache_clear()
        perm_codecs._shuffle_codec.cache_clear()
        built = []
        for cls, name in ((perms.SymmetricRuns, "__post_init__"), (Codec, "__init__")):
            original = getattr(cls, name)

            def counted(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        m = message_init()
        seen = set()
        checked = 0
        for g in graphs:
            del built[:]
            codecs[g.n].encode(m, g)
            codecs[g.n].decode(m)
            if g.n in seen and _discrete(g):
                assert built == [], f"built {built} for a second graph on {g.n} vertices"
                checked += 1
            seen.add(g.n)
        assert checked >= 80


class TestShuffleEncodeDecode:
    def test_one_relabeling_per_direction(self, monkeypatch):
        # A graph with a trivial automorphism group: encode relabels the
        # input once, by the coset member composed with the canonical
        # permutation, and decode relabels the decoded graph once.
        applied = []

        def counted(s, g):
            applied.append(s)
            return apply_perm(s, g)

        monkeypatch.setattr(shuffle, "apply_perm", counted)
        monkeypatch.setattr(canon, "apply_perm", counted)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_attrs=[0, 1, 2, 3])
        codec = ShuffleCodec(
            with_attributes(erdos_renyi_codec(ErParams(4, Fraction(1, 2))), (1, 1, 1, 1)),
            graph_class(),
        )
        m = random_message(seed=3, tail_words=32)
        codec.encode(m, g)
        assert len(applied) == 1
        out = codec.decode(m)
        assert len(applied) == 2
        assert out == canon.canonize(g).canon_graph

    def test_edgeless_three_costs_three_bits(self):
        codec = er_shuffle(3, Fraction(1, 2))
        m = random_message(seed=1, tail_words=16)
        before = m.length_bits
        report = codec.encode(m, Graph(3))
        assert abs((m.length_bits - before) - 3) <= 0.01
        assert report.discount_bits == 0.0
        assert report.aut_order == 6

    def test_single_edge_aggregate_net(self, rng):
        codec = er_shuffle(3, Fraction(1, 2))
        m = random_message(seed=2, tail_words=64)
        before = m.length_bits
        edges = [[(0, 1)], [(0, 2)], [(1, 2)]]
        for _ in range(1000):
            codec.encode(m, Graph(3, edges[rng.randrange(3)]))
        added = m.length_bits - before
        expected = 1000 * (3 - math.log2(3))
        assert abs(added - expected) <= 2.0

    def test_round_trip_returns_canonical(self, rng):
        codec = er_shuffle(6, Fraction(1, 3))
        for _ in range(200):
            g = sample_er_graph(rng, 6, 0.35)
            m = random_message(seed=5, tail_words=32)
            snapshot = m.copy()
            codec.encode(m, g)
            out = codec.decode(m)
            assert m == snapshot
            assert out == codec.pclass.apply(codec.pclass.canonize(g).canon_perm, g)
            assert canon_equal(out, g)

    def test_bitstream_isomorphism_invariant(self, rng):
        codec = er_shuffle(7, Fraction(2, 5), vertex_attr_ps=(1, 1))
        for trial in range(100):
            g = sample_er_graph(rng, 7, 0.4, vertex_alphabet=2)
            s = tuple(rng.sample(range(7), 7))
            m1 = random_message(seed=trial, tail_words=32)
            m2 = random_message(seed=trial, tail_words=32)
            codec.encode(m1, g)
            codec.encode(m2, apply_perm(s, g))
            assert m1 == m2

    def test_pad_path_from_initial_message(self):
        # First object on a fresh message: discount unrealized, paid in pad.
        codec = er_shuffle(5, Fraction(1, 2))
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        m = message_init()
        report = codec.encode(m, g)
        assert report.initial_bits_overhead > 0
        out = codec.decode(m)
        assert canon_equal(out, g)
        assert without_pad_residue(m) == message_init()

    def test_rate_identity_g8(self, rng):
        # Acceptance-style: 100 G(8, 0.3) graphs, matched model.
        codec = er_shuffle(8, Fraction(3, 10))
        m = message_init()
        before = m.length_bits
        ordered = discount = overhead = 0.0
        for _ in range(100):
            report = codec.encode(m, sample_er_graph(rng, 8, 0.3))
            ordered += report.ordered_bits
            discount += report.discount_bits
            overhead += report.initial_bits_overhead
        total_added = m.length_bits - before
        assert abs((total_added - overhead) - (ordered - discount)) <= 100 * 0.05 + 64

    def test_nested_pu_composability(self, rng):
        # PU already wraps an inner shuffle over the edge list; wrapping the
        # graph codec in the outer vertex shuffle must stay exact.
        for _ in range(20):
            n = rng.randint(3, 7)
            g = sample_er_graph(rng, n, 0.5)
            codec = ShuffleCodec(
                polya_urn_codec(PuParams(n)), graph_class()
            )
            m = random_message(seed=n, tail_words=128)
            snapshot = m.copy()
            codec.encode(m, g)
            out = codec.decode(m)
            assert canon_equal(out, g)
            assert m == snapshot

    def test_pu_outer_bitstream_invariance(self, rng):
        for trial in range(20):
            n = 6
            g = sample_er_graph(rng, n, 0.5)
            s = tuple(rng.sample(range(n), n))
            codec = ShuffleCodec(
                polya_urn_codec(PuParams(n)), graph_class()
            )
            m1 = random_message(seed=100 + trial, tail_words=128)
            m2 = random_message(seed=100 + trial, tail_words=128)
            codec.encode(m1, g)
            codec.encode(m2, apply_perm(s, g))
            assert m1 == m2

    def test_symmetric_graph_bytes_pinned(self, rng):
        # Large automorphism groups in one message, as versions 13 to 15 write it:
        # a group's twin runs are coded as one arrangement of block labels
        # (the empty graph, the star, 3 K3) or, with no run, by a shuffle,
        # after the blocks' order pops its rank in the quotient's block
        # chain (C10, Q3, 3 K3); each graph's vertex pairs eight per block
        # symbol. The empty graph on 12 vertices, K1,8, C10, the cube Q3 and
        # 3 disjoint K3, each under ER(n, 1/2), under any relabeling.
        triangle = ((0, 1), (1, 2), (0, 2))
        graphs = [
            Graph(12),
            Graph(9, [(0, i) for i in range(1, 9)]),
            Graph(10, [(i, (i + 1) % 10) for i in range(10)]),
            Graph(8, [(i, i ^ b) for i in range(8) for b in (1, 2, 4) if i < i ^ b]),
            Graph(9, [(3 * t + a, 3 * t + b) for t in range(3) for a, b in triangle]),
        ]
        codecs = [er_shuffle(g.n, Fraction(1, 2)) for g in graphs]
        for trial in range(3):
            m = message_init()
            for codec, g in zip(codecs, graphs):
                s = tuple(rng.sample(range(g.n), g.n)) if trial else tuple(range(g.n))
                codec.encode(m, apply_perm(s, g))
            data = message_serialize(m)
            assert data[:6] == b"SHUF\x0f\x00"
            assert hashlib.sha256(data[6:]).hexdigest() == (
                "229ca4aa4d0a1ec67a721ba164ac6933547c7c369f2c0d86967618c6d3e06bfc"
            )
            for codec, g in reversed(list(zip(codecs, graphs))):
                assert canon_equal(codec.decode(m), g)

    def test_sequence_class_shuffle(self, rng):
        # Multiset coding via the string canonizer.
        codec = ShuffleCodec(string_codec([2, 1, 1], 8), sequence_class())
        for _ in range(50):
            xs = tuple(rng.randrange(3) for _ in range(8))
            m = random_message(seed=8, tail_words=32)
            snapshot = m.copy()
            codec.encode(m, xs)
            assert codec.decode(m) == tuple(sorted(xs))
            assert m == snapshot


def _letters_codec(alphabet: str, length: int) -> Codec:
    """An ordered codec over str values: strings of the alphabet's letters,
    i.i.d. uniform, decoded as a str."""
    base = string_codec([1] * len(alphabet), length)
    return Codec(
        lambda m, s: base.encode(m, [alphabet.index(c) for c in s]),
        lambda m: "".join(alphabet[x] for x in base.decode(m)),
    )


class TestStrings:
    def test_str_decodes_to_the_canonical_str(self):
        # canonize_string and pop_ordered give a str for a str; decode must
        # too, not a tuple of letters.
        codec = ShuffleCodec(_letters_codec("abn", 6), sequence_class())
        for word in ("banana", "nabana", "aaabnn"):
            m = random_message(seed=5, tail_words=8)
            snapshot = m.copy()
            codec.encode(m, word)
            assert codec.decode(m) == "aaabnn" == canonize_string(word).canon_seq
            assert m == snapshot
        distinct = ShuffleCodec(_letters_codec("abn", 3), sequence_class())
        m = message_init()
        distinct.encode(m, "nba")
        assert distinct.decode(m) == "abn"


def _attributed_er4():
    return with_attributes(erdos_renyi_codec(ErParams(4, Fraction(1, 2))), (1, 1), (2, 1))


# Objects the ordered codec refuses after the ordering step has popped: a
# sequence of the wrong length, a symbol outside the table, a graph on too
# many vertices, with and without attributes, and a graph with a loop under
# loop-free ER and urn parameters.
_REFUSED = {
    "short-sequence": (
        lambda: ShuffleCodec(string_codec((1, 1), 6), sequence_class()),
        (1, 0, 1, 1, 0),
    ),
    "symbol-outside-table": (
        lambda: ShuffleCodec(string_codec((1, 1), 6), sequence_class()),
        (0, 1, 7, 0, 1, 1),
    ),
    "graph-too-large": (
        lambda: ShuffleCodec(erdos_renyi_codec(ErParams(4, Fraction(1, 2))), graph_class()),
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
    ),
    "attributed-graph-too-large": (
        lambda: ShuffleCodec(_attributed_er4(), graph_class()),
        Graph(
            5,
            [(0, 1), (1, 2), (3, 4)],
            vertex_attrs=[0, 1, 1, 0, 1],
            edge_attrs={(0, 1): 0, (1, 2): 1, (3, 4): 0},
        ),
    ),
    "loop-under-loop-free-er": (
        lambda: ShuffleCodec(erdos_renyi_codec(ErParams(4, Fraction(1, 2))), graph_class()),
        Graph(4, [(0, 0), (1, 2)]),
    ),
    "loop-under-loop-free-urn": (
        lambda: ShuffleCodec(polya_urn_codec(PuParams(4)), graph_class()),
        Graph(4, [(0, 0), (1, 2)]),
    ),
}


class TestFailedEncode:
    # An encode that raises must leave the message as it was: the ordering
    # popped before the ordered codec refused the object goes back, and so
    # does any pad it drew, on a full, a one-word and an empty message.
    @staticmethod
    def message(words):
        return random_message(seed=9, tail_words=words) if words else message_init()

    @pytest.mark.parametrize("case", sorted(_REFUSED))
    @pytest.mark.parametrize("words", [8, 1, 0])
    def test_message_unchanged(self, case, words):
        make, obj = _REFUSED[case]
        m = self.message(words)
        if not words:  # the lowest head: the ordering step draws pad words
            probe = m.copy()
            make().pclass.pop_ordered(probe, obj)
            assert probe.pad_consumed > 0
        snapshot = m.copy()
        with pytest.raises(CodecError):
            make().encode(m, obj)
        assert m == snapshot
        assert m.pad_consumed == 0

    def test_underflow_without_pad_leaves_the_message(self):
        # With no pad source, the bits-back pop of a 20-edge path on 30
        # vertices runs out of the three stack words: the encode raises and
        # gives every word back.
        codec = ShuffleCodec(erdos_renyi_codec(ErParams(30, Fraction(1, 2))), graph_class())
        m = Message(HEAD_MIN, [1, 2, 3], pad_seed=None)
        with pytest.raises(MessageUnderflow):
            codec.encode(m, Graph(30, [(i, i + 1) for i in range(20)]))
        assert m == Message(HEAD_MIN, [1, 2, 3]) and m.pad_consumed == 0

    @pytest.mark.parametrize("words", [8, 1, 0])
    def test_attribute_layer_pops_its_symbols_back(self, words):
        _, g = _REFUSED["attributed-graph-too-large"]
        m = self.message(words)
        snapshot = m.copy()
        with pytest.raises(ContractViolation):
            _attributed_er4().encode(m, g)
        assert m == snapshot


# Empty, one element, all distinct, all equal, runs mixed with singletons,
# and tuple-valued elements (the urn model's edge pairs).
_SEQUENCES = st.one_of(
    st.just(()),
    st.tuples(st.integers(0, 5)),
    st.lists(st.integers(0, 60), max_size=30, unique=True),
    st.builds(lambda x, k: (x,) * k, st.integers(0, 3), st.integers(2, 30)),
    st.lists(st.integers(0, 6), max_size=40),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25),
).map(tuple)


def _sorted_like(xs):
    """xs sorted, a str for a str and a tuple otherwise, as push_ordering
    gives the canonical member."""
    return "".join(sorted(xs)) if isinstance(xs, str) else tuple(sorted(xs))


class TestMultisets:
    # An empty stack draws pad words; 16 words are more than any draw here.
    @given(_SEQUENCES, st.integers(0, 1 << 16), st.sampled_from([0, 16]))
    @settings(max_examples=300, deadline=None)
    def test_sequence_path_matches_the_permutation_path(self, xs, seed, words):
        # sequence_class draws and gives back the ordering on the values; the
        # reference codes it as a coset permutation. Same messages throughout.
        direct, reference = sequence_class(), permutation_sequence_class()
        a, b = random_message(seed, words), random_message(seed, words)
        snapshot = a.copy()
        drawn = direct.pop_ordered(a, xs)
        expected = reference.pop_ordered(b, xs)
        assert drawn.ordered == expected.ordered
        assert drawn.aut_order == expected.aut_order
        assert a == b
        assert direct.push_ordering(a, drawn.ordered) == tuple(sorted(xs))
        assert reference.push_ordering(b, drawn.ordered) == tuple(sorted(xs))
        assert a == b
        assert without_pad_residue(a) == snapshot
        # The input's own ordering goes back and comes out again.
        direct.push_ordering(a, xs)
        reference.push_ordering(b, xs)
        assert a == b
        assert direct.pop_ordered(a, xs).ordered == reference.pop_ordered(b, xs).ordered == xs
        assert a == b
        if all(type(x) is int for x in xs):
            ordered = string_codec([1] * (max(xs, default=0) + 1), len(xs))
            for pclass, m in ((direct, a), (reference, b)):
                ShuffleCodec(ordered, pclass).encode(m, xs)
            assert a == b
            assert ShuffleCodec(ordered, direct).decode(a) == tuple(sorted(xs))
            assert without_pad_residue(a) == snapshot

    def test_sequence_path_builds_no_permutation(self, monkeypatch):
        # The sequence class codes its ordering on the values: no sort
        # permutation, coset permutation or permutation check.
        def refuse(*args):
            raise AssertionError("permutation path reached")

        for module in (shuffle, canon, perm_codecs):
            for name in ("canonize_string", "apply_sequence", "uniform_l_coset_codec", "inverse"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(perms, "is_perm", refuse)
        for xs in ((2, 0, 1, 1, 0, 2, 2, 3), (5, 1, 4, 0), (3,) * 6, ()):
            codec = ShuffleCodec(string_codec([1] * 6, len(xs)), sequence_class())
            m = random_message(seed=4, tail_words=8)
            snapshot = m.copy()
            codec.encode(m, xs)
            assert codec.decode(m) == tuple(sorted(xs))
            assert m == snapshot

    def test_sequence_ordering_draws_no_shuffle(self, monkeypatch):
        # Every distinct value has a label of its own, so when a value
        # repeats the ordering is one arrangement draw: no Fisher-Yates
        # shuffle.
        def refuse(*args):
            raise AssertionError("Fisher-Yates shuffle reached")

        monkeypatch.setattr(shuffle, "pop_shuffle", refuse)
        monkeypatch.setattr(shuffle, "push_shuffle", refuse)
        pclass = sequence_class()
        for xs in ((2, 0, 1, 1, 0, 2, 2, 3), (5, 1, 4, 4, 0), "shuffle", (3,) * 6):
            m = random_message(seed=6, tail_words=8)
            snapshot = m.copy()
            drawn = pclass.pop_ordered(m, xs)
            assert sorted(drawn.ordered) == sorted(xs)
            assert pclass.push_ordering(m, drawn.ordered) == _sorted_like(xs)
            assert m == snapshot

    def test_distinct_values_draw_no_arrangement(self, monkeypatch):
        # With no repeated value the group is trivial: the ordering is one
        # Fisher-Yates shuffle, O(1) per element, and no arrangement draw,
        # which walks a Fenwick tree per element.
        def refuse(*args):
            raise AssertionError("arrangement draw reached")

        monkeypatch.setattr(shuffle, "pop_arrangement", refuse)
        monkeypatch.setattr(shuffle, "push_arrangement", refuse)
        pclass = sequence_class()
        rng = random.Random(24)
        for xs in ((5, 1, 4, 0), "shuf", tuple(rng.sample(range(10**6), 500)), (7,), ()):
            m = random_message(seed=6, tail_words=400)
            snapshot = m.copy()
            drawn = pclass.pop_ordered(m, xs)
            assert sorted(drawn.ordered) == sorted(xs) and drawn.aut_order == 1
            assert pclass.push_ordering(m, drawn.ordered) == _sorted_like(xs)
            assert m == snapshot
            codec = ShuffleCodec(string_codec([1] * 128, len(xs)), sequence_class())
            if all(type(x) is int and x < 128 for x in xs):
                codec.encode(m, xs)
                assert codec.decode(m) == tuple(sorted(xs))
                assert m == snapshot

    def test_message_bytes_unchanged(self):
        # Seeded multisets shuffle-coded into one message; the SHA-256 of
        # everything after the version field, as versions 11 to 15 write it:
        # each ordering is one exact-mass draw per element, without
        # replacement, of the labels 0..r-1 of its r distinct values. (The
        # one sequence here with no repeated value has one element, and
        # codes no ordering either way.)
        rng = random.Random(2408)
        masses = (5, 2, 1)
        m = message_init()
        for _ in range(30):
            length = rng.randint(0, 48)
            xs = tuple(rng.choices(range(3), weights=masses, k=length))
            ShuffleCodec(string_codec(masses, length), sequence_class()).encode(m, xs)
        data = message_serialize(m)
        assert data[:6] == b"SHUF\x0f\x00"
        assert hashlib.sha256(data[6:]).hexdigest() == (
            "97dea0b19c12facb24fecccf9c00de60aaf4eecc9abee9557e8a508014784b55"
        )

    def test_long_multisets_without_schreier_sims(self, monkeypatch):
        # Bounded work: sequence canonization must not reach the general
        # Schreier-Sims, whose cost on long runs is polynomial of high degree.
        def refuse(group):
            raise AssertionError("schreier_sims called")

        monkeypatch.setattr(perms, "schreier_sims", refuse)
        monkeypatch.setattr(canon, "schreier_sims", refuse)
        n = 1000
        rng = random.Random(5)
        for xs in ((1,) * n, tuple(rng.randrange(2) for _ in range(n))):
            c = canon.canonize_string(xs)
            assert c.aut_order == math.prod(math.factorial(xs.count(v)) for v in set(xs))
            codec = ShuffleCodec(string_codec([1, 1], n), sequence_class())
            m = random_message(seed=6, tail_words=640)
            snapshot = m.copy()
            codec.encode(m, xs)
            assert codec.decode(m) == tuple(sorted(xs))
            assert m == snapshot


    def test_multisets_build_no_chain_level(self, monkeypatch):
        # canonize_string takes the group order from the runs, and the coset
        # step codes the runs directly: no chain level is built.
        def refuse(*args):
            raise AssertionError("chain level built")

        monkeypatch.setattr(perms.ChainLevel, "__init__", refuse)
        xs = (2, 0, 1, 1, 0, 2, 2, 3)
        assert canon.canonize_string(xs).aut_order == 2 * 2 * 6
        codec = ShuffleCodec(string_codec([1, 1, 1, 1], len(xs)), sequence_class())
        m = random_message(seed=2, tail_words=8)
        snapshot = m.copy()
        codec.encode(m, xs)
        assert codec.decode(m) == tuple(sorted(xs))
        assert m == snapshot


class TestSymmetrize:
    def test_er_n3_classes_and_masses(self):
        codec = erdos_renyi_codec(ErParams(3, Fraction(1, 2)))
        report = symmetrize_check(codec, list(all_simple_graphs(3)))
        assert report.exchangeable
        assert report.num_classes == 4
        assert report.total_mass == 1
        assert all(c.orbit_formula_holds for c in report.classes)
        assert all(c.mass_matches_formula for c in report.classes)
        single_edge = [c for c in report.classes if c.representative.num_edges == 1]
        assert len(single_edge) == 1
        assert single_edge[0].class_mass == Fraction(3, 8)

    def test_er_biased_masses(self):
        codec = erdos_renyi_codec(ErParams(3, Fraction(1, 4)))
        report = symmetrize_check(codec, list(all_simple_graphs(3)))
        assert report.exchangeable
        assert report.total_mass == 1

    def test_pu_no_redraws_flagged_stochastic(self):
        # Sequence-order dependence: measured lengths differ across orderings
        # of the same edge set, which the diagnostic reports as such.
        from shufflecodec.models import pu_sequence_codec

        codec = pu_sequence_codec(PuParams(4), 3)
        seqs = [
            ((0, 1), (0, 2), (0, 3)),
            ((0, 2), (0, 1), (0, 3)),
            ((0, 3), (0, 2), (0, 1)),
        ]
        report = symmetrize_check(codec, seqs, pclass=sequence_class())
        assert not report.exchangeable


class TestPackageScope:
    def test_src_holds_no_test_oracles(self):
        moved = {
            "canonize_bruteforce", "SizeError", "embed_edge_colors",
            "canonize_via_embedding", "symmetrize_check", "ClassReport",
            "SymmetrizeReport", "orbit_of", "chain_elements",
            "without_pad_residue", "CanonStats", "run_transpositions",
            "runs_chain", "run_generators", "lift_blocks", "reference_chain",
        }
        defined = set()
        for path in pathlib.Path(shufflecodec.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.add(node.name)
        assert not moved & defined
        assert not inspect.signature(graph_class).parameters

    def test_encode_reports_its_canonize_time(self, monkeypatch):
        # A fake clock that only the class's canonizer advances.
        clock = [0.0]
        monkeypatch.setattr(shuffle, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        graphs = graph_class()

        def slow_canonize(g):
            clock[0] += 2.5
            return graphs.canonize(g)

        pclass = PermutableClass(graphs.apply, slow_canonize, graphs.degree)
        codec = ShuffleCodec(erdos_renyi_codec(ErParams(4, Fraction(1, 2))), pclass)
        m = random_message(seed=3, tail_words=8)
        report = codec.encode(m, Graph(4, [(0, 1), (1, 2)]))
        assert report.canonize_seconds == 2.5
