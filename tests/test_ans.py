import bisect
import hashlib
import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecodec import ans
from shufflecodec.ans import (
    ContractViolation,
    FormatError,
    Message,
    ParameterError,
    bernoulli_weights,
    message_deserialize,
    message_init,
    message_serialize,
    pop_arrangement,
    pop_exact,
    pop_shuffle,
    pop_symbols,
    pop_uniforms,
    push_arrangement,
    push_exact,
    push_shuffle,
    push_symbols,
    push_uniforms,
    quantize_masses,
    table_for,
)
from shufflecodec.compress import compress_corpus
from shufflecodec.datasets import Corpus
from shufflecodec.generate import sample_er_graph, sample_pa_graph
from shufflecodec.models import string_codec

from conftest import random_message
from oracles import pop_shuffle_by_uniforms, push_shuffle_by_uniforms


class TestMessage:
    def test_init_is_fresh_and_fixed(self):
        m = message_init()
        assert m.tail == []
        assert message_init() == message_init()

    def test_init_under_64_bits(self):
        assert message_init().length_bits < 64

    def test_head_interval_invariant(self, rng):
        m = message_init()
        for _ in range(500):
            push_uniforms(m, [rng.randrange(1000)], [1000])
            assert ans.HEAD_MIN <= m.head < ans.HEAD_LIMIT
        for _ in range(500):
            pop_uniforms(m, [1000])
            assert ans.HEAD_MIN <= m.head < ans.HEAD_LIMIT

    def test_underflow_without_pad(self):
        m = Message(pad_seed=None)
        with pytest.raises(ans.MessageUnderflow):
            pop_uniforms(m, [1 << 20])

    def test_pad_pop_is_deterministic(self):
        a, b = message_init(), message_init()
        sizes = [1 << 20] * 50
        assert pop_uniforms(a, sizes) == pop_uniforms(b, sizes)
        assert a.pad_consumed == b.pad_consumed > 0


class TestUniform:
    def test_size_one_is_free(self):
        m = message_init()
        before = m.length_bits
        push_uniforms(m, [0], [1])
        assert m.length_bits == before
        assert pop_uniforms(m, [1]) == [0]

    def test_rate_n6(self, rng):
        m = message_init()
        symbols = [rng.randrange(6) for _ in range(1000)]
        before = m.length_bits
        push_uniforms(m, symbols, [6] * 1000)
        added = m.length_bits - before
        assert abs(added - 1000 * math.log2(6)) <= 1.0
        assert pop_uniforms(m, [6] * 1000) == symbols

    def test_boundary_2_pow_48(self):
        m = message_init()
        push_uniforms(m, [(1 << 48) - 1], [1 << 48])
        assert pop_uniforms(m, [1 << 48]) == [(1 << 48) - 1]
        assert m == message_init()

    def test_parameter_errors(self):
        for n in (0, (1 << 48) + 1):
            with pytest.raises(ParameterError):
                push_uniforms(message_init(), [0], [n])
            with pytest.raises(ParameterError):
                pop_uniforms(message_init(), [n])

    def test_out_of_range_symbol(self):
        with pytest.raises(ContractViolation):
            push_uniforms(message_init(), [5], [5])


class TestBernoulli:
    """A Bernoulli(p) bit is a symbol over table_for(bernoulli_weights(p))."""

    def test_half_is_one_bit(self, rng):
        m = message_init()
        table = table_for(bernoulli_weights(Fraction(1, 2)))
        before = m.length_bits
        bits = [rng.randrange(2) for _ in range(1000)]
        push_symbols(m, table, bits)
        assert abs((m.length_bits - before) - 1000) <= 1.0

    def test_quarter_rates(self, rng):
        table = table_for(bernoulli_weights(Fraction(1, 4)))
        bits = [1 if rng.random() < 0.25 else 0 for _ in range(10_000)]
        ones = sum(bits)
        m = message_init()
        before = m.length_bits
        push_symbols(m, table, bits)
        expected = ones * 2.0 + (len(bits) - ones) * -math.log2(0.75)
        assert abs((m.length_bits - before) - expected) <= 0.001 * expected

    def test_round_trip_exact(self, rng):
        table = table_for(bernoulli_weights(0.3))
        bits = [rng.randrange(2) for _ in range(10_000)]
        m = message_init()
        snapshot = m.copy()
        for b in bits:
            push_symbols(m, table, [b])
        assert [pop_symbols(m, table, 1)[0] for _ in bits] == bits[::-1]
        assert m == snapshot

    def test_float_rate_tracks_the_entropy(self):
        # A float's denominator is 2**54; rounded to a 2**-48 grid its table
        # cost 7.6e-4 bits per symbol over the entropy on these draws.
        rng = random.Random(3)
        table = table_for(bernoulli_weights(0.3))
        bits = [1 if rng.random() < 0.3 else 0 for _ in range(20_000)]
        m = message_init()
        before = m.length_bits
        push_symbols(m, table, bits)
        ideal = sum(-math.log2(0.3 if b else 0.7) for b in bits)
        assert abs((m.length_bits - before) - ideal) / len(bits) < 1e-5

    def test_parameter_errors(self):
        for bad in (0, 1, -0.5, 1.5):
            with pytest.raises(ParameterError):
                bernoulli_weights(bad)


class TestCategorical:
    """A categorical symbol is string_codec(weights, 1): one symbol over the
    shared table of the weights."""

    def test_uniform_reduction(self, rng):
        codec = string_codec([1, 1, 1, 1], 1)
        m = message_init()
        before = m.length_bits
        for _ in range(1000):
            codec.encode(m, (rng.randrange(4),))
        assert abs((m.length_bits - before) - 2000) <= 1.0

    def test_three_one_entropy(self, rng):
        # H(3/4, 1/4) = 2 - (3/4) log2 3 = 0.811278...
        codec = string_codec([3, 1], 1)
        symbols = [0 if rng.random() < 0.75 else 1 for _ in range(10_000)]
        m = message_init()
        before = m.length_bits
        for x in symbols:
            codec.encode(m, (x,))
        expected = sum(-math.log2([0.75, 0.25][x]) for x in symbols)
        assert abs((m.length_bits - before) - expected) <= 0.001 * expected

    def test_decode_samples_distribution(self):
        # chi-squared test at alpha=0.001 against the coded distribution.
        from scipy.stats import chi2

        masses = [3, 1, 4]
        codec = string_codec(masses, 1)
        m = random_message(seed=7)
        n = 100_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[codec.decode(m)[0]] += 1
        total = sum(masses)
        stat = sum(
            (counts[i] - n * masses[i] / total) ** 2 / (n * masses[i] / total)
            for i in range(3)
        )
        assert stat < chi2.ppf(1 - 0.001, df=2)

    def test_zero_mass_encode_rejected(self):
        codec = string_codec([2, 0, 2], 1)
        with pytest.raises(ContractViolation):
            codec.encode(message_init(), (1,))

    def test_equal_weights_code_as_uniform(self, rng):
        # The uniform-attribute layer codes over table_for([1] * k): its
        # symbols must have the bytes of uniform symbols over k, spare units
        # on the lowest symbols.
        for k in list(range(1, 70)) + [255, 256, 1000, 4097]:
            xs = [rng.randrange(k) for _ in range(20)]
            a, b = random_message(k, 2), random_message(k, 2)
            table = table_for([1] * k)
            push_symbols(a, table, xs)
            push_uniforms(b, xs, [k] * len(xs))
            assert a == b
            assert pop_symbols(a, table, len(xs)) == pop_uniforms(b, [k] * len(xs))

    def test_mass_overflow_rejected(self):
        with pytest.raises(ParameterError):
            string_codec([1 << 48, 1], 1)

    def test_tables_shared_per_weight_tuple(self):
        assert table_for([5, 2, 1]) is table_for((5, 2, 1))
        assert table_for([5, 2, 1]) is not table_for([5, 2, 2])

    def test_bools_refused_with_equal_ints_cached(self):
        # (True, True) == (1, 1) and both hash alike: the weight check must
        # run before the cached (1, 1) table is looked up.
        table_for((1, 1))
        with pytest.raises(ParameterError):
            table_for((True, True))
        with pytest.raises(ParameterError):
            table_for((1, True))
        with pytest.raises(ParameterError):
            string_codec((True, True), 1)


@st.composite
def _weight_lists(draw):
    """Integer weights, zeros included, with total in [1, 2**48]: tables of
    every precision from 16 to 48."""
    weight = st.one_of(
        st.just(0), st.integers(1, 16), st.integers(1, 1 << 24), st.integers(1, 1 << 45)
    )
    return draw(st.lists(weight, min_size=1, max_size=6).filter(any))


class TestQuantize:
    """quantize_masses and Table against a Fraction reference of the
    cumulative-floor rule."""

    def test_sums_to_denominator(self):
        masses = quantize_masses([2, 3, 5], 20)
        assert sum(masses) == 1 << 20
        assert masses == _fraction_quantize([2, 3, 5], 20)
        # A total of exactly 2**precision keeps the weights as the masses.
        assert quantize_masses([3, 0, 5], 3) == _fraction_quantize([3, 0, 5], 3) == [3, 0, 5]

    def test_nonzero_weights_keep_mass(self):
        masses = quantize_masses([1, (1 << 20) - 2, 1], 20)
        assert masses[0] >= 1 and masses[2] >= 1
        assert sum(masses) == 1 << 20

    def test_zero_weights_stay_zero(self):
        masses = quantize_masses([1, 0, 3], 16)
        assert masses[1] == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=40),
        st.integers(min_value=8, max_value=48),
    )
    def test_apportionment_properties(self, weights, precision):
        if not 1 <= sum(weights) <= 1 << precision:
            with pytest.raises(ParameterError):
                quantize_masses(weights, precision)
            return
        masses = quantize_masses(weights, precision)
        assert sum(masses) == 1 << precision
        assert all((m > 0) == (w > 0) for m, w in zip(masses, weights))

    @given(
        st.lists(
            st.one_of(
                st.just(0),
                st.integers(min_value=-3, max_value=10**12),
                st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
            ),
            min_size=0,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=49),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_fraction_apportionment(self, weights, precision):
        try:
            expected = _fraction_quantize(weights, precision)
        except ParameterError:
            with pytest.raises(ParameterError):
                quantize_masses(weights, precision)
            return
        assert quantize_masses(weights, precision) == expected

    @given(_weight_lists())
    @settings(max_examples=300, deadline=None)
    def test_table_takes_the_precision_rule(self, weights):
        table = ans.Table(weights)
        total, k = sum(weights), len(weights)
        assert table.precision == min(
            48, max((total - 1).bit_length(), (k - 1).bit_length() + 16)
        )
        assert table.masses == _fraction_quantize(weights, table.precision)
        assert table.cums == list(accumulate(table.masses, initial=0))

    def test_bad_tables_rejected(self):
        for weights in ([], [0, 0], [1, -1, 2], [1.0, 2], [1 << 48, 1]):
            with pytest.raises(ParameterError):
                ans.Table(weights)


def _fraction_quantize(weights, precision):
    """Reference cumulative floors over Fractions: weight w after weights
    summing to C gets floor((C + w) 2**p / T) - floor(C 2**p / T)."""
    if not 1 <= precision <= ans.MAX_PRECISION:
        raise ParameterError("precision")
    if any(type(w) is not int or w < 0 for w in weights):
        raise ParameterError("weights must be nonnegative integers")
    total = sum(weights)
    if not 1 <= total <= 1 << precision:
        raise ParameterError("total")
    floors = [
        math.floor(Fraction(c << precision, total))
        for c in accumulate(weights, initial=0)
    ]
    return [b - a for a, b in zip(floors, floors[1:])]


def _arbitrary_codec(draw):
    """A one-symbol string codec, uniform, Bernoulli or categorical, and a
    string it can code."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        n = draw(st.integers(1, 5000))
        return string_codec([1] * n, 1), (draw(st.integers(0, n - 1)),)
    if kind == 1:
        num = draw(st.integers(1, 99))
        bit = draw(st.integers(0, 1))
        return string_codec(bernoulli_weights(Fraction(num, 100)), 1), (bit,)
    size = draw(st.integers(1, 12))
    masses = draw(
        st.lists(st.integers(1, 1000), min_size=size, max_size=size)
    )
    return string_codec(masses, 1), (draw(st.integers(0, size - 1)),)


class TestStackDiscipline:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_lifo_round_trip(self, data):
        steps = [
            _arbitrary_codec(data.draw)
            for _ in range(data.draw(st.integers(1, 30)))
        ]
        m = message_init()
        snapshot = m.copy()
        for codec, symbol in steps:
            codec.encode(m, symbol)
        for codec, symbol in reversed(steps):
            assert codec.decode(m) == symbol
        assert m == snapshot

    def test_rate_optimality_bound(self, rng):
        # |added - sum(-log2 P)| <= 32 + 0.001 * sum(-log2 P) over 10^4 draws.
        pool = [
            (string_codec([1] * 6, 1), 6),
            (string_codec(bernoulli_weights(Fraction(1, 10)), 1), 2),
            (string_codec([5, 2, 2, 1], 1), 4),
        ]
        m = message_init()
        before = m.length_bits
        optimal = 0.0
        for _ in range(10_000):
            codec, size = pool[rng.randrange(len(pool))]
            x = (rng.randrange(size),)
            codec.encode(m, x)
            optimal += -math.log2(float(codec.prob(x)))
        added = m.length_bits - before
        assert abs(added - optimal) <= 32 + 0.001 * optimal


class TestSerialization:
    def test_initial_message_size(self):
        # magic(4) + version(2) + count(4) + head(8) + crc(4)
        assert len(message_serialize(message_init())) == 22

    def test_round_trip_bitwise(self, rng):
        m = message_init()
        push_uniforms(m, [rng.randrange(999) for _ in range(1000)], [999] * 1000)
        assert message_deserialize(message_serialize(m)) == m

    def test_byte_flips_detected(self, rng):
        m = message_init()
        push_uniforms(m, [rng.randrange(256) for _ in range(20)], [256] * 20)
        data = bytearray(message_serialize(m))
        for i in range(len(data)):
            corrupted = bytearray(data)
            corrupted[i] ^= 0x40
            with pytest.raises(FormatError):
                message_deserialize(bytes(corrupted))

    def test_older_format_version_rejected(self):
        data = bytearray(message_serialize(message_init()))
        assert data[4:6] == ans.FORMAT_VERSION.to_bytes(2, "little")
        for version in range(1, ans.FORMAT_VERSION):
            data[4:6] = version.to_bytes(2, "little")
            with pytest.raises(FormatError, match=f"version {version}"):
                message_deserialize(bytes(data))

    def test_er_corpus_bytes_unchanged_by_version_2(self):
        # ER and attribute tables, pinned as version 15 writes them (its
        # searched graphs canonize through the twin quotient): the ER pairs
        # are coded eight per block symbol, the block and attribute tables
        # are the cumulative floors of their integer weights, and each
        # number of the parameter block is its bit length and its free bits,
        # two uniform symbols. The graphs' bytes are those of versions 12 to
        # 14; version 15 changed the parameter block alone.
        rng = random.Random(2408)
        graphs = tuple(
            sample_er_graph(
                rng, rng.randint(5, 12), 0.3, vertex_alphabet=4, edge_alphabet=3
            )
            for _ in range(40)
        )
        data, _ = compress_corpus(Corpus(graphs, "golden", True, True), model="er")
        assert data[:6] == b"SHUF\x0f\x00"
        assert len(data) == 276
        assert hashlib.sha256(data[6:]).hexdigest() == (
            "97b3f02e598dac074725503643fcac3c2b99cbd2a4f149515bb26f8570450779"
        )

    def test_pu_corpus_bytes_pinned(self):
        # Seeded preferential-attachment graphs under the urn model: the urn's
        # exact-mass pair symbols and both shuffle levels (graph and edge list),
        # as version 15 writes them: a twin class takes a run of canonical
        # positions, a quotient with automorphisms codes the blocks' order
        # by its chain on the blocks, an edge list, whose edges are
        # distinct, is one Fisher-Yates shuffle, and each graph's edge count
        # is one uniform symbol above its edge list.
        rng = random.Random(2408)
        graphs = tuple(sample_pa_graph(rng, rng.randint(6, 14), 2) for _ in range(20))
        data, _ = compress_corpus(Corpus(graphs, "golden-pu", False, False), model="pu")
        assert data[:6] == b"SHUF\x0f\x00"
        assert len(data) == 98
        assert hashlib.sha256(data[6:]).hexdigest() == (
            "16c2ae3d87f7c392bde561090d6142fb12f9d615757b05151ff1a141f28b7e17"
        )

    def test_uniform_attrs_er_corpus_bytes_pinned(self):
        # The uniform-attribute ablation: attributes coded uniformly over the
        # alphabets of the count tables, stored as one count per value, as
        # version 15 writes it.
        rng = random.Random(2408)
        graphs = tuple(
            sample_er_graph(
                rng, rng.randint(5, 12), 0.3, vertex_alphabet=5, edge_alphabet=3
            )
            for _ in range(40)
        )
        corpus = Corpus(graphs, "golden-uniform", True, True)
        data, _ = compress_corpus(corpus, model="er", attrs="uniform")
        assert data[:6] == b"SHUF\x0f\x00"
        assert len(data) == 314
        assert hashlib.sha256(data[6:]).hexdigest() == (
            "710d9ecc68b1facc174aa00b4e731f602b0e7c5453b28a8c81e3b2cb5a32842f"
        )

    def test_truncation_detected(self):
        data = message_serialize(message_init())
        with pytest.raises(FormatError):
            message_deserialize(data[:-3])
        with pytest.raises(FormatError):
            message_deserialize(data + b"\x00")


def _state(m):
    return m.head, list(m.tail), m.pad_consumed


# Heads near both ends of the renormalization interval and anywhere between.
_heads = st.one_of(
    st.integers(ans.HEAD_MIN, ans.HEAD_MIN + (1 << 20)),
    st.integers(ans.HEAD_LIMIT - (1 << 20), ans.HEAD_LIMIT - 1),
    st.integers(ans.HEAD_MIN, ans.HEAD_LIMIT - 1),
)


@st.composite
def _messages(draw):
    """A message with a pad source and a short tail, often empty, so that
    pops run into the pad words."""
    tail = draw(st.lists(st.integers(0, ans.WORD_MASK), max_size=3))
    return Message(draw(_heads), tail, pad_seed=draw(st.integers(0, 2**32)))


@st.composite
def _tables(draw):
    """The shared tables of weights that span every precision from 16 to 48,
    each the Fraction reference's cumulative floors."""
    weights = draw(_weight_lists())
    table = table_for(weights)
    assert table.masses == _fraction_quantize(weights, table.precision)
    return table


# Sizes of uniform symbols: small, powers of two up to 2**48, and large.
_sizes = st.one_of(
    st.integers(1, 300),
    st.sampled_from([1 << k for k in range(49)]),
    st.integers(1, 1 << 48),
)


class TestRunKernels:
    """The run kernels against runs of one symbol each."""

    @given(_messages(), _tables(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_table_kernel_matches_per_symbol(self, m, table, data):
        support = [x for x, w in enumerate(table.masses) if w]
        xs = data.draw(st.lists(st.sampled_from(support), max_size=30))
        a, b = m.copy(), m.copy()
        push_symbols(a, table, xs)
        for x in reversed(xs):
            push_symbols(b, table, [x])
        assert _state(a) == _state(b)
        count = data.draw(st.integers(0, 30))
        popped = pop_symbols(a, table, count)
        assert popped == [pop_symbols(b, table, 1)[0] for _ in range(count)]
        assert _state(a) == _state(b)

    @given(_messages(), st.lists(_sizes, max_size=30), st.data())
    @settings(max_examples=300, deadline=None)
    def test_uniform_kernel_matches_per_symbol(self, m, sizes, data):
        xs = [data.draw(st.integers(0, n - 1)) for n in sizes]
        a, b = m.copy(), m.copy()
        push_uniforms(a, xs, sizes)
        for x, n in zip(reversed(xs), reversed(sizes)):
            push_uniforms(b, [x], [n])
        assert _state(a) == _state(b)
        sizes = data.draw(st.lists(_sizes, max_size=30))
        assert pop_uniforms(a, sizes) == [pop_uniforms(b, [n])[0] for n in sizes]
        assert _state(a) == _state(b)

    def test_uniform_kernel_has_the_bytes_of_exact_symbols(self):
        sizes = [1, 2, 3, 6, 1000, 1 << 20, (1 << 20) + 1, (1 << 48) - 1, 1 << 48]
        rng = random.Random(11)
        xs = [rng.randrange(n) for n in sizes]
        a, b = random_message(4, 2), random_message(4, 2)
        push_uniforms(a, xs, sizes)
        push_exact(b, [(x, 1, n) for x, n in zip(xs, sizes)])
        assert _state(a) == _state(b)
        assert pop_uniforms(a, sizes) == xs

    @pytest.mark.parametrize("n", [1, 2, 3, (1 << 16) + 1, 1 << 48])
    def test_uniform_kernel_bytes_equal_exact_symbols_at_edge_sizes(self, n):
        # Each size's precision is computed inline, with no call per symbol;
        # the bytes must stay those of push_exact's subrange (x, 1, n), the
        # head and every word pushed, for the first, a middle and the last x.
        xs = sorted({0, n // 2, n - 1})
        for seed in range(3):
            a, b = random_message(seed, 2), random_message(seed, 2)
            push_uniforms(a, xs, [n] * len(xs))
            push_exact(b, [(x, 1, n) for x in xs])
            assert _state(a) == _state(b)
            assert pop_uniforms(a, [n] * len(xs)) == xs
            assert pop_exact(b, n, lambda t: (t, t, 1)) == xs[0]

    @given(_messages(), _tables(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_table_symbol_leaves_message_unchanged(self, m, table, data):
        masses = table.masses
        bad = [-1, len(masses)] + [x for x, w in enumerate(masses) if not w]
        support = [x for x, w in enumerate(masses) if w]
        xs = data.draw(st.lists(st.sampled_from(support), max_size=10))
        xs.insert(data.draw(st.integers(0, len(xs))), data.draw(st.sampled_from(bad)))
        before = _state(m)
        with pytest.raises(ContractViolation):
            push_symbols(m, table, xs)
        assert _state(m) == before

    def test_zero_mass_symbol_in_a_run_rejected(self):
        m = random_message(5, 2)
        before = _state(m)
        with pytest.raises(ContractViolation, match="zero mass"):
            push_symbols(m, table_for([2, 0, 2]), [0, 2, 1, 0])
        assert _state(m) == before

    def test_non_integer_table_symbol_leaves_message_unchanged(self):
        # A str, float or None symbol used to escape the range check as a
        # TypeError. Bools stay symbols: the ER pair bits are bools.
        codec = string_codec((1, 1, 1), 4)
        m = random_message(5, 2)
        before = _state(m)
        with pytest.raises(ContractViolation, match="'a' outside"):
            codec.encode(m, "abca")
        assert _state(m) == before
        table = table_for([2, 1, 1])
        for bad in (1.0, None):
            for xs in ([bad], [0, bad, 2], [2, 1, bad]):
                with pytest.raises(ContractViolation, match="outside"):
                    push_symbols(m, table, xs)
                assert _state(m) == before
        push_symbols(m, table, [True, False, 2])
        assert pop_symbols(m, table, 3) == [1, 0, 2]
        assert _state(m) == before

    @given(_messages(), st.lists(_sizes, min_size=1, max_size=10), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bad_uniform_symbol_leaves_message_unchanged(self, m, sizes, data):
        xs = [data.draw(st.integers(0, n - 1)) for n in sizes]
        k = data.draw(st.integers(0, len(xs) - 1))
        xs[k] = data.draw(st.sampled_from([-1, sizes[k]]))
        before = _state(m)
        with pytest.raises(ContractViolation):
            push_uniforms(m, xs, sizes)
        assert _state(m) == before

    def test_non_integer_uniform_symbol_leaves_message_unchanged(self):
        # A float used to pass the range check and fail mid-run, after the
        # later symbols had already moved words onto the stack.
        m = Message(ans.HEAD_LIMIT - 1, [7])
        before = _state(m)
        for bad in (1.5, 1.0, True, None):
            with pytest.raises(ContractViolation):
                push_uniforms(m, [bad, 3], [4, 5])
            assert _state(m) == before

    def test_bad_sizes_rejected_before_the_message_changes(self):
        m = random_message(3, 2)
        before = _state(m)
        for sizes in ([4, 0], [4, (1 << 48) + 1]):
            with pytest.raises(ParameterError):
                push_uniforms(m, [1, 0], sizes)
            with pytest.raises(ParameterError):
                pop_uniforms(m, sizes)
            assert _state(m) == before
        with pytest.raises(ContractViolation):
            push_uniforms(m, [1, 0], [4])
        assert _state(m) == before

    def test_sizes_that_are_not_ints_rejected(self):
        # The kernels check the set of size types once; a run of one symbol
        # must refuse the same sizes.
        m = random_message(3, 2)
        before = _state(m)
        for sizes in ([True], [4, 2.0]):
            for run in (sizes, sizes[-1:]):
                with pytest.raises(ParameterError):
                    push_uniforms(m, [0] * len(run), run)
                with pytest.raises(ParameterError):
                    pop_uniforms(m, run)
        assert _state(m) == before


@st.composite
def _exact_tables(draw, max_total=1 << 48):
    """Integer masses, zeros included, with total at most max_total (often
    exactly max_total), and one symbol of positive mass drawn from them."""
    cap = max(1, max_total // 8)
    weight = st.one_of(st.just(0), st.integers(1, 16), st.integers(1, cap))
    masses = draw(st.lists(weight, min_size=1, max_size=8).filter(any))
    if draw(st.booleans()):
        masses.append(max_total - sum(masses))
    x = draw(st.sampled_from([x for x, w in enumerate(masses) if w]))
    return masses, x


def _exact_symbol(masses, x):
    """(start, mass, total) of symbol x."""
    return sum(masses[:x]), masses[x], sum(masses)


def _exact_locate(masses):
    cums = list(accumulate(masses, initial=0))

    def locate(t):
        assert 0 <= t < cums[-1]
        x = bisect.bisect_right(cums, t) - 1
        return x, cums[x], masses[x]

    return locate


class TestExactMass:
    """push_exact/pop_exact: one symbol per exact integer subrange."""

    @given(_messages(), st.lists(_exact_tables(), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, m, run):
        before = m.copy()
        push_exact(m, [_exact_symbol(masses, x) for masses, x in run])
        popped = [
            pop_exact(m, sum(masses), _exact_locate(masses)) for masses, _ in run
        ]
        assert popped == [x for _, x in run]
        assert m == before

    @given(_messages(), st.lists(_exact_tables(1 << 20), max_size=30), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rate_tracks_the_exact_masses(self, m, run, data):
        # Cumulative floors at bitlen(T - 1) + 16 bits keep every symbol
        # within 2**-16 of its exact mass, and the head within 2**-12 of
        # the largest one.
        if data.draw(st.booleans()):
            m = random_message(data.draw(st.integers(0, 99)), 16)
        before = m.length_bits
        push_exact(m, [_exact_symbol(masses, x) for masses, x in run])
        ideal = sum(-math.log2(masses[x] / sum(masses)) for masses, x in run)
        assert abs(m.length_bits - before - ideal) <= 1e-3 * len(run)

    def test_total_above_2_pow_48_rejected(self):
        m = random_message(3, 2)
        before = _state(m)
        for total in ((1 << 48) + 1, 0, 2.0):
            with pytest.raises(ParameterError):
                push_exact(m, [(0, 1, 4), (0, 1, total)])
            with pytest.raises(ParameterError):
                pop_exact(m, total, _exact_locate([1] * 4))
            assert _state(m) == before

    def test_bad_subranges_rejected(self):
        m = random_message(3, 2)
        before = _state(m)
        for bad in ((1, 0, 4), (2, -1, 4), (3, 2, 4), (-1, 1, 4), (0.0, 1, 4)):
            with pytest.raises(ContractViolation):
                push_exact(m, [(0, 1, 4), bad, (2, 2, 4)])
            assert _state(m) == before

    def test_locate_missing_the_target_rejected(self):
        m = random_message(8, 2)
        before = _state(m)
        with pytest.raises(ContractViolation, match="misses"):
            pop_exact(m, 5, lambda t: (0, t + 1, 1))
        assert _state(m) == before

    def test_zero_mass_rejected_message_unchanged(self):
        m = random_message(6, 2)
        before = _state(m)
        with pytest.raises(ContractViolation, match="empty"):
            push_exact(m, [_exact_symbol([2, 0, 2], 0), _exact_symbol([2, 0, 2], 1)])
        assert _state(m) == before


@st.composite
def _arrangements(draw):
    """Counts of up to 12 labels, zeros included, and one arrangement."""
    counts = draw(st.lists(st.integers(0, 6), max_size=12))
    labels = [j for j, c in enumerate(counts) for _ in range(c)]
    return counts, draw(st.permutations(labels))


def _arrangement_subranges(labels, counts):
    """The (start, mass, total) draws of an arrangement, by hand: the count
    left of the lower labels, of the label itself and of all labels, until a
    single label is left."""
    left = list(counts)
    out = []
    for x in labels:
        if sum(1 for c in left if c) <= 1:
            break
        out.append((sum(left[:x]), left[x], sum(left)))
        left[x] -= 1
    return out


class TestArrangement:
    """push_arrangement/pop_arrangement: draws without replacement."""

    @given(_messages(), _arrangements())
    @settings(max_examples=300, deadline=None)
    def test_round_trip(self, m, arrangement):
        counts, labels = arrangement
        before = m.copy()
        push_arrangement(m, labels, counts)
        assert pop_arrangement(m, counts) == labels
        assert m == before

    @given(_messages(), _arrangements())
    @settings(max_examples=200, deadline=None)
    def test_bytes_are_those_of_the_exact_draws(self, m, arrangement):
        counts, labels = arrangement
        a, b = m.copy(), m.copy()
        push_arrangement(a, labels, counts)
        push_exact(b, _arrangement_subranges(labels, counts))
        assert _state(a) == _state(b)

    @pytest.mark.parametrize(
        "counts", [[40], [1] * 30, [7, 0, 3, 20], [2] * 25, [100, 1], [0, 0, 5, 5]]
    )
    def test_rate_is_the_log_multinomial(self, counts):
        rng = random.Random(len(counts))
        labels = [j for j, c in enumerate(counts) for _ in range(c)]
        n = len(labels)
        exact = math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in counts)
        for seed in range(5):
            rng.shuffle(labels)
            m = random_message(seed, 8)
            before = m.length_bits
            push_arrangement(m, labels, counts)
            assert abs(m.length_bits - before - exact / math.log(2)) <= 1e-3 * max(n, 1)

    def test_long_arrangements_are_fast(self):
        # O(log r) per element: 2000 labels of two copies each, and 4000
        # labels of one copy each (a multiset of distinct values), which a
        # linear scan over the labels would make O(n**2).
        rng = random.Random(4)
        for counts in ([2] * 2000, [1] * 4000):
            labels = [j for j, c in enumerate(counts) for _ in range(c)]
            rng.shuffle(labels)
            m = random_message(1, 4)
            before = m.copy()
            push_arrangement(m, labels, counts)
            assert pop_arrangement(m, counts) == labels
            assert m == before

    def test_bad_arrangements_rejected_before_the_message_changes(self):
        m = random_message(3, 2)
        before = _state(m)
        counts = [2, 0, 3]
        for labels in (
            [0, 2, 2, 0],  # too short
            [0, 2, 2, 0, 2, 2],  # too long
            [0, 0, 0, 2, 2],  # label 0 over its count
            [2, 2, 2, 2, 0],  # label 2 over its count, after label 0 is used up
            [0, 1, 2, 2, 0],  # label 1 has count 0
            [0, 3, 2, 2, 0],  # no label 3
            [0, 2.0, 2, 2, 0],
        ):
            with pytest.raises(ContractViolation):
                push_arrangement(m, labels, counts)
            assert _state(m) == before
        for bad in ([2, -1], [2, 1.0], [1 << 48, 1]):
            with pytest.raises(ParameterError):
                push_arrangement(m, [0, 0, 1], bad)
            with pytest.raises(ParameterError):
                pop_arrangement(m, bad)
            assert _state(m) == before

    def test_one_label_codes_nothing(self):
        m = random_message(2, 3)
        before = m.copy()
        push_arrangement(m, [1] * 9, [0, 9, 0])
        assert m == before
        assert pop_arrangement(m, [0, 9, 0]) == [1] * 9
        assert pop_arrangement(m, []) == []
        assert m == before


class TestShuffleKernels:
    """push_shuffle/pop_shuffle against the swap loop coded through
    push_uniforms/pop_uniforms: the same messages and permutations."""

    def test_messages_and_permutations_match_the_uniform_kernel(self):
        rng = random.Random(35)
        for _ in range(2000):
            n = rng.randrange(301)
            s = list(range(n))
            rng.shuffle(s)
            s = tuple(s)
            seed, words = rng.getrandbits(32), rng.randrange(8)
            a, b = random_message(seed, words), random_message(seed, words)
            push_shuffle(a, s)
            push_shuffle_by_uniforms(b, s)
            assert a == b
            assert pop_shuffle(a, n) == pop_shuffle_by_uniforms(b, n) == s
            assert a == b
            # Pops from a message holding other content, past its stack
            # into pad words.
            assert pop_shuffle(a, n) == pop_shuffle_by_uniforms(b, n)
            assert a == b and a.pad_consumed == b.pad_consumed

    @pytest.mark.parametrize("n", [2, 3, 17, 300])
    def test_running_short_raises_as_the_uniform_kernel(self, n):
        rng = random.Random(n)
        raised = 0
        for words in range(0, 160, 3):
            head = ans.HEAD_MIN | rng.getrandbits(48)
            tail = [rng.getrandbits(16) for _ in range(words)]
            a, b = Message(head, tail, None), Message(head, tail, None)
            try:
                expected = pop_shuffle_by_uniforms(b, n)
            except ans.MessageUnderflow:
                with pytest.raises(ans.MessageUnderflow):
                    pop_shuffle(a, n)
                raised += 1
            else:
                assert pop_shuffle(a, n) == expected
            assert a == b
        assert raised


class TestTableRate:
    """Table runs against the exact weights."""

    @given(_messages(), _exact_tables(1 << 20), st.integers(0, (1 << 14) - 1))
    @settings(max_examples=100, deadline=None)
    def test_table_run_rate_tracks_the_weights(self, m, table, offset):
        # The floors keep each probability within 2**-p of w/T, so a run
        # drawn from the weights costs at most 2**-16 nats per symbol more
        # than the ideal. The run holds every symbol about N*w/T times
        # (systematic sampling, within one of it), so a rare symbol whose
        # mass is off by up to a unit, up to one bit, is not over-counted:
        # that adds at most k bits per run of N.
        weights, _ = table
        count = 1 << 14
        total = sum(weights)
        cums = list(accumulate(weights, initial=0))
        xs = [
            bisect.bisect_right(cums, (j * count + offset) * total // count**2) - 1
            for j in range(count)
        ]
        before = m.length_bits
        push_symbols(m, ans.Table(weights), xs)
        ideal = sum(-math.log2(weights[x] / total) for x in xs)
        assert abs(m.length_bits - before - ideal) <= 1e-3 * count
