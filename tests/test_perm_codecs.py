import math
import random
from itertools import permutations

import pytest

from shufflecodec import perm_codecs, perms
from shufflecodec.ans import HEAD_MIN, Message, message_init, pop_uniforms, push_uniforms
from shufflecodec.canon import canonize
from shufflecodec.graphs import Graph
from shufflecodec.perm_codecs import uniform_l_coset_codec
from shufflecodec.perms import (
    SymmetricRuns,
    compose,
    coset_canon,
    element_rank,
    element_unrank,
    group_order,
    identity,
)

from conftest import random_message
from oracles import chain_elements, reference_chain, runs_chain, schreier_sims


def chain_codec(chain):
    """The coset codec of a chain on points: a group with no run."""
    return uniform_l_coset_codec(SymmetricRuns(chain.degree, (), chain))


class TestUniformS:
    """The uniform codec over S_n: the coset codec of the trivial group, a
    Fisher-Yates shuffle."""

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_sizes_cost_nothing(self, n):
        m = message_init()
        codec = uniform_l_coset_codec(SymmetricRuns(n, ()))
        before = m.length_bits
        codec.encode(m, identity(n))
        assert m.length_bits == before
        assert codec.decode(m) == identity(n)

    def test_identity_encodes_as_self_swaps(self):
        # The decode loop draws i = j-1 for every j exactly when the
        # permutation is the identity; check the encoder emits just that.
        n = 6
        m = message_init()
        uniform_l_coset_codec(SymmetricRuns(n, ())).encode(m, identity(n))
        for j in reversed(range(2, n + 1)):
            assert pop_uniforms(m, [j]) == [j - 1]
        assert m == message_init()

    def test_round_trip_exhaustive_small(self):
        for n in range(6):
            codec = uniform_l_coset_codec(SymmetricRuns(n, ()))
            for s in permutations(range(n)):
                m = random_message(seed=11, tail_words=4)
                snapshot = m.copy()
                codec.encode(m, s)
                assert codec.decode(m) == s
                assert m == snapshot

    def test_rate_s10(self, rng):
        codec = uniform_l_coset_codec(SymmetricRuns(10, ()))
        m = message_init()
        perms = [tuple(rng.sample(range(10), 10)) for _ in range(1000)]
        before = m.length_bits
        for s in perms:
            codec.encode(m, s)
        added = m.length_bits - before
        assert abs(added - 1000 * math.log2(math.factorial(10))) <= 4.0
        assert [codec.decode(m) for _ in perms] == perms[::-1]

    def test_decode_samples_uniformly(self):
        m = random_message(seed=3)
        codec = uniform_l_coset_codec(SymmetricRuns(3, ()))
        counts = {}
        n = 6000
        for _ in range(n):
            s = codec.decode(m)
            counts[s] = counts.get(s, 0) + 1
        assert set(counts) == set(permutations(range(3)))
        assert all(abs(c - n / 6) < 5 * math.sqrt(n / 6) for c in counts.values())


class TestUniformPermGrp:
    """Group members coded uniformly by their element_rank digits, one
    push_uniforms digit per chain level, as criterion 9 codes them: log2 |H|
    bits a member."""

    @staticmethod
    def sizes(chain):
        return [len(lvl.orbit) for lvl in chain.levels]

    def test_s3_rate(self, rng):
        chain = runs_chain(3, [(0, 3)])
        members = sorted(chain_elements(chain))
        m = message_init()
        symbols = [members[rng.randrange(6)] for _ in range(2000)]
        before = m.length_bits
        for h in symbols:
            push_uniforms(m, element_rank(chain, h), self.sizes(chain))
        assert abs((m.length_bits - before) - 2000 * math.log2(6)) <= 2.0

    def test_path_automorphisms_one_bit(self, rng):
        # Aut of the path 0-1-2 is {e, 0<->2}.
        chain = schreier_sims(3, ((2, 1, 0),))
        m = message_init()
        symbols = [((2, 1, 0), (0, 1, 2))[rng.randrange(2)] for _ in range(1000)]
        before = m.length_bits
        for h in symbols:
            push_uniforms(m, element_rank(chain, h), self.sizes(chain))
        assert abs((m.length_bits - before) - 1000) <= 1.0

    def test_round_trip_all_members(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 6)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
            chain = schreier_sims(n, gens)
            sizes = self.sizes(chain)
            m = random_message(seed=n, tail_words=8)
            snapshot = m.copy()
            members = list(chain_elements(chain))
            for h in members:
                push_uniforms(m, element_rank(chain, h), sizes)
            for h in reversed(members):
                assert element_unrank(chain, pop_uniforms(m, sizes)) == h
            assert m == snapshot


class TestUniformLCoset:
    def test_single_coset_full_group(self, rng):
        chain = runs_chain(4, [(0, 4)])
        codec = chain_codec(chain)
        m = random_message(seed=2, tail_words=16)
        before = m.length_bits
        for _ in range(50):
            s = tuple(rng.sample(range(4), 4))
            codec.encode(m, s)
        assert abs(m.length_bits - before) <= 1.0
        assert codec.decode(m) == identity(4)

    def test_trivial_subgroup_full_rate(self, rng):
        chain = schreier_sims(5, ())
        codec = chain_codec(chain)
        m = random_message(seed=4, tail_words=16)
        perms = [tuple(rng.sample(range(5), 5)) for _ in range(500)]
        before = m.length_bits
        for s in perms:
            codec.encode(m, s)
        added = m.length_bits - before
        assert abs(added - 500 * math.log2(120)) <= 2.0
        assert [codec.decode(m) for _ in perms] == perms[::-1]

    def test_three_cosets_net_rate(self, rng):
        # |H| = 2 inside S3: three cosets, net rate log2(3).
        chain = schreier_sims(3, ((2, 1, 0),))
        codec = chain_codec(chain)
        m = random_message(seed=5, tail_words=64)
        before = m.length_bits
        for _ in range(1000):
            codec.encode(m, tuple(rng.sample(range(3), 3)))
        added = m.length_bits - before
        assert abs(added - 1000 * math.log2(3)) <= 2.0

    def test_encode_constant_on_cosets(self, rng):
        for trial in range(20):
            n = rng.randrange(2, 6)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
            chain = schreier_sims(n, gens)
            codec = chain_codec(chain)
            s = tuple(rng.sample(range(n), n))
            reference = None
            for h in chain_elements(chain):
                m = random_message(seed=trial, tail_words=32)
                codec.encode(m, compose(s, h))
                if reference is None:
                    reference = m
                else:
                    assert m == reference

    def test_decode_returns_canonical_member(self, rng):
        chain = schreier_sims(4, ((1, 0, 3, 2), (2, 3, 0, 1)))
        codec = chain_codec(chain)
        for trial in range(50):
            m = random_message(seed=trial, tail_words=32)
            snapshot = m.copy()
            s = tuple(rng.sample(range(4), 4))
            codec.encode(m, s)
            assert codec.decode(m) == coset_canon(chain, s)
            assert m == snapshot

    def test_underflow_near_initial_message_uses_pad(self):
        chain = schreier_sims(3, ())
        codec = chain_codec(chain)
        m = message_init()
        codec.encode(m, (2, 0, 1))
        assert m.pad_consumed == 0  # trivial H decodes nothing
        chain2 = runs_chain(6, [(0, 6)])
        m2 = message_init()
        chain_codec(chain2).encode(m2, (5, 4, 3, 2, 1, 0))
        assert m2.pad_consumed > 0

    def test_underflow_raises_without_pad(self):
        from shufflecodec.ans import Message, MessageUnderflow

        chain = runs_chain(6, [(0, 6)])
        with pytest.raises(MessageUnderflow):
            chain_codec(chain).encode(
                Message(pad_seed=None), (5, 4, 3, 2, 1, 0)
            )

    def test_only_the_input_permutation_is_checked(self, monkeypatch, rng):
        # The coset member and the shuffle that the codec builds itself are
        # coded without a second check: one is_perm call per encode (its
        # input), none per decode.
        chain = schreier_sims(6, ((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)))
        codec = chain_codec(chain)
        calls = []
        is_perm = perms.is_perm

        def counting(s):
            calls.append(tuple(s))
            return is_perm(s)

        monkeypatch.setattr(perms, "is_perm", counting)
        m = random_message(seed=9, tail_words=16)
        snapshot = m.copy()
        s = tuple(rng.sample(range(6), 6))
        codec.encode(m, s)
        assert calls == [s]
        assert codec.decode(m) == coset_canon(chain, s)
        assert calls == [s]
        assert m == snapshot

    def test_coset_step_composes_once_per_level(self, monkeypatch, rng):
        # Bounded work on a large group: the coset step on the chain of S_40
        # (39 levels) reads its ranks off the members and walks one
        # Schreier-tree element per level each way, so it makes at most a
        # few compose calls per level. Lex-min transversal elements, each
        # built over the levels below, took over a thousand. (The empty graph
        # on 40 vertices, which this chain used to come from, now canonizes
        # to a SymmetricRuns and builds no chain.)
        chain = runs_chain(40, [(0, 40)])
        assert len(chain.levels) == 39
        codec = chain_codec(chain)
        calls = [0]
        compose_ = perms.compose

        def counting(s, t):
            calls[0] += 1
            return compose_(s, t)

        monkeypatch.setattr(perms, "compose", counting)
        m = random_message(seed=11, tail_words=64)
        snapshot = m.copy()
        s = codec.decode(m)
        assert s == identity(40)
        assert calls[0] <= 4 * 39
        calls[0] = 0
        codec.encode(m, tuple(rng.sample(range(40), 40)))
        assert calls[0] <= 4 * 39
        assert m == snapshot


class TestRunsCoset:
    """uniform_l_coset_codec on SymmetricRuns: one arrangement of the group
    labels over the values, a run one group and a point outside the runs one
    of its own. The reference is the schreier_sims chain of the same group."""

    # Runs of two or more points with single points before, between and
    # after them, and the edge cases of no run and of one run over all.
    RUNS = [
        (7, [(1, 3), (4, 7)]),
        (8, [(0, 2), (5, 8)]),
        (9, [(2, 5)]),
        (6, [(0, 6)]),
        (5, []),
        (6, [(0, 2), (2, 4), (4, 6)]),
    ]

    @pytest.mark.parametrize("n, runs", RUNS)
    def test_decode_is_coset_canon_and_encode_constant_on_coset(self, n, runs):
        codec = uniform_l_coset_codec(SymmetricRuns(n, runs))
        ref = runs_chain(n, runs)
        rng = random.Random(n * 31 + len(runs))
        elements = list(chain_elements(ref))
        for trial in range(10):
            s = tuple(rng.sample(range(n), n))
            start = random_message(seed=trial, tail_words=16)
            reference = None
            for h in rng.sample(elements, min(len(elements), 12)):
                m = start.copy()
                codec.encode(m, compose(s, h))
                if reference is None:
                    reference = m.copy()
                assert m == reference
            assert codec.decode(m) == coset_canon(ref, s)
            assert m == start

    @pytest.mark.parametrize("n, runs", RUNS)
    def test_net_rate(self, n, runs):
        group = SymmetricRuns(n, runs)
        codec = uniform_l_coset_codec(group)
        ref = runs_chain(n, runs)
        rng = random.Random(5)
        m = random_message(seed=7, tail_words=16)
        before = m.length_bits
        cosets = [tuple(rng.sample(range(n), n)) for _ in range(300)]
        for s in cosets:
            codec.encode(m, s)
        assert group_order(group) == group_order(ref)
        exact = math.log2(math.factorial(n) // group_order(ref))
        assert abs(m.length_bits - before - 300 * exact) <= 1e-3 * 300 * n
        assert [codec.decode(m) for _ in cosets] == [
            coset_canon(ref, s) for s in reversed(cosets)
        ]

    def test_no_runs_codes_the_shuffle_of_uniform_s(self, rng, monkeypatch):
        # With no run the SymmetricRuns cosets are the permutations, and the
        # trivial group codes the trivial chain's Fisher-Yates shuffle, byte
        # for byte, with no arrangement draw.
        def refuse(*args):
            raise AssertionError("arrangement draw reached")

        monkeypatch.setattr(perm_codecs, "pop_arrangement", refuse)
        monkeypatch.setattr(perm_codecs, "push_arrangement", refuse)
        trivial = chain_codec(schreier_sims(9, ()))
        no_runs = uniform_l_coset_codec(SymmetricRuns(9, []))
        for trial in range(10):
            s = tuple(rng.sample(range(9), 9))
            start = random_message(seed=trial, tail_words=4)
            a, b = start.copy(), start.copy()
            trivial.encode(a, s)
            no_runs.encode(b, s)
            assert b == a
            assert no_runs.decode(b) == s
            assert b == start

    def test_bad_input_rejected_before_the_message_changes(self):
        m = random_message(seed=1, tail_words=4)
        before = m.copy()
        for runs in ([(0, 2)], []):
            codec = uniform_l_coset_codec(SymmetricRuns(4, runs))
            with pytest.raises(perms.DegreeMismatch):
                codec.encode(m, (0, 1, 2))
            with pytest.raises(ValueError):
                codec.encode(m, (0, 1, 1, 3))
        assert m == before


def cliques(*sizes):
    """Disjoint cliques of the given sizes."""
    edges, v = [], 0
    for k in sizes:
        edges += [(v + i, v + j) for i in range(k) for j in range(i + 1, k)]
        v += k
    return Graph(v, edges)


class TestBlockChainCoset:
    """uniform_l_coset_codec on a twin graph's group: runs, and a chain that
    permutes whole blocks. The reference is the degree-n schreier_sims chain
    of the runs' generators and the chain's labels lifted blockwise."""

    @pytest.mark.parametrize(
        "g",
        [
            cliques(2, 2),
            Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            cliques(3, 3),
            cliques(2, 2, 2),
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            Graph(6, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 5)]),
        ],
        ids=["2K2", "C4", "2K3", "3K2", "P5", "K2,2+2"],
    )
    def test_exhaustive_over_the_symmetric_group(self, g):
        # Every permutation of S_n: encode is constant on each coset,
        # distinct cosets give distinct messages, decode returns the
        # reference's lex-min member and the start message comes back.
        group = canonize(g).aut_group
        assert group.blocks is not None
        ref = reference_chain(group)
        assert group_order(ref) == group_order(group)
        codec = uniform_l_coset_codec(group)
        start = Message(HEAD_MIN + 987654321, [7, 40000, 123, 9, 65535, 1, 2, 3], None)
        by_coset = {}
        for s in permutations(range(g.n)):
            m = start.copy()
            codec.encode(m, s)
            canon = coset_canon(ref, s)
            written = (m.head, tuple(m.tail))
            assert by_coset.setdefault(canon, written) == written
            assert codec.decode(m) == canon
            assert m == start
        assert len(by_coset) == math.factorial(g.n) // group_order(group)
        assert len(set(by_coset.values())) == len(by_coset)
