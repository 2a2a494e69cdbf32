import math
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflecodec import perms
from shufflecodec.canon import canonize, canonize_string
from shufflecodec.compress import compress_corpus
from shufflecodec.datasets import Corpus
from shufflecodec.graphs import Graph
from shufflecodec.perm_codecs import uniform_l_coset_codec
from shufflecodec.perms import (
    DegreeMismatch,
    NotInGroup,
    ChainLevel,
    PermGroup,
    SymmetricRuns,
    compose,
    coset_canon,
    coset_rank,
    coset_unrank,
    element_rank,
    element_unrank,
    group_order,
    identity,
    inverse,
    smallest_moved,
)
from shufflecodec.perms import schreier_sims as complete_chain

from conftest import random_message
from families import SYM11
from oracles import (
    chain_elements,
    orbit_of,
    run_generators,
    run_transpositions,
    runs_chain,
    schreier_sims,
)


def closure(n, gens):
    """Brute-force group closure; the independent oracle for orders."""
    group = {identity(n)}
    frontier = list(group)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = compose(g, h)
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    return group


def perm_strategy(n):
    return st.permutations(range(n)).map(tuple)


def digit_tuples(chain):
    """Every digit tuple of the chain, in mixed-radix order."""
    return product(*(range(len(lvl.orbit)) for lvl in chain.levels))


def coset_members(chain, s):
    """coset_unrank from s of every digit tuple, in mixed-radix order."""
    return [coset_unrank(chain, s, d) for d in digit_tuples(chain)]


class TestPermOps:
    def test_compose_three_cycle(self):
        assert compose((2, 0, 1), (2, 0, 1)) == (1, 2, 0)

    @given(st.integers(1, 8).flatmap(lambda n: perm_strategy(n)))
    def test_identity_neutral(self, s):
        e = identity(len(s))
        assert compose(s, e) == s
        assert compose(e, s) == s

    @given(st.integers(1, 8).flatmap(lambda n: perm_strategy(n)))
    def test_inverse_law(self, s):
        assert compose(s, inverse(s)) == identity(len(s))
        assert compose(inverse(s), s) == identity(len(s))

    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(perm_strategy(n), perm_strategy(n), perm_strategy(n))
        )
    )
    def test_associativity(self, sts):
        s, t, u = sts
        assert compose(compose(s, t), u) == compose(s, compose(t, u))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            compose((0, 1), (0, 1, 2))

    def test_smallest_moved(self):
        assert smallest_moved((0, 1, 2)) is None
        assert smallest_moved((0, 2, 1)) == 1


class TestSchreierSims:
    def test_s3_from_generators(self):
        gens = ((1, 0, 2), (0, 2, 1))
        chain = schreier_sims(3, gens)
        assert group_order(chain) == len(closure(3, gens)) == 6

    def test_generator_of_another_degree_refused(self):
        with pytest.raises(DegreeMismatch, match="generator degree 3 != group degree 4"):
            PermGroup(4, ((1, 0, 2, 3), (1, 0, 2)), ())

    def test_trivial_group(self):
        chain = schreier_sims(4, ())
        assert group_order(chain) == 1
        assert chain.levels == ()

    def test_klein_four(self):
        gens = ((1, 0, 3, 2), (2, 3, 0, 1))
        chain = schreier_sims(4, gens)
        assert group_order(chain) == len(closure(4, gens)) == 4

    def test_symmetric_group_order(self):
        chain = runs_chain(8, [(0, 8)])
        assert group_order(chain) == math.factorial(8)

    def test_random_generator_sets_vs_bruteforce(self):
        rng = random.Random(1234)
        for _ in range(100):
            n = rng.randint(1, 7)
            k = rng.randint(0, 3)
            gens = tuple(
                tuple(rng.sample(range(n), n)) for _ in range(k)
            )
            assert group_order(schreier_sims(n, gens)) == len(closure(n, gens))

    def test_orders_vs_sympy(self):
        from sympy.combinatorics import Permutation, PermutationGroup

        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(2, 9)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
            ours = group_order(schreier_sims(n, gens))
            theirs = PermutationGroup([Permutation(list(g)) for g in gens]).order()
            assert ours == theirs

    def test_deterministic_for_fixed_input(self):
        gens = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))
        a = schreier_sims(6, gens)
        b = schreier_sims(6, gens)
        assert [lvl.point for lvl in a.levels] == [lvl.point for lvl in b.levels]
        assert [lvl.orbit for lvl in a.levels] == [lvl.orbit for lvl in b.levels]
        s = (3, 5, 0, 2, 1, 4)
        assert coset_members(a, s) == coset_members(b, s)

    def test_chain_independent_of_generators(self):
        # Points, orbits and the lexicographic order of every coset, and so
        # every coset code, depend only on the group: from any member of
        # s*H, coset_unrank enumerates sorted(s*H) for two generating lists.
        pairs = [(5, run_generators(5, [(0, 5)]), run_transpositions(5, [(0, 5)]))]
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(2, 6)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
            other = gens[::-1] + [compose(gens[0], gens[-1])]
            pairs.append((n, gens, other))
        for n, a, b in pairs:
            members = closure(n, a)
            s = tuple(rng.sample(range(n), n))
            coset = sorted(compose(s, h) for h in members)
            ca, cb = schreier_sims(n, a), schreier_sims(n, b)
            assert [(l.point, l.orbit) for l in ca.levels] == [
                (l.point, l.orbit) for l in cb.levels
            ]
            for chain in (ca, cb):
                assert coset_members(chain, rng.choice(coset)) == coset

    def test_element_unrank_enumerates_the_group_in_order(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(2, 6)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
            chain = schreier_sims(n, gens)
            want = sorted(closure(n, gens))
            assert [element_unrank(chain, d) for d in digit_tuples(chain)] == want
            assert list(chain_elements(chain)) == want

    def test_coset_rank_inverts_coset_unrank(self):
        rng = random.Random(78)
        for _ in range(40):
            n = rng.randint(2, 6)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 2)))
            chain = schreier_sims(n, gens)
            s = tuple(rng.sample(range(n), n))
            for d in digit_tuples(chain):
                t = coset_unrank(chain, s, d)
                assert coset_rank(chain, t) == d
                assert coset_unrank(chain, t, d) == t

    def test_base_points_strictly_increase(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 8)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
            chain = schreier_sims(n, gens)
            points = [lvl.point for lvl in chain.levels]
            assert points == sorted(set(points))


RANDOM = random.Random


class TestKnownOrderCompletion:
    """perms.schreier_sims completes the chain on 0..n-1 from generators that
    are strong relative to a given base, by sifting them and then seeded
    random members until the order the base's levels give is reached. The
    reference is the oracle's full Schreier-Sims over the same generators."""

    # The smallest case the generators do not complete when sifted alone:
    # S4, from generators strong relative to the base (1, 3, 2).
    PINNED = PermGroup(4, ((1, 0, 2, 3), (2, 1, 3, 0), (2, 1, 0, 3)), (1, 3, 2))

    @staticmethod
    def seeded(monkeypatch, offset, draws=None):
        """Rebind perms.random.Random to one whose seed is moved by offset
        and which counts its draws in draws."""

        class Shifted(RANDOM):
            def __init__(self, seed):
                super().__init__(seed + offset)

            def choice(self, seq):
                if draws is not None:
                    draws.append(1)
                return super().choice(seq)

        monkeypatch.setattr(perms.random, "Random", Shifted)

    def test_equals_the_oracle_on_relabeled_strong_sets(self, monkeypatch):
        # An oracle chain's labels are strong relative to its base points;
        # relabeled by r, they are strong relative to the images under r.
        rng = random.Random(31)
        draws = []
        self.seeded(monkeypatch, 0, draws)
        needed_random = 0
        for _ in range(1500):
            n = rng.randint(3, 7)
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
            ref = schreier_sims(n, gens)
            r = tuple(rng.sample(range(n), n))
            labels = tuple(compose(r, compose(g, inverse(r))) for g in ref.labels())
            base = tuple(r[lvl.point] for lvl in ref.levels)
            del draws[:]
            chain = complete_chain(PermGroup(n, labels, base))
            needed_random += bool(draws)
            assert chain == schreier_sims(n, labels)  # base points, orbits, group
        assert needed_random > 100

    def test_smallest_case_needing_random_members(self, monkeypatch):
        chain = complete_chain(self.PINNED)
        assert chain == schreier_sims(4, self.PINNED.generators)
        assert group_order(chain) == 24

        class NoRandom(random.Random):
            def choice(self, seq):
                raise LookupError("random member drawn")

        monkeypatch.setattr(perms.random, "Random", NoRandom)
        with pytest.raises(LookupError):
            complete_chain(self.PINNED)

    def test_seed_changes_no_chain_and_no_bytes(self, monkeypatch):
        corpus = Corpus(SYM11, "SYM11", False, False)
        results = []
        for offset in (0, 1, 2):
            self.seeded(monkeypatch, offset)
            groups = [canonize(g).aut_group for g in corpus.graphs]
            results.append((complete_chain(self.PINNED), groups, compress_corpus(corpus)[0]))
        assert all(group.blocks is not None for group in results[0][1])
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize("base", [(0, 0), (3,), (-1,), (1, 2, 1)])
    def test_base_points_repeated_or_out_of_range_refused(self, base):
        with pytest.raises(ValueError, match="base"):
            PermGroup(3, ((1, 0, 2),), base)


class TestCosetCanon:
    def test_trivial_subgroup_fixes_input(self):
        chain = schreier_sims(4, ())
        s = (2, 0, 3, 1)
        assert coset_canon(chain, s) == s

    def test_full_group_gives_identity(self):
        chain = runs_chain(5, [(0, 5)])
        assert coset_canon(chain, (4, 2, 0, 1, 3)) == identity(5)

    def test_two_element_subgroup_example(self):
        # H = {e, 0<->2} on 3 points; the coset of (2,1,0) contains the identity.
        chain = schreier_sims(3, ((2, 1, 0),))
        assert coset_canon(chain, (2, 1, 0)) == (0, 1, 2)

    def test_lex_min_constant_and_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 6)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 2)))
            members = closure(n, gens)
            if len(members) > 120:
                continue
            chain = schreier_sims(n, gens)
            for _ in range(10):
                s = tuple(rng.sample(range(n), n))
                canon = coset_canon(chain, s)
                coset = {compose(s, h) for h in members}
                assert canon == min(coset)
                assert all(coset_canon(chain, sh) == canon for sh in coset)
                assert coset_canon(chain, canon) == canon

    def test_degree_mismatch(self):
        chain = schreier_sims(3, ())
        with pytest.raises(DegreeMismatch):
            coset_canon(chain, (0, 1, 2, 3))


class TestRankUnrank:
    def test_trivial_group(self):
        chain = schreier_sims(3, ())
        assert element_rank(chain, identity(3)) == ()
        assert element_unrank(chain, ()) == identity(3)

    def test_order_six_bijection(self):
        gens = ((1, 0, 2), (0, 2, 1))
        chain = schreier_sims(3, gens)
        sizes = [len(lvl.orbit) for lvl in chain.levels]
        tuples = [()]
        for size in sizes:
            tuples = [t + (i,) for t in tuples for i in range(size)]
        image = {element_unrank(chain, t) for t in tuples}
        assert image == closure(3, gens)

    def test_exhaustive_round_trip_s7(self):
        chain = runs_chain(7, [(0, 7)])
        assert group_order(chain) == 5040
        count = 0
        for h in chain_elements(chain):
            assert element_unrank(chain, element_rank(chain, h)) == h
            count += 1
        assert count == 5040

    def test_round_trip_random_groups(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(2, 7)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
            members = closure(n, gens)
            chain = schreier_sims(n, gens)
            assert group_order(chain) == len(members)
            for h in members:
                assert element_unrank(chain, element_rank(chain, h)) == h

    def test_bad_input_rejected(self):
        # One chain of S2 x S3 on five points: a wrong degree, a
        # non-permutation, a non-member and malformed index tuples.
        chain = runs_chain(5, [(0, 2), (2, 5)])
        with pytest.raises(DegreeMismatch):
            coset_canon(chain, (0, 1, 2, 3))
        with pytest.raises(DegreeMismatch):
            element_rank(chain, (0, 1, 2, 3))
        with pytest.raises(NotInGroup):
            element_rank(chain, (0, 0, 2, 3, 4))
        with pytest.raises(NotInGroup):
            element_rank(chain, (2, 1, 0, 3, 4))
        with pytest.raises(ValueError):
            element_unrank(chain, (0, 3, 0))
        with pytest.raises(ValueError):
            element_unrank(chain, (0, 0))

    def test_non_member_detected(self):
        chain = schreier_sims(4, ((1, 0, 3, 2),))
        with pytest.raises(NotInGroup):
            element_rank(chain, (1, 2, 3, 0))


class TestOrbits:
    def test_trivial_group_orbit(self):
        assert orbit_of(5, (), 3) == {3}

    def test_symmetric_group_transitive(self):
        assert orbit_of(3, run_transpositions(3, [(0, 3)]), 0) == {0, 1, 2}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            orbit_of(3, (), 3)

    def test_orbits_partition_matches_bruteforce(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            gens = tuple(tuple(rng.sample(range(n), n)) for _ in range(2))
            members = closure(n, gens)
            for point in range(n):
                assert orbit_of(n, gens, point) == {h[point] for h in members}


def test_chain_handles_all_subgroups_of_s4():
    # Every subgroup of S4 arises as a closure of some generator pair; check
    # order, membership ranking, and lex-min cosets against enumeration.
    all_perms = [tuple(p) for p in permutations(range(4))]
    seen_orders = set()
    for g1 in all_perms:
        for g2 in all_perms:
            members = closure(4, (g1, g2))
            chain = schreier_sims(4, (g1, g2))
            assert group_order(chain) == len(members)
            seen_orders.add(len(members))
            canon = coset_canon(chain, (3, 2, 1, 0))
            assert canon == min(compose((3, 2, 1, 0), h) for h in members)
    assert {1, 2, 3, 4, 6, 8, 12, 24} <= seen_orders


def test_deep_schreier_tree_reps():
    # One 1500-cycle: the Schreier tree is a path of depth 1499, deeper than
    # the interpreter's recursion limit, so any_rep must walk it iteratively.
    n = 1500
    cycle = tuple(range(1, n)) + (0,)
    lvl = ChainLevel(0, n)
    lvl.grow((cycle,))
    for w in reversed(range(n)):
        assert lvl.any_rep(w)[0] == w
    chain = complete_chain(PermGroup(n, (cycle,), (0,)))
    for k in (1, 311, 750, 1499):
        h = tuple((i + k) % n for i in range(n))
        assert element_rank(chain, h) == (k,)
        assert element_unrank(chain, (k,)) == h


class TestSymmetricRunsChain:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.lists(st.integers(0, k - 1), max_size=40)))
    def test_equals_schreier_sims_chain(self, xs):
        # The order of a sorted sequence's automorphism group, read from its
        # runs, is that of the chain schreier_sims builds from the adjacent
        # transpositions within the runs.
        c = canonize_string(xs)
        ref = runs_chain(len(xs), c.aut_group.runs)
        assert group_order(c.aut_group) == group_order(ref) == c.aut_order

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(st.integers(0, k - 1), max_size=30)
        ),
        st.randoms(use_true_random=False),
    )
    def test_closed_forms_equal_the_level_walk(self, xs, rnd):
        # SymmetricRuns has closed forms where a chain walks its levels: the
        # order is the product of the k!, and the coset codec decodes s to s
        # with the values inside each run sorted. Both must agree with the
        # level walk over the reference chain, and the member of the group
        # that takes s to its canonical form must rank and unrank there.
        group = canonize_string(xs).aut_group
        n = group.degree
        ref = runs_chain(n, group.runs)
        assert group_order(group) == group_order(ref)
        s = tuple(rnd.sample(range(n), n))
        closed = list(s)
        for a, b in group.runs:
            closed[a:b] = sorted(s[a:b])
        codec = uniform_l_coset_codec(group)
        m = random_message(seed=len(xs), tail_words=8)
        codec.encode(m, s)
        canon = codec.decode(m)
        assert tuple(canon) == tuple(closed) == coset_canon(ref, s)
        h = compose(inverse(s), canon)
        assert element_unrank(ref, element_rank(ref, h)) == h

    def test_block_chain_validated(self):
        # Runs (1, 3) and (4, 6) make blocks of sizes 1, 2, 1, 2 on 6 points:
        # a chain swapping blocks 1 and 3 is accepted, one of another degree
        # or swapping blocks of sizes 1 and 2 is refused.
        ok = schreier_sims(4, ((0, 3, 2, 1),))
        group = SymmetricRuns(6, [(1, 3), (4, 6)], ok)
        assert group.block_spans() == [(0, 1), (1, 3), (3, 4), (4, 6)]
        assert group_order(group) == 2 * 2 * 2
        with pytest.raises(ValueError):
            SymmetricRuns(6, [(1, 3), (4, 6)], schreier_sims(6, ()))
        with pytest.raises(ValueError):
            SymmetricRuns(6, [(1, 3), (4, 6)], schreier_sims(4, ((1, 0, 2, 3),)))

    def test_chains_equal_when_their_groups_are(self):
        # C4 and the Klein group share degree, base point and orbit, so only
        # membership of the labels tells them apart. One group from two
        # generating lists gives equal chains with one hash.
        c4 = schreier_sims(4, ((1, 2, 3, 0),))
        klein = schreier_sims(4, ((1, 0, 3, 2), (2, 3, 0, 1)))
        assert [(l.point, l.orbit) for l in c4.levels] == [
            (l.point, l.orbit) for l in klein.levels
        ]
        assert c4 != klein and klein != c4
        assert c4 == schreier_sims(4, ((3, 0, 1, 2), (2, 3, 0, 1)))
        s5 = [schreier_sims(5, gens) for gens in (
            run_generators(5, [(0, 5)]), run_transpositions(5, [(0, 5)])
        )]
        assert s5[0] == s5[1] and hash(s5[0]) == hash(s5[1])
        assert schreier_sims(4, ()) != schreier_sims(5, ())
        assert SymmetricRuns(4, (), c4) != SymmetricRuns(4, (), klein)

    def test_runs_validated(self):
        bad = (
            [(0, 3), (2, 4)], [(2, 4), (0, 2)], [(0, 5)], [(1, 1)],
            [(0.0, 2.0)], [(0, 2.0)], [(False, True)], [(0, True)],
        )
        for runs in bad:
            with pytest.raises(ValueError):
                SymmetricRuns(4, runs)
        for n in (4.0, True, -1):
            with pytest.raises(ValueError):
                SymmetricRuns(n, [])
