import math
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import combinations, permutations

import pytest

from shufflecodec import canon, graphs
from shufflecodec.ans import message_init
from shufflecodec.canon import (
    apply_sequence,
    canonize,
    canonize_string,
)
from shufflecodec.compress import compress_corpus, decompress_corpus
from shufflecodec.datasets import Corpus
from shufflecodec.graphs import PAIR_TABLE_ORDER, Graph, apply_perm
from shufflecodec.models import ErParams, erdos_renyi_codec
from shufflecodec.perms import (
    SymmetricRuns,
    compose,
    coset_rank,
    coset_unrank,
    group_order,
    identity,
    inverse,
    trivial_group,
)

from families import FAMILIES, complete_bipartite, copies, cycle, grid, hypercube
from oracles import (
    SizeError,
    assert_graph_layout,
    assert_pairs_shared,
    canon_equal,
    canonize_bruteforce,
    canonize_by_quotient,
    canonize_via_embedding,
    embed_edge_colors,
    group_generators,
    ranks_by_dict,
    refine_pass_by_pairs,
    schreier_sims,
)


def random_graph(rng, n, p=0.5, attr_alphabet=0, edge_alphabet=0):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    vertex_attrs = (
        [rng.randrange(attr_alphabet) for _ in range(n)] if attr_alphabet else None
    )
    edge_attrs = (
        {e: rng.randrange(edge_alphabet) for e in edges} if edge_alphabet else None
    )
    return Graph(n, edges, vertex_attrs, edge_attrs)


def random_loopy_graph(rng, n):
    """A graph with loops, optional vertex attributes and optional edge
    attributes drawn from {0, 7}."""
    p = rng.choice([0.1, 0.3, 0.6])
    edges = [
        (i, j) for j in range(n) for i in range(j + 1)
        if rng.random() < (0.3 if i == j else p)
    ]
    vertex_attrs = [rng.choice([0, 2, 3]) for _ in range(n)] if rng.random() < 0.5 else None
    edge_attrs = {e: rng.choice([0, 7]) for e in edges} if rng.random() < 0.7 else None
    return Graph(n, edges, vertex_attrs, edge_attrs)


def all_simple_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


class TestGraphConstruction:
    def test_an_edge_named_twice_in_the_attributes_rejected(self):
        with pytest.raises(ValueError, match="named twice"):
            Graph(2, [(0, 1)], edge_attrs={(0, 1): 0, (1, 0): 1})
        with pytest.raises(ValueError, match="named twice"):
            Graph(2, [(0, 1)], edge_attrs={(0, 1): 1, (1, 0): 1})
        g = Graph(2, [(0, 1)], edge_attrs={(1, 0): 1})
        assert g.edges == ((0, 1),) and g.edge_attrs == (1,)

    @pytest.mark.parametrize(
        "edges",
        [
            [(0.0, 1)],
            [(0, 1.0)],
            [(True, 2)],
            [(0, 1), (1, 2.0)],
            [("a", 1)],
            [("a", "b")],
            [(0, 1), (None, 2)],
        ],
    )
    def test_vertex_ids_that_are_not_ints_rejected(self, edges):
        with pytest.raises(ValueError, match="not a pair of ints"):
            Graph(3, edges)

    def test_attribute_keys_that_are_not_int_pairs_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(0, 'x'\) is not a pair of ints"):
            Graph(2, [(0, 1)], edge_attrs={(0, "x"): 1})

    @pytest.mark.parametrize("n", [-1, 2.0, True, None, "3"])
    def test_vertex_counts_that_are_not_nonnegative_ints_rejected(self, n):
        with pytest.raises(ValueError, match="vertex count"):
            Graph(n, [])
        with pytest.raises(ValueError, match="vertex count"):
            Graph(n, [(0, 1)])

    def test_out_of_range_vertex_ids_rejected(self):
        for edges in ([(0, 3)], [(-1, 0)]):
            with pytest.raises(ValueError, match="not a pair of ints"):
                Graph(3, edges)

    @pytest.mark.parametrize("attrs", [[0, 1.5, 0], [0, 1.0, 0], [0, True, 0], [0, "1", 0]])
    def test_vertex_attributes_that_are_not_ints_rejected(self, attrs):
        with pytest.raises(ValueError, match="vertex attributes must be ints"):
            Graph(3, [(0, 1)], vertex_attrs=attrs)

    @pytest.mark.parametrize("attr", [1.5, 1.0, True, None])
    def test_edge_attributes_that_are_not_ints_rejected(self, attr):
        with pytest.raises(ValueError, match="edge attributes must be ints"):
            Graph(3, [(0, 1), (1, 2)], edge_attrs={(0, 1): 0, (1, 2): attr})

    def test_attribute_keys_take_the_edge_tuples(self):
        # (0.0, 1) equals (0, 1), so it names that edge; the label goes to
        # the edge's own int pair, and the graph canonizes.
        g = Graph(2, [(0, 1)], edge_attrs={(0.0, 1): 2})
        ((key,), (label,)) = g.edges, g.edge_attrs
        assert key == (0, 1) and all(type(x) is int for x in key) and label == 2
        assert_graph_layout(g)
        assert canonize(g).aut_order == 2

    def test_negative_attributes_rejected(self):
        with pytest.raises(ValueError, match="negative vertex attribute"):
            Graph(2, [], vertex_attrs=[0, -1])
        with pytest.raises(ValueError, match="negative edge attribute"):
            Graph(2, [(0, 1)], edge_attrs={(0, 1): -1})


class TestApplyPerm:
    def test_worked_example(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        out = apply_perm((2, 0, 1, 3), g)
        assert out.edges == ((0, 1), (0, 2), (1, 2), (1, 3))
        assert_graph_layout(out)

    def test_identity_action(self):
        g = Graph(3, [(0, 1)], vertex_attrs=[5, 6, 7])
        assert apply_perm(identity(3), g) == g

    def test_action_laws_random(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, attr_alphabet=3, edge_alphabet=2)
            s = tuple(rng.sample(range(n), n))
            t = tuple(rng.sample(range(n), n))
            assert apply_perm(s, apply_perm(t, g)) == apply_perm(compose(s, t), g)
            assert apply_perm(s, apply_perm(inverse(s), g)) == g
            assert_graph_layout(apply_perm(s, g))

    def test_attr_positions_follow_vertices(self):
        g = Graph(3, [(0, 1)], vertex_attrs=[9, 8, 7])
        out = apply_perm((2, 0, 1), g)
        assert out.vertex_attrs == (8, 7, 9)

    def test_result_equals_the_validated_graph(self):
        # apply_perm builds its result without checking the edges again; it
        # must be the Graph the checking constructor builds from the same
        # relabeled parts.
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(0, 9)
            g = random_graph(rng, n, attr_alphabet=rng.choice([0, 3]), edge_alphabet=2)
            s = tuple(rng.sample(range(n), n))
            out = apply_perm(s, g)
            vertex_attrs = None
            if g.vertex_attrs is not None:
                vertex_attrs = [g.vertex_attrs[inverse(s)[v]] for v in range(n)]
            want = Graph(
                n,
                [(s[i], s[j]) for i, j in g.edges],
                vertex_attrs,
                {(s[i], s[j]): a for (i, j), a in zip(g.edges, g.edge_attrs)},
            )
            assert out == want and out.key() == want.key()
            assert type(out.edges) is tuple
            assert_graph_layout(out)
            assert out.vertex_attrs is None or type(out.vertex_attrs) is tuple

    def test_non_permutations_rejected(self):
        from shufflecodec.perms import DegreeMismatch

        g = Graph(2, [], [1, 2])
        for s in ((0, 0), (1, 1), (0, 2), (-1, 0)):
            with pytest.raises(ValueError, match="not a permutation"):
                apply_perm(s, g)
        with pytest.raises(DegreeMismatch):
            apply_perm((0, 1, 2), g)

    def test_non_integer_entries_rejected(self):
        # Floats and bools compare equal to indices but are not vertices.
        g = Graph(2, [(0, 1)])
        for s in ((1.0, 0.0), (1, 0.0), (True, False), (1, False)):
            with pytest.raises(ValueError, match="not a permutation"):
                apply_perm(s, g)
        assert apply_perm((1, 0), g).edges == ((0, 1),)

    def test_apply_sequence_rejects_non_permutations(self):
        from shufflecodec.perms import DegreeMismatch

        for s in ((0, 0), (1, 1), (0, 2)):
            with pytest.raises(ValueError, match="not a permutation"):
                apply_sequence(s, (5, 6))
        with pytest.raises(DegreeMismatch):
            apply_sequence((0,), (5, 6))
        assert apply_sequence((1, 0), (5, 6)) == (6, 5)
        assert apply_sequence((1, 2, 0), "abc") == "cab"


class TestPairTable:
    # Graphs on at most PAIR_TABLE_ORDER vertices take their pairs from one
    # shared table; graphs above it build their own pairs, of the same values.
    def test_constructor_and_apply_perm_share_pairs(self):
        rng = random.Random(34)
        for n in (2, 9, 20, PAIR_TABLE_ORDER):
            g = random_graph(rng, n, p=min(0.5, 20 / n), edge_alphabet=3)
            pairs = [(j, i) for i, j in g.edges]
            rng.shuffle(pairs)
            again = Graph(n, pairs, None, dict(zip(pairs, rng.choices(range(3), k=len(pairs)))))
            s = tuple(rng.sample(range(n), n))
            moved = apply_perm(s, g)
            smaller = Graph(n - 1, [(i, j) for i, j in g.edges if j < n - 1])
            for a, b in ((g, again), (g, moved), (moved, again), (smaller, g), (moved, smaller)):
                assert_pairs_shared(a, b)

    @pytest.mark.parametrize("n", [PAIR_TABLE_ORDER, PAIR_TABLE_ORDER + 1])
    def test_edges_at_the_top_vertex(self, n):
        # The table's last row and the first row above it: the constructor,
        # apply_perm and the ER decoder build the pairs, order and key that
        # sorting the pairs by (j, i) gives.
        rng = random.Random(n)
        top = n - 1
        pairs = {(0, top), (top - 1, top), (top, top), (0, 0)}
        pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(300)}
        labels = {p: rng.randrange(4) for p in pairs}
        flipped = {(j, i): a for (i, j), a in labels.items()}
        g = Graph(n, flipped, None, flipped)
        want = tuple(sorted(pairs, key=lambda p: (p[1], p[0])))
        assert g.edges == want
        assert g.edge_attrs == tuple(labels[p] for p in want)
        assert g.key() == (n, (), tuple(sorted(pairs)), tuple(sorted(labels.items())))
        assert_graph_layout(g)
        s = tuple(rng.sample(range(n), n))
        moved = {tuple(sorted((s[i], s[j]))): a for (i, j), a in labels.items()}
        out = apply_perm(s, g)
        assert out.edges == tuple(sorted(moved, key=lambda p: (p[1], p[0])))
        assert out.key() == (n, (), tuple(sorted(moved)), tuple(sorted(moved.items())))
        assert_graph_layout(out)
        plain = Graph(n, pairs)
        codec = erdos_renyi_codec(ErParams(n, 0.01, self_loops=True))
        m = message_init()
        codec.encode(m, plain)
        decoded = codec.decode(m)
        assert decoded.edges == want and decoded.key() == plain.key()
        assert_graph_layout(decoded)

    def test_the_table_grows_to_the_cap_and_no_further(self, monkeypatch):
        monkeypatch.setattr(graphs, "_PAIRS", [])
        Graph(20, [(0, 19)])
        assert len(graphs._PAIRS) == 20 * 21 // 2
        rng = random.Random(5)
        big = random_graph(rng, 300, p=0.01)
        apply_perm(tuple(rng.sample(range(300), 300)), big)
        codec = erdos_renyi_codec(ErParams(300, 0.01))
        m = message_init()
        codec.encode(m, big)
        assert codec.decode(m) == big
        assert len(graphs._PAIRS) == 20 * 21 // 2
        Graph(PAIR_TABLE_ORDER + 1, [(0, PAIR_TABLE_ORDER)])
        Graph(PAIR_TABLE_ORDER, [(0, 0)])
        Graph(PAIR_TABLE_ORDER + 1, [(0, PAIR_TABLE_ORDER)])
        assert len(graphs._PAIRS) == 32896
        assert graphs._PAIRS == [(i, j) for j in range(PAIR_TABLE_ORDER) for i in range(j + 1)]

    def test_threads_grow_one_table(self, monkeypatch):
        # Four threads build graphs of rising order at once, with a thread
        # switch every microsecond: no row of the table is lost or repeated.
        monkeypatch.setattr(graphs, "_PAIRS", [])
        wrong = []

        def build():
            for n in range(1, PAIR_TABLE_ORDER + 1, 3):
                if Graph(n, {(0, n - 1), (n - 1, n - 1)}).edges[-1] != (n - 1, n - 1):
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert graphs._PAIRS == [(i, j) for j in range(PAIR_TABLE_ORDER) for i in range(j + 1)]

    def test_coding_sequences_builds_no_table(self):
        # A process that only shuffle-codes sequences builds no pair.
        code = (
            "from shufflecodec import ShuffleCodec, graphs, message_init, sequence_class,"
            " string_codec\n"
            "codec = ShuffleCodec(string_codec([1, 1], 30), sequence_class())\n"
            "m = message_init()\n"
            "codec.encode(m, [i % 2 for i in range(30)])\n"
            "assert codec.decode(m) == (0,) * 15 + (1,) * 15\n"
            "print(len(graphs._PAIRS))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"


class TestCanonize:
    def test_paper_graph_aut_order_two(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert canonize(g).aut_order == 2

    def test_triangle_fully_symmetric(self):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        c = canonize(g)
        assert c.aut_order == 6
        for s in permutations(range(3)):
            assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph

    def test_six_cycle(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        c = canonize(g)
        assert c.aut_order == 12
        for s in permutations(range(6)):
            assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph

    def test_canon_perm_maps_input_to_canon(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, rng.randint(0, 9), attr_alphabet=2)
            c = canonize(g)
            assert apply_perm(c.canon_perm, g) == c.canon_graph

    def test_aut_generators_fix_canon_graph(self):
        # The generators read off the group fix the canonical form and
        # generate a group of order aut_order.
        rng = random.Random(6)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9), p=0.3)
            c = canonize(g)
            gens = group_generators(c.aut_group)
            for a in gens:
                assert apply_perm(a, c.canon_graph) == c.canon_graph
            assert group_order(schreier_sims(g.n, gens)) == c.aut_order

    def test_one_search_per_graph(self, monkeypatch):
        # The automorphisms found on the input are conjugated onto the
        # canonical form; nothing searches the canonical graph again.
        calls = []
        search = canon._search

        def counted(g, *args):
            calls.append(g)
            return search(g, *args)

        monkeypatch.setattr(canon, "_search", counted)
        # C4 with two pendant leaves on each cycle vertex: the leaves of a
        # cycle vertex are twins, four classes in one cell, so the search
        # runs on the quotient, one vertex per cycle vertex and per class.
        edges = [(i, (i + 1) % 4) for i in range(4)]
        edges += [(i, 4 + 2 * i + t) for i in range(4) for t in range(2)]
        g = Graph(12, edges)
        c = canonize(g)
        assert c.canon_perm != identity(12) and c.aut_order == 8 * 2**4
        assert len(calls) == 1
        assert calls[0].n == 8

    def test_discrete_first_refinement_needs_one_pass_and_no_leaf_key(
        self, monkeypatch
    ):
        # A path with one odd vertex label: its initial coloring is not
        # discrete, one refinement pass makes it so. Refinement stops there,
        # and the single leaf is canonical without a key to compare.
        calls = []
        refine_pass = canon._refine_pass

        def counted_pass(*args):
            calls.append("_refine_pass")
            return refine_pass(*args)

        monkeypatch.setattr(canon, "_refine_pass", counted_pass)
        graph_key = Graph.key

        def counted_key(g):
            calls.append("key")
            return graph_key(g)

        monkeypatch.setattr(Graph, "key", counted_key)
        g = Graph(3, [(0, 1), (1, 2)], vertex_attrs=[0, 0, 1])
        c = canonize(g)
        assert calls == ["_refine_pass"]
        assert c.aut_order == 1
        for s in permutations(range(3)):
            assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph

    def test_refine_pass_equals_the_pass_by_pairs_on_searched_colorings(self):
        # Loops, vertex attributes and edge attributes with gaps: the pass
        # read off the edge list and the pass over sorted (neighbour color,
        # attribute) pairs give equal colorings, on the initial coloring and
        # on the colorings the search refines below it, up to 3 levels down.
        rng = random.Random(19)
        searched = 0
        for trial in range(400):
            g = random_loopy_graph(rng, rng.randint(1, 30))
            base = max(g.edge_attrs, default=0) + 1 if g.edge_attrs else 1
            colors = canon._initial_colors(g)
            assert canon._refine_pass(g, colors, base) == refine_pass_by_pairs(g, colors)
            colors = canon._refine(g, colors, base)
            for depth in range(3):
                if len(set(colors)) == g.n:
                    break
                v = rng.choice(canon._target_cell(colors))
                colors = canon._individualize(colors, v)
                assert canon._refine_pass(g, colors, base) == refine_pass_by_pairs(
                    g, colors
                )
                searched += 1
                colors = canon._refine(g, colors, base)
        assert searched > 100

    @pytest.mark.parametrize("kind", [int, tuple, list])
    def test_ranks_equal_the_dict_ranking(self, kind):
        # One sort of the indices and a pass over them gives the colors the
        # dict of distinct signatures gives, for the int keys of the first
        # coloring, the tuples of the twin quotient and the lists of a pass.
        rng = random.Random(35)
        for trial in range(500):
            width = rng.choice([1, 3, 50])
            if kind is int:
                sigs = [rng.randrange(-width, width) for _ in range(rng.randrange(40))]
            else:
                sigs = [
                    kind(rng.randrange(width) for _ in range(rng.randrange(4)))
                    for _ in range(rng.randrange(40))
                ]
            assert canon._ranks(sigs) == ranks_by_dict(sigs)

    def test_discrete_colorings_share_one_trivial_group_per_degree(self):
        rng = random.Random(36)
        for n in (0, 1, 12, 20, 300):
            g = Graph(n, [], vertex_attrs=list(range(n)))
            h = Graph(n, random_graph(rng, n, 0.3).edges, list(range(n)))
            assert canonize(g).aut_group == SymmetricRuns(n, ())
            assert canonize(g).aut_group is canonize(h).aut_group is trivial_group(n)

    def test_loopy_gapped_graphs_match_bruteforce(self):
        rng = random.Random(23)
        for trial in range(150):
            g = random_loopy_graph(rng, rng.randint(1, 6))
            c, bf = canonize(g), canonize_bruteforce(g)
            assert c.aut_order == bf.aut_order
            s = tuple(rng.sample(range(g.n), g.n))
            assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph
            assert canon_equal(c.canon_graph, bf.canon_graph)

    def test_canonical_form_is_built_when_read(self, monkeypatch):
        applied = []

        def counted(s, g):
            applied.append(s)
            return apply_perm(s, g)

        monkeypatch.setattr(canon, "apply_perm", counted)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_attrs=[0, 1, 2, 3])
        c = canonize(g)
        assert applied == [] and c.graph is g
        assert c.canon_graph == apply_perm(c.canon_perm, g)
        assert c.canon_graph is c.canon_graph
        assert applied == [c.canon_perm]

    def test_leaf_keys_only_once_a_second_leaf_exists(self, monkeypatch):
        # The 4-cycle reaches several leaves; keys are computed then, and the
        # result still matches the brute-force canonical form.
        keys = []
        graph_key = Graph.key

        def counted_key(g):
            keys.append(g)
            return graph_key(g)

        monkeypatch.setattr(Graph, "key", counted_key)
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        c = canonize(g)
        assert keys and c.aut_order == 8
        for s in permutations(range(4)):
            assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph

    def test_invariance_ten_thousand_pairs(self):
        rng = random.Random(7)
        for _ in range(10_000):
            n = rng.randint(1, 64)
            g = random_graph(rng, n, p=rng.choice([0.1, 0.5, 0.9]), attr_alphabet=3)
            s = tuple(rng.sample(range(n), n))
            assert canonize(apply_perm(s, g)).canon_graph == canonize(g).canon_graph

    def test_loops_as_vertex_flavor(self):
        g = Graph(3, [(0, 0), (0, 1)])
        h = Graph(3, [(2, 2), (1, 2)])
        assert canon_equal(g, h)
        assert not canon_equal(g, Graph(3, [(0, 1)]))

    def test_graphs_of_different_orders_unequal(self):
        # An isolated vertex more: equal edge sets, different n.
        assert not canon_equal(Graph(3, [(0, 1)]), Graph(4, [(0, 1)]))
        assert not canon_equal(Graph(0), Graph(1))

    def test_empty_and_tiny(self):
        assert canonize(Graph(0)).aut_order == 1
        assert canonize(Graph(1)).aut_order == 1
        assert canonize(Graph(2)).aut_order == 2

    def test_four_cycle_dihedral(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        c = canonize(g)
        assert c.aut_order == 8
        assert group_order(c.aut_group) == 8

    def test_apply_perm_degree_mismatch(self):
        from shufflecodec.perms import DegreeMismatch

        with pytest.raises(DegreeMismatch):
            apply_perm((0, 1), Graph(3))


class TestBruteforceOracle:
    def test_edgeless_three(self):
        assert canonize_bruteforce(Graph(3)).aut_order == 6

    def test_single_edge_orbit_size(self):
        g = Graph(3, [(0, 1)])
        images = {apply_perm(s, g).key() for s in permutations(range(3))}
        assert len(images) == 3
        assert canonize_bruteforce(g).aut_order == 2

    def test_size_limit(self):
        with pytest.raises(SizeError):
            canonize_bruteforce(Graph(10))

    def test_exhaustive_n4_agreement(self):
        for g in all_simple_graphs(4):
            bf = canonize_bruteforce(g)
            c = canonize(g)
            assert c.aut_order == bf.aut_order
            assert canon_equal(c.canon_graph, bf.canon_graph)

    def test_iso_classes_match_bruteforce_n4(self):
        by_bf = {}
        for g in all_simple_graphs(4):
            by_bf.setdefault(canonize_bruteforce(g).canon_graph.key(), []).append(
                canonize(g).canon_graph.key()
            )
        # equal canon within a class, distinct canon across classes
        reps = set()
        for keys in by_bf.values():
            assert len(set(keys)) == 1
            reps.add(keys[0])
        assert len(reps) == len(by_bf) == 11  # 11 graphs on 4 unlabeled vertices

    def test_orbit_stabilizer_n4(self):
        for g in all_simple_graphs(4):
            orbit = {apply_perm(s, g).key() for s in permutations(range(4))}
            assert len(orbit) * canonize(g).aut_order == math.factorial(4)


class TestStructuredOracle:
    def test_aut_completeness_structured_n6_to_8(self):
        rng = random.Random(99)
        for trial in range(80):
            n = rng.randint(6, 8)
            style = rng.randrange(4)
            if style == 0:
                g = random_graph(rng, n, rng.choice([0.15, 0.5, 0.85]))
            elif style == 1:  # disjoint cliques: large automorphism groups
                edges = []
                k = rng.randint(1, 3)
                for c in range(k):
                    vs = list(range(c * (n // k), (c + 1) * (n // k)))
                    edges += [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
                g = Graph(n, edges)
            elif style == 2:  # cycle plus chords
                edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
                for _ in range(rng.randrange(3)):
                    a, b = rng.sample(range(n), 2)
                    edges.add((min(a, b), max(a, b)))
                g = Graph(n, edges)
            else:
                g = Graph(
                    n,
                    [(i, i) for i in range(0, n, 3)] + [(0, 1), (1, 2)],
                    vertex_attrs=[i % 2 for i in range(n)],
                )
            c, bf = canonize(g), canonize_bruteforce(g)
            assert c.aut_order == bf.aut_order
            for a in group_generators(c.aut_group):
                assert apply_perm(a, c.canon_graph) == c.canon_graph

    def test_chain_identical_across_relabelings(self):
        # the coset codec's bitstream depends on the runs and on the block
        # chain's points, orbits and the lexicographic ranks of coset
        # members, so all must be labeling-independent; the generators and
        # Schreier trees come from whichever automorphisms the search found,
        # and no rank reads them
        def signature(group):
            chain = group.blocks
            if chain is None:
                return group.runs
            probe = random.Random(chain.degree)
            n = chain.degree
            members = [tuple(probe.sample(range(n), n)) for _ in range(5)]
            digits = [
                tuple(probe.randrange(len(l.orbit)) for l in chain.levels)
                for _ in range(5)
            ]
            return (
                group.runs,
                [(l.point, l.orbit) for l in chain.levels],
                [coset_rank(chain, s) for s in members],
                [coset_unrank(chain, s, d) for s in members for d in digits],
            )

        rng = random.Random(101)
        for trial in range(20):
            n = rng.randint(4, 16)
            kind = rng.randrange(3)
            if kind == 0:
                g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
            elif kind == 1:
                g = Graph(n, [(0, i) for i in range(1, n)])
            else:
                g = random_graph(rng, n, 0.2)
            ref = canonize(g)
            for _ in range(3):
                s = tuple(rng.sample(range(n), n))
                c2 = canonize(apply_perm(s, g))
                assert c2.canon_graph == ref.canon_graph
                assert signature(c2.aut_group) == signature(ref.aut_group)


class TestLabelIndependence:
    # These graphs refine to many equal-size cells. If the target cell among
    # them depended on vertex labels, relabelings would search different
    # trees and could reach different canonical forms.
    @pytest.mark.parametrize(
        "name, g", [("grid5x5", grid(5, 5)), ("Q4", hypercube(4))]
    )
    def test_relabelings_share_one_canonical_form(self, name, g):
        rng = random.Random(name)
        relabeled = [
            apply_perm(tuple(rng.sample(range(g.n), g.n)), g) for _ in range(12)
        ]
        canon = canonize(g).canon_graph
        assert all(canonize(h).canon_graph == canon for h in relabeled)
        data, _ = compress_corpus(Corpus(tuple(relabeled), name, False, False))
        assert list(decompress_corpus(data).graphs) == [canon] * len(relabeled)


def star(leaves):
    return complete_bipartite(1, leaves)


def hub(spokes, twins):
    """A hub joined to `spokes` vertices, each with `twins` pendant leaves."""
    edges = [(0, s) for s in range(1, spokes + 1)]
    edges += [
        (s, spokes + 1 + (s - 1) * twins + t)
        for s in range(1, spokes + 1)
        for t in range(twins)
    ]
    return Graph(1 + spokes * (1 + twins), edges)


def twin_blow_up(rng):
    """A random base graph whose vertices become classes of independent or
    clique twins, joined completely along base edges, with vertex labels;
    at most 8 vertices."""
    n = rng.randint(1, 8)
    classes, v = [], 0
    while v < n:
        size = min(rng.randint(1, 3), n - v)
        classes.append(list(range(v, v + size)))
        v += size
    edges = set()
    for a, ca in enumerate(classes):
        if rng.random() < 0.5:
            edges.update(combinations(ca, 2))
        for cb in classes[a + 1 :]:
            if rng.random() < 0.4:
                edges.update((u, v) for u in ca for v in cb)
    labels = [rng.randrange(2) for _ in classes]
    vertex_attrs = [labels[c] for c, cls in enumerate(classes) for _ in cls]
    if rng.random() < 0.3:
        vertex_attrs[rng.randrange(n)] = 2
    return Graph(n, edges, vertex_attrs)


class TestTwinHeavyGraphs:
    # Graphs with large classes of twins reach many automorphic leaves. The
    # search leaves a subtree once it is proved automorphic to an explored
    # one, so it keeps fewer generators than vertices.
    @pytest.mark.parametrize(
        "name, g, order",
        [
            pytest.param(name, g, order, id=name)
            for name, g, order in [
                ("E30", Graph(30), math.factorial(30)),
                ("K1,30", star(30), math.factorial(30)),
                ("10K3", copies(10, cycle(3)), 6**10 * math.factorial(10)),
                ("hub3x4", hub(3, 4), 24**3 * 6),
                ("K4,4", complete_bipartite(4, 4), 24 * 24 * 2),
                ("K3,5", complete_bipartite(3, 5), 6 * 120),
                ("C12", cycle(12), 24),
            ]
        ],
    )
    def test_closed_form_orders_and_few_generators(self, name, g, order):
        c = canonize(g)
        assert c.aut_order == order
        assert len(group_generators(c.aut_group)) < g.n
        rng = random.Random(name)
        for _ in range(3):
            s = tuple(rng.sample(range(g.n), g.n))
            assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph

    def test_random_twin_blow_ups_match_bruteforce(self):
        rng = random.Random(11)
        for _ in range(300):
            g = twin_blow_up(rng)
            c = canonize(g)
            assert c.aut_order == canonize_bruteforce(g).aut_order
            s = tuple(rng.sample(range(g.n), g.n))
            assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph


def attributed_blow_up(rng):
    """A twin blow-up with edge attributes, one per joined pair of classes
    and one inside each clique class, loops whose attributes differ between
    classes, optional vertex labels and, now and then, one attribute
    changed, which splits a class; at most 7 vertices, randomly labelled."""
    n = rng.randint(1, 7)
    classes, v = [], 0
    while v < n:
        size = min(rng.randint(1, 3), n - v)
        classes.append(range(v, v + size))
        v += size
    edges = {}
    for a, ca in enumerate(classes):
        if rng.random() < 0.5:
            edges.update(dict.fromkeys(combinations(ca, 2), rng.randrange(2)))
        if rng.random() < 0.4:
            edges.update(dict.fromkeys(((u, u) for u in ca), rng.randrange(2)))
        for cb in classes[a + 1 :]:
            if rng.random() < 0.5:
                edges.update(dict.fromkeys(((u, w) for u in ca for w in cb), rng.randrange(3)))
    for _ in range(2):
        if edges and rng.random() < 0.4:
            edges[rng.choice(sorted(edges))] = rng.randrange(3)
    labels = [rng.randrange(2) for _ in classes] if rng.random() < 0.5 else None
    vertex_attrs = labels and [labels[c] for c, cls in enumerate(classes) for _ in cls]
    g = Graph(n, edges, vertex_attrs, edges)
    return apply_perm(tuple(rng.sample(range(n), n)), g)


def twin_quotient_cases():
    """Twin-rich graphs on at most 7 vertices: open and closed twins, edge
    attributes, loops with differing attributes, and quotients with
    automorphisms (disjoint K2s, K3,3, twin blow-ups)."""
    rng = random.Random(2024)
    cases = [
        # Two looped twins of equal color whose loop attributes differ.
        Graph(2, [(0, 0), (0, 1), (1, 1)], edge_attrs={(0, 0): 1, (0, 1): 0, (1, 1): 0}),
        Graph(2, [(0, 0), (0, 1), (1, 1)], edge_attrs={(0, 0): 1, (0, 1): 0, (1, 1): 1}),
        Graph(3, [(0, 0), (1, 1), (2, 2)], edge_attrs={(0, 0): 0, (1, 1): 1, (2, 2): 0}),
        # Equal neighbours whose edge attributes differ are no twins: K4
        # whose perfect matching has attribute 0 (closed twins, one class
        # per matching edge), and C4 with alternating attributes (no twins).
        Graph(4, list(combinations(range(4), 2)),
              edge_attrs={e: int(e not in ((0, 1), (2, 3))) for e in combinations(range(4), 2)}),
        Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
              edge_attrs={(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1}),
        copies(3, Graph(2, [(0, 1)])),
        Graph(7, [(0, 1), (2, 3), (4, 5)]),
        complete_bipartite(3, 3),
        complete_bipartite(2, 4),
        star(5),
        Graph(6),
        Graph(5, list(combinations(range(5), 2))),
        hub(2, 2),
    ]
    cases += [twin_blow_up(rng) for _ in range(60)]
    cases = [g for g in cases if g.n <= 7]
    cases += [attributed_blow_up(rng) for _ in range(200)]
    return cases


class TestTwinQuotient:
    # Twin classes are collapsed into one quotient vertex each and take runs
    # of consecutive canonical positions; the group has a block chain when
    # the quotient has automorphisms.
    def test_seeded_twin_graphs_match_bruteforce(self):
        rng = random.Random(77)
        kinds = set()
        for g in twin_quotient_cases():
            c, bf = canonize(g), canonize_bruteforce(g)
            kinds.add("no blocks" if c.aut_group.blocks is None else "blocks")
            # The quotient is built without the Graph checks: it keeps the
            # layout of a checked graph.
            base = max(g.edge_attrs, default=0) + 1 if g.edge_attrs else 1
            colors = canon._refine(g, canon._initial_colors(g), base)
            classes, loop = canon._twin_classes(g, colors, base)
            if classes:
                assert_graph_layout(canon._quotient(g, colors, classes, loop)[0])
            assert c.aut_order == bf.aut_order == group_order(c.aut_group)
            assert apply_perm(c.canon_perm, g) == c.canon_graph
            for _ in range(4):
                s = tuple(rng.sample(range(g.n), g.n))
                assert canonize(apply_perm(s, g)).canon_graph == c.canon_graph
            for a in group_generators(c.aut_group):
                assert apply_perm(a, c.canon_graph) == c.canon_graph
            if c.aut_group.blocks is None:
                for a, b in c.aut_group.runs:
                    for k in range(a, b - 1):
                        swap = (*range(k), k + 1, k, *range(k + 2, g.n))
                        assert apply_perm(swap, c.canon_graph) == c.canon_graph
        assert kinds == {"no blocks", "blocks"}

    @pytest.mark.parametrize(
        "g, blocks, order",
        [
            (copies(40, cycle(3)), 40, 6**40 * math.factorial(40)),
            (copies(3, Graph(2, [(0, 1)])), 3, 2**3 * 6),
            (cycle(6), 6, 12),
            (hub(3, 4), 7, 24**3 * 6),
        ],
        ids=["40K3", "3K2", "C6", "hub3x4"],
    )
    def test_schreier_sims_runs_on_the_blocks(self, monkeypatch, g, blocks, order):
        # The quotient's automorphisms build a chain on its own vertices,
        # the blocks, and are never lifted to the n points.
        degrees = []
        schreier_sims_ = canon.schreier_sims

        def recorded(group):
            degrees.append(group.degree)
            return schreier_sims_(group)

        monkeypatch.setattr(canon, "schreier_sims", recorded)
        c = canonize(g)
        assert degrees == [blocks] == [len(c.aut_group.block_spans())]
        assert c.aut_group.blocks.degree == blocks
        assert c.aut_order == group_order(c.aut_group) == order

    def test_groups_compare_by_value(self):
        # The group of C6 (a block chain, no runs) from five relabelings is
        # one value with one hash; a group of runs alone compares as before.
        rng = random.Random(6)
        groups = [canonize(apply_perm(tuple(rng.sample(range(6), 6)), cycle(6))).aut_group
                  for _ in range(5)]
        assert groups[0].blocks is not None
        assert all(g == groups[0] for g in groups)
        assert len({hash(g) for g in groups}) == 1 and len(set(groups)) == 1
        runs = [canonize(apply_perm(tuple(rng.sample(range(8), 8)), star(7))).aut_group
                for _ in range(2)]
        assert runs[0] == runs[1] == SymmetricRuns(8, [(0, 7)])
        assert groups[0] != SymmetricRuns(6, ())

    def test_vertices_without_edges_get_no_neighbour_list(self):
        # The edge-free graph on 10^5 vertices is one class of open twins.
        # Beyond the classes and loop list it returns, the twin finder's
        # traced peak is the cell sizes' list; a list per vertex took 11.6 MB
        # more (16.4 MB in all).
        n = 10**5
        g = Graph(n)
        colors = canon._refine(g, canon._initial_colors(g), 1)
        tracemalloc.start()
        try:
            classes, loop = canon._twin_classes(g, colors, 1)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert classes == [(list(range(n)), -1)] and loop == [-1] * n
        assert peak - kept < 2 << 20
        assert peak < 8 << 20

    def test_discrete_first_refinement_looks_for_no_twins(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("twin finder or schreier_sims reached")

        monkeypatch.setattr(canon, "_twin_classes", refuse)
        monkeypatch.setattr(canon, "schreier_sims", refuse)
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], vertex_attrs=[0, 0, 0, 1])
        c = canonize(g)
        assert c.aut_group == SymmetricRuns(4, ())
        assert c.aut_order == 1 and group_generators(c.aut_group) == ()

    @pytest.mark.parametrize(
        "g, k",
        [
            (Graph(60), 60),
            (star(60), 60),
            (Graph(6, [(i, j) for j in range(6) for i in range(j + 1)],
                   edge_attrs={(i, j): 1 + (i != j) for j in range(6) for i in range(j + 1)}), 6),
        ],
        ids=["E60", "K1,60", "looped-K6"],
    )
    def test_one_twin_class_is_a_run_without_schreier_sims(self, monkeypatch, g, k):
        # All 60 vertices, all 60 leaves, or all 6 vertices of a K6 with
        # edge attribute 2 and loops of attribute 1 are twins: the quotient
        # has one or two vertices, its refinement is discrete, and no leaf
        # key is compared and no chain is built.
        def refuse(*args):
            raise AssertionError("schreier_sims reached")

        monkeypatch.setattr(canon, "schreier_sims", refuse)
        keys = []
        graph_key = Graph.key
        monkeypatch.setattr(Graph, "key", lambda h: keys.append(h) or graph_key(h))
        c = canonize(g)
        assert c.aut_group.blocks is None
        assert c.aut_order == math.factorial(k) and keys == []
        assert [b - a for a, b in c.aut_group.runs] == [k]

    @pytest.mark.parametrize("n, bits", [(40, 56.3), (80, 59.3)])
    def test_empty_graphs_cost_only_the_parameter_block(self, n, bits):
        # Two empty graphs: the coset step of S_n codes nothing, and the ER
        # pairs at the smallest coded probability cost about 1e-3 bits a
        # graph; the chain of S_n popped a full shuffle of pad for them.
        corpus = Corpus((Graph(n), Graph(n)), "empty", False, False)
        data, report = compress_corpus(corpus)
        assert round(report.total_bits, 1) == round(report.param_bits, 1) == bits
        assert report.total_bits - report.param_bits < 0.01
        assert list(decompress_corpus(data).graphs) == [Graph(n), Graph(n)]


def complete_multipartite(sizes):
    starts = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
    parts = [range(a, b) for a, b in zip(starts, starts[1:])]
    return Graph(starts[-1], [(u, v) for a, pa in enumerate(parts) for pb in parts[a + 1 :]
                               for u in pa for v in pb])


class TestTwinsThatFillTheirCells:
    # When every non-singleton cell of the refined coloring is one twin
    # class, the quotient's first coloring is discrete: canonize reads the
    # order and the runs off the cells, with no quotient and no search.
    @pytest.mark.parametrize(
        "g, order",
        [
            (star(3), 6),
            (Graph(5, list(combinations(range(5), 2))), 120),
            (Graph(6), 720),
            (complete_bipartite(3, 4), 6 * 24),
        ],
        ids=["K1,3", "K5", "E6", "K3,4"],
    )
    def test_no_quotient_and_no_search(self, monkeypatch, g, order):
        def refuse(*args):
            raise AssertionError("quotient built or searched")

        expected = canonize_by_quotient(g)
        monkeypatch.setattr(canon, "_quotient", refuse)
        monkeypatch.setattr(canon, "_search", refuse)
        c = canonize(g)
        assert c.aut_order == order and c.aut_group.blocks is None
        assert (c.canon_perm, c.aut_group) == (expected.canon_perm, expected.aut_group)

    def test_equal_to_the_quotient_path(self):
        # Seeded twin-rich graphs, and the conformance families that have
        # twins: the canonical permutation and the group equal those of the
        # quotient path, whether or not the classes fill their cells.
        rng = random.Random(36)
        graphs = [twin_blow_up(rng) for _ in range(800)]
        graphs += [attributed_blow_up(rng) for _ in range(800)]
        for _ in range(400):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            g = complete_multipartite(sizes)
            graphs.append(apply_perm(tuple(rng.sample(range(g.n), g.n)), g))
        graphs += [g for _, g, _ in FAMILIES]
        shortcut = quotient = 0
        for g in graphs:
            base = max(g.edge_attrs, default=0) + 1 if g.edge_attrs else 1
            colors = canon._refine(g, canon._initial_colors(g), base)
            classes, _ = canon._twin_classes(g, colors, base)
            if not classes:
                continue
            c, expected = canonize(g), canonize_by_quotient(g)
            assert c.canon_perm == expected.canon_perm
            assert c.aut_group == expected.aut_group
            if sum(len(vs) for vs, _ in classes) + max(colors) + 1 - len(classes) == g.n:
                shortcut += 1
            else:
                quotient += 1
        assert shortcut > 500 and quotient > 200


class TestEdgeColorEmbedding:
    def test_constant_colors_match_uncolored(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        plain = Graph(4, edges)
        colored = Graph(4, edges, edge_attrs={e: 7 for e in edges})
        assert canonize_via_embedding(colored).aut_order == canonize(plain).aut_order

    def test_path_with_distinct_colors_is_rigid(self):
        g = Graph(3, [(0, 1), (1, 2)], edge_attrs={(0, 1): 0, (1, 2): 1})
        assert canonize_via_embedding(g).aut_order == 1
        assert canonize(g).aut_order == 1

    def test_triangle_one_red_two_blue(self):
        g = Graph(
            3,
            [(0, 1), (0, 2), (1, 2)],
            edge_attrs={(0, 1): 0, (0, 2): 1, (1, 2): 1},
        )
        assert canonize_via_embedding(g).aut_order == 2
        assert canonize(g).aut_order == 2

    def test_embedding_matches_native_on_random(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, p=0.5, attr_alphabet=2, edge_alphabet=3)
            if not g.edges:
                continue
            via = canonize_via_embedding(g)
            native = canonize(g)
            assert via.aut_order == native.aut_order
            assert canon_equal(via.canon_graph, native.canon_graph)

    def test_structure(self):
        g = Graph(3, [(0, 1), (1, 2)], edge_attrs={(0, 1): 4, (1, 2): 4})
        embedded, edge_order = embed_edge_colors(g)
        assert embedded.n == 5
        assert embedded.num_edges == 4
        assert edge_order == ((0, 1), (1, 2))
        # original vertices keep a color range disjoint from edge colors
        assert len(set(embedded.vertex_attrs[:3]) & set(embedded.vertex_attrs[3:])) == 0


class TestSequenceCanon:
    def test_paper_rearrangement_example(self):
        assert apply_sequence((2, 0, 1, 3), "Team") == "eaTm"

    def test_sort_string(self):
        c = canonize_string("eaTm")
        assert c.canon_seq == "Taem"
        assert c.aut_order == 1
        assert apply_sequence(c.canon_perm, "eaTm") == "Taem"

    def test_repeats(self):
        c = canonize_string("aab")
        assert c.canon_seq == "aab"
        assert c.aut_order == 2

    def test_empty(self):
        c = canonize_string("")
        assert c.canon_seq == ""
        assert c.aut_order == 1

    def test_multiplicity_formula(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(0, 10)
            xs = tuple(rng.randrange(3) for _ in range(n))
            c = canonize_string(xs)
            assert c.canon_seq == tuple(sorted(xs))
            expected = 1
            for v in set(xs):
                expected *= math.factorial(xs.count(v))
            assert c.aut_order == expected
            assert group_order(c.aut_group) == expected

    def test_invariance(self):
        rng = random.Random(10)
        for _ in range(100):
            n = rng.randint(1, 12)
            xs = tuple(rng.randrange(4) for _ in range(n))
            s = tuple(rng.sample(range(n), n))
            assert canonize_string(apply_sequence(s, xs)).canon_seq == canonize_string(xs).canon_seq
