"""The rate identity, certified on every small object.

Under a model where every ordered object of a size is equally likely, the
class of f has probability (n!/|Aut f|) P(f), so the net bits of a complete,
optimal code over the classes satisfy sum 2**-net = 1 over all classes. A bit
spent twice, a class coded at the wrong |Aut| or a class that is missing
moves the sum by far more than rANS quantization does: the worst sum
measured is within 1.3e-5 of 1, and the bound below is about ten times that.
The Polya urn is left out: it is not edge-exchangeable, so its classes are
not coded at the ideal rate.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from shufflecodec.ans import message_init
from shufflecodec.canon import canonize
from shufflecodec.compress import net_rate_single
from shufflecodec.graphs import Graph
from shufflecodec.models import ErParams, erdos_renyi_codec, string_codec, with_attributes
from shufflecodec.shuffle import ShuffleCodec, graph_class, sequence_class

KRAFT_BOUND = 1e-4

# Unlabelled graphs on n = 0..6 vertices (OEIS A000088), and vertex-coloured
# ones with two colours on n = 0..4.
GRAPH_CLASSES = [1, 1, 2, 4, 11, 34, 156]
TWO_COLOUR_CLASSES = [1, 2, 6, 20, 90]


def graph_classes(n: int, colours=None):
    """One member of each isomorphism class of graphs on n vertices, with
    vertex colours from range(colours) when colours is given. Every graph on
    n vertices is a graph on n - 1 vertices plus vertex n - 1 with some
    colour and neighbourhood, so extending one member of each class on
    n - 1 vertices in every way reaches every class."""
    if n == 0:
        return [Graph(0, (), None if colours is None else ())]
    members = {}
    for g in graph_classes(n - 1, colours):
        for colour in [None] if colours is None else range(colours):
            attrs = None if colour is None else g.vertex_attrs + (colour,)
            for size in range(n):
                for nbrs in combinations(range(n - 1), size):
                    edges = g.edges + tuple((v, n - 1) for v in nbrs)
                    canon = canonize(Graph(n, edges, attrs)).canon_graph
                    members.setdefault(canon.key(), canon)
    return list(members.values())


def net_bits(codec: ShuffleCodec, f) -> float:
    """One encode's message growth less the pad its bits-back pop drew."""
    m = message_init()
    before = m.length_bits
    report = codec.encode(m, f)
    return m.length_bits - before - report.initial_bits_overhead


@pytest.mark.parametrize("n", range(len(GRAPH_CLASSES)))
def test_er_graphs(n):
    classes = graph_classes(n)
    assert len(classes) == GRAPH_CLASSES[n]
    kraft = sum(2 ** -net_rate_single(g, "er", er_p=Fraction(1, 2)) for g in classes)
    assert abs(kraft - 1) <= KRAFT_BOUND


@pytest.mark.parametrize("n", range(len(TWO_COLOUR_CLASSES)))
def test_two_colour_er_graphs(n):
    classes = graph_classes(n, colours=2)
    assert len(classes) == TWO_COLOUR_CLASSES[n]
    base = erdos_renyi_codec(ErParams(n, Fraction(1, 2)))
    codec = ShuffleCodec(with_attributes(base, (1, 1)), graph_class())
    kraft = sum(2 ** -net_bits(codec, g) for g in classes)
    assert abs(kraft - 1) <= KRAFT_BOUND


@pytest.mark.parametrize("length", range(9))
def test_multisets_over_three_letters(length):
    classes = list(combinations_with_replacement(range(3), length))
    assert len(classes) == (length + 1) * (length + 2) // 2
    codec = ShuffleCodec(string_codec([1, 1, 1], length), sequence_class())
    kraft = sum(2 ** -net_bits(codec, s) for s in classes)
    assert abs(kraft - 1) <= KRAFT_BOUND
