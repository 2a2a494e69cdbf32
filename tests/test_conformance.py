"""Canonizer conformance: graph families whose automorphism group order has a
closed form (see families.py), each canonized under five seeded relabelings.

Every relabeling must give one canonical form and one group, of the closed
form's order, and the block chain that schreier_sims completes from the
search's generators must equal the reference chain the full Schreier-Sims
oracle builds from the same generators. Twisted and untwisted CFI graphs over
one base, which color refinement cannot tell apart, must get different
forms."""

import random

import pytest

from shufflecodec import canon
from shufflecodec.canon import canonize
from shufflecodec.graphs import apply_perm

from families import CFI_BASES, FAMILIES, cfi, random_cubic
from oracles import schreier_sims

CFI_CASES = [
    (f"CFI{n}-{seed}", cfi(random_cubic(seed, n)), 2 ** (3 * n // 2 - n + 1))
    for n, seed in CFI_BASES
]


@pytest.mark.parametrize("name, g, order", FAMILIES + CFI_CASES,
                         ids=[case[0] for case in FAMILIES + CFI_CASES])
def test_relabelings_share_form_order_and_group(monkeypatch, name, g, order):
    built = []
    complete = canon.schreier_sims

    def recorded(group):
        chain = complete(group)
        built.append((group, chain))
        return chain

    monkeypatch.setattr(canon, "schreier_sims", recorded)
    rng = random.Random(name)
    results = [canonize(apply_perm(tuple(rng.sample(range(g.n), g.n)), g)) for _ in range(5)]
    assert all(c.canon_graph == results[0].canon_graph for c in results)
    assert all(c.aut_group == results[0].aut_group for c in results)
    assert all(c.aut_order == order for c in results)
    assert len(built) == (5 if results[0].aut_group.blocks is not None else 0)
    for group, chain in built:
        assert chain == schreier_sims(group.degree, group.generators)


@pytest.mark.parametrize("n, seed", CFI_BASES)
def test_cfi_bases_are_asymmetric(n, seed):
    # The closed form 2^(m-n+1) holds for a base with no automorphism.
    assert canonize(random_cubic(seed, n)).aut_order == 1


@pytest.mark.parametrize("n, seed", [(8, 0), (10, 0), *CFI_BASES])
def test_twisted_cfi_gets_another_form(n, seed):
    base = random_cubic(seed, n)
    plain, twisted = cfi(base), cfi(base, twisted=True)
    for h in (plain, twisted):  # cubic: refinement leaves one cell
        assert set(canon._refine(h, [0] * h.n, 1)) == {0}
    assert canonize(plain).canon_graph != canonize(twisted).canon_graph
