from __future__ import annotations

import random

import pytest

from clevershopper import (
    InputError,
    WeightedEdge,
    WeightedGraph,
    max_weight_matching,
)

import bruteforce


def graph(n, triples):
    return WeightedGraph(n, tuple(WeightedEdge(u, v, w) for u, v, w in triples))


def assert_valid_matching(g, matched):
    used = [x for pair in matched for x in pair]
    assert len(used) == len(set(used))
    present = {(e.u, e.v) for e in g.edges}
    for u, v in matched:
        assert (u, v) in present or (v, u) in present


class TestSmallGraphs:
    def test_empty_graph(self):
        assert max_weight_matching(graph(3, [])) == frozenset()

    def test_single_edge(self):
        m = max_weight_matching(graph(2, [(0, 1, 4)]))
        assert m == frozenset({(0, 1)}) or m == frozenset({(1, 0)})

    def test_negative_edge_left_unmatched(self):
        assert max_weight_matching(graph(2, [(0, 1, -1)])) == frozenset()

    def test_zero_weight_edge_optional(self):
        # weight 0 adds nothing; any answer must have weight 0
        g = graph(2, [(0, 1, 0)])
        assert bruteforce.matching_weight(g, max_weight_matching(g)) == 0

    def test_triangle_takes_single_heaviest_edge(self):
        g = graph(3, [(0, 1, 3), (1, 2, 2), (0, 2, 2)])
        m = max_weight_matching(g)
        assert bruteforce.matching_weight(g, m) == 3
        assert len(m) == 1

    def test_path_prefers_middle_vs_ends(self):
        # path 0-1-2-3 with weights 2, 5, 2: taking the middle edge alone (5)
        # beats the two ends (4)
        g = graph(4, [(0, 1, 2), (1, 2, 5), (2, 3, 2)])
        assert bruteforce.matching_weight(g, max_weight_matching(g)) == 5

    def test_path_prefers_ends(self):
        g = graph(4, [(0, 1, 3), (1, 2, 5), (2, 3, 3)])
        assert bruteforce.matching_weight(g, max_weight_matching(g)) == 6

    def test_odd_cycle_needs_blossom(self):
        # C5 where the best matching crosses a formed blossom
        g = graph(5, [(0, 1, 8), (1, 2, 9), (2, 3, 8), (3, 4, 9), (4, 0, 8)])
        m = max_weight_matching(g)
        assert_valid_matching(g, m)
        assert bruteforce.matching_weight(g, m) == 18

    def test_blossom_with_stem(self):
        # triangle 1-2-3 hanging off vertex 0; optimum pairs (0,1) and (2,3)
        g = graph(4, [(0, 1, 6), (1, 2, 5), (1, 3, 5), (2, 3, 1)])
        m = max_weight_matching(g)
        assert_valid_matching(g, m)
        assert bruteforce.matching_weight(g, m) == 7

    def test_nested_blossoms(self):
        # two triangles joined by a bridge force blossom shrink + expand
        g = graph(
            6,
            [
                (0, 1, 10),
                (1, 2, 10),
                (0, 2, 10),
                (2, 3, 8),
                (3, 4, 10),
                (4, 5, 10),
                (3, 5, 10),
            ],
        )
        m = max_weight_matching(g)
        assert_valid_matching(g, m)
        assert bruteforce.matching_weight(g, m) == 28

    def test_maximum_weight_not_maximum_cardinality(self):
        # the single heavy edge beats every size-2 matching
        g = graph(4, [(0, 1, 10), (0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)])
        m = max_weight_matching(g)
        assert bruteforce.matching_weight(g, m) == 10
        assert len(m) == 1


class TestGraphChecks:
    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop at vertex 1"):
            graph(2, [(1, 1, 3)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError, match=r"edge \(0, 5\) out of range"):
            graph(2, [(0, 5, 3)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputError, match=r"duplicate edge \(0, 1\)"):
            graph(3, [(0, 1, 3), (1, 0, 2)])

    def test_matching_weight_sums_pairs(self):
        g = graph(4, [(0, 1, 3), (2, 3, 4)])
        assert bruteforce.matching_weight(g, frozenset({(0, 1), (2, 3)})) == 7


class TestAgainstExhaustive:
    @pytest.mark.parametrize(
        "seed, sizes, edge_prob, weights",
        [
            (20260816, (2, 9), 0.5, (-3, 9)),
            # Sparse graphs with few distinct weights: many equally heavy
            # matchings, and vertices left isolated.
            (20261018, (11, 16), 0.25, (0, 3)),
        ],
        ids=["dense", "sparse-ties"],
    )
    def test_random_sweep(self, seed, sizes, edge_prob, weights):
        rng = random.Random(seed)
        for _ in range(300):
            n = rng.randint(*sizes)
            triples = [
                (u, v, rng.randint(*weights))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < edge_prob
            ]
            g = graph(n, triples)
            m = max_weight_matching(g)
            assert_valid_matching(g, m)
            expected = bruteforce.dp_max_matching_weight(n, triples)
            assert bruteforce.matching_weight(g, m) == expected

    def test_dense_negative_mix(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(4, 8)
            triples = [
                (u, v, rng.randint(-5, 5))
                for u in range(n)
                for v in range(u + 1, n)
            ]
            g = graph(n, triples)
            m = max_weight_matching(g)
            assert_valid_matching(g, m)
            expected = bruteforce.dp_max_matching_weight(n, triples)
            assert bruteforce.matching_weight(g, m) == expected


def random_triples(rng, first, size, edge_prob, weights):
    """Random edges among vertices first..first+size-1."""
    return [
        (first + u, first + v, rng.randint(*weights))
        for u in range(size)
        for v in range(u + 1, size)
        if rng.random() < edge_prob
    ]


class TestComponents:
    def test_isolated_vertices_around_one_edge(self):
        g = graph(100_000, [(70_000, 3, 5)])
        assert max_weight_matching(g) == frozenset({(3, 70_000)})

    def test_disjoint_union_sweep(self):
        # Side-by-side small graphs and isolated vertices, with the vertex
        # ids shuffled so that components interleave, and about half of the
        # edges given high end first.
        rng = random.Random(20261019)
        for _ in range(300):
            n = 0
            triples = []
            for _ in range(rng.randint(2, 4)):
                size = rng.randint(1, 4)
                triples += random_triples(rng, n, size, 0.6, (-2, 9))
                n += size
            n += rng.randint(0, 3)
            ids = list(range(n))
            rng.shuffle(ids)
            triples = [
                (ids[u], ids[v], w) if rng.random() < 0.5 else (ids[v], ids[u], w)
                for u, v, w in triples
            ]
            g = graph(n, triples)
            m = max_weight_matching(g)
            assert_valid_matching(g, m)
            assert all(u < v for u, v in m)
            expected = bruteforce.dp_max_matching_weight(n, triples)
            assert bruteforce.matching_weight(g, m) == expected

    def test_union_weight_is_sum_of_parts(self):
        rng = random.Random(11)
        for _ in range(40):
            n1, n2 = rng.randint(4, 30), rng.randint(4, 30)
            g1 = random_triples(rng, 0, n1, 0.2, (0, 20))
            g2 = random_triples(rng, 0, n2, 0.2, (0, 20))
            # Place G2's vertices at random positions among G1's.
            slots = list(range(n1 + n2))
            rng.shuffle(slots)
            at1, at2 = sorted(slots[:n1]), sorted(slots[n1:])
            union = graph(
                n1 + n2,
                [(at1[u], at1[v], w) for u, v, w in g1] + [(at2[u], at2[v], w) for u, v, w in g2],
            )
            m = max_weight_matching(union)
            assert_valid_matching(union, m)
            parts = [graph(n1, g1), graph(n2, g2)]
            assert bruteforce.matching_weight(union, m) == sum(
                bruteforce.matching_weight(g, max_weight_matching(g)) for g in parts
            )
