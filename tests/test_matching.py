from __future__ import annotations

import gc
import random

import pytest

from clevershopper import (
    InputError,
    WeightedEdge,
    WeightedGraph,
    max_weight_matching,
)
from clevershopper import exact
from clevershopper.matching import _match_component

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

    def test_blossoms_leave_no_cycles(self):
        # The solver's recursive helpers would reach themselves through
        # their closures; with the collector off, as the CLI runs, such a
        # cycle would hold the component's lists until the command ends.
        g = graph(
            6,
            [(0, 1, 10), (1, 2, 10), (0, 2, 10), (2, 3, 8), (3, 4, 10), (4, 5, 10), (3, 5, 10)],
        )
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            max_weight_matching(g)
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()

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

    def test_one_edge_components_match_the_blossom(self):
        # max_weight_matching peels pendant trees and runs the blossom on
        # what is left, the 2-core.  The reference runs _match_component on
        # every component, relabelled as max_weight_matching does.  A
        # one-edge component is peeled the way the blossom matches it, and
        # a core component (cyclic, every vertex of degree >= 2) reaches
        # the blossom unchanged: both must get the same pairs.  Trees and
        # cyclic components with pendant trees, where the peel breaks ties
        # its own way, must get the same weight.
        rng = random.Random(20261020)
        signs = set()
        kinds = {}
        for _ in range(400):
            n = 0
            triples = []
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.7:
                    w = rng.randint(-3, 9)
                    triples.append((n, n + 1, w))
                    signs.add((w > 0) - (w < 0))
                    n += 2
                else:
                    size = rng.randint(1, 5)
                    triples += random_triples(rng, n, size, 0.6, (-3, 9))
                    n += size
            n += rng.randint(0, 3)
            ids = list(range(n))
            rng.shuffle(ids)
            triples = [
                (ids[u], ids[v], w) if rng.random() < 0.5 else (ids[v], ids[u], w)
                for u, v, w in triples
            ]
            g = graph(n, triples)
            matched = max_weight_matching(g)
            assert_valid_matching(g, matched)
            for members, blossom in blossom_per_component(g):
                ends = [x for e in members for x in (e.u, e.v)]
                vertices = set(ends)
                mine = frozenset(pair for pair in matched if pair[0] in vertices)
                if len(members) == 1:
                    kind = "one edge"
                elif len(members) == len(vertices) - 1:
                    kind = "tree"
                elif all(ends.count(x) >= 2 for x in vertices):
                    kind = "core"
                else:
                    kind = "pendant trees"
                kinds[kind] = kinds.get(kind, 0) + 1
                if kind in ("one edge", "core"):
                    assert mine == blossom
                else:
                    weight = bruteforce.matching_weight(g, blossom)
                    assert bruteforce.matching_weight(g, mine) == weight
        # One-edge components of negative, zero and positive weight.
        assert signs == {-1, 0, 1}
        assert set(kinds) == {"one edge", "tree", "core", "pendant trees"}

    def test_trees_match_the_blossom(self):
        # Random trees, vertex ids shuffled so that the root, the lowest
        # id, sits anywhere in the tree: the DP's matching is valid and as
        # heavy as the blossom's.
        rng = random.Random(20261021)
        for _ in range(3000):
            n = rng.randint(2, 14)
            ids = list(range(n))
            rng.shuffle(ids)
            triples = [(ids[rng.randrange(v)], ids[v], rng.randint(-2, 6)) for v in range(1, n)]
            g = graph(n, triples)
            matched = max_weight_matching(g)
            assert_valid_matching(g, matched)
            assert all(u < v for u, v in matched)
            ((_, blossom),) = blossom_per_component(g)
            assert bruteforce.matching_weight(g, matched) == bruteforce.matching_weight(g, blossom)


def blossom_per_component(g):
    """Each component of g with an edge, as its edges and the pairs
    ``_match_component`` gives it, relabelled 0..k-1 in increasing id
    order, edges in the graph's order."""
    parent = list(range(g.num_vertices))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in g.edges:
        parent[find(e.u)] = find(e.v)
    components = {}
    for e in g.edges:
        components.setdefault(find(e.u), []).append(e)
    result = []
    for members in components.values():
        ids = sorted({x for e in members for x in (e.u, e.v)})
        local = {v: i for i, v in enumerate(ids)}
        edges = [(local[e.u], local[e.v], e.weight) for e in members]
        matched = _match_component(len(ids), edges, exact._Steps())
        result.append((members, frozenset((ids[i], ids[j]) for i, j in matched)))
    return result
