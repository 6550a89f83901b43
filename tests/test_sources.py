from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clevershopper import (
    CnfFormula,
    DanglingIndex,
    InputError,
    NegativeValue,
    SimpleGraph,
    X3CInstance,
    can_pack_bins,
    has_balanced_partition,
    has_neighborhood_packing,
    max_satisfied_clauses,
    x3c_solvable,
)

import bruteforce


class TestSimpleGraph:
    def test_neighborhoods(self, code_graph):
        assert code_graph.closed_neighborhoods[0] == frozenset({0, 1, 2})
        assert code_graph.closed_neighborhoods[4] == frozenset({3, 4})
        assert code_graph.degree(3) == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(DanglingIndex):
            SimpleGraph(2, ((0, 5),))

    def test_edge_order_enforced(self):
        with pytest.raises(InputError, match=r"edge \(2, 1\) must satisfy u < v"):
            SimpleGraph(3, ((2, 1),))

    def test_duplicate_edge(self):
        with pytest.raises(InputError, match=r"duplicate edge \(0, 1\)"):
            SimpleGraph(3, ((0, 1), (0, 1)))


class TestPartitionAndPacking:
    @pytest.mark.parametrize(
        "weights, expected",
        [
            ((1, 2, 3), True),
            ((1, 1, 3), False),
            ((2, 2), True),
            ((7,), False),
            ((0,), True),
        ],
    )
    def test_balanced_partition(self, weights, expected):
        assert has_balanced_partition(weights) is expected

    def test_negative_weight(self):
        with pytest.raises(NegativeValue):
            has_balanced_partition((1, -2))

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_partition_agrees_with_subset_scan(self, weights):
        import itertools

        total = sum(weights)
        want = total % 2 == 0 and any(
            sum(sub) * 2 == total
            for r in range(len(weights) + 1)
            for sub in itertools.combinations(weights, r)
        )
        assert has_balanced_partition(tuple(weights)) == want

    @pytest.mark.parametrize(
        "weights, bins, cap, expected",
        [
            ((2, 2, 2, 2), 2, 4, True),
            ((3, 3, 1, 1), 2, 4, True),
            ((3, 3, 3, 3), 2, 6, True),
            ((3, 3, 2), 2, 4, False),
            ((4, 4), 2, 4, True),
        ],
    )
    def test_bin_packing(self, weights, bins, cap, expected):
        assert can_pack_bins(weights, bins, cap) is expected


class TestNeighborhoodPacking:
    def test_code_graph_packs_two(self, code_graph):
        assert has_neighborhood_packing(code_graph, 2)
        assert not has_neighborhood_packing(code_graph, 3)

    def test_path_has_no_size1_code_but_packs(self):
        path = SimpleGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        assert has_neighborhood_packing(path, 2)  # {1, 4} covers each vertex once
        assert not has_neighborhood_packing(path, 3)

    def test_star_graph(self):
        star = SimpleGraph(4, ((0, 1), (0, 2), (0, 3)))
        assert has_neighborhood_packing(star, 1)  # the centre alone
        assert not has_neighborhood_packing(star, 2)

    def test_no_perfect_code(self):
        # C4: every closed neighborhood has 3 vertices, no exact cover of 4
        square = SimpleGraph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
        assert not bruteforce.perfect_code_exists(4, square.edges)
        assert has_neighborhood_packing(square, 1)
        assert not has_neighborhood_packing(square, 2)


class TestX3C:
    def test_invalid_set_size(self):
        with pytest.raises(InputError, match=r"set \(0, 1, 1\) does not have 3 distinct items"):
            X3CInstance(3, ((0, 1, 1),))

    def test_item_out_of_range(self):
        with pytest.raises(DanglingIndex):
            X3CInstance(3, ((0, 1, 3),))

    def test_solvable_single_set(self):
        assert x3c_solvable(X3CInstance(3, ((0, 1, 2),)))

    def test_solvable_needs_disjoint_pair(self):
        inst = X3CInstance(6, ((0, 1, 2), (1, 2, 3), (1, 2, 3), (3, 4, 5)))
        assert x3c_solvable(inst)

    def test_unsolvable_uncovered_item(self):
        inst = X3CInstance(6, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
        assert not x3c_solvable(inst)

    def test_unsolvable_overlaps(self):
        # every item is covered, yet no two sets are disjoint complements
        inst = X3CInstance(6, ((0, 1, 2), (0, 4, 5), (1, 3, 5), (2, 3, 4)))
        assert not x3c_solvable(inst)

    def test_item_count_not_multiple_of_three(self):
        assert not x3c_solvable(X3CInstance(4, ((0, 1, 2), (1, 2, 3))))


class TestCnf:
    def test_clause_length_checked(self):
        with pytest.raises(InputError, match=r"clause \(1, 2\) does not have 3 literals"):
            CnfFormula(3, ((1, 2),))

    def test_literal_range_checked(self):
        with pytest.raises(DanglingIndex):
            CnfFormula(2, ((1, 2, 3),))

    def test_zero_literal_rejected(self):
        with pytest.raises(DanglingIndex):
            CnfFormula(2, ((0, 1, 2),))

    def test_max_satisfied(self, twice_cnf):
        assert max_satisfied_clauses(twice_cnf) == 4

    def test_contradictory_formula(self):
        # x1 forced both ways in separate clauses; one of them must break
        cnf = CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3), (-1, -2, -3)))
        assert max_satisfied_clauses(cnf) == 4  # x2 true, x3 false, x1 anything

    def test_exhaustive_tiny(self):
        cnf = CnfFormula(1, ())
        assert max_satisfied_clauses(cnf) == 0
