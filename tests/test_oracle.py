from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clevershopper import (
    ResourceLimitError,
    brute_force_min_cost,
    evaluate_assignment,
    make_instance,
    random_instance,
)

import bruteforce


class TestMinCost:
    def test_five_books(self, five_books):
        result = brute_force_min_cost(five_books)
        assert result.total_cost == 34
        assert result.total_discount == 9
        assert result.choice == (0, 2, 3, 3, 4)

    def test_single_offer_threshold_met(self):
        inst = make_instance(1, [(1, 5)], [(0, 0, 5)])
        assert brute_force_min_cost(inst).total_cost == 4

    def test_lexicographic_tie_break(self):
        # both shops identical; (0, 0) is the smallest optimal choice
        inst = make_instance(2, [(0, 99), (0, 99)],
                             [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)])
        assert brute_force_min_cost(inst).choice == (0, 0)

    def test_search_cap(self):
        # 2^24 assignments, over the cap: refused before enumerating any
        inst = make_instance(
            24,
            [(0, 1), (0, 1)],
            [(b, s, 1 + b % 3 + s) for b in range(24) for s in range(2)],
        )
        with pytest.raises(
            ResourceLimitError, match="search space has 16777216 assignments, cap is 10000000"
        ):
            brute_force_min_cost(inst)

    def test_deterministic(self, five_books):
        assert brute_force_min_cost(five_books) == brute_force_min_cost(five_books)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_plain_enumeration(self, seed):
        inst = random_instance(4, 3, max_price=8, seed=seed)
        result = brute_force_min_cost(inst)
        assert result.total_cost == bruteforce.enumerate_min_cost(inst)
        # reported numbers must re-evaluate to themselves
        again = evaluate_assignment(inst, result.choice)
        assert again == result

    def test_never_beaten_by_sampled_assignments(self):
        inst = random_instance(5, 4, max_price=9, seed=77)
        best = brute_force_min_cost(inst).total_cost
        shops = [[s for s, _ in inst.offers_by_book[b]] for b in range(5)]
        import itertools

        for choice in itertools.product(*shops):
            assert best <= bruteforce.assignment_cost(inst, choice)

    def test_upper_bounded_by_min_price_sum(self):
        for seed in range(20):
            inst = random_instance(5, 4, max_price=9, seed=seed)
            bound = sum(price for _, price in inst.cheapest)
            assert brute_force_min_cost(inst).total_cost <= bound


class TestMaxDiscount:
    """On fixed-price instances the cheapest assignment earns the largest
    discount, so ``brute_force_min_cost`` also maximises the discount."""

    def test_unreachable_thresholds(self):
        inst = make_instance(2, [(4, 50)], [(0, 0, 1), (1, 0, 1)])
        assert brute_force_min_cost(inst).total_discount == 0

    def test_one_shop_selling_everything(self):
        inst = make_instance(3, [(7, 3)], [(b, 0, 1) for b in range(3)])
        assert brute_force_min_cost(inst).total_discount == 7

    def test_fixed_price_duality(self):
        # on fixed-price instances: min cost = sum of prices - max discount
        for seed in range(25):
            inst = random_instance(4, 3, max_price=6, fixed_prices=True, seed=seed)
            total = sum(price for _, price in inst.cheapest)
            result = brute_force_min_cost(inst)
            assert result.total_discount == bruteforce.enumerate_max_discount(inst)
            assert result.total_cost == total - result.total_discount

    def test_search_cap(self):
        # fixed prices, 2^24 assignments
        inst = make_instance(
            24,
            [(0, 1), (0, 1)],
            [(b, s, 1 + b % 3) for b in range(24) for s in range(2)],
        )
        with pytest.raises(
            ResourceLimitError, match="search space has 16777216 assignments, cap is 10000000"
        ):
            brute_force_min_cost(inst)
