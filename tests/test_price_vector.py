from __future__ import annotations

import pytest

from clevershopper import (
    InfeasibleParameters,
    StateSpaceTooLarge,
    TooManyShops,
    brute_force_min_cost,
    evaluate_assignment,
    from_partition,
    make_instance,
    price_vector_dp,
    price_vector_min_cost,
    random_instance,
)
from clevershopper import exact


class TestDecision:
    def test_partition_yes(self):
        gen = from_partition((1, 2, 3))
        decision = price_vector_dp(gen.instance, 4)
        assert decision.feasible
        assert decision.result is not None
        assert decision.result.total_cost <= 4

    def test_partition_no(self):
        gen = from_partition((1, 1, 3))
        decision = price_vector_dp(gen.instance, 3)
        assert not decision.feasible
        assert decision.result is None

    def test_single_shop_collapses_to_sum_test(self):
        inst = make_instance(2, [(3, 9)], [(0, 0, 5), (1, 0, 5)])
        # total 10 >= 9, so cost is 7
        assert price_vector_dp(inst, 7).feasible
        assert not price_vector_dp(inst, 6).feasible

    def test_budget_defaults_to_instance(self):
        inst = make_instance(1, [(0, 1)], [(0, 0, 5)], budget=5)
        assert price_vector_dp(inst).feasible
        assert not price_vector_dp(make_instance(1, [(0, 1)], [(0, 0, 5)], budget=4)).feasible

    def test_missing_budget_rejected(self):
        inst = make_instance(1, [(0, 1)], [(0, 0, 5)])
        with pytest.raises(InfeasibleParameters):
            price_vector_dp(inst)

    def test_witness_respects_budget(self):
        for seed in range(25):
            inst = random_instance(5, 3, max_price=6, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            decision = price_vector_dp(inst, opt)
            assert decision.feasible
            result = decision.result
            assert evaluate_assignment(inst, result.assignment) == result
            assert result.total_cost <= opt

    def test_full_budget_sweep_matches_oracle(self):
        for seed in range(8):
            inst = random_instance(5, 3, max_price=5, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            wallet = sum(o.price for o in inst.offers)
            for budget in range(0, wallet + 1):
                assert price_vector_dp(inst, budget).feasible == (opt <= budget)


class TestOptimization:
    def test_five_books_too_many_shops(self, five_books):
        with pytest.raises(TooManyShops):
            price_vector_min_cost(five_books)

    def test_matches_oracle(self):
        for seed in range(40):
            inst = random_instance(6, 3, max_price=8, seed=seed)
            assert (
                price_vector_min_cost(inst).total_cost
                == brute_force_min_cost(inst).total_cost
            )

    def test_state_cap(self, monkeypatch):
        inst = random_instance(8, 3, max_price=9, seed=1)
        monkeypatch.setattr(exact, "MAX_STATES", 10)
        with pytest.raises(StateSpaceTooLarge):
            price_vector_min_cost(inst)

    def test_tie_break_keeps_smallest_spend_vector(self):
        # among equal-cost endings the lexicographically smallest per-shop
        # spend vector wins: here (0, 10), meaning both books at shop 1
        inst = make_instance(
            2,
            [(0, 99), (0, 99)],
            [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)],
        )
        assert price_vector_min_cost(inst).assignment.choice == (1, 1)

    def test_deterministic(self):
        for seed in range(10):
            inst = random_instance(5, 3, max_price=6, seed=seed)
            first = price_vector_min_cost(inst)
            assert price_vector_min_cost(inst) == first
            assert evaluate_assignment(inst, first.assignment) == first
