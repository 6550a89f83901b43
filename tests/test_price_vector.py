from __future__ import annotations

import itertools
import random
import re

import pytest

from clevershopper import (
    DiscountModel,
    ResourceLimitError,
    brute_force_min_cost,
    evaluate_assignment,
    from_bin_packing,
    from_partition,
    has_balanced_partition,
    make_instance,
    price_vector_dp,
    price_vector_min_cost,
    random_instance,
)
from clevershopper import exact


class TestDecision:
    def test_partition_yes(self):
        gen = from_partition((1, 2, 3))
        result = price_vector_dp(gen.instance, 4)
        assert result is not None
        assert result.total_cost <= 4

    def test_partition_no(self):
        gen = from_partition((1, 1, 3))
        assert price_vector_dp(gen.instance, 3) is None

    def test_single_shop_collapses_to_sum_test(self):
        inst = make_instance(2, [(3, 9)], [(0, 0, 5), (1, 0, 5)])
        # total 10 >= 9, so cost is 7
        assert price_vector_dp(inst, 7) is not None
        assert price_vector_dp(inst, 6) is None

    def test_witness_respects_budget(self):
        for seed in range(25):
            inst = random_instance(5, 3, max_price=6, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            result = price_vector_dp(inst, opt)
            assert result is not None
            assert evaluate_assignment(inst, result.choice) == result
            assert result.total_cost <= opt

    def test_full_budget_sweep_matches_oracle(self):
        for seed in range(8):
            inst = random_instance(5, 3, max_price=5, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            wallet = sum(o.price for o in inst.offers)
            for budget in range(0, wallet + 1):
                assert (price_vector_dp(inst, budget) is not None) == (opt <= budget)

    def test_partition_gadgets(self):
        rng = random.Random(9)
        for _ in range(60):
            weights = tuple(rng.randint(1, 60) for _ in range(rng.randint(8, 14)))
            gen = from_partition(weights)
            result = price_vector_dp(gen.instance, gen.target_budget)
            assert (result is not None) == has_balanced_partition(weights)

    def test_bin_packing_gadgets(self):
        rng = random.Random(10)
        for _ in range(60):
            bins = rng.randint(2, 4)
            weights = [rng.randint(1, 12) for _ in range(rng.randint(bins, 8))]
            weights[-1] += -sum(weights) % bins
            gen = from_bin_packing(tuple(weights), bins, sum(weights) // bins)
            result = price_vector_dp(gen.instance, gen.target_budget)
            assert (result is not None) == gen.expected_answer

    def test_large_discounts_at_the_optimum(self):
        # Discounts far above the prices make the cheapest plan a poor
        # bound, so the budget does the pruning.
        model = DiscountModel(max_discount=40, min_threshold=1, max_threshold=25)
        for seed in range(40):
            inst = random_instance(6, 4, max_price=9, discount_model=model, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            assert price_vector_dp(inst, opt - 1) is None
            result = price_vector_dp(inst, opt)
            assert result is not None and result.total_cost == opt

    @pytest.mark.parametrize("last, answer", [(22, True), (23, False)])
    def test_budget_prunes_spend_vectors(self, monkeypatch, last, answer):
        # Without pruning, both gadgets reach about 1,585 spend vectors;
        # dropping those that cannot meet the budget leaves about 573.
        gen = from_partition((17, 23, 5, 41, 8, 30, 12, 19, 27, 36, 9, 14, 11, last))
        monkeypatch.setattr(exact, "MAX_STATES", 1_000)
        assert (price_vector_dp(gen.instance, gen.target_budget) is not None) is answer


class TestOptimization:
    def test_five_books_five_shops(self, five_books):
        # Five shops are within price-dp's caps.
        result = price_vector_min_cost(five_books)
        assert result.total_cost == 34
        assert evaluate_assignment(five_books, result.choice) == result

    def test_matches_oracle_past_four_shops(self):
        rng = random.Random(19)
        for _ in range(300):
            model = DiscountModel(rng.choice([5, 20]), 0, rng.randint(5, 20))
            inst = random_instance(
                rng.randint(1, 6), rng.randint(5, 6), max_price=rng.randint(1, 9),
                discount_model=model, seed=rng.randrange(10**6),
            )
            opt = brute_force_min_cost(inst).total_cost
            assert price_vector_min_cost(inst).total_cost == opt
            assert price_vector_dp(inst, opt - 1) is None
            result = price_vector_dp(inst, opt)
            assert result is not None and result.total_cost == opt
            assert evaluate_assignment(inst, result.choice) == result

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
        with pytest.raises(ResourceLimitError, match="reachable state count 11 exceeds cap 10"):
            price_vector_min_cost(inst)

    @pytest.mark.parametrize("cap", [100, 10_000])
    def test_state_cap_checked_within_a_layer(self, monkeypatch, cap):
        # The count is checked after each new vector of a layer, so the
        # refusal comes before one layer can grow to m times the one
        # before, and it names the first count past the cap.
        inst = from_bin_packing((3, 5, 7, 2, 4, 6, 1, 8, 9, 3, 4, 8), 4, 15).instance
        monkeypatch.setattr(exact, "MAX_STATES", cap)
        with pytest.raises(ResourceLimitError, match=rf"exceeds cap {cap}$") as refused:
            price_vector_min_cost(inst)
        size = re.match(r"reachable state count (\d+) ", str(refused.value))
        assert int(size[1]) == cap + 1

    @pytest.mark.parametrize("cap", [5, 10, 100])
    def test_vector_cap_refuses_first_at_four_shops(self, monkeypatch, cap):
        # At most four offers of a book pass over each kept vector, at four
        # steps each, so at m <= 4 the step cap (16 * MAX_STATES) is never
        # the one that refuses.
        rng = random.Random(cap)
        monkeypatch.setattr(exact, "MAX_STATES", cap)
        refused = 0
        for _ in range(300):
            if rng.random() < 0.5:
                inst = random_instance(
                    rng.randint(1, 9), rng.randint(1, 4), max_price=rng.randint(1, 12),
                    discount_model=DiscountModel(rng.randint(0, 20), 0, rng.randint(4, 30)),
                    seed=rng.randrange(10**6),
                )
            else:
                weights = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 12)))
                inst = from_partition(weights).instance
            try:
                price_vector_min_cost(inst, rng.choice([None, rng.randint(-5, 60)]))
            except ResourceLimitError as exc:
                assert str(exc) == f"reachable state count {cap + 1} exceeds cap {cap}"
                refused += 1
        assert refused

    def test_tie_break_keeps_smallest_spend_vector(self):
        # among equal-cost endings the lexicographically smallest per-shop
        # spend vector wins: here (0, 10), meaning both books at shop 1
        inst = make_instance(
            2,
            [(0, 99), (0, 99)],
            [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)],
        )
        assert price_vector_min_cost(inst).choice == (1, 1)

    def test_which_cheapest_plan_is_returned(self):
        # The plan is pinned, not only its cost: the smallest final spend
        # vector, then, from the last book back, a positive price before a
        # zero one and the lower shop first.  Zero prices make ties common.
        rng = random.Random(18)
        for _ in range(300):
            n, m = rng.randint(1, 6), rng.randint(1, 4)
            rules = [(rng.randint(0, 8), rng.randint(0, 12)) for _ in range(m)]
            offers = []
            for b in range(n):
                for s in rng.sample(range(m), rng.randint(1, m)):
                    offers.append((b, s, 0 if rng.random() < 0.25 else rng.randint(1, 6)))
            inst = make_instance(n, rules, offers)
            price = {(b, s): p for b, s, p in offers}

            def key(result):
                tail = tuple((price[b, result.choice[b]] == 0, result.choice[b])
                             for b in reversed(range(n)))
                return (result.total_cost, result.per_shop_spend, tail)

            plans = itertools.product(*([s for s, _ in pairs] for pairs in inst.offers_by_book))
            best = min((evaluate_assignment(inst, c) for c in plans), key=key)
            for budget in (None, best.total_cost, best.total_cost + rng.randint(1, 5)):
                assert price_vector_min_cost(inst, budget) == best
            assert price_vector_min_cost(inst, best.total_cost - 1) is None

    def test_deterministic(self):
        for seed in range(10):
            inst = random_instance(5, 3, max_price=6, seed=seed)
            first = price_vector_min_cost(inst)
            assert price_vector_min_cost(inst) == first
            assert evaluate_assignment(inst, first.choice) == first
