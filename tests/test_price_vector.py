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
    price_vector_min_cost,
    random_instance,
    run_algorithm,
    subset_dp_min_cost,
)
from clevershopper import exact


def _placing_order(inst):
    """The order price-dp places books in: dearest offer first, ties to the
    lower book index."""
    return sorted(range(inst.num_books), key=lambda b: (
        -max(price for _, price in inst.offers_by_book[b]), b))


def _assert_pinned_plan(inst, rng):
    """price-dp returns the pinned plan, not only a cheapest one: the
    smallest final spend vector, then, from the last book placed back, a
    positive price before a zero one and the lower shop first.  It returns
    it at budgets from its cost up, and None one below."""
    order = _placing_order(inst)

    def key(result):
        tail = tuple((inst.price[b, result.choice[b]] == 0, result.choice[b])
                     for b in reversed(order))
        return (result.total_cost, result.per_shop_spend, tail)

    plans = itertools.product(*([s for s, _ in pairs] for pairs in inst.offers_by_book))
    best = min((evaluate_assignment(inst, c) for c in plans), key=key)
    for budget in (None, best.total_cost, best.total_cost + rng.randint(1, 5)):
        assert price_vector_min_cost(inst, budget) == best
    assert price_vector_min_cost(inst, best.total_cost - 1) is None


class TestDecision:
    def test_partition_yes(self):
        gen = from_partition((1, 2, 3))
        result = price_vector_min_cost(gen.instance, 4)
        assert result is not None
        assert result.total_cost <= 4

    def test_partition_no(self):
        gen = from_partition((1, 1, 3))
        assert price_vector_min_cost(gen.instance, 3) is None

    def test_single_shop_collapses_to_sum_test(self):
        inst = make_instance(2, [(3, 9)], [(0, 0, 5), (1, 0, 5)])
        # total 10 >= 9, so cost is 7
        assert price_vector_min_cost(inst, 7) is not None
        assert price_vector_min_cost(inst, 6) is None

    def test_witness_respects_budget(self):
        for seed in range(25):
            inst = random_instance(5, 3, max_price=6, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            result = price_vector_min_cost(inst, opt)
            assert result is not None
            assert evaluate_assignment(inst, result.choice) == result
            assert result.total_cost <= opt

    def test_full_budget_sweep_matches_oracle(self):
        for seed in range(8):
            inst = random_instance(5, 3, max_price=5, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            wallet = sum(o.price for o in inst.offers)
            for budget in range(0, wallet + 1):
                assert (price_vector_min_cost(inst, budget) is not None) == (opt <= budget)

    def test_partition_gadgets(self):
        rng = random.Random(9)
        for _ in range(60):
            weights = tuple(rng.randint(1, 60) for _ in range(rng.randint(8, 14)))
            gen = from_partition(weights)
            result = price_vector_min_cost(gen.instance, gen.target_budget)
            assert (result is not None) == has_balanced_partition(weights)

    def test_bin_packing_gadgets(self):
        rng = random.Random(10)
        for _ in range(60):
            bins = rng.randint(2, 4)
            weights = [rng.randint(1, 12) for _ in range(rng.randint(bins, 8))]
            weights[-1] += -sum(weights) % bins
            gen = from_bin_packing(tuple(weights), bins, sum(weights) // bins)
            result = price_vector_min_cost(gen.instance, gen.target_budget)
            assert (result is not None) == gen.expected_answer

    def test_large_discounts_at_the_optimum(self):
        # Discounts far above the prices make the cheapest plan a poor
        # bound, so the budget does the pruning.
        model = DiscountModel(max_discount=40, min_threshold=1, max_threshold=25)
        for seed in range(40):
            inst = random_instance(6, 4, max_price=9, discount_model=model, seed=seed)
            opt = brute_force_min_cost(inst).total_cost
            assert price_vector_min_cost(inst, opt - 1) is None
            result = price_vector_min_cost(inst, opt)
            assert result is not None and result.total_cost == opt

    @pytest.mark.parametrize("last, answer", [(22, True), (23, False)])
    def test_budget_prunes_spend_vectors(self, monkeypatch, last, answer):
        # Without pruning, both gadgets reach about 1,585 spend vectors;
        # dropping those that cannot meet the budget leaves 173 on the
        # "yes" gadget.  The "no" gadget has an odd total, so the root
        # bound answers it before the first layer.
        gen = from_partition((17, 23, 5, 41, 8, 30, 12, 19, 27, 36, 9, 14, 11, last))
        monkeypatch.setattr(exact, "MAX_STATES", 1_000)
        assert (price_vector_min_cost(gen.instance, gen.target_budget) is not None) is answer

    def test_outsized_item_answered_at_the_first_book(self, monkeypatch):
        # An even total whose largest item is over half of it: no plan
        # meets the budget.  Placed first, that item lifts no vector to
        # within the bound, so no layer grows; placed last, as in index
        # order, it leaves every balance of the other items in reach and
        # passes a cap of 100.
        gen = from_partition((17, 23, 5, 41, 8, 30, 12, 19, 27, 36, 9, 14, 11, 254))
        monkeypatch.setattr(exact, "MAX_STATES", 100)
        assert price_vector_min_cost(gen.instance, gen.target_budget) is None

    def test_dearest_first_keeps_few_vectors(self, monkeypatch):
        # A 22-item partition "yes" gadget (the larger of the seed-0
        # few-shops gadgets).  Placed dearest first it keeps 11,377 vectors
        # in all; placed in index order it kept 47,516, and a cap of
        # 12,000 refused it.
        gen = from_partition((3871, 3880, 2726, 3190, 2341, 2514, 3131, 72, 300, 4532, 477,
                              1722, 634, 223, 4884, 2854, 3795, 3202, 2454, 4165, 778, 3051))
        monkeypatch.setattr(exact, "MAX_STATES", 12_000)
        result = price_vector_min_cost(gen.instance, gen.target_budget)
        assert result is not None and result.total_cost <= gen.target_budget


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
            assert price_vector_min_cost(inst, opt - 1) is None
            result = price_vector_min_cost(inst, opt)
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
        # Placed dearest first, its layers hold 10 vectors in all.
        monkeypatch.setattr(exact, "MAX_STATES", 9)
        with pytest.raises(ResourceLimitError, match="reachable state count 10 exceeds cap 9"):
            price_vector_min_cost(inst)

    @pytest.mark.parametrize("cap", [100, 10_000])
    def test_state_cap_checked_within_a_layer(self, monkeypatch, cap):
        # The count is checked after each new vector of a layer, so the
        # refusal comes before one layer can grow to m times the one
        # before, and it names the first count past the cap.  The shops
        # of this bin-packing gadget have different discounts, so none are
        # interchangeable and no orbit shrinks a layer.
        weights = (3, 5, 7, 2, 4, 6, 1, 8, 9, 3, 4, 8)
        rules = [(1, 15), (2, 15), (3, 15), (4, 15)]
        offers = [(b, s, w) for b, w in enumerate(weights) for s in range(4)]
        inst = make_instance(12, rules, offers)
        monkeypatch.setattr(exact, "MAX_STATES", cap)
        with pytest.raises(ResourceLimitError, match=rf"exceeds cap {cap}$") as refused:
            price_vector_min_cost(inst)
        size = re.match(r"reachable state count (\d+) ", str(refused.value))
        assert int(size[1]) == cap + 1

    @pytest.mark.parametrize("cap", [5, 10, 100])
    def test_vector_cap_refuses_first_at_four_shops(self, monkeypatch, cap):
        # A kept vector is charged m for its base, and per offer of a book
        # one step plus one per shop after the offer's in its group: at
        # m <= 4 at most 4 + (4 + 3 + 2 + 1) = 14 steps, so the step cap
        # (16 * MAX_STATES) is never the one that refuses.  Every bin of a
        # bin-packing gadget is interchangeable with the others, so at four
        # bins a vector is charged all 14.
        rng = random.Random(cap)
        monkeypatch.setattr(exact, "MAX_STATES", cap)
        refused = 0
        for _ in range(400):
            draw = rng.random()
            if draw < 0.375:
                inst = random_instance(
                    rng.randint(1, 9), rng.randint(1, 4), max_price=rng.randint(1, 12),
                    discount_model=DiscountModel(rng.randint(0, 20), 0, rng.randint(4, 30)),
                    seed=rng.randrange(10**6),
                )
            elif draw < 0.75:
                weights = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 12)))
                inst = from_partition(weights).instance
            else:
                bins = rng.randint(2, 4)
                weights = [rng.randint(1, 12) for _ in range(rng.randint(1, 11))]
                capacity = -(-sum(weights) // bins)
                weights.append(bins * capacity - sum(weights))
                inst = from_bin_packing(tuple(weights), bins, capacity).instance
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
        # Zero prices make ties common.
        rng = random.Random(18)
        for _ in range(300):
            n, m = rng.randint(1, 6), rng.randint(1, 4)
            rules = [(rng.randint(0, 8), rng.randint(0, 12)) for _ in range(m)]
            offers = []
            for b in range(n):
                for s in rng.sample(range(m), rng.randint(1, m)):
                    offers.append((b, s, 0 if rng.random() < 0.25 else rng.randint(1, 6)))
            _assert_pinned_plan(make_instance(n, rules, offers), rng)

    def test_which_plan_with_interchangeable_shops(self):
        # Copies of a shop (the same rule, the same books at the same
        # prices) share one canonical spend vector per orbit, and the plan
        # returned is still the pinned one.  The copies sit at shuffled
        # positions, so a group's shops need not be adjacent.  A near copy
        # sells the same books at the same prices, but its discount or its
        # threshold is one more, so it is not interchangeable.
        rng = random.Random(22)
        for _ in range(300):
            n, kinds = rng.randint(1, 5), rng.randint(1, 3)
            rules = [(rng.randint(0, 8), rng.randint(0, 12)) for _ in range(kinds)]
            sold = [{} for _ in range(kinds)]
            for b in range(n):
                for k in rng.sample(range(kinds), rng.randint(1, kinds)):
                    sold[k][b] = 0 if rng.random() < 0.25 else rng.randint(1, 6)
            shops = [(k, rules[k]) for k in range(kinds)]
            shops += [(k, rules[k]) for k in rng.choices(range(kinds), k=rng.randint(1, 2))]
            if rng.random() < 0.5:
                k = rng.randrange(kinds)
                d, t = rules[k]
                shops.append((k, rng.choice([(d + 1, t), (d, t + 1)])))
            rng.shuffle(shops)
            offers = [(b, s, p) for s, (k, _) in enumerate(shops) for b, p in sold[k].items()]
            inst = make_instance(n, [rule for _, rule in shops], offers)
            assert exact._interchangeable(inst)
            _assert_pinned_plan(inst, rng)

    def test_bin_packing_past_the_cap_without_orbits(self):
        # Five interchangeable bins: keeping every permutation of their
        # spends passes MAX_STATES, and one vector per orbit stays far
        # below it.
        weights = (3, 5, 7, 2, 4, 6, 1, 8, 9, 3, 4, 8, 5, 7, 3, 5)
        inst = from_bin_packing(weights, 5, 16).instance
        result = price_vector_min_cost(inst)
        assert result.total_cost == 75
        assert evaluate_assignment(inst, result.choice) == result

    def test_deterministic(self):
        for seed in range(10):
            inst = random_instance(5, 3, max_price=6, seed=seed)
            first = price_vector_min_cost(inst)
            assert price_vector_min_cost(inst) == first
            assert evaluate_assignment(inst, first.choice) == first


class TestPackedVectors:
    """A spend vector is one int of bit fields as wide as the most any
    shop sells: the edges of that packing."""

    def test_no_books_no_shops(self):
        result = run_algorithm("price-dp", make_instance(0, [], []))
        assert (result.choice, result.total_cost, result.per_shop_spend) == ((), 0, ())

    def test_all_prices_zero(self):
        # Every field stays 0 and is one bit wide; only threshold-0 shops
        # earn, and the zero-price tie-breaks pick the plan.
        inst = make_instance(
            4, [(2, 0), (3, 1), (5, 0)], [(b, s, 0) for b in range(4) for s in range(3) if b != s]
        )
        _assert_pinned_plan(inst, random.Random(0))
        assert price_vector_min_cost(inst).total_cost == -7

    def test_fields_near_1e18(self):
        # Shop s1 sells about 4 * 10^18, so each field is 62 bits; s2 and
        # s3 are interchangeable and both earn at the optimum.
        e = 10**18
        inst = make_instance(
            4,
            [(5 * e // 10, 2 * e + 1), (6 * e // 10, 2 * e), (6 * e // 10, 2 * e)],
            [(b, 0, e + b) for b in range(4)] + [(b, s, e + 3 - b) for b in range(4) for s in (1, 2)],
        )
        result = price_vector_min_cost(inst)
        assert result.total_cost == subset_dp_min_cost(inst).total_cost == 28 * e // 10 + 6
        assert result.per_shop_spend == (0, 2 * e + 1, 2 * e + 5)
        _assert_pinned_plan(inst, random.Random(0))


class TestRootBound:
    def test_below_every_plan(self):
        # Zero prices, threshold-0 shops, zero discounts, no books and shops
        # whose offers cannot reach their threshold all occur.
        rng = random.Random(20)
        above = 0
        for _ in range(2_000):
            n, m = rng.randint(0, 5), rng.randint(1, 4)
            rules = [(rng.choice([0, rng.randint(1, 12)]), rng.choice([0, rng.randint(1, 25)]))
                     for _ in range(m)]
            offers = []
            for b in range(n):
                for s in rng.sample(range(m), rng.randint(1, m)):
                    offers.append((b, s, 0 if rng.random() < 0.2 else rng.randint(1, 9)))
            inst = make_instance(n, rules, offers)
            bound = exact._root_bound(inst)
            assert bound <= brute_force_min_cost(inst).total_cost
            sells = [sum(p for b, s, p in offers if s == shop) for shop in range(m)]
            lb0 = sum(p for _, p in inst.cheapest) - sum(
                d for (d, t), total in zip(rules, sells) if total >= t
            )
            assert bound >= lb0
            above += bound > lb0
        assert above > 50  # it beats LB0 on 95 of these 2,000

    def test_exact_near_1e18(self):
        # One book: 10^18 + 1 at s1, whose discount needs all of it, or
        # 10^17 + 1 at s2.  The bound is tight at -10^17.  The knapsack
        # floor, taken in floats, comes out one too low, which would lift
        # the bound past the optimum and answer no at it.
        inst = make_instance(
            1, [(11 * 10**17 + 1, 10**18 + 1), (0, 0)], [(0, 0, 10**18 + 1), (0, 1, 10**17 + 1)]
        )
        assert exact._root_bound(inst) == -(10**17) == brute_force_min_cost(inst).total_cost
        result = price_vector_min_cost(inst, -(10**17))
        assert result is not None and result.choice == (0,)
        assert price_vector_min_cost(inst, -(10**17) - 1) is None

    def test_decides_before_the_first_layer(self, monkeypatch):
        # With room for one vector only, any layer would be refused.  An
        # odd total needs both thresholds to sum to one more than any plan
        # spends.  Three books at 5 can pay for one threshold of 10 and
        # half of the other, so no plan costs less than 15 - 4 - 2 = 9,
        # where LB0, R less both discounts, is 7.
        monkeypatch.setattr(exact, "MAX_STATES", 1)
        gen = from_partition((3, 1, 1, 2, 2, 2))
        assert price_vector_min_cost(gen.instance, gen.target_budget) is None
        inst = make_instance(3, [(4, 10), (4, 10)], [(b, s, 5) for b in range(3) for s in range(2)])
        assert exact._root_bound(inst) == 9
        assert price_vector_min_cost(inst, 8) is None
        with pytest.raises(ResourceLimitError, match="reachable state count 2 exceeds cap 1"):
            price_vector_min_cost(inst, 9)

    def test_decides_before_any_step_is_charged(self, monkeypatch):
        # 41 books at two shops, under a step cap of 80.  The root bound
        # decides the odd total before any step is charged, so the answer
        # is no rather than a refusal.
        monkeypatch.setattr(exact, "MAX_STATES", 5)
        gen = from_partition((1,) * 41)
        assert price_vector_min_cost(gen.instance, gen.target_budget) is None
