from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clevershopper import (
    DiscountModel,
    ResourceLimitError,
    brute_force_min_cost,
    evaluate_assignment,
    from_bin_packing,
    from_partition,
    make_instance,
    matching2_min_cost,
    random_instance,
    subset_dp_min_cost,
)
from clevershopper import exact
from clevershopper.exact import _earning_sets

import bruteforce


class TestSubsetDp:
    def test_five_books(self, five_books):
        result = subset_dp_min_cost(five_books)
        assert result.total_cost == 34
        assert evaluate_assignment(five_books, result.choice) == result

    def test_one_book_picks_better_discounted_shop(self):
        # 5-1=4 at the first shop vs 6-3=3 at the second
        inst = make_instance(1, [(1, 5), (3, 6)], [(0, 0, 5), (0, 1, 6)])
        assert subset_dp_min_cost(inst).total_cost == 3

    def test_zero_threshold_shop_discount_counts_unconditionally(self):
        # shop 1 gives 2 off any spend, even a spend of zero there
        inst = make_instance(1, [(0, 9), (2, 0)], [(0, 0, 5), (0, 1, 9)])
        result = subset_dp_min_cost(inst)
        assert result.total_cost == 3  # buy at shop 0 for 5, still save 2
        assert result.choice == (0,)

    def test_all_books_one_shop(self):
        inst = make_instance(3, [(4, 10)], [(b, 0, 4) for b in range(3)])
        assert subset_dp_min_cost(inst).total_cost == 8

    def test_book_cap(self):
        # The search for a shop's earning sets is charged 2^k steps before
        # it runs: 21 books are answered, and 25 pass the step cap of
        # 16 * MAX_STATES on their own, before C(25, 12) sets are met.
        inst = make_instance(21, [(0, 1)], [(b, 0, 1) for b in range(21)])
        assert subset_dp_min_cost(inst).total_cost == 21
        inst = make_instance(25, [(1, 12)], [(b, 0, 1) for b in range(25)])
        with pytest.raises(
            ResourceLimitError, match=r"^step count 33554432 exceeds cap 32000000$"
        ):
            subset_dp_min_cost(inst)

    def test_huge_shop_refused_with_short_count(self):
        # 2^20000 has more digits than Python will print by default; the
        # charge is clamped, so the refusal reads like the 25-book one.
        inst = make_instance(20000, [(1, 2)], [(b, 0, 1) for b in range(20000)])
        with pytest.raises(
            ResourceLimitError, match=r"^step count 33554432 exceeds cap 32000000$"
        ):
            subset_dp_min_cost(inst)

    def test_matches_matching2_past_twenty_books(self):
        # Shops selling at most two books keep the searches small at any
        # n; matching2 gives the cost.
        for n in range(21, 25):
            for seed in range(10):
                inst = random_instance(n, n, shop_degree_cap=2, seed=seed)
                got = subset_dp_min_cost(inst)
                assert got.total_cost == matching2_min_cost(inst).total_cost
                assert evaluate_assignment(inst, got.choice) == got

    def test_state_cap(self, monkeypatch):
        # The DP's saving states and back-pointers count against
        # MAX_STATES.
        inst = random_instance(
            8, 4, unit_prices=True, discount_model=DiscountModel(5, 1, 2), seed=1
        )
        monkeypatch.setattr(exact, "MAX_STATES", 100)
        with pytest.raises(ResourceLimitError, match="reachable state count 101 exceeds cap 100"):
            subset_dp_min_cost(inst)

    @pytest.mark.parametrize("cap", [100, 1_000])
    def test_state_cap_checked_within_a_shop(self, monkeypatch, cap):
        # The count is checked after each state of a shop's pass, so the
        # refusal comes before one pass can add many more entries: one
        # state adds at most two (a state and a back-pointer) per set.
        inst = random_instance(
            12, 6, unit_prices=True, discount_model=DiscountModel(5, 1, 2), seed=1
        )
        most_sets = max(len(exact._earning_sets(inst, s)) for s in range(inst.num_shops))
        monkeypatch.setattr(exact, "MAX_STATES", cap)
        with pytest.raises(ResourceLimitError, match=rf"exceeds cap {cap}$") as refused:
            subset_dp_min_cost(inst)
        size = re.match(r"reachable state count (\d+) ", str(refused.value))
        assert int(size[1]) <= cap + 2 * most_sets

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_oracle(self, seed):
        inst = random_instance(6, 4, max_price=10, seed=seed)
        want = brute_force_min_cost(inst)
        got = subset_dp_min_cost(inst)
        assert got.total_cost == want.total_cost
        assert evaluate_assignment(inst, got.choice) == got

    def test_matches_oracle_with_zero_thresholds(self):
        from clevershopper import DiscountModel

        model = DiscountModel(max_discount=5, min_threshold=0, max_threshold=12)
        for seed in range(40):
            inst = random_instance(5, 4, max_price=7, discount_model=model, seed=seed)
            assert (
                subset_dp_min_cost(inst).total_cost
                == brute_force_min_cost(inst).total_cost
            )

    def test_earning_sets_are_threshold_minimal(self):
        # b1 alone reaches the threshold; b1 with b2 does too, but still
        # reaches it without b2, so only {b1} is kept.
        inst = make_instance(2, [(3, 5), (2, 0)], [(0, 0, 5), (1, 0, 1), (1, 1, 1)])
        assert _earning_sets(inst, 0) == [(0b01, 3)]
        assert _earning_sets(inst, 1) == [(0, 2)]

    def test_earning_sets_match_mask_scan(self):
        # The search meets the sets of the 2^k scan it replaced, in its
        # order.  Zero and tied prices, threshold-0 and discount-0 shops and
        # thresholds past a shop's whole offer list all occur.
        rng = random.Random(24)
        several = 0  # shops with more than one set, so an order to check
        for _ in range(1_500):
            n, m = rng.randint(0, 10), rng.randint(1, 4)
            top = rng.choice([1, 3, 9])  # unit, tied and spread prices
            rules = [(0 if rng.random() < 0.2 else rng.randint(1, 40),
                      0 if rng.random() < 0.1 else rng.randint(1, 3 * top))
                     for _ in range(m)]
            offers = []
            for b in range(n):
                for s in rng.sample(range(m), rng.randint(1, m)):
                    offers.append((b, s, 0 if rng.random() < 0.2 else rng.randint(1, top)))
            inst = make_instance(n, rules, offers)
            for s in range(m):
                sets = _earning_sets(inst, s)
                assert sets == bruteforce.earning_sets_by_masks(inst, s)
                several += len(sets) > 1
        gadgets = [
            from_partition(tuple(rng.choice([0, 0, 1, 2, 5]) for _ in range(rng.randint(1, 12))))
            for _ in range(100)
        ]
        gadgets += [from_bin_packing((3, 0, 5, 7, 2, 4, 0, 6, 1, 8, 9, 3), 4, 12),
                    from_partition((0,) * 10), from_partition((1,) * 14)]
        for gen in gadgets:
            for s in range(gen.instance.num_shops):
                sets = _earning_sets(gen.instance, s)
                assert sets == bruteforce.earning_sets_by_masks(gen.instance, s)
                several += len(sets) > 1
        assert several > 1_000

    # Unit and fixed prices leave no premium, so many threshold-minimal
    # sets tie; threshold-0 shops are drawn throughout, and discount-0
    # shops in every set (all of them under "no-discounts").
    @pytest.mark.parametrize("max_discount", [0, 4], ids=["no-discounts", "discounts"])
    @pytest.mark.parametrize(
        "prices",
        [dict(unit_prices=True), dict(fixed_prices=True, max_price=4), dict(max_price=3)],
        ids=["unit", "fixed", "low"],
    )
    def test_matches_oracle_on_tied_prices(self, prices, max_discount):
        model = DiscountModel(max_discount=max_discount, min_threshold=0, max_threshold=4)
        for seed in range(150):
            inst = random_instance(
                1 + seed % 7, 1 + seed % 5, discount_model=model, seed=seed, **prices
            )
            got = subset_dp_min_cost(inst)
            assert got.total_cost == brute_force_min_cost(inst).total_cost
            assert evaluate_assignment(inst, got.choice) == got

    def test_documented_cap_is_fast(self):
        inst = random_instance(
            20, 10, max_price=10,
            discount_model=DiscountModel(max_discount=5, min_threshold=0),
            seed=8,
        )
        start = time.perf_counter()
        result = subset_dp_min_cost(inst)
        assert time.perf_counter() - start < 5.0
        assert result.total_cost == 45
