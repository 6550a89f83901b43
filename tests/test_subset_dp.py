from __future__ import annotations

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
    make_instance,
    matching2_min_cost,
    random_instance,
    subset_dp_min_cost,
)
from clevershopper import exact
from clevershopper.exact import _earning_sets


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
        # One shop selling 21 books: its 2^21 subset tables pass MAX_STATES.
        inst = make_instance(21, [(0, 1)], [(b, 0, 1) for b in range(21)])
        with pytest.raises(
            ResourceLimitError,
            match=r"^shop s1 sells 21 books, its 2\^21 subset tables exceed cap 2000000$",
        ):
            subset_dp_min_cost(inst)

    def test_matches_matching2_past_twenty_books(self):
        # Shops selling at most two books keep the tables small at any n;
        # matching2 gives the cost.
        for n in range(21, 25):
            for seed in range(10):
                inst = random_instance(n, n, shop_degree_cap=2, seed=seed)
                got = subset_dp_min_cost(inst)
                assert got.total_cost == matching2_min_cost(inst).total_cost
                assert evaluate_assignment(inst, got.choice) == got

    def test_state_cap(self, monkeypatch):
        # A shop's 2^k tables are bounded on their own: the DP's saving
        # states and back-pointers count against MAX_STATES.
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
