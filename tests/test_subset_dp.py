from __future__ import annotations

import random
import re
import time
import tracemalloc

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

    def test_book_cap(self, monkeypatch):
        # A shop's kept earning sets count against MAX_STATES as the search
        # finds them: 21 books are answered, and 25 at threshold 6 have
        # C(25, 6) sets, so the set cap refuses the first past it.  At
        # threshold 12 each set copies 12 books, and the step cap refuses
        # first.
        inst = make_instance(21, [(0, 1)], [(b, 0, 1) for b in range(21)])
        assert subset_dp_min_cost(inst).total_cost == 21
        monkeypatch.setattr(exact, "MAX_STATES", 1_000)
        inst = make_instance(25, [(1, 6)], [(b, 0, 1) for b in range(25)])
        with pytest.raises(
            ResourceLimitError, match=r"^earning set count 1001 of shop s1 exceeds cap 1000$"
        ):
            subset_dp_min_cost(inst)
        inst = make_instance(25, [(1, 12)], [(b, 0, 1) for b in range(25)])
        with pytest.raises(ResourceLimitError, match=r"^step count 16009 exceeds cap 16000$"):
            subset_dp_min_cost(inst)

    def test_many_books_few_earning_sets(self):
        # 25 books at threshold 2 give C(25, 2) = 300 earning sets.  The
        # search is charged the 325 books it tries and the 300 it copies
        # into two-book sets, where a charge of 2^25 for the shop's books
        # refused it.
        inst = make_instance(25, [(1, 2)], [(b, 0, 1) for b in range(25)])
        steps = exact._Steps()
        assert len(_earning_sets(inst, 0, steps)) == 300
        assert steps.count == 625
        assert subset_dp_min_cost(inst).total_cost == 24

    def test_huge_shop_refused_with_short_count(self, monkeypatch):
        # The search tries all 20,000 books once at its root, within
        # 16 * 2,000 steps, then finds pairs until the set cap refuses:
        # no count grows with 2^20000.
        inst = make_instance(20000, [(1, 2)], [(b, 0, 1) for b in range(20000)])
        monkeypatch.setattr(exact, "MAX_STATES", 2_000)
        with pytest.raises(
            ResourceLimitError, match=r"^earning set count 2001 of shop s1 exceeds cap 2000$"
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
        most_sets = max(
            len(exact._earning_sets(inst, s, exact._Steps())) for s in range(inst.num_shops)
        )
        monkeypatch.setattr(exact, "MAX_STATES", cap)
        with pytest.raises(ResourceLimitError, match=rf"exceeds cap {cap}$") as refused:
            subset_dp_min_cost(inst)
        size = re.match(r"reachable state count (\d+) ", str(refused.value))
        assert int(size[1]) <= cap + 2 * most_sets

    def test_state_size_bounded_by_earning_set_books(self, monkeypatch):
        # 14 shops each earn 2 on one of their 3 books among the last 42
        # of 20,000; the rest cost 5 at a shop with no discount.  A state
        # holds bits for those 42 books only: numbered by global index,
        # each state is a 20,000-bit int, and the refused DP peaked at
        # 27.8 MB here, against 1.4 MB.
        n = 20_000
        offers = [(b, 14, 5) for b in range(n - 42)]
        offers += [(b, (b - n + 42) // 3, 1) for b in range(n - 42, n)]
        inst = make_instance(n, [(2, 1)] * 14 + [(0, 0)], offers)
        inst.price, inst.books_by_shop, inst.cheapest  # built before the count
        monkeypatch.setattr(exact, "MAX_STATES", 20_000)
        tracemalloc.start()
        try:
            with pytest.raises(
                ResourceLimitError, match=r"^reachable state count 20005 exceeds cap 20000$"
            ):
                subset_dp_min_cost(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

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
        assert _earning_sets(inst, 0, exact._Steps()) == [((0,), 3)]
        assert _earning_sets(inst, 1, exact._Steps()) == [((), 2)]

    def test_earning_sets_match_mask_scan(self):
        # The search meets the sets of the 2^k scan it replaced, in its
        # order.  Zero and tied prices, threshold-0 and discount-0 shops and
        # thresholds past a shop's whole offer list all occur.
        def as_masks(inst, s):
            sets = _earning_sets(inst, s, exact._Steps())
            return [(sum(1 << b for b in books), saving) for books, saving in sets]

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
                sets = as_masks(inst, s)
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
                sets = as_masks(gen.instance, s)
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
