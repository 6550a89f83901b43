from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clevershopper import (
    Assignment,
    BookUncovered,
    DanglingIndex,
    DiscountRule,
    DuplicateOffer,
    NegativeValue,
    OfferMissing,
    cheapest_shop,
    discount_earned,
    evaluate_assignment,
    make_instance,
    min_price,
    validate_instance,
)

import bruteforce


class TestDiscountEarned:
    @pytest.mark.parametrize(
        "discount, threshold, spend, expected",
        [
            (3, 10, 13, 3),
            (3, 10, 10, 3),  # boundary is inclusive
            (3, 10, 9, 0),
            (5, 0, 0, 5),  # zero threshold is always met
        ],
    )
    def test_cases(self, discount, threshold, spend, expected):
        assert discount_earned(DiscountRule(discount, threshold), spend) == expected

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 200))
    def test_step_function(self, d, t, spend):
        got = discount_earned(DiscountRule(d, t), spend)
        assert got in (0, d)
        assert got == (d if spend >= t else 0)
        # non-decreasing in spend
        assert discount_earned(DiscountRule(d, t), spend + 1) >= got or d == 0


class TestValidation:
    def test_five_books_is_valid(self, five_books):
        assert validate_instance(five_books) is five_books
        assert five_books.num_shops == 5

    def test_uncovered_book(self):
        with pytest.raises(BookUncovered) as err:
            make_instance(2, [(1, 1)], [(0, 0, 5)])
        assert err.value.book == 1

    def test_uncovered_book_of_huge_declared_count(self):
        # Found from the offers, without a table the size of the count.
        with pytest.raises(BookUncovered) as err:
            make_instance(10**15, [(0, 0)], [(0, 0, 5)])
        assert err.value.book == 1

    def test_duplicate_offer(self):
        with pytest.raises(DuplicateOffer) as err:
            make_instance(1, [(1, 1)], [(0, 0, 12), (0, 0, 10)])
        assert (err.value.book, err.value.shop) == (0, 0)

    def test_dangling_book_index(self):
        with pytest.raises(DanglingIndex):
            make_instance(1, [(1, 1)], [(0, 0, 5), (3, 0, 5)])

    def test_dangling_shop_index(self):
        with pytest.raises(DanglingIndex):
            make_instance(1, [(1, 1)], [(0, 2, 5)])

    @pytest.mark.parametrize(
        "rules, offers",
        [
            ([(-1, 1)], [(0, 0, 5)]),
            ([(1, -1)], [(0, 0, 5)]),
            ([(1, 1)], [(0, 0, -5)]),
        ],
    )
    def test_negative_values(self, rules, offers):
        with pytest.raises(NegativeValue):
            make_instance(1, rules, offers)

    def test_negative_budget(self):
        with pytest.raises(NegativeValue):
            make_instance(1, [(1, 1)], [(0, 0, 5)], budget=-1)

    def test_zero_price_allowed(self):
        inst = make_instance(1, [(1, 1)], [(0, 0, 0)])
        assert inst.price[(0, 0)] == 0


class TestAccessors:
    def test_min_price(self, five_books):
        assert min_price(five_books, 2) == 4  # offers 7, 4, 5, 8
        assert min_price(five_books, 1) == 9  # offers 10, 9, 11

    def test_min_price_singleton(self):
        inst = make_instance(1, [(1, 1)], [(0, 0, 7)])
        assert min_price(inst, 0) == 7

    def test_min_price_unknown_book(self, five_books):
        with pytest.raises(DanglingIndex):
            min_price(five_books, 5)

    @pytest.mark.parametrize("book", [-1, 5])
    def test_cheapest_shop_unknown_book(self, five_books, book):
        with pytest.raises(DanglingIndex):
            cheapest_shop(five_books, book)

    def test_cheapest_shop_prefers_low_index_on_tie(self):
        inst = make_instance(1, [(0, 1), (0, 1), (0, 1)],
                             [(0, 0, 9), (0, 1, 4), (0, 2, 4)])
        assert cheapest_shop(inst, 0) == 1

    def test_offers_by_book_sorted_by_shop(self, five_books):
        shops = [shop for shop, _ in five_books.offers_by_book[2]]
        assert shops == sorted(shops)
        assert five_books.offers_by_book[2] == ((1, 7), (2, 4), (3, 5), (4, 8))

    def test_default_names(self, five_books):
        assert five_books.book_name(0) == "b1"
        assert five_books.shop_name(4) == "s5"


class TestEvaluate:
    def test_five_books_best_plan(self, five_books):
        result = evaluate_assignment(five_books, Assignment((0, 2, 3, 3, 4)))
        assert result.total_cost == 34
        assert result.total_discount == 9  # three shops at 3 each
        assert result.per_shop_spend == {0: 12, 1: 0, 2: 11, 3: 13, 4: 7}

    def test_no_discount_when_thresholds_unreachable(self):
        inst = make_instance(2, [(5, 100)], [(0, 0, 3), (1, 0, 4)])
        result = evaluate_assignment(inst, Assignment((0, 0)))
        assert result.total_cost == 7
        assert result.total_discount == 0

    def test_offer_missing(self, five_books):
        with pytest.raises(OfferMissing) as err:
            evaluate_assignment(five_books, Assignment((1, 0, 1, 3, 4)))
        assert (err.value.book, err.value.shop) == (0, 1)

    def test_short_choice_rejected(self, five_books):
        with pytest.raises(BookUncovered):
            evaluate_assignment(five_books, Assignment((0, 0)))

    def test_long_choice_rejected(self, five_books):
        with pytest.raises(DanglingIndex):
            evaluate_assignment(five_books, Assignment((0, 2, 3, 3, 4, 4)))

    def test_matches_independent_evaluator(self, five_books):
        for choice in [(0, 0, 1, 3, 4), (0, 1, 2, 3, 4), (0, 2, 4, 3, 4)]:
            result = evaluate_assignment(five_books, Assignment(choice))
            assert result.total_cost == bruteforce.assignment_cost(five_books, choice)

    def test_cost_never_exceeds_gross(self, five_books):
        result = evaluate_assignment(five_books, Assignment((0, 1, 1, 3, 4)))
        gross = sum(five_books.price[(b, s)] for b, s in enumerate((0, 1, 1, 3, 4)))
        assert result.total_cost <= gross
        assert (result.total_cost == gross) == (result.total_discount == 0)

    def test_min_price_plan_is_upper_bound(self, five_books):
        choice = tuple(cheapest_shop(five_books, b) for b in range(5))
        result = evaluate_assignment(five_books, Assignment(choice))
        bound = sum(min_price(five_books, b) for b in range(5))
        assert result.total_cost <= bound
