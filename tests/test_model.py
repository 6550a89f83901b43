from __future__ import annotations

import gc
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clevershopper import (
    ALGORITHM_NAMES,
    CleverShopperError,
    DanglingIndex,
    DiscountRule,
    InputError,
    Instance,
    NegativeValue,
    Offer,
    discount_earned,
    evaluate_assignment,
    make_instance,
    run_algorithm,
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
        assert five_books.num_shops == 5

    def test_uncovered_book(self):
        with pytest.raises(InputError, match="book b2 is offered by no shop"):
            make_instance(2, [(1, 1)], [(0, 0, 5)])

    def test_uncovered_book_of_huge_declared_count(self):
        # Found from the offers, without a table the size of the count.
        with pytest.raises(InputError, match="book b2 is offered by no shop"):
            make_instance(10**15, [(0, 0)], [(0, 0, 5)])

    def test_duplicate_offer(self):
        with pytest.raises(InputError, match="duplicate offer for book b1 at shop s1"):
            make_instance(1, [(1, 1)], [(0, 0, 12), (0, 0, 10)])

    def test_dangling_book_index(self):
        with pytest.raises(DanglingIndex):
            make_instance(1, [(1, 1)], [(0, 0, 5), (3, 0, 5)])

    def test_dangling_shop_index(self):
        with pytest.raises(DanglingIndex):
            make_instance(1, [(1, 1)], [(0, 2, 5)])

    @pytest.mark.parametrize(
        "rules, offers, message",
        [
            ([(-1, 1)], [(0, 0, 5), (1, 0, 5)],
             "discount of shop s1 must be non-negative, got -1"),
            ([(1, -1)], [(0, 0, 5), (1, 0, 5)],
             "threshold of shop s1 must be non-negative, got -1"),
            ([(1, 1)], [(0, 0, 5), (1, 0, -2)],
             "price of book b2 at shop s1 must be non-negative, got -2"),
        ],
        ids=["discount", "threshold", "price"],
    )
    def test_negative_value_names_book_and_shop_from_one(self, rules, offers, message):
        with pytest.raises(NegativeValue, match=f"^{message}$"):
            make_instance(2, rules, offers)

    def test_zero_price_allowed(self):
        inst = make_instance(1, [(1, 1)], [(0, 0, 0)])
        assert inst.price[(0, 0)] == 0

    @pytest.mark.parametrize(
        "num_books, offers, message",
        [
            (2, [(0, 0, 5)], "book b2 is offered by no shop"),
            (1, [(0, 3, 5)], "shop s4 out of range (have 1)"),
            (1, [(0, 0, -5)], "price of book b1 at shop s1 must be non-negative, got -5"),
            (1, [(0, 0, 12), (0, 0, 10)], "duplicate offer for book b1 at shop s1"),
        ],
        ids=["uncovered", "dangling-shop", "negative-price", "duplicate"],
    )
    def test_direct_construction_checks_like_make_instance(self, num_books, offers, message):
        pattern = f"^{re.escape(message)}$"
        with pytest.raises(InputError, match=pattern):
            make_instance(num_books, [(1, 1)], offers)
        with pytest.raises(InputError, match=pattern):
            Instance(num_books, (DiscountRule(1, 1),), tuple(Offer(*o) for o in offers))

    @pytest.mark.parametrize(
        "num_shops, offers, message",
        [
            (2, [(1, 0, 5), (0, 1, 6), (0, 0, 7), (1, 1, 8)],
             "offer out of (book, shop) order: book b1 at shop s2 follows book b2 at shop s1"),
            (2, [(0, 1, 6), (0, 0, 7), (1, 0, 5), (1, 1, 8)],
             "offer out of (book, shop) order: book b1 at shop s1 follows book b1 at shop s2"),
            # The offer before is at the last shop of a book past the first.
            (2, [(0, 0, 1), (1, 1, 2), (1, 0, 3), (0, 1, 4)],
             "offer out of (book, shop) order: book b2 at shop s1 follows book b2 at shop s2"),
            (1, [(1, 0, 5), (0, 0, 7)],
             "offer out of (book, shop) order: book b1 at shop s1 follows book b2 at shop s1"),
            # The book steps back while the shop goes up.
            (3, [(0, 0, 1), (1, 0, 2), (0, 2, 3), (1, 1, 4)],
             "offer out of (book, shop) order: book b1 at shop s3 follows book b2 at shop s1"),
        ],
        ids=["book", "shop", "after-last-shop", "one-shop", "book-back-shop-up"],
    )
    def test_direct_construction_requires_book_shop_order(self, num_shops, offers, message):
        rules = [(s + 1, s + 1) for s in range(num_shops)]
        discount_rules = tuple(DiscountRule(d, t) for d, t in rules)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            Instance(2, discount_rules, tuple(Offer(*o) for o in offers))
        # make_instance sorts the same offers into that order.
        in_order = Instance(2, discount_rules, tuple(Offer(*o) for o in sorted(offers)))
        assert make_instance(2, rules, offers) == in_order


class TestGcPaused:
    # The CLI pauses the collector (tests/test_cli.py); the library leaves
    # it as it found it.
    @pytest.mark.parametrize("table", ["offers_by_book", "books_by_shop", "price"])
    def test_tables_restore_the_collector(self, gc_enabled, five_books, table):
        assert getattr(five_books, table)
        assert gc.isenabled() is gc_enabled


@st.composite
def raw_instance_fields(draw):
    """Small ``Instance`` fields, mostly valid, in which any index may be
    out of range and any amount negative."""
    money = st.sampled_from((0, 1, 2, 3, 4, 5, 6, 7, 8, -1))
    num_shops = draw(st.integers(0, 3))
    rules = draw(st.lists(st.tuples(money, money), min_size=num_shops, max_size=num_shops))
    offered = draw(st.sampled_from((1, 2, 3, 0))) if num_shops else 0
    offers = [
        (book, shop, price)
        for book in range(offered)
        for shop, price in draw(
            st.dictionaries(st.integers(0, num_shops - 1), money, min_size=1)
        ).items()
    ]
    stray = st.tuples(st.integers(-1, offered), st.integers(-1, num_shops), money)
    offers += draw(st.lists(stray, max_size=2))
    num_books = offered + draw(st.sampled_from((0, 0, 1, -1)))
    # Sorted, as ``Instance`` requires, so that stray offers reach its
    # other checks and valid instances with them are drawn.
    return num_books, rules, sorted(offers), draw(st.none() | money)


@settings(max_examples=300, deadline=None)
@given(raw_instance_fields())
def test_raw_instance_is_rejected_or_solved(fields):
    """An instance either refuses to exist, or every solver prices its plan
    as ``evaluate_assignment`` does or refuses with a package error."""
    num_books, rules, offers, budget = fields
    try:
        instance = Instance(
            num_books,
            tuple(DiscountRule(d, t) for d, t in rules),
            tuple(Offer(*o) for o in offers),
            budget,
        )
    except InputError:
        return
    for algo in ALGORITHM_NAMES:
        try:
            result = run_algorithm(algo, instance)
        except CleverShopperError:
            continue
        assert evaluate_assignment(instance, result.choice).total_cost == result.total_cost


class TestAccessors:
    def test_min_price(self, five_books):
        assert five_books.cheapest[2] == (2, 4)  # offers 7, 4, 5, 8
        assert five_books.cheapest[1] == (1, 9)  # offers 10, 9, 11

    def test_min_price_singleton(self):
        inst = make_instance(1, [(1, 1)], [(0, 0, 7)])
        assert inst.cheapest == ((0, 7),)

    def test_cheapest_shop_prefers_low_index_on_tie(self):
        inst = make_instance(1, [(0, 1), (0, 1), (0, 1)],
                             [(0, 0, 9), (0, 1, 4), (0, 2, 4)])
        assert inst.cheapest[0] == (1, 4)

    def test_offers_by_book_sorted_by_shop(self, five_books):
        shops = [shop for shop, _ in five_books.offers_by_book[2]]
        assert shops == sorted(shops)
        assert five_books.offers_by_book[2] == ((1, 7), (2, 4), (3, 5), (4, 8))


class TestEvaluate:
    def test_five_books_best_plan(self, five_books):
        result = evaluate_assignment(five_books, (0, 2, 3, 3, 4))
        assert result.total_cost == 34
        assert result.total_discount == 9  # three shops at 3 each
        assert result.per_shop_spend == (12, 0, 11, 13, 7)

    def test_result_hashes_by_value(self, five_books):
        a = evaluate_assignment(five_books, (0, 2, 3, 3, 4))
        b = evaluate_assignment(five_books, [0, 2, 3, 3, 4])
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, evaluate_assignment(five_books, (0, 1, 1, 3, 4))}) == 2

    def test_no_discount_when_thresholds_unreachable(self):
        inst = make_instance(2, [(5, 100)], [(0, 0, 3), (1, 0, 4)])
        result = evaluate_assignment(inst, (0, 0))
        assert result.total_cost == 7
        assert result.total_discount == 0

    def test_offer_missing(self, five_books):
        with pytest.raises(InputError, match="no offer for book b1 at shop s2"):
            evaluate_assignment(five_books, (1, 0, 1, 3, 4))

    @pytest.mark.parametrize(
        "choice, message",
        [
            ((0, 1, 0, 3, 4), "no offer for book b3 at shop s1"),
            ((0, 2, 3, 3, 3), "no offer for book b5 at shop s4"),
            ((0, 2, 3, 3, 5), "shop s6 out of range (have 5)"),
            ((0, -1, 3, 3, 4), "shop s0 out of range (have 5)"),
        ],
        ids=["before-first-offer", "last-book", "shop-past-end", "shop-negative"],
    )
    def test_choice_outside_the_offers(self, five_books, choice, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            evaluate_assignment(five_books, choice)

    def test_offer_missing_between_offers(self):
        inst = make_instance(1, [(0, 0)] * 3, [(0, 2, 1), (0, 0, 1)])
        with pytest.raises(InputError, match="^no offer for book b1 at shop s2$"):
            evaluate_assignment(inst, (1,))

    def test_short_choice_rejected(self, five_books):
        with pytest.raises(InputError, match="the solution assigns book b3 to no shop"):
            evaluate_assignment(five_books, (0, 0))

    def test_any_sequence_is_held_as_a_tuple(self, five_books):
        result = evaluate_assignment(five_books, [0, 2, 3, 3, 4])
        assert result == evaluate_assignment(five_books, (0, 2, 3, 3, 4))
        assert result.choice == (0, 2, 3, 3, 4)  # a list would compare unequal

    def test_long_choice_rejected(self, five_books):
        with pytest.raises(DanglingIndex):
            evaluate_assignment(five_books, (0, 2, 3, 3, 4, 4))

    def test_matches_independent_evaluator(self, five_books):
        for choice in [(0, 0, 1, 3, 4), (0, 1, 2, 3, 4), (0, 2, 4, 3, 4)]:
            result = evaluate_assignment(five_books, choice)
            assert result.total_cost == bruteforce.assignment_cost(five_books, choice)

    def test_cost_never_exceeds_gross(self, five_books):
        result = evaluate_assignment(five_books, (0, 1, 1, 3, 4))
        gross = sum(five_books.price[(b, s)] for b, s in enumerate((0, 1, 1, 3, 4)))
        assert result.total_cost <= gross
        assert (result.total_cost == gross) == (result.total_discount == 0)

    def test_min_price_plan_is_upper_bound(self, five_books):
        choice = tuple(shop for shop, _ in five_books.cheapest)
        result = evaluate_assignment(five_books, choice)
        bound = sum(price for _, price in five_books.cheapest)
        assert result.total_cost <= bound
