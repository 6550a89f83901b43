from __future__ import annotations

import random
import time

import pytest

from clevershopper import (
    DiscountModel,
    InputError,
    NegativeValue,
    ResourceLimitError,
    SimpleGraph,
    StarDegreeBound,
    brute_force_min_cost,
    evaluate_assignment,
    from_perfect_code,
    fstar_unit_price_min_cost,
    make_instance,
    max_fstar_subgraph,
    random_instance,
)

from clevershopper import exact

import bruteforce


def unit_instance(num_books, num_shops, edges):
    """Availability graph as a unit-price instance; uncovered books get a
    zero-capacity dummy shop so validation passes."""
    covered = {b for b, _ in edges}
    extra = [(b, num_shops, 1) for b in range(num_books) if b not in covered]
    rules = [(0, 1)] * (num_shops + 1)
    offers = [(b, s, 1) for b, s in edges] + extra
    return make_instance(num_books, rules, offers)


class TestStarSubgraph:
    def test_three_leaves_capacity_two(self):
        inst = unit_instance(3, 1, [(0, 0), (1, 0), (2, 0)])
        got = max_fstar_subgraph(inst, StarDegreeBound((2, 0)))
        assert len(got) == 2
        assert all(shop == 0 for _, shop in got)

    def test_zero_capacity_everywhere(self):
        inst = unit_instance(3, 2, [(0, 0), (1, 0), (2, 1)])
        assert max_fstar_subgraph(inst, StarDegreeBound((0, 0, 0))) == ()

    def test_cap_vector_length_checked(self):
        inst = unit_instance(2, 1, [(0, 0), (1, 0)])
        with pytest.raises(InputError, match="need 2 shop caps, got 1"):
            max_fstar_subgraph(inst, StarDegreeBound((1,)))

    def test_negative_capacity_rejected(self):
        inst = unit_instance(2, 1, [(0, 0), (1, 0)])
        with pytest.raises(NegativeValue):
            max_fstar_subgraph(inst, StarDegreeBound((-1, 0)))

    @pytest.mark.parametrize(
        "caps, message",
        [((-1, 0), "cap of shop s1 must be non-negative, got -1"),
         ((1, -3), "cap of shop s2 must be non-negative, got -3")],
        ids=["s1", "s2"],
    )
    def test_negative_capacity_names_shop_from_one(self, caps, message):
        inst = unit_instance(2, 1, [(0, 0), (1, 0)])
        with pytest.raises(NegativeValue, match=f"^{message}$"):
            max_fstar_subgraph(inst, StarDegreeBound(caps))

    def test_books_never_shared(self):
        inst = unit_instance(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        got = max_fstar_subgraph(inst, StarDegreeBound((2, 2, 0)))
        books = [b for b, _ in got]
        assert len(books) == len(set(books)) == 2

    def test_matches_exhaustive(self):
        rng = random.Random(99)
        for _ in range(120):
            nb, ns = rng.randint(1, 7), rng.randint(1, 7)
            pairs = [(b, s) for b in range(nb) for s in range(ns)]
            rng.shuffle(pairs)
            edges = sorted(pairs[: rng.randint(1, min(12, len(pairs)))])
            caps = tuple(rng.randint(0, 3) for _ in range(ns)) + (0,)
            inst = unit_instance(nb, ns, edges)
            got = max_fstar_subgraph(inst, StarDegreeBound(caps))
            assert len(got) == bruteforce.brute_fstar_size(edges, caps)


# Shop s sells book s, or books s and s + 1.
CHAIN_SHAPE = make_instance(400, [(1, 1)] * 400, [(s, s, 1) for s in range(400)])
PATH_SHAPE = make_instance(
    120, [(1, 1)] * 120, [(b, s, 1) for b in range(120) for s in (b - 1, b) if 0 <= s < 120]
)


class TestUnitPriceSolver:
    def test_perfect_code_instance(self, code_graph):
        gen = from_perfect_code(code_graph, 2)
        result = fstar_unit_price_min_cost(gen.instance)
        assert result.total_cost == 3
        assert result.choice == (0, 0, 0, 4, 4)

    def test_zero_discounts_mean_full_price(self):
        inst = unit_instance(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1)])
        assert fstar_unit_price_min_cost(inst).total_cost == 4

    def test_rejects_non_unit_prices(self, five_books):
        with pytest.raises(
            InputError, match="offer for book b1 at shop s1 has price 12, expected 1"
        ):
            fstar_unit_price_min_cost(five_books)

    def test_shop_cap(self):
        # No cap on shops: 21 of them are solved, and the cost is the
        # oracle's.
        inst = make_instance(1, [(1, 1)] * 21, [(0, s, 1) for s in range(21)])
        assert fstar_unit_price_min_cost(inst).total_cost == 0
        assert brute_force_min_cost(inst).total_cost == 0

    @pytest.mark.parametrize(
        "inst, max_states, message",
        [
            # About 110 searches at 30 checks try about 140 offers each, up
            # to 507: they pass the cap before the final call.  A search no
            # longer tries the books its root shop holds already, so the
            # count is lower than the 16348 of a scan from the first book.
            pytest.param(
                random_instance(200, 30, unit_prices=True, seed=1), 1000,
                "step count 16231 exceeds cap 16000", id="random",
            ),
            # Shop s sells book s: every set of shops is feasible, and each
            # of the 400 checks charges the 400 shops.
            pytest.param(CHAIN_SHAPE, 10_000, "step count 160396 exceeds cap 160000", id="chain"),
            # Shop s sells books s and s + 1.  The checks come to 14,640
            # steps and pass this cap; the final call adds 719 more.
            pytest.param(PATH_SHAPE, 900, "step count 14516 exceeds cap 14400", id="path"),
        ],
    )
    def test_step_cap(self, monkeypatch, inst, max_states, message):
        monkeypatch.setattr(exact, "MAX_STATES", max_states)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            fstar_unit_price_min_cost(inst)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize(
        "inst, max_states",
        [(CHAIN_SHAPE, 20_000), (PATH_SHAPE, 20_000), (PATH_SHAPE, 2000)],
        ids=["chain", "path", "path-2000"],
    )
    def test_answered_within_former_cap(self, monkeypatch, inst, max_states):
        # A flow rebuilt at every check took both shapes past 16 * 20,000
        # steps; kept from check to check, it takes about 162,000 and
        # 15,400.  The path shape was refused at 16 * 2,000 while its plan
        # came from a separate book-rooted flow.
        monkeypatch.setattr(exact, "MAX_STATES", max_states)
        assert fstar_unit_price_min_cost(inst).total_cost == 0

    def test_one_shop_tries_each_book_about_once(self):
        # A search starts past the books its root shop holds, so filling a
        # threshold of 5,999 tries 17,996 offers: two per search and the
        # book the one before took.  Scanning from the first book, the
        # fill and the final call tried about 18M each and were refused.
        inst = make_instance(6000, [(1, 5999)], [(b, 0, 1) for b in range(6000)])
        steps = exact._Steps()
        assert len(max_fstar_subgraph(inst, StarDegreeBound((5999,)), steps=steps)) == 5999
        assert steps.count == 17_996
        start = time.perf_counter()
        assert fstar_unit_price_min_cost(inst).total_cost == 5999
        assert time.perf_counter() - start < 5

    def test_unearnable_shops_take_one_pass(self):
        # No threshold of 2 fits the one book, so every shop is skipped
        # before its bound is taken: the search is one pass over the shops.
        inst = make_instance(1, [(10, 2)] * 50_000, [(0, 0, 1)])
        start = time.perf_counter()
        assert fstar_unit_price_min_cost(inst).total_cost == 1
        assert time.perf_counter() - start < 5

    def test_deep_search_does_not_recurse(self):
        # Every set of threshold-0 shops is feasible, so the search goes
        # 1,100 sets deep, past Python's default recursion limit.
        inst = make_instance(1, [(1, 0)] * 1100, [(0, 0, 1)])
        result = fstar_unit_price_min_cost(inst)
        assert result.total_cost == 1 - 1100
        assert result.choice == (0,)

    def test_tie_prefers_lower_shops(self):
        # either shop alone can earn its discount, not both; shop 0 wins
        inst = make_instance(
            2,
            [(1, 2), (1, 2)],
            [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
        )
        result = fstar_unit_price_min_cost(inst)
        assert result.total_cost == 1
        assert result.choice == (0, 0)

    def test_zero_threshold_discounts(self):
        # a threshold-0 shop contributes even when unused
        inst = make_instance(1, [(0, 9), (2, 0)], [(0, 0, 1)])
        result = fstar_unit_price_min_cost(inst)
        assert result.total_cost == -1
        assert result.total_cost == brute_force_min_cost(inst).total_cost

    def test_matches_oracle(self):
        rng = random.Random(5)
        model = DiscountModel(max_discount=4, min_threshold=0, max_threshold=9)
        for _ in range(150):
            n = rng.randint(1, 7)
            m = rng.randint(1, 5)
            inst = random_instance(
                n,
                m,
                unit_prices=True,
                discount_model=model,
                seed=rng.randint(0, 10**6),
            )
            got = fstar_unit_price_min_cost(inst)
            assert got.total_cost == brute_force_min_cost(inst).total_cost
            assert evaluate_assignment(inst, got.choice) == got


def tight_instance(rng, n, m):
    """A draw of the tight-threshold family: unit prices, each shop selling
    6 to 12 of the n books, drawn at random, with threshold two thirds of
    them and a discount of 1 to 100; a book no shop drew goes to a random
    shop.  At 60 books and 20 shops the search checks thousands of sets
    on most draws."""
    rules, offers, drawn = [], [], set()
    for s in range(m):
        k = rng.randint(6, 12)
        books = rng.sample(range(n), k)
        rules.append((rng.randint(1, 100), max(1, int(0.66 * k))))
        offers += [(b, s, 1) for b in books]
        drawn.update(books)
    offers += [(b, rng.randrange(m), 1) for b in range(n) if b not in drawn]
    return make_instance(n, rules, offers)


class TestSearchMatchesMaskScan:
    """The branch and bound returns exactly the result of scanning every
    shop set, plan and tie rule included."""

    def test_random_unit_price_sweep(self):
        rng = random.Random(15)
        for _ in range(2000):
            # Thresholds reach past n, and both ends of each range occur:
            # zero discounts and threshold-0 shops.
            model = DiscountModel(
                max_discount=rng.randint(0, 4), min_threshold=0, max_threshold=9
            )
            inst = random_instance(
                rng.randint(1, 9),
                rng.randint(1, 8),
                unit_prices=True,
                discount_model=model,
                seed=rng.randint(0, 10**6),
            )
            assert fstar_unit_price_min_cost(inst) == bruteforce.fstar_by_masks(inst)

    def test_tight_threshold_sweep(self):
        rng = random.Random(8)
        for _ in range(200):
            inst = tight_instance(rng, rng.randint(12, 24), rng.randint(2, 10))
            assert fstar_unit_price_min_cost(inst) == bruteforce.fstar_by_masks(inst)

    def test_tight_threshold_full_size(self):
        # 60 books and 20 shops, past the mask scan's reach.
        inst = tight_instance(random.Random(1), 60, 20)
        start = time.perf_counter()
        result = fstar_unit_price_min_cost(inst)
        assert time.perf_counter() - start < 10
        assert result.total_cost == -780
        assert evaluate_assignment(inst, result.choice) == result

    @pytest.mark.parametrize("seed", range(6))
    def test_perfect_code_gadgets(self, seed):
        rng = random.Random(seed)
        n = rng.randint(12, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple(sorted(rng.sample(pairs, rng.randint(n // 2, 2 * n))))
        inst = from_perfect_code(SimpleGraph(n, edges), 1).instance
        assert fstar_unit_price_min_cost(inst) == bruteforce.fstar_by_masks(inst)
