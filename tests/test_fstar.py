from __future__ import annotations

import random

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
        inst = make_instance(1, [(0, 1)] * 21, [(0, s, 1) for s in range(21)])
        with pytest.raises(ResourceLimitError, match="instance has 21 shops, solver cap is 20"):
            fstar_unit_price_min_cost(inst)

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

    @pytest.mark.parametrize("seed", range(6))
    def test_perfect_code_gadgets(self, seed):
        rng = random.Random(seed)
        n = rng.randint(12, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = tuple(sorted(rng.sample(pairs, rng.randint(n // 2, 2 * n))))
        inst = from_perfect_code(SimpleGraph(n, edges), 1).instance
        assert fstar_unit_price_min_cost(inst) == bruteforce.fstar_by_masks(inst)
