from __future__ import annotations

import random
import time

import pytest

from clevershopper import (
    DiscountModel,
    InputError,
    ResourceLimitError,
    WeightedEdge,
    WeightedGraph,
    brute_force_min_cost,
    build_discount_graph,
    evaluate_assignment,
    make_instance,
    matching2_min_cost,
    max_weight_matching,
    random_instance,
)
from clevershopper import exact, matching

import bruteforce


def graph_from_earning_sets(instance):
    """``build_discount_graph`` as built from each shop's ``_earning_sets``."""
    n = instance.num_books
    chosen = {}
    for s in range(instance.num_shops):
        for ends, saving in exact._earning_sets(instance, s, exact._Steps()):
            if len(ends) == 1:
                chosen[(ends[0], n + s)] = (saving, s)
            elif len(ends) == 2 and (ends not in chosen or saving > chosen[ends][0]):
                chosen[ends] = (saving, s)
    edges = tuple(WeightedEdge(u, v, w, tag=s) for (u, v), (w, s) in sorted(chosen.items()))
    return WeightedGraph(n + instance.num_shops, edges)


def book_path(n, closed=False):
    """Shop s sells books s and s + 1 at price 1 and threshold 2, with a
    discount of 1 to 5, and one threshold-0 shop sells each book.  Closed,
    one more shop joins the last book to the first.  Returns the instance
    and the discounts of the pairs, in path order."""
    rng = random.Random(n)
    pairs = n if closed else n - 1
    discounts = [rng.randint(1, 5) for _ in range(pairs)]
    offers = [(b, s, 1) for s in range(pairs) for b in (s, (s + 1) % n)]
    offers += [(b, pairs + b, 1) for b in range(n)]
    rules = [(d, 2) for d in discounts] + [(0, 0)] * n
    return make_instance(n, rules, offers), discounts


def book_lasso(n):
    """``book_path(n)`` and one more shop, of discount 3 and threshold 2,
    that sells books 0 and 2 at price 1: the discount graph is a triangle
    of books 0 to 2 with the rest of the path as its tail.  Returns the
    instance and the path's discounts."""
    inst, discounts = book_path(n)
    rules = [(rule.discount, rule.threshold) for rule in inst.rules] + [(3, 2)]
    offers = list(inst.offers) + [(0, inst.num_shops, 1), (2, inst.num_shops, 1)]
    return make_instance(n, rules, offers), discounts


def path_saving(discounts):
    """Most discount earned by disjoint neighbouring pairs of a path."""
    before, best = 0, 0
    for d in discounts:
        before, best = best, max(best, before + d)
    return best


class TestDiscountGraph:
    def test_five_books_graph(self, five_books):
        g = build_discount_graph(five_books)
        # books 0..4, then one vertex per shop
        assert g.num_vertices == 10
        # Only threshold-minimal sets with a positive saving: books 1+2 at
        # shop 1 and books 2+3 at shop 3 are gone, because one of the two
        # reaches the threshold alone; books 2+3 at shop 2 save 0, and
        # books 3+5 at shop 5 save -1.
        assert g.edges == (
            WeightedEdge(0, 5, 3, 0),  # book 1 alone reaches shop 1
            WeightedEdge(1, 5, 2, 0),  # book 2 alone reaches shop 1
            WeightedEdge(1, 7, 1, 2),  # book 2 alone reaches shop 3
            WeightedEdge(2, 3, 2, 3),  # books 3+4 at shop 4
        )

    def test_five_books_matching_weight(self, five_books):
        g = build_discount_graph(five_books)
        assert bruteforce.matching_weight(g, max_weight_matching(g)) == 6

    def test_negative_weight_pairs_dropped(self):
        # together the two books reach the threshold but the overpricing
        # exceeds the discount, so the pair edge would have weight -1
        inst = make_instance(
            2,
            [(1, 8), (0, 99), (0, 99)],
            [(0, 0, 4), (0, 1, 2), (1, 0, 4), (1, 2, 2)],
        )
        assert build_discount_graph(inst).edges == ()

    def test_duplicate_pair_keeps_heavier_shop(self):
        inst = make_instance(
            2,
            [(2, 4), (3, 4)],
            [(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2)],
        )
        (edge,) = build_discount_graph(inst).edges
        assert (edge.u, edge.v, edge.weight, edge.tag) == (0, 1, 3, 1)

    def test_duplicate_pair_tie_keeps_lower_shop(self):
        inst = make_instance(
            2,
            [(2, 4), (2, 4)],
            [(0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2)],
        )
        (edge,) = build_discount_graph(inst).edges
        assert (edge.u, edge.v, edge.weight, edge.tag) == (0, 1, 2, 0)


class TestMatching2:
    def test_five_books(self, five_books):
        result = matching2_min_cost(five_books)
        assert result.total_cost == 34
        assert result.choice == (0, 2, 3, 3, 4)

    def test_degree_three_rejected(self):
        inst = make_instance(3, [(1, 1)], [(b, 0, 1) for b in range(3)])
        with pytest.raises(InputError, match="shop s1 sells 3 books, solver handles at most 2"):
            matching2_min_cost(inst)

    def test_no_reachable_threshold_buys_cheapest(self):
        inst = make_instance(
            3,
            [(1, 9), (1, 9), (1, 9)],
            [(0, 0, 5), (1, 1, 5), (2, 2, 5)],
        )
        result = matching2_min_cost(inst)
        assert result.total_cost == 15
        assert result.total_discount == 0

    def test_zero_threshold_discount_always_earned(self):
        # shop 2 sells nothing but gives 5 off unconditionally
        inst = make_instance(1, [(0, 9), (5, 0)], [(0, 0, 3)])
        result = matching2_min_cost(inst)
        assert result.total_cost == -2
        assert result.total_cost == brute_force_min_cost(inst).total_cost

    def test_matching_duality(self, five_books):
        g = build_discount_graph(five_books)
        weight = bruteforce.matching_weight(g, max_weight_matching(g))
        total = sum(price for _, price in five_books.cheapest)
        assert matching2_min_cost(five_books).total_cost == total - weight

    # Unit, fixed and low prices tie often, and ties are where the graph's
    # dropped edges (pairs that are not threshold-minimal, savings <= 0)
    # could cost a plan.  Thresholds reach up to two books' top price;
    # threshold-0 shops are drawn throughout, and discount-0 shops in every
    # set (all of them under "no-discounts").  Under "discounts", 35-41 of
    # each row's 150 graphs have two or more components with an edge, so
    # the sweep also covers the matcher's split into components.
    @pytest.mark.parametrize("max_discount", [0, 4], ids=["no-discounts", "discounts"])
    @pytest.mark.parametrize(
        "prices",
        [
            dict(unit_prices=True),
            dict(fixed_prices=True, max_price=4),
            dict(max_price=3),
            dict(max_price=6),
        ],
        ids=["unit", "fixed", "low", "varied"],
    )
    def test_matches_oracle(self, prices, max_discount):
        rng = random.Random(42)
        top = 2 * prices.get("max_price", 1)
        model = DiscountModel(max_discount=max_discount, min_threshold=0, max_threshold=top)
        for _ in range(150):
            n = rng.randint(1, 8)
            m = rng.randint((n + 1) // 2, n + 2)
            inst = random_instance(
                n,
                m,
                shop_degree_cap=2,
                discount_model=model,
                seed=rng.randint(0, 10**6),
                **prices,
            )
            assert build_discount_graph(inst) == graph_from_earning_sets(inst)
            got = matching2_min_cost(inst)
            assert got.total_cost == brute_force_min_cost(inst).total_cost
            assert evaluate_assignment(inst, got.choice) == got

    def test_long_path_skips_the_blossom(self, monkeypatch):
        # The graph is a path of 8,000 books, one tree: the DP answers it
        # in linear time, where the blossom took about 15 s.
        def blossom(*args):
            raise AssertionError("a tree reached the blossom")

        monkeypatch.setattr(matching, "_match_component", blossom)
        inst, discounts = book_path(8000)
        start = time.perf_counter()
        result = matching2_min_cost(inst)
        assert time.perf_counter() - start < 1.0
        assert result.total_cost == 8000 - path_saving(discounts)

    def test_lasso_sends_only_its_cycle_to_the_blossom(self, monkeypatch):
        small, _ = book_lasso(12)
        assert matching2_min_cost(small).total_cost == brute_force_min_cost(small).total_cost

        # At 8,000 books the tail is peeled, and the blossom sees the
        # triangle alone, where on the whole component it passed the step
        # cap after 10 s or more.
        sizes = []
        blossom = matching._match_component

        def recording(nvertex, edges, steps):
            sizes.append(nvertex)
            return blossom(nvertex, edges, steps)

        monkeypatch.setattr(matching, "_match_component", recording)
        inst, discounts = book_lasso(8000)
        result = matching2_min_cost(inst)
        assert sizes == [3]
        # Books 0 and 2 earn the extra shop's 3, or the path is matched alone.
        best = max(path_saving(discounts), 3 + path_saving(discounts[3:]))
        assert result.total_cost == 8000 - best
        assert evaluate_assignment(inst, result.choice) == result

    def test_blossom_step_cap(self, monkeypatch):
        # A cycle of 101 books reaches the blossom, which charges V + E =
        # 202 steps for each of its 47 stages and 7 dual steps: 10,908.
        inst, discounts = book_path(101, closed=True)
        # An odd cycle's matching leaves out the first pair or the second.
        best = max(path_saving(discounts[1:]), path_saving(discounts[2:] + discounts[:1]))
        monkeypatch.setattr(exact, "MAX_STATES", 682)  # a cap of 10,912 steps
        assert matching2_min_cost(inst).total_cost == 101 - best
        monkeypatch.setattr(exact, "MAX_STATES", 681)
        with pytest.raises(ResourceLimitError, match="^step count 10908 exceeds cap 10896$"):
            matching2_min_cost(inst)
