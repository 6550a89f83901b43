"""The exact solvers agree past the oracle's reach.

A seeded sweep compares price-dp with subset-dp on 8 to 12 books and 2 to
6 shops, where the brute-force oracle is too slow, as well as fstar on the
unit-price draws and matching2 on the draws where every shop sells at
most two books.  It also checks relations
that every minimum cost keeps: relabelling shops or books, copying a shop
that cannot earn its discount twice, adding a shop with no discount and no
cheaper price, and scaling every number by c.  Only costs are compared,
since which cheapest plan a solver returns is not invariant under these
changes.
"""

from __future__ import annotations

import random
import time

from clevershopper import (
    DiscountModel,
    Instance,
    fstar_unit_price_min_cost,
    make_instance,
    matching2_min_cost,
    price_vector_min_cost,
    random_instance,
    subset_dp_min_cost,
)

DRAWS = 200


def _draw(rng: random.Random) -> tuple[str, Instance]:
    n = rng.randint(8, 12)
    m = rng.randint(2, 6)
    kind = rng.choice(("random", "unit", "degree-2"))
    if kind == "unit":
        return kind, random_instance(
            n, m, unit_prices=True,
            discount_model=DiscountModel(max_discount=4, min_threshold=0),
            seed=rng.randrange(10**6),
        )
    cap = None
    if kind == "degree-2":
        m = max(m, (n + 1) // 2)
        cap = 2
    return kind, random_instance(
        n, m, max_price=rng.choice((3, 10)), shop_degree_cap=cap,
        discount_model=DiscountModel(max_discount=rng.choice((5, 15)), min_threshold=0),
        seed=rng.randrange(10**6),
    )


def _parts(inst: Instance) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]]]:
    return [(r.discount, r.threshold) for r in inst.rules], [tuple(o) for o in inst.offers]


def _with_shop(inst: Instance, rule: tuple[int, int], sold: dict[int, int]) -> Instance:
    """``inst`` with one more shop, last, selling ``sold`` (book -> price)."""
    rules, offers = _parts(inst)
    m = inst.num_shops
    return make_instance(
        inst.num_books, rules + [rule], offers + [(b, m, p) for b, p in sold.items()]
    )


def _copy_shop(inst: Instance, s: int) -> Instance:
    rule = inst.rules[s]
    sold = {b: p for b, shop, p in inst.offers if shop == s}
    return _with_shop(inst, (rule.discount, rule.threshold), sold)


def _relabelled(inst: Instance, rng: random.Random) -> Instance:
    rules, offers = _parts(inst)
    shops = list(range(inst.num_shops))
    books = list(range(inst.num_books))
    rng.shuffle(shops)
    rng.shuffle(books)
    new_rules = [None] * len(rules)
    for s, rule in enumerate(rules):
        new_rules[shops[s]] = rule
    return make_instance(
        inst.num_books, new_rules, [(books[b], shops[s], p) for b, s, p in offers]
    )


def _scaled(inst: Instance, c: int) -> Instance:
    rules, offers = _parts(inst)
    return make_instance(
        inst.num_books, [(d * c, t * c) for d, t in rules], [(b, s, p * c) for b, s, p in offers]
    )


def test_price_dp_matches_subset_dp_and_cost_relations_hold():
    start = time.perf_counter()
    rng = random.Random(4)
    copies = budgets = kept = 0
    kinds = {"random": 0, "unit": 0, "degree-2": 0}
    for _ in range(DRAWS):
        kind, base = _draw(rng)
        kinds[kind] += 1
        opt = subset_dp_min_cost(base).total_cost
        s = rng.randrange(base.num_shops)
        copied = _copy_shop(base, s)
        copy_opt = subset_dp_min_cost(copied).total_cost
        # Another shop never raises the cost.  If the two copies cannot
        # both reach the threshold, a plan earns at most one discount
        # there and can buy all their books at that copy: the cost is kept.
        if 2 * base.rules[s].threshold > sum(p for _, shop, p in base.offers if shop == s):
            assert copy_opt == opt
            kept += 1
        else:
            assert copy_opt <= opt
        inst, opt = (copied, copy_opt) if rng.random() < 0.5 else (base, opt)
        copies += inst is copied

        assert price_vector_min_cost(inst).total_cost == opt
        # A copy keeps the shop's prices and how many books it sells.
        if kind == "unit":
            assert fstar_unit_price_min_cost(inst).total_cost == opt
        elif kind == "degree-2":
            assert matching2_min_cost(inst).total_cost == opt
        for budget in rng.sample(range(opt - 3, opt + 4), 2):
            budgets += 1
            result = price_vector_min_cost(inst, budget)
            if budget < opt:  # no plan is within the budget
                assert result is None
            else:
                assert result is not None and result.total_cost == opt <= budget

        relabelled = _relabelled(inst, rng)
        assert subset_dp_min_cost(relabelled).total_cost == opt
        assert price_vector_min_cost(relabelled).total_cost == opt
        # A shop with no discount whose prices are never the cheapest:
        # moving its books to their cheapest shops costs no more.
        sold = {
            b: price + rng.randint(0, 3)
            for b, (_, price) in enumerate(inst.cheapest)
            if rng.random() < 0.5
        }
        extra = _with_shop(inst, (0, rng.randint(0, 20)), sold)
        assert subset_dp_min_cost(extra).total_cost == opt
        c = rng.randint(2, 5)
        assert price_vector_min_cost(_scaled(inst, c)).total_cost == c * opt

    assert 0.3 * DRAWS < copies < 0.7 * DRAWS and budgets == 2 * DRAWS
    assert kept > DRAWS // 5
    assert min(kinds.values()) > DRAWS // 5
    assert time.perf_counter() - start < 30
