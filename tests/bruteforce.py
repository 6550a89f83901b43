"""Independent reference implementations used only by the tests.

Everything here is deliberately written in the dumbest possible style,
sharing no code with the package, so that agreement between the two is
meaningful evidence of correctness.  Two are kept scans the package
replaced by searches: ``earning_sets_by_masks``, and ``fstar_by_masks``,
which checks only fstar's search and reuses the package's
``max_fstar_subgraph``.
"""

from __future__ import annotations

import itertools
import random

from clevershopper import (
    CnfFormula,
    Instance,
    SolveResult,
    StarDegreeBound,
    evaluate_assignment,
    max_fstar_subgraph,
)
from clevershopper.model import cheapest_plan


def assignment_cost(instance: Instance, choice: tuple[int, ...]) -> int:
    """Re-derive the cost of an assignment from raw offers only."""
    price = {(o.book, o.shop): o.price for o in instance.offers}
    spends = [0] * instance.num_shops
    for book, shop in enumerate(choice):
        spends[shop] += price[(book, shop)]
    gross = sum(price[(b, s)] for b, s in enumerate(choice))
    discount = sum(
        rule.discount
        for rule, spend in zip(instance.rules, spends)
        if spend >= rule.threshold
    )
    return gross - discount


def enumerate_min_cost(instance: Instance) -> int:
    """Minimum cost by plain itertools.product over per-book offers."""
    shops_per_book = [
        [shop for shop, _ in instance.offers_by_book[b]]
        for b in range(instance.num_books)
    ]
    return min(
        assignment_cost(instance, choice)
        for choice in itertools.product(*shops_per_book)
    )


def enumerate_max_discount(instance: Instance) -> int:
    shops_per_book = [
        [shop for shop, _ in instance.offers_by_book[b]]
        for b in range(instance.num_books)
    ]
    price = {(o.book, o.shop): o.price for o in instance.offers}
    best = 0
    for choice in itertools.product(*shops_per_book):
        spends = [0] * instance.num_shops
        for book, shop in enumerate(choice):
            spends[shop] += price[(book, shop)]
        earned = sum(
            rule.discount
            for rule, spend in zip(instance.rules, spends)
            if spend >= rule.threshold
        )
        best = max(best, earned)
    return best


def matching_weight(graph, matched) -> int:
    """Sum of the weights of the matched pairs, looked up in the graph's edges."""
    weight = {}
    for e in graph.edges:
        weight[(e.u, e.v)] = e.weight
        weight[(e.v, e.u)] = e.weight
    return sum(weight[pair] for pair in matched)


def dp_max_matching_weight(num_vertices: int, edges) -> int:
    """Max-weight matching by DP over vertex bitmasks; edges are (u, v, w)."""
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for u, v, w in edges:
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, []).append((u, w))
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        res = best(mask & ~(1 << v))
        for u, w in adjacency.get(v, ()):
            if mask >> u & 1 and u != v:
                res = max(res, w + best(mask & ~(1 << v) & ~(1 << u)))
        memo[mask] = res
        return res

    return best((1 << num_vertices) - 1)


def brute_fstar_size(edges, caps) -> int:
    """Largest edge subset with book degree <= 1 and shop degree <= cap.

    edges are (book, shop) pairs; caps indexed by shop.  Exponential in the
    edge count, so keep it small.
    """
    edges = list(edges)
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for subset in itertools.combinations(edges, r):
            book_deg: dict[int, int] = {}
            shop_deg: dict[int, int] = {}
            ok = True
            for book, shop in subset:
                book_deg[book] = book_deg.get(book, 0) + 1
                shop_deg[shop] = shop_deg.get(shop, 0) + 1
                if book_deg[book] > 1 or shop_deg[shop] > caps[shop]:
                    ok = False
                    break
            if ok:
                best = r
                break
    return best


def earning_sets_by_masks(instance: Instance, shop: int) -> list[tuple[int, int]]:
    """``exact._earning_sets`` by scanning all 2^k sets of the shop's k books.

    The package's table fill before its search, kept as the reference for
    the search: the same sets in the same order, increasing local mask with
    the cheapest book on the low bit, each as (global book mask, saving).
    """
    rule = instance.rules[shop]
    # Lightest first, so the low bit of a local mask is its cheapest book.
    offers = sorted((instance.price[(b, shop)], b) for b in instance.books_by_shop[shop])
    k = len(offers)
    spends = [0] * (1 << k)
    premiums = [0] * (1 << k)
    gmasks = [0] * (1 << k)
    sets = [(0, rule.discount)] if rule.threshold == 0 and rule.discount > 0 else []
    for ls in range(1, 1 << k):
        low = ls & -ls
        price, book = offers[low.bit_length() - 1]
        rest = ls ^ low
        spends[ls] = spends[rest] + price
        premiums[ls] = premiums[rest] + price - instance.cheapest[book][1]
        gmasks[ls] = gmasks[rest] | (1 << book)
        saving = rule.discount - premiums[ls]
        if saving > 0 and rule.threshold <= spends[ls] < rule.threshold + price:
            sets.append((gmasks[ls], saving))
    return sets


def fstar_by_masks(instance: Instance) -> SolveResult:
    """``fstar_unit_price_min_cost`` by scanning all 2^m shop sets.

    The package's solver before its branch and bound, kept as the reference
    for the search: it checks each set with ``max_fstar_subgraph``, which
    fills the set's shops in ascending order by the branch and bound's own
    augmenting searches, and builds the plan from that call on the best
    set, as the solver does, so the two agree on the whole result, ties
    included.  Among the cheapest feasible sets it keeps the one with the
    lexicographically smallest shop tuple.
    """
    m = instance.num_shops
    n = instance.num_books
    rules = instance.rules

    best: tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]] | None = None
    for mask in range(1 << m):
        shops = tuple(s for s in range(m) if mask >> s & 1)
        tsum = sum(rules[s].threshold for s in shops)
        if tsum > n:
            continue
        cost = n - sum(rules[s].discount for s in shops)
        if best is not None and (cost, shops) >= (best[0], best[1]):
            continue
        caps = tuple(rules[s].threshold if mask >> s & 1 else 0 for s in range(m))
        star = max_fstar_subgraph(instance, StarDegreeBound(caps))
        if len(star) == tsum:
            best = (cost, shops, star)
    assert best is not None  # the empty set always qualifies
    choice = cheapest_plan(instance)
    for b, s in best[2]:
        choice[b] = s
    return evaluate_assignment(instance, choice)


def inventories_exactly_cover(instance: Instance) -> bool:
    """Can a set of shops' full inventories partition the book set?

    Ground truth for the or-composed instances: the budget is met exactly
    when such a partition exists.
    """
    return sets_exactly_cover(instance.num_books, instance.books_by_shop)


def sets_exactly_cover(num_items: int, sets) -> bool:
    """Does some subfamily of the given sets partition the items?"""
    family = [frozenset(s) for s in sets]

    def cover(remaining: frozenset[int]) -> bool:
        if not remaining:
            return True
        lowest = min(remaining)
        for t in family:
            if lowest in t and t <= remaining and cover(remaining - t):
                return True
        return False

    return cover(frozenset(range(num_items)))


def perfect_code_exists(num_vertices: int, edges) -> bool:
    """Is some vertex set's closed neighborhoods a partition of the vertices?

    Tries every vertex subset with itertools.combinations.
    """
    closed = [{v} for v in range(num_vertices)]
    for u, v in edges:
        closed[u].add(v)
        closed[v].add(u)
    for size in range(num_vertices + 1):
        for code in itertools.combinations(range(num_vertices), size):
            covered = [v for c in code for v in closed[c]]
            if sorted(covered) == list(range(num_vertices)):
                return True
    return False


def gadget_best_discount(cnf: CnfFormula) -> int:
    """Exact optimum discount of the clause/polarity gadget.

    A polarity shop can only earn by taking all three of its books, and the
    two shops of one variable share the variable book, so an optimal plan
    picks at most one polarity shop per variable; a clause shop earns iff
    some occurrence book of the clause is not captured that way.  Scanning
    all 3^n such plans is exact.
    """
    best = 0
    for combo in itertools.product((None, True, False), repeat=cnf.num_vars):
        value = 2 * sum(1 for pick in combo if pick is not None)
        for clause in cnf.clauses:
            for lit in clause:
                if combo[abs(lit) - 1] != (lit > 0):
                    value += 1
                    break
        best = max(best, value)
    return best


def random_twice_cnf(rng: random.Random, num_vars: int) -> CnfFormula:
    """Random 3-CNF where every literal occurs exactly twice.

    Shuffles the 4n literal slots until every chunk of three has distinct
    variables; resamples on failure, so only suitable for small n.
    """
    slots = [lit for v in range(1, num_vars + 1) for lit in (v, -v) for _ in range(2)]
    while True:
        rng.shuffle(slots)
        chunks = [slots[i : i + 3] for i in range(0, len(slots), 3)]
        if all(len({abs(lit) for lit in chunk}) == 3 for chunk in chunks):
            return CnfFormula(num_vars, tuple(tuple(c) for c in chunks))
