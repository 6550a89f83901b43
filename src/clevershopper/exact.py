"""Exact solvers, each tuned to a different instance regime.

* ``subset_dp_min_cost``: few books, any shops.  Cheapest plan plus a
  dynamic program over disjoint earning sets: start from every book at its
  cheapest shop, and let each shop that earns its discount claim a set of
  books, keeping the largest total saving per set of claimed books.
  O(m * 2^n * e) time, where e is the most earning sets of one shop; they
  are threshold-minimal, so a shop selling k books has at most C(k, k/2).
* ``price_vector_min_cost`` / ``price_vector_dp``: few shops,
  pseudo-polynomial in prices.  DP over per-shop spend vectors, one book
  at a time, pruned by a lower bound against the budget or the cheapest
  plan: a vector is dropped once even buying every remaining book at its
  cheapest shop and earning every discount still in reach costs more.
  Among several cheapest plans, the one with the smallest final spend
  vector is returned.  ``price_vector_dp`` answers a budget question
  with that plan as the witness for yes, or None for no.
* ``matching2_min_cost``: every shop sells at most two books.  Reduces to
  maximum-weight matching in a graph whose edges are the shops' earning
  sets: a one-book set joins the book to the shop, a two-book set joins
  the two books.
* ``fstar_unit_price_min_cost``: unit prices, few shops.  Enumerates the
  set of shops that will earn their discount and checks each candidate
  with a degree-constrained subgraph (flow) computation.

Every solver returns through ``_claimed_plan``: the cheapest plan with
the books it claims moved to their shops, priced and checked against the
saving the solver computed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import InputError, NegativeValue, ResourceLimitError
from .matching import WeightedEdge, WeightedGraph, max_weight_matching
from .model import (
    Instance,
    SolveResult,
    cheapest_plan,
    discount_earned,
    evaluate_assignment,
)

# Size caps, read when a solver is called; past them a solver raises a
# ``ResourceLimitError`` instead of running.
MAX_BOOKS = 20  # subset_dp_min_cost
MAX_SHOPS_DP = 4  # price_vector_min_cost
MAX_STATES = 2_000_000  # DP entries of price_vector_min_cost and subset_dp_min_cost
MAX_SHOPS_FSTAR = 20  # fstar_unit_price_min_cost


# --- the shared pricing core -------------------------------------------------


def _earning_sets(instance: Instance, shop: int) -> list[tuple[int, int]]:
    """The sets of books that earn the shop's discount at a profit.

    Returns (global book mask, saving) for each threshold-minimal set: its
    spend at the shop reaches the threshold, and drops below it without any
    one of its books.  The saving is the discount less the set's premium
    over buying each of its books at its cheapest shop; only positive
    savings are kept.  A threshold-0 shop has one such set, the empty one.
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


def _claimed_plan(
    instance: Instance, claims: Iterable[tuple[int, int]], saving: int
) -> SolveResult:
    """The cheapest plan with each claimed ``(book, shop)`` bought there.

    ``saving`` is what the claims save against every book at its cheapest
    shop.  ``evaluate_assignment`` checks and prices the plan, which must
    cost exactly ``saving`` less.
    """
    choice = cheapest_plan(instance)
    for b, s in claims:
        choice[b] = s
    result = evaluate_assignment(instance, choice)
    assert result.total_cost == sum(price for _, price in instance.cheapest) - saving
    return result


# --- subset dynamic program -------------------------------------------------


def subset_dp_min_cost(instance: Instance) -> SolveResult:
    """Minimum cost via dynamic programming over sets of claimed books.

    Start from every book at its cheapest shop.  A shop that earns its
    discount claims a set of books and saves its discount less what those
    books cost there above their cheapest price; the sets of different
    shops are disjoint.  ``best[B]`` is the largest total saving of the
    shops so far whose claimed books are exactly ``B``.  Returns one
    cheapest plan; which one, among equally cheap plans, is not fixed.
    """
    n = instance.num_books
    if n > MAX_BOOKS:
        raise ResourceLimitError(f"instance has {n} books, solver cap is {MAX_BOOKS}")

    best = {0: 0}
    came_from: list[dict[int, int]] = []  # per shop: state it improved -> state before
    pointers = 0
    for s in range(instance.num_shops):
        sets = _earning_sets(instance, s)
        after = dict(best)
        back: dict[int, int] = {}
        room = MAX_STATES - pointers  # for this shop's states and back-pointers
        for state, saving in best.items():
            for g, gain in sets:
                if state & g:
                    continue
                new = state | g
                if saving + gain > after.get(new, 0):
                    after[new] = saving + gain
                    back[new] = state
            if len(after) + len(back) > room:
                size = len(after) + len(back) + pointers
                raise ResourceLimitError(f"reachable state count {size} exceeds cap {MAX_STATES}")
        best = after
        came_from.append(back)
        pointers += len(back)

    state = max(best, key=best.__getitem__)
    saving = best[state]
    claims = []
    for s in range(instance.num_shops - 1, -1, -1):
        prev = came_from[s].get(state, state)
        claims += [(b, s) for b in range(n) if (state ^ prev) >> b & 1]
        state = prev
    assert state == 0
    return _claimed_plan(instance, claims, saving)


# --- price-vector dynamic program -------------------------------------------


def price_vector_min_cost(instance: Instance, budget: int | None = None) -> SolveResult | None:
    """Minimum cost via a DP over per-shop spend vectors, pruned by a lower
    bound against the budget or the cheapest plan.

    Books are placed one at a time, and each layer holds the spend vectors
    reachable so far.  After books 0..i-1, a vector v is dropped when

        LB(v) = sum(v) + R_i - (discounts of the shops s with v_s + A_si >= t_s)

    exceeds the bound: R_i is the total of the cheapest prices of books
    i..n-1, and A_si is what shop s charges for those of them it sells.  No
    plan extending v costs less than LB(v), so no prefix of a plan within
    the bound is dropped.  The bound is the cost of the cheapest plan, or
    ``budget`` if that is lower; returns None when every plan costs more
    than ``budget``.  Among several cheapest plans, returns the one whose
    final spend vector is smallest.
    """
    m = instance.num_shops
    if m > MAX_SHOPS_DP:
        raise ResourceLimitError(f"instance has {m} shops, solver cap is {MAX_SHOPS_DP}")
    n = instance.num_books
    shops = range(m)
    discount = [rule.discount for rule in instance.rules]

    bound = evaluate_assignment(instance, cheapest_plan(instance)).total_cost
    if budget is not None:
        bound = min(bound, budget)
    # rest[i] = R_i; need[i][s] = t_s - A_si, the spend at shop s after
    # books 0..i-1 from which the books left can still earn its discount.
    rest = [0] * (n + 1)
    need = [[]] * n + [[rule.threshold for rule in instance.rules]]
    for b in range(n - 1, -1, -1):
        rest[b] = rest[b + 1] + instance.cheapest[b][1]
        need[b] = list(need[b + 1])
        for shop, price in instance.offers_by_book[b]:
            need[b][shop] -= price

    # layers[i] maps each kept spend vector after books 0..i-1 to a
    # back-pointer (previous vector, shop chosen for book i-1).  Iteration
    # in sorted order with first-writer-wins keeps everything deterministic.
    start: tuple[int, ...] = (0,) * m
    layers: list[dict[tuple[int, ...], tuple[tuple[int, ...], int] | None]] = [{start: None}]
    total = 1
    for b in range(n):
        reach = need[b + 1]
        slack = bound - rest[b + 1]
        nxt: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {}
        room = MAX_STATES - total  # for this layer's vectors
        for state in sorted(layers[-1]):
            # A successor's LB - R_(b+1) is base + the price of book b, less
            # the discount of its shop if that price lifts the spend there
            # to ``reach``: base counts the discounts already in reach.
            base = sum(state)
            for s in shops:
                if state[s] >= reach[s]:
                    base -= discount[s]
            for shop, price in instance.offers_by_book[b]:
                spend = state[shop]
                lb = base + price
                if spend < reach[shop] <= spend + price:
                    lb -= discount[shop]
                if lb > slack:
                    continue
                ns = state[:shop] + (spend + price,) + state[shop + 1 :]
                if ns not in nxt:
                    nxt[ns] = (state, shop)
            if len(nxt) > room:  # one state adds at most m vectors
                size = total + len(nxt)
                raise ResourceLimitError(f"reachable state count {size} exceeds cap {MAX_STATES}")
        total += len(nxt)
        layers.append(nxt)

    best = min(
        ((sum(v) - sum(map(discount_earned, instance.rules, v)), v) for v in layers[-1]),
        default=None,
    )
    if best is None or best[0] > bound:  # with no books, nothing was checked
        return None
    best_cost, state = best

    claims = []  # every book, at the shop the DP chose for it
    for b in range(n - 1, -1, -1):
        back = layers[b + 1][state]
        assert back is not None
        state, shop = back
        claims.append((b, shop))
    return _claimed_plan(instance, claims, rest[0] - best_cost)


def price_vector_dp(instance: Instance, budget: int) -> SolveResult | None:
    """``price_vector_min_cost`` with a budget: the cheapest plan if it
    costs at most ``budget``, else None.

    It is kept as a name of its own because the benchmark wraps
    ``cli.price_vector_dp`` to time budget decisions, and its self-tests
    need those timings on ``few-shops``; one solver registry retires it
    (ROADMAP item 7)."""
    return price_vector_min_cost(instance, budget)


# --- matching reduction for shops selling at most two books ------------------


def build_discount_graph(instance: Instance) -> WeightedGraph:
    """Graph whose maximum-weight matching picks the discounts to earn.

    Vertices are the n books followed by the m shops.  Each edge is one of
    a shop's earning sets (see ``_earning_sets``), weighted by its saving
    and tagged with the shop: a one-book set joins the book to the shop,
    a two-book set joins the two books.  Parallel book-book edges keep the
    heaviest (ties to the lower shop index).  A threshold-0 shop's only
    earning set is empty; the caller counts its discount as a constant.
    """
    n = instance.num_books
    chosen: dict[tuple[int, int], tuple[int, int]] = {}
    for s in range(instance.num_shops):
        books = instance.books_by_shop[s]
        if len(books) > 2:
            raise InputError(f"shop s{s + 1} sells {len(books)} books, solver handles at most 2")
        for g, saving in _earning_sets(instance, s):
            ends = tuple(b for b in books if g >> b & 1)
            if len(ends) == 1:
                chosen[(ends[0], n + s)] = (saving, s)
            elif len(ends) == 2:
                prev = chosen.get(ends)
                if prev is None or saving > prev[0]:
                    chosen[ends] = (saving, s)
    edges = tuple(
        WeightedEdge(u, v, weight, tag=s)
        for (u, v), (weight, s) in sorted(chosen.items())
    )
    return WeightedGraph(num_vertices=n + instance.num_shops, edges=edges)


def matching2_min_cost(instance: Instance) -> SolveResult:
    """Minimum cost when every shop sells at most two books.

    The cost equals (sum of per-book minimum prices) minus the weight of a
    maximum matching in the derived graph, minus the discounts of
    threshold-0 shops which are earned no matter what.  Returns one
    cheapest plan; which one, among equally cheap plans, is not fixed.
    """
    n = instance.num_books
    graph = build_discount_graph(instance)
    matched = max_weight_matching(graph)
    free = sum(rule.discount for rule in instance.rules if rule.threshold == 0)

    edge_at = {(e.u, e.v): e for e in graph.edges}  # built with u < v, as matched
    claims = []
    weight = 0
    for (u, v) in matched:
        edge = edge_at[(u, v)]
        weight += edge.weight
        claims += [(b, edge.tag) for b in (u, v) if b < n]
    return _claimed_plan(instance, claims, weight + free)


# --- discount-set enumeration for unit prices --------------------------------


@dataclass(frozen=True)
class StarDegreeBound:
    """Per-shop degree caps for subgraph extraction; books are capped at 1."""

    shop_caps: tuple[int, ...]


def max_fstar_subgraph(instance: Instance, bound: StarDegreeBound) -> tuple[tuple[int, int], ...]:
    """Largest set of offers with each book used at most once and each shop
    at most its cap.  Augmenting-path maximum flow on the unit-capacity
    network source -> books (cap 1) -> shops (availability) -> sink (cap
    per shop); returns the chosen (book, shop) edges.

    Each shop has ``cap`` interchangeable slots.  A book tries its shops in
    ascending order and, within a shop, the slots in order.  Slots fill
    from the front and each search tries them from the front, so a shop's
    held slots and its slots tried by the current search are both
    prefixes: a list of holders and a counter describe them exactly.
    """
    m = instance.num_shops
    caps = bound.shop_caps
    if len(caps) != m:
        raise InputError(f"need {m} shop caps, got {len(caps)}")
    for s, cap in enumerate(caps):
        if cap < 0:
            raise NegativeValue(f"cap of shop s{s + 1}", cap)
    n = instance.num_books
    shops_of = [[s for s, _ in instance.offers_by_book[b] if caps[s]] for b in range(n)]
    holders: list[list[int]] = [[] for _ in range(m)]  # per shop, book in each held slot
    shop_of = [-1] * n
    free = sum(caps)

    for root in range(n):
        if not free:
            break  # every slot is held, so no search can succeed
        # Depth-first search for an augmenting path, on an explicit stack:
        # path[i] is a book, at[i] the index of the shop it is trying, and
        # slots[i] the (shop, slot) it would take from path[i + 1].
        tried = [0] * m
        path, at, slots = [root], [0], []
        while path:
            b = path[-1]
            options = shops_of[b]
            while at[-1] < len(options):
                s = options[at[-1]]
                slot = tried[s]
                if slot == caps[s]:
                    at[-1] += 1
                    continue
                tried[s] += 1
                if slot == len(holders[s]):  # a free slot: flip the path
                    free -= 1
                    holders[s].append(b)
                    shop_of[b] = s
                    for book, (t, i) in zip(path, slots):
                        holders[t][i] = book
                        shop_of[book] = t
                    path = []
                    break
                slots.append((s, slot))
                path.append(holders[s][slot])
                at.append(0)
                break
            else:
                path.pop()
                at.pop()
                if slots:
                    slots.pop()

    return tuple((b, s) for b, s in enumerate(shop_of) if s != -1)


def fstar_unit_price_min_cost(instance: Instance) -> SolveResult:
    """Minimum cost for unit-price instances by discount-set enumeration.

    For each candidate set S of shops to earn their discounts, a feasible
    plan exists iff the offer graph has a subgraph hitting every shop of S
    exactly at its threshold with books used at most once; the cost is
    then (number of books) - (discounts of S).  Ties between optimal sets
    go to the lexicographically smallest shop tuple.
    """
    m = instance.num_shops
    if m > MAX_SHOPS_FSTAR:
        raise ResourceLimitError(f"instance has {m} shops, solver cap is {MAX_SHOPS_FSTAR}")
    for o in instance.offers:
        if o.price != 1:
            raise InputError(
                f"offer for book b{o.book + 1} at shop s{o.shop + 1} has price {o.price}, "
                "expected 1"
            )
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
    return _claimed_plan(instance, best[2], n - best[0])  # each book costs 1 at its cheapest
