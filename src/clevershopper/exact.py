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
  vector is returned, traced back book by book, from the last, to the
  lexicographically smallest kept vector before it; the DP finds that
  one by trying each book's offers in shop order, zero prices last, and
  keeping the first to reach a vector.  ``price_vector_dp`` answers a
  budget question with that plan as the witness for yes, or None for no.
* ``matching2_min_cost``: every shop sells at most two books.  Reduces to
  maximum-weight matching in a graph whose edges are the shops' earning
  sets: a one-book set joins the book to the shop, a two-book set joins
  the two books.
* ``fstar_unit_price_min_cost``: unit prices, few shops.  Branch and
  bound over the sets of shops that earn their discounts, in lexicographic
  order, pruned by a knapsack bound on the discount still reachable; each
  set reached is checked with a degree-constrained subgraph (flow)
  computation.

Every solver returns through ``_claimed_plan``: the cheapest plan with
the books it claims moved to their shops, priced and checked against the
saving the solver computed.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cmp_to_key

from .errors import InputError, NegativeValue, ResourceLimitError
from .matching import WeightedEdge, WeightedGraph, max_weight_matching
from .model import (
    Instance,
    SolveResult,
    cheapest_plan,
    discount_earned,
    evaluate_assignment,
)

# Caps, read when a solver is called; past them a solver raises a
# ``ResourceLimitError`` instead of running.  Both DPs keep at most
# MAX_STATES entries and take at most 16 * MAX_STATES steps: 16 is four
# offers of a book, each building a spend vector of four shops.
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


def _add_steps(steps: int, more: int) -> int:
    """``steps + more``, refused past the DPs' step cap of 16 * MAX_STATES."""
    steps += more
    if steps > 16 * MAX_STATES:
        raise ResourceLimitError(f"step count {steps} exceeds cap {16 * MAX_STATES}")
    return steps


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

    Refuses a shop whose 2^k subset tables (k books sold) exceed
    ``MAX_STATES``, more than ``MAX_STATES`` states and back-pointers, or
    more than 16 * ``MAX_STATES`` steps: each shop's table fill, its copy
    of ``best`` and its (state, earning set) pairs, counted before its pass.
    """
    best = {0: 0}
    came_from: list[dict[int, int]] = []  # per shop: state it improved -> state before
    pointers = 0
    steps = 0
    for s in range(instance.num_shops):
        k = len(instance.books_by_shop[s])
        if 1 << k > MAX_STATES:
            raise ResourceLimitError(
                f"shop s{s + 1} sells {k} books, its 2^{k} subset tables exceed cap {MAX_STATES}"
            )
        sets = _earning_sets(instance, s)
        steps = _add_steps(steps, (1 << k) + len(best) * (1 + len(sets)))
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
        claims += [(b, s) for b in instance.books_by_shop[s] if (state ^ prev) >> b & 1]
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
    final spend vector is smallest, and of those the one that traces each
    vector back to its lexicographically smallest kept predecessor.

    Refuses more than ``MAX_STATES`` kept vectors, or more than
    16 * ``MAX_STATES`` steps: the n * m entries of ``need``, checked
    before it is built, then an m-tuple per (vector, offer) pair, counted
    before each offer's pass.  At m <= 4 the vector cap refuses first
    unless n * m alone passes the step cap: at most four offers of a book
    pass over each kept vector, at four steps each.
    """
    m = instance.num_shops
    n = instance.num_books
    _add_steps(0, n * m)  # the need table, before it is built
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

    # layers[i] maps each kept spend vector after books 0..i-1 to the shop
    # chosen for book i-1; the vector before it is this one less that
    # shop's price for the book.  Offers pass over the layer one at a time,
    # in shop order with zero prices last, and a vector keeps the first to
    # reach it: its lexicographically smallest kept predecessor.  A positive
    # price lowers one entry, an earlier one for a lower shop, and a zero
    # price keeps the vector, larger than any other (ties to the lower shop).
    start: tuple[int, ...] = (0,) * m
    layers: list[dict[tuple[int, ...], int]] = [{start: -1}]
    total = 1
    steps = 0  # an m-tuple built per (vector, offer) pair
    for b in range(n):
        reach = need[b + 1]
        slack = bound - rest[b + 1]
        nxt: dict[tuple[int, ...], int] = {}
        room = MAX_STATES - total  # for this layer's vectors
        # Each state adds at most one vector per offer of book b, so a
        # layer within this product cannot pass the cap and skips the test.
        offers = instance.offers_by_book[b]
        capped = len(layers[-1]) * len(offers) > room
        # A successor's LB - R_(b+1) is base + the price of book b, less
        # the discount of its shop if that price lifts the spend there to
        # ``reach``: base counts the discounts already in reach.
        bases = []
        for state in layers[-1]:
            base = sum(state)
            for s in shops:
                if state[s] >= reach[s]:
                    base -= discount[s]
            bases.append(base)
        if instance.cheapest[b][1] == 0:  # zero prices go last, see above
            offers = sorted(offers, key=lambda offer: offer[1] == 0)
        for shop, price in offers:
            steps = _add_steps(steps, len(bases) * m)
            cut = slack - price
            for state, base in zip(layers[-1], bases):
                if base > cut:
                    spend = state[shop]
                    if base - discount[shop] > cut or not spend < reach[shop] <= spend + price:
                        continue
                nxt.setdefault(state[:shop] + (state[shop] + price,) + state[shop + 1 :], shop)
                if capped and len(nxt) > room:
                    size = total + len(nxt)
                    raise ResourceLimitError(
                        f"reachable state count {size} exceeds cap {MAX_STATES}"
                    )
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
        shop = layers[b + 1][state]
        for s, price in instance.offers_by_book[b]:
            if s == shop:
                break
        state = state[:shop] + (state[shop] - price,) + state[shop + 1 :]
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


# --- branch and bound over discount sets for unit prices --------------------


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
    """Minimum cost for unit-price instances by branch and bound over the
    sets of shops that earn their discounts.

    A set S of shops can earn its discounts iff the offer graph has a
    subgraph hitting every shop of S exactly at its threshold with books
    used at most once (``max_fstar_subgraph`` fills every slot); the cost
    is then (number of books) - (discounts of S).  Ties between optimal
    sets go to the lexicographically smallest shop tuple.

    The search is depth-first: a node is a set S, and its children add one
    shop j above S's largest, in increasing j.  Pre-order then visits the
    sorted shop tuples in lexicographic order, so only a strictly cheaper
    set replaces the best one found, and the first cheapest set wins the
    tie.  Three exact rules prune:

    * bound: a node's loop stops at the first j where even the most
      discount shops j.. could add, as a fractional knapsack on the books
      S leaves free, does not beat the best cost;
    * threshold sum: j is skipped if the thresholds would sum past n;
    * feasibility: the flow runs for S + j only once the bound has passed,
      and the search goes below S + j only if the flow fills every slot.
      Feasible sets are closed under subsets, so a failed check prunes
      every superset.
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
    # The shops with a discount, fewest threshold books per unit of discount
    # first: the order in which a fractional knapsack takes them.
    by_ratio = sorted(
        (s for s in range(m) if rules[s].discount),
        key=cmp_to_key(lambda a, b: rules[a].threshold * rules[b].discount
                       - rules[b].threshold * rules[a].discount),
    )
    caps = [0] * m  # thresholds of the shops in the current set, 0 elsewhere
    best_cost, best_star = n, ()  # the empty set, first in the order, costs n

    def reach(start: int, room: int) -> int:
        """An upper bound on the discount shops start.. can add with
        ``room`` books left: the fractional knapsack, where a shop may earn
        a share of its discount on that share of its threshold, rounded
        down."""
        total = 0
        for s in by_ratio:
            if s < start:
                continue
            d, t = rules[s].discount, rules[s].threshold
            if t > room:
                return total + d * room // t
            total += d
            room -= t
        return total

    def visit(start: int, disc: int, tsum: int) -> None:
        """Try each set that adds shops start.. to the current one."""
        nonlocal best_cost, best_star
        for j in range(start, m):
            if n - disc - reach(j, n - tsum) >= best_cost:
                return  # no set under j, or under a later shop, is cheaper
            t = rules[j].threshold
            if tsum + t > n:
                continue
            caps[j] = t
            star = max_fstar_subgraph(instance, StarDegreeBound(tuple(caps)))
            if len(star) == tsum + t:
                d = disc + rules[j].discount
                if n - d < best_cost:
                    best_cost, best_star = n - d, star
                visit(j + 1, d, tsum + t)
            caps[j] = 0

    visit(0, 0, 0)
    return _claimed_plan(instance, best_star, n - best_cost)  # each book costs 1 at its cheapest
