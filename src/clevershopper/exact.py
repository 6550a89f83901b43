"""Exact solvers, each tuned to a different instance regime.

* ``subset_dp_min_cost``: few books, any shops.  Cheapest plan plus a
  dynamic program over disjoint earning sets: start from every book at its
  cheapest shop, and let each shop that earns its discount claim a set of
  books, keeping the largest total saving per set of claimed books.
  O(m * 2^n * e) time, where e is the most earning sets of one shop: found
  by a search, they are threshold-minimal, so k books give at most C(k, k/2).
* ``price_vector_min_cost``: few shops,
  pseudo-polynomial in prices.  DP over per-shop spend vectors, one book
  at a time, dearest first, pruned by a lower bound against the budget or
  the cheapest plan: a vector is dropped once even buying every remaining
  book at its cheapest shop and earning every discount still in reach
  costs more.
  Interchangeable shops (the same rule, the same books at the same
  prices) can swap spends without changing a bound, so a layer is a set
  of canonical vectors, one per orbit, whose spends ascend within each
  group of such shops.  Before the first layer, ``_root_bound`` bounds
  what any plan can save by a fractional knapsack: a plan spends at least
  its earning shops' thresholds, so spend past the cheapest prices costs
  what it adds.  A budget below that bound is below every plan's cost and
  is answered None without building a layer.  Among several cheapest plans, the one
  with the smallest final spend vector is returned, traced back book by
  book, from the last placed, to the lexicographically smallest kept
  vector before it: of the book's offers, in shop order with zero prices
  last, the first whose predecessor, once made canonical, is in the layer.
  Given a budget, it answers the budget question with that plan as the
  witness for yes, or None for no.
* ``matching2_min_cost``: every shop sells at most two books.  Reduces to
  maximum-weight matching in a graph whose edges are the shops' earning
  sets, read off each shop's two offers: a one-book set joins the book to
  the shop, a two-book set joins the two books.  Tree components of the
  graph are matched in linear time, and only cyclic ones by the blossom
  algorithm.
* ``fstar_unit_price_min_cost``: unit prices, few shops.  Branch and
  bound over the sets of shops that earn their discounts, in lexicographic
  order, pruned by a knapsack bound on the discount still reachable.  One
  assignment of books to the current set's shops is kept from node to
  node: adding a shop runs one augmenting-path search per threshold unit,
  rooted at that shop, and leaving it undoes their moves.  The plan is
  that assignment at the best set, rebuilt by replaying its searches.

Every solver returns through ``_claimed_plan``: the cheapest plan with
the books it claims moved to their shops, priced and checked against the
saving the solver computed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import accumulate

from .errors import InputError, NegativeValue, ResourceLimitError
from .matching import WeightedEdge, WeightedGraph, max_weight_matching
from .model import (
    DiscountRule,
    Instance,
    SolveResult,
    cheapest_plan,
    discount_earned,
    evaluate_assignment,
)

# Caps, read when a solver is called; past them a solver raises a
# ``ResourceLimitError``.  Both DPs keep at most MAX_STATES entries, and a
# shop at most MAX_STATES earning sets.  The DPs, fstar and matching2's
# blossom take at most 16 * MAX_STATES steps, each charged as the work it
# counts is done: 16 is above the 14 a kept vector of a four-shop
# price-dp is charged.
MAX_STATES = 2_000_000  # DP entries of price_vector_min_cost and subset_dp_min_cost


# --- the shared pricing core -------------------------------------------------


def _earning_sets(
    instance: Instance, shop: int, steps: _Steps
) -> list[tuple[tuple[int, ...], int]]:
    """The sets of books that earn the shop's discount at a profit.

    Returns (books, saving) for each threshold-minimal set, ``books`` its
    book indices in ascending order: its spend at the shop reaches the
    threshold, and drops below it without any one of its books.  The saving
    is the discount less the set's premium over buying each of its books at
    its cheapest shop; only positive savings are kept.  A threshold-0 shop
    has one such set, the empty one.  They come in increasing local mask
    order, books numbered cheapest first: a depth-first search adds books
    dearest first, keeps a set, grown no further, once it reaches the
    threshold, and drops it once its premium reaches the discount or the
    cheaper books cannot lift it there.

    Each book the search tries is one step on ``steps``, and so is each
    book it copies into a larger set, so the search's time and the size of
    the sets it keeps grow with the steps.  Refuses more than
    ``MAX_STATES`` kept sets.
    """
    rule = instance.rules[shop]
    if rule.threshold == 0:
        return [((), rule.discount)] if rule.discount else []
    offers = sorted((instance.price[(b, shop)], b) for b in instance.books_by_shop[shop])
    upto = list(accumulate((price for price, _ in offers), initial=0))  # spend of books 0..i-1
    sets = []
    stack = [(0, 0, (), len(offers))]  # (spend, premium, books, i): books >= i
    while stack:
        spend, premium, books, i = stack.pop()
        if spend >= rule.threshold:
            sets.append((tuple(sorted(books)), rule.discount - premium))
            if len(sets) > MAX_STATES:
                raise ResourceLimitError(
                    f"earning set count {len(sets)} of shop s{shop + 1} exceeds cap {MAX_STATES}"
                )
            continue
        j, height = i, len(stack)
        for j in range(i - 1, -1, -1):  # next book j, popped cheapest first: mask order
            if spend + upto[j + 1] < rule.threshold:
                break
            price, book = offers[j]
            more = premium + price - instance.cheapest[book][1]
            if more < rule.discount:
                stack.append((spend + price, more, books + (book,), j))
        # Books i-1 down to j tried, and ``books`` copied into each set pushed.
        steps.add(i - j + (len(stack) - height) * len(books))
    return sets


def _by_ratio(rules: Sequence[DiscountRule], shops: Iterable[int]) -> list[int]:
    """The shops, fewest threshold units per unit of discount first (ties
    keep their order): the order in which a fractional knapsack takes them.
    Every shop given must have a discount."""
    return sorted(
        shops,
        key=cmp_to_key(lambda a, b: rules[a].threshold * rules[b].discount
                       - rules[b].threshold * rules[a].discount),
    )


def _root_bound(instance: Instance) -> int:
    """A lower bound on the cost of every plan.

    With R the total of the cheapest prices, a plan whose earning shops are
    E spends at least R and at least their thresholds, so it costs at least
    R - (D(E) - max(0, G(E) - R)), with G and D the thresholds and the
    discounts of E summed.  E holds only shops with a discount whose whole
    offer list reaches the threshold.  The saving in brackets is bounded by
    its fractional relaxation: shops go by discount per threshold unit,
    descending, the first R threshold units earn that ratio and later ones
    the ratio less 1, taken only while positive.  It is never below R less
    the discounts of all those shops.
    """
    rules = instance.rules
    rest = sum(price for _, price in instance.cheapest)
    sells = [0] * instance.num_shops  # what each shop charges for all it sells
    for _, shop, price in instance.offers:
        sells[shop] += price
    earners = _by_ratio(
        rules,
        (s for s, rule in enumerate(rules) if rule.discount and sells[s] >= rule.threshold),
    )
    saving = 0
    room = rest  # threshold units left before spend passes R
    for s in earners:
        d, t = rules[s].discount, rules[s].threshold
        if t <= room:  # threshold-0 shops come first and always fit
            saving += d
            room -= t
        else:  # room units at d/t each, the rest at d/t - 1 if that is positive
            saving += (d * room + max(0, d - t) * (t - room)) // t
            room = 0
    return rest - saving


class _Steps:
    """A solver's running step count, refused past the step cap of
    16 * MAX_STATES."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, more: int) -> None:
        self.count += more
        if self.count > 16 * MAX_STATES:
            raise ResourceLimitError(f"step count {self.count} exceeds cap {16 * MAX_STATES}")


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
    shops so far whose claimed books are exactly ``B``: a mask over only
    the books that some earning set holds, numbered in the order the sets
    first hold them, so its size does not grow with n.  Returns one
    cheapest plan; which one, among equally cheap plans, is not fixed.

    Refuses more than ``MAX_STATES`` states and back-pointers, more than
    ``MAX_STATES`` earning sets of one shop, or more than 16 * ``MAX_STATES``
    steps: each book the search for a shop's earning sets tries or copies,
    then the shop's copy of ``best`` and its (state, earning set) pairs as
    its pass begins.
    """
    best = {0: 0}
    came_from: list[dict[int, int]] = []  # per shop: state it improved -> state before
    pointers = 0
    steps = _Steps()
    bit: dict[int, int] = {}  # book -> its state bit, numbered as earning sets first hold them
    for s in range(instance.num_shops):
        sets = []
        for books, gain in _earning_sets(instance, s, steps):
            mask = 0
            for b in reversed(books):
                mask |= 1 << bit.setdefault(b, len(bit))
            sets.append((mask, gain))
        steps.add(len(best) * (1 + len(sets)))
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
    books = list(bit)  # bit i's book is at index i
    for s in range(instance.num_shops - 1, -1, -1):
        prev = came_from[s].get(state, state)
        claims += [(b, s) for i, b in enumerate(books) if (state ^ prev) >> i & 1]
        state = prev
    assert state == 0
    return _claimed_plan(instance, claims, saving)


# --- price-vector dynamic program -------------------------------------------


def _interchangeable(instance: Instance) -> list[list[int]]:
    """The groups of two or more interchangeable shops, each ascending:
    shops with the same rule that sell the same books at the same prices.

    Shops are bucketed by rule first, and offer lists are compared only
    within a bucket of two or more shops."""
    by_rule: dict[tuple[int, int], list[int]] = {}
    for s, rule in enumerate(instance.rules):
        by_rule.setdefault((rule.discount, rule.threshold), []).append(s)
    if len(by_rule) == instance.num_shops:
        return []
    sold: list[list[tuple[int, int]]] = [[] for _ in instance.rules]
    for b, pairs in enumerate(instance.offers_by_book):
        for s, price in pairs:
            sold[s].append((b, price))
    groups = []
    for shops in by_rule.values():
        if len(shops) > 1:
            by_offers: dict[tuple[tuple[int, int], ...], list[int]] = {}
            for s in shops:
                by_offers.setdefault(tuple(sold[s]), []).append(s)
            groups += [group for group in by_offers.values() if len(group) > 1]
    return groups


def price_vector_min_cost(instance: Instance, budget: int | None = None) -> SolveResult | None:
    """Minimum cost via a DP over per-shop spend vectors, pruned by a lower
    bound against the budget or the cheapest plan.

    Books are placed one at a time, dearest first: in descending order of
    their dearest offer, ties to the lower book index.  Each layer holds
    the spend vectors reachable so far.  A vector is one int of equal bit
    fields, wide enough for the most any shop sells, with shop 0 in the
    highest field, so int order is the spends' lexicographic order.  After
    the first i books of that order, a vector v is dropped when

        LB(v) = sum(v) + R_i - (discounts of the shops s with v_s + A_si >= t_s)

    exceeds the bound: R_i is the total of the cheapest prices of the books
    not yet placed, and A_si is what shop s charges for those of them it
    sells.  No plan extending v costs less than LB(v), so no prefix of a
    plan within the bound is dropped, and the last layer holds the same
    vectors in any order.  Placing the dearest books first shrinks R_i and
    A_si early, so the bound drops vectors sooner.  The bound is the cost
    of the cheapest plan, or ``budget`` if that is lower; returns None when
    every plan costs more than ``budget``.  Given a budget, it returns None
    before the first layer if ``_root_bound``, a lower bound on the cost of
    every plan, exceeds the bound.  That happens only for a budget below
    the cheapest plan's cost, and then no plan is within it, so the answer
    is the one the layers would give.

    Interchangeable shops (``_interchangeable``) have the same A_si, t_s
    and discount, so swapping their spends changes no LB(v), and the kept
    vectors are closed under such swaps.  A layer is therefore the set of
    its canonical vectors, those whose spends ascend along each group's
    shops: v is kept iff its canonical form is.

    Among several cheapest plans, returns the one whose final spend vector
    is smallest; it ascends within each group, so it is canonical.  Each
    book, from the last placed back, goes back from v to the first of its
    offers, in shop order with zero prices last, whose predecessor v less
    that price at that shop is kept (its canonical form is in the layer
    before the book's): the lexicographically smallest kept predecessor of
    v.

    Refuses more than ``MAX_STATES`` kept vectors, or more than 16 *
    ``MAX_STATES`` steps, charged as each book's pass begins: m per kept
    vector for its base, and per (vector, offer) pair one step plus one per
    shop after the offer's in its group, which the canonical step may pass.
    At m <= 4 only the vector cap refuses: a kept vector is charged at most
    4 + (4 + 3 + 2 + 1) = 14 steps.
    """
    m = instance.num_shops
    n = instance.num_books
    discount = [rule.discount for rule in instance.rules]

    bound = evaluate_assignment(instance, cheapest_plan(instance)).total_cost
    if budget is not None:
        bound = min(bound, budget)
        if _root_bound(instance) > bound:  # no plan is within it
            return None

    # Shop s's spend is the W-bit field at shift[s], where W fits the most
    # any shop sells; raising it by p adds p << shift[s].
    sells = [0] * m
    top = [0] * n  # each book's dearest price
    for book, shop, price in instance.offers:
        sells[shop] += price
        if price > top[book]:
            top[book] = price
    # Dearest books first, ties to the lower index (sorted is stable).
    order = sorted(range(n), key=top.__getitem__, reverse=True)
    width = max(max(sells, default=0).bit_length(), 1)
    shift = [width * (m - 1 - s) for s in range(m)]
    mask = (1 << width) - 1

    # In the pass of order[i], rest = R_(i+1) and reach[s] = t_s - A_s(i+1):
    # from that spend after order[0..i], the books left can still earn s's
    # discount.
    cheap = rest = sum(price for _, price in instance.cheapest)
    reach = [rule.threshold - sold for rule, sold in zip(instance.rules, sells)]

    groups = []  # the shifts of each group's shops
    later: list[list[int]] = [[]] * m  # the shifts of the shops after s in its group
    for group in _interchangeable(instance):
        groups.append([shift[s] for s in group])
        for i, s in enumerate(group):
            later[s] = groups[-1][i + 1 :]

    # layers[i] holds the kept canonical spend vectors after order[0..i-1].
    layers: list[set[int]] = [{0}]
    total = 1
    steps = _Steps()
    for b in order:
        offers = instance.offers_by_book[b]
        for shop, price in offers:
            reach[shop] += price
        rest -= instance.cheapest[b][1]
        slack = bound - rest
        nxt: set[int] = set()
        room = MAX_STATES - total  # for this layer's vectors
        # Each state adds at most one vector per offer of book b, so a
        # layer within this product cannot pass the cap and skips the test.
        capped = len(layers[-1]) * len(offers) > room
        # A successor's LB - R_(i+1) is base + the price of book b, less
        # the discount of its shop if that price lifts the spend there to
        # ``reach``: base counts the discounts already in reach.
        fields = list(zip(shift, reach, discount))
        steps.add(len(layers[-1]) * (m + sum(1 + len(later[shop]) for shop, _ in offers)))
        bases = []
        for state in layers[-1]:
            base = 0
            for at, need, off in fields:
                spend = state >> at & mask
                base += spend - off if spend >= need else spend
            bases.append(base)
        for shop, price in offers:
            cut = slack - price
            after = later[shop]
            at = shift[shop]
            step = price << at
            need, off = reach[shop], discount[shop]
            for state, base in zip(layers[-1], bases):
                if base > cut:
                    spend = state >> at & mask
                    if base - off > cut or not spend < need <= spend + price:
                        continue
                v = state + step
                # A raised spend that passes the next shop of its group
                # moves right past the smaller spends, so the vector stays
                # canonical.  If that shop spends the same, raising it
                # instead reaches the same orbit, so the offer is skipped.
                if after:
                    old = state >> at & mask
                    spend = old + price
                    moved = state >> after[0] & mask
                    if moved < spend:
                        if moved == old:
                            continue
                        v, to = state, at
                        for s in after:
                            moved = state >> s & mask
                            if moved >= spend:
                                break
                            v += (moved - old) << to
                            to, old = s, moved
                        v += (spend - old) << to
                nxt.add(v)
                if capped and len(nxt) > room:
                    size = total + len(nxt)
                    raise ResourceLimitError(
                        f"reachable state count {size} exceeds cap {MAX_STATES}"
                    )
        total += len(nxt)
        layers.append(nxt)

    def cost(v: int) -> int:
        spends = [v >> at & mask for at in shift]
        return sum(spends) - sum(map(discount_earned, instance.rules, spends))

    best = min(((cost(v), v) for v in layers[-1]), default=None)
    if best is None or best[0] > bound:  # with no books, nothing was checked
        return None
    best_cost, state = best

    def canonical(v: int) -> int:
        for group in groups:
            spends = sorted(v >> at & mask for at in group)
            for at, spend in zip(group, spends):
                v += (spend - (v >> at & mask)) << at
        return v

    claims = []  # every book, at the shop whose offer leads back to a kept vector
    for i in range(n - 1, -1, -1):
        b = order[i]
        offers = instance.offers_by_book[b]
        if instance.cheapest[b][1] == 0:  # zero prices go last
            offers = sorted(offers, key=lambda offer: offer[1] == 0)
        for shop, price in offers:
            if state >> shift[shop] & mask < price:
                continue
            prev = state - (price << shift[shop])
            if (canonical(prev) if groups else prev) in layers[i]:
                break
        state = prev
        claims.append((b, shop))
    return _claimed_plan(instance, claims, cheap - best_cost)


# --- matching reduction for shops selling at most two books ------------------


def build_discount_graph(instance: Instance) -> WeightedGraph:
    """Graph whose maximum-weight matching picks the discounts to earn.

    Vertices are the n books followed by the m shops.  Each edge is one of
    a shop's earning sets, weighted by its saving and tagged with the
    shop: a one-book set joins the book to the shop, a two-book set joins
    the two books.  With at most two books a shop's earning sets follow a
    direct rule, which is ``_earning_sets`` for k <= 2: a book alone is a
    set if its price reaches the threshold, and the pair is one if
    neither book reaches it alone but both do together.  Either is kept
    only when its saving, the discount less its premium over the books'
    cheapest prices, is positive.  Parallel book-book edges keep the
    heaviest (ties to the lower shop index).  A threshold-0 shop's only
    earning set is empty, so it adds no edge; the caller counts its
    discount as a constant.
    """
    n = instance.num_books
    sold: list[list[tuple[int, int]]] = [[] for _ in instance.rules]
    for book, shop, price in instance.offers:
        sold[shop].append((book, price))  # ascending by book
    cheapest = instance.cheapest
    chosen: dict[tuple[int, int], tuple[int, int]] = {}
    for s, (rule, offers) in enumerate(zip(instance.rules, sold)):
        if len(offers) > 2:
            raise InputError(f"shop s{s + 1} sells {len(offers)} books, solver handles at most 2")
        threshold, discount = rule.threshold, rule.discount
        if threshold == 0:
            continue
        for book, price in offers:
            saving = discount - price + cheapest[book][1]
            if price >= threshold and saving > 0:
                chosen[(book, n + s)] = (saving, s)
        if len(offers) == 2:
            (b1, p1), (b2, p2) = offers
            saving = discount - p1 + cheapest[b1][1] - p2 + cheapest[b2][1]
            if p1 < threshold and p2 < threshold <= p1 + p2 and saving > 0:
                prev = chosen.get((b1, b2))
                if prev is None or saving > prev[0]:
                    chosen[(b1, b2)] = (saving, s)
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

    Refuses more than 16 * ``MAX_STATES`` steps of the blossom algorithm,
    which only the graph's cyclic components reach: V + E for each stage
    and each dual step on a component of V vertices and E edges.
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


class _Assignment:
    """An assignment ``shop_of`` of books to shops, grown one book at a time
    by augmenting-path searches rooted at a shop.

    A search is depth-first: from a shop it tries the books the shop sells,
    enters the shop holding a book (each shop at most once a search), and
    on meeting a free book moves every book on its path one shop back.
    Every move is logged as (book, old shop), so ``undo`` can go back to
    any earlier length of the log.  Within one ``fill(j, t)`` shop j only
    gains books, so its searches start past the prefix of its books that
    j holds, and each book is passed once.  Each search adds one more than
    the offers it tried, those passed included, to ``steps``, a solver's
    running count.
    """

    __slots__ = ("sells", "steps", "shop_of", "log", "stamp", "searches")

    def __init__(self, instance: Instance, steps: _Steps) -> None:
        m = instance.num_shops
        self.sells = instance.books_by_shop
        self.steps = steps
        self.shop_of = [m] * instance.num_books  # m while a book is free
        self.log: list[tuple[int, int]] = []  # (book, old shop) of every move
        self.stamp = [0] * (m + 1)  # the last search that entered each shop; 0 for m, "free"
        self.searches = 0

    def fill(self, j: int, t: int) -> bool:
        """Gives shop j t books, or returns False at the first search that
        finds no augmenting path."""
        sells, steps, shop_of, log, stamp = self.sells, self.steps, self.shop_of, self.log, self.stamp
        m = len(stamp) - 1
        own = sells[j]
        first = 0  # j holds own[:first]; it only gains books here, so this only grows
        for _ in range(t):
            self.searches += 1
            search = stamp[j] = self.searches
            start = first
            while first < len(own) and shop_of[own[first]] == j:
                first += 1
            tries = 1 + first - start  # the books first passed count as tried
            # The search is at shop s, trying its books from index i.  Below
            # it, chain holds the shops it passed through, at the index each
            # goes on from, and via[k] the book by which it left chain[k].
            s, books, i = j, own, first
            chain: list[int] = []
            at: list[int] = []
            via: list[int] = []
            while True:
                start, end = i, len(books)
                for i in range(i, end):
                    if stamp[shop_of[books[i]]] != search:
                        break
                else:  # every book leads to a shop entered already
                    tries += end - start
                    if not chain:
                        steps.add(tries)
                        return False
                    s, i = chain.pop(), at.pop()
                    books = sells[s]
                    via.pop()
                    continue
                tries += i - start + 1
                b = books[i]
                held = shop_of[b]
                if held == m:  # a free book: each book on the chain moves back one shop
                    log.append((b, m))
                    shop_of[b] = s
                    for book, shop in zip(via, chain):
                        log.append((book, shop_of[book]))
                        shop_of[book] = shop
                    break
                stamp[held] = search
                chain.append(s)
                at.append(i + 1)
                via.append(b)
                s, books, i = held, sells[held], 0
            steps.add(tries)
        return True

    def undo(self, mark: int) -> None:
        """Undoes the moves logged after the first ``mark``."""
        log, shop_of = self.log, self.shop_of
        while len(log) > mark:
            book, shop = log.pop()
            shop_of[book] = shop


def max_fstar_subgraph(
    instance: Instance, bound: StarDegreeBound, *, steps: _Steps | None = None
) -> tuple[tuple[int, int], ...]:
    """Largest set of offers with each book used at most once and each shop
    at most its cap; returns the chosen (book, shop) edges.  Each search
    adds one more than the offers it tried to ``steps``, a solver's running
    count, or to a count of its own; either refuses past 16 * ``MAX_STATES``.

    An ``_Assignment`` fills the shops in ascending order, each up to its
    cap or until its first search fails.  That is a maximum: the units of
    a shop's cap are interchangeable, and a shop with no augmenting path
    still has none after later augmentations (Kuhn).
    """
    m = instance.num_shops
    caps = bound.shop_caps
    if len(caps) != m:
        raise InputError(f"need {m} shop caps, got {len(caps)}")
    for s, cap in enumerate(caps):
        if cap < 0:
            raise NegativeValue(f"cap of shop s{s + 1}", cap)
    assignment = _Assignment(instance, _Steps() if steps is None else steps)
    for s, cap in enumerate(caps):
        assignment.fill(s, cap)
    return tuple((b, s) for b, s in enumerate(assignment.shop_of) if s != m)


def fstar_unit_price_min_cost(instance: Instance) -> SolveResult:
    """Minimum cost for unit-price instances by branch and bound over the
    sets of shops that earn their discounts.

    A set S of shops can earn its discounts iff its shops can each be
    given exactly their threshold of books, with books used at most once:
    an assignment that fills every shop.  The cost is then (number of
    books) - (discounts of S).  Ties between optimal sets go to the
    lexicographically smallest shop tuple.

    The search is depth-first: a node is a set S, and its children add one
    shop j above S's largest, in increasing j.  Pre-order then visits the
    sorted shop tuples in lexicographic order, so only a strictly cheaper
    set replaces the best one found, and the first cheapest set wins the
    tie.  It runs as one loop over ``path``, S's shops in order, so no
    depth of set recurses.  Three exact rules prune:

    * threshold sum: j is skipped if the thresholds would sum past n;
    * bound: a node's loop stops at the first j left where even the most
      discount shops j.. could add, as a fractional knapsack on the books
      S leaves free, does not beat the best cost.  The knapsack only
      shrinks as j grows, so no later j would pass;
    * feasibility: the search goes below S + j only if S + j fills every
      shop.  Feasible sets are closed under subsets, so a failed check
      prunes every superset.

    The check does not rebuild anything.  One ``_Assignment`` of the books
    to S's shops lives through the whole search.  S fills every shop, so
    an augmenting path for S + j can end only at j: adding j runs t_j
    searches rooted at j, and the first that fails makes S + j infeasible.
    Leaving S + j undoes the log back to where adding j began, so the
    assignment at S is the one that filling S's shops in ascending order
    gives.  The plan comes from one ``max_fstar_subgraph`` call on the
    best set's thresholds, which replays exactly those searches: it is the
    branch and bound's own assignment at the best set.

    Refuses more than 16 * ``MAX_STATES`` steps: m for each set checked;
    one more than the offers each search tries (see ``_Assignment``), the
    final call's included; and n + m + E, the books, shops and offers, as
    the final call begins.  That pays for the rest.  A check follows one bound, which scans
    up to m shops, and a feasible check opens a level, which skips at most
    m shops and ends at one more bound; n + m + E pays for the root
    level's, for the final call's arrays and for ``_claimed_plan``.
    Undoing a move follows the try that made it.
    """
    m = instance.num_shops
    for o in instance.offers:
        if o.price != 1:
            raise InputError(
                f"offer for book b{o.book + 1} at shop s{o.shop + 1} has price {o.price}, "
                "expected 1"
            )
    n = instance.num_books
    rules = instance.rules
    by_ratio = _by_ratio(rules, (s for s in range(m) if rules[s].discount))
    steps = _Steps()
    caps = [0] * m  # thresholds of the shops in the current set, 0 elsewhere
    best_cost, best_caps = n, tuple(caps)  # the empty set, first in the order, costs n
    assignment = _Assignment(instance, steps)
    fill, undo, log = assignment.fill, assignment.undo, assignment.log

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

    path: list[tuple[int, int]] = []  # the current set's shops, ascending, each with its log mark
    disc = tsum = 0  # its discounts and thresholds, summed
    j = 0  # the next shop to try adding to it
    while True:
        if j < m and tsum + rules[j].threshold > n:  # before the bound, see above
            j += 1
            continue
        # Past the last shop, or once the bound fails, no set under j or a
        # later shop is cheaper: leave this level for the next shop above.
        if j == m or n - disc - reach(j, n - tsum) >= best_cost:
            if not path:
                break
            j, mark = path.pop()
            undo(mark)
            caps[j] = 0
            disc -= rules[j].discount
            tsum -= rules[j].threshold
            j += 1
            continue
        steps.add(m)
        t = rules[j].threshold
        mark = len(log)
        if fill(j, t):  # feasible: go below S + j
            path.append((j, mark))
            caps[j] = t
            disc += rules[j].discount
            tsum += t
            if n - disc < best_cost:
                best_cost, best_caps = n - disc, tuple(caps)
        else:
            undo(mark)
        j += 1

    steps.add(n + m + len(instance.offers))
    star = max_fstar_subgraph(instance, StarDegreeBound(best_caps), steps=steps)
    return _claimed_plan(instance, star, n - best_cost)  # each book costs 1 at its cheapest
