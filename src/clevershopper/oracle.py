"""Brute-force reference solvers.

These enumerate every assignment and exist to be obviously correct, not
fast: all other solvers are validated against them on small instances.
No pruning is done beyond an up-front size check.
"""

from __future__ import annotations

from math import prod

from .errors import SearchSpaceTooLarge
from .model import Assignment, Instance, SolveResult, evaluate_assignment, fixed_prices

DEFAULT_SEARCH_CAP = 10_000_000


def brute_force_min_cost(instance: Instance, *, cap: int = DEFAULT_SEARCH_CAP) -> SolveResult:
    """Minimum-cost assignment by exhaustive enumeration.

    Assignments are scanned in lexicographic order of the per-book shop
    choice, and only strict improvements are kept, so ties resolve to the
    lexicographically smallest optimal choice.  Raises
    ``SearchSpaceTooLarge`` when the number of assignments exceeds ``cap``.
    """
    per_book = instance.offers_by_book
    size = prod(len(options) for options in per_book)
    if size > cap:
        raise SearchSpaceTooLarge(size, cap)
    rules = instance.rules
    # pick[b] indexes book b's options; spends and gross follow every move.
    pick = [0] * instance.num_books
    spends = [0] * instance.num_shops
    for options in per_book:
        shop, price = options[0]
        spends[shop] += price
    gross = sum(spends)
    best_cost: int | None = None
    best_pick: tuple[int, ...] = ()
    while True:
        cost = gross
        for s, rule in enumerate(rules):
            if spends[s] >= rule.threshold:
                cost -= rule.discount
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_pick = tuple(pick)
        # Step to the next choice in lexicographic order, like an odometer:
        # trailing books on their last option wrap to their first.
        b = len(pick) - 1
        while b >= 0:
            options = per_book[b]
            shop, price = options[pick[b]]
            spends[shop] -= price
            gross -= price
            pick[b] = (pick[b] + 1) % len(options)
            shop, price = options[pick[b]]
            spends[shop] += price
            gross += price
            if pick[b]:
                break
            b -= 1
        else:
            break
    choice = tuple(per_book[b][i][0] for b, i in enumerate(best_pick))
    return evaluate_assignment(instance, Assignment(choice))


def brute_force_max_discount(instance: Instance, *, cap: int = DEFAULT_SEARCH_CAP) -> SolveResult:
    """Maximum-total-discount assignment, for fixed-price instances.

    Requires every book to cost the same at all shops offering it
    (``NotFixedPrice`` otherwise).  The gross spend is then the same for
    every assignment, so this is ``brute_force_min_cost``: the cheapest
    assignment earns the largest discount, with the same tie-breaking.
    """
    fixed_prices(instance)
    return brute_force_min_cost(instance, cap=cap)
