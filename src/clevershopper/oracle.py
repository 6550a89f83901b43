"""Brute-force reference solvers.

These enumerate every assignment and exist to be obviously correct, not
fast: all other solvers are validated against them on small instances.
No pruning is done beyond an up-front size check.
"""

from __future__ import annotations

from math import prod

from .errors import ResourceLimitError
from .model import Instance, SolveResult, evaluate_assignment

SEARCH_CAP = 10_000_000  # most assignments brute_force_min_cost enumerates


def brute_force_min_cost(instance: Instance) -> SolveResult:
    """Minimum-cost assignment by exhaustive enumeration.

    Assignments are scanned in lexicographic order of the per-book shop
    choice, and only strict improvements are kept, so ties resolve to the
    lexicographically smallest optimal choice.  Raises
    ``ResourceLimitError`` when the number of assignments exceeds
    ``SEARCH_CAP``.  On fixed-price instances, where every assignment has
    the same gross spend, the cheapest assignment earns the largest
    discount.
    """
    per_book = instance.offers_by_book
    size = prod(len(options) for options in per_book)
    if size > SEARCH_CAP:
        raise ResourceLimitError(f"search space has {size} assignments, cap is {SEARCH_CAP}")
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
    return evaluate_assignment(instance, choice)

