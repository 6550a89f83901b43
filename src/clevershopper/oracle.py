"""Brute-force reference solvers.

These enumerate every assignment, with no pruning beyond an up-front
size check: all other solvers are validated against them on small
instances.  Each assignment is priced from the one before it, and the
tests check the result against independent scans in ``tests/bruteforce.py``.
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
    threshold = [rule.threshold for rule in instance.rules]
    discount = [rule.discount for rule in instance.rules]
    # pick[b] indexes book b's options.  Each move re-prices only the two
    # shops whose spend it changes, so cost follows every assignment.
    pick = [0] * instance.num_books
    spends = [0] * instance.num_shops
    for options in per_book:
        shop, price = options[0]
        spends[shop] += price
    cost = sum(spends) - sum(d for d, t, spend in zip(discount, threshold, spends) if spend >= t)
    best_cost = cost
    best_pick = tuple(pick)
    while True:
        # Step to the next choice in lexicographic order, like an odometer:
        # trailing books on their last option wrap to their first.
        b = len(pick) - 1
        while b >= 0:
            options = per_book[b]
            old, paid = options[pick[b]]
            pick[b] = (pick[b] + 1) % len(options)
            for shop, delta in ((old, -paid), options[pick[b]]):  # take the book away, then add it
                t = threshold[shop]
                before = spends[shop]
                spends[shop] = after = before + delta
                cost += delta - discount[shop] * ((after >= t) - (before >= t))
            if pick[b]:
                break
            b -= 1
        else:
            break
        if cost < best_cost:
            best_cost = cost
            best_pick = tuple(pick)
    choice = tuple(per_book[b][i][0] for b, i in enumerate(best_pick))
    return evaluate_assignment(instance, choice)

