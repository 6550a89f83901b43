"""Greedy discount maximization for instances with fixed prices.

When every book costs the same everywhere, minimizing cost is the same as
maximizing the total discount.  The greedy pass visits shops in order of
decreasing discount and lets each shop claim all of its still-unclaimed
books if their combined price reaches the threshold.  If no shop sells
more than k books, the greedy discount is within a factor k of optimal:
each claimed shop can block at most k optimal shops, one per claimed
book, and each blocked shop has no larger discount.
"""

from __future__ import annotations

from .model import (
    Instance,
    SolveResult,
    cheapest_plan,
    evaluate_assignment,
    fixed_prices,
)


def greedy_max_discount(instance: Instance) -> SolveResult:
    """Assign books shop-by-shop, greediest discount first.

    Shops are visited by decreasing discount (ties to the lower index).
    A shop claims every unclaimed book it sells when their total price
    meets its threshold; books left over at the end go to the lowest-index
    shop offering them, which with fixed prices is their cheapest shop.
    """
    price = fixed_prices(instance)
    order = sorted(range(instance.num_shops), key=lambda s: (-instance.rules[s].discount, s))
    choice = cheapest_plan(instance)
    claimed = [False] * instance.num_books
    for s in order:
        mine = [b for b in instance.books_by_shop[s] if not claimed[b]]
        if mine and sum(price[b] for b in mine) >= instance.rules[s].threshold:
            for b in mine:
                choice[b] = s
                claimed[b] = True
    return evaluate_assignment(instance, choice)
