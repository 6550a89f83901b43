"""Answer checks, done outside the timed interval.

The solution file is read and re-priced here with the benchmark's own
arithmetic from the generated instance, so a defect in the program's
``evaluate_assignment`` or solution writer cannot hide itself.
"""

from __future__ import annotations

from clevershopper.model import Instance

EXIT_OK = 0
EXIT_NO = 1


def reprice(instance: Instance, text: str) -> tuple[int | None, str | None]:
    """Cost of the solution ``text``, or ``(None, reason)`` if it is invalid.

    Every book must be assigned exactly once to a shop that sells it, and
    the declared ``COST`` must equal the re-priced total.
    """
    price = {(o.book, o.shop): o.price for o in instance.offers}
    assigned: dict[int, int] = {}
    declared = None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "ASSIGN" and len(tokens) == 3:
            book, shop = int(tokens[1]) - 1, int(tokens[2]) - 1
            if book in assigned:
                return None, f"book {book + 1} assigned twice"
            assigned[book] = shop
        elif tokens[0] == "COST" and len(tokens) == 2 and declared is None:
            declared = int(tokens[1])
        else:
            return None, f"unexpected line {raw!r}"
    if declared is None:
        return None, "no COST line"
    if sorted(assigned) != list(range(instance.num_books)):
        return None, "not every book assigned exactly once"
    spend = [0] * instance.num_shops
    for book, shop in assigned.items():
        if (book, shop) not in price:
            return None, f"shop {shop + 1} does not sell book {book + 1}"
        spend[shop] += price[(book, shop)]
    cost = sum(spend) - sum(
        rule.discount for rule, s in zip(instance.rules, spend) if s >= rule.threshold
    )
    if cost != declared:
        return None, f"declared cost {declared}, re-priced {cost}"
    return cost, None


def judge(case, code, text: str | None) -> tuple[int | None, str | None]:
    """Check one solve's exit code and solution; returns (cost, failure).

    ``cost`` is None when no solution is expected (a ``no`` decision).
    """
    expected = EXIT_NO if case.kind == "no" else EXIT_OK
    if code != expected:
        return None, f"exit code {code}, expected {expected}"
    if case.kind == "no":
        return None, None
    if text is None:
        return None, "no solution file written"
    try:
        cost, reason = reprice(case.instance, text)
    except ValueError as exc:
        return None, f"unreadable solution: {exc}"
    if reason is not None:
        return None, reason
    if case.budget is not None and cost > case.budget:
        return cost, f"cost {cost} exceeds budget {case.budget}"
    return cost, None
