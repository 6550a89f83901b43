"""Plain-text formats for instances, solutions, and source problems.

Instance files::

    # comment, anywhere
    CLEVERSHOP 1
    BOOKS 5
    SHOPS 2
    SHOP 1 3 10        # 1-based id, discount, threshold
    OFFER 2 1 7        # 1-based book, 1-based shop, price
    BUDGET 30          # optional

Solution files hold one ``ASSIGN book shop`` line per book (1-based) and
one ``COST value`` line.  Serialization is canonical: SHOP lines by id,
OFFER lines sorted by (book, shop), budget last.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DanglingIndex, InputError, ParseError
from .model import Instance, SolveResult, evaluate_assignment, make_instance
from .sources import CnfFormula, SimpleGraph


def read_file(path: str) -> str:
    """The text of the file at ``path``, decoded as UTF-8; a file that
    cannot be read or is not UTF-8 text raises ``InputError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None


def _significant_lines(text: str):
    for no, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            yield no, tokens


def _int(token: str, no: int | None, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"expected an integer {what}, got {token!r}") from None


def _index(token: str, no: int, what: str, limit: int) -> int:
    value = _int(token, no, what)
    if not 1 <= value <= limit:
        raise ParseError(no, f"{what} {value} out of range 1..{limit}")
    return value - 1


def parse_instance(text: str) -> Instance:
    """Read an instance file; a fault raises ``ParseError`` with its line
    number, and an instance ``make_instance`` refuses raises ``InputError``."""
    lines = _significant_lines(text)
    try:
        no, tokens = next(lines)
    except StopIteration:
        raise ParseError(None, "empty input, expected a CLEVERSHOP header") from None
    if tokens != ["CLEVERSHOP", "1"]:
        raise ParseError(no, f"expected 'CLEVERSHOP 1' header, got {' '.join(tokens)!r}")

    counts = {}
    for key in ("BOOKS", "SHOPS"):
        try:
            no, tokens = next(lines)
        except StopIteration:
            raise ParseError(None, f"missing {key} line") from None
        if len(tokens) != 2 or tokens[0] != key:
            raise ParseError(no, f"expected '{key} <count>', got {' '.join(tokens)!r}")
        counts[key] = _int(tokens[1], no, "count")
        if counts[key] < 0:
            raise ParseError(no, f"{key} count must be non-negative")
    num_books, num_shops = counts["BOOKS"], counts["SHOPS"]

    rules: dict[int, tuple[int, int]] = {}
    offers: list[tuple[int, int, int]] = []
    # An offer's key is book * num_shops + shop.  While each key is above
    # the one before, no line can repeat an offer, so the set of keys is
    # built only at the first line that steps back; ``last`` then goes
    # above every key, and ``seen`` decides for the rest of the file.
    last = -1
    seen: set[int] = set()
    budget: int | None = None
    for no, tokens in lines:
        kind = tokens[0]
        if kind == "OFFER":
            try:
                _, b, s, p = tokens
                book, shop, price = int(b) - 1, int(s) - 1, int(p)
            except ValueError:
                book = -1
            if 0 <= book < num_books and 0 <= shop < num_shops and price >= 0:
                key = book * num_shops + shop
                if key > last:
                    last = key
                    offers.append((book, shop, price))
                    continue
                if not seen:
                    seen = {o[0] * num_shops + o[1] for o in offers}
                    last = num_books * num_shops
                if key not in seen:
                    seen.add(key)
                    offers.append((book, shop, price))
                    continue
            # A bad line: raise its first fault in field order.  Past these
            # checks, only a negative price is left.
            if len(tokens) != 4:
                raise ParseError(no, "expected 'OFFER <book> <shop> <price>'")
            book = _index(tokens[1], no, "book", num_books)
            shop = _index(tokens[2], no, "shop", num_shops)
            if (book, shop) in {o[:2] for o in offers}:
                raise ParseError(no, f"duplicate offer for book {book + 1} at shop {shop + 1}")
            _int(tokens[3], no, "price")
            raise ParseError(no, "price must be non-negative")
        elif kind == "SHOP":
            try:
                _, i, d, t = tokens
                shop, discount, threshold = int(i) - 1, int(d), int(t)
            except ValueError:
                shop = -1
            if 0 <= shop < num_shops and shop not in rules and discount >= 0 and threshold >= 0:
                rules[shop] = (discount, threshold)
                continue
            # A bad line: raise its first fault in field order.  Past these
            # checks, only a negative discount or threshold is left.
            if len(tokens) != 4:
                raise ParseError(no, "expected 'SHOP <id> <discount> <threshold>'")
            shop = _index(tokens[1], no, "shop id", num_shops)
            if shop in rules:
                raise ParseError(no, f"duplicate SHOP line for shop {shop + 1}")
            _int(tokens[2], no, "discount")
            _int(tokens[3], no, "threshold")
            raise ParseError(no, "discount and threshold must be non-negative")
        elif kind == "BUDGET":
            if len(tokens) != 2:
                raise ParseError(no, "expected 'BUDGET <value>'")
            if budget is not None:
                raise ParseError(no, "duplicate BUDGET line")
            budget = _int(tokens[1], no, "budget")
        else:
            raise ParseError(no, f"unknown directive {kind!r}")

    for shop in range(num_shops):
        if shop not in rules:
            raise ParseError(None, f"missing SHOP line for shop {shop + 1}")
    return make_instance(num_books, [rules[s] for s in range(num_shops)], offers, budget)


def serialize_instance(instance: Instance) -> str:
    out = [
        "CLEVERSHOP 1",
        f"BOOKS {instance.num_books}",
        f"SHOPS {instance.num_shops}",
    ]
    for s, rule in enumerate(instance.rules):
        out.append(f"SHOP {s + 1} {rule.discount} {rule.threshold}")
    for o in instance.offers:
        out.append(f"OFFER {o.book + 1} {o.shop + 1} {o.price}")
    if instance.budget is not None:
        out.append(f"BUDGET {instance.budget}")
    return "\n".join(out) + "\n"


def parse_solution(text: str) -> tuple[dict[int, int], int]:
    """Read ASSIGN/COST lines; returns ({book: shop}, declared cost), 0-based."""
    assigns: dict[int, int] = {}
    declared: int | None = None
    for no, tokens in _significant_lines(text):
        if tokens[0] == "ASSIGN":
            if len(tokens) != 3:
                raise ParseError(no, "expected 'ASSIGN <book> <shop>'")
            book = _int(tokens[1], no, "book") - 1
            shop = _int(tokens[2], no, "shop") - 1
            if book < 0 or shop < 0:
                raise ParseError(no, "book and shop ids are 1-based")
            if book in assigns:
                raise ParseError(no, f"duplicate ASSIGN for book {book + 1}")
            assigns[book] = shop
        elif tokens[0] == "COST":
            if len(tokens) != 2:
                raise ParseError(no, "expected 'COST <value>'")
            if declared is not None:
                raise ParseError(no, "duplicate COST line")
            declared = _int(tokens[1], no, "cost")
        else:
            raise ParseError(no, f"unknown directive {tokens[0]!r}")
    if declared is None:
        raise ParseError(None, "missing COST line")
    return assigns, declared


def serialize_solution(result: SolveResult) -> str:
    out = [f"ASSIGN {b + 1} {s + 1}" for b, s in enumerate(result.choice)]
    out.append(f"COST {result.total_cost}")
    return "\n".join(out) + "\n"


def check_solution(instance: Instance, text: str) -> tuple[SolveResult, int]:
    """Re-price a solution file: returns the priced plan and the file's
    declared cost.  Comparing the two, and with a budget, is the caller's."""
    assigns, declared = parse_solution(text)
    for book in assigns:
        if book >= instance.num_books:
            raise DanglingIndex("book", book, instance.num_books)
    # The books assigned without a gap from b1; ``evaluate_assignment``
    # names the first one missing.
    choice = []
    while len(choice) in assigns:
        choice.append(assigns[len(choice)])
    return evaluate_assignment(instance, choice), declared


def parse_graph(text: str) -> SimpleGraph:
    """Graph file: a vertex count line, then one 'u v' line per edge, 1-based."""
    lines = _significant_lines(text)
    try:
        no, tokens = next(lines)
    except StopIteration:
        raise ParseError(None, "empty input, expected a vertex count") from None
    if len(tokens) != 1:
        raise ParseError(no, "expected a single vertex count")
    n = _int(tokens[0], no, "vertex count")
    if n < 0:
        raise ParseError(no, "vertex count must be non-negative")
    edges = set()
    for no, tokens in lines:
        if len(tokens) != 2:
            raise ParseError(no, "expected 'u v'")
        u = _index(tokens[0], no, "vertex", n)
        v = _index(tokens[1], no, "vertex", n)
        if u == v:
            raise ParseError(no, f"self-loop at vertex {u + 1}")
        edge = (min(u, v), max(u, v))
        if edge in edges:
            raise ParseError(no, f"duplicate edge {u + 1} {v + 1}")
        edges.add(edge)
    return SimpleGraph(n, tuple(sorted(edges)))


def parse_weights(text: str) -> tuple[int, ...]:
    """Comma- or whitespace-separated integers."""
    return tuple(
        _int(token, None, "weight")
        for token in text.replace(",", " ").split()
    )


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS CNF; every clause must have exactly three literals."""
    num_vars: int | None = None
    num_clauses: int | None = None
    literals: list[int] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        tokens = line.split()
        if tokens[0] == "p":
            if num_vars is not None:
                raise ParseError(no, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError(no, "expected 'p cnf <vars> <clauses>'")
            num_vars = _int(tokens[2], no, "variable count")
            num_clauses = _int(tokens[3], no, "clause count")
            continue
        if num_vars is None:
            raise ParseError(no, "clause before the problem line")
        literals.extend(_int(t, no, "literal") for t in tokens)
    if num_vars is None or num_clauses is None:
        raise ParseError(None, "missing problem line")

    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if len(current) != 3:
                raise ParseError(
                    None, f"clause {len(clauses) + 1} has {len(current)} literals, expected 3"
                )
            clauses.append((current[0], current[1], current[2]))
            current = []
        else:
            current.append(lit)
    if current:
        raise ParseError(None, "last clause is not terminated by 0")
    if len(clauses) != num_clauses:
        raise ParseError(
            None, f"problem line declares {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))
