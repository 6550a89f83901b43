"""Exception types shared across the package.

Messages name books and shops as instance files and solve output do
(``b1``, ``s1``: 1-based); the exception fields stay 0-based indices.

Two broad families matter to callers: ``InputError`` covers malformed or
out-of-contract data (bad files, invalid instances, violated solver
preconditions) and maps to CLI exit code 2, while ``ResourceLimitError``
covers instances that exceed a solver's configured size caps and maps to
CLI exit code 3.
"""

from __future__ import annotations


class CleverShopperError(Exception):
    """Base class for all package-specific errors."""


class InputError(CleverShopperError):
    """Invalid data: bad file, invalid instance, or violated precondition."""


class ResourceLimitError(CleverShopperError):
    """Instance exceeds a solver's configured size cap."""


# --- instance validation ---------------------------------------------------


class BookUncovered(InputError):
    def __init__(self, book: int):
        self.book = book
        super().__init__(f"book b{book + 1} is offered by no shop")


class BookUnassigned(BookUncovered):
    """A solution, not the instance, leaves the book without a shop."""

    def __init__(self, book: int):
        self.book = book
        InputError.__init__(self, f"the solution assigns book b{book + 1} to no shop")


class DuplicateOffer(InputError):
    def __init__(self, book: int, shop: int):
        self.book = book
        self.shop = shop
        super().__init__(f"duplicate offer for book b{book + 1} at shop s{shop + 1}")


class NegativeValue(InputError):
    def __init__(self, what: str, value: int):
        self.what = what
        self.value = value
        super().__init__(f"{what} must be non-negative, got {value}")


class DanglingIndex(InputError):
    def __init__(self, kind: str, index: int, limit: int):
        self.kind = kind
        self.index = index
        self.limit = limit
        prefix = {"book": "b", "shop": "s"}.get(kind)
        name = f"{prefix}{index + 1}" if prefix else f"index {index}"
        super().__init__(f"{kind} {name} out of range (have {limit})")


# --- evaluation ------------------------------------------------------------


class OfferMissing(InputError):
    def __init__(self, book: int, shop: int):
        self.book = book
        self.shop = shop
        super().__init__(f"no offer for book b{book + 1} at shop s{shop + 1}")


# --- solver caps and preconditions -----------------------------------------


class SearchSpaceTooLarge(ResourceLimitError):
    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"search space has {size} assignments, cap is {cap}")


class TooManyBooks(ResourceLimitError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"instance has {count} books, solver cap is {cap}")


class TooManyShops(ResourceLimitError):
    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"instance has {count} shops, solver cap is {cap}")


class StateSpaceTooLarge(ResourceLimitError):
    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"reachable state count {size} exceeds cap {cap}")


class DegreeTooHigh(InputError):
    def __init__(self, shop: int, degree: int):
        self.shop = shop
        self.degree = degree
        super().__init__(f"shop s{shop + 1} sells {degree} books, solver handles at most 2")


class NotUnitPrice(InputError):
    def __init__(self, book: int, shop: int, price: int):
        self.book = book
        self.shop = shop
        self.price = price
        super().__init__(
            f"offer for book b{book + 1} at shop s{shop + 1} has price {price}, expected 1"
        )


class NotFixedPrice(InputError):
    def __init__(self, book: int):
        self.book = book
        super().__init__(f"book b{book + 1} is offered at differing prices")


# --- instance generators ----------------------------------------------------


class EmptyInput(InputError):
    def __init__(self, what: str):
        self.what = what
        super().__init__(f"{what} must be non-empty")


class WeightSumMismatch(InputError):
    def __init__(self, total: int, expected: int):
        self.total = total
        self.expected = expected
        super().__init__(f"weights sum to {total}, expected {expected}")


class ItemCountMismatch(InputError):
    def __init__(self, counts: tuple[int, ...]):
        self.counts = counts
        super().__init__(f"components disagree on item count: {counts}")


class NotExactly3Occurrences(InputError):
    def __init__(self, item: int, count: int):
        self.item = item
        self.count = count
        super().__init__(f"item {item} occurs in {count} sets, expected exactly 3")


class LiteralOccurrenceViolation(InputError):
    def __init__(self, literal: int, count: int):
        self.literal = literal
        self.count = count
        super().__init__(f"literal {literal} occurs {count} times, expected exactly 2")


class InfeasibleParameters(InputError):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


# --- file formats -----------------------------------------------------------


class ParseError(InputError):
    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{reason}")
