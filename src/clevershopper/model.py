"""Core data model for the discount shopping assignment problem.

An instance consists of n books, m shops, and a set of offers: shop s sells
book b at integer price w(b, s).  Every book must be bought at exactly one
shop that offers it.  Each shop advertises a discount rule (d_s, t_s): if the
pre-discount spend at shop s reaches the threshold t_s, the bill at s drops
by d_s.  The total cost of an assignment is the sum of the chosen offer
prices minus the sum of earned discounts, and the goal is to minimise it.
An optional budget K turns the problem into a decision question (is a total
cost of at most K achievable?).

All indices are dense and 0-based.  Money is plain ``int`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple

from .errors import (
    BookUnassigned,
    BookUncovered,
    DanglingIndex,
    DuplicateOffer,
    NegativeValue,
    NotFixedPrice,
    OfferMissing,
)


class Offer(NamedTuple):
    """One shop's price for one book."""

    book: int
    shop: int
    price: int


@dataclass(frozen=True)
class DiscountRule:
    """Threshold discount: spend at least ``threshold`` to save ``discount``.

    A threshold of 0 is met by any spend, including not buying anything at
    the shop, so such a shop always contributes its discount.
    """

    discount: int
    threshold: int


@dataclass(frozen=True)
class Instance:
    """A full problem instance.

    ``rules[s]`` is the discount rule of shop ``s``; ``offers`` lists the
    available (book, shop, price) triples.  ``budget`` is the optional
    decision target.
    """

    num_books: int
    rules: tuple[DiscountRule, ...]
    offers: tuple[Offer, ...]
    budget: int | None = None

    @property
    def num_shops(self) -> int:
        return len(self.rules)

    @cached_property
    def price(self) -> dict[tuple[int, int], int]:
        """Offer lookup keyed by (book, shop)."""
        return {(o.book, o.shop): o.price for o in self.offers}

    @cached_property
    def offers_by_book(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per book, the (shop, price) pairs offering it, ascending by shop."""
        per_book: list[list[tuple[int, int]]] = [[] for _ in range(self.num_books)]
        for o in self.offers:
            per_book[o.book].append((o.shop, o.price))
        return tuple(tuple(sorted(pairs)) for pairs in per_book)

    @cached_property
    def cheapest(self) -> tuple[tuple[int, int], ...]:
        """Per book, its cheapest (shop, price) offer, ties to the lower shop."""
        return tuple(min(pairs, key=itemgetter(1)) for pairs in self.offers_by_book)

    @cached_property
    def books_by_shop(self) -> tuple[tuple[int, ...], ...]:
        """Per shop, the books it sells, ascending."""
        per_shop: list[list[int]] = [[] for _ in range(self.num_shops)]
        for o in self.offers:
            per_shop[o.shop].append(o.book)
        return tuple(tuple(sorted(books)) for books in per_shop)

    def book_name(self, book: int) -> str:
        return f"b{book + 1}"

    def shop_name(self, shop: int) -> str:
        return f"s{shop + 1}"


@dataclass(frozen=True)
class Assignment:
    """A total choice of one shop per book; ``choice[b]`` is the shop for b."""

    choice: tuple[int, ...]


@dataclass(frozen=True)
class SolveResult:
    """An evaluated assignment.

    ``per_shop_spend`` maps every shop (including unused ones) to its
    pre-discount spend; ``total_discount`` is the sum of earned discounts and
    ``total_cost`` the discounted grand total.
    """

    assignment: Assignment
    total_cost: int
    total_discount: int
    per_shop_spend: dict[int, int]


def validate_instance(instance: Instance) -> Instance:
    """Check structural invariants, returning the instance unchanged.

    Raises ``NegativeValue``, ``DanglingIndex``, ``DuplicateOffer`` or
    ``BookUncovered``.  Solvers assume a validated instance.
    """
    if instance.num_books < 0:
        raise NegativeValue("book count", instance.num_books)
    if instance.budget is not None and instance.budget < 0:
        raise NegativeValue("budget", instance.budget)
    for s, rule in enumerate(instance.rules):
        if rule.discount < 0:
            raise NegativeValue(f"discount of shop {s}", rule.discount)
        if rule.threshold < 0:
            raise NegativeValue(f"threshold of shop {s}", rule.threshold)
    seen: set[tuple[int, int]] = set()
    for o in instance.offers:
        if not 0 <= o.book < instance.num_books:
            raise DanglingIndex("book", o.book, instance.num_books)
        if not 0 <= o.shop < instance.num_shops:
            raise DanglingIndex("shop", o.shop, instance.num_shops)
        if o.price < 0:
            raise NegativeValue(f"price of book {o.book} at shop {o.shop}", o.price)
        if (o.book, o.shop) in seen:
            raise DuplicateOffer(o.book, o.shop)
        seen.add((o.book, o.shop))
    covered = {o.book for o in instance.offers}
    if len(covered) < instance.num_books:
        # The first gap is among the first len(covered) + 1 books.
        raise BookUncovered(next(b for b in range(instance.num_books) if b not in covered))
    return instance


def discount_earned(rule: DiscountRule, spend: int) -> int:
    """Discount granted for a given pre-discount spend at one shop."""
    return rule.discount if spend >= rule.threshold else 0


def _cheapest_offer(instance: Instance, book: int) -> tuple[int, int]:
    if not 0 <= book < instance.num_books:
        raise DanglingIndex("book", book, instance.num_books)
    return instance.cheapest[book]


def min_price(instance: Instance, book: int) -> int:
    """Cheapest offer price for a book, ignoring discounts."""
    return _cheapest_offer(instance, book)[1]


def cheapest_shop(instance: Instance, book: int) -> int:
    """Lowest-index shop attaining ``min_price`` for the book."""
    return _cheapest_offer(instance, book)[0]


def cheapest_plan(instance: Instance) -> list[int]:
    """Every book at its cheapest shop: the choice list solvers start from
    before the shops that earn their discount claim books."""
    return [shop for shop, _ in instance.cheapest]


def fixed_prices(instance: Instance) -> list[int]:
    """The one price of each book, for instances where every shop offering
    a book charges the same for it; raises ``NotFixedPrice`` otherwise."""
    for book, options in enumerate(instance.offers_by_book):
        if len({price for _, price in options}) > 1:
            raise NotFixedPrice(book)
    return [price for _, price in instance.cheapest]


def evaluate_assignment(instance: Instance, assignment: Assignment) -> SolveResult:
    """Price an assignment: spends, earned discounts, and total cost.

    Discounts are evaluated for every shop, so shops with threshold 0
    contribute even when nothing is bought there.
    """
    choice = assignment.choice
    if len(choice) < instance.num_books:
        raise BookUnassigned(len(choice))
    if len(choice) > instance.num_books:
        raise DanglingIndex("book", instance.num_books, instance.num_books)
    spends = {s: 0 for s in range(instance.num_shops)}
    gross = 0
    for book, shop in enumerate(choice):
        if not 0 <= shop < instance.num_shops:
            raise DanglingIndex("shop", shop, instance.num_shops)
        price = instance.price.get((book, shop))
        if price is None:
            raise OfferMissing(book, shop)
        spends[shop] += price
        gross += price
    total_discount = sum(
        discount_earned(rule, spends[s]) for s, rule in enumerate(instance.rules)
    )
    return SolveResult(
        assignment=assignment,
        total_cost=gross - total_discount,
        total_discount=total_discount,
        per_shop_spend=spends,
    )


def make_instance(
    num_books: int,
    rules: Iterable[tuple[int, int]],
    offers: Iterable[tuple[int, int, int]],
    budget: int | None = None,
) -> Instance:
    """Convenience constructor from bare tuples, validated and canonical.

    Offers are stored sorted by (book, shop), the order the file format uses.
    """
    inst = Instance(
        num_books=num_books,
        rules=tuple(DiscountRule(d, t) for d, t in rules),
        offers=tuple(sorted(Offer(b, s, p) for b, s, p in offers)),
        budget=budget,
    )
    return validate_instance(inst)
