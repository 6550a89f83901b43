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

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import DanglingIndex, InputError, NegativeValue


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
    available (book, shop, price) triples in strictly ascending (book, shop)
    order, which ``make_instance`` produces from any order.  ``budget`` is
    the optional decision target.  Building one from invalid data,
    including offers out of that order, raises ``InputError``, so every
    instance a solver sees is valid.
    """

    num_books: int
    rules: tuple[DiscountRule, ...]
    offers: tuple[Offer, ...]
    budget: int | None = None

    def __post_init__(self) -> None:
        if self.num_books < 0:
            raise NegativeValue("book count", self.num_books)
        for s, rule in enumerate(self.rules):
            if rule.discount < 0:
                raise NegativeValue(f"discount of shop s{s + 1}", rule.discount)
            if rule.threshold < 0:
                raise NegativeValue(f"threshold of shop s{s + 1}", rule.threshold)
        n, m = self.num_books, self.num_shops
        covered = 0  # books 0 .. covered - 1 have offers; a gap stops it
        last = -1  # book * m + shop of the offer before; ascends with (book, shop)
        for book, shop, price in self.offers:
            if not 0 <= book < n:
                raise DanglingIndex("book", book, n)
            if not 0 <= shop < m:
                raise DanglingIndex("shop", shop, m)
            if price < 0:
                raise NegativeValue(f"price of book b{book + 1} at shop s{shop + 1}", price)
            key = book * m + shop
            if key <= last:
                if key == last:
                    raise InputError(f"duplicate offer for book b{book + 1} at shop s{shop + 1}")
                last_book, last_shop = divmod(last, m)
                raise InputError(
                    f"offer out of (book, shop) order: book b{book + 1} at shop s{shop + 1}"
                    f" follows book b{last_book + 1} at shop s{last_shop + 1}"
                )
            if book == covered:
                covered += 1
            last = key
        if covered < n:
            raise InputError(f"book b{covered + 1} is offered by no shop")

    @property
    def num_shops(self) -> int:
        return len(self.rules)

    @cached_property
    def price(self) -> dict[tuple[int, int], int]:
        """Offer lookup keyed by (book, shop)."""
        return {(o.book, o.shop): o.price for o in self.offers}

    @cached_property
    def offers_by_book(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per book, the (shop, price) pairs offering it, ascending by shop
        because ``offers`` is in (book, shop) order."""
        per_book: list[list[tuple[int, int]]] = [[] for _ in range(self.num_books)]
        for book, shop, price in self.offers:
            per_book[book].append((shop, price))
        return tuple(map(tuple, per_book))

    @cached_property
    def cheapest(self) -> tuple[tuple[int, int], ...]:
        """Per book, its cheapest (shop, price) offer, ties to the lower shop."""
        return tuple(min(pairs, key=itemgetter(1)) for pairs in self.offers_by_book)

    @cached_property
    def books_by_shop(self) -> tuple[tuple[int, ...], ...]:
        """Per shop, the books it sells, ascending."""
        per_shop: list[list[int]] = [[] for _ in range(self.num_shops)]
        for book, pairs in enumerate(self.offers_by_book):
            for shop, _ in pairs:
                per_shop[shop].append(book)
        return tuple(map(tuple, per_shop))


@dataclass(frozen=True)
class SolveResult:
    """An evaluated assignment.

    ``choice[b]`` is the shop book b is bought at; ``per_shop_spend[s]`` is
    the pre-discount spend at shop s, for every shop (including unused ones);
    ``total_discount`` is the sum of earned discounts and ``total_cost`` the
    discounted grand total.
    """

    choice: tuple[int, ...]
    total_cost: int
    total_discount: int
    per_shop_spend: tuple[int, ...]


def discount_earned(rule: DiscountRule, spend: int) -> int:
    """Discount granted for a given pre-discount spend at one shop."""
    return rule.discount if spend >= rule.threshold else 0


def cheapest_plan(instance: Instance) -> list[int]:
    """Every book at its cheapest shop: the choice list solvers start from
    before the shops that earn their discount claim books."""
    return [shop for shop, _ in instance.cheapest]


def fixed_prices(instance: Instance) -> list[int]:
    """The one price of each book, for instances where every shop offering
    a book charges the same for it; raises ``InputError`` otherwise."""
    for book, options in enumerate(instance.offers_by_book):
        if len({price for _, price in options}) > 1:
            raise InputError(f"book b{book + 1} is offered at differing prices")
    return [price for _, price in instance.cheapest]


def evaluate_assignment(instance: Instance, choice: Sequence[int]) -> SolveResult:
    """Price a choice of one shop per book: spends, earned discounts, and
    total cost.

    ``choice[b]`` is the shop for book b; the result holds it as a tuple.
    This is where every plan is checked to name one offered shop for each
    book.  Discounts are evaluated for every shop, so shops with threshold
    0 contribute even when nothing is bought there.
    """
    choice = tuple(choice)
    if len(choice) < instance.num_books:
        raise InputError(f"the solution assigns book b{len(choice) + 1} to no shop")
    if len(choice) > instance.num_books:
        raise DanglingIndex("book", instance.num_books, instance.num_books)
    m = instance.num_shops
    spends = [0] * m
    offers_by_book = instance.offers_by_book
    for book, shop in enumerate(choice):
        if not 0 <= shop < m:
            raise DanglingIndex("shop", shop, m)
        pairs = offers_by_book[book]
        i = bisect_left(pairs, (shop,))
        if i == len(pairs) or pairs[i][0] != shop:
            raise InputError(f"no offer for book b{book + 1} at shop s{shop + 1}")
        spends[shop] += pairs[i][1]
    total_discount = sum(map(discount_earned, instance.rules, spends))
    return SolveResult(
        choice=choice,
        total_cost=sum(spends) - total_discount,
        total_discount=total_discount,
        per_shop_spend=tuple(spends),
    )


def make_instance(
    num_books: int,
    rules: Iterable[tuple[int, int]],
    offers: Iterable[tuple[int, int, int]],
    budget: int | None = None,
) -> Instance:
    """Convenience constructor from bare tuples, in any order.

    It sorts the offers by (book, shop), the order ``Instance`` requires
    and the file format uses; it is the one place that sorts them.
    """
    return Instance(
        num_books=num_books,
        rules=tuple(DiscountRule(d, t) for d, t in rules),
        offers=tuple(map(tuple.__new__, repeat(Offer), sorted(offers))),
        budget=budget,
    )
