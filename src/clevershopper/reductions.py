"""Instance generators: reductions from classic problems, plus random.

Each reduction returns a :class:`GeneratedInstance` bundling the shopping
instance, whose budget encodes the source question, with the expected
answer when the source instance is small enough to decide directly.
Generators refuse a request for more than ``MAX_OFFERS`` offers before
they build any of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import EmptyInput, InputError, NegativeValue
from .model import Instance, make_instance
from .sources import (
    CnfFormula,
    SimpleGraph,
    X3CInstance,
    can_pack_bins,
    has_balanced_partition,
    has_neighborhood_packing,
    max_satisfied_clauses,
    x3c_solvable,
)

# Size ceilings beyond which generators leave the expected answer None
# rather than run an exponential decider.
PARTITION_DECIDE_CAP = 10_000_000  # total weight
BIN_PACKING_DECIDE_CAP = 20  # items
PERFECT_CODE_DECIDE_CAP = 16  # vertices
X3C_DECIDE_CAP = 18  # items per component
MAX3SAT_DECIDE_CAP = 20  # variables

# Most offers a generator builds.  The size is checked from the request,
# before anything of that size is allocated.
MAX_OFFERS = 1_000_000


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated instance plus ground truth about it.

    ``target_budget`` is the instance's own budget.  ``expected_answer``
    is the yes/no answer to "is a total cost of at most ``target_budget``
    achievable", or None when the generator did not decide it.
    ``expected_discount`` is only set by generators whose source problem
    is an optimization (currently the clause-satisfaction one).
    """

    instance: Instance
    expected_answer: bool | None = None
    expected_discount: int | None = None

    @property
    def target_budget(self) -> int | None:
        return self.instance.budget


def check_offer_count(count: int, what: str) -> None:
    """Refuse a request that may need more than ``MAX_OFFERS`` offers."""
    if count > MAX_OFFERS:
        raise InputError(
            f"{what} may need {count} offers, more than the {MAX_OFFERS} a generator makes"
        )


def check_x3c_offer_count(num_items: int, num_components: int) -> None:
    """Refuse an or-composition of ``num_components`` components of
    ``num_items`` items that needs more than ``MAX_OFFERS`` offers.

    Each component has one shop per 3-set (as many as items), selling the
    set's three item books and three identifier books per identifier
    bit; each of the two selector shops per bit sells ``num_items`` books.
    """
    # No components means nothing to build; the composition says so.
    bits = max(num_components - 1, 0).bit_length()
    check_offer_count(
        num_components * num_items * 3 * (1 + bits) + 2 * bits * num_items,
        f"{num_items} items in {num_components} components",
    )


def _check_weights(weights: tuple[int, ...]) -> None:
    if not weights:
        raise EmptyInput("weight list")
    for w in weights:
        if w < 0:
            raise NegativeValue("weight", w)


def from_partition(weights: tuple[int, ...]) -> GeneratedInstance:
    """Two shops, both selling every item at its weight.

    Both shops give a discount of 1 once the spend reaches half the total
    weight (rounded up), so cost total-2 is achievable exactly when the
    weights split into two equal halves.
    """
    _check_weights(weights)
    total = sum(weights)
    half = (total + 1) // 2
    rules = [(1, half), (1, half)]
    offers = [(b, s, w) for b, w in enumerate(weights) for s in (0, 1)]
    expected = has_balanced_partition(weights) if total <= PARTITION_DECIDE_CAP else None
    return GeneratedInstance(make_instance(len(weights), rules, offers, total - 2), expected)


def from_bin_packing(weights: tuple[int, ...], bins: int, capacity: int) -> GeneratedInstance:
    """One shop per bin, each selling every item at its weight.

    Requires the weights to sum to bins * capacity, so that packing means
    filling every bin exactly.  Every shop discounts 1 at threshold
    ``capacity``; cost total - bins is achievable exactly when every shop
    earns, i.e. when the items pack.
    """
    _check_weights(weights)
    if bins < 1:
        raise InputError(f"need at least one bin, got {bins}")
    total = sum(weights)
    if total != bins * capacity:
        raise InputError(f"weights sum to {total}, expected {bins * capacity}")
    check_offer_count(len(weights) * bins, f"{len(weights)} items in {bins} bins")
    rules = [(1, capacity)] * bins
    offers = [(b, s, w) for b, w in enumerate(weights) for s in range(bins)]
    expected = (
        can_pack_bins(weights, bins, capacity)
        if len(weights) <= BIN_PACKING_DECIDE_CAP
        else None
    )
    return GeneratedInstance(make_instance(len(weights), rules, offers, total - bins), expected)


def from_perfect_code(graph: SimpleGraph, k: int) -> GeneratedInstance:
    """One book and one shop per vertex, unit prices.

    Shop v sells the closed neighborhood of v and discounts 1 once all of
    it is bought there (threshold degree+1).  Earned shops have pairwise
    disjoint closed neighborhoods, so cost n-k is achievable exactly when
    k vertices with pairwise disjoint closed neighborhoods exist; a
    perfect code of size k is such a family, and when one exists it has
    the maximum possible k.
    """
    n = graph.num_vertices
    if n == 0:
        raise EmptyInput("graph")
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    check_offer_count(
        n + 2 * len(graph.edges), f"a graph of {n} vertices and {len(graph.edges)} edges"
    )
    rules = [(1, graph.degree(v) + 1) for v in range(n)]
    offers = [
        (b, v, 1) for v in range(n) for b in sorted(graph.closed_neighborhoods[v])
    ]
    expected = has_neighborhood_packing(graph, k) if n <= PERFECT_CODE_DECIDE_CAP else None
    return GeneratedInstance(make_instance(n, rules, offers, n - k), expected)


def x3c_or_composition(
    components: tuple[X3CInstance, ...], t_const: int = 42
) -> GeneratedInstance:
    """Combine several 3-set cover instances into one budget question that
    answers their OR.

    All books cost t_const + 1 and every shop discounts its full spend
    back except one unit per book (threshold = degree * price, discount =
    degree), so the budget t_const * num_books is achievable exactly when
    the inventories of the earning shops partition all books.  Each cover
    instance gets one shop per 3-set, selling the set's item books plus
    identifier books that mark the component; selector shops sell whole
    identifier columns.  The identifier bit patterns force every exact
    partition to take set shops from a single component and selector
    shops for the columns that component does not use, which happens for
    some selection iff some component has an exact cover.
    """
    if not components:
        raise EmptyInput("component list")
    counts = tuple(c.num_items for c in components)
    if len(set(counts)) != 1:
        raise InputError(f"components disagree on item count: {counts}")
    n = counts[0]
    if n == 0:
        raise EmptyInput("component items")
    check_x3c_offer_count(n, len(components))
    for comp in components:
        occur = [0] * n
        for triple in comp.sets:
            for item in triple:
                occur[item] += 1
        for item, count in enumerate(occur):
            if count != 3:
                raise InputError(f"item {item} occurs in {count} sets, expected exactly 3")
    if t_const < 0:
        raise NegativeValue("t_const", t_const)

    t = len(components)
    ell = (t - 1).bit_length()
    columns = [(c, j) for j in range(1, ell + 1) for c in (0, 1)]
    col_index = {cj: idx for idx, cj in enumerate(columns)}
    price = t_const + 1

    def item_book(i: int) -> int:
        return i

    def ident_book(i: int, cj: tuple[int, int]) -> int:
        return n + col_index[cj] * n + i

    num_books = n * (1 + 2 * ell)
    keys = [
        frozenset((h >> (j - 1) & 1, j) for j in range(1, ell + 1))
        for h in range(1, t + 1)
    ]

    rules: list[tuple[int, int]] = []
    offers: list[tuple[int, int, int]] = []
    for h, comp in enumerate(components):
        for triple in comp.sets:
            shop = len(rules)
            books = [item_book(i) for i in triple]
            books += [ident_book(i, cj) for i in triple for cj in sorted(keys[h])]
            rules.append((len(books), len(books) * price))
            offers += [(b, shop, price) for b in books]
    for cj in columns:
        shop = len(rules)
        books = [ident_book(i, cj) for i in range(n)]
        rules.append((len(books), len(books) * price))
        offers += [(b, shop, price) for b in books]

    if all(c.num_items <= X3C_DECIDE_CAP for c in components):
        expected = any(x3c_solvable(c) for c in components)
    else:
        expected = None
    inst = make_instance(num_books, rules, offers, t_const * num_books)
    return GeneratedInstance(inst, expected)


def from_max3sat(cnf: CnfFormula) -> GeneratedInstance:
    """Discount maximization gadget for clause satisfaction.

    Requires every signed literal to occur exactly twice (so the clause
    count is 4/3 the variable count).  Books: one per literal occurrence
    and one per variable, all at price 1 everywhere offered.  Each clause
    gets a shop selling its three occurrence books (discount 1, threshold
    1); each variable gets a true-shop and a false-shop selling that
    polarity's two occurrence books plus the variable book (discount 2,
    threshold 3).  The maximum total discount is 2 * num_vars + the
    maximum number of simultaneously satisfiable clauses: buying each
    variable book and the false polarity's occurrences at the false
    polarity's shop earns 2 per variable and leaves the true occurrences
    to earn each satisfied clause's 1.

    Every shop sells exactly three books and every book is sold by
    exactly two shops, so the greedy pass is a 3-approximation here.
    """
    m = len(cnf.clauses)
    if cnf.num_vars == 0:
        raise EmptyInput("variable list")
    counts: dict[int, int] = {}
    for clause in cnf.clauses:
        for lit in clause:
            counts[lit] = counts.get(lit, 0) + 1
    for v in range(1, cnf.num_vars + 1):
        for lit in (v, -v):
            if counts.get(lit, 0) != 2:
                raise InputError(
                    f"literal {lit} occurs {counts.get(lit, 0)} times, expected exactly 2"
                )

    num_vars = cnf.num_vars

    def occ_book(i: int, j: int) -> int:
        return 3 * i + j

    def var_book(v: int) -> int:
        return 3 * m + v - 1

    def true_shop(v: int) -> int:
        return m + 2 * (v - 1)

    def false_shop(v: int) -> int:
        return m + 2 * (v - 1) + 1

    rules = [(1, 1)] * m + [(2, 3)] * (2 * num_vars)
    offers: list[tuple[int, int, int]] = []
    for i, clause in enumerate(cnf.clauses):
        for j, lit in enumerate(clause):
            polarity = true_shop(lit) if lit > 0 else false_shop(-lit)
            offers.append((occ_book(i, j), i, 1))
            offers.append((occ_book(i, j), polarity, 1))
    for v in range(1, num_vars + 1):
        offers.append((var_book(v), true_shop(v), 1))
        offers.append((var_book(v), false_shop(v), 1))

    if num_vars <= MAX3SAT_DECIDE_CAP:
        expected_discount = 2 * num_vars + max_satisfied_clauses(cnf)
    else:
        expected_discount = None
    inst = make_instance(3 * m + num_vars, rules, offers)
    return GeneratedInstance(inst, expected_discount=expected_discount)


def random_x3c(num_items: int, seed: int = 0) -> X3CInstance:
    """Random 3-set system where every item occurs in exactly three sets.

    Shuffles three copies of every item into triples, then repairs any
    triple with a repeated item by a swap that keeps both triples valid.
    The set count always equals the item count.  Answers are mixed; item
    counts not divisible by three are always unsolvable.
    """
    if num_items < 3:
        raise InputError(f"need at least 3 items, got {num_items}")
    check_offer_count(3 * num_items, f"{num_items} items")
    rng = random.Random(seed)
    slots = [i for i in range(num_items) for _ in range(3)]
    rng.shuffle(slots)
    chunks = [slots[i : i + 3] for i in range(0, len(slots), 3)]

    def first_bad() -> int | None:
        for idx, c in enumerate(chunks):
            if len(set(c)) != 3:
                return idx
        return None

    while (bad := first_bad()) is not None:
        c = chunks[bad]
        x = next(e for e in c if c.count(e) >= 2)
        done = False
        for other_idx, other in enumerate(chunks):
            if other_idx == bad or x in other:
                continue
            for pos, z in enumerate(other):
                if z not in c:
                    c[c.index(x)] = z
                    other[pos] = x
                    done = True
                    break
            if done:
                break
        assert done  # with 3+ items a valid swap partner always exists
    return X3CInstance(num_items, tuple(tuple(sorted(c)) for c in chunks))


@dataclass(frozen=True)
class DiscountModel:
    """Shape of randomly drawn discount rules.

    ``max_threshold`` None means "scale with the expected total spend per
    shop", keeping thresholds plausibly reachable at any instance size.
    """

    max_discount: int = 5
    min_threshold: int = 1
    max_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.max_discount < 0:
            raise NegativeValue("max discount", self.max_discount)
        if self.min_threshold < 0:
            raise NegativeValue("min threshold", self.min_threshold)
        if self.max_threshold is not None and self.max_threshold < self.min_threshold:
            raise InputError(
                f"max threshold {self.max_threshold} is below min threshold {self.min_threshold}"
            )


def random_instance(
    num_books: int,
    num_shops: int,
    *,
    max_price: int = 10,
    shop_degree_cap: int | None = None,
    unit_prices: bool = False,
    fixed_prices: bool = False,
    discount_model: DiscountModel | None = None,
    seed: int = 0,
) -> Instance:
    """Random instance, deterministic for a given seed.

    Draw order is fixed: rules first, then per book its shop set and
    prices.  Every book gets at least one offer; extra offers appear with
    probability 0.35 per additional shop.  With a degree cap, shops stop
    receiving offers once full and offers are held back so every later
    book can still get one.
    """
    if num_books < 1 or num_shops < 1:
        raise InputError("need at least one book and one shop")
    if max_price < 1:
        raise InputError(f"max price must be positive, got {max_price}")
    if shop_degree_cap is not None:
        if shop_degree_cap < 1:
            raise InputError(f"degree cap must be positive, got {shop_degree_cap}")
        if shop_degree_cap * num_shops < num_books:
            raise InputError(
                f"{num_shops} shops capped at {shop_degree_cap} cannot cover "
                f"{num_books} books"
            )
    check_offer_count(num_books * num_shops, f"{num_books} books at {num_shops} shops")
    model = discount_model or DiscountModel()
    rng = random.Random(seed)

    avg_price = 1 if unit_prices else (1 + max_price) / 2
    tmax = model.max_threshold
    if tmax is None:
        tmax = max(model.min_threshold, round(num_books * avg_price / num_shops))
    rules = [
        (rng.randint(0, model.max_discount), rng.randint(model.min_threshold, tmax))
        for _ in range(num_shops)
    ]

    cap = shop_degree_cap if shop_degree_cap is not None else num_books
    remaining = [cap] * num_shops
    offers: list[tuple[int, int, int]] = []
    for b in range(num_books):
        eligible = [s for s in range(num_shops) if remaining[s] > 0]
        books_left = num_books - b - 1
        allowed = max(1, sum(remaining) - books_left)
        want = 1 + sum(1 for _ in range(num_shops - 1) if rng.random() < 0.35)
        want = min(want, len(eligible), allowed)
        shops = sorted(rng.sample(eligible, want))
        if fixed_prices or unit_prices:
            book_price = 1 if unit_prices else rng.randint(1, max_price)
            prices = [book_price] * want
        else:
            prices = [rng.randint(1, max_price) for _ in shops]
        for s, p in zip(shops, prices):
            remaining[s] -= 1
            offers.append((b, s, p))
    return make_instance(num_books, rules, offers, None)
