"""End-to-end acceptance gates, one test per gate.

Each test is self-contained, uses fixed seeds, and checks its own wall
clock against the budget it is expected to meet.  The reference values
come from independent implementations in ``bruteforce`` or from hand
checks frozen into the assertions.
"""

from __future__ import annotations

import random
import re
import time
from itertools import combinations
from pathlib import Path

from clevershopper import (
    DiscountModel,
    StarDegreeBound,
    brute_force_min_cost,
    build_discount_graph,
    evaluate_assignment,
    from_bin_packing,
    from_partition,
    from_perfect_code,
    from_max3sat,
    fstar_unit_price_min_cost,
    greedy_max_discount,
    make_instance,
    matching2_min_cost,
    max_fstar_subgraph,
    max_satisfied_clauses,
    max_weight_matching,
    parse_instance,
    price_vector_min_cost,
    random_instance,
    random_x3c,
    serialize_instance,
    subset_dp_min_cost,
    SimpleGraph,
    WeightedEdge,
    WeightedGraph,
    x3c_or_composition,
)

import bruteforce


def test_worked_example_exact_solvers_and_matching_weight(five_books_path):
    start = time.perf_counter()
    instance = parse_instance(five_books_path.read_text())

    lowest_total = sum(price for _, price in instance.cheapest)
    assert lowest_total == 40

    for solver in (brute_force_min_cost, subset_dp_min_cost, matching2_min_cost):
        result = solver(instance)
        assert result.total_cost == 34
        assert result.total_cost == lowest_total - 6

    graph = build_discount_graph(instance)
    matched = max_weight_matching(graph)
    assert bruteforce.matching_weight(graph, matched) == 6
    assert time.perf_counter() - start < 1.0


def test_perfect_code_example_cost(code_graph):
    start = time.perf_counter()
    gen = from_perfect_code(code_graph, 2)
    assert gen.target_budget == 3
    assert brute_force_min_cost(gen.instance).total_cost == 3
    assert fstar_unit_price_min_cost(gen.instance).total_cost == 3
    assert time.perf_counter() - start < 1.0


def test_exact_solvers_match_oracle_sweeps():
    start = time.perf_counter()

    # subset DP on general instances
    for seed in range(200):
        inst = random_instance(
            1 + seed % 8, 1 + seed % 5, max_price=10,
            discount_model=DiscountModel(max_discount=5, min_threshold=0),
            seed=seed,
        )
        assert subset_dp_min_cost(inst).total_cost == brute_force_min_cost(inst).total_cost

    # matching2 where every shop sells at most two books
    rng = random.Random(301)
    for _ in range(200):
        n = rng.randint(2, 10)
        m = rng.randint((n + 1) // 2, 8)
        inst = random_instance(
            n, m, max_price=10, shop_degree_cap=2,
            discount_model=DiscountModel(max_discount=6, min_threshold=0),
            seed=rng.randint(0, 10**6),
        )
        assert matching2_min_cost(inst).total_cost == brute_force_min_cost(inst).total_cost

    # fstar on unit prices
    rng = random.Random(302)
    for _ in range(200):
        inst = random_instance(
            rng.randint(1, 8), rng.randint(1, 6), unit_prices=True,
            discount_model=DiscountModel(max_discount=3, min_threshold=0),
            seed=rng.randint(0, 10**6),
        )
        assert fstar_unit_price_min_cost(inst).total_cost == brute_force_min_cost(inst).total_cost

    # price-vector decision swept over every budget up to the dearest basket
    rng = random.Random(303)
    for _ in range(100):
        inst = random_instance(
            rng.randint(1, 5), rng.randint(1, 3), max_price=6,
            discount_model=DiscountModel(max_discount=4, min_threshold=0),
            seed=rng.randint(0, 10**6),
        )
        opt = brute_force_min_cost(inst).total_cost
        wallet = sum(
            max(p for _, p in inst.offers_by_book[b]) for b in range(inst.num_books)
        )
        for k in range(0, wallet + 1):
            result = price_vector_min_cost(inst, k)
            assert (result is not None) == (opt <= k)
            if result is not None:
                got = evaluate_assignment(inst, result.choice)
                assert got.total_cost == result.total_cost <= k

    assert time.perf_counter() - start < 120.0


def test_reduction_budget_correspondence():
    start = time.perf_counter()

    # partition: splittable iff two below-threshold shops can both earn
    rng = random.Random(401)
    for _ in range(100):
        weights = tuple(rng.randint(1, 20) for _ in range(rng.randint(2, 12)))
        gen = from_partition(weights)
        want = any(
            2 * sum(c) == sum(weights)
            for r in range(len(weights) + 1)
            for c in combinations(weights, r)
        )
        assert gen.expected_answer is want
        cost = brute_force_min_cost(gen.instance).total_cost
        assert (cost <= gen.target_budget) == want

    # bin packing with exactly-filling weights
    rng = random.Random(402)
    for _ in range(100):
        bins = rng.randint(1, 3)
        capacity = rng.randint(1, 4)
        remaining, weights = bins * capacity, []
        while remaining:
            w = rng.randint(1, min(remaining, capacity))
            weights.append(w)
            remaining -= w
        rng.shuffle(weights)
        gen = from_bin_packing(tuple(weights), bins, capacity)
        assert gen.target_budget == bins * (capacity - 1)
        cost = brute_force_min_cost(gen.instance).total_cost
        assert (cost <= gen.target_budget) == gen.expected_answer

    # perfect code: budget met iff k closed neighborhoods fit disjointly
    rng = random.Random(403)
    checks = 0
    while checks < 100:
        n = rng.randint(1, 8)
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        )
        g = SimpleGraph(n, edges)
        for k in range(1, n + 1):
            gen = from_perfect_code(g, k)
            cost = brute_force_min_cost(gen.instance).total_cost
            assert (cost <= gen.target_budget) == gen.expected_answer
            checks += 1

    # or-composition: budget met iff one component admits an exact cover,
    # equivalently iff some shop inventories partition the whole book set
    rng = random.Random(404)
    for trial in range(60):
        t = 1 + trial % 3
        comps = tuple(random_x3c(6, seed=rng.randint(0, 400)) for _ in range(t))
        gen = x3c_or_composition(comps, t_const=rng.randint(0, 3))
        want = any(bruteforce.sets_exactly_cover(c.num_items, c.sets) for c in comps)
        assert gen.expected_answer is want
        assert bruteforce.inventories_exactly_cover(gen.instance) is want
        if t == 1:
            cost = brute_force_min_cost(gen.instance).total_cost
            assert (cost <= gen.target_budget) is want

    assert time.perf_counter() - start < 120.0


def test_cnf_gadget_discount_and_greedy_ratio():
    start = time.perf_counter()
    rng = random.Random(500)
    # full enumeration of the gadget search space exceeds the oracle cap
    # beyond the smallest size, so larger sizes use the partial-assignment
    # enumerator, which is exact for these gadgets
    for num_vars, count in ((3, 20), (6, 20), (9, 15)):
        for _ in range(count):
            cnf = bruteforce.random_twice_cnf(rng, num_vars)
            gen = from_max3sat(cnf)
            optimum = 2 * num_vars + max_satisfied_clauses(cnf)
            assert bruteforce.gadget_best_discount(cnf) == optimum
            assert gen.expected_discount == optimum
            if num_vars == 3:
                assert brute_force_min_cost(gen.instance).total_discount == optimum
            greedy = greedy_max_discount(gen.instance)
            assert 3 * greedy.total_discount >= optimum
    assert time.perf_counter() - start < 60.0


def test_greedy_ratio_bound_fixed_price():
    start = time.perf_counter()
    for k in (2, 3):
        rng = random.Random(600 + k)
        for _ in range(100):
            n = rng.randint(2, 7)
            m = rng.randint((n + k - 1) // k, 7)
            inst = random_instance(
                n, m, max_price=8, shop_degree_cap=k, fixed_prices=True,
                discount_model=DiscountModel(max_discount=6, min_threshold=0),
                seed=rng.randint(0, 10**6),
            )
            greedy = greedy_max_discount(inst)
            replayed = evaluate_assignment(inst, greedy.choice)
            assert replayed == greedy  # valid choice, discounts really earned
            optimum = brute_force_min_cost(inst).total_discount
            assert k * greedy.total_discount >= optimum
    assert time.perf_counter() - start < 60.0


def test_matching_and_star_subroutine_oracles():
    start = time.perf_counter()

    rng = random.Random(700)
    for _ in range(500):
        n = rng.randint(2, 10)
        edges = tuple(
            (u, v, rng.randint(-3, 9))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        )
        graph = WeightedGraph(n, tuple(WeightedEdge(u, v, w) for u, v, w in edges))
        matched = max_weight_matching(graph)
        expected = bruteforce.dp_max_matching_weight(n, edges)
        assert bruteforce.matching_weight(graph, matched) == expected

    rng = random.Random(701)
    for _ in range(200):
        books = rng.randint(1, 8)
        shops = rng.randint(1, 8)
        pairs = [(b, s) for b in range(books) for s in range(shops)]
        rng.shuffle(pairs)
        edges = tuple(sorted(pairs[: rng.randint(0, 12)]))
        caps = tuple(rng.randint(0, 3) for _ in range(shops))
        covered = {b for b, _ in edges}
        offers = [(b, s, 1) for b, s in edges]
        offers += [(b, shops, 1) for b in range(books) if b not in covered]
        inst = make_instance(books, [(0, 1)] * (shops + 1), offers)
        star = max_fstar_subgraph(inst, StarDegreeBound(caps + (0,)))
        assert len(star) == bruteforce.brute_fstar_size(edges, caps + (0,))

    assert time.perf_counter() - start < 60.0


def test_performance_floor():
    inst = random_instance(
        15, 10, max_price=10,
        discount_model=DiscountModel(max_discount=5, min_threshold=0),
        seed=8,
    )
    start = time.perf_counter()
    result = subset_dp_min_cost(inst)
    assert time.perf_counter() - start < 5.0
    assert evaluate_assignment(inst, result.choice).total_cost == result.total_cost

    weights = (83, 97, 61, 59, 151, 149, 200, 200, 250, 250, 240, 260)
    assert sum(weights) == 2000
    gen = from_partition(weights)
    assert gen.expected_answer is True
    start = time.perf_counter()
    result = price_vector_min_cost(gen.instance, gen.target_budget)
    assert time.perf_counter() - start < 5.0
    assert result is not None
    assert result.total_cost <= gen.target_budget

    # fstar at its shop cap.  Every one of the 20 shops earns its discount,
    # so the cost meets the lower bound n - (all discounts) and is optimal.
    inst = random_instance(200, 20, unit_prices=True, seed=3)
    start = time.perf_counter()
    result = fstar_unit_price_min_cost(inst)
    assert time.perf_counter() - start < 5.0
    assert result.total_cost == 200 - sum(rule.discount for rule in inst.rules) == 151
    assert evaluate_assignment(inst, result.choice) == result


def test_serialization_round_trip_stability(five_books):
    from dataclasses import replace

    rng = random.Random(900)
    for trial in range(1000):
        inst = random_instance(
            rng.randint(1, 9), rng.randint(1, 6),
            max_price=rng.randint(1, 12),
            unit_prices=trial % 7 == 0,
            fixed_prices=trial % 5 == 0,
            seed=rng.randint(0, 10**6),
        )
        if trial % 3 == 0:
            inst = replace(inst, budget=rng.randint(0, 100))
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text

    frozen = (
        "CLEVERSHOP 1\nBOOKS 5\nSHOPS 5\n"
        "SHOP 1 3 10\nSHOP 2 3 10\nSHOP 3 3 10\nSHOP 4 3 10\nSHOP 5 3 10\n"
        "OFFER 1 1 12\nOFFER 2 1 10\nOFFER 2 2 9\nOFFER 2 3 11\n"
        "OFFER 3 2 7\nOFFER 3 3 4\nOFFER 3 4 5\nOFFER 3 5 8\n"
        "OFFER 4 4 8\nOFFER 5 5 7\n"
    )
    assert serialize_instance(five_books) == frozen


def test_readme_library_example():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    *body, last = block.strip().splitlines()
    expression, shown = last.split("#", 1)
    assert shown.strip().startswith("(7, (0, 0))")
    namespace: dict = {}
    exec("\n".join(body), namespace)
    assert eval(expression, namespace) == (7, (0, 0))
