from __future__ import annotations

import random

import pytest

from clevershopper import (
    CnfFormula,
    DiscountModel,
    DiscountRule,
    EmptyInput,
    InputError,
    NegativeValue,
    SimpleGraph,
    X3CInstance,
    brute_force_min_cost,
    from_bin_packing,
    from_max3sat,
    from_partition,
    from_perfect_code,
    random_instance,
    random_x3c,
    serialize_instance,
    x3c_or_composition,
    x3c_solvable,
)

import bruteforce


class TestPartition:
    def test_basic_shape(self):
        gen = from_partition((1, 2, 3))
        inst = gen.instance
        assert inst.num_books == 3
        assert inst.rules == (DiscountRule(1, 3), DiscountRule(1, 3))
        assert gen.target_budget == 4
        assert inst.budget == 4
        assert gen.expected_answer is True

    def test_even_pair(self):
        gen = from_partition((2, 2))
        assert gen.instance.rules[0] == DiscountRule(1, 2)
        assert gen.target_budget == 2
        assert gen.expected_answer is True

    def test_odd_total_is_never_splittable(self):
        gen = from_partition((1, 1, 3))
        assert gen.target_budget == 3
        assert gen.expected_answer is False

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            from_partition(())

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeValue):
            from_partition((3, -1))

    def test_oracle_correspondence(self):
        rng = random.Random(1)
        for _ in range(60):
            weights = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 7)))
            gen = from_partition(weights)
            cost = brute_force_min_cost(gen.instance).total_cost
            assert gen.expected_answer == (cost <= gen.target_budget)


class TestBinPacking:
    @pytest.mark.parametrize(
        "weights, bins, cap, budget",
        [
            ((2, 2, 2, 2), 2, 4, 6),
            ((3, 3, 1, 1), 2, 4, 6),
            ((3, 3, 3, 3), 2, 6, 10),
        ],
    )
    def test_yes_examples(self, weights, bins, cap, budget):
        gen = from_bin_packing(weights, bins, cap)
        assert gen.target_budget == budget
        assert gen.expected_answer is True
        assert brute_force_min_cost(gen.instance).total_cost <= budget

    def test_no_example(self):
        gen = from_bin_packing((3, 3, 2), 2, 4)
        assert gen.expected_answer is False
        assert brute_force_min_cost(gen.instance).total_cost > gen.target_budget

    def test_weight_sum_checked(self):
        with pytest.raises(InputError, match="weights sum to 3, expected 8"):
            from_bin_packing((1, 1, 1), 2, 4)

    def test_bin_count_checked(self):
        with pytest.raises(InputError, match="need at least one bin, got 0"):
            from_bin_packing((4,), 0, 4)

    def test_oracle_correspondence(self):
        rng = random.Random(2)
        for _ in range(40):
            bins = rng.randint(1, 3)
            cap = rng.randint(1, 4)
            remaining = bins * cap
            weights = []
            while remaining:
                w = rng.randint(1, min(remaining, cap))
                weights.append(w)
                remaining -= w
            gen = from_bin_packing(tuple(weights), bins, cap)
            cost = brute_force_min_cost(gen.instance).total_cost
            assert gen.expected_answer == (cost <= gen.target_budget)


class TestPerfectCode:
    def test_code_graph(self, code_graph):
        gen = from_perfect_code(code_graph, 2)
        inst = gen.instance
        assert gen.target_budget == 3
        assert gen.expected_answer is True
        assert inst.rules[0] == DiscountRule(1, 3)  # degree 2 + 1
        assert inst.rules[4] == DiscountRule(1, 2)
        assert all(o.price == 1 for o in inst.offers)
        # a perfect code of size k exists, so the optimum is exactly n - k
        assert bruteforce.perfect_code_exists(5, code_graph.edges)
        assert brute_force_min_cost(inst).total_cost == 3

    def test_isolated_vertex(self):
        gen = from_perfect_code(SimpleGraph(1, ()), 1)
        assert gen.instance.rules == (DiscountRule(1, 1),)
        assert gen.target_budget == 0
        assert gen.expected_answer is True

    def test_triangle(self):
        gen = from_perfect_code(SimpleGraph(3, ((0, 1), (0, 2), (1, 2))), 1)
        assert gen.target_budget == 2
        assert gen.expected_answer is True
        assert brute_force_min_cost(gen.instance).total_cost == 2

    def test_k_out_of_range(self, code_graph):
        with pytest.raises(InputError, match=r"k must be in 1\.\.5, got 6"):
            from_perfect_code(code_graph, 6)

    def test_empty_graph(self):
        with pytest.raises(EmptyInput):
            from_perfect_code(SimpleGraph(0, ()), 1)

    def test_budget_answer_is_packing_not_code_existence(self):
        # the path on five vertices has no one-vertex perfect code, yet two
        # earned shops (ends of the path) bring the cost down to n - 2, so
        # the budget question answers "packing of size >= k", not "perfect
        # code of size exactly k"
        path = SimpleGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
        gen = from_perfect_code(path, 1)
        assert gen.expected_answer is True
        assert gen.target_budget == 4
        assert brute_force_min_cost(gen.instance).total_cost == 3

    def test_oracle_correspondence(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 6)
            edges = tuple(
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            )
            g = SimpleGraph(n, edges)
            for k in range(1, n + 1):
                gen = from_perfect_code(g, k)
                cost = brute_force_min_cost(gen.instance).total_cost
                assert gen.expected_answer == (cost <= gen.target_budget)


class TestX3CComposition:
    def test_single_yes_component(self):
        comp = random_x3c(6, seed=0)
        assert x3c_solvable(comp)
        gen = x3c_or_composition((comp,), t_const=5)
        assert gen.expected_answer is True
        # t=1 needs no identifier columns at all
        assert gen.instance.num_books == 6
        assert gen.target_budget == 5 * 6
        assert bruteforce.inventories_exactly_cover(gen.instance)

    def test_single_no_component(self):
        comp = random_x3c(6, seed=29)
        assert not x3c_solvable(comp)
        gen = x3c_or_composition((comp,), t_const=5)
        assert gen.expected_answer is False
        assert not bruteforce.inventories_exactly_cover(gen.instance)

    def test_or_of_two_components(self):
        no1, no2 = random_x3c(6, seed=29), random_x3c(6, seed=49)
        yes = random_x3c(6, seed=0)
        both_no = x3c_or_composition((no1, no2), t_const=3)
        assert both_no.expected_answer is False
        assert not bruteforce.inventories_exactly_cover(both_no.instance)
        second_yes = x3c_or_composition((no1, yes), t_const=3)
        assert second_yes.expected_answer is True
        assert bruteforce.inventories_exactly_cover(second_yes.instance)

    def test_structure_with_three_components(self):
        comps = tuple(random_x3c(6, seed=s) for s in (0, 1, 2))
        gen = x3c_or_composition(comps, t_const=2)
        inst = gen.instance
        # two identifier bits -> four identifier columns of six books each
        assert inst.num_books == 6 * 5
        assert gen.target_budget == 2 * 30
        # the 6 set shops of each component, in component order, then the
        # four selector shops
        assert inst.num_shops == 3 * 6 + 4
        for shop in range(3 * 6):
            assert len(inst.books_by_shop[shop]) == 9
            assert inst.rules[shop] == DiscountRule(9, 9 * 3)
        for shop in range(3 * 6, inst.num_shops):
            assert len(inst.books_by_shop[shop]) == 6
            assert inst.rules[shop] == DiscountRule(6, 6 * 3)

    def test_budget_matches_inventory_cover(self):
        rng = random.Random(4)
        for _ in range(12):
            t = rng.randint(1, 3)
            comps = tuple(random_x3c(6, seed=rng.randint(0, 500)) for _ in range(t))
            gen = x3c_or_composition(comps, t_const=rng.randint(0, 4))
            want = any(x3c_solvable(c) for c in comps)
            assert gen.expected_answer == want
            assert bruteforce.inventories_exactly_cover(gen.instance) == want

    def test_component_sizes_must_agree(self):
        with pytest.raises(InputError, match="disagree on item count: \\(6, 9\\)"):
            x3c_or_composition((random_x3c(6, seed=0), random_x3c(9, seed=0)))

    def test_occurrence_count_enforced(self):
        comp = X3CInstance(3, ((0, 1, 2),))
        with pytest.raises(InputError, match="item 0 occurs in 1 sets, expected"):
            x3c_or_composition((comp,))

    def test_empty_component_list(self):
        with pytest.raises(EmptyInput):
            x3c_or_composition(())


class TestMax3Sat:
    def test_example_formula(self, twice_cnf):
        gen = from_max3sat(twice_cnf)
        inst = gen.instance
        assert inst.num_shops == 10
        assert inst.num_books == 15
        assert gen.expected_discount == 10  # 2*3 + all four clauses
        assert brute_force_min_cost(inst).total_discount == 10

    def test_structural_degrees(self, twice_cnf):
        inst = from_max3sat(twice_cnf).instance
        for s in range(inst.num_shops):
            assert len(inst.books_by_shop[s]) == 3
        for b in range(inst.num_books):
            assert len(inst.offers_by_book[b]) == 2

    def test_rules(self, twice_cnf):
        inst = from_max3sat(twice_cnf).instance
        assert inst.rules[:4] == (DiscountRule(1, 1),) * 4
        assert inst.rules[4:] == (DiscountRule(2, 3),) * 6

    def test_no_clauses_rejected(self):
        with pytest.raises(InputError, match="literal 1 occurs 0 times, expected"):
            from_max3sat(CnfFormula(3, ()))

    def test_unbalanced_occurrences_rejected(self):
        cnf = CnfFormula(3, ((1, 2, 3), (1, 2, 3), (1, -2, -3), (-1, -2, -3)))
        with pytest.raises(InputError, match="literal 1 occurs 3 times"):
            from_max3sat(cnf)

    def test_matches_enumerator_on_small_formulas(self):
        rng = random.Random(6)
        for _ in range(12):
            cnf = bruteforce.random_twice_cnf(rng, 3)
            gen = from_max3sat(cnf)
            got = brute_force_min_cost(gen.instance).total_discount
            assert got == gen.expected_discount
            assert got == bruteforce.gadget_best_discount(cnf)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(6, 4, max_price=7, seed=42)
        b = random_instance(6, 4, max_price=7, seed=42)
        assert serialize_instance(a) == serialize_instance(b)

    def test_different_seeds_differ(self):
        a = random_instance(6, 4, max_price=7, seed=1)
        b = random_instance(6, 4, max_price=7, seed=2)
        assert serialize_instance(a) != serialize_instance(b)

    def test_degree_cap_honored(self):
        for seed in range(15):
            inst = random_instance(8, 5, shop_degree_cap=2, seed=seed)
            assert all(len(books) <= 2 for books in inst.books_by_shop)

    def test_unit_prices(self):
        inst = random_instance(5, 3, unit_prices=True, seed=9)
        assert all(o.price == 1 for o in inst.offers)

    def test_fixed_prices(self):
        for seed in range(15):
            inst = random_instance(6, 4, fixed_prices=True, seed=seed)
            for b in range(6):
                prices = {p for _, p in inst.offers_by_book[b]}
                assert len(prices) == 1

    def test_every_book_covered_and_valid(self):
        for seed in range(20):
            inst = random_instance(7, 4, max_price=9, seed=seed)
            assert all(inst.offers_by_book[b] for b in range(7))

    def test_impossible_degree_cap_rejected(self):
        with pytest.raises(InputError, match="2 shops capped at 2 cannot cover 9 books"):
            random_instance(9, 2, shop_degree_cap=2, seed=0)

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"max_discount": -1}, NegativeValue,
             "max discount must be non-negative, got -1"),
            ({"min_threshold": -1}, NegativeValue,
             "min threshold must be non-negative, got -1"),
            ({"min_threshold": 5, "max_threshold": 2}, InputError,
             "max threshold 2 is below min threshold 5"),
        ],
        ids=["max-discount", "min-threshold", "threshold-range"],
    )
    def test_discount_model_checks_its_fields(self, fields, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            random_instance(3, 2, discount_model=DiscountModel(**fields))

    def test_x3c_generator_is_valid_and_deterministic(self):
        for n in (6, 9):
            for seed in (0, 5, 29):
                comp = random_x3c(n, seed=seed)
                assert comp == random_x3c(n, seed=seed)
                occur = [0] * n
                for triple in comp.sets:
                    for item in triple:
                        occur[item] += 1
                assert all(c == 3 for c in occur)

    def test_x3c_generator_refuses_oversized_request(self):
        # checked before the 3 * num_items slots are allocated
        with pytest.raises(InputError, match="offers, more than"):
            random_x3c(10**9)
