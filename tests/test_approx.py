from __future__ import annotations

import random

import pytest

from clevershopper import (
    InputError,
    brute_force_min_cost,
    discount_earned,
    evaluate_assignment,
    from_max3sat,
    greedy_max_discount,
    random_instance,
    make_instance,
)


class TestGreedy:
    def test_single_claimable_shop_is_optimal(self):
        inst = make_instance(3, [(6, 9)], [(b, 0, 3) for b in range(3)])
        assert greedy_max_discount(inst).total_discount == 6
        assert brute_force_min_cost(inst).total_discount == 6

    def test_unreachable_thresholds_give_zero(self):
        inst = make_instance(2, [(4, 99), (4, 99)],
                             [(0, 0, 1), (1, 1, 1)])
        assert greedy_max_discount(inst).total_discount == 0

    def test_rejects_varying_prices(self, five_books):
        with pytest.raises(InputError, match="book b2 is offered at differing prices"):
            greedy_max_discount(five_books)

    def test_empty_inventory_shop_skipped_but_still_counted(self):
        # shop 0 sells nothing; its zero threshold pays out regardless
        inst = make_instance(1, [(5, 0), (1, 2)], [(0, 1, 2)])
        result = greedy_max_discount(inst)
        assert result.total_discount == 6
        assert result.choice == (1,)

    def test_gadget_value_fixed_by_tie_breaks(self, twice_cnf):
        gen = from_max3sat(twice_cnf)
        result = greedy_max_discount(gen.instance)
        # the polarity shops of each positive literal claim their books, the
        # two all-negative clauses then claim theirs: 3*2 + 2*1
        assert result.total_discount == 8
        optimum = brute_force_min_cost(gen.instance).total_discount
        assert optimum == 10
        assert 3 * result.total_discount >= optimum

    def test_deterministic(self):
        inst = random_instance(6, 4, fixed_prices=True, seed=11)
        assert greedy_max_discount(inst) == greedy_max_discount(inst)

    def test_higher_discount_claimed_first(self):
        # both shops want book 0; the greedy gives it to the bigger discount
        inst = make_instance(
            2,
            [(2, 2), (9, 4)],
            [(0, 0, 2), (0, 1, 2), (1, 1, 2)],
        )
        result = greedy_max_discount(inst)
        assert result.choice == (1, 1)
        assert result.total_discount == 9

    def test_claimed_shops_meet_thresholds(self):
        rng = random.Random(3)
        for _ in range(80):
            n = rng.randint(1, 7)
            m = rng.randint(1, 5)
            inst = random_instance(
                n, m, max_price=5, fixed_prices=True, seed=rng.randint(0, 10**6)
            )
            result = greedy_max_discount(inst)
            assert evaluate_assignment(inst, result.choice) == result
            # every earned discount really clears its threshold
            for s, rule in enumerate(inst.rules):
                spend = result.per_shop_spend[s]
                assert discount_earned(rule, spend) in (0, rule.discount)

    @pytest.mark.parametrize("k", [2, 3])
    def test_k_approximation(self, k):
        rng = random.Random(100 + k)
        for _ in range(120):
            n = rng.randint(1, 7)
            m = rng.randint(max(1, (n + k - 1) // k), n + 2)
            inst = random_instance(
                n,
                m,
                max_price=5,
                shop_degree_cap=k,
                fixed_prices=True,
                seed=rng.randint(0, 10**6),
            )
            greedy = greedy_max_discount(inst).total_discount
            optimum = brute_force_min_cost(inst).total_discount
            assert k * greedy >= optimum
