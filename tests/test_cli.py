from __future__ import annotations

import contextlib
import gc
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clevershopper import (
    brute_force_min_cost,
    from_partition,
    make_instance,
    parse_instance,
    parse_solution,
    random_instance,
    serialize_instance,
)
from clevershopper import bench, cli, exact, reductions
from clevershopper.bench import ALGORITHM_NAMES
from clevershopper.cli import main


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_oracle_on_example(self, capsys, five_books_path):
        code, out, _ = run_cli(
            capsys, "solve", "--input", str(five_books_path), "--algo", "oracle"
        )
        assert code == 0
        assert "cost 34" in out
        assert "discount 9" in out
        assert "shop s1: b1 (spend 12, discount 3)" in out

    @pytest.mark.parametrize("algo", ["subset-dp", "matching2"])
    def test_other_exact_algorithms_agree(self, capsys, five_books_path, algo):
        code, out, _ = run_cli(
            capsys, "solve", "--input", str(five_books_path), "--algo", algo
        )
        assert code == 0
        assert "cost 34" in out

    def test_budget_no(self, capsys, five_books_path):
        code, out, _ = run_cli(
            capsys,
            "solve", "--input", str(five_books_path), "--algo", "oracle",
            "--budget", "33",
        )
        assert code == 1
        assert "no: cost 34 exceeds budget 33" in out

    def test_budget_yes(self, capsys, five_books_path):
        code, out, _ = run_cli(
            capsys,
            "solve", "--input", str(five_books_path), "--algo", "oracle",
            "--budget", "34",
        )
        assert code == 0
        assert "yes: cost 34 within budget 34" in out

    def test_price_dp_decision_paths(self, capsys, tmp_path):
        inst_file = tmp_path / "partition.cshop"
        run_cli(
            capsys, "generate", "partition", "--weights", "1,2,3",
            "--output", str(inst_file),
        )
        code, out, _ = run_cli(
            capsys, "solve", "--input", str(inst_file), "--algo", "price-dp"
        )
        assert code == 0  # budget 4 comes from the file
        assert "cost 4" in out
        assert "yes: cost 4 within budget 4" in out

        code, out, _ = run_cli(
            capsys,
            "solve", "--input", str(inst_file), "--algo", "price-dp",
            "--budget", "3",
        )
        assert code == 1
        assert "no: minimum cost exceeds budget 3" in out

    def test_shop_earning_with_no_books_gets_a_line(self, capsys, tmp_path):
        # Both shops have threshold 0; the only book goes to s1, and s2
        # earns its discount holding nothing.
        inst_file = tmp_path / "zero.cshop"
        run_cli(capsys, "generate", "partition", "--weights", "0", "--output", str(inst_file))
        code, out, _ = run_cli(capsys, "solve", "--input", str(inst_file), "--algo", "oracle")
        assert code == 0
        assert out == (
            "cost -2\n"
            "discount 2\n"
            "shop s1: b1 (spend 0, discount 1)\n"
            "shop s2: none (spend 0, discount 1)\n"
            "yes: cost -2 within budget -2\n"
        )

    @pytest.mark.parametrize(
        "algo, budget, code, verdict",
        [("oracle", "-3", 0, "yes: cost -4 within budget -3"),
         ("oracle", "-5", 1, "no: cost -4 exceeds budget -5"),
         ("price-dp", "-3", 0, "yes: cost -4 within budget -3"),
         ("price-dp", "-5", 1, "no: minimum cost exceeds budget -5")],
        ids=["oracle-yes", "oracle-no", "price-dp-yes", "price-dp-no"],
    )
    def test_negative_budget_in_file_or_flag(self, capsys, tmp_path, algo, budget, code, verdict):
        # A threshold-0 shop earns its discount unconditionally, so costs
        # and budgets can be negative.
        text = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\nSHOP 1 5 0\nOFFER 1 1 1\n"
        bare = tmp_path / "bare.cshop"
        bare.write_text(text)
        budgeted = tmp_path / "budgeted.cshop"
        budgeted.write_text(text + f"BUDGET {budget}\n")
        by_flag = run_cli(
            capsys, "solve", "--input", str(bare), "--algo", algo, "--budget", budget
        )
        by_file = run_cli(capsys, "solve", "--input", str(budgeted), "--algo", algo)
        assert by_file == by_flag
        assert by_flag[0] == code
        assert by_flag[1].endswith(f"{verdict}\n")
        assert by_flag[2] == ""

    def test_output_file(self, capsys, five_books_path, tmp_path):
        sol = tmp_path / "out.sol"
        run_cli(
            capsys,
            "solve", "--input", str(five_books_path), "--algo", "oracle",
            "--output", str(sol),
        )
        text = sol.read_text()
        assert text.startswith("# instance: five_books.cshop\n# algorithm: oracle\n")
        assigns, declared = parse_solution(text)
        assert declared == 34
        assert len(assigns) == 5

    def test_output_seedless(self, capsys, five_books_path, tmp_path):
        sol = tmp_path / "out.sol"
        run_cli(
            capsys,
            "solve", "--input", str(five_books_path), "--algo", "oracle",
            "--output", str(sol), "--seedless",
        )
        assert "#" not in sol.read_text()

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "solve", "--input", str(tmp_path / "absent.cshop"),
            "--algo", "oracle",
        )
        assert code == 2
        assert "error:" in err

    def test_unparseable_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.cshop"
        bad.write_text("BOOKS 3\n")
        code, _, err = run_cli(
            capsys, "solve", "--input", str(bad), "--algo", "oracle"
        )
        assert code == 2
        assert "CLEVERSHOP" in err

    @pytest.mark.parametrize(
        "algo, instance, flags, max_states, message",
        [
            # 21 books and 5 shops are within the DPs' caps: exit 0.
            pytest.param(
                "subset-dp", random_instance(21, 3, seed=0), [], None, None,
                id="subset-dp-books",
            ),
            pytest.param(
                "price-dp", random_instance(6, 5, seed=1), [], None, None,
                id="price-dp-shops",
            ),
            # 20 equal weights: each shop has C(20, 10) earning sets.
            pytest.param(
                "subset-dp", from_partition((1,) * 20).instance, [], None,
                "step count 34141951430 exceeds cap 32000000", id="subset-dp-steps",
            ),
            # 30 shops: each kept vector is charged at least 31 steps a book.
            pytest.param(
                "price-dp", random_instance(40, 30, seed=1), [], 1000,
                "step count 38614 exceeds cap 16000", id="price-dp-steps",
            ),
            # A cycle of 101 books reaches the blossom, whose stages and
            # dual steps are charged 202 steps each.
            pytest.param(
                "matching2",
                make_instance(101, [(1, 2)] * 101,
                              [(b, s, 1) for s in range(101) for b in (s, (s + 1) % 101)]),
                [], 100, "step count 1616 exceeds cap 1600", id="matching2-steps",
            ),
            # 21 shops are within fstar's step cap: exit 0.
            pytest.param(
                "fstar", make_instance(1, [(1, 1)] * 21, [(0, s, 1) for s in range(21)]), [],
                None, None, id="fstar-shops",
            ),
            pytest.param(
                "fstar", random_instance(200, 30, unit_prices=True, seed=1), [], 1000,
                "step count 16231 exceeds cap 16000", id="fstar-steps",
            ),
            pytest.param(
                "oracle",
                make_instance(24, [(0, 1)] * 2, [(b, s, 1) for b in range(24) for s in (0, 1)]),
                [], None, "search space has 16777216 assignments, cap is 10000000", id="oracle",
            ),
            pytest.param(
                "price-dp", random_instance(8, 3, max_price=9, seed=1), ["--budget", "29"], 9,
                "reachable state count 10 exceeds cap 9", id="price-dp-states",
            ),
        ],
    )
    def test_size_cap_exit_code(
        self, capsys, tmp_path, monkeypatch, algo, instance, flags, max_states, message
    ):
        if max_states is not None:
            monkeypatch.setattr(exact, "MAX_STATES", max_states)
        big = tmp_path / "big.cshop"
        big.write_text(serialize_instance(instance))
        result = run_cli(capsys, "solve", "--input", str(big), "--algo", algo, *flags)
        if message is None:
            code, out, _ = result
            assert code == 0
            assert out.startswith(f"cost {brute_force_min_cost(instance).total_cost}\n")
        else:
            assert result == (3, "", f"error: {message}\n")

    def test_oracle_on_long_single_offer_file(self, capsys, tmp_path):
        # 3000 books with one offer each: a search space of one assignment,
        # but three times deeper than Python's default recursion limit.
        n = 3000
        path = tmp_path / "long.cshop"
        path.write_text(serialize_instance(make_instance(
            n, [(5, 10), (0, 0)], [(b, b % 2, 3) for b in range(n)]
        )))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--algo", "oracle")
        assert code == 0
        assert f"cost {3 * n - 5}" in out

    def test_fstar_long_augmenting_paths(self, capsys, tmp_path):
        # The first shop takes n-1 books, one search each, and each search
        # scans past the books the shop already holds.
        n = 1100
        path = tmp_path / "chain.cshop"
        path.write_text(serialize_instance(make_instance(
            n, [(1, n - 1), (1, 2), (0, 0)], [(b, s, 1) for b in range(n) for s in (0, 1)]
        )))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--algo", "fstar")
        assert code == 0
        assert f"cost {n - 1}" in out
        # Shop s < n-1 sells books s and s + 1, and holds book s once the
        # shops before it are added; the last shop sells only book 0, so
        # its search walks every shop and moves every book one shop back.
        path.write_text(serialize_instance(make_instance(
            n, [(1, 1)] * n, [(b, s, 1) for s in range(n - 1) for b in (s, s + 1)] + [(0, n - 1, 1)]
        )))
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--algo", "fstar")
        assert code == 0
        assert "cost 0" in out

    def test_huge_book_count_is_bad_input(self, capsys, tmp_path):
        path = tmp_path / "huge.cshop"
        path.write_text(
            "CLEVERSHOP 1\nBOOKS 1000000000000000\nSHOPS 1\nSHOP 1 0 0\nOFFER 1 1 5\n"
        )
        code, _, err = run_cli(capsys, "solve", "--input", str(path), "--algo", "oracle")
        assert code == 2
        assert "offered by no shop" in err

    def test_uncovered_book_named_as_in_file(self, capsys, tmp_path):
        path = tmp_path / "gap.cshop"
        path.write_text(
            "CLEVERSHOP 1\nBOOKS 3\nSHOPS 1\nSHOP 1 0 0\nOFFER 1 1 5\nOFFER 3 1 5\n"
        )
        code, _, err = run_cli(capsys, "solve", "--input", str(path), "--algo", "oracle")
        assert code == 2
        assert "book b2 is offered by no shop" in err

    @pytest.mark.parametrize(
        "algo, message",
        [
            ("fstar", "offer for book b1 at shop s1 has price 12, expected 1"),
            ("greedy", "book b2 is offered at differing prices"),
        ],
        ids=["fstar", "greedy"],
    )
    def test_out_of_scope_named_as_in_file(self, capsys, five_books_path, algo, message):
        code, _, err = run_cli(
            capsys, "solve", "--input", str(five_books_path), "--algo", algo
        )
        assert code == 2
        assert message in err

    def test_degree_too_high_named_as_in_file(self, capsys, tmp_path):
        path = tmp_path / "wide.cshop"
        path.write_text(serialize_instance(make_instance(
            3, [(1, 1), (1, 1)], [(b, s, 2) for b in range(3) for s in (0, 1) if (b, s) != (0, 1)]
        )))
        code, _, err = run_cli(capsys, "solve", "--input", str(path), "--algo", "matching2")
        assert code == 2
        assert "shop s1 sells 3 books" in err


FIVE_BOOKS_TEXT = (Path(__file__).parent / "data" / "five_books.cshop").read_text()
FIVE_BOOKS_SOLUTION = "ASSIGN 1 1\nASSIGN 2 3\nASSIGN 3 4\nASSIGN 4 4\nASSIGN 5 5\nCOST 34\n"
ODD_TOKENS = ["0", "-1", "1", "2", "34", str(10**30), "x", "OFFER", "ASSIGN", "COST"]


@st.composite
def mutated(draw, text: str, tokens: list[str] = ODD_TOKENS) -> str:
    """The lines of ``text`` with lines or tokens dropped, doubled or replaced."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop line", "double line", "drop", "double", "replace"]))
        if op == "drop line":
            del lines[i]
        elif op == "double line":
            lines.insert(i, list(lines[i]))
        elif lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            if op == "drop":
                del lines[i][j]
            elif op == "double":
                lines[i].insert(j, lines[i][j])
            else:
                lines[i][j] = draw(st.sampled_from(tokens))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(
    instance=mutated(FIVE_BOOKS_TEXT),
    solution=mutated(FIVE_BOOKS_SOLUTION),
    budget=st.sampled_from(ODD_TOKENS[:6]),
)
def test_mutated_files_end_in_a_documented_exit_code(instance, solution, budget):
    check_and_solve_end_in_documented_exit_codes(
        instance.encode(), solution.encode(), budgets=[budget]
    )


def check_and_solve_end_in_documented_exit_codes(
    instance: bytes, solution: bytes, budgets: list[str]
) -> None:
    """``check`` the two files, and ``solve`` the instance with every
    algorithm, without a budget and with each of ``budgets``."""
    with tempfile.TemporaryDirectory() as tmp:
        inst_file, sol_file = Path(tmp) / "shop.cshop", Path(tmp) / "shop.sol"
        inst_file.write_bytes(instance)
        sol_file.write_bytes(solution)
        runs = [["check", "--input", str(inst_file), "--solution", str(sol_file)]]
        for algo in ALGORITHM_NAMES:
            solve = ["solve", "--input", str(inst_file), "--algo", algo]
            runs += [solve] + [solve + ["--budget", budget] for budget in budgets]
        end_in_documented_exit_codes(runs)


def end_in_documented_exit_codes(runs: list[list[str]]) -> None:
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv


class TestGenerate:
    def test_partition(self, capsys, tmp_path):
        out_file = tmp_path / "p.cshop"
        code, out, _ = run_cli(
            capsys, "generate", "partition", "--weights", "1,2,3",
            "--output", str(out_file),
        )
        assert code == 0
        assert f"wrote {out_file}" in out
        assert "budget 4" in out
        assert "expected yes" in out
        text = out_file.read_text()
        assert text.startswith("# family: partition\n")
        assert "# expected: yes" in text
        inst = parse_instance(text)
        assert inst.num_books == 3
        assert inst.budget == 4

    def test_binpacking(self, capsys, tmp_path):
        out_file = tmp_path / "b.cshop"
        code, out, _ = run_cli(
            capsys, "generate", "binpacking", "--weights", "2,2,2,2",
            "--bins", "2", "--capacity", "4", "--output", str(out_file),
        )
        assert code == 0
        assert "budget 6" in out
        assert "expected yes" in out
        assert parse_instance(out_file.read_text()).num_shops == 2

    def test_perfectcode(self, capsys, tmp_path):
        graph_file = tmp_path / "g.graph"
        graph_file.write_text("5\n1 2\n1 3\n2 3\n2 4\n3 4\n4 5\n")
        out_file = tmp_path / "pc.cshop"
        code, out, _ = run_cli(
            capsys, "generate", "perfectcode", "--graph", str(graph_file),
            "--k", "2", "--output", str(out_file),
        )
        assert code == 0
        assert "budget 3" in out
        assert "expected yes" in out
        inst = parse_instance(out_file.read_text())
        assert inst.num_books == 5
        assert all(o.price == 1 for o in inst.offers)

    def test_x3c(self, capsys, tmp_path):
        out_file = tmp_path / "x.cshop"
        code, out, _ = run_cli(
            capsys, "generate", "x3c", "--n", "6", "--m", "2",
            "--t-const", "3", "--seed", "0", "--output", str(out_file),
        )
        assert code == 0
        assert "expected yes" in out  # components from seeds 0 and 1 both cover
        text = out_file.read_text()
        assert "# items: 6" in text
        parse_instance(text)

    def test_max3sat(self, capsys, tmp_path):
        cnf_file = tmp_path / "f.cnf"
        cnf_file.write_text("p cnf 3 4\n1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n-1 -2 -3 0\n")
        out_file = tmp_path / "sat.cshop"
        code, out, _ = run_cli(
            capsys, "generate", "max3sat", "--cnf", str(cnf_file),
            "--output", str(out_file),
        )
        assert code == 0
        assert "expected discount 10" in out
        text = out_file.read_text()
        assert "# expected discount: 10" in text
        assert parse_instance(text).num_books == 15

    def test_random_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "random", "--n", "5", "--m", "3",
            "--seed", "7", "--seedless",
        )
        assert code == 0
        assert out == serialize_instance(random_instance(5, 3, seed=7))

    def test_random_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.cshop", tmp_path / "b.cshop"
        for path in (a, b):
            run_cli(
                capsys, "generate", "random", "--n", "6", "--m", "4",
                "--max-price", "8", "--seed", "5", "--output", str(path),
            )
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("# family: random\n# seed: 5\n")

    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "x.cshop"
        code, out, err = run_cli(
            capsys, "generate", "random", "--n", "3", "--m", "2", "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: cannot write {target}: "
            f"[Errno 2] No such file or directory: '{target}'\n"
        )

    def test_random_respects_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "random", "--n", "6", "--m", "3",
            "--degree-cap", "2", "--unit-prices", "--seed", "1", "--seedless",
        )
        assert code == 0
        inst = parse_instance(out)
        assert all(len(books) <= 2 for books in inst.books_by_shop)
        assert all(o.price == 1 for o in inst.offers)

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "partition"])
        assert exc.value.code == 2
        assert "--weights" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "partition --weights 1,1 --bins 3",
            "binpacking --weights 2,2 --bins 1 --capacity 4 --seed 1",
            "perfectcode --graph g.graph --k 1 --weights 1",
            "x3c --n 6 --m 1 --cnf f.cnf",
            "max3sat --cnf f.cnf --n 3",
            "random --n 3 --m 2 --k 1",
        ],
        ids=lambda argv: argv.split()[0],
    )
    def test_flag_of_another_family_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["generate", *argv.split()])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # Gadgets whose budget is negative are valid instances: the solvers'
    # answer (exit 0 for yes, 1 for no) must agree with the source
    # problem's, which the generator records.
    @pytest.mark.parametrize(
        "argv, answer",
        [
            ("partition --weights 0", "yes"),  # budget -2, both shops earn
            ("partition --weights 1", "no"),  # budget -1, one shop can earn
            ("binpacking --weights 0,0 --bins 2 --capacity 0", "yes"),  # budget -2
        ],
        ids=["partition-0", "partition-1", "binpacking-capacity-0"],
    )
    def test_edge_case_gadget_agrees_with_solvers(self, capsys, tmp_path, argv, answer):
        path = tmp_path / "g.cshop"
        code, out, _ = run_cli(capsys, "generate", *argv.split(), "--output", str(path))
        assert code == 0
        assert f"expected {answer}" in out
        for algo in ("oracle", "price-dp"):
            code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--algo", algo)
            assert code == (0 if answer == "yes" else 1)
            assert out.splitlines()[-1].startswith(f"{answer}:")

    @pytest.mark.parametrize(
        "argv",
        [
            "random --n 100000000 --m 2",
            "binpacking --weights 1000000000 --bins 1000000000 --capacity 1",
            "x3c --n 1000000000 --m 1",
            "x3c --n 6 --m 1000000000",
            "perfectcode --graph {tmp}/huge.graph --k 1",
        ],
        ids=["random", "binpacking", "x3c-items", "x3c-components", "perfectcode"],
    )
    def test_oversized_request_refused_before_building(self, capsys, tmp_path, argv):
        (tmp_path / "huge.graph").write_text("100000000000\n1 2\n")
        code, _, err = run_cli(capsys, "generate", *argv.format(tmp=tmp_path).split())
        assert code == 2
        assert "offers, more than the 1000000 a generator makes" in err

    def test_x3c_request_counts_identifier_offers(self, capsys, monkeypatch):
        # 20 components need 5 identifier bits: 2,220 offers, not 3 * 6 * 20.
        monkeypatch.setattr(reductions, "MAX_OFFERS", 1000)
        assert run_cli(capsys, "generate", "x3c", "--n", "6", "--m", "20") == (
            2, "", "error: 6 items in 20 components may need 2220 offers, "
            "more than the 1000 a generator makes\n",
        )

    def test_bad_weights(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "partition", "--weights", "1,two,3"
        )
        assert code == 2
        assert "error:" in err


GENERATE_FLAGS = {
    "partition": ["--weights"],
    "binpacking": ["--weights", "--bins", "--capacity"],
    "perfectcode": ["--graph", "--k"],
    "x3c": ["--n", "--m", "--t-const", "--seed"],
    "max3sat": ["--cnf"],
    "random": ["--n", "--m", "--max-price", "--degree-cap", "--unit-prices",
               "--fixed-prices", "--seed"],
}
ALL_GENERATE_FLAGS = sorted(
    {flag for flags in GENERATE_FLAGS.values() for flag in flags} | {"--output", "--seedless"}
)
SMALL_TOKENS = ["-1", "0", "1", "2", "3", "12", "x"]
HUGE_COUNTS = [10**9, 10**12]
SWITCHES = {"--seedless", "--unit-prices", "--fixed-prices"}
GRAPH_TEXT = "5\n1 2\n1 3\n2 3\n2 4\n3 4\n4 5\n"
HUGE_GRAPH_TEXT = "100000000000\n1 2\n2 3\n"
CNF_TEXT = "p cnf 3 4\n1 2 3 0\n1 2 3 0\n-1 -2 -3 0\n-1 -2 -3 0\n"


@st.composite
def generate_call(draw) -> tuple[list[str], str, str]:
    """A `generate` argv with the graph and DIMACS files it reads; file
    paths start with ``{tmp}``.

    Each of the family's own flags is present three times in four, so
    that most calls get past argparse, and half of the calls add one flag
    drawn from all families.  Counts are small or huge (10^9, 10^12),
    and the graph file may declare 10^11 vertices: a generator must refuse
    a huge request before it allocates it.
    """
    family = draw(st.sampled_from(sorted(GENERATE_FLAGS)))
    flags = {
        flag for flag in GENERATE_FLAGS[family] + ["--output", "--seedless"]
        if draw(st.integers(0, 3))
    }
    extra = draw(st.none() | st.sampled_from(ALL_GENERATE_FLAGS))
    argv = ["generate", family]
    for flag in sorted(flags | {extra} - {None}):
        argv.append(flag)
        if flag == "--weights":
            argv.append(draw(mutated("2 2 2 2 3 3 3 3 4", SMALL_TOKENS)).strip())
        elif flag == "--graph":
            argv.append("{tmp}/g.graph")
        elif flag == "--cnf":
            argv.append("{tmp}/f.cnf")
        elif flag == "--output":
            argv.append("{tmp}/out.cshop")
        elif flag not in SWITCHES:
            argv.append(str(draw(st.integers(-1, 12) | st.sampled_from(HUGE_COUNTS))))
    graph = draw(mutated(draw(st.sampled_from([GRAPH_TEXT, HUGE_GRAPH_TEXT])), SMALL_TOKENS))
    cnf = draw(mutated(CNF_TEXT, SMALL_TOKENS))
    return argv, graph, cnf


@settings(max_examples=200, deadline=None)
@given(call=generate_call())
def test_generate_ends_in_a_documented_exit_code(call):
    argv, graph, cnf = call
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "g.graph").write_text(graph)
        (Path(tmp) / "f.cnf").write_text(cnf)
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            assert exc.code == 2, argv
        else:
            assert code in (0, 1, 2, 3), argv


def byte_mutated(rng: random.Random, text: str) -> bytes:
    """``text`` as UTF-8 with one byte in ten set to 128..255, so that the
    result is almost never UTF-8."""
    return bytes(
        rng.randint(128, 255) if rng.randrange(10) == 0 else byte for byte in text.encode()
    )


@pytest.mark.parametrize("seed", range(40))
def test_byte_mutated_files_end_in_a_documented_exit_code(tmp_path, seed):
    rng = random.Random(seed)
    check_and_solve_end_in_documented_exit_codes(
        byte_mutated(rng, FIVE_BOOKS_TEXT), byte_mutated(rng, FIVE_BOOKS_SOLUTION), budgets=[]
    )
    (tmp_path / "g.graph").write_bytes(byte_mutated(rng, GRAPH_TEXT))
    (tmp_path / "f.cnf").write_bytes(byte_mutated(rng, CNF_TEXT))
    end_in_documented_exit_codes([
        ["generate", "perfectcode", "--graph", str(tmp_path / "g.graph"), "--k", "2"],
        ["generate", "max3sat", "--cnf", str(tmp_path / "f.cnf")],
    ])


def test_file_that_is_not_utf8_is_bad_input(capsys, tmp_path):
    path = tmp_path / "shop.cshop"
    path.write_bytes(FIVE_BOOKS_TEXT.encode().replace(b"OFFER 1 1 12", b"OFFER 1 1 \xff"))
    code, out, err = run_cli(capsys, "solve", "--input", str(path), "--algo", "oracle")
    assert (code, out, err) == (2, "", f"error: cannot read {path}: not UTF-8 text\n")


class TestCheck:
    def make_pair(self, capsys, tmp_path, five_books_path):
        sol = tmp_path / "good.sol"
        run_cli(
            capsys,
            "solve", "--input", str(five_books_path), "--algo", "oracle",
            "--output", str(sol),
        )
        return sol

    def test_passing_check(self, capsys, tmp_path, five_books_path):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        code, out, _ = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol),
        )
        assert code == 0
        assert "cost 34" in out
        assert "declared 34 (matches)" in out

    def test_declared_mismatch_fails(self, capsys, tmp_path, five_books_path):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        sol.write_text(sol.read_text().replace("COST 34", "COST 30"))
        code, out, _ = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol),
        )
        assert code == 1
        assert "declared 30 (MISMATCH)" in out

    def test_budget_verdicts(self, capsys, tmp_path, five_books_path):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        code, out, _ = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol), "--budget", "33",
        )
        assert code == 1
        assert "budget 33 (over)" in out

        code, out, _ = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol), "--budget", "40",
        )
        assert code == 0
        assert "budget 40 (within)" in out

    def test_file_budget_applies_without_flag(self, capsys, tmp_path, five_books_path):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        for budget, code, verdict in [("33", 1, "over"), ("34", 0, "within")]:
            inst = tmp_path / f"budget{budget}.cshop"
            inst.write_text(five_books_path.read_text() + f"BUDGET {budget}\n")
            assert run_cli(
                capsys, "check", "--input", str(inst), "--solution", str(sol)
            ) == (code, f"cost 34\ndeclared 34 (matches)\nbudget {budget} ({verdict})\n", "")

    def test_budget_flag_overrides_file(self, capsys, tmp_path, five_books_path):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        inst = tmp_path / "budget33.cshop"
        inst.write_text(five_books_path.read_text() + "BUDGET 33\n")
        assert run_cli(
            capsys, "check", "--input", str(inst), "--solution", str(sol), "--budget", "40"
        ) == (0, "cost 34\ndeclared 34 (matches)\nbudget 40 (within)\n", "")

    def test_unassigned_book_blamed_on_solution(self, capsys, tmp_path, five_books_path):
        sol = tmp_path / "short.sol"
        sol.write_text("ASSIGN 1 1\nCOST 12\n")
        code, _, err = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol),
        )
        assert code == 2
        assert "the solution assigns book b2 to no shop" in err

    @pytest.mark.parametrize(
        "line, book",
        [("ASSIGN 1 1\n", "b1"), ("ASSIGN 2 3\n", "b2")],
        ids=["first", "middle"],
    )
    def test_missing_book_named_exactly(self, capsys, tmp_path, five_books_path, line, book):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        text = sol.read_text()
        assert line in text
        sol.write_text(text.replace(line, ""))
        code, out, err = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: the solution assigns book {book} to no shop\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("COST 34", "ASSIGN 6 1\nCOST 34", "book b6 out of range (have 5)"),
            ("ASSIGN 5 5", "ASSIGN 5 9", "shop s9 out of range (have 5)"),
        ],
        ids=["book", "shop"],
    )
    def test_dangling_index_named_as_in_file(
        self, capsys, tmp_path, five_books_path, old, new, message
    ):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        sol.write_text(sol.read_text().replace(old, new))
        code, _, err = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol),
        )
        assert code == 2
        assert message in err

    def test_missing_offer_named_as_in_file(self, capsys, tmp_path, five_books_path):
        sol = self.make_pair(capsys, tmp_path, five_books_path)
        sol.write_text(sol.read_text().replace("ASSIGN 3 4", "ASSIGN 3 1"))
        code, _, err = run_cli(
            capsys, "check", "--input", str(five_books_path),
            "--solution", str(sol),
        )
        assert code == 2
        assert "no offer for book b3 at shop s1" in err


class TestBench:
    def test_runs_and_reports(self, capsys, tmp_path, five_books_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        (bench_dir / "a.cshop").write_text(five_books_path.read_text())
        (bench_dir / "b.cshop").write_text(
            serialize_instance(random_instance(4, 3, seed=2))
        )
        report_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "bench", "--dir", str(bench_dir),
            "--algos", "oracle,subset-dp", "--timeout", "30",
            "--report", str(report_file),
        )
        assert code == 0
        assert "a.cshop  oracle  ok" in out
        assert "cost=34" in out
        assert "gap=0" in out
        report = json.loads(report_file.read_text())
        assert report["algorithms"] == ["oracle", "subset-dp"]
        assert len(report["results"]) == 4
        assert all(r["status"] == "ok" for r in report["results"])

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker reaches the child only through fork",
    )
    def test_worker_that_dies_is_an_error(self, capsys, monkeypatch, tmp_path, five_books_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        (bench_dir / "a.cshop").write_text(five_books_path.read_text())
        monkeypatch.setattr(bench, "_worker", lambda path, algo, conn: os._exit(7))
        report_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "bench", "--dir", str(bench_dir), "--algos", "oracle",
            "--report", str(report_file),
        )
        assert code == 0
        assert "a.cshop  oracle  error" in out
        [record] = json.loads(report_file.read_text())["results"]
        assert record == {
            "instance": "a.cshop",
            "algo": "oracle",
            "status": "error",
            "detail": "worker exited with code 7 and sent no record",
        }

    def test_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        (bench_dir / "a.cshop").write_bytes(b"CLEVERSHOP 1\nBOOKS \xff\n")
        report_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "bench", "--dir", str(bench_dir), "--algos", "oracle",
            "--report", str(report_file),
        )
        assert code == 0
        assert "a.cshop  oracle  input-error" in out
        [record] = json.loads(report_file.read_text())["results"]
        assert record["detail"] == f"cannot read {bench_dir / 'a.cshop'}: not UTF-8 text"

    def test_unwritable_report_is_an_input_error(self, capsys, tmp_path, five_books_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        (bench_dir / "a.cshop").write_text(five_books_path.read_text())
        target = tmp_path / "nodir" / "r.json"
        code, out, err = run_cli(
            capsys, "bench", "--dir", str(bench_dir), "--algos", "oracle",
            "--report", str(target),
        )
        assert code == 2
        assert "a.cshop  oracle  ok" in out
        assert err == (
            f"error: cannot write {target}: "
            f"[Errno 2] No such file or directory: '{target}'\n"
        )

    def test_empty_directory(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        code, _, err = run_cli(capsys, "bench", "--dir", str(empty))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_directory_that_is_not_one(self, capsys, tmp_path, five_books_path, kind):
        target = tmp_path / "a.cshop"
        if kind == "file":
            target.write_text(five_books_path.read_text())
        code, out, err = run_cli(capsys, "bench", "--dir", str(target), "--algos", "oracle")
        assert (code, out, err) == (2, "", f"error: cannot read {target}: not a directory\n")

    @pytest.mark.parametrize("timeout", ["nan", "inf", "1e400", "0", "-1"])
    def test_timeout_must_be_positive_and_finite(self, capsys, tmp_path, five_books_path, timeout):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        (bench_dir / "a.cshop").write_text(five_books_path.read_text())
        code, out, err = run_cli(
            capsys, "bench", "--dir", str(bench_dir), "--algos", "oracle",
            "--timeout", timeout,
        )
        assert code == 2
        assert "timeout must be a positive number of seconds" in err
        assert out == ""

    def test_empty_algorithm_list(self, capsys, tmp_path, five_books_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        (bench_dir / "a.cshop").write_text(five_books_path.read_text())
        assert run_cli(capsys, "bench", "--dir", str(bench_dir), "--algos", " , ") == (
            2, "", "error: algorithm list must be non-empty\n"
        )

    def test_unknown_algorithm(self, capsys, tmp_path, five_books_path):
        bench_dir = tmp_path / "suite"
        bench_dir.mkdir()
        (bench_dir / "a.cshop").write_text(five_books_path.read_text())
        code, _, err = run_cli(
            capsys, "bench", "--dir", str(bench_dir), "--algos", "simplex"
        )
        assert code == 2
        assert "simplex" in err


class TestCollectorPause:
    """``main`` turns the cyclic collector off while a command runs and
    restores the state it found, whatever the exit."""

    def test_off_while_the_command_runs(self, capsys, monkeypatch, gc_enabled, five_books_path):
        seen = []

        def spy(text):
            seen.append(gc.isenabled())
            return parse_instance(text)

        monkeypatch.setattr(cli, "parse_instance", spy)
        assert run_cli(capsys, "solve", "--input", str(five_books_path), "--algo", "oracle")[0] == 0
        assert seen == [False]
        assert gc.isenabled() is gc_enabled

    @pytest.mark.parametrize(
        "flags, max_states, code",
        [
            (["--algo", "oracle"], None, 0),
            (["--algo", "oracle", "--budget", "33"], None, 1),
            (["--algo", "fstar"], None, 2),  # prices that are not all 1
            (["--algo", "subset-dp"], 1, 3),
        ],
        ids=["solved", "budget-no", "input-error", "cap"],
    )
    def test_restored_after_each_exit_code(
        self, capsys, monkeypatch, gc_enabled, five_books_path, flags, max_states, code
    ):
        if max_states is not None:
            monkeypatch.setattr(exact, "MAX_STATES", max_states)
        assert run_cli(capsys, "solve", "--input", str(five_books_path), *flags)[0] == code
        assert gc.isenabled() is gc_enabled

    def test_restored_when_the_command_raises(self, monkeypatch, gc_enabled, five_books_path):
        def fail(text):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "parse_instance", fail)
        with pytest.raises(RuntimeError, match="^boom$"):
            main(["solve", "--input", str(five_books_path), "--algo", "oracle"])
        assert gc.isenabled() is gc_enabled


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "clevershopper", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout
    assert "generate" in proc.stdout


def test_reader_that_closes_stdout_early(capsys, tmp_path):
    # About 140 KB of shop lines: more than the pipe and both buffers
    # hold, so printing fails once the reader has gone, as under
    # ``solve ... | head -1``.
    inst, sol = tmp_path / "g.cshop", tmp_path / "g.sol"
    inst.write_text(serialize_instance(random_instance(20_000, 4, fixed_prices=True, seed=5)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "clevershopper", "solve", "--input", str(inst),
         "--algo", "greedy", "--output", str(sol)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline().startswith("cost ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.startswith("error: cannot write stdout: [Errno 32] Broken pipe")
    assert "Traceback" not in err
    assert run_cli(capsys, "check", "--input", str(inst), "--solution", str(sol))[0] == 0


def test_reader_gone_before_buffered_output_is_flushed(five_books_path):
    # A few lines stay in stdout's buffer until the flush at the end of
    # ``main``, which must meet the closed pipe there and not at exit.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "clevershopper", "solve", "--input", str(five_books_path),
         "--algo", "oracle"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n")
