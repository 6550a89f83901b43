"""Self-tests of the benchmark, each workload at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from check import judge  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

from clevershopper.bench import run_algorithm  # noqa: E402
from clevershopper.fileio import serialize_solution  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Per-layer figures each workload must exercise (non-zero when traced),
# and figures that belong to the other workloads only.
EXERCISED = {
    "subset-dense": {"exact.subset_dp_min_cost.self_s", "exact.subset_dp.transitions.computed",
                     "exact.subset_dp.ns_per_transition", "share.subset_dp_self"},
    "few-shops": {"exact.price_vector_dp.s.yes", "exact.price_vector_dp.s.no",
                  "exact.price_vector_min_cost.s"},
    "poly-large": {"exact.build_discount_graph.s", "exact.build_discount_graph.edges",
                   "matching.max_weight_matching.s", "matching.max_weight_matching.vertices",
                   "matching.max_weight_matching.edges", "exact.fstar_unit_price_min_cost.self_s",
                   "exact.max_fstar_subgraph.calls", "exact.max_fstar_subgraph.s",
                   "exact.max_fstar_subgraph.feasible_ratio",
                   "approx.greedy_max_discount.self_s"},
}
EVERYWHERE = {"cli.self_s", "fileio.parse_instance.s", "fileio.parse_instance.mb_per_s",
              "fileio.serialize_solution.s", "model.make_instance.s", "model.precompute.s",
              "model.evaluate_assignment.s", "model.evaluate_assignment.calls",
              "share.fileio_model", "trace.suite_s", "trace.overhead_ratio",
              "reductions.generate_s"}


def _last_json(lines: list[str]) -> dict:
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_by_name_with_unit(workload):
    result = run.measure(workload, 0, 0.1, False, tiny=True)
    lines = run.report(result, False)
    out = _last_json(lines)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = out["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines[:-1])
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.split()[0] == "failed_frac" for line in lines[1:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_its_layers(workload):
    result = run.measure(workload, 0, 0.1, True, tiny=True)
    out = _last_json(run.report(result, True))
    assert out["correct"] is True
    metrics = out["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    for name in EXERCISED[workload] | EVERYWHERE:
        assert metrics[name]["value"] > 0, name
    for other, names in EXERCISED.items():
        if other != workload:
            for name in names:
                assert metrics[name]["value"] == 0, name


def test_same_seed_same_inputs():
    first = build("few-shops", 3, tiny=True)
    again = build("few-shops", 3, tiny=True)
    other = build("few-shops", 4, tiny=True)
    assert first == again
    assert first != other


def _solved_case():
    case = build("subset-dense", 0, tiny=True)[0]
    return case, serialize_solution(run_algorithm(case.algo, case.instance))


def test_correct_solution_passes():
    case, text = _solved_case()
    cost, failure = judge(case, 0, text)
    assert failure is None and cost is not None


def test_wrong_declared_cost_fails():
    case, text = _solved_case()
    lines = text.splitlines()
    declared = int(lines[-1].split()[1])
    lines[-1] = f"COST {declared - 1}"
    assert judge(case, 0, "\n".join(lines))[1] is not None


def test_shop_that_does_not_sell_the_book_fails():
    case, text = _solved_case()
    inst = case.instance
    book = 0
    sellers = {shop for shop, _ in inst.offers_by_book[book]}
    stranger = next(s for s in range(inst.num_shops) if s not in sellers)
    lines = [f"ASSIGN {book + 1} {stranger + 1}" if line.startswith(f"ASSIGN {book + 1} ")
             else line for line in text.splitlines()]
    assert judge(case, 0, "\n".join(lines))[1] is not None


def test_unexpected_exit_code_fails():
    case, text = _solved_case()
    assert judge(case, 1, text)[1] is not None


def test_wrong_answer_in_the_harness_counts_as_failed():
    # Solve another instance into this case's solution file: the answer
    # re-prices wrongly or uses offers the instance does not have.
    cases = build("poly-large", 0, tiny=True)
    first, second = cases[0], cases[1]
    workdir = run.workdir_for("poly-large", 0)
    argv = ["solve", "--input", f"{workdir}/{second.name}.cshop", "--algo", second.algo,
            "--output", f"{workdir}/{first.name}.sol"]
    result = run.measure("poly-large", 0, 0.1, False, tiny=True,
                         argv_override={first.name: argv})
    assert result["failed"] >= 1
    assert all(failure.startswith(f"{first.name}: ") for failure in result["failures"])
    assert result["correct"] is False


def test_crash_and_hang_are_isolated():
    cases = build("few-shops", 0, tiny=True)
    fifo_dir = run.WORK / f"fifo-{os.getpid()}"
    fifo_dir.mkdir(parents=True, exist_ok=True)
    try:
        fifo = fifo_dir / "never-written.cshop"
        os.mkfifo(fifo)
        workdir = run.workdir_for("few-shops", 0)
        crash = ["solve", "--input", f"{workdir}/{cases[0].name}.cshop", "--algo",
                 "price-dp", "--output", str(fifo_dir / "missing" / "out.sol")]
        hang = ["solve", "--input", str(fifo), "--algo", "price-dp"]
        result = run.measure("few-shops", 0, 0.1, False, tiny=True, solve_timeout=2.0,
                             argv_override={cases[1].name: crash, cases[2].name: hang})
    finally:
        shutil.rmtree(fifo_dir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:  # another run's files are still there
            pass
    assert result["attempted"] == len(cases)
    assert result["failed"] == 2
    reasons = " ".join(result["failures"])
    assert "raised FileNotFoundError" in reasons and "timed out" in reasons
    assert result["correct"] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "few-shops", "--seed", "0", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
