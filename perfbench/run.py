"""Benchmark of ``clevershopper solve`` over three solver-regime workloads.

    python3 perfbench/run.py --workload few-shops --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the repository root.  The run first chooses the workload's
instances from the seed, untimed.  Set-up then regenerates them with the
``reductions`` generators, writes the files, starts one worker process
and imports the package; it is repeated ``SETUP_REPS`` times and its
median, scaled like the solves, is ``setup_s``.  The worker then solves
the instances in a closed loop with one client (the next solve starts
when the previous one returns), one full pass after another, until
``--seconds`` have passed.  Every solve goes through
``clevershopper.cli.main(["solve", ...])`` and is checked outside the
timed interval.  Times are scaled to a fixed machine speed: see
``worker.reference_loop_s``.  Each instance's time is the median of its
scaled solves; ``suite_s`` is their sum and ``solve_s.p50`` their
median.  With ``--trace 1`` untraced and traced passes alternate, and
the per-layer figures come from the fastest traced pass.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people, with the seed and a hash of the inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from worker import reference_loop_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 7
# Reference-loop samples taken after each set-up.  One sample is too
# noisy to scale a set-up that spans several of the host's speed phases.
SETUP_REFERENCE_SAMPLES = 3
SOLVE_TIMEOUT = 60.0
# Past this many seconds beyond --seconds the run stops mid-pass, so that
# hanging solves cannot push it over its time limit.
OVERRUN_LIMIT = 90.0
START_TIMEOUT = 60.0
# What ``worker.reference_loop_s`` takes at the reference speed, about
# its median time on a 2-vCPU Xeon (family 6 model 143) guest.
REFERENCE_S = 0.010


class Worker:
    """One worker process (``worker.py``) and the connection to it."""

    def __init__(self, trace: bool) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(child.fileno()), str(SRC),
             str(int(trace))],
            pass_fds=(child.fileno(),), stdin=subprocess.DEVNULL,
        )
        child.close()
        if not self.conn.poll(START_TIMEOUT) or self.conn.recv() != "ready":
            self.kill()
            raise RuntimeError("worker did not start")

    def solve(self, solve_id: int, argv: list[str], traced: bool, timeout: float):
        """``("done", s, code, ref_s)``, ``("raised", s, msg, ref_s)``, or
        ``("lost", msg)``."""
        try:
            self.conn.send(("solve", solve_id, argv, traced))
            if self.conn.poll(timeout):
                return self.conn.recv()
        except (EOFError, OSError) as exc:
            return ("lost", f"worker died: {exc!r}")
        return ("lost", f"timed out after {timeout:.0f} s")

    def finish(self) -> tuple[list, float]:
        """Stop the worker; returns its spans and peak RSS in MB."""
        self.conn.send(("finish",))
        if not self.conn.poll(START_TIMEOUT):
            self.kill()
            raise RuntimeError("worker did not report its spans")
        spans, peak_mb = self.conn.recv()
        self.process.wait(START_TIMEOUT)
        self.kill()
        return spans, peak_mb

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.conn.close()


def _median(values):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _setup(recipes: list, trace: bool, workdir: Path):
    """Generate and write the instance files, then start the worker."""
    from workloads import GenClock, generate

    from clevershopper.fileio import serialize_instance

    clock = GenClock()
    cases = generate(recipes, clock)
    workdir.mkdir(parents=True, exist_ok=True)
    texts = []
    for case in cases:
        texts.append(serialize_instance(case.instance))
        (workdir / f"{case.name}.cshop").write_text(texts[-1])
    return cases, texts, clock.seconds, Worker(trace)


def workdir_for(name: str, seed: int) -> Path:
    """Where a run of this process writes its instance and solution files."""
    return WORK / f"{name}-{seed}-{os.getpid()}"


def _argv(case, workdir: Path) -> list[str]:
    argv = ["solve", "--input", str(workdir / f"{case.name}.cshop"), "--algo", case.algo,
            "--output", str(workdir / f"{case.name}.sol")]
    if case.budget is not None:
        argv += ["--budget", str(case.budget)]
    return argv


def _reference(case, digest: str, recorded: dict) -> int | None:
    """The cost a correct solve must reach, by order of preference."""
    if case.expected_cost is not None:
        return case.expected_cost
    if case.algo == "price-dp":
        from clevershopper.exact import subset_dp_min_cost

        return subset_dp_min_cost(case.instance).total_cost
    return recorded.get(digest)


def measure(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            solve_timeout: float = SOLVE_TIMEOUT, argv_override=None) -> dict:
    """Run one workload; returns the record that ``report`` prints.

    ``argv_override``, for self-tests, maps a case name to the argv used
    in place of its own.
    """
    from check import judge
    from spans import pass_metrics
    from workloads import choose, subset_dp_transitions

    workdir = workdir_for(name, seed)
    worker = None
    try:
        recipes = choose(name, seed, tiny=tiny)
        setup_s, reference_s, gen_s, inputs = [], [], [], set()
        for _ in range(SETUP_REPS):
            if worker is not None:
                worker.kill()
            start = time.perf_counter()
            cases, texts, generated, worker = _setup(recipes, trace, workdir)
            setup_s.append(time.perf_counter() - start)
            reference_s += [reference_loop_s() for _ in range(SETUP_REFERENCE_SAMPLES)]
            gen_s.append(generated)
            digests = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
            inputs.add(tuple(digests))
        if len(inputs) != 1:
            raise RuntimeError("the same seed generated different inputs")

        failures: dict[int, str] = {}  # solve id -> reason
        solved: list[tuple[int, int, int]] = []  # (solve id, case index, cost)
        kind_of: dict[int, str] = {}
        passes: list[dict] = []
        attempted = 0
        start = time.perf_counter()
        hard_stop = start + seconds + OVERRUN_LIMIT
        clean, stopped = True, False
        while clean and (len(passes) < (2 if trace else 1)
                         or time.perf_counter() - start < seconds):
            traced = trace and len(passes) % 2 == 1
            times, wall, ids = {}, {}, []
            for index, case in enumerate(cases):
                remaining = hard_stop - time.perf_counter()
                if remaining <= 0:
                    clean, stopped = False, True
                    break
                solve_id = attempted
                attempted += 1
                kind_of[solve_id] = case.kind
                solution = workdir / f"{case.name}.sol"
                solution.unlink(missing_ok=True)
                argv = (argv_override or {}).get(case.name) or _argv(case, workdir)
                reply = worker.solve(solve_id, argv, traced, min(solve_timeout, remaining))
                if reply[0] == "lost":
                    failures[solve_id] = f"{case.name}: {reply[1]}"
                    worker.kill()
                    worker = Worker(trace)
                    clean = False
                    continue
                ids.append(solve_id)
                if reply[0] == "raised":
                    failures[solve_id] = f"{case.name}: raised {reply[2]}"
                    clean = False
                    continue
                wall[index] = reply[1]
                times[index] = reply[1] * REFERENCE_S / reply[3]
                text = solution.read_text() if solution.exists() else None
                cost, failure = judge(case, reply[2], text)
                if failure is not None:
                    failures[solve_id] = f"{case.name}: {failure}"
                elif cost is not None:
                    solved.append((solve_id, index, cost))
            passes.append({"traced": traced, "times": times, "wall": wall, "ids": ids})
        spans, peak = worker.finish()
        worker = None

        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        references = {}
        for index, case in enumerate(cases):
            if case.kind != "no":
                references[index] = _reference(case, digests[index], recorded)
        for solve_id, index, cost in solved:
            expected = references[index]
            if expected is not None and cost != expected:
                failures[solve_id] = f"{cases[index].name}: cost {cost}, reference {expected}"

        plain = [p for p in passes if not p["traced"]]
        per_instance = _median_times(plain)
        result = {
            "workload": name,
            "seed": seed,
            "inputs_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "files": len(cases),
            "referenced": len(cases) - list(references.values()).count(None),
            "passes": len(plain),
            "median_pass_wall_s": _median([sum(p["wall"].values()) for p in plain]),
            "attempted": attempted,
            "failed": len(failures),
            "failures": sorted(failures.values())
            + (["run stopped at its time limit"] if stopped else []),
            "correct": not failures and not stopped,
            "metrics": {
                "suite_s": (sum(per_instance.values()), "s"),
                "solve_s.p50": (_median(per_instance.values()), "s"),
                "peak_rss_mb": (peak, "MB"),
                "setup_s": (_median(setup_s) * REFERENCE_S / _median(reference_s), "s"),
            },
        }
        if trace:
            transitions = sum(subset_dp_transitions(c.instance)
                              for c in cases if c.algo == "subset-dp")
            traced = [p for p in passes if p["traced"] and p["times"]]
            # Per-layer figures come from the fastest traced pass, so that
            # they add up within one pass.
            layers = pass_metrics([], {}, 0)
            if traced:
                fastest = min(traced, key=lambda p: sum(p["wall"].values()))
                layers = pass_metrics(_pass_spans(spans, set(fastest["ids"])), kind_of,
                                      transitions)
            layers["trace.suite_s"] = sum(_median_times(traced).values())
            layers["trace.overhead_ratio"] = (layers["trace.suite_s"]
                                              / result["metrics"]["suite_s"][0])
            layers["reductions.generate_s"] = _median(gen_s)
            result["layers"] = layers
        return result
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's files are still there
            pass


def _median_times(passes: list[dict]) -> dict[int, float]:
    """Each instance's median scaled solve time over ``passes``."""
    times: dict[int, list[float]] = {}
    for p in passes:
        for index, seconds in p["times"].items():
            times.setdefault(index, []).append(seconds)
    return {index: _median(values) for index, values in times.items()}


def _pass_spans(spans: list[tuple], ids: set[int]) -> list[tuple]:
    """The spans of the solves in ``ids``, with parent links renumbered.

    One pass's solves ran back to back, so their spans are one slice.
    """
    indices = [i for i, span in enumerate(spans) if span[4] in ids]
    if not indices:
        return []
    first = indices[0]
    return [
        (name, begin, end, parent - first if parent >= 0 else -1, solve_id, info)
        for name, begin, end, parent, solve_id, info in spans[first:indices[-1] + 1]
    ]


def report(result: dict, trace: bool) -> list[str]:
    """Lines for people, then the JSON result line."""
    from spans import LAYER_UNITS

    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"inputs sha256 {result['inputs_sha256']}  ({result['files']} files, "
        f"{result['referenced']} with a reference answer)",
    ]
    metrics = result["metrics"]
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "suite_s":
            note = (f"  (at reference speed; median of {result['passes']} passes; "
                    f"median pass wall time {result['median_pass_wall_s']:.4g} s)")
        elif key == "solve_s.p50":
            note = f"  (n={result['files']} instances)"
        lines.append(f"  {key} {value:.6g} {unit}{note}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"  failed_frac {frac:.6g} ratio  ({result['failed']}/{result['attempted']})")
    lines += [f"  FAILED {failure}" for failure in result["failures"][:20]]
    if trace:
        layers = result["layers"]
        lines += [f"  {key} {value:.6g} {LAYER_UNITS[key]}" for key, value in layers.items()]
        shown = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        shown = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": shown,
    }))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("subset-dense", "few-shops", "poly-large", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clevershopper" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'clevershopper'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        for line in report(result, bool(args.trace)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
