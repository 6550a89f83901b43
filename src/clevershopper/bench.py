"""Timed solver runs over instance files, in subprocesses with a timeout.

Each (instance, algorithm) pair runs in its own process so that a solver
stuck on a hostile instance can be killed without taking the harness
down.  Results are plain dicts ready for JSON.
"""

from __future__ import annotations

import gc
import math
import time
from multiprocessing import Pipe, Process
from pathlib import Path

from .approx import greedy_max_discount
from .errors import InputError, ResourceLimitError
from .exact import (
    fstar_unit_price_min_cost,
    matching2_min_cost,
    price_vector_min_cost,
    subset_dp_min_cost,
)
from .fileio import parse_instance, read_file
from .model import Instance, SolveResult
from .oracle import brute_force_min_cost

_DISPATCH = {
    "oracle": brute_force_min_cost,
    "subset-dp": subset_dp_min_cost,
    "price-dp": price_vector_min_cost,
    "matching2": matching2_min_cost,
    "fstar": fstar_unit_price_min_cost,
    "greedy": greedy_max_discount,
}

ALGORITHM_NAMES = tuple(_DISPATCH)


def run_algorithm(name: str, instance: Instance) -> SolveResult:
    """Run one solver by name; all return minimum-cost style results."""
    try:
        solver = _DISPATCH[name]
    except KeyError:
        raise InputError(f"unknown algorithm {name!r}") from None
    return solver(instance)


def _worker(path: str, algo: str, conn) -> None:
    # This process lives for one solve: the collector stays off, as
    # ``cli.main`` has it, whichever way multiprocessing started it.
    gc.disable()
    try:
        instance = parse_instance(read_file(path))
        start = time.perf_counter()
        result = run_algorithm(algo, instance)
        elapsed = time.perf_counter() - start
        conn.send(
            {
                "status": "ok",
                "seconds": round(elapsed, 6),
                "cost": result.total_cost,
                "discount": result.total_discount,
            }
        )
    except ResourceLimitError as exc:
        conn.send({"status": "cap", "detail": str(exc)})
    except InputError as exc:
        conn.send({"status": "input-error", "detail": str(exc)})
    except Exception as exc:  # pragma: no cover - defensive
        conn.send({"status": "error", "detail": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def run_bench(
    paths: list[Path], algos: list[str], timeout: float
) -> dict:
    """Run every algorithm on every instance file, each under ``timeout``.

    Statuses: ok, timeout, cap (a solver cap refused it), input-error, error.
    When the oracle finishes on an instance, every other ok record for it
    gets a ``gap`` field (its cost minus the oracle cost).
    """
    if not 0 < timeout < math.inf:
        raise InputError(f"timeout must be a positive number of seconds, got {timeout}")
    for algo in algos:
        if algo not in _DISPATCH:
            raise InputError(f"unknown algorithm {algo!r}")
    records: list[dict] = []
    for path in paths:
        for algo in algos:
            parent, child = Pipe(duplex=False)
            proc = Process(target=_worker, args=(str(path), algo, child))
            proc.start()
            child.close()
            record: dict = {"instance": path.name, "algo": algo}
            if parent.poll(timeout):
                record.update(parent.recv())
                proc.join()
            else:
                proc.terminate()
                proc.join()
                record["status"] = "timeout"
            parent.close()
            records.append(record)

    by_instance: dict[str, dict[str, dict]] = {}
    for record in records:
        by_instance.setdefault(record["instance"], {})[record["algo"]] = record
    for group in by_instance.values():
        reference = group.get("oracle")
        if reference is None or reference["status"] != "ok":
            continue
        for record in group.values():
            if record["status"] == "ok":
                record["gap"] = record["cost"] - reference["cost"]
    return {"timeout_seconds": timeout, "algorithms": list(algos), "results": records}
