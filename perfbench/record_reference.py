"""Record reference costs for instances that have no second solver.

    python3 perfbench/record_reference.py --seeds 0-63

Builds the ``subset-dense`` and ``poly-large`` workloads for each seed,
solves every instance in-process with the algorithm the workload uses,
and merges ``{sha256 of the instance file: cost}`` into
``perfbench/reference.json``.  Run it on a commit whose answers are
trusted; ``run.py`` then fails any solve of the same file that reports
another cost.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import build  # noqa: E402

from clevershopper.bench import run_algorithm  # noqa: E402
from clevershopper.fileio import parse_instance, serialize_instance  # noqa: E402

RECORDED = ("subset-dense", "poly-large")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for seed in range(first, last + 1):
        for name in RECORDED:
            for case in build(name, seed):
                text = serialize_instance(case.instance)
                digest = hashlib.sha256(text.encode()).hexdigest()
                cost = run_algorithm(case.algo, parse_instance(text)).total_cost
                if reference.setdefault(digest, cost) != cost:
                    raise SystemExit(f"{name} seed {seed} {case.name}: cost {cost}, "
                                     f"recorded {reference[digest]}")
        print(f"seed {seed}: {len(reference)} references", flush=True)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
