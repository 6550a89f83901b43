"""Command line interface.

Exit codes: 0 solved / feasible / check passed, 1 infeasible budget or
failed check, 2 bad input or an unwritable output, 3 solver cap.

``solve`` and ``check`` give a budget verdict against ``--budget`` if it
is given, else the instance file's BUDGET line; the library functions
they call take the budget they are given, or none.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

from .bench import ALGORITHM_NAMES, run_algorithm, run_bench
from .errors import EmptyInput, InputError, ResourceLimitError
# Bound under this name because the benchmark times budget decisions by it.
from .exact import price_vector_min_cost as price_vector_dp
from .fileio import (
    check_solution,
    parse_dimacs,
    parse_graph,
    parse_instance,
    parse_weights,
    read_file,
    serialize_instance,
    serialize_solution,
)
from .model import Instance, SolveResult, discount_earned
from .reductions import (
    GeneratedInstance,
    check_x3c_offer_count,
    from_bin_packing,
    from_max3sat,
    from_partition,
    from_perfect_code,
    random_instance,
    random_x3c,
    x3c_or_composition,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared.

    ``main`` can run many times in one process (tests, benchmark workers),
    and building this parser costs about as much as a small solve.
    Callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="clevershopper",
        description="Solvers for shopping with per-shop threshold discounts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--input", required=True, help="instance file")
    solve.add_argument("--algo", required=True, choices=ALGORITHM_NAMES)
    solve.add_argument("--budget", type=int, help="override the instance budget")
    solve.add_argument("--output", help="write the solution file here")
    solve.add_argument(
        "--seedless", action="store_true",
        help="omit provenance comments from the output file",
    )
    solve.set_defaults(func=_cmd_solve)

    generate = sub.add_parser("generate", help="generate an instance file")
    families = generate.add_subparsers(dest="family", required=True)

    def family(name: str, build, about: str) -> argparse.ArgumentParser:
        parser = families.add_parser(name, help=about)
        parser.add_argument("--output", help="write the instance here (default stdout)")
        parser.add_argument(
            "--seedless", action="store_true",
            help="omit provenance comments from the output file",
        )
        parser.set_defaults(func=_cmd_generate, build=build)
        return parser

    partition = family("partition", _partition, "two shops from a Partition instance")
    partition.add_argument("--weights", required=True, help="comma-separated item weights")

    binpacking = family("binpacking", _binpacking, "one shop per bin from Bin Packing")
    binpacking.add_argument("--weights", required=True, help="comma-separated item weights")
    binpacking.add_argument("--bins", type=int, required=True, help="bin count")
    binpacking.add_argument("--capacity", type=int, required=True, help="bin capacity")

    perfectcode = family("perfectcode", _perfectcode, "one shop per vertex from a graph")
    perfectcode.add_argument("--graph", required=True, help="graph file")
    perfectcode.add_argument("--k", type=int, required=True, help="code size")

    x3c = family("x3c", _x3c, "or-composition of random exact-cover components")
    x3c.add_argument("--n", type=int, required=True, help="item count per component")
    x3c.add_argument("--m", type=int, required=True, help="component count")
    x3c.add_argument("--t-const", type=int, default=42, help="price scale")
    x3c.add_argument("--seed", type=int, default=0, help="seed of the first component")

    max3sat = family("max3sat", _max3sat, "clause gadget from a DIMACS file")
    max3sat.add_argument("--cnf", required=True, help="DIMACS file")

    rand = family("random", _random, "seeded random instance")
    rand.add_argument("--n", type=int, required=True, help="book count")
    rand.add_argument("--m", type=int, required=True, help="shop count")
    rand.add_argument("--max-price", type=int, default=10, help="price ceiling")
    rand.add_argument("--degree-cap", type=int, help="max books per shop")
    rand.add_argument("--unit-prices", action="store_true", help="all prices 1")
    rand.add_argument("--fixed-prices", action="store_true",
                      help="same price everywhere per book")
    rand.add_argument("--seed", type=int, default=0)

    check = sub.add_parser("check", help="verify a solution file")
    check.add_argument("--input", required=True, help="instance file")
    check.add_argument("--solution", required=True, help="solution file")
    check.add_argument("--budget", type=int, help="override the instance budget")
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser("bench", help="time solvers over a directory of instances")
    bench.add_argument("--dir", required=True, help="directory of .cshop files")
    bench.add_argument("--algos", default=",".join(ALGORITHM_NAMES),
                       help="comma-separated algorithm names")
    bench.add_argument("--timeout", type=float, default=10.0,
                       help="per-run timeout in seconds")
    bench.add_argument("--report", help="write a JSON report here")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _print_result(instance: Instance, result: SolveResult) -> None:
    lines = [f"cost {result.total_cost}", f"discount {result.total_discount}"]
    books_at: list[list[int]] = [[] for _ in instance.rules]
    for b, shop in enumerate(result.choice):
        books_at[shop].append(b)
    # A threshold-0 shop earns its discount with no books, and gets a line.
    for s, (rule, spend, books) in enumerate(zip(instance.rules, result.per_shop_spend, books_at)):
        earned = discount_earned(rule, spend)
        if books or earned:
            names = " ".join(f"b{b + 1}" for b in books) or "none"
            lines.append(f"shop s{s + 1}: {names} (spend {spend}, discount {earned})")
    print("\n".join(lines))


def _budget(args: argparse.Namespace, instance: Instance) -> int | None:
    """``--budget`` if it was given, else the file's BUDGET line, else None."""
    return args.budget if args.budget is not None else instance.budget


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(read_file(args.input))
    budget = _budget(args, instance)

    if args.algo == "price-dp" and budget is not None:
        result = price_vector_dp(instance, budget)
        if result is None:
            print(f"no: minimum cost exceeds budget {budget}")
            return EXIT_NO
    else:
        result = run_algorithm(args.algo, instance)

    # The file comes first, so a reader that closes stdout early cannot
    # stop it being written.
    if args.output:
        header = "" if args.seedless else (
            f"# instance: {Path(args.input).name}\n# algorithm: {args.algo}\n"
        )
        Path(args.output).write_text(header + serialize_solution(result))
    _print_result(instance, result)
    if budget is not None and result.total_cost > budget:
        print(f"no: cost {result.total_cost} exceeds budget {budget}")
        return EXIT_NO
    if budget is not None:
        print(f"yes: cost {result.total_cost} within budget {budget}")
    return EXIT_OK


def _partition(args: argparse.Namespace) -> tuple[GeneratedInstance, list[str]]:
    weights = parse_weights(args.weights)
    return from_partition(weights), [f"weights: {','.join(map(str, weights))}"]


def _binpacking(args: argparse.Namespace) -> tuple[GeneratedInstance, list[str]]:
    weights = parse_weights(args.weights)
    gen = from_bin_packing(weights, args.bins, args.capacity)
    return gen, [f"weights: {','.join(map(str, weights))}",
                 f"bins: {args.bins}", f"capacity: {args.capacity}"]


def _perfectcode(args: argparse.Namespace) -> tuple[GeneratedInstance, list[str]]:
    graph = parse_graph(read_file(args.graph))
    return from_perfect_code(graph, args.k), [f"graph: {args.graph}", f"k: {args.k}"]


def _x3c(args: argparse.Namespace) -> tuple[GeneratedInstance, list[str]]:
    check_x3c_offer_count(args.n, args.m)
    components = tuple(random_x3c(args.n, args.seed + i) for i in range(args.m))
    gen = x3c_or_composition(components, args.t_const)
    return gen, [f"items: {args.n}", f"components: {args.m}", f"seed: {args.seed}"]


def _max3sat(args: argparse.Namespace) -> tuple[GeneratedInstance, list[str]]:
    cnf = parse_dimacs(read_file(args.cnf))
    return from_max3sat(cnf), [f"cnf: {args.cnf}"]


def _random(args: argparse.Namespace) -> tuple[GeneratedInstance, list[str]]:
    instance = random_instance(
        args.n,
        args.m,
        max_price=args.max_price,
        shop_degree_cap=args.degree_cap,
        unit_prices=args.unit_prices,
        fixed_prices=args.fixed_prices,
        seed=args.seed,
    )
    return GeneratedInstance(instance), [f"seed: {args.seed}"]


def _cmd_generate(args: argparse.Namespace) -> int:
    gen, notes = args.build(args)
    text = serialize_instance(gen.instance)
    if not args.seedless:
        header = [f"# family: {args.family}"]
        header += [f"# {note}" for note in notes]
        if gen.expected_answer is not None:
            header.append(f"# expected: {'yes' if gen.expected_answer else 'no'}")
        if gen.expected_discount is not None:
            header.append(f"# expected discount: {gen.expected_discount}")
        text = "\n".join(header) + "\n" + text
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output}")
        if gen.target_budget is not None:
            print(f"budget {gen.target_budget}")
        if gen.expected_answer is not None:
            print(f"expected {'yes' if gen.expected_answer else 'no'}")
        if gen.expected_discount is not None:
            print(f"expected discount {gen.expected_discount}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    instance = parse_instance(read_file(args.input))
    result, declared = check_solution(instance, read_file(args.solution))
    budget = _budget(args, instance)
    matches = declared == result.total_cost
    within = budget is None or result.total_cost <= budget
    print(f"cost {result.total_cost}")
    print(f"declared {declared} ({'matches' if matches else 'MISMATCH'})")
    if budget is not None:
        print(f"budget {budget} ({'within' if within else 'over'})")
    return EXIT_OK if matches and within else EXIT_NO


def _cmd_bench(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise InputError(f"cannot read {args.dir}: not a directory")
    paths = sorted(directory.glob("*.cshop"))
    if not paths:
        raise EmptyInput(f"instance directory {args.dir}")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise EmptyInput("algorithm list")
    report = run_bench(paths, algos, args.timeout)
    for record in report["results"]:
        parts = [record["instance"], record["algo"], record["status"]]
        if record["status"] == "ok":
            parts.append(f"{record['seconds']:.3f}s")
            parts.append(f"cost={record['cost']}")
            if "gap" in record:
                parts.append(f"gap={record['gap']}")
        print("  ".join(parts))
    if args.report:
        _write(args.report, json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.report}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The cyclic collector is off while the command runs, and restored
    # after it on every exit (one that was off stays off).  A large
    # instance loads as hundreds of thousands of tuples of ints with no
    # cycles: reference counting frees them, and the collector's passes
    # over them, set off by the allocation count, free nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that has gone fails it here
        return code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError as exc:
        # The reader is gone (``solve ... | head``).  Point stdout at
        # devnull, or the flush at exit fails a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
