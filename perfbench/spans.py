"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced name where its caller looks it
up.  Several names are bound at import time, so the wrapper goes into
the importing module (``cli.parse_instance``, ``exact.max_weight_matching``
...) and the solver table ``bench._DISPATCH``, not only into the defining
module.  Spans stay in memory until the worker hands them back.

A span is ``(name, start, end, parent, solve_id, info)``; ``parent`` is
the index of the enclosing span or -1, and ``info`` an optional count
taken from the call's arguments or result.
"""

from __future__ import annotations

import functools
import time


def _parse_info(args, result):
    return len(args[0].encode())


def _graph_info(args, result):
    graph = args[0]
    return (graph.num_vertices, len(graph.edges))


def _edges_info(args, result):
    return len(result.edges)


def _fstar_info(args, result):
    instance, bound = args
    return len(result) == sum(min(cap, instance.num_books) for cap in bound.shop_caps)


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(args, result) if info is not None and result is not None else None
                spans[index] = (name, start, end, parent, self.solve_id, extra)

        return traced

    def _patch(self, owner, attr: str, name: str, info=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, info))
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        from clevershopper import approx, bench, cli, exact, fileio, model

        self._patch(cli, "main", "cli.main")
        self._patch(cli, "parse_instance", "fileio.parse_instance", _parse_info)
        self._patch(cli, "serialize_solution", "fileio.serialize_solution")
        self._patch(cli, "price_vector_dp", "exact.price_vector_dp")
        self._patch(fileio, "make_instance", "model.make_instance")
        self._patch(exact, "price_vector_min_cost", "exact.price_vector_min_cost")
        self._patch(exact, "build_discount_graph", "exact.build_discount_graph", _edges_info)
        self._patch(exact, "max_weight_matching", "matching.max_weight_matching", _graph_info)
        self._patch(exact, "max_fstar_subgraph", "exact.max_fstar_subgraph", _fstar_info)
        self._patch(exact, "evaluate_assignment", "model.evaluate_assignment")
        self._patch(approx, "evaluate_assignment", "model.evaluate_assignment")

        dispatch = bench._DISPATCH
        saved = dict(dispatch)
        for algo, fn in saved.items():
            if algo != "oracle":
                layer = fn.__module__.rsplit(".", 1)[-1]
                dispatch[algo] = self.wrap(f"{layer}.{fn.__name__}", fn)
        self._undo.append(lambda: dispatch.update(saved))

        instance = model.Instance
        for attr in ("offers_by_book", "books_by_shop", "price"):
            original = instance.__dict__[attr]
            replacement = functools.cached_property(self.wrap("model.precompute", original.func))
            replacement.__set_name__(instance, attr)
            setattr(instance, attr, replacement)
            self._undo.append(lambda attr=attr, original=original: setattr(instance, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


LAYER_UNITS = {
    "cli.self_s": "s",
    "fileio.parse_instance.s": "s",
    "fileio.parse_instance.mb_per_s": "MB/s",
    "fileio.serialize_solution.s": "s",
    "model.make_instance.s": "s",
    "model.precompute.s": "s",
    "model.evaluate_assignment.s": "s",
    "model.evaluate_assignment.calls": "count",
    "exact.subset_dp_min_cost.self_s": "s",
    "exact.subset_dp.transitions.computed": "count",
    "exact.subset_dp.ns_per_transition": "ns",
    "exact.price_vector_dp.s.yes": "s",
    "exact.price_vector_dp.s.no": "s",
    "exact.price_vector_min_cost.s": "s",
    "exact.build_discount_graph.s": "s",
    "exact.build_discount_graph.edges": "count",
    "matching.max_weight_matching.s": "s",
    "matching.max_weight_matching.vertices": "count",
    "matching.max_weight_matching.edges": "count",
    "exact.fstar_unit_price_min_cost.self_s": "s",
    "exact.max_fstar_subgraph.calls": "count",
    "exact.max_fstar_subgraph.s": "s",
    "exact.max_fstar_subgraph.feasible_ratio": "ratio",
    "approx.greedy_max_discount.self_s": "s",
    "share.subset_dp_self": "ratio",
    "share.fileio_model": "ratio",
    "trace.suite_s": "s",
    "trace.overhead_ratio": "ratio",
    "reductions.generate_s": "s",
}


def pass_metrics(spans: list[tuple], kind_of: dict[int, str], transitions: int) -> dict:
    """Per-layer figures for the spans of one pass.

    ``kind_of`` maps each solve id of the pass to its case kind (``min``,
    ``yes``, ``no``); ``transitions`` is the pass's subset-dp work
    computed from its instances.  Times are summed over the pass.
    """
    child = [0.0] * len(spans)
    in_io = [False] * len(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    io_s = 0.0
    yes_no = {"yes": 0.0, "no": 0.0}
    direct_min_cost = 0.0
    parse_bytes = 0
    graph_vertices = graph_edges = discount_edges = feasible = 0
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        io = name.startswith(("fileio.", "model."))
        in_io[i] = io or (parent >= 0 and in_io[parent])
        if io and not (parent >= 0 and in_io[parent]):
            io_s += end - start
    for i, (name, start, end, parent, solve_id, info) in enumerate(spans):
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "exact.price_vector_dp":
            yes_no[kind_of[solve_id]] = yes_no.get(kind_of[solve_id], 0.0) + duration
        elif name == "exact.price_vector_min_cost":
            if parent < 0 or spans[parent][0] != "exact.price_vector_dp":
                direct_min_cost += duration
        elif info is None:
            continue
        elif name == "fileio.parse_instance":
            parse_bytes += info
        elif name == "matching.max_weight_matching":
            graph_vertices += info[0]
            graph_edges += info[1]
        elif name == "exact.build_discount_graph":
            discount_edges += info
        elif name == "exact.max_fstar_subgraph":
            feasible += info

    solve_s = total.get("cli.main", 0.0)
    parse_s = total.get("fileio.parse_instance", 0.0)
    dp_self = own.get("exact.subset_dp_min_cost", 0.0)
    fstar_calls = calls.get("exact.max_fstar_subgraph", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "fileio.parse_instance.s": parse_s,
        "fileio.parse_instance.mb_per_s": ratio(parse_bytes / 1e6, parse_s),
        "fileio.serialize_solution.s": total.get("fileio.serialize_solution", 0.0),
        "model.make_instance.s": total.get("model.make_instance", 0.0),
        "model.precompute.s": total.get("model.precompute", 0.0),
        "model.evaluate_assignment.s": total.get("model.evaluate_assignment", 0.0),
        "model.evaluate_assignment.calls": calls.get("model.evaluate_assignment", 0),
        "exact.subset_dp_min_cost.self_s": dp_self,
        "exact.subset_dp.transitions.computed": transitions,
        "exact.subset_dp.ns_per_transition": ratio(dp_self * 1e9, transitions),
        "exact.price_vector_dp.s.yes": yes_no["yes"],
        "exact.price_vector_dp.s.no": yes_no["no"],
        "exact.price_vector_min_cost.s": direct_min_cost,
        "exact.build_discount_graph.s": total.get("exact.build_discount_graph", 0.0),
        "exact.build_discount_graph.edges": discount_edges,
        "matching.max_weight_matching.s": total.get("matching.max_weight_matching", 0.0),
        "matching.max_weight_matching.vertices": graph_vertices,
        "matching.max_weight_matching.edges": graph_edges,
        "exact.fstar_unit_price_min_cost.self_s": own.get("exact.fstar_unit_price_min_cost", 0.0),
        "exact.max_fstar_subgraph.calls": fstar_calls,
        "exact.max_fstar_subgraph.s": total.get("exact.max_fstar_subgraph", 0.0),
        "exact.max_fstar_subgraph.feasible_ratio": ratio(feasible, fstar_calls),
        "approx.greedy_max_discount.self_s": own.get("approx.greedy_max_discount", 0.0),
        "share.subset_dp_self": ratio(dp_self, solve_s),
        "share.fileio_model": ratio(io_s, solve_s),
    }
