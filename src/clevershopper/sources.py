"""Source problems that reduce to shopping instances, with small deciders.

The deciders are exponential-time reference implementations, only meant
for the instance sizes used in generators and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DanglingIndex, InputError, NegativeValue


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..num_vertices-1."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if not 0 <= u < self.num_vertices:
                raise DanglingIndex("vertex", u, self.num_vertices)
            if not 0 <= v < self.num_vertices:
                raise DanglingIndex("vertex", v, self.num_vertices)
            if u >= v:
                raise InputError(f"edge ({u}, {v}) must satisfy u < v")
            if (u, v) in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @cached_property
    def closed_neighborhoods(self) -> tuple[frozenset[int], ...]:
        nbhd = [{v} for v in range(self.num_vertices)]
        for u, v in self.edges:
            nbhd[u].add(v)
            nbhd[v].add(u)
        return tuple(frozenset(s) for s in nbhd)

    def degree(self, v: int) -> int:
        return len(self.closed_neighborhoods[v]) - 1


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets over items 0..num_items-1."""

    num_items: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for triple in self.sets:
            if len(set(triple)) != 3:
                raise InputError(f"set {triple} does not have 3 distinct items")
            for item in triple:
                if not 0 <= item < self.num_items:
                    raise DanglingIndex("item", item, self.num_items)


@dataclass(frozen=True)
class CnfFormula:
    """CNF with exactly three literals per clause over variables 1..num_vars.

    Literals are signed integers: v means the variable is true, -v false.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            if len(clause) != 3:
                raise InputError(f"clause {clause} does not have 3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise DanglingIndex("variable", abs(lit), self.num_vars)


def has_balanced_partition(weights: tuple[int, ...]) -> bool:
    """Can the weights be split into two halves of equal sum?"""
    for w in weights:
        if w < 0:
            raise NegativeValue("weight", w)
    total = sum(weights)
    if total % 2:
        return False
    reachable = 1
    for w in weights:
        reachable |= reachable << w
    return bool(reachable >> (total // 2) & 1)


def can_pack_bins(weights: tuple[int, ...], bins: int, capacity: int) -> bool:
    """Can the weights be packed into the given number of bins?"""
    for w in weights:
        if w < 0:
            raise NegativeValue("weight", w)
        if w > capacity:
            return False
    if bins <= 0:
        return not weights
    items = sorted(weights, reverse=True)
    loads = [0] * bins

    def place(i: int) -> bool:
        if i == len(items):
            return True
        tried = set()
        for j in range(bins):
            if loads[j] in tried or loads[j] + items[i] > capacity:
                continue
            tried.add(loads[j])
            loads[j] += items[i]
            if place(i + 1):
                return True
            loads[j] -= items[i]
        return False

    return place(0)


def has_neighborhood_packing(graph: SimpleGraph, k: int) -> bool:
    """Are there k vertices with pairwise disjoint closed neighborhoods?"""
    nbhd = graph.closed_neighborhoods

    def extend(start: int, taken: frozenset[int], left: int) -> bool:
        if left == 0:
            return True
        for v in range(start, graph.num_vertices):
            if nbhd[v] & taken:
                continue
            if extend(v + 1, taken | nbhd[v], left - 1):
                return True
        return False

    return extend(0, frozenset(), k)


def x3c_solvable(instance: X3CInstance) -> bool:
    """Does some subfamily of the 3-sets partition the items?

    Every partition holds one set containing the lowest item not yet
    covered, so the search branches on those sets only.
    """
    n = instance.num_items
    if n % 3:
        return False
    containing: list[list[frozenset[int]]] = [[] for _ in range(n)]
    for fs in map(frozenset, instance.sets):
        for item in fs:
            containing[item].append(fs)
    stack = [frozenset(range(n))]
    while stack:
        remaining = stack.pop()
        if not remaining:
            return True
        stack.extend(remaining - fs for fs in containing[min(remaining)] if fs <= remaining)
    return False


def max_satisfied_clauses(cnf: CnfFormula) -> int:
    """Maximum number of clauses satisfiable by one assignment."""
    best = 0
    for bits in range(1 << cnf.num_vars):
        count = 0
        for clause in cnf.clauses:
            for lit in clause:
                value = bits >> (abs(lit) - 1) & 1
                if (lit > 0) == bool(value):
                    count += 1
                    break
        best = max(best, count)
    return best
