"""Exhaustive depth-first search for Hamiltonian paths, cycles, and pairs.

This is the independent ground truth used to validate the structured
constructions.  Search results are three-valued: a witness, a proof of
absence (the search space was exhausted), or an explicit "inconclusive"
when the node budget ran out.  Branches are explored in generator-label
order ("A" before "B"), so every outcome is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    ArcSet,
    CayleyDigraph,
    InputError,
    LabeledWalk,
    Vertex,
    check_family_one_params,
    verify_hamiltonian,
)

DEFAULT_BUDGET = 10**7


class Status(enum.Enum):
    FOUND = "found"
    ABSENT = "absent"
    INCONCLUSIVE = "inconclusive"


class BudgetExhausted(Exception):
    """Internal signal; callers see Status.INCONCLUSIVE instead."""


@dataclass
class _Budget:
    limit: int
    used: int = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExhausted


@dataclass(frozen=True)
class SearchConstraints:
    required_start: Optional[Vertex] = None
    required_end: Optional[Vertex] = None
    forbidden_arcs: ArcSet = frozenset()
    required_b_count: Optional[int] = None
    node_budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.node_budget <= 0:
            raise InputError("node_budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    status: Status
    walk: Optional[LabeledWalk] = None
    nodes_used: int = 0

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


@dataclass(frozen=True)
class PairOutcome:
    status: Status
    pair: Optional[tuple[LabeledWalk, LabeledWalk]] = None
    nodes_used: int = 0

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


def _iter_paths(
    d: CayleyDigraph, c: SearchConstraints, budget: _Budget
) -> Iterator[LabeledWalk]:
    """Yield every Hamiltonian path satisfying c, in deterministic DFS order.

    Raises BudgetExhausted when the node budget runs out.
    """
    n = d.group.size
    if c.required_b_count is not None and c.required_b_count > max(n - 1, 0):
        return
    if n == 1:
        start = d.group.zero
        if c.required_start not in (None, start):
            return
        if c.required_end not in (None, start):
            return
        if c.required_b_count not in (None, 0):
            return
        yield LabeledWalk(d, start, "")
        return

    starts = (
        [d.group.check_vertex(c.required_start)]
        if c.required_start is not None
        else sorted(d.group.elements())
    )
    labels = d.labels

    for start in starts:
        path_labels: list[str] = []
        visited = {start}
        b_used = 0

        def extend(v: Vertex) -> Iterator[LabeledWalk]:
            nonlocal b_used
            budget.spend()
            depth = len(path_labels)
            if depth == n - 1:
                if c.required_end is None or v == c.required_end:
                    if c.required_b_count is None or b_used == c.required_b_count:
                        yield LabeledWalk(d, start, "".join(path_labels))
                return
            # A vertex equal to the required end cannot be internal.
            if c.required_end is not None and v == c.required_end:
                return
            remaining = n - 1 - depth
            if c.required_b_count is not None:
                if b_used > c.required_b_count:
                    return
                if c.required_b_count - b_used > remaining:
                    return
            for lab in labels:
                if (v, lab) in c.forbidden_arcs:
                    continue
                w = d.successor(v, lab)
                if w in visited:
                    continue
                visited.add(w)
                path_labels.append(lab)
                if lab == "B":
                    b_used += 1
                yield from extend(w)
                if lab == "B":
                    b_used -= 1
                path_labels.pop()
                visited.remove(w)

        yield from extend(start)


def find_hamiltonian_path(
    d: CayleyDigraph, c: SearchConstraints = SearchConstraints()
) -> SearchOutcome:
    """First Hamiltonian path satisfying the constraints, if any."""
    budget = _Budget(c.node_budget)
    try:
        for walk in _iter_paths(d, c, budget):
            return SearchOutcome(Status.FOUND, walk, budget.used)
    except BudgetExhausted:
        return SearchOutcome(Status.INCONCLUSIVE, None, budget.used)
    return SearchOutcome(Status.ABSENT, None, budget.used)


def find_hamiltonian_cycle(
    d: CayleyDigraph, node_budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Hamiltonian directed cycle search.

    The digraph is vertex-transitive, so the start is fixed at 0.
    """
    budget = _Budget(node_budget)
    n = d.group.size
    start = d.group.zero
    try:
        c = SearchConstraints(required_start=start, node_budget=node_budget)
        for walk in _iter_paths(d, c, budget):
            # Close the path back to the start if some generator does.
            for lab in d.labels:
                if d.successor(walk.end, lab) == start:
                    cyc = LabeledWalk(d, start, walk.labels + lab)
                    assert verify_hamiltonian(d, cyc, "cycle").ok
                    return SearchOutcome(Status.FOUND, cyc, budget.used)
    except BudgetExhausted:
        return SearchOutcome(Status.INCONCLUSIVE, None, budget.used)
    return SearchOutcome(Status.ABSENT, None, budget.used)


def iter_arc_disjoint_pairs(
    d: CayleyDigraph, budget: _Budget
) -> Iterator[tuple[LabeledWalk, LabeledWalk]]:
    """All ordered arc-disjoint Hamiltonian path pairs, DFS order.

    Backtracks over the first path as well as the second.
    """
    outer = SearchConstraints(node_budget=budget.limit)
    for p in _iter_paths(d, outer, budget):
        inner = SearchConstraints(forbidden_arcs=p.arc_set(), node_budget=budget.limit)
        for q in _iter_paths(d, inner, budget):
            yield p, q


def find_arc_disjoint_pair(
    d: CayleyDigraph, node_budget: int = DEFAULT_BUDGET
) -> PairOutcome:
    """First ordered pair of arc-disjoint Hamiltonian paths, if any."""
    budget = _Budget(node_budget)
    try:
        for p, q in iter_arc_disjoint_pairs(d, budget):
            return PairOutcome(Status.FOUND, (p, q), budget.used)
    except BudgetExhausted:
        return PairOutcome(Status.INCONCLUSIVE, None, budget.used)
    return PairOutcome(Status.ABSENT, None, budget.used)


def oracle_cut_set(k: int, a: int) -> set[int]:
    """Cut values d whose standard cut candidate is a Hamiltonian path.

    Simulates the explicit successor rule directly on Z_k, starting from
    vertex a: below the cut the step is by a+1, above it by a.  This is
    deliberately independent of the lattice ray system that family_one
    reads the cut set from.
    """
    a = check_family_one_params(k, a)
    b = a + 1
    result = set()
    for d in range(k):
        x = a
        seen = 1 << x
        count = 1
        for _ in range(k - 1):
            if x == d:
                break
            x = (x + b) % k if x < d else (x + a) % k
            if seen >> x & 1:
                break
            seen |= 1 << x
            count += 1
        if count == k and x == d:
            result.add(d)
    return result
