"""Exhaustive depth-first search for Hamiltonian paths, cycles, and pairs.

This is the independent ground truth used to validate the structured
constructions; no build path runs it.  Search results are three-valued: a witness, a proof of
absence (the search space was exhausted), or an explicit "inconclusive"
when the node budget ran out.  One function, `first_outcome`, gives
every search that result from a generator of candidates: the path,
cycle and pair searches here and products' strongly switchable pair
search.  Branches are explored in generator-label order ("A" before
"B"), so every outcome is deterministic.

The search runs on core's integer kernel (mixed-radix vertex indices,
per-generator successor and predecessor tables, core's arc ids for
forbidden arcs) with two arrays of the group order indexed by depth,
the vertex and the next label to try at each, so its depth is bounded
by the group order, not by Python's recursion limit.  Forbidden arcs
cost nothing per branch: a search that has any copies the tables once
and points each forbidden arc, and its head's in-arc, at a sentinel
vertex n that is always on the path.  One budget node is spent per
vertex entered, counted in a local that is written back to the budget
before every yield and every exit and read again after each yield, as
a pair search's second path spends from the same budget while the
first is suspended.  A path search starts at every vertex in turn, a
cycle search only at 0 (the digraph is vertex-transitive), and a pair
search forbids the first path's arcs to the second.  A yielded path
carries the vertex indices the search held as its `index_list`, so its
arc ids and a cycle search's closing arc are read without following
the tables again.

Every search prunes dead ends (Vandegriend & Culberson, 1998).  When the
DFS tries the arc v -> w, each other out-neighbour x of v loses v as a
possible tail, so an unvisited x must keep an in-arc that is not
forbidden from a vertex still to be entered (w included); in a cycle
search the start must keep one to close through.  Otherwise the branch
is skipped and spends no node.  In every Hamiltonian path that extends
the current one by v -> w, each vertex not yet on it is entered from
its predecessor, which is w or another vertex not yet on the path,
through an arc that is not forbidden, and a Hamiltonian cycle
re-enters its start the same way; so a skipped subtree holds no
Hamiltonian leaf (no closable one in a cycle search).  The pruned tree
is thus the full tree with leafless subtrees removed, walked in the same
order: it yields the same leaves in the same order, so every witness,
every pair and every proof of absence is the one the unpruned search
gives, and nodes_used can only fall.  A search that the unpruned DFS
left inconclusive may now finish.  There is no forced-move rule (enter
a vertex through its last in-arc at once): a branch that passes that
arc by leaves the vertex a dead end, which the rule above skips, and on
the 2,760 pair-search digraphs of perfbench it saved no node and took
1.3-1.4 s instead of 1.1 s.

A search with forbidden arcs also prunes at its root, where the same
argument pins the start.  Every vertex of a Hamiltonian path but its
start is entered through an allowed in-arc, and the path leaves each
vertex at most once.  So a vertex with no allowed in-arc must be the
start, and of the heads that only one tail t can enter (t's allowed
out-neighbours whose one allowed in-arc comes from t), t enters at most
one: if there are two, the start is one of them, and if there are three
or more, or two vertices without an allowed in-arc, there is no path.
One more case pins the start when n + 1 arcs are allowed and every
vertex keeps an allowed in-arc and an allowed out-arc.  Then one tail t
has two allowed out-arcs, one vertex s two allowed in-arcs, and every
other vertex one of each.  Say t's heads are s and h, where only t
enters h.  A path that does not start at h enters it by t -> h, so it
leaves t by that arc and never by t -> s, and all its arcs lie in
F = allowed - {t -> s}, where every vertex has one out-arc and one
in-arc: F is a permutation.  A Hamiltonian path inside it follows one
cycle of F through all n vertices, so unless F is one n-cycle, h is the
only start.  The case reads allowed degrees only, so it holds for any
number of generators.  A Hamiltonian cycle enters its start too, so in
a cycle search any of these leaves no path (the last one unless F is
one n-cycle).  The search tries its starts in the usual order
and skips every start outside all these sets; a skipped start roots a
subtree without a Hamiltonian leaf, so, as above, the leaves and their
order stay the same, and a skipped start spends no node.  The rule is
computed before the search's arrays are built, so a search it leaves
without a start costs only the rule.  Without forbidden arcs it would
never fire, and it is not computed: every vertex keeps its r in-arcs,
from r distinct tails as the generators are distinct, so with r >= 2 no
vertex has only one tail, and with r = 1 each tail enters one head.  So
the first path of a pair search, and every path and cycle search, run as
before.  In a pair search on a two-generated digraph the first path's
arcs leave every vertex but its start a single allowed in-arc, and its
end the one tail with two allowed out-arcs, so n + 1 arcs stay allowed.
If neither of the end's heads is the first path's start, only the end
can enter either, and the second path starts at one of the two;
otherwise the last case applies, with t the end and s the start.  Of
the 3,907 second-path searches on perfbench's 2,760 pair-search
digraphs, 2,001 kept two starts, 558 kept one, and 1,348 kept all, as
their F was one n-cycle; each of these found its path from the first
start in n nodes, as every vertex but t has one allowed out-arc and
the branch t -> s is pruned (h would lose its one tail).  The pair
searches on those digraphs spent 220,639 nodes, 278,991 without the
last case and 418,723 without the root rule.  On C_6 x C_8 the pair
search spends 96 nodes, where it spent 816 without the rule, and on
Cay(Z_5 x Z_9; (1, 1), (0, 1)) 234, against 630 without the last case
and 1,134 without the rule.
"""

from __future__ import annotations

import enum
from itertools import compress
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .core import (
    CayleyDigraph,
    InputError,
    LabeledWalk,
    arc_ids,
    check_family_one_params,
    verify_hamiltonian,
)

DEFAULT_BUDGET = 10**7


class Status(enum.Enum):
    FOUND = "found"
    ABSENT = "absent"
    INCONCLUSIVE = "inconclusive"


class BudgetExhausted(Exception):
    """A search ran out of node budget, so its outcome is inconclusive.

    first_outcome turns it into Status.INCONCLUSIVE.
    """


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int) -> None:
        if limit <= 0:
            raise InputError("node_budget must be positive")
        self.limit, self.used = limit, 0


class SearchOutcome(NamedTuple):
    status: Status
    walk: Optional[LabeledWalk] = None
    nodes_used: int = 0

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


class PairOutcome(NamedTuple):
    status: Status
    pair: Optional[tuple[LabeledWalk, LabeledWalk]] = None
    nodes_used: int = 0

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


def _iter_paths(
    d: CayleyDigraph,
    budget: _Budget,
    start: Optional[int] = None,
    forbidden: frozenset[int] = frozenset(),
    closed: bool = False,
) -> Iterator[LabeledWalk]:
    """Yield every Hamiltonian path from vertex index `start` (from every
    vertex if None) whose arcs avoid the ids in `forbidden` (see
    core.arc_ids), in deterministic DFS order.  With `closed`, only the
    paths whose last vertex has an arc back to the start are yielded.
    Dead ends, and with forbidden arcs the starts, are pruned as the
    module docstring describes.

    Raises BudgetExhausted when the node budget runs out.
    """
    group = d.group
    n = group.size
    leaf_parent = n - 2  # the depth from which a move enters a leaf
    starts = range(n) if start is None else [start]
    label_of = ("", *d.labels)  # label_of[i + 1]: the label at position i
    tables = d.successor_tables
    moves, preds = tables, d.predecessor_tables
    r = len(tables)
    if forbidden:
        # Vertex n is a sentinel that is always on the path: a forbidden
        # arc leads to it, and its head's in-arc comes from it.
        moves, preds = [[*t] for t in moves], [[*t] for t in preds]
        ins, outs = [0] * n, [0] * n  # each vertex's forbidden in- and out-arcs
        for arc in forbidden:
            v, i = divmod(arc, r)
            w = tables[i][v]
            moves[i][v] = n
            preds[i][w] = n
            ins[w] += 1
            outs[v] += 1
        # Root rule (see the module docstring): each set in need holds the
        # start of every Hamiltonian path, and an empty one means none.
        need = []
        sole = r - 1  # the forbidden in-arcs of a vertex with one allowed
        if r in ins:  # a vertex with no allowed in-arc must be the start
            zero = [w for w, k in enumerate(ins) if k == r]
            need.append(set() if closed or len(zero) > 1 else {*zero})
        for t in compress(range(n), map(sole.__gt__, outs)):  # 2+ allowed out-arcs
            heads = [w for m in moves if (w := m[t]) < n and ins[w] == sole]
            if len(heads) > 1:  # only t enters them: all but one must be the start
                need.append(set() if closed or len(heads) > 2 else {*heads})
            elif heads and len(forbidden) == n * sole - 1 and r not in ins and r not in outs:
                # n + 1 allowed arcs, every vertex with one in and one out
                # but t (two out) and t's other head s (two in): a path
                # not from h = heads[0] lies in F = allowed - {t -> s}.
                h = heads[0]
                step = [*map(min, *moves)]  # F: each vertex's one allowed head
                step[t] = h
                v, length = step[h], 1
                while v != h:
                    v, length = step[v], length + 1
                if length < n:  # F is not one n-cycle
                    need.append(set() if closed else {h})
        if need:
            firsts = set.intersection(*need)
            starts = [s for s in starts if s in firsts]
            if not starts:
                return
    # checks[i]: for each label j != i, the successor table of j and the
    # predecessor tables of the in-arcs of its head other than the one
    # from the tail, which is on the path.
    checks = [
        [(tables[j], [preds[k] for k in range(r) if k != j]) for j in range(r) if j != i]
        for i in range(r)
    ]
    on_path = bytearray(n + 1)
    on_path[n] = 1
    path = [0] * n  # path[t]: the vertex index at depth t
    todo = [0] * n  # todo[t]: the next label position to try from path[t]
    used, limit = budget.used, budget.limit

    for first in starts:
        # In a cycle search the start is on the path, yet it must keep an
        # in-arc like an unvisited vertex.
        closing = first if closed else -1
        used += 1
        if used > limit:
            budget.used = used
            raise BudgetExhausted
        path[0] = first
        todo[0] = 0
        on_path[first] = 1
        depth = 0
        while depth >= 0:
            v = path[depth]
            i = todo[depth]
            if i == r:  # every branch tried: backtrack
                on_path[v] = 0
                depth -= 1
                continue
            todo[depth] = i + 1
            w = moves[i][v]
            if on_path[w]:
                continue
            # Dead-end pruning: after v -> w, no other out-neighbour x of
            # v can be entered from v.
            for table, in_tables in checks[i]:
                x = table[v]
                if on_path[x] and x != closing:
                    continue
                for pred in in_tables:
                    if not on_path[pred[x]]:
                        break
                else:  # x has no in-arc left: skip the branch
                    break
            else:
                used += 1
                if used > limit:
                    budget.used = used
                    raise BudgetExhausted
                if depth == leaf_parent:  # w is a leaf: yield it, expand no further
                    budget.used = used
                    walk = LabeledWalk(
                        d, group.decode(first), "".join(map(label_of.__getitem__, todo[: n - 1]))
                    )
                    # The search holds the walk's vertices: fill its cache,
                    # so that arc_ids and a cycle's closing test need not
                    # follow the tables again.
                    walk.index_list = [*path[: n - 1], w]
                    yield walk
                    used = budget.used
                else:
                    depth += 1
                    path[depth] = w
                    todo[depth] = 0
                    on_path[w] = 1
    budget.used = used


def first_outcome(outcome_cls, node_budget: int, results):
    """The one search loop: outcome_cls(FOUND, item, nodes) for the
    first item of results(budget), ABSENT when results runs out, and
    INCONCLUSIVE when the node budget runs out first."""
    budget = _Budget(node_budget)
    try:
        for item in results(budget):
            return outcome_cls(Status.FOUND, item, budget.used)
    except BudgetExhausted:
        return outcome_cls(Status.INCONCLUSIVE, None, budget.used)
    return outcome_cls(Status.ABSENT, None, budget.used)


def find_hamiltonian_path(d: CayleyDigraph, node_budget: int = DEFAULT_BUDGET) -> SearchOutcome:
    """First Hamiltonian path, if any."""
    return first_outcome(SearchOutcome, node_budget, lambda b: _iter_paths(d, b))


def find_hamiltonian_cycle(
    d: CayleyDigraph, node_budget: int = DEFAULT_BUDGET
) -> SearchOutcome:
    """Hamiltonian directed cycle search.

    The digraph is vertex-transitive, so the start is fixed at 0.  Each
    path found is closed by its first arc back to 0, and a path without
    one is skipped.
    """

    def cycles(budget: _Budget) -> Iterator[LabeledWalk]:
        for walk in _iter_paths(d, budget, start=0, closed=True):
            last = walk.index_list[-1]
            for lab, table in zip(d.labels, d.successor_tables):
                if table[last] == 0:
                    cyc = LabeledWalk(d, d.group.zero, walk.labels + lab)
                    assert verify_hamiltonian(d, cyc, "cycle") is None
                    yield cyc

    return first_outcome(SearchOutcome, node_budget, cycles)


def iter_arc_disjoint_pairs(
    d: CayleyDigraph, budget: _Budget
) -> Iterator[tuple[LabeledWalk, LabeledWalk]]:
    """All ordered arc-disjoint Hamiltonian path pairs, DFS order.

    Backtracks over the first path as well as the second.
    """
    # A pair needs the first path's n nodes, and a proof of absence tries
    # all n starts at a node each (the first path's search forbids no arc,
    # so the root rule skips none of its starts): with fewer than n nodes
    # left the search ends inconclusive at limit + 1 nodes, so end it
    # before any table is built.
    if d.group.size > budget.limit - budget.used:
        budget.used = budget.limit + 1
        raise BudgetExhausted
    for p in _iter_paths(d, budget):
        for q in _iter_paths(d, budget, forbidden=frozenset(arc_ids(p))):
            yield p, q


def find_arc_disjoint_pair(
    d: CayleyDigraph, node_budget: int = DEFAULT_BUDGET
) -> PairOutcome:
    """First ordered pair of arc-disjoint Hamiltonian paths, if any."""
    return first_outcome(PairOutcome, node_budget, lambda b: iter_arc_disjoint_pairs(d, b))


def oracle_cut_set(k: int, a: int) -> set[int]:
    """Cut values d whose standard cut candidate is a Hamiltonian path.

    The candidate at d steps by a+1 from each vertex below d and by a
    from the others; with the closing step d -> a it becomes the cut
    permutation phi_d, and the candidate is a Hamiltonian path iff phi_d
    is a single k-cycle.  phi_0 is translation by a, whose cycles are the
    gcd(k, a) cosets of <a>.  phi_{d+1} = phi_d o (d d+1): the images of
    d and d+1 swap.

    The pass tracks psi_d, the first-return map of phi_d on F_d =
    {d, ..., k-1}, and its inverse, instead of phi_d itself.  The cycles
    of phi_d that meet F_d are those of psi_d with the vertices below d
    put back.  phi_d and phi_{d+1} differ only at d and d+1, which are
    both in F_d, so the first-return map of phi_{d+1} on F_d is
    psi_d o (d d+1).  Composing with a transposition merges the two
    cycles through d and d+1 if they differ and splits their common
    cycle otherwise, so the cycle count moves by exactly one per step.

    Which one is found by walking psi_d from d and from d+1 in lockstep
    until a walk reaches a vertex <= d+1 (every tracked vertex is >= d).
    If d+1 is j steps on from d on a common cycle of length l, the walks
    meet each other's start after j and l-j steps, both before either is
    back at its own, after l: a split.  If the cycles differ, no walk
    meets the other's start, and the first to stop has closed its own
    cycle: a merge.  So a step costs at most the size of the smaller
    part, and no cycle ids are kept.  When psi_d is one cycle (count 1)
    it holds both d and d+1, so the transposition splits it and no walk
    is needed.  Over the mirror-pair units of rows k = 24..87 this takes
    4.6 lockstep reads per cut value (the first pair of reads included),
    where walking at count 1 too took 7.2 and relabelling by cycle id
    10.8.  Splicing d out, psi[inv[d]] = psi[d], then gives psi_{d+1}.

    If psi[d] == d right after the swap, the cycle of phi_{d+1} through d
    lies inside [0, d].  No later transposition (d' d'+1), d' > d, moves
    it, and k-1 lies on another cycle, so no later cut permutation is a
    single cycle and the pass stops.  Until then no cycle of phi_d hides
    below d, so the cycle count of psi_d is that of phi_d.

    Mirror lemma: with N = k-1, d is in Z(k, a) iff N-d is in
    Z(k, N-a), so one pass serves both cells of a mirror pair.  Let
    a' = N-a, which is -a-1 mod k, and sigma(x) = N-x, an involution of
    Z_k; put y = sigma(x).  For x < d, sigma(phi_d(x)) = N-x-a-1 = y+a'
    and y > N-d.  For x > d, sigma(phi_d(x)) = N-x-a = y+a'+1 and
    y < N-d.  And sigma(phi_d(d)) = sigma(a) = a'.  So
    sigma phi^(a)_d sigma = phi^(a')_(N-d), and conjugate permutations
    have the same cycle type: one is a single k-cycle iff the other is.

    The code uses only this permutation argument, never the lattice ray
    system that family_one reads the cut set from, so the two stay
    independent cross-checks of each other.
    """
    return _cut_set_steps(k, a)[0]


def _cut_set_steps(k: int, a: int) -> tuple[set[int], int]:
    """oracle_cut_set's pass, with the number of steps d it took: fewer
    than k-1 when it stopped early."""
    a = check_family_one_params(k, a)
    psi = [*range(a, k), *range(a)]  # translation by a
    inv = [*range(k - a, k), *range(k - a)]
    count = gcd(k, a)  # the cycles of psi_0, the cosets of <a>
    result = {0} if count == 1 else set()
    for d in range(k - 1):
        y = d + 1
        if count == 1:
            split = True  # d and d+1 lie on psi_d's one cycle
        else:
            # walk psi_d from d and from d+1 until one walk is back in
            # {d, d+1}; every tracked vertex is at least d
            u, v = psi[d], psi[y]
            while u > y and v > y:
                u, v = psi[u], psi[v]
            split = u == y or v == d  # one walk met the other's start
        u, v = psi[y], psi[d]
        psi[d], psi[y] = u, v
        inv[u], inv[v] = d, y
        if split:
            if u == d:
                # d's cycle closed inside [0, d]
                return result, y
            count += 1
        else:
            count -= 1
        if count == 1:
            result.add(y)
        # splice d out of psi
        v = inv[d]
        psi[v] = u
        inv[u] = v
    return result, k - 1
