"""Arc-disjoint Hamiltonian path pairs in products of directed cycles.

The three-factor product C_m x C_n x C_l is handled by taking a
"strongly switchable" ordered pair of arc-disjoint Hamiltonian paths in
the two-factor base and lifting it layer by layer through the third
cycle.  The base pair is the first pair of the coset enumeration
(cosets.iter_pairs) that is strongly switchable in either order, on
C_m x C_n as given.  A walk is its start and its labels, and
translation keeps the labels, so a lifted path is one base path's start
and the two base label strings, alternated l times and joined by the
third generator.  find_strongly_switchable_pair searches the base with
the DFS oracle instead; it is the tests' reference, not a build path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import cosets, oracle
from .core import (
    CayleyDigraph,
    FiniteAbelianGroup,
    InputError,
    LabeledWalk,
    Vertex,
    arc_disjoint,
    check_pair,
    pair_failure,
)


def product_digraph(orders: Sequence[int]) -> CayleyDigraph:
    """The Cartesian product of directed cycles as a Cayley digraph on
    the product group, with one unit-vector generator per factor."""
    if any(o < 2 for o in orders):
        raise InputError(f"cycle lengths must be >= 2, got {tuple(orders)}")
    group = FiniteAbelianGroup(tuple(orders))
    gens = tuple(
        tuple(1 if j == i else 0 for j in range(len(orders)))
        for i in range(len(orders))
    )
    return CayleyDigraph(group, gens)


@dataclass(frozen=True)
class SwitchabilityData:
    """Endpoint differences of an ordered pair (P, Q); iota and tau are a
    walk's start and end."""

    alpha: Vertex  # tau_P - iota_Q
    beta: Vertex  # tau_Q - iota_P
    gamma: Vertex  # alpha - beta


def is_strongly_switchable(
    d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk
) -> tuple[bool, SwitchabilityData, list[str]]:
    """Test the ordered pair (p, q); the condition is not symmetric.

    Requires p, q to be arc-disjoint Hamiltonian paths (raises if not).
    Returns the pass flag, the endpoint data, and the violated clauses.
    """
    reason = pair_failure(d, p, q)
    if reason:
        raise InputError(f"input is not an arc-disjoint Hamiltonian path pair: {reason}")
    return _switchability(p, q)


def _switchability(
    p: LabeledWalk, q: LabeledWalk
) -> tuple[bool, SwitchabilityData, list[str]]:
    """is_strongly_switchable for a pair already checked by pair_failure."""
    g = p.digraph.group
    alpha = g.add(p.end, g.neg(q.start))
    beta = g.add(q.end, g.neg(p.start))
    data = SwitchabilityData(alpha, beta, g.add(alpha, g.neg(beta)))
    violations = []
    if not arc_disjoint(p, q.translate(data.gamma)):
        violations.append("translated arc overlap")
    if p.end == q.end:
        violations.append("terminal equality")
    if p.end == g.add(q.end, data.gamma):
        violations.append("translated terminal equality")
    return not violations, data, violations


def find_strongly_switchable_pair(
    d: CayleyDigraph, node_budget: int = oracle.DEFAULT_BUDGET
) -> oracle.PairOutcome:
    """First strongly switchable ordered pair, enumerating arc-disjoint
    Hamiltonian path pairs in DFS order and testing both orders."""

    def switchable(budget):
        for p, q in oracle.iter_arc_disjoint_pairs(d, budget):
            for cand in ((p, q), (q, p)):
                if is_strongly_switchable(d, *cand)[0]:
                    yield cand

    return oracle.first_outcome(oracle.PairOutcome, node_budget, switchable)


def lift_through_cycle(
    d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk, ell: int
) -> tuple[LabeledWalk, LabeledWalk]:
    """Lift a strongly switchable pair of D to a verified arc-disjoint
    Hamiltonian path pair of D x C_ell.

    Layer i of the first lifted path carries P + p_i for even i and
    Q + q_i for odd i (the second path swaps the roles), where p_0 =
    q_0 = 0, q_{i+1} = p_i + alpha and p_{i+1} = q_i + beta; consecutive
    layers are joined by one arc in the new cycle direction.  That arc
    leads from a layer's end to the next layer's start (P + p_i ends at
    tau_P + p_i = iota_Q + q_{i+1}, and likewise for Q), so the
    translations need no computing: each lifted path is its first
    layer's start at height 0 and the base labels, alternated.
    """
    if ell < 2:
        raise InputError(f"need ell >= 2, got {ell}")
    ok, _, violations = is_strongly_switchable(d, p, q)
    if not ok:
        raise InputError(f"pair is not strongly switchable: {violations}")
    return _lift(d, p, q, ell)


def _lift(
    d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk, ell: int
) -> tuple[LabeledWalk, LabeledWalk]:
    """lift_through_cycle for a pair already checked by pair_failure and
    found strongly switchable, with ell >= 2."""
    lifted = product_like_extension(d, ell)
    vertical = lifted.labels[-1]

    def build(first: LabeledWalk, second: LabeledWalk) -> LabeledWalk:
        # ell layers joined by ell - 1 vertical arcs, sized up front: an
        # ell too large to hold fails here at once.
        unit = first.labels + vertical + second.labels + vertical
        last = first.labels if ell % 2 else unit[:-1]
        return LabeledWalk(lifted, first.start + (0,), unit * ((ell - 1) // 2) + last)

    w1, w2 = build(p, q), build(q, p)
    check_pair(lifted, w1, w2, "lifted pair")
    return w1, w2


def product_like_extension(d: CayleyDigraph, ell: int) -> CayleyDigraph:
    """D x C_ell: append a cyclic factor and the corresponding generator."""
    group = FiniteAbelianGroup(d.group.orders + (ell,))
    gens = tuple(g + (0,) for g in d.gens) + (
        (0,) * len(d.group.orders) + (1,),
    )
    return CayleyDigraph(group, gens)


def build_three_factor(m: int, n: int, ell: int) -> tuple[LabeledWalk, LabeledWalk]:
    """Two verified arc-disjoint Hamiltonian paths in C_m x C_n x C_ell,
    lifted from the first pair of the base C_m x C_n, in the order of
    cosets.iter_pairs, that is strongly switchable in either order.

    iter_pairs yields one pair of every translation class, and the
    condition is invariant under translating both paths, so when no pair
    is found the base has no strongly switchable pair: the build raises
    RuntimeError, a proof and not an inconclusive search.  The base pair
    is checked once, by iter_pairs, and the lifted pair once, by the
    lift.
    """
    if min(m, n, ell) < 2:
        raise InputError(f"need m, n, ell >= 2, got {(m, n, ell)}")
    base = product_digraph((m, n))
    for pair in cosets.iter_pairs(base):  # each pair checked there
        for p, q in (pair, pair[::-1]):
            if _switchability(p, q)[0]:
                return _lift(base, p, q, ell)
    raise RuntimeError(
        f"C_{m} x C_{n} has no strongly switchable pair to lift to C_{m} x C_{n} x C_{ell}"
    )
