"""The Cay(Z_k; a, a+1) family: cut permutations, the Hamiltonian cut
set, reflection distance, count pairs, and realization of two
arc-disjoint Hamiltonian paths.

A standard cut candidate steps by a+1 below the cut value d and by a
above it; adjoining the formal closing step d -> a turns it into a
permutation of Z_k which is a k-cycle exactly when the candidate is a
Hamiltonian path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import lattice
from .core import (
    CayleyDigraph,
    InputError,
    LabeledWalk,
    cayley,
    check_family_one_params,
    pair_failure,
)


def cut_permutation(k: int, a: int, d: int) -> list[int]:
    """The cut permutation at cut value d, as an image list on 0..k-1."""
    a = check_family_one_params(k, a)
    if not 0 <= d < k:
        raise InputError(f"cut value d must satisfy 0 <= d < k, got {d}")
    phi = []
    for i in range(k):
        if i < d:
            phi.append((i + a + 1) % k)
        elif i == d:
            phi.append(a)
        else:
            phi.append((i + a) % k)
    return phi


def cut_set_values(k: int, a: int) -> list[int]:
    """Sorted cut values d whose cut permutation is a single k-cycle,
    read off the lattice ray system as prefix sums of multiplicities."""
    return lattice.ray_system(k, a).cut_values()


@dataclass(frozen=True)
class CutProfile:
    """Everything one (k, a) cell derives from its ray system.

    The profile keeps the ray system it was read from, so a caller that
    also needs the rays (the scan's sector checks, `hampair cuts`) builds
    it once.
    """

    k: int
    a: int
    Z: tuple[int, ...]
    delta: int
    witness: tuple[int, int]
    count_pair: tuple[int, int]
    ray_system: lattice.RaySystem = field(repr=False)

    @property
    def N(self) -> int:
        return self.k - 1


def cut_set(k: int, a: int) -> CutProfile:
    """Cut values, the reflection distance dist(Z, N-Z) with a witness,
    and the count pair, all read from one ray system.

    The witness is the lexicographically least pair (u, v) in Z x Z with
    u <= v attaining |u + v - N| = delta (lattice.reflection_distance).
    The count pair is as described in count_pair.
    """
    a = check_family_one_params(k, a)
    rs = lattice.ray_system(k, a)
    Z = rs.cut_values()
    delta, u, v = lattice.reflection_distance(Z, k - 1)
    return CutProfile(k, a, tuple(Z), delta, (u, v), _count_pair(k, a, Z), rs)


def _cut_walk(digraph: CayleyDigraph, k: int, a: int, d: int) -> LabeledWalk:
    """The standard cut candidate at d: from vertex a, step B (by a+1)
    from each vertex below d and A (by a) from the others."""
    labels = []
    x = a
    for _ in range(k - 1):
        if x < d:
            labels.append("B")
            x = (x + a + 1) % k
        else:
            labels.append("A")
            x = (x + a) % k
    return LabeledWalk(digraph, (a,), "".join(labels))


def cut_path(k: int, a: int, d: int) -> LabeledWalk:
    """The Hamiltonian cut path at d: from vertex a to vertex d, using
    exactly d arcs labeled B."""
    a = check_family_one_params(k, a)
    if d not in cut_set_values(k, a):
        raise InputError(f"d={d} is not a Hamiltonian cut value for {(k, a)}")
    walk = _cut_walk(cayley([k], a, a + 1), k, a, d)
    assert walk.end == (d % k,)
    return walk


def count_pair(k: int, a: int) -> tuple[int, int]:
    """A pair d, e of cut values with d + e in {k-2, k-1, k}.

    Preference order: sum k-1, then k-2, then k; within a sum class the
    pair with least d, then least e, subject to d <= e.  Existence is
    guaranteed by the reflection bound; absence would falsify it.
    """
    return cut_set(k, a).count_pair


def _count_pair(k: int, a: int, Z: list[int]) -> tuple[int, int]:
    members = set(Z)
    for target in (k - 1, k - 2, k):
        for d in Z:
            e = target - d
            if e >= d and e in members:
                return d, e
    raise AssertionError(
        f"no cut-value pair with sum in {{k-2, k-1, k}} for {(k, a)}: Z={Z}"
    )


@dataclass(frozen=True)
class RealizedPair:
    path1: LabeledWalk
    path2: LabeledWalk
    stage: str  # always "translate-count-pair"

    def __iter__(self):
        return iter((self.path1, self.path2))


def realize_disjoint_pair(k: int, a: int) -> RealizedPair:
    """Two verified arc-disjoint Hamiltonian paths in Cay(Z_k; a, a+1).

    Take the count pair (d, e), so d <= e and k-2 <= d+e <= k.  The cut
    path P at d starts at a and ends at d, so every vertex except d is a
    tail: its B-tails are exactly [0, d) and its A-tails exactly
    (d, k-1].  Likewise the cut path at e translated by h has B-tails
    exactly [h, h+e) and A-tails exactly the complement of [h, h+e]
    (intervals mod k).  Put h = d+1 if d+e < k and h = d if d+e = k.

    - B-arcs are disjoint: [h, h+e) lies in [d, k) because d <= h and
      h+e <= k, so it misses [0, d).
    - A-arcs are disjoint: the A-tails are the complements of [0, d]
      and [h, h+e], so they meet iff those closed intervals leave some
      vertex uncovered.  They cover Z_k because [h, h+e] starts at or
      before d+1 and ends at h+e >= k-1.

    Both paths and their arc-disjointness are re-verified before
    returning.
    """
    a = check_family_one_params(k, a)
    d, e = count_pair(k, a)
    h = d + 1 if d + e < k else d
    digraph = cayley([k], a, a + 1)
    p = _cut_walk(digraph, k, a, d)
    q = _cut_walk(digraph, k, a, e).translate(h)
    reason = pair_failure(digraph, p, q)
    if reason:
        raise RuntimeError(f"realized pair for {(k, a)} failed verification: {reason}")
    return RealizedPair(p, q, "translate-count-pair")


def valid_a_values(k: int) -> list[int]:
    """All generator residues a giving a well-formed first-family digraph."""
    return [a for a in range(1, k - 1)]


__all__ = [
    "CutProfile",
    "RealizedPair",
    "count_pair",
    "cut_path",
    "cut_permutation",
    "cut_set",
    "cut_set_values",
    "realize_disjoint_pair",
    "valid_a_values",
]
