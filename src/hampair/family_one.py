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

from . import cosets, lattice
from .core import InputError, LabeledWalk, cayley, check_family_one_params


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
    pair = next(cosets.count_pairs(k, Z, Z), None)
    if pair is None:
        raise AssertionError(f"no cut-value pair with sum in {{k-2, k-1, k}} for {(k, a)}: Z={Z}")
    return CutProfile(k, a, tuple(Z), delta, (u, v), pair, rs)


def cut_path(k: int, a: int, d: int) -> LabeledWalk:
    """The Hamiltonian cut path at d: from vertex a to vertex d, using
    exactly d arcs labeled B, B from each vertex below d and A from the
    others (core.cut_walk with n = k and step r = a)."""
    a = check_family_one_params(k, a)
    if d not in cut_set_values(k, a):
        raise InputError(f"d={d} is not a Hamiltonian cut value for {(k, a)}")
    return LabeledWalk(cayley([k], a, a + 1), (a,), cosets._labels(k, "", a, d))


def count_pair(k: int, a: int) -> tuple[int, int]:
    """A pair d, e of cut values with d + e in {k-2, k-1, k}.

    Preference order: sum k-1, then k-2, then k; within a sum class the
    pair with least d, then least e, subject to d <= e.  Existence is
    guaranteed by the reflection bound; absence would falsify it.
    """
    return cut_set(k, a).count_pair


@dataclass(frozen=True)
class RealizedPair:
    path1: LabeledWalk
    path2: LabeledWalk
    stage: str  # always "translate-count-pair"

    def __iter__(self):
        return iter((self.path1, self.path2))


def realize_disjoint_pair(k: int, a: int) -> RealizedPair:
    """Two verified arc-disjoint Hamiltonian paths in Cay(Z_k; a, a+1):
    the first pair of cosets.iter_pairs, the index-one case of the coset
    construction.

    With A = a the digraph is the one coset of <-1>, with n = k and
    first-return step r = a, so the first pair is built from the count
    pair (d, e) of cut_set.  P is the cut path at d, from a to d.  Q's
    end lies i = d (sums k - 1 and k) or i = d + 1 (sum k - 2) steps of
    -1 from d, at 0 or at k - 1, so Q is the cut path at e translated by
    h = d + 1 if d + e < k and by h = d if d + e = k.  cosets.iter_pairs
    checks the pair before it is returned.
    """
    a = check_family_one_params(k, a)
    p, q = cosets.find_pair(cayley([k], a, a + 1))
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
