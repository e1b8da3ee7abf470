"""The Cay(Z_k; a, a+1) family: cut permutations, the Hamiltonian cut
set, reflection distance, count pairs, and realization of two
arc-disjoint Hamiltonian paths.

A standard cut candidate steps by a+1 below the cut value d and by a
above it; adjoining the formal closing step d -> a turns it into a
permutation of Z_k which is a k-cycle exactly when the candidate is a
Hamiltonian path.
"""

from __future__ import annotations

from typing import NamedTuple

from . import cosets, lattice
from .core import InputError, LabeledWalk, _Record, cayley, check_family_one_params, cut_walk


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
    read off the lattice ray system as prefix sums of multiplicities.
    No builder reads it; it stays while perfbench/spans.py wraps it by
    name."""
    return lattice.ray_system(k, check_family_one_params(k, a)).cut_values()


class CutProfile(NamedTuple):
    """Everything one (k, a) cell derives from its ray system.

    The profile keeps the ray system it was read from, so a caller that
    also needs the rays (the scan's sector checks, `hampair cuts`) builds
    it once; its repr leaves the rays out.
    """

    k: int
    a: int
    Z: tuple[int, ...]
    delta: int
    witness: tuple[int, int]
    count_pair: tuple[int, int]
    ray_system: lattice.RaySystem

    @property
    def N(self) -> int:
        return self.k - 1

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields[:-1], self))
        return f"CutProfile({fields})"


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
    others (core.cut_walk with n = k and step r = a: d is a cut value iff
    it gives k - 1 labels)."""
    a = check_family_one_params(k, a)
    labels = cut_walk(k, a, d) if 0 <= d < k else ""
    if len(labels) != k - 1:
        raise InputError(f"d={d} is not a Hamiltonian cut value for {(k, a)}")
    return LabeledWalk(cayley([k], a, a + 1), (a,), labels)


def count_pair(k: int, a: int) -> tuple[int, int]:
    """A pair d, e of cut values with d + e in {k-2, k-1, k}.

    Preference order: sum k-1, then k-2, then k; within a sum class the
    pair with least d, then least e, subject to d <= e.  Existence is
    guaranteed by the reflection bound; absence would falsify it.
    """
    return cut_set(k, a).count_pair


class RealizedPair(_Record):
    """Unpacks to its two paths, as a NamedTuple of three fields would not."""

    __slots__ = _fields = ("path1", "path2", "stage")

    def __init__(self, path1: LabeledWalk, path2: LabeledWalk, stage: str) -> None:
        self.path1, self.path2 = path1, path2
        self.stage = stage  # always "translate-count-pair"

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


__all__ = [
    "CutProfile",
    "RealizedPair",
    "count_pair",
    "cut_path",
    "cut_permutation",
    "cut_set",
    "cut_set_values",
    "realize_disjoint_pair",
]
