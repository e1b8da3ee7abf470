"""The Cay(Z_k; -a, a+1) family with k = (2a+1) * L.

Modulo M = 2a+1 the two generators agree, so the digraph fibers over a
single quotient M-cycle.  Assigning the generator -a to a chosen set S
of quotient positions (and a+1 to the rest) defines a skew-product
permutation whose cycles are the orbits of the fiber return shift
a+1-|S|.  With |S| = a+2 the shift is -1 and the cover is one
Hamiltonian cycle; the complementary cover has shift +2 and either is
Hamiltonian too (L odd) or splits into two cycles joined by one splice
arc borrowed from the first cycle (L even).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

from .core import CayleyDigraph, InputError, LabeledWalk, cayley, pair_failure


@dataclass(frozen=True)
class QuotientFiberConfig:
    a: int
    L: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.L < 2:
            raise InputError(f"need a >= 1 and L >= 2, got {(self.a, self.L)}")

    @property
    def M(self) -> int:
        return 2 * self.a + 1

    @property
    def k(self) -> int:
        return self.M * self.L

    @property
    def gen_a(self) -> int:
        return (-self.a) % self.k

    @property
    def gen_b(self) -> int:
        return self.a + 1

    def digraph(self) -> CayleyDigraph:
        return cayley([self.k], self.gen_a, self.gen_b)

    def quotient_coordinate(self, x: int) -> int:
        """The unique t in Z_M with x = t*(a+1) mod M.

        Both generators advance t by one.
        """
        inv = pow(self.gen_b, -1, self.M)  # gcd(a+1, 2a+1) = 1
        return (x * inv) % self.M

    def canonical_S(self) -> frozenset[int]:
        """The deterministic choice of a+2 quotient positions."""
        return frozenset(range(self.a + 2))


@dataclass(frozen=True)
class SkewCover:
    """The permutation stepping by -a on quotient positions in S and by
    a+1 elsewhere, with its cycle decomposition."""

    config: QuotientFiberConfig
    S: frozenset[int]
    cycles: tuple[tuple[int, ...], ...]
    # steps[x % M] is the generator the permutation adds at x: the
    # quotient position of x depends only on x mod M, because M | k.
    steps: tuple[int, ...] = field(repr=False, compare=False)

    @property
    def return_shift(self) -> int:
        return self.config.a + 1 - len(self.S)

    def step(self, x: int) -> int:
        return (x + self.steps[x % self.config.M]) % self.config.k

    def cycle_of(self, x: int) -> tuple[int, ...]:
        for cyc in self.cycles:
            if x in cyc:
                return cyc
        raise KeyError(x)


def skew_cover(cfg: QuotientFiberConfig, S: Iterable[int]) -> SkewCover:
    M, k = cfg.M, cfg.k
    S = frozenset(t % M for t in S)
    inv = pow(cfg.gen_b, -1, M)  # gcd(a+1, 2a+1) = 1
    steps = tuple(cfg.gen_a if r * inv % M in S else cfg.gen_b for r in range(M))
    cycles = []
    seen = bytearray(k)
    for x0 in range(k):
        if seen[x0]:
            continue
        cyc = [x0]
        seen[x0] = 1
        x = (x0 + steps[x0 % M]) % k
        while x != x0:
            cyc.append(x)
            seen[x] = 1
            x = (x + steps[x % M]) % k
        cycles.append(tuple(cyc))
    cover = SkewCover(cfg, S, tuple(cycles), steps)
    assert len(cycles) == gcd(cfg.L, cover.return_shift)
    return cover


def _walk_from_vertices(d: CayleyDigraph, vertices: list[int]) -> LabeledWalk:
    """Recover the labels of a vertex sequence from its step differences."""
    k = d.group.orders[0]
    a = d.gen_a[0]
    b = d.gen_b[0]
    labels = []
    for u, v in zip(vertices, vertices[1:]):
        step = (v - u) % k
        if step == a:
            labels.append("A")
        elif step == b:
            labels.append("B")
        else:
            raise AssertionError(f"step {u} -> {v} uses neither generator")
    return LabeledWalk(d, (vertices[0],), "".join(labels))


def _cycle_as_path(d: CayleyDigraph, cyc: tuple[int, ...], tail: int) -> list[int]:
    """The cycle opened by removing the arc whose tail is `tail`:
    a vertex list starting at the successor of `tail` and ending at it."""
    i = cyc.index(tail)
    return list(cyc[i + 1 :] + cyc[: i + 1])


def build_family_two(a: int, L: int) -> tuple[LabeledWalk, LabeledWalk]:
    """Two verified arc-disjoint Hamiltonian paths in Cay(Z_k; -a, a+1).

    Path one deletes the arc leaving vertex 0 from the Hamiltonian cycle
    of the canonical cover.  Path two comes from the complementary
    cover: for odd L it is that cover minus its arc leaving 0; for even
    L the cover's two cycles are spliced along the first arc of the
    cycle (traversed from 0) that crosses between them, and the same arc
    is deleted from path one's cycle instead.
    """
    cfg = QuotientFiberConfig(a, L)
    d = cfg.digraph()
    k = cfg.k
    S = cfg.canonical_S()
    P = skew_cover(cfg, S)
    if len(P.cycles) != 1:
        raise RuntimeError(f"canonical cover is not a Hamiltonian cycle for {(a, L)}")
    p_cycle = P.cycle_of(0)

    Q = skew_cover(cfg, frozenset(range(cfg.M)) - S)
    expected = gcd(L, 2)
    if len(Q.cycles) != expected:
        raise RuntimeError(
            f"complementary cover has {len(Q.cycles)} cycles, expected {expected}"
        )

    if L % 2 == 1:
        path1 = _walk_from_vertices(d, _cycle_as_path(d, p_cycle, 0))
        path2 = _walk_from_vertices(d, _cycle_as_path(d, Q.cycle_of(0), 0))
    else:
        # First arc of P (from vertex 0) crossing the two complementary cycles.
        q0 = set(Q.cycles[0])
        splice = None
        i = p_cycle.index(0)
        ordered = p_cycle[i:] + p_cycle[:i]
        for u, v in zip(ordered, ordered[1:] + ordered[:1]):
            if (u in q0) != (v in q0):
                splice = (u, v)
                break
        if splice is None:
            raise RuntimeError(f"no crossing arc between complementary cycles for {(a, L)}")
        u, v = splice
        # Open the cycle through u after u, and the cycle through v before v.
        first_part = _cycle_as_path(d, Q.cycle_of(u), u)  # ends at u
        second = Q.cycle_of(v)
        j = second.index(v)
        second_part = list(second[j:] + second[:j])  # starts at v
        path2 = _walk_from_vertices(d, first_part + second_part)
        path1 = _walk_from_vertices(d, _cycle_as_path(d, p_cycle, u))

    reason = pair_failure(d, path1, path2)
    if reason:
        raise RuntimeError(f"family-two pair for {(a, L)} failed verification: {reason}")
    return path1, path2
