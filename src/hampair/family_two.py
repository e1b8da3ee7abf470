"""The Cay(Z_k; -a, a+1) family with k = (2a+1) * L.

Modulo M = 2a+1 the two generators agree, so the digraph fibers over a
single quotient M-cycle.  Assigning the generator -a to a chosen set S
of quotient positions (and a+1 to the rest) defines a skew-product
permutation whose cycles are the orbits of the fiber return shift
a+1-|S|.  With |S| = a+2 the shift is -1 and the cover is one
Hamiltonian cycle; the complementary cover has shift +2 and either is
Hamiltonian too (L odd) or splits into two cycles joined by the
canonical arc leaving 0 (L even).  A cover's labels depend only on the
quotient position, so build_family_two reads both paths' labels off
the two M-letter patterns; skew_cover computes the covers' cycles
themselves, the reference the tests and the demo check the paths
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Iterable

from .core import CayleyDigraph, InputError, LabeledWalk, cayley, check_pair


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


def skew_cover(cfg: QuotientFiberConfig, S: Iterable[int]) -> SkewCover:
    M, k = cfg.M, cfg.k
    S = frozenset(t % M for t in S)
    steps = tuple(cfg.gen_a if cfg.quotient_coordinate(r) in S else cfg.gen_b for r in range(M))
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


def build_family_two(a: int, L: int) -> tuple[LabeledWalk, LabeledWalk]:
    """Two verified arc-disjoint Hamiltonian paths in Cay(Z_k; -a, a+1),
    read off the quotient pattern.

    Both generators advance t by one and t(0) = 0, so t(-a) = t(a+1) = 1
    and the step with index i of a walk from either vertex leaves
    quotient position i+1 mod M.  Along a cover's walk the labels are
    therefore that cover's pattern over Z_M ("A" on S, "B" elsewhere),
    read cyclically.  P is the canonical pattern, "A"*(a+2) + "B"*(a-1),
    and Q its complement.

    M steps of a cover add M*(a+1-|S|), its return shift times M, so a
    cover splits into gcd(L, a+1-|S|) cycles.  The canonical cover has
    shift -1 and is one k-cycle: path one is that cycle opened after 0,
    from -a to 0, the labels of P from position 1.  The complement has
    shift +2: one k-cycle for odd L, whose opening after 0 is path two,
    from a+1 to 0, the labels of Q from position 1.

    For even L, write each vertex as c_t + M*j, where c_t is the vertex
    t < M complement steps after 0.  A complement step keeps the fiber
    index j (adding 2 after position M-1), so its two cycles are the
    even and the odd j.  At every vertex the canonical arc and the
    complement arc differ by -a - (a+1) = -M or by +M, so every
    canonical arc flips the parity of j and joins the two cycles.  Path
    two takes the complement cycle of 0 from a+1 to 0, the canonical
    arc 0 -> -a (step k/2 - 1, at position 0, becomes "A"), then the
    other complement cycle from -a: still Q from position 1, since
    t(-a) = 1.  Path one omits that arc, and every other arc of path
    two is a complement arc, which no canonical arc equals.  The pair
    is checked by core.check_pair before it is returned.
    """
    cfg = QuotientFiberConfig(a, L)
    d = cfg.digraph()
    S = cfg.canonical_S()
    P = "".join("A" if t in S else "B" for t in range(cfg.M))
    Q = P.translate(str.maketrans("AB", "BA"))
    labels1 = P[1:] + P * (L - 1)
    labels2 = Q[1:] + Q * (L - 1)
    if L % 2 == 0:
        i = cfg.k // 2 - 1
        labels2 = labels2[:i] + "A" + labels2[i + 1 :]
    path1 = LabeledWalk(d, (cfg.gen_a,), labels1)
    path2 = LabeledWalk(d, (cfg.gen_b,), labels2)
    check_pair(d, path1, path2, f"family-two pair for {(a, L)}")
    return path1, path2
