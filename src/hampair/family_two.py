"""The Cay(Z_k; -a, a+1) family with k = (2a+1) * L.

QuotientFiberConfig checks (a, L) and builds the digraph.
build_family_two takes its pair from the coset construction: the
quotient-fiber pair is the same-coset pair (cosets.same_coset_pairs)
with c = a-1 B-cosets, j_P = 0, j_Q the largest even number below L and
Q's end offset i = 1 for even L, 0 for odd L.

Modulo M = 2a+1 the two generators agree, so the digraph fibers over a
single quotient M-cycle.  Assigning the generator -a to a chosen set S
of quotient positions (and a+1 to the rest) defines a skew-product
permutation whose cycles are the orbits of the fiber return shift
a+1-|S|.  skew_cover computes a cover's cycles: the reference the tests
and the demo check the pair against.  Path one is the canonical cover
(|S| = a+2, shift -1, one k-cycle) opened after 0; path two follows the
complement (shift +2), one k-cycle for odd L and two cycles joined by
one canonical arc for even L.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple

from . import cosets
from .core import CayleyDigraph, InputError, LabeledWalk, _Record, cayley, check_pair


class QuotientFiberConfig(_Record):
    __slots__ = _fields = ("a", "L")

    def __init__(self, a: int, L: int) -> None:
        if a < 1 or L < 2:
            raise InputError(f"need a >= 1 and L >= 2, got {(a, L)}")
        self.a, self.L = a, L

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


class SkewCover(NamedTuple):
    """The permutation stepping by -a on quotient positions in S and by
    a+1 elsewhere, with its cycle decomposition."""

    config: QuotientFiberConfig
    S: frozenset[int]
    cycles: tuple[tuple[int, ...], ...]
    # steps[x % M] is the generator the permutation adds at x: the
    # quotient position of x depends only on x mod M, because M | k.
    steps: tuple[int, ...]

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
    """Two verified arc-disjoint Hamiltonian paths in Cay(Z_k; -a, a+1):
    the first pair of cosets.same_coset_pairs for one parameter choice.

    In the notation of hampair.cosets, A = -a and B = a+1, so
    delta = A - B = -(2a+1), of order n = L and index m = 2a+1, and
    m*A = (2a+1)(-a) = a*delta: sigma = a mod L.  P uses B on c = a-1
    cosets, so its first-return step is r_P = c - sigma = -1 and
    Z(L, -1) = {0} gives j_P = 0.  Q uses B on the other a+1, with step
    r_Q = m - 1 - c - sigma = 1.  Z(L, 1) is the set of even numbers
    below L: from 0 the cut permutation at j with step 1 runs
    0, 2, ..., j, 1, 3, ..., j-1, j+1, j+2, ..., L-1 for even j, one
    L-cycle, and 0, 2, ..., j-1, j+1, ..., L-1 back to 0 for odd j,
    missing j.  So j_Q = L-1 for odd L and L-2 for even L, the largest
    even number below L; j_P + j_Q is n-1 or n-2, and the pair rule
    gives Q's end offset i = j_P = 0 for odd L and i = j_P + 1 = 1 for
    even L, the constructor's first.

    Which a-1 of the 2a cosets after P's end carry B does not matter
    (path lemma, item 3); positions a+1, ..., 2a-1 of the C(2a, a-1)
    choices keep the quotient-fiber witnesses, which skew_cover
    describes.  The pair is checked by core.check_pair before it is
    returned.
    """
    d = QuotientFiberConfig(a, L).digraph()
    jq = L - 2 + L % 2
    path1, path2 = next(cosets.same_coset_pairs(cosets.coset_split(d), range(a + 1, 2 * a), 0, jq))
    check_pair(d, path1, path2, f"family-two pair for {(a, L)}")
    return path1, path2
