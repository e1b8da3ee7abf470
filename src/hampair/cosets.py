"""Arc-disjoint Hamiltonian path pairs in any two-generated abelian
Cayley digraph, built from the coset structure of its Hamiltonian paths.

Notation.  In D = Cay(G; a, b) put delta = a - b and H = <delta>, of
order n and index m.  As a = b + delta, both labels map the coset
C_i = i*a + H onto C_(i+1), so G/H is cyclic of order m, generated by
a's coset, and m*a = sigma*delta for one sigma in Z_n.  n >= 2, as
a != b.  Z(n, r), for r in Z_n, is the set of cut values j whose cut
permutation of Z_n, w -> w + r + 1 for w < j, j -> r, w -> w + r for
w > j, is one n-cycle, read from the Farey ray walk (lattice.cut_stream)
at every step r: for 0 < r < n - 1 the cut set of Cay(Z_n; r, r + 1),
and at the two other steps the walk gives Z(n, 0) = {n - 1} (for
j < n - 1 the cut permutation fixes n - 1) and Z(n, -1) = {0} (for
j > 0 it fixes 0).  This covers n <= 2, where r is 0 or -1.

Path lemma.  Let P be a Hamiltonian path of D from s to t, and let c be
the number of cosets other than t's on which P uses B.

1. Every vertex but t is a tail of P.  Tails v and v + delta labelled
   A and B would share the head v + a, so on a coset whose every vertex
   is a tail, A at v forces A at v + delta: P uses one label on each
   coset other than t's.
2. On t's coset, read as t + delta, ..., t + (n-1)*delta, the same step
   shows that A is never followed by B: the labels are B^j A^(n-1-j)
   for one j in [0, n-1].  Their heads are t + a + i*delta for every i
   but j, and a vertex of C_(i+1) can only be entered from C_i, so
   s = t + a + j*delta.
3. Close P by the arc t -> s.  The result phi is a permutation of G
   that maps each coset onto the next, so every cycle of phi meets t's
   coset, and P is Hamiltonian iff the first-return map psi of phi on
   t's coset is one n-cycle.  From t + i*delta a round adds the first
   step (a, b = a - delta, or s - t) and then (m-1)*a - c*delta for the
   other cosets, so with r = c - sigma, psi sends i to i - r - 1 for
   1 <= i <= j, to i - r for j < i < n, and 0 to j - r.  Under
   w = j - i this is the cut permutation at j with step r.  So P is
   Hamiltonian iff j is in Z(n, c - sigma): only the number of
   B-cosets matters, not which ones.  Every such choice of t, labels
   and j does give a Hamiltonian path, as phi is then one cycle.
4. P visits the cosets in cyclic order from s's, so its labels are the
   m - 1 labels of the cosets after t's (the pattern) once per round,
   each round followed by the label of the vertex of t's coset it
   reaches; those vertices are w = r, psi(r), ..., j, B below j and A
   above: the cut walk of core.cut_walk, which reaches j first at its
   last step.  It is built run by run, in O(min(j, n - 1 - j)) Python
   steps when that is small.
5. Parity: every j in Z(n, r) is gcd(r, n) - 1 mod 2.  The cut
   permutation at j is the (j + 1)-cycle 0 -> 1 -> ... -> j -> 0
   followed by the rotation w -> w + r, whose gcd(r, n) cycles have
   n / gcd(r, n) points each.  Its sign is (-1)^j * (-1)^(n - gcd(r, n)),
   and an n-cycle's is (-1)^(n - 1).  (At r = 0, gcd(0, n) = n.)
6. Mirror: Z(n, -1 - r) = N - Z(n, r), N = n - 1, for every step r.
   Conjugating by the involution x -> N - x = -1 - x maps the cut
   permutation at (r, j) onto the one at (-1 - r, N - j): for x > N - j
   it sends x to x + (-1 - r), N - j to -1 - r, and x < N - j to
   x + (-1 - r) + 1.  A conjugate of an n-cycle is one.  So Z(n, r)
   descending is N minus Z(n, -1 - r) ascending, and one forward walk
   gives both directions.

Pair rule.  Let Q be a second Hamiltonian path, with end t_Q, cut value
j_Q and c_Q B-cosets.  Two walks share an arc iff some tail carries the
same label in both, so on a coset that holds neither end Q is
arc-disjoint from P iff it uses the other label there.

- Ends in one coset, t_Q = t + i*delta.  Then c_Q = m - 1 - c.  On that
  coset the B-tails of Q, {i + 1, ..., i + j_Q}, must lie in the A-tails
  of P or at t, {j + 1, ..., n}, and its A-tails, the next n - 1 - j_Q
  in cyclic order, in {0, ..., j}.  If 0 < j < n - 1, Q's B-tails must
  hold {j + 1, ..., n - 1} but i, and its A-tails {1, ..., j} but i,
  so i is j or j + 1: i = j needs j + j_Q in {n - 1, n}, and
  i = j + 1 needs j + j_Q in {n - 2, n - 1}.  If j = 0 every tail but
  i may be B in Q: j_Q = n - 1 with any i, or j_Q = n - 2 with i = 1,
  as 0 must be Q's one A-tail.  j = n - 1 is the mirror case: j_Q = 0
  with any i, or j_Q = 1 with i = n - 1.  In all: j_P + j_Q is in
  {n - 2, n - 1, n}, i is j_P if the sum is n - 1 or n and j_P + 1 if
  it is n - 2 or n - 1, and any i works when {j_P, j_Q} = {0, n - 1}.
- Ends in two cosets.  P's end coset then holds n - 1 tails of P and n
  tails of Q, so P uses one label on it, j_P is 0 (all A, Q uses B) or
  n - 1 (all B, Q uses A), and likewise j_Q on Q's end coset.  Q's end
  may be any vertex of its coset, and of the m - 2 other cosets any may
  be P's B-cosets; the B-counts follow.

For m = 1 this is family one's count pair: D = Cay(Z_k; a, a+1) with
A = a has delta = -1, n = k, sigma = -a, so r = a, and the
cut-reflection theorem guarantees a pair (j_P, j_Q) of Z(k, a) with
j_P + j_Q in {k - 2, k - 1, k}.

Every path P built here starts at a, as family one's cut path does:
its end is -j_P*delta.  same_coset_pairs builds the pairs with both ends
in one coset, for iter_pairs and for family two's parameter choice;
each caller checks every pair it yields or returns once, by
core.check_pair.  delta, n, m and sigma come from core.coset_split,
which core's pair check reads as well (its column rule).
"""

from __future__ import annotations

from itertools import chain, combinations, product
from typing import Collection, Iterable, Iterator, Reversible

from . import lattice
from .core import _SWAP, CayleyDigraph, CosetSplit, LabeledWalk, check_pair, coset_split, cut_walk


class Cuts:
    """Z(n, r), walked afresh on each pass and kept nowhere: iter gives
    it ascending from lattice.cut_stream at step r, and reversed gives it
    descending as N - Z(n, -1 - r) ascending (path lemma, item 6)."""

    __slots__ = ("n", "r")

    def __init__(self, n: int, r: int) -> None:
        self.n, self.r = n, r

    def __iter__(self) -> Iterator[int]:
        return lattice.cut_stream(self.n, self.r)

    def __reversed__(self) -> Iterator[int]:
        N = self.n - 1
        return (N - j for j in lattice.cut_stream(self.n, -1 - self.r))


def hamiltonian_cuts(n: int, r: int) -> list[int]:
    """Z(n, r) as a sorted list: the cut values j of a Hamiltonian path
    whose end coset has first-return step r (path lemma, item 3).  The
    builders read Cuts instead; the tests read this list."""
    return list(Cuts(n, r))


def count_pairs(n: int, zp: Reversible[int], zq: Reversible[int]) -> Iterator[tuple[int, int]]:
    """The pairs (j_P, j_Q) in zp x zq with j_P + j_Q in {n-2, n-1, n},
    sum n-1 first, then n-2, then n, and least j_P first within a sum.
    When zp = zq the first has j_P <= j_Q, as its mirror comes later.

    zp and zq are re-iterable sets of one parity each, as every Z(n, r)
    is (path lemma, item 5): iter(zp) must run ascending and reversed(zq)
    descending, without repeats, as a Cuts or a sorted list does.  Each
    target is one two-pointer pass over fresh iterators, in O(1) memory,
    and a target whose parity differs from that of the first two values
    read is skipped unread.  A reader that stops at the first pair walks
    the cut streams only up to it."""
    ip, iq = iter(zp), reversed(zq)
    x, y = next(ip, None), next(iq, None)
    if x is None or y is None:
        return
    parity = (x + y) % 2
    for target in (n - 1, n - 2, n):
        if target % 2 != parity:
            continue
        if ip is None:
            ip, iq = iter(zp), reversed(zq)
            x, y = next(ip), next(iq)
        while True:
            s = x + y - target
            if s == 0:
                yield x, y
            if s <= 0:
                x = next(ip, None)
                if x is None:
                    break
            if s >= 0:
                y = next(iq, None)
                if y is None:
                    break
        ip = None


def _labels(n: int, pattern: str, r: int, j: int) -> str:
    """A path's labels: the pattern once per round, each round followed
    by the label of the cut walk at j with step r (path lemma, item 4)."""
    walk, closes = cut_walk(n, r, j)
    assert closes, (n, r, j)
    # In rows of width len(pattern) + 1, each row is one round and one
    # walk label (the last row a round alone), so the walk is the last
    # column and one slice writes it; str.join would first make a list
    # of the walk's n - 1 characters.
    width = len(pattern) + 1
    labels = bytearray(((pattern + "A") * (n - 1) + pattern).encode())
    labels[width - 1 :: width] = walk.encode()
    return labels.decode()


def _pattern(size: int, b_positions: Iterable[int]) -> str:
    """size labels, B at b_positions and A elsewhere."""
    labels = bytearray(b"A" * size)
    for i in b_positions:
        labels[i] = ord("B")
    return labels.decode()


def same_coset_pairs(
    split: CosetSplit, b_cosets: Collection[int], jp: int, jq: int
) -> Iterator[tuple[LabeledWalk, LabeledWalk]]:
    """The pairs (P, Q) with both ends in one coset (pair rule): P starts
    at a, uses B on the cosets at b_cosets, of the m - 1 cosets after its
    end's in the order P visits them, and has cut value jp; Q uses the
    other label on each of them and has cut value jq.  jp must be in
    Z(n, c - sigma) and jq in Z(n, m - 1 - c - sigma), c = len(b_cosets).
    One pair for each offset i of Q's end t + i*delta from P's end t:
    i = jp if jp + jq is n - 1 or n, then i = jp + 1 if it is n - 2 or
    n - 1, then every other i if {jp, jq} = {0, n - 1}.  P and Q's labels
    are built once."""
    n, m, sigma = split.n, split.m, split.sigma
    c = len(b_cosets)
    pattern = _pattern(m - 1, b_cosets)
    p = LabeledWalk(split.digraph, split.vertex(1, 0), _labels(n, pattern, c - sigma, jp))
    q_labels = _labels(n, pattern.translate(_SWAP), m - 1 - c - sigma, jq)
    ends = []
    if jp + jq in (n - 1, n):
        ends.append(jp)
    if jp + jq in (n - 2, n - 1):
        ends.append((jp + 1) % n)
    if {jp, jq} == {0, n - 1}:
        ends = chain(ends, (i for i in range(n) if i not in (jp, (jp + 1) % n)))
    for i in ends:
        # P from a ends at t = -jp*delta, and Q from a + (i - jp + jq)*delta
        # at t + i*delta.
        yield p, LabeledWalk(split.digraph, split.vertex(1, i - jp + jq), q_labels)


def _structured_pairs(split: CosetSplit) -> Iterator[tuple[LabeledWalk, LabeledWalk]]:
    n, m, sigma = split.n, split.m, split.sigma
    # Both ends in one coset.
    for c in range(m):
        zp, zq = Cuts(n, c - sigma), Cuts(n, m - 1 - c - sigma)
        if next(count_pairs(n, zp, zq), None) is None:
            continue
        for bs in combinations(range(m - 1), c):
            for jp, jq in count_pairs(n, zp, zq):
                yield from same_coset_pairs(split, bs, jp, jq)
    # Ends in two cosets: P's in C_0 and Q's in C_kappa.  P uses B on C_0
    # iff j_P = n - 1 and on C_kappa iff j_Q = 0, and Q the other label.
    for jp, jq in product((0, n - 1), repeat=2):
        for kappa in range(1, m):
            others = [i for i in range(1, m) if i != kappa]
            forced = [i for i, b in ((0, jp == n - 1), (kappa, jq == 0)) if b]
            for b in range(m - 1):
                cp, cq = b + (jq == 0), m - 2 - b + (jp == 0)
                if not (cut_walk(n, cp - sigma, jp)[1] and cut_walk(n, cq - sigma, jq)[1]):
                    continue
                for bs in combinations(others, b):
                    full = _pattern(m, [*forced, *bs])  # P's labels on C_0, ..., C_(m-1)
                    p_labels = _labels(n, full[1:], cp - sigma, jp)
                    p = LabeledWalk(split.digraph, split.vertex(1, 0), p_labels)
                    sq = full.translate(_SWAP)
                    q_labels = _labels(n, sq[kappa + 1 :] + sq[:kappa], cq - sigma, jq)
                    for h in range(n):
                        yield p, LabeledWalk(split.digraph, split.vertex(kappa + 1, h), q_labels)


def iter_pairs(d: CayleyDigraph) -> Iterator[tuple[LabeledWalk, LabeledWalk]]:
    """Every ordered pair (P, Q) of arc-disjoint Hamiltonian paths of the
    two-generated digraph d whose P starts at a, each checked by
    core.check_pair: by the pair rule, one pair of each orbit under
    translation.  Both ends in one coset come first, by the number c of
    P's B-cosets, the B-cosets in combinations order, count_pairs'
    order and the offset of Q's end; then ends in two cosets.

    Raises RuntimeError if a pair fails its check, which would refute
    the pair rule.
    """
    for p, q in _structured_pairs(coset_split(d)):
        check_pair(d, p, q, f"coset pair for {_name(d)}")
        yield p, q


def find_pair(d: CayleyDigraph) -> tuple[LabeledWalk, LabeledWalk]:
    """The first pair of iter_pairs(d), checked as iter_pairs checks it.
    Raises RuntimeError, naming d, if there is none, which would refute
    the paper's theorem.  The search keeps no cut set: it stops its cut
    streams at the first count pair."""
    pair = next(_structured_pairs(coset_split(d)), None)
    if pair is None:
        raise RuntimeError(f"{_name(d)} has no arc-disjoint Hamiltonian path pair")
    check_pair(d, *pair, f"coset pair for {_name(d)}")
    return pair


def _name(d: CayleyDigraph) -> str:
    group = " x ".join(f"Z_{o}" for o in d.group.orders)
    a, b = (str(g[0]) if len(g) == 1 else str(g) for g in d.gens)
    return f"Cay({group}; {a}, {b})"
