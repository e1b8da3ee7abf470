"""Lattice parametrization of the Hamiltonian cut set.

The cut values of Cay(Z_k; a, a+1) are prefix sums of multiplicities of
slope-ordered primitive rays in a triangle attached to (k, a).  This
module computes that ray system exactly (integer arithmetic only, the
rays in slope order by the Farey next-term rule, O(1) per ray), whose
boundary and internal multiplicities are the cut set's endpoint caps and
internal half-gaps; the gcd formula for the caps, which the scan checks
against the rays; the sector-filling counts (O(1) per pair from the ray
system's prefix sums and a closed form for theta); the reflection
distance; and the reflected gap graph diagnostic.

The ray system is defined for every step a mod k, k >= 1: its cut values
are Z(k, a) of hampair.cosets, at every first-return step, a = 0 and
a = -1 included.  The family-one digraph needs a not in {0, k-1} mod k;
its entry points (hampair.family_one, endpoint_caps, `hampair rays`)
check that, not the ray walk.

The builders need no rays: cut_stream runs the same walk and yields the
cut values one by one, keeping nothing, and hampair.cosets reads Z(n, r)
from it (descending too, through the mirror Z(n, -1 - r) = N - Z(n, r)),
stopping at its first count pair.  Only the scan and the `cuts` and
`rays` commands build a ray system.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Iterator, NamedTuple

from .core import InputError, _Record, check_family_one_params

Ray = tuple[int, int]


class LatticeParams(NamedTuple):
    k: int
    a: int
    m: int  # order of a in Z_k
    n: int  # index of <a> in Z_k
    e: int  # n(a+1) = e*a (mod k), 0 <= e < m

    @property
    def N(self) -> int:
        return self.k - 1

    def L(self, x: int, y: int) -> int:
        """The linear form whose level set L = k bounds the triangle."""
        return self.m * x + (self.n - self.e) * y


def lattice_params(k: int, a: int) -> LatticeParams:
    if k < 1:
        raise InputError(f"need k >= 1, got k={k}")
    a %= k
    n = gcd(k, a)
    m = k // n
    # n(a+1) = e*a (mod k) divided by n: a+1 = e*(a/n) (mod m), and a/n
    # is a unit mod m.
    e = (a + 1) * pow(a // n, -1, m) % m
    # The congruence that defines e.  For a not 0 mod k it fails for
    # e +- 1; a = 0 has m = 1, where e = 0 is the only residue.
    assert n * (a + 1) % k == e * a % k, (k, a, e)
    return LatticeParams(k, a, m, n, e)


def _primitive(v: Ray) -> Ray:
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _last_ray(p: LatticeParams) -> Ray:
    """The boundary ray that ends the walk: (e, m) made primitive, or
    (0, 1) when e = 0."""
    return _primitive((p.e, p.m)) if p.e != 0 else (0, 1)


class RaySystem(_Record):
    _fields = ("params", "rays", "mults")
    __slots__ = (*_fields, "cuts", "_prefix", "_large")  # cuts: see cut_values

    def __init__(
        self, params: LatticeParams, rays: tuple[Ray, ...], mults: tuple[int, ...]
    ) -> None:
        self.params = params
        self.rays = rays  # slope-ordered, boundary rays first and last
        self.mults = h = mults
        doubled = (2 * x for x in itertools.islice(h, 1, len(h) - 1))
        self.cuts = tuple(itertools.accumulate(doubled, initial=h[0]))
        self._prefix = self._large = None

    @property
    def prefix(self) -> tuple[int, ...]:
        """prefix[i] = mults[0] + ... + mults[i-1], for 0 <= i <= f,
        computed on first read: the builds read only the cut values."""
        if self._prefix is None:
            self._prefix = tuple(itertools.accumulate(self.mults, initial=0))
        return self._prefix

    @property
    def large(self) -> tuple[int, ...]:
        """The indices of the rays of multiplicity >= 2, ascending,
        computed on first read: the only rays the scan's sector-filling,
        adjacent-large and cap2 checks can fail on."""
        if self._large is None:
            self._large = tuple([i for i, x in enumerate(self.mults) if x >= 2])
        return self._large

    @property
    def f(self) -> int:
        return len(self.rays)

    def cut_values(self) -> list[int]:
        """Prefix-sum cut values U_1, ..., U_{f-1}: U_1 = mults[0] and
        U_{q+1} = U_q + 2 * mults[q], as a fresh list; the tuple `cuts`
        holds the same values."""
        return list(self.cuts)


def _internal_rays(p: LatticeParams, last: Ray) -> Iterator[tuple[int, int, int]]:
    """Yield (x, y, L(x, y)) for the primitive rays (x, y) strictly
    between (1, 0) and `last` with L <= N, in slope order, each ray made
    from the two before it by the Farey next-term rule.  Their
    multiplicities are N // L.

    From v[-1] = (0, -1) and v[0] = (1, 0), the next ray is v[i+1] =
    t*v[i] - v[i-1] with t = (N + L(v[i-1])) // L(v[i]), the largest t
    with L(v[i+1]) <= N, and the walk stops at the first v[i+1] whose
    slope is >= slope(last).  It lists exactly the rays of the region:

    - L is positive on the closed cone: L(1, 0) = m and L(e, m) = mn.
    - Let u be (1, 0) or a ray of the region, and w the region's next
      ray after u.  A lattice point p of the triangle 0, u, w other than
      its corners is p = alpha*u + beta*w with alpha < 1 and alpha +
      beta <= 1, so L(p) <= alpha*(N + 1) + (1 - alpha)*N < N + 1, as
      L(u) <= m <= mn = N + 1.  Its slope lies strictly between theirs
      (u and w are primitive), so its primitive ray, with L no larger,
      would lie in the region between u and w.  There is no such p, and
      by Pick's theorem det(u, w) = 1.
    - The seed has det(v[-1], v[0]) = 1, even when n = 1 and L(1, 0) =
      m > N.  Inductively det(v[i], v[i+1]) = det(v[i-1], v[i]) = 1, so
      v[i+1] + v[i-1] is parallel to v[i]: the next ray is t*v[i] -
      v[i-1] for some t.  Along that line slope falls and L rises with
      t, so it is the point of largest t with L <= N if that point's
      slope is below slope(last), and there is no next ray otherwise.
    - det(v[i], v) = 1 puts each candidate v in the half-plane left of
      v[i], where the test det(last, v) >= 0 is exactly slope(v) >=
      slope(last).  Slopes rise strictly, so the walk ends; t <= 0 gives
      v = t*v[i] - v[i-1] with x <= 0, which fails the test.
    - The steps a = 0 (m = 1, n = k) and a = -1 (n = 1, m = k) have
      e = 0 and last = (0, 1), and their region is empty: a ray inside
      the quadrant has x, y >= 1, so L >= m + n > N = mn - 1, as
      (m - 1)(n - 1) = 0.  The walk agrees at its first step.  For
      m = 1, L(1, 0) = 1 and t = (N - n) // 1 = -1 gives (-1, 1); for
      n = 1 and k >= 2, t = (N - 1) // k = 0 gives (0, 1).  Both fail
      the test, so the one cut value is mults[0] = N // m: k - 1
      at a = 0 and 0 at a = -1, which are Z(k, 0) and Z(k, -1).
    """
    N, m, c = p.N, p.m, p.n - p.e
    lx, ly = last
    ux, uy, uL = 0, -1, -c  # v[i-1] and its L
    x, y, L = 1, 0, m  # v[i] and its L
    while True:
        t = (N + uL) // L
        ux, uy, uL, x, y, L = x, y, L, t * x - ux, t * y - uy, t * L - uL
        if y * lx >= x * ly:
            return
        yield x, y, L


def ray_system(k: int, a: int) -> RaySystem:
    """Slope-ordered primitive rays of the (k, a) triangle with their
    multiplicities H = floor(N / L)."""
    p = lattice_params(k, a)
    N, m = p.N, p.m
    last = _last_ray(p)
    # the boundary rays (1, 0), with L = m, and last around the walk's.
    # Each list is dropped as soon as its tuple is made, so no two copies
    # of one outlive the next: at k = 1,206,000 that keeps the traced
    # peak at 58 MB, against 65 MB with both lists alive.
    rays: list[Ray] = [(1, 0)]
    mults = [N // m]
    # Closed here, not by its finalizer as a failure unwinds this frame:
    # a close that fails too, as it may while memory is short, then
    # raises, where the finalizer could only print "Exception ignored
    # in: " to stderr ahead of the CLI's one line.
    walk = _internal_rays(p, last)
    try:
        for x, y, L in walk:
            rays.append((x, y))
            mults.append(N // L)
    finally:
        walk.close()
    rays.append(last)
    mults.append(N // p.L(*last))
    ray_tuple = tuple(rays)
    del rays
    mult_tuple = tuple(mults)
    del mults
    rs = RaySystem(p, ray_tuple, mult_tuple)
    # endpoint identity of the parametrization
    assert rs.cuts[-1] + rs.mults[-1] == N, rs
    return rs


def cut_stream(k: int, a: int) -> Iterator[int]:
    """The cut values of ray_system(k, a), ascending, read off the same
    Farey walk as it runs: U_1 = N // m, then U_(q+1) = U_q + 2 * N // L
    for each internal ray.  No ray is kept, so a reader that stops early
    (the builders' count-pair search) walks only as far as it reads."""
    p = lattice_params(k, a)
    N = p.N
    u = N // p.m
    yield u
    for _, _, L in _internal_rays(p, _last_ray(p)):
        u += 2 * (N // L)
        yield u


def endpoint_caps(k: int, a: int) -> tuple[int, int]:
    """The boundary multiplicities flanking the cut set, by their gcd
    formula; the scan checks them against the ray system's."""
    a = check_family_one_params(k, a)
    return gcd(k, a) - 1, gcd(k, a + 1) - 1


def theta(p: int, q: int) -> int:
    """Number of positive integer pairs (r, s) with r/p + s/q <= 1.

    These are the lattice points of the triangle (0, 0), (p, 0), (0, q)
    that lie inside it or on the open hypotenuse.  With g = gcd(p, q)
    the boundary holds p + q + g lattice points, so by Pick's theorem,
    pq/2 = I + (p + q + g)/2 - 1, the open triangle holds
    I = ((p-1)(q-1) - g + 1)/2 of them.  The open hypotenuse holds
    g - 1, which gives ((p-1)(q-1) + g - 1)/2 in all.
    """
    if p < 1 or q < 1:
        raise InputError(f"theta needs p, q >= 1, got {(p, q)}")
    return ((p - 1) * (q - 1) + gcd(p, q) - 1) // 2


def sector_mass(rs: RaySystem, i: int, j: int) -> int:
    """Total multiplicity of the rays strictly between rays i and j
    (0-based indices into the slope order)."""
    if not 0 <= i < j < rs.f:
        raise InputError(f"ray indices out of range: {(i, j)} with f={rs.f}")
    return rs.prefix[j] - rs.prefix[i + 1]


def reflection_distance(zs: list[int] | tuple[int, ...], N: int) -> tuple[int, int, int]:
    """(delta, u, v) for a sorted, duplicate-free nonempty set Z, where
    delta = dist(Z, N - Z) = min |u + v - N| over u, v in Z and (u, v) is
    the lexicographically least pair with u <= v attaining it.

    One two-pointer pass suffices: a pair it skips is beaten by a
    visited pair with a smaller |u + v - N|, or with the same excess and
    a smaller u.  The pass visits u in ascending and v in descending
    order, so a later pair of the same excess wins only with the same
    index i, and then with a smaller v: no tuple is built per step.
    """
    if not zs:
        raise InputError("cut set must be nonempty")
    i, j = 0, len(zs) - 1
    best, bi, bj = abs(zs[i] + zs[j] - N), i, j
    while i <= j:
        s = zs[i] + zs[j] - N
        d = s if s >= 0 else -s
        if d < best or d == best and i == bi:
            best, bi, bj = d, i, j
        if s > 0:
            j -= 1
        elif s < 0:
            i += 1
        else:
            break
    return best, zs[bi], zs[bj]


def sector_filling_violations(rs: RaySystem) -> list[tuple[int, int, int, int]]:
    """(i, j, mass, bound) for each pair of rays i < j, both of positive
    multiplicity p and q, whose sector mass falls below theta(p, q).

    theta(1, q) = theta(p, 1) = 0 and a mass is never negative, so only
    pairs of rays of multiplicity >= 2, from rs.large, are looked at;
    each costs O(1).  The mass and theta are sector_mass and theta
    inlined: indices from the ray system need no range checks.  A pair
    with 2 * mass >= pq holds without its gcd: gcd(p, q) <= min(p, q),
    so 2 * theta(p, q) <= (p-1)(q-1) + min(p, q) - 1 = pq - max(p, q) < pq.
    """
    h, prefix = rs.mults, rs.prefix
    out = []
    for i, j in itertools.combinations(rs.large, 2):
        p, q = h[i], h[j]
        mass = prefix[j] - prefix[i + 1]
        if 2 * mass >= p * q:
            continue
        bound = ((p - 1) * (q - 1) + gcd(p, q) - 1) // 2
        if mass < bound:
            out.append((i, j, mass, bound))
    return out


class ReflectedGapGraph(NamedTuple):
    """Pairs of cut values at the minimal reflected distance.

    A negative edge joins u, v with u + v = N - delta; a positive edge
    joins u, v with u + v = N + delta.  A value u with 2u = N +- delta
    contributes the loop (u, u).  Diagnostic only.
    """

    N: int
    delta: int
    vertices: tuple[int, ...]
    negative_edges: tuple[tuple[int, int], ...]
    positive_edges: tuple[tuple[int, int], ...]


def reflected_gap_graph(
    Z: list[int] | tuple[int, ...], N: int, delta: int
) -> ReflectedGapGraph:
    """The gap graph of a sorted, duplicate-free nonempty set Z, where
    delta is its reflection distance, reflection_distance(Z, N)[0]."""
    if not Z:
        raise InputError("cut set must be nonempty")
    members = set(Z)

    def edges(total: int) -> tuple[tuple[int, int], ...]:
        return tuple((u, total - u) for u in Z if u <= total - u and total - u in members)

    return ReflectedGapGraph(N, delta, tuple(Z), edges(N - delta), edges(N + delta))


def cap2_violations(rs: RaySystem) -> list[tuple[str, Ray, int, int]]:
    """(side, ray, mass, required) for each boundary-cap mass bound
    that fails, for an endpoint cap of multiplicity two.

    For each internal ray of multiplicity alpha on the side of a cap of
    multiplicity 2, the mass between the cap and the ray must be at
    least alpha - 2, strengthened to alpha - 1 when N = 4*alpha - 2.
    Side "L" is the first ray's cap and "R" the last's; no bound applies
    unless one of the caps equals 2.  The mass is sector_mass inlined, as
    in sector_filling_violations.

    Only the internal rays of rs.large are looked at.  A ray of
    multiplicity alpha <= 1 can fail no bound: alpha - 2 is negative,
    and alpha - 1 applies only when N = 4*alpha - 2, which for alpha = 1
    is N = 2 with a required mass of 0 (for alpha = 0 it would be
    N = -2).  A mass is never negative, as no multiplicity is.
    """
    h, last = rs.mults, rs.f - 1
    out = []
    for side, cap in (("L", 0), ("R", last)):
        if h[cap] != 2:
            continue
        N, prefix = rs.params.N, rs.prefix
        for r in rs.large:
            if not 0 < r < last:
                continue
            alpha = h[r]
            mass = prefix[r] - prefix[1] if cap == 0 else prefix[cap] - prefix[r + 1]
            required = alpha - 1 if N == 4 * alpha - 2 else alpha - 2
            if mass < required:
                out.append((side, rs.rays[r], mass, required))
    return out
