import contextlib
import hashlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampair import lattice
from hampair.cli import main
from hampair.core import InputError
from hampair.family_one import cut_set_values
from hampair.lattice import (
    RaySystem,
    cap2_violations,
    cut_stream,
    endpoint_caps,
    lattice_params,
    ray_system,
    reflected_gap_graph,
    reflection_distance,
    sector_filling_violations,
    sector_mass,
    theta,
)
from hampair.oracle import oracle_cut_set


def test_lattice_params_10_4():
    p = lattice_params(10, 4)
    assert (p.m, p.n, p.e, p.N) == (5, 2, 0, 9)
    assert p.L(1, 0) == 5 and p.L(0, 1) == 2


def test_lattice_params_coprime_case():
    p = lattice_params(7, 3)
    assert p.n == 1 and p.m == 7


def test_lattice_params_15_3():
    p = lattice_params(15, 3)
    assert (p.m, p.n, p.N) == (5, 3, 14)


def test_lattice_params_needs_a_positive_k():
    for k in (0, -3):
        with pytest.raises(InputError):
            lattice_params(k, 0)
        with pytest.raises(InputError):
            ray_system(k, 1)


def test_lattice_params_e_is_the_least_solution():
    # e is the unique 0 <= e < m with n(a+1) = e*a (mod k)
    for k in range(3, 80):
        for a in range(1, k - 1):
            p = lattice_params(k, a)
            target = p.n * (a + 1) % k
            assert [e for e in range(p.m) if e * a % k == target] == [p.e], (k, a)


def test_lattice_params_checks_its_congruence(monkeypatch):
    # An inverse off by one gives e = 3 for (15, 3), where e = 4, and the
    # congruence n(a+1) = e*a (mod k) that defines e refuses it.
    monkeypatch.setattr(lattice, "pow", lambda b, x, m: pow(b, x, m) + 1, raising=False)
    with pytest.raises(AssertionError):
        lattice_params(15, 3)


def _rays_by_height(k, a):
    """Reference for ray_system, the per-height scan it used before its
    ray walks: for each height y = 1..m, every primitive (x, y)
    strictly right of the last ray with L(x, y) <= N, then a sort by
    slope.  Returns the rays and their multiplicities."""
    p = lattice_params(k, a)
    N = p.N
    g = math.gcd(p.e, p.m)
    last = (p.e // g, p.m // g) if p.e != 0 else (0, 1)
    internal = []
    for y in range(1, p.m + 1):
        # strictly right of `last`: x * last_y > y * last_x
        x_lo = (y * last[0]) // last[1] + 1
        num = N - (p.n - p.e) * y
        if num < p.m * x_lo:
            continue
        for x in range(x_lo, num // p.m + 1):
            if math.gcd(x, y) == 1 and (x, y) != last:
                internal.append((x, y))
    # Distinct primitive slopes in the cone differ by more than 1/k^2.
    kk = k * k
    internal.sort(key=lambda r: r[1] * kk // r[0])
    rays = [(1, 0)] + internal + [last]
    return tuple(rays), tuple(N // p.L(x, y) for x, y in rays)


def test_ray_walk_matches_height_scan():
    for k in range(3, 151):
        for a in range(1, k - 1):
            rs = ray_system(k, a)
            assert (rs.rays, rs.mults) == _rays_by_height(k, a), (k, a)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10**5), st.integers(0, 10**9))
def test_ray_walk_matches_height_scan_large(k, seed):
    a = 1 + seed % (k - 2)
    rs = ray_system(k, a)
    assert (rs.rays, rs.mults) == _rays_by_height(k, a)


def test_consecutive_rays_are_unimodular():
    # The lemma the ray walk rests on: (1, 0) and the internal rays, in
    # slope order, have det 1 pairwise in a row.  The boundary ray `last`
    # is left out, as it may lie beyond L = N.
    for k in range(3, 151):
        for a in range(1, k - 1):
            rays = ray_system(k, a).rays[:-1]
            for (x0, y0), (x1, y1) in zip(rays, rays[1:]):
                assert x0 * y1 - y0 * x1 == 1, (k, a, (x0, y0), (x1, y1))


def test_ray_walk_right_end_below_zero():
    # n - e = -4 < 0, so L(0, 1) < 0 and the seed (0, -1) has L = 4.
    # From (1, 0) the walk steps to (1, 1) with t = 1 and to (3, 4) with
    # t = 4; the next candidate, (2, 3) with t = 1, lies beyond the last
    # ray (5, 7).
    p = lattice_params(7, 2)
    assert (p.m, p.n, p.e) == (7, 1, 5) and p.L(0, 1) == -4
    rs = ray_system(7, 2)
    assert rs.rays == ((1, 0), (1, 1), (3, 4), (5, 7))
    assert (rs.rays, rs.mults) == _rays_by_height(7, 2)


# SHA-256 of the stdout of `hampair rays k a`, concatenated over these
# cells: n - e < 0 in the first two and the last, e = 0 in the third,
# n - e > 0 in the fourth.
RAYS_CELLS = ((200000, 7), (402001, 200000), (100002, 50000), (120000, 45000), (100000, 98998))
RAYS_SHA256 = "50a9317680cb38f62831db1cb767d25cb3628e8eccb4d11e35a01a665b7ca5b4"


def test_rays_output_is_pinned():
    digest = hashlib.sha256()
    for k, a in RAYS_CELLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["rays", str(k), str(a)]) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest() == RAYS_SHA256


def test_cut_values_are_fresh_lists():
    rs = ray_system(15, 3)
    values = rs.cut_values()
    values.append(-1)
    assert rs.cut_values() == [2, 4, 6, 8, 14]


def test_ray_system_10_4():
    rs = ray_system(10, 4)
    assert rs.rays == ((1, 0), (1, 1), (1, 2), (0, 1))
    assert rs.mults == (1, 1, 1, 4)
    assert rs.cut_values() == [1, 3, 5]


def test_endpoint_identity_sweep():
    # Every step a, the two that give no family-one digraph included.
    for k in range(1, 60):
        for a in range(k):
            rs = ray_system(k, a)
            assert rs.cut_values()[-1] + rs.mults[-1] == k - 1, (k, a)


def test_ray_system_raises_what_closing_its_ray_walk_raises(monkeypatch):
    # When ray_system's loop fails, it closes the ray walk itself, so a
    # close that fails too, as under an exhausted address space, raises.
    # Left to the frame's unwinding, the walk was closed by its
    # finalizer, which can only print "Exception ignored in: ..." to
    # stderr, and the CLI's one line came after that fragment.
    def walk(p, last):
        try:
            yield 1, 1, 0  # L = 0: the loop's N // L fails
        finally:
            raise MemoryError

    monkeypatch.setattr(lattice, "_internal_rays", walk)
    with pytest.raises(MemoryError):
        lattice.ray_system(10, 4)


def test_cut_stream_is_the_ray_systems_cut_values():
    # Every step a, a = 0 and a = -1 included: the stream's running sum
    # of 2 * N // L over the walk is the ray system's cut values.
    for k in range(1, 300):
        for a in range(k):
            assert list(cut_stream(k, a)) == ray_system(k, a).cut_values(), (k, a)


def test_cut_values_from_rays_examples():
    assert ray_system(10, 4).cut_values() == [1, 3, 5]
    assert ray_system(15, 3).cut_values() == [2, 4, 6, 8, 14]
    assert ray_system(6, 2).cut_values() == [1, 3]


def test_cross_parametrization_equality_small():
    for k in range(3, 40):
        for a in range(1, k - 1):
            assert ray_system(k, a).cut_values() == sorted(
                oracle_cut_set(k, a)
            ), (k, a)


def test_endpoint_caps():
    assert endpoint_caps(10, 4) == (1, 4)
    assert endpoint_caps(15, 3) == (2, 0)
    assert endpoint_caps(7, 3) == (0, 0)  # both gcds are 1


def test_caps_and_half_gaps_examples():
    # Z(10, 4) = {1, 3, 5} with N = 9: caps 1 and 4, internal gaps 2, 2.
    assert ray_system(10, 4).mults == (1, 1, 1, 4)
    # Z(15, 3) = {2, 4, 6, 8, 14} with N = 14: caps 2 and 0, internal
    # gaps 2, 2, 2, 6.
    assert ray_system(15, 3).mults == (2, 1, 1, 1, 3, 0)


def test_cut_set_dictionary():
    # The reference cut set, which never reads the rays, has even gaps;
    # its caps and internal half-gaps are the boundary and internal ray
    # multiplicities, and the caps are gcd(k, a) - 1 and gcd(k, a+1) - 1.
    cells = 0
    for k in range(3, 60):
        for a in range(1, k - 1):
            Z = sorted(oracle_cut_set(k, a))
            gaps = [hi - lo for lo, hi in zip(Z, Z[1:])]
            mults = ray_system(k, a).mults
            assert all(g % 2 == 0 for g in gaps), (k, a)
            assert [g // 2 for g in gaps] == list(mults[1:-1]), (k, a)
            assert (Z[0], k - 1 - Z[-1]) == (mults[0], mults[-1]), (k, a)
            assert (mults[0], mults[-1]) == (math.gcd(k, a) - 1, math.gcd(k, a + 1) - 1), (k, a)
            assert endpoint_caps(k, a) == (mults[0], mults[-1]), (k, a)
            cells += 1
    assert cells == 1653


def test_gap_profile_matches_dictionary():
    # caps and internal half-gaps of the ray system's own cut values equal
    # the boundary/internal ray multiplicities
    for k in range(3, 40):
        for a in range(1, k - 1):
            rs = ray_system(k, a)
            Z = rs.cut_values()
            assert Z[0] == rs.mults[0], (k, a)
            assert k - 1 - Z[-1] == rs.mults[-1], (k, a)
            assert [(hi - lo) // 2 for lo, hi in zip(Z, Z[1:])] == list(rs.mults[1:-1]), (k, a)
            assert (rs.mults[0], rs.mults[-1]) == endpoint_caps(k, a), (k, a)


def _theta_brute(p, q):
    return sum(
        1
        for r in range(1, p + 1)
        for s in range(1, q + 1)
        if q * r + p * s <= p * q
    )


def test_theta_examples():
    assert all(theta(1, q) == 0 for q in range(1, 10))
    assert theta(2, 2) == 1
    assert theta(3, 3) == 3


def test_theta_brute_force_equality():
    for p in range(1, 51):
        for q in range(1, 51):
            assert theta(p, q) == _theta_brute(p, q), (p, q)


def test_theta_matches_column_sums():
    # sum over r of the number of s with s <= q(p-r)/p
    for p in range(1, 200):
        for q in range(1, 200):
            assert theta(p, q) == sum(q * (p - r) // p for r in range(1, p)), (p, q)


def test_theta_symmetry_and_bounds():
    for p in range(1, 51):
        for q in range(1, 51):
            t = theta(p, q)
            assert t == theta(q, p)
            assert 2 * t >= (p - 1) * (q - 1)
            if q >= p >= 2:
                assert t >= p - 1


def test_theta_rejects_nonpositive():
    with pytest.raises(InputError):
        theta(0, 3)


def test_sector_mass_examples():
    rs = ray_system(10, 4)
    assert sector_mass(rs, 0, 1) == 0  # adjacent rays
    assert sector_mass(rs, 0, 3) == 2


def test_sector_mass_bounds_sweep():
    for k in range(3, 40):
        for a in range(1, k - 1):
            rs = ray_system(k, a)
            for i in range(rs.f):
                for j in range(i + 1, rs.f):
                    p, q = rs.mults[i], rs.mults[j]
                    if p >= 1 and q >= 1:
                        assert sector_mass(rs, i, j) >= theta(p, q), (k, a, i, j)


def _fake_rays(mults):
    return RaySystem(lattice_params(10, 4), tuple((1, i) for i in range(len(mults))), tuple(mults))


@given(st.lists(st.integers(0, 9), min_size=2, max_size=14))
def test_sector_mass_is_a_slice_sum(mults):
    rs = _fake_rays(mults)
    assert rs.prefix[0] == 0 and rs.prefix[-1] == sum(mults)
    for i in range(rs.f):
        for j in range(i + 1, rs.f):
            assert sector_mass(rs, i, j) == sum(mults[i + 1 : j])


@given(st.lists(st.integers(0, 9), min_size=2, max_size=14))
def test_sector_filling_violations_match_every_pair(mults):
    # mults are arbitrary, so violations do occur; only pairs with a
    # multiplicity 1 are skipped, and those can never fail.
    rs = _fake_rays(mults)
    expected = [
        (i, j, sum(mults[i + 1 : j]), theta(mults[i], mults[j]))
        for i in range(rs.f)
        for j in range(i + 1, rs.f)
        if mults[i] >= 1 and mults[j] >= 1
        and sum(mults[i + 1 : j]) < theta(mults[i], mults[j])
    ]
    assert sector_filling_violations(rs) == expected


def test_sector_filling_violations_match_sector_mass_on_real_cells():
    # The inlined mass and theta against the public functions, on every
    # ray system with k <= 60.
    for k in range(3, 61):
        for a in range(1, k - 1):
            rs = ray_system(k, a)
            large = [i for i, h in enumerate(rs.mults) if h >= 2]
            expected = [
                (i, j, sector_mass(rs, i, j), theta(rs.mults[i], rs.mults[j]))
                for i in large
                for j in large
                if i < j and sector_mass(rs, i, j) < theta(rs.mults[i], rs.mults[j])
            ]
            assert sector_filling_violations(rs) == expected, (k, a)


def test_sector_filling_violations_example():
    assert sector_filling_violations(_fake_rays([2, 1, 3])) == []
    assert sector_filling_violations(_fake_rays([3, 0, 3])) == [(0, 2, 0, 3)]


def test_no_adjacent_large_multiplicities():
    for k in range(3, 60):
        for a in range(1, k - 1):
            mults = ray_system(k, a).mults
            for h1, h2 in zip(mults, mults[1:]):
                assert not (h1 >= 2 and h2 >= 2), (k, a, mults)


def test_reflected_gap_graph_10_4():
    g = reflected_gap_graph([1, 3, 5], 9, reflection_distance([1, 3, 5], 9)[0])
    assert g.delta == 1
    assert g.negative_edges == ((3, 5),)
    assert g.positive_edges == ((5, 5),)  # the loop at 5


def test_reflected_gap_graph_15_3():
    zs = [2, 4, 6, 8, 14]
    g = reflected_gap_graph(zs, 14, reflection_distance(zs, 14)[0])
    assert g.delta == 0
    assert (6, 8) in g.negative_edges
    assert g.negative_edges == g.positive_edges


zsets = st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True).map(sorted)


@given(zsets, st.integers(0, 120))
def test_reflection_distance_matches_all_pairs(zs, N):
    best = min((abs(u + v - N), u, v) for u in zs for v in zs if u <= v)
    assert reflection_distance(zs, N) == best


@given(zsets, st.integers(0, 120))
def test_reflected_gap_graph_matches_all_pairs(zs, N):
    g = reflected_gap_graph(zs, N, reflection_distance(zs, N)[0])
    delta = min(abs(u + v - N) for u in zs for v in zs)
    assert g.delta == delta
    assert g.negative_edges == tuple(
        (u, v) for u in zs for v in zs if u <= v and u + v == N - delta
    )
    assert g.positive_edges == tuple(
        (u, v) for u in zs for v in zs if u <= v and u + v == N + delta
    )


def test_reflection_distance_rejects_empty():
    with pytest.raises(InputError):
        reflection_distance([], 5)
    with pytest.raises(InputError):
        reflected_gap_graph([], 5, 0)


def test_reflected_gap_graph_nonempty():
    for k in range(3, 40):
        for a in range(1, k - 1):
            zs = cut_set_values(k, a)
            g = reflected_gap_graph(zs, k - 1, reflection_distance(zs, k - 1)[0])
            assert g.negative_edges or g.positive_edges, (k, a)


def test_cap2_report_15_3():
    # c_L = 2 here, so the bounds apply, and each holds.
    assert endpoint_caps(15, 3)[0] == 2
    assert cap2_violations(ray_system(15, 3)) == []


def test_cap2_report_empty_when_caps_differ():
    # Neither cap is 2, so no bound applies, even to masses that would
    # fail one.
    assert 2 not in endpoint_caps(10, 4)
    assert cap2_violations(ray_system(10, 4)) == []
    assert cap2_violations(_fake_rays([1, 5, 0, 4])) == []


def test_cap2_violations_report_failing_bounds():
    # N = 9: a ray of multiplicity 5 right after a left cap of 2 needs a
    # mass of 3 between them and has 0; the ray of multiplicity 0 needs
    # nothing.
    assert cap2_violations(_fake_rays([2, 5, 0, 1])) == [("L", (1, 1), 0, 3)]
    # N = 14 = 4*4 - 2 strengthens the bound for alpha = 4 to 3, on the
    # side of the right cap.
    rs = RaySystem(lattice_params(15, 3), ((1, 0), (1, 1), (1, 2), (1, 3)), (1, 4, 0, 2))
    assert cap2_violations(rs) == [("R", (1, 1), 0, 3)]


@given(st.lists(st.integers(0, 9), min_size=1, max_size=14).map(lambda m: [2, *m, 2]))
def test_cap2_violations_match_sector_mass(mults):
    # Both caps are 2, so every bound applies on both sides; the inlined
    # masses against sector_mass, the public function.
    rs = _fake_rays(mults)
    N, f = rs.params.N, rs.f
    expected = [
        (side, rs.rays[r], mass, required)
        for side, cap in (("L", 0), ("R", f - 1))
        for r in range(1, f - 1)
        for mass in [sector_mass(rs, min(cap, r), max(cap, r))]
        for required in [mults[r] - 1 if N == 4 * mults[r] - 2 else mults[r] - 2]
        if mass < required
    ]
    assert cap2_violations(rs) == expected


def test_cap2_sweep():
    for k in range(3, 60):
        for a in range(1, k - 1):
            assert cap2_violations(ray_system(k, a)) == [], (k, a)


def test_caps_gcd_formula_sweep():
    for k in range(3, 60):
        for a in range(1, k - 1):
            assert endpoint_caps(k, a) == (
                math.gcd(k, a) - 1,
                math.gcd(k, a + 1) - 1,
            )
