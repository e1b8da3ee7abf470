import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hampair import lattice
from hampair.cli import main
from hampair.cosets import hamiltonian_cuts
from hampair.core import InputError, arc_disjoint, cayley, verify_hamiltonian
from hampair.family_one import (
    count_pair,
    cut_path,
    cut_permutation,
    cut_set,
    cut_set_values,
    realize_disjoint_pair,
)
from hampair.oracle import oracle_cut_set


def test_cut_permutation_explicit():
    # (5, 2, 1): below the cut step by a+1=3, at the cut jump to a=2,
    # above it step by a=2.
    assert cut_permutation(5, 2, 1) == [3, 2, 4, 0, 1]


def test_cut_permutation_is_bijection():
    for k, a, d in [(5, 2, 1), (10, 4, 3), (12, 5, 0), (9, 7, 8)]:
        phi = cut_permutation(k, a, d)
        assert sorted(phi) == list(range(k))


def test_cut_permutation_orbit_5_2_0():
    phi = cut_permutation(5, 2, 0)
    orbit = [0]
    while True:
        nxt = phi[orbit[-1]]
        if nxt == 0:
            break
        orbit.append(nxt)
    assert orbit == [0, 2, 4, 1, 3]


def test_cut_permutation_mirror_conjugation():
    # sigma(x) = N - x conjugates phi^(a)_d onto phi^(N-a)_(N-d), the
    # lemma behind the scan's shared reference for mirror cells.
    for k in range(3, 41):
        N = k - 1
        for a in range(1, k - 1):
            for d in range(k):
                phi = cut_permutation(k, a, d)
                mirrored = cut_permutation(k, N - a, N - d)
                assert mirrored == [N - phi[N - y] for y in range(k)], (k, a, d)


def test_cut_permutation_rejects_bad_input():
    with pytest.raises(InputError):
        cut_permutation(5, 0, 1)
    with pytest.raises(InputError):
        cut_permutation(5, 2, 5)


def test_cut_set_reference_examples():
    p = cut_set(10, 4)
    assert p.Z == (1, 3, 5) and p.delta == 1
    assert p.witness == (3, 5)

    p = cut_set(15, 3)
    assert p.Z == (2, 4, 6, 8, 14) and p.delta == 0
    assert p.witness == (6, 8)

    p = cut_set(6, 2)
    assert p.Z == (1, 3) and p.delta == 1

    assert cut_set(5, 2).Z == (0, 4)

    # brute-force lexicographic minimum of (|u + v - N|, u, v) over u <= v
    for k in range(3, 81):
        for a in range(1, k - 1):
            p = cut_set(k, a)
            best = min((abs(u + v - (k - 1)), u, v) for u in p.Z for v in p.Z if u <= v)
            assert (p.delta, *p.witness) == best, (k, a)


def test_cut_set_matches_oracle_small():
    for k in range(3, 30):
        for a in range(1, k - 1):
            assert set(cut_set_values(k, a)) == oracle_cut_set(k, a), (k, a)


def test_cut_set_parity():
    # all cut values share the parity of gcd(k, a) - 1
    import math

    for k in range(3, 40):
        for a in range(1, k - 1):
            par = (math.gcd(k, a) - 1) % 2
            assert all(z % 2 == par for z in cut_set_values(k, a)), (k, a)
    # and Z(n, r) at every step r, 0 and -1 included (cosets' path lemma,
    # item 5): every cut value is gcd(r, n) - 1 mod 2
    for n in range(1, 200):
        for r in range(n):
            par = (math.gcd(r, n) - 1) % 2
            assert all(j % 2 == par for j in hamiltonian_cuts(n, r)), (n, r)


def test_cut_path_5_2_0():
    w = cut_path(5, 2, 0)
    assert w.vertex_list == ((2,), (4,), (1,), (3,), (0,))
    assert w.labels == "AAAA"
    assert w.delta_b() == 0


def test_cut_path_endpoints_and_b_count():
    w = cut_path(10, 4, 3)
    assert w.start == (4,) and w.end == (3,)
    assert w.delta_b() == 3


def test_cut_path_always_verifies():
    for k, a in [(10, 4), (15, 3), (6, 2), (21, 8)]:
        d = cayley([k], a, a + 1)
        for z in cut_set_values(k, a):
            w = cut_path(k, a, z)
            assert verify_hamiltonian(d, w) is None
            assert w.delta_b() == z


def test_cut_path_rejects_non_cut_value():
    with pytest.raises(InputError):
        cut_path(10, 4, 2)  # 2 is not in {1, 3, 5}


def test_cut_path_builds_no_ray_system(monkeypatch):
    # The cut walk's closing flag decides whether d is a cut value.
    def refuse(k, a):
        raise AssertionError("cut_path built a ray system")

    monkeypatch.setattr(lattice, "ray_system", refuse)
    w = cut_path(10, 4, 3)
    assert verify_hamiltonian(cayley([10], 4, 5), w) is None
    assert w.delta_b() == 3
    for d in (2, -1, 10):
        with pytest.raises(InputError, match=rf"d={d} is not a Hamiltonian cut value for \(10, 4\)"):
            cut_path(10, 4, d)


def test_count_pair_examples():
    assert count_pair(15, 3) == (6, 8)
    assert count_pair(10, 4) == (3, 5)
    assert count_pair(10, 6) == (1, 9)  # sum k occurs, k-2 does not


def test_count_pair_sum_window():
    for k in range(3, 50):
        for a in range(1, k - 1):
            d, e = count_pair(k, a)
            assert d + e in (k - 2, k - 1, k), (k, a, d, e)


def test_realize_examples():
    for k, a in [(10, 4), (3, 1), (6, 2)]:
        r = realize_disjoint_pair(k, a)
        d = cayley([k], a, a + 1)
        assert verify_hamiltonian(d, r.path1) is None
        assert verify_hamiltonian(d, r.path2) is None
        assert arc_disjoint(r.path1, r.path2)


@given(st.integers(3, 80), st.integers(1, 200))
def test_cut_paths_verify_property(k, seed):
    a = 1 + seed % (k - 2)
    d = cayley([k], a, a + 1)
    Z = cut_set_values(k, a)
    z = int(Z[seed % len(Z)])
    w = cut_path(k, a, z)
    assert verify_hamiltonian(d, w) is None
    assert w.end == (z,) and w.delta_b() == z


def test_realize_records_stage():
    assert realize_disjoint_pair(10, 4).stage == "translate-count-pair"


def test_cut_profile_keeps_its_ray_system():
    p = cut_set(10, 4)
    assert p.count_pair == count_pair(10, 4) == (3, 5)
    assert list(p.Z) == p.ray_system.cut_values()
    assert p.ray_system.params.k == 10
    assert "ray_system" not in repr(p)


# SHA-256 of the stdout of `hampair build one k a`, concatenated over
# every k = 3..30 with every valid a, in order, then over k = 402 and
# k = 1000 with a few a each: a change to either path of any of these
# witnesses shows here.
BUILD_ONE_SHA256 = "84e17b6e28fd0a709f1276776b92484020a8d71ac72cfa5ed898594fc7c67bbc"
BUILD_ONE_LARGE = ((402, (1, 2, 133, 200, 201, 400)), (1000, (1, 3, 499, 500, 777, 998)))


def test_build_one_witnesses_unchanged(capsys):
    cells = [(k, a) for k in range(3, 31) for a in range(1, k - 1)]
    cells += [(k, a) for k, some in BUILD_ONE_LARGE for a in some]
    digest = hashlib.sha256()
    for k, a in cells:
        assert main(["build", "one", str(k), str(a)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BUILD_ONE_SHA256
