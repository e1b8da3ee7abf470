import hashlib
from math import gcd

import pytest

from hampair.cli import main
from hampair.core import InputError, arc_disjoint, verify_hamiltonian
from hampair.family_two import QuotientFiberConfig, build_family_two, skew_cover


def test_config_derived_quantities():
    cfg = QuotientFiberConfig(1, 2)
    assert (cfg.M, cfg.k, cfg.gen_a, cfg.gen_b) == (3, 6, 5, 2)
    cfg = QuotientFiberConfig(3, 4)
    assert (cfg.M, cfg.k, cfg.gen_a, cfg.gen_b) == (7, 28, 25, 4)


def test_config_rejects_bad_params():
    with pytest.raises(InputError):
        QuotientFiberConfig(0, 2)
    with pytest.raises(InputError):
        QuotientFiberConfig(1, 1)


def test_quotient_coordinate_walk():
    # along 0, 5, 4, 3, 2, 1 (all -a steps) the coordinate advances by one
    cfg = QuotientFiberConfig(1, 2)
    assert [cfg.quotient_coordinate(x) for x in (0, 5, 4, 3, 2, 1)] == [
        0, 1, 2, 0, 1, 2,
    ]


def test_quotient_coordinate_advances_under_both_generators():
    for a, L in [(1, 2), (2, 3), (3, 4)]:
        cfg = QuotientFiberConfig(a, L)
        for x in range(cfg.k):
            t = cfg.quotient_coordinate(x)
            for g in (cfg.gen_a, cfg.gen_b):
                assert cfg.quotient_coordinate((x + g) % cfg.k) == (t + 1) % cfg.M


def test_full_S_single_cycle():
    # S = Z_3 steps by -a everywhere: the single 6-cycle 0,5,4,3,2,1
    cfg = QuotientFiberConfig(1, 2)
    cover = skew_cover(cfg, range(3))
    assert cover.cycles == ((0, 5, 4, 3, 2, 1),)


def test_empty_S_two_cycles():
    cfg = QuotientFiberConfig(1, 2)
    cover = skew_cover(cfg, ())
    assert cover.cycles == ((0, 2, 4), (1, 3, 5))
    assert cover.return_shift == 2


def test_cover_is_partition():
    for a, L in [(1, 3), (2, 4), (3, 2)]:
        cfg = QuotientFiberConfig(a, L)
        for size in range(cfg.M + 1):
            cover = skew_cover(cfg, range(size))
            seen = [x for cyc in cover.cycles for x in cyc]
            assert sorted(seen) == list(range(cfg.k))


def test_cycle_count_law():
    # number of cycles = gcd(L, a+1-|S|), for every |S|
    for a, L in [(1, 2), (1, 5), (2, 4), (2, 6), (4, 3)]:
        cfg = QuotientFiberConfig(a, L)
        for size in range(cfg.M + 1):
            cover = skew_cover(cfg, range(size))
            assert len(cover.cycles) == gcd(L, a + 1 - size), (a, L, size)


def test_one_round_displacement():
    # M consecutive steps displace by M * (a+1-|S|)
    for a, L in [(1, 4), (2, 3), (3, 5)]:
        cfg = QuotientFiberConfig(a, L)
        for size in (0, a, a + 2, cfg.M):
            cover = skew_cover(cfg, range(size))
            for x0 in range(cfg.k):
                x = x0
                for _ in range(cfg.M):
                    x = cover.step(x)
                assert x == (x0 + cfg.M * cover.return_shift) % cfg.k


def test_canonical_cover_is_hamiltonian():
    for a in range(1, 6):
        for L in range(2, 8):
            cfg = QuotientFiberConfig(a, L)
            cover = skew_cover(cfg, cfg.canonical_S())
            assert cover.return_shift == -1
            assert len(cover.cycles) == 1


def test_build_1_2_exact():
    path1, path2 = build_family_two(1, 2)
    assert [v[0] for v in path1.vertex_list] == [5, 4, 3, 2, 1, 0]
    assert path1.labels == "AAAAA"
    assert [v[0] for v in path2.vertex_list] == [2, 4, 0, 5, 1, 3]
    assert path2.labels == "BBABB"


def test_build_sweep():
    for a in range(1, 5):
        for L in range(2, 9):
            p1, p2 = build_family_two(a, L)
            d = p1.digraph
            assert verify_hamiltonian(d, p1) is None, (a, L)
            assert verify_hamiltonian(d, p2) is None, (a, L)
            assert arc_disjoint(p1, p2), (a, L)


@pytest.mark.parametrize("L", range(2, 13))
@pytest.mark.parametrize("a", range(1, 9))
def test_build_matches_skew_covers(a, L):
    # The independent check of the coset pair build_family_two takes:
    # path one is the canonical cycle opened after 0; every arc of path
    # two is a complement arc, except, for even L, the canonical arc
    # 0 -> -a, its one crossing between the complement's two cycles.
    p1, p2 = build_family_two(a, L)
    cfg = QuotientFiberConfig(a, L)
    P = skew_cover(cfg, cfg.canonical_S())
    Q = skew_cover(cfg, frozenset(range(cfg.M)) - cfg.canonical_S())
    assert [v[0] for v in p1.vertex_list] == list(P.cycles[0][1:]) + [0]
    vertices = [v[0] for v in p2.vertex_list]
    borrowed = [(u, v) for u, v in zip(vertices, vertices[1:]) if v != Q.step(u)]
    assert borrowed == ([(0, P.step(0))] if L % 2 == 0 else [])
    first_cycle = set(Q.cycles[0])
    side = [x in first_cycle for x in vertices]
    crossings = sum(1 for s, t in zip(side, side[1:]) if s != t)
    assert (len(Q.cycles), crossings) == ((2, 1) if L % 2 == 0 else (1, 0))


# SHA-256 of the stdout of `hampair build two a L`, concatenated over
# a = 1..12 and L = 2..40: a change to either path of any of these
# witnesses shows here.
BUILD_TWO_SHA256 = "0ff4b6d8e213f08457194ab09fab836ad1e03f7d41237470cb722e34da4dd139"


def test_build_two_witnesses_unchanged(capsys):
    digest = hashlib.sha256()
    for a in range(1, 13):
        for L in range(2, 41):
            assert main(["build", "two", str(a), str(L)]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == BUILD_TWO_SHA256
