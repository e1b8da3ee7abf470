"""Acceptance sweeps.

Each test covers one headline claim over its full advertised parameter
range and prints a single PASS/FAIL line, so the suite output doubles as
a checklist.  These are intentionally heavier than the unit tests.
"""

import itertools
import json
import time
from math import gcd

from hampair.cli import main
from hampair.core import pair_failure
from hampair.cosets import find_pair
from hampair.family_one import cut_set_values, realize_disjoint_pair
from hampair.family_two import QuotientFiberConfig, build_family_two, skew_cover
from hampair.lattice import (
    cap2_violations,
    endpoint_caps,
    ray_system,
    sector_mass,
    theta,
)
from hampair.oracle import find_arc_disjoint_pair, oracle_cut_set
from hampair.products import build_three_factor, product_digraph
from small_digraphs import two_generated


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = f"{label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_reference_table(capsys):
    expected = {
        (5, 2): ([0, 4], 0),
        (6, 2): ([1, 3], 1),
        (10, 4): ([1, 3, 5], 1),
        (15, 3): ([2, 4, 6, 8, 14], 0),
    }
    t0 = time.perf_counter()
    ok = True
    for (k, a), (Z, delta) in expected.items():
        code = main(["cuts", str(k), str(a), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        ok = ok and code == 0 and doc["Z"] == Z and doc["delta"] == delta
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report("reference-table", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _reflected_distance(Z, N: int) -> int:
    """min |u + v - N| over u, v in Z, exactly: 0 if N - u is in Z for
    some u, else 1 if N - u +- 1 is, else the pairwise minimum."""
    members = set(Z)
    for excess in (0, 1):
        if any(N - u + s in members for u in Z for s in {excess, -excess}):
            return excess
    return min(abs(u + v - N) for u in Z for v in Z)


def test_02_parity_sharp():
    bad = []
    t0 = time.perf_counter()
    for k in range(3, 201):
        N = k - 1
        expected = 0 if k % 2 else 1
        for a in range(1, k - 1):
            delta = _reflected_distance(cut_set_values(k, a), N)
            if delta != expected:
                bad.append((k, a, delta))
    _report(
        "parity-sharp k<=200",
        not bad and time.perf_counter() - t0 < 120,
        f"{time.perf_counter() - t0:.1f}s, {len(bad)} exceptions",
    )


def test_03_lattice_equivalence():
    bad = 0
    t0 = time.perf_counter()
    for k in range(3, 161):
        for a in range(1, k - 1):
            rs = ray_system(k, a)
            if rs.cut_values() != sorted(oracle_cut_set(k, a)):
                bad += 1
            if rs.cut_values()[-1] + rs.mults[-1] != k - 1:
                bad += 1
    _report("lattice-equivalence k<=160", bad == 0 and time.perf_counter() - t0 < 60)


def test_04_cap_formulas():
    bad = 0
    for k in range(3, 121):
        for a in range(1, k - 1):
            Z = cut_set_values(k, a)
            if (int(Z[0]), k - 1 - int(Z[-1])) != endpoint_caps(k, a):
                bad += 1
    _report("cap-formulas k<=120", bad == 0)


def test_05_sector_filling_suite():
    bad = []
    for k in range(3, 121):
        for a in range(1, k - 1):
            rs = ray_system(k, a)
            for i in range(rs.f):
                for j in range(i + 1, rs.f):
                    p, q = rs.mults[i], rs.mults[j]
                    if p >= 1 and q >= 1 and sector_mass(rs, i, j) < theta(p, q):
                        bad.append(("mass", k, a, i, j))
            for h1, h2 in zip(rs.mults, rs.mults[1:]):
                if h1 >= 2 and h2 >= 2:
                    bad.append(("adjacent", k, a))
            for _ in cap2_violations(rs):
                bad.append(("cap2", k, a))
    _report("sector-filling k<=120", not bad, f"{len(bad)} failures")


def test_06_theta_oracle():
    bad = 0
    for p in range(1, 51):
        for q in range(1, 51):
            t = theta(p, q)
            direct = sum(
                1
                for r in range(1, p + 1)
                for s in range(1, q + 1)
                if q * r + p * s <= p * q
            )
            if t != direct or 2 * t < (p - 1) * (q - 1):
                bad += 1
            if q >= p >= 2 and t < p - 1:
                bad += 1
    _report("theta-oracle p,q<=50", bad == 0)


def test_07_family_one_realization():
    t0 = time.perf_counter()
    bad = 0
    cells = 0
    for k in range(3, 151):
        for a in range(1, k - 1):
            cells += 1
            try:
                stage = realize_disjoint_pair(k, a).stage
            except Exception:
                bad += 1
                continue
            if stage != "translate-count-pair":
                bad += 1
    elapsed = time.perf_counter() - t0
    _report(
        "family-one realization k<=150",
        bad == 0 and elapsed < 120,
        f"{cells} cells, {elapsed:.1f}s",
    )


def test_08_cut_set_oracle():
    bad = 0
    for k in range(3, 61):
        for a in range(1, k - 1):
            if set(int(z) for z in cut_set_values(k, a)) != oracle_cut_set(k, a):
                bad += 1
    _report("cut-set-oracle k<=60", bad == 0)


def test_09_family_two():
    ok = True
    for a in range(1, 9):
        for L in range(2, 11):
            try:
                build_family_two(a, L)
            except Exception:
                ok = False
            cfg = QuotientFiberConfig(a, L)
            Q = skew_cover(cfg, frozenset(range(cfg.M)) - cfg.canonical_S())
            ok = ok and len(Q.cycles) == gcd(L, 2)
    # the worked example under the canonical choices
    cfg = QuotientFiberConfig(1, 2)
    P = skew_cover(cfg, cfg.canonical_S())
    ok = ok and P.cycles == ((0, 5, 4, 3, 2, 1),)
    p1, p2 = build_family_two(1, 2)
    ok = ok and [v[0] for v in p2.vertex_list] == [2, 4, 0, 5, 1, 3]
    ok = ok and p2.labels[2] == "A"  # the splice arc 0 -> 5
    _report("family-two a<=8 L<=10", ok)


def test_10_three_factor_products():
    t0 = time.perf_counter()
    bad = []
    for m, n, ell in itertools.product((2, 3, 4, 5), (2, 3, 4, 5), range(2, 7)):
        try:
            build_three_factor(m, n, ell)
        except Exception as exc:
            bad.append((m, n, ell, exc))
        if m * n * ell <= 24:
            if not find_arc_disjoint_pair(product_digraph((m, n, ell))).found:
                bad.append((m, n, ell, "oracle"))
    elapsed = time.perf_counter() - t0
    _report(
        "three-factor products",
        not bad and elapsed < 600,
        f"{elapsed:.1f}s, {len(bad)} failures",
    )


def test_11_theorem_main_smoke():
    bad = []
    digraphs = 0
    for d in two_generated(16, ordered=False):
        digraphs += 1
        if pair_failure(d, *find_pair(d)) or not find_arc_disjoint_pair(d).found:
            bad.append((d.group.orders, *d.gens))
    _report(
        "theorem-main order<=16",
        digraphs > 0 and not bad,
        f"{digraphs} digraphs, {len(bad)} failures",
    )


def test_12_every_product_base_to_40():
    # Every base C_m x C_n with 2 <= m <= n <= 40 has a strongly
    # switchable pair in the coset enumeration; each is lifted to l = 3
    # and checked.  About 5 s on one core of a 2-core Xeon.
    t0 = time.perf_counter()
    bad = []
    bases = [(m, n) for m in range(2, 41) for n in range(m, 41)]
    for m, n in bases:
        try:
            build_three_factor(m, n, 3)
        except Exception as exc:
            bad.append((m, n, exc))
    elapsed = time.perf_counter() - t0
    _report(
        "product bases m<=n<=40",
        not bad and elapsed < 120,
        f"{len(bases)} bases, {elapsed:.1f}s, {len(bad)} failures",
    )
