import concurrent.futures
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hampair
from hampair import family_one, lattice, oracle, scan
from hampair.cli import main
from hampair.scan import run_scan, scan_cell, scan_cells, scan_mirror_pair


def test_cells_cover_all_valid_a():
    cells = scan_cells(3, 6)
    assert cells[0] == (3, 1)
    assert (6, 1) in cells and (6, 4) in cells
    assert all(1 <= a <= k - 2 for k, a in cells)


def test_cell_row_fields():
    row = scan_cell((10, 4), (1, 3, 5))
    assert row.Z == (1, 3, 5)
    assert row.reflected == (4, 6, 8)
    assert row.delta == 1
    assert row.count_pair == (3, 5)
    assert (row.c_L, row.c_R) == (1, 4)
    assert row.lattice_agrees
    assert row.ok


def test_mirror_pair_rows():
    # (10, 4) and its mirror (10, 5) from one unit; N - {1, 3, 5}.
    first, mirror = scan_mirror_pair((10, 4))
    assert first == scan_cell((10, 4), (1, 3, 5))
    assert (mirror.k, mirror.a, mirror.Z) == (10, 5, (4, 6, 8))
    # each cell's reference is the other's reflected set
    assert (first.reflected, mirror.reflected) == (mirror.Z, first.Z)
    assert mirror.lattice_agrees and mirror.ok
    # odd k, a = N/2: a unit of one
    (row,) = scan_mirror_pair((11, 5))
    assert (row.k, row.a) == (11, 5) and row.ok


def test_scan_cell_builds_one_ray_system(monkeypatch):
    # One ray system per cell, and one run of the independent reference
    # per mirror pair: floor((k-1)/2) per row.
    calls = {"ray_system": 0, "oracle_cut_set": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lattice, "ray_system", counted("ray_system", lattice.ray_system))
    monkeypatch.setattr(
        oracle, "oracle_cut_set", counted("oracle_cut_set", oracle.oracle_cut_set)
    )
    rows, _ = run_scan(3, 12)
    pairs = sum((k - 1) // 2 for k in range(3, 13))
    assert calls == {"ray_system": len(rows), "oracle_cut_set": pairs}
    # A build reads its cut values from the streams and builds none.
    calls.update(ray_system=0)
    family_one.realize_disjoint_pair(40, 9)
    assert calls["ray_system"] == 0


def test_sector_filling_failure_is_reported(monkeypatch):
    monkeypatch.setattr(lattice, "sector_filling_violations", lambda rs: [(0, 4, 1, 7)])
    row = scan_cell((15, 3), (2, 4, 6, 8, 14))
    assert row.failures == ("sector-filling: M(A_0,A_4)=1 < theta(2, 3)=7",)


def test_parity_sharp_failure_is_reported(monkeypatch):
    cut_set = family_one.cut_set
    monkeypatch.setattr(
        family_one, "cut_set", lambda k, a: cut_set(k, a)._replace(delta=2)
    )
    row = scan_cell((15, 3), (2, 4, 6, 8, 14))
    assert row.failures == ("parity-sharp: delta=2, expected 0",)


def test_adjacent_large_failure_is_reported(monkeypatch):
    # Blocks 2 and 3 side by side, where (15, 3) has (2, 1, 1, 1, 3, 0).
    # They fail sector filling too, which is silenced here.
    cut_set = family_one.cut_set

    def adjacent(k, a):
        profile = cut_set(k, a)
        rs = profile.ray_system
        rs = lattice.RaySystem(rs.params, rs.rays, (2, 1, 1, 2, 3, 0))
        return profile._replace(ray_system=rs)

    monkeypatch.setattr(family_one, "cut_set", adjacent)
    monkeypatch.setattr(lattice, "sector_filling_violations", lambda rs: [])
    row = scan_cell((15, 3), (2, 4, 6, 8, 14))
    assert row.failures == ("adjacent-large: consecutive blocks 2, 3",)


def test_cap2_failure_is_reported(monkeypatch):
    monkeypatch.setattr(lattice, "cap2_violations", lambda rs: [("L", (1, 1), 0, 3)])
    row = scan_cell((15, 3), (2, 4, 6, 8, 14))
    assert row.failures == ("cap2: side L ray (1, 1): mass 0 < 3",)


def test_scan_command_reports_its_first_failure(capsys, monkeypatch):
    # One failing cell of row 15: its table row is flagged, the summary
    # counts it, and the command exits 1 with one stderr line naming it.
    violations = lattice.sector_filling_violations

    def failing(rs):
        return [(0, 4, 1, 7)] if (rs.params.k, rs.params.a) == (15, 3) else violations(rs)

    monkeypatch.setattr(lattice, "sector_filling_violations", failing)
    assert main(["scan", "15", "15"]) == 1
    out, err = capsys.readouterr()
    assert err == (
        "FAILED: 1 check failures; first at k=15 a=3: "
        "sector-filling: M(A_0,A_4)=1 < theta(2, 3)=7\n"
    )
    lines = out.splitlines()
    flagged = [line for line in lines if "FAIL" in line]
    assert len(flagged) == 1 and flagged[0].split()[:2] == ["15", "3"]
    assert flagged[0].endswith("  FAIL: sector-filling: M(A_0,A_4)=1 < theta(2, 3)=7")
    assert lines[-1].startswith("cells=13 failures=1 ")


# SHA-256 of the stdout of `hampair scan 3 45 --format csv`: the scan's
# output must stay byte-identical when its internals change.
SCAN_3_45_CSV_SHA256 = "8af1086b93fc5ac796a02a9b347d946a1654cab621b2156932fbc693b9a588cc"
# The same for the table and JSON formats.
SCAN_3_45_SHA256 = {
    "csv": SCAN_3_45_CSV_SHA256,
    "table": "553bb8e7e034b1a1ae9e07919131c6c237935932482b3ae3f8f2883bf10b88af",
    "json": "3502d687de2786258f19b889ad92c1cb01140365c7c5046026bbd775425e7788",
}


def test_scan_csv_output_is_pinned(capsys):
    assert main(["scan", "3", "45", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_3_45_CSV_SHA256


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_scan_output_is_pinned(capsys, fmt):
    assert main(["scan", "3", "45", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_3_45_SHA256[fmt]


def test_scan_output_with_two_jobs_is_the_same_bytes(capsys):
    # Two workers hand back the mirror pairs in the same order, so every
    # format is byte-identical to the pinned single-process output.
    for fmt, digest in SCAN_3_45_SHA256.items():
        assert main(["scan", "3", "45", "--format", fmt, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_scan_clean_small_window():
    rows, summary = run_scan(3, 30)
    assert summary.cells == len(rows) == len(scan_cells(3, 30))
    assert summary.failures == 0
    assert summary.first_failure is None


def test_scan_rows_ordered():
    rows, _ = run_scan(3, 20)
    assert [(r.k, r.a) for r in rows] == scan_cells(3, 20)


def test_scan_parallel_matches_serial():
    serial, s1 = run_scan(3, 25, jobs=1)
    parallel, s2 = run_scan(3, 25, jobs=2)
    assert serial == parallel
    assert (s1.cells, s1.failures) == (s2.cells, s2.failures)


def test_scan_even_k_sum_split():
    # even k cells choose sum k-2 or k; odd cells contribute to neither
    rows, summary = run_scan(3, 40)
    even_cells = sum(1 for r in rows if r.k % 2 == 0)
    assert summary.sum_k_minus_2 + summary.sum_k == even_cells


@pytest.mark.parametrize(
    "jobs, cpus, k_max, workers",
    [(100000, 64, 4, 2), (100000, 2, 20, 2), (100000, None, 20, None), (1, 64, 20, None)],
)
def test_scan_workers_capped_by_cells_and_cpus(monkeypatch, jobs, cpus, k_max, workers):
    # The pool forks every worker up front, so its size is checked on a
    # fake that maps in this process: no process starts.  The cap is the
    # number of mirror pairs: k = 3..4 has 3 cells in 2 pairs.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    # The CPU count of a platform that has no CPU affinity.
    monkeypatch.delattr(scan.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: cpus)
    rows, _ = run_scan(3, k_max, jobs=jobs)
    assert [(r.k, r.a) for r in rows] == scan_cells(3, k_max)
    assert started == ([] if workers is None else [workers])


def test_scan_pool_capped_by_cpu_affinity(monkeypatch):
    # A process that may run on one CPU scans in itself, however many
    # jobs it asks for and however many CPUs the machine has.
    serial, _ = run_scan(3, 12, jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one usable CPU")

    monkeypatch.setattr(scan.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(scan.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rows, _ = run_scan(3, 12, jobs=4)
    assert rows == serial


def _move_one_value(Z):
    # Z[1] - 1 stays above Z[0], since cut values differ by even gaps
    return (Z[0], Z[1] - 1, *Z[2:])


@pytest.mark.parametrize("cell", [(15, 12), (15, 7)], ids=["mirrored", "self-mirrored"])
def test_moved_lattice_value_fails_only_its_row(monkeypatch, cell):
    # (15, 12) is the mirror of (15, 2), whose reference comes from the
    # pass for a = 2; (15, 7) is its own mirror, with Z = {0, 14}, so its
    # moved value is the last one and also fails the caps check.
    cut_set = family_one.cut_set

    def moved(k, a):
        profile = cut_set(k, a)
        if (k, a) != cell:
            return profile
        return profile._replace(Z=_move_one_value(profile.Z))

    monkeypatch.setattr(family_one, "cut_set", moved)
    rows, _ = run_scan(14, 16)
    flagged = [
        (r.k, r.a) for r in rows if any(f.startswith("lattice-equality") for f in r.failures)
    ]
    assert flagged == [cell]
    assert [(r.k, r.a) for r in rows if not r.ok] == [cell]
    # A row that disagrees with its reference reflects its own Z.
    for r in rows:
        assert r.reflected == tuple(r.k - 1 - z for z in reversed(r.Z)), (r.k, r.a)


def test_moved_oracle_value_fails_both_rows_of_its_pair(monkeypatch):
    # A wrong reference for (15, 2) is also the wrong reference for its
    # mirror (15, 12), and both rows say so.
    reference = oracle.oracle_cut_set

    def moved(k, a):
        Z = reference(k, a)
        if (k, a) != (15, 2):
            return Z
        return set(_move_one_value(sorted(Z)))

    monkeypatch.setattr(oracle, "oracle_cut_set", moved)
    rows, summary = run_scan(14, 16)
    assert [(r.k, r.a) for r in rows if not r.ok] == [(15, 2), (15, 12)]
    for r in rows:
        if not r.ok:
            assert len(r.failures) == 1
            assert r.failures[0].startswith("lattice-equality: rays give")
    assert summary.failures == 2


def test_cli_import_leaves_the_process_pool_unloaded():
    # Only a scan with more than one worker needs the pool, so a
    # single-job run does not pay for importing it.
    src = str(Path(hampair.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hampair.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
