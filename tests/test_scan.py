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
from hampair.scan import run_scan, scan_cell, scan_cells


def test_cells_cover_all_valid_a():
    cells = scan_cells(3, 6)
    assert cells[0] == (3, 1)
    assert (6, 1) in cells and (6, 4) in cells
    assert all(1 <= a <= k - 2 for k, a in cells)


def test_cell_row_fields():
    row = scan_cell((10, 4))
    assert row.Z == (1, 3, 5)
    assert row.reflected == (4, 6, 8)
    assert row.delta == 1
    assert row.count_pair == (3, 5)
    assert (row.c_L, row.c_R) == (1, 4)
    assert row.lattice_agrees
    assert row.ok


def test_scan_cell_builds_one_ray_system(monkeypatch):
    # One ray system per cell, and the lattice-equality check still runs
    # the independent reference in every cell.
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
    assert calls == {"ray_system": len(rows), "oracle_cut_set": len(rows)}
    calls.update(ray_system=0)
    family_one.realize_disjoint_pair(40, 9)
    assert calls["ray_system"] == 1


def test_sector_filling_failure_is_reported(monkeypatch):
    monkeypatch.setattr(lattice, "sector_filling_violations", lambda rs: [(0, 4, 1, 7)])
    row = scan_cell((15, 3))
    assert row.failures == ("sector-filling: M(A_0,A_4)=1 < theta(2, 3)=7",)


# SHA-256 of the stdout of `hampair scan 3 45 --format csv`: the scan's
# output must stay byte-identical when its internals change.
SCAN_3_45_CSV_SHA256 = "8af1086b93fc5ac796a02a9b347d946a1654cab621b2156932fbc693b9a588cc"


def test_scan_csv_output_is_pinned(capsys):
    assert main(["scan", "3", "45", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_3_45_CSV_SHA256


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
    [(100000, 64, 4, 3), (100000, 2, 20, 2), (100000, None, 20, None), (1, 64, 20, None)],
)
def test_scan_workers_capped_by_cells_and_cpus(monkeypatch, jobs, cpus, k_max, workers):
    # The pool forks every worker up front, so its size is checked on a
    # fake that maps in this process: no process starts.
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
    monkeypatch.setattr(scan.os, "cpu_count", lambda: cpus)
    rows, _ = run_scan(3, k_max, jobs=jobs)
    assert [(r.k, r.a) for r in rows] == scan_cells(3, k_max)
    assert started == ([] if workers is None else [workers])


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
