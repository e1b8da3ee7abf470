"""Parameter scans over the first cyclic family.

One scan cell covers a single (k, a) and always runs all six checks:
parity-sharp (the reflection distance against its parity prediction),
lattice-equality (the ray-system cut set against oracle_cut_set, and
the endpoint identity), caps (the gcd cap formulas), sector-filling,
adjacent-large and cap2 (the sector-filling inequalities).

A cell builds one ray system: family_one.cut_set reads Z, the
reflection distance with its witness and the count pair from it and
hands it on in the CutProfile, and the lattice checks read the same
object.  The ray system comes from the Farey next-term recurrence, O(1)
per ray, and each sector-filling pair costs O(1) by prefix sums and the
closed form of theta.

The unit of work is a mirror pair: cells (k, a) and (k, N-a) with
a <= N-a.  The independent reference oracle_cut_set, one incremental
pass over the cut values that tracks first-return maps, runs once per
unit: cell a gets its set Z and cell N-a gets N - Z, which is that
cell's cut set by the conjugation lemma in oracle_cut_set's docstring.
The reference is computed from permutations alone, and each cell
compares its own ray-system cut set with it.  A self-mirrored
cell (odd k, a = N/2) is a unit of one.  Rows k = 24..87 (3,424 cells)
take about 0.15-0.16 s in one process on one core of a 2-core Xeon
(Python 3.11, best of 5), and a fresh `hampair scan 100 130` about
0.4 s (medians of 15 runs).

Units are independent, so scans parallelize, on at most as many worker
processes as this process may use CPUs; results are always reported in
(k, a) order.

ScanRow is the package's one dataclass, for the benchmark's self-check
(perfbench/selfcheck.py), which corrupts a row with dataclasses.replace.
Every other record is a NamedTuple or a plain class, which generates
no code at import, and the CLI imports this module only for `scan`, so
no other command loads dataclasses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from . import family_one, lattice, oracle
from .core import InputError

@dataclass(frozen=True)
class ScanRow:
    k: int
    a: int
    Z: tuple[int, ...]
    reflected: tuple[int, ...]  # N - Z
    delta: int
    count_pair: tuple[int, int]
    c_L: int
    c_R: int
    lattice_agrees: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def scan_cell(cell: tuple[int, int], oracle_Z: tuple[int, ...]) -> ScanRow:
    """All six checks on one cell; oracle_Z is its sorted reference cut
    set from oracle_cut_set (scan_mirror_pair derives it)."""
    k, a = cell
    profile = family_one.cut_set(k, a)
    N = profile.N
    Z = profile.Z
    rs = profile.ray_system
    caps = lattice.endpoint_caps(k, a)
    failures = []

    lattice_agrees = oracle_Z == Z

    expected = 0 if k % 2 else 1
    if profile.delta != expected:
        failures.append(f"parity-sharp: delta={profile.delta}, expected {expected}")
    if not lattice_agrees:
        failures.append(f"lattice-equality: rays give {Z}, oracle gives {oracle_Z}")
    if Z[-1] + rs.mults[-1] != N:
        failures.append("lattice-equality: endpoint identity violated")
    if (Z[0], N - Z[-1]) != caps:
        failures.append(f"caps: profile gives {(Z[0], N - Z[-1])}, gcds give {caps}")
    for i, j, mass, bound in lattice.sector_filling_violations(rs):
        p, q = rs.mults[i], rs.mults[j]
        failures.append(f"sector-filling: M(A_{i},A_{j})={mass} < theta{(p, q)}={bound}")
    for h1, h2 in zip(rs.mults, rs.mults[1:]):
        if h1 >= 2 and h2 >= 2:
            failures.append(f"adjacent-large: consecutive blocks {h1}, {h2}")
    for side, ray, mass, required in lattice.cap2_violations(rs):
        failures.append(f"cap2: side {side} ray {ray}: mass {mass} < {required}")

    return ScanRow(
        k=k,
        a=a,
        Z=Z,
        reflected=tuple(map(N.__sub__, reversed(Z))),
        delta=profile.delta,
        count_pair=profile.count_pair,
        c_L=caps[0],
        c_R=caps[1],
        lattice_agrees=lattice_agrees,
        failures=tuple(failures),
    )


def scan_mirror_pair(unit: tuple[int, int]) -> tuple[ScanRow, ...]:
    """The rows of cells (k, a) and (k, N-a), a <= N-a, from one
    oracle_cut_set pass: cell N-a's reference is N - Z(k, a).  A
    self-mirrored cell, a = N-a, gives one row."""
    k, a = unit
    N = k - 1
    oracle_Z = tuple(sorted(oracle.oracle_cut_set(k, a)))
    rows = (scan_cell((k, a), oracle_Z),)
    if a != N - a:
        rows += (scan_cell((k, N - a), tuple(map(N.__sub__, reversed(oracle_Z)))),)
    return rows


class ScanSummary:
    __slots__ = ("cells", "failures", "sum_k_minus_2", "sum_k", "first_failure")

    def __init__(self) -> None:
        self.cells = self.failures = 0
        # even-k count-pair sums: how often the chosen sum is k-2 vs k
        self.sum_k_minus_2 = self.sum_k = 0
        self.first_failure: Optional[ScanRow] = None

    def absorb(self, row: ScanRow) -> None:
        self.cells += 1
        if not row.ok and self.first_failure is None:
            self.first_failure = row
        self.failures += len(row.failures)
        if row.k % 2 == 0:
            s = sum(row.count_pair)
            if s == row.k - 2:
                self.sum_k_minus_2 += 1
            elif s == row.k:
                self.sum_k += 1


def scan_cells(k_min: int, k_max: int) -> list[tuple[int, int]]:
    return [
        (k, a)
        for k in range(max(k_min, 3), k_max + 1)
        for a in range(1, k - 1)
    ]


def run_scan(k_min: int, k_max: int, jobs: int = 1) -> tuple[list[ScanRow], ScanSummary]:
    if jobs < 1:
        raise InputError("jobs must be positive")
    if k_max < max(k_min, 3):
        raise InputError(f"no cells to scan: k = {max(k_min, 3)}..{k_max} is empty")
    # one unit (k, a) with a <= N-a per mirror pair
    units = [(k, a) for k, a in scan_cells(k_min, k_max) if 2 * a <= k - 1]
    # The pool starts all its workers at once, so never ask for more than
    # there are units or CPUs this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(units), cpus or 1)
    if workers > 1:
        # Imported here: the pool's modules would add to the start-up of
        # every single-job run.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(scan_mirror_pair, units, chunksize=16))
    else:
        pairs = [scan_mirror_pair(unit) for unit in units]
    # back to (k, a) order: a row's mirror cells come out in reverse
    rows = sorted((row for pair in pairs for row in pair), key=lambda row: (row.k, row.a))
    summary = ScanSummary()
    for row in rows:
        summary.absorb(row)
    return rows, summary
