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
take about 0.15 s in one process on one core of a 2-core Xeon VM
(Python 3.11; the median of 25 runs, each the best of 5 passes,
quartiles 0.145-0.148 s), and a fresh `hampair scan 100 130 --format
csv` about 0.57 s, 0.44 s with --jobs 2 (medians of 15 runs).

Units are independent, so scans parallelize, on at most as many worker
processes as this process may use CPUs; results are always reported in
(k, a) order.

ScanRow is the package's one dataclass, for the benchmark's self-check
(perfbench/selfcheck.py), which corrupts a row with dataclasses.replace.
Every other record is a NamedTuple or a plain class, which generates
no code at import, and the CLI imports this module only for `scan`, so
no other command loads dataclasses.  It is a slots dataclass, not a
frozen one, so it has no hash: a frozen row set each field through
object.__setattr__ and took 2.1 us to build, where a slots row takes
0.3 us (positional arguments; 0.7 us by keyword), and a pass over
rows 24..87 builds 3,424 rows.  Nothing hashes or mutates a row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from . import family_one, lattice, oracle
from .core import InputError

@dataclass(slots=True)
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


def scan_cell(
    cell: tuple[int, int], oracle_Z: tuple[int, ...], reflected: Optional[tuple[int, ...]] = None
) -> ScanRow:
    """All six checks on one cell; oracle_Z is its sorted reference cut
    set from oracle_cut_set (scan_mirror_pair derives it), and
    reflected, if given, is N - oracle_Z, which is the row's N - Z when
    the two sets agree."""
    k, a = cell
    profile = family_one.cut_set(k, a)
    N = k - 1
    Z = profile.Z
    rs = profile.ray_system
    caps = c_L, c_R = lattice.endpoint_caps(k, a)
    failures = []

    lattice_agrees = oracle_Z == Z
    if reflected is None or not lattice_agrees:
        reflected = tuple(map(N.__sub__, reversed(Z)))

    expected = 0 if k % 2 else 1
    if profile.delta != expected:
        failures.append(f"parity-sharp: delta={profile.delta}, expected {expected}")
    if not lattice_agrees:
        failures.append(f"lattice-equality: rays give {Z}, oracle gives {oracle_Z}")
    if Z[-1] + rs.mults[-1] != N:
        failures.append("lattice-equality: endpoint identity violated")
    if (Z[0], N - Z[-1]) != caps:
        failures.append(f"caps: profile gives {(Z[0], N - Z[-1])}, gcds give {caps}")
    h, large = rs.mults, rs.large
    for i, j, mass, bound in lattice.sector_filling_violations(rs):
        failures.append(f"sector-filling: M(A_{i},A_{j})={mass} < theta{(h[i], h[j])}={bound}")
    # two blocks of multiplicity >= 2 side by side are consecutive in rs.large
    for i, j in zip(large, large[1:]):
        if j == i + 1:
            failures.append(f"adjacent-large: consecutive blocks {h[i]}, {h[j]}")
    for side, ray, mass, required in lattice.cap2_violations(rs):
        failures.append(f"cap2: side {side} ray {ray}: mass {mass} < {required}")

    # positional, in field order: keywords cost about 0.5 us more a row
    return ScanRow(k, a, Z, reflected, profile.delta, profile.count_pair, c_L, c_R,
                   lattice_agrees, tuple(failures))


def scan_mirror_pair(unit: tuple[int, int]) -> tuple[ScanRow, ...]:
    """The rows of cells (k, a) and (k, N-a), a <= N-a, from one
    oracle_cut_set pass: cell N-a's reference is N - Z(k, a), and each
    cell's reference is the other's reflected set.  A self-mirrored
    cell, a = N-a, gives one row."""
    k, a = unit
    N = k - 1
    oracle_Z = tuple(sorted(oracle.oracle_cut_set(k, a)))
    mirror_Z = tuple(map(N.__sub__, reversed(oracle_Z)))
    if a == N - a:
        return (scan_cell((k, a), oracle_Z, mirror_Z),)
    return scan_cell((k, a), oracle_Z, mirror_Z), scan_cell((k, N - a), mirror_Z, oracle_Z)


class ScanSummary:
    __slots__ = ("cells", "failures", "sum_k_minus_2", "sum_k", "first_failure")

    def __init__(self) -> None:
        self.cells = self.failures = 0
        # even-k count-pair sums: how often the chosen sum is k-2 vs k
        self.sum_k_minus_2 = self.sum_k = 0
        self.first_failure: Optional[ScanRow] = None

    def absorb(self, k: int, k_rows: list[ScanRow]) -> None:
        """Count the rows of the cells (k, a), given in a order."""
        self.cells += len(k_rows)
        failed = [row for row in k_rows if row.failures]
        self.failures += sum(len(row.failures) for row in failed)
        if failed and self.first_failure is None:
            self.first_failure = failed[0]
        if k % 2 == 0:
            sums = [d + e for d, e in [row.count_pair for row in k_rows]]
            self.sum_k_minus_2 += sums.count(k - 2)
            self.sum_k += sums.count(k)


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
    # Back to (k, a) order with no sort: the (k - 1) // 2 units of k,
    # a = 1, 2, ..., give the cells a ascending, then their mirrors N - a
    # descending (a self-mirrored unit, the last of odd k, has none).
    rows: list[ScanRow] = []
    summary = ScanSummary()
    end = 0
    for k in range(max(k_min, 3), k_max + 1):
        start, end = end, end + (k - 1) // 2
        k_pairs = pairs[start:end]
        k_rows = [pair[0] for pair in k_pairs]
        k_rows += [pair[1] for pair in reversed(k_pairs) if len(pair) == 2]
        summary.absorb(k, k_rows)
        rows += k_rows
    return rows, summary
