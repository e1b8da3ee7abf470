"""Harness self-check: corrupted outputs must count as failed items.

    python3 perfbench/selfcheck.py

Runs each workload's pass loop on a few small items, first untouched
(every item must pass), then with one output corrupted at a time: one
cut value of a sweep row, one label of a witness file before `verify`
and after it, and one label or a whole path of a found pair.  Each
corrupted run must fail exactly the corrupted item, counted in
fail_ratio.  It also compares the answer key's Trotter-Erdos predicate
with the DFS oracle on small bases.  Exits 1 if any of this does not
hold.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import answerkey
import workloads
from worker import import_package, run_pass

SMALL = {
    "sweep": [("row", 24), ("row", 25), ("row", 26), ("row", 27)],
    "construct": [("one", 20, 7), ("two", 1, 5), ("one", 31, 4), ("two", 2, 4)],
    "search": [("pair", (2, 6), (1, 1), (0, 1)), ("cycle", 3, 4), ("cycle", 2, 4),
               ("product", 2, 3, 2)],
}
TARGET = 1  # the item that gets corrupted
RUNNERS: dict[str, workloads.Runner] = {}


def flip(labels: str, i: int) -> str:
    return labels[:i] + ("B" if labels[i] == "A" else "A") + labels[i + 1 :]


def flip_file(path: str) -> None:
    """Flip the fourth label of path2 in a witness file."""
    text = Path(path).read_text()
    at = text.index('"labels": "', text.index('"path2"')) + len('"labels": "') + 3
    Path(path).write_text(flip(text, at))


def shift_one_cut_value(i, out):
    if i != TARGET:
        return out
    rows, summary = out
    # an inner cut value outside the count pair, moved with N - Z kept
    # consistent, so only the oracle_cut_set digest can tell
    j, m = next(
        (j, m) for j, r in enumerate(rows) for m in range(1, len(r.Z) - 1)
        if r.Z[m] not in r.count_pair
    )
    r = rows[j]
    Z = list(r.Z)
    Z[m] += 2
    bad = dataclasses.replace(r, Z=tuple(Z), reflected=tuple(r.k - 1 - z for z in reversed(Z)))
    return [*rows[:j], bad, *rows[j + 1 :]], summary


def corrupt_after_verify(i, out):
    if i == TARGET:
        flip_file(RUNNERS["construct"].witness_path)
    return out


def flip_pair_label(i, out):
    if i != 0:  # the found pair in SMALL["search"]
        return out
    p, q = out.pair
    bad = SimpleNamespace(start=q.start, labels=flip(q.labels, len(q.labels) // 2))
    return SimpleNamespace(status=out.status, pair=(p, bad))


def repeat_path(i, out):
    if i != 0:
        return out
    p, _ = out.pair
    return SimpleNamespace(status=out.status, pair=(p, p))


def main() -> int:
    hp = import_package()
    ok = True

    def expect(label: str, workload: str, failed_items: set[int], **kwargs) -> None:
        nonlocal ok
        result = run_pass(RUNNERS[workload], SMALL[workload], **kwargs)
        failed = {i for i, e in enumerate(result["errors"]) if e}
        good = failed == failed_items
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {label:<40} failed items {sorted(failed)} "
              f"fail_ratio {len(failed) / len(result['times']):.2f}")
        for e in result["errors"]:
            if e:
                print(f"       {e[:110]}")

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as work:
        for w in SMALL:
            RUNNERS[w] = workloads.Runner(hp, w, 0, Path(work))
        for w in SMALL:
            expect(f"{w}: untouched", w, set())
        expect("sweep: one cut value moved by 2", "sweep", {TARGET}, tamper=shift_one_cut_value)
        builds = iter(range(len(SMALL["construct"])))
        RUNNERS["construct"].between = lambda path: next(builds) == TARGET and flip_file(path)
        expect("construct: label flipped before verify", "construct", {TARGET})
        RUNNERS["construct"].between = None
        expect("construct: label flipped after verify", "construct", {TARGET},
               tamper=corrupt_after_verify)
        expect("search: one pair label flipped", "search", {0}, tamper=flip_pair_label)
        expect("search: second path equals the first", "search", {0}, tamper=repeat_path)

    bad = []
    for m, n in [(2, 3), (2, 4), (3, 4), (3, 6), (4, 4), (4, 5), (4, 6), (6, 2), (6, 3)]:
        out = hp.find_hamiltonian_cycle(hp.product_digraph((m, n)))
        if (out.status.value == "found") != answerkey.trotter_erdos(m, n):
            bad.append((m, n))
    ok = ok and not bad
    print(f"{'ok  ' if not bad else 'FAIL'} Trotter-Erdos predicate agrees with the oracle {bad or ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
