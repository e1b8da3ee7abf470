"""The three workloads: how each draws its items from the seed, runs one
item through the package's public API, and checks the result.

Every workload draws from a fixed population cut into strata of similar
cost and takes the same number of items from each stratum, so different
seeds give about the same cost mix.  Checks run outside the item timer
and use the answer key and the reference tables in refs/.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Optional, Sequence

import answerkey

REFS = Path(__file__).resolve().parent / "refs"
WORKLOADS = ("sweep", "construct", "search")

# sweep: rows k = 24..87 in strata {k, k+1} of one even and one odd row;
# each stratum gives one row, and of two neighbouring strata one gives
# its even row and the other its odd row, so a pass has as many rows of
# each parity and its cost hardly depends on the seed.
SWEEP_K_MIN, SWEEP_STRATA = 24, 32
# construct: family-one cells with k near the centres of 40 strata of
# width 25 over [200, 1200), and family-two (a, L) with k = (2a+1)L near
# the centres of 24 log-spaced strata over [800, 16000].  The seed
# draws the generator a; k moves only a little with it, so the cost of
# each item, which grows with k, hardly depends on the seed.
ONE_K_MIN, ONE_STRATUM, ONE_STRATA = 200, 25, 40
TWO_K_MIN, TWO_K_MAX, TWO_STRATA, TWO_A_MAX = 800, 16000, 24, 12
# search: (a) pair searches on the two-generated abelian Cayley digraphs
# of order 16..24 listed in refs/search_pairs.json, one of each eight in
# order of reference cost; (b) Hamiltonian-cycle searches on coprime
# C_m x C_n, which are exhaustive proofs of absence; (c) three-factor
# products C_m x C_n x C_l, one per base so the per-base cache is never
# hit, with l = 4 or 5 (the lift costs O(mnl), and a wider range of l
# makes the cost mix depend on the seed).
PAIR_STRATUM = 8
CYCLE_BASES = ((2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 4), (3, 5), (3, 7),
               (3, 8), (4, 5), (4, 7), (5, 6))
PRODUCT_BASES = tuple(
    (m, n) for m in range(2, 7) for n in range(2, 7) if m * n <= 30
)
# sweep rows re-checked against oracle_cut_set after the timed items.
ORACLE_SAMPLE = 2


def load_ref(name: str):
    with open(REFS / name) as fh:
        return json.load(fh)


def _element(orders: Sequence[int], index: int) -> tuple[int, ...]:
    """The index-th element of Z_orders in lexicographic order."""
    out = []
    for o in reversed(orders):
        index, x = divmod(index, o)
        out.append(x)
    return tuple(reversed(out))


def pair_population() -> list[tuple[int, tuple, tuple, tuple]]:
    """(reference cost, orders, a, b) for every digraph of the pair-search
    population, as listed in refs/search_pairs.json."""
    ref = load_ref("search_pairs.json")
    out = []
    for g, ia, ib, cost in ref["digraphs"]:
        orders = tuple(ref["groups"][g])
        out.append((cost, orders, _element(orders, ia), _element(orders, ib)))
    return out


def make_items(workload: str, seed: int) -> list[tuple]:
    rng = random.Random(f"{workload}:{seed}")
    items: list[tuple] = []
    if workload == "sweep":
        for s in range(0, SWEEP_STRATA, 2):
            odd = rng.randrange(2)
            k = SWEEP_K_MIN + 2 * s
            items += [("row", k + odd), ("row", k + 2 + 1 - odd)]
    elif workload == "construct":
        for s in range(ONE_STRATA):
            k = ONE_K_MIN + (s + 0.5) * ONE_STRATUM + rng.randrange(-2, 3)
            items.append(("one", int(k), rng.randrange(1, int(k) - 1)))
        ratio = (TWO_K_MAX / TWO_K_MIN) ** (1 / TWO_STRATA)
        for s in range(TWO_STRATA):
            a = rng.randint(1, TWO_A_MAX)
            k = TWO_K_MIN * ratio ** (s + 0.5)
            items.append(("two", a, max(2, round(k / (2 * a + 1)))))
    elif workload == "search":
        ranked = sorted(pair_population())
        for s in range(0, len(ranked), PAIR_STRATUM):
            _, orders, a, b = rng.choice(ranked[s : s + PAIR_STRATUM])
            items.append(("pair", orders, a, b))
        for m, n in CYCLE_BASES:
            items.append(("cycle",) + ((m, n) if rng.randrange(2) else (n, m)))
        for m, n in PRODUCT_BASES:
            items.append(("product", m, n, rng.randint(4, 5)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


class Runner:
    """Runs and checks the items of one workload inside one process."""

    def __init__(self, hp, workload: str, seed: int, workdir: Path):
        self.hp = hp
        self.workload = workload
        self.seed = seed
        self.witness_path = str(workdir / "witness.json")
        self.digests = load_ref("sweep_digests.json") if workload == "sweep" else None
        # Called with the witness path between `build` and `verify`; the
        # harness self-check uses it to corrupt a file.
        self.between: Optional[Callable[[str], None]] = None

    # -- one item: the timed part -----------------------------------------

    def run(self, item: tuple):
        hp = self.hp
        kind = item[0]
        if kind == "row":
            return hp.scan.run_scan(item[1], item[1])
        if kind in ("one", "two"):
            sink = io.StringIO()
            with redirect_stderr(sink), redirect_stdout(sink):
                built = hp.cli.main(
                    ["build", kind, str(item[1]), str(item[2]), "--out", self.witness_path]
                )
                if self.between is not None:
                    self.between(self.witness_path)
                verified = hp.cli.main(["verify", self.witness_path])
            return built, verified
        if kind == "pair":
            return hp.find_arc_disjoint_pair(hp.cayley(item[1], item[2], item[3]))
        if kind == "cycle":
            return hp.find_hamiltonian_cycle(hp.product_digraph(item[1:]))
        if kind == "product":
            return hp.build_three_factor(*item[1:])
        raise ValueError(f"unknown item kind {kind!r}")

    # -- one item: the check, outside the timer ---------------------------

    def check(self, item: tuple, out) -> Optional[str]:
        kind = item[0]
        if kind == "row":
            return self._check_row(item[1], *out)
        if kind in ("one", "two"):
            built, verified = out
            if (built, verified) != (0, 0):
                return f"exit codes build={built} verify={verified}"
            with open(self.witness_path) as fh:
                doc = json.load(fh)
            names = ("k", "a") if kind == "one" else ("a", "L")
            return answerkey.check_witness_doc(doc, kind, dict(zip(names, item[1:])))
        if kind == "pair":
            if out.status.value != "found":
                return f"pair search {out.status.value}; the reference says found"
            p, q = out.pair
            gens = [item[2], item[3]]
            return answerkey.check_walks(item[1], gens, [(p.start, p.labels), (q.start, q.labels)])
        if kind == "cycle":
            m, n = item[1:]
            want = "found" if answerkey.trotter_erdos(m, n) else "absent"
            if out.status.value != want:
                return f"cycle search {out.status.value}; Trotter-Erdos says {want}"
            if want == "found":
                return answerkey.check_walks(
                    (m, n), [(1, 0), (0, 1)], [(out.walk.start, out.walk.labels)], cycle=True
                )
            return None
        if kind == "product":
            orders = item[1:]
            gens = [tuple(int(i == j) for j in range(3)) for i in range(3)]
            return answerkey.check_walks(orders, gens, [(w.start, w.labels) for w in out])
        return f"unknown item kind {kind!r}"

    def _check_row(self, k: int, rows, summary) -> Optional[str]:
        if summary.failures:
            return f"scan reported {summary.failures} check failures"
        if [(r.k, r.a) for r in rows] != [(k, a) for a in range(1, k - 1)]:
            return "scan rows do not cover a = 1..k-2 in order"
        for r in rows:
            if not r.lattice_agrees:
                return f"{(k, r.a)}: lattice cut values disagree"
            if tuple(r.reflected) != tuple(k - 1 - z for z in reversed(r.Z)):
                return f"{(k, r.a)}: reflected set is not N - Z"
            err = answerkey.check_scan_cell(k, r.a, r.Z, r.delta, r.count_pair, r.c_L, r.c_R)
            if err:
                return err
        if answerkey.cut_row_digest(k, [r.Z for r in rows]) != self.digests[str(k)]:
            return f"k={k}: cut sets differ from the oracle_cut_set reference"
        return None

    # -- untimed reference checks after the items -------------------------

    def reference_sample(self, items: list[tuple]) -> set[int]:
        """Indices of the items whose outputs are re-derived afterwards."""
        if self.workload != "sweep":
            return set()
        rng = random.Random(f"oracle:{self.seed}")
        return set(rng.sample(range(len(items)), ORACLE_SAMPLE))

    def reference_check(self, item: tuple, out) -> Optional[str]:
        """Compare a sweep row with oracle_cut_set, the package's own
        independent reference."""
        rows, _ = out
        for r in rows:
            if set(r.Z) != self.hp.oracle_cut_set(item[1], r.a):
                return f"{(item[1], r.a)}: cut set differs from oracle_cut_set"
        return None
