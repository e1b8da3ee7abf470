"""Regenerate the reference tables in refs/ from the package in src/.

    python3 perfbench/make_refs.py

sweep_digests.json holds, for every sweep row k, a digest of the cut
sets of all a computed by oracle_cut_set (the package's independent
reference, not the production cut set).

search_pairs.json lists the pair-search population: every Cay(G; a, b)
with G abelian of order 16..24 written as a product of cyclic groups of
nondecreasing orders, and {a, b} an unordered pair of distinct nonzero
elements that generate G.  An entry is [group index, index of a, index
of b, cost], elements indexed in lexicographic order.  The cost is the
fastest of three timings of the search, in microseconds, when the table
was made; the benchmark uses it only to sort the population into strata
of similar cost.  Every search must be "found".  Run this only when a
population changes.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hampair  # noqa: E402

import answerkey  # noqa: E402
import workloads  # noqa: E402

PAIR_ORDERS = range(16, 25)


def cyclic_factorizations(order: int, minimum: int = 2):
    if order == 1:
        yield ()
        return
    for first in range(minimum, order + 1):
        if order % first == 0:
            for rest in cyclic_factorizations(order // first, first):
                yield (first,) + rest


def generates(orders: tuple[int, ...], gens) -> bool:
    zero = (0,) * len(orders)
    seen = {zero}
    todo = [zero]
    while todo:
        v = todo.pop()
        for g in gens:
            w = tuple((x + y) % o for x, y, o in zip(v, g, orders))
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(list(itertools.product(*(range(o) for o in orders))))


def main() -> None:
    digests = {}
    for k in range(workloads.SWEEP_K_MIN, workloads.SWEEP_K_MIN + 2 * workloads.SWEEP_STRATA):
        zs = [sorted(hampair.oracle_cut_set(k, a)) for a in range(1, k - 1)]
        digests[str(k)] = answerkey.cut_row_digest(k, zs)
    groups, digraphs = [], []
    for order in PAIR_ORDERS:
        for orders in cyclic_factorizations(order):
            elements = list(itertools.product(*(range(o) for o in orders)))
            for ia, ib in itertools.combinations(range(1, len(elements)), 2):
                a, b = elements[ia], elements[ib]
                if not generates(orders, (a, b)):
                    continue
                cost = float("inf")
                for _ in range(3):
                    t0 = perf_counter()
                    out = hampair.find_arc_disjoint_pair(hampair.cayley(orders, a, b))
                    cost = min(cost, perf_counter() - t0)
                if out.status is not hampair.Status.FOUND:
                    raise SystemExit(f"{orders} {a} {b}: {out.status.value}")
                if list(orders) not in groups:
                    groups.append(list(orders))
                digraphs.append([groups.index(list(orders)), ia, ib, round(cost * 1e6)])
    (HERE / "refs").mkdir(exist_ok=True)
    with open(HERE / "refs" / "sweep_digests.json", "w") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")
    with open(HERE / "refs" / "search_pairs.json", "w") as fh:
        json.dump({"groups": groups, "digraphs": digraphs}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
