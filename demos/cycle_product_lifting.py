"""Lifting arc-disjoint path pairs through a third directed cycle.

A strongly switchable pair in the base C_m x C_n -- an ordered pair of
arc-disjoint Hamiltonian paths whose endpoint offsets alpha, beta,
gamma avoid three collision clauses -- can be stacked layer by layer
into C_m x C_n x C_l for every l >= 2, alternating translated copies of
the two paths.  The base pair comes from the coset construction
(hampair.cosets); the DFS oracle cross-checks it.

Run:  python3 demos/cycle_product_lifting.py
"""

from hampair import (
    build_three_factor,
    find_arc_disjoint_pair,
    find_strongly_switchable_pair,
    is_strongly_switchable,
    lift_through_cycle,
    product_digraph,
)
from hampair.cosets import coset_split, iter_pairs


def main() -> None:
    m, n = 2, 3
    base = product_digraph((m, n))
    split = coset_split(base)
    print(f"== base C_{m} x C_{n}: delta = {split.delta} of order {split.n}, "
          f"{split.m} coset(s), sigma = {split.sigma}")

    # The first structured pair that is strongly switchable in either
    # order, as build_three_factor picks it.
    p, q = next(
        cand
        for pair in iter_pairs(base)
        for cand in (pair, pair[::-1])
        if is_strongly_switchable(base, *cand)[0]
    )
    _, data, _ = is_strongly_switchable(base, p, q)
    print(f"   P: start {p.start}, labels {p.labels}, end {p.end}")
    print(f"   Q: start {q.start}, labels {q.labels}, end {q.end}")
    print(f"   alpha = {data.alpha}, beta = {data.beta}, gamma = {data.gamma}")
    print(f"   the DFS oracle's reference search also finds a strongly switchable "
          f"pair: {find_strongly_switchable_pair(base).found}")

    for ell in (2, 3, 5):
        w1, w2 = lift_through_cycle(base, p, q, ell)
        print(f"   lift to C_{m} x C_{n} x C_{ell}: "
              f"paths of length {len(w1)}, verified arc-disjoint")
    print()

    print("== one-call builder, cross-checked by exhaustive search")
    for m, n, ell in [(2, 2, 3), (3, 3, 2), (4, 5, 2)]:
        w1, w2 = build_three_factor(m, n, ell)
        print(f"   C_{m} x C_{n} x C_{ell}: built pair, "
              f"labels {w1.labels[:12]}... / {w2.labels[:12]}...")
        if m * n * ell <= 24:
            brute = find_arc_disjoint_pair(product_digraph((m, n, ell)))
            print(f"      brute-force search agrees: found = {brute.found}")


if __name__ == "__main__":
    main()
