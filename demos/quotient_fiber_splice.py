"""The quotient-fiber construction for Cay(Z_k; -a, a+1), k = (2a+1)L.

Both generators advance the quotient coordinate t = x/(a+1) mod 2a+1 by
one, so a choice of quotient positions S (step by -a there, by a+1
elsewhere) defines a skew cover of the quotient cycle.  The canonical
|S| = a+2 gives one Hamiltonian cycle; its complement gives one cycle
for odd L and a spliced pair of cycles for even L.  build_family_two
builds this pair as a coset pair (hampair.cosets); the demo reads its
coset parameters off the two paths.

Run:  python3 demos/quotient_fiber_splice.py
"""

from hampair import build_family_two
from hampair.cosets import coset_split
from hampair.family_two import QuotientFiberConfig, skew_cover


def show_cover(cfg: QuotientFiberConfig, S, name: str) -> None:
    cover = skew_cover(cfg, S)
    print(f"   {name}: S = {sorted(cover.S)}, return shift {cover.return_shift}")
    for cyc in cover.cycles:
        arrow = " -> ".join(str(x) for x in cyc + (cyc[0],))
        print(f"      cycle: {arrow}")


def demo(a: int, L: int) -> None:
    cfg = QuotientFiberConfig(a, L)
    print(f"== a={a}, L={L}: Cay(Z_{cfg.k}; {cfg.gen_a}, {cfg.gen_b}), "
          f"quotient modulus M={cfg.M}")

    coords = [cfg.quotient_coordinate(x) for x in range(cfg.k)]
    print(f"   quotient coordinates of 0..{cfg.k - 1}: {coords}")

    show_cover(cfg, cfg.canonical_S(), "canonical cover")
    show_cover(cfg, frozenset(range(cfg.M)) - cfg.canonical_S(), "complement")

    p1, p2 = build_family_two(a, L)
    v1 = " -> ".join(str(v[0]) for v in p1.vertex_list)
    v2 = " -> ".join(str(v[0]) for v in p2.vertex_list)
    print(f"   path 1 ({p1.labels}): {v1}")
    print(f"   path 2 ({p2.labels}): {v2}")
    # P uses one label per coset after its end's (the first m - 1 labels)
    # and B^j A^(n-1-j) on its end's coset, one label per round; Q's end
    # is P's end plus i*delta, delta = -M.
    split = coset_split(cfg.digraph())
    m = split.m
    c = p1.labels[: m - 1].count("B")
    j_p, j_q = (p.labels[m - 1 :: m].count("B") for p in (p1, p2))
    i = (p1.end[0] - p2.end[0]) % cfg.k // cfg.M
    print(f"   coset pair: n={split.n}, m={m}, sigma={split.sigma}, c={c}, "
          f"j_P={j_p}, j_Q={j_q}, i={i}")
    if L % 2 == 0:
        print("   (even L: the complement splits in two; path 2 borrows one")
        print("    crossing arc from the canonical cycle to splice them.)")
    print()


def main() -> None:
    demo(1, 2)   # the smallest even-L case, k = 6
    demo(1, 3)   # odd L: both covers are Hamiltonian cycles
    demo(2, 4)   # a larger even-L splice
    print("Each pair above is re-verified inside build_family_two:")
    print("two Hamiltonian paths, no shared arc.")


if __name__ == "__main__":
    main()
