"""Walk through the cut-set machinery for Cay(Z_k; a, a+1).

For a few (k, a) cells we find the Hamiltonian cut values two ways --
by the lattice ray parametrization and by oracle_cut_set, the
independent reference that follows the cut permutations' first-return
maps from one cut value to the next -- read the endpoint caps and the
internal half-gaps off the ray multiplicities, then look at the
reflection distance between Z and its mirror N - Z.

Run:  python3 demos/cut_reflection_walkthrough.py
"""

from hampair import cut_path, cut_set, oracle_cut_set
from hampair.family_one import count_pair
from hampair.lattice import reflected_gap_graph


def show(k: int, a: int) -> None:
    profile = cut_set(k, a)
    N = profile.N
    print(f"== Cay(Z_{k}; {a}, {a + 1})  (N = {N})")

    print(f"   cut set Z          : {list(profile.Z)}")
    print(f"   reference check    : {sorted(oracle_cut_set(k, a))}")

    rs = profile.ray_system
    table = ", ".join(f"{r} x{h}" for r, h in zip(rs.rays, rs.mults))
    print(f"   lattice rays       : {table}")
    print(f"   ray prefix sums    : {rs.cut_values()}")

    # Z starts at the first multiplicity, steps by twice each internal
    # one, and ends the last one short of N.
    c_L, *half_gaps, c_R = rs.mults
    print(f"   caps / gaps        : c_L={c_L}, c_R={c_R}, internal {half_gaps}")

    mirror = [N - z for z in reversed(profile.Z)]
    print(f"   mirror N - Z       : {mirror}")
    print(f"   reflection distance: {profile.delta} "
          f"(witness pair {profile.witness}, sum {sum(profile.witness)})")
    graph = reflected_gap_graph(profile.Z, N, profile.delta)
    print(f"   gap graph edges    : negative {list(graph.negative_edges)}, "
          f"positive {list(graph.positive_edges)}")

    d, e = count_pair(k, a)
    w1 = cut_path(k, a, d)
    w2 = cut_path(k, a, e)
    print(f"   count pair (d, e)  : ({d}, {e}) with d + e = {d + e}")
    print(f"   cut path for d     : start {w1.start[0]}, labels {w1.labels}")
    print(f"   cut path for e     : start {w2.start[0]}, labels {w2.labels}")
    print()


def main() -> None:
    for k, a in [(5, 2), (6, 2), (10, 4), (15, 3)]:
        show(k, a)
    print("Note the parity pattern: the reflection distance is 0 for odd k")
    print("and 1 for even k on every cell above.")


if __name__ == "__main__":
    main()
