"""End-to-end witness pipeline on an arbitrary small abelian group.

Search Z_2 x Z_6 exhaustively for two arc-disjoint Hamiltonian paths,
wrap the result in a witness file, round-trip it through JSON, and
re-verify -- the flow of `hampair build search 2,6 1,1 0,1 --out w.json`
and `hampair verify w.json`, whose pair comes from the cosets instead.

Run:  python3 demos/witness_pipeline.py
"""

from hampair import cayley, find_arc_disjoint_pair
from hampair.witness import WitnessFile, witness_from_json


def main() -> None:
    d = cayley([2, 6], (1, 1), (0, 1))
    print(f"digraph: orders {d.group.orders}, generators {d.gens}")

    out = find_arc_disjoint_pair(d)
    print(f"search status: {out.status.value} after {out.nodes_used} nodes")
    p1, p2 = out.pair

    wf = WitnessFile(
        "search", {"order_0": 2, "order_1": 6}, d, p1, p2
    )
    text = wf.to_json()
    print("witness file:")
    print(text, end="")

    again = witness_from_json(text)
    reason = again.verify()  # None: the pair passes every check
    print(f"round-trip verification: {reason or 'ok'}")
    assert reason is None, reason
    assert again.to_json() == text, "serialization must be byte-stable"


if __name__ == "__main__":
    main()
