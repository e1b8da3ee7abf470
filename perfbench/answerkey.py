"""Answer key for the benchmark, independent of the package under test.

Nothing here imports hampair.  Pairs are re-verified with plain integer
arithmetic from the group orders, the generators and the label strings,
so an optimised verifier inside the package cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
from math import gcd
from typing import Optional, Sequence

LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def check_walks(
    orders: Sequence[int],
    gens: Sequence[Sequence[int]],
    walks: Sequence[tuple[Sequence[int], str]],
    cycle: bool = False,
) -> Optional[str]:
    """None if every walk is a Hamiltonian path (or cycle) of
    Cay(Z_orders; gens) and no two walks share a (tail, label) arc;
    otherwise the first problem found.

    Vertices are encoded as mixed-radix integers; the arc with tail v
    and label index i is encoded as v * len(gens) + i.
    """
    orders = tuple(int(o) for o in orders)
    n = 1
    for o in orders:
        if o < 1:
            return f"bad group order {o}"
        n *= o

    def encode(v) -> int:
        code = 0
        for x, o in zip(v, orders):
            code = code * o + x
        return code

    r = len(gens)
    steps = {}
    for i, g in enumerate(gens):
        if len(g) != len(orders):
            return f"generator {tuple(g)} has wrong rank"
        steps[LABELS[i]] = (i, tuple(int(x) % o for x, o in zip(g, orders)))
    want = n if cycle else n - 1
    used: set[int] = set()
    for w, (start, labels) in enumerate(walks):
        if len(start) != len(orders) or any(
            not 0 <= x < o for x, o in zip(start, orders)
        ):
            return f"walk {w}: start {tuple(start)} is not a vertex"
        if len(labels) != want:
            return f"walk {w}: {len(labels)} labels, expected {want}"
        v = list(start)
        seen: set[int] = set()
        arcs: set[int] = set()
        for lab in labels:
            step = steps.get(lab)
            if step is None:
                return f"walk {w}: unknown label {lab!r}"
            code = encode(v)
            if code in seen:
                return f"walk {w}: repeated vertex {tuple(v)}"
            seen.add(code)
            arcs.add(code * r + step[0])
            v = [(x + y) % o for x, y, o in zip(v, step[1], orders)]
        if cycle and v != list(start):
            return f"walk {w}: cycle does not close"
        if not cycle and encode(v) in seen:
            return f"walk {w}: repeated vertex {tuple(v)}"
        if arcs & used:
            return f"walk {w}: shares an arc with an earlier walk"
        used |= arcs
    return None


def check_witness_doc(doc: dict, family: str, params: dict[str, int]) -> Optional[str]:
    """Check a parsed witness document against the request that made it."""
    if doc.get("family") != family or doc.get("params") != params:
        return f"witness is for {doc.get('family')} {doc.get('params')}, not {family} {params}"
    orders = doc["group_orders"]
    gens = [doc["gen_a"], doc["gen_b"]] + ([doc["gen_c"]] if "gen_c" in doc else [])
    if family == "one":
        k, a = params["k"], params["a"]
        expect = ([k], [[a % k], [(a + 1) % k]])
    elif family == "two":
        a, L = params["a"], params["L"]
        k = (2 * a + 1) * L
        expect = ([k], [[(-a) % k], [(a + 1) % k]])
    else:
        return f"no answer key for family {family!r}"
    if (orders, gens) != expect:
        return f"witness digraph {orders} {gens} is not the requested one {expect}"
    walks = [(doc[p]["start"], doc[p]["labels"]) for p in ("path1", "path2")]
    return check_walks(orders, gens, walks)


def trotter_erdos(m: int, n: int) -> bool:
    """Whether C_m x C_n has a Hamiltonian directed cycle (Trotter and
    Erdos, 1978): iff d = gcd(m, n) splits as d1 + d2 with positive d1, d2,
    gcd(m, d1) = 1 and gcd(n, d2) = 1."""
    d = gcd(m, n)
    return any(gcd(m, d1) == 1 and gcd(n, d - d1) == 1 for d1 in range(1, d))


def cut_row_digest(k: int, zs: Sequence[Sequence[int]]) -> str:
    """Digest of the cut sets of every a = 1..k-2 of one sweep row."""
    text = ";".join(",".join(str(int(z)) for z in sorted(Z)) for Z in zs)
    return hashlib.sha256(f"{k}|{text}".encode()).hexdigest()[:24]


def check_scan_cell(k: int, a: int, Z, delta, pair, c_L, c_R) -> Optional[str]:
    """Arithmetic facts every cell of the first family must satisfy."""
    N = k - 1
    zs = sorted(int(z) for z in Z)
    if not zs:
        return f"{(k, a)}: empty cut set"
    real = min(abs(u + v - N) for u in zs for v in zs)
    parity = 0 if k % 2 else 1
    if delta != real or delta != parity:
        return f"{(k, a)}: delta {delta}, Z gives {real}, the parity law {parity}"
    if (c_L, c_R) != (gcd(k, a) - 1, gcd(k, a + 1) - 1) or (c_L, c_R) != (zs[0], N - zs[-1]):
        return f"{(k, a)}: caps {(c_L, c_R)} disagree with gcds or Z"
    d, e = pair
    if d not in zs or e not in zs or d + e not in (k - 2, k - 1, k):
        return f"{(k, a)}: count pair {pair} is not a cut-value pair with sum in k-2..k"
    return None
