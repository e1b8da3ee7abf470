"""Finite abelian groups, Cayley digraphs, labeled walks, and verification.

Everything downstream (the structured constructions, the brute-force
search, the CLI) goes through the walk verifier defined here, so this
module is deliberately small and has no dependencies beyond the stdlib.
"""

from __future__ import annotations

import string
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Vertex = tuple[int, ...]

# Generator labels, in branch order.  Two-generated digraphs use "A","B";
# cycle products add a third direction "C".
GENERATOR_LABELS = string.ascii_uppercase


class InputError(ValueError):
    """Malformed input: bad vertex, mismatched groups, invalid parameters."""


def check_family_one_params(k: int, a: int) -> int:
    """Validate (k, a) for Cay(Z_k; a, a+1) and return a reduced mod k."""
    if k < 3:
        raise InputError(f"need k >= 3, got k={k}")
    a %= k
    if a in (0, k - 1):
        raise InputError(f"need k >= 3 and a not in {{0, k-1}} mod k, got {(k, a)}")
    return a


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nr}.

    Vertices are canonical residue tuples, componentwise in [0, order_i).
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.orders or any(n < 1 for n in self.orders):
            raise InputError(f"orders must all be >= 1, got {self.orders}")

    @property
    def size(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    @property
    def zero(self) -> Vertex:
        return (0,) * len(self.orders)

    def canon(self, v: int | Iterable[int]) -> Vertex:
        """Canonicalize an element; bare ints are accepted for rank one."""
        if isinstance(v, int):
            v = (v,)
        t = tuple(v)
        if len(t) != len(self.orders):
            raise InputError(f"vertex {t} has wrong rank for orders {self.orders}")
        return tuple(x % n for x, n in zip(t, self.orders))

    def check_vertex(self, v: Vertex) -> Vertex:
        t = tuple(v)
        if len(t) != len(self.orders) or any(
            not (0 <= x < n) for x, n in zip(t, self.orders)
        ):
            raise InputError(f"{t} is not a canonical vertex of {self.orders}")
        return t

    def add(self, u: Vertex, v: Vertex) -> Vertex:
        return tuple((x + y) % n for x, y, n in zip(u, v, self.orders))

    def neg(self, v: Vertex) -> Vertex:
        return tuple((-x) % n for x, n in zip(v, self.orders))

    def elements(self) -> Iterator[Vertex]:
        """All vertices in lexicographic order."""

        def rec(i: int, prefix: tuple[int, ...]) -> Iterator[Vertex]:
            if i == len(self.orders):
                yield prefix
                return
            for x in range(self.orders[i]):
                yield from rec(i + 1, prefix + (x,))

        return rec(0, ())


@dataclass(frozen=True)
class CayleyDigraph:
    """Directed Cayley digraph on an abelian group with labeled generators.

    Arcs are x -> x + gens[i], labeled by GENERATOR_LABELS[i].  The usual
    case is two generators (labels "A" and "B"); Cartesian products of
    three directed cycles use three.
    """

    group: FiniteAbelianGroup
    gens: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        gens = tuple(self.group.canon(g) for g in self.gens)
        object.__setattr__(self, "gens", gens)
        if len(gens) < 1 or len(gens) > len(GENERATOR_LABELS):
            raise InputError("unsupported number of generators")
        if any(g == self.group.zero for g in gens):
            raise InputError("generators must be nonzero")
        if len(set(gens)) != len(gens):
            raise InputError("generators must be distinct")
        if not self._generates():
            raise InputError(f"{gens} do not generate the group {self.group.orders}")

    def _generates(self) -> bool:
        # Breadth-first closure from 0 over the generator set.
        seen = {self.group.zero}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for g in self.gens:
                w = self.group.add(v, g)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.group.size

    @property
    def labels(self) -> str:
        return GENERATOR_LABELS[: len(self.gens)]

    @property
    def gen_a(self) -> Vertex:
        return self.gens[0]

    @property
    def gen_b(self) -> Vertex:
        return self.gens[1]

    def gen(self, lab: str) -> Vertex:
        i = GENERATOR_LABELS.find(lab)
        if not (0 <= i < len(self.gens)):
            raise InputError(f"unknown generator label {lab!r}")
        return self.gens[i]

    def successor(self, v: Vertex, lab: str) -> Vertex:
        """The head of the arc with tail v and the given label."""
        return self.group.add(self.group.check_vertex(v), self.gen(lab))


def cayley(orders: Sequence[int], *gens: int | Iterable[int]) -> CayleyDigraph:
    """Convenience constructor: cayley([10], 4, 5) is Cay(Z_10; 4, 5)."""
    group = FiniteAbelianGroup(tuple(orders))
    return CayleyDigraph(group, tuple(group.canon(g) for g in gens))


# An arc in a Cayley digraph is determined by (tail, label).
Arc = tuple[Vertex, str]
ArcSet = frozenset[Arc]


@dataclass(frozen=True)
class LabeledWalk:
    """A walk given by its start vertex and per-step generator labels.

    Vertices are recomputed on demand, so a walk cannot carry an
    inconsistent vertex/label pair.
    """

    digraph: CayleyDigraph
    start: Vertex
    labels: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", self.digraph.group.check_vertex(self.start))
        for lab in self.labels:
            self.digraph.gen(lab)  # raises on an unknown label

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def vertex_list(self) -> tuple[Vertex, ...]:
        vs = [self.start]
        for lab in self.labels:
            vs.append(self.digraph.successor(vs[-1], lab))
        return tuple(vs)

    @property
    def end(self) -> Vertex:
        return self.vertex_list[-1]

    def arcs(self) -> list[Arc]:
        """Arcs in traversal order, as (tail, label) pairs."""
        return [(v, lab) for v, lab in zip(self.vertex_list, self.labels)]

    def arc_set(self) -> ArcSet:
        return frozenset(self.arcs())

    def translate(self, g: int | Iterable[int]) -> "LabeledWalk":
        g = self.digraph.group.canon(g)
        return LabeledWalk(
            self.digraph, self.digraph.group.add(self.start, g), self.labels
        )

    def delta_b(self) -> int:
        """Number of arcs labeled by the second generator."""
        return self.labels.count("B")


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    mode: str
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_hamiltonian(
    d: CayleyDigraph, w: LabeledWalk, mode: str = "path"
) -> VerificationReport:
    """Check that w is a Hamiltonian path or cycle of d.

    Failures are reported, not raised; only malformed inputs raise.
    """
    if mode not in ("path", "cycle"):
        raise InputError(f"mode must be 'path' or 'cycle', got {mode!r}")
    if w.digraph != d:
        raise InputError("walk does not live in the given digraph")
    n = d.group.size
    want = n - 1 if mode == "path" else n
    if len(w.labels) != want:
        return VerificationReport(
            False, mode, f"wrong length: {len(w.labels)} labels, expected {want}"
        )
    vs = w.vertex_list
    head = vs[:n]
    if len(set(head)) != n:
        seen: set[Vertex] = set()
        for v in head:
            if v in seen:
                return VerificationReport(False, mode, f"repeated vertex {v}")
            seen.add(v)
    if mode == "cycle" and vs[-1] != vs[0]:
        return VerificationReport(
            False, mode, f"cycle does not close: ends at {vs[-1]}, started at {vs[0]}"
        )
    return VerificationReport(True, mode)


def arc_disjoint(w1: LabeledWalk, w2: LabeledWalk) -> bool:
    """True iff the two walks share no (tail, label) arc."""
    if w1.digraph != w2.digraph:
        raise InputError("walks live in different digraphs")
    return not (w1.arc_set() & w2.arc_set())
