"""Finite abelian groups, Cayley digraphs, labeled walks, and verification.

Everything downstream (the structured constructions, the brute-force
search, the CLI) goes through the walk verifier defined here, so this
module is deliberately small and has no dependencies beyond the stdlib.

Vertices are residue tuples at the API, and mixed-radix integers inside
the checks: in Z_{n1} x ... x Z_{nr} the vertex (x1, ..., xr) has index
(...((x1*n2 + x2)*n3 + x3)...)*nr + xr in [0, n), so index order is the
lexicographic order of `elements()`.  A digraph builds, on first use,
one successor table per generator over these indices.  A walk
translates its labels once into label-position bytes and follows the
tables, one lookup per byte, to its `index_list`.  `verify_hamiltonian`
and `arc_disjoint` run on these integers only; `verify_hamiltonian`
checks a walk's length before any table is built, so a walk whose size
does not match its group costs nothing in the group's order.

A check returns the reason it failed, or None when it passes:
`verify_hamiltonian` for one walk, `pair_failure` for a pair.  The
builders call `check_pair`, which turns a failed pair check into a
RuntimeError.

Two walks share an arc iff some tail carries the same label in both.
`arc_disjoint` therefore keeps one set per label: the first walk's
tails that carry it, picked out by a byte mask over the encoded labels,
probed with the second walk's tails that carry it.  This holds for any
two walks, Hamiltonian or not.  The oracle encodes an arc as the
integer tail*r + label position for r generators (`arc_ids`).

`pair_failure` needs less on a two-generated digraph, since both walks
have passed `verify_hamiltonian` when it asks.  Let P and Q be
Hamiltonian paths with ends e_P, e_Q and A-tail sets A_P, A_Q.  Every
vertex but e_P is a tail of P, so its B-tails are B_P = V - A_P - {e_P},
and likewise for Q; hence B_P and B_Q are disjoint iff
V = A_P | A_Q | {e_P, e_Q}.  Once A_P and A_Q are known disjoint, that
is the count |A_P| + |A_Q| + |{e_P, e_Q} - (A_P | A_Q)| = n.  As e_P is
not in A_P, nor e_Q in A_Q, the last term needs two facts only: is e_Q
in A_P, and is e_P in A_Q.  So one set, A_P with e_P added, probed with
Q's A-tails, decides the pair: a hit other than e_P is a shared A-arc, a
hit at e_P puts e_P in A_Q, and |A_Q| is a count of Q's labels.  With
three or more generators the tails outside A_P split among several
labels, and no count tells a shared B-arc from B on one path and C on
the other, so products keep `arc_disjoint`'s per-label sets.

Generation is decided arithmetically, without visiting the group: the
generators g_1..g_s generate Z_{n1} x ... x Z_{nr} iff the rows g_1..g_s
and n_i*e_i span Z^r, i.e. iff every pivot of the Hermite normal form
of that integer matrix is 1.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, product
from math import prod
from operator import add
from typing import Iterable, Iterator, Sequence

Vertex = tuple[int, ...]

# Generator labels, in branch order.  Two-generated digraphs use "A","B";
# cycle products add a third direction "C".
GENERATOR_LABELS = string.ascii_uppercase

# bytes.translate tables over a walk's encoded labels: _POSITIONS maps
# each label to its position, and _LABEL_MASKS[i] maps the i-th label to
# 1 and every other byte to 0.
_POSITIONS = bytes.maketrans(
    GENERATOR_LABELS.encode(), bytes(range(len(GENERATOR_LABELS)))
)
_LABEL_MASKS = tuple(
    bytes(c) + b"\x01" + bytes(255 - c) for c in GENERATOR_LABELS.encode()
)


class InputError(ValueError):
    """Malformed input: bad vertex, mismatched groups, invalid parameters."""


def check_family_one_params(k: int, a: int) -> int:
    """Validate (k, a) for Cay(Z_k; a, a+1) and return a reduced mod k."""
    if k < 3:
        raise InputError(f"need k >= 3, got k={k}")
    if a % k in (0, k - 1):
        raise InputError(f"need a not in {{0, k-1}} mod k, got a={a} for k={k}")
    return a % k


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
        return prod(self.orders)

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

    def encode(self, v: Vertex) -> int:
        """The mixed-radix index of a canonical vertex."""
        i = 0
        for x, n in zip(v, self.orders):
            i = i * n + x
        return i

    def decode(self, i: int) -> Vertex:
        """The canonical vertex with mixed-radix index i."""
        out = []
        for n in reversed(self.orders):
            i, x = divmod(i, n)
            out.append(x)
        return tuple(reversed(out))

    def translation_table(self, g: Vertex) -> list[int]:
        """Entry i is the index of decode(i) + g."""
        table = [0]
        stride = self.size
        for x, n in zip(g, self.orders):
            stride //= n
            column = range(0, n * stride, stride)  # y * stride for y in Z_n
            axis = [*column[x:], *column[:x]]  # (y + x) * stride
            table = [t + s for t in table for s in axis] if len(table) > 1 else axis
        return table

    def elements(self) -> Iterator[Vertex]:
        """All vertices in lexicographic order."""
        return product(*map(range, self.orders))


@dataclass(frozen=True)
class CayleyDigraph:
    """Directed Cayley digraph on an abelian group with labeled generators.

    Arcs are x -> x + gens[i], labeled by GENERATOR_LABELS[i].  The usual
    case is two generators (labels "A" and "B"); Cartesian products of
    three directed cycles use three.
    """

    group: FiniteAbelianGroup
    gens: tuple[Vertex, ...]
    # Filled by successor_tables and predecessor_tables on first use.
    # Fields set in __init__, not cached_properties: writing a new key
    # into the instance __dict__ would slow every later attribute load on
    # the digraph, which the oracle's search makes millions of.
    _tables: tuple[list[int], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _pred_tables: tuple[list[int], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
        # Hermite reduction of the rows gens + n_i*e_i, one column at a
        # time: unimodular row steps gather the column's gcd into one
        # pivot row and clear the column in the others.  The rows left
        # span the lattice's vectors that vanish up to this column, which
        # hold n_j*e_j, so their entries may be reduced mod n_j.
        orders = self.group.orders
        rows = [list(g) for g in self.gens]
        rows += [[n if j == i else 0 for j in range(len(orders))] for i, n in enumerate(orders)]
        for col in range(len(orders)):
            pivot = [0] * len(orders)
            rest = []
            for row in rows:
                a, b = pivot[col], row[col]
                if b == 0:
                    rest.append(row)
                    continue
                g, s, t = _xgcd(a, b)
                rest.append(
                    [(b // g * p - a // g * q) % n for p, q, n in zip(pivot, row, orders)]
                )
                pivot = [s * p + t * q for p, q in zip(pivot, row)]
            if abs(pivot[col]) != 1:
                return False
            rows = rest
        return True

    @property
    def successor_tables(self) -> tuple[list[int], ...]:
        """successor_tables[i][v]: the index of the head of the arc
        labeled GENERATOR_LABELS[i] whose tail has index v."""
        if self._tables is None:
            tables = tuple(self.group.translation_table(g) for g in self.gens)
            object.__setattr__(self, "_tables", tables)
        return self._tables

    @property
    def predecessor_tables(self) -> tuple[list[int], ...]:
        """predecessor_tables[i][v]: the index of the tail of the arc
        labeled GENERATOR_LABELS[i] whose head has index v, i.e. the
        inverse permutation of successor_tables[i] (translation by -g)."""
        if self._pred_tables is None:
            # A scatter, not translation_table(neg(g)): on the oracle's
            # digraphs of a few dozen vertices it is 2-5 times faster.
            tables = []
            for succ in self.successor_tables:
                pred = [0] * len(succ)
                for v, w in enumerate(succ):
                    pred[w] = v
                tables.append(pred)
            object.__setattr__(self, "_pred_tables", tuple(tables))
        return self._pred_tables

    @property
    def labels(self) -> str:
        return GENERATOR_LABELS[: len(self.gens)]

    def gen(self, lab: str) -> Vertex:
        i = GENERATOR_LABELS.find(lab)
        if not (0 <= i < len(self.gens)):
            raise InputError(f"unknown generator label {lab!r}")
        return self.gens[i]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b > 0, for (a, b) != (0, 0)."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, t0, s1, t1 = s1, t1, s0 - q * s1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def cayley(orders: Sequence[int], *gens: int | Iterable[int]) -> CayleyDigraph:
    """Convenience constructor: cayley([10], 4, 5) is Cay(Z_10; 4, 5)."""
    return CayleyDigraph(FiniteAbelianGroup(tuple(orders)), gens)


@dataclass(frozen=True)
class LabeledWalk:
    """A walk given by its start vertex and per-step generator labels.

    Vertices are recomputed on demand, so a walk cannot carry an
    inconsistent vertex/label pair: `index_list` follows the digraph's
    successor tables, and `vertex_list` decodes it.
    """

    digraph: CayleyDigraph
    start: Vertex
    labels: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", self.digraph.group.check_vertex(self.start))
        if not isinstance(self.labels, str):
            raise InputError(f"labels must be a str, got {type(self.labels).__name__}")
        if self.labels.strip(self.digraph.labels):
            for lab in self.labels:
                self.digraph.gen(lab)  # raises on an unknown label

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def index_list(self) -> list[int]:
        """The mixed-radix indices of the walk's vertices, start first."""
        tables = self.digraph.successor_tables
        v = self.digraph.group.encode(self.start)
        return [v, *[v := tables[i][v] for i in self.labels.encode().translate(_POSITIONS)]]

    @cached_property
    def vertex_list(self) -> tuple[Vertex, ...]:
        return tuple(map(self.digraph.group.decode, self.index_list))

    @property
    def end(self) -> Vertex:
        return self.digraph.group.decode(self.index_list[-1])

    def translate(self, g: int | Iterable[int]) -> "LabeledWalk":
        g = self.digraph.group.canon(g)
        return LabeledWalk(
            self.digraph, self.digraph.group.add(self.start, g), self.labels
        )

    def delta_b(self) -> int:
        """Number of arcs labeled by the second generator."""
        return self.labels.count("B")


def verify_hamiltonian(d: CayleyDigraph, w: LabeledWalk, mode: str = "path") -> str | None:
    """Why w is not a Hamiltonian path or cycle of d, or None if it is.

    Failures are returned, not raised; only malformed inputs raise.
    """
    if mode not in ("path", "cycle"):
        raise InputError(f"mode must be 'path' or 'cycle', got {mode!r}")
    if w.digraph != d:
        raise InputError("walk does not live in the given digraph")
    n = d.group.size
    want = n - 1 if mode == "path" else n
    if len(w.labels) != want:
        return f"wrong length: {len(w.labels)} labels, expected {want}"
    vs = w.index_list
    head = vs if mode == "path" else vs[:n]  # a closed cycle repeats its start
    if len(set(head)) != n:
        seen: set[int] = set()
        for v in head:
            if v in seen:
                return f"repeated vertex {d.group.decode(v)}"
            seen.add(v)
    if mode == "cycle" and vs[-1] != vs[0]:
        end, start = d.group.decode(vs[-1]), d.group.decode(vs[0])
        return f"cycle does not close: ends at {end}, started at {start}"
    return None


def pair_failure(d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk) -> str | None:
    """Why (p, q) is not a pair of arc-disjoint Hamiltonian paths of d,
    or None if it is.  Paths are checked first, in order."""
    for name, w in (("path1", p), ("path2", q)):
        reason = verify_hamiltonian(d, w)
        if reason:
            return f"{name}: {reason}"
    if len(d.gens) == 2:
        disjoint = _hamiltonian_pair_disjoint(d.group.size, p, q)
    else:
        disjoint = arc_disjoint(p, q)
    if not disjoint:
        return "arc overlap between path1 and path2"
    return None


def _hamiltonian_pair_disjoint(n: int, p: LabeledWalk, q: LabeledWalk) -> bool:
    """arc_disjoint(p, q) for two Hamiltonian paths of a two-generated
    digraph of order n, from one probe set and a count (module docstring)."""
    vs_p, vs_q = p.index_list, q.index_list
    end_p, end_q = vs_p[-1], vs_q[-1]
    mask = _LABEL_MASKS[0]
    # P's A-tails and its end, probed with Q's A-tails: a hit other than
    # end_p is a shared A-arc, and a hit at end_p puts end_p in A_Q.
    probe = set(compress(vs_p, p.labels.encode().translate(mask)))
    probe.add(end_p)
    hits = probe.intersection(compress(vs_q, q.labels.encode().translate(mask)))
    if len(hits) > (end_p in hits):
        return False
    # |A_P| + |A_Q| + |{end_p, end_q} \ (A_P | A_Q)|; end_q is outside
    # A_P and distinct from end_p iff it is not in the probe set.
    covered = len(probe) - 1 + q.labels.count("A") + (end_p not in hits) + (end_q not in probe)
    return covered == n


def check_pair(d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk, what: str) -> None:
    """Raise RuntimeError, "<what> failed verification: <reason>", if
    pair_failure rejects (p, q): a builder whose pair fails its check
    has a bug, not bad input."""
    reason = pair_failure(d, p, q)
    if reason:
        raise RuntimeError(f"{what} failed verification: {reason}")


def arc_disjoint(w1: LabeledWalk, w2: LabeledWalk) -> bool:
    """True iff the two walks share no (tail, label) arc: for each label,
    no tail of w2 that carries it is a tail of w1 that carries it."""
    if w1.digraph != w2.digraph:
        raise InputError("walks live in different digraphs")
    tails1, labels1 = w1.index_list, w1.labels.encode()
    tails2, labels2 = w2.index_list, w2.labels.encode()
    for mask in _LABEL_MASKS[: len(w1.digraph.gens)]:
        carry = set(compress(tails1, labels1.translate(mask)))
        if not carry.isdisjoint(compress(tails2, labels2.translate(mask))):
            return False
    return True


def arc_ids(w: LabeledWalk) -> Iterator[int]:
    """The walk's arcs as tail index * r + label position, r generators:
    the oracle's encoding of forbidden arcs."""
    r = len(w.digraph.gens)
    return map(add, map(r.__mul__, w.index_list), w.labels.encode().translate(_POSITIONS))
