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
tables, one lookup per byte, to its `index_list`, which the oracle,
products and `arc_disjoint` read.

A check returns the reason it failed, or None when it passes:
`verify_hamiltonian` for one walk, `pair_failure` for a pair.  The
builders call `check_pair`, which turns a failed pair check into a
RuntimeError.

Both checks mark vertices instead of listing them.  `_marks` follows a
walk's labels through the tables and, at each vertex, writes into a
bytearray of the group's order the code of the label the walk leaves it
by: the label's position + 1, so a code is in 1..26.  A path's end, which
no label leaves, gets a reserved mark: 254 for path1 and 255 for path2.
A walk's length is checked before the bytearray is allocated, so a walk
whose size does not match its group costs nothing in the group's order.

Hamiltonicity is a zero byte.  Once the length check has passed, a path
of n - 1 labels writes n marks, at v_0..v_{n-1} (its end included), into
n slots, and so does a cycle of n labels, which must also close at its
start.  No mark is 0, so every slot is written iff no vertex repeats:
the walk visits every vertex once iff `0 not in marks`.  Which vertex
repeats first is found on the failure path only, by a scan of
`index_list`.

Arc disjointness is one XOR.  Two walks share an arc iff some tail
carries the same label in both.  Each vertex of a Hamiltonian path holds
exactly one mark, the code of the label that leaves it or the path's end
mark, so two Hamiltonian paths share an arc iff some vertex holds the
same label code in both mark arrays.  An end mark never equals a mark of
the other path, as 254 != 255 and neither is in 1..26.  So the paths are
arc-disjoint iff their marks differ at every vertex, i.e. iff
(int.from_bytes(m1, "big") ^ int.from_bytes(m2, "big")).to_bytes(n, "big")
has no zero byte; the zero bytes that to_bytes pads in front are the
leading vertices where the marks agree.  This holds for any number of
generators up to the 26 of GENERATOR_LABELS, so the marks walk is one
rule for every digraph.

The column rule proves rank-one pairs without either walk.  On Z_N
with two generators A, B, delta = A - B, m = gcd(delta, N) the index of
H = <delta> and n = N/m its order (coset_split), the coset of v is
v mod m and v's index within it is h = v // m; unit = delta/m is a unit
mod n.  Both labels map a coset C_i onto C_(i+1), and A is a unit mod
m, so step i of a path from s leaves coset s + i*A: the path's column
i mod m is one coset, column c being coset s + c*A, and column m - 1
holds its end.  For every m >= 1 (family one has m = 1, where the one
column is the whole group), `_columns_prove` reads, for each path,

- pattern = labels[:m-1] and x = labels[m-1::m].  One slice per column,
  labels[c::m] == pattern[c] * n for c < m - 1, shows that every column
  but the last uses one label, pattern[c] on column c, without a joined
  copy of the labels.
- Hamiltonicity from the last column alone.  If column c uses one label
  g, its vertex after each round is the vertex before plus g, so each
  constant column translates the previous column's visits onto the next
  coset.  Along the chain of columns 0 -> 1 -> ... -> m - 1, the n
  visits of column 0 are distinct iff those of column m - 1 are, and
  then so are those of every column: each coset is one column, visited
  n times, so the path is Hamiltonian iff its n end-coset visits are
  distinct.  From v_(m-1) = s + (m-1-c_B)*A + c_B*B, with c_B the B's
  of the pattern, each round adds x's label and the pattern:
  m*A - (c_B + [x = B])*delta = (sigma - c_B - [x = B])*delta, with
  m*A = sigma*delta, a step of (sigma - c_B - [x = B])*unit in h.
- The cut walk.  Put J = x.count("B"), r = c_B - sigma mod n and h_end
  the end's index, and read the end coset in the index
  w = J + (h_end - h)*unit^-1.  A visit's step in w is r + [x = B], so
  the n - 1 steps from the first visit to the end, at w = J, sum to
  (n - 1)*r + J, and the first visit is at w = r.  If x is the labels of
  cut_walk(n, r, J), B at a visit iff its w < J, the visits are that
  walk's vertices: r, psi(r), ... for the cut permutation psi of
  hampair.cosets, which agrees with the walk's steps off J.  If the
  walk closes, first reaching J at step n - 1, they are distinct: a
  repeat w_a = w_b, a < b, would make the orbit periodic and put J at
  step n - 1 - (b - a).  Conversely a Hamiltonian path's x is the
  labels of a closing cut walk (cosets' path lemma, items 3 and 4).  So
  the path is Hamiltonian iff x equals the labels of cut_walk(n, r, J)
  and that walk closes; no vertex is walked one by one.

cut_walk goes by runs.  With R = min(J, n - 1 - J) rare labels (B if
J is near 0, A if J is near n - 1), it takes each rare label in one
step and each run of the common label in one bisect: the run from w
ends at the first t >= 1 with w + t*s in the zone, the rare label's
vertices and J, where s is the common label's step, r for A and r + 1
for B.  That t solves a congruence mod n/gcd(s, n) for each zone vertex
of w's residue mod gcd(s, n), and sorted lists of the solutions' terms,
one per residue, give the least in one bisect.  A walk costs
O(R log R), and above a measured share of rare labels, where a bisect
per run costs more than a step per vertex, it steps one vertex at a
time.  The builders (hampair.cosets) read the same cut_walk, so the
check is kept independent of them by tests that share no code with it:
cut_walk against a reference step loop (tests/test_cut_walk.py), and
the column rule against the marks walk (tests/test_column_rule.py).

Arc disjointness then goes coset by coset.  With shift =
(s_P - s_Q)/A mod m, P's column c is Q's column c + shift.  On a coset
that holds neither end both paths leave every vertex by their one
label, so they must differ there.  On an end coset of P alone, Q leaves
every vertex by one label, which must not be in P's x, and likewise for
Q's.  On a shared end coset (shift 0) each Hamiltonian path's marks, by
its own w, are the interval B^J, its end mark, A^(n-1-J)
(`_interval_marks`).  A vertex's w in Q is its w in P plus
D = J_Q - J_P + (h_Q,end - h_P,end)*unit^-1, so Q's marks rotated by D
line up with P's, and the XOR rule above decides the coset on n bytes.
Every Hamiltonian path has this shape (hampair.cosets, path lemma), so
the rule proves every arc-disjoint Hamiltonian pair on Z_N; it never
rejects, and whatever it does not prove goes to the marks walk, which
gives every reason text.  Groups of rank two or more and three
generators always take the marks walk.

`arc_disjoint` decides the same for any two walks, Hamiltonian or not,
and serves the tests as a reference and products' switchability check.
It keeps one set per label: the first walk's tails that carry it, picked
out by a byte mask over the encoded labels, probed with the second
walk's tails that carry it.  The oracle encodes an arc as the integer
tail*r + label position for r generators (`arc_ids`).

Generation is decided arithmetically, without visiting the group: the
generators g_1..g_s generate Z_{n1} x ... x Z_{nr} iff the rows g_1..g_s
and n_i*e_i span Z^r, i.e. iff every pivot of the Hermite normal form
of that integer matrix is 1.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import compress, product
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Iterator, NamedTuple, Sequence

Vertex = tuple[int, ...]

# Generator labels, in branch order.  Two-generated digraphs use "A","B";
# cycle products add a third direction "C".
GENERATOR_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# bytes.translate tables over a walk's encoded labels: _POSITIONS maps
# each label to its position, _CODES to its position + 1 (the vertex
# marks of the module docstring), and _LABEL_MASKS[i] maps the i-th label
# to 1 and every other byte to 0.
_POSITIONS = bytes.maketrans(
    GENERATOR_LABELS.encode(), bytes(range(len(GENERATOR_LABELS)))
)
_CODES = bytes.maketrans(
    GENERATOR_LABELS.encode(), bytes(range(1, len(GENERATOR_LABELS) + 1))
)
# The end marks of path1 and path2: distinct, and no label's code.
_END_MARKS = (254, 255)
# Exchanges A and B: the other label of a two-generated digraph.
_SWAP = str.maketrans("AB", "BA")
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


class _Record:
    """Equality, hash and repr over the attributes named in _fields, as
    a frozen dataclass has them, without the code a dataclass generates
    and compiles at import.  Only records of one class compare equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        return self is other or type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class FiniteAbelianGroup(_Record):
    """Direct product of cyclic groups Z_{n1} x ... x Z_{nr}.

    Vertices are canonical residue tuples, componentwise in [0, order_i).
    """

    __slots__ = _fields = ("orders",)

    def __init__(self, orders: tuple[int, ...]) -> None:
        if not orders or any(n < 1 for n in orders):
            raise InputError(f"orders must all be >= 1, got {orders}")
        self.orders = orders

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


class CayleyDigraph(_Record):
    """Directed Cayley digraph on an abelian group with labeled generators.

    Arcs are x -> x + gens[i], labeled by GENERATOR_LABELS[i].  The usual
    case is two generators (labels "A" and "B"); Cartesian products of
    three directed cycles use three.
    """

    _fields = ("group", "gens")
    # _tables and _pred_tables are filled by successor_tables and
    # predecessor_tables on first use.  All four are slots, not
    # cached_properties: a slot load reads a fixed offset, with no
    # instance __dict__ to look in or to grow when a table is filled
    # later, and the oracle's search loads them millions of times.
    __slots__ = (*_fields, "_tables", "_pred_tables")

    def __init__(self, group: FiniteAbelianGroup, gens: Iterable[int | Iterable[int]]) -> None:
        self.group = group
        self.gens = gens = tuple(group.canon(g) for g in gens)
        self._tables = self._pred_tables = None
        if len(gens) < 1 or len(gens) > len(GENERATOR_LABELS):
            raise InputError("unsupported number of generators")
        if any(g == group.zero for g in gens):
            raise InputError("generators must be nonzero")
        if len(set(gens)) != len(gens):
            raise InputError("generators must be distinct")
        if not self._generates():
            raise InputError(f"{gens} do not generate the group {group.orders}")

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
            first = self.group.translation_table(self.gens[0])
            if len(self.group.orders) == 1:
                # On Z_n, translation by g is translation by g_0 after a
                # shift by g - g_0: rotations of the first table, which
                # share its ints.
                n, (g0,) = self.group.size, self.gens[0]
                shifts = ((g - g0) % n for (g,) in self.gens[1:])
                rest = [first[s:] + first[:s] for s in shifts]
            else:
                rest = [self.group.translation_table(g) for g in self.gens[1:]]
            self._tables = (first, *rest)
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
            self._pred_tables = tuple(tables)
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


class CosetSplit(NamedTuple):
    """The cosets of <delta> in a two-generated Cay(G; a, b)."""

    digraph: CayleyDigraph
    delta: Vertex  # a - b
    n: int  # order of delta
    m: int  # index of <delta>
    sigma: int  # m*a = sigma*delta, 0 <= sigma < n

    def vertex(self, i: int, h: int) -> Vertex:
        """The vertex i*a + h*delta."""
        a, orders = self.digraph.gens[0], self.digraph.group.orders
        return tuple((i * x + h * y) % o for x, y, o in zip(a, self.delta, orders))


def coset_split(d: CayleyDigraph) -> CosetSplit:
    """delta, n, m and sigma of a two-generated digraph d."""
    if len(d.gens) != 2:
        raise InputError(f"need two generators, got {len(d.gens)}")
    g = d.group
    a, b = d.gens
    delta = g.add(a, g.neg(b))
    n = lcm(*(o // gcd(x, o) for x, o in zip(delta, g.orders)))
    m = g.size // n
    ma = tuple(m * x % o for x, o in zip(a, g.orders))
    return CosetSplit(d, delta, n, m, _multiple(ma, delta, g.orders))


def _multiple(target: Vertex, delta: Vertex, orders: tuple[int, ...]) -> int:
    """The s, reduced mod the order of delta, with s*delta = target, for
    target in <delta>: one congruence per coordinate, merged by the
    Chinese remainder theorem for moduli that need not be coprime."""
    s, mod = 0, 1
    for t, x, o in zip(target, delta, orders):
        g = gcd(x, o)
        step = o // g  # the order of x in Z_o; s = r (mod step) solves s*x = t
        r = t // g * pow(x // g, -1, step) % step
        h = gcd(mod, step)
        assert (r - s) % h == 0 and t % g == 0, (target, delta)
        s += mod * ((r - s) // h * pow(mod // h, -1, step // h) % (step // h))
        mod = mod // h * step
    return s % mod


class LabeledWalk(_Record):
    """A walk given by its start vertex and per-step generator labels.

    Vertices are recomputed on demand, so a walk cannot carry an
    inconsistent vertex/label pair: `index_list` follows the digraph's
    successor tables, and `vertex_list` decodes it.  No slots: the two
    cached properties keep their values in the instance __dict__.
    """

    _fields = ("digraph", "start", "labels")

    def __init__(self, digraph: CayleyDigraph, start: Vertex, labels: str) -> None:
        self.digraph = digraph
        self.start = digraph.group.check_vertex(start)
        if not isinstance(labels, str):
            raise InputError(f"labels must be a str, got {type(labels).__name__}")
        if sum(map(labels.count, digraph.labels)) != len(labels):
            for lab in labels:
                digraph.gen(lab)  # raises on an unknown label
        self.labels = labels

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
    return _marks(d, w, mode, _END_MARKS[0])[0]


def _marks(
    d: CayleyDigraph, w: LabeledWalk, mode: str, end: int
) -> tuple[str | None, bytearray | None]:
    """(verify_hamiltonian's reason, and when it is None the vertex marks
    of w): each vertex holds the code of the label w leaves it by, and in
    path mode the end holds `end` (module docstring)."""
    if mode not in ("path", "cycle"):
        raise InputError(f"mode must be 'path' or 'cycle', got {mode!r}")
    if w.digraph != d:
        raise InputError("walk does not live in the given digraph")
    n = d.group.size
    want = n - 1 if mode == "path" else n
    if len(w.labels) != want:
        return f"wrong length: {len(w.labels)} labels, expected {want}", None
    marks = bytearray(n)
    tables = (None, *d.successor_tables)  # indexed by code
    v = start = d.group.encode(w.start)
    for code in w.labels.encode().translate(_CODES):
        marks[v] = code
        v = tables[code][v]
    if mode == "path":
        marks[v] = end
    if 0 in marks:
        seen: set[int] = set()
        for u in w.index_list[:n]:  # a closed cycle repeats its start
            if u in seen:
                return f"repeated vertex {d.group.decode(u)}", None
            seen.add(u)
    if mode == "cycle" and v != start:
        end_v, start_v = d.group.decode(v), d.group.decode(start)
        return f"cycle does not close: ends at {end_v}, started at {start_v}", None
    return None, marks


def pair_failure(d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk) -> str | None:
    """Why (p, q) is not a pair of arc-disjoint Hamiltonian paths of d,
    or None if it is.  The column rule proves the pair when it can;
    otherwise paths are checked first, in order, and arc disjointness is
    one XOR of their marks (module docstring)."""
    if _columns_prove(d, p, q):
        return None
    return _marks_failure(d, p, q)


def _marks_failure(d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk) -> str | None:
    """pair_failure by the marks walk alone."""
    marks = []  # each path's marks, read as one big-endian integer
    for name, w, end in zip(("path1", "path2"), (p, q), _END_MARKS):
        reason, m = _marks(d, w, "path", end)
        if reason:
            return f"{name}: {reason}"
        marks.append(int.from_bytes(m, "big"))
    if 0 in (marks[0] ^ marks[1]).to_bytes(d.group.size, "big"):
        return "arc overlap between path1 and path2"
    return None


def _columns_prove(d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk) -> bool:
    """True if the column rule proves (p, q) an arc-disjoint Hamiltonian
    pair of d; False leaves the verdict to the marks walk (module
    docstring).  Only two generators on Z_N are tried."""
    if len(d.group.orders) != 1 or len(d.gens) != 2:
        return False
    if p.digraph != d or q.digraph != d:
        return False  # the marks walk's InputError
    split = coset_split(d)
    m, n = split.m, split.n
    cols = []
    for w in (p, q):
        col = _end_column(split, w)
        if col is None:
            return False
        cols.append(col)
    (pattern_p, x_p, j_p, end_p), (pattern_q, x_q, j_q, end_q) = cols
    # P's column c is Q's column c + shift.  q_cols holds Q's label on
    # each of P's columns ("E" on Q's end coset), and want the label Q
    # must use there, P's other one ("E" on P's end coset, the last).
    shift = (p.start[0] - q.start[0]) * pow(d.gens[0][0], -1, m) % m
    q_cols = pattern_q + "E"
    q_cols = q_cols[shift:] + q_cols[:shift]
    want = pattern_p.translate(_SWAP) + "E"
    if shift == 0:
        if want != q_cols:
            return False
        # Q's w is P's + D, the offset, at every vertex (module docstring).
        offset = (j_q - j_p + (end_q - end_p) * pow(split.delta[0] // m, -1, n)) % n
        marks_q = _interval_marks(n, j_q, _END_MARKS[1])
        return 0 not in (
            int.from_bytes(_interval_marks(n, j_p, _END_MARKS[0]), "big")
            ^ int.from_bytes(marks_q[offset:] + marks_q[:offset], "big")
        ).to_bytes(n, "big")
    e = m - 1 - shift  # Q's end column, in P's columns
    return (
        want[:e] == q_cols[:e]
        and want[e + 1 : -1] == q_cols[e + 1 : -1]
        and q_cols[-1] not in x_p
        and pattern_p[e] not in x_q
    )


def _end_column(split: CosetSplit, w: LabeledWalk) -> tuple[str, str, int, int] | None:
    """(pattern, x, J, h) of w when it is a Hamiltonian path by the
    column rule: every column but the last uses one label, and x, the
    last's, is the closing cut walk of (n, c_B - sigma, J), J the B's
    of x; h is w's end's index v // m.  None otherwise."""
    labels, m, n = w.labels, split.m, split.n
    size = m * n
    if len(labels) != size - 1:
        return None
    pattern, x = labels[: m - 1], labels[m - 1 :: m]
    if any(labels[c::m] != g * n for c, g in enumerate(pattern)):
        return None
    c_b, j = pattern.count("B"), x.count("B")
    walk, closes = cut_walk(n, c_b - split.sigma, j)
    if not closes or x != walk:
        return None
    (a,), (b,) = split.digraph.gens
    b_steps = c_b * n + j
    end = (w.start[0] + (size - 1 - b_steps) * a + b_steps * b) % size
    return pattern, x, j, end // m


def _interval_marks(n: int, j: int, end: int) -> bytes:
    """The marks of a Hamiltonian path on its end coset, by cut walk
    index: B's code below j, `end` at j and A's code above."""
    return b"\x02" * j + bytes((end,)) + b"\x01" * (n - 1 - j)


# cut_walk takes a run of the common label in one bisect while at most
# this share of the n vertices carry the rare label, and steps one vertex
# at a time above it: at 8% rare labels runs took 0.64-0.81 of the
# steps' time, at 10% 0.91-1.01 and at 14% 1.05-1.18 (n = 10^4 and
# 2*10^5, 2-core Xeon, Python 3.11).
_RUNS_MAX_SHARE = 0.1


def cut_walk(n: int, r: int, j: int) -> tuple[str, bool]:
    """The labels of the cut walk of Z_n at cut value j with step r, and
    whether it closes (module docstring).

    From w = r mod n, a vertex w < j takes label B and steps by r + 1,
    any other takes A and steps by r, mod n.  The walk stops at its
    first visit of j, or after n - 1 steps; closes is True iff it first
    reaches j at step n - 1, i.e. iff j is in Z(n, r).
    """
    r %= n
    b_rare = 2 * j <= n - 1
    if (j if b_rare else n - 1 - j) > _RUNS_MAX_SHARE * n:
        return _cut_steps(n, r, j)
    # The zone holds the rare label's vertices and j; the common label
    # steps by s.  From w outside it, w + t*s is in the zone for y =
    # w + t*s mod n with y = w (mod g), g = gcd(s, n): in units of g,
    # t = (y // g - w // g) * inv mod n // g.  first[w mod g] lists the
    # zone's y // g * inv mod n // g, sorted, so one bisect gives the
    # least t >= 1.
    if b_rare:
        zone, common, rare, s, rare_step = range(j + 1), "A", "B", r, r + 1
    else:
        zone, common, rare, s, rare_step = range(j, n), "B", "A", r + 1, r
    g = gcd(s, n)
    ng = n // g
    inv = pow(s // g, -1, ng)
    first: dict[int, list[int]] = {}
    for y in zone:
        first.setdefault(y % g, []).append(y // g * inv % ng)
    for ts in first.values():
        ts.sort()
    runs = []
    w, left = r, n - 1
    while left and w != j:
        if (w < j) == b_rare:  # a rare vertex: one step
            runs.append(rare)
            w = (w + rare_step) % n
            left -= 1
            continue
        ts = first.get(w % g)
        t = left
        if ts is not None:
            c = w // g * inv % ng
            i = bisect_left(ts, c)
            t = min(left, ts[i] - c if i < len(ts) else ts[0] + ng - c)
        runs.append(common * t)
        w = (w + t * s) % n
        left -= t
    return "".join(runs), left == 0 and w == j


def _cut_steps(n: int, r: int, j: int) -> tuple[str, bool]:
    """cut_walk one vertex at a time, for walks with many rare labels:
    their labels go straight into a bytearray, as runs would be about as
    many as labels."""
    # Sized up front: an n too large to hold fails here at once.
    out = bytearray(b"A") * (n - 1)
    w = r
    for i in range(n - 1):
        if w == j:
            return out[:i].decode(), False
        if w < j:
            out[i] = 66  # "B"
            w += r + 1
        else:
            w += r
        if w >= n:  # cheaper than w % n
            w -= n
    return out.decode(), w == j


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
