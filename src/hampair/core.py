"""Finite abelian groups, Cayley digraphs, labeled walks, and verification.

Everything downstream (the structured constructions, the brute-force
search, the CLI) goes through the walk verifier defined here, which has
no dependencies beyond the stdlib.

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
  the path is Hamiltonian iff x, which has n - 1 labels, equals the
  labels of cut_walk(n, r, J): psi is a bijection and the walk starts
  at psi(J), so it stops at J after the length of J's cycle less one
  steps, and it closes iff it has n - 1 labels.  No vertex is walked
  one by one.

cut_walk goes by first returns.  By the mirror of cosets' path lemma,
item 6, the labels of (r, J) are those of (-1 - r, n - 1 - J) with A
and B swapped, so B is taken to be rare, J <= n - 1 - J.  The cut
permutation is the rotation R: w -> w + r after the cycle 0 -> 1 ->
... -> J -> 0 of the zone [0, J], so the walk leaves each vertex
outside the zone by A and each zone vertex z < J by B, to R(z + 1),
and then steps by R until it is back in the zone.  Its labels are one
B per zone vertex it meets and the A's of R's returns to the zone,
which take three values (the three-distance theorem of Sos and
Swierczkowski).  Put d_t = t*r mod n; let t_p be the least t >= 1
with d_t <= J and t_q the least with -d_t mod n <= J, and p = d_(t_p),
q = -d_(t_q) mod n.  The return rule: from x in the zone, R is first
back in it at x + p after t_p steps if x + p <= J, else at x - q after
t_q steps if x >= q, else at x + p - q after t_p + t_q steps.

1. For 1 <= t < t_p + t_q, d_t lies outside (-q, p) mod n.  If d_t is
   in [0, p), then t > t_p, and -d_(t - t_p) = p - d_t is in (0, p]
   with t - t_p < t_q, against t_q's least choice; -d_t in (0, q) is
   the mirror case.
2. p + q > J unless p = q = 0.  If t_p < t_q, -d_(t_q - t_p) = p + q
   mod n, and t_q - t_p < t_q; t_q < t_p is the mirror case; t_p = t_q
   makes p + q = 0 mod n, so p + q is n > J or p = q = 0.
3. x is back in the zone at step t iff d_t is in the window
   [-x, J - x] mod n, and for t < t_p + t_q such a d_t lies outside
   (-q, p) by 1.  If x + p <= J, then x < q, or p = q = 0 and t_q = t_p,
   by 2; so d_t <= J, or -d_t <= J with t_q = t_p, and t >= t_p.  If
   x + p > J and x >= q, d_t is in [-x, -q], so t >= t_q.  Otherwise
   the window lies in (-q, p), so t >= t_p + t_q, and
   d_(t_p + t_q) = p - q puts x at x + p - q, in [0, J] as
   q <= J < x + p.

The first returns come from a subtractive Euclid on (a, b) = (r, n - r)
with times t_a = t_b = 1, the first returns to every zone [0, J'] with
max(a, b) <= J' < n: while a or b exceeds J, the larger loses the
smaller and its time gains the other's.  With a > b, 1 at the zone
[0, a] says that no t < t_a + t_b has d_t in [0, a), and
d_(t_a + t_b) = a - b, so on every zone [0, J'] with
max(a - b, b) <= J' < a the returns are (t_a + t_b, a - b) and
(t_b, b); b > a is the mirror case.  So the state at the loop's end
holds the returns to [0, J].  If a = b, both are gcd(r, n) > J, and by
1 both returns are 0 at t_a + t_b; at r = 0 both are 0 at t = 1.  The
steps are taken in batches, as in Euclid's division algorithm, so there
are O(log n) of them.  A walk is then one Python step per rare label,
written into a buffer of n - 1 common labels that is sized before
anything else, so an n too large to hold fails at once.
The builders (hampair.cosets) read the same cut_walk, so the check is
kept independent of them by tests that share no code with it: cut_walk
against a reference step loop (tests/test_cut_walk.py), and the column
rule against the marks walk (tests/test_column_rule.py).

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
It keeps one set: the first walk's arc ids, probed with the second's.
An arc's id is the oracle's encoding of it, the integer tail*r + label
position for r generators (`arc_ids`).

Generation is decided arithmetically, without visiting the group: the
generators g_1..g_s generate Z_{n1} x ... x Z_{nr} iff the rows g_1..g_s
and n_i*e_i span Z^r, i.e. iff every pivot of the Hermite normal form
of that integer matrix is 1.  On a cyclic group Z_n that is one gcd:
gcd(n, g_1, ..., g_s) = 1.

`coset_split` computes a two-generated digraph's cosets of <A - B> once
and keeps them in a slot on the digraph, beside its tables, so a build's
pair search and its pair check share one split.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import add, attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

Vertex = tuple[int, ...]

# Generator labels, in branch order.  Two-generated digraphs use "A","B";
# cycle products add a third direction "C".
GENERATOR_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# bytes.translate tables over a walk's encoded labels: _POSITIONS maps
# each label to its position, _CODES to its position + 1 (the vertex
# marks of the module docstring).
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
    and compiles at import.  Only records of one class compare equal.

    Each subclass gets one operator.attrgetter over its _fields as _key,
    called as self._key(self), which reads the fields in C.  With one
    field it gives that field's value, not a 1-tuple, which compares
    and hashes by the same value."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other) -> bool:
        return self is other or type(other) is type(self) and self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

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
    # _tables, _pred_tables and _split are filled by successor_tables,
    # predecessor_tables and coset_split on first use.  All are slots,
    # not cached_properties: a slot load reads a fixed offset, with no
    # instance __dict__ to look in or to grow when a table is filled
    # later, and the oracle's search loads them millions of times.
    __slots__ = (*_fields, "_tables", "_pred_tables", "_split")

    def __init__(self, group: FiniteAbelianGroup, gens: Iterable[int | Iterable[int]]) -> None:
        self.group = group
        self.gens = gens = tuple(group.canon(g) for g in gens)
        self._tables = self._pred_tables = self._split = None
        if len(gens) < 1 or len(gens) > len(GENERATOR_LABELS):
            raise InputError("unsupported number of generators")
        if any(g == group.zero for g in gens):
            raise InputError("generators must be nonzero")
        if len(set(gens)) != len(gens):
            raise InputError("generators must be distinct")
        if not self._generates():
            raise InputError(f"{gens} do not generate the group {group.orders}")

    def _generates(self) -> bool:
        orders = self.group.orders
        if len(orders) == 1:
            # On Z_n the generators span gcd(n, g_1, ..., g_s) * Z_n.
            return gcd(*orders, *(g for (g,) in self.gens)) == 1
        # Hermite reduction of the rows gens + n_i*e_i, one column at a
        # time: unimodular row steps gather the column's gcd into one
        # pivot row and clear the column in the others.  The rows left
        # span the lattice's vectors that vanish up to this column, which
        # hold n_j*e_j, so their entries may be reduced mod n_j.
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
        labeled GENERATOR_LABELS[i] whose tail has index v, i.e. the
        group's translation_table of gens[i]."""
        if self._tables is None:
            self._tables = tuple(map(self.group.translation_table, self.gens))
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
    """The cosets of <delta> in a two-generated Cay(G; a, b).  It holds
    no reference to the digraph, whose _split slot keeps it: the two
    would form a reference cycle, which only the cyclic collector frees,
    and the digraph's tables with it."""

    orders: tuple[int, ...]  # the group's
    a: Vertex
    delta: Vertex  # a - b
    n: int  # order of delta
    m: int  # index of <delta>
    sigma: int  # m*a = sigma*delta, 0 <= sigma < n

    def vertex(self, i: int, h: int) -> Vertex:
        """The vertex i*a + h*delta."""
        return tuple((i * x + h * y) % o for x, y, o in zip(self.a, self.delta, self.orders))


def coset_split(d: CayleyDigraph) -> CosetSplit:
    """delta, n, m and sigma of a two-generated digraph d, computed on
    first use and kept in d's _split slot: a build's pair search and its
    pair check read one split."""
    if d._split is None:
        if len(d.gens) != 2:
            raise InputError(f"need two generators, got {len(d.gens)}")
        g = d.group
        a, b = d.gens
        delta = g.add(a, g.neg(b))
        n = lcm(*(o // gcd(x, o) for x, o in zip(delta, g.orders)))
        m = g.size // n
        ma = tuple(m * x % o for x, o in zip(a, g.orders))
        d._split = CosetSplit(g.orders, a, delta, n, m, _multiple(ma, delta, g.orders))
    return d._split


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
    last's n - 1 labels, are those of cut_walk(n, c_B - sigma, J), which
    then closes, J the B's of x; h is w's end's index v // m.  None
    otherwise."""
    labels, m, n = w.labels, split.m, split.n
    size = m * n
    if len(labels) != size - 1:
        return None
    pattern, x = labels[: m - 1], labels[m - 1 :: m]
    if any(labels[c::m] != g * n for c, g in enumerate(pattern)):
        return None
    c_b, j = pattern.count("B"), x.count("B")
    if x != cut_walk(n, c_b - split.sigma, j):
        return None
    (a,), (delta,) = split.a, split.delta
    b_steps = c_b * n + j  # each B step is an A step less delta
    end = (w.start[0] + (size - 1) * a - b_steps * delta) % size
    return pattern, x, j, end // m


def _interval_marks(n: int, j: int, end: int) -> bytes:
    """The marks of a Hamiltonian path on its end coset, by cut walk
    index: B's code below j, `end` at j and A's code above."""
    return b"\x02" * j + bytes((end,)) + b"\x01" * (n - 1 - j)


def cut_walk(n: int, r: int, j: int) -> str:
    """The labels of the cut walk of Z_n at cut value j with step r
    (module docstring); j is in Z(n, r) iff there are n - 1 of them.

    From w = r mod n, a vertex w < j takes label B and steps by r + 1,
    any other takes A and steps by r, mod n, up to the first visit of j.
    Raises InputError if j is not in [0, n).
    """
    if not 0 <= j < n:
        raise InputError(f"need 0 <= j < n, got j={j} for n={n}")
    if 2 * j < n:
        common, rare = b"A", 66  # B
    else:  # the mirror: (-1 - r, n - 1 - j) with A and B swapped
        common, rare, r, j = b"B", 65, -1 - r, n - 1 - j
    out = bytearray(common) * (n - 1)  # an n too large to hold fails here
    tp, p, tq, q = _first_returns(n, r % n, j)
    # Each zone vertex z but j takes the rare label at walk position i,
    # and the walk goes on from x = z + 1 (from 0 to start, as j -> 0)
    # by the return rule, read on z: x + p <= j iff z < j - p, and x >= q
    # iff z >= q - 1.  Each case moves z and i by constants.
    i, z = tp - 1, p
    low, high = j - p, q - 1
    dp, dq, dpq, tpq = 1 + p, 1 - q, 1 + p - q, tp + tq
    while z != j:
        out[i] = rare
        if z < low:
            z += dp
            i += tp
        elif z >= high:
            z += dq
            i += tq
        else:
            z += dpq
            i += tpq
    del out[i:]
    return out.decode()


def _first_returns(n: int, r: int, j: int) -> tuple[int, int, int, int]:
    """(t_p, p, t_q, q): the first returns of 0 to [0, j] under w -> w + r
    on Z_n, 0 <= r < n, on the right and on the left, by the subtractive
    Euclid of the module docstring."""
    if r == 0:
        return 1, 0, 1, 0
    a, ta, b, tb = r, 1, n - r, 1
    while a > j or b > j:
        if a == b:
            return ta + tb, 0, ta + tb, 0
        if a > b:  # a loses b while it exceeds both j and b
            k = (a - 1 - max(j, b)) // b + 1
            a -= k * b
            ta += k * tb
        else:
            k = (b - 1 - max(j, a)) // a + 1
            b -= k * a
            tb += k * ta
    return ta, a, tb, b


def check_pair(d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk, what: str) -> None:
    """Raise RuntimeError, "<what> failed verification: <reason>", if
    pair_failure rejects (p, q): a builder whose pair fails its check
    has a bug, not bad input."""
    reason = pair_failure(d, p, q)
    if reason:
        raise RuntimeError(f"{what} failed verification: {reason}")


def arc_disjoint(w1: LabeledWalk, w2: LabeledWalk) -> bool:
    """True iff the two walks share no (tail, label) arc: no arc id of w2
    (arc_ids) is an arc id of w1."""
    if w1.digraph != w2.digraph:
        raise InputError("walks live in different digraphs")
    return set(arc_ids(w1)).isdisjoint(arc_ids(w2))


def arc_ids(w: LabeledWalk) -> Iterator[int]:
    """The walk's arcs as tail index * r + label position, r generators:
    the oracle's encoding of forbidden arcs."""
    r = len(w.digraph.gens)
    return map(add, map(r.__mul__, w.index_list), w.labels.encode().translate(_POSITIONS))
