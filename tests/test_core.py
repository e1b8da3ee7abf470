import functools
import itertools
import os
import subprocess
import sys
import time
from collections import deque
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hampair
from hampair.core import (
    CayleyDigraph,
    FiniteAbelianGroup,
    InputError,
    LabeledWalk,
    Vertex,
    _marks,
    arc_disjoint,
    arc_ids,
    cayley,
    check_pair,
    pair_failure,
    verify_hamiltonian,
)
from hampair.family_one import realize_disjoint_pair
from hampair.family_two import build_family_two
from hampair.oracle import _Budget, _iter_paths, find_arc_disjoint_pair
from hampair.products import build_three_factor, product_digraph
from small_digraphs import two_generated

# References on residue tuples, independent of the integer kernel: an
# arc of a Cayley digraph is determined by (tail, label).
Arc = tuple[Vertex, str]
ArcSet = frozenset[Arc]


def successor(d: CayleyDigraph, v: Vertex, lab: str) -> Vertex:
    """The head of the arc with tail v and the given label."""
    return d.group.add(d.group.check_vertex(v), d.gen(lab))


def arcs(w: LabeledWalk) -> list[Arc]:
    """The walk's arcs in traversal order, as (tail, label) pairs."""
    return [(v, lab) for v, lab in zip(w.vertex_list, w.labels)]


def arc_set(w: LabeledWalk) -> ArcSet:
    return frozenset(arcs(w))


def test_successor_residue_addition():
    d = cayley([10], 4, 5)
    assert successor(d, (3,), "A") == (7,)
    assert successor(d, (7,), "B") == (2,)


def test_successor_componentwise():
    d = cayley([2, 3], (1, 0), (0, 1))
    assert successor(d, (1, 2), "B") == (1, 0)


def test_successor_rejects_malformed_vertex():
    d = cayley([10], 4, 5)
    with pytest.raises(InputError):
        successor(d, (10,), "A")
    with pytest.raises(InputError):
        successor(d, (1, 2), "A")


def test_digraph_invariants():
    g = FiniteAbelianGroup((6,))
    with pytest.raises(InputError):
        CayleyDigraph(g, ((0,), (2,)))  # zero generator
    with pytest.raises(InputError):
        CayleyDigraph(g, ((2,), (2,)))  # duplicate
    with pytest.raises(InputError):
        CayleyDigraph(g, ((2,), (4,)))  # does not generate Z_6


def test_order_two_group_accepted():
    d = cayley([2], 1)
    assert d.group.size == 2


def test_verify_hamiltonian_z6_example():
    # Cay(Z_6; 5, 2): the all-A walk 0,5,4,3,2,1 is a Hamiltonian path,
    # and closes to a Hamiltonian cycle with one more A step.
    d = cayley([6], 5, 2)
    path = LabeledWalk(d, (0,), "AAAAA")
    assert verify_hamiltonian(d, path, "path") is None
    cycle = LabeledWalk(d, (0,), "AAAAAA")
    assert verify_hamiltonian(d, cycle, "cycle") is None


def test_verify_wrong_length():
    d = cayley([5], 2, 3)
    reason = verify_hamiltonian(d, LabeledWalk(d, (0,), "AA"), "path")
    assert reason == "wrong length: 2 labels, expected 4"


def test_verify_repeated_vertex():
    d = cayley([4], 2, 1)
    reason = verify_hamiltonian(d, LabeledWalk(d, (0,), "AAA"), "path")
    assert reason == "repeated vertex (0,)"


def test_verify_cycle_must_close():
    d = cayley([5], 2, 3)
    reason = verify_hamiltonian(d, LabeledWalk(d, (0,), "AAAAB"), "cycle")
    assert reason == "cycle does not close: ends at (1,), started at (0,)"


def test_arc_disjoint_self_false():
    d = cayley([6], 5, 2)
    w = LabeledWalk(d, (0,), "AAB")
    assert not arc_disjoint(w, w)


def test_pair_failure_reasons():
    # Cay(Z_3; 1, 2): 0,1,2 by A and 0,2,1 by B share no arc.
    d = cayley([3], 1, 2)
    p, q = LabeledWalk(d, (0,), "AA"), LabeledWalk(d, (0,), "BB")
    short, loop = LabeledWalk(d, (0,), "A"), LabeledWalk(d, (0,), "BA")
    assert pair_failure(d, p, q) is None
    assert pair_failure(d, short, loop) == "path1: wrong length: 1 labels, expected 2"
    assert pair_failure(d, p, loop) == "path2: repeated vertex (0,)"
    assert pair_failure(d, p, p) == "arc overlap between path1 and path2"
    # check_pair, the builders' check, raises the same reason.
    check_pair(d, p, q, "test pair")
    with pytest.raises(RuntimeError) as err:
        check_pair(d, p, p, "test pair")
    assert str(err.value) == "test pair failed verification: arc overlap between path1 and path2"


def test_arc_disjoint_same_tail_different_labels():
    d = cayley([6], 5, 2)
    assert arc_disjoint(LabeledWalk(d, (0,), "A"), LabeledWalk(d, (0,), "B"))


def test_arc_ids_are_tail_index_times_r_plus_label_position():
    d = cayley([2, 3], (1, 0), (0, 1))  # index of (x, y) is 3x + y
    w = LabeledWalk(d, (0, 2), "ABA")  # (0,2) -A-> (1,2) -B-> (1,0) -A-> (0,0)
    assert list(arc_ids(w)) == [2 * 2 + 0, 5 * 2 + 1, 3 * 2 + 0]


def test_arc_disjoint_rejects_mismatched_digraphs():
    w1 = LabeledWalk(cayley([6], 5, 2), (0,), "A")
    w2 = LabeledWalk(cayley([6], 1, 2), (0,), "A")
    with pytest.raises(InputError):
        arc_disjoint(w1, w2)


def test_translate_identity_and_arcs():
    d = cayley([10], 4, 5)
    w = LabeledWalk(d, (2,), "ABA")
    assert w.translate(0) == w
    shifted = w.translate(3)
    assert arc_set(shifted) == frozenset(
        ((d.group.add(t, (3,)), lab) for t, lab in arcs(w))
    )


def test_translation_preserves_verification():
    d = cayley([10], 1, 3)
    w = LabeledWalk(d, (0,), "A" * 9)
    assert verify_hamiltonian(d, w) is None
    for g in range(10):
        assert verify_hamiltonian(d, w.translate(g)) is None


def test_translation_preserves_arc_disjointness():
    d = cayley([6], 5, 2)
    w1 = LabeledWalk(d, (0,), "AAB")
    w2 = LabeledWalk(d, (1,), "BAB")
    base = arc_disjoint(w1, w2)
    for g in range(6):
        assert arc_disjoint(w1.translate(g), w2.translate(g)) == base


@given(st.integers(0, 9), st.text(alphabet="AB", min_size=0, max_size=12))
def test_translate_roundtrip_property(start, labels):
    d = cayley([10], 4, 5)
    w = LabeledWalk(d, (start,), labels)
    for g in range(10):
        back = w.translate(g).translate((10 - g) % 10)
        assert back == w
        assert w.translate(g).labels == w.labels


@given(st.integers(2, 30), st.text(alphabet="AB", min_size=1, max_size=10))
def test_walk_end_matches_label_counts(k, labels):
    d = cayley([k], 1, k - 1) if k > 2 else cayley([2], 1)
    if k == 2:
        labels = "A" * len(labels)
    w = LabeledWalk(d, (0,), labels)
    na = labels.count("A")
    nb = len(labels) - na
    assert w.end == d.group.canon(
        (na * d.gens[0][0] + nb * d.gens[-1][0],)
    )


def test_path_arcs_distinct():
    # arcs of a verified path are pairwise distinct (tail, label) pairs
    d = cayley([7], 2, 3)
    w = LabeledWalk(d, (0,), "ABABAB")
    if verify_hamiltonian(d, w) is None:
        assert len(arc_set(w)) == len(arcs(w))


def test_import_leaves_numpy_unloaded():
    src = str(Path(hampair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hampair; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def bfs_generates(group: FiniteAbelianGroup, gens) -> bool:
    """Reference generation check: breadth-first closure from 0."""
    seen = {group.zero}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for g in gens:
            w = group.add(v, g)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == group.size


def hermite_generates(group: FiniteAbelianGroup, gens) -> bool:
    # gens are distinct and nonzero, so the only reason to refuse them
    # is that they do not generate the group
    try:
        CayleyDigraph(group, tuple(gens))
    except InputError:
        return False
    return True


def small_groups(max_order: int, max_rank: int):
    """Every Z_{n1} x ... x Z_{nr} with r <= max_rank, all n_i >= 2 and
    order <= max_order, each ordering of the factors counted."""
    for rank in range(1, max_rank + 1):
        for orders in itertools.product(range(2, max_order + 1), repeat=rank):
            if prod(orders) <= max_order:
                yield FiniteAbelianGroup(orders)


def test_generation_check_matches_bfs_on_pairs():
    checked = refused = 0
    for group in small_groups(24, 3):
        nonzero = [v for v in group.elements() if v != group.zero]
        for gens in itertools.permutations(nonzero, 2):
            want = bfs_generates(group, gens)
            assert hermite_generates(group, gens) == want, (group.orders, gens)
            checked += 1
            refused += not want
    assert refused > 0 and checked > refused
    assert not hermite_generates(FiniteAbelianGroup((6,)), ((2,), (4,)))
    assert not hermite_generates(FiniteAbelianGroup((2, 4)), ((1, 0), (0, 2)))
    assert hermite_generates(FiniteAbelianGroup((1, 6)), ((0, 2), (0, 3)))


def test_generation_by_gcd_matches_the_closure_on_cyclic_groups():
    # On Z_n generation is one gcd; the closure of <a, b> is walked here
    # on plain integers.
    for n in range(2, 61):
        group = FiniteAbelianGroup((n,))
        for a, b in itertools.combinations(range(1, n), 2):
            seen, todo = {0}, [0]
            while todo:
                v = todo.pop()
                for w in ((v + a) % n, (v + b) % n):
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            assert hermite_generates(group, ((a,), (b,))) == (len(seen) == n), (n, a, b)


def test_generation_by_minors_matches_bfs_on_rank_two():
    for m, n in itertools.product(range(1, 9), repeat=2):
        group = FiniteAbelianGroup((m, n))
        nonzero = [v for v in group.elements() if v != group.zero]
        for gens in itertools.combinations(nonzero, 2):
            assert hermite_generates(group, gens) == bfs_generates(group, gens), (m, n, gens)


def test_generation_by_minors_matches_bfs_on_rank_four_and_unit_factors():
    # Two generators on every group of rank 4, and of rank 3 with a
    # factor of order 1, of order <= 24, factors of order 1 to 6.
    checked = refused = 0
    for rank in (3, 4):
        for orders in itertools.product(range(1, 7), repeat=rank):
            if prod(orders) > 24 or rank == 3 and 1 not in orders:
                continue
            group = FiniteAbelianGroup(orders)
            nonzero = [v for v in group.elements() if v != group.zero]
            for gens in itertools.combinations(nonzero, 2):
                want = bfs_generates(group, gens)
                assert hermite_generates(group, gens) == want, (orders, gens)
                checked += 1
                refused += not want
    assert refused > 0 and checked > refused


def test_generation_by_minors_on_huge_orders_returns_at_once():
    # Z_(10^18) x Z_(10^18): one gcd of five numbers, no walk of the group.
    group = FiniteAbelianGroup((10**18, 10**18))
    start = time.perf_counter()
    assert hermite_generates(group, ((1, 1), (1, 2)))  # a_1*b_2 - a_2*b_1 = 1
    assert hermite_generates(group, ((10**18 - 1, 1), (1, 0)))
    assert not hermite_generates(group, ((2, 0), (0, 1)))  # index 2
    assert not hermite_generates(group, ((1, 1), (3, 3)))  # both in <(1, 1)>
    assert time.perf_counter() - start < 0.5


def test_generation_check_matches_bfs_on_triples():
    for group in small_groups(12, 3):
        nonzero = [v for v in group.elements() if v != group.zero]
        for gens in itertools.permutations(nonzero, 3):
            assert hermite_generates(group, gens) == bfs_generates(group, gens), (
                group.orders,
                gens,
            )


def test_predecessor_tables_invert_successor_tables():
    digraphs = [cayley([3, 4, 5], (1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for group in small_groups(12, 3):
        nonzero = [v for v in group.elements() if v != group.zero]
        for gens in itertools.permutations(nonzero, 2):
            if bfs_generates(group, gens):
                digraphs.append(CayleyDigraph(group, gens))
    assert len(digraphs) > 1000
    for d in digraphs:
        assert len(d.predecessor_tables) == len(d.gens)
        for succ, pred in zip(d.successor_tables, d.predecessor_tables):
            assert [pred[w] for w in succ] == list(range(d.group.size)), d
            assert [succ[v] for v in pred] == list(range(d.group.size)), d


@st.composite
def walks_in(draw, min_rank: int, max_rank: int, count: int):
    """A generating Cayley digraph of small rank and `count` random walks in it."""
    orders = tuple(draw(st.lists(st.integers(2, 5), min_size=min_rank, max_size=max_rank)))
    element = st.tuples(*(st.integers(0, n - 1) for n in orders))
    gens = draw(st.lists(element, min_size=2, max_size=3, unique=True))
    group = FiniteAbelianGroup(orders)
    assume(group.zero not in gens and bfs_generates(group, gens))
    d = CayleyDigraph(group, tuple(gens))
    labels = st.text(alphabet=d.labels, max_size=2 * group.size)
    return d, [LabeledWalk(d, draw(element), draw(labels)) for _ in range(count)]


@given(walks_in(1, 3, 1))
def test_index_list_decodes_to_successor_walk(case):
    d, (w,) = case
    vs = [w.start]
    for lab in w.labels:
        vs.append(successor(d, vs[-1], lab))
    assert [d.group.decode(i) for i in w.index_list] == vs
    assert w.index_list == [d.group.encode(v) for v in vs]
    assert list(w.vertex_list) == vs and w.end == vs[-1]


def tuple_arc_sets_disjoint(w1: LabeledWalk, w2: LabeledWalk) -> bool:
    """The reference for arc_disjoint, on residue tuples: arc_disjoint
    reads the oracle's arc ids, so comparing it with arc_ids would
    compare it with itself."""
    return not (arc_set(w1) & arc_set(w2))


@given(walks_in(2, 3, 2))
def test_arc_disjoint_matches_tuple_arc_sets(case):
    _, (w1, w2) = case
    assert arc_disjoint(w1, w2) == tuple_arc_sets_disjoint(w1, w2)


@given(walks_in(1, 3, 2))
def test_arc_disjoint_matches_tuple_arc_sets_from_rank_one(case):
    d, (w1, w2) = case
    assert arc_disjoint(w1, w2) == tuple_arc_sets_disjoint(w1, w2)
    empty = LabeledWalk(d, w2.start, "")
    assert arc_disjoint(w1, empty) and arc_disjoint(empty, w1)
    assert tuple_arc_sets_disjoint(w1, empty)


@functools.cache
def verified_pairs() -> list[tuple[LabeledWalk, LabeledWalk]]:
    """Arc-disjoint Hamiltonian path pairs of ranks 1, 2 and 3."""
    r = realize_disjoint_pair(10, 4)
    pairs = [
        (r.path1, r.path2),
        build_family_two(1, 4),
        find_arc_disjoint_pair(cayley([2, 4], (1, 0), (0, 1))).pair,
        build_three_factor(2, 3, 2),
    ]
    assert all(pair_failure(p.digraph, p, q) is None for p, q in pairs)
    return pairs


@given(st.data())
def test_arc_disjoint_matches_tuple_arc_sets_on_flipped_pairs(data):
    # One label of a verified pair changed: the walks stay in the digraph
    # but may now share an arc, or wander off a Hamiltonian path.
    pair = list(data.draw(st.sampled_from(verified_pairs())))
    which = data.draw(st.integers(0, 1))
    w = pair[which]
    i = data.draw(st.integers(0, len(w.labels) - 1))
    lab = data.draw(st.sampled_from([x for x in w.digraph.labels if x != w.labels[i]]))
    pair[which] = LabeledWalk(w.digraph, w.start, w.labels[:i] + lab + w.labels[i + 1 :])
    assert arc_disjoint(*pair) == tuple_arc_sets_disjoint(*pair)


# pair_failure decides a pair of Hamiltonian paths by one XOR of their
# vertex marks (the core module docstring); arc_disjoint, which holds for
# any two walks, is its reference.
OVERLAP = "arc overlap between path1 and path2"


def test_pair_failure_matches_arc_disjoint_on_small_digraphs():
    # Every ordered pair of the first 60 Hamiltonian paths (in the
    # oracle's order) of every two-generated digraph of order <= 8.
    pairs = disjoint = 0
    for d in two_generated(8):
        paths = list(itertools.islice(_iter_paths(d, _Budget(10**7)), 60))
        for p, q in itertools.product(paths, repeat=2):
            expected = None if arc_disjoint(p, q) else OVERLAP
            assert pair_failure(d, p, q) == expected, (d, p.start, p.labels, q.start, q.labels)
            pairs += 1
            disjoint += expected is None
    assert (pairs, disjoint) == (105380, 15144)


def test_pair_failure_matches_arc_disjoint_on_products():
    # The marks rule is one rule for any number of generators: every
    # ordered pair of the first 40 Hamiltonian paths of products of three
    # and four directed cycles.
    pairs = disjoint = 0
    for orders in [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 4), (2, 3, 4), (2, 2, 2, 2)]:
        d = product_digraph(orders)
        paths = list(itertools.islice(_iter_paths(d, _Budget(10**7)), 40))
        for p, q in itertools.product(paths, repeat=2):
            expected = None if arc_disjoint(p, q) else OVERLAP
            assert pair_failure(d, p, q) == expected, (orders, p.start, p.labels, q.start, q.labels)
            pairs += 1
            disjoint += expected is None
    assert (pairs, disjoint) == (11200, 306)


def test_marks_are_the_codes_of_the_labels_that_leave_each_vertex():
    # Codes are label position + 1, so no Hamiltonian path's marks hold a
    # zero byte and the repeated-vertex scan never runs on one.
    for p, q in verified_pairs():
        d = p.digraph
        for w, end in ((p, 254), (q, 255)):
            want = bytearray(d.group.size)
            for v, lab in zip(w.index_list, w.labels):
                want[v] = d.labels.index(lab) + 1
            want[w.index_list[-1]] = end
            assert _marks(d, w, "path", end) == (None, want)


def test_pair_failure_catches_a_shared_b_arc_alone():
    # Cay(Z_6; 1, 2): the A-tails {2, 3, 4} and {5} are disjoint, and
    # the one shared arc is 0 -B-> 2: both paths mark vertex 0 with B's
    # code.
    d = cayley([6], 1, 2)
    p, q = LabeledWalk(d, (0,), "BAAAB"), LabeledWalk(d, (1,), "BBABB")
    assert arc_set(p) & arc_set(q) == {((0,), "B")}
    assert pair_failure(d, p, q) == pair_failure(d, q, p) == OVERLAP


def test_pair_failure_when_an_end_is_an_a_tail_of_the_other_path():
    # Cay(Z_5; 1, 2): P ends at 1, where Q takes an A-arc, and Q's end 4
    # is not an A-tail of P; an end mark is no label's code.
    d = cayley([5], 1, 2)
    p, q = LabeledWalk(d, (0,), "BAAB"), LabeledWalk(d, (3,), "BAAB")
    assert p.end == (1,) and ((1,), "A") in arc_set(q)
    assert q.end == (4,) and ((4,), "A") not in arc_set(p)
    assert not arc_set(p) & arc_set(q)
    # Swapped, Q's end is an A-tail of P.
    assert pair_failure(d, p, q) is None and pair_failure(d, q, p) is None


def test_pair_failure_when_both_paths_end_at_one_vertex():
    # Cay(Z_6; 1, 3): both paths end at 3, so the two end marks must
    # differ, or vertex 3 would read as a shared arc.
    d = cayley([6], 1, 3)
    p, q = LabeledWalk(d, (0,), "ABABA"), LabeledWalk(d, (4,), "BABAB")
    assert p.end == q.end == (3,)
    assert not arc_set(p) & arc_set(q)
    assert pair_failure(d, p, q) is None and pair_failure(d, q, p) is None


# The checks before vertex marks, kept as the reference: the walk's index
# list, a set of its first n vertices, and arc_disjoint for the pair.
def verify_by_index_set(d: CayleyDigraph, w: LabeledWalk, mode: str = "path") -> str | None:
    n = d.group.size
    want = n - 1 if mode == "path" else n
    if len(w.labels) != want:
        return f"wrong length: {len(w.labels)} labels, expected {want}"
    vs = w.index_list
    seen: set[int] = set()
    for v in vs[:n]:
        if v in seen:
            return f"repeated vertex {d.group.decode(v)}"
        seen.add(v)
    if mode == "cycle" and vs[-1] != vs[0]:
        end, start = d.group.decode(vs[-1]), d.group.decode(vs[0])
        return f"cycle does not close: ends at {end}, started at {start}"
    return None


def pair_failure_by_index_sets(d: CayleyDigraph, p: LabeledWalk, q: LabeledWalk) -> str | None:
    for name, w in (("path1", p), ("path2", q)):
        reason = verify_by_index_set(d, w)
        if reason:
            return f"{name}: {reason}"
    return None if arc_disjoint(p, q) else OVERLAP


SMALL_DIGRAPHS = [
    cayley([5], 1, 2),
    cayley([6], 1, 3),
    cayley([7], 2, 3),
    cayley([12], 1, 5),
    cayley([2, 3], (1, 0), (0, 1)),
    cayley([3, 4], (1, 0), (0, 1)),
    product_digraph((2, 2, 2)),
    product_digraph((2, 3, 2)),
]


@functools.cache
def dfs_paths(d: CayleyDigraph) -> list[LabeledWalk]:
    return list(itertools.islice(_iter_paths(d, _Budget(10**7)), 30))


@st.composite
def near_hamiltonian_walks(draw, d: CayleyDigraph, mode: str):
    """A walk of d whose length is that of a Hamiltonian path or cycle,
    or one off: random labels, or a Hamiltonian path of d, translated,
    with one label more for a cycle."""
    start = draw(st.sampled_from(list(d.group.elements())))
    if draw(st.booleans()):
        w = draw(st.sampled_from(dfs_paths(d))).translate(start)
        if mode == "cycle":
            w = LabeledWalk(d, w.start, w.labels + draw(st.sampled_from(d.labels)))
        return w
    n = d.group.size
    size = (n - 1 if mode == "path" else n) + draw(st.integers(-1, 1))
    return LabeledWalk(d, start, draw(st.text(alphabet=d.labels, min_size=size, max_size=size)))


@given(st.data())
def test_checks_match_the_index_list_and_set_reference(data):
    d = data.draw(st.sampled_from(SMALL_DIGRAPHS))
    mode = data.draw(st.sampled_from(["path", "cycle"]))
    w = data.draw(near_hamiltonian_walks(d, mode))
    assert verify_hamiltonian(d, w, mode) == verify_by_index_set(d, w, mode)
    p, q = data.draw(near_hamiltonian_walks(d, "path")), data.draw(near_hamiltonian_walks(d, "path"))
    assert pair_failure(d, p, q) == pair_failure_by_index_sets(d, p, q)
