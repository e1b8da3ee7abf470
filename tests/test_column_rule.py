"""The column rule of core.pair_failure against the marks walk.

The rule may only prove a pair.  On Z_N with two generators, for every
m = gcd(A - B, N) >= 1, family one's m = 1 included, it must prove
exactly the pairs that the marks walk passes: never one the walk
rejects, and every arc-disjoint Hamiltonian pair, as every Hamiltonian
path has the coset shape the rule reads (cosets' path lemma).  Off Z_N,
or with three generators, it defers.
"""

import itertools
from math import gcd

from hampair import oracle
from hampair.core import (
    LabeledWalk,
    _columns_prove,
    _marks_failure,
    arc_ids,
    cayley,
    coset_split,
    pair_failure,
    verify_hamiltonian,
)
from hampair.cosets import _structured_pairs, find_pair, iter_pairs
from hampair.products import product_digraph

_SWAP = str.maketrans("AB", "BA")
OVERLAP = "arc overlap between path1 and path2"


def rank_one(max_order: int, ordered: bool = True):
    """Every Cay(Z_N; a, b) with 3 <= N <= max_order, of any m: each
    ordered pair of distinct nonzero a, b that generate Z_N, or with
    ordered=False each pair once, a < b."""
    pairs = itertools.permutations if ordered else itertools.combinations
    for N in range(3, max_order + 1):
        for a, b in pairs(range(1, N), 2):
            if gcd(a, b, N) == 1:
                yield cayley([N], a, b)


def agrees(d, p, q) -> bool:
    """Whether the rule proves (p, q), after asserting that it does iff
    the marks walk passes the pair."""
    proved = _columns_prove(d, p, q)
    assert proved == (_marks_failure(d, p, q) is None), (d, p.start, p.labels, q.start, q.labels)
    return proved


def _flip(w: LabeledWalk, i: int) -> LabeledWalk:
    """w with its i-th label changed."""
    return LabeledWalk(w.digraph, w.start, w.labels[:i] + w.labels[i].translate(_SWAP) + w.labels[i + 1 :])


def _variant(kind: int, p: LabeledWalk, q: LabeledWalk, m: int):
    """One of seven changes to a pair: P with one label flipped in its
    first column, in its last (end) column or at its last step; P with A
    and B swapped; P from the next vertex; Q translated by 1 or by m,
    which moves its end to another coset or within its own."""
    if kind < 3:
        return _flip(p, (0, m - 1, len(p.labels) - 1)[kind]), q
    if kind == 3:
        return LabeledWalk(p.digraph, p.start, p.labels.translate(_SWAP)), q
    if kind == 4:
        return p.translate(1), q
    return p, q.translate(1 if kind == 5 else m)


def sweep_coset_pairs(max_order: int, keep) -> tuple[int, int]:
    """(checks, proved) on every rank_one(max_order) digraph whose m
    passes keep: pairs 0, 6, ..., 54 of its first 60 coset pairs, each
    in both orders and with one of the seven changes, taken in turn."""
    checks = proved = 0
    for d in rank_one(max_order):
        split = coset_split(d)
        if not keep(split.m):
            continue
        for i, (p, q) in enumerate(itertools.islice(_structured_pairs(d), 0, 60, 6)):
            assert agrees(d, p, q) and agrees(d, q, p)
            proved += 2 + agrees(d, *_variant((checks + i) % 7, p, q, split.m))
            checks += 3
    return checks, proved


def test_column_rule_matches_the_marks_walk_on_coset_pairs():
    # Every rank-one digraph of order <= 40 with m >= 3.
    assert sweep_coset_pairs(40, lambda m: m >= 3) == (79212, 57018)


def test_column_rule_matches_the_marks_walk_on_coset_pairs_with_m_one_or_two():
    # Every rank-one digraph of order <= 30 with m = 1, family one's
    # digraphs among them, or m = 2.
    assert sweep_coset_pairs(30, lambda m: m < 3) == (98940, 75485)


def test_column_rule_proves_every_dfs_pair():
    # Every ordered arc-disjoint pair of Hamiltonian paths, the first
    # ending at 0, that the exhaustive DFS finds on the rank-one digraphs
    # of order <= 18, a < b, counted by m (3 for m >= 3) and, apart, on
    # family one's Cay(Z_k; a, a + 1).
    pairs = {1: 0, 2: 0, 3: 0, "family one": 0}
    for d in rank_one(18, ordered=False):
        m = min(coset_split(d).m, 3)
        budget = oracle._Budget(10**9)
        for p in oracle._iter_paths(d, budget):
            if p.end == (0,):
                for q in oracle._iter_paths(d, budget, forbidden=frozenset(arc_ids(p))):
                    assert _columns_prove(d, p, q), (d, p.start, p.labels, q.start, q.labels)
                    pairs[m] += 1
                    pairs["family one"] += d.gens[1][0] == d.gens[0][0] + 1
    assert pairs == {1: 10420, 2: 3100, 3: 19260, "family one": 1984}


def test_column_rule_on_every_pair_of_hamiltonian_paths():
    # All ordered pairs of Hamiltonian paths, disjoint or not, of six
    # small digraphs; n = 2 in Cay(Z_6; 1, 4).
    for d, n, m, disjoint in (
        (cayley([10], 4, 5), 10, 1, 30),
        (cayley([9], 2, 3), 9, 1, 18),
        (cayley([8], 1, 3), 4, 2, 160),
        (cayley([6], 1, 4), 2, 3, 24),
        (cayley([9], 1, 4), 3, 3, 162),
        (cayley([12], 1, 5), 3, 4, 1440),
    ):
        assert (coset_split(d).n, coset_split(d).m) == (n, m)
        paths = list(oracle._iter_paths(d, oracle._Budget(10**9)))
        assert sum(agrees(d, p, q) for p, q in itertools.product(paths, repeat=2)) == disjoint


def test_column_rule_with_two_vertices_per_coset():
    # Cay(Z_6; 1, 4): delta = 3, so n = 2 and m = 3.  P and Q end in one
    # coset, {0, 3}, and the XOR of two 2-byte mark strings decides it.
    d = cayley([6], 1, 4)
    p, q = LabeledWalk(d, (1,), "AAAAA"), LabeledWalk(d, (4,), "BBABB")
    assert (p.end, q.end) == ((0,), (3,))
    assert _columns_prove(d, p, q) and pair_failure(d, p, q) is None
    # P's one end-coset label changed: every column is still constant, but
    # the end-coset walk comes back to where it began, so P repeats 1.
    w = LabeledWalk(d, (1,), "AABAA")
    assert w.index_list == [1, 2, 3, 1, 2, 3]
    assert not _columns_prove(d, w, q)
    assert pair_failure(d, w, q) == "path1: repeated vertex (1,)"


def test_column_rule_proves_ends_in_one_coset_and_in_two():
    d = cayley([12], 1, 5)  # m = 4, n = 3
    m = coset_split(d).m
    pairs = list(iter_pairs(d))
    same = [(p, q) for p, q in pairs if (p.end[0] - q.end[0]) % m == 0]
    two = [(p, q) for p, q in pairs if (p.end[0] - q.end[0]) % m != 0]
    assert same and two
    assert all(agrees(d, p, q) and agrees(d, q, p) for p, q in same + two)


# In Cay(Z_12; 1, 5), m = 4: pairs of Hamiltonian paths whose shared arcs
# all lie in one coset (v mod 4), which holds both ends, P's end alone,
# Q's end alone or neither end.  P, from 0 by A alone, ends at 11.
P12 = (0, "AAAAAAAAAAA")
ONE_COSET_OVERLAPS = [
    # Q, Q's end, the shared arcs
    ((0, "BBBABBBABBB"), 11, [(3, "A"), (7, "A")]),
    ((1, "BBABBBABBBA"), 8, [(3, "A"), (7, "A")]),
    ((1, "BBBABBBABBB"), 0, [(4, "A"), (8, "A")]),
    ((0, "ABBBABBBABB"), 7, [(0, "A"), (4, "A"), (8, "A")]),
]


def test_column_rule_defers_on_an_overlap_in_one_coset():
    d = cayley([12], 1, 5)
    p = LabeledWalk(d, (P12[0],), P12[1])
    kinds = set()
    for (start, labels), end, shared in ONE_COSET_OVERLAPS:
        q = LabeledWalk(d, (start,), labels)
        assert q.end == (end,)
        arcs = set(zip(p.index_list, p.labels)) & set(zip(q.index_list, q.labels))
        assert sorted(arcs) == shared and len({v % 4 for v, _ in shared}) == 1
        coset = shared[0][0] % 4
        kinds.add((coset == 11 % 4, coset == end % 4))
        for x, y in ((p, q), (q, p)):
            assert not _columns_prove(d, x, y)
            assert pair_failure(d, x, y) == OVERLAP
    # the shared end coset, P's end coset, Q's and a coset of neither
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_column_rule_reads_every_column_not_only_the_last():
    # In Cay(Z_12; 1, 5) this walk's first column (steps 0, 4, 8) leaves
    # 10 and 2 by B and then 2 again by A, so it is no Hamiltonian path.
    # Its first three labels and its last column are those of a
    # Hamiltonian path, so the end-coset walk alone would pass it: only
    # the comparison of every column rejects it.
    d = cayley([12], 1, 5)
    labels = "BBABBAABAAA"
    w = LabeledWalk(d, (10,), labels)
    assert [w.index_list[i] for i in (0, 4, 8)] == [10, 2, 2] and labels[0::4] == "BBA"
    pattern, x = labels[:3], labels[3::4]
    shaped = LabeledWalk(d, w.start, pattern + pattern.join(x) + pattern)
    assert shaped.labels == "BBABBBABBBA" != labels
    # shaped is a Hamiltonian path that q is arc-disjoint from; w is not.
    q = LabeledWalk(d, (0,), "BAAABAAABAA")
    assert _columns_prove(d, shaped, q) and pair_failure(d, shaped, q) is None
    assert not _columns_prove(d, w, q)
    assert pair_failure(d, w, q) == "path1: repeated vertex (8,)"


def test_column_rule_defers_off_rank_one_with_m_at_least_three():
    # On Z_N the rule proves family one (m = 1) and m = 2 as well; a
    # group of rank two and three generators are left to the marks walk.
    for d, m in ((cayley([10], 4, 5), 1), (cayley([6], 1, 3), 2)):
        p, q = find_pair(d)
        assert coset_split(d).m == m
        assert _columns_prove(d, p, q) and pair_failure(d, p, q) is None
    d = cayley([3, 4], (1, 0), (0, 1))
    p, q = find_pair(d)
    assert not _columns_prove(d, p, q) and pair_failure(d, p, q) is None
    d = product_digraph((2, 2, 2))
    paths = oracle._iter_paths(d, oracle._Budget(10**7))
    p = next(paths)
    assert not _columns_prove(d, p, p)


def test_column_rule_defers_on_one_shared_arc_in_family_one():
    # Cay(Z_10; 4, 5) has m = 1: one coset, both ends in it.  These two
    # Hamiltonian paths share only the arc that leaves 5 by A, so the
    # interval marks must catch a single vertex, in either order.
    d = cayley([10], 4, 5)
    p, q = LabeledWalk(d, (0,), "AABABABAA"), LabeledWalk(d, (3,), "BABABABAB")
    assert verify_hamiltonian(d, p) is None and verify_hamiltonian(d, q) is None
    assert set(zip(p.index_list, p.labels)) & set(zip(q.index_list, q.labels)) == {(5, "A")}
    for x, y in ((p, q), (q, p)):
        assert not _columns_prove(d, x, y)
        assert pair_failure(d, x, y) == OVERLAP
    # Q one step along its coset shares no arc with P.
    assert pair_failure(d, p, q.translate(1)) is None and _columns_prove(d, p, q.translate(1))


def test_column_rule_defers_on_a_walk_of_another_digraph():
    # The marks walk raises InputError for a walk of another digraph, so
    # the rule must not prove such a pair first.
    d, other = cayley([12], 1, 5), cayley([12], 5, 1)
    p, q = find_pair(d)
    foreign = LabeledWalk(other, q.start, q.labels)
    assert _columns_prove(d, p, q)
    assert not _columns_prove(d, p, foreign) and not _columns_prove(d, foreign, q)
