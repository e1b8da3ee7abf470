import itertools
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampair import lattice, oracle
from hampair.core import (
    CayleyDigraph,
    FiniteAbelianGroup,
    InputError,
    LabeledWalk,
    arc_disjoint,
    cayley,
    verify_hamiltonian,
)
from hampair.oracle import (
    Status,
    find_arc_disjoint_pair,
    find_hamiltonian_cycle,
    find_hamiltonian_path,
    oracle_cut_set,
)
from hampair.family_one import cut_permutation
from hampair.lattice import ray_system
from hampair.products import find_strongly_switchable_pair, product_digraph
from small_digraphs import two_generated


def test_trivial_group_not_representable():
    # A one-element group has no nonzero generator, so the smallest
    # representable digraph has two vertices; its Hamiltonian path is a
    # single arc.
    from hampair.core import CayleyDigraph, FiniteAbelianGroup

    g = FiniteAbelianGroup((1,))
    with pytest.raises(InputError):
        CayleyDigraph(g, ((0,),))
    out = find_hamiltonian_path(cayley([2], 1))
    assert out.found and len(out.walk) == 1


def test_budget_exhaustion_is_reported():
    d = cayley([12], 1, 5)
    out = find_hamiltonian_path(d, node_budget=3)
    assert out.status is Status.INCONCLUSIVE
    assert out.nodes_used > 3 - 1


@pytest.mark.parametrize(
    "search",
    [find_hamiltonian_path, find_hamiltonian_cycle, find_arc_disjoint_pair,
     find_strongly_switchable_pair],
)
def test_nonpositive_budget_rejected(search):
    with pytest.raises(InputError, match="node_budget must be positive"):
        search(product_digraph((2, 3)), node_budget=0)


def test_pair_search_larger_than_budget_builds_no_table(monkeypatch):
    # A pair needs at least n nodes and a proof of absence spends one per
    # start, so an order above the budget is inconclusive at once, with
    # the nodes_used an exhausted search reports.
    def no_table(self, g):
        raise AssertionError("successor table built for a search that cannot finish")

    monkeypatch.setattr(FiniteAbelianGroup, "translation_table", no_table)
    out = find_arc_disjoint_pair(cayley([1000], 1, 2), 100)
    assert (out.status, out.pair, out.nodes_used) == (Status.INCONCLUSIVE, None, 101)
    out = find_strongly_switchable_pair(product_digraph((20, 20)), 100)
    assert (out.status, out.pair, out.nodes_used) == (Status.INCONCLUSIVE, None, 101)


def test_cycle_c2c2():
    out = find_hamiltonian_cycle(product_digraph((2, 2)))
    assert out.found
    assert out.walk.labels == "ABAB"


def test_cycle_c2c3_absent():
    out = find_hamiltonian_cycle(product_digraph((2, 3)))
    assert out.status is Status.ABSENT


def test_cycle_z6():
    out = find_hamiltonian_cycle(cayley([6], 5, 2))
    assert out.found


def test_pair_z6():
    d = cayley([6], 5, 2)
    out = find_arc_disjoint_pair(d)
    assert out.found
    p, q = out.pair
    assert verify_hamiltonian(d, p) is None and verify_hamiltonian(d, q) is None
    assert arc_disjoint(p, q)


def test_pair_z3():
    out = find_arc_disjoint_pair(cayley([3], 1, 2))
    assert out.found


def test_pair_search_deeper_than_the_recursion_limit():
    # 1,200 vertices: the DFS holds its path in arrays indexed by depth.
    d = cayley([1200], 1, 2)
    out = find_arc_disjoint_pair(d)
    assert out.found
    assert verify_hamiltonian(d, out.pair[0]) is None and arc_disjoint(*out.pair)


def test_oracle_cut_set_reference_rows():
    assert oracle_cut_set(5, 2) == {0, 4}
    assert oracle_cut_set(10, 4) == {1, 3, 5}
    assert oracle_cut_set(6, 2) == {1, 3}
    assert oracle_cut_set(15, 3) == {2, 4, 6, 8, 14}


def test_oracle_cut_set_mirror_pairs():
    # Z(k, N-a) = N - Z(k, a): one pass serves both cells of a mirror pair.
    for k in range(3, 81):
        N = k - 1
        for a in range(1, k - 1):
            assert oracle_cut_set(k, N - a) == {N - z for z in oracle_cut_set(k, a)}, (k, a)


def test_oracle_cut_set_rejects_bad_params():
    with pytest.raises(InputError):
        oracle_cut_set(5, 0)
    with pytest.raises(InputError):
        oracle_cut_set(5, 4)
    with pytest.raises(InputError):
        oracle_cut_set(2, 1)


def _direct_cut_set(k, a):
    """Reference for oracle_cut_set, O(k^2): walk the standard cut
    candidate of every d from vertex a, stepping by a+1 below d and by a
    above it, and keep d if the walk visits all k vertices and ends at d."""
    b = a + 1
    result = set()
    for d in range(k):
        x = a
        seen = 1 << x
        count = 1
        for _ in range(k - 1):
            if x == d:
                break
            x = (x + b) % k if x < d else (x + a) % k
            if seen >> x & 1:
                break
            seen |= 1 << x
            count += 1
        if count == k and x == d:
            result.add(d)
    return result


def test_oracle_cut_set_matches_direct_simulation():
    for k in range(3, 61):
        for a in range(1, k - 1):
            assert oracle_cut_set(k, a) == _direct_cut_set(k, a), (k, a)


def _first_closed_cycle(k, a):
    """The first d + 1 at which the cycle of the cut permutation at d + 1
    through d lies inside [0, d], and k - 1 if there is none: where the
    pass must stop."""
    for d in range(k - 1):
        phi = cut_permutation(k, a, d + 1)
        x = phi[d]
        while x < d:
            x = phi[x]
        if x == d:
            return d + 1
    return k - 1


def test_oracle_cut_set_stops_early():
    # (6, 2): phi_4 has the cycle (0 3) inside [0, 3].  (8, 3): phi_5 has
    # the cycle (0 4) inside [0, 4].  No later transposition moves it, so
    # the pass stops there, before its last step d = k - 2.
    for k, a in ((6, 2), (8, 3)):
        cuts, steps = oracle._cut_set_steps(k, a)
        assert steps < k - 1, (k, a)
        assert cuts == _direct_cut_set(k, a), (k, a)
    assert oracle._cut_set_steps(5, 2)[1] == 4  # runs to the end
    # On every cell, the pass stops exactly at the first closed cycle.
    for k in range(3, 61):
        for a in range(1, k - 1):
            assert oracle._cut_set_steps(k, a)[1] == _first_closed_cycle(k, a), (k, a)


def test_oracle_cut_set_never_uses_the_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("oracle_cut_set reached the lattice")

    for name in ("ray_system", "lattice_params", "_internal_rays"):
        monkeypatch.setattr(lattice, name, refuse)
    assert oracle_cut_set(15, 3) == {2, 4, 6, 8, 14}
    assert "lattice" not in vars(oracle)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 400), st.integers(0, 10**6))
def test_oracle_cut_set_matches_ray_system(k, seed):
    a = 1 + seed % (k - 2)
    assert oracle_cut_set(k, a) == set(ray_system(k, a).cut_values())


def _exists_by_label_enumeration(d, mode):
    """Ground truth for the ground truth: try every label sequence."""
    n = d.group.size
    length = n - 1 if mode == "path" else n
    for start in d.group.elements():
        for labels in itertools.product(d.labels, repeat=length):
            w = LabeledWalk(d, start, "".join(labels))
            if verify_hamiltonian(d, w, mode) is None:
                return True
    return False


@pytest.mark.parametrize(
    "orders,gens",
    [
        ([5], (2, 3)),
        ([6], (5, 2)),
        ([8], (2, 3)),
        ([4, 2], ((1, 0), (0, 1))),
        ([3, 3], ((1, 0), (0, 1))),
        ([12], (4, 9)),
    ],
)
def test_desk_scale_completeness(orders, gens):
    # pruned DFS agrees with full label-sequence enumeration on existence
    d = cayley(orders, *gens)
    for mode in ("path", "cycle"):
        brute = _exists_by_label_enumeration(d, mode)
        if mode == "path":
            out = find_hamiltonian_path(d)
        else:
            out = find_hamiltonian_cycle(d)
        assert out.found == brute, (orders, gens, mode)


def test_returned_witnesses_always_verify():
    for orders, gens in [([7], (2, 4)), ([9], (3, 4)), ([2, 4], ((1, 0), (0, 1)))]:
        d = cayley(orders, *gens)
        out = find_hamiltonian_path(d)
        if out.found:
            assert verify_hamiltonian(d, out.walk) is None
        pair = find_arc_disjoint_pair(d)
        if pair.found:
            p, q = pair.pair
            assert verify_hamiltonian(d, p) is None and verify_hamiltonian(d, q) is None
            assert arc_disjoint(p, q)


def _outcome(out):
    """(status, nodes_used, [(start, labels), ...]) of any search outcome."""
    if hasattr(out, "pair"):
        walks = out.pair or ()
    else:
        walks = [out.walk] if out.walk else []
    return out.status.value, out.nodes_used, [(w.start, w.labels) for w in walks]


# Exact (status, nodes_used, [(start, labels), ...]): a change to the
# branch order, the pruning or the node accounting shows here.
@pytest.mark.parametrize(
    "search, expected",
    [
        (
            lambda: find_arc_disjoint_pair(cayley([12], 4, 9)),
            ("found", 24, [((0,), "AABAABAABAA"), ((3,), "BBBABBBABBB")]),
        ),
        (lambda: find_hamiltonian_cycle(product_digraph((3, 4))), ("absent", 72, [])),
        (
            lambda: find_hamiltonian_path(product_digraph((3, 4))),
            ("found", 12, [((0, 0), "AABAABAABAA")]),
        ),
        (lambda: find_hamiltonian_cycle(product_digraph((4, 5))), ("absent", 494, [])),
        # Trotter-Erdos: gcd(6, 7) = 1, so C_6 x C_7 has no Hamiltonian
        # cycle; the unpruned search needed 6,907,243 nodes to prove it.
        (lambda: find_hamiltonian_cycle(product_digraph((6, 7))), ("absent", 64157, [])),
        (
            lambda: find_hamiltonian_cycle(product_digraph((5, 11)), 1000),
            ("inconclusive", 1001, []),
        ),
    ],
    ids=[
        "pair",
        "coprime-cycle-absent",
        "path",
        "coprime-cycle-absent-c4c5",
        "coprime-cycle-absent-c6c7",
        "budget-exhausted",
    ],
)
def test_search_outcomes_pinned(search, expected):
    assert _outcome(search()) == expected


@pytest.mark.parametrize(
    "search, d, found_at",
    [
        (find_arc_disjoint_pair, cayley([12], 4, 9), 24),
        (find_strongly_switchable_pair, product_digraph((4, 6)), 48),
        (find_arc_disjoint_pair, cayley([6], 1, 3), 30),
    ],
    ids=["pair", "switchable", "pair-after-an-absent-second-path"],
)
def test_nested_searches_share_one_budget(search, d, found_at):
    # The second path's search spends from the budget while the first
    # path's search is suspended at its yield, and the first resumes with
    # what is left: every budget short of the full count ends one node
    # past it, and the full count finds the same pair.  In Cay(Z_6; 1, 3)
    # the first path has no arc-disjoint partner, so the first search
    # resumes after a second search ran out.
    full = search(d)
    assert (full.status, full.nodes_used) == (Status.FOUND, found_at)
    for budget in range(1, found_at):
        out = search(d, budget)
        assert (out.status, out.pair, out.nodes_used) == (Status.INCONCLUSIVE, None, budget + 1)
    out = search(d, found_at)
    assert (out.status, out.nodes_used) == (Status.FOUND, found_at)
    assert [(w.start, w.labels) for w in out.pair] == [(w.start, w.labels) for w in full.pair]


def _unpruned_iter_paths(
    d: CayleyDigraph,
    budget,
    start: Optional[int] = None,
    forbidden: frozenset[int] = frozenset(),
    closed: bool = False,
) -> Iterator[LabeledWalk]:
    """Reference for oracle._iter_paths without dead-end pruning: every
    Hamiltonian path from `start` (every vertex if None) avoiding the arc
    ids in `forbidden`, in the same DFS order.  `closed` is ignored, as
    find_hamiltonian_cycle tests each yielded path for a closing arc."""
    group = d.group
    n = group.size
    starts = range(n) if start is None else [start]
    labels = d.labels
    tables = d.successor_tables
    r = len(tables)
    on_path = bytearray(n)

    for first in starts:
        path = [first]  # vertex indices
        steps: list[int] = []  # label positions: steps[i] leads to path[i + 1]
        todo = [-1]  # per vertex on the path: the next label position to try
        on_path[first] = 1
        while path:
            v = path[-1]
            i = todo[-1]
            if i < 0:  # v was just entered
                budget.used += 1
                if budget.used > budget.limit:
                    raise oracle.BudgetExhausted
                i = 0
                if len(steps) == n - 1:  # a leaf: yield it, expand no further
                    walk_labels = "".join(map(labels.__getitem__, steps))
                    yield LabeledWalk(d, group.decode(first), walk_labels)
                    i = r
            if i == r:  # every branch tried: backtrack
                todo.pop()
                on_path[path.pop()] = 0
                if steps:
                    steps.pop()
                continue
            todo[-1] = i + 1
            w = tables[i][v]
            if on_path[w] or v * r + i in forbidden:
                continue
            on_path[w] = 1
            path.append(w)
            steps.append(i)
            todo.append(-1)


SEARCHES = (
    find_hamiltonian_path,
    find_hamiltonian_cycle,
    find_arc_disjoint_pair,
    find_strongly_switchable_pair,
)


def test_pruning_keeps_every_outcome(monkeypatch):
    # Dead-end pruning cuts only subtrees without a Hamiltonian leaf, so
    # every search returns what the unpruned DFS returns, in no more nodes.
    digraphs = list(two_generated(12))
    pruned = [[_outcome(search(d)) for search in SEARCHES] for d in digraphs]
    monkeypatch.setattr(oracle, "_iter_paths", _unpruned_iter_paths)
    fewer = 0
    for d, got in zip(digraphs, pruned):
        for search, (status, nodes, walks) in zip(SEARCHES, got):
            want_status, want_nodes, want_walks = _outcome(search(d))
            case = (d.group.orders, d.gens, search.__name__)
            assert (status, walks) == (want_status, want_walks), case
            assert nodes <= want_nodes, case
            fewer += nodes < want_nodes
    assert len(digraphs) == 728 and fewer > 0


def _closable(d, walk, forbidden):
    """Whether an allowed arc leads from the walk's last vertex back to its
    first, so that the Hamiltonian path closes into a cycle."""
    first, last = walk.index_list[0], walk.index_list[-1]
    r = len(d.gens)
    return any(
        table[last] == first and last * r + i not in forbidden
        for i, table in enumerate(d.successor_tables)
    )


def _root_rule_cases(d, forbidden):
    """Search from every start, with and without `closed`, pruned and
    unpruned, and check what the root rule skipped; return the starts
    kept without and with `closed`.  A kept start spends a node at once,
    a skipped one none.  The pruned search yields the unpruned one's
    paths from every start, and in a cycle search the closable ones."""
    kept = ([], [])
    for s in range(d.group.size):
        want = list(_unpruned_iter_paths(d, oracle._Budget(10**9), s, forbidden))
        for closed in (False, True):
            budget = oracle._Budget(10**9)
            got = list(oracle._iter_paths(d, budget, s, forbidden, closed))
            if budget.used:
                kept[closed].append(s)
            if closed:
                got = [w for w in got if _closable(d, w, forbidden)]
                want = [w for w in want if _closable(d, w, forbidden)]
            assert [(w.start, w.labels) for w in got] == [(w.start, w.labels) for w in want]
    return kept


def test_root_rule_skips_only_starts_without_a_path():
    # With the arcs of each of the first three Hamiltonian paths
    # forbidden, every start the root rule skips has no Hamiltonian path
    # (none that closes into a cycle with `closed`) in the unpruned DFS.
    searches = skipped = closed_skipped = 0
    for d in two_generated(12):
        n = d.group.size
        for p in itertools.islice(_unpruned_iter_paths(d, oracle._Budget(10**9)), 3):
            kept, kept_closed = _root_rule_cases(d, frozenset(oracle.arc_ids(p)))
            searches += 1
            skipped += n - len(kept)
            closed_skipped += n - len(kept_closed)
    assert searches == 2184 and skipped > 0 and closed_skipped > skipped


def _in_arcs(d, w, but=None):
    """The arc ids that enter vertex index w, but the one from tail `but`."""
    r = len(d.gens)
    return {
        pred[w] * r + i for i, pred in enumerate(d.predecessor_tables) if pred[w] != but
    }


@pytest.mark.parametrize(
    "d, forbidden, kept",
    [
        # Vertex 7 has no allowed in-arc, so it is the start.
        (cayley([12], 1, 5), lambda d: _in_arcs(d, 7), [7]),
        # Vertices 3 and 7 have none: both would be the start.
        (cayley([12], 1, 5), lambda d: _in_arcs(d, 3) | _in_arcs(d, 7), []),
        # Only 4 enters 5 and 9, and it leaves once: one is the start.
        (cayley([12], 1, 5), lambda d: _in_arcs(d, 5, 4) | _in_arcs(d, 9, 4), [5, 9]),
        # Only 4 enters 5, 6 and 7: two of them would be the start.
        (
            cayley([12], 1, 2, 3),
            lambda d: _in_arcs(d, 5, 4) | _in_arcs(d, 6, 4) | _in_arcs(d, 7, 4),
            [],
        ),
    ],
    ids=["no-in-arc", "two-without-in-arcs", "two-heads", "three-heads"],
)
def test_root_rule_branches(d, forbidden, kept):
    # A cycle re-enters its start as well, so under `closed` each rule
    # leaves no start at all.
    assert _root_rule_cases(d, frozenset(forbidden(d))) == (kept, [])
