from math import comb

import pytest

from hampair import cosets, oracle
from hampair.core import InputError, arc_ids, cayley
from hampair.cosets import (
    coset_split,
    count_pairs,
    find_pair,
    hamiltonian_cuts,
    iter_pairs,
)
from hampair.family_one import count_pair, cut_path
from hampair.family_two import QuotientFiberConfig, build_family_two
from hampair.products import product_digraph
from small_digraphs import two_generated


SMALL = list(two_generated(12))


def _cycle_count(perm: list[int]) -> int:
    seen, cycles = set(), 0
    for x in range(len(perm)):
        if x not in seen:
            cycles += 1
            while x not in seen:
                seen.add(x)
                x = perm[x]
    return cycles


@pytest.mark.parametrize(
    "orders, a, b, delta, n, m, sigma",
    [
        ((10,), 4, 5, (9,), 10, 1, 6),
        ((2, 24), (0, 1), (1, 14), (1, 11), 24, 2, 22),
        ((4, 6), (1, 0), (0, 1), (1, 5), 12, 2, 6),
        ((2, 2), (1, 0), (0, 1), (1, 1), 2, 2, 0),
    ],
)
def test_coset_split_examples(orders, a, b, delta, n, m, sigma):
    split = coset_split(cayley(orders, a, b))
    assert (split.delta, split.n, split.m, split.sigma) == (delta, n, m, sigma)


def test_coset_split_covers_the_group():
    # The cosets i*a + <delta>, i < m, partition G, and m*a = sigma*delta.
    for d in SMALL:
        split = coset_split(d)
        cosets_ = {split.vertex(i, h) for i in range(split.m) for h in range(split.n)}
        assert len(cosets_) == d.group.size == split.m * split.n
        assert split.vertex(split.m, 0) == split.vertex(0, split.sigma)
        assert split.vertex(0, split.n) == d.group.zero


def test_coset_split_needs_two_generators():
    with pytest.raises(InputError):
        coset_split(product_digraph((2, 3, 4)))


def test_hamiltonian_cuts_are_the_one_cycle_cut_values():
    # Checked on the cut permutations themselves, not on the ray system.
    for n in range(2, 40):
        for r in range(n):
            direct = [
                j
                for j in range(n)
                if _cycle_count(
                    [(w + r + 1) % n if w < j else r if w == j else (w + r) % n for w in range(n)]
                )
                == 1
            ]
            assert hamiltonian_cuts(n, r) == direct, (n, r)


def test_hamiltonian_cuts_of_steps_minus_one_and_one():
    # The two cut sets the family-two parameters rest on: Z(L, -1) = {0},
    # and Z(L, 1) is the set of even numbers below L.  Z(L, 0) = {L - 1}
    # comes from the same ray walk.
    for L in range(2, 400):
        assert hamiltonian_cuts(L, -1) == [0], L
        assert hamiltonian_cuts(L, 1) == list(range(0, L, 2)), L
        assert hamiltonian_cuts(L, 0) == [L - 1], L


def test_family_two_coset_split():
    # Cay(Z_(2a+1)L; -a, a+1): delta = -(2a+1) has order L and index
    # 2a+1, and (2a+1)*(-a) = a*delta, so sigma = a mod L.
    for a in range(1, 30):
        for L in range(2, 40):
            split = coset_split(QuotientFiberConfig(a, L).digraph())
            assert (split.n, split.m, split.sigma) == (L, 2 * a + 1, a % L), (a, L)


def test_count_pairs_order():
    assert list(count_pairs(10, [1, 3, 5], [1, 3, 5])) == [(3, 5), (5, 3), (5, 5)]
    assert list(count_pairs(4, [0], [3])) == [(0, 3)]
    assert list(count_pairs(6, [1], [2])) == []


def test_every_dfs_path_fits_the_lemma():
    # Every Hamiltonian path that the DFS enumerates uses one label on each
    # coset but its end's, B^j A^(n-1-j) on its end's coset, starts at
    # t + a + j*delta, and has j in Z(n, c - sigma); and the DFS finds as
    # many paths as the lemma counts, so every such structure is a path.
    for d in SMALL:
        split = coset_split(d)
        n, m, sigma = split.n, split.m, split.sigma
        g, a = d.group, d.gens[0]
        # members[i][h]: the index of i*a + h*delta; where[v]: (i, h) of index v
        members = [[g.encode(split.vertex(i, h)) for h in range(n)] for i in range(m)]
        where = {v: (i, h) for i, row in enumerate(members) for h, v in enumerate(row)}
        paths = 0
        for p in oracle._iter_paths(d, oracle._Budget(10**9)):
            paths += 1
            label = dict(zip(p.index_list, p.labels))
            t = p.index_list[-1]
            ct, ht = where[t]
            c = 0
            for i, row in enumerate(members):
                if i != ct:
                    used = {label[v] for v in row}
                    assert len(used) == 1, (d, p)
                    c += used == {"B"}
            seq = "".join(label[members[ct][(ht + h) % n]] for h in range(1, n))
            j = seq.count("B")
            assert seq == "B" * j + "A" * (n - 1 - j), (d, p)
            assert p.start == g.add(g.add(p.end, a), split.vertex(0, j)), (d, p)
            assert j in hamiltonian_cuts(n, c - sigma), (d, p)
        expected = sum(
            comb(m - 1, c) * len(hamiltonian_cuts(n, c - sigma)) for c in range(m)
        )
        assert paths == g.size * expected, d


def test_enumeration_is_the_oracles_pairs_ending_at_zero():
    # iter_pairs, translated so that P ends at 0, gives each ordered pair
    # of arc-disjoint Hamiltonian paths whose first path ends at 0 once,
    # exactly as the exhaustive DFS does.
    for d in SMALL:
        g = d.group
        structured = []
        for p, q in iter_pairs(d):
            shift = g.neg(p.end)
            structured.append((g.add(p.start, shift), p.labels, g.add(q.start, shift), q.labels))
        budget = oracle._Budget(10**9)
        reference = set()
        for p in oracle._iter_paths(d, budget):
            if p.end == g.zero:
                for q in oracle._iter_paths(d, budget, forbidden=frozenset(arc_ids(p))):
                    reference.add((p.start, p.labels, q.start, q.labels))
        assert len(structured) == len(set(structured))
        assert set(structured) == reference, d


def test_family_one_is_the_index_one_case():
    # With m = 1 the first pair is the cut path at d and the cut path at e
    # translated by h, for the count pair (d, e): family one's pair.
    for k in range(3, 61):
        for a in range(1, k - 1):
            d, e = count_pair(k, a)
            h = d + 1 if d + e < k else d
            assert find_pair(cayley([k], a, a + 1)) == (
                cut_path(k, a, d),
                cut_path(k, a, e).translate(h),
            ), (k, a)


def test_family_two_pair_is_in_the_enumeration():
    # Family two's pair comes from same_coset_pairs, which iter_pairs also
    # yields from, so this is no second construction: it checks that the
    # parameters build_family_two picks are ones the enumeration reaches.
    # The independent check is test_family_two's
    # test_build_matches_skew_covers, against the skew covers.
    for a in range(1, 4):
        for L in range(2, 7):
            pair = build_family_two(a, L)
            assert pair in set(iter_pairs(QuotientFiberConfig(a, L).digraph())), (a, L)


def test_find_pair_names_a_digraph_without_one(monkeypatch):
    monkeypatch.setattr(cosets, "_structured_pairs", lambda split: iter(()))
    with pytest.raises(RuntimeError) as exc:
        find_pair(cayley([2, 24], (0, 1), (1, 14)))
    assert str(exc.value) == (
        "Cay(Z_2 x Z_24; (0, 1), (1, 14)) has no arc-disjoint Hamiltonian path pair"
    )


def test_iter_pairs_checks_each_pair(monkeypatch):
    d = cayley([5], 1, 2)
    p = find_pair(d)[0]
    monkeypatch.setattr(cosets, "_structured_pairs", lambda split: iter([(p, p)]))
    with pytest.raises(RuntimeError) as exc:
        next(iter_pairs(d))
    assert str(exc.value) == (
        "coset pair for Cay(Z_5; 1, 2) failed verification: arc overlap between path1 and path2"
    )
