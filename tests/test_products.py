import hashlib

import pytest

from hampair import cosets, products
from hampair.cli import main
from hampair.core import (
    FiniteAbelianGroup,
    InputError,
    LabeledWalk,
    arc_disjoint,
    verify_hamiltonian,
)
from hampair.oracle import find_arc_disjoint_pair
from hampair.products import (
    SwitchabilityData,
    build_three_factor,
    find_strongly_switchable_pair,
    is_strongly_switchable,
    lift_through_cycle,
    product_digraph,
    product_like_extension,
)


def lift_plan(data: SwitchabilityData, group: FiniteAbelianGroup, ell: int):
    """Reference layer translations p_i, q_i of the lift: p_0 = q_0 = 0,
    q_{i+1} = p_i + alpha, p_{i+1} = q_i + beta.  Layer i of the first
    lifted path is P + p_i for even i and Q + q_i for odd i, and the
    second path swaps P and Q."""
    ps = [group.zero]
    qs = [group.zero]
    for i in range(ell - 1):
        qs.append(group.add(ps[i], data.alpha))
        ps.append(group.add(qs[i], data.beta))
    return ps, qs


def test_product_digraph_basics():
    d = product_digraph((2, 3))
    assert d.group.orders == (2, 3)
    assert d.gens == ((1, 0), (0, 1))
    assert d.labels == "AB"


def test_product_digraph_rejects_short_cycle():
    with pytest.raises(InputError):
        product_digraph((1, 3))


def test_product_like_extension():
    d = product_like_extension(product_digraph((2, 3)), 4)
    assert d.group.orders == (2, 3, 4)
    assert d.gens[-1] == (0, 0, 1)
    assert d.labels == "ABC"


def test_switchable_rejects_bad_inputs():
    d = product_digraph((2, 3))
    w = LabeledWalk(d, (0, 0), "AAAAA")  # revisits vertices
    good = find_arc_disjoint_pair(d).pair
    with pytest.raises(InputError):
        is_strongly_switchable(d, w, good[1])
    with pytest.raises(InputError):
        is_strongly_switchable(d, good[0], good[0])  # not arc-disjoint


def test_switchable_data_consistency():
    d = product_digraph((2, 3))
    out = find_strongly_switchable_pair(d)
    assert out.found
    p, q = out.pair
    ok, data, violations = is_strongly_switchable(d, p, q)
    assert ok and violations == []
    g = d.group
    assert data.alpha == g.add(p.end, g.neg(q.start))
    assert data.beta == g.add(q.end, g.neg(p.start))
    assert data.gamma == g.add(data.alpha, g.neg(data.beta))


def test_switchable_condition_is_ordered():
    # the clauses reference the pair in order; report a concrete failure
    # when the pair is reversed, if there is one
    d = product_digraph((3, 4))
    out = find_strongly_switchable_pair(d)
    assert out.found
    p, q = out.pair
    ok, _, violations = is_strongly_switchable(d, p, q)
    assert ok
    # the reverse order may or may not pass, but must report cleanly
    ok_rev, _, violations_rev = is_strongly_switchable(d, q, p)
    assert ok_rev == (violations_rev == [])


def test_lift_plan_differences():
    # q_i - p_i alternates between 0 and gamma
    for orders in [(2, 3), (3, 3), (2, 5)]:
        d = product_digraph(orders)
        out = find_strongly_switchable_pair(d)
        assert out.found
        _, data, _ = is_strongly_switchable(d, *out.pair)
        g = d.group
        ps, qs = lift_plan(data, g, 7)
        diffs = [g.add(q, g.neg(p)) for p, q in zip(ps, qs)]
        assert set(diffs) <= {g.zero, data.gamma}
        assert diffs[0] == g.zero


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (5, 3)])
@pytest.mark.parametrize("ell", [2, 3, 6])
def test_lifted_layers_start_where_the_plan_puts_them(m, n, ell):
    # The lift is built from labels alone; each layer must still start at
    # the translate that lift_plan computes, one level up per layer.  The
    # base pair is read off the first layer of each lifted path.
    w1, w2 = build_three_factor(m, n, ell)
    d = product_digraph((m, n))
    size = m * n
    p, q = (LabeledWalk(d, w.start[:2], w.labels[: size - 1]) for w in (w1, w2))
    ok, data, _ = is_strongly_switchable(d, p, q)
    assert ok
    ps, qs = lift_plan(data, d.group, ell)
    starts = [(d.group.add(p.start, ps[i]), d.group.add(q.start, qs[i])) for i in range(ell)]
    for w, first in ((w1, 0), (w2, 1)):
        for i in range(ell):
            assert w.vertex_list[i * size] == starts[i][(first + i) % 2] + (i,), i


def test_lift_through_cycle_sound():
    d = product_digraph((2, 3))
    out = find_strongly_switchable_pair(d)
    for ell in range(2, 7):
        w1, w2 = lift_through_cycle(d, *out.pair, ell)
        lifted = w1.digraph
        assert lifted.group.orders == (2, 3, ell)
        assert verify_hamiltonian(lifted, w1) is None
        assert verify_hamiltonian(lifted, w2) is None
        assert arc_disjoint(w1, w2)


def test_lift_rejects_bad_ell_and_bad_pair():
    d = product_digraph((2, 3))
    out = find_strongly_switchable_pair(d)
    with pytest.raises(InputError):
        lift_through_cycle(d, *out.pair, 1)
    # An arc-disjoint pair that violates a clause cannot be lifted: the
    # first coset pair of C_2 x C_2 ends P where Q's end lands after the
    # translation by gamma.
    base = product_digraph((2, 2))
    p, q = next(cosets.iter_pairs(base))
    with pytest.raises(InputError, match="not strongly switchable.*translated terminal equality"):
        lift_through_cycle(base, p, q, 3)


def test_build_three_factor_examples():
    for m, n, ell in [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 5, 2)]:
        w1, w2 = build_three_factor(m, n, ell)
        d = w1.digraph
        assert d.group.orders == (m, n, ell)
        assert verify_hamiltonian(d, w1) is None
        assert verify_hamiltonian(d, w2) is None
        assert arc_disjoint(w1, w2)


def test_build_three_factor_rejects_degenerate():
    with pytest.raises(InputError):
        build_three_factor(1, 2, 2)


def test_product_build_runs_no_cycle_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("a product build ran a DFS search")

    for name in ("find_hamiltonian_cycle", "find_arc_disjoint_pair", "iter_arc_disjoint_pairs"):
        monkeypatch.setattr(products.oracle, name, no_search)
    monkeypatch.setattr(products, "find_strongly_switchable_pair", no_search)
    w1, w2 = build_three_factor(2, 3, 3)
    assert verify_hamiltonian(w1.digraph, w1) is None and arc_disjoint(w1, w2)


def test_base_search_outcomes_raise_distinct_errors(monkeypatch):
    # The coset enumeration holds a pair of every translation class, so
    # when none of its pairs is strongly switchable the base has none,
    # and the build fails.
    monkeypatch.setattr(cosets, "iter_pairs", lambda d: iter(()))
    with pytest.raises(RuntimeError) as exc:
        build_three_factor(2, 3, 3)
    assert str(exc.value) == (
        "C_2 x C_3 has no strongly switchable pair to lift to C_2 x C_3 x C_3"
    )


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 6), (6, 4)])
def test_base_pair_agrees_with_the_oracle_reference(m, n):
    # The base pair, read off the first layer of each lifted path, is
    # strongly switchable, and the oracle's search agrees that the base
    # has such a pair.
    w1, w2 = build_three_factor(m, n, 2)
    base = product_digraph((m, n))
    p, q = (LabeledWalk(base, w.start[:2], w.labels[: m * n - 1]) for w in (w1, w2))
    assert is_strongly_switchable(base, p, q)[0]
    assert find_strongly_switchable_pair(base).found


def test_three_factor_agrees_with_oracle_small():
    # the builder's existence claim matches blind exhaustive search
    for m, n, ell in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 3, 3)]:
        w1, w2 = build_three_factor(m, n, ell)
        out = find_arc_disjoint_pair(product_digraph((m, n, ell)))
        assert out.found, (m, n, ell)


# SHA-256 of the stdout of `hampair build product m n l`, concatenated
# over m = 2..7, n = 2..7 and l = 2, 3 in that order: a change to either
# path of any of these witnesses, those with m > n included, shows here.
PRODUCT_SHA256 = "cbc0fcf455f32b653d7ecd1aeaa449328e5ca2faaf2847bab4257fb6c972c3f5"


def test_build_product_witnesses_unchanged(capsys):
    digest = hashlib.sha256()
    for m in range(2, 8):
        for n in range(2, 8):
            for ell in (2, 3):
                assert main(["build", "product", str(m), str(n), str(ell)]) == 0
                digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PRODUCT_SHA256
