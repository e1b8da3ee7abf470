import pytest

from hampair import products
from hampair.core import InputError, LabeledWalk, arc_disjoint, verify_hamiltonian
from hampair.oracle import BudgetExhausted, find_arc_disjoint_pair
from hampair.products import (
    build_three_factor,
    find_strongly_switchable_pair,
    is_strongly_switchable,
    lift_plan,
    lift_through_cycle,
    product_digraph,
    product_like_extension,
)


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
    ok, data, violations = is_strongly_switchable(d, *out.pair)
    assert ok and violations == []
    g = d.group
    assert data.alpha == g.add(data.tau_p, g.neg(data.iota_q))
    assert data.beta == g.add(data.tau_q, g.neg(data.iota_p))
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


def test_lift_through_cycle_sound():
    d = product_digraph((2, 3))
    out = find_strongly_switchable_pair(d)
    for ell in range(2, 7):
        w1, w2 = lift_through_cycle(d, *out.pair, ell)
        lifted = w1.digraph
        assert lifted.group.orders == (2, 3, ell)
        assert verify_hamiltonian(lifted, w1).ok
        assert verify_hamiltonian(lifted, w2).ok
        assert arc_disjoint(w1, w2)


def test_lift_rejects_bad_ell_and_bad_pair():
    d = product_digraph((2, 3))
    out = find_strongly_switchable_pair(d)
    with pytest.raises(InputError):
        lift_through_cycle(d, *out.pair, 1)
    # an arc-disjoint pair that violates a clause cannot be lifted
    pair = next(
        (p, q)
        for p, q in [find_arc_disjoint_pair(d).pair]
    )
    p, q = pair
    if not is_strongly_switchable(d, p, q)[0]:
        with pytest.raises(InputError):
            lift_through_cycle(d, p, q, 3)


def test_build_three_factor_examples():
    for m, n, ell in [(2, 2, 2), (2, 3, 4), (3, 3, 3), (4, 5, 2)]:
        w1, w2 = build_three_factor(m, n, ell)
        d = w1.digraph
        assert d.group.orders == (m, n, ell)
        assert verify_hamiltonian(d, w1).ok
        assert verify_hamiltonian(d, w2).ok
        assert arc_disjoint(w1, w2)


def test_build_three_factor_rejects_degenerate():
    with pytest.raises(InputError):
        build_three_factor(1, 2, 2)


@pytest.fixture
def fresh_base_cache():
    products._base_analysis.cache_clear()
    yield
    products._base_analysis.cache_clear()


def test_product_build_runs_no_cycle_search(fresh_base_cache, monkeypatch):
    def no_cycle_search(*args):
        raise AssertionError("a product build ran a Hamiltonian cycle search")

    monkeypatch.setattr(products.oracle, "find_hamiltonian_cycle", no_cycle_search)
    w1, w2 = build_three_factor(2, 3, 3)
    assert verify_hamiltonian(w1.digraph, w1).ok and arc_disjoint(w1, w2)


def test_base_search_outcomes_raise_distinct_errors(fresh_base_cache, monkeypatch):
    # A proof that the base has no strongly switchable pair fails the build.
    absent = products.oracle.PairOutcome(products.oracle.Status.ABSENT)
    monkeypatch.setattr(products, "find_strongly_switchable_pair", lambda d, budget: absent)
    with pytest.raises(RuntimeError) as exc:
        build_three_factor(2, 3, 3)
    assert str(exc.value) == (
        "C_2 x C_3 has no strongly switchable pair to lift to C_2 x C_3 x C_3"
    )
    monkeypatch.undo()
    products._base_analysis.cache_clear()
    # A search that runs out of budget is inconclusive, not a failure.
    with pytest.raises(BudgetExhausted) as exc:
        build_three_factor(2, 3, 4, 3)
    assert str(exc.value) == (
        "strongly switchable pair search in C_2 x C_3 exhausted its budget of 3 nodes"
    )


def test_three_factor_agrees_with_oracle_small():
    # the builder's existence claim matches blind exhaustive search
    for m, n, ell in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 4), (2, 3, 3)]:
        w1, w2 = build_three_factor(m, n, ell)
        out = find_arc_disjoint_pair(product_digraph((m, n, ell)))
        assert out.found, (m, n, ell)
