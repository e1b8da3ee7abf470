"""core.cut_walk against a reference step loop.

The builders (cosets._labels) and the pair check's column rule
(core._end_column) both read core.cut_walk.  This file's reference
follows the walk one vertex at a time and shares no code with it; with
the column rule's cross-check against the marks walk
(tests/test_column_rule.py), it keeps the check independent of the
builder.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampair import core
from hampair.core import cut_walk
from hampair.cosets import Cuts


def reference_walk(n: int, r: int, j: int) -> tuple[str, bool]:
    """The cut walk's labels up to its first visit of j, at most n - 1,
    and whether it first reaches j at step n - 1."""
    r %= n
    labels, w = [], r
    while len(labels) < n - 1 and w != j:
        if w < j:
            labels.append("B")
            w = (w + r + 1) % n
        else:
            labels.append("A")
            w = (w + r) % n
    return "".join(labels), len(labels) == n - 1 and w == j


@pytest.fixture
def step_calls(monkeypatch) -> list[tuple[int, int, int]]:
    """The (n, r, j) of each cut walk that steps one vertex at a time."""
    calls = []
    steps = core._cut_steps

    def counted(n, r, j):
        calls.append((n, r, j))
        return steps(n, r, j)

    monkeypatch.setattr(core, "_cut_steps", counted)
    return calls


@pytest.mark.parametrize("share", [None, 1.0, -1.0], ids=["default", "runs", "steps"])
def test_cut_walk_matches_the_reference_on_every_small_walk(monkeypatch, share):
    # Every (n, r, j) with n < 80, with the default share, and with every
    # walk taken by runs or by steps.
    if share is not None:
        monkeypatch.setattr(core, "_RUNS_MAX_SHARE", share)
    for n in range(1, 80):
        for r in range(n):
            for j in range(n):
                assert cut_walk(n, r, j) == reference_walk(n, r, j), (n, r, j)


def test_cut_walk_closes_exactly_on_the_cut_set():
    # Z(n, r) is read from the ray system, which never walks.
    for n in range(2, 40):
        for r in range(n):
            cuts = list(Cuts(n, r))
            assert [j for j in range(n) if cut_walk(n, r, j)[1]] == cuts, (n, r)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cut_walk_matches_the_reference_on_large_walks(data):
    n = data.draw(st.integers(2, 10**5), label="n")
    r = data.draw(st.integers(0, n - 1), label="r")
    rare = data.draw(st.integers(0, n // 4), label="rare")
    near = [rare, n - 1 - rare]
    j = data.draw(st.sampled_from(near + list(Cuts(n, r))[:3]), label="j")
    assert cut_walk(n, r, j) == reference_walk(n, r, j)


def test_cut_walk_with_steps_zero_and_minus_one():
    # Z(n, 0) = {n - 1}: B at every vertex.  Z(n, -1) = {0}: A at every
    # vertex.  Steps are read mod n.
    for r in (0, 10, -10):
        assert cut_walk(10, r, 9) == ("B" * 9, True)
    for r in (-1, 9, 19):
        assert cut_walk(10, r, 0) == ("A" * 9, True)
    # With step 0, from 0: B up to 5, which the walk then meets.
    assert cut_walk(10, 0, 5) == ("BBBBB", False)
    assert cut_walk(1000, 0, 3) == reference_walk(1000, 0, 3) == ("BBB", False)
    assert cut_walk(1000, 0, 996) == reference_walk(1000, 0, 996)
    assert cut_walk(1000, -1, 3) == reference_walk(1000, -1, 3)


def test_cut_walk_when_the_common_step_shares_a_factor_with_n(step_calls):
    # n = 1000: with B rare the common step is r = 10, with A rare it is
    # r + 1 = 10; the zone's first hits are then read per residue mod 10.
    # Some residues hold no zone vertex, so a run may never end.
    for r, j in ((10, 0), (10, 7), (10, 42), (9, 999), (9, 990), (9, 950), (15, 3)):
        assert cut_walk(1000, r, j) == reference_walk(1000, r, j), (r, j)
    assert step_calls == []
    assert cut_walk(1000, 10, 0) == ("A" * 99, False)


def test_cut_walk_that_meets_j_early():
    # From 2 in Z_10 with j = 4: B at 2, A at 5, 7 and 9, B at 1, then 4,
    # at step 5 of 9: the cut permutation closes a 5-cycle.
    assert cut_walk(10, 2, 4) == ("BAAAB", False)
    assert 4 not in list(Cuts(10, 2))
    # A walk that starts at j stops at once.
    assert cut_walk(10, 3, 3) == ("", False)
    # By runs: with step 429 in Z_1000, the first run of A's from 429
    # ends at j = 3 after 6 steps; with step 500, B at 0, 1 and 2 leads
    # to 3 after 7.
    assert cut_walk(1000, 429, 3) == ("AAAAAA", False)
    assert cut_walk(1000, 500, 3) == reference_walk(1000, 500, 3) == ("ABABABA", False)


@pytest.mark.parametrize("n", [100, 1000, 12345])
def test_cut_walk_on_both_sides_of_the_runs_share(step_calls, n):
    # At most _RUNS_MAX_SHARE * n rare labels go by runs, one more by
    # steps; both agree with the reference, for B rare and for A rare.
    edge = int(core._RUNS_MAX_SHARE * n)
    for r in (3, n // 3, n - 2):
        for rare, stepped in ((edge, False), (edge + 1, True)):
            for j in (rare, n - 1 - rare):
                step_calls.clear()
                assert cut_walk(n, r, j) == reference_walk(n, r, j), (n, r, j)
                assert bool(step_calls) == stepped, (n, r, j)


def test_cut_walk_on_two_vertices():
    assert cut_walk(2, 0, 0) == ("", False)
    assert cut_walk(2, 0, 1) == ("B", True)
    assert cut_walk(2, 1, 0) == ("A", True)
    assert cut_walk(2, 1, 1) == ("", False)
