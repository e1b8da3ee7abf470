"""core.cut_walk against a reference step loop.

The builders (cosets._labels) and the pair check's column rule
(core._end_column) both read core.cut_walk.  This file's reference
follows the walk one vertex at a time and shares no code with it; with
the column rule's cross-check against the marks walk
(tests/test_column_rule.py), it keeps the check independent of the
builder.  The first returns that cut_walk reads are checked against a
search over every step count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampair.core import InputError, _first_returns, cut_walk
from hampair.cosets import Cuts


def reference_walk(n: int, r: int, j: int) -> str:
    """The cut walk's labels up to its first visit of j, at most n - 1."""
    r %= n
    labels, w = [], r
    while len(labels) < n - 1 and w != j:
        if w < j:
            labels.append("B")
            w = (w + r + 1) % n
        else:
            labels.append("A")
            w = (w + r) % n
    return "".join(labels)


def test_first_returns_match_a_search_over_every_step_count():
    # (t_p, p, t_q, q): the least t >= 1 with t*r mod n <= j, and the
    # least with -t*r mod n <= j, for every n < 60, step and zone [0, j].
    for n in range(1, 60):
        for r in range(n):
            for j in range(n):
                tp = next(t for t in range(1, n + 1) if t * r % n <= j)
                tq = next(t for t in range(1, n + 1) if -t * r % n <= j)
                want = (tp, tp * r % n, tq, -tq * r % n)
                assert _first_returns(n, r, j) == want, (n, r, j)


def test_cut_walk_matches_the_reference_on_every_small_walk():
    for n in range(1, 80):
        for r in range(n):
            for j in range(n):
                assert cut_walk(n, r, j) == reference_walk(n, r, j), (n, r, j)


def test_cut_walk_closes_exactly_on_the_cut_set():
    # Z(n, r) is read from the ray system, which never walks.
    for n in range(2, 40):
        for r in range(n):
            cuts = list(Cuts(n, r))
            assert [j for j in range(n) if len(cut_walk(n, r, j)) == n - 1] == cuts, (n, r)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cut_walk_matches_the_reference_on_large_walks(data):
    n = data.draw(st.integers(2, 10**5), label="n")
    r = data.draw(st.integers(0, n - 1), label="r")
    rare = data.draw(st.integers(0, n // 4), label="rare")
    near = [rare, n - 1 - rare]
    j = data.draw(st.sampled_from(near + list(Cuts(n, r))[:3]), label="j")
    assert cut_walk(n, r, j) == reference_walk(n, r, j)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cut_walk_matches_the_reference_at_any_share_of_rare_labels(data):
    # j uniform over [0, n), so every share of rare labels up to one
    # half is drawn; steps are read mod n.
    n = data.draw(st.integers(1, 10**5), label="n")
    r = data.draw(st.integers(-n, 2 * n), label="r")
    j = data.draw(st.integers(0, n - 1), label="j")
    assert cut_walk(n, r, j) == reference_walk(n, r, j)


@pytest.mark.parametrize("n", [100, 1000, 12345])
def test_cut_walk_at_every_share_of_rare_labels(n):
    # Shares of rare labels from none to one half, B rare and A rare.
    for r in (3, n // 3, n - 2):
        for share in (0, 0.05, 0.1, 0.25, 0.4, 0.5):
            rare = int(share * (n - 1))
            for j in (rare, n - 1 - rare):
                assert cut_walk(n, r, j) == reference_walk(n, r, j), (n, r, j)


def test_cut_walk_with_steps_zero_and_minus_one():
    # Z(n, 0) = {n - 1}: B at every vertex.  Z(n, -1) = {0}: A at every
    # vertex.  Steps are read mod n.
    for r in (0, 10, -10):
        assert cut_walk(10, r, 9) == "B" * 9
    for r in (-1, 9, 19):
        assert cut_walk(10, r, 0) == "A" * 9
    # With step 0, from 0: B up to 5, which the walk then meets.
    assert cut_walk(10, 0, 5) == "BBBBB"
    assert cut_walk(1000, 0, 3) == reference_walk(1000, 0, 3) == "BBB"
    assert cut_walk(1000, 0, 996) == reference_walk(1000, 0, 996)
    assert cut_walk(1000, -1, 3) == reference_walk(1000, -1, 3)


def test_cut_walk_when_the_common_step_shares_a_factor_with_n():
    # n = 1000: with B rare the rotation is by r = 10, with A rare (the
    # mirror) by -1 - 9 = -10; its orbits are the residues mod 10, and
    # a zone smaller than 10 meets some of them in one vertex or none.
    for r, j in ((10, 0), (10, 7), (10, 42), (9, 999), (9, 990), (9, 950), (15, 3)):
        assert cut_walk(1000, r, j) == reference_walk(1000, r, j), (r, j)
    assert cut_walk(1000, 10, 0) == "A" * 99


def test_cut_walk_that_meets_j_early():
    # From 2 in Z_10 with j = 4: B at 2, A at 5, 7 and 9, B at 1, then 4,
    # at step 5 of 9: the cut permutation closes a 5-cycle.
    assert cut_walk(10, 2, 4) == "BAAAB"
    assert 4 not in list(Cuts(10, 2))
    # A walk that starts at j stops at once.
    assert cut_walk(10, 3, 3) == ""
    # With step 429 in Z_1000, 0 first returns to the zone [0, 3] at
    # 7*429 mod 1000 = 3 = j, so the walk is the 6 A's before it; with
    # step 500, B at 0, 1 and 2 leads to 3 after 7 steps.
    assert cut_walk(1000, 429, 3) == "AAAAAA"
    assert cut_walk(1000, 500, 3) == reference_walk(1000, 500, 3) == "ABABABA"


def test_cut_walk_on_two_vertices():
    assert cut_walk(2, 0, 0) == ""
    assert cut_walk(2, 0, 1) == "B"
    assert cut_walk(2, 1, 0) == "A"
    assert cut_walk(2, 1, 1) == ""
    # One vertex: the walk starts at j.
    assert cut_walk(1, 0, 0) == ""


@pytest.mark.parametrize("j", [-1, 10])
def test_cut_walk_refuses_a_cut_value_outside_the_group(j):
    with pytest.raises(InputError, match="0 <= j < n"):
        cut_walk(10, 3, j)
