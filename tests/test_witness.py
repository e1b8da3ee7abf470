import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampair.core import LabeledWalk, cayley
from hampair.cosets import find_pair
from hampair.family_one import realize_disjoint_pair
from hampair.family_two import build_family_two
from hampair.products import build_three_factor
from hampair.witness import (
    FORMAT_VERSION,
    MalformedWitness,
    WitnessFile,
    witness_from_json,
)


def _family_two_witness() -> WitnessFile:
    p1, p2 = build_family_two(1, 3)
    return WitnessFile("two", {"a": 1, "L": 3}, p1.digraph, p1, p2)


def test_round_trip_bit_exact():
    wf = _family_two_witness()
    text = wf.to_json()
    again = witness_from_json(text)
    assert again.to_json() == text
    assert again.family == "two"
    assert again.params == {"a": 1, "L": 3}
    assert again.path1 == wf.path1 and again.path2 == wf.path2


def test_verify_ok():
    wf = _family_two_witness()
    assert wf.verify() is None


def test_verify_catches_broken_path():
    wf = _family_two_witness()
    bad = LabeledWalk(wf.digraph, wf.path1.start, wf.path1.labels[:-1])
    broken = WitnessFile(wf.family, wf.params, wf.digraph, bad, wf.path2)
    assert broken.verify() == "path1: wrong length: 7 labels, expected 8"


def test_verify_catches_arc_overlap():
    wf = _family_two_witness()
    clash = WitnessFile(wf.family, wf.params, wf.digraph, wf.path1, wf.path1)
    assert clash.verify() == "arc overlap between path1 and path2"


def test_three_generator_round_trip():
    w1, w2 = build_three_factor(2, 3, 2)
    wf = WitnessFile("product", {"m": 2, "n": 3, "l": 2}, w1.digraph, w1, w2)
    text = wf.to_json()
    assert "gen_c" in json.loads(text)
    again = witness_from_json(text)
    assert again.to_json() == text
    assert again.verify() is None


def test_field_order_is_stable():
    doc = json.loads(_family_two_witness().to_json())
    assert list(doc) == [
        "version",
        "family",
        "params",
        "group_orders",
        "gen_a",
        "gen_b",
        "path1",
        "path2",
    ]
    assert doc["version"] == FORMAT_VERSION


def test_malformed_json_rejected():
    with pytest.raises(MalformedWitness):
        witness_from_json("{not json")


def test_missing_field_rejected():
    doc = json.loads(_family_two_witness().to_json())
    del doc["path2"]
    with pytest.raises(MalformedWitness):
        witness_from_json(json.dumps(doc))


def test_unsupported_version_rejected():
    doc = json.loads(_family_two_witness().to_json())
    doc["version"] = FORMAT_VERSION + 1
    with pytest.raises(MalformedWitness):
        witness_from_json(json.dumps(doc))


def test_bad_label_rejected():
    doc = json.loads(_family_two_witness().to_json())
    doc["path1"]["labels"] = "AXB"
    with pytest.raises(MalformedWitness):
        witness_from_json(json.dumps(doc))


def test_list_labels_rejected():
    # A JSON list of one-letter labels would verify but not round-trip
    # to the same bytes, so only a string is a valid labels field.
    doc = json.loads(_family_two_witness().to_json())
    doc["path1"]["labels"] = list(doc["path1"]["labels"])
    with pytest.raises(MalformedWitness, match="labels must be a str"):
        witness_from_json(json.dumps(doc))


def test_swapped_generators_fail_verification():
    # same label data, but the labels now mean the wrong steps
    r = realize_disjoint_pair(10, 4)
    d = cayley([10], 4, 5)
    wf = WitnessFile("one", {"k": 10, "a": 4}, d, r.path1, r.path2)
    doc = json.loads(wf.to_json())
    doc["gen_a"], doc["gen_b"] = doc["gen_b"], doc["gen_a"]
    assert witness_from_json(json.dumps(doc)).verify() is not None


def test_family_one_realization_round_trip():
    r = realize_disjoint_pair(10, 4)
    d = cayley([10], 4, 5)
    wf = WitnessFile("one", {"k": 10, "a": 4}, d, r.path1, r.path2)
    assert witness_from_json(wf.to_json()).verify() is None


@pytest.mark.parametrize(
    "keys, value",
    [(("params", "m"), 2.0), (("params",), [2, 3, 2]), (("group_orders",), [2, True, 2]),
     (("gen_c",), [0, 0, 1.0]), (("path2", "start"), [0, 0, False])],
    ids=["float-param", "list-params", "bool-order", "float-gen-c", "bool-start"],
)
def test_non_integer_fields_rejected(keys, value):
    # Python would take a float or a bool for an int here (or index with
    # it), so each of these either verified or failed with a TypeError.
    w1, w2 = build_three_factor(2, 3, 2)
    wf = WitnessFile("product", {"m": 2, "n": 3, "l": 2}, w1.digraph, w1, w2)
    doc = json.loads(wf.to_json())
    *parents, last = keys
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(MalformedWitness, match="must be"):
        witness_from_json(json.dumps(doc))


def reference_json(wf: WitnessFile) -> str:
    """The witness format's reference: the document through json.dumps."""
    d = wf.digraph
    doc = {
        "version": FORMAT_VERSION,
        "family": wf.family,
        "params": wf.params,
        "group_orders": list(d.group.orders),
        "gen_a": list(d.gens[0]),
        "gen_b": list(d.gens[1]),
    }
    if len(d.gens) > 2:
        doc["gen_c"] = list(d.gens[2])
    for name, w in (("path1", wf.path1), ("path2", wf.path2)):
        doc[name] = {"start": list(w.start), "labels": w.labels}
    return json.dumps(doc, indent=2) + "\n"


def _witnesses():
    one = realize_disjoint_pair(12, 5)
    two = build_family_two(2, 4)
    product = build_three_factor(2, 3, 4)
    rank_one = find_pair(cayley([12], 1, 4))
    rank_two = find_pair(cayley([2, 6], (1, 0), (0, 1)))
    return [
        ("one", {"k": 12, "a": 5}, one),
        ("two", {"a": 2, "L": 4}, two),
        ("product", {"m": 2, "n": 3, "l": 4}, product),
        ("search", {"order_0": 12}, rank_one),
        ("search", {"order_0": 2, "order_1": 6}, rank_two),
        # the parameters in the order they were given, none at all, and
        # strings that json escapes
        ("two", {"L": 4, "a": 2}, two),
        ("one", {}, one),
        ('fam"ily\u00e9', {"k\n": -3, "\\": 10**30}, one),
    ]


@pytest.mark.parametrize(
    "family, params, pair",
    _witnesses(),
    ids=["one", "two", "product", "search-rank-one", "search-rank-two", "params-order",
         "no-params", "escaped"],
)
def test_to_json_matches_the_json_dumps_reference(family, params, pair):
    p, q = pair
    wf = WitnessFile(family, params, p.digraph, p, q)
    assert wf.to_json() == reference_json(wf)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(7,), (12,), (2, 6), (3, 4)]).flatmap(
        lambda orders: st.tuples(
            st.just(orders),
            st.lists(st.integers(0, 100), min_size=len(orders), max_size=len(orders)),
            st.lists(st.integers(0, 100), min_size=len(orders), max_size=len(orders)),
        )
    ),
    st.text("AB", max_size=40),
    st.text("AB", max_size=40),
)
def test_to_json_matches_the_reference_for_any_starts_and_labels(case, labels1, labels2):
    orders, start1, start2 = case
    d = cayley(orders, (1,) * len(orders), (1,) * (len(orders) - 1) + (2,))
    p = LabeledWalk(d, d.group.canon(start1), labels1)
    q = LabeledWalk(d, d.group.canon(start2), labels2)
    wf = WitnessFile("search", {f"order_{i}": o for i, o in enumerate(orders)}, d, p, q)
    assert wf.to_json() == reference_json(wf)
