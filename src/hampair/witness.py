"""Witness file serialization.

A witness file is a single JSON document carrying the digraph and two
labeled walks.  Field order is fixed so regression tests can compare
bytes.  Round-tripping and re-verification are part of the contract:
`WitnessFile.verify` returns why the file's digraph is not the one its
family and params name (claim_failure), or else core.pair_failure's
reason, and None when both pass.

The layout is written by hand: `WitnessFile.to_json` writes the bytes
that json.dumps(doc, indent=2) + "\n" writes for the document
{version, family, params, group_orders, gen_a, gen_b[, gen_c],
path1: {start, labels}, path2: {start, labels}}, with the two label
strings as chunks of one "".join, so neither is copied before the
result.  The labels need no escaping, as LabeledWalk admits only its
digraph's generator labels; the family and the parameter names are
escaped as json.dumps escapes them.  `witness_from_json` reads the file
with json.loads, and the tests keep json.dumps as the format's
reference.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple, Sequence

from .core import (
    CayleyDigraph,
    FiniteAbelianGroup,
    InputError,
    LabeledWalk,
    pair_failure,
)

FORMAT_VERSION = 1


class MalformedWitness(ValueError):
    """The document does not parse into a witness file."""


def _ints(values: Sequence[int], indent: str) -> str:
    """A list of integers as json.dumps(indent=2) writes it at the
    nesting level of `indent`."""
    if not values:
        return "[]"
    inner = ",\n".join(f"{indent}  {v}" for v in values)
    return f"[\n{inner}\n{indent}]"


def _params(params: dict[str, int]) -> str:
    if not params:
        return "{}"
    inner = ",\n".join(f"    {encode_basestring_ascii(k)}: {v}" for k, v in params.items())
    return f"{{\n{inner}\n  }}"


def _walk_head(start: Sequence[int]) -> str:
    """A walk object up to the opening quote of its labels."""
    return f'{{\n    "start": {_ints(start, "    ")},\n    "labels": "'


def walk_from_dict(d: CayleyDigraph, doc: dict[str, Any]) -> LabeledWalk:
    try:
        return LabeledWalk(d, d.group.canon(_integers(doc["start"], "start")), doc["labels"])
    except (KeyError, TypeError, InputError) as exc:
        raise MalformedWitness(f"bad walk record: {exc}") from exc


def _integers(value: Any, name: str) -> list[int]:
    """value if it is a JSON list of integers.  Floats and booleans are
    refused: Python reads true as 1, and a float fails later, deep in
    the index arithmetic."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise MalformedWitness(f"{name} must be a list of integers")
    return value


class WitnessFile(NamedTuple):
    family: str  # one | two | product | search
    params: dict[str, int]
    digraph: CayleyDigraph
    path1: LabeledWalk
    path2: LabeledWalk

    def to_json(self) -> str:
        """The witness document as json.dumps(doc, indent=2) + "\n"
        lays it out (module docstring)."""
        d = self.digraph
        fields = [
            f'"version": {FORMAT_VERSION}',
            f'"family": {encode_basestring_ascii(self.family)}',
            f'"params": {_params(self.params)}',
            f'"group_orders": {_ints(d.group.orders, "  ")}',
            f'"gen_a": {_ints(d.gens[0], "  ")}',
            f'"gen_b": {_ints(d.gens[1], "  ")}',
        ]
        if len(d.gens) > 2:
            fields.append(f'"gen_c": {_ints(d.gens[2], "  ")}')
        p, q = self.path1, self.path2
        return "".join(
            (
                "{\n  " + ",\n  ".join(fields) + ',\n  "path1": ' + _walk_head(p.start),
                p.labels,
                '"\n  },\n  "path2": ' + _walk_head(q.start),
                q.labels,
                '"\n  }\n}\n',
            )
        )

    def verify(self) -> str | None:
        """Why the file is not a witness of the digraph that its family
        and params name, or None if it is: the digraph must be that one
        (claim_failure), and its paths must pass core.pair_failure,
        re-run."""
        return claim_failure(self) or pair_failure(self.digraph, self.path1, self.path2)


# Each family's parameter names, in the order claim_failure reads them;
# a search witness's are order_0, order_1, ..., one per group order.
_PARAMS = {"one": ("k", "a"), "two": ("a", "L"), "product": ("m", "n", "l")}


def claim_failure(wf: WitnessFile) -> str | None:
    """Why wf's digraph is not the one that its family and params name,
    or None if it is.  The orders and generators that they name are
    derived as tuples, with no second digraph built; a search witness
    names its orders only.  An unknown family or parameter name is a
    MalformedWitness."""
    family, params, d = wf.family, wf.params, wf.digraph
    if family == "search":
        names = tuple(f"order_{i}" for i in range(len(params)))
    elif family in _PARAMS:
        names = _PARAMS[family]
    else:
        raise MalformedWitness(f"unknown family {family!r}")
    if sorted(params) != sorted(names):
        raise MalformedWitness(
            f"family {family} takes params {', '.join(names)}, got {', '.join(params) or 'none'}"
        )
    values = tuple(params[name] for name in names)
    orders, gens = values, None
    if family == "one":
        k, a = values
        orders, gens = (k,), (a, a + 1)
    elif family == "two":
        a, L = values
        orders, gens = ((2 * a + 1) * L,), (-a, a + 1)
    elif family == "product":
        gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    if orders != d.group.orders:
        return f"params give group orders {orders}, the file has {d.group.orders}"
    if gens is not None:
        # canon reduces each generator mod the orders, all >= 1 here.
        gens = tuple(d.group.canon(g) for g in gens)
        if gens != d.gens:
            return f"params give generators {gens}, the file has {d.gens}"
    return None


def witness_from_json(text: str) -> WitnessFile:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.loads recurses once per nesting level, so a deeply nested
        # document raises RecursionError, a RuntimeError, which the CLI
        # would report as a builder's failure.
        raise MalformedWitness(f"not valid JSON: {exc}") from exc
    try:
        # type(...) is int: true and 1.0 compare equal to 1.
        if type(doc["version"]) is not int or doc["version"] != FORMAT_VERSION:
            raise MalformedWitness(f"version must be the integer {FORMAT_VERSION}")
        # claim_failure looks the family up in a dict, where a list or an
        # object would raise TypeError outside every handler of the CLI.
        if not isinstance(family := doc["family"], str):
            raise MalformedWitness(f"family must be a str, got {type(family).__name__}")
        group = FiniteAbelianGroup(tuple(_integers(doc["group_orders"], "group_orders")))
        names = ("gen_a", "gen_b", "gen_c") if "gen_c" in doc else ("gen_a", "gen_b")
        digraph = CayleyDigraph(group, tuple(group.canon(_integers(doc[g], g)) for g in names))
        params = doc["params"]
        if not isinstance(params, dict) or any(type(v) is not int for v in params.values()):
            raise MalformedWitness("params must be an object of integers")
        return WitnessFile(
            family=family,
            params=params,
            digraph=digraph,
            path1=walk_from_dict(digraph, doc["path1"]),
            path2=walk_from_dict(digraph, doc["path2"]),
        )
    except MalformedWitness:
        raise
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise MalformedWitness(f"bad witness document: {exc}") from exc
