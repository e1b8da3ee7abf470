"""Witness file serialization.

A witness file is a single JSON document carrying the digraph and two
labeled walks.  Field order is fixed so regression tests can compare
bytes.  Round-tripping and re-verification are part of the contract:
`WitnessFile.verify` returns core.pair_failure's reason, None when the
pair passes.
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

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


def walk_to_dict(w: LabeledWalk) -> dict[str, Any]:
    return {"start": list(w.start), "labels": w.labels}


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
        doc: dict[str, Any] = {
            "version": FORMAT_VERSION,
            "family": self.family,
            "params": self.params,
            "group_orders": list(self.digraph.group.orders),
            "gen_a": list(self.digraph.gens[0]),
            "gen_b": list(self.digraph.gens[1]),
        }
        if len(self.digraph.gens) > 2:
            doc["gen_c"] = list(self.digraph.gens[2])
        doc["path1"] = walk_to_dict(self.path1)
        doc["path2"] = walk_to_dict(self.path2)
        return json.dumps(doc, indent=2) + "\n"

    def verify(self) -> str | None:
        """Why the file's paths are not an arc-disjoint Hamiltonian pair
        of its digraph, or None if they are: core.pair_failure, re-run."""
        return pair_failure(self.digraph, self.path1, self.path2)


def witness_from_json(text: str) -> WitnessFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedWitness(f"not valid JSON: {exc}") from exc
    try:
        if doc["version"] != FORMAT_VERSION:
            raise MalformedWitness(f"unsupported version {doc['version']}")
        group = FiniteAbelianGroup(tuple(_integers(doc["group_orders"], "group_orders")))
        names = ("gen_a", "gen_b", "gen_c") if "gen_c" in doc else ("gen_a", "gen_b")
        digraph = CayleyDigraph(group, tuple(group.canon(_integers(doc[g], g)) for g in names))
        params = doc["params"]
        if not isinstance(params, dict) or any(type(v) is not int for v in params.values()):
            raise MalformedWitness("params must be an object of integers")
        return WitnessFile(
            family=doc["family"],
            params=params,
            digraph=digraph,
            path1=walk_from_dict(digraph, doc["path1"]),
            path2=walk_from_dict(digraph, doc["path2"]),
        )
    except MalformedWitness:
        raise
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise MalformedWitness(f"bad witness document: {exc}") from exc
