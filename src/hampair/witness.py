"""Witness file serialization.

A witness file is a single JSON document carrying the digraph and two
labeled walks.  Field order is fixed so regression tests can compare
bytes.  Round-tripping and re-verification are part of the contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

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
        return LabeledWalk(d, d.group.canon(doc["start"]), doc["labels"])
    except (KeyError, TypeError, InputError) as exc:
        raise MalformedWitness(f"bad walk record: {exc}") from exc


@dataclass(frozen=True)
class WitnessFile:
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

    def verify(self) -> tuple[bool, str]:
        """Re-run the Hamiltonicity and disjointness checks."""
        reason = pair_failure(self.digraph, self.path1, self.path2)
        return (False, reason) if reason else (True, "ok")


def witness_from_json(text: str) -> WitnessFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedWitness(f"not valid JSON: {exc}") from exc
    try:
        if doc["version"] != FORMAT_VERSION:
            raise MalformedWitness(f"unsupported version {doc['version']}")
        group = FiniteAbelianGroup(tuple(doc["group_orders"]))
        gens = [group.canon(doc["gen_a"]), group.canon(doc["gen_b"])]
        if "gen_c" in doc:
            gens.append(group.canon(doc["gen_c"]))
        digraph = CayleyDigraph(group, tuple(gens))
        return WitnessFile(
            family=doc["family"],
            params={k: int(v) for k, v in doc["params"].items()},
            digraph=digraph,
            path1=walk_from_dict(digraph, doc["path1"]),
            path2=walk_from_dict(digraph, doc["path2"]),
        )
    except MalformedWitness:
        raise
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise MalformedWitness(f"bad witness document: {exc}") from exc
