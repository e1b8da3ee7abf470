"""Spans around the package's public functions, recorded from outside.

Tracer.install() replaces each traced function at every module
attribute that refers to it (for example both hampair.core and
hampair.family_one hold verify_hamiltonian), and each traced method on
its class, so callers inside the package reach the wrapper.  No source
file is edited.  A span is [name, start, end, parent span, item id,
count]; spans stay in memory and are written out when the pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

NAME, START, END, PARENT, ITEM, COUNT = range(6)


def _nodes(args, kwargs, out):
    return (out.nodes_used, int(out.status.value == "inconclusive"))


# (span name, module, attribute or Class.attribute, count taken from the call)
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("family_one.cut_set_values", "family_one", "cut_set_values", None),
    ("family_one.cut_set", "family_one", "cut_set", None),
    ("family_one.count_pair", "family_one", "count_pair", None),
    ("family_one.cut_path", "family_one", "cut_path", None),
    ("family_one.realize_disjoint_pair", "family_one", "realize_disjoint_pair",
     lambda a, kw, out: int(out.stage != "translate-count-pair")),
    ("lattice.ray_system", "lattice", "ray_system", None),
    ("scan.run_scan", "scan", "run_scan", lambda a, kw, out: len(out[0])),
    ("scan.scan_cell", "scan", "scan_cell", None),
    ("core.digraph_build", "core", "CayleyDigraph.__init__", None),
    ("core.verify_hamiltonian", "core", "verify_hamiltonian",
     lambda a, kw, out: a[0].group.size),
    ("core.arc_disjoint", "core", "arc_disjoint", None),
    ("family_two.build_family_two", "family_two", "build_family_two", None),
    ("family_two.skew_cover", "family_two", "skew_cover", None),
    ("witness.to_json", "witness", "WitnessFile.to_json", lambda a, kw, out: len(out)),
    ("witness.witness_from_json", "witness", "witness_from_json",
     lambda a, kw, out: len(a[0])),
    ("witness.WitnessFile.verify", "witness", "WitnessFile.verify", None),
    ("cli.main", "cli", "main", None),
    ("oracle.find_arc_disjoint_pair", "oracle", "find_arc_disjoint_pair", _nodes),
    ("oracle.find_hamiltonian_cycle", "oracle", "find_hamiltonian_cycle", _nodes),
    ("products.build_three_factor", "products", "build_three_factor", None),
    ("products.find_strongly_switchable_pair", "products",
     "find_strongly_switchable_pair", _nodes),
    ("products.lift_through_cycle", "products", "lift_through_cycle", None),
    ("products.is_strongly_switchable", "products", "is_strongly_switchable",
     lambda a, kw, out: int(out[0])),
)
SEARCHES = (
    "oracle.find_arc_disjoint_pair",
    "oracle.find_hamiltonian_cycle",
    "products.find_strongly_switchable_pair",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.item: Optional[int] = None

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hampair" or n.startswith("hampair.")]
        for name, module, attr, count in TARGETS:
            owner = sys.modules[f"hampair.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, items: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far, over `items`
        benchmark items."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, list] = defaultdict(list)
        for i, span in enumerate(self.spans):
            dur = span[END] - span[START]
            calls[span[NAME]] += 1
            total[span[NAME]] += dur
            self_s[span[NAME]] += dur - child[i]
            if span[COUNT] is not None:
                counts[span[NAME]].append(span[COUNT])

        def rate(n: float, seconds: float) -> float:
            return n / seconds if seconds > 0 else 0.0

        searches = [c for s in SEARCHES for c in counts[s]]
        nodes = sum(n for n, _ in searches)
        cells = sum(counts["scan.run_scan"]) + calls["family_one.realize_disjoint_pair"]
        switch = counts["products.is_strongly_switchable"]
        m = {
            "trace.items": items,
            "family_one.cut_set_values.calls": calls["family_one.cut_set_values"],
            "family_one.cut_set_values.self_s": self_s["family_one.cut_set_values"],
            "family_one.cut_sets_per_item": rate(calls["family_one.cut_set_values"], cells),
            "family_one.cut_set.self_s": self_s["family_one.cut_set"],
            "family_one.count_pair.self_s": self_s["family_one.count_pair"],
            "family_one.cut_path.self_s": self_s["family_one.cut_path"],
            "family_one.realize_disjoint_pair.self_s": self_s["family_one.realize_disjoint_pair"],
            "family_one.fallback_stages": sum(counts["family_one.realize_disjoint_pair"]),
            "lattice.ray_system.calls": calls["lattice.ray_system"],
            "lattice.ray_system.self_s": self_s["lattice.ray_system"],
            "scan.scan_cell.self_s": self_s["scan.scan_cell"],
            "scan.cells_per_s": rate(sum(counts["scan.run_scan"]), total["scan.run_scan"]),
            "core.digraph_build.calls": calls["core.digraph_build"],
            "core.digraph_build.self_s": self_s["core.digraph_build"],
            "core.digraph_builds_per_item": rate(calls["core.digraph_build"], items),
            "core.verify_hamiltonian.calls": calls["core.verify_hamiltonian"],
            "core.verify_hamiltonian.self_s": self_s["core.verify_hamiltonian"],
            "core.verify_calls_per_item": rate(calls["core.verify_hamiltonian"], items),
            "core.verify.vertices_per_s": rate(
                sum(counts["core.verify_hamiltonian"]), total["core.verify_hamiltonian"]
            ),
            "core.arc_disjoint.self_s": self_s["core.arc_disjoint"],
            "family_two.build_family_two.self_s": self_s["family_two.build_family_two"],
            "family_two.skew_cover.self_s": self_s["family_two.skew_cover"],
            "witness.to_json.self_s": self_s["witness.to_json"],
            "witness.serialize_bytes_per_s": rate(
                sum(counts["witness.to_json"]), total["witness.to_json"]
            ),
            "witness.witness_from_json.self_s": self_s["witness.witness_from_json"],
            "witness.parse_bytes_per_s": rate(
                sum(counts["witness.witness_from_json"]), total["witness.witness_from_json"]
            ),
            "witness.WitnessFile.verify.self_s": self_s["witness.WitnessFile.verify"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "oracle.find_arc_disjoint_pair.self_s": self_s["oracle.find_arc_disjoint_pair"],
            "oracle.find_hamiltonian_cycle.self_s": self_s["oracle.find_hamiltonian_cycle"],
            "oracle.nodes": nodes,
            "oracle.nodes_per_s": rate(nodes, sum(total[s] for s in SEARCHES)),
            "oracle.nodes_per_item": rate(nodes, items),
            "oracle.inconclusive": sum(flag for _, flag in searches),
            "products.build_three_factor.self_s": self_s["products.build_three_factor"],
            "products.find_strongly_switchable_pair.self_s":
                self_s["products.find_strongly_switchable_pair"],
            "products.lift_through_cycle.self_s": self_s["products.lift_through_cycle"],
            "products.switchable_hit_ratio": rate(sum(switch), len(switch)),
        }
        return m
