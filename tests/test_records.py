"""The record types: value semantics where anything reads them, and a
command-line start-up that generates no dataclass code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hampair
from hampair.core import CayleyDigraph, FiniteAbelianGroup, LabeledWalk, cayley, coset_split
from hampair.family_one import cut_set, realize_disjoint_pair
from hampair.family_two import QuotientFiberConfig, skew_cover
from hampair.lattice import lattice_params, ray_system, reflected_gap_graph
from hampair.oracle import find_hamiltonian_cycle
from hampair.products import _switchability, product_digraph
from hampair.witness import WitnessFile


def test_cli_start_up_loads_no_dataclasses(tmp_path):
    # Only `scan` reads a dataclass (ScanRow), and it imports the scan
    # module itself, so importing the CLI and running `build` and
    # `verify` never load dataclasses, or the inspect and ast modules
    # it brings in.
    src = str(Path(hampair.__file__).resolve().parents[1])
    script = (
        "import sys, hampair.cli\n"
        "imported = 'dataclasses' in sys.modules\n"
        "built = hampair.cli.main(['build', 'one', '30', '7', '--out', sys.argv[1]])\n"
        "verified = hampair.cli.main(['verify', sys.argv[1]])\n"
        "print(imported, built, verified, 'dataclasses' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "w.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
        timeout=60,
    )
    assert out.stdout.split() == ["False", "0", "0", "False"]


def _equal_pairs():
    """(record, an equal record built afresh, a record from other
    generators) for each class whose equality and hash are read."""
    d, e, other = cayley([10], 4, 5), cayley([10], 4, 5), cayley([10], 3, 4)
    return [
        (d.group, FiniteAbelianGroup((10,)), FiniteAbelianGroup((12,))),
        (d, e, other),
        (CayleyDigraph(d.group, [(4,), (5,)]), e, cayley([10], 5, 4)),
        (LabeledWalk(d, (4,), "AB"), LabeledWalk(e, (4,), "AB"), LabeledWalk(other, (4,), "AB")),
        (ray_system(10, 4), ray_system(10, 4), ray_system(10, 3)),
    ]


@pytest.mark.parametrize("record, equal, different", _equal_pairs())
def test_records_compare_and_hash_by_value(record, equal, different):
    assert record is not equal
    assert record == equal and hash(record) == hash(equal)
    assert record != different
    assert record != tuple(getattr(record, f) for f in record._fields)  # never a plain tuple
    assert repr(record) == repr(equal) != repr(different)


def test_named_tuple_records_are_immutable():
    d = cayley([10], 4, 5)
    p, q = realize_disjoint_pair(10, 4)
    cfg = QuotientFiberConfig(1, 2)
    records = [
        (lattice_params(10, 4), "k"),
        (reflected_gap_graph([1, 3, 5], 9, 1), "delta"),
        (coset_split(d), "n"),
        (cut_set(10, 4), "delta"),
        (skew_cover(cfg, cfg.canonical_S()), "S"),
        (find_hamiltonian_cycle(product_digraph((2, 3))), "status"),
        (_switchability(p, q)[1], "gamma"),
        (WitnessFile("one", {"k": 10, "a": 4}, d, p, q), "family"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_realized_pair_unpacks_to_its_two_paths():
    realized = realize_disjoint_pair(10, 4)
    p, q = realized
    assert (p, q) == (realized.path1, realized.path2)
    assert realized.stage == "translate-count-pair"
