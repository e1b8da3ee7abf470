import argparse
import hashlib
import json
import re
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import hampair
from hampair import cli, core, cosets, family_one, family_two, lattice, products, witness
from hampair.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    command_parser,
    main,
)
from hampair.core import LabeledWalk, cayley
from hampair.witness import witness_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cuts_table(capsys):
    code, out, _ = run(capsys, "cuts", "10", "4")
    assert code == EXIT_OK
    assert "Z        = {1,3,5}" in out
    assert "dist     = 1" in out


def test_cuts_json(capsys):
    code, out, _ = run(capsys, "cuts", "10", "4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["Z"] == [1, 3, 5]
    assert doc["reflected"] == [4, 6, 8]
    assert doc["count_pair"] == [3, 5]
    assert (doc["c_L"], doc["c_R"]) == (1, 4)
    assert [3, 5] in doc["negative_edges"]


def test_cuts_csv(capsys):
    code, out, _ = run(capsys, "cuts", "15", "3", "--format", "csv")
    assert code == EXIT_OK
    header, row = out.strip().split("\n")
    assert header == "k,a,Z,delta,c_L,c_R,count_d,count_e"
    assert row == "15,3,2;4;6;8;14,0,2,0,6,8"


def test_cuts_negative_a_normalized(capsys):
    code, out, _ = run(capsys, "cuts", "10", "-6", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["a"] == 4


def test_cuts_rejects_invalid_a(capsys):
    code, _, err = run(capsys, "cuts", "10", "9")
    assert code == EXIT_USAGE
    assert "error" in err
    code, _, err = run(capsys, "cuts", "0", "1")
    assert code == EXIT_USAGE
    assert "error" in err


def test_invalid_a_is_reported_as_given(capsys):
    # -1 is k - 1 mod 5: the message names the a on the command line.
    assert run(capsys, "rays", "5", "-1") == (
        EXIT_USAGE, "", "error: need a not in {0, k-1} mod k, got a=-1 for k=5\n"
    )
    # The ray walk takes every step a; `rays` and `cuts` refuse the two
    # that give no family-one digraph.
    for argv in (("rays", "10", "0"), ("rays", "10", "9"), ("cuts", "10", "0")):
        assert run(capsys, *argv) == (
            EXIT_USAGE, "", f"error: need a not in {{0, k-1}} mod k, got a={argv[2]} for k=10\n"
        ), argv


def test_rays_formats(capsys):
    code, out, _ = run(capsys, "rays", "10", "4", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "index,ray_x,ray_y,mult,cut_value"
    assert lines[1] == "0,1,0,1,1"
    assert lines[-1] == "3,0,1,4,"

    code, out, _ = run(capsys, "rays", "10", "4", "--format", "json")
    doc = json.loads(out)
    assert (doc["m"], doc["n"], doc["e"]) == (5, 2, 0)
    assert doc["cut_values"] == [1, 3, 5]


@pytest.mark.parametrize(
    "k, a, header",
    [
        ("10", "4", "k=10 a=4 m=5 n=2 e=0 N=9 L(x,y)=5x+2y"),
        ("7", "2", "k=7 a=2 m=7 n=1 e=5 N=6 L(x,y)=7x-4y"),
    ],
    ids=["n-e-positive", "n-e-negative"],
)
def test_rays_header_signs(capsys, k, a, header):
    # The y coefficient n - e carries its own sign: 7x-4y, not 7x+-4y.
    code, out, _ = run(capsys, "rays", k, a)
    assert code == EXIT_OK
    assert out.split("\n")[0] == header


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "3", "12", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "k,a,Z,delta,c_L,c_R,count_d,count_e,lattice_agrees"
    assert all(line.endswith("true") for line in lines[1:])


def test_scan_deterministic(capsys):
    _, first, _ = run(capsys, "scan", "3", "15", "--format", "json")
    _, second, _ = run(capsys, "scan", "3", "15", "--format", "json", "--jobs", "2")
    assert first == second


def test_scan_summary_line(capsys):
    code, out, _ = run(capsys, "scan", "3", "10")
    assert code == EXIT_OK
    assert "failures=0" in out.strip().split("\n")[-1]


# SHA-256 of the stdout of `hampair cuts|rays k a --format F`,
# concatenated over these cells: e = 0 in (6, 2), (10, 4) and (402, 200),
# n - e < 0 in seven of them, coprime a in six, the self-mirrored cells
# (3, 1), (5, 2) and (11, 5), and k up to 1000.
PIN_CELLS = (
    (3, 1), (5, 2), (6, 2), (10, 4), (15, 3), (11, 5),
    (40, 9), (100, 1), (100, 98), (402, 200), (1000, 333), (120, 45),
)
CELL_OUTPUT_SHA256 = {
    ("cuts", "table"): "31a3495f48cb7b835deaa6cfb5cdac01345a3ab0b02a2328607a9edf123dea1f",
    ("cuts", "json"): "ff3bc77027940495ba6cd4957524c70f84106f6909547916a78267a48256281a",
    ("cuts", "csv"): "b062fe90db1eb8c28668377a6809921a9c2cadf409d30d610c55283e718713a7",
    ("rays", "table"): "c22abc5adc7ab44f48879b6fbde6ad6f00a6b659ff03756c74c842e104276233",
    ("rays", "json"): "ddf375700335fb1bb903ec3a95e225a5bd4c7495fe0d832fdca9d0a1d5d5ca0f",
    ("rays", "csv"): "bf84c9fee6c7c06c8ac7f79e36ec142f9de66c01d30e4cbde049f87599565368",
}
# The same for `hampair scan 3 30 --format F`; the CSV is pinned in
# test_scan.
SCAN_3_30_SHA256 = {
    "table": "724c157aa85c4035cbb15371f1106f3fd1804da4075435dbdc9f8364493e9281",
    "json": "e9ae08296ba2bce182330772e1813c76eaff92fe1a863b14097d0fa461c8f5d9",
}


@pytest.mark.parametrize("command, fmt", sorted(CELL_OUTPUT_SHA256))
def test_cell_output_is_pinned(capsys, command, fmt):
    digest = hashlib.sha256()
    for k, a in PIN_CELLS:
        code, out, _ = run(capsys, command, str(k), str(a), "--format", fmt)
        assert code == EXIT_OK
        digest.update(out.encode())
    assert digest.hexdigest() == CELL_OUTPUT_SHA256[command, fmt]


@pytest.mark.parametrize("fmt", sorted(SCAN_3_30_SHA256))
def test_scan_output_is_pinned(capsys, fmt):
    code, out, _ = run(capsys, "scan", "3", "30", "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_3_30_SHA256[fmt]


def test_build_one_witness(capsys, tmp_path):
    target = tmp_path / "w.json"
    code, out, err = run(capsys, "build", "one", "10", "4", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert "realization stage" in err
    wf = witness_from_json(target.read_text())
    assert wf.family == "one" and wf.params == {"k": 10, "a": 4}
    assert wf.verify() is None


@pytest.mark.parametrize("a", ["14", "-6"])
def test_build_one_params_hold_the_reduced_a(capsys, a):
    # The witness records the a of its digraph, as `cuts` prints it.
    code, out, _ = run(capsys, "build", "one", "10", a)
    assert code == EXIT_OK
    wf = witness_from_json(out)
    assert wf.params == {"k": 10, "a": 4}
    assert wf.digraph.gens == ((4,), (5,))


def test_build_two_witness(capsys):
    code, out, _ = run(capsys, "build", "two", "2", "3")
    assert code == EXIT_OK
    wf = witness_from_json(out)
    assert wf.family == "two"
    assert wf.digraph.group.orders == (15,)
    assert wf.verify() is None


def test_build_product_witness(capsys):
    code, out, _ = run(capsys, "build", "product", "2", "3", "4")
    assert code == EXIT_OK
    wf = witness_from_json(out)
    assert wf.digraph.group.orders == (2, 3, 4)
    assert len(wf.digraph.gens) == 3
    assert wf.verify() is None


def test_build_search_witness(capsys):
    code, out, _ = run(capsys, "build", "search", "2,3", "1,0", "0,1")
    assert code == EXIT_OK
    assert witness_from_json(out).verify() is None


# SHA-256 of the stdout of `hampair build search orders gen_a gen_b` on
# groups of rank two and three, whose digraphs are checked for generation
# by the minors rule: a change to either path, or to the witness layout
# of a rank above one, shows here.
BUILD_SEARCH_SHA256 = {
    ("6,8", "1,0", "0,1"): "f50c055734f2854444a9c4ca25d8771b25207ac365f955b65b1af2df3651ad95",
    ("4,6", "1,1", "0,1"): "7358de1421925a2991fc6d5101ad6d8844274fa87d7a8afa24192d5f5ddb9841",
    ("2,3,5", "0,0,1", "1,1,0"): "3cff359e44f8345346466fd040cc7f18ade4686bd7218f6163ab208583582870",
}


@pytest.mark.parametrize("argv", sorted(BUILD_SEARCH_SHA256))
def test_build_search_witness_is_pinned(capsys, argv):
    code, out, _ = run(capsys, "build", "search", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_SEARCH_SHA256[argv]
    assert witness_from_json(out).verify() is None


def test_build_search_deep(capsys):
    # A 1,200-vertex digraph, built from its cosets.
    code, out, _ = run(capsys, "build", "search", "1200", "1", "2")
    assert code == EXIT_OK
    assert witness_from_json(out).verify() is None


def test_build_search_builds_no_ray_system(capsys, monkeypatch):
    # A search build reads its count pairs from the cut streams; family
    # one's build is checked in test_scan.
    def refuse(k, a):
        raise AssertionError("a build built a ray system")

    monkeypatch.setattr(lattice, "ray_system", refuse)
    code, out, _ = run(capsys, "build", "search", "30,40", "1,0", "0,1")
    assert code == EXIT_OK
    assert witness_from_json(out).verify() is None


@pytest.mark.parametrize(
    "argv",
    [("100000", "1", "4"), ("52", "1", "39"), ("2,24", "0,1", "1,14"), ("2,2", "1,0", "0,1")],
    ids=["Z_100000", "Z_52", "Z_2xZ_24", "n=2"],
)
def test_build_search_formerly_inconclusive(capsys, argv):
    # The DFS oracle ran out of its 10^7 nodes on Z_100000 (exit 3 after
    # 8.4 s), and Z_52 and Z_2 x Z_24 were the first classes it left
    # inconclusive at 10^5 nodes.  Z_2 x Z_2 with (1,0), (0,1) has
    # delta = (1, 1) of order n = 2, where every cut value is degenerate.
    code, out, _ = run(capsys, "build", "search", *argv)
    assert code == EXIT_OK
    assert witness_from_json(out).verify() is None


@pytest.mark.parametrize("order", ["10000001", "1000000000"])
def test_build_search_refuses_oversized_order_at_once(capsys, order):
    # Above 10^7 vertices, the bound the oracle's default node budget set,
    # the search builds nothing: the order is refused as input, in one line.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "build", "search", order, "1", "2")
    assert time.perf_counter() - t0 < 1
    assert (code, out, err) == (
        EXIT_USAGE, "", f"error: build search takes at most 10000000 vertices, got {order}\n"
    )


@pytest.mark.parametrize(
    "m, n",
    [(5, 11), (4, 12), (10, 8), (11, 8), (11, 9), (12, 8), (12, 9), (12, 10), (5, 22), (6, 16),
     (38, 40)],
)
def test_build_product_on_formerly_stuck_base(capsys, m, n):
    # The unpruned DFS base search in C_m x C_n ran out of its 10^7
    # nodes (exit 3 after 11-13 s).  The pruned one still ran out in
    # C_10 x C_8 and the other bases with m > n here, and in C_5 x C_22
    # and C_6 x C_16 (exit 3 after 7-8 s).  The coset enumeration builds
    # every base.
    code, out, _ = run(capsys, "build", "product", str(m), str(n), "3")
    assert code == EXIT_OK
    wf = witness_from_json(out)
    assert wf.digraph.group.orders == (m, n, 3)
    assert wf.verify() is None


def test_build_product_absent_base_fails(capsys, monkeypatch, tmp_path):
    # A base whose coset enumeration holds no strongly switchable pair
    # has none, so the build fails, and writes nothing.
    monkeypatch.setattr(cosets, "iter_pairs", lambda d: iter(()))
    target = tmp_path / "w.json"
    code, out, err = run(capsys, "build", "product", "2", "3", "3", "--out", str(target))
    assert code == EXIT_FAIL
    assert out == "" and err == (
        "builder failed: C_2 x C_3 has no strongly switchable pair to lift to C_2 x C_3 x C_3\n"
    )
    assert not target.exists()


def test_build_search_rejects_overlapping_pair(capsys, monkeypatch, tmp_path):
    # The coset pair is checked once, by the builder, before anything
    # is written.
    d = cayley([3], 1, 2)
    p = LabeledWalk(d, (1,), "AA")
    monkeypatch.setattr(cosets, "_structured_pairs", lambda d: iter([(p, p)]))
    target = tmp_path / "w.json"
    code, out, err = run(capsys, "build", "search", "3", "1", "2", "--out", str(target))
    assert code == EXIT_FAIL
    assert out == "" and err.startswith("builder failed: ")
    assert "arc overlap between path1 and path2" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [("one", "10", "4"), ("two", "1", "4"), ("product", "10", "8", "3"),
     ("search", "2,3", "1,0", "0,1")],
    ids=["one", "two", "product", "search"],
)
def test_each_witness_is_checked_once(capsys, monkeypatch, tmp_path, argv):
    # pair_failure is imported by name, so count the calls at every module
    # that holds it, core's own (which check_pair calls) included.  Each
    # digraph is counted apart: the product build checks its base pair
    # once too, before the lift.
    checked = []
    pair_failure = core.pair_failure

    def counting(d, p, q):
        checked.append(d)
        return pair_failure(d, p, q)

    for module in (core, cli, cosets, family_one, family_two, products, witness):
        if getattr(module, "pair_failure", None) is pair_failure:
            monkeypatch.setattr(module, "pair_failure", counting)
    target = tmp_path / "w.json"
    code, _, _ = run(capsys, "build", *argv, "--out", str(target))
    assert code == EXIT_OK
    digraph = witness_from_json(target.read_text()).digraph
    assert checked.count(digraph) == 1
    if argv[0] == "product":
        base = products.product_digraph(tuple(map(int, argv[1:3])))
        assert checked.count(base) == 1
        assert len(checked) == 2
    checked.clear()
    code, _, _ = run(capsys, "verify", str(target))
    assert code == EXIT_OK
    assert checked == [digraph]


@pytest.mark.parametrize(
    "argv",
    [("one", "10", "4"), ("two", "1", "4"), ("product", "10", "8", "3"),
     ("search", "12", "1", "4"), ("search", "2,3", "1,0", "0,1")],
    ids=["one", "two", "product", "search-rank-one", "search-rank-two"],
)
def test_each_digraph_computes_one_coset_split(capsys, monkeypatch, tmp_path, argv):
    # The search and the pair check of a build share one split, kept on
    # the digraph; a product's split is its base's.
    splits = []
    split_type = core.CosetSplit

    def counting(orders, *rest):
        splits.append(orders)
        return split_type(orders, *rest)

    monkeypatch.setattr(core, "CosetSplit", counting)
    target = tmp_path / "w.json"
    code, _, _ = run(capsys, "build", *argv, "--out", str(target))
    assert code == EXIT_OK
    assert len(splits) == 1
    rank = len(splits[0])
    splits.clear()
    code, _, _ = run(capsys, "verify", str(target))
    assert code == EXIT_OK
    # verify splits its own digraph once, on Z_N only, for the column rule
    assert len(splits) == (rank == 1)


def test_emit_writes_a_large_text_intact_in_slices(monkeypatch, tmp_path):
    text = "".join(f"{i}\n" for i in range(400_000))  # 2.6 MB, no slice boundary aligned
    assert len(text) > 2 * cli._WRITE_SLICE and len(text) % cli._WRITE_SLICE
    target = tmp_path / "big.txt"
    cli._emit(text, str(target))
    assert target.read_text() == text
    writes = []
    monkeypatch.setattr(cli.sys, "stdout", types.SimpleNamespace(write=writes.append))
    cli._emit(text, None)
    assert "".join(writes) == text
    assert max(map(len, writes)) == cli._WRITE_SLICE


def test_build_rejects_bad_params(capsys):
    code, _, err = run(capsys, "build", "one", "10", "0")
    assert code == EXIT_USAGE
    assert "error" in err


def test_verify_round_trip(capsys, tmp_path):
    target = tmp_path / "w.json"
    run(capsys, "build", "two", "1", "4", "--out", str(target))
    code, _, err = run(capsys, "verify", str(target))
    assert code == EXIT_OK
    assert "ok" in err


def test_verify_corrupted_witness_fails(capsys, tmp_path):
    target = tmp_path / "w.json"
    run(capsys, "build", "two", "1", "4", "--out", str(target))
    doc = json.loads(target.read_text())
    lab = doc["path2"]["labels"]
    doc["path2"]["labels"] = ("A" if lab[0] == "B" else "B") + lab[1:]
    target.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(target))
    assert code == EXIT_FAIL
    # Family two (m = 3 cosets): the column rule defers, and the marks
    # walk over the successor tables names the repeat.
    assert err == "verification failed: path2: repeated vertex (2,)\n"


def test_verify_family_one_witness_with_a_flipped_label_fails(capsys, tmp_path):
    # Family one (m = 1): the same reason text, from the same marks walk.
    target = tmp_path / "w.json"
    run(capsys, "build", "one", "10", "4", "--out", str(target))
    doc = json.loads(target.read_text())
    lab = doc["path1"]["labels"]
    doc["path1"]["labels"] = ("A" if lab[0] == "B" else "B") + lab[1:]
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(target))
    assert code == EXIT_FAIL
    assert out == "" and err == "verification failed: path1: repeated vertex (4,)\n"


def test_verify_oversized_group_fails_fast(tmp_path):
    # A 200-byte document claiming a group of order 10**8 must be refused
    # by the length check, before anything of that size is built.
    target = tmp_path / "huge.json"
    target.write_text(
        json.dumps(
            {
                "version": 1,
                "family": "search",
                "params": {"order_0": 10**8},
                "group_orders": [10**8],
                "gen_a": [1],
                "gen_b": [2],
                "path1": {"start": [0], "labels": "AB"},
                "path2": {"start": [1], "labels": "BA"},
            }
        )
    )
    src = str(Path(hampair.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from hampair.cli import main; sys.exit(main())",
         "verify", str(target)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=10,
    )
    assert out.returncode == EXIT_FAIL
    assert "wrong length" in out.stderr
    t0 = time.perf_counter()
    assert cayley([10**6], 1, 2).group.size == 10**6
    assert time.perf_counter() - t0 < 1.0


def test_verify_malformed_file(capsys, tmp_path):
    target = tmp_path / "bad.json"
    target.write_text("{")
    code, _, err = run(capsys, "verify", str(target))
    assert code == EXIT_USAGE
    assert "malformed" in err


# Cay(Z_5; 1, 2): A^4 from 0 and B^4 from 0 are arc-disjoint Hamiltonian paths.
MISTYPED_BASE = json.dumps(
    {
        "version": 1,
        "family": "search",
        "params": {"order_0": 5},
        "group_orders": [5],
        "gen_a": [1],
        "gen_b": [2],
        "path1": {"start": [0], "labels": "AAAA"},
        "path2": {"start": [0], "labels": "BBBB"},
    }
)


@pytest.mark.parametrize(
    "field, value",
    [("params", [5]), ("group_orders", [5.0]), ("gen_a", [1.0]), ("gen_b", [True]),
     ("start", [0.0]), ("start", [True]), ("version", 1.0), ("version", True)],
    ids=["params-list", "float-order", "float-gen", "bool-gen", "float-start", "bool-start",
         "float-version", "bool-version"],
)
def test_verify_mistyped_witness_is_malformed(capsys, tmp_path, field, value):
    # Each of these was a traceback with exit 1, or "ok" for [True] and
    # for a version that compares equal to 1.
    target = tmp_path / "w.json"
    doc = json.loads(MISTYPED_BASE)
    if field == "start":
        doc["path1"]["start"] = value
    else:
        doc[field] = value
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(target))
    assert code == EXIT_USAGE
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"malformed witness file: {field} must be ")


def test_verify_deeply_nested_file_is_malformed(capsys, tmp_path):
    # json.loads raises RecursionError, a RuntimeError, which was
    # reported as "builder failed" with exit 1.
    target = tmp_path / "w.json"
    target.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "verify", str(target))
    assert code == EXIT_USAGE
    assert out == "" and err.count("\n") == 1
    assert err.startswith("malformed witness file: not valid JSON: ")


def test_verify_non_utf8_file_is_malformed(capsys, tmp_path):
    target = tmp_path / "w.json"
    target.write_bytes(MISTYPED_BASE.replace("search", "s\u00e9arch").encode("latin-1"))
    code, out, err = run(capsys, "verify", str(target))
    assert code == EXIT_USAGE
    assert out == "" and err.count("\n") == 1
    assert err.startswith("malformed witness file: not UTF-8 text: ")


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == EXIT_USAGE


# Each family's build, and one edit of one parameter that names another
# digraph, with the line verify then gives.  The two family-two
# witnesses have the same order, 15, so only the generators differ.
EDITED_PARAMS = {
    "one": (("10", "4"), {"a": 5},
            "params give generators ((5,), (6,)), the file has ((4,), (5,))"),
    "two": (("1", "5"), {"a": 2, "L": 3},
            "params give generators ((13,), (3,)), the file has ((14,), (2,))"),
    "product": (("2", "3", "4"), {"m": 3, "n": 2},
                "params give group orders (3, 2, 4), the file has (2, 3, 4)"),
    "search": (("12", "1", "4"), {"order_0": 13},
               "params give group orders (13,), the file has (12,)"),
}


@pytest.mark.parametrize("family", list(EDITED_PARAMS))
def test_verify_checks_the_digraph_that_the_params_name(capsys, tmp_path, family):
    # The file's family and params were never compared with its digraph,
    # so an edited parameter still verified.
    args, edit, reason = EDITED_PARAMS[family]
    target = tmp_path / "w.json"
    assert run(capsys, "build", family, *args, "--out", str(target))[0] == EXIT_OK
    assert run(capsys, "verify", str(target)) == (EXIT_OK, "", "ok\n")
    doc = json.loads(target.read_text())
    doc["params"].update(edit)
    target.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(target)) == (
        EXIT_FAIL, "", f"verification failed: {reason}\n"
    )


@pytest.mark.parametrize(
    "family, params, line",
    [
        ("two", {"k": 999, "a": 7}, "family two takes params a, L, got k, a"),
        ("one", {"k": 10}, "family one takes params k, a, got k"),
        ("search", {"order_x": 10}, "family search takes params order_0, got order_x"),
        ("cyclic", {"k": 10, "a": 4}, "unknown family 'cyclic'"),
    ],
    ids=["params-of-another-family", "missing-param", "made-up-param", "made-up-family"],
)
def test_verify_unknown_family_or_params_is_malformed(capsys, tmp_path, family, params, line):
    target = tmp_path / "w.json"
    run(capsys, "build", "one", "10", "4", "--out", str(target))
    doc = json.loads(target.read_text())
    doc["family"], doc["params"] = family, params
    target.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(target)) == (
        EXIT_USAGE, "", f"malformed witness file: {line}\n"
    )


@pytest.mark.parametrize(
    "family, type_name",
    [([1], "list"), ({}, "dict"), (1, "int"), (None, "NoneType"), (True, "bool")],
    ids=["list", "object", "number", "null", "true"],
)
def test_verify_non_string_family_is_malformed(capsys, tmp_path, family, type_name):
    # A list or an object was a traceback with exit 1: claim_failure
    # looked it up in a dict and raised TypeError (unhashable type).
    target = tmp_path / "w.json"
    run(capsys, "build", "one", "10", "4", "--out", str(target))
    doc = json.loads(target.read_text())
    doc["family"] = family
    target.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(target)) == (
        EXIT_USAGE, "", f"malformed witness file: family must be a str, got {type_name}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [("cuts", "10", "4"), ("scan", "3", "5"), ("build", "one", "10", "4")],
    ids=["cuts", "scan", "build-one"],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    # An --out in a missing directory is one error line and exit 2, like
    # an unreadable verify input, not a traceback.
    target = tmp_path / "absent" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv", [("cuts", "10", "4"), ("build", "one", "10", "4")], ids=["cuts", "build-one"]
)
def test_empty_out_is_usage_error(capsys, argv):
    # An empty --out is a path that cannot be written, not stdout.
    code, out, err = run(capsys, *argv, "--out", "")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1] == "error: cannot write : [Errno 2] No such file or directory: ''"


def test_out_written_over_a_longer_file_is_cut_to_length(capsys, tmp_path):
    # --out is written in place, not truncated on opening: the tail of a
    # longer old witness must be cut off.
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    run(capsys, "build", "one", "10", "4", "--out", str(fresh))
    assert run(capsys, "build", "two", "1", "2000", "--out", str(reused))[0] == EXIT_OK
    assert reused.stat().st_size > fresh.stat().st_size
    assert run(capsys, "build", "one", "10", "4", "--out", str(reused))[0] == EXIT_OK
    assert reused.read_bytes() == fresh.read_bytes()
    assert run(capsys, "verify", str(reused))[0] == EXIT_OK


@pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
def test_out_to_a_device_is_written_and_not_cut(capsys):
    # A device cannot be truncated (EINVAL), so only a regular file is cut.
    code, out, err = run(capsys, "build", "one", "10", "4", "--out", "/dev/null")
    assert (code, out) == (EXIT_OK, "")
    assert "error" not in err


def test_out_through_a_symlink_writes_its_target(capsys, tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    run(capsys, "build", "two", "1", "2000", "--out", str(target))
    link.symlink_to(target)
    assert run(capsys, "build", "one", "10", "4", "--out", str(link))[0] == EXIT_OK
    assert link.is_symlink()
    run(capsys, "build", "one", "10", "4", "--out", str(tmp_path / "fresh.json"))
    assert target.read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_failed_write_leaves_no_old_witness(capsys, monkeypatch, tmp_path):
    # A failed write leaves no earlier witness under its name: the file
    # is cut to zero, bytes written before the failure included.
    target = tmp_path / "w.json"
    run(capsys, "build", "two", "1", "4", "--out", str(target))
    assert run(capsys, "verify", str(target))[0] == EXIT_OK

    def failing(fh, text):
        fh.write(text[:10])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "_write", failing)
    code, out, err = run(capsys, "build", "one", "10", "4", "--out", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [err.splitlines()[-1]]
    assert errors[0].startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert target.read_bytes() == b""


@pytest.mark.parametrize("k, a", [(10, 4), (700, 301), (1000, 17), (1000000, 500000)])
def test_build_one_walks_each_cut_stream_once(capsys, monkeypatch, tmp_path, k, a):
    # The count-pair probe's walks go on to the first pair: no second
    # pass over either cut stream.
    calls = []
    cut_stream = lattice.cut_stream

    def counting(k, a):
        calls.append((k, a))
        return cut_stream(k, a)

    monkeypatch.setattr(lattice, "cut_stream", counting)
    code, _, _ = run(capsys, "build", "one", str(k), str(a), "--out", str(tmp_path / "w.json"))
    assert code == EXIT_OK
    # Z(k, r) ascending and, for its mirror, Z(k, -1 - r) ascending.
    assert len(calls) == 2 and sum(r for _, r in calls) == -1, calls


@pytest.mark.parametrize(
    "name, value", [("FORMAT", "json"), ("OUT", "x.json"), ("BUDGET", "abc"), ("JOBS", "x")]
)
def test_environment_sets_no_option(capsys, monkeypatch, tmp_path, name, value):
    # Options are set by their flags only: a HAMPAIR_* variable, valid or
    # not, changes nothing, even on a freshly built parser.
    monkeypatch.chdir(tmp_path)
    expected = run(capsys, "cuts", "10", "4")
    monkeypatch.setenv("HAMPAIR_" + name, value)
    build_parser.cache_clear()
    command_parser.cache_clear()
    assert run(capsys, "cuts", "10", "4") == expected
    assert not list(tmp_path.iterdir())
    assert expected[0] == EXIT_OK and expected[1].startswith("k=10 a=4 N=9\n")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "family, names", [("one", ["k", "a"]), ("two", ["a", "L"]), ("product", ["m", "n", "l"])]
)
def test_build_help_names_parameters(capsys, family, names):
    with pytest.raises(SystemExit) as exc:
        main(["build", family, "--help"])
    assert exc.value.code == EXIT_OK
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.split()[-len(names):] == names


# Each subcommand's options: the ones its code reads, 11 in all.
OPTIONS = {
    "cuts": {"--format", "--out"},
    "rays": {"--format", "--out"},
    "scan": {"--format", "--out", "--jobs"},
    "build one": {"--out"},
    "build two": {"--out"},
    "build product": {"--out"},
    "build search": {"--out"},
    "verify": set(),
}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_subcommand_takes_only_the_options_it_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--help"])
    assert exc.value.code == EXIT_OK
    shown = set(re.findall(r"(?<![\w-])--[a-z]+", capsys.readouterr().out))
    assert shown - {"--help"} == OPTIONS[command]


def test_option_of_another_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "w.json", "--format", "json"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_foreign_option_is_reported_under_the_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "one", "10", "4", "--format", "json"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: hampair build one ")
    assert err.endswith("\nhampair build one: error: unrecognized arguments: --format json\n")


def _command_argv(command, tmp_path):
    """A valid command line of `command`, writing to or reading tmp_path."""
    target = str(tmp_path / "w.json")
    if command == "verify":
        assert main(["build", "one", "10", "4", "--out", target]) == EXIT_OK
        return ["verify", target]
    args = {"cuts": "10 4", "rays": "10 4", "scan": "3 5", "build one": "10 4",
            "build two": "1 4", "build product": "2 3 2", "build search": "12 1 4"}
    extra = ["--out", target] if command.startswith("build") else []
    return command.split() + args[command].split() + extra


@pytest.mark.parametrize("command", list(OPTIONS))
def test_each_command_line_is_parsed_once(capsys, monkeypatch, tmp_path, command):
    # The subparser tree parsed `build ...` three times (root, build, the
    # family) and every other command twice; one parser per command
    # parses it once.
    argv = _command_argv(command, tmp_path)
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(argv) == EXIT_OK
    assert calls == ["hampair " + command]


def test_a_command_builds_no_tree(capsys):
    build_parser.cache_clear()
    assert main(["cuts", "10", "4"]) == EXIT_OK
    assert build_parser.cache_info().currsize == 0


@pytest.mark.parametrize("command", list(OPTIONS))
def test_command_help_is_the_tree_help(capsys, command):
    words = command.split()
    helps = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(words + ["--help"])
        assert exc.value.code == EXIT_OK
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1]
    assert helps[0].out.startswith(f"usage: hampair {command} [-h]")


ROOT_USAGE = "usage: hampair [-h] {cuts,rays,scan,build,verify} ...\n"
BUILD_USAGE = "usage: hampair build [-h] {one,two,product,search} ...\n"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ([], EXIT_USAGE,
         ROOT_USAGE + "hampair: error: the following arguments are required: command\n"),
        (["build"], EXIT_USAGE,
         BUILD_USAGE + "hampair build: error: the following arguments are required: family\n"),
        (["frob"], EXIT_USAGE,
         ROOT_USAGE + "hampair: error: argument command: invalid choice: 'frob' "
         "(choose from 'cuts', 'rays', 'scan', 'build', 'verify')\n"),
        (["build", "frob", "1", "2"], EXIT_USAGE,
         BUILD_USAGE + "hampair build: error: argument family: invalid choice: 'frob' "
         "(choose from 'one', 'two', 'product', 'search')\n"),
        (["--help"], EXIT_OK, ""),
        (["build", "--help"], EXIT_OK, ""),
    ],
    ids=["none", "build-alone", "unknown", "unknown-family", "help", "build-help"],
)
def test_argv_naming_no_command_goes_to_the_tree(capsys, argv, code, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.err == err
    if code == EXIT_OK:
        assert captured.out.startswith(BUILD_USAGE if argv[0] == "build" else ROOT_USAGE)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_scan_nonpositive_jobs_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, "scan", "3", "5", "--jobs", jobs)
    assert code == EXIT_USAGE
    assert out == "" and err == "error: jobs must be positive\n"


@pytest.mark.parametrize("k_min, k_max, first", [("5", "3", 5), ("1", "2", 3)])
def test_scan_empty_range_is_usage_error(capsys, k_min, k_max, first):
    code, out, err = run(capsys, "scan", k_min, k_max)
    assert code == EXIT_USAGE
    assert out == "" and err == f"error: no cells to scan: k = {first}..{k_max} is empty\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "two", "1", "100000000"),
        ("scan", "3", "30000"),
        ("rays", "100000000", "3", "--format", "csv"),
    ],
    ids=["build", "scan", "rays"],
)
def test_out_of_memory_is_inconclusive(argv):
    # The child alone gets a ~390 MB address space; a witness of 3 * 10^8
    # vertices, a scan of ~4.5 * 10^8 cells or the ~3.3 * 10^7 rays of
    # k = 10^8 do not fit in it.  (A family-two witness of 9 * 10^6
    # vertices fits, as its pair check builds no successor tables.)  The
    # rays run printed "Exception ignored in: " before its line in some
    # runs while the ray walk was left for its finalizer to close.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (400_000 * 1024, 400_000 * 1024))

    src = str(Path(hampair.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hampair.cli", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert proc.returncode == EXIT_INCONCLUSIVE
    assert proc.stdout == ""
    assert proc.stderr == "inconclusive: out of memory\n"


@pytest.mark.parametrize(
    "failure, code, line",
    [
        (core.InputError("bad"), EXIT_USAGE, "error: bad"),
        (witness.MalformedWitness("bad"), EXIT_USAGE, "malformed witness file: bad"),
        (RuntimeError("bad"), EXIT_FAIL, "builder failed: bad"),
        (MemoryError("bad"), EXIT_INCONCLUSIVE, "inconclusive: out of memory"),
        (OverflowError("bad"), EXIT_INCONCLUSIVE, "inconclusive: out of memory"),
    ],
    ids=["InputError", "MalformedWitness", "RuntimeError", "MemoryError",
         "OverflowError"],
)
def test_failure_table(capsys, monkeypatch, failure, code, line):
    # main alone turns what a command raises into one stderr line and
    # its exit code.
    def failing(a, L):
        raise failure

    monkeypatch.setattr(family_two, "build_family_two", failing)
    assert run(capsys, "build", "two", "1", "4") == (code, "", line + "\n")


def test_unmatched_failure_is_not_swallowed(capsys, monkeypatch):
    def failing(a, L):
        raise KeyError("bad")

    monkeypatch.setattr(family_two, "build_family_two", failing)
    with pytest.raises(KeyError):
        main(["build", "two", "1", "4"])


def test_size_past_the_address_space_is_inconclusive(capsys):
    # The family-two labels for L = 10^19 would be longer than an index
    # can hold: an OverflowError traceback and exit 1 before.
    code, out, err = run(capsys, "build", "two", "1", "10000000000000000000")
    assert (code, out, err) == (EXIT_INCONCLUSIVE, "", "inconclusive: out of memory\n")


def test_product_layers_past_the_address_space_are_inconclusive(capsys):
    # The lifted labels for l = 10^20 cannot be held, and the lift sizes
    # them before it builds them, so this fails at once.
    code, out, err = run(capsys, "build", "product", "2", "3", "100000000000000000000")
    assert (code, out, err) == (EXIT_INCONCLUSIVE, "", "inconclusive: out of memory\n")


def test_scan_has_no_check_selection(capsys):
    # A scan always runs all six checks; there is no flag to skip any.
    with pytest.raises(SystemExit) as exc:
        main(["scan", "3", "5", "--checks", "caps"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --checks caps" in capsys.readouterr().err
