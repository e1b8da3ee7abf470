"""Command-line surface: cut tables, ray tables, parameter scans,
witness construction, and witness verification.

Data goes to stdout (or --out), written in slices of at most 1 MiB so
that no output is held twice, as text and as its encoded copy; progress
and diagnostics go to stderr.
An --out file is written over its old bytes and then cut to the new
length; it is never truncated to zero on opening.  ext4 by default
(auto_da_alloc) allocates a file's delayed blocks and starts their
writeback when a file truncated to zero and rewritten is closed, which
made rewriting a small witness cost many times its write.  It does the
same when a file is replaced by a rename, which would also replace a
symlinked --out instead of writing through it.  A device or FIFO is
written and not cut.  A failed write cuts the file to zero before the
error is reported, so a failed run leaves no earlier output under that
name.  A run killed mid-write may leave new bytes followed by old ones
(a truncating open left a prefix of the new ones; neither syncs), and
verify rejects any file that is not one valid pair.
`build` writes a witness only after its builder's one core.check_pair
has passed, and `verify` runs that same check, core.pair_failure, on a
witness file, which must be UTF-8 JSON with integer coordinates, once
the file's digraph is found to be the one its family and params name.
`build search` and the base pair of `build product` come from the coset
construction (hampair.cosets); no command runs the DFS oracle.
Each command line is parsed once, by its command's own parser, which
command_parser builds from the one table _COMMANDS on first use.  The
subparser tree of build_parser, built from the same table, parses only
an argv that names no command, so argparse writes the help and the
usage errors of the root and of `build`; an option that a command does
not take is reported under that command's usage.
Each subcommand takes only the options it reads, and each option is set
by its flag alone.  Exit codes: 0 success, 1 check or verification
failure, 2 usage, malformed input (a `build search` of more than
SEARCH_MAX_ORDER vertices included) or an --out that cannot be written,
3 inconclusive (memory ran out, or a size is past the address space).  A
failure that a command raises is reported by `main` alone, from one
table that gives each failure class its exit code and the prefix of its
one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys
from typing import Optional, Sequence

from . import cosets, family_one, family_two, lattice, products
from .core import InputError, cayley, check_family_one_params
from .witness import MalformedWitness, WitnessFile, witness_from_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

FORMATS = ("table", "json", "csv")

# `build search` refuses a digraph of more vertices than this as input
# out of range, before it builds anything: at about 150 B a vertex its
# tables and walks would take gigabytes.
SEARCH_MAX_ORDER = 10**7

# The most characters _write hands a file at once: 1 MiB of ASCII.
_WRITE_SLICE = 1 << 20

# What main reports for each failure a command raises, matched in order:
# the exit code and the one stderr line, which "{}" fills with the
# failure's text.  Memory that runs out and a size past the address space
# (an OverflowError), which would run it out, are inconclusive.
_FAILURES = (
    (InputError, EXIT_USAGE, "error: {}"),
    (MalformedWitness, EXIT_USAGE, "malformed witness file: {}"),
    (RuntimeError, EXIT_FAIL, "builder failed: {}"),
    ((MemoryError, OverflowError), EXIT_INCONCLUSIVE, "inconclusive: out of memory"),
)


def _emit(text: str, out: Optional[str]) -> None:
    """text to stdout if out is None, or else over the file out in place,
    cut to its length or, if a write fails, to zero (module docstring).
    An empty out is a path that cannot be opened."""
    if out is None:
        _write(sys.stdout, text)
        return
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                # closefd=False: the close flushes what is left before
                # a failure's cut, not after it.
                with open(fd, "w", closefd=False) as fh:
                    _write(fh, text)
                    if regular:
                        fh.truncate()
            except OSError:
                if regular:
                    os.ftruncate(fd, 0)
                raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _write(fh, text: str) -> None:
    """text in slices of at most _WRITE_SLICE characters: a text file
    encodes what it is given whole, so one write would hold a second,
    encoded copy of the text."""
    for i in range(0, len(text), _WRITE_SLICE):
        fh.write(text[i : i + _WRITE_SLICE])


def _intlist(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _cell_fields(cell, c_L: int, c_R: int) -> dict:
    """The eight columns that `cuts` and `scan` rows share, from a
    CutProfile or a ScanRow and the cell's endpoint caps."""
    d, e = cell.count_pair
    return {
        "k": cell.k,
        "a": cell.a,
        "Z": cell.Z,
        "delta": cell.delta,
        "c_L": c_L,
        "c_R": c_R,
        "count_d": d,
        "count_e": e,
    }


def _csv_field(value) -> str:
    if type(value) is bool:
        return str(value).lower()
    if type(value) is int:
        return str(value)
    return ";".join(map(str, value))


def _csv(rows: Sequence[dict]) -> str:
    """A header of the rows' keys, which every row shares, then one line
    per row: a list joined by ';', a bool in lower case."""
    lines = [",".join(rows[0])]
    lines += [",".join(map(_csv_field, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_cuts(args) -> int:
    profile = family_one.cut_set(args.k, args.a)
    rs = profile.ray_system
    # Z starts at mults[0], steps by 2 * mults[q] and ends at N - mults[-1]
    # (RaySystem.cut_values), so the ray system's boundary and internal
    # multiplicities are Z's endpoint caps and internal half-gaps.
    c_L, *lambdas, c_R = rs.mults
    graph = lattice.reflected_gap_graph(profile.Z, profile.N, profile.delta)
    pair = profile.count_pair
    # json writes each tuple as a list
    record = {
        "k": args.k,
        "a": profile.a,
        "N": profile.N,
        "Z": profile.Z,
        "reflected": [profile.N - z for z in reversed(profile.Z)],
        "delta": profile.delta,
        "witness": profile.witness,
        "count_pair": pair,
        "c_L": c_L,
        "c_R": c_R,
        "lambdas": lambdas,
        "rays": [{"ray": r, "mult": h} for r, h in zip(rs.rays, rs.mults)],
        "negative_edges": graph.negative_edges,
        "positive_edges": graph.positive_edges,
    }
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv([_cell_fields(profile, c_L, c_R)])
    else:
        lines = [
            f"k={args.k} a={profile.a} N={profile.N}",
            f"Z        = {_fmt_set(profile.Z)}",
            f"N-Z      = {_fmt_set(record['reflected'])}",
            f"dist     = {profile.delta} (witness {profile.witness})",
            f"caps     = c_L={c_L}, c_R={c_R}; internal gaps {lambdas}",
            f"pair     = {pair} (sum {sum(pair)})",
            "rays     = "
            + ", ".join(f"{r}:{h}" for r, h in zip(rs.rays, rs.mults)),
            f"gap graph: negative {list(graph.negative_edges)}, "
            f"positive {list(graph.positive_edges)}",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_rays(args) -> int:
    rs = lattice.ray_system(args.k, check_family_one_params(args.k, args.a))
    p = rs.params
    U = rs.cut_values()
    # the last ray has no cut value; one format reads the rows, once
    rows = itertools.zip_longest(rs.rays, rs.mults, U, fillvalue="")
    if args.format == "json":
        record = {
            **p._asdict(),
            "N": p.N,
            "rays": rs.rays,
            "mults": rs.mults,
            "cut_values": U,
        }
        text = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["index,ray_x,ray_y,mult,cut_value"]
        lines += [f"{i},{x},{y},{h},{u}" for i, ((x, y), h, u) in enumerate(rows)]
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            f"k={p.k} a={p.a} m={p.m} n={p.n} e={p.e} N={p.N} "
            f"L(x,y)={p.m}x{p.n - p.e:+}y",
            "ray        mult  cut",
        ]
        for (x, y), h, u in rows:
            lines.append(f"({x:>2},{y:>2})  {h:>5}  {'-' if u == '' else u:>4}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _scan_text(rows, summary, fmt: str) -> str:
    if fmt == "table":
        lines = ["   k   a  delta  c_L  c_R  pair        Z"]
        for r in rows:
            flag = "" if r.ok else "  FAIL: " + "; ".join(r.failures)
            lines.append(
                f"{r.k:>4} {r.a:>3} {r.delta:>6} {r.c_L:>4} {r.c_R:>4}  "
                f"{str(r.count_pair):<10}  {_fmt_set(r.Z)}{flag}"
            )
        lines.append(
            f"cells={summary.cells} failures={summary.failures} "
            f"even-k sums: k-2 x{summary.sum_k_minus_2}, k x{summary.sum_k}"
        )
        return "\n".join(lines) + "\n"
    records = [
        {**_cell_fields(r, r.c_L, r.c_R), "lattice_agrees": r.lattice_agrees} for r in rows
    ]
    if fmt == "csv":
        return _csv(records)
    lines = [json.dumps({**rec, "failures": r.failures}) for rec, r in zip(records, rows)]
    summary_record = {
        "cells": summary.cells,
        "failures": summary.failures,
        "even_k_sum_k_minus_2": summary.sum_k_minus_2,
        "even_k_sum_k": summary.sum_k,
    }
    lines.append(json.dumps({"summary": summary_record}))
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    # Imported here: ScanRow is a dataclass, and the dataclasses module
    # would add to the start-up of every other command.
    from . import scan

    rows, summary = scan.run_scan(args.k_min, args.k_max, jobs=args.jobs)
    _emit(_scan_text(rows, summary, args.format), args.out)
    if summary.failures:
        bad = summary.first_failure
        print(
            f"FAILED: {summary.failures} check failures; "
            f"first at k={bad.k} a={bad.a}: {bad.failures[0]}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def _build_one(args):
    realized = family_one.realize_disjoint_pair(args.k, args.a)
    print(f"realization stage: {realized.stage}", file=sys.stderr)
    a = realized.path1.digraph.gens[0][0]  # args.a reduced mod k
    return {"k": args.k, "a": a}, (realized.path1, realized.path2)


def _build_two(args):
    return {"a": args.a, "L": args.L}, family_two.build_family_two(args.a, args.L)


def _build_product(args):
    pair = products.build_three_factor(args.m, args.n, args.l)
    return {"m": args.m, "n": args.n, "l": args.l}, pair


def _build_search(args):
    digraph = cayley(args.orders, args.gen_a, args.gen_b)
    if digraph.group.size > SEARCH_MAX_ORDER:
        raise InputError(
            f"build search takes at most {SEARCH_MAX_ORDER} vertices, got {digraph.group.size}"
        )
    pair = cosets.find_pair(digraph)
    return {f"order_{i}": o for i, o in enumerate(args.orders)}, pair


def cmd_build(args) -> int:
    # Every builder returns only a pair that its own core.check_pair
    # call accepted, so the pair is checked once, there, and not here.
    params, pair = args.build(args)
    wf = WitnessFile(args.family, params, pair[0].digraph, pair[0], pair[1])
    _emit(wf.to_json(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedWitness(f"not UTF-8 text: {exc}") from None
    reason = witness_from_json(text).verify()
    if reason:
        print(f"verification failed: {reason}", file=sys.stderr)
        return EXIT_FAIL
    print("ok", file=sys.stderr)
    return EXIT_OK


# Each command, once: its words, its help, its positional names and their
# type, its options, and what its parser's set_defaults gives it.  Both
# command_parser and build_parser build a command's parser from this
# table, by _add_command.
_COMMANDS = {
    "cuts": ("cut set, reflection distance, caps, gap graph", "k a", int, "format out",
             {"func": cmd_cuts}),
    "rays": ("lattice ray table for (k, a)", "k a", int, "format out", {"func": cmd_rays}),
    "scan": ("sweep (k, a) cells and run all six consistency checks", "k_min k_max", int,
             "format out jobs", {"func": cmd_scan}),
    "build one": ("Cay(Z_k; a, a+1)", "k a", int, "out",
                  {"func": cmd_build, "build": _build_one, "family": "one"}),
    "build two": ("Cay(Z_{(2a+1)L}; -a, a+1)", "a L", int, "out",
                  {"func": cmd_build, "build": _build_two, "family": "two"}),
    "build product": ("C_m x C_n x C_l", "m n l", int, "out",
                      {"func": cmd_build, "build": _build_product, "family": "product"}),
    "build search": ("any two-generated Cay(G; a, b), by its cosets", "orders gen_a gen_b",
                     _intlist, "out",
                     {"func": cmd_build, "build": _build_search, "family": "search"}),
    "verify": ("re-verify a witness file", "file", None, "", {"func": cmd_verify}),
}

_OPTIONS = {
    "format": {"choices": FORMATS, "default": "table"},
    "out": {"help": "write the data to this file instead of stdout"},
    "jobs": {"type": int, "default": 1, "help": "worker processes"},
}


def _add_command(p: argparse.ArgumentParser, words: str) -> argparse.ArgumentParser:
    """p with the arguments and defaults of the command `words`."""
    _, names, arg_type, options, defaults = _COMMANDS[words]
    for name in names.split():
        p.add_argument(name, type=arg_type)
    for name in options.split():
        p.add_argument("--" + name, **_OPTIONS[name])
    p.set_defaults(**defaults)
    return p


@functools.cache
def command_parser(words: str) -> argparse.ArgumentParser:
    """The parser of the command `words` alone, built on first use."""
    return _add_command(argparse.ArgumentParser(prog="hampair " + words), words)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built from _COMMANDS once per process.
    main parses with it only an argv that names no command, so that
    argparse writes the help and the usage errors of the root and of
    `build`."""
    parser = argparse.ArgumentParser(
        prog="hampair",
        description="Arc-disjoint Hamiltonian path pairs in two-generated "
        "abelian Cayley digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = None
    for words, (help_text, *_) in _COMMANDS.items():
        command, _, family = words.partition(" ")
        if not family:
            _add_command(sub.add_parser(command, help=help_text), words)
            continue
        if families is None:
            build = sub.add_parser(command, help="construct and emit a witness file")
            families = build.add_subparsers(dest="family", required=True)
        _add_command(families.add_parser(family, help=help_text), words)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command's words: two after `build`, one otherwise, none of
    # them holding a space ("build one" as one word names no command).
    n = 2 if argv[:1] == ["build"] else 1
    words = " ".join(argv[:n])
    if words in _COMMANDS and words.count(" ") == n - 1:
        args = command_parser(words).parse_args(argv[n:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for cls, code, text in _FAILURES:
            if isinstance(exc, cls):
                line = text.format(exc)
                break
        else:
            raise
    # Reported once the handler is left: the traceback, and all that a run
    # which ran out of memory holds, is freed by then.
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
