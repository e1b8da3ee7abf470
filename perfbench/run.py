"""The hampair benchmark.

    python3 perfbench/run.py --workload sweep|construct|search --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of a workload runs in a
fresh interpreter (perfbench/worker.py) that imports hampair from src/,
so every pass pays the start-up a command-line user pays, and per-process
caches never carry over between passes.  Passes repeat until S seconds
have gone by and at least MIN_ITEMS items have run.  Item times and
set-up are scaled to a reference machine speed (calibrate.py); the
unscaled wall figures are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same
untraced passes, then one traced pass, and prints the per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the run environment.

Other files: workloads.py (items, runs, checks), answerkey.py (checks
that do not import hampair), spans.py (the traced run), refs/ (reference
tables, made by make_refs.py), selfcheck.py (shows that corrupted
outputs count as failures), baseline.json (metric-to-layer map, measured
spreads and the baseline these were taken at).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, measure
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_ITEMS = 100
# Set-up is timed on this many interpreter launches that only set up;
# one more launch before them, untimed, fills the bytecode cache.
SETUP_PROBES = 7
PASS_TIMEOUT_S = 60


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def launch(workload: str, seed: int, mode: str) -> tuple[float, dict]:
    """Run one worker; return its wall set-up time and its result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HAMPAIR_")}
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(OUT)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PASS_TIMEOUT_S)
        first = proc.stdout.readline() if ready else ""
        setup = perf_counter() - t0
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} {mode} pass took over {PASS_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise HarnessError(f"worker for {workload} exited with {proc.returncode}")
    if mode == "probe":
        return setup, {}
    return setup, json.loads(rest.strip().splitlines()[-1])


def setup_time(workload: str, seed: int) -> tuple[float, float]:
    """Set-up of one probe launch: wall seconds, and seconds scaled to
    the reference speed by kernel timings taken before and after."""
    before = measure()
    wall, _ = launch(workload, seed, "probe")
    return wall, wall * REFERENCE_S * 2 / (before + measure())


def run_passes(workload: str, seed: int, seconds: float) -> list[dict]:
    passes = []
    items = 0
    t0 = perf_counter()
    while True:
        passes.append(launch(workload, seed, "run")[1])
        items += len(passes[-1]["times"])
        elapsed = perf_counter() - t0
        if (elapsed >= seconds and items >= MIN_ITEMS) or elapsed >= 2 * seconds:
            return passes


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(passes: list[dict]) -> dict:
    times = [t for p in passes for t in p["times"]]
    wall = [t for p in passes for t in p["wall"]]
    errors = [e for p in passes for e in p["errors"] if e]
    ok = len(times) - len(errors)
    return {
        "attempted": len(times),
        "failed": len(errors),
        "first_errors": errors[:3],
        "reference_errors": [e for p in passes for e in p["reference_errors"]],
        "items_per_s": ok / sum(times),
        "item_p50_ms": 1000 * percentile(times, 50),
        "item_p90_ms": 1000 * percentile(times, 90),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
        "wall_items_per_s": ok / sum(wall),
        "wall_item_p50_ms": 1000 * percentile(wall, 50),
        "wall_item_p90_ms": 1000 * percentile(wall, 90),
    }


def environment(args, passes: list[dict]) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    kinds: dict[str, int] = {}
    for kind in passes[0]["kinds"]:
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "passes": len(passes),
        "items_per_pass": len(passes[0]["kinds"]),
        "items_per_pass_by_kind": kinds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hampair" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'hampair'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace == 0:
            setups = [setup_time(args.workload, args.seed) for _ in range(SETUP_PROBES + 1)][1:]
            passes = run_passes(args.workload, args.seed, args.seconds)
            s = summarize(passes)
            s["wall_setup_s"] = statistics.median(wall for wall, _ in setups)
            metrics = {
                "items_per_s": (s["items_per_s"], "1/s"),
                "item_p50_ms": (s["item_p50_ms"], "ms"),
                "item_p90_ms": (s["item_p90_ms"], "ms"),
                "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
                "peak_rss_mb": (s["peak_rss_mb"], "MB"),
                "ok_ratio": ((s["attempted"] - s["failed"]) / s["attempted"], "ratio"),
            }
        else:
            passes = run_passes(args.workload, args.seed, args.seconds)
            _, traced = launch(args.workload, args.seed, "trace")
            s = summarize(passes)
            t = summarize([traced])
            layers = dict(traced["layers"])
            layers["trace.overhead_ratio"] = t["items_per_s"] / s["items_per_s"]
            metrics = {k: (v, unit(k)) for k, v in layers.items()}
            passes = passes + [traced]
            s = summarize(passes)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)
    env = environment(args, passes)
    env["items"] = s["attempted"]
    env["fail_ratio"] = s["failed"] / s["attempted"]
    for line in s["first_errors"] + s["reference_errors"]:
        print(f"FAILED {line}")
    for name, (value, u) in metrics.items():
        print(f"{args.workload:<10} {name:<46} {value:>14.6g} {u}")
    for name in ("wall_items_per_s", "wall_item_p50_ms", "wall_item_p90_ms", "wall_setup_s"):
        if name in s:
            print(f"{args.workload:<10} {name + ' (unscaled)':<46} {s[name]:>14.6g}")
    print(f"{args.workload:<10} {'items':<46} {s['attempted']:>14} count")
    print(f"{args.workload:<10} {'fail_ratio':<46} {env['fail_ratio']:>14.6g} ratio")
    print(json.dumps({"environment": env}))
    print(
        json.dumps(
            {
                "correct": s["failed"] == 0 and not s["reference_errors"],
                "attempted": s["attempted"],
                "failed": s["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def unit(metric: str) -> str:
    if metric.endswith("_s") and not metric.endswith("per_s"):
        return "s"
    if metric.endswith("bytes_per_s"):
        return "B/s"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith(("_ratio", "per_item")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
