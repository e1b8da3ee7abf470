"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUTDIR

MODE is `probe` (set up and exit), `run` or `trace`.  The worker imports
hampair from the checkout's src/, builds the seeded item list, prints
"ready" (the launcher times set-up up to that line), runs every item once
with a closed loop, checks each output outside the item timer, and prints
one JSON line with the per-item results.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from calibrate import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_package():
    sys.path.insert(0, str(SRC))
    import hampair
    import hampair.cli
    import hampair.scan

    if Path(hampair.__file__).resolve().parent != SRC / "hampair":
        raise ImportError(f"hampair was imported from {hampair.__file__}, not {SRC}")
    return hampair


def run_pass(
    runner,
    items: list[tuple],
    tracer=None,
    tamper: Optional[Callable[[int, object], object]] = None,
) -> dict:
    """Run, time and check every item; `tamper(i, out)` may replace an
    output before it is checked (used by the harness self-check).

    `times` are wall times scaled to the reference speed (calibrate.py),
    `wall` the raw wall times."""
    times, wall, errors = [], [], []
    cal = Calibration()
    keep = runner.reference_sample(items)
    kept = {}
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        before = cal.current()
        t0 = perf_counter()
        try:
            out = runner.run(item)
        except Exception:  # an item that raises is a failed item, not a crash
            out, raised = None, traceback.format_exc(limit=-1).strip()
        else:
            raised = None
        dt = perf_counter() - t0
        wall.append(dt)
        times.append(dt * REFERENCE_S * 2 / (before + cal.current()))
        if raised:
            errors.append(f"{item}: raised {raised}")
            continue
        if tamper is not None:
            out = tamper(i, out)
        try:
            err = runner.check(item, out)
        except Exception:  # a malformed output is a failed item too
            err = f"check raised {traceback.format_exc(limit=-1).strip()}"
        errors.append(f"{item}: {err}" if err else None)
        if i in keep:
            kept[i] = out
    if tracer is not None:
        tracer.item = None
    reference_errors = []
    for i, out in kept.items():
        err = runner.reference_check(items[i], out)
        if err:
            reference_errors.append(err)
    return {"times": times, "wall": wall, "errors": errors, "reference_errors": reference_errors}


def main(argv: list[str]) -> int:
    workload, seed, mode, outdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    hp = import_package()
    import workloads

    items = workloads.make_items(workload, seed)
    print("ready", flush=True)
    if mode == "probe":
        return 0
    work = outdir / "work"
    work.mkdir(exist_ok=True)
    runner = workloads.Runner(hp, workload, seed, work)
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_pass(runner, items, tracer)
    result["kinds"] = [item[0] for item in items]
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["numpy"] = getattr(sys.modules.get("numpy"), "__version__", None)
    if tracer is not None:
        result["layers"] = tracer.metrics(len(items))
        tracer.write(str(outdir / f"spans-{workload}-seed{seed}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
