"""One timed pass over a workload, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload NAME --seed N --index I [--trace]

A fresh interpreter per pass starts the package's lru_caches cold, as
each CLI call does, and makes peak RSS a per-pass figure.  Prints one
JSON line with the item count and the CLOCK_MONOTONIC time at which the
first item is sent (the parent times set-up from its spawn to there),
then, after the pass, one JSON line with the pass's figures and the
failures its checks found.

The speed of a shared host drifts by a third over minutes (see
NOTES.md), so the pass also times a fixed calibration loop before the
first item, between items every CALIBRATE_EVERY_S and after the last
item.  The loop's time is left out of wall_s; its mean, cal_s, lets the
parent convert every time of the pass to reference seconds.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

CALIBRATE_EVERY_S = 0.2

# A fixed 14-vertex graph for the calibration loop, as bitmask rows.
CAL_N = 14
CAL_ADJ = [
    sum(1 << j for j in range(CAL_N)
        if i != j and ((i * j + i + j) % 3 == 0 or abs(i - j) == 1))
    for i in range(CAL_N)
]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refine(cells: list[int], queue: list[int]) -> list[int]:
    while queue:
        splitter = queue.pop()
        out = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            groups: dict[int, int] = {}
            for v in _bits(cell):
                k = (CAL_ADJ[v] & splitter).bit_count()
                groups[k] = groups.get(k, 0) | (1 << v)
            if len(groups) == 1:
                out.append(cell)
                continue
            for k in sorted(groups, reverse=True):
                out.append(groups[k])
                queue.append(groups[k])
        cells = out
    return cells


def calibration_loop() -> float:
    """Time a fixed partition refinement, the kind of work gturan's
    canonical labeling does (bit tricks, generators, dicts, lists).  It
    is the benchmark's own code, so no change to gturan moves it."""
    start = time.perf_counter()
    full = (1 << CAL_N) - 1
    for _ in range(20):
        for v in range(CAL_N):
            _refine([1 << v, full ^ (1 << v)], [1 << v])
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    make, run, check = workloads.WORKLOADS[args.workload]
    items = make(random.Random(f"{args.workload}:{args.seed}:{args.index}"))
    tracer = tracing.install() if args.trace else None
    clock = time.perf_counter
    loops = [calibration_loop()]
    print(json.dumps({"items": len(items), "first_item_at": time.monotonic()}), flush=True)

    outputs = []
    wall = 0.0
    next_loop = clock() + CALIBRATE_EVERY_S
    for item in items:
        if clock() >= next_loop:
            loops.append(calibration_loop())
            next_loop = clock() + CALIBRATE_EVERY_S
        start = clock()
        try:
            outputs.append(run(item))
        except (Exception, SystemExit) as exc:  # the item fails, the pass goes on
            outputs.append(exc)
        wall += clock() - start
    loops.append(calibration_loop())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = tracer.metrics() if tracer else {}

    failures = []
    for item, out in zip(items, outputs):
        try:
            problem = repr(out) if isinstance(out, BaseException) else check(item, out)
        except Exception as exc:  # an unreadable output fails its item
            problem = f"check raised {exc!r}"
        if problem:
            failures.append(f"{workloads.describe(item)}: {problem}")
    print(json.dumps({
        "wall_s": wall,
        "cal_s": sum(loops) / len(loops),
        "peak_rss_mib": peak_kib / 1024,
        "attempted": len(items),
        "failed": len(failures),
        "failures": failures[:10],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
