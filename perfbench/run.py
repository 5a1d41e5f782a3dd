"""gturan benchmark: one closed-loop client, timed end to end and per layer.

    python3 perfbench/run.py --workload {search,bounds,localize,isomorphism,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Each pass over the workload runs in a
fresh interpreter (``one_pass.py``); passes repeat while the next one is
expected to end within ``--seconds``, and each figure is the median over
passes.  Pass i draws its inputs from (workload, seed, i), so one seed
always gives the same inputs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall_s (one
pass over the items), setup_s (spawn to first item: interpreter start,
``import gturan``, input generation) and peak_rss_mib.  --trace 1
alternates untraced and traced passes on the inputs of pass 0 and
reports the per-layer metrics and the tracing overhead.  Both print
fail_frac = failed / attempted.

Every time reported is in reference seconds: the raw seconds of a pass
times CAL_REF_S over the mean time of the pass's calibration loop (see
one_pass.py).  The raw wall time is printed beside it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every figure
with its unit, median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "bounds", "localize", "isomorphism")
RUN_LIMIT_S = 170  # every pass of a run ends within this
CAL_REF_S = 0.015  # the calibration loop on the reference host (NOTES.md)


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, index: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index)] + (["--trace"] if traced else [])
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        if not out:
            raise BenchError(f"{workload} pass {index} timed out in set-up") from None
        items = json.loads(out.splitlines()[0])["items"]
        # every item of a pass that never finishes counts as failed
        return {"timed_out": True, "attempted": items, "failed": items,
                "failures": [f"{workload} pass {index} timed out"]}
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {index} exited {proc.returncode}:\n{err[-2000:]}")
    head, result = (json.loads(line) for line in out.splitlines()[-2:])
    scale = CAL_REF_S / result["cal_s"]
    result["raw_wall_s"] = result["wall_s"]
    result["wall_s"] *= scale
    result["setup_s"] = (head["first_item_at"] - spawned) * scale
    for name in result["layers"]:
        if name.endswith("self_s"):
            result["layers"][name] *= scale
    return result


def layer_samples(traced: list[dict], untraced: list[dict], units: dict) -> dict:
    samples: dict[str, list[float]] = {name: [] for name in units}
    for p in traced:
        layers = p["layers"]
        children = layers.get("search.children", 0)
        layers["search.kept_ratio"] = layers.get("search.classes", 0) / children if children else 0.0
        calls = layers.get("freeness.passes_constraints.calls", 0)
        layers["freeness.passes_constraints.pass_ratio"] = (
            layers.get("freeness.passes_constraints.passed", 0) / calls if calls else 0.0)
        for name, unit in units.items():
            samples[name].append(layers.get(name, 0 if unit == "count" else 0.0))
    samples["trace.overhead_s"] = [statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced)]
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    timed_out: list[dict] = []
    durations: list[float] = []
    while True:
        use_trace = trace and len(traced) < len(untraced)
        began = time.monotonic()
        result = run_pass(workload, seed, 0 if trace else len(untraced) + len(timed_out),
                          use_trace, start + RUN_LIMIT_S - began)
        durations.append(time.monotonic() - began)
        if result.get("timed_out"):
            timed_out.append(result)
        else:
            (traced if use_trace else untraced).append(result)
        elapsed = time.monotonic() - start
        if elapsed > RUN_LIMIT_S / 2:
            break
        if (traced or not trace) and untraced and elapsed + statistics.median(durations) > seconds:
            break
    if not untraced or (trace and not traced):
        raise BenchError(f"{workload}: no pass finished")

    passes = untraced + traced + timed_out
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f for p in passes for f in p["failures"]][:10]
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        # print every figure the tracer has; the JSON line keeps the declared ones
        units = tracing.figure_units() | declared
        samples = layer_samples(traced, untraced, units)
    else:
        units = declared
        samples = {name: [p[name] for p in untraced] for name in units}
    metrics = {}
    print(f"{workload}: {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(timed_out)} timed-out passes; seed {seed}")
    for name, unit in units.items():
        values = samples[name]
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        value = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"  {name:44s} {value:14.6g} {unit:5s}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        if name in declared:
            metrics[name] = {"value": value, "unit": unit}
    print(f"  {'fail_frac':44s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} items)")
    print(f"  raw wall_s median {statistics.median(p['raw_wall_s'] for p in untraced):.6g} s, "
          f"calibration loop median {statistics.median(p['cal_s'] for p in untraced) * 1e3:.4g} ms "
          f"(reference {CAL_REF_S * 1e3:.4g} ms)")
    for line in problems:
        print(f"  FAILED {line}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gturan" / "__init__.py").is_file():
        print(f"no gturan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec)
                   for w in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
