"""Benchmark for derm: the offline build path, an experiment grid, and store
serving, each checked for correct output.

  python3 perfbench/run.py --workload offline|grid|serve|all --seed N \\
      --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing. The metric
names, units and bounds are those of BENCHMARK.json beside this directory.
With --trace 0 the last line of output carries every end-to-end metric, with
--trace 1 every per-layer metric. Lines before it name the metrics of the
workload in their own units and record informational fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

import loadgen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> dict:
    return json.loads(path.read_text())


def src_lines() -> int:
    """Non-blank lines of the derm package."""
    return sum(1 for p in sorted((SRC / "derm").rglob("*.py"))
               for line in p.read_text().splitlines() if line.strip())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(res, run) -> tuple[dict[str, float], float | None]:
    """End-to-end metrics of a run, and the tail percentile used."""
    ops = res.op_s
    p50, tail, pct = res.p50_s, res.tail_s, res.tail_pct
    if p50 is None and ops:
        p50 = statistics.median(ops)
        pct = loadgen.tail_percentile(len(ops))
        tail = float(np.percentile(ops, pct)) if pct else max(ops)
    return {
        "setup_s": statistics.median(res.setup_s) if res.setup_s else 0.0,
        "op_p50_s": p50 or 0.0,
        "op_tail_s": tail or 0.0,
        "ops_per_s": res.ops_per_s,
        "peak_rss_mb": run.peak_rss_mb,
    }, pct


def per_layer(res) -> dict[str, float]:
    values = dict(res.layers)
    ops = max(len(res.op_s), 1)
    for stage, seconds in res.stages.items():
        values[f"stage.{stage}.s"] = seconds / ops
    values["lifecycle.infer.useful_ratio"] = _ratio(
        values.get("lifecycle.dedup_day.kept", 0),
        values.get("lifecycle.infer_daily.records", 0))
    values["store.lookup.hit_ratio"] = _ratio(
        values.get("store.lookup.hits", 0),
        values.get("store.lookup.calls", 0))
    values["trace.overhead_ratio"] = _ratio(res.info.get("traced_wall_s", 0),
                                            res.info.get("untraced_wall_s", 0))
    return values


def readable(name: str, res, e2e: dict, pct,
             run) -> list[tuple[str, float, str]]:
    """The workload's metrics under their own names and units."""
    rows = [("setup_s", e2e["setup_s"], "s")]
    if name == "offline":
        ops = max(len(res.op_s), 1)
        rows += [("pipeline_s", e2e["op_p50_s"], "s"),
                 ("train_upstream_s", res.stages["train_upstream"] / ops, "s"),
                 ("train_downstream_s", res.stages["train_downstream"] / ops,
                  "s"),
                 ("test_roc_auc", res.info.get("test_roc_auc", math.nan), "")]
    elif name == "grid":
        rows += [("grid_s", e2e["op_p50_s"], "s")]
    else:
        tail = f"serve_p{pct:g}_us" if pct else "serve_max_us"
        rows += [("serve_rps", e2e["ops_per_s"], "req/s"),
                 ("serve_p50_us", e2e["op_p50_s"] * 1e6, "us"),
                 (tail, e2e["op_tail_s"] * 1e6, "us")]
    rows += [("peak_rss_mb", run.peak_rss_mb, "MB"),
             ("error_rate", _ratio(run.failed, run.attempted),
              "failed/attempted")]
    return rows


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with workloads.Run(ROOT, work, seed, seconds,
                           spans_path=WORK / f"spans-{name}.npz") as run:
            res = workloads.WORKLOADS[name](run, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, pct = end_to_end(res, run)
    ops = res.info.get("serve_samples", len(res.op_s))
    print(f"workload {name}, seed {seed}: {ops} op(s), "
          f"{run.attempted} checks, {run.failed} failed")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    for metric, value, unit in readable(name, res, e2e, pct, run):
        print(f"  {metric:<22} {value:>14.6g} {unit}")
    info = {"workload": name, "seed": seed, "src_lines": src_lines(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "ops": ops,
            "op_tail_percentile": pct, **res.info}
    print("info " + json.dumps(info, sort_keys=True))
    if trace:
        values = per_layer(res)
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(e2e[m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("offline", "grid", "serve", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "derm" / "cli.py").is_file():
        print(f"error: no derm sources at {SRC / 'derm'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    names = (("offline", "grid", "serve") if args.workload == "all"
             else (args.workload,))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), spec)
    except Exception:
        traceback.print_exc()
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
