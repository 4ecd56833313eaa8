"""Run perfbench on two checkouts in alternating pairs and summarise them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seed S --out BENCH_<pr>.json

PARENT and CHANGE are the roots of two derm checkouts. Pair i runs
`perfbench/run.py --workload W --seed S+i --trace 0` in each tree's root
(perfbench sets the run length), PARENT first on even i and CHANGE first on
odd i, so both runs of a pair see the same machine drift. Each run's last
output line is its JSON result. After every pair the script rewrites --out with, for each
end-to-end metric of BENCHMARK.json (unit, direction and bound read from
CHANGE's copy):
  each tree's values, median and quartiles (numpy's linear percentiles);
  the change/parent ratio of the medians and of each pair, and the median
  pair ratio of the parent-first pairs and of the change-first pairs apart,
  so an effect of the order shows;
  the pairs the change won (ties count for neither side);
  the spread of the parent's runs, its interquartile range over its median;
  a verdict: "gain" when the change won at least nine tenths of the pairs,
  its median beats the parent's by more than the parent's interquartile
  range, and its runs failed no more checks than the parent's; else
  "unresolved" when the parent's spread is wider than the bound and not
  every change run beats every parent run; else "regression" when the
  change's median is worse by more than the bound; else "within bound".
Beside them go each run's correct flag and failed/attempted checks, each
tree's non-blank src/derm/*.py and tests/*.py lines and the keys of its
`derm default-config` (as compare_pipeline counts them), nproc, and the
Python and numpy versions. A file that already holds other workloads keeps
them, so a second workload merges in. Exits 2 if a run fails to produce its
result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from compare_pipeline import config_keys, derm, nonblank_lines

TREES = ("parent", "change")
CLAIM_SHARE = 0.9  # share of pairs the change must win to claim a gain


def run_bench(root: Path, workload: str, seed: int) -> dict:
    """The JSON result line of one untraced perfbench run in root."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        print(f"{root}: perfbench {workload} seed {seed} failed "
              f"(exit {proc.returncode}):\n{proc.stdout[-2000:]}"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        sys.exit(2)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "values": list(values)}


def median_ratio(ratios: list[float | None]) -> float | None:
    """The median of the ratios that exist, or None if none does."""
    known = [r for r in ratios if r is not None]
    return float(np.median(known)) if known else None


def summarize(parent: list[float], change: list[float], better: str,
              bound: float, failed: tuple[int, int] = (0, 0)) -> dict:
    """The comparison of one metric over pairs: parent[i] and change[i] are
    pair i's two runs, the parent's first on even i; better is "lower" or
    "higher"; failed holds the parent's and the change's failed checks over
    all their runs."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0: b is better
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    gain = sign * (p["median"] - c["median"])
    spread = iqr / abs(p["median"]) if p["median"] else 0.0
    worse_by = -gain / abs(p["median"]) if p["median"] else 0.0
    all_better = all(sign * (a - b) > 0 for a in parent for b in change)
    ratios = [b / a if a else None for a, b in zip(parent, change)]
    if (wins >= CLAIM_SHARE * len(parent) and gain > iqr
            and failed[1] <= failed[0]):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "better": better, "bound": bound,
        "parent": p, "change": c,
        "ratio": c["median"] / p["median"] if p["median"] else None,
        "pair_ratios": ratios,
        "parent_first_ratio": median_ratio(ratios[0::2]),
        "change_first_ratio": median_ratio(ratios[1::2]),
        "wins": wins, "ties": ties, "pairs": len(parent),
        "parent_iqr": iqr, "parent_spread": spread,
        "verdict": verdict,
    }


def summarize_workload(spec: dict, runs: dict[str, list[dict]],
                       seeds: list[int]) -> dict:
    """Every end-to-end metric of spec summarised over the pairs in runs."""
    checks = {t: {"correct_runs": sum(r["correct"] for r in runs[t]),
                  "runs": len(runs[t]),
                  "failed": sum(r["failed"] for r in runs[t]),
                  "attempted": sum(r["attempted"] for r in runs[t])}
              for t in TREES}
    failed = tuple(checks[t]["failed"] for t in TREES)
    metrics = {}
    for m in spec["end_to_end"]:
        parent, change = ([r["metrics"][m["name"]] for r in runs[t]]
                          for t in TREES)
        metrics[m["name"]] = {"unit": m["unit"],
                              **summarize(parent, change, m["better"],
                                          m["bound"], failed)}
    return {"seeds": seeds,
            "first": [TREES[i % 2] for i in range(len(seeds))],
            "checks": checks, "metrics": metrics,
            "runs": {t: [{"correct": r["correct"], "failed": r["failed"],
                          "attempted": r["attempted"]} for r in runs[t]]
                     for t in TREES}}


def tree_info(roots: list[Path]) -> dict:
    return {t: {"src_lines": nonblank_lines(root / "src" / "derm"),
                "tests_lines": nonblank_lines(root / "tests"),
                "config_keys": config_keys(
                    derm(root, root, ["default-config"])[0])}
            for t, root in zip(TREES, roots)}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True,
                    choices=("offline", "grid", "serve"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    roots = [args.parent, args.change]
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench.update({"trees": tree_info(roots), "nproc": os.cpu_count(),
                  "python": platform.python_version(),
                  "numpy": np.__version__})
    bench.setdefault("workloads", {})
    runs: dict[str, list[dict]] = {t: [] for t in TREES}
    seeds = []
    for i in range(args.pairs):
        seed = args.seed + i
        for t in (0, 1) if i % 2 == 0 else (1, 0):
            runs[TREES[t]].append(run_bench(roots[t], args.workload, seed))
        seeds.append(seed)
        pair = {name: (runs["parent"][-1]["metrics"][name],
                       runs["change"][-1]["metrics"][name])
                for name in ("peak_rss_mb", "setup_s", "op_p50_s")}
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{name} {a:.4g} -> {b:.4g}" for name, (a, b) in pair.items()),
            flush=True)
        bench["workloads"][args.workload] = summarize_workload(
            spec, runs, seeds)
        args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    for name, m in bench["workloads"][args.workload]["metrics"].items():
        print(f"  {name:<12} parent {m['parent']['median']:.4g} "
              f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change "
              f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
              f"{m['change']['q3']:.4g}]  ratio {m['ratio'] or 0:.3f} "
              f"(parent first {m['parent_first_ratio'] or 0:.3f}, change "
              f"first {m['change_first_ratio'] or 0:.3f})  "
              f"wins {m['wins']}/{m['pairs']}  {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
