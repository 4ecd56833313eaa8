"""Run the default pipeline on two checkouts and compare what each writes.

    python tools/compare_pipeline.py PARENT CHANGE

PARENT and CHANGE are the roots of two derm checkouts. For each one the
script makes a temp dir and writes the default config there (and a copy that
sets `grid = inputs`). It then runs every stage as `python -m derm.cli` with
PYTHONPATH=<root>/src, in each tree's own dir:
  default-config (whose stdout is the config); generate; for ctr and cvr:
  train-upstream, infer --back-window 14, infer --day 15..17, aggregate,
  publish; then train-downstream and the heuristics and inputs experiment
  grids.
Each command runs in both trees before the next one starts, PARENT first on
even-numbered commands and CHANGE first on odd ones, so a command's two walls
are measured seconds apart and the machine's drift over the run falls on both.
Each command is started with Popen and reaped with os.wait4, whose
ru_maxrss is the command's peak resident set size: the largest peak among
the command and the children it reaped (an experiment's forked workers), not
their sum and not the command's own alone. It then compares every
file under run/ and each command's stdout, prints one `DIFF <what>` line per
difference (a stdout's line is followed by the first DIFF_LINES lines of
its unified diff), a summary line, one line per command with its wall
seconds and its peak RSS in each tree and the change/parent ratio of each
(for information only), each tree's count of non-blank lines in
src/derm/*.py beside its count in tests/*.py (so code moved from src/ to
tests/ shows as a move), and each tree's count of config keys (so an option
added or removed shows as a moved line does), and exits 1 if anything
differs (2 if a command fails).
"""

from __future__ import annotations

import difflib
import itertools
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

INPUTS_INI = "inputs.ini"
DIFF_LINES = 40
KEY_LINE = re.compile(r"[A-Za-z_]\w* = ")


def commands() -> list[list[str]]:
    out = [["generate"]]
    for model in ("ctr", "cvr"):
        out += [["train-upstream", "--model", model],
                ["infer", "--model", model, "--back-window", "14"]]
        out += [["infer", "--model", model, "--day", str(day)]
                for day in (15, 16, 17)]
        out += [["aggregate", "--model", model], ["publish", "--model", model]]
    return out + [["train-downstream"], ["experiment"],
                  ["experiment", "-c", INPUTS_INI]]


def nonblank_lines(folder: Path) -> int:
    """Non-blank lines of folder/*.py, as `grep -cv '^\\s*$'` counts them."""
    return sum(1 for p in folder.glob("*.py")
               for line in p.read_text().split("\n") if line.strip())


def config_keys(text: str) -> int:
    """The `key = value` lines of a config text, as default-config
    prints it."""
    return sum(1 for line in text.splitlines() if KEY_LINE.match(line))


def derm(root: Path, work: Path, args: list[str]) -> tuple[str, float, float]:
    """(stdout, wall seconds, peak RSS in MB) of one command of root's derm,
    run in work."""
    env = {**os.environ, "PYTHONPATH": str(root.resolve() / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "derm.cli", *args],
                                cwd=work, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        print(f"{root}: derm {' '.join(args)} failed:\n{stderr}",
              file=sys.stderr)
        sys.exit(2)
    return stdout, wall, usage.ru_maxrss / 1024.0


def write_configs(work: Path, config: str) -> None:
    """The default config as work/derm.ini, and its copy that sets
    `grid = inputs`."""
    (work / "derm.ini").write_text(config)
    (work / INPUTS_INI).write_text(
        config.replace("grid = heuristics", "grid = inputs"))


def run_pipelines(roots: list[Path], works: list[Path]
                  ) -> list[tuple[dict[str, str], dict[str, float],
                                  dict[str, float]]]:
    """(stdout, wall seconds and peak RSS MB, each by command) for each tree,
    the trees taking turns to go first, one command at a time. The first
    command, default-config, writes each tree's config files."""
    results = [({}, {}, {}) for _ in roots]
    for (stdouts, walls, rss), root, work in zip(results, roots, works):
        cmd = "default-config"
        stdouts[cmd], walls[cmd], rss[cmd] = derm(root, work, [cmd])
        write_configs(work, stdouts[cmd])
    for i, args in enumerate(commands()):
        print(f"derm {' '.join(args)}", flush=True)
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for t in order:
            stdouts, walls, rss = results[t]
            cmd = " ".join(args)
            stdouts[cmd], walls[cmd], rss[cmd] = derm(roots[t], works[t], args)
    return results


def run_files(work: Path) -> dict[str, bytes]:
    """run/ file bytes by relative path."""
    return {str(p.relative_to(work)): p.read_bytes()
            for p in sorted((work / "run").rglob("*")) if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    roots = [Path(a) for a in argv]
    with tempfile.TemporaryDirectory(prefix="derm-compare-") as tmp:
        works = [Path(tmp) / name for name in ("parent", "change")]
        for work in works:
            work.mkdir()
        (out_a, wall_a, rss_a), (out_b, wall_b, rss_b) = run_pipelines(roots,
                                                                       works)
        files_a, files_b = (run_files(work) for work in works)
    file_diffs = [p for p in sorted(files_a.keys() | files_b.keys())
                  if files_a.get(p) != files_b.get(p)]
    out_diffs = [c for c in out_a if out_a[c] != out_b[c]]
    for path in file_diffs:
        print(f"DIFF {path}")
    for cmd in out_diffs:
        print(f"DIFF stdout of `derm {cmd}`")
        diff = difflib.unified_diff(out_a[cmd].splitlines(), out_b[cmd].splitlines(),
                                    argv[0], argv[1], lineterm="")
        for line in itertools.islice(diff, DIFF_LINES):
            print(f"  {line}")
    total = len(files_a.keys() | files_b.keys())
    print(f"{len(file_diffs)} of {total} files differ; "
          f"{len(out_diffs)} of {len(out_a)} stdouts differ")
    print(f"wall seconds and peak RSS per command, {argv[0]} then {argv[1]}, "
          "each with its ratio (informational):")
    for cmd in out_a:
        print(f"  {wall_a[cmd]:7.2f} s  {wall_b[cmd]:7.2f} s  "
              f"{wall_b[cmd] / wall_a[cmd]:5.2f}   "
              f"{rss_a[cmd]:6.1f} MB  {rss_b[cmd]:6.1f} MB  "
              f"{rss_b[cmd] / rss_a[cmd]:5.2f}  derm {cmd}")
    for folder in ("src/derm", "tests"):
        parent, change = (nonblank_lines(root / folder) for root in roots)
        print(f"non-blank {folder}/*.py lines: {parent} in {argv[0]}, "
              f"{change} in {argv[1]} ({change - parent:+d})")
    parent, change = (config_keys(out["default-config"])
                      for out in (out_a, out_b))
    print(f"config keys: {parent} in {argv[0]}, {change} in {argv[1]} "
          f"({change - parent:+d})")
    return 1 if file_diffs or out_diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
