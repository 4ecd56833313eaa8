"""The benchmark's three workloads: offline, grid and serve.

Each workload has a set-up phase, timed several times and reported as its
median, and a measured phase. The untraced measured phase drives the real
`derm` command line in child processes, started through launcher.py, and
reads each child's peak RSS as it is reaped. With tracing on, the same
phase is then run again in-process through `derm.cli.main` with the public
functions of every module wrapped by spans.Patcher, which gives the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
from spans import Patcher, Tracer

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run; FULL is what run.py measures."""

    setups: int  # set-ups of offline and grid, each timed
    servers: int  # serve set-ups: servers launched, each timed and loaded
    sections: dict  # config overrides for every workload
    offline: dict  # config overrides for the offline workload
    grid: dict  # config overrides for the grid workload
    serve_size: int  # vectors published per source


FULL = Scale(
    setups=7,
    servers=4,
    sections={},
    offline={"downstream": {"derm_inputs": "ctr-user, ctr-pin"}},
    grid={"downstream": {"epochs": 8},
          "experiment": {"grid": "heuristics", "task": "ctr", "seeds": "0, 1",
                         "heuristics": "acc, ma0.8, ap",
                         "derm_inputs": "ctr-user, ctr-pin"}},
    serve_size=100_000,
)

# Small enough for the benchmark's own tests; same stages, same checks.
TOY = Scale(
    setups=1,
    servers=1,
    sections={"world": {"num_users": 12, "num_pins": 12}},
    offline={"upstream.ctr": {"epochs": 1},
             "downstream": {"derm_inputs": "ctr-user, ctr-pin", "epochs": 2}},
    grid={"downstream": {"epochs": 1},
          "experiment": {"grid": "heuristics", "task": "ctr", "seeds": "0",
                         "heuristics": "acc, ap",
                         "derm_inputs": "ctr-user, ctr-pin"}},
    serve_size=2_000,
)

OFFLINE_STAGES = (
    ("train_upstream", ("train-upstream", "--model", "ctr")),
    ("infer", ("infer", "--model", "ctr", "--back-window", "14")),
    ("infer", ("infer", "--model", "ctr", "--day", "15")),
    ("infer", ("infer", "--model", "ctr", "--day", "16")),
    ("infer", ("infer", "--model", "ctr", "--day", "17")),
    ("aggregate", ("aggregate", "--model", "ctr")),
    ("publish", ("publish", "--model", "ctr")),
    ("train_downstream", ("train-downstream",)),
)


@dataclass
class Result:
    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)  # wall of each op
    ops_per_s: float = 0.0
    p50_s: float | None = None  # set when ops are too many to keep
    tail_s: float | None = None
    tail_pct: float | None = None
    stages: Counter = field(default_factory=Counter)  # stage -> seconds
    layers: dict = field(default_factory=dict)  # per-layer metrics
    info: dict = field(default_factory=dict)


@dataclass
class Child:
    returncode: int
    wall_s: float
    stdout: str
    stderr: str
    rss_mb: float  # the child's own peak RSS


class Run:
    """One benchmark run: its work directory, child processes and checks.

    Use it as a context manager: it owns the launcher process that starts
    every child, and stops it on exit.
    """

    def __init__(self, root: Path, work: Path, seed: int, seconds: float,
                 scale: Scale = FULL, spans_path: Path | None = None):
        self.root = root
        self.work = work
        self.spans_path = spans_path or work / "spans.npz"
        self.seed = seed & 0x7FFFFFFF
        self.seconds = seconds
        self.scale = scale
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self._n = 0
        self._launcher = subprocess.Popen(
            [sys.executable, HERE / "launcher.py"], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=work)

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()
        self._launcher.stdout.close()

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    # -- child processes ---------------------------------------------------

    def _ask(self, request: dict) -> dict:
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        return json.loads(self._launcher.stdout.readline())

    def spawn(self, argv, stdout: Path, stderr: Path, cpus=None) -> int:
        """Start argv through the launcher; its pid."""
        return self._ask({"argv": [str(a) for a in argv], "env": self.env,
                          "cwd": str(self.work), "stdout": str(stdout),
                          "stderr": str(stderr),
                          "cpus": sorted(cpus) if cpus else None})["pid"]

    def reap(self, pid: int, timeout: float,
             counted: bool = True) -> tuple[int, float]:
        """Wait for pid, killing it after timeout; its exit code and peak
        RSS in MB. The RSS of a counted child, which is any derm process,
        also raises the run's peak_rss_mb."""
        timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            reply = self._ask({"wait": pid})
        finally:
            timer.cancel()
        if counted:
            self.peak_rss_mb = max(self.peak_rss_mb, reply["rss_mb"])
        return reply["returncode"], reply["rss_mb"]

    def output_paths(self) -> tuple[Path, Path]:
        """Fresh stdout and stderr files for the next child."""
        self._n += 1
        return (self.work / f"child{self._n}.out",
                self.work / f"child{self._n}.err")

    def child(self, argv, cpus=None, counted: bool = True) -> Child:
        out_path, err_path = self.output_paths()
        t0 = time.perf_counter()
        pid = self.spawn(argv, out_path, err_path, cpus)
        returncode, rss_mb = self.reap(pid, CHILD_TIMEOUT_S, counted)
        wall = time.perf_counter() - t0
        return Child(returncode, wall, out_path.read_text(),
                     err_path.read_text(), rss_mb)

    def cli(self, *args) -> Child:
        """Run `python -m derm.cli *args`, checking that it exits 0."""
        c = self.child([sys.executable, "-m", "derm.cli", *args])
        self.check(c.returncode == 0,
                   f"derm {args[0]} exited {c.returncode}: "
                   f"{c.stderr.strip()[-300:]}")
        return c

    # -- configs -----------------------------------------------------------

    def config(self, root: Path, *overrides: dict) -> Path:
        sections = {"world": {"seed": self.seed},
                    "paths": {"root": root},
                    "serve": {"host": "127.0.0.1", "port": 0}}
        for extra in (self.scale.sections, *overrides):
            for name, values in extra.items():
                sections.setdefault(name, {}).update(values)
        lines = []
        for name, values in sections.items():
            lines.append(f"[{name}]")
            lines += [f"{k} = {v}" for k, v in values.items()]
        root.mkdir(parents=True, exist_ok=True)
        path = root / "derm.ini"
        path.write_text("\n".join(lines) + "\n")
        return path

    def measure_ops(self, op) -> list[float]:
        """Call op() until the run's seconds are used up, at least once."""
        walls = []
        while not walls or sum(walls) < self.seconds:
            walls.append(op(len(walls)))
        return walls

    def startup_s(self) -> float:
        """Median wall time of a command-line call that does no work."""
        return statistics.median(self.cli("default-config").wall_s
                                 for _ in range(3))


@contextlib.contextmanager
def traced(run: Run, result: Result):
    """Trace derm in-process; fills result.layers when the block ends and
    writes the spans to run.spans_path."""
    tracer = Tracer()
    with Patcher(tracer), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        yield tracer
        wall = time.perf_counter() - t0
    tracer.save(run.spans_path)
    result.layers.update(layer_metrics(tracer))
    result.info["traced_wall_s"] = wall
    result.info["trace_root_coverage"] = tracer.root_seconds() / wall
    result.info["spans"] = len(tracer.start)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    out = {}
    for name, stats in tracer.summary().items():
        out[f"{name}.calls"] = stats["calls"]
        out[f"{name}.s"] = stats["self_s"]
    out.update(tracer.counts)
    return out


def untraced_in_process(run: Run, res: Result, children: int) -> None:
    """Untraced wall of the first op, less the interpreter start and imports
    each of its children paid, which the in-process traced run pays once."""
    startup = run.startup_s()
    res.layers["cli.startup.s"] = startup
    res.info["untraced_wall_s"] = res.op_s[0] - children * startup


def run_main(tracer: Tracer, run: Run, span: str, argv: list) -> None:
    from derm import cli

    with tracer.span(span):
        code = cli.main([str(a) for a in argv])
    run.check(code == 0, f"in-process derm {argv[0]} returned {code}")


# ---------------------------------------------------------------------------
# offline: the build path for one model, one process per stage


def _check_offline(run: Run, root: Path, cfg_path: Path) -> tuple[str, float]:
    """Published generation digest and test ROC-AUC of one pipeline run."""
    from derm.config import load_config
    from derm.errors import DermError
    from derm.store import list_generations, load_generation

    cfg = load_config(cfg_path)
    found = list_generations(cfg.paths.store, "ctr-upstream")
    digest = ""
    if run.check(len(found) == 1, f"expected one published generation, "
                                  f"found {len(found)}"):
        path = found[-1][2]
        try:
            gen = load_generation(path)
            run.check(len(gen) > 0, "published generation is empty")
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except DermError as e:
            run.check(False, f"published generation does not load: {e}")
    auc = float("nan")
    report = cfg.paths.reports / f"downstream-{cfg.downstream.task}.json"
    if report.exists():
        auc = json.loads(report.read_text())["test"]["roc_auc"]
    run.check(math.isfinite(auc), f"test roc_auc is {auc}")
    return digest, auc


def offline(run: Run, trace: bool) -> Result:
    res = Result()
    over = run.scale.offline
    world = None
    for k in range(run.scale.setups):
        root = run.work / f"setup{k}"
        res.setup_s.append(run.cli("generate", "-c",
                                      run.config(root, over)).wall_s)
        world = root / "world"
    digests, aucs = [], []

    def job(k: int) -> float:
        root = run.work / f"job{k}"
        shutil.copytree(world, root / "world")
        ini = run.config(root, over)
        wall = 0.0
        for stage, args in OFFLINE_STAGES:
            c = run.cli(*args, "-c", ini)
            res.stages[stage] += c.wall_s
            wall += c.wall_s
        digest, auc = _check_offline(run, root, ini)
        digests.append(digest)
        aucs.append(auc)
        return wall

    res.op_s = run.measure_ops(job)
    res.ops_per_s = len(res.op_s) / sum(res.op_s)
    res.info["test_roc_auc"] = aucs[0]
    res.info["published_sha256"] = digests[0]
    if trace:
        root = run.work / "traced"
        shutil.copytree(world, root / "world")
        ini = run.config(root, over)
        with traced(run, res) as tracer:
            for stage, args in OFFLINE_STAGES:
                run_main(tracer, run, f"cli.{stage}", [*args, "-c", ini])
        digests.append(_check_offline(run, root, ini)[0])
        untraced_in_process(run, res, len(OFFLINE_STAGES))
        res.layers["downstream.test_roc_auc"] = aucs[0]
    for d in digests[1:]:
        run.check(d == digests[0],
                  "published generation differs between runs of one seed")
    return res


# ---------------------------------------------------------------------------
# grid: one experiment over seeded daily embeddings, no upstream training


def write_dailies(cfg_path: Path, seed: int) -> None:
    """Daily embedding files for both upstream sources, days 1..end.

    Each entity-day vector is a fixed seeded projection of the entity's last
    observed features in that day's world file.
    """
    from derm.cli import embedding_path
    from derm.config import UPSTREAM_SOURCES, load_config
    from derm.data import KIND_CODES
    from derm.store import generation_bytes, source_code
    from derm.synth import load_world_files

    dim = loadgen.DIM
    cfg = load_config(cfg_path)
    _, data = load_world_files(cfg.paths.world)
    for m, (model, source) in enumerate(sorted(UPSTREAM_SOURCES.items())):
        rng = np.random.default_rng([seed, 0xDA11, m])
        proj = {}
        for day in range(1, cfg.upstream_end_day + 1):
            seen = {}
            for s in data.get(day, []):
                seen[("user", s.user_id)] = s.user.dense["profile"]
                seen[("pin", s.pin_id)] = s.pin.dense["attrs"]
            vectors = {}
            for (kind, entity_id), x in seen.items():
                if kind not in proj:
                    proj[kind] = (rng.normal(size=(dim, len(x)))
                                  / np.sqrt(len(x)))
                vectors[(KIND_CODES[kind], entity_id, source_code(source))] = \
                    np.tanh(proj[kind] @ x).astype("<f4")
            path = embedding_path(cfg, model, day)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(generation_bytes(day, dim, vectors))


def _check_grid(run: Run, cfg_path: Path) -> None:
    from derm.config import load_config

    cfg = load_config(cfg_path)
    ex = cfg.experiment
    path = cfg.paths.reports / f"experiment-{ex.grid}-{ex.task}.csv"
    if not run.check(path.exists(), f"experiment wrote no {path.name}"):
        return
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    arms = 1 + len(ex.heuristics)
    run.check(len(rows) == arms * len(ex.seeds),
              f"experiment CSV has {len(rows)} rows, expected "
              f"{arms} arms x {len(ex.seeds)} seeds")
    run.check(any(r["arm"] == "baseline" for r in rows),
              "experiment CSV lacks the baseline arm")
    bad = [r for r in rows if not math.isfinite(float(r["roc_auc"]))]
    run.check(not bad, f"{len(bad)} experiment rows have a non-finite AUC")
    path.unlink()


def grid(run: Run, trace: bool) -> Result:
    import derm.cli  # noqa: F401  (imported before set-up is timed)

    res = Result()
    over = run.scale.grid
    ini = None
    for k in range(run.scale.setups):
        t0 = time.perf_counter()
        ini = run.config(run.work / f"setup{k}", over)
        run.cli("generate", "-c", ini)
        write_dailies(ini, run.seed)
        res.setup_s.append(time.perf_counter() - t0)

    def job(k: int) -> float:
        wall = run.cli("experiment", "-c", ini).wall_s
        res.stages["experiment"] += wall
        _check_grid(run, ini)
        return wall

    res.op_s = run.measure_ops(job)
    res.ops_per_s = len(res.op_s) / sum(res.op_s)
    if trace:
        with traced(run, res) as tracer:
            run_main(tracer, run, "cli.experiment", ["experiment", "-c", ini])
        _check_grid(run, ini)
        untraced_in_process(run, res, 1)
    return res


# ---------------------------------------------------------------------------
# serve: two large generations, one client in a closed loop

SERVE_CPUS = {max(os.sched_getaffinity(0))}  # server and client share it
_BANNER = re.compile(r"serving .* on (\S+):(\d+)$")


def publish_store(store: Path, data: loadgen.StoreData) -> None:
    from derm.lifecycle import (AggregatedStoreState, AggregationHeuristic,
                                StoreEntry)
    from derm.store import publish

    for source in loadgen.SOURCES:
        entries = {(kind, entity_id): StoreEntry(vec.astype(np.float64), 1)
                   for kind, entity_id, vec in data.entries(source)}
        state = AggregatedStoreState(1, AggregationHeuristic("acc"), entries)
        publish(state, 1, source, store)


class Server:
    """A `derm serve` child; up once it answered one lookup correctly."""

    def __init__(self, run: Run, store: Path, ini: Path,
                 data: loadgen.StoreData):
        self.run = run
        self.out, err = run.output_paths()
        t0 = time.perf_counter()
        # the TTL ends the server even if this benchmark process dies
        self.pid = run.spawn(
            [sys.executable, "-m", "derm.cli", "serve", "--store-dir", store,
             "--ttl-seconds", str(run.seconds + CHILD_TIMEOUT_S), "-c", ini],
            self.out, err, SERVE_CPUS)
        try:
            self.port = self._wait_up(data)
        except BaseException:
            self.stop()
            raise
        self.up_s = time.perf_counter() - t0

    def _banner_port(self) -> int | None:
        """The port from the banner, polled from the server's output file
        until the banner shows, the server exits, or time runs out."""
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        while time.perf_counter() < deadline:
            for line in self.out.read_text().splitlines():
                m = _BANNER.search(line.strip())
                if m:
                    return int(m.group(2))
            if not _running(self.pid):
                return None
            time.sleep(0.002)
        return None

    def _wait_up(self, data: loadgen.StoreData) -> int | None:
        """The port from the banner, once one lookup was answered."""
        from derm.store import EmbeddingClient, StoreKey

        port = self._banner_port()
        if not self.run.check(port is not None,
                              "derm serve printed no banner"):
            return None
        source, kind = loadgen.SOURCES[0], loadgen.KINDS[0]
        entity_id = int(np.flatnonzero(data.row[(source, kind)] >= 0)[0])
        with EmbeddingClient("127.0.0.1", port) as client:
            _, vec = client.request(StoreKey(kind, entity_id, source))
        self.run.check(vec is not None and
                       vec.tobytes() == data.expected(source, kind, entity_id),
                       "first response from derm serve is wrong")
        return port

    def stop(self) -> float:
        """Stop the server; its peak RSS in MB."""
        os.kill(self.pid, signal.SIGINT)  # a zombie until reaped
        return self.run.reap(self.pid, 10.0)[1]


def _running(pid: int) -> bool:
    """Whether pid is alive and not yet a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def serve(run: Run, trace: bool) -> Result:
    """Each set-up launches a server; the load then runs against each
    server in turn for an equal share of the run's seconds."""
    res = Result()
    data = loadgen.StoreData(run.seed, run.scale.serve_size)
    store = run.work / "store"
    publish_store(store, data)
    ini = run.config(run.work / "serve")
    loads, server_rss = [], []
    for _ in range(run.scale.servers):
        server = Server(run, store, ini, data)
        try:
            res.setup_s.append(server.up_s)
            if server.port is not None:
                loads.append(_load(run, server.port))
        finally:
            server_rss.append(server.stop())
    res.info["server_rss_mb"] = max(server_rss)
    res.info["client_rss_mb"] = max((load["rss_mb"] for load in loads
                                     if load is not None), default=0.0)
    loads = [load for load in loads if load is not None]
    if loads:
        _tally(run, res, loads)
    if trace:
        argv = ["serve", "--store-dir", store, "--ttl-seconds", 0, "-c", ini]
        from derm import cli

        # the first in-process load pays for growing the heap, so only the
        # second is compared with the traced one that follows
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                run.check(cli.main([str(a) for a in argv]) == 0,
                          "in-process derm serve failed")
                res.info["untraced_wall_s"] = time.perf_counter() - t0
        with traced(run, res) as tracer:
            run_main(tracer, run, "cli.serve", argv)
        res.layers["cli.startup.s"] = run.startup_s()
    return res


def _load(run: Run, port: int) -> dict | None:
    c = run.child([sys.executable, HERE / "loadgen.py", "--port", port,
                   "--seed", run.seed,
                   "--seconds", run.seconds / run.scale.servers,
                   "--size", run.scale.serve_size], cpus=SERVE_CPUS,
                  counted=False)  # the load client is not derm
    lines = c.stdout.strip().splitlines()
    ok = run.check(c.returncode == 0 and bool(lines),
                   f"load client failed: {c.stderr.strip()[-300:]}")
    return dict(json.loads(lines[-1]), rss_mb=c.rss_mb) if ok else None


def _tally(run: Run, res: Result, loads: list[dict]) -> None:
    """Medians over the windows of every load run."""
    n = sum(load["requests"] for load in loads)
    failures = sum(load["failures"] for load in loads)
    run.attempted += n
    run.failed += failures
    if failures:
        run.problems.append(f"{failures} of {n} responses were wrong")
    pcts = [load["tail_pct"] for load in loads]
    res.tail_pct = None if None in pcts else min(pcts)
    pooled = {key: [v for load in loads for v in load[key]]
              for key in ("rps", "p50_us", "tail_us")}
    res.ops_per_s = statistics.median(pooled["rps"])
    res.p50_s = statistics.median(pooled["p50_us"]) / 1e6
    res.tail_s = statistics.median(pooled["tail_us"]) / 1e6
    res.layers.update({
        "serve.requests": n,
        "serve.misses": sum(load["misses"] for load in loads),
        "serve.mismatches": failures,
    })
    res.info.update(serve_samples=n, serve_tail_percentile=res.tail_pct,
                    serve_windows=len(pooled["rps"]),
                    serve_window_samples=min(load["window_requests"]
                                             for load in loads))


WORKLOADS = {"offline": offline, "grid": grid, "serve": serve}
