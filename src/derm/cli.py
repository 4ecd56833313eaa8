"""Command-line surface: every pipeline stage as a subcommand over one config.

Commands are deterministic given (config, seed); rerunning a stage rewrites
its artifacts bit for bit, so the filesystem doubles as a resumable cache.
Errors print a single machine-parsable line to stderr:

  error: <Condition>: message
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    PipelineConfig,
    UPSTREAM_MODELS,
    UPSTREAM_SOURCES,
    build_model,
    default_config,
    emit_config,
    load_config,
)
from .data import SampleBatch
from .downstream import (
    DERM_INPUTS,
    DownstreamModel,
    build_features,
    evaluate,
    heuristic_arms,
    input_count_arms,
    run_sensitivity_experiment,
    train_downstream,
)
from .errors import (
    ConfigParseError,
    CorruptGenerationError,
    DermError,
    IoFailureError,
    MissingPrerequisiteError,
)
from .ioutil import write_atomic
from .lifecycle import (
    back_infer,
    coverage_report,
    fold_days,
    initial_state,
    stability_mean,
)
# perfbench's patcher test checks that tracing rebinds this copy
from .lifecycle import infer_daily  # noqa: F401
from .store import (
    STATE_FILE,
    StoreGeneration,
    list_generations,
    load_daily,
    load_generation_rows,
    load_state,
    publish,
    save_daily,
    save_state,
    serve,
    state_generation,
    state_payload,
)
from .synth import load_world_files, write_world_files
from .trainer import load_snapshot, save_snapshot, train_batch_window, train_incremental

SOURCE_MODELS = {source: model for model, source in UPSTREAM_SOURCES.items()}


# ---------------------------------------------------------------------------
# path layout


def snapshot_path(cfg: PipelineConfig, model: str, day: int) -> Path:
    return cfg.paths.snapshots / model / f"day{day:03d}.snap"


def embedding_path(cfg: PipelineConfig, model: str, day: int) -> Path:
    return cfg.paths.embeddings / model / f"day{day:03d}.kv"


def state_dir(cfg: PipelineConfig, model: str, label: str) -> Path:
    return cfg.paths.state / model / label


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingPrerequisiteError(f"{what} missing: {path}")
    return path


def _at_least_one(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ConfigParseError(f"{flag} must be >= 1, got {value}")


def _load_world(cfg: PipelineConfig, days):
    """The samples of the given days, after checking the world manifest
    against the [world] section; other day files are not read."""
    manifest = cfg.paths.world / "world.json"
    _require(manifest, "world manifest (run `derm generate` first)")
    world_cfg, data = load_world_files(cfg.paths.world, days)
    if world_cfg != cfg.world:
        raise ConfigParseError(
            f"world files under {cfg.paths.world} were generated from a "
            "different [world] section; rerun `derm generate`"
        )
    return data


# ---------------------------------------------------------------------------
# commands


def cmd_generate(cfg: PipelineConfig, args) -> int:
    manifest = write_world_files(cfg.paths.world, cfg.world)
    events = sum(manifest["event_counts"].values())
    print(f"wrote {cfg.world.days} day files, {events} events, "
          f"under {cfg.paths.world}")
    return 0


def cmd_train_upstream(cfg: PipelineConfig, args) -> int:
    data = _load_world(cfg, range(1, cfg.upstream_end_day + 1))
    spec = cfg.upstream[args.model]
    model = build_model(cfg.world, args.model, spec)
    end = spec.batch_window_end
    window = {d: data[d] for d in range(1, end + 1)}
    loss_log: list = []
    snapshot = train_batch_window(model, window, spec.train, loss_log)
    out = snapshot_path(cfg, args.model, end)
    save_snapshot(snapshot, out)
    print(f"batch window days 1..{end}: "
          f"{len(loss_log)} steps, wrote {out}")
    for day in range(end + 1, cfg.upstream_end_day + 1):
        day_log: list = []
        snapshot = train_incremental(snapshot, day, data[day],
                                     spec.train, model, day_log)
        out = snapshot_path(cfg, args.model, day)
        save_snapshot(snapshot, out)
        print(f"incremental day {day}: {len(day_log)} steps, wrote {out}")
    final = [loss for _, _, _, loss in loss_log[-20:]]
    if final:
        print(f"final batch-window loss (mean of last {len(final)} steps): "
              f"{np.mean(final):.4f}")
    return 0


def cmd_infer(cfg: PipelineConfig, args) -> int:
    spec = cfg.upstream[args.model]
    _at_least_one("--day", args.day)
    if args.day is not None:
        snap_day, days = args.day, [args.day]
    else:
        back_window = (cfg.lifecycle.back_window if args.back_window is None
                       else args.back_window)
        _at_least_one("--back-window", back_window)
        snap_day = spec.batch_window_end
        days = list(range(max(1, snap_day - back_window + 1), snap_day + 1))
    data = _load_world(cfg, days)
    spath = _require(snapshot_path(cfg, args.model, snap_day),
                     f"snapshot for day {snap_day} "
                     "(run `derm train-upstream` first)")
    model = build_model(cfg.world, args.model, spec)
    for daily in back_infer(load_snapshot(spath), model, days, data):
        path = embedding_path(cfg, args.model, daily.day)
        save_daily(daily, path, UPSTREAM_SOURCES[args.model])
        print(f"day {daily.day}: {len(daily.records)} entities, wrote {path}")
    return 0


def _load_dailies(cfg: PipelineConfig, model: str, first: int, last: int):
    source = UPSTREAM_SOURCES[model]
    dailies = [load_daily(_require(embedding_path(cfg, model, day),
                                   f"daily embeddings for day {day}"), source)
               for day in range(first, last + 1)]
    for day, daily in enumerate(dailies, first):
        if daily.day != day:
            raise IoFailureError(f"daily embeddings {embedding_path(cfg, model, day)} "
                                 f"hold day {daily.day}, not day {day}")
    return dailies


def cmd_aggregate(cfg: PipelineConfig, args) -> int:
    _at_least_one("--day", args.day)
    heuristic = cfg.lifecycle.heuristic
    sdir = state_dir(cfg, args.model, heuristic.label)
    if (sdir / STATE_FILE).exists():
        state = load_state(sdir)
    else:
        state = initial_state(heuristic)
    if args.day is not None:
        target = args.day
    else:
        found = sorted((cfg.paths.embeddings / args.model).glob(
            "day[0-9][0-9][0-9].kv"))
        if not found:
            raise MissingPrerequisiteError(
                f"daily embeddings missing: {embedding_path(cfg, args.model, 1)} "
                "(run `derm infer` first)"
            )
        target = int(found[-1].stem[3:])
    if target <= state.day:  # a rerun would lose the report's stability
        print(f"state already at day {state.day}; nothing to aggregate")
        return 0
    dailies = _load_dailies(cfg, args.model, state.day + 1, target)
    retention = cfg.lifecycle.retention_days
    before = fold_days(state, dailies[:-1], retention)
    state = fold_days(before, dailies[-1:], retention)
    report = {
        "model": args.model,
        "heuristic": heuristic.label,
        "day": state.day,
        "entities": len(state.entries),
        "stability_mean": None,
        "coverage": None,
    }
    if before.entries:
        try:
            report["stability_mean"] = stability_mean(before, state)
        except DermError:
            pass
    universe = {"user": set(range(cfg.world.num_users)),
                "pin": set(range(cfg.world.num_pins))}
    report["coverage"] = coverage_report(state, universe)
    rpath = cfg.paths.reports / \
        f"aggregate-{args.model}-{heuristic.label}-day{state.day:03d}.json"
    write_atomic(rpath, json.dumps(report, sort_keys=True, indent=2).encode()
                 + b"\n")
    # the state last: a crash before it reruns to the same report
    save_state(state, sdir, UPSTREAM_SOURCES[args.model])
    stab = report["stability_mean"]
    line = (f"state at day {state.day}: {len(state.entries)} entities, "
            f"coverage user {report['coverage'].get('user', 0.0):.2f} "
            f"pin {report['coverage'].get('pin', 0.0):.2f}")
    if stab is not None:
        line += f", stability {stab:.4f}"
    print(line)
    print(f"wrote {rpath}")
    return 0


def cmd_publish(cfg: PipelineConfig, args) -> int:
    source = UPSTREAM_SOURCES[args.model]
    heuristic = cfg.lifecycle.heuristic
    sdir = state_dir(cfg, args.model, heuristic.label)
    _require(sdir / STATE_FILE,
             "aggregated state (run `derm aggregate` first)")
    state = load_state(sdir)
    candidate = state_payload(state, state.day, source)
    existing = [(d, a, p) for d, a, p in
                list_generations(cfg.paths.store, source)
                if d == state.day]
    if existing and existing[-1][2].read_bytes() == candidate:
        _, _, path = existing[-1]
        print(f"unchanged since {path}; not republishing")
        return 0
    path, gen = publish(state, state.day, source, cfg.paths.store)
    print(f"published {len(gen)} vectors (day {gen.day}) to {path}")
    return 0


def _latest_generation_rows(sdir: Path, source: str
                            ) -> tuple[int, np.ndarray] | None:
    """(day, row table) of the newest generation of source under sdir that
    verifies and holds only source's rows, or None if none is published;
    each newer one that fails is reported and skipped. The rows still view
    the file's bytes: StoreGeneration searches them in place."""
    found = list_generations(sdir, source)
    for _, _, path in reversed(found):
        try:
            return load_generation_rows(path, source)
        except (CorruptGenerationError, IoFailureError) as e:
            print(f"skipped: {e}", file=sys.stderr)
    if found:
        raise CorruptGenerationError(
            f"none of the {len(found)} generations of {source} under {sdir} "
            "verifies (run `derm publish` again)"
        )
    return None


def served_generation(sdir: Path) -> StoreGeneration:
    """The latest generation of each upstream source under sdir, joined with
    no copy of their rows: each holds only its own source's keys."""
    found = [f for f in (_latest_generation_rows(sdir, source)
                         for source in UPSTREAM_SOURCES.values()) if f is not None]
    if not any(len(rows) for _, rows in found):
        raise MissingPrerequisiteError(
            f"no generations under {sdir} (run `derm publish` first)"
        )
    return StoreGeneration(max(day for day, _ in found),
                           [rows for _, rows in found])


def cmd_serve(cfg: PipelineConfig, args) -> int:
    ttl = math.inf if args.ttl_seconds is None else args.ttl_seconds
    if not ttl >= 0:
        raise ConfigParseError(f"--ttl-seconds must be >= 0, got {ttl}")
    sdir = args.store_dir if args.store_dir is not None else cfg.paths.store
    gen = served_generation(sdir)
    handle = serve(gen, (cfg.serve.host, cfg.serve.port))
    host, port = handle.address
    print(f"serving {len(gen)} vectors from {len(gen.tables)} generations "
          f"on {host}:{port}", flush=True)
    try:
        deadline = time.monotonic() + ttl
        while (left := deadline - time.monotonic()) > 0:
            time.sleep(min(left, 3600))
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
    return 0


def _downstream_days(cfg: PipelineConfig) -> range:
    return range(cfg.downstream.train_day_start, cfg.downstream.test_day + 1)


def _split_samples(cfg: PipelineConfig, data):
    ds = cfg.downstream
    return (SampleBatch.concat([data[d] for d in range(ds.train_day_start, ds.test_day)]),
            data[ds.test_day])


def _generations_for(cfg: PipelineConfig, inputs) -> dict[str, StoreGeneration]:
    sources = {DERM_INPUTS[name][0] for name in inputs}
    gens = {}
    for source in sorted(sources):
        found = _latest_generation_rows(cfg.paths.store, source)
        if found is None:
            raise MissingPrerequisiteError(
                f"no published generation for {source} under "
                f"{cfg.paths.store} (run `derm publish` first)"
            )
        day, rows = found
        if day >= cfg.downstream.test_day:
            raise MissingPrerequisiteError(
                f"need a generation for {source} published before test day "
                f"{cfg.downstream.test_day}; latest under {cfg.paths.store} "
                f"is day {day}"
            )
        gens[source] = StoreGeneration(day, [rows])
    return gens


def cmd_train_downstream(cfg: PipelineConfig, args) -> int:
    data = _load_world(cfg, _downstream_days(cfg))
    ds = cfg.downstream
    model_cfg = ds.model
    gens = _generations_for(cfg, model_cfg.derm_inputs)
    train, test = _split_samples(cfg, data)
    train_feats = build_features(train, model_cfg, gens)
    test_feats = build_features(test, model_cfg, gens)
    model = DownstreamModel(model_cfg, train_feats.base.shape[1],
                            train_feats.derm_dim,
                            seq_vocab=cfg.world.num_pins, seed=ds.seed)
    train_downstream(model, train_feats, ds.train)
    train_rep = evaluate(model, train_feats)
    test_rep = evaluate(model, test_feats)
    report = {
        "task": ds.task,
        "derm_inputs": list(model_cfg.derm_inputs),
        "train": {"roc_auc": train_rep.roc_auc, "pr_auc": train_rep.pr_auc,
                  "samples": train_rep.samples},
        "test": {"roc_auc": test_rep.roc_auc, "pr_auc": test_rep.pr_auc,
                 "samples": test_rep.samples},
    }
    rpath = cfg.paths.reports / f"downstream-{ds.task}.json"
    write_atomic(rpath, json.dumps(report, sort_keys=True, indent=2).encode()
                 + b"\n")
    print(f"{ds.task}: train roc_auc {train_rep.roc_auc:.4f}, "
          f"test roc_auc {test_rep.roc_auc:.4f} "
          f"pr_auc {test_rep.pr_auc:.4f} over {test_rep.samples} samples")
    print(f"wrote {rpath}")
    return 0


def experiment_generations(cfg: PipelineConfig, heuristics, sources
                           ) -> dict[str, dict[str, StoreGeneration]]:
    """Per heuristic label and source, the generation that `aggregate` over
    every daily embedding file followed by `publish` would serve."""
    dailies = {source: _load_dailies(cfg, SOURCE_MODELS[source], 1,
                                     cfg.upstream_end_day)
               for source in sources}
    retention = cfg.lifecycle.retention_days
    return {h.label: {source: state_generation(fold_days(
                          initial_state(h), dailies[source], retention), source)
                      for source in sources}
            for h in heuristics}


def cmd_experiment(cfg: PipelineConfig, args) -> int:
    ex = cfg.experiment
    ds = cfg.downstream
    if ex.grid == "heuristics":
        arms = heuristic_arms(ex.derm_inputs, list(ex.heuristics))
        heuristics = list(ex.heuristics)
        sources = sorted({DERM_INPUTS[name][0] for name in ex.derm_inputs})
    else:
        arms = input_count_arms(cfg.lifecycle.heuristic)
        heuristics = [cfg.lifecycle.heuristic]
        sources = sorted({src for src, _ in DERM_INPUTS.values()})
    data = _load_world(cfg, _downstream_days(cfg))
    generations = experiment_generations(cfg, heuristics, sources)
    train, test = _split_samples(cfg, data)
    del data  # split off; the grid's forked workers would inherit it too
    # a SIGTERM unwinds as an exit, which stops and joins the workers
    previous = signal.signal(signal.SIGTERM,
                             lambda signum, _: sys.exit(128 + signum))
    try:
        result = run_sensitivity_experiment(
            ex.task, arms, list(ex.seeds), train, test, generations,
            seq_vocab=cfg.world.num_pins,
            model_cfg_base=ds.model,
            train_cfg=ds.train,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    stem = f"experiment-{ex.grid}-{ex.task}"
    csv_path = cfg.paths.reports / f"{stem}.csv"
    write_atomic(csv_path, result.to_csv().encode())
    txt_path = cfg.paths.reports / f"{stem}.txt"
    write_atomic(txt_path, result.summary_text().encode())
    print(result.summary_text(), end="")
    print(f"wrote {csv_path} and {txt_path}")
    return 0


def cmd_default_config(args) -> int:
    print(emit_config(default_config()), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derm",
        description="Entity-representation pipeline: synthetic world, "
                    "upstream training, embedding lifecycle, store, "
                    "downstream consumers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, desc: str):
        sp = sub.add_parser(name, help=desc, description=desc)
        sp.add_argument("-c", "--config", type=Path, default=Path("derm.ini"),
                        help="pipeline config file (default: derm.ini)")
        sp.set_defaults(func=func)
        return sp

    add("generate", cmd_generate, "generate the synthetic event world")

    tu = add("train-upstream", cmd_train_upstream,
             "train one upstream model: batch window, then daily increments")
    tu.add_argument("--model", choices=UPSTREAM_MODELS, required=True)

    inf = add("infer", cmd_infer,
              "infer daily embeddings from a snapshot")
    inf.add_argument("--model", choices=UPSTREAM_MODELS, required=True)
    group = inf.add_mutually_exclusive_group(required=True)
    group.add_argument("--day", type=int,
                       help="infer one day with that day's snapshot")
    # SUPPRESS keeps a bare --back-window (value None) counting as given
    group.add_argument("--back-window", type=int, nargs="?", metavar="DAYS",
                       default=argparse.SUPPRESS,
                       help="re-infer the trailing DAYS (default: [lifecycle] "
                            "back_window) with the batch snapshot")

    ag = add("aggregate", cmd_aggregate,
             "fold daily embeddings into the aggregated store state")
    ag.add_argument("--model", choices=UPSTREAM_MODELS, required=True)
    ag.add_argument("--day", type=int, default=None,
                    help="aggregate through this day (default: all available)")

    pub = add("publish", cmd_publish,
              "publish the aggregated state as an immutable generation")
    pub.add_argument("--model", choices=UPSTREAM_MODELS, required=True)

    srv = add("serve", cmd_serve, "serve published generations over TCP")
    srv.add_argument("--store-dir", type=Path, default=None,
                     help="serve from this directory instead of the "
                          "configured store")
    srv.add_argument("--ttl-seconds", type=float, default=None,
                     help="exit after this many seconds (default: run until "
                          "interrupted)")

    add("train-downstream", cmd_train_downstream,
        "train and evaluate the configured consumer model")
    add("experiment", cmd_experiment,
        "run the configured sensitivity grid, write CSV and summary")

    dc = sub.add_parser("default-config",
                        help="print the default config to stdout",
                        description="print the default config to stdout")
    dc.set_defaults(func=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "default-config":
            return cmd_default_config(args)
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except DermError as e:
        print(f"error: {e.condition}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
