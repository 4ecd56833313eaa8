"""Config parsing and the command-line pipeline surface."""

import hashlib
import io
import contextlib
import json
import multiprocessing
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import derm
from derm.cli import (build_parser, experiment_generations, main,
                      served_generation, snapshot_path)
from derm.config import (
    PathsConfig,
    PipelineConfig,
    ServeConfig,
    _build,
    _entries,
    _from_sections,
    _sections,
    build_model,
    default_config,
    emit_config,
    load_config,
    parse_config,
)
from derm.errors import (ConfigParseError, DermError, IoFailureError,
                         MissingPrerequisiteError)
from derm.ioutil import LANE, SealedFormat
from derm.lifecycle import AggregationHeuristic
from derm.store import (STATE_FILE, generation_bytes, generation_name,
                        list_generations, source_code)
from derm.synth import load_world_files

from test_ioutil import reference_crc64
from util import generation_vectors


# ---------------------------------------------------------------------------
# config parsing


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = default_config()
        text = emit_config(cfg)
        assert parse_config(text) == cfg

    def test_parse_emit_parse_identity(self):
        text = emit_config(default_config())
        edited = text.replace("num_users = 96", "num_users = 20") \
                     .replace("heuristic = ma0.8", "heuristic = ap")
        cfg = parse_config(edited)
        assert parse_config(emit_config(cfg)) == cfg
        assert cfg.world.num_users == 20
        assert cfg.lifecycle.heuristic.label == "ap"

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == default_config()

    def test_partial_sections_fill_defaults(self):
        cfg = parse_config("[world]\nseed = 9\n")
        assert cfg.world.seed == 9
        assert cfg.world.num_users == default_config().world.num_users


class TestConfigErrors:
    def _err(self, text):
        with pytest.raises(ConfigParseError) as exc:
            parse_config(text)
        return str(exc.value)

    def test_bad_int_locates_line_and_column(self):
        msg = self._err("[world]\nnum_users = twelve\n")
        assert "line 2" in msg and "column 13" in msg and "num_users" in msg

    def test_bad_float(self):
        msg = self._err("[world]\nclick_rate = often\n")
        assert "click_rate" in msg and "line 2" in msg

    def test_unknown_key(self):
        msg = self._err("[world]\nseed = 1\nnum_boards = 4\n")
        assert "unknown key" in msg and "line 3" in msg

    def test_projection_dim_takes_only_an_integer(self):
        assert self._err("[downstream]\nprojection_dim = none\n") == (
            "line 2, column 18: [downstream] projection_dim: "
            "expected an integer, got 'none'")

    def test_unknown_section(self):
        msg = self._err("[worlds]\nseed = 1\n")
        assert "unknown section" in msg and "line 1" in msg

    def test_overweight_moving_average(self):
        msg = self._err("[lifecycle]\nheuristic = ma1.5\n")
        assert "line 2" in msg and "[0, 1]" in msg

    def test_duplicate_key_reported(self):
        msg = self._err("[world]\nseed = 1\nseed = 2\n")
        assert "line" in msg

    def test_option_without_section(self):
        with pytest.raises(ConfigParseError):
            parse_config("seed = 1\n")

    def test_batch_window_beyond_training_days(self):
        msg = self._err("[upstream.ctr]\nbatch_window_end = 30\n")
        assert "batch_window_end" in msg

    def test_test_day_beyond_world(self):
        msg = self._err("[downstream]\ntest_day = 99\n")
        assert "test_day" in msg

    def test_bad_experiment_grid(self):
        msg = self._err("[experiment]\ngrid = matrix\n")
        assert "grid" in msg

    def test_bad_upstream_task(self):
        # default-config text as derm wrote it while each section had a task key
        text = emit_config(default_config())
        for model, label in (("ctr", "click"), ("cvr", "conversion")):
            text = text.replace(f"[upstream.{model}]\n",
                                f"[upstream.{model}]\ntask = {label}\n")
        msg = self._err(text)
        assert re.fullmatch(r"line \d+, column \d+: \[upstream\.ctr\] task: "
                            r"unknown key", msg)

    def test_negative_learning_rate_rejected(self):
        msg = self._err("[upstream.ctr]\nlearning_rate = -0.5\n")
        assert "learning_rate" in msg


def with_keys(cfg: PipelineConfig, section: str, values: dict) -> PipelineConfig:
    """cfg with the given keys of one section set, as the key table reads them."""
    parts = dict(_sections(cfg))
    parts[section] = _build(parts[section], values)
    return _from_sections(parts)


class TestConfigInvariants:
    @pytest.mark.parametrize("section, key, values", [
        ("upstream.ctr", "num_layers", {"num_layers": 4}),
        ("upstream.cvr", "contrastive_weight", {"contrastive_weight": -1.0}),
        ("upstream.ctr", "supervised_weight", {"supervised_weight": -2.0}),
        # emitted as "heuristics = ", which does not parse
        ("experiment", "heuristics", {"grid": "inputs", "heuristics": ()}),
        # two arms with one label would share a state directory
        ("experiment", "heuristics", {"heuristics": (
            AggregationHeuristic("acc"), AggregationHeuristic("acc"))}),
        # a heuristic built in code skips the parser's weight check
        ("lifecycle", "heuristic", {"heuristic": AggregationHeuristic("ma", 2.0)}),
        ("experiment", "heuristics", {"heuristics": (
            AggregationHeuristic("acc"), AggregationHeuristic("ma", 2.0))}),
        ("world", "click_rate", {"click_rate": 2.0}),
        # numpy's Poisson draw rejects the negative rate events_per_user - 1
        ("world", "events_per_user", {"events_per_user": 0.5}),
        ("world", "days", {"days": 0}),
        ("world", "num_users", {"num_users": 1}),
        ("downstream", "num_experts", {"num_experts": 0}),
        ("downstream", "projection_dim", {"projection_dim": 0}),
        ("downstream", "task", {"task": "foo"}),
        ("downstream", "derm_inputs", {"derm_inputs": ("ctr-user", "ctr-user")}),
        ("experiment", "derm_inputs", {"derm_inputs": ("ctr-user", "ctr-user")}),
        # numpy rejects a negative seed, and a snapshot stores it as a u64
        ("world", "seed", {"seed": -1}),
        ("upstream.ctr", "seed", {"seed": 2**64}),
        ("downstream", "seed", {"seed": -1}),
        ("downstream", "learning_rate", {"learning_rate": -1.0}),
        ("downstream", "batch_size", {"batch_size": 0}),
        ("downstream", "epochs", {"epochs": 0}),
        ("experiment", "seeds", {"seeds": (0, 2**64)}),
        # two runs of one seed would write duplicate CSV rows
        ("experiment", "seeds", {"seeds": (0, 0)}),
        # bind() takes only 0-65535
        ("serve", "port", {"port": 70000}),
    ], ids=["num_layers", "contrastive_weight", "supervised_weight",
            "heuristics", "duplicate_heuristic_labels",
            "lifecycle_heuristic_weight", "experiment_heuristic_weight",
            "click_rate",
            "events_per_user", "days",
            "num_users", "num_experts", "projection_dim", "downstream_task",
            "duplicate_derm_inputs", "duplicate_experiment_derm_inputs",
            "world_seed", "upstream_seed",
            "downstream_seed", "downstream_learning_rate",
            "downstream_batch_size", "downstream_epochs", "experiment_seed_range",
            "duplicate_experiment_seeds", "serve_port"])
    def test_rejected_as_one_located_error(self, tmp_path, section, key, values):
        cfg = with_keys(small_config(tmp_path / "run"), section, values)
        with pytest.raises(ConfigParseError,
                           match=rf"^\[{re.escape(section)}\] {key}: "):
            cfg.validate()
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(cfg))
        _, err = run_cli(["generate", "-c", str(ini)], expect=1)
        assert re.fullmatch(rf"error: ConfigParse: .+: line \d+, column \d+: "
                            rf"\[{re.escape(section)}\] {key}: .+", err.strip())
        assert not (tmp_path / "run").exists()


class TestConfigValues:
    def test_derm_inputs_shorthand(self):
        cfg = parse_config("[downstream]\nderm_inputs = all\n")
        assert len(cfg.downstream.model.derm_inputs) == 4
        cfg = parse_config("[downstream]\nderm_inputs = none\n")
        assert cfg.downstream.model.derm_inputs == ()

    def test_seed_list(self):
        cfg = parse_config("[experiment]\nseeds = 3, 1, 4\n")
        assert cfg.experiment.seeds == (3, 1, 4)

    def test_heuristic_list(self):
        cfg = parse_config("[experiment]\nheuristics = acc, ma0.6\n")
        assert [h.label for h in cfg.experiment.heuristics] == ["acc", "ma0.6"]

    def test_paths_resolve_under_root(self):
        cfg = parse_config("[paths]\nroot = /data/run\n")
        assert cfg.paths.world == Path("/data/run/world")
        assert cfg.paths.store == Path("/data/run/store")

    def test_explicit_path_override(self):
        cfg = parse_config("[paths]\nroot = run\nstore_dir = /mnt/kv\n")
        assert cfg.paths.store == Path("/mnt/kv")
        assert cfg.paths.world == Path("run/world")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(MissingPrerequisiteError) as exc:
            load_config(tmp_path / "absent.ini")
        assert "absent.ini" in str(exc.value)

    def test_each_model_trains_on_its_own_label(self):
        cfg = default_config()
        for model, label in (("ctr", "click"), ("cvr", "conversion")):
            built = build_model(cfg.world, model, cfg.upstream[model])
            assert built.task == label and f"head/{label}/w" in built.params

    def test_upstream_end_day(self):
        cfg = default_config()
        assert cfg.upstream_end_day == cfg.downstream.test_day - 1


DEFAULT_VALUES = {(section, key): value
                  for section, part in _sections(default_config())
                  for key, _, value in _entries(part)}

UPSTREAM_KEYS = ("learning_rate", "momentum", "batch_size", "epochs",
                 "negatives_per_pair", "seed", "contrastive_weight",
                 "supervised_weight", "batch_window_end", "token_dim",
                 "num_tokens", "num_layers")

# every section's keys in file order; a key added, dropped or moved shows here
KEY_TABLE = [
    ("world", ("num_users", "num_pins", "latent_dim", "days", "activity_rate",
               "click_rate", "conversion_rate", "noise_level",
               "events_per_user", "seed")),
    ("paths", ("root", "world_dir", "snapshot_dir", "embeddings_dir",
               "state_dir", "store_dir", "report_dir")),
    ("upstream.ctr", UPSTREAM_KEYS),
    ("upstream.cvr", UPSTREAM_KEYS),
    ("lifecycle", ("heuristic", "retention_days", "back_window")),
    ("serve", ("host", "port")),
    # DownstreamConfig's expert_hidden, expert_out and seq_dim are not keys
    ("downstream", ("task", "derm_inputs", "projection_dim", "num_experts",
                    "cross_layers", "learning_rate",
                    "batch_size", "epochs", "seed", "train_day_start",
                    "test_day")),
    ("experiment", ("grid", "task", "seeds", "heuristics", "derm_inputs")),
]


def non_default_texts(value) -> list[str]:
    """Values to try, in order, for a key whose default is value; the first
    that parses, validates and differs from the default is used."""
    if isinstance(value, int):
        return [str(value + 2), str(value - 1)]
    if isinstance(value, float):
        # many digits first: the emitted text must keep every one
        return [repr(value / 3 + 0.0123456789), f"{value / 2:g}",
                f"{value + 0.25:g}"]
    if isinstance(value, str):
        return ["cvr", "click", "conversion", "inputs"]
    if isinstance(value, AggregationHeuristic):
        return ["ma0.00001"]
    if isinstance(value, tuple):
        return {int: ["7"], str: ["none"],
                AggregationHeuristic: ["acc, ma0.123456789, ma0.00001"]}[
            type(value[0])]
    return ["elsewhere"]  # a path, set or unset


class TestConfigKeys:
    def test_key_table_is_pinned(self):
        assert [(section, tuple(key for key, _, _ in _entries(part)))
                for section, part in _sections(default_config())] == KEY_TABLE

    @pytest.mark.parametrize("section,key", sorted(DEFAULT_VALUES))
    def test_each_key_round_trips(self, section, key):
        default = default_config()
        for text in non_default_texts(DEFAULT_VALUES[(section, key)]):
            try:
                cfg = parse_config(f"[{section}]\n{key} = {text}\n")
            except DermError:
                continue
            if cfg != default:
                break
        else:
            pytest.fail(f"no valid non-default value for [{section}] {key}")
        emitted = emit_config(cfg)
        assert parse_config(emitted) == cfg
        block = next(b for b in emitted.split("\n\n")
                     if b.startswith(f"[{section}]\n"))
        assert f"\n{key} = " in block

    @pytest.mark.parametrize("section,key", sorted(
        k for k, v in DEFAULT_VALUES.items() if isinstance(v, (int, float))))
    def test_bad_number_or_bool_is_located(self, section, key):
        with pytest.raises(ConfigParseError) as exc:
            parse_config(f"# comment\n\n[{section}]\n{key} = bogus\n")
        assert str(exc.value).startswith(
            f"line 4, column {len(key) + 4}: [{section}] {key}: expected ")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", sorted(
        k for k, v in DEFAULT_VALUES.items() if isinstance(v, float)))
    def test_non_finite_float_is_located(self, section, key, text):
        with pytest.raises(ConfigParseError) as exc:
            parse_config(f"# comment\n\n[{section}]\n{key} = {text}\n")
        assert str(exc.value) == (
            f"line 4, column {len(key) + 4}: [{section}] {key}: "
            f"expected a finite number, got {text!r}")


# ---------------------------------------------------------------------------
# the pipeline surface


def small_config(root: Path) -> PipelineConfig:
    base = default_config()
    world = replace(base.world, num_users=12, num_pins=16, days=8)
    upstream = {
        name: replace(spec, batch_window_end=5,
                      train=replace(spec.train, epochs=1, batch_size=16))
        for name, spec in base.upstream.items()
    }
    downstream = replace(base.downstream, train_day_start=4, test_day=8,
                         train=replace(base.downstream.train, epochs=2))
    lifecycle = replace(base.lifecycle, back_window=5)
    experiment = replace(base.experiment, seeds=(0, 1))
    return PipelineConfig(
        world=world,
        paths=PathsConfig(root=root),
        upstream=upstream,
        lifecycle=lifecycle,
        serve=ServeConfig(port=0),
        downstream=downstream,
        experiment=experiment,
    )


def run_cli(args, expect=0):
    err = io.StringIO()
    out = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        rc = main(args)
    assert rc == expect, f"{args} -> rc {rc}\nstdout: {out.getvalue()}" \
                         f"\nstderr: {err.getvalue()}"
    return out.getvalue(), err.getvalue()


def child_env() -> dict[str, str]:
    """The environment of a derm child process, which finds derm where this
    process did, installed or not."""
    src = str(Path(derm.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipe")
    cfg = small_config(base / "run")
    ini = base / "derm.ini"
    ini.write_text(emit_config(cfg))
    c = str(ini)
    run_cli(["generate", "-c", c])
    for model in ("ctr", "cvr"):
        run_cli(["train-upstream", "-c", c, "--model", model])
        run_cli(["infer", "-c", c, "--model", model, "--back-window", "5"])
        for day in (6, 7):
            run_cli(["infer", "-c", c, "--model", model, "--day", str(day)])
        run_cli(["aggregate", "-c", c, "--model", model])
        run_cli(["publish", "-c", c, "--model", model])
    return SimpleNamespace(cfg=cfg, ini=c, base=base)


class TestPipeline:
    def test_world_files_written(self, pipeline):
        world = pipeline.cfg.paths.world
        assert (world / "world.json").is_file()
        assert (world / "day001.events").is_file()
        assert (world / "day008.events").is_file()

    def test_generate_rerun_is_bit_identical(self, pipeline):
        world = pipeline.cfg.paths.world
        before = tree_digest(world)
        run_cli(["generate", "-c", pipeline.ini])
        assert tree_digest(world) == before

    def test_every_sealed_kind_carries_the_reference_crc(self, pipeline):
        paths = pipeline.cfg.paths
        (*_, (_, _, generation)) = list_generations(paths.store, "ctr-upstream")
        for path in (paths.world / "day001.events",
                     paths.snapshots / "ctr" / "day007.snap",
                     paths.embeddings / "ctr" / "day007.kv",
                     paths.state / "ctr" / "ma0.8" / STATE_FILE,
                     generation):
            blob = path.read_bytes()
            body, (stored,) = blob[:-8], struct.unpack("<Q", blob[-8:])
            assert len(body) >= 2 * LANE, path  # past the byte-loop path
            assert stored == reference_crc64(body), path

    def test_snapshots_cover_window_and_increments(self, pipeline):
        sdir = pipeline.cfg.paths.snapshots / "ctr"
        days = sorted(p.name for p in sdir.iterdir())
        assert days == ["day005.snap", "day006.snap", "day007.snap"]

    def test_infer_rerun_is_bit_identical(self, pipeline):
        edir = pipeline.cfg.paths.embeddings / "ctr"
        before = tree_digest(edir)
        run_cli(["infer", "-c", pipeline.ini, "--model", "ctr",
                 "--back-window", "5"])
        run_cli(["infer", "-c", pipeline.ini, "--model", "ctr", "--day", "6"])
        assert tree_digest(edir) == before

    def test_back_window_defaults_to_config_and_must_be_positive(
            self, pipeline, tmp_path):
        paths = replace(pipeline.cfg.paths, embeddings_dir=tmp_path / "emb")
        lifecycle = replace(pipeline.cfg.lifecycle, back_window=2)
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(replace(pipeline.cfg, paths=paths,
                                           lifecycle=lifecycle)))
        for days in ("0", "-3"):
            _, err = run_cli(["infer", "-c", str(ini), "--model", "ctr",
                              "--back-window", days], expect=1)
            assert re.fullmatch(r"error: ConfigParse: .+", err.strip())
        assert not paths.embeddings.exists()
        run_cli(["infer", "-c", str(ini), "--model", "ctr", "--back-window"])
        written = sorted(p.name for p in (paths.embeddings / "ctr").iterdir())
        assert written == ["day004.kv", "day005.kv"]
        for name in written:
            assert (paths.embeddings / "ctr" / name).read_bytes() == (
                pipeline.cfg.paths.embeddings / "ctr" / name).read_bytes()

    def test_aggregate_rerun_is_stable(self, pipeline):
        paths = pipeline.cfg.paths
        before = tree_digest(paths.state), tree_digest(paths.reports)
        for day in ([], ["--day", "7"], ["--day", "5"]):
            out, _ = run_cli(["aggregate", "-c", pipeline.ini, "--model",
                              "ctr", *day])
            assert out == "state already at day 7; nothing to aggregate\n"
        assert (tree_digest(paths.state), tree_digest(paths.reports)) == before

    def test_day_below_one_is_one_error_line(self, pipeline, tmp_path):
        paths = replace(pipeline.cfg.paths, state_dir=tmp_path / "state",
                        embeddings_dir=tmp_path / "emb",
                        report_dir=tmp_path / "reports")
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(replace(pipeline.cfg, paths=paths)))
        for command in ("infer", "aggregate"):
            for day in ("0", "-2"):
                _, err = run_cli([command, "-c", str(ini), "--model", "ctr",
                                  "--day", day], expect=1)
                assert err == f"error: ConfigParse: --day must be >= 1, " \
                              f"got {day}\n"
        assert list(tmp_path.iterdir()) == [ini]

    def test_aggregate_report_written(self, pipeline):
        rpath = pipeline.cfg.paths.reports / "aggregate-ctr-ma0.8-day007.json"
        report = json.loads(rpath.read_text())
        assert report["day"] == 7
        assert 0.0 < report["coverage"]["user"] <= 1.0
        assert report["entities"] > 0

    def test_aggregate_by_day_publishes_same_bytes(self, pipeline):
        paths = replace(pipeline.cfg.paths,
                        state_dir=pipeline.base / "state-by-day",
                        store_dir=pipeline.base / "store-by-day",
                        report_dir=pipeline.base / "report-by-day")
        ini = pipeline.base / "by-day.ini"
        ini.write_text(emit_config(replace(pipeline.cfg, paths=paths)))
        for day in range(1, pipeline.cfg.upstream_end_day + 1):
            run_cli(["aggregate", "-c", str(ini), "--model", "ctr",
                     "--day", str(day)])
        run_cli(["publish", "-c", str(ini), "--model", "ctr"])
        (_, _, by_day), = list_generations(paths.store, "ctr-upstream")
        *_, (_, _, at_once) = list_generations(pipeline.cfg.paths.store,
                                               "ctr-upstream")
        assert by_day.read_bytes() == at_once.read_bytes()

    def test_experiment_folds_what_publish_writes(self, pipeline):
        cfg = pipeline.cfg
        h = cfg.lifecycle.heuristic
        gen = experiment_generations(cfg, [h], ["ctr-upstream"])[h.label][
            "ctr-upstream"]
        *_, (_, _, published) = list_generations(cfg.paths.store,
                                                 "ctr-upstream")
        assert generation_bytes(gen.day, gen.dim, generation_vectors(gen)) == \
            published.read_bytes()

    def test_commands_read_only_the_day_files_they_use(self, pipeline):
        damaged = pipeline.base / "damaged"
        paths = replace(pipeline.cfg.paths, world_dir=damaged / "world",
                        snapshot_dir=damaged / "snapshots",
                        embeddings_dir=damaged / "embeddings")
        shutil.copytree(pipeline.cfg.paths.world, paths.world)
        shutil.copytree(pipeline.cfg.paths.snapshots, paths.snapshots)
        day1 = paths.world / "day001.events"
        blob = bytearray(day1.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        day1.write_bytes(bytes(blob))
        ini = damaged / "derm.ini"
        ini.write_text(emit_config(replace(pipeline.cfg, paths=paths)))
        run_cli(["infer", "-c", str(ini), "--model", "ctr", "--day", "7"])
        assert (paths.embeddings / "ctr" / "day007.kv").read_bytes() == (
            pipeline.cfg.paths.embeddings / "ctr" / "day007.kv").read_bytes()
        _, err = run_cli(["train-upstream", "-c", str(ini), "--model", "ctr"],
                         expect=1)
        assert re.fullmatch(r"error: IoFailure: .+", err.strip())
        assert "day001.events" in err

    def test_publish_rerun_does_not_stack_generations(self, pipeline):
        store = pipeline.cfg.paths.store
        before = sorted(p.name for p in store.iterdir())
        out, _ = run_cli(["publish", "-c", pipeline.ini, "--model", "ctr"])
        assert "not republishing" in out
        assert sorted(p.name for p in store.iterdir()) == before

    def test_train_downstream_writes_report(self, pipeline):
        out, _ = run_cli(["train-downstream", "-c", pipeline.ini])
        rpath = pipeline.cfg.paths.reports / "downstream-ctr.json"
        report = json.loads(rpath.read_text())
        assert set(report) == {"task", "derm_inputs", "train", "test"}
        assert 0.0 <= report["test"]["roc_auc"] <= 1.0
        assert "test roc_auc" in out

    def test_experiment_writes_csv_and_summary(self, pipeline):
        out, _ = run_cli(["experiment", "-c", pipeline.ini])
        csv_path = pipeline.cfg.paths.reports / "experiment-heuristics-ctr.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "arm,seed,roc_auc,pr_auc,lift"
        # 6 arms (baseline + 5 heuristics) x 2 seeds
        assert len(lines) == 1 + 6 * 2
        assert "baseline" in out
        before = csv_path.read_bytes()
        run_cli(["experiment", "-c", pipeline.ini])
        assert csv_path.read_bytes() == before

    def test_experiment_leaves_no_process(self, pipeline):
        run_cli(["experiment", "-c", pipeline.ini])
        assert multiprocessing.active_children() == []

    def test_worker_divergence_is_one_error_line(self, pipeline, tmp_path,
                                                 monkeypatch):
        """The baseline group, which trains in the worker on two CPUs,
        diverges first: both runs name the same arm and seed."""
        ds = pipeline.cfg.downstream
        cfg = replace(pipeline.cfg, downstream=replace(
            ds, train=replace(ds.train, learning_rate=1e40)))
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(cfg))
        started, start = [], multiprocessing.context.ForkProcess.start
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            lambda proc: started.append(start(proc)))
        errs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus)
            with np.errstate(over="ignore", invalid="ignore"):
                _, err = run_cli(["experiment", "-c", str(ini)], expect=1)
            errs.append(err)
            assert multiprocessing.active_children() == []
        assert len(started) == 1
        assert errs[0] == errs[1]
        assert re.fullmatch(r"error: DivergedLoss: non-finite downstream loss "
                            r"at epoch 0 in arm baseline \(seed [01]\)\n",
                            errs[0]), errs[0]

    def test_sigterm_stops_and_joins_the_workers(self, pipeline):
        # two CPUs on any host, so that the grid forks a worker, and a
        # batch that first sleeps, so that the signal finds the worker live
        code = ("import os, sys, time\n"
                "from derm import cli, downstream\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "train = downstream._train_stacks\n"
                "downstream._train_stacks = lambda *job: (time.sleep(60), "
                "train(*job))[1]\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "experiment", "-c", pipeline.ini],
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        try:
            deadline = time.monotonic() + 60
            while not (workers := children.read_text().split()):
                assert proc.poll() is None, "the grid ended before a worker"
                assert time.monotonic() < deadline, "no worker in 60 s"
                time.sleep(0.005)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (128 + signal.SIGTERM, "")
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]

    def test_model_stages_rerun_bit_identically(self, pipeline):
        c = pipeline.ini
        stages = [["train-downstream", "-c", c], ["experiment", "-c", c],
                  *(["train-upstream", "-c", c, "--model", model]
                    for model in ("ctr", "cvr"))]
        for args in stages[:2]:  # the fixture runs neither
            run_cli(args)
        before = tree_digest(pipeline.cfg.paths.root)
        for args in stages:
            run_cli(args)
        assert tree_digest(pipeline.cfg.paths.root) == before

    def _damaged_store(self, pipeline, tmp_path, keep_previous: bool):
        """A config over a copy of the store where the newest generation of
        each source fails its checksum; with keep_previous, a corrupt copy
        is added as a newer attempt and the real one stays intact."""
        store = tmp_path / "store"
        shutil.copytree(pipeline.cfg.paths.store, store)
        for source in ("ctr-upstream", "cvr-upstream"):
            day, attempt, path = list_generations(store, source)[-1]
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            if keep_previous:
                path = store / generation_name(source, day, attempt + 1)
            path.write_bytes(bytes(blob))
        paths = replace(pipeline.cfg.paths, store_dir=store,
                        report_dir=tmp_path / "report")
        ini = tmp_path / "damaged.ini"
        ini.write_text(emit_config(replace(pipeline.cfg, paths=paths)))
        return str(ini), paths

    @staticmethod
    def _command(name, ini):
        # serve in-process, up and down at once
        return {"serve": ["serve", "-c", ini, "--ttl-seconds", "0"],
                "train-downstream": ["train-downstream", "-c", ini]}[name]

    @pytest.mark.parametrize("command", ["serve", "train-downstream"])
    def test_corrupt_latest_generation_is_skipped(self, pipeline, tmp_path,
                                                  command):
        ini, paths = self._damaged_store(pipeline, tmp_path, keep_previous=True)
        clean = replace(pipeline.cfg.paths, report_dir=tmp_path / "clean")
        (tmp_path / "clean.ini").write_text(
            emit_config(replace(pipeline.cfg, paths=clean)))
        want, _ = run_cli(self._command(command, str(tmp_path / "clean.ini")))
        out, err = run_cli(self._command(command, ini))
        skipped = err.strip().splitlines()
        assert len(skipped) == 2
        assert all(re.fullmatch(r"skipped: generation .+-g\d+\.kv fails its "
                                r"checksum", line) for line in skipped)
        # the same first line, up to the port the server happened to bind
        assert out.splitlines()[0].split(" on ")[0] == \
            want.splitlines()[0].split(" on ")[0]
        if command == "train-downstream":
            name = "downstream-ctr.json"
            assert (paths.reports / name).read_bytes() == \
                (clean.reports / name).read_bytes()

    @pytest.mark.parametrize("command", ["serve", "train-downstream"])
    def test_generation_of_another_source_is_skipped(self, pipeline, tmp_path,
                                                     command):
        store = tmp_path / "store"
        shutil.copytree(pipeline.cfg.paths.store, store)
        day, attempt, _ = list_generations(store, "cvr-upstream")[-1]
        *_, (_, _, ctr) = list_generations(store, "ctr-upstream")
        renamed = store / generation_name("cvr-upstream", day, attempt + 1)
        shutil.copyfile(ctr, renamed)
        paths = replace(pipeline.cfg.paths, store_dir=store,
                        report_dir=tmp_path / "report")
        ini = tmp_path / "renamed.ini"
        ini.write_text(emit_config(replace(pipeline.cfg, paths=paths)))
        clean = replace(pipeline.cfg.paths, report_dir=tmp_path / "clean")
        (tmp_path / "clean.ini").write_text(
            emit_config(replace(pipeline.cfg, paths=clean)))
        want, _ = run_cli(self._command(command, str(tmp_path / "clean.ini")))
        out, err = run_cli(self._command(command, str(ini)))
        assert err.strip() == (
            f"skipped: generation {renamed} holds rows of source code "
            f"{source_code('ctr-upstream')}, not of cvr-upstream "
            f"(code {source_code('cvr-upstream')})")
        assert out.splitlines()[0].split(" on ")[0] == \
            want.splitlines()[0].split(" on ")[0]
        if command == "train-downstream":
            name = "downstream-ctr.json"
            assert (paths.reports / name).read_bytes() == \
                (clean.reports / name).read_bytes()

    @pytest.mark.parametrize("command", ["serve", "train-downstream"])
    def test_every_generation_corrupt_is_one_error_line(self, pipeline,
                                                        tmp_path, command):
        ini, _ = self._damaged_store(pipeline, tmp_path, keep_previous=False)
        _, err = run_cli(self._command(command, ini), expect=1)
        *skipped, last = err.strip().splitlines()
        assert skipped and all(line.startswith("skipped: ") for line in skipped)
        assert re.fullmatch(r"error: CorruptGeneration: none of the 1 "
                            r"generations of .+ verifies .+", last)

    @pytest.mark.parametrize("case, condition", [
        ("report_dir_is_a_file", "IoFailure"),
        ("truncated_world_manifest", "IoFailure"),
        ("world_manifest_without_config", "IoFailure"),
        # a manifest written while [world] had a threshold_labels key
        ("world_manifest_with_removed_key", "IoFailure"),
        ("negative_ttl", "ConfigParse"),
        ("nan_ttl", "ConfigParse"),
    ])
    def test_failure_ends_as_one_error_line(self, pipeline, tmp_path, case,
                                            condition):
        paths = replace(pipeline.cfg.paths, world_dir=tmp_path / "world",
                        state_dir=tmp_path / "state",
                        report_dir=tmp_path / "report")
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(replace(pipeline.cfg, paths=paths)))
        manifest = (pipeline.cfg.paths.world / "world.json").read_text()
        paths.world.mkdir()
        if case == "report_dir_is_a_file":
            paths.reports.write_text("")
        elif case == "truncated_world_manifest":
            (paths.world / "world.json").write_text(manifest[:len(manifest) // 2])
        elif case == "world_manifest_without_config":
            (paths.world / "world.json").write_text("{}")
        elif case == "world_manifest_with_removed_key":
            old = json.loads(manifest)
            old["config"]["threshold_labels"] = False
            (paths.world / "world.json").write_text(json.dumps(old))
        command = {
            "report_dir_is_a_file": ["aggregate", "--model", "ctr"],
            "truncated_world_manifest": ["train-upstream", "--model", "ctr"],
            "world_manifest_without_config": ["infer", "--model", "ctr",
                                              "--day", "6"],
            "world_manifest_with_removed_key": ["train-upstream", "--model",
                                                "ctr"],
            "negative_ttl": ["serve", "--ttl-seconds", "-1"],
            "nan_ttl": ["serve", "--ttl-seconds", "nan"],
        }[case]
        _, err = run_cli([*command, "-c", str(ini)], expect=1)
        assert re.fullmatch(rf"error: {condition}: [^\n]+", err.strip())

    @pytest.mark.parametrize("artifact", ["day_file", "snapshot"])
    def test_old_format_version_is_one_error_line(self, pipeline, tmp_path,
                                                  artifact):
        paths = replace(pipeline.cfg.paths, world_dir=tmp_path / "world",
                        snapshot_dir=tmp_path / "snapshots",
                        embeddings_dir=tmp_path / "embeddings")
        shutil.copytree(pipeline.cfg.paths.world, paths.world)
        shutil.copytree(pipeline.cfg.paths.snapshots, paths.snapshots)
        cfg = replace(pipeline.cfg, paths=paths)
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(cfg))
        # an empty day file and an empty snapshot as format 1 laid them out
        if artifact == "day_file":
            old = paths.world / "day006.events"
            old.write_bytes(SealedFormat(b"DDAY", 1, "<4sIII").pack((6, 0)))
        else:
            old = snapshot_path(cfg, "ctr", 6)
            old.write_bytes(SealedFormat(b"DSNP", 1, "<4sIIQI").pack((6, 0, 0)))
        _, err = run_cli(["infer", "-c", str(ini), "--model", "ctr",
                          "--day", "6"], expect=1)
        assert re.fullmatch(rf"error: IoFailure: .*{re.escape(str(old))} "
                            r"has unsupported version 1", err.strip())
        assert not paths.embeddings.exists()

    def test_daily_file_of_another_day_names_its_path(self, pipeline,
                                                      tmp_path):
        paths = replace(pipeline.cfg.paths, embeddings_dir=tmp_path / "embeddings",
                        state_dir=tmp_path / "state", report_dir=tmp_path / "reports")
        shutil.copytree(pipeline.cfg.paths.embeddings, paths.embeddings)
        cfg = replace(pipeline.cfg, paths=paths)
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(cfg))
        wrong = paths.embeddings / "ctr" / "day003.kv"
        shutil.copyfile(paths.embeddings / "ctr" / "day002.kv", wrong)
        _, err = run_cli(["aggregate", "-c", str(ini), "--model", "ctr"],
                         expect=1)
        assert re.fullmatch(rf"error: IoFailure: daily embeddings "
                            rf"{re.escape(str(wrong))} hold day 2, not day 3",
                            err.strip())
        assert not paths.state.exists()

    def test_serve_round_trip_over_tcp(self, pipeline):
        proc = subprocess.Popen(
            [sys.executable, "-m", "derm.cli", "serve", "-c", pipeline.ini,
             "--ttl-seconds", "20"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            line = proc.stdout.readline()
            m = re.search(r"on ([\d.]+):(\d+)", line)
            assert m, f"no address in {line!r}"
            host, port = m.group(1), int(m.group(2))
            from derm.data import KIND_NAMES
            from derm.store import (EmbeddingClient, StoreKey,
                                    list_generations, load_generation)
            gens = list_generations(pipeline.cfg.paths.store, "ctr-upstream")
            gen = load_generation(gens[-1][2])
            first = gen.tables[0][0]  # rows are sorted by key
            key = StoreKey(KIND_NAMES[int(first["kind"])], int(first["id"]),
                           "ctr-upstream")
            client = EmbeddingClient(host, port)
            status, vec = client.request(key)
            assert status == 0
            assert vec.tobytes() == first["vec"].tobytes()
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def test_served_generation_joins_both_sources_in_place(tmp_path):
    """Each source's newest rows are loaded checked and joined under one
    StoreGeneration that views each file's bytes and finds both sources'
    keys."""
    vectors, files = {}, []
    for day, source in enumerate(("ctr-upstream", "cvr-upstream"), 4):
        code = source_code(source)
        mine = {(kind, i, code): np.full(3, 10.0 * kind + i + code % 7)
                for kind in (0, 1) for i in range(day, 3 * day)}
        files.append(tmp_path / generation_name(source, day, 1))
        files[-1].write_bytes(generation_bytes(day, 3, mine))
        vectors.update(mine)
    gen = served_generation(tmp_path)
    assert (gen.day, len(gen.tables), len(gen)) == (5, 2, len(vectors))
    for table, path in zip(gen.tables, files):
        # a read-only view of the bytes read from path, not a copy of its rows
        assert not table.flags.owndata and not table.flags.writeable
        assert table.base.obj == path.read_bytes()
    for key, vec in vectors.items():
        row = gen.lookup_packed(*key)
        assert row.tobytes() == vec.astype(np.float32).tobytes(), key
        assert any(np.shares_memory(row, t) for t in gen.tables)
    assert gen.lookup_packed(0, 99, source_code("ctr-upstream")) is None


@pytest.mark.parametrize("fail_at", [1, 3, 8, 9])  # 8 day files, then world.json
def test_crashed_generate_leaves_no_mixed_world(tmp_path, monkeypatch, fail_at):
    cfg = small_config(tmp_path / "run")
    old, new = tmp_path / "old.ini", tmp_path / "new.ini"
    old.write_text(emit_config(cfg))
    new.write_text(emit_config(replace(cfg, world=replace(cfg.world, seed=1))))
    run_cli(["generate", "-c", str(old)])
    write_atomic = derm.synth.write_atomic
    writes = []

    def failing(path, blob):
        writes.append(path)
        if len(writes) == fail_at:
            raise IoFailureError(f"cannot write {path}: disk full")
        write_atomic(path, blob)
    monkeypatch.setattr(derm.synth, "write_atomic", failing)
    _, err = run_cli(["generate", "-c", str(new)], expect=1)
    assert err.startswith("error: IoFailure: cannot write ")
    with pytest.raises(DermError):
        load_world_files(cfg.paths.world)
    for ini in (old, new):
        _, err = run_cli(["train-upstream", "-c", str(ini), "--model", "ctr"],
                         expect=1)
        assert err.startswith("error: MissingPrerequisite: world manifest")
    monkeypatch.undo()
    run_cli(["generate", "-c", str(new)])
    assert load_world_files(cfg.paths.world)[0].seed == 1


class TestCliErrors:
    def test_infer_before_training_names_snapshot_path(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(cfg))
        run_cli(["generate", "-c", str(ini)])
        _, err = run_cli(["infer", "-c", str(ini), "--model", "ctr",
                          "--day", "5"], expect=1)
        assert err.startswith("error: MissingPrerequisite:")
        assert str(cfg.paths.snapshots / "ctr" / "day005.snap") in err
        assert "\n" not in err.strip()

    def test_train_before_generate(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(cfg))
        _, err = run_cli(["train-upstream", "-c", str(ini), "--model", "ctr"],
                         expect=1)
        assert "error: MissingPrerequisite:" in err
        assert "world.json" in err

    def test_overweight_heuristic_fails_before_any_work(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        text = emit_config(cfg).replace("heuristic = ma0.8",
                                       "heuristic = ma1.5")
        ini = tmp_path / "derm.ini"
        ini.write_text(text)
        _, err = run_cli(["generate", "-c", str(ini)], expect=1)
        assert "error: ConfigParse:" in err
        assert not (tmp_path / "run").exists()

    def test_nan_world_float_fails_before_any_work(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        text, n = re.subn(r"\nnoise_level = .*\n", "\nnoise_level = nan\n",
                          emit_config(cfg))
        assert n == 1
        ini = tmp_path / "derm.ini"
        ini.write_text(text)
        _, err = run_cli(["generate", "-c", str(ini)], expect=1)
        assert re.fullmatch(r"error: ConfigParse: .+: \[world\] noise_level: "
                            r"expected a finite number, got 'nan'", err.strip())
        assert not cfg.paths.world.exists()

    def test_missing_config_file(self, tmp_path):
        _, err = run_cli(["generate", "-c", str(tmp_path / "nope.ini")],
                         expect=1)
        assert "error: MissingPrerequisite:" in err
        assert "nope.ini" in err

    def test_damaged_state_is_one_error_line(self, tmp_path):
        cfg = small_config(tmp_path / "run")
        ini = tmp_path / "derm.ini"
        ini.write_text(emit_config(cfg))
        sdir = cfg.paths.state / "ctr" / cfg.lifecycle.heuristic.label
        sdir.mkdir(parents=True)
        (sdir / STATE_FILE).write_bytes(b"DAGS" + bytes(40))
        _, err = run_cli(["aggregate", "-c", str(ini), "--model", "ctr"],
                         expect=1)
        assert re.fullmatch(r"error: IoFailure: .+", err.strip())

    def test_error_line_is_machine_parsable(self, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[world]\ndays = soon\n")
        _, err = run_cli(["generate", "-c", str(ini)], expect=1)
        assert re.fullmatch(r"error: [A-Za-z]+: .+", err.strip())


class TestHelp:
    SUBCOMMANDS = ("generate", "train-upstream", "infer", "aggregate",
                   "publish", "serve", "train-downstream", "experiment",
                   "default-config")

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        if name != "default-config":
            assert "--config" in text

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in self.SUBCOMMANDS:
            assert name in out

    def test_infer_requires_exactly_one_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["infer", "--model", "ctr"])
        assert exc.value.code != 0

    def test_default_config_round_trips(self, capsys):
        rc = main(["default-config"])
        assert rc == 0
        text = capsys.readouterr().out
        assert parse_config(text) == default_config()
