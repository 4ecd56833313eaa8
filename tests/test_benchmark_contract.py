"""What perfbench/ relies on in derm, checked without editing perfbench/.

The benchmark wraps the functions its span table names, counts rows and hits
from what some of them return, and builds the grid workload's daily
embeddings from the day files it loads through derm. Its own tests are not
part of this suite, so these checks keep a change under src/ from breaking
the benchmark unnoticed.
"""

import contextlib
import importlib
import io

import numpy as np
import pytest

import derm.downstream
import derm.lifecycle
from derm.cli import embedding_path, main, served_generation
from derm.config import UPSTREAM_SOURCES, load_config
from derm.data import KIND_CODES
from derm.downstream import DownstreamConfig
from derm.lifecycle import AggregationHeuristic, fold_days, initial_state
from derm.store import (EmbeddingClient, StoreKey, generation_bytes, load_daily,
                        parse_generation, serve, source_code, state_generation)
from derm.trainer import make_snapshot

from util import module_at, separable_samples, tiny_model


def test_every_traced_name_resolves():
    traced = module_at("perfbench", "spans").TRACED
    assert traced
    missing = []
    for module, attr in traced:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench traces names derm lacks: {missing}"


def workloads_module():
    module_at("perfbench", "spans")
    module_at("perfbench", "loadgen")
    return module_at("perfbench", "workloads")


def toy_ini(tmp_path, *overrides: dict):
    """A config file of perfbench's TOY sections, then each override's, as
    the benchmark merges them, under tmp_path/run."""
    sections = {"paths": {"root": tmp_path / "run"}}
    for extra in (workloads_module().TOY.sections, *overrides):
        for name, values in extra.items():
            sections.setdefault(name, {}).update(values)
    ini = tmp_path / "derm.ini"
    ini.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                                  for k, v in values.items())
                           for name, values in sections.items()))
    return ini


@pytest.mark.parametrize("workload", ["offline", "grid"])
def test_every_config_read_resolves(tmp_path, workload):
    # the attributes perfbench's workloads read from a loaded config
    cfg = load_config(toy_ini(tmp_path, getattr(workloads_module().TOY, workload)))
    assert cfg.downstream.task == "ctr"
    for path in (cfg.paths.world, cfg.paths.store, cfg.paths.reports):
        assert path.parent == tmp_path / "run"
    assert 1 <= cfg.upstream_end_day < cfg.world.days
    ex = cfg.experiment
    assert ex.grid in ("heuristics", "inputs") and ex.task == "ctr"
    assert ex.seeds and all(isinstance(s, int) for s in ex.seeds)
    assert ex.heuristics and all(isinstance(h, AggregationHeuristic)
                                 for h in ex.heuristics)


def test_grid_set_up_writes_dailies_derm_loads(tmp_path):
    workloads = workloads_module()
    ini = toy_ini(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "-c", str(ini)]) == 0
    workloads.write_dailies(ini, seed=3)
    cfg = load_config(ini)
    for model, source in UPSTREAM_SOURCES.items():
        for day in range(1, cfg.upstream_end_day + 1):
            daily = load_daily(embedding_path(cfg, model, day), source)
            assert daily.day == day and len(daily.records)


def test_traced_counters_count_rows_kept_entities_and_hits():
    spans = module_at("perfbench", "spans")
    model = tiny_model(seed=1)
    snap = make_snapshot(model, watermark_day=3, rng_seed=0)
    data = separable_samples(seed=2, days=[1, 2, 3], per_day=12)
    tracer = spans.Tracer()
    with spans.Patcher(tracer):
        sets = derm.lifecycle.back_infer(snap, model, [1, 2, 3], data)
        state = fold_days(initial_state(AggregationHeuristic("acc")), sets)
        derm.downstream.build_features(
            data[3], DownstreamConfig(derm_inputs=("ctr-user", "ctr-pin")),
            {"ctr-upstream": state_generation(state, "ctr-upstream")})
    counts = tracer.counts
    assert counts["lifecycle.infer_daily.records"] == \
        2 * sum(len(b) for b in data.values())
    assert counts["lifecycle.dedup_day.kept"] == sum(
        len(np.unique(b.user_id)) + len(np.unique(b.pin_id))
        for b in data.values())
    assert counts["store.lookup.hits"] > 0


def test_crc64_bytes_count_each_sealed_byte_once_per_pass():
    # perfbench counts len(args[0]) per crc64 call, so pack must hand it flat
    # byte views: a record table there would count rows, not bytes
    spans = module_at("perfbench", "spans")
    code = source_code("ctr-upstream")
    vectors = {(KIND_CODES["user"], i, code): np.full(16, i, "<f4")
               for i in range(8000)}  # about 600 KB: more than one crc64 block
    tracer = spans.Tracer()
    with spans.Patcher(tracer):
        blob = generation_bytes(3, 16, vectors)
        assert len(parse_generation(blob)) == len(vectors)
    assert tracer.counts["ioutil.crc64.bytes"] == 2 * (len(blob) - 8)


def test_serve_set_up_publishes_what_derm_serves(tmp_path):
    workloads = workloads_module()
    loadgen = module_at("perfbench", "loadgen")
    data = loadgen.StoreData(seed=5, per_source=workloads.TOY.serve_size)
    workloads.publish_store(tmp_path, data)
    gen = served_generation(tmp_path)
    assert len(gen) == len(loadgen.SOURCES) * workloads.TOY.serve_size
    for source in loadgen.SOURCES:
        for kind in loadgen.KINDS:
            for entity_id in range(len(data.row[(source, kind)])):
                vec = gen.lookup(StoreKey(kind, entity_id, source))
                want = data.expected(source, kind, entity_id)
                assert (None if vec is None else vec.tobytes()) == want, \
                    (source, kind, entity_id)
            assert len(data.absent[(source, kind)])
    source, kind = loadgen.SOURCES[-1], loadgen.KINDS[-1]
    entity_id = int(np.flatnonzero(data.row[(source, kind)] >= 0)[-1])
    with serve(gen) as handle, EmbeddingClient(*handle.address) as client:
        status, vec = client.request(StoreKey(kind, entity_id, source))
    assert status == 0 and vec.tobytes() == data.expected(source, kind, entity_id)
