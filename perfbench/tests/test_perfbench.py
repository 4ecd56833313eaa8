"""Fast, seeded tests of the benchmark itself.

  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Patcher, Tracer, self_times  # noqa: E402

SPEC = run.load_spec()


def test_self_time_is_duration_minus_union_of_children():
    # 0: root [0, 100]; 1, 2 overlap; 3 is disjoint; 4 runs past the root;
    # 5 is a grandchild and must not count against the root.
    start = [0, 10, 20, 60, 90, 25]
    end = [100, 30, 50, 70, 120, 28]
    parent = [-1, 0, 0, 0, 0, 1]
    own = self_times(start, end, parent)
    union = (50 - 10) + (70 - 60) + (100 - 90)
    assert own[0] == 100 - union
    assert own[1] == 20 - 3
    assert list(own[2:5]) == [30, 10, 30]
    assert own[5] == 3


def test_self_time_of_traced_calls_adds_up_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(2000)))
    outer = tracer.wrap("m.outer", lambda: [inner() for _ in range(3)])
    with tracer.span("root"):
        outer()
        inner()
    summary = tracer.summary()
    assert summary["m.inner"]["calls"] == 4
    assert summary["m.outer"]["calls"] == 1
    total = sum(s["self_s"] for s in summary.values())
    assert total == pytest.approx(summary["root"]["total_s"], rel=1e-9)
    assert all(s["self_s"] >= 0 for s in summary.values())


@pytest.mark.parametrize("n, pct", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (10 ** 7, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    ladder = (50.0, 90.0, 99.0, 99.9)
    assert loadgen.tail_percentile(n, ladder) == pct
    if pct is not None:
        assert n * (100 - pct) / 100 >= 10 - 1e-9
    # the reported ladder stops at p99
    assert loadgen.tail_percentile(n) == (None if pct is None
                                          else min(pct, 99.0))


def test_window_stats_split_by_wall_clock():
    lat = np.full(3000, 1000, dtype=np.int64)  # 1 us each
    done = np.linspace(0, 3e9, 3000, endpoint=False).astype(np.int64) + 1
    w = loadgen.window_stats(lat, done, 0, 3_000_000_000)
    assert len(w["rps"]) == 3 and w["window_requests"] == 1000
    assert w["rps"] == pytest.approx([1000.0] * 3)
    assert w["tail_pct"] == 99.0 and w["tail_us"] == pytest.approx([1.0] * 3)


def test_metric_names_and_contract_shape():
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(SPEC["workloads"][i]["name"] for i in range(3)) == \
        set(workloads.WORKLOADS)


def test_patcher_wraps_every_binding_and_restores_it():
    import derm.cli
    import derm.ioutil
    import derm.store
    import derm.trainer

    orig = derm.ioutil.crc64
    with Patcher(Tracer()):
        for mod in (derm.ioutil, derm.store, derm.trainer):
            assert mod.crc64 is not orig and mod.crc64.__wrapped__ is orig
        assert derm.cli.infer_daily.__wrapped__ is \
            derm.lifecycle.infer_daily.__wrapped__
    for mod in (derm.ioutil, derm.store, derm.trainer):
        assert mod.crc64 is orig
    assert not hasattr(derm.store.StoreGeneration.lookup, "__wrapped__")


def test_key_stream_is_seeded_and_misses_only_absent_ids():
    data = loadgen.StoreData(5, 400)
    a = loadgen.key_stream(data, 5, n=5000)
    b = loadgen.key_stream(data, 5, n=5000)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    absent = 0
    for si, ki, entity_id in zip(*a):
        key = (loadgen.SOURCES[si], loadgen.KINDS[ki], int(entity_id))
        absent += data.expected(*key) is None
    assert 0.05 < absent / 5000 < 0.15


def test_key_stream_follows_build_features_lookups():
    from derm.downstream import DERM_INPUTS

    data = loadgen.StoreData(5, 4000)
    src_i, kind_i, ids = loadgen.key_stream(data, 5, n=4000)
    inputs = list(DERM_INPUTS.values())
    per_sample = ids.reshape(-1, len(inputs))
    for k, (source, kind) in enumerate(inputs):
        assert (src_i[k::len(inputs)] == loadgen.SOURCES.index(source)).all()
        assert (kind_i[k::len(inputs)] == loadgen.KINDS.index(kind)).all()
        same = [j for j, (_, other) in enumerate(inputs) if other == kind]
        assert (per_sample[:, same] == per_sample[:, [k]]).all()
    users = per_sample[:, inputs.index(("ctr-upstream", "user"))]
    assert (np.diff(users) >= 0).all()  # one day: users in id order


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_run_passes_its_checks(name, tmp_path):
    with workloads.Run(ROOT, tmp_path, seed=3, seconds=0.5,
                       scale=workloads.TOY) as r:
        res = workloads.WORKLOADS[name](r, True)
    assert r.failed == 0, r.problems
    assert r.attempted > 0
    e2e, _ = run.end_to_end(res, r)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values()), e2e
    layers = run.per_layer(res)
    assert layers["trace.overhead_ratio"] > 0
    assert res.info["trace_root_coverage"] == pytest.approx(1.0, abs=0.01)
    if name == "offline":
        assert layers["towers.embed_entity.calls"] > 0
        assert layers["stage.train_upstream.s"] > 0
    else:
        assert layers.get("towers.embed_entity.calls", 0) == 0
        assert layers.get("towers.embed_entity_backward.calls", 0) == 0
    if name == "serve":
        assert res.info["server_rss_mb"] > 0 and res.info["client_rss_mb"] > 0
        assert r.peak_rss_mb == res.info["server_rss_mb"]
        assert layers["serve.requests"] > 0
        assert layers["serve.mismatches"] == 0
        assert layers["ioutil.crc64.bytes"] > 0
    if name == "grid":
        assert layers["downstream.forward.calls"] > 0
        assert layers["store.lookup.hit_ratio"] > 0
    json.dumps(layers)


def test_every_per_layer_metric_has_a_source():
    from spans import COUNTERS, TRACED, span_name

    spans = {span_name(m, a) for m, a in TRACED}
    counters = {f"{n}.{c}" for n, (c, _) in COUNTERS.items()}
    derived = {"cli.startup.s", "lifecycle.infer.useful_ratio",
               "store.lookup.hit_ratio", "trace.overhead_ratio",
               "downstream.test_roc_auc", "serve.requests", "serve.misses",
               "serve.mismatches"}
    stages = {f"stage.{s}.s" for s, _ in workloads.OFFLINE_STAGES}
    stages.add("stage.experiment.s")
    for m in SPEC["per_layer"]:
        name = m["name"]
        base, _, tail = name.rpartition(".")
        assert (name in derived or name in stages or name in counters
                or (base in spans and tail in ("calls", "s"))), name


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = bytearray(200 << 20)  # this process's peak must not leak in
    ballast[::4096] = b"x" * len(ballast[::4096])
    with workloads.Run(ROOT, tmp_path, seed=3, seconds=0.5,
                       scale=workloads.TOY) as r:
        c = r.child([sys.executable, "-c", "pass"])
    del ballast
    assert c.returncode == 0
    assert 0 < c.rss_mb < 100
