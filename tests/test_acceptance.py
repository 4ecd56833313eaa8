"""End-to-end acceptance gate: ten go/no-go criteria, one verdict line each.

Each criterion is a single test that prints `criterion NN [PASS] ...` (or
FAIL) with its measured numbers; conftest.py echoes the collected lines
after the run summary so a full `pytest -v` always ends with the ten
verdicts. Criteria 4, 5 and 8 exercise the real pipeline: a module-scoped
fixture drives the CLI at the shipped default config inside a temp dir
(generate, upstream training for both models, back-window and daily
inference) and the experiment grids run as subprocesses against those
artifacts, so what is graded here is exactly what a user gets.

Budgets are wall-clock and include each criterion's share of the shared
pipeline build, counted in full against both consumers to stay
conservative.
"""

import csv
import functools
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import derm
from derm.config import build_model, default_config, emit_config
from derm.data import FeatureBundle
from derm.downstream import (
    DownstreamConfig,
    DownstreamModel,
    pr_auc,
    roc_auc,
)
from derm.errors import CorruptGenerationError
from derm.lifecycle import (
    AggregatedStoreState,
    AggregationHeuristic,
    aggregate_day,
    back_infer,
    coverage_report,
    initial_state,
)
from derm.objectives import (
    estimate_batch_frequencies,
    sampled_softmax_loss,
)
from derm.params import zeros_like_params
from derm.store import (
    EmbeddingClient,
    STATUS_MISSING,
    STATUS_OK,
    StoreKey,
    generation_bytes,
    load_generation,
    parse_generation,
    serve,
)
from derm.synth import generate_world
from derm.towers import (
    SlotSpec,
    TowerConfig,
    _block_backward,
    _block_forward,
    embed_entity,
    embed_entity_backward,
    init_tower_params,
)
from derm.trainer import (
    TrainConfig,
    load_snapshot,
    make_snapshot,
    save_snapshot,
    snapshot_bytes,
    train_batch_window,
    train_incremental,
)

from util import (
    cross_layer_multiplies,
    daily_set,
    daily_vectors,
    dense_feature_batch,
    fd_check_params,
    generation_vectors,
    noisy_daily_stability,
    pad_sequences,
    params_equal_exact,
    random_unit_rows,
    separable_samples,
    tiny_model,
)

GRAD_TOL = 1e-4
CLOSED_FORM_TOL = 1e-9
GRAD_BUDGET_S = 60.0
HEURISTIC_BUDGET_S = 600.0
INPUTS_BUDGET_S = 900.0
MIN_EXPERIMENT_SEEDS = 5

_LABELS = {
    1: "model gradients match finite differences",
    2: "sampled-softmax closed forms",
    3: "aggregation transition algebra",
    4: "smoother aggregation is steadier and lifts most",
    5: "every embedding input helps, all four help most",
    6: "ranking metrics agree with the quadratic oracle",
    7: "interrupted training resumes bit-exact",
    8: "back-window coverage dominates single-day",
    9: "store round trip, corruption, concurrent reads",
    10: "halving the projection quarters cross multiplies",
}

VERDICTS: dict[int, tuple[bool, str]] = {}


def _format(num: int) -> str:
    ok, detail = VERDICTS[num]
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {_LABELS[num]}"
    if detail:
        line += f" ({detail})"
    return line


def verdict_lines() -> list[str]:
    out = []
    for num in sorted(_LABELS):
        if num in VERDICTS:
            out.append(_format(num))
        else:
            out.append(f"criterion {num:2d} [----] {_LABELS[num]} "
                       "(no verdict recorded)")
    return out


def criterion(num: int):
    """Records one verdict per test, FAIL included, then lets pytest judge."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                msg = f"{type(e).__name__}: {e}"
                VERDICTS[num] = (False, msg[:200])
                print(_format(num))
                raise
            VERDICTS[num] = (True, detail or "")
            print(_format(num))
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared pipeline at the shipped defaults


def _derm(root, *args: str) -> str:
    # cwd moves to root, so a relative PYTHONPATH would no longer find derm
    src = str(Path(derm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "derm.cli", *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=1800,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"derm {' '.join(args)} exited {proc.returncode}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )
    return proc.stdout


class _Pipeline:
    """Default-config run directory plus lazily executed experiment grids."""

    def __init__(self, root):
        self.root = root
        self.grid_seconds: dict[tuple[str, str], float] = {}
        self._lifts: dict[tuple[str, str], tuple[dict[str, float], int]] = {}
        t0 = time.monotonic()
        cfg = default_config()
        self.back_window = cfg.lifecycle.back_window
        (root / "derm.ini").write_text(emit_config(cfg))
        _derm(root, "generate")
        for model in ("ctr", "cvr"):
            _derm(root, "train-upstream", "--model", model)
            _derm(root, "infer", "--model", model,
                  "--back-window", str(self.back_window))
            for day in range(cfg.upstream["ctr"].batch_window_end + 1,
                             cfg.upstream_end_day + 1):
                _derm(root, "infer", "--model", model, "--day", str(day))
        self.prep_seconds = time.monotonic() - t0

    def mean_lifts(self, grid: str, task: str) -> tuple[dict[str, float], int]:
        key = (grid, task)
        if key not in self._lifts:
            cfg = default_config()
            cfg = replace(cfg, experiment=replace(cfg.experiment,
                                                  grid=grid, task=task))
            (self.root / "derm.ini").write_text(emit_config(cfg))
            t0 = time.monotonic()
            _derm(self.root, "experiment")
            self.grid_seconds[key] = time.monotonic() - t0
            path = self.root / cfg.paths.reports / f"experiment-{grid}-{task}.csv"
            per_arm: dict[str, list[float]] = {}
            with path.open() as fh:
                for row in csv.DictReader(fh):
                    per_arm.setdefault(row["arm"], []).append(float(row["lift"]))
            lifts = {arm: float(np.mean(v)) for arm, v in per_arm.items()}
            self._lifts[key] = (lifts, min(len(v) for v in per_arm.values()))
        return self._lifts[key]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _Pipeline(tmp_path_factory.mktemp("gate"))


# ---------------------------------------------------------------------------
# criterion 1: every analytic gradient in the stack vs finite differences


def _softmax_grad_err(seed: int) -> float:
    rng = np.random.default_rng(20 + seed)
    ids = [0, 1, 2, 0, 3]
    pos = np.array([True, True, False, True, True])
    q = estimate_batch_frequencies(ids)
    params = {
        "U": random_unit_rows(rng, 5, 4),
        "P": random_unit_rows(rng, 5, 4),
        "log_tau": np.array([np.log(0.4)]),
    }

    def make_loss(pd):
        batch = (pd["U"], pd["P"], ids, pos)
        res = sampled_softmax_loss(
            *batch, q, tau=float(np.exp(pd["log_tau"][0])),
            negatives_per_pair=3, rng_seed=seed,
        )
        return res.loss, {"U": res.du, "P": res.dp,
                          "log_tau": np.array([res.dlog_tau])}

    return fd_check_params(make_loss, params)


def _block_grad_err(kind: str, seed: int) -> float:
    cfg = TowerConfig(
        slots=(SlotSpec("obs", "dense", dim=3),),
        blocks=((kind, kind),), token_dim=3, num_tokens=2,
    )
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(2, 3))
    w = rng.normal(size=(2, 3))
    full: dict = {}
    init_tower_params(cfg, np.random.default_rng(seed), "t", full)
    block = {k: v for k, v in full.items() if "/layer0/a/" in k}

    def make_loss(p):
        y, cache = _block_forward(kind, X, p, "t/layer0/a")
        grads = zeros_like_params(p)
        _block_backward(kind, w, cache, p, "t/layer0/a", grads)
        return float((w * y).sum()), grads

    return fd_check_params(make_loss, block)


def _tower_grad_err(seed: int) -> float:
    cfg = TowerConfig(
        slots=(
            SlotSpec("uid", "categorical", cardinality=5),
            SlotSpec("obs", "dense", dim=3),
            SlotSpec("seq", "sequence", cardinality=7),
        ),
        blocks=(("mlp", "masknet"), ("attention", "mlp")),
        token_dim=3, num_tokens=2,
    )
    params: dict = {}
    init_tower_params(cfg, np.random.default_rng(seed), "t", params)
    rng = np.random.default_rng(100 + seed)
    bundle = FeatureBundle(
        dense={"obs": rng.normal(size=(1, 3))},
        categorical={"uid": rng.integers(1, 5, size=1)},
        sequence={"seq": pad_sequences([rng.integers(1, 7, size=3)])},
    )
    w = rng.normal(size=cfg.output_dim)

    def make_loss(p):
        y, cache = embed_entity(cfg, p, "t", bundle)
        grads = zeros_like_params(p)
        embed_entity_backward(cfg, p, "t", cache, w[None], grads)
        return float(w @ y[0]), grads

    return fd_check_params(make_loss, params)


def _downstream_grad_err(seed: int) -> float:
    cfg = DownstreamConfig(
        derm_inputs=("ctr-user", "ctr-pin"), projection_dim=4,
        cross_layers=2, num_experts=2, expert_hidden=5, expert_out=4,
        seq_dim=3,
    )
    model = DownstreamModel(cfg, base_dim=3, derm_dim=6, seq_vocab=10,
                            seed=seed)
    rng = np.random.default_rng(40 + seed)
    n = 7
    hist = [list(rng.integers(0, 10, size=int(rng.integers(0, 4))))
            for _ in range(n)]
    hist[0] = []
    hist, hist_len = pad_sequences(hist)
    derm = rng.normal(size=(n, 6))
    flags = np.ones((n, 2))
    derm[1] = 0.0
    flags[1] = 0.0
    batch = dense_feature_batch(
        base=rng.normal(size=(n, 3)), derm=derm, flags=flags, hist=hist,
        hist_len=hist_len, labels=rng.integers(0, 2, size=n).astype(float),
    )

    def make_loss(params):
        model.params = params
        return model.loss_and_grads(batch)

    return fd_check_params(make_loss, model.params)


@criterion(1)
def test_criterion_01_gradients():
    t0 = time.monotonic()
    worst = 0.0
    for seed in (0, 1, 2):
        worst = max(worst, _softmax_grad_err(seed))
        for kind in ("mlp", "masknet", "attention"):
            worst = max(worst, _block_grad_err(kind, seed))
        worst = max(worst, _tower_grad_err(seed))
        worst = max(worst, _downstream_grad_err(seed))
    elapsed = time.monotonic() - t0
    assert worst < GRAD_TOL, f"max relative error {worst:.3e}"
    assert elapsed < GRAD_BUDGET_S, f"took {elapsed:.1f}s"
    return f"max rel err {worst:.2e} over 3 seeds in {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: sampled-softmax closed forms


@criterion(2)
def test_criterion_02_softmax_closed_forms():
    def unit(v):
        v = np.asarray(v, dtype=float)
        return v / np.linalg.norm(v)

    # no negatives sampled: the positive is the whole candidate set
    b = (np.array([unit([1.0, 1.0])]),
         np.array([unit([1.0, -1.0])]), [0],
         np.array([True]))
    res = sampled_softmax_loss(*b, {0: 1.0}, tau=0.5, negatives_per_pair=0)
    assert res.loss == 0.0
    assert np.all(res.du == 0.0) and np.all(res.dp == 0.0)
    assert res.dlog_tau == 0.0

    # identical embeddings and uniform Q: ln(N + 1) with N negatives
    e = unit([1.0, 2.0])
    b = (np.array([e] * 4), np.array([e] * 4),
         [0, 1, 2, 3], np.array([True] * 4))
    q = {i: 0.25 for i in range(4)}
    res = sampled_softmax_loss(*b, q, tau=1.0, negatives_per_pair=3)
    gap = abs(res.loss - np.log(4.0))
    assert gap < CLOSED_FORM_TOL, f"|loss - ln 4| = {gap:.3e}"

    # the logQ correction makes the loss invariant to scaling Q
    rng = np.random.default_rng(0)
    ids = list(range(8))
    b = (random_unit_rows(rng, 8, 4),
         random_unit_rows(rng, 8, 4), ids,
         np.ones(8, dtype=bool))
    q = {i: float(rng.uniform(0.05, 0.9)) for i in ids}
    base = sampled_softmax_loss(*b, q, tau=0.3, negatives_per_pair=4,
                                rng_seed=9)
    worst_scale = 0.0
    for c in (0.1, 3.0, 250.0):
        scaled = sampled_softmax_loss(*b, {k: c * v for k, v in q.items()},
                                      tau=0.3, negatives_per_pair=4,
                                      rng_seed=9)
        worst_scale = max(worst_scale, abs(scaled.loss - base.loss))
    assert worst_scale < CLOSED_FORM_TOL, f"Q-scale drift {worst_scale:.3e}"
    return (f"zero-negative loss exact, |loss - ln(N+1)| = {gap:.1e}, "
            f"Q-scale drift {worst_scale:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: aggregation algebra on randomized histories


def _random_history(seed: int, days: int = 30, entities: int = 10,
                    dim: int = 6, presence: float = 0.7):
    rng = np.random.default_rng(seed)
    out = []
    for day in range(1, days + 1):
        vectors = {}
        for e in range(entities):
            if rng.uniform() < presence:
                vectors[e] = rng.normal(size=dim)
        out.append(daily_set(day, vectors))
    return out


@criterion(3)
def test_criterion_03_aggregation_algebra():
    checked_days = 0
    for seed in range(5):
        history = _random_history(seed)

        # constant daily input is a fixed point of the moving average
        v = random_unit_rows(np.random.default_rng(seed), 1, 6)[0]
        state = initial_state(AggregationHeuristic("ma", 0.8))
        for day in range(1, 31):
            state = aggregate_day(state, daily_set(day, {1: v}))
            assert np.allclose(state.entries[("user", 1)].vector, v,
                               atol=1e-12)

        # the aggregate never leaves the envelope of the dailies it saw
        w = float(np.random.default_rng(1000 + seed).uniform(0.05, 0.95))
        state = initial_state(AggregationHeuristic("ma", w))
        lo: dict = {}
        hi: dict = {}
        for daily in history:
            for key, vec in daily_vectors(daily).items():
                d = np.asarray(vec, dtype=np.float64)
                lo[key] = d if key not in lo else np.minimum(lo[key], d)
                hi[key] = d if key not in hi else np.maximum(hi[key], d)
            state = aggregate_day(state, daily)
            for key, entry in state.entries.items():
                assert np.all(entry.vector >= lo[key] - 1e-12)
                assert np.all(entry.vector <= hi[key] + 1e-12)

        # replacement aggregation is the w = 0 moving average, bit for bit
        acc = initial_state(AggregationHeuristic("acc"))
        ma0 = initial_state(AggregationHeuristic("ma", 0.0))
        for daily in history:
            acc = aggregate_day(acc, daily)
            ma0 = aggregate_day(ma0, daily)
            assert set(acc.entries) == set(ma0.entries)
            for key in acc.entries:
                assert (acc.entries[key].vector.tobytes()
                        == ma0.entries[key].vector.tobytes())

        # absent entities carry over untouched, and the two-day average
        # matches an independently tracked previous-day buffer
        ap = initial_state(AggregationHeuristic("ap"))
        prev_present: dict = {}
        for daily in history:
            before = {k: (e.vector.tobytes(), e.last_active_day)
                      for k, e in ap.entries.items()}
            ap = aggregate_day(ap, daily)
            checked_days += 1
            present = daily_vectors(daily)
            for key, snap in before.items():
                if key not in present:
                    entry = ap.entries[key]
                    assert (entry.vector.tobytes(),
                            entry.last_active_day) == snap
            for key, vec in present.items():
                d = np.asarray(vec, dtype=np.float64)
                expect = d if key not in prev_present \
                    else 0.5 * (prev_present[key] + d)
                assert np.array_equal(ap.entries[key].vector, expect)
                prev_present[key] = d
    return f"5 seeds x 30-day histories, {checked_days} transitions"


# ---------------------------------------------------------------------------
# criterion 4: stability ordering and the heuristics experiment grid


@criterion(4)
def test_criterion_04_heuristic_ordering(pipeline):
    t0 = time.monotonic()
    stab = {
        "acc": noisy_daily_stability(AggregationHeuristic("acc")),
        "ma0.2": noisy_daily_stability(AggregationHeuristic("ma", 0.2)),
        "ma0.5": noisy_daily_stability(AggregationHeuristic("ma", 0.5)),
        "ma0.8": noisy_daily_stability(AggregationHeuristic("ma", 0.8)),
    }
    assert stab["ma0.8"] > stab["ma0.5"] > stab["ma0.2"] > stab["acc"], stab

    lifts, n_seeds = pipeline.mean_lifts("heuristics", "ctr")
    assert n_seeds >= MIN_EXPERIMENT_SEEDS
    contenders = {a: v for a, v in lifts.items() if a != "baseline"}
    best = max(contenders, key=contenders.get)
    assert best == "ma0.8", f"mean lifts {contenders}"

    elapsed = (time.monotonic() - t0) + pipeline.prep_seconds
    assert elapsed < HEURISTIC_BUDGET_S, f"took {elapsed:.0f}s"
    ordered = ", ".join(f"{a} {contenders[a]:+.4f}"
                        for a in sorted(contenders, key=contenders.get,
                                        reverse=True))
    return (f"cosine chain {stab['ma0.8']:.3f}>{stab['ma0.5']:.3f}>"
            f"{stab['ma0.2']:.3f}>{stab['acc']:.3f}; lifts {ordered}; "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: input-count grids for both downstream tasks


@criterion(5)
def test_criterion_05_input_count(pipeline):
    t0 = time.monotonic()
    singles = ("ctr-user", "ctr-pin", "cvr-user", "cvr-pin")
    details = []
    for task in ("ctr", "cvr"):
        lifts, n_seeds = pipeline.mean_lifts("inputs", task)
        assert n_seeds >= MIN_EXPERIMENT_SEEDS
        for arm in singles:
            assert lifts[arm] > 0.0, f"{task}: {arm} lift {lifts[arm]:+.4f}"
        for arm in singles:
            assert lifts["all-four"] > lifts[arm], \
                f"{task}: all-four {lifts['all-four']:+.4f} " \
                f"vs {arm} {lifts[arm]:+.4f}"
        best_single = max(lifts[s] for s in singles)
        min_single = min(lifts[s] for s in singles)
        details.append(f"{task}: singles >= {min_single:+.4f}, "
                       f"all-four {lifts['all-four']:+.4f} "
                       f"(margin {lifts['all-four'] - best_single:+.4f})")
    elapsed = (time.monotonic() - t0) + pipeline.prep_seconds
    assert elapsed < INPUTS_BUDGET_S, f"took {elapsed:.0f}s"
    return "; ".join(details) + f"; {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criterion 6: ranking metrics vs a quadratic reference


def _pair_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return wins / (len(pos) * len(neg))


@criterion(6)
def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(0)
    tie_trials = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = rng.normal(size=n)
        if rng.uniform() < 0.5:
            scores = np.round(scores, 1)
        if len(np.unique(scores)) < n:
            tie_trials += 1
        labels = rng.integers(0, 2, size=n)
        while labels.min() == labels.max():
            labels = rng.integers(0, 2, size=n)
        got = roc_auc(scores, labels)
        want = _pair_auc(scores, labels)
        assert got == want, f"n={n}: {got!r} != {want!r}"
    assert tie_trials > 100

    sep = pr_auc([0.9, 0.8, 0.7, 0.2, 0.1], [1, 1, 1, 0, 0])
    assert abs(sep - 1.0) < 1e-12
    n = 10
    scores = np.arange(n, 0, -1, dtype=float)
    labels = np.zeros(n)
    labels[-1] = 1
    last = pr_auc(scores, labels)
    assert abs(last - 1.0 / n) < 1e-12, f"single positive last: {last!r}"
    allpos = pr_auc(np.random.default_rng(1).normal(size=6), np.ones(6))
    assert abs(allpos - 1.0) < 1e-12
    return (f"1000 roc trials exact ({tie_trials} with ties); "
            f"pr examples 1.0 / 1/n / 1.0")


# ---------------------------------------------------------------------------
# criterion 7: resume equivalence across snapshot round trips


@criterion(7)
def test_criterion_07_resume_bit_exact(tmp_path):
    cfg = TrainConfig(learning_rate=0.05, batch_size=8, epochs=2,
                      negatives_per_pair=4, seed=3, momentum=0.9)
    data = separable_samples(seed=6, days=range(1, 5), per_day=16)

    ref_model = tiny_model(seed=7)
    ref = train_batch_window(ref_model, {d: data[d] for d in (1, 2)}, cfg)
    ref = train_incremental(ref, 3, data[3], cfg, ref_model)
    ref = train_incremental(ref, 4, data[4], cfg, ref_model)

    model = tiny_model(seed=7)
    snap = train_batch_window(model, {d: data[d] for d in (1, 2)}, cfg)
    save_snapshot(snap, tmp_path / "2.snap")
    for day in (3, 4):
        resumed = load_snapshot(tmp_path / f"{day - 1}.snap")
        out = train_incremental(resumed, day, data[day], cfg,
                                tiny_model(seed=7))
        save_snapshot(out, tmp_path / f"{day}.snap")

    final = load_snapshot(tmp_path / "4.snap")
    assert final.watermark_day == ref.watermark_day == 4
    assert params_equal_exact(final.params, ref.params)
    assert params_equal_exact(final.velocity, ref.velocity)
    assert snapshot_bytes(final) == snapshot_bytes(ref)
    return "weights, optimizer state and serialized bytes all identical"


# ---------------------------------------------------------------------------
# criterion 8: back-window inference covers at least what one day does


@criterion(8)
def test_criterion_08_coverage():
    cfg = default_config()
    spec = cfg.upstream["ctr"]
    end = spec.batch_window_end
    margins = []
    for seed in (0, 1, 2):
        wcfg = replace(cfg.world, seed=seed)
        data = generate_world(wcfg)
        model = build_model(wcfg, "ctr", spec)
        snap = make_snapshot(model, watermark_day=end, rng_seed=0)
        sets = back_infer(snap, model, list(range(1, end + 1)), data)
        universe: dict[str, set] = {"user": set(), "pin": set()}
        for day in range(1, end + 1):
            for s in data.get(day, []):
                universe["user"].add(s.user_id)
                universe["pin"].add(s.pin_id)
        back_state = initial_state(cfg.lifecycle.heuristic)
        for daily in sets:
            back_state = aggregate_day(back_state, daily)
        single_state = aggregate_day(
            AggregatedStoreState(day=end - 1,
                                 heuristic=cfg.lifecycle.heuristic),
            sets[-1])
        back = coverage_report(back_state, universe)
        single = coverage_report(single_state, universe)
        for kind in ("user", "pin"):
            assert back[kind] >= single[kind], \
                f"seed {seed} {kind}: {back[kind]} < {single[kind]}"
            margins.append(back[kind] - single[kind])
        if seed == cfg.world.seed:
            assert back["user"] > single["user"]
            assert back["pin"] > single["pin"]
    return (f"3 world seeds, min margin {min(margins):+.3f}, "
            f"default world strictly ahead on both kinds")


# ---------------------------------------------------------------------------
# criterion 9: store round trip, checksum rejection, parallel serving


@criterion(9)
def test_criterion_09_store(tmp_path):
    rng = np.random.default_rng(7)
    items = []
    for i in range(5000):
        items.append((StoreKey("user", i, "ctr-upstream"),
                      rng.normal(size=16).astype("<f4")))
        items.append((StoreKey("pin", i, "cvr-upstream"),
                      rng.normal(size=16).astype("<f4")))
    vectors = {key.packed(): vec for key, vec in items}
    assert len(vectors) == 10_000

    blob = generation_bytes(9, 16, vectors)
    path = tmp_path / "gen.bin"
    path.write_bytes(blob)
    gen = load_generation(path)
    assert (gen.day, gen.dim, len(gen)) == (9, 16, 10_000)
    for key, vec in items:
        assert gen.lookup(key).tobytes() == vec.tobytes()
    assert generation_bytes(gen.day, gen.dim, generation_vectors(gen)) == blob

    for pos in (100, len(blob) - 3):  # one in the body, one in the checksum
        bad = bytearray(blob)
        bad[pos] ^= 0xFF
        with pytest.raises(CorruptGenerationError):
            parse_generation(bytes(bad))

    failures: list[str] = []
    lock = threading.Lock()

    def reader(tid: int, host: str, port: int):
        try:
            client = EmbeddingClient(host, port)
            r = np.random.default_rng(tid)
            for _ in range(150):
                key, vec = items[int(r.integers(0, len(items)))]
                status, got = client.request(key)
                if status != STATUS_OK or got.tobytes() != vec.tobytes():
                    raise AssertionError(f"mismatch on {key}")
            status, got = client.request(StoreKey("user", 10**6,
                                                  "ctr-upstream"))
            if status != STATUS_MISSING or got is not None:
                raise AssertionError("missing key not reported missing")
            client.close()
        except Exception as e:
            with lock:
                failures.append(f"reader {tid}: {e}")

    with serve(gen) as handle:
        host, port = handle.address
        threads = [threading.Thread(target=reader, args=(t, host, port))
                   for t in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not failures, failures
    return "10k keys byte-identical, 2 corruptions rejected, 32 readers clean"


# ---------------------------------------------------------------------------
# criterion 10: cross-layer cost scales with the square of the projection


@criterion(10)
def test_criterion_10_projection_cost():
    for layers in (1, 2, 3):
        for dim in (8, 16, 32, 64):
            ratio = (cross_layer_multiplies(dim, layers)
                     / cross_layer_multiplies(dim // 2, layers))
            assert ratio == 4.0
        for dim in (9, 17, 33):  # floor halving overshoots 4x slightly
            ratio = (cross_layer_multiplies(dim, layers)
                     / cross_layer_multiplies(dim // 2, layers))
            assert ratio == dim * dim / (dim // 2) ** 2
            assert 4.0 < ratio <= 5.1
        assert (cross_layer_multiplies(16, 2 * layers)
                == 2 * cross_layer_multiplies(16, layers))
    return "even dims exactly 4.0x, odd dims match floor-halving, linear in depth"
