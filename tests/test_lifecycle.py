import numpy as np
import pytest

from derm.data import EmbeddingRecord
from derm.errors import (
    DayGapError,
    EmptyIntersectionError,
    EmptyUniverseError,
    MixedDaysError,
    WatermarkBehindDayError,
    WeightOutOfRangeError,
    WindowExceedsWatermarkError,
)
from derm.lifecycle import (
    AggregationHeuristic,
    DailyEmbeddingSet,
    aggregate_day,
    apply_retention,
    back_infer,
    coverage_report,
    dedup_day,
    infer_daily,
    initial_state,
    noisy_daily_stability,
    stability_report,
)
from derm.trainer import make_snapshot

from util import random_unit_rows, separable_samples, tiny_model

ACC = AggregationHeuristic("acc")
AP = AggregationHeuristic("ap")


def MA(w):
    return AggregationHeuristic("ma", w)


def rec(entity, day, vec, kind="user", seq=0):
    return DailyEmbeddingSet(day, {
        (kind, e): EmbeddingRecord(e, kind, day, np.asarray(v, dtype=float),
                                   "test", seq)
        for e, v in zip(entity, vec)
    }) if isinstance(entity, list) else EmbeddingRecord(
        entity, kind, day, np.asarray(vec, dtype=float), "test", seq)


def daily_set(day, vectors, kind="user"):
    return DailyEmbeddingSet(day, {
        (kind, e): EmbeddingRecord(e, kind, day, np.asarray(v, dtype=float),
                                   "test", 0)
        for e, v in vectors.items()
    })


class TestHeuristic:
    @pytest.mark.parametrize("text,kind,w", [
        ("acc", "acc", None), ("ap", "ap", None),
        ("ma0.8", "ma", 0.8), ("ma 0.5", "ma", 0.5), ("MA0", "ma", 0.0),
    ])
    def test_parse(self, text, kind, w):
        h = AggregationHeuristic.parse(text)
        assert h.kind == kind
        if w is not None:
            assert h.w == w

    def test_weight_out_of_range(self):
        with pytest.raises(WeightOutOfRangeError):
            AggregationHeuristic.parse("ma1.5")
        with pytest.raises(WeightOutOfRangeError):
            AggregationHeuristic("ma", -0.1).validate()
        with pytest.raises(WeightOutOfRangeError):
            AggregationHeuristic("latest").validate()

    def test_labels(self):
        assert MA(0.8).label == "ma0.8"
        assert ACC.label == "acc"
        assert AP.label == "ap"


class TestInferDaily:
    def setup_method(self):
        self.model = tiny_model(seed=1)
        self.snap = make_snapshot(self.model, watermark_day=5, rng_seed=0)
        self.samples = separable_samples(seed=3, days=[4], per_day=12)[4]

    def test_one_record_per_occurrence(self):
        raw = infer_daily(self.snap, self.model, 4, self.samples, "m")
        assert len(raw) == 2 * len(self.samples)
        by_user = [r for r in raw if r.kind == "user"
                   and r.entity_id == self.samples.user_id[0]]
        repeats = int((self.samples.user_id == self.samples.user_id[0]).sum())
        assert len(by_user) == repeats

    def test_deterministic(self):
        a = infer_daily(self.snap, self.model, 4, self.samples, "m")
        b = infer_daily(self.snap, self.model, 4, self.samples, "m")
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.entity_id == y.entity_id and x.seq == y.seq
            assert x.vector.tobytes() == y.vector.tobytes()

    def test_watermark_behind(self):
        with pytest.raises(WatermarkBehindDayError):
            infer_daily(self.snap, self.model, 6, self.samples, "m")

    def test_unit_norm(self):
        raw = infer_daily(self.snap, self.model, 4, self.samples, "m")
        for r in raw:
            assert np.linalg.norm(r.vector) == pytest.approx(1.0, abs=1e-12)


class TestDedup:
    def test_last_of_day_wins(self):
        records = [rec(7, 3, [1, 0], seq=5), rec(7, 3, [0, 1], seq=9),
                   rec(7, 3, [1, 1], seq=2)]
        out = dedup_day(records, day=3)
        assert out.day == 3
        assert list(out.records) == [("user", 7)]
        assert out.records[("user", 7)].seq == 9
        assert np.array_equal(out.records[("user", 7)].vector, [0, 1])

    def test_single_record(self):
        out = dedup_day([rec(1, 2, [1.0, 0.0], seq=4)], day=2)
        assert out.records[("user", 1)].seq == 4

    def test_cardinality(self):
        rng = np.random.default_rng(0)
        records = []
        for e in range(10):
            seqs = rng.permutation(100)
            records += [rec(e, 1, [float(q), 0.0], seq=int(q)) for q in seqs]
        rng.shuffle(records)
        out = dedup_day(records, day=1)
        assert len(out.records) == 10
        assert all(r.seq == 99 for r in out.records.values())

    def test_mixed_days(self):
        with pytest.raises(MixedDaysError):
            dedup_day([rec(1, 2, [1.0]), rec(1, 3, [1.0])], day=2)

    def test_empty_stream_needs_day(self):
        assert dedup_day([], day=5).records == {}

    def test_user_and_pin_do_not_collide(self):
        records = [rec(4, 1, [1, 0], kind="user"), rec(4, 1, [0, 1], kind="pin")]
        assert len(dedup_day(records, day=1).records) == 2


class TestBackInfer:
    def setup_method(self):
        self.model = tiny_model(seed=2)
        self.snap = make_snapshot(self.model, watermark_day=5, rng_seed=0)
        self.data = separable_samples(seed=5, days=range(1, 6), per_day=10)

    def test_window_shape_and_union_coverage(self):
        sets = back_infer(self.snap, self.model, [1, 2, 3], self.data, "m")
        assert [s.day for s in sets] == [1, 2, 3]
        union = set().union(*(set(s.records) for s in sets))
        for s in sets:
            assert set(s.records) <= union

    def test_empty_window(self):
        assert back_infer(self.snap, self.model, [], self.data, "m") == []

    def test_window_exceeds_watermark(self):
        with pytest.raises(WindowExceedsWatermarkError):
            back_infer(self.snap, self.model, [5, 6], self.data, "m")
        with pytest.raises(WindowExceedsWatermarkError):
            back_infer(self.snap, self.model, [0, 1], self.data, "m")

    def test_entity_active_once_still_embedded(self):
        data = dict(self.data)
        uid = int(data[1].user_id[0])
        for d in range(2, 6):
            data[d] = data[d][data[d].user_id != uid]
        sets = back_infer(self.snap, self.model, list(range(1, 6)), data, "m")
        union = set().union(*(set(s.records) for s in sets))
        last_day_only = set(sets[-1].records)
        assert ("user", uid) in union
        assert ("user", uid) not in last_day_only


class TestAggregateDay:
    def test_ma_recurrence_example(self):
        state = aggregate_day(initial_state(MA(0.8)),
                              daily_set(1, {1: [1.0, 0.0]}))
        state = aggregate_day(state, daily_set(2, {1: [0.0, 1.0]}))
        assert np.allclose(state.entries[("user", 1)].vector, [0.8, 0.2],
                           atol=1e-15)

    def test_first_appearance_initializes(self):
        state = aggregate_day(initial_state(MA(0.8)),
                              daily_set(1, {3: [0.0, 1.0]}))
        assert np.array_equal(state.entries[("user", 3)].vector, [0.0, 1.0])
        assert state.entries[("user", 3)].last_active_day == 1

    def test_ap_two_day_average(self):
        state = aggregate_day(initial_state(AP), daily_set(1, {1: [1.0, 0.0]}))
        state = aggregate_day(state, daily_set(2, {1: [0.0, 1.0]}))
        assert np.allclose(state.entries[("user", 1)].vector, [0.5, 0.5])

    def test_ap_skips_gap_days(self):
        state = aggregate_day(initial_state(AP), daily_set(1, {1: [1.0, 0.0]}))
        state = aggregate_day(state, DailyEmbeddingSet(2, {}))
        state = aggregate_day(state, daily_set(3, {1: [0.0, 1.0]}))
        # most recent two dailies are day 1 and day 3
        assert np.allclose(state.entries[("user", 1)].vector, [0.5, 0.5])

    def test_day_gap_rejected(self):
        state = aggregate_day(initial_state(ACC), daily_set(1, {1: [1.0]}))
        with pytest.raises(DayGapError):
            aggregate_day(state, daily_set(3, {1: [1.0]}))

    def test_carry_over_is_bit_exact(self):
        state = aggregate_day(initial_state(MA(0.8)),
                              daily_set(1, {1: [0.3, 0.7], 2: [1.0, 0.0]}))
        before = state.entries[("user", 2)].vector.tobytes()
        for day in range(2, 8):
            state = aggregate_day(state, daily_set(day, {1: [0.1, 0.9]}))
        assert state.entries[("user", 2)].vector.tobytes() == before
        assert state.entries[("user", 2)].last_active_day == 1

    def test_last_active_updates_only_present(self):
        state = aggregate_day(initial_state(ACC),
                              daily_set(1, {1: [1.0], 2: [1.0]}))
        state = aggregate_day(state, daily_set(2, {1: [0.5]}))
        assert state.entries[("user", 1)].last_active_day == 2
        assert state.entries[("user", 2)].last_active_day == 1


def random_history(seed, days=30, entities=16, dim=6, presence=0.7):
    """Random per-day unit embeddings with random activity patterns."""
    rng = np.random.default_rng(seed)
    history = []
    for day in range(1, days + 1):
        present = [e for e in range(entities) if rng.uniform() < presence]
        vecs = random_unit_rows(rng, len(present), dim)
        history.append(daily_set(day, {e: vecs[i] for i, e in enumerate(present)}))
    return history


class TestAggregationAlgebra:
    """Property tests over randomized 30-day histories."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ma_fixed_point(self, seed):
        v = random_unit_rows(np.random.default_rng(seed), 1, 6)[0]
        state = initial_state(MA(0.8))
        for day in range(1, 31):
            state = aggregate_day(state, daily_set(day, {1: v}))
            assert np.allclose(state.entries[("user", 1)].vector, v, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
    def test_ma_convex_hull_containment(self, seed, w):
        history = random_history(seed)
        state = initial_state(MA(w))
        lo: dict = {}
        hi: dict = {}
        for day_set in history:
            state = aggregate_day(state, day_set)
            for key, r in day_set.records.items():
                lo[key] = np.minimum(lo[key], r.vector) if key in lo else r.vector
                hi[key] = np.maximum(hi[key], r.vector) if key in hi else r.vector
            for key, entry in state.entries.items():
                assert np.all(entry.vector >= lo[key] - 1e-12)
                assert np.all(entry.vector <= hi[key] + 1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_acc_equals_ma_zero_bit_exact(self, seed):
        history = random_history(seed)
        acc = initial_state(ACC)
        ma0 = initial_state(MA(0.0))
        for day_set in history:
            acc = aggregate_day(acc, day_set)
            ma0 = aggregate_day(ma0, day_set)
        assert set(acc.entries) == set(ma0.entries)
        for key in acc.entries:
            a, m = acc.entries[key].vector, ma0.entries[key].vector
            assert a.tobytes() == m.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_carry_over_across_gaps(self, seed):
        history = random_history(seed, presence=0.5)
        state = initial_state(MA(0.8))
        frozen: dict = {}
        for day_set in history:
            next_state = aggregate_day(state, day_set)
            for key in state.entries:
                if key not in day_set.records:
                    assert next_state.entries[key].vector.tobytes() == \
                        state.entries[key].vector.tobytes()
            state = next_state
            frozen = {k: e.vector.tobytes() for k, e in state.entries.items()}
        assert frozen  # history produced entities

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ap_matches_two_most_recent_dailies(self, seed):
        history = random_history(seed, presence=0.6)
        state = initial_state(AP)
        seen: dict = {}
        for day_set in history:
            state = aggregate_day(state, day_set)
            for key, r in day_set.records.items():
                seen.setdefault(key, []).append(r.vector)
            for key, vecs in seen.items():
                if len(vecs) == 1:
                    expect = vecs[-1]
                else:
                    expect = 0.5 * (vecs[-2] + vecs[-1])
                assert state.entries[key].vector.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dedup_cardinality_from_random_streams(self, seed):
        rng = np.random.default_rng([seed, 99])
        entities = list(range(12))
        records = []
        seq = 0
        for _ in range(300):
            e = int(rng.integers(len(entities)))
            records.append(rec(e, 1, list(rng.normal(size=3)), seq=seq))
            seq += 1
        out = dedup_day(records, day=1)
        assert len(out.records) == len({r.entity_id for r in records})


class TestRetention:
    def make_state(self, last_active: dict):
        state = initial_state(ACC)
        day = 0
        for e, d in sorted(last_active.items(), key=lambda kv: kv[1]):
            while day < d:
                day += 1
                present = {x: [1.0, 0.0] for x, dd in last_active.items()
                           if dd == day}
                state = aggregate_day(state, daily_set(day, present))
        return state

    def test_boundary_eviction(self):
        state = self.make_state({1: 1, 2: 2})
        state = AggregatedStoreStateDayShim(state, 92)
        kept = apply_retention(state, current_day=92, window_days=90)
        assert ("user", 1) not in kept.entries
        assert ("user", 2) in kept.entries

    def test_window_one(self):
        state = self.make_state({1: 3, 2: 4, 3: 5})
        kept = apply_retention(state, current_day=5, window_days=1)
        assert set(kept.entries) == {("user", 2), ("user", 3)}

    def test_window_must_be_positive(self):
        with pytest.raises(WeightOutOfRangeError):
            apply_retention(initial_state(ACC), 5, window_days=0)

    def test_ap_buffer_pruned_with_entries(self):
        state = initial_state(AP)
        state = aggregate_day(state, daily_set(1, {1: [1.0, 0.0]}))
        for day in range(2, 6):
            state = aggregate_day(state, daily_set(day, {2: [0.0, 1.0]}))
        kept = apply_retention(state, current_day=5, window_days=2)
        assert ("user", 1) not in kept.entries
        assert ("user", 1) not in kept.prev_daily


def AggregatedStoreStateDayShim(state, day):
    """Forward the state to a later day with no activity (empty dailies)."""
    while state.day < day:
        state = aggregate_day(state, DailyEmbeddingSet(state.day + 1, {}))
    return state


class TestReports:
    def test_stability_unchanged_state_is_one(self):
        state = aggregate_day(initial_state(ACC),
                              daily_set(1, {1: [1.0, 0.0], 2: [0.6, 0.8]}))
        rep = stability_report(state, state)
        assert rep.mean == pytest.approx(1.0, abs=1e-12)

    def test_stability_orthogonal_replacement_is_zero(self):
        a = aggregate_day(initial_state(ACC), daily_set(1, {1: [1.0, 0.0]}))
        b = aggregate_day(a, daily_set(2, {1: [0.0, 1.0]}))
        assert stability_report(a, b).mean == pytest.approx(0.0, abs=1e-12)

    def test_stability_empty_intersection(self):
        a = aggregate_day(initial_state(ACC), daily_set(1, {1: [1.0]}))
        b = aggregate_day(initial_state(ACC), daily_set(1, {2: [1.0]}))
        with pytest.raises(EmptyIntersectionError):
            stability_report(a, b)

    def test_ma_more_stable_than_acc_under_noise(self):
        ma = noisy_daily_stability(MA(0.8), seed=7)
        acc = noisy_daily_stability(ACC, seed=7)
        assert ma > acc

    def test_stability_ordering_by_weight(self):
        sims = {w: noisy_daily_stability(MA(w), seed=11) for w in (0.8, 0.5, 0.2)}
        acc = noisy_daily_stability(ACC, seed=11)
        assert sims[0.8] > sims[0.5] > sims[0.2] > acc

    def test_coverage_full_and_empty(self):
        state = aggregate_day(initial_state(ACC),
                              daily_set(1, {1: [1.0], 2: [1.0]}))
        assert coverage_report(state, {"user": {1, 2}}) == {"user": 1.0}
        empty = initial_state(ACC)
        assert coverage_report(empty, {"user": {1, 2}}) == {"user": 0.0}

    def test_coverage_per_kind(self):
        state = aggregate_day(initial_state(ACC), daily_set(1, {1: [1.0]}))
        out = coverage_report(state, {"user": {1, 2}, "pin": {5}})
        assert out == {"user": 0.5, "pin": 0.0}

    def test_coverage_empty_universe(self):
        with pytest.raises(EmptyUniverseError):
            coverage_report(initial_state(ACC), {"user": set(), "pin": set()})
