import numpy as np
import pytest

from derm.data import KIND_CODES, embedding_rows
from derm.errors import (
    DayGapError,
    DimInconsistentError,
    EmptyIntersectionError,
    EmptyUniverseError,
    WatermarkBehindDayError,
    WeightOutOfRangeError,
    WindowExceedsWatermarkError,
)
from derm.lifecycle import (
    AggregatedStoreState,
    AggregationHeuristic,
    StoreEntry,
    aggregate_day,
    apply_retention,
    back_infer,
    coverage_report,
    dedup_day,
    infer_daily,
    initial_state,
    stability_mean,
)
from derm.numerics import cosine_similarity
from derm.trainer import make_snapshot

from util import (
    daily_set,
    daily_vectors,
    noisy_daily_stability,
    random_unit_rows,
    separable_samples,
    tiny_model,
)

ACC = AggregationHeuristic("acc")
AP = AggregationHeuristic("ap")


def MA(w):
    return AggregationHeuristic("ma", w)


def rec(entity, vec, kind="user", seq=0):
    return entity, vec, kind, seq


def raw(*recs):
    """Raw embedding rows, in the given order, of rec tuples."""
    ids, vecs, kinds, seqs = zip(*recs)
    return embedding_rows([KIND_CODES[k] for k in kinds], ids, seqs, vecs)


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
        rows = infer_daily(self.snap, self.model, 4, self.samples)
        assert len(rows) == 2 * len(self.samples)
        by_user = rows[(rows["kind"] == KIND_CODES["user"])
                       & (rows["id"] == self.samples.user_id[0])]
        repeats = int((self.samples.user_id == self.samples.user_id[0]).sum())
        assert len(by_user) == repeats

    def test_event_order_user_row_first(self):
        rows = infer_daily(self.snap, self.model, 4, self.samples)
        assert rows["kind"].tolist() == [0, 1] * len(self.samples)
        assert np.array_equal(rows["id"][0::2], self.samples.user_id)
        assert np.array_equal(rows["id"][1::2], self.samples.pin_id)
        assert np.array_equal(rows["seq"][0::2], self.samples.event_seq)
        assert np.array_equal(rows["seq"][1::2], self.samples.event_seq)

    def test_empty_day_is_zero_rows_of_dim_0(self):
        rows = infer_daily(self.snap, self.model, 4, self.samples[:0])
        assert len(rows) == 0 and rows.dtype["vec"].shape == (0,)

    def test_deterministic(self):
        a = infer_daily(self.snap, self.model, 4, self.samples)
        b = infer_daily(self.snap, self.model, 4, self.samples)
        assert a.tobytes() == b.tobytes()

    def test_watermark_behind(self):
        with pytest.raises(WatermarkBehindDayError):
            infer_daily(self.snap, self.model, 6, self.samples)

    def test_unit_norm(self):
        rows = infer_daily(self.snap, self.model, 4, self.samples)
        assert np.allclose(np.linalg.norm(rows["vec"], axis=1), 1.0,
                           rtol=0, atol=1e-12)


class TestDedup:
    def test_last_of_day_wins(self):
        out = dedup_day(raw(rec(7, [1, 0], seq=5), rec(7, [0, 1], seq=9),
                            rec(7, [1, 1], seq=2)), day=3)
        assert out.day == 3
        assert list(daily_vectors(out)) == [("user", 7)]
        assert out.records["seq"].tolist() == [9]
        assert np.array_equal(out.records["vec"][0], [0, 1])

    def test_single_record(self):
        out = dedup_day(raw(rec(1, [1.0, 0.0], seq=4)), day=2)
        assert out.records["seq"].tolist() == [4]

    def test_cardinality(self):
        rng = np.random.default_rng(0)
        records = []
        for e in range(10):
            seqs = rng.permutation(100)
            records += [rec(e, [float(q), 0.0], seq=int(q)) for q in seqs]
        rng.shuffle(records)
        out = dedup_day(raw(*records), day=1)
        assert out.records["id"].tolist() == list(range(10))
        assert out.records["seq"].tolist() == [99] * 10
        assert np.array_equal(out.records["vec"][:, 0], [99.0] * 10)

    def test_equal_seq_first_row_wins(self):
        out = dedup_day(raw(rec(5, [1, 0], seq=3), rec(2, [0, 0], seq=1),
                            rec(5, [0, 1], seq=3), rec(5, [1, 1], seq=1)), day=1)
        assert daily_vectors(out)[("user", 5)].tolist() == [1, 0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dict_walk_reference(self, seed):
        rng = np.random.default_rng([seed, 7])
        records = [rec(int(rng.integers(6)), list(rng.normal(size=2)),
                       kind=("user", "pin")[int(rng.integers(2))],
                       seq=int(rng.integers(10)))
                   for _ in range(200)]
        kept = {}  # the greatest seq wins; on equal seq the first row stays
        for e, vec, kind, seq in records:
            if (kind, e) not in kept or seq > kept[(kind, e)][1]:
                kept[(kind, e)] = (vec, seq)
        out = dedup_day(raw(*records), day=1)
        assert list(daily_vectors(out)) == sorted(
            kept, key=lambda k: (KIND_CODES[k[0]], k[1]))
        for (key, v), seq in zip(daily_vectors(out).items(),
                                 out.records["seq"].tolist()):
            assert (v.tolist(), seq) == kept[key]

    def test_empty_stream_needs_day(self):
        out = dedup_day(embedding_rows(), day=5)
        assert out.day == 5 and len(out.records) == 0

    def test_user_and_pin_do_not_collide(self):
        out = dedup_day(raw(rec(4, [1, 0], kind="pin"),
                            rec(4, [0, 1], kind="user")), day=1)
        assert list(daily_vectors(out)) == [("user", 4), ("pin", 4)]


class TestBackInfer:
    def setup_method(self):
        self.model = tiny_model(seed=2)
        self.snap = make_snapshot(self.model, watermark_day=5, rng_seed=0)
        self.data = separable_samples(seed=5, days=range(1, 6), per_day=10)

    def test_window_shape_and_union_coverage(self):
        sets = back_infer(self.snap, self.model, [1, 2, 3], self.data)
        assert [s.day for s in sets] == [1, 2, 3]
        union = set().union(*(set(daily_vectors(s)) for s in sets))
        for s in sets:
            assert set(daily_vectors(s)) <= union

    def test_empty_window(self):
        assert back_infer(self.snap, self.model, [], self.data) == []

    def test_day_without_events_gives_empty_set(self):
        data = {d: b for d, b in self.data.items() if d != 2}
        sets = back_infer(self.snap, self.model, [1, 2, 3], data)
        assert [s.day for s in sets] == [1, 2, 3]
        assert len(sets[1].records) == 0
        assert sets[1].records.dtype["vec"].shape == (0,)
        assert [s.records.tobytes() for s in sets[::2]] == [
            s.records.tobytes() for s in back_infer(self.snap, self.model,
                                                    [1, 3], self.data)]

    def test_window_exceeds_watermark(self):
        with pytest.raises(WindowExceedsWatermarkError):
            back_infer(self.snap, self.model, [5, 6], self.data)
        with pytest.raises(WindowExceedsWatermarkError):
            back_infer(self.snap, self.model, [0, 1], self.data)

    def test_entity_active_once_still_embedded(self):
        data = dict(self.data)
        uid = int(data[1].user_id[0])
        for d in range(2, 6):
            data[d] = data[d][data[d].user_id != uid]
        sets = back_infer(self.snap, self.model, list(range(1, 6)), data)
        union = set().union(*(set(daily_vectors(s)) for s in sets))
        last_day_only = set(daily_vectors(sets[-1]))
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
        state = aggregate_day(state, daily_set(2, {}))
        state = aggregate_day(state, daily_set(3, {1: [0.0, 1.0]}))
        # most recent two dailies are day 1 and day 3
        assert np.allclose(state.entries[("user", 1)].vector, [0.5, 0.5])

    def test_day_gap_rejected(self):
        state = aggregate_day(initial_state(ACC), daily_set(1, {1: [1.0]}))
        with pytest.raises(DayGapError):
            aggregate_day(state, daily_set(3, {1: [1.0]}))

    @pytest.mark.parametrize("heuristic", [MA(0.8), AP, ACC],
                             ids=["ma", "ap", "acc"])
    def test_dim_change_rejected_naming_day_and_dims(self, heuristic):
        state = aggregate_day(initial_state(heuristic),
                              daily_set(1, {1: [1.0, 0.0]}))
        with pytest.raises(DimInconsistentError,
                           match=r"day 2 has dim 3, but the state has dim 2"):
            aggregate_day(state, daily_set(2, {1: [1.0, 0.0, 0.0]}))

    def test_empty_day_and_empty_state_skip_the_dim_check(self):
        state = aggregate_day(initial_state(AP), daily_set(1, {}))
        state = aggregate_day(state, daily_set(2, {1: [1.0, 0.0]}))
        state = aggregate_day(state, daily_set(3, {}))
        assert state.entries[("user", 1)].vector.shape == (2,)

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
            for key, v in daily_vectors(day_set).items():
                lo[key] = np.minimum(lo[key], v) if key in lo else v
                hi[key] = np.maximum(hi[key], v) if key in hi else v
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
            present = daily_vectors(day_set)
            for key in state.entries:
                if key not in present:
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
            for key, v in daily_vectors(day_set).items():
                seen.setdefault(key, []).append(v)
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
            records.append(rec(e, list(rng.normal(size=3)), seq=seq))
            seq += 1
        out = dedup_day(raw(*records), day=1)
        assert len(out.records) == len({e for e, _, _, _ in records})


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
        state = aggregate_day(state, daily_set(state.day + 1, {}))
    return state


class TestReports:
    def test_stability_unchanged_state_is_one(self):
        state = aggregate_day(initial_state(ACC),
                              daily_set(1, {1: [1.0, 0.0], 2: [0.6, 0.8]}))
        assert stability_mean(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_stability_orthogonal_replacement_is_zero(self):
        a = aggregate_day(initial_state(ACC), daily_set(1, {1: [1.0, 0.0]}))
        b = aggregate_day(a, daily_set(2, {1: [0.0, 1.0]}))
        assert stability_mean(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_stability_mean_sums_in_key_order(self):
        # cosines 1 and -1 bracket five of 2**-53 in (kind, id) order, so
        # 1 + 2**-53 rounds to 1 and the sum cancels to 0; the entries are
        # inserted in the reverse order, where the five survive the sum
        tiny = 2.0 ** -53
        after_vecs = {("pin", 1): [1.0, 0.0], ("user", 9): [-1.0, 0.0],
                      **{("user", i): [tiny, 1.0] for i in range(1, 6)}}
        keys = sorted(after_vecs, reverse=True)

        def state(vecs):
            return AggregatedStoreState(
                1, ACC, {k: StoreEntry(np.array(vecs[k]), 1) for k in keys})

        before = state({k: [1.0, 0.0] for k in keys})
        after = state(after_vecs)

        def mean_cosine(order):
            return float(np.mean([cosine_similarity([1.0, 0.0], after_vecs[k])
                                  for k in order]))

        assert mean_cosine(sorted(keys)) != mean_cosine(keys)
        assert stability_mean(before, after) == mean_cosine(sorted(keys))

    def test_stability_empty_intersection(self):
        a = aggregate_day(initial_state(ACC), daily_set(1, {1: [1.0]}))
        b = aggregate_day(initial_state(ACC), daily_set(1, {2: [1.0]}))
        with pytest.raises(EmptyIntersectionError):
            stability_mean(a, b)

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
