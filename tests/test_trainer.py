import numpy as np
import pytest

from derm.data import SampleBatch
from derm.errors import (
    DivergedLossError,
    EmptyWindowError,
    IoFailureError,
    WatermarkGapError,
)
from derm.objectives import bce_loss, estimate_batch_frequencies, sampled_softmax_loss
from derm.params import zeros_like_params
from derm.towers import embed_entity, interaction_forward
from derm.trainer import (
    SNAPSHOT,
    TrainConfig,
    batch_step,
    evaluate_loss,
    load_snapshot,
    make_snapshot,
    save_snapshot,
    sgd_step,
    snapshot_bytes,
    train_batch_window,
    train_incremental,
)

from util import params_equal_exact, separable_samples, tiny_model


def small_cfg(**kw):
    base = dict(learning_rate=0.05, batch_size=8, epochs=2,
                negatives_per_pair=4, seed=3)
    base.update(kw)
    return TrainConfig(**base)


def no_events():
    return separable_samples(seed=0, days=[1], per_day=1)[1][:0]


class TestConfig:
    def test_batch_size_one_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(batch_size=1).validate()

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            small_cfg(learning_rate=0.0).validate()

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            small_cfg(momentum=1.0).validate()


class TestSgdStep:
    def test_zero_grads_no_change(self):
        p = np.array([1.0, 2.0])
        sgd_step(p, np.zeros(2), lr=0.3)
        assert np.array_equal(p, [1.0, 2.0])

    def test_scalar_update(self):
        p = np.array([1.0])
        sgd_step(p, np.array([2.0]), lr=0.1)
        assert p[0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_lr_no_change(self):
        p = np.array([5.0])
        sgd_step(p, np.array([99.0]), lr=0.0)
        assert p[0] == 5.0

    def test_momentum_accumulates(self):
        p = np.array([0.0])
        v = np.array([0.0])
        g = np.array([1.0])
        sgd_step(p, g, lr=1.0, momentum=0.5, velocity=v)
        assert p[0] == -1.0 and v[0] == 1.0
        sgd_step(p, g, lr=1.0, momentum=0.5, velocity=v)
        # v = 0.5*1 + 1 = 1.5
        assert v[0] == 1.5 and p[0] == -2.5


class TestSnapshotSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(seed=1)
        snap = make_snapshot(model, watermark_day=7, rng_seed=99)
        path = tmp_path / "m.snap"
        save_snapshot(snap, path)
        loaded = load_snapshot(path)
        assert loaded.watermark_day == 7
        assert loaded.rng_seed == 99
        assert params_equal_exact(loaded.params, snap.params)
        assert params_equal_exact(loaded.velocity, snap.velocity)
        assert snapshot_bytes(loaded) == snapshot_bytes(snap)

    def test_corrupted_byte_rejected(self, tmp_path):
        snap = make_snapshot(tiny_model(seed=1), 3, 5)
        blob = bytearray(snapshot_bytes(snap))
        blob[len(blob) // 2] ^= 0xFF
        path = tmp_path / "bad.snap"
        path.write_bytes(bytes(blob))
        with pytest.raises(IoFailureError):
            load_snapshot(path)

    def test_truncated_rejected(self, tmp_path):
        snap = make_snapshot(tiny_model(seed=1), 3, 5)
        path = tmp_path / "short.snap"
        path.write_bytes(snapshot_bytes(snap)[:10])
        with pytest.raises(IoFailureError):
            load_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_snapshot(tmp_path / "absent.snap")

    @staticmethod
    def _snapshot(names=(b"w",), ndims=(1,), dims=(2,), size=2,
                  **declared) -> bytes:
        """A one-array snapshot file by default, with a valid checksum;
        declared overrides the header's counts."""
        width = max(map(len, names))
        table = np.zeros(len(names), [("name", f"S{width}"), ("ndim", "u1")])
        table["name"], table["ndim"] = names, ndims
        header = {"arrays": len(names), "width": width, "dims": len(dims),
                  "size": size, **declared}
        return SNAPSHOT.pack((3, 5, *header.values()), table,
                             np.array(dims, "<u4"), bytes(16 * size))

    def test_hand_built_snapshot_loads(self, tmp_path):
        path = tmp_path / "table.snap"
        path.write_bytes(self._snapshot())
        loaded = load_snapshot(path)
        assert (loaded.watermark_day, loaded.rng_seed) == (3, 5)
        assert params_equal_exact(loaded.params, {"w": np.zeros(2)})
        assert params_equal_exact(loaded.velocity, {"w": np.zeros(2)})

    @pytest.mark.parametrize("layout, error", [
        # more arrays declared than the layout table holds
        ({"arrays": 2}, "bytes before its trailer"),
        # a name width that runs past the end
        ({"width": 40}, "bytes before its trailer"),
        # a name that is not UTF-8
        ({"names": (b"\xff\xfe",)}, "not UTF-8"),
        # an array shape that needs more values than the file holds
        ({"dims": (100,)}, "disagree"),
        # ndims that disagree with the dims table
        ({"ndims": (2,)}, "disagree"),
    ], ids=["count", "name-length", "name-utf8", "array", "dims"])
    def test_malformed_table_is_io_failure(self, tmp_path, layout, error):
        # the checksum holds, so only the table reader can catch these
        path = tmp_path / "table.snap"
        path.write_bytes(self._snapshot(**layout))
        with pytest.raises(IoFailureError, match=rf"table\.snap.*{error}"):
            load_snapshot(path)


class TestBatchStep:
    @pytest.mark.parametrize("kept", ["supervised", "contrastive"])
    def test_zero_weight_leaves_one_term(self, kept):
        # the loss is contrastive_weight * softmax + supervised_weight * mean
        # BCE; a zero weight on the other term leaves the kept term alone
        model = tiny_model(seed=1)
        batch = separable_samples(seed=4, days=[1], per_day=16)[1]
        cfg = small_cfg(contrastive_weight=float(kept == "contrastive"),
                        supervised_weight=float(kept == "supervised"))
        grads = zeros_like_params(model.params)
        loss = batch_step(model, batch, cfg, np.random.default_rng(5), grads)

        U, _ = embed_entity(model.user_cfg, model.params, "user", batch.user)
        P, _ = embed_entity(model.pin_cfg, model.params, "pin", batch.pin)
        labels = batch.labels["click"]
        if kept == "supervised":
            logits, _ = interaction_forward(model, U, P, batch.context)
            expect = float(bce_loss(logits, labels)[0].mean())
            assert grads["log_tau"][0] == 0.0
        else:
            ids = batch.pin_id.tolist()
            expect = sampled_softmax_loss(
                U, P, ids, labels == 1, estimate_batch_frequencies(ids),
                tau=model.temperature, negatives_per_pair=cfg.negatives_per_pair,
                rng_seed=np.random.default_rng(5)).loss
            supervised = [k for k in grads if k.startswith(("head/", "inter/"))]
            assert supervised and not any(grads[k].any() for k in supervised)
        assert expect > 0
        assert loss == pytest.approx(expect, rel=1e-12, abs=0)


class TestBatchWindow:
    def test_empty_window(self):
        with pytest.raises(EmptyWindowError):
            train_batch_window(tiny_model(), {}, small_cfg())
        with pytest.raises(EmptyWindowError):
            train_batch_window(tiny_model(), {1: no_events(), 2: no_events()},
                               small_cfg())

    def test_deterministic_rerun(self):
        data = separable_samples(seed=0, days=range(1, 3), per_day=24)
        snaps = []
        for _ in range(2):
            model = tiny_model(seed=2)
            snaps.append(train_batch_window(model, data, small_cfg()))
        assert snapshot_bytes(snaps[0]) == snapshot_bytes(snaps[1])
        assert snaps[0].watermark_day == 2

    def test_loss_halves_on_separable_data(self):
        data = separable_samples(seed=1, days=range(1, 4), per_day=40)
        train_flat = SampleBatch.concat([data[d] for d in sorted(data)])
        held_out = separable_samples(seed=77, days=[9], per_day=40)[9]
        model = tiny_model(seed=2)
        cfg = small_cfg(epochs=12, learning_rate=0.2)
        init_train = evaluate_loss(model, train_flat, cfg)
        init_held = evaluate_loss(model, held_out, cfg)
        log = []
        train_batch_window(model, data, cfg, loss_log=log)
        assert evaluate_loss(model, held_out, cfg) < init_held
        # loss curve is the oracle: last-epoch mean vs loss at initialization
        last = np.mean([l for (_, e, _, l) in log if e == cfg.epochs - 1])
        assert last <= 0.5 * init_train

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverges_with_absurd_learning_rate(self):
        data = separable_samples(seed=1, days=[1], per_day=24)
        model = tiny_model(seed=2)
        with pytest.raises(DivergedLossError):
            train_batch_window(model, data, small_cfg(learning_rate=1e12,
                                                      epochs=8))


class TestIncremental:
    def test_watermark_gap(self):
        model = tiny_model(seed=0)
        snap = make_snapshot(model, watermark_day=4, rng_seed=3)
        day6 = separable_samples(seed=0, days=[6], per_day=8)[6]
        with pytest.raises(WatermarkGapError):
            train_incremental(snap, 6, day6, small_cfg(), model)

    def test_empty_day_advances_watermark_only(self):
        model = tiny_model(seed=0)
        snap = make_snapshot(model, watermark_day=4, rng_seed=3)
        out = train_incremental(snap, 5, no_events(), small_cfg(), model)
        assert out.watermark_day == 5
        assert params_equal_exact(out.params, snap.params)
        assert params_equal_exact(out.velocity, snap.velocity)

    def test_two_days_thread_state(self):
        data = separable_samples(seed=4, days=[1, 2, 3], per_day=16)
        model = tiny_model(seed=5)
        snap = train_batch_window(model, {1: data[1]}, small_cfg())
        snap = train_incremental(snap, 2, data[2], small_cfg(), model)
        snap = train_incremental(snap, 3, data[3], small_cfg(), model)
        assert snap.watermark_day == 3


class TestResumeEquivalence:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_batch_then_incremental_matches_one_process(self, tmp_path, momentum):
        cfg = small_cfg(momentum=momentum)
        data = separable_samples(seed=6, days=range(1, 5), per_day=16)

        # uninterrupted: one process, state threaded in memory
        ref_model = tiny_model(seed=7)
        ref = train_batch_window(ref_model, {d: data[d] for d in (1, 2)}, cfg)
        ref = train_incremental(ref, 3, data[3], cfg, ref_model)
        ref = train_incremental(ref, 4, data[4], cfg, ref_model)

        # interrupted: snapshot to disk after every phase, fresh model objects
        model = tiny_model(seed=7)
        snap = train_batch_window(model, {d: data[d] for d in (1, 2)}, cfg)
        save_snapshot(snap, tmp_path / "2.snap")
        for day in (3, 4):
            resumed = load_snapshot(tmp_path / f"{day - 1}.snap")
            fresh = tiny_model(seed=7)
            out = train_incremental(resumed, day, data[day], cfg, fresh)
            save_snapshot(out, tmp_path / f"{day}.snap")

        final = load_snapshot(tmp_path / "4.snap")
        assert final.watermark_day == ref.watermark_day == 4
        assert params_equal_exact(final.params, ref.params)
        assert params_equal_exact(final.velocity, ref.velocity)
        assert snapshot_bytes(final) == snapshot_bytes(ref)


class TestEvaluateLoss:
    def test_deterministic(self):
        day = separable_samples(seed=8, days=[1], per_day=24)[1]
        model = tiny_model(seed=9)
        cfg = small_cfg()
        assert evaluate_loss(model, day, cfg) == evaluate_loss(model, day, cfg)

    def test_empty(self):
        with pytest.raises(EmptyWindowError):
            evaluate_loss(tiny_model(), no_events(), small_cfg())
