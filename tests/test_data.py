import numpy as np
import pytest

from derm.data import SampleBatch
from derm.synth import WorldConfig, day_file_bytes, generate_world, parse_day_file

from util import pad_sequences


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(num_users=16, num_pins=20, days=5, seed=11))


def hist_rows(batch):
    ids, lengths = batch.user.sequence["hist"]
    return [row[:n].tolist() for row, n in zip(ids, lengths)]


class TestSampleBatch:
    def test_int_index_is_one_column_row(self, world):
        batch = world[4]
        ids, lengths = batch.user.sequence["hist"]
        for i in (0, len(batch) // 2, len(batch) - 1, -1):
            event = batch[i]
            for name in ("user_id", "pin_id", "event_seq"):
                assert getattr(event, name) == getattr(batch, name)[i]
            assert {t: int(v) for t, v in event.labels.items()} == \
                {t: int(v[i]) for t, v in batch.labels.items()}
            for got, col in ((event.user.dense["profile"], batch.user.dense["profile"]),
                             (event.pin.dense["attrs"], batch.pin.dense["attrs"]),
                             (event.context.dense["hour"], batch.context.dense["hour"])):
                assert got.tobytes() == col[i].tobytes()
            assert event.user.categorical["uid"] == batch.user_id[i]
            assert event.pin.categorical["pid"] == batch.pin_id[i]
            row, n = event.user.sequence["hist"]
            assert n == lengths[i]
            assert row.tolist() == ids[i, :max(1, n)].tolist()

    def test_iteration_walks_every_event(self, world):
        batch = world[3]
        events = list(batch)
        assert len(events) == len(batch)
        assert [e.user_id for e in events] == batch.user_id.tolist()
        assert [e.pin_id for e in events] == batch.pin_id.tolist()

    @pytest.mark.parametrize("pick", ["slice", "short-rows", "order", "mask", "none"])
    def test_sub_batch_pads_as_pad_sequences(self, world, pick):
        batch = world[5]
        rows = hist_rows(batch)
        short = np.flatnonzero(batch.user.sequence["hist"][1] <= 1)
        idx = {"slice": slice(3, 11), "short-rows": short,
               "order": np.random.default_rng(0).permutation(len(batch))[:8],
               "mask": batch.labels["click"] == 1,
               "none": np.array([], dtype=np.int64)}[pick]
        sub = batch[idx]
        want_ids, want_lengths = pad_sequences(
            [rows[i] for i in np.arange(len(batch))[idx]])
        ids, lengths = sub.user.sequence["hist"]
        assert ids.shape == want_ids.shape
        assert np.array_equal(ids, want_ids) and np.array_equal(lengths, want_lengths)
        assert len(sub) == len(want_lengths)
        assert sub.pin.dense["attrs"].tobytes() == batch.pin.dense["attrs"][idx].tobytes()
        assert np.array_equal(sub.labels["conversion"], batch.labels["conversion"][idx])

    def test_concat_pads_to_the_widest_day(self, world):
        days = [world[d] for d in (1, 5, 2)]
        widths = [d.user.sequence["hist"][0].shape[1] for d in days]
        assert widths[0] == 1 and widths[1] > widths[2]
        joined = SampleBatch.concat(days)
        rows = [r for d in days for r in hist_rows(d)]
        ids, lengths = joined.user.sequence["hist"]
        want_ids, want_lengths = pad_sequences(rows)
        assert ids.shape == (len(rows), max(widths)) == want_ids.shape
        assert np.array_equal(ids, want_ids) and np.array_equal(lengths, want_lengths)
        assert np.array_equal(joined.user_id,
                              np.concatenate([d.user_id for d in days]))
        assert joined.context.dense["hour"].shape == (len(rows), 1)
        assert joined.labels.keys() == days[0].labels.keys()

    def test_zero_event_day_round_trips(self, world):
        empty = world[2][:0]
        assert len(empty) == 0
        assert empty.user.sequence["hist"][0].shape == (0, 1)
        blob = day_file_bytes(2, empty)
        day, back = parse_day_file(blob)
        assert (day, len(back)) == (2, 0)
        assert back.user.dense["profile"].shape == empty.user.dense["profile"].shape
        assert back.user.sequence["hist"][0].shape == (0, 1)
        assert list(back) == []
        assert day_file_bytes(2, back) == blob
