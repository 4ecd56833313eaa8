import shutil
import struct

import numpy as np
import pytest

from derm.data import KIND_CODES, PIN, USER
from derm.errors import InvalidRatesError, IoFailureError
from derm.synth import (
    CLICK,
    CONVERSION,
    DAY_FILE,
    EVENT_JITTER,
    GAIN,
    HISTORY_LEN,
    _ACTIVITY,
    _EVENTS,
    World,
    WorldConfig,
    _batch,
    _event_type,
    day_file_bytes,
    day_file_name,
    generate_world,
    load_world_files,
    positive_rates,
    write_world_files,
)

from util import oracle_auc_bound


def assert_identical(a: np.ndarray, b: np.ndarray):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_batches_identical(got, want):
    """Every column equal bit for bit, with its dtype and shape."""
    for name in ("user_id", "pin_id", "event_seq"):
        assert_identical(getattr(got, name), getattr(want, name))
    assert got.labels.keys() == want.labels.keys()
    for task in got.labels:
        assert_identical(got.labels[task], want.labels[task])
    for a, b in ((got.user, want.user), (got.pin, want.pin),
                 (got.context, want.context)):
        for kind in ("dense", "categorical", "sequence"):
            cols, wants = getattr(a, kind), getattr(b, kind)
            assert cols.keys() == wants.keys()
            for key in cols:
                pairs = (zip(cols[key], wants[key]) if kind == "sequence"
                         else [(cols[key], wants[key])])
                for col, want_col in pairs:
                    assert_identical(col, want_col)


def small_cfg(**kw):
    base = dict(num_users=16, num_pins=20, days=6, seed=11)
    base.update(kw)
    return WorldConfig(**base)


class TestConfigValidation:
    def test_default_valid(self):
        WorldConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("activity_rate", 0.0), ("activity_rate", 1.0),
        ("click_rate", 1.2), ("conversion_rate", -0.1),
    ])
    def test_rates_outside_unit_interval(self, field, value):
        with pytest.raises(InvalidRatesError):
            small_cfg(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["noise_level", "events_per_user"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InvalidRatesError):
            small_cfg(**{field: value}).validate()

    @pytest.mark.parametrize("value", [0.0, 0.5, 0.999])
    def test_events_per_user_below_one_rejected(self, value):
        # each active user has 1 + Poisson(events_per_user - 1) events
        with pytest.raises(InvalidRatesError, match=r"^events_per_user "):
            small_cfg(events_per_user=value).validate()

    def test_conversion_must_be_sparser(self):
        with pytest.raises(InvalidRatesError):
            small_cfg(click_rate=0.2, conversion_rate=0.2).validate()
        with pytest.raises(InvalidRatesError):
            small_cfg(click_rate=0.2, conversion_rate=0.3).validate()

    def test_subspaces_overlap_half(self):
        cfg = WorldConfig(latent_dim=6)
        click, conv = cfg.task_subspace(CLICK), cfg.task_subspace(CONVERSION)
        assert (click.start, click.stop) == (0, 4)
        assert (conv.start, conv.stop) == (2, 6)
        shared = set(range(*click.indices(6))) & set(range(*conv.indices(6)))
        assert len(shared) == 2  # half of each 4-dim subspace


class TestGeneration:
    def test_same_seed_bit_identical(self):
        a = generate_world(small_cfg())
        b = generate_world(small_cfg())
        assert sorted(a) == sorted(b)
        for day in a:
            assert day_file_bytes(day, a[day]) == day_file_bytes(day, b[day])

    def test_different_seed_differs(self):
        a = generate_world(small_cfg(seed=1))
        b = generate_world(small_cfg(seed=2))
        assert day_file_bytes(1, a[1]) != day_file_bytes(1, b[1])

    def test_conversion_sparser_on_default_world(self):
        rates = positive_rates(generate_world(WorldConfig()))
        assert rates[CONVERSION] < rates[CLICK]
        assert 0.05 < rates[CONVERSION] < 0.3
        assert 0.2 < rates[CLICK] < 0.55

    def test_history_has_no_same_day_leakage(self):
        data = generate_world(small_cfg())
        clicked_before: dict[int, set] = {}
        for day in sorted(data):
            batch = data[day]
            ids, lengths = batch.user.sequence["hist"]
            for u, row, n in zip(batch.user_id.tolist(), ids, lengths):
                assert set(row[:n].tolist()) <= clicked_before.get(u, set())
            clicked = batch.labels[CLICK] == 1
            for u, p in zip(batch.user_id[clicked].tolist(),
                            batch.pin_id[clicked].tolist()):
                clicked_before.setdefault(u, set()).add(p)

    def test_day_one_history_empty(self):
        data = generate_world(small_cfg())
        ids, lengths = data[1].user.sequence["hist"]
        assert not lengths.any() and ids.shape == (len(data[1]), 1)

    def test_activity_gaps_exist(self):
        cfg = WorldConfig()
        world = World(cfg)
        days = range(1, cfg.days + 1)
        gapped = 0
        total = cfg.num_users + cfg.num_pins
        for kind, count in ((USER, cfg.num_users), (PIN, cfg.num_pins)):
            active = {d: set(world.active_ids(kind, d)) for d in days}
            for e in range(count):
                if any(e not in active[d] for d in days):
                    gapped += 1
        assert gapped >= 0.1 * total

    def test_observables_track_latents(self):
        cfg = small_cfg(noise_level=0.3)
        world = World(cfg)
        data = generate_world(cfg)
        seen: dict[int, list] = {}
        for batch in data.values():
            for u, profile in zip(batch.user_id.tolist(), batch.user.dense["profile"]):
                seen.setdefault(u, []).append(profile)
        for u, profiles in seen.items():
            if len(profiles) < 8:
                continue
            mean_obs = np.mean(profiles, axis=0)
            clean = world.user_proj @ world.user_latents[u]
            cos = float(mean_obs @ clean / (np.linalg.norm(mean_obs)
                                            * np.linalg.norm(clean)))
            assert cos > 0.7


# ---------------------------------------------------------------------------
# the one-event-at-a-time generator, kept as the reference that the per-day
# generate_day must match byte for byte


def true_logit(world, task, user_id, pin_id):
    sub = world.cfg.task_subspace(task)
    zu = world.user_latents[user_id, sub]
    zp = world.pin_latents[pin_id, sub]
    return GAIN * float(zu @ zp) + world.cfg.intercept(task)


def _label(world, task, user_id, pin_id, rng):
    cfg = world.cfg
    logit = true_logit(world, task, user_id, pin_id)
    logit += cfg.noise_level * float(rng.normal())
    p = 1.0 / (1.0 + np.exp(-logit))
    return int(rng.uniform() < p)


def reference_generate_day(world, day, history):
    cfg = world.cfg
    rng = np.random.default_rng([cfg.seed, _EVENTS, day])
    users = world.active_ids(USER, day)
    pins = world.active_ids(PIN, day)
    events, flat = [], []
    for u in users:
        count = 1 + rng.poisson(cfg.events_per_user - 1.0)
        for _ in range(count):
            p = int(pins[rng.integers(len(pins))])
            click = _label(world, CLICK, u, p, rng)
            conv = _label(world, CONVERSION, u, p, rng)
            hour = float(rng.uniform(-1.0, 1.0))
            jit_u = rng.normal(size=cfg.latent_dim)
            jit_p = rng.normal(size=cfg.latent_dim)
            hist = history.get(u, [])[-HISTORY_LEN:]
            flat += hist
            events.append((
                u, p, len(events), click, conv, hour,
                world.observe(USER, u, day) + cfg.noise_level * EVENT_JITTER * jit_u,
                world.observe(PIN, p, day) + cfg.noise_level * EVENT_JITTER * jit_p,
                len(hist)))
    return _batch(np.array(events, _event_type(cfg.latent_dim, cfg.latent_dim)), flat)


def activity_below_floor(cfg, kind, day, floor):
    """Whether the day's activity draw left fewer than floor ids of kind."""
    total = cfg.num_users if kind == USER else cfg.num_pins
    rng = np.random.default_rng([cfg.seed, _ACTIVITY, KIND_CODES[kind], day])
    return (rng.uniform(size=total) < cfg.activity_rate).sum() < floor


REFERENCE_WORLDS = {
    "default": WorldConfig(),
    "noise_level_0": WorldConfig(seed=3, noise_level=0.0),
    "two_by_two": WorldConfig(num_users=2, num_pins=2, seed=5),
    "one_event_each": WorldConfig(events_per_user=1.0, seed=9),
    "id_floors": WorldConfig(num_users=4, num_pins=4, activity_rate=0.05, seed=13),
    "long_histories": WorldConfig(num_users=4, num_pins=6, events_per_user=12.0,
                                  days=6, click_rate=0.6, conversion_rate=0.3,
                                  seed=17),
}

# what a world must reach for its case to test what its name says
REACHES = {
    "one_event_each": lambda world, data, history: all(
        len(data[d]) == len(world.active_ids(USER, d)) for d in data),
    "id_floors": lambda world, data, history: all(
        any(activity_below_floor(world.cfg, kind, d, floor) for d in data)
        for kind, floor in ((USER, 1), (PIN, 2))),
    "long_histories": lambda world, data, history: (
        max(map(len, history.values())) > HISTORY_LEN
        and max(int(b.user.sequence["hist"][1].max()) for b in data.values())
        == HISTORY_LEN),
}


class TestPerEventReference:
    @pytest.mark.parametrize("task", [CLICK, CONVERSION])
    def test_true_logits_match_the_scalar_dot(self, task):
        cfg = WorldConfig()
        world = World(cfg)
        user, pin = (a.ravel() for a in np.meshgrid(
            np.arange(cfg.num_users), np.arange(cfg.num_pins), indexing="ij"))
        want = np.array([true_logit(world, task, u, p)
                         for u, p in zip(user.tolist(), pin.tolist())])
        assert_identical(world.true_logits(task, user, pin), want)

    @pytest.mark.parametrize("case", list(REFERENCE_WORLDS))
    def test_every_column_matches_per_event_generator(self, case):
        cfg = REFERENCE_WORLDS[case]
        world = World(cfg)
        data = generate_world(cfg)
        history: dict[int, list[int]] = {}
        for day in range(1, cfg.days + 1):
            want = reference_generate_day(world, day, history)
            assert_batches_identical(data[day], want)
            assert day_file_bytes(day, data[day]) == day_file_bytes(day, want)
            clicked = want.labels[CLICK] == 1
            for u, p in zip(want.user_id[clicked].tolist(),
                            want.pin_id[clicked].tolist()):
                history.setdefault(u, []).append(p)
        if case in REACHES:
            assert REACHES[case](world, data, history)


class TestOracleBound:
    def test_pure_noise_labels_near_chance(self):
        cfg = small_cfg(noise_level=50.0, days=12)
        auc = oracle_auc_bound(cfg, CLICK)
        assert 0.42 < auc < 0.58

    def test_default_world_bound_is_informative(self):
        auc = oracle_auc_bound(WorldConfig(), CLICK)
        assert 0.6 < auc < 1.0


class TestDayFiles:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg()
        write_world_files(tmp_path, cfg)
        fresh = generate_world(cfg)
        fresh[3] = fresh[3][:0]
        (tmp_path / day_file_name(3)).write_bytes(day_file_bytes(3, fresh[3]))
        loaded_cfg, data = load_world_files(tmp_path)
        assert loaded_cfg == cfg
        assert sorted(data) == sorted(fresh)
        for day in fresh:
            assert_batches_identical(data[day], fresh[day])

    def test_day_file_under_another_days_name_rejected(self, tmp_path):
        write_world_files(tmp_path, small_cfg())
        shutil.copy(tmp_path / day_file_name(3), tmp_path / day_file_name(2))
        with pytest.raises(IoFailureError,
                           match=r"day002\.events holds day 3, not day 2"):
            load_world_files(tmp_path, days=[2])

    @pytest.mark.parametrize("case", ["count", "trailing-bytes",
                                      "history-total"])
    def test_malformed_day_file_is_io_failure(self, tmp_path, case):
        # the checksum holds, so only the table reader can catch these
        cfg = small_cfg()
        write_world_files(tmp_path, cfg)
        path = tmp_path / day_file_name(cfg.days)
        body = path.read_bytes()[:-8]
        day, count, profile_dim, attrs_dim, hist_total = \
            struct.unpack_from(DAY_FILE.header, body)[2:]
        payload = body[struct.calcsize(DAY_FILE.header):]
        assert hist_total > 0
        error = "bytes before its trailer"
        if case == "count":  # more events than the events table holds
            count += 1
        elif case == "trailing-bytes":  # bytes after the last history id
            payload += bytes(4)
        else:  # a history table one id short of the events' lengths
            hist_total -= 1
            payload = payload[:-4]
            error = "history ids"
        path.write_bytes(DAY_FILE.pack(
            (day, count, profile_dim, attrs_dim, hist_total), payload))
        with pytest.raises(IoFailureError, match=rf"{path.name}.*{error}"):
            load_world_files(tmp_path, days=[cfg.days])

    def test_rerun_bit_identical_files(self, tmp_path):
        cfg = small_cfg()
        write_world_files(tmp_path / "a", cfg)
        write_world_files(tmp_path / "b", cfg)
        for name in [day_file_name(d) for d in range(1, cfg.days + 1)] + ["world.json"]:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_corrupted_file_rejected(self, tmp_path):
        cfg = small_cfg(days=1)
        write_world_files(tmp_path, cfg)
        path = tmp_path / day_file_name(1)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(IoFailureError, match=path.name):
            load_world_files(tmp_path)

    def test_manifest_counts_match(self, tmp_path):
        cfg = small_cfg()
        manifest = write_world_files(tmp_path, cfg)
        _, data = load_world_files(tmp_path)
        assert manifest["event_counts"] == {
            str(d): len(data[d]) for d in sorted(data)
        }
