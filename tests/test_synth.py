import numpy as np
import pytest

from derm.data import PIN, USER
from derm.errors import InvalidRatesError, IoFailureError
from derm.synth import (
    CLICK,
    CONVERSION,
    World,
    WorldConfig,
    day_file_bytes,
    day_file_name,
    generate_world,
    load_day_samples,
    load_world_files,
    oracle_auc_bound,
    positive_rates,
    write_world_files,
)


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
            for s in data[day]:
                hist = set(s.user.sequence["hist"])
                assert hist <= clicked_before.get(s.user_id, set())
            for s in data[day]:
                if s.labels[CLICK]:
                    clicked_before.setdefault(s.user_id, set()).add(s.pin_id)

    def test_day_one_history_empty(self):
        data = generate_world(small_cfg())
        assert all(s.user.sequence["hist"] == [] for s in data[1])

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
        for day in data:
            for s in data[day]:
                seen.setdefault(s.user_id, []).append(s.user.dense["profile"])
        for u, profiles in seen.items():
            if len(profiles) < 8:
                continue
            mean_obs = np.mean(profiles, axis=0)
            clean = world.user_proj @ world.user_latents[u]
            cos = float(mean_obs @ clean / (np.linalg.norm(mean_obs)
                                            * np.linalg.norm(clean)))
            assert cos > 0.7


class TestOracleBound:
    def test_noiseless_threshold_world_is_separable(self):
        cfg = small_cfg(noise_level=0.0, threshold_labels=True)
        assert oracle_auc_bound(cfg, CLICK) == 1.0
        assert oracle_auc_bound(cfg, CONVERSION) == 1.0

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
        loaded_cfg, data = load_world_files(tmp_path)
        assert loaded_cfg == cfg
        fresh = generate_world(cfg)
        for day in fresh:
            assert day_file_bytes(day, data[day]) == day_file_bytes(day, fresh[day])

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
        with pytest.raises(IoFailureError):
            load_day_samples(path)

    def test_manifest_counts_match(self, tmp_path):
        cfg = small_cfg()
        manifest = write_world_files(tmp_path, cfg)
        _, data = load_world_files(tmp_path)
        assert manifest["event_counts"] == {
            str(d): len(data[d]) for d in sorted(data)
        }
