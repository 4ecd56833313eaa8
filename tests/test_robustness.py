"""Hostile inputs to the public loaders: re-sealed mutations of every sealed
file kind end as a DermError or a clean load, and every path-taking
function takes a str as it takes a Path."""

import re
import struct

import numpy as np
import pytest

from derm.cli import served_generation
from derm.config import default_config, emit_config, load_config
from derm.errors import DermError
from derm.lifecycle import AP, AggregatedStoreState, AggregationHeuristic, StoreEntry
from derm.store import (GENERATION, STATE, list_generations, load_daily,
                        load_generation, load_generation_rows, load_state,
                        publish, save_daily, save_state)
from derm.synth import DAY_FILE, WorldConfig, load_world_files, write_world_files
from derm.trainer import SNAPSHOT, load_snapshot, make_snapshot, save_snapshot
from util import daily_set, reseal, tiny_model

CTR, CVR = "ctr-upstream", "cvr-upstream"
WORLD = WorldConfig(num_users=6, num_pins=8, days=2, seed=4)


def small_state(day=4, shift=0.0) -> AggregatedStoreState:
    """An ap state of users and pins, with a buffered daily vector."""
    rng = np.random.default_rng(day)
    entries = {(kind, i): StoreEntry(rng.normal(size=3) + shift, day - i % 2)
               for kind in ("user", "pin") for i in range(4)}
    return AggregatedStoreState(day, AggregationHeuristic(AP, 0.5), entries,
                                {("user", 1): rng.normal(size=3)})


def files(root):
    """{path under root: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# str paths


def _publish_two(root, wrap):
    first = publish(small_state(), 4, CTR, wrap(root))
    second = publish(small_state(5), 5, CTR, wrap(root))
    return [(p.name, gen.day, [t.tobytes() for t in gen.tables])
            for p, gen in (first, second)], files(root)


def _list(root, wrap):
    publish(small_state(), 4, CTR, root)
    publish(small_state(), 4, CTR, root)
    publish(small_state(5), 5, CVR, root)
    return ([(d, a, p.relative_to(root)) for d, a, p in list_generations(wrap(root))],
            [(d, a, p.relative_to(root))
             for d, a, p in list_generations(wrap(root), CVR)])


def _served(root, wrap):
    publish(small_state(), 4, CTR, root)
    publish(small_state(6, 1.0), 6, CVR, root)
    gen = served_generation(wrap(root))
    return gen.day, [t.tobytes() for t in gen.tables]


def _generation(root, wrap):
    path, _ = publish(small_state(), 4, CTR, root)
    day, rows = load_generation_rows(wrap(path), CTR)
    gen = load_generation(wrap(path), CTR)
    return day, rows.tobytes(), gen.day, [t.tobytes() for t in gen.tables]


def _daily(root, wrap):
    daily = daily_set(3, {i: np.full(3, i + 0.5) for i in range(4)})
    save_daily(daily, wrap(root / "d.kv"), CTR)
    back = load_daily(wrap(root / "d.kv"), CTR)
    return files(root), back.day, back.records.tobytes()


def _state(root, wrap):
    save_state(small_state(), wrap(root), CTR)
    back = load_state(wrap(root))
    return files(root), back.day, back.heuristic, {
        k: (e.vector.tobytes(), e.last_active_day)
        for k, e in back.entries.items()}, {
        k: v.tobytes() for k, v in back.prev_daily.items()}


def _snapshot(root, wrap):
    save_snapshot(make_snapshot(tiny_model(), 3, 7), wrap(root / "s.snap"))
    back = load_snapshot(wrap(root / "s.snap"))
    return files(root), back.watermark_day, back.rng_seed, {
        k: v.tobytes() for k, v in {**back.params, **{
            "v/" + k: v for k, v in back.velocity.items()}}.items()}


def _world(root, wrap):
    manifest = write_world_files(wrap(root), WORLD)
    return manifest, files(root)


def _load_world(root, wrap):
    write_world_files(root, WORLD)
    cfg, data = load_world_files(wrap(root))
    return cfg, {day: (b.user_id.tobytes(), b.pin_id.tobytes(),
                       b.user.dense["profile"].tobytes())
                 for day, b in data.items()}


def _config(root, wrap):
    (root / "c.ini").write_text(emit_config(default_config()))
    return emit_config(load_config(wrap(root / "c.ini")))


@pytest.mark.parametrize("call", [
    _publish_two, _list, _served, _generation, _daily, _state, _snapshot,
    _world, _load_world, _config], ids=lambda f: f.__name__.strip("_"))
def test_str_and_path_arguments_agree(tmp_path, call):
    results = []
    for name, wrap in (("str", str), ("path", lambda p: p)):
        root = tmp_path / name
        root.mkdir()
        results.append(call(root, wrap))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# hostile sealed bytes

SEED = 2600
HEADER_MUTATIONS = 40  # per kind
PAYLOAD_MUTATIONS = 160  # per kind


def _sealed_files(root):
    """(kind, SealedFormat, path, load) of one small file of each kind."""
    write_world_files(root / "world", WORLD)
    publish(small_state(), 4, CTR, root / "store")
    save_daily(daily_set(3, {i: np.full(3, i + 0.5) for i in range(4)}),
               root / "daily.kv", CTR)
    save_state(small_state(), root / "state", CTR)
    save_snapshot(make_snapshot(tiny_model(), 3, 7), root / "s.snap")
    (generation,) = (p for _, _, p in list_generations(root / "store"))
    return [
        ("day file", DAY_FILE, root / "world" / "day001.events",
         lambda: load_world_files(root / "world", days=[1])),
        ("snapshot", SNAPSHOT, root / "s.snap",
         lambda: load_snapshot(root / "s.snap")),
        ("daily", GENERATION, root / "daily.kv",
         lambda: load_daily(root / "daily.kv", CTR)),
        ("state", STATE, root / "state" / "state.bin",
         lambda: load_state(root / "state")),
        ("generation", GENERATION, generation,
         lambda: load_generation(generation, CTR)),
    ]


def _field_value(rng, code: str, old):
    """A hostile value for one struct field of format code."""
    if code.endswith("s"):
        return rng.bytes(int(code[:-1]))
    if code == "d":
        return float(rng.choice([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e300,
                                 old * 2.0, rng.normal()]))
    top = 1 << (8 * struct.calcsize("<" + code))
    picks = [0, 1, old - 1, old + 1, 2 * old, top - 1, top >> 1,
             int(rng.integers(0, min(top, 1 << 62)))]
    return picks[int(rng.integers(len(picks)))] % top


def _mutants(rng, fmt, blob: bytes):
    """(what, bytes) of each seeded mutation of blob, each re-sealed."""
    codes = re.findall(r"\d*[a-zA-Z]", fmt.header[1:])
    size = struct.calcsize(fmt.header)
    fields = list(struct.unpack_from(fmt.header, blob))
    for _ in range(HEADER_MUTATIONS):
        i = int(rng.integers(2, len(codes)))  # past the magic and version
        new = list(fields)
        new[i] = _field_value(rng, codes[i], fields[i])
        yield f"header field {i} = {new[i]!r}", reseal(
            struct.pack(fmt.header, *new) + blob[size:])
    for _ in range(PAYLOAD_MUTATIONS):
        at = int(rng.integers(size, len(blob) - 8))
        edited = bytearray(blob)
        edited[at] ^= int(rng.integers(1, 256))
        yield f"payload byte {at} = {edited[at]}", reseal(bytes(edited))


def test_resealed_mutations_load_or_raise_a_derm_error(tmp_path):
    rng = np.random.default_rng(SEED)
    for kind, fmt, path, load in _sealed_files(tmp_path):
        blob = path.read_bytes()
        rejected = 0
        for what, mutant in _mutants(rng, fmt, blob):
            path.write_bytes(mutant)
            try:
                load()
            except DermError:
                rejected += 1
            except Exception as e:
                pytest.fail(f"{kind} with {what} raised {e!r}")
        path.write_bytes(blob)
        load()  # the untouched file still loads
        assert 0 < rejected < HEADER_MUTATIONS + PAYLOAD_MUTATIONS, kind
