import contextlib
import gc
import os
import socket
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from derm.errors import (
    BindFailureError,
    CorruptGenerationError,
    DermError,
    DimInconsistentError,
    IoFailureError,
)
from derm.data import KIND_CODES, embedding_rows
from derm.lifecycle import (
    AggregatedStoreState,
    AggregationHeuristic,
    DailyEmbeddingSet,
    StoreEntry,
)
from derm.store import (
    EmbeddingClient,
    MAX_FRAME,
    STATE_FILE,
    STATUS_BAD_REQUEST,
    STATUS_MISSING,
    STATUS_OK,
    StoreKey,
    generation_name,
    list_generations,
    load_daily,
    load_generation,
    load_state,
    parse_generation,
    publish,
    save_daily,
    save_state,
    serve,
    source_code,
    state_payload,
)

import derm.store
from util import generation_vectors, random_unit_rows


def make_state(num_users=40, num_pins=50, dim=6, seed=0, heuristic=None,
               day=9):
    rng = np.random.default_rng(seed)
    h = heuristic or AggregationHeuristic("ma", 0.8)
    entries = {}
    for i, v in enumerate(random_unit_rows(rng, num_users, dim)):
        entries[("user", i)] = StoreEntry(v, day - int(rng.integers(3)))
    for i, v in enumerate(random_unit_rows(rng, num_pins, dim)):
        entries[("pin", i)] = StoreEntry(v, day - int(rng.integers(3)))
    return AggregatedStoreState(day, h, entries)


class TestSourceCodes:
    def test_known_tags_distinct(self):
        tags = ["ctr-upstream", "cvr-upstream", "ctr-downstream",
                "cvr-downstream"]
        codes = [source_code(t) for t in tags]
        assert len(set(codes)) == len(tags)
        assert all(0 <= c <= 0xFFFF for c in codes)

    def test_stable(self):
        assert source_code("ctr-upstream") == source_code("ctr-upstream")


class TestDailyFiles:
    def _daily(self):
        rng = np.random.default_rng(4)
        vecs = random_unit_rows(rng, 10, 4)
        return DailyEmbeddingSet(3, embedding_rows(
            np.repeat([KIND_CODES["user"], KIND_CODES["pin"]], 5),
            np.tile(np.arange(5), 2), 0, vecs))

    def test_round_trip_keeps_source(self, tmp_path):
        path = tmp_path / "day003.kv"
        daily = self._daily()
        save_daily(daily, path, "cvr-upstream")
        back = load_daily(path, "cvr-upstream")
        assert back.day == 3
        assert back.records[["kind", "id"]].tolist() == \
            daily.records[["kind", "id"]].tolist()
        assert np.array_equal(back.records["vec"],
                              daily.records["vec"].astype("<f4"))
        assert set(load_generation(path).tables[0]["source"].tolist()) == \
            {source_code("cvr-upstream")}

    def test_zero_rows_round_trip_with_dim_0(self, tmp_path):
        path = tmp_path / "day004.kv"
        save_daily(DailyEmbeddingSet(4, embedding_rows()), path, "ctr-upstream")
        assert struct.unpack_from("<4sIIQI", path.read_bytes()) == \
            (b"DERM", 1, 0, 0, 4)
        back = load_daily(path, "ctr-upstream")
        assert back.day == 4 and len(back.records) == 0
        assert back.records.dtype == embedding_rows().dtype

    def test_other_source_rejected(self, tmp_path):
        path = tmp_path / "day003.kv"
        save_daily(self._daily(), path, "cvr-upstream")
        with pytest.raises(IoFailureError,
                           match=rf"{path.name} hold rows of source code "
                                 rf"{source_code('cvr-upstream')}, not of ctr-upstream"):
            load_daily(path, "ctr-upstream")


class TestPublishLoad:
    def test_round_trip_bit_identical(self, tmp_path):
        state = make_state()
        path, gen = publish(state, 9, "ctr-upstream", tmp_path)
        loaded = load_generation(path)
        assert loaded.day == 9
        assert len(loaded) == len(state.entries)
        for (kind, eid), entry in state.entries.items():
            key = StoreKey(kind, eid, "ctr-upstream")
            want = np.asarray(entry.vector, dtype="<f4").tobytes()
            assert loaded.lookup(key).tobytes() == want
            assert gen.lookup(key).tobytes() == want

    def test_second_publish_new_generation(self, tmp_path):
        state = make_state()
        p1, _ = publish(state, 9, "ctr-upstream", tmp_path)
        first_bytes = p1.read_bytes()
        p2, _ = publish(state, 9, "ctr-upstream", tmp_path)
        assert p1 != p2
        assert p1.name == generation_name("ctr-upstream", 9, 1)
        assert p2.name == generation_name("ctr-upstream", 9, 2)
        assert p1.read_bytes() == first_bytes  # prior generation untouched
        assert load_generation(p2).lookup(StoreKey("user", 0, "ctr-upstream")) \
            is not None

    def test_identical_content_across_attempts(self, tmp_path):
        state = make_state()
        p1, _ = publish(state, 9, "ctr-upstream", tmp_path)
        p2, _ = publish(state, 9, "ctr-upstream", tmp_path)
        # only the filename differs; payload bytes are identical
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_state(self, tmp_path):
        state = AggregatedStoreState(3, AggregationHeuristic("acc"), {})
        path, gen = publish(state, 3, "ctr-upstream", tmp_path)
        assert len(load_generation(path)) == 0

    def test_dim_inconsistent(self, tmp_path):
        state = make_state()
        state.entries[("user", 0)] = StoreEntry(np.zeros(3), 9)
        with pytest.raises(DimInconsistentError):
            publish(state, 9, "ctr-upstream", tmp_path)

    def test_absent_key_missing(self, tmp_path):
        _, gen = publish(make_state(), 9, "ctr-upstream", tmp_path)
        assert gen.lookup(StoreKey("user", 10_000, "ctr-upstream")) is None
        assert gen.lookup(StoreKey("user", 0, "cvr-upstream")) is None

    def test_bulk_keys_all_present(self, tmp_path):
        state = make_state(num_users=300, num_pins=300)
        _, gen = publish(state, 9, "ctr-upstream", tmp_path)
        missing = sum(
            1 for (kind, eid) in state.entries
            if gen.lookup(StoreKey(kind, eid, "ctr-upstream")) is None
        )
        assert missing == 0

    def test_list_generations_sorted(self, tmp_path):
        state = make_state()
        publish(state, 2, "ctr-upstream", tmp_path)
        publish(state, 1, "ctr-upstream", tmp_path)
        publish(state, 2, "ctr-upstream", tmp_path)
        gens = list_generations(tmp_path, "ctr-upstream")
        assert [(d, a) for d, a, _ in gens] == [(1, 1), (2, 1), (2, 2)]


def reference_index(gen):
    """{(kind code, id, source code): row bytes}: the dict a generation's
    index must agree with."""
    return {key: vec.tobytes() for key, vec in generation_vectors(gen).items()}


def generation_file(keys, dim=3, day=5, seed=0):
    """Generation file bytes holding keys in the order given, each with a
    random vector: a file no derm writer would make if keys are unsorted."""
    rows = np.zeros(len(keys), derm.store._row_type(
        derm.store._GENERATION_KEY, "<f4", dim))
    for name, column in zip(("kind", "id", "source"), zip(*keys)):
        rows[name] = column
    rows["vec"] = np.random.default_rng(seed).normal(size=(len(keys), dim))
    return derm.store._generation_file(day, rows)


class TestIndex:
    SOURCES = [source_code(t) for t in
               ("ctr-upstream", "cvr-upstream", "ctr-downstream")]

    def _generation(self, seed, n=300):
        """A parsed generation of n keys over both kinds and three sources,
        with ids 0 and 2**64-1."""
        rng = np.random.default_rng(seed)
        keys = {(0, 0, self.SOURCES[0]), (1, 2**64 - 1, self.SOURCES[2])}
        while len(keys) < n:
            keys.add((int(rng.integers(2)), int(rng.integers(2**64, dtype=np.uint64)),
                      self.SOURCES[int(rng.integers(3))]))
        vectors = {k: rng.normal(size=4).astype("<f4") for k in keys}
        return parse_generation(derm.store.generation_bytes(7, 4, vectors)), vectors

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_a_dict_of_the_rows(self, seed):
        gen, vectors = self._generation(seed)
        want = reference_index(gen)
        assert len(gen) == len(want) == len(vectors)
        for key, vec in vectors.items():
            assert want[key] == vec.tobytes()
            assert gen.lookup_packed(*key).tobytes() == want[key]
        rng = np.random.default_rng(seed + 100)
        absent = [(int(rng.integers(2)), int(rng.integers(2**64, dtype=np.uint64)),
                   self.SOURCES[int(rng.integers(3))]) for _ in range(500)]
        absent += [(k ^ 1, i, src) for k, i, src in vectors]  # other kind
        for key in absent:
            if key not in want:
                assert gen.lookup_packed(*key) is None

    def test_unknown_source_and_out_of_range_ids_miss(self):
        gen, vectors = self._generation(0)
        for kind, entity_id, src in vectors:
            assert gen.lookup_packed(kind, entity_id, 0xFFFF) is None
            assert gen.lookup_packed(kind, entity_id + 2**64, src) is None
            assert gen.lookup_packed(kind, entity_id - 2**64, src) is None
        for kind in (0, 1):
            for src in self.SOURCES:
                assert gen.lookup_packed(kind, -1, src) is None
                assert gen.lookup_packed(kind, 2**64, src) is None
                assert gen.lookup_packed(kind, 2**80, src) is None

    def test_one_id_under_every_kind_and_source_hits_its_own_row(self):
        """Six rows share id 7, so a lookup scans the equal ids for its
        source; their neighbours 6 and 8 hold one source each."""
        keys = sorted([(kind, 7, src) for kind in (0, 1) for src in self.SOURCES]
                      + [(0, 6, self.SOURCES[2]), (1, 8, self.SOURCES[0])])
        gen = parse_generation(generation_file(keys))
        want = reference_index(gen)
        assert len(want) == len(keys) == 8
        for key in keys:
            assert gen.lookup_packed(*key).tobytes() == want[key], key
        for kind in (0, 1):
            assert gen.lookup_packed(kind, 7, 0xFFFF) is None
            for src in self.SOURCES:
                for entity_id in (5, 9):
                    assert gen.lookup_packed(kind, entity_id, src) is None
        assert gen.lookup_packed(0, 6, self.SOURCES[0]) is None
        assert gen.lookup_packed(1, 8, self.SOURCES[2]) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_first_and_last_row_of_each_kind_hit(self, seed):
        gen, _ = self._generation(seed + 10)
        (table,) = gen.tables
        for kind in (0, 1):
            rows = table[table["kind"] == kind]
            for row in (rows[0], rows[-1]):
                key = (kind, int(row["id"]), int(row["source"]))
                assert gen.lookup_packed(*key).tobytes() == row["vec"].tobytes()
            # one id below the first and one above the last, where ids allow
            for entity_id in (int(rows[0]["id"]) - 1, int(rows[-1]["id"]) + 1):
                for src in self.SOURCES:
                    assert gen.lookup_packed(kind, entity_id, src) is None

    def test_unknown_kinds_and_sources_miss(self):
        gen, vectors = self._generation(3)
        unknown = [s for s in (0, 1, 0xFFFF, 2**16, -1) if s not in self.SOURCES]
        for _, entity_id, src in list(vectors)[:50]:
            for kind in (2, 255, -1):
                assert gen.lookup_packed(kind, entity_id, src) is None
            for kind in (0, 1):
                for other in unknown:
                    assert gen.lookup_packed(kind, entity_id, other) is None

    def test_key_lookup_takes_numpy_ids(self):
        gen, vectors = self._generation(1)
        kind, entity_id, _ = next(k for k in vectors if k[2] == self.SOURCES[0])
        key = StoreKey(("user", "pin")[kind], np.uint64(entity_id), "ctr-upstream")
        assert gen.lookup(key).tobytes() == vectors[key.packed()].tobytes()

    def test_key_in_two_tables_resolves_to_the_first(self):
        src = self.SOURCES[0]
        first = parse_generation(generation_file([(0, 1, src), (1, 5, src)], seed=1))
        second = parse_generation(generation_file(
            [(0, 1, src), (0, 2, src), (1, 5, src), (1, 6, self.SOURCES[1])], seed=2))
        gen = derm.store.StoreGeneration(7, [first.tables[0], second.tables[0]])
        assert len(gen) == 6
        assert (first.lookup_packed(0, 1, src).tobytes()
                != second.lookup_packed(0, 1, src).tobytes())
        for key in [(0, 1, src), (1, 5, src)]:
            row = gen.lookup_packed(*key)
            assert row.tobytes() == first.lookup_packed(*key).tobytes()
            assert np.shares_memory(row, gen.tables[0])
        for key in [(0, 2, src), (1, 6, self.SOURCES[1])]:  # in the second only
            row = gen.lookup_packed(*key)
            assert row.tobytes() == second.lookup_packed(*key).tobytes()
            assert np.shares_memory(row, gen.tables[1])
        assert gen.lookup_packed(0, 2, self.SOURCES[1]) is None

    def test_empty_generation_misses_everything(self):
        gen = parse_generation(derm.store.generation_bytes(3, 0, {}))
        assert (len(gen), gen.day, gen.dim) == (0, 3, 0)
        for kind, entity_id, src in [(0, 0, self.SOURCES[0]), (1, 2**64 - 1, 1),
                                     (0, -1, 0), (1, 2**64, 0)]:
            assert gen.lookup_packed(kind, entity_id, src) is None

    def test_rows_are_returned_in_place(self, tmp_path):
        path, _ = publish(make_state(), 9, "ctr-upstream", tmp_path)
        gen = load_generation(path)
        row = gen.lookup(StoreKey("user", 3, "ctr-upstream"))
        assert row.shape == (gen.dim,) and not row.flags.writeable
        assert np.shares_memory(row, gen.tables[0])

    def test_loaded_generation_retains_under_twice_its_file(self, tmp_path):
        rng = np.random.default_rng(11)
        src = source_code("ctr-upstream")
        vecs = rng.normal(size=(100_000, 16)).astype("<f4")
        path = tmp_path / "big.kv"
        path.write_bytes(derm.store.generation_bytes(1, 16, {
            (i % 2, i // 2, src): v for i, v in enumerate(vecs)}))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            gen = load_generation(path)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gen) == 100_000
        assert retained < 2 * size, f"{retained} bytes retained for a {size}-byte file"


class TestKeyOrder:
    SRC = source_code("ctr-upstream")

    @pytest.mark.parametrize("keys", [
        [(0, 4, SRC), (0, 4, SRC)],
        [(0, 1, SRC), (0, 5, SRC), (0, 3, SRC)],
        [(1, 1, SRC), (0, 2, SRC)],
        [(0, 1, SRC + 1), (0, 1, SRC)],
    ], ids=["repeated", "ids_out_of_order", "kinds_out_of_order",
            "sources_out_of_order"])
    def test_generation_rejected(self, keys):
        with pytest.raises(CorruptGenerationError,
                           match=r"generation has record \d+ out of key order "
                                 r"or repeated"):
            parse_generation(generation_file(keys))

    @pytest.mark.parametrize("keys", [
        [(0, 4, SRC), (0, 4, SRC)],
        [(0, 2, SRC), (0, 1, SRC)],
    ], ids=["repeated", "out_of_order"])
    def test_daily_file_rejected(self, tmp_path, keys):
        path = tmp_path / "day005.kv"
        path.write_bytes(generation_file(keys))
        with pytest.raises(CorruptGenerationError,
                           match=rf"{path.name} has record 1 out of key order"):
            load_daily(path, "ctr-upstream")

    def test_sorted_keys_accepted(self):
        keys = [(0, 1, self.SRC), (0, 1, self.SRC + 1), (0, 2, 0), (1, 0, 0)]
        gen = parse_generation(generation_file(keys))
        assert generation_vectors(gen).keys() == set(keys)

    def test_another_source_is_an_io_failure_naming_both_codes(self, tmp_path):
        path, _ = publish(make_state(), 9, "ctr-upstream", tmp_path)
        with pytest.raises(IoFailureError,
                           match=rf"{path.name} holds rows of source code "
                                 rf"{self.SRC}, not of cvr-upstream \(code "
                                 rf"{source_code('cvr-upstream')}\)"):
            load_generation(path, "cvr-upstream")
        assert len(load_generation(path, "ctr-upstream")) == 90


class TestCorruption:
    def test_single_bit_flip_rejected(self, tmp_path):
        path, _ = publish(make_state(), 9, "ctr-upstream", tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x01
        bad = tmp_path / "bad.kv"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptGenerationError):
            load_generation(bad)

    def test_truncation_rejected(self, tmp_path):
        path, _ = publish(make_state(), 9, "ctr-upstream", tmp_path)
        bad = tmp_path / "short.kv"
        bad.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CorruptGenerationError):
            load_generation(bad)

    def test_wrong_magic_rejected(self, tmp_path):
        path, _ = publish(make_state(), 9, "ctr-upstream", tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / "magic.kv"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptGenerationError):
            load_generation(bad)


class TestStatePersistence:
    @pytest.mark.parametrize("heuristic", [
        AggregationHeuristic("ma", 0.8), AggregationHeuristic("acc"),
    ])
    def test_round_trip(self, tmp_path, heuristic):
        state = make_state(heuristic=heuristic)
        save_state(state, tmp_path, "ctr-upstream")
        loaded = load_state(tmp_path)
        assert loaded.day == state.day
        assert loaded.heuristic == state.heuristic
        assert set(loaded.entries) == set(state.entries)
        for key, entry in state.entries.items():
            got = loaded.entries[key]
            assert got.last_active_day == entry.last_active_day
            assert got.vector.dtype == np.float64
            assert np.array_equal(got.vector, entry.vector)

    def test_ap_buffer_round_trips(self, tmp_path):
        state = make_state(heuristic=AggregationHeuristic("ap"))
        rng = np.random.default_rng(5)
        state.prev_daily = {key: random_unit_rows(rng, 1, 6)[0]
                            for key in list(state.entries)[:10]}
        save_state(state, tmp_path, "ctr-upstream")
        loaded = load_state(tmp_path)
        assert set(loaded.prev_daily) == set(state.prev_daily)
        for key, vec in state.prev_daily.items():
            assert np.array_equal(loaded.prev_daily[key], vec)

    def test_save_is_idempotent(self, tmp_path):
        state = make_state()
        save_state(state, tmp_path / "a", "ctr-upstream")
        save_state(state, tmp_path / "b", "ctr-upstream")
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == \
            [STATE_FILE]
        assert (tmp_path / "a" / STATE_FILE).read_bytes() == \
               (tmp_path / "b" / STATE_FILE).read_bytes()

    def test_save_load_save_stable(self, tmp_path):
        state = make_state()
        save_state(state, tmp_path / "a", "ctr-upstream")
        reloaded = load_state(tmp_path / "a")
        save_state(reloaded, tmp_path / "b", "ctr-upstream")
        assert (tmp_path / "a" / STATE_FILE).read_bytes() == \
               (tmp_path / "b" / STATE_FILE).read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "flip", "magic"])
    def test_damaged_state_raises_derm_error(self, tmp_path, damage):
        save_state(make_state(), tmp_path, "ctr-upstream")
        path = tmp_path / STATE_FILE
        blob = bytearray(path.read_bytes())
        if damage == "truncate":
            del blob[len(blob) // 2:]
        elif damage == "flip":
            blob[len(blob) // 3] ^= 0x01
        else:
            blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DermError):
            load_state(tmp_path)

    def test_missing_state_raises_io_failure(self, tmp_path):
        with pytest.raises(IoFailureError):
            load_state(tmp_path)


class TestCrashSafeWrites:
    """A write that fails after some bytes reached the temp file leaves the
    final path as it was and no temp file behind."""

    @staticmethod
    def _fail(fd):
        raise OSError("disk full")

    def test_failed_publish_leaves_no_generation(self, tmp_path, monkeypatch):
        state = make_state()
        p1, _ = publish(state, 9, "ctr-upstream", tmp_path)
        first = p1.read_bytes()
        monkeypatch.setattr(os, "fsync", self._fail)
        with pytest.raises(IoFailureError):
            publish(state, 9, "ctr-upstream", tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [p1.name]
        assert p1.read_bytes() == first
        assert [a for _, a, _ in list_generations(tmp_path)] == [1]

    def test_stale_listing_never_overwrites_a_generation(self, tmp_path, monkeypatch):
        # a second publisher that listed the store before the first one
        # wrote picks the same attempt number; it must take the next one
        store, ref = tmp_path / "store", tmp_path / "ref"
        p1, _ = publish(make_state(seed=1), 9, "ctr-upstream", store)
        first = p1.read_bytes()
        monkeypatch.setattr(derm.store, "list_generations", lambda *a, **k: [])
        p2, _ = publish(make_state(seed=2), 9, "ctr-upstream", store)
        assert p1.read_bytes() == first
        assert p2.name == generation_name("ctr-upstream", 9, 2)
        assert sorted(p.name for p in store.iterdir()) == [p1.name, p2.name]
        expected, _ = publish(make_state(seed=2), 9, "ctr-upstream", ref)
        assert p2.read_bytes() == expected.read_bytes()

    def test_concurrent_publishers_each_get_their_own_generation(
            self, tmp_path, monkeypatch):
        # every publisher starts from attempt 1 at once; each file must be
        # one publisher's complete bytes, and no publisher may lose its file
        n = 8
        states = [make_state(seed=i) for i in range(n)]
        monkeypatch.setattr(derm.store, "list_generations", lambda *a, **k: [])
        start = threading.Barrier(n)
        paths = [None] * n

        def run(i):
            start.wait()
            paths[i], _ = publish(states[i], 9, "ctr-upstream", tmp_path)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            generation_name("ctr-upstream", 9, a) for a in range(1, n + 1))
        for i in range(n):
            assert paths[i].read_bytes() == state_payload(states[i], 9, "ctr-upstream")

    def test_failed_save_keeps_previous_state(self, tmp_path, monkeypatch):
        old = make_state(seed=1)
        save_state(old, tmp_path, "ctr-upstream")
        before = (tmp_path / STATE_FILE).read_bytes()
        monkeypatch.setattr(os, "fsync", self._fail)
        with pytest.raises(IoFailureError):
            save_state(make_state(seed=2), tmp_path, "ctr-upstream")
        assert sorted(p.name for p in tmp_path.iterdir()) == [STATE_FILE]
        assert (tmp_path / STATE_FILE).read_bytes() == before

    def test_state_dir_that_is_a_file_is_an_io_failure(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"x")
        with pytest.raises(IoFailureError, match="cannot write"):
            save_state(make_state(), blocker, "ctr-upstream")
        assert blocker.read_bytes() == b"x"

    def test_publish_into_a_file_is_an_io_failure(self, tmp_path):
        # the mkdir fails with FileExistsError; it must not read as a
        # claimed attempt number, or publish would retry for ever
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"x")
        raised = []

        def run():
            try:
                publish(make_state(), 9, "ctr-upstream", blocker)
            except Exception as e:  # noqa: BLE001 - checked below
                raised.append(e)

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive(), "publish kept retrying"
        assert len(raised) == 1 and isinstance(raised[0], IoFailureError)
        assert blocker.read_bytes() == b"x"


class TestServing:
    @pytest.fixture()
    def served(self, tmp_path):
        state = make_state()
        _, gen = publish(state, 9, "ctr-upstream", tmp_path)
        with serve(gen) as handle:
            yield state, gen, handle

    def test_present_key_ok(self, served):
        state, gen, handle = served
        host, port = handle.address
        with EmbeddingClient(host, port) as client:
            key = StoreKey("user", 3, "ctr-upstream")
            status, vec = client.request(key)
            assert status == STATUS_OK
            assert vec.tobytes() == gen.lookup(key).tobytes()

    def test_absent_key_missing(self, served):
        _, _, handle = served
        host, port = handle.address
        with EmbeddingClient(host, port) as client:
            status, vec = client.request(StoreKey("pin", 77777, "ctr-upstream"))
            assert status == STATUS_MISSING and vec is None

    def test_malformed_then_valid_on_same_connection(self, served):
        _, gen, handle = served
        host, port = handle.address
        with EmbeddingClient(host, port) as client:
            status, _ = client.request_packed(b"\x01\x02\x03")
            assert status == STATUS_BAD_REQUEST
            bad_kind = struct.pack("<BQH", 9, 1, 0)
            status, _ = client.request_packed(bad_kind)
            assert status == STATUS_BAD_REQUEST
            key = StoreKey("user", 1, "ctr-upstream")
            status, vec = client.request(key)
            assert status == STATUS_OK
            assert vec.tobytes() == gen.lookup(key).tobytes()

    def test_wire_equals_in_process_for_all_keys(self, served):
        state, gen, handle = served
        host, port = handle.address
        with EmbeddingClient(host, port) as client:
            for (kind, eid) in sorted(state.entries):
                key = StoreKey(kind, eid, "ctr-upstream")
                status, vec = client.request(key)
                assert status == STATUS_OK
                assert vec.tobytes() == gen.lookup(key).tobytes()

    def test_concurrent_readers(self, served):
        state, gen, handle = served
        host, port = handle.address
        keys = [StoreKey(kind, eid, "ctr-upstream")
                for (kind, eid) in sorted(state.entries)]
        errors = []

        def reader(offset):
            try:
                with EmbeddingClient(host, port) as client:
                    for i in range(len(keys)):
                        key = keys[(offset + i) % len(keys)]
                        status, vec = client.request(key)
                        assert status == STATUS_OK
                        assert vec.tobytes() == gen.lookup(key).tobytes()
            except Exception as e:  # surfaced after join
                errors.append(e)

        threads = [threading.Thread(target=reader, args=(i * 7,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors

    def test_bind_failure(self, served):
        _, gen, handle = served
        host, port = handle.address
        with pytest.raises(BindFailureError):
            serve(gen, (host, port))

    def test_port_out_of_range_is_bind_failure(self, served):
        _, gen, _ = served
        with pytest.raises(BindFailureError, match="70000"):
            serve(gen, ("127.0.0.1", 70000))


def frame(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def request_frame(key: StoreKey) -> bytes:
    return frame(struct.pack("<BQH", *key.packed()))


def read_until_eof(sock: socket.socket) -> bytes:
    sock.settimeout(10)
    chunks = []
    while chunk := sock.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


def read_exactly(sock: socket.socket, n: int) -> bytes:
    sock.settimeout(10)
    got = b""
    while len(got) < n:
        chunk = sock.recv(n - len(got))
        assert chunk, f"EOF after {len(got)} of {n} bytes"
        got += chunk
    return got


class TestWire:
    """The bytes derm serve answers, sent and read on raw sockets."""

    @pytest.fixture()
    def served(self, tmp_path):
        _, gen = publish(make_state(), 9, "ctr-upstream", tmp_path)
        with serve(gen) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                yield gen, handle, sock

    @staticmethod
    def ok(gen, key: StoreKey) -> bytes:
        return (struct.pack("<BI", STATUS_OK, gen.dim)
                + np.asarray(gen.lookup(key), "<f4").tobytes())

    MISSING = struct.pack("<BI", STATUS_MISSING, 0)
    BAD = struct.pack("<BI", STATUS_BAD_REQUEST, 0)
    PRESENT = StoreKey("user", 3, "ctr-upstream")
    ABSENT = StoreKey("pin", 77777, "ctr-upstream")

    def test_answer_bytes_of_each_status(self, served):
        gen, _, sock = served
        ok = self.ok(gen, self.PRESENT)
        assert len(ok) == 5 + 4 * gen.dim
        for request, want in ((request_frame(self.PRESENT), ok),
                              (request_frame(self.ABSENT), self.MISSING),
                              (frame(b"\x01\x02\x03"), self.BAD),
                              (frame(struct.pack("<BQH", 9, 1, 0)), self.BAD)):
            sock.sendall(request)
            assert read_exactly(sock, len(want)) == want

    def test_frame_sent_one_byte_at_a_time(self, served):
        gen, _, sock = served
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for byte in request_frame(self.PRESENT):
            sock.sendall(bytes([byte]))
            time.sleep(0.002)
        want = self.ok(gen, self.PRESENT)
        assert read_exactly(sock, len(want)) == want

    def test_three_frames_in_one_send_answered_in_order(self, served):
        gen, _, sock = served
        sock.sendall(request_frame(self.ABSENT) + frame(b"\x00")
                     + request_frame(self.PRESENT))
        want = self.MISSING + self.BAD + self.ok(gen, self.PRESENT)
        assert read_exactly(sock, len(want)) == want

    def test_frame_cut_after_a_whole_one_is_kept_for_the_next_read(
            self, served):
        gen, _, sock = served
        second = request_frame(self.PRESENT)
        sock.sendall(request_frame(self.ABSENT) + second[:6])
        assert read_exactly(sock, len(self.MISSING)) == self.MISSING
        sock.sendall(second[6:])
        want = self.ok(gen, self.PRESENT)
        assert read_exactly(sock, len(want)) == want

    def test_length_above_max_frame_is_one_bad_request_then_eof(self, served):
        _, _, sock = served
        sock.sendall(struct.pack("<I", MAX_FRAME + 1) + b"\x00" * 16)
        assert read_until_eof(sock) == self.BAD

    def test_eof_mid_frame_closes_with_no_answer(self, served):
        _, _, sock = served
        sock.sendall(request_frame(self.PRESENT)[:9])
        sock.shutdown(socket.SHUT_WR)
        assert read_until_eof(sock) == b""

    def test_idle_connection_closes_while_a_busy_one_is_answered(
            self, served, monkeypatch):
        gen, handle, _ = served
        monkeypatch.setattr(derm.store, "IDLE_TIMEOUT_S", 0.2)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        monkeypatch.setattr(handle.server, "handle_error",
                            lambda *args: hooked.append(args))
        start = time.monotonic()
        with socket.create_connection(handle.address, timeout=10) as silent, \
                EmbeddingClient(*handle.address) as busy:
            while time.monotonic() - start < 0.8:  # four idle timeouts
                status, vec = busy.request(self.PRESENT)
                assert status == STATUS_OK
                assert vec.tobytes() == gen.lookup(self.PRESENT).tobytes()
                time.sleep(0.02)
            assert read_until_eof(silent) == b""
        assert time.monotonic() - start < 2
        assert not hooked


@contextlib.contextmanager
def fake_server(answer):
    """host, port of a listener whose one connection reads a request frame,
    then has answer(conn) called on it, and is held open until the block
    ends unless answer closed it."""
    listener = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def run():
        conn, _ = listener.accept()
        with conn:
            read_exactly(conn, 4 + struct.calcsize("<BQH"))
            answer(conn)
            done.wait(10)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        done.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def three_bytes_then_close(conn):
    conn.sendall(b"\x00\x03\x00")
    conn.close()


def reset(conn):
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    conn.close()  # a zero linger closes with a RST


class TestClient:
    """EmbeddingClient against fake servers: answers in pieces, answers with
    bytes to spare, and each way a connection fails."""

    KEY = StoreKey("user", 1, "ctr-upstream")
    VEC = np.array([0.5, -1.25, 3.0], "<f4")
    ANSWER = struct.pack("<BI", STATUS_OK, 3) + VEC.tobytes()

    def test_answer_sent_in_one_byte_pieces_is_reassembled(self):
        def trickle(conn):
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in self.ANSWER:
                conn.sendall(bytes([byte]))
                time.sleep(0.002)

        with fake_server(trickle) as address, \
                EmbeddingClient(*address) as client:
            status, vec = client.request(self.KEY)
        assert status == STATUS_OK and vec.tobytes() == self.VEC.tobytes()

    def test_bytes_past_one_answer_are_an_io_failure(self):
        with fake_server(lambda conn: conn.sendall(self.ANSWER + b"\x00")) \
                as (host, port), EmbeddingClient(host, port) as client:
            with pytest.raises(IoFailureError,
                               match=f"{host}:{port} sent 1 bytes past"):
                client.request(self.KEY)

    def test_refused_connection_is_an_io_failure(self):
        with socket.create_server(("127.0.0.1", 0)) as bound:
            host, port = bound.getsockname()
        with pytest.raises(IoFailureError, match=f"connect to {host}:{port}"):
            EmbeddingClient(host, port)

    @pytest.mark.parametrize("answer, says", [
        (three_bytes_then_close, "mid-response"),
        (reset, "reset"),
        (lambda conn: None, "within 0.2 s"),
    ], ids=["closed_mid_answer", "reset", "timeout"])
    def test_failed_connection_is_an_io_failure(self, answer, says):
        with fake_server(answer) as (host, port), \
                EmbeddingClient(host, port, timeout=0.2) as client:
            start = time.monotonic()
            with pytest.raises(IoFailureError, match=f"{host}:{port}") as e:
                client.request(self.KEY)
            assert time.monotonic() - start < 2
        assert says in str(e.value)
