"""Serve workload data and its closed-loop client.

StoreData(seed, size) holds the vectors the benchmark publishes, one
generation per upstream source, and key_stream gives the request keys in the
order derm's own consumer asks for them (see key_stream). Both are pure
functions of the seed, so the client process rebuilds the benchmark's own
copy of every vector instead of receiving it.

Run as a program, this is the load client: one persistent connection, one
request in flight, for a fixed number of seconds. It prints one JSON line
with the latency samples summarised and every response checked.

  python3 loadgen.py --port P --seed N --seconds S --size N
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
import time
from array import array

import numpy as np

SOURCES = ("ctr-upstream", "cvr-upstream")
KINDS = ("user", "pin")
DIM = 16
ABSENT_SHARE = 0.1  # of the id space per (source, kind)
KEY_BLOCK = 1 << 19


class StoreData:
    """Published vectors per source, row-indexed by (kind, entity id)."""

    def __init__(self, seed: int, per_source: int):
        per_kind = per_source // len(KINDS)
        universe = int(round(per_kind / (1.0 - ABSENT_SHARE)))
        rng = np.random.default_rng([seed, 0x5E12])
        self.vectors = {}  # source -> (per_source, DIM) float32
        self.row = {}  # (source, kind) -> int64 row per id, -1 if absent
        self.absent = {}  # (source, kind) -> absent ids
        for si, source in enumerate(SOURCES):
            self.vectors[source] = rng.normal(
                size=(per_kind * len(KINDS), DIM)).astype("<f4")
            for ki, kind in enumerate(KINDS):
                ids = rng.permutation(universe)
                present = np.sort(ids[:per_kind])
                row = np.full(universe, -1, dtype=np.int64)
                row[present] = ki * per_kind + np.arange(per_kind)
                self.row[(source, kind)] = row
                self.absent[(source, kind)] = np.sort(ids[per_kind:])

    def entries(self, source: str):
        """(kind, entity id, float32 vector) for every published key."""
        for kind in KINDS:
            row = self.row[(source, kind)]
            for entity_id in np.flatnonzero(row >= 0).tolist():
                yield kind, entity_id, self.vectors[source][row[entity_id]]

    def expected(self, source: str, kind: str, entity_id: int) -> bytes | None:
        r = self.row[(source, kind)][entity_id]
        return None if r < 0 else self.vectors[source][r].tobytes()


def key_stream(data: StoreData, seed: int, n: int = KEY_BLOCK):
    """n request keys as (source index, kind index, entity id) arrays.

    The keys follow derm's own lookup pattern. derm.downstream.build_features
    looks up each sample's user and pin once per input, in DERM_INPUTS order.
    Samples come day by day, as derm.synth.generate_day makes them. Each
    active user, in id order, has 1 + Poisson(events_per_user - 1) events,
    and each event is on a pin drawn uniformly from the day's active pins.
    The rates are the shipped WorldConfig defaults. Users and pins range over
    the whole id space, so ids that a generation lacks are asked for at
    their share of it, ABSENT_SHARE.
    """
    from derm.downstream import DERM_INPUTS
    from derm.synth import WorldConfig

    world = WorldConfig()
    inputs = [(SOURCES.index(s), KINDS.index(k)) for s, k in
              DERM_INPUTS.values()]
    universe = len(data.row[(SOURCES[0], KINDS[0])])
    rng = np.random.default_rng([seed, 0x10AD])
    per_day, total = [], 0
    while total < n:
        users, pins = (np.flatnonzero(rng.uniform(size=universe)
                                      < world.activity_rate)
                       for _ in KINDS)
        events = 1 + rng.poisson(world.events_per_user - 1.0,
                                 size=len(users))
        sample = {"user": np.repeat(users, events)}
        sample["pin"] = pins[rng.integers(len(pins), size=len(sample["user"]))]
        per_day.append(np.stack([sample[KINDS[ki]] for _, ki in inputs],
                                axis=1).ravel())
        total += per_day[-1].size
    ids = np.concatenate(per_day)[:n]
    src_i, kind_i = (np.resize(np.array(col, dtype=np.int8), n)
                     for col in zip(*inputs))
    return src_i, kind_i, ids


TAIL_LADDER = (50.0, 90.0, 99.0)
WINDOW_S = 1.0


def tail_percentile(n: int, ladder=TAIL_LADDER) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    ok = [p for p in ladder if round(n * (100.0 - p) / 100.0, 6) >= 10.0]
    return max(ok) if ok else None


def window_stats(lat_ns: np.ndarray, done_ns: np.ndarray, t0_ns: int,
                 t1_ns: int) -> dict:
    """Request rate, p50 and tail latency of each of the equal wall-clock
    windows of about WINDOW_S that the run splits into."""
    k = max(1, int((t1_ns - t0_ns) / 1e9 / WINDOW_S))
    edges = np.linspace(t0_ns, t1_ns, k + 1)
    cuts = np.searchsorted(done_ns, edges[1:-1], side="right")
    wins = [w / 1e3 for w in np.split(lat_ns, cuts)]
    span_s = (t1_ns - t0_ns) / 1e9 / k
    pct = tail_percentile(min(len(w) for w in wins))
    return {
        "window_requests": min(len(w) for w in wins),
        "tail_pct": pct,
        "rps": [len(w) / span_s for w in wins],
        "p50_us": [float(np.percentile(w, 50)) for w in wins],
        "tail_us": [float(np.percentile(w, pct) if pct else w.max())
                    for w in wins],
    }


def run_client(host: str, port: int, seed: int, seconds: float,
               per_source: int) -> dict:
    from derm.data import KIND_CODES
    from derm.store import (RECORD_HEAD, STATUS_MISSING, STATUS_OK,
                            EmbeddingClient, source_code)

    data = StoreData(seed, per_source)
    src_i, kind_i, ids = key_stream(data, seed)
    combo = src_i * len(KINDS) + kind_i
    pack = struct.Struct(RECORD_HEAD).pack
    codes = [(source_code(s), KIND_CODES[k], s, k)
             for s in SOURCES for k in KINDS]
    lat, done = array("q"), array("q")
    hits = misses = failures = 0
    with EmbeddingClient(host, port) as client:
        for j in range(min(1000, len(ids))):  # warm-up, not measured
            sc, kc, _, _ = codes[combo[j]]
            client.request_packed(pack(kc, int(ids[j]), sc))
        t0 = time.perf_counter_ns()
        deadline = t0 + int(seconds * 1e9)
        b = t0
        while b < deadline:
            j = len(lat) % len(ids)
            sc, kc, source, kind = codes[combo[j]]
            entity_id = int(ids[j])
            payload = pack(kc, entity_id, sc)
            a = time.perf_counter_ns()
            status, vec = client.request_packed(payload)
            b = time.perf_counter_ns()
            lat.append(b - a)
            done.append(b)
            want = data.expected(source, kind, entity_id)
            if status == STATUS_OK and vec is not None and want is not None \
                    and vec.tobytes() == want:
                hits += 1
            elif status == STATUS_MISSING and want is None:
                misses += 1
            else:
                failures += 1
    out = {"requests": len(lat), "hits": hits, "misses": misses,
           "failures": failures}
    out.update(window_stats(np.frombuffer(lat, dtype=np.int64),
                            np.frombuffer(done, dtype=np.int64), t0, b))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", type=int, required=True,
                    help="vectors published per source")
    args = ap.parse_args(argv)
    out = run_client(args.host, args.port, args.seed, args.seconds, args.size)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
