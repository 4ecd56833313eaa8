"""Key-value embedding store: immutable generation files plus TCP serving.

Every file here is sealed (see ioutil). A generation file, little-endian:

  header  {magic "DERM", format_version u32, dim u32, count u64, day u32}
  records count * {kind u8, id u64, source u16, dim * f32}, sorted by key
  trailer CRC-64 of everything above

Vectors are downcast to f32 at publish; the file is immutable once written,
and a repeat publish for the same day claims the next generation suffix.
Daily embedding files share the layout.

The aggregated state is the single file `state.bin`, at f64, so a state
loads back exactly and `aggregate` gives the same bytes however it is split:

  header  {magic "DAGS", format_version u32, day u32, heuristic kind 4s,
           heuristic w f64, source u16, dim u32, entries u64, buffered u64}
  entries entries * {kind u8, id u64, last_active_day i32, dim * f64}
  buffer  buffered * {kind u8, id u64, dim * f64}: the ap heuristic's
          previous daily embeddings, both tables sorted by (kind, id)
  trailer CRC-64

The wire protocol frames one request per message: u32 length, then
{kind u8, id u64, source u16}. Responses are {status u8, dim u32, payload}.
"""

from __future__ import annotations

import re
import socket
import socketserver
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import KIND_CODES, KIND_NAMES, EmbeddingRecord
from .errors import (
    BindFailureError,
    CorruptGenerationError,
    DimInconsistentError,
    IoFailureError,
)
# crc64 stays importable from here: perfbench's patcher test wraps it here
from .ioutil import SealedFormat, crc64, read_file, write_atomic, write_new  # noqa: F401
from .lifecycle import (
    AggregatedStoreState,
    AggregationHeuristic,
    DailyEmbeddingSet,
    EntityKey,
    StoreEntry,
)

GENERATION = SealedFormat(b"DERM", 1, "<4sIIQI", CorruptGenerationError)
STATE = SealedFormat(b"DAGS", 1, "<4sII4sdHIQQ")
STATE_FILE = "state.bin"

RECORD_HEAD = "<BQH"
_GENERATION_KEY = [("kind", "u1"), ("id", "<u8"), ("source", "<u2")]
_ENTITY_KEY = [("kind", "u1"), ("id", "<u8")]
_ENTRY_KEY = _ENTITY_KEY + [("last_active_day", "<i4")]

STATUS_OK = 0
STATUS_MISSING = 1
STATUS_BAD_REQUEST = 2

REQUEST_LEN = struct.calcsize(RECORD_HEAD)
MAX_FRAME = 4096
# how often serve_forever checks for shutdown; close() waits up to this long
POLL_INTERVAL_S = 0.05


def source_code(tag: str) -> int:
    """Stable u16 code for a source-model tag."""
    return zlib.crc32(tag.encode("utf-8")) & 0xFFFF


@dataclass(frozen=True)
class StoreKey:
    kind: str
    entity_id: int
    source: str

    def packed(self) -> tuple[int, int, int]:
        return (KIND_CODES[self.kind], self.entity_id, source_code(self.source))


class StoreGeneration:
    """An immutable, checksum-verified set of served vectors."""

    def __init__(self, day: int, dim: int,
                 vectors: dict[tuple[int, int, int], np.ndarray]):
        self.day = day
        self.dim = dim
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def lookup(self, key: StoreKey) -> np.ndarray | None:
        return self.vectors.get(key.packed())

    def lookup_packed(self, kind_code: int, entity_id: int,
                      source: int) -> np.ndarray | None:
        return self.vectors.get((kind_code, entity_id, source))


# ---------------------------------------------------------------------------
# record tables: one structured row {key fields, vec[dim]} per key


def _dim_of(vectors) -> int:
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise DimInconsistentError(f"mixed vector dims: {sorted(dims)}")
    return dims.pop() if dims else 0


def _row_type(key, vec: str, dim: int) -> np.dtype:
    return np.dtype([*key, ("vec", vec, (dim,))])


def _rows(key, vec: str, dim: int, vectors: dict) -> np.ndarray:
    """One row per key tuple, sorted by key; vectors are cast to vec."""
    return np.array([(*k, vectors[k]) for k in sorted(vectors)],
                    _row_type(key, vec, dim))


def _check_kinds(what: str, error, *tables: np.ndarray) -> None:
    for rows in tables:
        unknown = np.setdiff1d(rows["kind"], list(KIND_NAMES))
        if unknown.size:
            raise error(f"{what} has unknown kind {unknown[0]}")


def _generation(day: int, rows: np.ndarray) -> StoreGeneration:
    """Rows back the vectors: one aligned copy of the vector column."""
    keys = zip(rows["kind"].tolist(), rows["id"].tolist(),
               rows["source"].tolist())
    return StoreGeneration(day, rows.dtype["vec"].shape[0],
                           dict(zip(keys, np.array(rows["vec"]))))


def _entity_keys(rows: np.ndarray) -> list[EntityKey]:
    return [(KIND_NAMES[k], i)
            for k, i in zip(rows["kind"].tolist(), rows["id"].tolist())]


# ---------------------------------------------------------------------------
# generations and daily embedding files


def _generation_file(day: int, rows: np.ndarray) -> bytes:
    return GENERATION.pack((rows.dtype["vec"].shape[0], len(rows), day), rows)


def generation_bytes(day: int, dim: int,
                     vectors: dict[tuple[int, int, int], np.ndarray]) -> bytes:
    return _generation_file(day, _rows(_GENERATION_KEY, "<f4", dim, vectors))


def parse_generation(blob: bytes, what: str = "generation") -> StoreGeneration:
    (_, _, day), (rows,) = GENERATION.unpack(blob, what, lambda dim, count, _: [
        (_row_type(_GENERATION_KEY, "<f4", dim), count)])
    _check_kinds(what, CorruptGenerationError, rows)
    return _generation(day, rows)


def load_generation(path) -> StoreGeneration:
    what = f"generation {path}"
    return parse_generation(read_file(path, what), what)


def _keyed_rows(vectors: dict[EntityKey, np.ndarray], source: str) -> np.ndarray:
    """Generation rows of vectors keyed by (kind, id)."""
    src = source_code(source)
    return _rows(_GENERATION_KEY, "<f4", _dim_of(vectors.values()),
                 {(KIND_CODES[kind], i, src): v for (kind, i), v in vectors.items()})


def _state_rows(state: AggregatedStoreState, source: str) -> np.ndarray:
    return _keyed_rows({k: e.vector for k, e in state.entries.items()}, source)


def state_generation(state: AggregatedStoreState,
                     source: str) -> StoreGeneration:
    """The generation a publish of this state serves."""
    return _generation(state.day, _state_rows(state, source))


def state_payload(state: AggregatedStoreState, day: int, source: str) -> bytes:
    """The exact generation-file bytes a publish of this state would write."""
    return _generation_file(day, _state_rows(state, source))


def save_daily(daily: DailyEmbeddingSet, path, source: str) -> None:
    rows = _keyed_rows({k: r.vector for k, r in daily.records.items()}, source)
    write_atomic(path, _generation_file(daily.day, rows))


def load_daily(path, source: str) -> DailyEmbeddingSet:
    gen = load_generation(path)
    rows = np.array(list(gen.vectors.values()), dtype=np.float64)
    return DailyEmbeddingSet(gen.day, {
        (KIND_NAMES[kind], entity_id):
            EmbeddingRecord(entity_id, KIND_NAMES[kind], gen.day, vec, source)
        for (kind, entity_id, _), vec in zip(gen.vectors, rows)})


def generation_name(source: str, day: int, attempt: int) -> str:
    return f"{source}-day{day:03d}-g{attempt}.kv"


_GEN_RE = re.compile(r"(?P<source>.+)-day(?P<day>\d{3})-g(?P<attempt>\d+)\.kv$")


def list_generations(store_dir, source: str | None = None):
    """Sorted (day, attempt, path) triples found under store_dir."""
    if not store_dir.is_dir():
        return []
    out = []
    for p in store_dir.iterdir():
        m = _GEN_RE.fullmatch(p.name)
        if m and (source is None or m.group("source") == source):
            out.append((int(m.group("day")), int(m.group("attempt")), p))
    return sorted(out, key=lambda t: (t[0], t[1]))


def publish(state: AggregatedStoreState, day: int, source: str, store_dir):
    """Write the state's vectors as a new immutable generation file under
    the next free attempt number; an existing generation is never replaced.

    Returns (path, StoreGeneration as loaded back from disk).
    """
    blob = state_payload(state, day, source)
    existing = [a for d, a, _ in list_generations(store_dir, source) if d == day]
    attempt = max(existing, default=0) + 1
    while True:
        path = store_dir / generation_name(source, day, attempt)
        try:
            write_new(path, blob)
        except FileExistsError:  # a concurrent publisher claimed this attempt
            attempt += 1
        else:
            return path, load_generation(path)


# ---------------------------------------------------------------------------
# aggregated state


def save_state(state: AggregatedStoreState, dir_path, source: str) -> None:
    h = state.heuristic
    entries = {(KIND_CODES[kind], i, e.last_active_day): e.vector
               for (kind, i), e in state.entries.items()}
    buffered = {(KIND_CODES[kind], i): v
                for (kind, i), v in state.prev_daily.items()}
    dim = _dim_of([*entries.values(), *buffered.values()])
    header = (state.day, h.kind.encode("ascii"), h.w,
              source_code(source), dim, len(entries), len(buffered))
    write_atomic(Path(dir_path) / STATE_FILE, STATE.pack(
        header, _rows(_ENTRY_KEY, "<f8", dim, entries),
        _rows(_ENTITY_KEY, "<f8", dim, buffered)))


def load_state(dir_path) -> AggregatedStoreState:
    path = Path(dir_path) / STATE_FILE
    what = f"state {path}"
    (day, kind, w, _, _, _, _), (entries, buffer) = STATE.unpack(
        read_file(path, what), what,
        lambda day, kind, w, src, dim, count, buffered: [
            (_row_type(_ENTRY_KEY, "<f8", dim), count),
            (_row_type(_ENTITY_KEY, "<f8", dim), buffered)])
    heuristic = AggregationHeuristic(kind.rstrip(b"\0").decode("latin-1"), w)
    heuristic.validate()
    _check_kinds(what, IoFailureError, entries, buffer)
    return AggregatedStoreState(
        day, heuristic,
        {key: StoreEntry(vec, last) for key, last, vec in zip(
            _entity_keys(entries), entries["last_active_day"].tolist(),
            np.array(entries["vec"]))},
        dict(zip(_entity_keys(buffer), np.array(buffer["vec"]))),
    )


# ---------------------------------------------------------------------------
# serving


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        gen: StoreGeneration = self.server.generation
        while True:
            frame = self.rfile.read(4)
            if len(frame) < 4:
                return
            (length,) = struct.unpack("<I", frame)
            if length > MAX_FRAME:
                self._respond(STATUS_BAD_REQUEST, b"")
                return
            payload = self.rfile.read(length)
            if len(payload) < length:
                return
            if length != REQUEST_LEN:
                self._respond(STATUS_BAD_REQUEST, b"")
                continue
            kind_code, entity_id, src = struct.unpack(RECORD_HEAD, payload)
            if kind_code not in KIND_NAMES:
                self._respond(STATUS_BAD_REQUEST, b"")
                continue
            vec = gen.lookup_packed(kind_code, entity_id, src)
            if vec is None:
                self._respond(STATUS_MISSING, b"")
            else:
                self._respond(STATUS_OK, vec.tobytes())

    def _respond(self, status: int, payload: bytes) -> None:
        dim = len(payload) // 4
        self.wfile.write(struct.pack("<BI", status, dim) + payload)
        self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ServingHandle:
    def __init__(self, server: _Server, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(generation: StoreGeneration, bind_address=("127.0.0.1", 0)) -> ServingHandle:
    """Serve a loaded generation read-only over TCP; returns a live handle."""
    try:
        server = _Server(bind_address, _Handler)
    except OSError as e:
        raise BindFailureError(f"cannot bind {bind_address}: {e}") from e
    server.generation = generation
    thread = threading.Thread(target=server.serve_forever,
                              args=(POLL_INTERVAL_S,), daemon=True)
    thread.start()
    return ServingHandle(server, thread)


class EmbeddingClient:
    """Blocking client; one request per call over a persistent connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, key: StoreKey) -> tuple[int, np.ndarray | None]:
        kind_code, entity_id, src = key.packed()
        return self.request_packed(struct.pack(RECORD_HEAD, kind_code,
                                               entity_id, src))

    def request_packed(self, payload: bytes) -> tuple[int, np.ndarray | None]:
        self.sock.sendall(struct.pack("<I", len(payload)) + payload)
        head = self._read_exact(5)
        status, dim = struct.unpack("<BI", head)
        vec = None
        if dim:
            vec = np.frombuffer(self._read_exact(4 * dim), dtype="<f4").copy()
        return status, vec

    def _read_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            chunk = self.sock.recv(n - got)
            if not chunk:
                raise IoFailureError("server closed the connection mid-response")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
