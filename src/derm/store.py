"""Key-value embedding store: immutable generation files plus TCP serving.

Every file here is sealed (see ioutil). A generation file, little-endian:

  header  {magic "DERM", format_version u32, dim u32, count u64, day u32}
  records count * {kind u8, id u64, source u16, dim * f32}, sorted by key
  trailer CRC-64 of everything above

Vectors are downcast to f32 at publish; the file is immutable once written,
and a repeat publish for the same day claims the next generation suffix.
Keys must be strictly increasing; a file with a key repeated or out of order
is corrupt. Daily embedding files share the layout: save_daily and load_daily
copy the fields of a day's embedding rows (data.embedding_rows) to and from
it.

A loaded StoreGeneration keeps its record tables where the reader put them,
viewing the file's bytes (cli's serve joins one table per source without
copying their rows). The key order every generation keeps makes each table
its own index: a lookup binary-searches a table's rows of the key's kind for
the id, scans the rows of that id for the source, and returns the row as a
(dim,) view. The search reads contiguous copies of those rows' ids (u64) and
sources (u16), 10 bytes a key. Such a span is listed under each (kind,
source) pair it holds, in table order, so a lookup searches only the tables
that hold its pair and a key held by two tables resolves to the first. Ids of
any size, unknown kinds and unknown sources miss.

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

import bisect
import operator
import re
import socket
import socketserver
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import KIND_CODES, KIND_NAMES, embedding_rows, entity_keys
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
        """(kind code, id, source code), each a Python int."""
        return (KIND_CODES[self.kind], operator.index(self.entity_id),
                source_code(self.source))


class StoreGeneration:
    """An immutable, checksum-verified set of served vectors.

    tables are generation row tables, each sorted by key and kept as given.
    Keys repeated across tables resolve to the first table's row.
    """

    def __init__(self, day: int, tables: list[np.ndarray]):
        dims = sorted({t.dtype["vec"].shape[0] for t in tables})
        if len(dims) > 1:
            raise DimInconsistentError(f"generations disagree on vector dim: {dims}")
        self.day = day
        self.dim = dims[0]
        self.tables = tuple(tables)
        # (kind, source) -> [(ids, sources, vecs)]: one span per table
        # holding the pair, the rows of its kind, in table order
        self._spans: dict[tuple[int, int], list] = {}
        for t in tables:
            for kind in np.unique(t["kind"]).tolist():
                rows = t[slice(*np.searchsorted(t["kind"], [kind, kind + 1]))]
                # copies: a memoryview of a strided key field cannot be indexed
                span = (memoryview(rows["id"].astype(np.uint64)),
                        memoryview(rows["source"].astype(np.uint16)),
                        rows["vec"])
                for source in np.unique(rows["source"]).tolist():
                    self._spans.setdefault((kind, source), []).append(span)

    def __len__(self) -> int:
        return sum(map(len, self.tables))

    def lookup(self, key: StoreKey) -> np.ndarray | None:
        return self.lookup_packed(*key.packed())

    def lookup_packed(self, kind_code: int, entity_id: int,
                      source: int) -> np.ndarray | None:
        """The (dim,) row of the key, or None; ints of any size miss rather
        than raise."""
        for ids, sources, vecs in self._spans.get((kind_code, source), ()):
            row = bisect.bisect_left(ids, entity_id)
            while row < len(ids) and ids[row] == entity_id:
                if sources[row] == source:
                    return vecs[row]
                row += 1
        return None


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


# ---------------------------------------------------------------------------
# generations and daily embedding files


def _generation_file(day: int, rows: np.ndarray) -> bytes:
    return GENERATION.pack((rows.dtype["vec"].shape[0], len(rows), day), rows)


def generation_bytes(day: int, dim: int,
                     vectors: dict[tuple[int, int, int], np.ndarray]) -> bytes:
    return _generation_file(day, _rows(_GENERATION_KEY, "<f4", dim, vectors))


def _generation_rows(blob: bytes, what: str) -> tuple[int, np.ndarray]:
    (_, _, day), (rows,) = GENERATION.unpack(blob, what, lambda dim, count, _: [
        (_row_type(_GENERATION_KEY, "<f4", dim), count)])
    _check_kinds(what, CorruptGenerationError, rows)
    k, i, s = (rows[name] for name, _ in _GENERATION_KEY)
    later = (k[1:] > k[:-1]) | (k[1:] == k[:-1]) & (
        (i[1:] > i[:-1]) | (i[1:] == i[:-1]) & (s[1:] > s[:-1]))
    if not later.all():
        raise CorruptGenerationError(f"{what} has record {np.argmin(later) + 1} "
                                     "out of key order or repeated")
    return day, rows


def _check_source(rows: np.ndarray, source: str, subject: str) -> None:
    """IoFailure unless every row carries source's code; subject names the
    file and its verb ("daily embeddings <path> hold")."""
    code = source_code(source)
    if (other := np.setdiff1d(rows["source"], [code])).size:
        raise IoFailureError(f"{subject} rows of source code {other[0]}, "
                             f"not of {source} (code {code})")


def parse_generation(blob: bytes, what: str = "generation") -> StoreGeneration:
    day, rows = _generation_rows(blob, what)
    return StoreGeneration(day, [rows])


def load_generation_rows(path, source: str | None = None
                         ) -> tuple[int, np.ndarray]:
    """(day, row table) of the generation at path, with every check of the
    file (checksum, magic and version, kinds, key order); given source, every
    row must carry its code."""
    what = f"generation {path}"
    day, rows = _generation_rows(read_file(path, what), what)
    if source is not None:
        _check_source(rows, source, f"{what} holds")
    return day, rows


def load_generation(path, source: str | None = None) -> StoreGeneration:
    """The generation at path; given source, every row must carry its code."""
    day, rows = load_generation_rows(path, source)
    return StoreGeneration(day, [rows])


def _state_rows(state: AggregatedStoreState, source: str) -> np.ndarray:
    src = source_code(source)
    vectors = {(KIND_CODES[kind], i, src): e.vector
               for (kind, i), e in state.entries.items()}
    return _rows(_GENERATION_KEY, "<f4", _dim_of(vectors.values()), vectors)


def state_generation(state: AggregatedStoreState,
                     source: str) -> StoreGeneration:
    """The generation a publish of this state serves."""
    return StoreGeneration(state.day, [_state_rows(state, source)])


def state_payload(state: AggregatedStoreState, day: int, source: str) -> bytes:
    """The exact generation-file bytes a publish of this state would write."""
    return _generation_file(day, _state_rows(state, source))


def save_daily(daily: DailyEmbeddingSet, path, source: str) -> None:
    records = daily.records
    dim = records["vec"].shape[1]
    rows = np.zeros(len(records), _row_type(_GENERATION_KEY, "<f4", dim))
    for name in ("kind", "id", "vec"):
        rows[name] = records[name]
    rows["source"] = source_code(source)
    write_atomic(path, _generation_file(daily.day, rows))


def load_daily(path, source: str) -> DailyEmbeddingSet:
    what = f"generation {path}"
    day, rows = _generation_rows(read_file(path, what), what)
    _check_source(rows, source, f"daily embeddings {path} hold")
    return DailyEmbeddingSet(day, embedding_rows(rows["kind"], rows["id"], 0,
                                                 rows["vec"]))


def generation_name(source: str, day: int, attempt: int) -> str:
    return f"{source}-day{day:03d}-g{attempt}.kv"


_GEN_RE = re.compile(r"(?P<source>.+)-day(?P<day>\d{3})-g(?P<attempt>\d+)\.kv$")


def list_generations(store_dir, source: str | None = None):
    """Sorted (day, attempt, path) triples found under store_dir."""
    store_dir = Path(store_dir)
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
    store_dir = Path(store_dir)
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
            entity_keys(entries), entries["last_active_day"].tolist(),
            np.array(entries["vec"]))},
        dict(zip(entity_keys(buffer), np.array(buffer["vec"]))),
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
    except (OSError, OverflowError) as e:  # OverflowError: port outside 0-65535
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
