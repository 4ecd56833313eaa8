"""Sealed binary files, the one codec behind every derm artifact.

Day files, snapshots, daily embeddings, generations and the aggregated
state are sealed, little-endian:

  header   {magic 4s, format_version u32, the format's own fields}
  payload  numpy record tables, back to back; the header gives every count
  trailer  CRC-64 of everything above

`SealedFormat.pack` returns the complete file. `SealedFormat.unpack` checks
truncation, checksum, magic and version, then reads the tables, which must
fill the payload exactly, raising the format's error.

`write_atomic` writes `<path>.<pid>.<8 hex>.tmp` in the same directory,
fsyncs it, then renames it over `path`, so a crash leaves the old file or the
new one, never a prefix of the new one. `write_new` links the temp file into
place instead, so it never replaces an existing file. Either then fsyncs the
directory, so the placed name survives a power loss too. A crash can still
leave the temp file behind, so each write first removes the temps of `path`
whose pid no longer runs; a running writer's temp is never touched.

`crc64` is CRC-64/XZ; `crc64(data, value)` continues value, the CRC of the
bytes before data, as `zlib.crc32` does. Below two lanes of `LANE` bytes it
runs the byte-at-a-time table loop. From two lanes up it does the same
arithmetic on numpy arrays, by zlib's `crc32_combine` method at 64 bits, one
block of k <= `BLOCK_LANES` lanes (512 KB) after another. Shifting a CRC
register over n zero bytes is linear over GF(2), so it is 8 tables of 256 u64,
one per byte of the register: the shifted register is the XOR of the 8 entries
its bytes pick.
  lanes  A block's k·LANE bytes are viewed, not copied, as k lanes of LANE
         bytes, which all run at once: lane 0 from the register the bytes
         before the block left (the all-ones init before the first block),
         the others from 0. One step XORs each lane's next 8-byte word into
         its register and shifts the register over 8 zero bytes
         (slicing-by-8).
  fold   Lane i must still pass over the (k-1-i)·LANE bytes after it in its
         block. Zero registers in front of lane 0 make the count a power of two
         (a zero register shifts to zero). Each level then shifts the left
         register of every pair over LANE·2**level zero bytes and XORs in the
         right one. What is left is the register after the block, and the next
         block's lane 0 starts from it.
  tail   Under two lanes left (one lane as the last block, or len % LANE
         bytes) run through the table loop.
So the scratch arrays are sized by one block, not by data: about 0.4 MB at
most. The table for 2**j zero bytes is built on first use, once per process,
by squaring the one for 2**(j-1); importing builds none. The fold uses the
tables for LANE·2**level bytes, level < log2(BLOCK_LANES), so the cache holds
at most 19 tables of 16 KB: LANE and BLOCK_LANES are constants, not
parameters.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DermError, IoFailureError


def _crc64_table() -> list[int]:
    poly = 0xC96C5795D7870F42
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC64_TABLE = _crc64_table()
_ALL_ONES = 0xFFFFFFFFFFFFFFFF
LANE = 256  # bytes; a power of two, at least 8
_LANE_WORDS = LANE // 8
_LOG2_LANE = LANE.bit_length() - 1
BLOCK_LANES = 2048  # lanes a block; a power of two (2048 · 256 B = 512 KB)
_BYTE_ROWS = np.arange(0, 8 * 256, 256).reshape(8, 1)  # table row of each byte


def crc64(data, value: int = 0) -> int:
    """CRC-64/XZ: reflected 0xC96C5795D7870F42, init and xorout all-ones, of a
    bytes-like of bytes; value continues a previous result, so
    crc64(b, crc64(a)) == crc64(a + b)."""
    crc, start = value ^ _ALL_ONES, 0
    while (k := min((len(data) - start) // LANE, BLOCK_LANES)) >= 2:
        crc = _crc64_lanes(crc, np.frombuffer(data, "<u8", k * _LANE_WORDS, start))
        start += k * LANE
    return _crc64_loop(crc, memoryview(data)[start:]) ^ _ALL_ONES


def _crc64_lanes(crc: int, words: np.ndarray) -> int:
    """The register after k >= 2 whole lanes (k·LANE/8 words), from crc."""
    k = len(words) // _LANE_WORDS
    words = words.reshape(k, _LANE_WORDS)
    levels = (k - 1).bit_length()
    regs = np.zeros(1 << levels, "<u8")
    lanes = regs[-k:]
    lanes[0] = crc
    step = _shift_table(3)  # 8 zero bytes
    # rows[p, i] = 256·p + byte p of lane i: the byte is the low half of a u16
    rows = np.empty((8, k), "<u2")
    row_bytes = rows.view(np.uint8).reshape(8, k, 2)
    row_bytes[..., 1] = np.arange(8).reshape(8, 1)
    looked = np.empty((8, k), "<u8")
    lane_bytes = lanes.view(np.uint8).reshape(k, 8).T
    for j in range(_LANE_WORDS):
        lanes ^= words[:, j]
        np.copyto(row_bytes[..., 0], lane_bytes)
        step.take(rows, out=looked, mode="wrap")  # in range; "wrap" is unbuffered
        np.bitwise_xor.reduce(looked, axis=0, out=lanes)
    for level in range(levels):
        left = regs[0::2].copy()
        _shift(_shift_table(_LOG2_LANE + level), left)
        left ^= regs[1::2]
        regs = left
    return int(regs[0])


def _crc64_loop(crc: int, data) -> int:
    """The register after data, one table step per byte."""
    table = _CRC64_TABLE
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc


def _shift(table: np.ndarray, regs: np.ndarray) -> None:
    """Shift each register of the contiguous "<u8" array regs, in place, over
    the zero bytes that table (from `_shift_table`) stands for."""
    rows = regs.view(np.uint8).reshape(-1, 8).T + _BYTE_ROWS
    np.bitwise_xor.reduce(table.take(rows, mode="wrap"), axis=0, out=regs)


@functools.cache
def _shift_table(log2_bytes: int) -> np.ndarray:
    """Shift over 2**log2_bytes zero bytes as a read-only flat (8·256,) "<u8"
    table: entry 256·p + v is the register that holds v in its byte p, after
    the shift."""
    if log2_bytes == 0:
        # one zero byte: bit i < 8 leaves as table[1 << i], the rest move down 8
        columns = np.concatenate([
            np.array(_CRC64_TABLE, "<u8")[1 << np.arange(8)],
            np.left_shift(1, np.arange(56, dtype="<u8"))], dtype="<u8")
    else:  # the square of the half shift: its image of each bit, shifted again
        half = _shift_table(log2_bytes - 1)
        columns = half[_BYTE_ROWS + (1 << np.arange(8))].ravel()
        _shift(half, columns)
    # the image of v is the XOR of its bits' columns: entries [2**i, 2**(i+1))
    # are entries [0, 2**i) with bit i's column added
    by_value = np.zeros((256, 8), "<u8")
    bit_columns = columns.reshape(8, 8).T
    for i in range(8):
        np.bitwise_xor(by_value[:1 << i], bit_columns[i],
                       out=by_value[1 << i:2 << i])
    table = by_value.T.ravel()
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SealedFormat:
    """One sealed file format; `header` is its struct format, which starts
    with the magic and the version ("<4sI...")."""

    magic: bytes
    version: int
    header: str
    error: type[DermError] = IoFailureError

    def pack(self, fields: tuple, *payload) -> bytes:
        """The complete file: header, payload (bytes or contiguous arrays),
        CRC-64 trailer, joined once; each part is checksummed in place."""
        parts = [struct.pack(self.header, self.magic, self.version, *fields),
                 *(memoryview(part).cast("B") for part in payload)]
        crc = 0
        for part in parts:
            crc = crc64(part, crc)
        return b"".join([*parts, struct.pack("<Q", crc)])

    def unpack(self, blob: bytes, what: str, tables) -> tuple[tuple, list]:
        """Check a complete file; returns (the header fields after the version,
        one read-only array per (row dtype, count) of tables(*fields)), each a
        view of blob."""
        if len(blob) < 16:
            raise self.error(f"{what} is truncated")
        body, (stored,) = memoryview(blob)[:-8], struct.unpack("<Q", blob[-8:])
        if crc64(body) != stored:
            raise self.error(f"{what} fails its checksum")
        magic, version = struct.unpack_from("<4sI", body)
        if magic != self.magic:
            raise self.error(f"{what} has wrong magic {magic!r}")
        if version != self.version:
            raise self.error(f"{what} has unsupported version {version}")
        try:
            fields = struct.unpack_from(self.header, body)[2:]
            layout = [(np.dtype(dtype), count) for dtype, count in tables(*fields)]
        except (struct.error, ValueError, TypeError) as e:
            raise self.error(f"{what} has a malformed header: {e}") from e
        offsets = list(itertools.accumulate([n * dtype.itemsize for dtype, n in layout],
                                            initial=struct.calcsize(self.header)))
        if len(body) != offsets[-1]:
            raise self.error(f"{what} declares {offsets[-1]} bytes before its trailer "
                             f"but holds {len(body)}")
        return fields, [np.frombuffer(body, dtype, count, off)
                        for (dtype, count), off in zip(layout, offsets)]


def write_atomic(path, blob: bytes) -> None:
    """Write blob to path through a fsynced same-directory temp file."""
    _write_via_temp(path, blob, os.replace)


def write_new(path, blob: bytes) -> None:
    """Like write_atomic, but hard-link the temp file into place; raises
    FileExistsError, leaving the file as it was, if path already exists."""
    _write_via_temp(path, blob, os.link)


def _write_via_temp(path, blob: bytes, place) -> None:
    path = Path(path)
    _remove_orphaned_temps(path)
    # a fresh name per call ("xb": unlike mkstemp, it keeps the umask's mode)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    placing = False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        placing = True
        place(tmp, path)
        _fsync_dir(path.parent)
    except OSError as e:
        if placing and isinstance(e, FileExistsError):
            raise  # write_new's path is taken; the caller picks another
        raise IoFailureError(f"cannot write {path}: {e}") from e
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def remove_file(path) -> None:
    """Unlink path, if it exists, and fsync its directory."""
    try:
        os.unlink(path)
        _fsync_dir(Path(path).parent)
    except FileNotFoundError:
        pass
    except OSError as e:
        raise IoFailureError(f"cannot remove {path}: {e}") from e


_TEMP_SUFFIX = re.compile(r"(\d+)\.[0-9a-f]{8}\.tmp")  # after "<name>."


def _remove_orphaned_temps(path: Path) -> None:
    """Unlink the temp files of path whose writer's pid no longer runs."""
    prefix = f"{path.name}."
    try:
        names = os.listdir(path.parent)
    except OSError:
        return  # no directory yet, so no temps
    for name in names:
        temp = name.startswith(prefix) and _TEMP_SUFFIX.fullmatch(name, len(prefix))
        if temp and not _pid_runs(int(temp[1])):
            with contextlib.suppress(OSError):
                os.unlink(path.parent / name)


def _pid_runs(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0: checks the pid, sends nothing
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):
        pass  # another user's process, or no pid at all: keep its temp
    return True


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_file(path, what: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise IoFailureError(f"cannot read {what}: {e}") from e
