"""Sealed binary files, the one codec behind every derm artifact.

Day files, snapshots, daily embeddings, generations and the aggregated
state are sealed: little-endian, a header that starts with a four-byte
magic and a u32 format version, a payload, and a CRC-64 trailer over all of
it. `SealedFormat.pack` returns the complete file; `SealedFormat.unpack`
checks truncation, checksum, magic and version, raising the format's error.

`write_atomic` writes `<path>.<random>.tmp` in the same directory, fsyncs
it, then renames it over `path`, so a crash leaves the old file or the new one,
never a prefix of the new one. `write_new` links the temp file into place
instead, so it never replaces an existing file.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

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


def crc64(data: bytes, value: int = 0) -> int:
    """CRC-64/XZ: reflected 0xC96C5795D7870F42, init and xorout all-ones."""
    crc = value ^ 0xFFFFFFFFFFFFFFFF
    table = _CRC64_TABLE
    for b in data:
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SealedFormat:
    """One sealed file format; `header` is its struct format, which starts
    with the magic and the version ("<4sI...")."""

    magic: bytes
    version: int
    header: str
    error: type[DermError] = IoFailureError

    def pack(self, fields: tuple, *payload: bytes) -> bytes:
        """The complete file: header, payload, CRC-64 trailer."""
        body = b"".join([struct.pack(self.header, self.magic, self.version,
                                     *fields), *payload])
        return body + struct.pack("<Q", crc64(body))

    def unpack(self, blob: bytes, what: str) -> tuple[tuple, bytes, int]:
        """Check a complete file; returns (header fields after the version,
        the file less its trailer, the offset of the payload in it)."""
        head = struct.calcsize(self.header)
        if len(blob) < head + 8:
            raise self.error(f"{what} is truncated")
        body, (stored,) = blob[:-8], struct.unpack("<Q", blob[-8:])
        if crc64(body) != stored:
            raise self.error(f"{what} fails its checksum")
        magic, version, *fields = struct.unpack_from(self.header, body)
        if magic != self.magic:
            raise self.error(f"{what} has wrong magic {magic!r}")
        if version != self.version:
            raise self.error(f"{what} has unsupported version {version}")
        return tuple(fields), body, head


def write_atomic(path, blob: bytes) -> None:
    """Write blob to path through a fsynced same-directory temp file."""
    _write_via_temp(path, blob, os.replace)


def write_new(path, blob: bytes) -> None:
    """Like write_atomic, but hard-link the temp file into place; raises
    FileExistsError, leaving the file as it was, if path already exists."""
    _write_via_temp(path, blob, os.link)


def _write_via_temp(path, blob: bytes, place) -> None:
    path = Path(path)
    # a fresh name per call ("xb": unlike mkstemp, it keeps the umask's mode)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    placing = False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        placing = True
        place(tmp, path)
    except OSError as e:
        if placing and isinstance(e, FileExistsError):
            raise  # write_new's path is taken; the caller picks another
        raise IoFailureError(f"cannot write {path}: {e}") from e
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def read_file(path, what: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise IoFailureError(f"cannot read {what}: {e}") from e
