"""CRC-64 of sealed files: the lane-parallel crc64 against the byte loop,
its continuation and its scratch bound; pack's single copy; and the durable
write path."""

import errno
import os
import re
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import derm
from derm.errors import IoFailureError
from derm.ioutil import (_LOG2_LANE, BLOCK_LANES, LANE, SealedFormat, _shift_table,
                         crc64, write_atomic, write_new)


def _reference_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0xC96C5795D7870F42 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _reference_table()
BLOCK = BLOCK_LANES * LANE  # bytes


def reference_crc64(data: bytes) -> int:
    """CRC-64/XZ one byte at a time: the loop crc64 ran before its lanes."""
    crc = 0xFFFFFFFFFFFFFFFF
    for b in data:
        crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


def traced_peak(fn) -> int:
    """The peak of the memory traced while fn() runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCrc64:
    def test_check_value(self):
        # standard CRC-64/XZ check string
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_streaming_is_not_concatenation(self):
        assert crc64(b"ab") != crc64(b"a") ^ crc64(b"b")

    @pytest.mark.parametrize("size", [
        0, 1, LANE - 1, LANE, LANE + 1, 2 * LANE - 1, 2 * LANE, 2 * LANE + 1,
        7 * LANE + 3,  # an odd lane count
        BLOCK - 1, BLOCK, BLOCK + 1,
        BLOCK + LANE,  # a last block of one lane runs through the table loop
        (1 << 20) + 13,  # 4,096 lanes: two whole blocks, then 13 tail bytes
        2 * BLOCK + 3 * LANE + 5,
    ])
    def test_matches_reference_at_lane_edges(self, size):
        data = np.random.default_rng(size).bytes(size)
        assert crc64(data) == reference_crc64(data)

    @pytest.mark.parametrize("byte", [0x00, 0xFF])
    @pytest.mark.parametrize("size", [2 * LANE, 5 * LANE + 7, 64 * LANE,
                                      BLOCK + 5 * LANE + 7])
    def test_runs_of_one_byte(self, byte, size):
        # with the all-ones init, leading zeros change the CRC: a lane or a
        # block that starts from the wrong register, or a wrong shift, shows here
        data = bytes([byte]) * size
        assert crc64(data) == reference_crc64(data)

    @pytest.mark.parametrize("split", [0, 100, 3 * LANE, BLOCK, BLOCK + 5 * LANE + 7],
                             ids=["empty-head", "in-a-lane", "lane-edge",
                                  "block-edge", "empty-tail"])
    def test_value_continues_a_previous_crc(self, split):
        data = np.random.default_rng(7).bytes(BLOCK + 5 * LANE + 7)
        head, tail = data[:split], memoryview(data)[split:]
        assert crc64(tail, crc64(head)) == crc64(data) == reference_crc64(data)

    def test_scratch_and_table_cache_stay_bounded(self):
        data = np.random.default_rng(8).bytes(8 << 20)
        _shift_table.cache_clear()  # count this call's tables alone
        assert traced_peak(lambda: crc64(data)) < 1 << 20  # not the file's size
        assert _shift_table.cache_info().currsize <= \
            _LOG2_LANE + int(np.log2(BLOCK_LANES)) + 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_bytes_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        data = rng.bytes(int(rng.integers(0, 40 * LANE)))
        assert crc64(data) == reference_crc64(data)


def test_pack_copies_the_payload_once():
    sealed = SealedFormat(b"TEST", 1, "<4sIQ")
    payload = np.random.default_rng(9).integers(0, 1 << 63, 1 << 20, dtype="<u8")
    blobs = []
    assert traced_peak(lambda: blobs.append(sealed.pack((len(payload),), payload))) \
        <= 1.25 * payload.nbytes  # the file once, not the body and then the file
    body = struct.pack("<4sIQ", b"TEST", 1, len(payload)) + payload.tobytes()
    assert blobs == [body + struct.pack("<Q", reference_crc64(body))]


def test_importing_the_cli_builds_no_shift_table():
    # the child finds derm where this process did, installed or not
    src = str(Path(derm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import derm.cli, derm.ioutil; "
            "print(derm.ioutil._shift_table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


WRITES = pytest.mark.parametrize("write", [write_atomic, write_new],
                                 ids=["write_atomic", "write_new"])


class TestDurableWrites:
    @WRITES
    def test_directory_is_synced_after_the_file(self, tmp_path, monkeypatch, write):
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            synced.append((st.st_dev, st.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / "sub" / "blob.bin"
        write(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert synced == [(p.stat().st_dev, p.stat().st_ino)
                          for p in (path, path.parent)]

    @WRITES
    def test_directory_sync_failure_names_the_path(self, tmp_path, monkeypatch,
                                                   write):
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(errno.EIO, "injected")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / "blob.bin"
        with pytest.raises(IoFailureError,
                           match=rf"^cannot write {re.escape(str(path))}: .*injected"):
            write(path, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]


class TestOrphanedTemps:
    @WRITES
    def test_temp_names_carry_the_writer_pid(self, tmp_path, monkeypatch, write):
        placed = []
        for name in ("replace", "link"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda src, dst, real=real:
                                placed.append(Path(src).name) or real(src, dst))
        write(tmp_path / "blob.bin", b"payload")
        assert len(placed) == 1
        assert re.fullmatch(rf"blob\.bin\.{os.getpid()}\.[0-9a-f]{{8}}\.tmp",
                            placed[0])

    @WRITES
    def test_a_write_removes_only_its_dead_writers_temps(self, tmp_path, write):
        # 4194304 is above Linux's PID_MAX_LIMIT, so no process has that pid
        orphan = "blob.bin.4194304.0123abcd.tmp"
        kept = [f"blob.bin.{os.getpid()}.0123abcd.tmp",  # a running writer's
                "blob.bin.0123456789abcdef.tmp",  # old-style: no pid
                "blob.bin.x.4194304.0123abcd.tmp",  # the temp of blob.bin.x
                "other.bin.4194304.0123abcd.tmp",  # another file's
                "blob.bin.4194304.notes"]
        for name in (orphan, *kept):
            (tmp_path / name).write_bytes(b"partial")
        write(tmp_path / "blob.bin", b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["blob.bin", *kept])
        assert (tmp_path / "blob.bin").read_bytes() == b"payload"

    @WRITES
    def test_an_orphan_that_cannot_be_removed_is_left(self, tmp_path, monkeypatch,
                                                      write):
        orphan = tmp_path / "blob.bin.4194304.0123abcd.tmp"
        orphan.write_bytes(b"partial")
        real_unlink = os.unlink

        def unlink(path, *args, **kwargs):
            if Path(path) == orphan:
                raise PermissionError(errno.EACCES, "injected")
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", unlink)
        write(tmp_path / "blob.bin", b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin", orphan.name]
