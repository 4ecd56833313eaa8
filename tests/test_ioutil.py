"""CRC-64 of sealed files: the lane-parallel crc64 against the byte loop;
and the durable write path."""

import errno
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import derm
from derm.errors import IoFailureError
from derm.ioutil import LANE, crc64, write_atomic, write_new


def _reference_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ 0xC96C5795D7870F42 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _reference_table()


def reference_crc64(data: bytes) -> int:
    """CRC-64/XZ one byte at a time: the loop crc64 ran before its lanes."""
    crc = 0xFFFFFFFFFFFFFFFF
    for b in data:
        crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


class TestCrc64:
    def test_check_value(self):
        # standard CRC-64/XZ check string
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_streaming_is_not_concatenation(self):
        assert crc64(b"ab") != crc64(b"a") ^ crc64(b"b")

    @pytest.mark.parametrize("size", [
        0, 1, LANE - 1, LANE, LANE + 1, 2 * LANE - 1, 2 * LANE, 2 * LANE + 1,
        7 * LANE + 3,  # an odd lane count
        (1 << 20) + 13,  # 4,096 lanes: twelve fold levels
    ])
    def test_matches_reference_at_lane_edges(self, size):
        data = np.random.default_rng(size).bytes(size)
        assert crc64(data) == reference_crc64(data)

    @pytest.mark.parametrize("byte", [0x00, 0xFF])
    @pytest.mark.parametrize("size", [2 * LANE, 5 * LANE + 7, 64 * LANE])
    def test_runs_of_one_byte(self, byte, size):
        # with the all-ones init, leading zeros change the CRC: a lane that
        # starts from the wrong register, or a wrong shift, shows here
        data = bytes([byte]) * size
        assert crc64(data) == reference_crc64(data)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_bytes_match_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        data = rng.bytes(int(rng.integers(0, 40 * LANE)))
        assert crc64(data) == reference_crc64(data)


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
