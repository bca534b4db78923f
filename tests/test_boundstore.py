"""The warm-start file format and its loader, byte by byte.

The contract under test (``repro/engine/boundstore.py``):

* a column appended by :class:`WarmStartFile` reads back bit-exactly, in the
  documented layout (handshake header, then CRC-framed records), once per
  key, and never past :data:`MAX_FILE_BYTES`;
* the handshake names what it rejected — a short header, or the first
  mismatching field — and a rejected file is rebuilt empty by its lane;
* a lane loads every lane's file in the directory but writes only its own,
  cuts a torn tail off its own file before appending, and stops appending
  for good after a write error;
* a reader racing an appending lane only ever sees whole records;
* stable keys and digests are the same in a fresh interpreter, which is
  what lets one process serve a column another one computed.

These tests need neither a service nor an engine; the service-level
restart contract lives in ``tests/test_warmstart.py``.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import boundstore
from repro.engine.boundstore import (
    WarmStartFile,
    config_fingerprint,
    database_digest,
    inspect_warm_start,
    lane_file,
    read_warm_file,
    stable_object_key,
)
from repro.testing.faults import flip_store_byte, truncate_store_file

#: The handshake every file in these tests is written and read under.
DIGEST = bytes(range(16))
CONFIG = bytes(range(16, 32))

#: Bytes of the file header (magic, version, digest, fingerprint).
HEADER_BYTES = 40


def _column(pairs: int, start: float) -> np.ndarray:
    return np.linspace(start, start + 1.0, pairs)


def _pair(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A memo column as the file stores it: rows lower and upper."""
    return np.stack((lower, upper))


def _open(directory, lane: int = 0) -> WarmStartFile:
    return WarmStartFile(str(directory), lane, DIGEST, CONFIG)


def _write(directory, keys, lane: int = 0) -> str:
    """Write one lane's file holding a 4-pair column per key; returns its path."""
    warm = _open(directory, lane)
    for i, key in enumerate(keys):
        assert warm.append(key, _pair(_column(4, i), _column(4, i + 0.5)))
    warm.close()
    return lane_file(str(directory), lane)


def _keys(path: str) -> list[bytes]:
    records, end, rejected = read_warm_file(path, DIGEST, CONFIG)
    assert rejected is None and end == os.path.getsize(path)
    return [key for key, _value in records]


# --------------------------------------------------------------------- #
# records: round trip, layout, one copy per key, size cap
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("pairs", [0, 1, 37])
def test_append_round_trips_bit_exact(tmp_path, pairs):
    values = np.array([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 5e-324, 1.0 / 3.0])
    lower = np.resize(values, pairs)
    upper = np.resize(values[::-1], pairs)
    warm = _open(tmp_path)
    assert warm.append(b"key", _pair(lower, upper))
    warm.close()
    records, _end, _rejected = read_warm_file(lane_file(str(tmp_path), 0), DIGEST, CONFIG)
    [(key, got)] = records
    got_lower, got_upper = got
    assert key == b"key" and got.shape == (2, pairs)
    # byte equality: -0.0, NaN and subnormals survive unchanged
    assert got_lower.tobytes() == lower.astype("<f8").tobytes()
    assert got_upper.tobytes() == upper.astype("<f8").tobytes()
    # the loader hands out private, writable copies, not views of its buffer
    assert got.flags.owndata and got.flags.writeable
    reopened = _open(tmp_path, lane=1)
    reopened.close()
    assert reopened.columns[b"key"][0].tobytes() == lower.astype("<f8").tobytes()


def test_file_layout_matches_the_documented_format(tmp_path):
    lower = np.array([0.25, 0.5])
    upper = np.array([0.75, 1.0])
    warm = _open(tmp_path)
    assert warm.append(b"abc", _pair(lower, upper))
    warm.close()
    with open(lane_file(str(tmp_path), 0), "rb") as handle:
        data = handle.read()
    assert struct.unpack_from("<4sI16s16s", data) == (b"RWS1", 1, DIGEST, CONFIG)
    key_len, pairs, crc = struct.unpack_from("<III", data, HEADER_BYTES)
    assert (key_len, pairs) == (3, 2)
    body = data[HEADER_BYTES + 12 :]
    assert body == b"abc" + lower.astype("<f8").tobytes() + upper.astype("<f8").tobytes()
    # the CRC covers both lengths, the key and both columns
    assert crc == zlib.crc32(data[HEADER_BYTES : HEADER_BYTES + 8] + body)


def test_a_key_is_appended_once(tmp_path):
    column = _column(4, 0.0)
    warm = _open(tmp_path)
    assert warm.append(b"k", _pair(column, column))
    size = os.path.getsize(lane_file(str(tmp_path), 0))
    assert not warm.append(b"k", _pair(column + 1.0, column + 1.0))
    warm.close()
    # a reopened lane knows the key from its file and does not append it again
    warm = _open(tmp_path)
    assert not warm.append(b"k", _pair(column, column))
    warm.close()
    assert os.path.getsize(lane_file(str(tmp_path), 0)) == size
    assert _keys(lane_file(str(tmp_path), 0)) == [b"k"]


def test_appends_past_the_size_cap_are_skipped(tmp_path, monkeypatch):
    column = np.zeros(8)
    record = 12 + len(b"key-0") + 16 * 8
    monkeypatch.setattr(boundstore, "MAX_FILE_BYTES", HEADER_BYTES + record)
    warm = _open(tmp_path)
    assert warm.append(b"key-0", _pair(column, column))
    assert not warm.append(b"key-1", _pair(column, column))
    warm.close()
    assert b"key-1" not in warm.columns
    path = lane_file(str(tmp_path), 0)
    assert os.path.getsize(path) == HEADER_BYTES + record
    assert _keys(path) == [b"key-0"]


class _FullDisk:
    """A file object whose every write fails like a full disk."""

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def close(self):
        pass


def test_a_write_error_stops_appending_for_good(tmp_path):
    column = _column(4, 0.0)
    warm = _open(tmp_path)
    assert warm.append(b"a", _pair(column, column))
    real = warm._file
    warm._file = _FullDisk()
    real.close()
    assert not warm.append(b"b", _pair(column, column))
    assert not warm.append(b"c", _pair(column, column))
    warm.close()
    assert list(warm.columns) == [b"a"]
    assert _keys(lane_file(str(tmp_path), 0)) == [b"a"]


def test_close_is_idempotent_and_ends_appends(tmp_path):
    column = _column(4, 0.0)
    warm = _open(tmp_path)
    assert warm.append(b"a", _pair(column, column))
    warm.close()
    warm.close()
    assert not warm.append(b"b", _pair(column, column))
    assert _keys(lane_file(str(tmp_path), 0)) == [b"a"]


# --------------------------------------------------------------------- #
# the handshake
# --------------------------------------------------------------------- #
def test_a_missing_file_reads_empty_and_an_empty_directory_is_cold(tmp_path):
    assert read_warm_file(lane_file(str(tmp_path), 0), DIGEST, CONFIG) == ([], 0, None)
    assert inspect_warm_start(str(tmp_path), DIGEST, CONFIG) == {
        "path": str(tmp_path),
        "warm_started": False,
        "rejected_store": None,
        "records": 0,
    }


@pytest.mark.parametrize("keep", [0, 1, HEADER_BYTES - 1])
def test_a_short_header_is_rejected_and_rebuilt(tmp_path, keep):
    path = _write(tmp_path, [b"a"])
    assert truncate_store_file(path, keep) == keep
    assert read_warm_file(path, DIGEST, CONFIG) == ([], 0, "truncated-header")
    warm = _open(tmp_path)
    assert warm.columns == {}
    assert warm.append(b"b", _pair(_column(4, 0.0), _column(4, 1.0)))
    warm.close()
    assert _keys(path) == [b"b"]


@pytest.mark.parametrize(
    "offset, reason",
    [
        (3, "bad-magic"),
        (7, "version-mismatch"),
        (23, "digest-mismatch"),
        (39, "config-mismatch"),
    ],
)
def test_the_last_byte_of_each_header_field_is_checked(tmp_path, offset, reason):
    path = _write(tmp_path, [b"a", b"b"])
    flip_store_byte(path, offset)
    assert read_warm_file(path, DIGEST, CONFIG) == ([], 0, reason)
    assert inspect_warm_start(str(tmp_path), DIGEST, CONFIG)["rejected_store"] == reason


def test_inspect_counts_valid_records_and_names_the_first_rejection(tmp_path):
    _write(tmp_path, [b"a", b"b"], lane=0)
    with open(lane_file(str(tmp_path), 1), "wb") as handle:
        handle.write(b"JUNK" + bytes(HEADER_BYTES - 4))
    with open(lane_file(str(tmp_path), 2), "wb") as handle:
        handle.write(bytes(10))
    assert inspect_warm_start(str(tmp_path), DIGEST, CONFIG) == {
        "path": str(tmp_path),
        "warm_started": True,
        "rejected_store": "bad-magic",
        "records": 2,
    }


def test_unrelated_files_in_the_directory_are_ignored(tmp_path):
    junk = {"notes.txt": b"junk", "lane-0.warm.tmp": b"JUNK" * 20, "lane-1.warmer": b"x"}
    for name, content in junk.items():
        (tmp_path / name).write_bytes(content)
    _write(tmp_path, [b"a"])
    assert inspect_warm_start(str(tmp_path), DIGEST, CONFIG) == {
        "path": str(tmp_path),
        "warm_started": True,
        "rejected_store": None,
        "records": 1,
    }
    for name, content in junk.items():
        assert (tmp_path / name).read_bytes() == content


# --------------------------------------------------------------------- #
# lanes: who loads what, who writes what
# --------------------------------------------------------------------- #
def test_a_torn_tail_is_cut_off_before_the_next_append(tmp_path):
    path = _write(tmp_path, [b"a", b"b"])
    truncate_store_file(path, os.path.getsize(path) - 5)  # tear record b
    warm = _open(tmp_path)
    assert list(warm.columns) == [b"a"]
    assert warm.append(b"c", _pair(_column(4, 0.0), _column(4, 1.0)))
    warm.close()
    # the new record follows the last whole one, so it stays reachable
    assert _keys(path) == [b"a", b"c"]


def test_a_lane_loads_other_lanes_files_but_never_writes_them(tmp_path):
    other = _write(tmp_path, [b"a", b"b"], lane=0)
    truncate_store_file(other, os.path.getsize(other) - 5)  # a torn tail
    with open(other, "rb") as handle:
        before = handle.read()
    warm = _open(tmp_path, lane=1)
    assert list(warm.columns) == [b"a"]
    assert warm.append(b"c", _pair(_column(4, 0.0), _column(4, 1.0)))
    warm.close()
    # lane 0's torn tail is lane 0's to cut: lane 1 left the file untouched
    with open(other, "rb") as handle:
        assert handle.read() == before
    assert _keys(lane_file(str(tmp_path), 1)) == [b"c"]


def test_the_first_copy_of_a_key_wins_across_lane_files(tmp_path):
    # two lanes that computed the same column concurrently both persisted it
    lanes = [_open(tmp_path, lane) for lane in (0, 1)]
    for value, warm in enumerate(lanes):
        assert warm.append(b"k", _pair(_column(4, value), _column(4, value)))
        warm.close()
    reader = _open(tmp_path, lane=2)
    reader.close()
    np.testing.assert_array_equal(reader.columns[b"k"][0], _column(4, 0))
    assert inspect_warm_start(str(tmp_path), DIGEST, CONFIG)["records"] == 2


def test_a_reader_racing_an_appending_lane_sees_only_whole_records(tmp_path):
    num_keys = 200

    def expected(i: int) -> np.ndarray:
        return np.full(16, float(i) + 0.25)

    path = lane_file(str(tmp_path), 0)
    writer = _open(tmp_path)  # the header is on disk before any reader starts
    errors: list[str] = []
    done = threading.Event()

    def read_loop():
        while not done.is_set():
            records, _end, rejected = read_warm_file(path, DIGEST, CONFIG)
            if rejected is not None:
                errors.append(f"header rejected mid-append: {rejected}")
                return
            for i, (key, (lower, upper)) in enumerate(records):
                if key != f"key-{i}".encode() or not (
                    np.array_equal(lower, expected(i))
                    and np.array_equal(upper, expected(i) + 1.0)
                ):
                    errors.append(f"record {i} of {len(records)} is not the one appended")
                    return

    readers = [threading.Thread(target=read_loop) for _ in range(2)]
    for thread in readers:
        thread.start()
    for i in range(num_keys):
        assert writer.append(f"key-{i}".encode(), _pair(expected(i), expected(i) + 1.0))
    done.set()
    for thread in readers:
        thread.join()
    writer.close()
    assert not errors, errors
    assert len(_keys(path)) == num_keys


# --------------------------------------------------------------------- #
# stable identities across processes
# --------------------------------------------------------------------- #
def _identities(database, objects) -> tuple:
    return (
        database_digest(database),
        config_fingerprint("round_robin"),
        [stable_object_key(database, obj) for obj in objects],
    )


def test_stable_keys_and_digests_agree_in_a_fresh_interpreter():
    database = uniform_rectangle_database(num_objects=20, max_extent=0.05, seed=4)
    rng = np.random.default_rng(8)
    objects = [database[0], database[7]] + [
        random_reference_object(extent=0.05, rng=rng, label=f"ad-hoc-{i}")
        for i in range(2)
    ]
    # spawn, not fork: a fresh interpreter with its own hash seed, holding
    # unpickled copies of the database and the ad-hoc objects
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        remote = pool.apply(_identities, (database, objects))
    assert remote == _identities(database, objects)
    assert [key[0] for key in remote[2]] == ["db", "db", "pickle", "pickle"]
