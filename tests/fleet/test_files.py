"""The crash-safe file primitives underneath every fleet state write."""

import hashlib
import json
import threading

import pytest

from repro.io import atomic


def test_atomic_write_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    atomic.atomic_write_json(path, {"b": 2, "a": 1})
    assert atomic.read_json(path) == {"a": 1, "b": 2}
    atomic.atomic_write_json(path, {"a": 3})
    assert atomic.read_json(path) == {"a": 3}
    # No temp debris: the write either landed or never happened.
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_read_json_missing_is_none(tmp_path):
    assert atomic.read_json(tmp_path / "absent.json") is None
    assert atomic.read_lines(tmp_path / "absent.txt") is None


def test_read_json_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ValueError):
        atomic.read_json(path)


def test_exclusive_create_single_winner(tmp_path):
    path = tmp_path / "claim.json"
    assert atomic.atomic_create_json(path, {"worker": "w0"}) is True
    assert atomic.atomic_create_json(path, {"worker": "w1"}) is False
    # The loser's payload never replaces the winner's.
    assert atomic.read_json(path) == {"worker": "w0"}
    assert [p.name for p in tmp_path.iterdir()] == ["claim.json"]


def test_exclusive_create_threaded_race(tmp_path):
    path = tmp_path / "claim.json"
    outcomes = {}
    barrier = threading.Barrier(8)

    def claimant(name):
        barrier.wait()
        outcomes[name] = atomic.atomic_create_json(path, {"worker": name})

    threads = [
        threading.Thread(target=claimant, args=(f"w{i}",)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    winners = [name for name, won in outcomes.items() if won]
    assert len(winners) == 1
    assert atomic.read_json(path) == {"worker": winners[0]}


def test_append_line_accumulates(tmp_path):
    path = tmp_path / "log.jsonl"
    atomic.append_line(path, json.dumps({"n": 1}))
    atomic.append_line(path, json.dumps({"n": 2}))
    assert atomic.read_lines(path) == ['{"n": 1}\n', '{"n": 2}\n']


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob"
    payload = b"x" * 100_000 + b"tail"
    path.write_bytes(payload)
    assert atomic.sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_overwrite_bytes_clobbers_in_place(tmp_path):
    path = tmp_path / "victim"
    path.write_bytes(b"0123456789")
    atomic.overwrite_bytes(path, 4, b"XX")
    assert path.read_bytes() == b"0123XX6789"
