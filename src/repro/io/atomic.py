"""Crash-safe file primitives — the only module that may write raw files.

Every persistent state document of the library — fleet coordination files
(:mod:`repro.fleet`) and result-store objects (:mod:`repro.store`) alike —
goes through one of four write shapes, each safe against SIGKILL at any
instruction:

* :func:`atomic_write_json` / :func:`atomic_write_text` — write-temp-then-
  ``os.replace``: readers see the old document or the new one, never a
  torn mix (lease renewals, the attempt ledger, the poison list, rebuilt
  merges, store objects, compacted journals);
* :func:`atomic_create_json` — write-temp-then-``os.link``: hard-linking
  the temp into place is an *exclusive* create, so when several workers
  race to claim one shard the filesystem picks exactly one winner (a
  plain rename would silently overwrite the other claim);
* :func:`append_line` — append + flush + fsync: journals and attempt
  outputs grow by whole lines, and a kill mid-append leaves at worst one
  torn trailing line, which the recovery readers truncate;
* reads return ``None`` for files that do not exist yet, because absence
  is a normal state (an unclaimed shard simply has no lease file; an
  uncached key simply has no object file).

Repro-lint rule R9 enforces the funnel for both consumers: any module
under ``repro.fleet`` or ``repro.store`` that opens a file for writing
outside this module is a lint error.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "atomic_create_json",
    "atomic_replace_file",
    "append_line",
    "overwrite_bytes",
    "read_json",
    "read_lines",
    "sha256_file",
    "fsync_dir",
]


def fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: Distinguishes temp files of concurrent writers *within* one process
#: (heartbeat threads, racing test claimants); the pid handles the rest.
_TEMP_SERIAL = itertools.count()


def _temp_path(path: Path) -> Path:
    # Same directory as the target (os.replace/os.link must not cross
    # filesystems); pid+serial-suffixed so concurrent writers — other
    # processes or other threads of this one — never collide.
    serial = next(_TEMP_SERIAL)
    return path.with_name(f".{path.name}.{os.getpid()}.{serial}.tmp")


def _write_temp_text(path: Path, text: str) -> Path:
    temp = _temp_path(path)
    with temp.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    return temp


def _write_temp(path: Path, payload: dict[str, Any]) -> Path:
    return _write_temp_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def atomic_write_json(path: str | Path, payload: dict[str, Any]) -> None:
    """Replace ``path`` with a JSON document, atomically."""
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` with arbitrary text, atomically.

    The temp-then-``os.replace`` shape behind :func:`atomic_write_json`,
    for any payload (e.g. a compacted JSONL journal or a shard manifest).
    If the replace fails, the temp file is removed and ``path`` keeps its
    old content.
    """
    path = Path(path)
    temp = _write_temp_text(path, text)
    try:
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    fsync_dir(path.parent)


def atomic_create_json(path: str | Path, payload: dict[str, Any]) -> bool:
    """Create ``path`` exclusively; True iff this caller won the race.

    The hard-link trick: ``os.link(temp, path)`` fails with
    ``FileExistsError`` when the target exists, and the link itself is
    atomic — so of any number of concurrent claimants, exactly one
    returns True and everyone else sees False with the winner's document
    in place.
    """
    path = Path(path)
    temp = _write_temp(path, payload)
    try:
        os.link(temp, path)
    except FileExistsError:
        return False
    finally:
        temp.unlink(missing_ok=True)
    fsync_dir(path.parent)
    return True


def atomic_replace_file(temp: str | Path, path: str | Path) -> None:
    """Move a fully-written temp file into place (for non-JSON payloads)."""
    path = Path(path)
    os.replace(temp, path)
    fsync_dir(path.parent)


def append_line(path: str | Path, line: str) -> None:
    """Append one line durably (flush + fsync before returning).

    A kill during the write leaves at most one torn trailing line; every
    reader of appended files goes through a recovery parse that truncates
    exactly that.
    """
    path = Path(path)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_json(path: str | Path) -> dict[str, Any] | None:
    """Load a JSON state document; ``None`` when the file does not exist."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: state documents are JSON objects")
    return data


def read_lines(path: str | Path) -> list[str] | None:
    """All lines of a text file; ``None`` when the file does not exist."""
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            return handle.readlines()
    except FileNotFoundError:
        return None


def overwrite_bytes(path: str | Path, offset: int, data: bytes) -> None:
    """Deliberately clobber bytes in place — the chaos harness only.

    This is the *opposite* of crash-safe, which is exactly why it lives
    here: the fault injector needs one in-place write primitive, and
    keeping it in the R9 funnel means every other state module still
    cannot tear a file.
    """
    with Path(path).open("r+b") as handle:
        handle.seek(max(0, offset))
        handle.write(data)


def sha256_file(path: str | Path) -> str:
    """Hex digest of a file's bytes (attempt-output validation)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
