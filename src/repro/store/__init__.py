"""Content-addressed persistent result store: hot checks become lookups.

The three pieces:

* :mod:`repro.store.keys` — canonical cache-key derivation: a SHA-256
  over (adversary spec, semantic checker options, record-schema version,
  kernel epoch), stable across processes and serialization round-trips;
* :mod:`repro.store.cache` — :class:`ResultStore`, the crash-safe
  on-disk cache (``objects/<k[:2]>/<k>.json`` + put journal) with
  hit/miss/stale counters, GC, and full integrity verification;
* :mod:`repro.store.backend` — :class:`CachedBackend`, which wraps any
  sweep backend so repeated equal-spec sweeps do zero checker work.

Every write goes through the :mod:`repro.io.atomic` funnel (lint R9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.store.backend import CachedBackend
    from repro.store.cache import ResultStore, normalize_record
    from repro.store.keys import (
        KERNEL_EPOCH,
        SEMANTIC_OPTION_FIELDS,
        cache_key,
        key_payload,
        semantic_options,
    )

__all__ = [
    "KERNEL_EPOCH",
    "SEMANTIC_OPTION_FIELDS",
    "CachedBackend",
    "ResultStore",
    "cache_key",
    "key_payload",
    "normalize_record",
    "semantic_options",
]

# Resolved on first use: a store reader never loads the sweep backends
# that CachedBackend wraps.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CachedBackend": "repro.store.backend",
        "ResultStore": "repro.store.cache",
        "normalize_record": "repro.store.cache",
        "KERNEL_EPOCH": "repro.store.keys",
        "SEMANTIC_OPTION_FIELDS": "repro.store.keys",
        "cache_key": "repro.store.keys",
        "key_payload": "repro.store.keys",
        "semantic_options": "repro.store.keys",
    },
)
