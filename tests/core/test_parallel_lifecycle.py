"""The layer kernel allocates no shared memory and forks no process.

The sharded map phase that shipped layers to a worker pool through
``/dev/shm`` segments is gone; the R2 lint rule still guards the shape of
any code that would allocate one.  These tests check the behavior: a
numpy layer build — successful, or dying mid-layer — leaves no segment
behind and no child process running, and it succeeds even when every
segment allocation would fail.
"""

import multiprocessing
import multiprocessing.shared_memory
import os
from unittest import mock

import pytest

import repro.core.views as views_module
from repro.adversaries import lossy_link_full
from repro.core.views import ViewInterner, numpy_available
from repro.topology.prefixspace import PrefixSpace

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the numpy layer kernel requires numpy"
)

SHM_DIR = "/dev/shm"


def _segments():
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux
        pytest.skip("no /dev/shm to observe segment lifecycles in")
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


@pytest.fixture(autouse=True)
def numpy_even_tiny_layers(monkeypatch):
    """Drop the batching floors so test-sized layers take the numpy kernel."""
    monkeypatch.setattr(views_module, "_BATCH_MIN_CELLS", 0)
    monkeypatch.setattr(views_module, "_NUMPY_MIN_CELLS", 0)


def _build(depth=5):
    space = PrefixSpace(lossy_link_full(), layer_backend="numpy")
    space.ensure_depth(depth)
    return space


def test_worker_death_mid_map_leaks_no_segments(monkeypatch):
    before = _segments()
    real = views_module._unique_rows
    calls = []

    def dying_dedup(np, cand):
        calls.append(len(cand))
        if len(calls) == 3:
            raise RuntimeError("killed mid-layer")
        return real(np, cand)

    monkeypatch.setattr(views_module, "_unique_rows", dying_dedup)
    with pytest.raises(RuntimeError, match="killed mid-layer"):
        _build()
    assert len(calls) == 3
    assert _segments() == before
    assert multiprocessing.active_children() == []


def test_second_segment_allocation_failure_releases_first():
    # Every segment allocation fails; the kernel never asks for one, so
    # the build completes and matches an unrestricted one.
    before = _segments()
    expected = _build()

    def no_segments(*args, **kwargs):
        raise OSError("no space for a segment (injected)")

    with mock.patch.object(
        multiprocessing.shared_memory, "SharedMemory", no_segments
    ):
        space = _build()
    assert list(space.layer_store(5).levels.ids) == list(
        expected.layer_store(5).levels.ids
    )
    assert len(space.interner) == len(expected.interner)
    assert _segments() == before


def test_successful_map_leaves_no_segments():
    before = _segments()
    space = _build(6)
    assert len(space.layer_store(6).levels) > 0
    assert _segments() == before
    assert multiprocessing.active_children() == []


def test_availability_probe_leaves_no_segments():
    before = _segments()
    assert numpy_available()
    assert ViewInterner(2, layer_backend="numpy").layer_backend == "numpy"
    assert _segments() == before
