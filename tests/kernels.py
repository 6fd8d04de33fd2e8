"""The kernel platforms a test can run on.

Every columnar stage — the layer kernel, the prefix space's columns, the
component analysis and the decision folds — takes its numpy path exactly
when :func:`repro.core.views.numpy_module` returns numpy.  A test gets the
pure-Python pipeline on a host with numpy by emulating the platform
without it: :func:`without_numpy` patches ``repro.core.views._np``, the
import gate that function returns, to ``None``.  That holds whether or
not the gate has resolved yet, and the block's exit restores the gate as
it was, so an unresolved gate still imports numpy at its next call.
``conftest.py`` applies it to every test whose ``backend`` parameter is
``"python"``.
"""

from contextlib import contextmanager

import pytest

import repro.core.views as views

#: The kernels this platform runs: pure Python always, numpy when it
#: imports (``REPRO_PURE_PYTHON=1`` vetoes it).
BACKENDS = ["python"] + (["numpy"] if views.numpy_available() else [])


@contextmanager
def without_numpy():
    """Run the block as on a platform where numpy does not import."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(views, "_np", None)
        yield
