"""Suite-wide fixtures."""

import pytest
from kernels import without_numpy


@pytest.fixture(autouse=True)
def kernel_platform(request):
    """Run a test whose ``backend`` parameter is ``"python"`` without numpy.

    Autouse, so hypothesis's function-scoped-fixture health check leaves
    the ``@given`` suites parametrized over ``backend`` alone.
    """
    callspec = getattr(request.node, "callspec", None)
    if callspec is not None and callspec.params.get("backend") == "python":
        with without_numpy():
            yield
    else:
        yield
