"""Fixtures shared by the sweep-backend suites (test_backends, test_batch).

The C kernel ships as one source compiled two ways: with ``-fopenmp``
(the default wherever the toolchain supports it) and serial (toolchains
without OpenMP, or ``REPRO_NO_OPENMP=1``). Both libraries must match the
python reference bit for bit, so the equivalence suites run every C
case against each build: ``"c"`` is the build the process loaded, and
``"c-serial"`` swaps in the serial library for the duration of a test.
"""

from __future__ import annotations

import pytest

from repro.core import _ckernel


@pytest.fixture(scope="session")
def serial_c_build() -> tuple:
    """The C kernel compiled without OpenMP, loaded beside the default
    build (a distinct artifact: the cache key covers the flags)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(_ckernel.NO_OPENMP_ENV_VAR, "1")
        build = _ckernel._compile()
    assert build[0] is not None, build[1]
    assert not build[3], "serial build reports OpenMP"
    return build


@pytest.fixture
def backend(request, monkeypatch) -> str:
    """Backend name for a test parametrized ``indirect`` over
    ``["python", "c", "c-serial"]``; ``"c-serial"`` runs as ``"c"``
    with the serial library installed."""
    name = request.param
    if name == "c-serial":
        monkeypatch.setattr(_ckernel, "_BUILD", request.getfixturevalue("serial_c_build"))
        return "c"
    return name
