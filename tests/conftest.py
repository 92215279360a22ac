"""The OpenBLAS core that the pinned SHA-256s of the test suite are keyed by.

OpenBLAS picks its kernels by CPU when it loads, or by the environment variable
OPENBLAS_CORETYPE, and the kernels fix the rounding of the BLAS products that
the draws, the scans and the conversions go through.  So a pinned output digest
holds for one core, and each test that pins one keeps a set per core.

``python tests/conftest.py`` prints the core of this machine.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest


def openblas_core():
    """The name OpenBLAS gives the core whose kernels numpy's BLAS calls run, or None
    where numpy's OpenBLAS library or its core-name function is not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


@pytest.fixture(scope="session")
def blas_core():
    return openblas_core()


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
