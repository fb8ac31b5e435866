"""Shared scalar-field vocabulary and error types."""

from __future__ import annotations

import hashlib
import os
from enum import Enum

# The variables OpenBLAS reads for its thread count, in the order it reads them.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads() -> int | None:
    """The BLAS thread count the environment sets, read as OpenBLAS reads it: the
    first of _BLAS_THREAD_VARIABLES that holds a positive integer, a variable
    that is unset, empty or holds anything else counting as unset; None if none
    sets one, and OpenBLAS then takes one thread per usable CPU."""
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


class Field(Enum):
    """Scalar field of a form or constant."""

    REAL = "real"
    COMPLEX = "complex"


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeLimitError(ValueError):
    """An exact enumeration would exceed the configured size guard."""


def digest_bytes(data: bytes) -> str:
    """Short stable hex digest used to fingerprint check inputs in reports."""
    return hashlib.sha256(data).hexdigest()[:12]
