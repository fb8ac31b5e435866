"""Shared scalar-field vocabulary and error types."""

from __future__ import annotations

import hashlib
from enum import Enum


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
