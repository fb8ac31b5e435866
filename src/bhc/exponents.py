"""Blei mixed-norm exponents and the split parameters of the induction steps.

Blei's inequality for a positive matrix ties an l_w norm of all entries to
row/column mixed norms through

    w(x, y) = (q^2 (x+y) - 2 q x y) / (q^2 - x y)
    f(x, y) = (q^2 x - q x y) / (q^2 (x+y) - 2 q x y)

with q > max(x, y) >= 1.  Every induction step of the constants engine
splits level m into two parts m = m1 + m2, fixes q = 2 and takes each
part's own Bohnenblust-Hille exponent s_i = 2m_i/(m_i+1); then
w(s1, s2) = 2m/(m+1) and f_i = m_i/m.  The recursion builds these splits
from its rule table; :class:`ExponentSplit` is plain data so it can be
logged into derivation traces.

Both functions are exact on ``fractions.Fraction`` inputs, which is how the
recursion calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError

__all__ = ["ExponentSplit", "blei_w", "blei_f"]


@dataclass(frozen=True)
class ExponentSplit:
    """Blei parameters (q, s1, s2) for one induction step at level m.

    ``w`` is the joint exponent, ``f1 = f(s1, s2)`` and ``f2 = f(s2, s1)``
    the two factor weights; f1 + f2 = 1 identically.
    """

    m: int
    q: Fraction
    s1: Fraction
    s2: Fraction
    w: Fraction
    f1: Fraction
    f2: Fraction


def _check_args(q, x, y) -> None:
    if x < 1 or y < 1:
        raise DomainError(f"Blei exponents require x, y >= 1, got ({x}, {y})")
    if q <= x or q <= y:
        raise DomainError(f"Blei exponents require q > max(x, y), got q={q}, x={x}, y={y}")


def blei_w(q, x, y):
    """Joint exponent w(x, y); symmetric in (x, y) and >= max(x, y).

    Exact on Fraction inputs, float otherwise.
    """
    _check_args(q, x, y)
    return (q * q * (x + y) - 2 * q * x * y) / (q * q - x * y)


def blei_f(q, x, y):
    """Factor weight f(x, y) in (0, 1); f(x, y) + f(y, x) = 1."""
    _check_args(q, x, y)
    return (q * q * x - q * x * y) / (q * q * (x + y) - 2 * q * x * y)
