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

Both functions are exact when every argument is an int or a
``fractions.Fraction`` and one of them is a Fraction, which is how the
recursion calls them.  f is homogeneous of degree 0 in (q, x, y) and w of
degree 1, so that path scales the three arguments by their common
denominator t to integers, checks and evaluates the formula on those, and
normalises once: ``Fraction(num, den)`` for f, ``Fraction(num, den * t)``
for w.  Any other arguments, floats above all, go through the formula as
written above, in that order of operations.
"""

from __future__ import annotations

import math
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


def _check_args(q, x, y, one=1) -> None:
    """Raise DomainError unless q, x and y are finite and q > max(x, y) >= one.

    ``one`` is 1 in the scale of the arguments: the exact path passes the
    integers t*q, t*x, t*y and one = t, and the message shows q, x, y.
    """
    if not (-math.inf < q < math.inf and -math.inf < x < math.inf and -math.inf < y < math.inf):
        raise DomainError(f"Blei exponents require finite q, x, y, got q={q}, x={x}, y={y}")
    if x >= one and y >= one and q > x and q > y:
        return
    if one != 1:
        q, x, y = Fraction(q, one), Fraction(x, one), Fraction(y, one)
    if x < 1 or y < 1:
        raise DomainError(f"Blei exponents require x, y >= 1, got ({x}, {y})")
    raise DomainError(f"Blei exponents require q > max(x, y), got q={q}, x={x}, y={y}")


def _scaled(q, x, y):
    """(t, t*q, t*x, t*y), t the common denominator of q, x, y, all ints.

    None unless every argument is an int or a Fraction and one is a Fraction:
    only then is the written formula exact and its result a Fraction.
    """
    rational = (int, Fraction)
    if not (isinstance(q, rational) and isinstance(x, rational) and isinstance(y, rational)):
        return None
    if not (isinstance(q, Fraction) or isinstance(x, Fraction) or isinstance(y, Fraction)):
        return None  # ints alone: the formula's true division gives a float
    t = math.lcm(q.denominator, x.denominator, y.denominator)
    return (
        t,
        q.numerator * (t // q.denominator),
        x.numerator * (t // x.denominator),
        y.numerator * (t // y.denominator),
    )


def blei_w(q, x, y):
    """Joint exponent w(x, y); symmetric in (x, y) and >= max(x, y).

    Exact on Fraction inputs, float otherwise.
    """
    scaled = _scaled(q, x, y)
    if scaled is None:
        _check_args(q, x, y)
        return (q * q * (x + y) - 2 * q * x * y) / (q * q - x * y)
    t, q, x, y = scaled
    _check_args(q, x, y, t)
    # w has degree 1: w(q, x, y) = w(tq, tx, ty) / t
    return Fraction(q * (q * (x + y) - 2 * x * y), (q * q - x * y) * t)


def blei_f(q, x, y):
    """Factor weight f(x, y) in (0, 1); f(x, y) + f(y, x) = 1."""
    scaled = _scaled(q, x, y)
    if scaled is None:
        _check_args(q, x, y)
        return (q * q * x - q * x * y) / (q * q * (x + y) - 2 * q * x * y)
    t, q, x, y = scaled
    _check_args(q, x, y, t)
    # f has degree 0, and q > 0 cancels from q^2 x - q x y over q^2 (x+y) - 2 q x y
    return Fraction(x * (q - y), q * (x + y) - 2 * x * y)
