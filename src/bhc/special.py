"""Gamma function and Haagerup's optimal Khinchine constants.

The Khinchine inequality

    A_p * ||a||_2  <=  ( E |sum_n a_n r_n|^p )^(1/p)  <=  B_p * ||a||_2

compares the p-th moment of a Rademacher sum with the l2 norm of its
coefficients.  Haagerup determined the optimal constants: below a crossover
exponent p0 ~ 1.8474 the lower constant is the dyadic power 2^(1/2 - 1/p),
above it (and up to 2) it switches to the Gamma-quotient closed form

    sqrt(2) * ( Gamma((p+1)/2) / sqrt(pi) )^(1/p).

Both closed forms are evaluated here and the minimum is taken, so a single
total function covers the whole range (0, 2]; the branch actually attained is
recorded, and the dyadic branch carries an exact rational base-2 exponent
whenever the input exponent is rational.  The recursion strategies consume
A_p at the exponents of their Blei splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .core import DomainError

__all__ = [
    "Branch",
    "HaagerupConstants",
    "log_gamma",
    "a_dyadic",
    "a_gamma",
    "khinchine_a",
    "khinchine_b",
    "crossover_p0",
]

LN_SQRT_PI = 0.5 * math.log(math.pi)
LN_SQRT_2 = 0.5 * math.log(2.0)

# Lanczos approximation, g=7, 9 terms (Godfrey's coefficient set, as used by
# Boost and the GNU Scientific Library).  Relative error of exp(log_gamma) is
# a few ulps across [0.5, 200], well inside the 1e-12 contract.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class Branch(Enum):
    """Closed form that produced a lower Khinchine constant."""

    DYADIC_POWER = "dyadic-power"
    GAMMA_FORMULA = "gamma-formula"
    UNIT = "unit"


@dataclass(frozen=True)
class HaagerupConstants:
    """The lower Khinchine constant A_p, as :func:`khinchine_a` returns it.

    ``branch`` records the closed form that produced ``a_p``.  When the
    dyadic branch wins and ``p`` was given as a rational, ``a_exponent``
    holds the exact base-2 exponent 1/2 - 1/p.
    """

    p: float
    a_p: float
    branch: Branch
    a_exponent: Fraction | None = None


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Lanczos series for x >= 0.5, reflection formula below.  Relative error
    is <= 1e-12 on [0.5, 200] (empirically a few 1e-16).
    """
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    series = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(series)


def a_dyadic(p: float) -> float:
    """Dyadic closed form 2^(1/2 - 1/p) for the lower Khinchine constant."""
    return 2.0 ** (0.5 - 1.0 / _khinchine_exponent(p))


def a_gamma(p: float) -> float:
    """Gamma closed form sqrt(2) * (Gamma((p+1)/2)/sqrt(pi))^(1/p)."""
    p = _khinchine_exponent(p)
    return math.exp(LN_SQRT_2 + (log_gamma((p + 1.0) / 2.0) - LN_SQRT_PI) / p)


def _khinchine_exponent(p: float | Fraction | int, what: str = "Khinchine exponent") -> float:
    """``p`` as a float; ``what`` names it in the error when it is not positive and finite."""
    pf = float(p)
    if not 0.0 < pf < math.inf:  # NaN fails both comparisons
        raise DomainError(f"{what} must be positive and finite, got {p}")
    return pf


def khinchine_a(p: float | Fraction | int) -> HaagerupConstants:
    """Optimal lower Khinchine constant A_p.

    Returns min(dyadic, gamma) of the two closed forms for p < 2 and the
    constant 1 for p >= 2.  The dyadic branch wins exactly for p <= p0 (see
    :func:`crossover_p0`); ties go to the dyadic branch so its exact
    exponent survives.
    """
    pf = _khinchine_exponent(p)
    if pf >= 2.0:
        return HaagerupConstants(pf, 1.0, Branch.UNIT)
    dyadic = a_dyadic(pf)
    gamma = a_gamma(pf)
    if dyadic <= gamma:
        exponent = Fraction(1, 2) - 1 / Fraction(p) if isinstance(p, Rational) else None
        return HaagerupConstants(pf, dyadic, Branch.DYADIC_POWER, exponent)
    return HaagerupConstants(pf, gamma, Branch.GAMMA_FORMULA)


def khinchine_b(p: float | Fraction | int) -> float:
    """Optimal upper Khinchine constant B_p: 1 for p <= 2, Gamma form above."""
    pf = _khinchine_exponent(p)
    return 1.0 if pf <= 2.0 else a_gamma(pf)


def crossover_p0() -> float:
    """Exponent p0 where the two closed forms for A_p intersect on (1.5, 2).

    Bisection to a bracket of width 1e-12 on the equivalent condition
    Gamma((p+1)/2) = sqrt(pi)/2; the Gamma branch exceeds the dyadic one
    below the root and drops under it above (the second intersection sits
    exactly at p = 2).
    """
    target = LN_SQRT_PI - math.log(2.0)

    def h(p: float) -> float:
        return log_gamma((p + 1.0) / 2.0) - target

    lo, hi = 1.5, 1.95
    if not (h(lo) > 0.0 > h(hi)):  # bracket sanity; cannot fail for this fixed h
        raise RuntimeError("crossover bracket lost")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
