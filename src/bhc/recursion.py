"""Bohnenblust-Hille constants under every recursion strategy.

For an m-linear form on l_inf^N the coefficient l_{2m/(m+1)} norm is bounded
by C_{K,m} times the operator norm.  This module computes upper bounds for
C_{K,m} (K = R or C) four ways and keeps them comparable:

* ``baseline``       -- the three classical closed forms (original, Kaijser,
                        Queffelec / Defant-Sevilla-Peris).
* ``*_one_step``     -- level m from level m-1,
                        C_m = 2^((m-1)/2m) (C_{m-1} / A_{(2m-2)/m})^(1-1/m).
* ``real_two_step``  -- level m from level m-2,
                        C_m = 2^(1/2) (C_{m-2} / A_{(2m-4)/(m-1)}^2)^((m-2)/m).
* ``*_halving``      -- level m from m/2 (even) or from (m-1)/2 and (m+1)/2
                        combined with Blei weights f1, f2 (odd); the sharpest
                        strategy and the source of the reported tables.

Every value is a valid upper bound; ``best_constant`` takes the minimum.

While the consumed Khinchine constants stay on their dyadic branch, each
constant is exactly of the form 2^a * (2/sqrt(pi))^b * K_G^c with rational
exponents, carried alongside the float in a :class:`PowerProduct`.  This is
what makes identities such as C_{R,m} = 2^(1/2) C_{R,m/2} (even m <= 24)
testable exactly rather than to float tolerance.  Each record also carries a
derivation trace that can be replayed step by step.

Each strategy is a ladder of levels.  Level k is derived once from its child
levels (k-1, k-2, or the two halves) and holds its float value, its exact
closed form and one :class:`TraceStep` with the Blei split and Khinchine
constants it used.  A ladder lives for one call, and every record that call
returns reads its value, closed form and trace from the shared levels.  So
``constants_table`` and ``constants_columns`` derive each level of m = 2..M
once, O(M) steps in all, and the single-level functions derive only the
levels that m rests on.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import DomainError, Field
from .exponents import ExponentSplit, SplitKind, blei_f, blei_w, even_split, odd_split
from .special import Branch, HaagerupConstants, khinchine_a

__all__ = [
    "K_G_UPPER",
    "TWO_OVER_SQRT_PI",
    "BaselineKind",
    "Strategy",
    "PowerProduct",
    "KhinchineUse",
    "TraceStep",
    "ConstantRecord",
    "baseline",
    "real_one_step",
    "real_two_step",
    "real_halving",
    "complex_one_step",
    "complex_halving",
    "best_constant",
    "compute_constant",
    "constants_columns",
    "constants_table",
    "replay_trace",
]

# Upper bound for the complex Grothendieck constant, used verbatim as the
# bilinear base of the complex one-step strategy.
K_G_UPPER = 1.4049

# Base of the Queffelec / Defant-Sevilla-Peris estimate (2/sqrt(pi))^(m-1).
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


class BaselineKind(Enum):
    ORIGINAL = "original"
    KAIJSER = "kaijser"
    QUEFFELEC_DS = "queffelec-ds"


class Strategy(Enum):
    ONE_STEP = "one-step"
    TWO_STEP = "two-step"
    HALVING = "halving"
    BEST = "best"
    BASELINE_ORIGINAL = "baseline-original"
    BASELINE_KAIJSER = "baseline-kaijser"
    BASELINE_QUEFFELEC_DS = "baseline-queffelec-ds"


_BASELINE_STRATEGY = {
    BaselineKind.ORIGINAL: Strategy.BASELINE_ORIGINAL,
    BaselineKind.KAIJSER: Strategy.BASELINE_KAIJSER,
    BaselineKind.QUEFFELEC_DS: Strategy.BASELINE_QUEFFELEC_DS,
}


@dataclass(frozen=True)
class PowerProduct:
    """Exact value 2^two * (2/sqrt(pi))^tosp * K_G^kg with rational exponents."""

    two: Fraction = Fraction(0)
    tosp: Fraction = Fraction(0)
    kg: Fraction = Fraction(0)

    def value(self) -> float:
        return (
            2.0 ** float(self.two)
            * TWO_OVER_SQRT_PI ** float(self.tosp)
            * K_G_UPPER ** float(self.kg)
        )

    def is_dyadic(self) -> bool:
        return self.tosp == 0 and self.kg == 0

    def describe(self) -> str:
        parts = []
        if self.two:
            parts.append(f"2^({self.two})")
        if self.tosp:
            parts.append(f"(2/sqrt(pi))^({self.tosp})")
        if self.kg:
            parts.append(f"K_G^({self.kg})")
        return " * ".join(parts) if parts else "1"

    def scale(self, factor: Fraction) -> "PowerProduct":
        return PowerProduct(self.two * factor, self.tosp * factor, self.kg * factor)

    def shift_two(self, delta: Fraction) -> "PowerProduct":
        return PowerProduct(self.two + delta, self.tosp, self.kg)

    def combine(self, other: "PowerProduct") -> "PowerProduct":
        return PowerProduct(self.two + other.two, self.tosp + other.tosp, self.kg + other.kg)


@dataclass(frozen=True)
class KhinchineUse:
    """One lower Khinchine constant consumed by a recursion step."""

    p: float
    value: float
    power: Fraction
    branch: Branch


@dataclass(frozen=True)
class TraceStep:
    """One derivation step; ``children`` refer to earlier steps' levels."""

    rule: str  # "base" | "baseline" | "even-halving" | "odd-split" | "one-step" | "two-step"
    m: int
    children: tuple[int, ...]
    split: ExponentSplit | None
    khinchine: tuple[KhinchineUse, ...]
    value: float


@dataclass(frozen=True)
class ConstantRecord:
    """One computed constant C_{K,m} with its exact form when available."""

    m: int
    field: Field
    strategy: Strategy
    value: float
    dyadic_exponent: Fraction | None
    extra_factor: str | None
    closed_form: PowerProduct | None
    trace: tuple[TraceStep, ...]


def _require_level(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise DomainError(f"the level m must be an integer >= 2, got {m!r}")


def _a_use(p: Fraction, power: Fraction | int) -> tuple[HaagerupConstants, KhinchineUse]:
    a = khinchine_a(p)
    return a, KhinchineUse(a.p, a.a_p, Fraction(power), a.branch)


def _record(
    m: int,
    field: Field,
    strategy: Strategy,
    value: float,
    closed: PowerProduct | None,
    trace: tuple[TraceStep, ...],
    extra_factor: str | None = None,
) -> ConstantRecord:
    dyadic = None
    if closed is not None:
        if closed.is_dyadic():
            dyadic = closed.two
        elif extra_factor is None:
            extra_factor = closed.describe()
    return ConstantRecord(m, field, strategy, value, dyadic, extra_factor, closed, trace)


# --------------------------------------------------------------------------
# Ladders: each level derived once per call
# --------------------------------------------------------------------------

class _Ladder:
    """The levels of one (field, strategy), each derived once, on first use.

    Level k is one :class:`TraceStep` and its exact closed form.  A ladder
    lives for one call: every record the call returns reads its value,
    closed form and trace from these shared levels, so a table over
    m = 2..M derives each level once.  Subclasses give the bases, the child
    levels of a level and the step that derives it from them.
    """

    strategy: Strategy

    def __init__(self, field: Field, bases: dict[int, tuple[float, PowerProduct]]) -> None:
        self.field = field
        self.steps: dict[int, TraceStep] = {}
        self.closed: dict[int, PowerProduct | None] = {}
        for k, (value, closed) in bases.items():
            self.steps[k] = TraceStep("base", k, (), None, (), value)
            self.closed[k] = closed

    def children(self, k: int) -> tuple[int, ...]:
        return ()

    def derive(self, k: int) -> tuple[TraceStep, PowerProduct | None]:
        raise NotImplementedError

    def trace(self, m: int) -> tuple[TraceStep, ...]:
        raise NotImplementedError

    def value(self, m: int) -> float:
        """Value of level m, deriving first the levels it rests on."""
        _require_level(m)
        pending = [m]
        while pending:  # a loop, not recursion: a chain descends m levels
            k = pending[-1]
            if k in self.steps:
                pending.pop()
                continue
            missing = [c for c in self.children(k) if c not in self.steps]
            if missing:
                pending.extend(missing)
            else:
                pending.pop()
                self.steps[k], self.closed[k] = self.derive(k)
        return self.steps[m].value

    def record(self, m: int) -> ConstantRecord:
        value = self.value(m)
        return _record(m, self.field, self.strategy, value, self.closed[m], self.trace(m))


class _Chain(_Ladder):
    """A ladder whose level k rests on level k - stride alone."""

    stride: int

    def children(self, k: int) -> tuple[int, ...]:
        return (k - self.stride,)

    def trace(self, m: int) -> tuple[TraceStep, ...]:
        start = m - (m - 2) // self.stride * self.stride  # the chain's base level, 2 or 3
        return tuple(self.steps[k] for k in range(start, m + 1, self.stride))


# --------------------------------------------------------------------------
# Baselines
# --------------------------------------------------------------------------

class _Baseline(_Ladder):
    """A classical closed form; no level rests on another."""

    def __init__(self, field: Field, strategy: Strategy) -> None:
        super().__init__(field, {})
        self.strategy = strategy

    def derive(self, k: int) -> tuple[TraceStep, PowerProduct | None]:
        closed = None
        try:
            if self.strategy is Strategy.BASELINE_ORIGINAL:
                value = k ** ((k + 1) / (2 * k)) * 2.0 ** ((k - 1) / 2)
            elif self.strategy is Strategy.BASELINE_KAIJSER:
                closed = PowerProduct(two=Fraction(k - 1, 2))
                value = 2.0 ** ((k - 1) / 2)
            else:
                closed = PowerProduct(tosp=Fraction(k - 1))
                value = TWO_OVER_SQRT_PI ** (k - 1)
        except OverflowError:
            value = math.inf
        return TraceStep("baseline", k, (), None, (), value), closed

    def record(self, m: int) -> ConstantRecord:
        value = self.value(m)
        if math.isinf(value):
            raise DomainError(f"the {self.strategy.value} constant at m={m} exceeds the double range")
        extra = None
        if self.strategy is Strategy.BASELINE_ORIGINAL:
            extra = f"{m}^({m + 1}/{2 * m}) * 2^({m - 1}/2)"
        return _record(m, self.field, self.strategy, value, self.closed[m], (self.steps[m],), extra)


def baseline(m: int, kind: BaselineKind, field: Field = Field.COMPLEX) -> ConstantRecord:
    """Classical constants: original, Kaijser 2^((m-1)/2), (2/sqrt(pi))^(m-1).

    Raises :class:`DomainError` where the constant exceeds the double range
    (m >= 2039 for the original and m >= 2049 for Kaijser's).
    """
    return _Baseline(field, _BASELINE_STRATEGY[kind]).record(m)


# --------------------------------------------------------------------------
# One-step recursion (level m from level m-1)
# --------------------------------------------------------------------------

def _one_step_split(m: int) -> ExponentSplit:
    # Descent via the (1, m-1) partition: s1 = 1, s2 = (2m-2)/m.
    q = Fraction(2)
    s1 = Fraction(1)
    s2 = Fraction(2 * m - 2, m)
    return ExponentSplit(
        m, q, s1, s2, blei_w(q, s1, s2), blei_f(q, s1, s2), blei_f(q, s2, s1), SplitKind.ONE_STEP
    )


class _OneStep(_Chain):
    strategy = Strategy.ONE_STEP
    stride = 1

    def __init__(self, field: Field) -> None:
        if field is Field.REAL:
            base = (math.sqrt(2.0), PowerProduct(two=Fraction(1, 2)))
        else:
            base = (K_G_UPPER, PowerProduct(kg=Fraction(1)))
        super().__init__(field, {2: base})

    def derive(self, k: int) -> tuple[TraceStep, PowerProduct | None]:
        a, use = _a_use(Fraction(2 * k - 2, k), 1)
        value = 2.0 ** ((k - 1) / (2 * k)) * (self.steps[k - 1].value / a.a_p) ** (1.0 - 1.0 / k)
        closed = self.closed[k - 1]
        if closed is not None and a.branch is Branch.DYADIC_POWER:
            closed = closed.shift_two(-a.a_exponent).scale(Fraction(k - 1, k))
            closed = closed.shift_two(Fraction(k - 1, 2 * k))
        else:
            closed = None
        return TraceStep("one-step", k, (k - 1,), _one_step_split(k), (use,), value), closed


def real_one_step(m: int) -> ConstantRecord:
    """One-step real constants; equal to 2^((m^2+m-2)/4m) for 2 <= m <= 13."""
    return _OneStep(Field.REAL).record(m)


def complex_one_step(m: int) -> ConstantRecord:
    """One-step complex constants from the base K_G <= 1.4049.

    Equal to 2^((m^2+m-6)/4m) * K_G^(2/m) for 2 <= m <= 13.
    """
    return _OneStep(Field.COMPLEX).record(m)


# --------------------------------------------------------------------------
# Two-step recursion (level m from level m-2; real scalars only)
# --------------------------------------------------------------------------

def _two_step_split(m: int) -> ExponentSplit:
    # Descent via the (2, m-2) partition: s1 = 4/3, s2 = (2m-4)/(m-1).
    q = Fraction(2)
    s1 = Fraction(4, 3)
    s2 = Fraction(2 * m - 4, m - 1)
    return ExponentSplit(
        m, q, s1, s2, blei_w(q, s1, s2), blei_f(q, s1, s2), blei_f(q, s2, s1), SplitKind.TWO_STEP
    )


class _TwoStep(_Chain):
    strategy = Strategy.TWO_STEP
    stride = 2

    def __init__(self, field: Field) -> None:
        if field is not Field.REAL:
            raise DomainError("the two-step strategy is stated for real scalars only")
        super().__init__(
            field,
            {
                2: (math.sqrt(2.0), PowerProduct(two=Fraction(1, 2))),
                3: (2.0 ** (5.0 / 6.0), PowerProduct(two=Fraction(5, 6))),
            },
        )

    def derive(self, k: int) -> tuple[TraceStep, PowerProduct | None]:
        a, use = _a_use(Fraction(2 * k - 4, k - 1), 2)
        value = math.sqrt(2.0) * (self.steps[k - 2].value / a.a_p**2) ** ((k - 2) / k)
        closed = self.closed[k - 2]
        if closed is not None and a.branch is Branch.DYADIC_POWER:
            closed = closed.shift_two(-2 * a.a_exponent).scale(Fraction(k - 2, k))
            closed = closed.shift_two(Fraction(1, 2))
        else:
            closed = None
        return TraceStep("two-step", k, (k - 2,), _two_step_split(k), (use,), value), closed


def real_two_step(m: int) -> ConstantRecord:
    """Two-step real constants over the bases C_2 = 2^(1/2), C_3 = 2^(5/6).

    Equal to 2^((m^2+6m-8)/8m) for even and 2^((m^2+6m-7)/8m) for odd m up
    to 14, after which the Gamma branch of A enters.
    """
    return _TwoStep(Field.REAL).record(m)


# --------------------------------------------------------------------------
# Halving recursion (the sharpest strategy)
# --------------------------------------------------------------------------

class _Halving(_Ladder):
    strategy = Strategy.HALVING

    def __init__(self, field: Field) -> None:
        if field is Field.REAL:
            exponents = {2: Fraction(1, 2), 3: Fraction(5, 6)}
            bases = {k: (2.0 ** float(e), PowerProduct(two=e)) for k, e in exponents.items()}
        else:
            bases = {
                k: (TWO_OVER_SQRT_PI ** (k - 1), PowerProduct(tosp=Fraction(k - 1)))
                for k in range(2, 7)
            }
        super().__init__(field, bases)

    def children(self, k: int) -> tuple[int, ...]:
        return (k // 2,) if k % 2 == 0 else ((k - 1) // 2, (k + 1) // 2)

    def trace(self, m: int) -> tuple[TraceStep, ...]:
        """Post-order walk from level m, low child before high, each level once."""
        out: list[TraceStep] = []
        seen: set[int] = set()
        pending = [(m, False)]
        while pending:
            k, expanded = pending.pop()
            if expanded:
                out.append(self.steps[k])
            elif k not in seen:
                seen.add(k)
                pending.append((k, True))
                pending.extend((c, False) for c in reversed(self.steps[k].children))
        return tuple(out)

    def derive(self, k: int) -> tuple[TraceStep, PowerProduct | None]:
        if k % 2 == 0:
            child = k // 2
            split = even_split(k)
            a, use = _a_use(split.s1, Fraction(k, 2))
            value = self.steps[child].value / a.a_p ** (k / 2)
            closed = None
            if self.closed[child] is not None and a.branch is Branch.DYADIC_POWER:
                closed = self.closed[child].shift_two(-Fraction(k, 2) * a.a_exponent)
            return TraceStep("even-halving", k, (child,), split, (use,), value), closed
        lo_k, hi_k = (k - 1) // 2, (k + 1) // 2
        lo, hi = self.steps[lo_k].value, self.steps[hi_k].value
        lo_closed, hi_closed = self.closed[lo_k], self.closed[hi_k]
        split = odd_split(k)
        a1, use1 = _a_use(split.s1, Fraction(k + 1, 2))
        a2, use2 = _a_use(split.s2, Fraction(k - 1, 2))
        value = (lo / a1.a_p ** ((k + 1) / 2)) ** float(split.f1) * (
            hi / a2.a_p ** ((k - 1) / 2)
        ) ** float(split.f2)
        closed = None
        if (
            lo_closed is not None
            and hi_closed is not None
            and a1.branch is Branch.DYADIC_POWER
            and a2.branch is Branch.DYADIC_POWER
        ):
            closed = lo_closed.shift_two(-Fraction(k + 1, 2) * a1.a_exponent).scale(split.f1)
            closed = closed.combine(
                hi_closed.shift_two(-Fraction(k - 1, 2) * a2.a_exponent).scale(split.f2)
            )
        return TraceStep("odd-split", k, (lo_k, hi_k), split, (use1, use2), value), closed


def real_halving(m: int) -> ConstantRecord:
    """Halving real constants; satisfies C_m = 2^(1/2) C_{m/2} for even m <= 24."""
    return _Halving(Field.REAL).record(m)


def complex_halving(m: int) -> ConstantRecord:
    """Halving complex constants over the bases (2/sqrt(pi))^(m-1), m in {2..6}."""
    return _Halving(Field.COMPLEX).record(m)


# --------------------------------------------------------------------------
# Best-of and tables
# --------------------------------------------------------------------------

_LADDERS = {
    Strategy.ONE_STEP: _OneStep,
    Strategy.TWO_STEP: _TwoStep,
    Strategy.HALVING: _Halving,
}

# Fixed order; ties keep the earliest candidate, so equal-valued baselines
# win over the strategies that merely reproduce them.
_CANDIDATES = {
    Field.REAL: (
        Strategy.BASELINE_ORIGINAL,
        Strategy.BASELINE_KAIJSER,
        Strategy.HALVING,
        Strategy.TWO_STEP,
        Strategy.ONE_STEP,
    ),
    Field.COMPLEX: (
        Strategy.BASELINE_ORIGINAL,
        Strategy.BASELINE_KAIJSER,
        Strategy.BASELINE_QUEFFELEC_DS,
        Strategy.HALVING,
        Strategy.ONE_STEP,
    ),
}


def _best(candidates: list[_Ladder], m: int) -> ConstantRecord:
    # min keeps the first of equal values, as the tie rule asks; a baseline
    # beyond the double range reads inf and never wins, since halving stays
    # finite.
    return min(candidates, key=lambda ladder: ladder.value(m)).record(m)


def _readers(
    field: Field, strategies: tuple[Strategy, ...]
) -> list[Callable[[int], ConstantRecord]]:
    """A level -> record function per strategy, all sharing one ladder per strategy."""
    ladders: dict[Strategy, _Ladder] = {}

    def ladder(strategy: Strategy) -> _Ladder:
        if strategy not in ladders:
            if strategy in _LADDERS:
                ladders[strategy] = _LADDERS[strategy](field)
            elif strategy in _BASELINE_STRATEGY.values():
                ladders[strategy] = _Baseline(field, strategy)
            else:
                raise DomainError(f"unknown strategy {strategy!r}")
        return ladders[strategy]

    readers = []
    for strategy in strategies:
        if strategy is Strategy.BEST:
            readers.append(functools.partial(_best, [ladder(s) for s in _CANDIDATES[field]]))
        else:
            readers.append(ladder(strategy).record)
    return readers


def best_constant(m: int, field: Field) -> ConstantRecord:
    """Smallest constant over all applicable strategies and baselines.

    Each candidate is a valid upper bound, so the minimum is one as well.
    The winning record is returned unchanged, trace included; the best-of
    selection is a feature of this tool, not a sharper theorem.
    """
    return compute_constant(m, field, Strategy.BEST)


def compute_constant(m: int, field: Field, strategy: Strategy) -> ConstantRecord:
    """One (m, field, strategy) constant, from the levels that m rests on."""
    (read,) = _readers(field, (strategy,))
    return read(m)


def constants_columns(
    field: Field, strategies: tuple[Strategy, ...], m_max: int
) -> tuple[tuple[ConstantRecord, ...], ...]:
    """One column of records for m = 2..m_max per strategy, in order.

    The columns share one ladder per strategy, ``BEST`` included, so every
    level is derived once and the whole call costs O(m_max) steps.
    """
    if not isinstance(m_max, int) or m_max < 2:
        raise DomainError(f"m_max must be an integer >= 2, got {m_max!r}")
    readers = _readers(field, strategies)
    return tuple(tuple(read(m) for m in range(2, m_max + 1)) for read in readers)


def constants_table(
    field: Field, strategy: Strategy, m_max: int, precision: int = 6
) -> tuple[ConstantRecord, ...]:
    """Records for m = 2..m_max; deterministic and identical across runs.

    Each level of the strategy is derived once, so the table costs O(m_max)
    steps.  ``precision`` is the rendering hint echoed to the report layer;
    the records themselves always carry full-precision floats.
    """
    if not 1 <= precision <= 12:
        raise DomainError(f"precision must lie in [1, 12], got {precision}")
    return constants_columns(field, (strategy,), m_max)[0]


# --------------------------------------------------------------------------
# Trace replay
# --------------------------------------------------------------------------

def replay_trace(trace: tuple[TraceStep, ...]) -> float:
    """Recompute the final value of a derivation trace from its steps.

    Base and baseline values are taken as recorded (they are the axioms of
    the derivation); every other step is recomputed from previously replayed
    levels, so drift in the recursion arithmetic cannot hide.
    """
    values: dict[int, float] = {}
    result = math.nan
    for step in trace:
        if step.rule in ("base", "baseline"):
            result = step.value
        elif step.rule == "even-halving":
            use = step.khinchine[0]
            result = values[step.children[0]] / use.value ** float(use.power)
        elif step.rule == "odd-split":
            use1, use2 = step.khinchine
            lo = values[step.children[0]]
            hi = values[step.children[1]]
            result = (lo / use1.value ** float(use1.power)) ** float(step.split.f1) * (
                hi / use2.value ** float(use2.power)
            ) ** float(step.split.f2)
        elif step.rule == "one-step":
            k = step.m
            result = 2.0 ** ((k - 1) / (2 * k)) * (
                values[step.children[0]] / step.khinchine[0].value
            ) ** (1.0 - 1.0 / k)
        elif step.rule == "two-step":
            k = step.m
            result = math.sqrt(2.0) * (
                values[step.children[0]] / step.khinchine[0].value ** 2
            ) ** ((k - 2) / k)
        else:
            raise ValueError(f"unknown trace rule {step.rule!r}")
        values[step.m] = result
    return result
