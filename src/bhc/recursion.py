"""Bohnenblust-Hille constants under every recursion strategy.

For an m-linear form on l_inf^N the coefficient l_{2m/(m+1)} norm is bounded
by C_{K,m} times the operator norm.  This module computes upper bounds for
C_{K,m} (K = R or C): the three classical closed forms (original, Kaijser,
Queffelec / Defant-Sevilla-Peris) and three recursions, one-step (level m
from m-1), two-step (from m-2, real scalars only) and halving (from m/2, or
from (m-1)/2 and (m+1)/2), the sharpest strategy and the source of the
reported tables.  Every value is a valid upper bound; ``Strategy.BEST``
takes the minimum of the only ones ever smallest: Kaijser's and Queffelec's
baselines, which win the ties at halving's bases, and halving, the smallest
from m = 3 (real) or 7 (complex) and the only one finite past m = 8185.
``compute_constant`` gives one level and ``constants_columns`` the levels
2..M of several strategies.

Every recursion takes the same Blei/Khinchine step

    C_m <= 2^a * prod_i (C_{m_i} / A_{p_i}^{k_i})^{f_i}

with other parameters.  As in the Defant-Popa-Schwarting proof, each step
splits level m into two parts m = m1 + m2 and applies Blei's inequality at
each part's own exponent s_i = 2m_i/(m_i+1).  ``_RULES`` holds one entry
per rule (``one-step``, ``two-step``, ``even-halving``, ``odd-split``): its
partition of m, whether the first part is folded into the shift a, and the
shift.  Everything else follows from the partition: the children m_i are
the other parts, each consumes A_{s_i}^(m - m_i), an integer power, and its
weight is f_i = m_i/m (at q = 2 the Blei split is in closed form, so no
Blei formula is evaluated).  One float update and one exact update, a
single expression per exponent, read an entry, with the weights taken from
m and the children, not from the split; the ladders derive their levels
through both, and ``replay_trace`` recomputes a trace through the float
one.  No level's value or closed form reads its split: ``TraceStep.split``
is built from the rule and m when first read, which only ``explain`` does.

While the consumed Khinchine constants stay on their dyadic branch, each
constant is exactly of the form 2^a * (2/sqrt(pi))^b * K_G^c with rational
exponents, carried alongside the float in a :class:`PowerProduct` and built
from the exact base-2 exponent each :class:`KhinchineUse` carries.  This is
what makes identities such as C_{R,m} = 2^(1/2) C_{R,m/2} (even m <= 24)
testable exactly rather than to float tolerance.

``_STRATEGIES`` is the companion of ``_RULES``: for each strategy, the
fields it is stated for with their base levels, and the rules that derive
every other level (none for a baseline, whose levels are closed forms).  A
new strategy needs its ``Strategy`` member and its entry there, no more.
One ``_Ladder`` reads it and derives each level of a (field, strategy) once
per call, with its float value, closed form and one :class:`TraceStep`.
Every record reads these shared levels.  One post-order walk over the level
graph serves both; it takes each level's children once and yields them with
the level.  The ladder derives the levels it yields from those children,
passing over those already derived, and a record's trace, built when first
read, is the steps it yields.  So ``constants_columns`` holds and costs O(M)
steps for m = 2..M, and ``compute_constant`` derives only the levels that m
rests on.  The ladders of one call share one table of the Khinchine
constants A_{2c/(c+1)} by part size c, so each is computed once per call;
like the ladders, the table is dropped when the call returns.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType

from .core import DomainError, Field
from .exponents import ExponentSplit, blei_f  # blei_f unused; perfbench/tests pins this binding
from .special import Branch, HaagerupConstants, khinchine_a

__all__ = [
    "K_G_UPPER",
    "TWO_OVER_SQRT_PI",
    "Strategy",
    "PowerProduct",
    "KhinchineUse",
    "TraceStep",
    "ConstantRecord",
    "compute_constant",
    "is_stated_for",
    "constants_columns",
    "replay_trace",
]

# Upper bound for the complex Grothendieck constant, used verbatim as the
# bilinear base of the complex one-step strategy.
K_G_UPPER = 1.4049

# Base of the Queffelec / Defant-Sevilla-Peris estimate (2/sqrt(pi))^(m-1).
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


class Strategy(Enum):
    ONE_STEP = "one-step"
    TWO_STEP = "two-step"
    HALVING = "halving"
    # The smallest of ``_CANDIDATES``, the only strategies that can be the
    # smallest, stated for the field.  Each is a valid upper bound, so their
    # minimum is one too; the winning record is returned unchanged, trace
    # included: the best-of choice is a tool feature, not a sharper theorem.
    BEST = "best"
    BASELINE_ORIGINAL = "baseline-original"
    BASELINE_KAIJSER = "baseline-kaijser"
    BASELINE_QUEFFELEC_DS = "baseline-queffelec-ds"


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


@dataclass(frozen=True)
class KhinchineUse:
    """One lower Khinchine constant consumed by a recursion step."""

    p: float
    value: float
    power: int  # k - c: A_p is raised to it in the step of level k from child c
    branch: Branch
    exponent: Fraction | None  # A_p's exact base-2 exponent on the dyadic branch


@dataclass(frozen=True)
class TraceStep:
    """One derivation step; ``children`` refer to earlier steps' levels."""

    rule: str  # "base" | "baseline" | a key of ``_RULES``
    m: int
    children: tuple[int, ...]
    khinchine: tuple[KhinchineUse, ...]
    value: float

    @functools.cached_property
    def split(self) -> ExponentSplit | None:
        """The Blei split of a rule step, built when first read; None for a base or baseline."""
        rule = _RULES.get(self.rule)
        return None if rule is None else _split(self.m, rule.parts(self.m))


@dataclass(frozen=True)
class ConstantRecord:
    """One computed constant C_{K,m} with its exact form when available."""

    m: int
    field: Field
    strategy: Strategy
    value: float
    closed_form: PowerProduct | None
    _steps: Mapping[int, TraceStep] = dataclass_field(compare=False, repr=False)

    @functools.cached_property
    def trace(self) -> tuple[TraceStep, ...]:
        """The steps of level m and of the levels it rests on, children first."""
        steps = self._steps
        return tuple(steps[k] for k, _ in _post_order(self.m, lambda k: steps[k].children))

    @property
    def dyadic_exponent(self) -> Fraction | None:
        """The rational a when the constant is exactly 2^a."""
        if self.closed_form is not None and self.closed_form.is_dyadic():
            return self.closed_form.two
        return None

    @property
    def exact_label(self) -> str:
        """The exact form as printed, or "" when the constant has none."""
        if self.strategy is Strategy.BASELINE_ORIGINAL:  # no PowerProduct holds m^(...)
            m = self.m
            return f"{m}^({m + 1}/{2 * m}) * 2^({m - 1}/2)"
        return self.closed_form.describe() if self.closed_form is not None else ""


def _require_level(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise DomainError(f"the level m must be an integer >= 2, got {m!r}")


def _post_order(
    m: int, children: Callable[[int], Sequence[int]], done=()
) -> Iterator[tuple[int, Sequence[int]]]:
    """m and the levels it rests on, each once with its children, after them (low child first).

    ``children`` is called once per level, when the walk expands it.  Passes
    over levels in ``done``; a loop, since a chain descends m levels.
    """
    seen, pending = set(), [(m, None)]
    while pending:
        k, kids = pending.pop()
        if kids is not None:
            yield k, kids
        elif k not in seen and k not in done:
            seen.add(k)
            kids = children(k)
            pending.append((k, kids))
            pending.extend((c, None) for c in reversed(kids))


# --------------------------------------------------------------------------
# The rule table: one Blei/Khinchine step, four parameter sets
# --------------------------------------------------------------------------

_Q = Fraction(2)  # every split's Blei q


def _split(k: int, parts: tuple[int, int]) -> ExponentSplit:
    """Blei's split of level k = m1 + m2 at the parts' own exponents 2m_i/(m_i+1).

    At q = 2 Blei's w and f_i are 2k/(k+1) and m_i/k; they are built as such.
    """
    m1, m2 = parts
    if m1 < 1 or m2 < 1:
        raise DomainError(f"a split of level {k} needs parts >= 1, got ({m1}, {m2})")
    return ExponentSplit(
        k, _Q, Fraction(2 * m1, m1 + 1), Fraction(2 * m2, m2 + 1),
        Fraction(2 * k, k + 1), Fraction(m1, k), Fraction(m2, k),
    )


@dataclass(frozen=True)
class _Rule:
    """C_k <= 2^shift(k) * prod_i (C_{c_i} / A_{s_i}^(k - c_i))^{f_i}.

    ``parts`` splits level k into (m1, m2); the Blei split, taken at the
    parts' exponents s_i = 2m_i/(m_i+1), is the closed form w = 2k/(k+1),
    f_i = m_i/k.  With ``folded`` the first part is no child: its factor
    is folded into ``shift``.  The children c_i are the other parts, equal
    parts merged, each with its part's s_i and weight f_i (merged weights
    add up).  The weights come from k and the children alone, not from the
    split, which only ``explain`` reads: f_i = n_i/k with n_i the child's
    parts summed.  The exact update takes them as ``Fraction``s; the float
    update takes ``float_weights`` where set and n_i / k otherwise, the
    correctly rounded quotient, so float(f_i) bit for bit.
    """

    parts: Callable[[int], tuple[int, int]]
    folded: bool = False
    shift: Callable[[int], Fraction | int] = lambda k: 0
    float_weights: Callable[[int], tuple[float, ...]] | None = None

    def children(self, k: int) -> tuple[int, ...]:
        parts = self.parts(k)
        return tuple(dict.fromkeys(parts[1:] if self.folded else parts))

    def numerators(self, children: Sequence[int]) -> tuple[int, ...]:
        """The n_i of the children's weights f_i = n_i/k: c_i, or 2c_i = k for merged equal parts."""
        if self.folded or len(children) == 2:
            return tuple(children)
        return tuple(2 * c for c in children)

    def weights(self, k: int, children: Sequence[int]) -> tuple[Fraction, ...]:
        """The exact f_i = c_i/k of the children, or 1 for merged equal parts."""
        return tuple(Fraction(n, k) for n in self.numerators(children))


_RULES = {
    # C_m = 2^((m-1)/2m) (C_{m-1} / A_{(2m-2)/m})^((m-1)/m)
    "one-step": _Rule(
        parts=lambda k: (1, k - 1),
        folded=True,
        shift=lambda k: Fraction(k - 1, 2 * k),
        # the published tables round f2 = (k-1)/k this way; float(f2)
        # differs in the last bit at k = 3, 7, 19, ...
        float_weights=lambda k: (1.0 - 1.0 / k,),
    ),
    # C_m = 2^(1/2) (C_{m-2} / A_{(2m-4)/(m-1)}^2)^((m-2)/m)
    "two-step": _Rule(parts=lambda k: (2, k - 2), folded=True, shift=lambda k: Fraction(1, 2)),
    # C_m = C_{m/2} / A_{2m/(m+2)}^(m/2)
    "even-halving": _Rule(parts=lambda k: (k // 2, k // 2)),
    # C_m = (C_{(m-1)/2} / A_{s1}^((m+1)/2))^f1 (C_{(m+1)/2} / A_{s2}^((m-1)/2))^f2
    "odd-split": _Rule(parts=lambda k: ((k - 1) // 2, (k + 1) // 2)),
}


def _float_update(
    rule: _Rule,
    k: int,
    children: Sequence[int],
    values: Sequence[float],
    uses: Sequence[KhinchineUse],
) -> float:
    """The float value of level k from its children's levels and values and its constants."""
    if rule.float_weights:
        weights = rule.float_weights(k)
    else:
        weights = [n / k for n in rule.numerators(children)]
    return 2.0 ** float(rule.shift(k)) * math.prod(
        (value / use.value ** float(use.power)) ** w
        for value, use, w in zip(values, uses, weights)
    )


def _exact_update(
    rule: _Rule,
    k: int,
    children: Sequence[int],
    closed: Sequence[PowerProduct | None],
    uses: Sequence[KhinchineUse],
) -> PowerProduct | None:
    """The closed form of level k, if every child has one and every constant is dyadic."""
    if None in closed or any(use.exponent is None for use in uses):
        return None
    weights = rule.weights(k, children)
    return PowerProduct(
        rule.shift(k)
        + sum(w * (form.two - use.power * use.exponent) for form, use, w in zip(closed, uses, weights)),
        sum(w * form.tosp for form, w in zip(closed, weights)),
        sum(w * form.kg for form, w in zip(closed, weights)),
    )


# --------------------------------------------------------------------------
# The strategy table, and the ladder that reads it: each level derived once
# --------------------------------------------------------------------------

def _classical(strategy: Strategy, k: int) -> tuple[float, PowerProduct | None]:
    """A baseline's closed form at level k; inf beyond the double range."""
    try:
        if strategy is Strategy.BASELINE_ORIGINAL:  # no PowerProduct holds m^(...)
            return k ** ((k + 1) / (2 * k)) * 2.0 ** ((k - 1) / 2), None
        if strategy is Strategy.BASELINE_KAIJSER:
            return 2.0 ** ((k - 1) / 2), PowerProduct(two=Fraction(k - 1, 2))
        return TWO_OVER_SQRT_PI ** (k - 1), PowerProduct(tosp=Fraction(k - 1))
    except OverflowError:
        return math.inf, None


@dataclass(frozen=True)
class _Plan:
    """How one strategy derives its levels.

    ``bases``: the base levels of each field the strategy is stated for.
    ``rules``: the keys in ``_RULES`` that derive every other (even, odd)
    level, or None for a baseline, whose every level is its closed form.
    """

    bases: dict[Field, dict[int, tuple[float, PowerProduct]]]
    rules: tuple[str, str] | None = None


# The real bases C_2 = 2^(1/2) and C_3 = 2^(5/6)
_REAL_BASES = {
    k: (2.0 ** float(e), PowerProduct(two=e)) for k, e in ((2, Fraction(1, 2)), (3, Fraction(5, 6)))
}

_STRATEGIES = {
    Strategy.BASELINE_ORIGINAL: _Plan(dict.fromkeys(Field, {})),
    Strategy.BASELINE_KAIJSER: _Plan(dict.fromkeys(Field, {})),
    # (2/sqrt(pi))^(m-1) rests on the complex Khinchine constants; for real
    # scalars it falls below the lower bound 2^(1-1/m) at m = 2..5
    Strategy.BASELINE_QUEFFELEC_DS: _Plan({Field.COMPLEX: {}}),
    Strategy.HALVING: _Plan(
        {
            Field.REAL: _REAL_BASES,
            Field.COMPLEX: {k: _classical(Strategy.BASELINE_QUEFFELEC_DS, k) for k in range(2, 7)},
        },
        ("even-halving", "odd-split"),
    ),
    Strategy.TWO_STEP: _Plan({Field.REAL: _REAL_BASES}, ("two-step", "two-step")),
    Strategy.ONE_STEP: _Plan(
        {
            Field.REAL: {2: _REAL_BASES[2]},
            Field.COMPLEX: {2: (K_G_UPPER, PowerProduct(kg=Fraction(1)))},
        },
        ("one-step", "one-step"),
    ),
}


def is_stated_for(field: Field, strategy: Strategy) -> bool:
    """Whether ``strategy`` gives constants for ``field`` (``BEST`` does for both)."""
    return strategy is Strategy.BEST or field in _STRATEGIES[strategy].bases


class _Ladder:
    """The levels of one (field, strategy), each derived once, on first use.

    Level k is one :class:`TraceStep` and its exact closed form.  A ladder
    lives for one call, and every record the call returns reads its value,
    closed form and trace from these shared levels.  ``khinchine`` maps a
    part size c to A_{2c/(c+1)}; the call's ladders share it.
    """

    def __init__(
        self, field: Field, strategy: Strategy, khinchine: Callable[[int], HaagerupConstants]
    ) -> None:
        plan = _STRATEGIES.get(strategy)
        if plan is None:
            raise DomainError(f"unknown strategy {strategy!r}")
        if field not in plan.bases:
            stated = " and ".join(f.value for f in plan.bases)
            raise DomainError(f"the {strategy.value} strategy is stated for {stated} scalars only")
        self.field, self.strategy, self.rules = field, strategy, plan.rules
        self.khinchine = khinchine
        self.steps: dict[int, TraceStep] = {}
        self.closed: dict[int, PowerProduct | None] = {}
        self.view = MappingProxyType(self.steps)
        for k, (value, closed) in plan.bases[field].items():
            self.steps[k] = TraceStep("base", k, (), (), value)
            self.closed[k] = closed

    def children(self, k: int) -> tuple[int, ...]:
        return _RULES[self.rules[k % 2]].children(k) if self.rules else ()

    def derive(self, k: int, children: Sequence[int]) -> tuple[TraceStep, PowerProduct | None]:
        if not self.rules:
            value, closed = _classical(self.strategy, k)
            return TraceStep("baseline", k, (), (), value), closed
        name = self.rules[k % 2]
        rule = _RULES[name]
        uses = []
        for c in children:
            a = self.khinchine(c)  # at the child's part's s_i = 2c/(c+1)
            uses.append(KhinchineUse(a.p, a.a_p, k - c, a.branch, a.a_exponent))
        value = _float_update(rule, k, children, [self.steps[c].value for c in children], uses)
        closed = _exact_update(rule, k, children, [self.closed[c] for c in children], uses)
        return TraceStep(name, k, children, tuple(uses), value), closed

    def value(self, m: int) -> float:
        """Value of level m, deriving first the levels it rests on."""
        _require_level(m)  # ahead of the lookup: 2.0 and 3.0 hash like levels 2 and 3
        if m not in self.steps:
            for k, children in _post_order(m, self.children, self.steps):
                self.steps[k], self.closed[k] = self.derive(k, children)
        return self.steps[m].value

    def record(self, m: int) -> ConstantRecord:
        value = self.value(m)
        if math.isinf(value):
            raise DomainError(f"the {self.strategy.value} constant at m={m} exceeds the double range")
        return ConstantRecord(m, self.field, self.strategy, value, self.closed[m], self.view)


# --------------------------------------------------------------------------
# Single levels, best-of and tables
# --------------------------------------------------------------------------

# The candidates of ``BEST``, each where it is stated: the only strategies
# ever smallest.  Ties keep the earliest, so the baselines win where halving's
# bases reproduce them (real m = 2, complex m = 2..6).  The original baseline,
# one-step and two-step are never below these and overflow by m = 8186, where a
# chain stays inf and a closed form grows with m; halving stays finite.
_CANDIDATES = (Strategy.BASELINE_KAIJSER, Strategy.BASELINE_QUEFFELEC_DS, Strategy.HALVING)


def _reader(field: Field) -> Callable[[Strategy, int], ConstantRecord]:
    """A (strategy, m) -> record function whose reads share one ladder per strategy.

    The ladders share one table of the Khinchine constants at 2c/(c+1), which
    lives, as they do, for this call only.
    """
    if not isinstance(field, Field):
        raise DomainError(f"unknown field {field!r}")
    khinchine = functools.cache(lambda c: khinchine_a(Fraction(2 * c, c + 1)))
    ladder = functools.cache(functools.partial(_Ladder, field, khinchine=khinchine))
    candidates = [ladder(s) for s in _CANDIDATES if is_stated_for(field, s)]

    def read(strategy: Strategy, m: int) -> ConstantRecord:
        if strategy is Strategy.BEST:
            # min keeps the first of equal values, as the tie rule asks; a candidate
            # beyond the double range reads inf and never wins: halving stays finite
            return min(candidates, key=lambda c: c.value(m)).record(m)
        return ladder(strategy).record(m)

    return read


def compute_constant(m: int, field: Field, strategy: Strategy) -> ConstantRecord:
    """One (m, field, strategy) constant, from the levels that m rests on.

    Raises :class:`DomainError` for a strategy not stated for ``field`` (the
    two-step recursion is real only, the Queffelec / Defant-Sevilla-Peris
    baseline complex only) and for a constant beyond the double range: the
    original baseline from m = 2039, Kaijser's from m = 2049, the one-step
    chain from m = 4095 and the two-step chain from m = 8186.  ``BEST``
    passes over such candidates; halving stays finite.
    """
    return _reader(field)(strategy, m)


def constants_columns(
    field: Field, strategies: tuple[Strategy, ...], m_max: int
) -> tuple[tuple[ConstantRecord, ...], ...]:
    """One column of records for m = 2..m_max per strategy, in order.

    The columns share one ladder per strategy, ``BEST`` included, so every
    level is derived once and the whole call costs O(m_max) steps.
    """
    if not isinstance(m_max, int) or m_max < 2:
        raise DomainError(f"m_max must be an integer >= 2, got {m_max!r}")
    read = _reader(field)
    return tuple(tuple(read(s, m) for m in range(2, m_max + 1)) for s in strategies)


# --------------------------------------------------------------------------
# Trace replay
# --------------------------------------------------------------------------

def replay_trace(trace: tuple[TraceStep, ...]) -> float:
    """Recompute the final value of a derivation trace from its steps.

    Base and baseline values are taken as recorded (they are the axioms of
    the derivation); every other step is recomputed by the float update of
    its rule from previously replayed levels and the recorded Khinchine
    constants, without deriving splits or constants anew.
    """
    values: dict[int, float] = {}
    result = math.nan
    for step in trace:
        if step.rule in ("base", "baseline"):
            result = step.value
        elif step.rule in _RULES:
            children = [values[c] for c in step.children]
            result = _float_update(_RULES[step.rule], step.m, step.children, children, step.khinchine)
        else:
            raise ValueError(f"unknown trace rule {step.rule!r}")
        values[step.m] = result
    return result
