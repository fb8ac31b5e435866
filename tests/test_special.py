"""Gamma evaluation and the optimal Khinchine constants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bhc.core import DomainError, Field
from bhc.recursion import Strategy, constants_columns, is_stated_for
from bhc.special import (
    Branch,
    a_dyadic,
    a_gamma,
    crossover_p0,
    khinchine_a,
    khinchine_b,
    log_gamma,
)
from bhc.verify import rademacher_moment


class TestLogGamma:
    def test_known_values(self):
        # Gamma(1/2) = sqrt(pi), Gamma(1) = 1, Gamma(5) = 4!
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    def test_relative_error_bound_on_working_range(self):
        # math.lgamma is an independent implementation (libm), good to ~1 ulp
        for x in np.linspace(0.5, 200.0, 3001):
            ref = math.lgamma(x)
            assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_reflection_region(self):
        for x in (0.05, 0.2, 0.49):
            assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.5)


class TestKhinchineLower:
    def test_dyadic_value_at_4_3(self):
        rec = khinchine_a(Fraction(4, 3))
        assert rec.branch is Branch.DYADIC_POWER
        assert rec.a_exponent == Fraction(-1, 4)  # 1/2 - 3/4
        assert rec.a_p == pytest.approx(2.0 ** (-0.25), rel=1e-15)

    def test_unit_at_and_above_two(self):
        rec = khinchine_a(2)
        assert rec.a_p == 1.0
        assert rec.branch is Branch.UNIT
        assert khinchine_a(5.0).a_p == 1.0

    def test_halving_exponent_identity(self):
        # A_{2m/(m+2)} = 2^(-1/m) on the dyadic branch
        for m in (4, 6, 10, 24):
            rec = khinchine_a(Fraction(2 * m, m + 2))
            assert rec.branch is Branch.DYADIC_POWER
            assert rec.a_exponent == Fraction(-1, m)

    def test_branch_selection_by_region(self):
        assert a_dyadic(1.5) < a_gamma(1.5)
        assert khinchine_a(1.5).branch is Branch.DYADIC_POWER
        assert a_gamma(1.95) < a_dyadic(1.95)
        assert khinchine_a(1.95).branch is Branch.GAMMA_FORMULA

    def test_min_semantics_on_grid(self):
        for p in np.linspace(0.1, 1.99, 250):
            rec = khinchine_a(float(p))
            d, g = a_dyadic(p), a_gamma(p)
            assert rec.a_p <= d + 1e-15 and rec.a_p <= g + 1e-15
            assert min(abs(rec.a_p - d), abs(rec.a_p - g)) <= 1e-15

    def test_monotone_and_bounded(self):
        grid = np.linspace(0.05, 6.0, 400)
        values = [khinchine_a(float(p)).a_p for p in grid]
        assert all(0.0 < a <= 1.0 for a in values)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_unit_value_only_at_two(self):
        for p in (0.5, 1.0, 1.8, 1.999):
            assert khinchine_a(p).a_p < 1.0 - 1e-12 or p > 1.999
        assert abs(khinchine_a(2.0).a_p - 1.0) <= 1e-12
        assert abs(khinchine_b(2.0) - 1.0) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            khinchine_a(0.0)
        with pytest.raises(DomainError):
            khinchine_a(-1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="positive and finite"):
                khinchine_a(bad)

    @pytest.mark.parametrize("closed_form", [a_dyadic, a_gamma])
    @pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf, -math.inf])
    def test_closed_forms_reject_bad_exponents(self, closed_form, bad):
        with pytest.raises(DomainError, match="positive and finite"):
            closed_form(bad)


class TestKhinchineUpper:
    def test_unit_below_two(self):
        assert khinchine_b(2.0) == 1.0
        assert khinchine_b(1.0) == 1.0
        assert khinchine_b(0.3) == 1.0

    def test_fourth_moment_constant(self):
        # Gamma(5/2) = (3/4) sqrt(pi), so B_4 = sqrt(2) (3/4)^(1/4) = 3^(1/4)
        b4 = khinchine_b(4.0)
        assert b4 == pytest.approx(math.sqrt(2.0) * 0.75**0.25, rel=1e-13)
        assert b4 == pytest.approx(3.0**0.25, rel=1e-13)

    def test_fourth_moment_rademacher_oracle(self):
        # E|sum eps_n|^4 over N=12 equal weights is 3 - 2/N exactly; the
        # exact enumeration must reproduce it and stay below B_4
        n = 12
        ratio = rademacher_moment(np.ones(n), 4.0) / math.sqrt(n)
        assert ratio == pytest.approx((3.0 - 2.0 / n) ** 0.25, rel=1e-12)
        assert ratio <= khinchine_b(4.0)

    def test_monotone(self):
        grid = np.linspace(0.2, 8.0, 300)
        values = [khinchine_b(float(p)) for p in grid]
        assert all(b >= 1.0 for b in values)
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            khinchine_b(-0.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="positive and finite"):
                khinchine_b(bad)


class TestCrossover:
    def test_location(self):
        p0 = crossover_p0()
        assert 1.847 <= p0 <= 1.848

    def test_branches_meet(self):
        p0 = crossover_p0()
        assert abs(a_dyadic(p0) - a_gamma(p0)) <= 1e-10

    def test_gamma_characterization(self):
        # at the crossover Gamma((p0+1)/2) = sqrt(pi)/2
        p0 = crossover_p0()
        gamma_val = math.exp(log_gamma((p0 + 1.0) / 2.0))
        assert gamma_val == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)

    def test_dyadic_exact_below_crossover(self):
        p0 = crossover_p0()
        for num, den in ((1, 1), (4, 3), (3, 2), (5, 3), (9, 5), (24, 13)):
            p = Fraction(num, den)
            if float(p) <= p0:
                rec = khinchine_a(p)
                assert rec.branch is Branch.DYADIC_POWER
                assert rec.a_exponent == Fraction(1, 2) - Fraction(den, num)


def test_oracle_consistency_small_sample():
    # exact Rademacher ratios stay inside [A_p, B_p]
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        a = rng.uniform(-1.0, 1.0, size=n)
        l2 = float(np.linalg.norm(a))
        if l2 == 0.0:
            continue
        for p in (1.0, 4.0 / 3.0, 1.5, 5.0 / 3.0, 2.0):
            ratio = rademacher_moment(a, p) / l2
            assert khinchine_a(p).a_p - 1e-12 <= ratio <= khinchine_b(p) + 1e-12


def test_engine_khinchine_inputs_are_sharp():
    # Every A_p a stated ladder consumes for m <= 2000, read from the ladders'
    # own records, against a vector that (nearly) attains it.  On the dyadic
    # branch (1, 1) attains A_p: its moment is 2^(1 - 1/p) = sqrt(2) A_p
    # exactly.  The Gamma value is the limit of equal weights as N -> inf and
    # Haagerup's A_p lies below every finite N, so N = 12 must not fall under it.
    uses = {}
    for field in Field:
        strategies = tuple(s for s in Strategy if s is not Strategy.BEST and is_stated_for(field, s))
        for column in constants_columns(field, strategies, 2000):
            steps = {}
            for record in reversed(column):  # a record's trace covers the levels it rests on
                if record.m not in steps:
                    steps.update((step.m, step) for step in record.trace)
            uses.update((use.p, use) for step in steps.values() for use in step.khinchine)
    dyadic = [use for use in uses.values() if use.branch is Branch.DYADIC_POWER]
    gamma = [use for use in uses.values() if use.branch is Branch.GAMMA_FORMULA]
    assert len(dyadic) + len(gamma) == len(uses) and dyadic and gamma
    for use in dyadic:
        expected = math.sqrt(2.0) * use.value
        assert abs(rademacher_moment([1.0, 1.0], use.p) - expected) <= 4 * math.ulp(expected), use.p
    equal = np.ones(12)
    for use in gamma:
        assert rademacher_moment(equal, use.p) >= use.value * math.sqrt(12.0), use.p
