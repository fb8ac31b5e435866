"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> <name>: PASS/FAIL`` line (visible with
``pytest -s`` or on failure); run the whole file with ``pytest -v
tests/test_acceptance.py``.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from bhc.core import Field
from bhc.exponents import blei_f, blei_w
from bhc.recursion import (
    TWO_OVER_SQRT_PI,
    Strategy,
    compute_constant,
)
from bhc.special import Branch, khinchine_a, khinchine_b
from bhc.verify import (
    bh_check,
    blei_check,
    canonical_family,
    extremal_search,
    littlewood_form,
    multiple_summing_check,
    rademacher_moment,
    random_family,
    random_form,
    VectorFamily,
)

F = Fraction
SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_real_constants_table():
    with criterion(1, "real constants table"):
        printed = [1.782, 2.0, 2.298, 2.520, 2.6918, 2.8284, 3.055, 3.249, 3.4174, 3.563]
        for m, expected in zip(range(3, 13), printed):
            rec = compute_constant(m, Field.REAL, Strategy.HALVING)
            assert abs(rec.value - expected) <= 5e-3
        one_step_column = [
            F(5, 6), F(18, 16), F(28, 20), F(40, 24), F(54, 28),
            F(70, 32), F(88, 36), F(108, 40), F(130, 44), F(154, 48),
        ]
        for m, exponent in zip(range(3, 13), one_step_column):
            assert compute_constant(m, Field.REAL, Strategy.ONE_STEP).dyadic_exponent == exponent


def test_criterion_02_even_halving_identity():
    with criterion(2, "even halving identity"):
        for m in range(4, 25, 2):
            parent = compute_constant(m, Field.REAL, Strategy.HALVING)
            child = compute_constant(m // 2, Field.REAL, Strategy.HALVING)
            assert parent.dyadic_exponent == F(1, 2) + child.dyadic_exponent


def test_criterion_03_dyadic_khinchine_identity():
    with criterion(3, "A_{2m/(m+2)} = 2^(-1/m)"):
        for m in range(2, 25):
            rec = khinchine_a(F(2 * m, m + 2))
            assert rec.branch is Branch.DYADIC_POWER
            assert rec.a_exponent == F(-1, m)
        rec26 = khinchine_a(F(2 * 26, 28))
        assert rec26.branch is Branch.GAMMA_FORMULA
        assert abs(rec26.a_p - 2.0 ** (-1.0 / 26.0)) > 1e-6


def test_criterion_04_closed_forms():
    with criterion(4, "one-step and two-step closed forms"):
        for m in range(2, 14):
            rec = compute_constant(m, Field.REAL, Strategy.ONE_STEP)
            assert rec.dyadic_exponent == F(m * m + m - 2, 4 * m)
        for m in range(2, 15):
            rec = compute_constant(m, Field.REAL, Strategy.TWO_STEP)
            if m % 2 == 0:
                assert rec.dyadic_exponent == F(m * m + 6 * m - 8, 8 * m)
            else:
                assert rec.dyadic_exponent == F(m * m + 6 * m - 7, 8 * m)


def test_criterion_05_complex_constants_table():
    with criterion(5, "complex constants table"):
        printed = [2.031, 2.172, 2.292, 2.449, 2.587, 2.662, 2.728, 2.805, 2.873]
        for m, expected in zip(range(8, 17), printed):
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert abs(rec.value - expected) <= 5e-3
        rec7 = compute_constant(7, Field.COMPLEX, Strategy.HALVING)
        assert abs(rec7.value - 1.9293) <= 1e-4


def test_criterion_06_baselines():
    with criterion(6, "classical baselines"):
        qds = compute_constant(50, Field.COMPLEX, Strategy.BASELINE_QUEFFELEC_DS).value
        assert abs(qds - 372.0) <= 1e-2 * 372.0
        kaijser = compute_constant(100, Field.COMPLEX, Strategy.BASELINE_KAIJSER).value
        assert abs(kaijser - 7.96131459e14) <= 1e-6 * 7.96131459e14
        original = compute_constant(3, Field.COMPLEX, Strategy.BASELINE_ORIGINAL).value
        assert abs(original - 4.160) <= 5e-3


def test_criterion_07_complex_crossover():
    with criterion(7, "complex crossover at m = 7"):
        for m in range(7, 17):
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert rec.value < TWO_OVER_SQRT_PI ** (m - 1)
        for m in (4, 5, 6):
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert rec.value >= TWO_OVER_SQRT_PI ** (m - 1) * (1.0 - 1e-14)


def test_criterion_08_khinchine_property_suite():
    with criterion(8, "Khinchine property suite"):
        ps = (1.0, 4.0 / 3.0, 1.5, 5.0 / 3.0, 2.0)
        bounds = {p: (khinchine_a(p).a_p, khinchine_b(p)) for p in ps}
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(1, 11))
            a = rng.uniform(-1.0, 1.0, size=n)
            l2 = float(np.linalg.norm(a))
            if l2 == 0.0:
                continue
            for p in ps:
                ratio = rademacher_moment(a, p) / l2
                lower, upper = bounds[p]
                assert lower * (1.0 - 1e-12) <= ratio <= upper * (1.0 + 1e-12)
                if p == 2.0:
                    assert abs(ratio - 1.0) <= 1e-12
        tight = rademacher_moment([1.0, 1.0], 1.0) / math.sqrt(2.0)
        assert abs(tight - khinchine_a(1.0).a_p) <= 1e-14


def test_criterion_09_blei_property_suite():
    with criterion(9, "Blei property suite"):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 9))
            matrix = 1.0 - rng.random((rows, cols))
            s1 = float(rng.uniform(1.0, 1.9))
            s2 = float(rng.uniform(1.0, 1.9))
            report = blei_check(matrix, 2.0, s1, s2)
            assert report.lhs <= report.rhs * (1.0 + 1e-9)
        equality = blei_check(np.ones((2, 2)), 2.0, 4.0 / 3.0, 4.0 / 3.0)
        assert abs(equality.lhs - equality.rhs) <= 1e-12 * equality.rhs
        for _ in range(1000):
            x, y = rng.uniform(1.0, 1.999, size=2)
            assert abs(blei_f(2.0, x, y) + blei_f(2.0, y, x) - 1.0) <= 1e-14
            assert abs(blei_w(2.0, x, y) - blei_w(2.0, y, x)) <= 1e-14


def test_criterion_10_bh_certification_suite():
    with criterion(10, "Bohnenblust-Hille certification suite"):
        rng = np.random.default_rng(42)
        for m in (2, 3):
            constant = compute_constant(m, Field.REAL, Strategy.BEST)
            for dim in (2, 3, 4):
                for _ in range(200):
                    form = random_form((dim,) * m, Field.REAL, rng)
                    report = bh_check(form, constant)
                    assert report.lhs <= report.rhs + 1e-9
        littlewood = bh_check(littlewood_form(2), compute_constant(2, Field.REAL, Strategy.BEST))
        assert abs(littlewood.ratio - SQRT2) <= 1e-9


def test_criterion_11_summing_reformulation():
    with criterion(11, "multiple-summing reformulation"):
        rng = np.random.default_rng(42)
        constant = compute_constant(2, Field.REAL, Strategy.BEST)
        for _ in range(50):
            form = random_form((3, 3), Field.REAL, rng)
            families = [canonical_family(3), canonical_family(3)]
            summing = multiple_summing_check(form, families, constant)
            bh = bh_check(form, constant)
            assert summing.passed == bh.passed
            assert abs(summing.ratio - bh.ratio) <= 1e-12
        # verdict invariant under positive scaling of families
        form = random_form((3, 3), Field.REAL, rng)
        families = [random_family(4, 3, Field.REAL, rng) for _ in range(2)]
        base = multiple_summing_check(form, families, constant)
        for t in (0.25, 5.0):
            scaled = [VectorFamily(t * f.vectors, Field.REAL) for f in families]
            report = multiple_summing_check(form, scaled, constant)
            assert report.passed == base.passed


def test_criterion_12_extremal_search():
    with criterion(12, "extremal search recovers the bilinear optimum"):
        report = extremal_search(2, 2, Field.REAL, budget=100_000, seed=42)
        assert report.ratio >= SQRT2 - 1e-6
        assert report.ratio <= SQRT2 + 1e-9
