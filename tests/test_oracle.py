"""Independent oracles at 50 and 60 digits: the paper's formulas and Gamma.

The ladders and ``replay_trace`` share one float update, so a replayed trace
cannot catch an error in that update.  This oracle writes the formulas out
again in mpmath, one function per ladder returning every level, and checks
the float values where no exact closed form exists, because the Khinchine
constants have left their dyadic branch, and at every level m = 2..2000 of
every stated (field, strategy).  The Gamma function behind that branch, its
Khinchine closed form and the crossover between the branches are checked
against mpmath as well, and the float real-form norm against exact rationals,
with its rounding bounded by a tenth of the certificate slack at every cube
the CLI admits.
"""

import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bhc.core import Field, SizeLimitError
from bhc.oracle import _sup_norms_real
from bhc.recursion import Strategy, compute_constant, constants_columns, is_stated_for
from bhc.special import a_gamma, crossover_p0, log_gamma
from bhc.verify import CERTIFIED_SLACK, MAX_ENUM_BITS, _cube, rademacher_moment

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf


def khinchine(p):
    """Haagerup's A_p for 0 < p < 2: the smaller of 2^(1/2-1/p) and the Gamma form."""
    dyadic = mpf(2) ** (mpf(1) / 2 - 1 / p)
    gamma = mpmath.sqrt(2) * (mpmath.gamma((p + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / p)
    return min(dyadic, gamma)


def blei_f(x, y, q=2):
    return (q * q * x - q * x * y) / (q * q * (x + y) - 2 * q * x * y)


# Each ladder returns {k: C_k} for every level k = 2..m.

def one_step(m, base):
    c = {2: base}
    for k in range(3, m + 1):
        a = khinchine(mpf(2 * k - 2) / k)
        c[k] = mpf(2) ** (mpf(k - 1) / (2 * k)) * (c[k - 1] / a) ** (mpf(k - 1) / k)
    return c


def two_step(m):
    c = {2: mpf(2) ** (mpf(1) / 2), 3: mpf(2) ** (mpf(5) / 6)}
    for k in range(4, m + 1):
        a = khinchine(mpf(2 * k - 4) / (k - 1))
        c[k] = mpmath.sqrt(2) * (c[k - 2] / a**2) ** (mpf(k - 2) / k)
    return c


def halving(m, complex_field):
    if complex_field:
        c = {k: (2 / mpmath.sqrt(mpmath.pi)) ** (k - 1) for k in range(2, 7)}
    else:
        c = {2: mpf(2) ** (mpf(1) / 2), 3: mpf(2) ** (mpf(5) / 6)}
    for k in range(min(c) + 1, m + 1):
        if k in c:
            continue
        if k % 2 == 0:
            c[k] = c[k // 2] / khinchine(mpf(2 * k) / (k + 2)) ** (mpf(k) / 2)
        else:
            s1, s2 = mpf(2 * k - 2) / (k + 1), mpf(2 * k + 2) / (k + 3)
            lo = c[(k - 1) // 2] / khinchine(s1) ** (mpf(k + 1) / 2)
            hi = c[(k + 1) // 2] / khinchine(s2) ** (mpf(k - 1) / 2)
            c[k] = lo ** blei_f(s1, s2) * hi ** blei_f(s2, s1)
    return {k: c[k] for k in range(2, m + 1)}


def baseline(formula):
    return lambda m: {k: formula(mpf(k)) for k in range(2, m + 1)}


def original(k):
    return k ** ((k + 1) / (2 * k)) * 2 ** ((k - 1) / 2)


def kaijser(k):
    return 2 ** ((k - 1) / 2)


def queffelec_ds(k):
    return (2 / mpmath.sqrt(mpmath.pi)) ** (k - 1)


ORACLES = {
    (Field.REAL, Strategy.ONE_STEP): lambda m: one_step(m, mpmath.sqrt(2)),
    (Field.COMPLEX, Strategy.ONE_STEP): lambda m: one_step(m, mpf("1.4049")),
    (Field.REAL, Strategy.TWO_STEP): two_step,
    (Field.REAL, Strategy.HALVING): lambda m: halving(m, complex_field=False),
    (Field.COMPLEX, Strategy.HALVING): lambda m: halving(m, complex_field=True),
    **{(field, Strategy.BASELINE_ORIGINAL): baseline(original) for field in Field},
    **{(field, Strategy.BASELINE_KAIJSER): baseline(kaijser) for field in Field},
    (Field.COMPLEX, Strategy.BASELINE_QUEFFELEC_DS): baseline(queffelec_ds),
}


def test_oracle_reproduces_exact_levels():
    with mpmath.workdps(50):
        real_one_step = ORACLES[Field.REAL, Strategy.ONE_STEP]
        assert float(real_one_step(12)[12]) == pytest.approx(2.0 ** (154 / 48), rel=1e-15)
        assert float(two_step(7)[7]) == pytest.approx(2.0**1.5, rel=1e-15)
        assert float(halving(12, False)[12]) == pytest.approx(2.0 ** (11 / 6), rel=1e-15)


@pytest.mark.parametrize(
    "field, strategy, m",
    [
        (Field.REAL, Strategy.ONE_STEP, 14),
        (Field.REAL, Strategy.ONE_STEP, 30),
        (Field.REAL, Strategy.TWO_STEP, 30),
        *((Field.REAL, Strategy.HALVING, m) for m in (26, 37, 50)),
        *((Field.COMPLEX, Strategy.HALVING, m) for m in (26, 37, 50)),
    ],
    ids=lambda v: getattr(v, "value", v),
)
def test_gamma_branch_levels(field, strategy, m):
    oracle = ORACLES[field, strategy]
    record = compute_constant(m, field, strategy)
    assert record.closed_form is None  # no exact check reaches this level
    with mpmath.workdps(50):
        expected = float(oracle(m)[m])
    assert record.value == pytest.approx(expected, rel=1e-12)


M_SWEEP = 2000
STATED = [
    (field, strategy)
    for field in Field
    for strategy in Strategy
    if strategy is not Strategy.BEST and is_stated_for(field, strategy)
]


@pytest.fixture(scope="module")
def float_levels():
    """{(field, strategy): {m: value}} for m = 2..M_SWEEP, one constants_columns call per field."""
    levels = {}
    for field in Field:
        strategies = tuple(s for f, s in STATED if f is field)
        for strategy, column in zip(strategies, constants_columns(field, strategies, M_SWEEP)):
            levels[field, strategy] = {rec.m: rec.value for rec in column}
    return levels


@pytest.mark.parametrize("field, strategy", STATED, ids=lambda v: v.value)
def test_every_level_within_drift_bound(float_levels, field, strategy):
    # Rounding drifts about linearly along a ladder: halving reaches about
    # 3m units in the last place near m = 1500 (relative 1.06e-12 by
    # m = 2000), so the bound is 4m ulps, |value - exact| <= m 2^-50 exact.
    # It pins the drift; it does not remove it.
    values = float_levels[field, strategy]
    with mpmath.workdps(60):
        exact = ORACLES[field, strategy](M_SWEEP)
        bound = {m: m * mpf(2) ** -50 * exact[m] for m in exact}
        over = [m for m in exact if abs(values[m] - exact[m]) > bound[m]]
    assert not over, f"levels beyond 4m ulps: {over[:10]}"


@pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 1.0, 1.4237, 2.5, 10.0, 50.0, 150.0, 200.0])
def test_log_gamma(x):
    # the contract: exp(log_gamma) to rel 1e-12, i.e. log_gamma to abs 1e-12
    with mpmath.workdps(50):
        expected = mpmath.loggamma(x)
        assert abs(log_gamma(x) - expected) <= 1e-12


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 1.8, 1.9, 3.0, 4.0])
def test_a_gamma(p):
    with mpmath.workdps(50):
        p_ = mpf(p)
        expected = mpmath.sqrt(2) * (mpmath.gamma((p_ + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / p_)
        assert a_gamma(p) == pytest.approx(float(expected), rel=1e-13)


@pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-10])
def test_rademacher_moment_small_p(p):
    # (mean |s|^p)^(1/p) directly would multiply the mean's rounding error
    # by 1/p: about 1e-13 at p = 1e-3 and 1e-6 at p = 1e-10
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 8):
        a = rng.uniform(-1.0, 1.0, n)
        with mpmath.workdps(50):
            p_ = mpf(p)
            sums = (abs(sum(e * mpf(x) for e, x in zip(eps, a))) for eps in itertools.product((1, -1), repeat=n))
            exact = (mpmath.fsum(s**p_ for s in sums) / 2**n) ** (1 / p_)
            assert abs(rademacher_moment(a, p) - exact) <= 2e-15 * exact, n


def test_crossover_p0():
    # where Gamma((p+1)/2) = sqrt(pi)/2, i.e. the two closed forms for A_p meet
    with mpmath.workdps(50):
        root = mpmath.findroot(
            lambda p: mpmath.gamma((p + 1) / 2) - mpmath.sqrt(mpmath.pi) / 2, (1.5, 1.95), solver="bisect"
        )
        assert abs(crossover_p0() - root) <= 1e-11


def _exact_sup_norm_real(coeffs):
    """The exact norm of a real form: every sign vector of slots 2..m, l1 over slot 1, in Fractions."""
    dims = coeffs.shape[1:]
    assert sum(dims) <= 16, "exact enumeration is for small forms"
    bounds = list(itertools.accumulate(dims, initial=0))
    rows = [[Fraction(x) for x in row] for row in coeffs.reshape(coeffs.shape[0], -1).tolist()]
    best = Fraction(0)
    for signs in itertools.product((1, -1), repeat=sum(dims)):
        slots = (signs[a:b] for a, b in zip(bounds, bounds[1:]))
        # the rank-one sign tensor over slots 2..m, flattened as the rows are
        vertex = [math.prod(entry) for entry in itertools.product(*slots)]
        best = max(best, sum(abs(sum(e * x for e, x in zip(vertex, row))) for row in rows))
    return best


@pytest.mark.parametrize(
    "shape, count",
    [((4, 4), 50), ((3, 3, 3), 20), ((2, 2, 2, 2), 20), ((6, 6), 10)],
    ids=["4x4", "3x3x3", "2x2x2x2", "6x6"],
)
def test_real_norm_within_summation_bound_of_exact(shape, count):
    # Each vertex value is a sum of +-U entries with no rounded product, so
    # |float - exact| <= gamma_n sum|U| with n = sum N_k, gamma_n = nu/(1 - nu)
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2).
    stack = np.random.default_rng(sum(shape) * count).uniform(-1.0, 1.0, (count, *shape))
    nu = Fraction(sum(shape), 2**53)
    for coeffs, norm in zip(stack, _sup_norms_real(stack).tolist()):
        bound = nu / (1 - nu) * sum(abs(Fraction(x)) for x in coeffs.ravel().tolist())
        assert abs(Fraction(norm) - _exact_sup_norm_real(coeffs)) <= bound


def test_norm_rounding_within_a_tenth_of_the_slack_at_every_admitted_cube():
    # ||U|| >= max|entry|, so sum|U| <= prod N_k ||U|| and the summation bound
    # above caps the float norm's relative error at gamma_n prod N_k from the
    # shape alone.  The grid reaches past the guard in both m and dim, so it
    # holds every cube (dim,)^m that the CLI admits.
    with pytest.raises(SizeLimitError):
        _cube(MAX_ENUM_BITS + 2, 1)
    with pytest.raises(SizeLimitError):
        _cube(2, MAX_ENUM_BITS + 1)
    cubes = []
    for m, dim in itertools.product(range(2, MAX_ENUM_BITS + 3), range(1, MAX_ENUM_BITS + 2)):
        with contextlib.suppress(SizeLimitError):
            cubes.append(_cube(m, dim))
    assert cubes
    for dims in cubes:
        nu = Fraction(sum(dims), 2**53)
        assert nu / (1 - nu) * math.prod(dims) <= Fraction(CERTIFIED_SLACK) / 10, dims
