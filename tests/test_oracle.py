"""Independent oracles at 50 digits: the paper's formulas and Gamma.

The ladders and ``replay_trace`` share one float update, so a replayed trace
cannot catch an error in that update.  This oracle writes the formulas out
again in mpmath and checks the float values where no exact closed form
exists, because the Khinchine constants have left their dyadic branch.
The Gamma function behind that branch, its Khinchine closed form and the
crossover between the branches are checked against mpmath as well.
"""

import pytest

from bhc.recursion import complex_halving, real_halving, real_one_step, real_two_step
from bhc.special import a_gamma, crossover_p0, log_gamma

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf


def khinchine(p):
    """Haagerup's A_p for 0 < p < 2: the smaller of 2^(1/2-1/p) and the Gamma form."""
    dyadic = mpf(2) ** (mpf(1) / 2 - 1 / p)
    gamma = mpmath.sqrt(2) * (mpmath.gamma((p + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / p)
    return min(dyadic, gamma)


def blei_f(x, y, q=2):
    return (q * q * x - q * x * y) / (q * q * (x + y) - 2 * q * x * y)


def one_step(m):
    c = mpmath.sqrt(2)
    for k in range(3, m + 1):
        a = khinchine(mpf(2 * k - 2) / k)
        c = mpf(2) ** (mpf(k - 1) / (2 * k)) * (c / a) ** (mpf(k - 1) / k)
    return c


def two_step(m):
    c = {2: mpf(2) ** (mpf(1) / 2), 3: mpf(2) ** (mpf(5) / 6)}
    for k in range(4, m + 1):
        a = khinchine(mpf(2 * k - 4) / (k - 1))
        c[k] = mpmath.sqrt(2) * (c[k - 2] / a**2) ** (mpf(k - 2) / k)
    return c[m]


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
    return c[m]


def test_oracle_reproduces_exact_levels():
    with mpmath.workdps(50):
        assert float(one_step(12)) == pytest.approx(2.0 ** (154 / 48), rel=1e-15)
        assert float(two_step(7)) == pytest.approx(2.0**1.5, rel=1e-15)
        assert float(halving(12, False)) == pytest.approx(2.0 ** (11 / 6), rel=1e-15)


CASES = {
    "real-one-step": (real_one_step, one_step),
    "real-two-step": (real_two_step, two_step),
    "real-halving": (real_halving, lambda m: halving(m, complex_field=False)),
    "complex-halving": (complex_halving, lambda m: halving(m, complex_field=True)),
}


@pytest.mark.parametrize(
    "case, m",
    [
        ("real-one-step", 14),
        ("real-one-step", 30),
        ("real-two-step", 30),
        *(("real-halving", m) for m in (26, 37, 50)),
        *(("complex-halving", m) for m in (26, 37, 50)),
    ],
)
def test_gamma_branch_levels(case, m):
    derive, oracle = CASES[case]
    record = derive(m)
    assert record.closed_form is None  # no exact check reaches this level
    with mpmath.workdps(50):
        expected = float(oracle(m))
    assert record.value == pytest.approx(expected, rel=1e-12)


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


def test_crossover_p0():
    # where Gamma((p+1)/2) = sqrt(pi)/2, i.e. the two closed forms for A_p meet
    with mpmath.workdps(50):
        root = mpmath.findroot(
            lambda p: mpmath.gamma((p + 1) / 2) - mpmath.sqrt(mpmath.pi) / 2, (1.5, 1.95), solver="bisect"
        )
        assert abs(crossover_p0() - root) <= 1e-11
