"""Blei exponent functions and the split of each recursion step."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhc.core import DomainError
from bhc.exponents import blei_f, blei_w
from bhc.recursion import _RULES, _split

F = Fraction


class TestBleiW:
    def test_hand_values(self):
        assert blei_w(F(2), F(4, 3), F(4, 3)) == F(8, 5)
        assert blei_w(F(2), F(1), F(1)) == F(4, 3)  # Littlewood's exponent
        # s = 2m/(m+2) at m = 10
        assert blei_w(F(2), F(5, 3), F(5, 3)) == F(20, 11)

    def test_symmetry_and_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x, y = rng.uniform(1.0, 1.999, size=2)
            w = blei_w(2.0, x, y)
            assert abs(w - blei_w(2.0, y, x)) <= 1e-14
            assert w >= max(x, y) - 1e-12

    def test_monotone_in_each_argument(self):
        xs = np.linspace(1.0, 1.9, 30)
        for y in (1.0, 1.3, 1.7):
            values = [blei_w(2.0, float(x), y) for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            blei_w(2.0, 2.5, 1.0)
        with pytest.raises(DomainError):
            blei_w(2.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            blei_w(2.0, 0.5, 1.0)


class TestBleiF:
    def test_equal_arguments_give_half(self):
        for x in (1.0, 4.0 / 3.0, 1.7):
            assert blei_f(2.0, x, x) == pytest.approx(0.5, abs=1e-15)
        assert blei_f(F(2), F(4, 3), F(4, 3)) == F(1, 2)

    def test_asymmetric_pair(self):
        # the exponents appearing in the odd split at level 7
        assert blei_f(F(2), F(3, 2), F(8, 5)) == F(3, 7)
        assert blei_f(F(2), F(8, 5), F(3, 2)) == F(4, 7)

    def test_complementarity(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            x, y = rng.uniform(1.0, 1.999, size=2)
            assert abs(blei_f(2.0, x, y) + blei_f(2.0, y, x) - 1.0) <= 1e-14

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x, y = rng.uniform(1.0, 1.9, size=2)
            assert 0.0 < blei_f(2.0, x, y) < 1.0


def formula_w(q, x, y):
    # w and f as the module docstring writes them, in that order of
    # operations: exact on Fractions, floating point on floats
    return (q * q * (x + y) - 2 * q * x * y) / (q * q - x * y)


def formula_f(q, x, y):
    return (q * q * x - q * x * y) / (q * q * (x + y) - 2 * q * x * y)


# a non-negative int, or a Fraction built from an unreduced pair
EXCESS = st.one_of(
    st.integers(0, 5),
    st.builds(
        lambda n, d, c: Fraction(n * c, d * c),
        st.integers(0, 10**6),
        st.integers(1, 10**6),
        st.integers(1, 60),
    ),
)


class TestArguments:
    """The exact path on ints and Fractions, the float path, and the domain."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(dx=EXCESS, dy=EXCESS, gap=EXCESS.filter(lambda v: v > 0))
    @example(dx=F(1, 3), dy=F(1, 3), gap=F(2, 3))  # q = 2 as a Fraction
    @example(dx=F(1, 2), dy=F(3, 5), gap=F(2, 5))
    @example(dx=0, dy=0, gap=1)  # all ints: the formula's float
    @example(dx=0, dy=F(5, 6), gap=2)  # mixed ints and Fractions
    def test_rational_inputs_match_the_formula(self, dx, dy, gap):
        x, y = 1 + dx, 1 + dy
        q = max(x, y) + gap
        for function, formula in ((blei_w, formula_w), (blei_f, formula_f)):
            for args in ((q, x, y), (q, y, x)):
                result, expected = function(*args), formula(*args)
                assert result == expected
                assert type(result) is type(expected)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=st.floats(1.0, 8.0), y=st.floats(1.0, 8.0), gap=st.floats(1e-6, 8.0))
    @example(x=4.0 / 3.0, y=1.5, gap=2.0 - 1.5)
    def test_float_inputs_keep_the_formula_bits(self, x, y, gap):
        q = max(x, y) + gap
        assert blei_w(q, x, y).hex() == formula_w(q, x, y).hex()
        assert blei_f(q, x, y).hex() == formula_f(q, x, y).hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", [0, 1, 2], ids=["q", "x", "y"])
    @pytest.mark.parametrize("function", [blei_w, blei_f], ids=["w", "f"])
    def test_non_finite_argument_is_rejected(self, function, position, bad):
        args = [2.0, 1.5, 1.5]
        args[position] = bad
        with pytest.raises(DomainError, match="finite"):
            function(*args)

    def test_exact_domain_errors_name_the_arguments(self):
        with pytest.raises(DomainError, match=r"x, y >= 1, got \(1/2, 3/2\)"):
            blei_f(F(2), F(1, 2), F(3, 2))
        with pytest.raises(DomainError, match=r"got q=3/2, x=5/3, y=1$"):
            blei_w(F(3, 2), F(5, 3), 1)


class TestSplits:
    """The Blei split of each recursion step, built from its partition of level k."""

    LEVELS = {
        "one-step": range(2, 2001),
        "two-step": range(3, 2001),
        "even-halving": range(2, 2001, 2),
        "odd-split": range(3, 2001, 2),
    }

    @staticmethod
    def split(rule: str, k: int):
        return _split(k, _RULES[rule].parts(k))

    def test_even_examples(self):
        s = self.split("even-halving", 4)
        assert (s.q, s.s1, s.s2) == (F(2), F(4, 3), F(4, 3))
        assert s.w == F(8, 5) and s.f1 == s.f2 == F(1, 2)

        base = self.split("even-halving", 2)
        assert base.s1 == base.s2 == F(1) and base.w == F(4, 3)

        top = self.split("even-halving", 24)
        assert top.s1 == F(24, 13) and top.w == F(48, 25)

    def test_odd_examples(self):
        s7 = self.split("odd-split", 7)
        assert (s7.s1, s7.s2, s7.f1, s7.f2) == (F(3, 2), F(8, 5), F(3, 7), F(4, 7))
        s5 = self.split("odd-split", 5)
        assert (s5.s1, s5.s2, s5.f1, s5.f2) == (F(4, 3), F(3, 2), F(2, 5), F(3, 5))
        s9 = self.split("odd-split", 9)
        assert (s9.s1, s9.s2, s9.f1, s9.f2) == (F(8, 5), F(5, 3), F(4, 9), F(5, 9))

    def test_descent_examples(self):
        one = self.split("one-step", 5)
        assert (one.s1, one.s2, one.f1, one.f2) == (F(1), F(8, 5), F(1, 5), F(4, 5))
        two = self.split("two-step", 6)
        assert (two.s1, two.s2, two.f1, two.f2) == (F(4, 3), F(8, 5), F(1, 3), F(2, 3))

    @pytest.mark.parametrize("rule", list(LEVELS))
    def test_blei_identities_for_every_rule(self, rule):
        # w = 2k/(k+1) and f_i = m_i/k, exactly, so f1 + f2 = 1
        for k in self.LEVELS[rule]:
            m1, m2 = _RULES[rule].parts(k)
            assert m1 + m2 == k
            s = self.split(rule, k)
            assert s.q == 2 and s.w == F(2 * k, k + 1)
            assert (s.f1, s.f2) == (F(m1, k), F(m2, k))
            assert s.f1 + s.f2 == 1

    @pytest.mark.parametrize("rule", list(LEVELS))
    def test_children_and_weights_from_the_parts(self, rule):
        # the children are the unfolded parts, equal parts merged, and their
        # weights the unfolded f_i, merged weights added
        for k in self.LEVELS[rule]:
            parts = _RULES[rule].parts(k)
            unfolded = parts[1:] if _RULES[rule].folded else parts
            children = _RULES[rule].children(k)
            assert children == tuple(sorted(set(unfolded)))
            weights = tuple(F(n, k) for n in _RULES[rule].numerators(children))
            assert weights == tuple(F(unfolded.count(c) * c, k) for c in children)

    @pytest.mark.parametrize("parts", [(0, 1), (1, 0), (-1, 3)], ids=["0+1", "1+0", "-1+3"])
    def test_part_below_one_is_rejected(self, parts):
        m1, m2 = parts
        with pytest.raises(DomainError, match=rf"parts >= 1, got \({m1}, {m2}\)"):
            _split(m1 + m2, parts)
