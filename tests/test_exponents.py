"""Blei exponent functions and the split of each recursion step."""

from fractions import Fraction

import numpy as np
import pytest

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


class TestSplits:
    """The Blei split of each recursion step, built from its partition of level k."""

    LEVELS = {
        "one-step": range(2, 301),
        "two-step": range(3, 301),
        "even-halving": range(2, 301, 2),
        "odd-split": range(3, 301, 2),
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
            weights = _RULES[rule].weights(self.split(rule, k), children)
            assert weights == tuple(F(unfolded.count(c) * c, k) for c in children)

    def test_part_below_one_is_rejected(self):
        with pytest.raises(DomainError):
            _split(1, (0, 1))
