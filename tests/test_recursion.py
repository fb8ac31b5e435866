"""Constants under every strategy: closed forms, tables, identities, traces."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhc.exponents
import bhc.recursion
from bhc.core import DomainError, Field
from bhc.recursion import (
    K_G_UPPER,
    TWO_OVER_SQRT_PI,
    BaselineKind,
    Strategy,
    baseline,
    best_constant,
    complex_halving,
    complex_one_step,
    compute_constant,
    constants_columns,
    constants_table,
    is_stated_for,
    real_halving,
    real_one_step,
    real_two_step,
    replay_trace,
)
from bhc.special import Branch, khinchine_a
from bhc.verify import bh_check, littlewood_form

F = Fraction

# published rounded values of the halving column (real case, m = 3..12)
REAL_TABLE = {
    3: 1.782,
    4: 2.0,
    5: 2.298,
    6: 2.520,
    7: 2.6918,
    8: 2.8284,
    9: 3.055,
    10: 3.249,
    11: 3.4174,
    12: 3.563,
}

# published rounded values of the halving column (complex case, m = 8..16)
COMPLEX_TABLE = {
    8: 2.031,
    9: 2.172,
    10: 2.292,
    11: 2.449,
    12: 2.587,
    13: 2.662,
    14: 2.728,
    15: 2.805,
    16: 2.873,
}


class TestBases:
    def test_all_real_strategies_share_bases(self):
        for fn in (real_one_step, real_two_step, real_halving):
            rec2 = fn(2)
            assert rec2.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
            assert rec2.dyadic_exponent == F(1, 2)
        for fn in (real_two_step, real_halving):
            assert fn(3).dyadic_exponent == F(5, 6)
        # the one-step value at m=3 lands on the same exponent
        assert real_one_step(3).dyadic_exponent == F(5, 6)

    def test_domain(self):
        for fn in (real_one_step, real_two_step, real_halving, complex_one_step, complex_halving):
            with pytest.raises(DomainError):
                fn(1)
            with pytest.raises(DomainError):
                fn(0)


class TestRealOneStep:
    def test_closed_form_exponents(self):
        for m in range(2, 14):
            assert real_one_step(m).dyadic_exponent == F(m * m + m - 2, 4 * m)
        # the Gamma branch enters at m = 14 and the exact form is gone
        assert real_one_step(14).dyadic_exponent is None

    def test_published_column(self):
        printed = {
            3: F(5, 6),
            4: F(18, 16),
            5: F(28, 20),
            6: F(40, 24),
            7: F(54, 28),
            8: F(70, 32),
            9: F(88, 36),
            10: F(108, 40),
            11: F(130, 44),
            12: F(154, 48),
        }
        for m, exponent in printed.items():
            assert real_one_step(m).dyadic_exponent == exponent
        assert real_one_step(12).value == pytest.approx(9.243, abs=5e-3)
        assert real_one_step(3).value == pytest.approx(1.782, abs=5e-3)


class TestRealTwoStep:
    def test_closed_form_exponents(self):
        for m in range(2, 15):
            if m % 2 == 0:
                expected = F(m * m + 6 * m - 8, 8 * m)
            else:
                expected = F(m * m + 6 * m - 7, 8 * m)
            assert real_two_step(m).dyadic_exponent == expected

    def test_examples(self):
        assert real_two_step(6).dyadic_exponent == F(4, 3)
        assert real_two_step(6).value == pytest.approx(2.520, abs=5e-3)
        assert real_two_step(7).dyadic_exponent == F(3, 2)
        assert real_two_step(7).value == pytest.approx(2.828, abs=5e-3)
        assert real_two_step(3).dyadic_exponent == F(5, 6)  # base passthrough


class TestRealHalving:
    def test_published_column(self):
        for m, printed in REAL_TABLE.items():
            assert real_halving(m).value == pytest.approx(printed, abs=5e-3)

    def test_exact_exponents(self):
        assert real_halving(4).dyadic_exponent == F(1)
        assert real_halving(9).dyadic_exponent == F(29, 18)
        assert real_halving(12).dyadic_exponent == F(11, 6)

    def test_even_halving_identity(self):
        for m in range(4, 25, 2):
            parent = real_halving(m).dyadic_exponent
            child = real_halving(m // 2).dyadic_exponent
            assert parent == F(1, 2) + child

    def test_dosestrellas(self):
        # A_{2m/(m+2)} = 2^(-1/m) exactly on the dyadic branch up to m = 24
        for m in range(2, 25):
            rec = khinchine_a(F(2 * m, m + 2))
            assert rec.branch is Branch.DYADIC_POWER
            assert rec.a_exponent == F(-1, m)
        rec26 = khinchine_a(F(52, 28))
        assert rec26.branch is Branch.GAMMA_FORMULA
        assert abs(rec26.a_p - 2.0 ** (-1.0 / 26.0)) > 1e-6

    def test_gamma_branch_enters_above_24(self):
        rec = real_halving(26)
        assert rec.dyadic_exponent is None and rec.closed_form is None
        branches = {use.branch for step in rec.trace for use in step.khinchine}
        assert Branch.GAMMA_FORMULA in branches
        # while everything at or below 24 is exact
        assert real_halving(24).dyadic_exponent is not None


class TestComplexOneStep:
    def test_base_is_grothendieck_literal(self):
        assert complex_one_step(2).value == K_G_UPPER
        assert complex_one_step(2).closed_form.kg == 1

    def test_closed_form(self):
        for m in range(2, 14):
            expected = 2.0 ** ((m * m + m - 6) / (4 * m)) * K_G_UPPER ** (2.0 / m)
            rec = complex_one_step(m)
            assert rec.value == pytest.approx(expected, rel=1e-12)
            assert rec.closed_form.two == F(m * m + m - 6, 4 * m)
            assert rec.closed_form.kg == F(2, m)

    def test_single_step_example(self):
        expected = 2.0 ** (1.0 / 3.0) * (K_G_UPPER / 2.0**-0.25) ** (2.0 / 3.0)
        assert complex_one_step(3).value == pytest.approx(expected, rel=1e-12)

    def test_never_pure_dyadic(self):
        for m in (2, 5, 9, 13):
            rec = complex_one_step(m)
            assert rec.dyadic_exponent is None
            assert "K_G" in rec.extra_factor


class TestComplexHalving:
    def test_bases(self):
        for m in range(2, 7):
            rec = complex_halving(m)
            assert rec.value == pytest.approx(TWO_OVER_SQRT_PI ** (m - 1), rel=1e-14)
            assert rec.closed_form.tosp == m - 1
            assert rec.dyadic_exponent is None

    def test_level_seven(self):
        rec = complex_halving(7)
        assert rec.value == pytest.approx(1.9293, abs=1e-4)
        assert rec.closed_form.two == F(1, 2)
        assert rec.closed_form.tosp == F(18, 7)

    def test_published_column(self):
        for m, printed in COMPLEX_TABLE.items():
            assert complex_halving(m).value == pytest.approx(printed, abs=5e-3)

    def test_crossover_against_queffelec(self):
        for m in range(7, 17):
            assert complex_halving(m).value < TWO_OVER_SQRT_PI ** (m - 1)
        for m in (4, 5, 6):
            assert complex_halving(m).value >= TWO_OVER_SQRT_PI ** (m - 1) * (1.0 - 1e-14)


class TestBaselines:
    def test_original_at_3(self):
        assert baseline(3, BaselineKind.ORIGINAL).value == pytest.approx(4.160, abs=5e-3)

    def test_kaijser(self):
        assert baseline(5, BaselineKind.KAIJSER).value == 4.0
        assert baseline(100, BaselineKind.KAIJSER).value == pytest.approx(7.96131459e14, rel=1e-6)
        assert baseline(7, BaselineKind.KAIJSER).dyadic_exponent == F(3)

    def test_queffelec(self):
        assert baseline(50, BaselineKind.QUEFFELEC_DS).value == pytest.approx(372.0, rel=1e-2)
        assert baseline(4, BaselineKind.QUEFFELEC_DS).closed_form.tosp == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            baseline(1, BaselineKind.KAIJSER)


class TestBestConstant:
    def test_complex_level_four_prefers_queffelec(self):
        rec = best_constant(4, Field.COMPLEX)
        assert rec.value == pytest.approx(TWO_OVER_SQRT_PI**3, rel=1e-14)
        assert rec.strategy is Strategy.BASELINE_QUEFFELEC_DS

    def test_real_level_nine_prefers_halving(self):
        rec = best_constant(9, Field.REAL)
        assert rec.strategy is Strategy.HALVING
        assert rec.value == pytest.approx(3.055, abs=5e-3)

    def test_shared_base_value(self):
        assert best_constant(2, Field.REAL).value == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_dominance(self):
        for m in range(2, 51):
            assert (
                best_constant(m, Field.REAL).value
                <= baseline(m, BaselineKind.KAIJSER).value * (1.0 + 1e-12)
            )
        for m in range(7, 51):
            assert complex_halving(m).value <= TWO_OVER_SQRT_PI ** (m - 1) * (1.0 + 1e-12)


class TestRecordConsistency:
    def test_value_matches_exponent(self):
        for m in range(2, 25):
            for rec in (real_one_step(m), real_two_step(m), real_halving(m)):
                if rec.dyadic_exponent is not None:
                    assert abs(rec.value - 2.0 ** float(rec.dyadic_exponent)) <= 1e-12 * rec.value

    def test_value_matches_closed_form(self):
        for m in range(2, 25):
            for rec in (complex_halving(m), complex_one_step(m)):
                if rec.closed_form is not None:
                    assert rec.value == pytest.approx(rec.closed_form.value(), rel=1e-12)

    def test_monotone_in_m(self):
        strategies = [
            lambda m: real_one_step(m).value,
            lambda m: real_two_step(m).value,
            lambda m: real_halving(m).value,
            lambda m: complex_one_step(m).value,
            lambda m: complex_halving(m).value,
            lambda m: baseline(m, BaselineKind.KAIJSER).value,
            lambda m: baseline(m, BaselineKind.QUEFFELEC_DS).value,
            lambda m: baseline(m, BaselineKind.ORIGINAL).value,
        ]
        for value_of in strategies:
            previous = value_of(2)
            for m in range(3, 51):
                current = value_of(m)
                assert current >= previous * (1.0 - 1e-12)
                previous = current


class TestTraces:
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 9, 12, 24, 25, 26, 37, 50])
    def test_replay_halving(self, m):
        for fn in (real_halving, complex_halving):
            rec = fn(m)
            assert replay_trace(rec.trace) == pytest.approx(rec.value, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 8, 13, 14, 30])
    def test_replay_linear_strategies(self, m):
        for fn in (real_one_step, complex_one_step, real_two_step):
            rec = fn(m)
            assert replay_trace(rec.trace) == pytest.approx(rec.value, rel=1e-12)

    def test_halving_trace_structure(self):
        rec = real_halving(12)
        rules = [(s.rule, s.m) for s in rec.trace]
        assert rules == [("base", 3), ("even-halving", 6), ("even-halving", 12)]
        # post-order from m, low child before high, each level once
        rules = [(s.rule, s.m) for s in real_halving(23).trace]
        assert rules == [
            ("base", 2),
            ("base", 3),
            ("odd-split", 5),
            ("even-halving", 6),
            ("odd-split", 11),
            ("even-halving", 12),
            ("odd-split", 23),
        ]
        rules = [(s.rule, s.m) for s in complex_halving(13).trace]
        assert rules == [("base", 6), ("base", 3), ("base", 4), ("odd-split", 7), ("odd-split", 13)]
        rec9 = real_halving(9)
        odd = [s for s in rec9.trace if s.rule == "odd-split"][-1]
        assert odd.split.f1 == F(4, 9) and odd.split.f2 == F(5, 9)
        assert odd.children == (4, 5)

    def test_trace_is_walked_once(self):
        rec = real_halving(23)
        assert rec.trace is rec.trace

    def test_best_attaches_winning_trace(self):
        rec = best_constant(9, Field.REAL)
        assert replay_trace(rec.trace) == pytest.approx(rec.value, rel=1e-12)

    @pytest.mark.parametrize(
        "field, strategy",
        [(f, s) for f in Field for s in Strategy if is_stated_for(f, s)],
    )
    def test_every_table_record_replays(self, field, strategy):
        for rec in constants_table(field, strategy, 64):
            assert replay_trace(rec.trace) == rec.value

    def test_replay_does_not_rederive(self, monkeypatch):
        # replay_trace is the independent check: it must not reach the
        # derivation code, so break every piece of that code and replay
        records = [
            real_halving(37),
            complex_halving(37),
            real_two_step(30),
            complex_one_step(30),
            baseline(30, BaselineKind.KAIJSER),
        ]
        # the trace walk is derivation code too: take each trace first
        traces = [(rec.trace, rec.value) for rec in records]

        def broken(*args, **kwargs):
            raise AssertionError("replay_trace reached the derivation code")

        for name in ("khinchine_a", "_split", "blei_f", "blei_w", "_exact_update", "_classical"):
            monkeypatch.setattr(bhc.recursion, name, broken)
        monkeypatch.setattr(bhc.recursion._Ladder, "derive", broken)
        monkeypatch.setattr(bhc.recursion.ConstantRecord, "trace", property(broken))
        # the rule table shares its float update with replay, but not the
        # partition from which a level's children, split and constants follow
        for name, rule in bhc.recursion._RULES.items():
            monkeypatch.setitem(bhc.recursion._RULES, name, dataclasses.replace(rule, parts=broken))
        for trace, value in traces:
            assert replay_trace(trace) == pytest.approx(value, rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        stated=st.sampled_from([(f, s) for f in Field for s in Strategy if is_stated_for(f, s)]),
        m=st.integers(2, 500),
    )
    def test_any_record_replays_exactly(self, stated, m):
        field, strategy = stated
        rec = compute_constant(m, field, strategy)
        assert replay_trace(rec.trace) == rec.value


class TestTableAndDispatch:
    def test_table_rows(self):
        records = constants_table(Field.REAL, Strategy.HALVING, 12)
        assert [r.m for r in records] == list(range(2, 13))
        again = constants_table(Field.REAL, Strategy.HALVING, 12)
        assert [r.value for r in records] == [r.value for r in again]

    def test_table_domain(self):
        with pytest.raises(DomainError):
            constants_table(Field.REAL, Strategy.HALVING, 1)

    def test_two_step_is_real_only(self):
        with pytest.raises(DomainError):
            compute_constant(6, Field.COMPLEX, Strategy.TWO_STEP)

    def test_queffelec_is_complex_only(self):
        assert not is_stated_for(Field.REAL, Strategy.BASELINE_QUEFFELEC_DS)
        assert is_stated_for(Field.COMPLEX, Strategy.BASELINE_QUEFFELEC_DS)
        with pytest.raises(DomainError, match="complex scalars only"):
            compute_constant(2, Field.REAL, Strategy.BASELINE_QUEFFELEC_DS)
        with pytest.raises(DomainError, match="complex scalars only"):
            baseline(2, BaselineKind.QUEFFELEC_DS, Field.REAL)

    def test_unknown_strategy(self):
        with pytest.raises(DomainError, match="unknown strategy"):
            compute_constant(2, Field.REAL, "halving")

    def test_dispatch_covers_baselines(self):
        rec = compute_constant(5, Field.REAL, Strategy.BASELINE_KAIJSER)
        assert rec.value == 4.0
        assert rec.field is Field.REAL

    def test_columns_share_one_ladder(self):
        best, one_step, again = constants_columns(
            Field.REAL, (Strategy.BEST, Strategy.ONE_STEP, Strategy.ONE_STEP), 30
        )
        assert [r.value for r in one_step] == [real_one_step(m).value for m in range(2, 31)]
        # a level's step object is shared by every record that passes through it
        assert one_step[-1].trace[5] is one_step[10].trace[5] is again[20].trace[5]
        assert [r.value for r in best] == [best_constant(m, Field.REAL).value for m in range(2, 31)]


class TestTableCost:
    @staticmethod
    def _blei_calls(monkeypatch, m_max):
        calls = 0
        original = bhc.exponents.blei_f

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(bhc.exponents, "blei_f", counted)
        monkeypatch.setattr(bhc.recursion, "blei_f", counted)
        constants_table(Field.REAL, Strategy.BEST, m_max)
        return calls

    def test_best_table_is_linear_in_m_max(self, monkeypatch):
        # every strategy's level is derived once per table, not once per row
        small = self._blei_calls(monkeypatch, 100)
        large = self._blei_calls(monkeypatch, 200)
        assert 0 < small and large <= 2.5 * small

    def test_chain_table_memory_is_linear_in_m_max(self):
        # the records share their ladder's steps; a trace tuple per record
        # would hold O(m_max^2) step references
        def held(m_max):
            tracemalloc.start()
            try:
                table = constants_table(Field.REAL, Strategy.ONE_STEP, m_max)
                assert len(table) == m_max - 1
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        assert held(2000) <= 2.5 * held(1000)


class TestDoubleRange:
    def test_baselines_beyond_the_double_range(self):
        assert math.isfinite(baseline(2048, BaselineKind.KAIJSER).value)
        assert math.isfinite(baseline(2038, BaselineKind.ORIGINAL).value)
        for m, kind in ((2049, BaselineKind.KAIJSER), (2039, BaselineKind.ORIGINAL)):
            with pytest.raises(DomainError, match="double range"):
                baseline(m, kind)

    @pytest.mark.parametrize("field", list(Field))
    def test_best_skips_infinite_candidates(self, field):
        rec = best_constant(2049, field)
        assert rec.strategy is Strategy.HALVING
        assert rec.value == compute_constant(2049, field, Strategy.HALVING).value
        assert math.isfinite(rec.value)

    def test_chains_beyond_the_double_range(self):
        assert math.isfinite(complex_one_step(4094).value)
        with pytest.raises(DomainError, match="one-step constant at m=4095 exceeds the double range"):
            complex_one_step(4095)
        # best reads the infinite one-step candidate and passes it over
        rec = best_constant(4095, Field.COMPLEX)
        assert rec.strategy is Strategy.HALVING and math.isfinite(rec.value)


# Diniz, Munoz-Fernandez, Pellegrino and Seoane-Sepulveda (Proc. AMS 2014):
# for real scalars C_m >= 2^(1 - 1/m), attained by explicit +-1 forms.
REAL_STRATEGIES = [s for s in Strategy if is_stated_for(Field.REAL, s)]


class TestRealLowerBound:
    @pytest.mark.parametrize("strategy", REAL_STRATEGIES)
    def test_no_real_constant_undercuts_the_lower_bound(self, strategy):
        for rec in constants_table(Field.REAL, strategy, 64):
            assert rec.value >= 2.0 ** (1.0 - 1.0 / rec.m)

    @pytest.mark.parametrize("strategy", REAL_STRATEGIES)
    def test_littlewood_form_passes(self, strategy):
        # the real bilinear form that attains the ratio 2^(1/2)
        report = bh_check(littlewood_form(2), compute_constant(2, Field.REAL, strategy))
        assert report.passed
