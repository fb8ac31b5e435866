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
    Strategy,
    compute_constant,
    constants_columns,
    is_stated_for,
    replay_trace,
)
from bhc.reports import RunConfig, run_explain
from bhc.special import Branch, khinchine_a
from bhc.verify import bh_check, littlewood_form

F = Fraction

# every (field, strategy) pair that gives constants, BEST included
STATED = [(f, s) for f in Field for s in Strategy if is_stated_for(f, s)]

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
        for strategy in (Strategy.ONE_STEP, Strategy.TWO_STEP, Strategy.HALVING):
            rec2 = compute_constant(2, Field.REAL, strategy)
            assert rec2.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
            assert rec2.dyadic_exponent == F(1, 2)
        for strategy in (Strategy.TWO_STEP, Strategy.HALVING):
            assert compute_constant(3, Field.REAL, strategy).dyadic_exponent == F(5, 6)
        # the one-step value at m=3 lands on the same exponent
        assert compute_constant(3, Field.REAL, Strategy.ONE_STEP).dyadic_exponent == F(5, 6)

    @pytest.mark.parametrize("field, strategy", STATED)
    def test_domain(self, field, strategy):
        with pytest.raises(DomainError):
            compute_constant(1, field, strategy)
        with pytest.raises(DomainError):
            compute_constant(0, field, strategy)


class TestRealOneStep:
    def test_closed_form_exponents(self):
        for m in range(2, 14):
            rec = compute_constant(m, Field.REAL, Strategy.ONE_STEP)
            assert rec.dyadic_exponent == F(m * m + m - 2, 4 * m)
        # the Gamma branch enters at m = 14 and the exact form is gone
        assert compute_constant(14, Field.REAL, Strategy.ONE_STEP).dyadic_exponent is None

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
            assert compute_constant(m, Field.REAL, Strategy.ONE_STEP).dyadic_exponent == exponent
        assert compute_constant(12, Field.REAL, Strategy.ONE_STEP).value == pytest.approx(
            9.243, abs=5e-3
        )
        assert compute_constant(3, Field.REAL, Strategy.ONE_STEP).value == pytest.approx(
            1.782, abs=5e-3
        )


class TestRealTwoStep:
    def test_closed_form_exponents(self):
        for m in range(2, 15):
            if m % 2 == 0:
                expected = F(m * m + 6 * m - 8, 8 * m)
            else:
                expected = F(m * m + 6 * m - 7, 8 * m)
            assert compute_constant(m, Field.REAL, Strategy.TWO_STEP).dyadic_exponent == expected

    def test_examples(self):
        six, seven, three = (compute_constant(m, Field.REAL, Strategy.TWO_STEP) for m in (6, 7, 3))
        assert six.dyadic_exponent == F(4, 3)
        assert six.value == pytest.approx(2.520, abs=5e-3)
        assert seven.dyadic_exponent == F(3, 2)
        assert seven.value == pytest.approx(2.828, abs=5e-3)
        assert three.dyadic_exponent == F(5, 6)  # base passthrough


class TestRealHalving:
    def test_published_column(self):
        for m, printed in REAL_TABLE.items():
            rec = compute_constant(m, Field.REAL, Strategy.HALVING)
            assert rec.value == pytest.approx(printed, abs=5e-3)

    def test_exact_exponents(self):
        assert compute_constant(4, Field.REAL, Strategy.HALVING).dyadic_exponent == F(1)
        assert compute_constant(9, Field.REAL, Strategy.HALVING).dyadic_exponent == F(29, 18)
        assert compute_constant(12, Field.REAL, Strategy.HALVING).dyadic_exponent == F(11, 6)

    def test_even_halving_identity(self):
        for m in range(4, 25, 2):
            parent = compute_constant(m, Field.REAL, Strategy.HALVING).dyadic_exponent
            child = compute_constant(m // 2, Field.REAL, Strategy.HALVING).dyadic_exponent
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
        rec = compute_constant(26, Field.REAL, Strategy.HALVING)
        assert rec.dyadic_exponent is None and rec.closed_form is None
        branches = {use.branch for step in rec.trace for use in step.khinchine}
        assert Branch.GAMMA_FORMULA in branches
        # while everything at or below 24 is exact
        assert compute_constant(24, Field.REAL, Strategy.HALVING).dyadic_exponent is not None


class TestComplexOneStep:
    def test_base_is_grothendieck_literal(self):
        rec = compute_constant(2, Field.COMPLEX, Strategy.ONE_STEP)
        assert rec.value == K_G_UPPER
        assert rec.closed_form.kg == 1

    def test_closed_form(self):
        for m in range(2, 14):
            expected = 2.0 ** ((m * m + m - 6) / (4 * m)) * K_G_UPPER ** (2.0 / m)
            rec = compute_constant(m, Field.COMPLEX, Strategy.ONE_STEP)
            assert rec.value == pytest.approx(expected, rel=1e-12)
            assert rec.closed_form.two == F(m * m + m - 6, 4 * m)
            assert rec.closed_form.kg == F(2, m)

    def test_single_step_example(self):
        expected = 2.0 ** (1.0 / 3.0) * (K_G_UPPER / 2.0**-0.25) ** (2.0 / 3.0)
        rec = compute_constant(3, Field.COMPLEX, Strategy.ONE_STEP)
        assert rec.value == pytest.approx(expected, rel=1e-12)

    def test_never_pure_dyadic(self):
        for m in (2, 5, 9, 13):
            rec = compute_constant(m, Field.COMPLEX, Strategy.ONE_STEP)
            assert rec.dyadic_exponent is None
            assert "K_G" in rec.extra_factor


class TestComplexHalving:
    def test_bases(self):
        for m in range(2, 7):
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert rec.value == pytest.approx(TWO_OVER_SQRT_PI ** (m - 1), rel=1e-14)
            assert rec.closed_form.tosp == m - 1
            assert rec.dyadic_exponent is None

    def test_level_seven(self):
        rec = compute_constant(7, Field.COMPLEX, Strategy.HALVING)
        assert rec.value == pytest.approx(1.9293, abs=1e-4)
        assert rec.closed_form.two == F(1, 2)
        assert rec.closed_form.tosp == F(18, 7)

    def test_published_column(self):
        for m, printed in COMPLEX_TABLE.items():
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert rec.value == pytest.approx(printed, abs=5e-3)

    def test_crossover_against_queffelec(self):
        for m in range(7, 17):
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert rec.value < TWO_OVER_SQRT_PI ** (m - 1)
        for m in (4, 5, 6):
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert rec.value >= TWO_OVER_SQRT_PI ** (m - 1) * (1.0 - 1e-14)


class TestBaselines:
    def test_original_at_3(self):
        rec = compute_constant(3, Field.COMPLEX, Strategy.BASELINE_ORIGINAL)
        assert rec.value == pytest.approx(4.160, abs=5e-3)

    def test_kaijser(self):
        five, hundred, seven = (
            compute_constant(m, Field.COMPLEX, Strategy.BASELINE_KAIJSER) for m in (5, 100, 7)
        )
        assert five.value == 4.0
        assert hundred.value == pytest.approx(7.96131459e14, rel=1e-6)
        assert seven.dyadic_exponent == F(3)

    def test_queffelec(self):
        fifty, four = (
            compute_constant(m, Field.COMPLEX, Strategy.BASELINE_QUEFFELEC_DS) for m in (50, 4)
        )
        assert fifty.value == pytest.approx(372.0, rel=1e-2)
        assert four.closed_form.tosp == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            compute_constant(1, Field.COMPLEX, Strategy.BASELINE_KAIJSER)


class TestBestConstant:
    def test_complex_level_four_prefers_queffelec(self):
        rec = compute_constant(4, Field.COMPLEX, Strategy.BEST)
        assert rec.value == pytest.approx(TWO_OVER_SQRT_PI**3, rel=1e-14)
        assert rec.strategy is Strategy.BASELINE_QUEFFELEC_DS

    def test_real_level_nine_prefers_halving(self):
        rec = compute_constant(9, Field.REAL, Strategy.BEST)
        assert rec.strategy is Strategy.HALVING
        assert rec.value == pytest.approx(3.055, abs=5e-3)

    def test_shared_base_value(self):
        rec = compute_constant(2, Field.REAL, Strategy.BEST)
        assert rec.value == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_dominance(self):
        for m in range(2, 51):
            best = compute_constant(m, Field.REAL, Strategy.BEST)
            kaijser = compute_constant(m, Field.COMPLEX, Strategy.BASELINE_KAIJSER)
            assert best.value <= kaijser.value * (1.0 + 1e-12)
        for m in range(7, 51):
            rec = compute_constant(m, Field.COMPLEX, Strategy.HALVING)
            assert rec.value <= TWO_OVER_SQRT_PI ** (m - 1) * (1.0 + 1e-12)

    @pytest.mark.parametrize("field", list(Field))
    def test_each_strategy_below_kaijser(self, field):
        # every recursion on its own, and the Queffelec-DS baseline, is at
        # most Kaijser's 2^((m-1)/2) at every level Kaijser has in the double
        # range (up to 2048), and strictly below it from m = 3
        strategies = tuple(
            s
            for s in (Strategy.ONE_STEP, Strategy.TWO_STEP, Strategy.HALVING, Strategy.BASELINE_QUEFFELEC_DS)
            if is_stated_for(field, s)
        )
        kaijser, *columns = constants_columns(field, (Strategy.BASELINE_KAIJSER, *strategies), 2048)
        for strategy, column in zip(strategies, columns):
            assert column[0].value <= kaijser[0].value, strategy
            above = [rec.m for rec, bound in zip(column[1:], kaijser[1:]) if not rec.value < bound.value]
            assert above == [], strategy


class TestRecordConsistency:
    def test_value_matches_exponent(self):
        for m in range(2, 25):
            for strategy in (Strategy.ONE_STEP, Strategy.TWO_STEP, Strategy.HALVING):
                rec = compute_constant(m, Field.REAL, strategy)
                if rec.dyadic_exponent is not None:
                    assert abs(rec.value - 2.0 ** float(rec.dyadic_exponent)) <= 1e-12 * rec.value

    def test_value_matches_closed_form(self):
        for m in range(2, 25):
            for strategy in (Strategy.HALVING, Strategy.ONE_STEP):
                rec = compute_constant(m, Field.COMPLEX, strategy)
                if rec.closed_form is not None:
                    assert rec.value == pytest.approx(rec.closed_form.value(), rel=1e-12)

    def test_monotone_in_m(self):
        stated = [
            (Field.REAL, Strategy.ONE_STEP),
            (Field.REAL, Strategy.TWO_STEP),
            (Field.REAL, Strategy.HALVING),
            (Field.COMPLEX, Strategy.ONE_STEP),
            (Field.COMPLEX, Strategy.HALVING),
            (Field.COMPLEX, Strategy.BASELINE_KAIJSER),
            (Field.COMPLEX, Strategy.BASELINE_QUEFFELEC_DS),
            (Field.COMPLEX, Strategy.BASELINE_ORIGINAL),
        ]
        for field, strategy in stated:
            previous = compute_constant(2, field, strategy).value
            for m in range(3, 51):
                current = compute_constant(m, field, strategy).value
                assert current >= previous * (1.0 - 1e-12)
                previous = current


class TestTraces:
    @pytest.mark.parametrize("m", [2, 3, 4, 7, 9, 12, 24, 25, 26, 37, 50])
    def test_replay_halving(self, m):
        for field in (Field.REAL, Field.COMPLEX):
            rec = compute_constant(m, field, Strategy.HALVING)
            assert replay_trace(rec.trace) == pytest.approx(rec.value, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 8, 13, 14, 30])
    def test_replay_linear_strategies(self, m):
        for field, strategy in (
            (Field.REAL, Strategy.ONE_STEP),
            (Field.COMPLEX, Strategy.ONE_STEP),
            (Field.REAL, Strategy.TWO_STEP),
        ):
            rec = compute_constant(m, field, strategy)
            assert replay_trace(rec.trace) == pytest.approx(rec.value, rel=1e-12)

    def test_halving_trace_structure(self):
        rec = compute_constant(12, Field.REAL, Strategy.HALVING)
        rules = [(s.rule, s.m) for s in rec.trace]
        assert rules == [("base", 3), ("even-halving", 6), ("even-halving", 12)]
        # post-order from m, low child before high, each level once
        rules = [(s.rule, s.m) for s in compute_constant(23, Field.REAL, Strategy.HALVING).trace]
        assert rules == [
            ("base", 2),
            ("base", 3),
            ("odd-split", 5),
            ("even-halving", 6),
            ("odd-split", 11),
            ("even-halving", 12),
            ("odd-split", 23),
        ]
        rules = [(s.rule, s.m) for s in compute_constant(13, Field.COMPLEX, Strategy.HALVING).trace]
        assert rules == [("base", 6), ("base", 3), ("base", 4), ("odd-split", 7), ("odd-split", 13)]
        rec9 = compute_constant(9, Field.REAL, Strategy.HALVING)
        odd = [s for s in rec9.trace if s.rule == "odd-split"][-1]
        assert odd.split.f1 == F(4, 9) and odd.split.f2 == F(5, 9)
        assert odd.children == (4, 5)

    @pytest.mark.parametrize(
        "m, field, strategy, steps",
        [
            pytest.param(4094, Field.COMPLEX, Strategy.ONE_STEP, 4093, id="complex-one-step"),
            pytest.param(8185, Field.REAL, Strategy.TWO_STEP, 4092, id="real-two-step"),
        ],
    )
    def test_deep_chain_is_walked_without_recursion(self, m, field, strategy, steps):
        # the longest chains within the double range: deriving or walking
        # them by recursion would pass Python's default limit of 1000 frames
        rec = compute_constant(m, field, strategy)
        assert len(rec.trace) == steps
        assert replay_trace(rec.trace) == rec.value

    def test_trace_is_walked_once(self):
        rec = compute_constant(23, Field.REAL, Strategy.HALVING)
        assert rec.trace is rec.trace

    def test_best_attaches_winning_trace(self):
        rec = compute_constant(9, Field.REAL, Strategy.BEST)
        assert replay_trace(rec.trace) == pytest.approx(rec.value, rel=1e-12)

    @pytest.mark.parametrize("field, strategy", STATED)
    def test_every_table_record_replays(self, field, strategy):
        for rec in constants_columns(field, (strategy,), 64)[0]:
            assert replay_trace(rec.trace) == rec.value

    def test_replay_does_not_rederive(self, monkeypatch):
        # replay_trace is the independent check: it must not reach the
        # derivation code, so break every piece of that code and replay
        records = [
            compute_constant(37, Field.REAL, Strategy.HALVING),
            compute_constant(37, Field.COMPLEX, Strategy.HALVING),
            compute_constant(30, Field.REAL, Strategy.TWO_STEP),
            compute_constant(30, Field.COMPLEX, Strategy.ONE_STEP),
            compute_constant(30, Field.COMPLEX, Strategy.BASELINE_KAIJSER),
        ]
        # the trace walk is derivation code too: take each trace first
        traces = [(rec.trace, rec.value) for rec in records]

        def broken(*args, **kwargs):
            raise AssertionError("replay_trace reached the derivation code")

        for name in ("khinchine_a", "_split", "blei_f", "_exact_update", "_classical"):
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
        stated=st.sampled_from(STATED),
        m=st.integers(2, 500),
    )
    def test_any_record_replays_exactly(self, stated, m):
        field, strategy = stated
        rec = compute_constant(m, field, strategy)
        assert replay_trace(rec.trace) == rec.value

    def test_replay_rejects_unknown_rule(self):
        trace = compute_constant(4, Field.REAL, Strategy.HALVING).trace
        forged = (*trace[:-1], dataclasses.replace(trace[-1], rule="tripling"))
        with pytest.raises(ValueError, match="unknown trace rule 'tripling'"):
            replay_trace(forged)


class TestTableAndDispatch:
    def test_table_rows(self):
        records = constants_columns(Field.REAL, (Strategy.HALVING,), 12)[0]
        assert [r.m for r in records] == list(range(2, 13))
        again = constants_columns(Field.REAL, (Strategy.HALVING,), 12)[0]
        assert [r.value for r in records] == [r.value for r in again]

    def test_table_domain(self):
        with pytest.raises(DomainError):
            constants_columns(Field.REAL, (Strategy.HALVING,), 1)

    def test_two_step_is_real_only(self):
        with pytest.raises(DomainError):
            compute_constant(6, Field.COMPLEX, Strategy.TWO_STEP)

    def test_queffelec_is_complex_only(self):
        assert not is_stated_for(Field.REAL, Strategy.BASELINE_QUEFFELEC_DS)
        assert is_stated_for(Field.COMPLEX, Strategy.BASELINE_QUEFFELEC_DS)
        with pytest.raises(DomainError, match="complex scalars only"):
            compute_constant(2, Field.REAL, Strategy.BASELINE_QUEFFELEC_DS)

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
        assert [r.value for r in one_step] == [
            compute_constant(m, Field.REAL, Strategy.ONE_STEP).value for m in range(2, 31)
        ]
        # a level's step object is shared by every record that passes through it
        assert one_step[-1].trace[5] is one_step[10].trace[5] is again[20].trace[5]
        assert [r.value for r in best] == [
            compute_constant(m, Field.REAL, Strategy.BEST).value for m in range(2, 31)
        ]


class TestTableCost:
    @staticmethod
    def _derive_calls(monkeypatch, m_max):
        calls = 0
        original = bhc.recursion._Ladder.derive

        def counted(self, k):
            nonlocal calls
            calls += 1
            return original(self, k)

        monkeypatch.setattr(bhc.recursion._Ladder, "derive", counted)
        constants_columns(Field.REAL, (Strategy.BEST,), m_max)
        return calls

    def test_best_table_is_linear_in_m_max(self, monkeypatch):
        # every strategy's level is derived once per table, not once per row
        small = self._derive_calls(monkeypatch, 100)
        large = self._derive_calls(monkeypatch, 200)
        assert 0 < small and large <= 2.5 * small

    def test_engine_makes_no_blei_call(self, monkeypatch):
        # every split is built in closed form: w = 2k/(k+1), f_i = m_i/k
        def broken(*args):
            raise AssertionError("the engine evaluated a Blei formula")

        monkeypatch.setattr(bhc.exponents, "blei_w", broken)
        monkeypatch.setattr(bhc.exponents, "blei_f", broken)
        monkeypatch.setattr(bhc.recursion, "blei_f", broken)
        for field, strategy in STATED:
            (column,) = constants_columns(field, (strategy,), 200)
            assert len(column) == 199
        cfg = RunConfig(command="explain", field=Field.REAL, strategy=Strategy.TWO_STEP, m=999)
        doc = run_explain(cfg)
        assert len(doc.rows) == 499  # the two-step chain 999, 997, ..., 5 and the base 3

    def test_chain_table_memory_is_linear_in_m_max(self):
        # the records share their ladder's steps; a trace tuple per record
        # would hold O(m_max^2) step references
        def held(m_max):
            tracemalloc.start()
            try:
                (table,) = constants_columns(Field.REAL, (Strategy.ONE_STEP,), m_max)
                assert len(table) == m_max - 1
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        assert held(2000) <= 2.5 * held(1000)


class TestDoubleRange:
    def test_baselines_beyond_the_double_range(self):
        kaijser = compute_constant(2048, Field.COMPLEX, Strategy.BASELINE_KAIJSER)
        original = compute_constant(2038, Field.COMPLEX, Strategy.BASELINE_ORIGINAL)
        assert math.isfinite(kaijser.value)
        assert math.isfinite(original.value)
        for m, strategy in ((2049, Strategy.BASELINE_KAIJSER), (2039, Strategy.BASELINE_ORIGINAL)):
            with pytest.raises(DomainError, match="double range"):
                compute_constant(m, Field.COMPLEX, strategy)

    @pytest.mark.parametrize("field", list(Field))
    def test_best_skips_infinite_candidates(self, field):
        rec = compute_constant(2049, field, Strategy.BEST)
        assert rec.strategy is Strategy.HALVING
        assert rec.value == compute_constant(2049, field, Strategy.HALVING).value
        assert math.isfinite(rec.value)

    def test_chains_beyond_the_double_range(self):
        assert math.isfinite(compute_constant(4094, Field.COMPLEX, Strategy.ONE_STEP).value)
        with pytest.raises(DomainError, match="one-step constant at m=4095 exceeds the double range"):
            compute_constant(4095, Field.COMPLEX, Strategy.ONE_STEP)
        # best reads the infinite one-step candidate and passes it over
        rec = compute_constant(4095, Field.COMPLEX, Strategy.BEST)
        assert rec.strategy is Strategy.HALVING and math.isfinite(rec.value)


# Diniz, Munoz-Fernandez, Pellegrino and Seoane-Sepulveda (Proc. AMS 2014):
# for real scalars C_m >= 2^(1 - 1/m), attained by explicit +-1 forms.
REAL_STRATEGIES = [s for s in Strategy if is_stated_for(Field.REAL, s)]


class TestRealLowerBound:
    @pytest.mark.parametrize("strategy", REAL_STRATEGIES)
    def test_no_real_constant_undercuts_the_lower_bound(self, strategy):
        for rec in constants_columns(Field.REAL, (strategy,), 64)[0]:
            assert rec.value >= 2.0 ** (1.0 - 1.0 / rec.m)

    @pytest.mark.parametrize("strategy", REAL_STRATEGIES)
    def test_littlewood_form_passes(self, strategy):
        # the real bilinear form that attains the ratio 2^(1/2)
        report = bh_check(littlewood_form(2), compute_constant(2, Field.REAL, strategy))
        assert report.passed
