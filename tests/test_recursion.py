"""Constants under every strategy: closed forms, tables, identities, traces."""

import dataclasses
import json
import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

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
from bhc.reports import _COMPARE_COLUMNS, RunConfig, run_explain, trace_row
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
        # the level is checked before a ladder looks it up: 2.0 and 3.0 hash like
        # the base levels 2 and 3, which the real halving and two-step ladders
        # hold from the start
        for m in (1, 0, 2.0, 3.0, True, "2"):
            with pytest.raises(DomainError, match="must be an integer >= 2"):
                compute_constant(m, field, strategy)


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
            assert "K_G" in rec.exact_label


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

    @pytest.mark.parametrize("field", list(Field))
    def test_best_is_the_first_smallest_of_the_former_candidates(self, field):
        # BEST reads only the strategies that can be the smallest; at every level
        # up to m = 8186, where the last dropped candidate (two-step) leaves the
        # double range, it returns the record the former six candidates' minimum did
        former = (
            Strategy.BASELINE_ORIGINAL, Strategy.BASELINE_KAIJSER, Strategy.BASELINE_QUEFFELEC_DS,
            Strategy.HALVING, Strategy.TWO_STEP, Strategy.ONE_STEP,
        )
        former = [s for s in former if is_stated_for(field, s)]
        read = bhc.recursion._reader(field)

        def value(strategy, m):
            try:
                return read(strategy, m).value
            except DomainError as error:
                assert "exceeds the double range" in str(error)
                return math.inf

        for m in range(2, 8187):
            values = [value(s, m) for s in former]
            first = values.index(min(values))
            best = read(Strategy.BEST, m)
            assert (best.strategy, best.value) == (former[first], values[first]), m
        # past m = 8187 none of the dropped can win either: an overflowed chain
        # stays inf, a closed form grows with m, and halving stays finite
        dropped = (Strategy.BASELINE_ORIGINAL, Strategy.TWO_STEP, Strategy.ONE_STEP)
        for m in (8186, 8187):
            assert all(value(s, m) == math.inf for s in dropped if s in former)
        assert math.isfinite(value(Strategy.HALVING, 8187))

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

    @pytest.mark.parametrize("field, strategy", STATED)
    def test_every_step_carries_its_closed_form(self, field, strategy):
        # a level is one step, base and baseline levels included: each step's
        # closed form is the one its level's own record reports
        (column,) = constants_columns(field, (strategy,), 300)
        steps = {id(step): step for rec in column for step in rec.trace}
        assert any(step.rule in ("base", "baseline") for step in steps.values())
        for step in steps.values():
            assert step.closed_form == compute_constant(step.m, field, strategy).closed_form


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

    @pytest.mark.parametrize(
        "m, field, strategy",
        [(2000, Field.REAL, Strategy.BEST), (1000, Field.COMPLEX, Strategy.HALVING)],
        ids=["real-best", "complex-halving"],
    )
    def test_split_is_built_once_when_read(self, m, field, strategy):
        trace = compute_constant(m, field, strategy).trace
        for step in trace:
            rule = bhc.recursion._RULES.get(step.rule)
            split = step.split
            assert split == (None if rule is None else bhc.recursion._split(step.m, rule.parts(step.m)))
            assert step.split is split
        assert sum(step.split is not None for step in trace) > 1

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

    @pytest.mark.parametrize("field, strategy", STATED)
    def test_integer_powers_replay_from_json(self, field, strategy):
        # a step of level k raises A_p to the int k - c for its child c; JSON
        # prints it as str(k - c), and a reader that takes it back as a Fraction,
        # as perfbench does, replays every value bit for bit
        read_back = {}

        def from_json(step):
            for c, use in zip(step.children, step.khinchine, strict=True):
                assert type(use.power) is int and use.power == step.m - c
            row = json.loads(json.dumps(trace_row(step)))
            uses = (SimpleNamespace(value=u["value"], power=Fraction(u["power"])) for u in row["khinchine"])
            return SimpleNamespace(
                rule=row["rule"], m=row["m"], children=tuple(row["children"]),
                khinchine=tuple(uses), value=row["value"],
            )

        for rec in constants_columns(field, (strategy,), 300)[0]:
            for step in rec.trace:  # the records share their steps: read each back once
                if id(step) not in read_back:
                    read_back[id(step)] = from_json(step)
            rows = tuple(read_back[id(step)] for step in rec.trace)
            assert replay_trace(rec.trace) == replay_trace(rows) == rec.value

    def test_replay_rejects_unknown_rule(self):
        trace = compute_constant(4, Field.REAL, Strategy.HALVING).trace
        forged = (*trace[:-1], dataclasses.replace(trace[-1], rule="tripling"))
        with pytest.raises(ValueError, match="unknown trace rule 'tripling'"):
            replay_trace(forged)

    def test_replay_rejects_an_empty_trace(self):
        with pytest.raises(ValueError, match="an empty trace has no value"):
            replay_trace(())

    def test_replay_rejects_a_level_read_before_it_is_derived(self):
        # real halving at 12 rests on 6, which rests on the base 3: drop the base
        trace = compute_constant(12, Field.REAL, Strategy.HALVING).trace
        assert [step.m for step in trace] == [3, 6, 12]
        with pytest.raises(ValueError, match="level 6 reads level 3, which no earlier step derives"):
            replay_trace(trace[1:])

    @pytest.mark.parametrize(
        "m, keep, message",
        [(12, 0, "level 12 has 1 children but 0 Khinchine uses"),
         (7, 1, "level 7 has 2 children but 1 Khinchine uses")],
    )
    def test_replay_rejects_khinchine_uses_that_do_not_match_the_children(self, m, keep, message):
        # the float update zips children with uses: real halving at 12 with no
        # use replayed 1.0 instead of 3.5636, and at 7 with one of its two uses
        # 1.5614 instead of 2.6918
        trace = compute_constant(m, Field.REAL, Strategy.HALVING).trace
        last = trace[-1]
        forged = (*trace[:-1], dataclasses.replace(last, khinchine=last.khinchine[:keep]))
        with pytest.raises(ValueError, match=message):
            replay_trace(forged)
        assert replay_trace(trace) == pytest.approx({12: 3.5636, 7: 2.6918}[m], abs=5e-5)

    def test_replay_builds_no_fraction(self, monkeypatch):
        # every rule's shift is an int pair, so the float update needs no Fraction
        records = [
            compute_constant(500, Field.REAL, strategy)
            for strategy in (Strategy.ONE_STEP, Strategy.TWO_STEP, Strategy.HALVING)
        ]
        traces = [(rec.trace, rec.value) for rec in records]

        def broken(*args):
            raise AssertionError("the float update built a Fraction")

        monkeypatch.setattr(bhc.recursion, "Fraction", broken)
        for trace, value in traces:
            assert replay_trace(trace) == value


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

    @pytest.mark.parametrize("field", ["real", "complex", None, Strategy.BEST], ids=repr)
    @pytest.mark.parametrize("strategy", [Strategy.BEST, Strategy.HALVING, Strategy.ONE_STEP])
    def test_unknown_field(self, field, strategy):
        # a field that is not a Field is named, whatever the strategy; "real" once
        # reached an empty min() under BEST and was called unstated under HALVING
        with pytest.raises(DomainError, match=f"unknown field {re.escape(repr(field))}"):
            compute_constant(3, field, strategy)
        with pytest.raises(DomainError, match=f"unknown field {re.escape(repr(field))}"):
            constants_columns(field, (strategy,), 5)

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
    def _derive_calls(monkeypatch, m_max, field=Field.REAL, strategies=(Strategy.BEST,)):
        """The (strategy, level) of every ``derive`` call of one table."""
        calls = []
        original = bhc.recursion._Ladder.derive

        def counted(self, k, *args):
            calls.append((self.strategy, k))
            return original(self, k, *args)

        with monkeypatch.context() as patch:
            patch.setattr(bhc.recursion._Ladder, "derive", counted)
            constants_columns(field, strategies, m_max)
        return calls

    def test_best_table_is_linear_in_m_max(self, monkeypatch):
        # every strategy's level is derived once per table, not once per row
        small = len(self._derive_calls(monkeypatch, 100))
        large = len(self._derive_calls(monkeypatch, 200))
        assert 0 < small and large <= 2.5 * small

    @pytest.mark.parametrize(
        "field, others",
        [(Field.REAL, (Strategy.ONE_STEP,)), (Field.COMPLEX, (Strategy.BASELINE_ORIGINAL,))],
        ids=["real", "complex"],
    )
    def test_compare_columns_derive_no_level_again(self, monkeypatch, field, others):
        # the compare columns that are candidates of BEST read its ladders; the
        # others derive their own levels, and no level is derived twice
        compare = tuple(strategy for _, strategy in _COMPARE_COLUMNS[field])
        assert [s for s in compare if s not in bhc.recursion._CANDIDATES] == list(others)
        alone = self._derive_calls(monkeypatch, 150, field)
        apart = self._derive_calls(monkeypatch, 150, field, others)
        together = self._derive_calls(monkeypatch, 150, field, (Strategy.BEST, *compare))
        assert len(together) == len(set(together)) == len(alone) + len(apart)

    def test_one_children_call_per_level(self, monkeypatch):
        # the post-order walk takes a level's children once and hands them to derive
        calls = 0
        original = bhc.recursion._Rule.children

        def counted(self, k):
            nonlocal calls
            calls += 1
            return original(self, k)

        monkeypatch.setattr(bhc.recursion._Rule, "children", counted)
        derived = self._derive_calls(
            monkeypatch, 500, Field.REAL, (Strategy.ONE_STEP, Strategy.HALVING, Strategy.TWO_STEP)
        )
        # one-step derives 3..500 from the base 2, halving and two-step 4..500 from 2 and 3
        assert calls == len(derived) == 498 + 497 + 497

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

    def test_tables_build_no_split(self, monkeypatch):
        # a level's value and closed form need no split; only explain reads one
        def broken(*args):
            raise AssertionError("a table built a Blei split")

        monkeypatch.setattr(bhc.recursion, "_split", broken)
        for field, strategy in STATED:
            (column,) = constants_columns(field, (strategy,), 300)
            assert len(column) == 299

    def test_one_khinchine_table_per_call(self, monkeypatch):
        # the ladders of a call share one table of A_{2c/(c+1)}, and no call
        # reads the table of another
        exponents = []

        def counted(p):
            exponents.append(p)
            return khinchine_a(p)

        monkeypatch.setattr(bhc.recursion, "khinchine_a", counted)
        for _ in range(2):
            exponents.clear()
            # one-step consumes A_{2c/(c+1)} at every c = 2..149
            constants_columns(Field.REAL, (Strategy.BEST, Strategy.ONE_STEP), 150)
            assert len(exponents) == len(set(exponents)) == 148

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
        # best, which does not read the one-step chain, stays finite past its overflow
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


class TestProductPremise:
    def test_one_step_product_is_the_smallest_of_its_family(self):
        # the rule family C_m = C_k A_{2k/(k+1)}^-(m-k), k = 1..m-1 (k = m/2 is
        # even-halving's formula): from D_1 = 1 its minimum is at k = m - 1 at every
        # level, so D_m is the Bayart-Pellegrino-Seoane-Sepulveda product
        # prod_{j=2}^{m} A_{(2j-2)/j}^-1
        a = {k: khinchine_a(F(2 * k, k + 1)).a_p for k in range(1, 200)}
        d = {1: 1.0}
        for m in range(2, 201):
            (smallest, k), *others = sorted((d[k] / a[k] ** (m - k), k) for k in range(1, m))
            assert k == m - 1
            if others:  # the gap is smallest at m = 200, about 9.2e-6
                assert others[0][0] >= smallest * (1 + 9e-6)
            d[m] = smallest
        # on the dyadic branch it is 2^(H_{m-1}/2), H_k the k-th harmonic number
        for m in range(2, 14):
            exact = 2.0 ** float(sum(F(1, j) for j in range(1, m)) / 2)
            assert abs(d[m] - exact) <= 2 * math.ulp(exact)
        assert [round(d[m], 4) for m in (3, 4, 10, 100)] == [1.6818, 1.8877, 2.6656, 6.1493]
