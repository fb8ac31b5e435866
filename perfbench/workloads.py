"""Workload definitions and the output gate of the bhc benchmark.

A workload is a list of ``bhc`` command lines built from the workload seed.
One pass runs every command once, in order, in one closed-loop client.
Each workload exists to stress a different layer; README.md records why
and which end-to-end metric each per-layer metric should move.

The gate (:func:`check_output`) runs outside the timed region.  It parses
what a command printed, checks it against independent recomputation, and
counts the work items the command produced (constant and trace rows,
individual checks, or search evaluations).  Everything here is pure
Python on top of ``bhc``; nothing is timed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

DEFAULT_SEED = 42

# A pass is repeated until the run's time is spent, but never fewer times
# than this, so the tail percentile keeps at least ten samples beyond it.
# Each workload has an odd number of commands of steady cost, so the
# median and the tail fall inside one command's samples, not on the edge
# between two commands.
MIN_PASSES = 4

# Relative tolerance for a {num, den} exponent against its double.
EXPONENT_RTOL = 1e-12

_WALL_TIME = re.compile(r'"wall_time": [^\n]*')


def tables(seed: int) -> list[list[str]]:
    """Constants engine only: O(M^2) ladders in exact Fraction arithmetic."""
    s = str(seed)
    two_step_m = str(990 + seed % 11)
    one_step_m = str(490 + seed % 11)
    return [
        ["constants", "--field", "real", "--strategy", "best", "--max-m", "150", "--compare",
         "--format", "json", "--seed", s],
        ["constants", "--field", "complex", "--strategy", "best", "--max-m", "150", "--compare",
         "--format", "json", "--seed", s],
        ["constants", "--field", "real", "--strategy", "halving", "--max-m", "600",
         "--format", "csv", "--seed", s],
        ["constants", "--field", "complex", "--strategy", "halving", "--max-m", "400",
         "--seed", s],
        ["explain", "--field", "real", "--strategy", "two-step", "--m", two_step_m,
         "--format", "json", "--seed", s],
        ["explain", "--field", "complex", "--strategy", "one-step", "--m", one_step_m,
         "--seed", s],
        ["baselines", "--max-m", "200", "--format", "csv", "--seed", s],
    ]


def certify(seed: int) -> list[list[str]]:
    """Exact oracles at large shapes; one small best_constant per command."""
    s = str(seed)
    tail = ["--format", "json", "--seed", s]
    return [
        ["verify", "bh", "--m", "8", "--dim", "2", "--trials", "5", *tail],
        ["verify", "bh", "--m", "3", "--dim", "12", "--trials", "3", *tail],
        ["verify", "bh", "--m", "3", "--dim", "8", "--trials", "20", *tail],
        ["verify", "bh", "--m", "4", "--dim", "4", "--trials", "10", *tail],
        ["verify", "summing", "--m", "4", "--dim", "4", "--trials", "20", *tail],
        ["verify", "khinchine", "--n", "16", "--trials", "40", *tail],
        ["verify", "blei", "--trials", "1000", *tail],
    ]


def search(seed: int) -> list[list[str]]:
    """Tens of thousands of tiny oracle calls from extremal_search.

    Every real shape here climbs for more than 1000 evaluations per
    restart, so the budget is always spent and the work per pass is the
    same at every seed.  The cost of one complex phase-ascent evaluation
    depends strongly on the form, so the complex searches are kept short
    and are the two cheapest commands of the pass.
    """
    real = [
        ["search", "--m", "3", "--dim", "3", "--budget", "6000"],
        ["search", "--m", "2", "--dim", "5", "--budget", "8000"],
        ["search", "--m", "2", "--dim", "6", "--budget", "8000"],
        ["search", "--m", "2", "--dim", "7", "--budget", "8000"],
        ["search", "--m", "2", "--dim", "8", "--budget", "8000"],
    ]
    complex_ = [
        ["search", "--field", "complex", "--m", "2", "--dim", "2", "--budget", "20",
         "--format", "json", "--seed", str(seed + 1000 * k)]
        for k in range(2)
    ]
    return [[*cmd, "--format", "json", "--seed", str(seed)] for cmd in real] + complex_


WORKLOADS = {"tables": tables, "certify": certify, "search": search}


def tail_level(commands_per_pass: int) -> int:
    """Highest whole percentile with at least ten samples beyond it at MIN_PASSES."""
    return math.floor(100 * (1 - 10 / (commands_per_pass * MIN_PASSES)))


def without_wall_time(text: str) -> str:
    """An output with its one non-deterministic value, wall_time, blanked."""
    return _WALL_TIME.sub('"wall_time": null', text)


def stripped_digest(text: str) -> str:
    """SHA-256 of an output with its wall_time value removed."""
    return hashlib.sha256(without_wall_time(text).encode()).hexdigest()


# --------------------------------------------------------------------------
# Output gate
# --------------------------------------------------------------------------

@dataclass
class Checked:
    """Verdict on one command's output."""

    ok: bool
    work: int  # rows, checks or evaluations, by command
    problems: list[str]
    search_ratio: float | None = None


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def check_output(argv: list[str], code: int, text: str) -> Checked:
    """Check one command's exit code and output; never raises on bad output."""
    problems: list[str] = []
    if code != 0:
        return Checked(False, 0, [f"exit code {code}"])
    try:
        checker = {
            "constants": _check_constants,
            "explain": _check_explain,
            "baselines": _check_baselines,
            "verify": _check_verify,
            "search": _check_search,
        }[argv[0]]
        work, ratio = checker(argv, text, problems)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return Checked(False, 0, [f"unparseable output: {exc!r}"])
    return Checked(not problems, work, problems, ratio)


def _rows(argv: list[str], text: str, problems: list[str]) -> list[dict]:
    if _option(argv, "--format") == "json":
        payload = json.loads(text)
        if payload["failures"]:
            problems.append(f"the report lists {len(payload['failures'])} failures")
        return payload["rows"]
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for key, cell in row.items():
            if key == "exponent":
                row[key] = json.loads(cell) if cell else None
            elif key not in ("field", "strategy") and not key.endswith("exact"):
                row[key] = float(cell) if "." in cell or "e" in cell else int(cell)
    return rows


def _check_exponent(row: dict, problems: list[str]) -> None:
    exponent = row["exponent"]
    if exponent is None:
        return
    exact = 2.0 ** (exponent["num"] / exponent["den"])
    if not math.isclose(exact, row["value"], rel_tol=EXPONENT_RTOL):
        problems.append(f"m={row['m']}: 2^({exponent['num']}/{exponent['den']}) != {row['value']!r}")


def _table_rows(text: str) -> list[dict]:
    """Rows of a rendered text table: title, header, dashes, then rows."""
    lines = text.splitlines()
    spans, start = [], 0
    for dashes in lines[2].split("  "):
        spans.append((start, start + len(dashes)))
        start += len(dashes) + 2
    header = [lines[1][a:b].strip() for a, b in spans]
    return [dict(zip(header, (line[a:b].strip() for a, b in spans))) for line in lines[3:]]


def _exact_value(label: str) -> float:
    """Evaluate an exact label such as ``2^(3/2) * (2/sqrt(pi))^(4)``."""
    from bhc.recursion import K_G_UPPER, TWO_OVER_SQRT_PI

    bases = {"2": 2.0, "(2/sqrt(pi))": TWO_OVER_SQRT_PI, "K_G": K_G_UPPER}
    value = 1.0
    for factor in label.split(" * "):
        base, exponent = factor.split("^(")
        value *= bases[base] ** float(Fraction(exponent.rstrip(")")))
    return value


def _check_constants_table(argv, text, problems):
    rows = _table_rows(text)
    m_max = int(_option(argv, "--max-m"))
    if [int(row["m"]) for row in rows] != list(range(2, m_max + 1)):
        problems.append("constants rows do not cover m = 2..max-m")
    precision = int(_option(argv, "--precision", "4"))
    for row in rows:
        if row["exact"] and f"{_exact_value(row['exact']):.{precision}g}" != row["value"]:
            problems.append(f"m={row['m']}: {row['exact']} does not print as {row['value']}")
    return len(rows), None


def _check_constants(argv, text, problems):
    if _option(argv, "--format", "table") == "table":
        return _check_constants_table(argv, text, problems)
    rows = _rows(argv, text, problems)
    m_max = int(_option(argv, "--max-m"))
    if [row["m"] for row in rows] != list(range(2, m_max + 1)):
        problems.append("constants rows do not cover m = 2..max-m")
    compare = [k for k in (rows[0] if rows else {}) if f"{k}_exact" in rows[0]]
    for row in rows:
        _check_exponent(row, problems)
        if _option(argv, "--strategy") == "best":
            for column in compare:
                if row["value"] > row[column]:
                    problems.append(f"m={row['m']}: best exceeds the {column} column")
    return len(rows), None


def _check_baselines(argv, text, problems):
    rows = _rows(argv, text, problems)
    for row in rows:
        if not math.isclose(row["kaijser"], 2.0 ** ((row["m"] - 1) / 2), rel_tol=EXPONENT_RTOL):
            problems.append(f"m={row['m']}: kaijser column is not 2^((m-1)/2)")
    if len(rows) != int(_option(argv, "--max-m")) - 1:
        problems.append("baselines rows do not cover m = 2..max-m")
    return len(rows), None


def _step(row: dict) -> SimpleNamespace:
    split = row["split"]
    return SimpleNamespace(
        rule=row["rule"],
        m=row["m"],
        children=tuple(row["children"]),
        split=None if split is None else SimpleNamespace(f1=Fraction(split["f1"]), f2=Fraction(split["f2"])),
        khinchine=tuple(
            SimpleNamespace(value=use["value"], power=Fraction(use["power"])) for use in row["khinchine"]
        ),
        value=row["value"],
    )


def _check_explain(argv, text, problems):
    from bhc.core import Field
    from bhc.recursion import Strategy, compute_constant, replay_trace

    m = int(_option(argv, "--m"))
    field = Field(_option(argv, "--field", "real"))
    record = compute_constant(m, field, Strategy(_option(argv, "--strategy", "halving")))
    if replay_trace(record.trace) != record.value:
        problems.append(f"replay_trace of level {m} differs from its value")
    if _option(argv, "--format") == "json":
        rows = _rows(argv, text, problems)
        if [(row["m"], row["value"]) for row in rows] != [(step.m, step.value) for step in record.trace]:
            problems.append(f"the printed trace of level {m} differs from a fresh derivation")
        if replay_trace(tuple(_step(row) for row in rows)) != record.value:
            problems.append(f"the printed trace of level {m} does not replay to its value")
        return len(rows), None
    lines = text.splitlines()
    steps = [line for line in lines if line.startswith("  [")]
    result = [line for line in lines if line.startswith("  result: ")]
    precision = int(_option(argv, "--precision", "4"))
    if len(result) != 1 or not result[0].endswith(f"{record.value:.{precision}g}"):
        problems.append(f"explained level {m} does not print its value")
    if len(steps) != len(record.trace):
        problems.append(f"explained level {m} prints {len(steps)} of {len(record.trace)} steps")
    return len(steps), None


def _check_verify(argv, text, problems):
    rows = _rows(argv, text, problems)
    for row in rows:
        if row["failed"] != 0 or row["passed"] != row["trials"]:
            problems.append(f"verify {row['check']}: {row['failed']} of {row['trials']} checks failed")
    return sum(row["trials"] for row in rows), None


def _check_search(argv, text, problems):
    import numpy as np

    from bhc.core import Field
    from bhc.verify import CERTIFIED_SLACK, MultilinearForm, mixed_norm_lhs, sup_norm_real

    (row,) = _rows(argv, text, problems)
    if row["ratio"] > row["upper_bound"] * (1.0 + CERTIFIED_SLACK):
        problems.append(f"search ratio {row['ratio']!r} exceeds the upper bound {row['upper_bound']!r}")
    ratio = None
    if "witness" in row:
        form = MultilinearForm(np.array(row["witness"]), Field.REAL)
        again = mixed_norm_lhs(form) / sup_norm_real(form)
        if not math.isclose(again, row["ratio"], rel_tol=EXPONENT_RTOL):
            problems.append(f"witness re-evaluates to {again!r}, report says {row['ratio']!r}")
        ratio = row["ratio"]
    return row["trials"], ratio
