"""Report assembly and serialization for the command-line front end.

A command parses to a :class:`RunConfig`, runs pure computations from the
other modules and lands in a :class:`ReportDocument`: schema version, config
echo, projected rows, the list of failing rows and the wall time.  The same
rows serialize to an aligned text table, CSV (header row, UTF-8, '.' decimal
separator) and JSON (schema_version "1").  JSON carries full binary doubles
via ``repr`` round-tripping plus, when a constant is an exact power of two,
the rational exponent as a {num, den} pair; tables round half-even at the
requested precision.  Output is deterministic for a fixed config and seed,
byte for byte, apart from ``wall_time``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field as dataclass_field, fields
from typing import TYPE_CHECKING, Any

from .core import DomainError, Field
from .recursion import (
    ConstantRecord,
    Strategy,
    compute_constant,
    constants_columns,
    is_stated_for,
)

if TYPE_CHECKING:
    from .verify import VerificationReport

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_SEED",
    "RunConfig",
    "ReportDocument",
    "run_constants",
    "run_explain",
    "run_baselines",
    "run_verify",
    "run_search",
]

SCHEMA_VERSION = "1"
DEFAULT_SEED = 42

_BASELINE_COLUMNS = (
    ("queffelec_ds", Strategy.BASELINE_QUEFFELEC_DS),
    ("kaijser", Strategy.BASELINE_KAIJSER),
    ("original", Strategy.BASELINE_ORIGINAL),
)

_COMPARE_COLUMNS = {
    # side-by-side columns mirroring the published comparison tables
    Field.REAL: (("one_step", Strategy.ONE_STEP), ("kaijser", Strategy.BASELINE_KAIJSER)),
    Field.COMPLEX: _BASELINE_COLUMNS,
}


@dataclass(frozen=True)
class RunConfig:
    """Echoable configuration of one CLI invocation."""

    command: str
    field: Field = Field.REAL
    strategy: Strategy = Strategy.HALVING
    m: int | None = None
    m_max: int | None = None
    dim: int | None = None
    n: int | None = None
    p: float | None = None
    trials: int | None = None
    budget: int | None = None
    seed: int = DEFAULT_SEED
    format: str = "table"
    precision: int = 4
    compare: bool = False
    verbose: bool = False
    subtarget: str | None = None

    def __post_init__(self):
        if not 1 <= self.precision <= 12:
            raise DomainError(f"precision must lie in [1, 12], got {self.precision}")
        if self.format not in ("table", "csv", "json"):
            raise DomainError(f"unknown format {self.format!r}")

    def echo(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = value.value if isinstance(value, (Field, Strategy)) else value
        return out


@dataclass
class ReportDocument:
    config: RunConfig
    rows: list[dict[str, Any]]
    failures: list[dict[str, Any]] = dataclass_field(default_factory=list)
    wall_time: float = 0.0
    title: str = ""

    @property
    def exit_status(self) -> int:
        return 0 if not self.failures else 1

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.echo(),
            "rows": self.rows,
            "failures": self.failures,
            "wall_time": self.wall_time,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        if self.rows:
            writer = csv.DictWriter(buffer, fieldnames=list(self.rows[0].keys()), lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        return buffer.getvalue()

    def to_table(self) -> str:
        lines = []
        if self.title:
            lines.append(self.title)
        if self.rows:
            # the raw {num, den} exponent duplicates the "exact" column
            headers = [k for k in self.rows[0].keys() if k != "exponent"]
            cells = [[_table_cell(row.get(h), self.config.precision) for h in headers] for row in self.rows]
            widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(headers)]
            lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            lines.append("  ".join("-" * w for w in widths))
            for row_cells in cells:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row_cells, widths)))
        if self.failures:
            lines.append(f"FAILURES: {len(self.failures)}")
        return "\n".join(lines)

    def render(self) -> str:
        if self.config.format == "json":
            return self.to_json()
        if self.config.format == "csv":
            return self.to_csv().rstrip("\n")
        return self.to_table()


def _csv_cell(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return value


def _table_cell(value: Any, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


# --------------------------------------------------------------------------
# Row projections
# --------------------------------------------------------------------------

def _exponent_json(record: ConstantRecord) -> dict[str, int] | None:
    exponent = record.dyadic_exponent
    if exponent is None:
        return None
    return {"num": exponent.numerator, "den": exponent.denominator}


def constant_row(record: ConstantRecord, compare_with: tuple = ()) -> dict[str, Any]:
    row: dict[str, Any] = {
        "m": record.m,
        "field": record.field.value,
        "strategy": record.strategy.value,
        "value": record.value,
        "exponent": _exponent_json(record),
        "exact": record.exact_label,
    }
    for label, other in compare_with:
        row[label] = other.value
        row[f"{label}_exact"] = other.exact_label
    return row


def report_row(report: VerificationReport, seed: int, with_witness: bool = False) -> dict[str, Any]:
    row: dict[str, Any] = {
        "check": report.check,
        "params": report.params,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "constant": report.constant.value if report.constant else None,
        "pass": report.passed,
        "seed": seed,
        "trials": report.trials,
    }
    if with_witness and report.witness is not None:
        witness = report.witness
        if witness.dtype.kind == "c":
            row["witness_real"] = witness.real.tolist()
            row["witness_imag"] = witness.imag.tolist()
        else:
            row["witness"] = witness.tolist()
    return row


def _split_json(step) -> dict[str, str] | None:
    split = step.split
    if split is None:
        return None
    return {
        "kind": step.rule,  # the split's kind is the rule that took it
        "q": str(split.q),
        "s1": str(split.s1),
        "s2": str(split.s2),
        "w": str(split.w),
        "f1": str(split.f1),
        "f2": str(split.f2),
    }


def trace_row(step) -> dict[str, Any]:
    return {
        "rule": step.rule,
        "m": step.m,
        "children": list(step.children),
        "split": _split_json(step),
        "khinchine": [
            {"p": use.p, "value": use.value, "power": str(use.power), "branch": use.branch.value}
            for use in step.khinchine
        ],
        "value": step.value,
    }


# --------------------------------------------------------------------------
# Command runners
# --------------------------------------------------------------------------

def run_constants(cfg: RunConfig) -> ReportDocument:
    compare = []
    if cfg.compare:
        compare = [
            (label, strat) for label, strat in _COMPARE_COLUMNS[cfg.field] if strat is not cfg.strategy
        ]
    # one call, so the compare columns read the ladders the main column built
    records, *columns = constants_columns(
        cfg.field, (cfg.strategy, *(strat for _, strat in compare)), cfg.m_max
    )
    labels = [label for label, _ in compare]
    rows = [
        constant_row(record, tuple(zip(labels, others)))
        for record, *others in zip(records, *columns)
    ]
    title = f"Bohnenblust-Hille constants, field={cfg.field.value}, strategy={cfg.strategy.value}"
    return ReportDocument(cfg, rows, title=title)


def run_explain(cfg: RunConfig) -> ReportDocument:
    record = compute_constant(cfg.m, cfg.field, cfg.strategy)
    rows = [trace_row(step) for step in record.trace]
    title = _explain_text(record, rows, cfg.precision) if cfg.format == "table" else ""  # tables only
    return ReportDocument(cfg, rows, title=title)


def _explain_text(record: ConstantRecord, rows: list[dict[str, Any]], precision: int) -> str:
    tag = "C_R" if record.field is Field.REAL else "C_C"
    lines = [f"derivation of {tag}({record.m}), strategy {record.strategy.value}"]
    for step, row in zip(record.trace, rows):
        approx = f"{step.value:.{precision + 2}g}"
        if step.rule in ("base", "baseline"):
            lines.append(f"  [{step.rule}] {tag}({step.m}) = {approx}")
            continue
        children = ", ".join(f"{tag}({c})" for c in step.children)
        used = "; ".join(
            f"A({use.p:.6g})={use.value:.6g} [{use.branch.value}] ^{use.power}"
            for use in step.khinchine
        )
        split = row["split"]  # rendered once, by _split_json, for the trace rows and this text
        split_text = ", ".join(f"{key}={split[key]}" for key in ("s1", "s2", "w", "f1", "f2"))
        lines.append(
            f"  [{step.rule}] {tag}({step.m}) from {children}: {split_text}; {used} -> {approx}"
        )
    exact = record.exact_label
    exact_text = f"{exact} ≈ " if exact else ""
    lines.append(f"  result: {tag}({record.m}) = {exact_text}{record.value:.{precision}g}")
    return "\n".join(lines)


def run_baselines(cfg: RunConfig) -> ReportDocument:
    # each baseline where it is stated: Queffelec / Defant-Sevilla-Peris for
    # complex scalars only
    columns = [(label, strat) for label, strat in _BASELINE_COLUMNS if is_stated_for(cfg.field, strat)]
    records = constants_columns(cfg.field, tuple(strat for _, strat in columns), cfg.m_max)
    rows = [
        {"m": level[0].m, **{label: rec.value for (label, _), rec in zip(columns, level)}}
        for level in zip(*records)
    ]
    return ReportDocument(cfg, rows, title="classical baseline constants")


# The size flags each verify suite reads; any other is rejected, not ignored.
_VERIFY_FLAGS = {"khinchine": ("n", "p"), "blei": (), "bh": ("m", "dim"), "summing": ("m", "dim")}


# The variables OpenBLAS reads for its thread count.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """Pin OpenBLAS to one thread before numpy loads, unless numpy is loaded already
    or one of _BLAS_THREAD_VARIABLES holds a positive integer: the oracles' gemms
    are small and run faster on one BLAS thread.  OpenBLAS reads a variable that
    is unset, empty or holds anything else, such as ``OMP_NUM_THREADS=0``, as
    unset too, so pinning changes no count that was chosen."""
    values = (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARIABLES)
    if "numpy" not in sys.modules and not any(v.isdigit() and int(v) > 0 for v in values):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def run_verify(cfg: RunConfig) -> ReportDocument:
    if cfg.subtarget not in _VERIFY_FLAGS:
        raise DomainError(f"unknown verify subtarget {cfg.subtarget!r}")
    if cfg.trials is None or cfg.trials < 1:
        raise DomainError("--trials must be positive")
    if cfg.field is Field.COMPLEX:
        raise DomainError(f"verify {cfg.subtarget} has no complex suite; use --field real")
    # only the flags given; the suite's own defaults fill the rest, and an
    # explicit 0 is a value to validate, not a missing flag
    given = {name: getattr(cfg, name) for name in ("m", "dim", "n", "p") if getattr(cfg, name) is not None}
    unread = [f"--{name}" for name in given if name not in _VERIFY_FLAGS[cfg.subtarget]]
    if unread:
        raise DomainError(f"verify {cfg.subtarget} does not read {', '.join(unread)}")
    _one_blas_thread()
    from . import verify

    reports = getattr(verify, f"{cfg.subtarget}_suite")(cfg.trials, cfg.seed, **given)
    failures = [report_row(r, cfg.seed) for r in reports if not r.passed]
    if cfg.verbose:
        rows = [report_row(r, cfg.seed) for r in reports]
    else:
        rows = [_suite_summary(cfg.subtarget, reports)]
    return ReportDocument(cfg, rows, failures=failures, title=f"verify {cfg.subtarget}")


def _suite_summary(name: str, reports: list[VerificationReport]) -> dict[str, Any]:
    ratios = [r.ratio for r in reports]
    return {
        "check": name,
        "trials": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed),
        "min_ratio": min(ratios) if ratios else None,
        "max_ratio": max(ratios) if ratios else None,
    }


def run_search(cfg: RunConfig) -> ReportDocument:
    _one_blas_thread()
    from . import verify

    report = verify.extremal_search(cfg.m, cfg.dim, cfg.field, budget=cfg.budget, seed=cfg.seed)
    row = report_row(report, cfg.seed, with_witness=True)
    if report.constant is not None:
        row["upper_bound"] = report.constant.value
        row["gap"] = report.constant.value - report.ratio
    failures = [] if report.passed else [report_row(report, cfg.seed)]
    return ReportDocument(cfg, [row], failures=failures, title="extremal ratio search")
