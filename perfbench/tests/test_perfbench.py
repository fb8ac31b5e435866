"""Tests of the benchmark itself: tracing, binding restore, counts and the gate.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

# One small command of every kind the workloads run.
SMALL = [
    ["constants", "--field", "real", "--strategy", "best", "--max-m", "20", "--compare", "--format", "json"],
    ["constants", "--field", "complex", "--strategy", "best", "--max-m", "12", "--compare", "--format", "json"],
    ["constants", "--strategy", "halving", "--max-m", "40", "--format", "csv"],
    ["constants", "--field", "complex", "--strategy", "halving", "--max-m", "30"],
    ["explain", "--field", "real", "--strategy", "two-step", "--m", "30", "--format", "json"],
    ["explain", "--field", "complex", "--strategy", "one-step", "--m", "20"],
    ["baselines", "--max-m", "10", "--format", "csv"],
    ["verify", "bh", "--m", "3", "--dim", "3", "--trials", "3", "--format", "json"],
    ["verify", "summing", "--m", "2", "--dim", "3", "--trials", "3", "--format", "json"],
    ["verify", "khinchine", "--n", "6", "--trials", "3", "--format", "json"],
    ["verify", "blei", "--trials", "20", "--format", "json"],
    ["search", "--m", "2", "--dim", "3", "--budget", "300", "--format", "json"],
    ["search", "--field", "complex", "--m", "2", "--dim", "2", "--budget", "10", "--format", "json"],
]


def _digests(results):
    return [workloads.stripped_digest(text) for _, _, text in results]


def test_small_commands_pass_the_gate():
    for argv, (_, code, text) in zip(SMALL, worker.run_pass(SMALL)[0]):
        checked = workloads.check_output(argv, code, text)
        assert checked.ok, (argv, checked.problems)
        assert checked.work > 0


def test_tracing_does_not_change_output():
    untraced, _ = worker.run_pass(SMALL)
    traced, _, _, _ = worker.traced_pass(SMALL, Tracer())
    assert [code for _, code, _ in traced] == [0] * len(SMALL)
    assert _digests(traced) == _digests(untraced)


def test_every_patched_binding_is_restored():
    tracer = Tracer()
    before = tracer.bindings()
    names = {(getattr(owner, "__name__", ""), name) for owner, name, _ in before}
    # separate bindings of one function are all patched
    assert {("bhc.recursion", "blei_f"), ("bhc.exponents", "blei_f")} <= names
    assert {("bhc.cli", "run_search"), ("ReportDocument", "render")} <= names
    with tracer.installed():
        assert all(getattr(owner, name).__bhc_traced__ for owner, name, _ in before)
    for owner, name, fn in before:
        assert getattr(owner, name) is fn
    assert tracer.bindings() == before
    tracer.check_restored()


def test_per_layer_counts_repeat_exactly():
    tracer = Tracer()
    _, _, first, _ = worker.traced_pass(SMALL, tracer)
    _, _, second, _ = worker.traced_pass(SMALL, tracer)
    assert first == second
    for key in (
        "special.khinchine_a.calls",
        "exponents.blei.calls",
        "recursion.trace_steps",
        "verify.sup_norm_real.vertex_space",
        "verify.sup_norm_complex_lb.calls",
        "verify.rademacher_moment.patterns",
        "verify.search.evals",
        "reports.output_bytes",
    ):
        assert first[key] > 0, key
    assert first["verify.checks_failed"] == 0


def _tampered(argv, edit):
    (_, code, text), = worker.run_pass([argv])[0]
    payload = json.loads(text)
    edit(payload)
    return workloads.check_output(argv, code, json.dumps(payload, indent=2))


def test_gate_rejects_wrong_outputs():
    def exponent(p):
        p["rows"][3]["exponent"]["num"] += 1

    def best_above_column(p):
        p["rows"][5]["value"] = p["rows"][5]["kaijser"] * 1.01

    def ratio(p):
        p["rows"][0]["ratio"] *= 1.0 + 1e-9

    def failed_check(p):
        p["rows"][0]["failed"] = 1

    def trace_value(p):
        p["rows"][-2]["value"] *= 1.0 + 1e-12

    assert not _tampered(SMALL[0], exponent).ok
    assert not _tampered(SMALL[0], best_above_column).ok
    assert not _tampered(SMALL[11], ratio).ok
    assert not _tampered(SMALL[7], failed_check).ok
    assert not _tampered(SMALL[4], trace_value).ok
    assert not workloads.check_output(SMALL[7], 1, "").ok
    assert not workloads.check_output(SMALL[2], 0, "m,value\n2,not-a-number\n").ok
    (_, code, table), = worker.run_pass([SMALL[3]])[0]
    assert not workloads.check_output(SMALL[3], code, table.replace("1.128", "1.129")).ok


def test_workloads_repeat_at_a_seed_and_move_with_it():
    for make in workloads.WORKLOADS.values():
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tail_level_keeps_ten_samples_beyond(workload):
    per_pass = len(workloads.WORKLOADS[workload](1))
    samples = list(range(per_pass * workloads.MIN_PASSES))
    tail = statistics.quantiles(samples, n=100)[workloads.tail_level(per_pass) - 1]
    assert sum(s > tail for s in samples) >= 10
