"""Report documents, serialization round-trips and the CLI surface."""

import contextlib
import csv
import gc
import inspect
import io
import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import bhc
import bhc.verify as verify
from bhc.cli import main
from bhc.core import DomainError, Field
from bhc.recursion import Strategy, compute_constant, replay_trace
from bhc.reports import (
    _VERIFY_FLAGS,
    RunConfig,
    run_baselines,
    run_constants,
    run_explain,
    run_search,
    run_verify,
)
from bhc.verify import VerificationReport


def _strip_wall_time(payload: str) -> dict:
    data = json.loads(payload)
    data.pop("wall_time")
    return data


class TestDocuments:
    def test_constants_rows(self):
        cfg = RunConfig(command="constants", field=Field.REAL, strategy=Strategy.HALVING, m_max=12)
        doc = run_constants(cfg)
        assert [row["m"] for row in doc.rows] == list(range(2, 13))
        row12 = doc.rows[-1]
        assert row12["exponent"] == {"num": 11, "den": 6}
        assert row12["value"] == pytest.approx(3.5636, abs=5e-4)
        assert doc.exit_status == 0

    def test_compare_columns_real(self):
        cfg = RunConfig(
            command="constants", field=Field.REAL, strategy=Strategy.HALVING, m_max=4, compare=True
        )
        doc = run_constants(cfg)
        assert "one_step" in doc.rows[0] and "kaijser" in doc.rows[0]
        assert doc.rows[-1]["kaijser"] == pytest.approx(2.0**1.5, rel=1e-14)

    def test_compare_columns_complex(self):
        cfg = RunConfig(
            command="constants",
            field=Field.COMPLEX,
            strategy=Strategy.HALVING,
            m_max=8,
            compare=True,
        )
        doc = run_constants(cfg)
        assert {"queffelec_ds", "kaijser", "original"} <= set(doc.rows[0].keys())

    def test_json_round_trip_is_exact(self):
        cfg = RunConfig(command="constants", field=Field.REAL, strategy=Strategy.ONE_STEP, m_max=13)
        doc = run_constants(cfg)
        parsed = json.loads(doc.to_json())
        assert parsed["schema_version"] == "1"
        for original, restored in zip(doc.rows, parsed["rows"]):
            assert restored["value"] == original["value"]  # exact float round-trip
            assert restored["exponent"] == original["exponent"]

    def test_csv_matches_json_rows(self):
        cfg = RunConfig(
            command="constants", field=Field.REAL, strategy=Strategy.HALVING, m_max=10, format="csv"
        )
        doc = run_constants(cfg)
        parsed = list(csv.DictReader(io.StringIO(doc.to_csv())))
        assert len(parsed) == len(doc.rows)
        for original, restored in zip(doc.rows, parsed):
            assert float(restored["value"]) == original["value"]
            assert int(restored["m"]) == original["m"]

    def test_determinism(self):
        cfg = RunConfig(command="verify", subtarget="bh", m=2, dim=2, trials=25, seed=42)
        first = run_verify(cfg)
        second = run_verify(cfg)
        assert _strip_wall_time(first.to_json()) == _strip_wall_time(second.to_json())

    def test_baselines_document(self):
        cfg = RunConfig(command="baselines", field=Field.COMPLEX, m_max=5)
        doc = run_baselines(cfg)
        assert doc.rows[-1]["kaijser"] == pytest.approx(4.0, rel=1e-14)

    def test_explain_document(self):
        cfg = RunConfig(command="explain", field=Field.REAL, strategy=Strategy.HALVING, m=12)
        doc = run_explain(cfg)
        assert "2^(11/6)" in doc.title
        assert "3.564" in doc.title
        assert doc.rows[0]["rule"] == "base"
        assert doc.rows[-1]["value"] == pytest.approx(3.5636, abs=5e-4)

    def test_explain_shows_odd_split_weights(self):
        cfg = RunConfig(command="explain", field=Field.REAL, strategy=Strategy.HALVING, m=9)
        doc = run_explain(cfg)
        assert "f1=4/9" in doc.title and "f2=5/9" in doc.title

    def test_search_document(self):
        cfg = RunConfig(command="search", field=Field.REAL, m=2, dim=2, budget=5000, seed=42)
        doc = run_search(cfg)
        row = doc.rows[0]
        assert row["ratio"] == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert row["gap"] == pytest.approx(0.0, abs=1e-6)
        assert "witness" in row

    def test_verify_verbose_rows(self):
        cfg = RunConfig(
            command="verify", subtarget="khinchine", p=2.0, n=6, trials=10, verbose=True
        )
        doc = run_verify(cfg)
        assert len(doc.rows) == 10
        assert all(row["pass"] for row in doc.rows)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            RunConfig(command="constants", precision=0)
        with pytest.raises(DomainError):
            RunConfig(command="constants", precision=13)
        with pytest.raises(DomainError):
            RunConfig(command="constants", format="yaml")
        with pytest.raises(DomainError):
            run_verify(RunConfig(command="verify", subtarget="nope"))


class TestCli:
    def test_constants_table_output(self):
        runner = CliRunner()
        result = runner.invoke(main, ["constants", "--field", "real", "--max-m", "2"])
        assert result.exit_code == 0
        assert "2^(1/2)" in result.output

    def test_constants_compare_reproduces_table(self):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["constants", "--field", "real", "--strategy", "halving", "--max-m", "12", "--compare"],
        )
        assert result.exit_code == 0
        assert "2^(29/18)" in result.output  # halving at m=9
        assert "2^(154/48)" in result.output or "2^(77/24)" in result.output  # one-step at m=12

    def test_invalid_max_m_exits_2(self):
        runner = CliRunner()
        result = runner.invoke(main, ["constants", "--max-m", "1"])
        assert result.exit_code == 2

    def test_invalid_precision_exits_2(self):
        runner = CliRunner()
        result = runner.invoke(main, ["constants", "--precision", "13"])
        assert result.exit_code == 2

    def test_explain_cli(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["explain", "--field", "real", "--strategy", "one-step", "--m", "2"]
        )
        assert result.exit_code == 0
        assert "C_R(2)" in result.output

    @pytest.mark.parametrize(
        "field, strategy, m",
        [
            ("real", "one-step", 30),
            ("complex", "one-step", 30),
            ("real", "two-step", 31),
            ("real", "halving", 37),
            ("complex", "halving", 50),
            ("real", "best", 257),
            ("complex", "baseline-original", 9),
        ],
    )
    def test_printed_trace_replays(self, field, strategy, m):
        argv = ["explain", "--field", field, "--strategy", strategy, "--m", str(m), "--format", "json"]
        rows = json.loads(CliRunner().invoke(main, argv).output)["rows"]

        def step(row):
            # only what a reader of the JSON rows can rebuild
            split = row["split"]
            if split is not None:
                split = SimpleNamespace(f1=Fraction(split["f1"]), f2=Fraction(split["f2"]))
            return SimpleNamespace(
                rule=row["rule"],
                m=row["m"],
                children=tuple(row["children"]),
                split=split,
                khinchine=tuple(
                    SimpleNamespace(value=use["value"], power=Fraction(use["power"]))
                    for use in row["khinchine"]
                ),
                value=row["value"],
            )

        record = compute_constant(m, Field(field), Strategy(strategy))
        assert replay_trace(tuple(step(row) for row in rows)) == record.value == rows[-1]["value"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_explain_text_only_for_a_table(self, monkeypatch, fmt):
        # JSON and CSV print no title, so they must not build the derivation
        # text, and breaking it leaves their output as it was (wall_time apart)
        argv = ["explain", "--field", "real", "--strategy", "two-step", "--m", "257", "--format", fmt]
        expected = CliRunner().invoke(main, argv).output

        def broken(*args):
            raise AssertionError("built the derivation text of a JSON or CSV explain")

        monkeypatch.setattr("bhc.reports._explain_text", broken)
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0
        if fmt == "json":
            assert _strip_wall_time(result.output) == _strip_wall_time(expected)
        else:
            assert result.output == expected

    def test_verify_exit_zero(self):
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "blei", "--trials", "20", "--seed", "7"])
        assert result.exit_code == 0

    def test_verify_zero_trials_exits_2(self):
        result = CliRunner().invoke(main, ["verify", "blei", "--trials", "0"])
        assert result.exit_code == 2
        assert "--trials must be positive" in result.output

    @pytest.mark.parametrize("subtarget", ["bh", "summing"])
    def test_verify_oversized_cube_exits_2(self, subtarget):
        # exit 1 means a certified check failed; a refused size is a usage error
        result = CliRunner().invoke(main, ["verify", subtarget, "--m", "5", "--dim", "1000", "--trials", "1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "spans 2^4000 > 2^24 sign vectors" in result.output

    def test_shape_beyond_memory_exits_2(self):
        # the guard counts slots 2..m only, so an m = 1 search takes any width;
        # its coordinates do not fit in memory, which is a usage error, not a
        # failed check (exit 1).  A list of 10^18 coordinates needs more bytes
        # than any address space, so the allocation fails at once on every host
        result = CliRunner().invoke(main, ["search", "--m", "1", "--dim", str(10**18), "--budget", "1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "the requested shape does not fit in memory" in result.output

    def test_verify_failure_exits_one(self, monkeypatch):
        failing = VerificationReport("blei", "forced", 2.0, 1.0, 2.0, None, False, 7, 1)
        monkeypatch.setattr(verify, "blei_suite", lambda *a, **k: [failing])
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "blei", "--trials", "1"])
        assert result.exit_code == 1

    def test_verify_flags_are_the_suites_parameters(self):
        # run_verify passes the given flags by name, so the table must list
        # exactly the parameters each suite takes after (trials, seed)
        for name, flags in _VERIFY_FLAGS.items():
            params = tuple(inspect.signature(getattr(verify, f"{name}_suite")).parameters)
            assert params[:2] == ("trials", "seed")
            assert params[2:] == flags, name

    @pytest.mark.parametrize(
        "argvs, loaded",
        [
            (
                [
                    ["constants", "--max-m", "12"],
                    ["explain", "--m", "12", "--format", "json"],
                    ["baselines", "--max-m", "10"],
                ],
                [],
            ),
            ([["verify", "blei", "--trials", "1"]], ["bhc.verify", "numpy"]),
        ],
        ids=["constants-engine", "verify"],
    )
    def test_oracles_imported_only_where_run(self, argvs, loaded):
        # a fresh interpreter: this one has imported numpy and bhc.verify already
        script = (
            "import contextlib, io, json, sys\n"
            "from bhc.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv, standalone_mode=False) == 0, argv\n"
            "print(json.dumps(sorted({'numpy', 'bhc.verify'} & set(sys.modules))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(bhc.__file__).parents[1])}  # this bhc
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert json.loads(done.stdout) == loaded

    @pytest.mark.parametrize(
        "setup, argv, preset, pinned",
        [
            ("", ["verify", "blei", "--trials", "1"], {}, "1"),
            ("", ["search", "--m", "2", "--dim", "2", "--budget", "10"], {}, "1"),
            ("", ["verify", "blei", "--trials", "1"], {"OMP_NUM_THREADS": "2"}, None),
            ("", ["verify", "blei", "--trials", "1"], {"GOTO_NUM_THREADS": "3"}, None),
            ("", ["verify", "blei", "--trials", "1"], {"OPENBLAS_NUM_THREADS": "2"}, "2"),
            ("", ["verify", "blei", "--trials", "1"], {"OMP_NUM_THREADS": "0", "GOTO_NUM_THREADS": ""}, "1"),
            ("", ["verify", "blei", "--trials", "1"], {"OPENBLAS_NUM_THREADS": " "}, "1"),
            ("import numpy\n", ["verify", "blei", "--trials", "1"], {}, None),
            ("import bhc.verify\n", [], {}, None),
            ("", ["constants", "--max-m", "3"], {}, None),
        ],
        ids=["verify", "search", "omp-set", "goto-set", "openblas-set", "omp-zero-goto-empty", "openblas-blank",
             "numpy-loaded", "library-import", "constants"],
    )
    def test_verify_and_search_pin_an_unset_blas_to_one_thread(self, setup, argv, preset, pinned):
        # a variable that holds no positive integer sets no count, for OpenBLAS
        # and for the oracle's worker count alike, and is read as unset
        # a fresh interpreter: this one has imported numpy already
        script = (
            f"{setup}import contextlib, io, json, os\n"
            "from bhc.cli import main\n"
            f"if {argv!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main({argv!r}, standalone_mode=False) == 0\n"
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))\n"
        )
        blas = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {name: value for name, value in os.environ.items() if name not in blas}
        env.update(preset, PYTHONPATH=str(Path(bhc.__file__).parents[1]))  # this bhc
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert json.loads(done.stdout) == pinned

    def test_seed_env_override(self):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["verify", "khinchine", "--p", "2", "--n", "6", "--trials", "5", "--format", "json"],
            env={"BHC_SEED": "123"},
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["config"]["seed"] == 123

    def test_json_default_seed(self):
        runner = CliRunner()
        result = runner.invoke(main, ["constants", "--max-m", "3", "--format", "json"])
        assert json.loads(result.output)["config"]["seed"] == 42

    def test_search_cli(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["search", "--m", "1", "--dim", "3", "--budget", "1000", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["rows"][0]["ratio"] == 1.0

    def test_complex_search_csv_cells_are_numbers(self):
        argv = ["search", "--field", "complex", "--m", "2", "--dim", "2", "--budget", "20"]
        result = CliRunner().invoke(main, [*argv, "--seed", "5", "--format", "csv"])
        assert result.exit_code == 0
        (row,) = csv.DictReader(io.StringIO(result.output))
        for name in ("lhs", "rhs", "ratio", "constant", "seed", "trials", "upper_bound", "gap"):
            float(row[name])

    def test_baselines_cli(self):
        runner = CliRunner()
        result = runner.invoke(main, ["baselines", "--max-m", "5"])
        assert result.exit_code == 0
        assert "queffelec_ds" in result.output

    def test_csv_output_has_header_and_dots(self):
        runner = CliRunner()
        result = runner.invoke(
            main, ["constants", "--max-m", "4", "--format", "csv"]
        )
        assert result.exit_code == 0
        header = result.output.splitlines()[0]
        assert header.startswith("m,field,strategy,value")
        assert "1.4142135623730951" in result.output

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--m", "3", "--dim", "13"],
            ["verify", "khinchine", "--n", "25", "--trials", "20"],
            # rejected before any draw, whatever lengths the seed would draw
            ["verify", "khinchine", "--n", "25", "--trials", "2"],
        ],
    )
    def test_size_guard_is_a_usage_error(self, argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "Error:" in result.output

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants"],
            ["explain", "--m", "3"],
            ["baselines"],
            ["verify", "khinchine"],
            ["verify", "blei"],
            ["verify", "bh"],
            ["verify", "summing"],
            ["search"],
        ],
        ids=" ".join,
    )
    def test_negative_seed_is_a_usage_error(self, argv, via_env):
        # numpy's generators take non-negative seeds only
        extra, env = ([], {"BHC_SEED": "-1"}) if via_env else (["--seed", "-1"], {})
        result = CliRunner().invoke(main, [*argv, *extra], env=env)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "Invalid value for '--seed': -1" in result.output

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "bh", "--dim", "0", "--trials", "2"],
            ["verify", "summing", "--m", "0", "--trials", "2"],
            ["verify", "khinchine", "--n", "0", "--trials", "2"],
        ],
    )
    def test_zero_sizes_are_rejected_not_replaced(self, argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert "Error:" in result.output

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_khinchine_exponent_exits_2(self, p):
        argv = ["verify", "khinchine", "--p", p, "--n", "3", "--trials", "2", "--format", "json"]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert "positive and finite" in result.output
        assert "NaN" not in result.output

    @pytest.mark.parametrize("p", ["400", "1500"])
    def test_large_khinchine_exponent_passes(self, p):
        # |s|^p leaves the double range here, while the inequality holds
        argv = ["verify", "khinchine", "--p", p, "--n", "3", "--trials", "1", "--format", "json"]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["rows"][0]["failed"] == 0

    @pytest.mark.parametrize("subtarget", ["bh", "summing", "blei", "khinchine"])
    def test_complex_field_without_a_suite_is_rejected(self, subtarget):
        result = CliRunner().invoke(
            main, ["verify", subtarget, "--field", "complex", "--trials", "2"]
        )
        assert result.exit_code == 2
        assert "no complex suite" in result.output

    @pytest.mark.parametrize(
        "argv, unread",
        [
            (["verify", "blei", "--m", "3", "--dim", "9", "--n", "4"], "--m, --dim, --n"),
            (["verify", "khinchine", "--m", "5", "--dim", "3"], "--m, --dim"),
            (["verify", "bh", "--p", "1.5", "--n", "3"], "--n, --p"),
            (["verify", "summing", "--m", "2", "--n", "3"], "--n"),
        ],
    )
    def test_flags_a_suite_does_not_read_are_rejected(self, argv, unread):
        result = CliRunner().invoke(main, [*argv, "--trials", "2"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"does not read {unread}" in result.output

    @pytest.mark.parametrize("m_max", ["1", "-3"])
    def test_baselines_without_levels_exit_2(self, m_max):
        result = CliRunner().invoke(main, ["baselines", "--max-m", m_max])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert f"m_max must be an integer >= 2, got {m_max}" in result.output

    def test_baselines_beyond_the_double_range_exit_2(self):
        result = CliRunner().invoke(main, ["baselines", "--max-m", "2100"])
        assert result.exit_code == 2
        assert "double range" in result.output

    def test_chain_beyond_the_double_range_exits_2(self):
        # one-step reads inf from m = 4095, which JSON cannot hold
        argv = ["constants", "--strategy", "one-step", "--max-m", "4100", "--format", "json"]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert "the one-step constant at m=4095 exceeds the double range" in result.output
        assert "Infinity" not in result.output

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--field", "real", "--strategy", "baseline-queffelec-ds"],
            ["explain", "--field", "real", "--strategy", "baseline-queffelec-ds", "--m", "2"],
        ],
    )
    def test_real_queffelec_is_a_usage_error(self, argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 2
        assert "stated for complex scalars only" in result.output

    def test_real_baselines_leave_out_queffelec(self):
        result = CliRunner().invoke(main, ["baselines", "--field", "real", "--max-m", "5", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "m,kaijser,original"

    @pytest.mark.parametrize(
        "field, m2047",
        # values printed at the parent commit by --max-m 2047 (best is halving there)
        [("real", 49.98289912795819), ("complex", 35.90486337408861)],
    )
    def test_best_table_beyond_the_double_range(self, field, m2047):
        result = CliRunner().invoke(
            main,
            ["constants", "--field", field, "--strategy", "best", "--max-m", "2100", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [int(row["m"]) for row in rows] == list(range(2, 2101))
        assert float(rows[2047 - 2]["value"]) == m2047
        assert all(math.isfinite(float(row["value"])) for row in rows)

    def test_version_needs_no_installed_metadata(self):
        result = CliRunner().invoke(main, ["--version"])
        assert result.exit_code == 0
        assert bhc.__version__ in result.output

    def test_in_process_runs_release_their_stdout(self):
        # a long-lived caller that redirects stdout per command must not keep
        # every output alive
        released = []
        for _ in range(3):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                main.main(["constants", "--max-m", "3"], standalone_mode=True)
            assert "2^(1/2)" in out.getvalue()
            released.append(weakref.ref(out))
            del out
        gc.collect()
        assert all(ref() is None for ref in released)
