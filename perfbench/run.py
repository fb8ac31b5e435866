"""The bhc benchmark: one run of one workload.

    python3 perfbench/run.py --workload tables|certify|search --seed N \
        --seconds T --trace 0|1

Run it from the root of a checkout.  It times ``bhc`` start-up in fresh
interpreters (``setup_s``), then starts one fresh worker interpreter that
plays the workload's commands through ``bhc.cli.main`` for ``--seconds``
seconds (see worker.py), and checks every output.  With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run; BENCHMARK.json at the checkout root names both sets.
Every time is scaled to one nominal host speed (see speed.py).

Standard output ends with two JSON lines: a report with every figure,
its unit, the run's provenance and any output problem, and then the
result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# The whole run, set-up included, ends within this many seconds.
RUN_DEADLINE_S = 170.0

# Work items per pass, by workload, as the end-to-end report names them.
WORK_NAMES = {"tables": "rows_per_s", "certify": "checks_per_s", "search": "evals_per_s"}


class BenchError(RuntimeError):
    """The benchmark could not run; nothing is reported."""


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BHC_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def setup_times(env: dict[str, str], deadline: float) -> tuple[list[float], list[float]]:
    """Fresh interpreter -> import bhc.cli -> first ``constants --max-m 12`` done.

    One discarded warm-up start writes the byte-code caches, as an
    installed package would have them.  Returns the times at nominal host
    speed and the raw times.
    """
    samples = []
    speed.reference()  # warm-up: first numpy and Fraction calls are slower
    refs = [speed.reference()]
    for _ in range(SETUP_SAMPLES + 1):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(WORKER), "--setup"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - started)
            try:
                code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                proc.kill()
                raise BenchError("the set-up probe did not finish in time") from exc
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe failed with exit code {code}")
        refs.append(speed.reference())
    return speed.scaled(samples, refs)[1:], samples[1:]


def run_worker(args, env: dict[str, str], deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the workload did not finish in time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(raw: dict, setup: list[float], setup_raw: list[float]) -> tuple[dict, dict]:
    """Metrics of an untraced run, and the extra figures the report carries."""
    wall = statistics.median(raw["pass_wall_s"])
    samples = [t for times in raw["command_s"] for t in times]
    level = workloads.tail_level(len(raw["commands"]))
    tail = statistics.quantiles(samples, n=100)[level - 1]
    work_per_s = raw["work_per_pass"] / wall
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cmd_p50_s": statistics.median(samples),
        "cmd_tail_s": tail,
        "work_per_s": work_per_s,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }
    extra = {
        WORK_NAMES[raw["workload"]]: {"value": work_per_s, "unit": "1/s"},
        "error_rate": {"value": raw["failed"] / raw["attempted"], "unit": "ratio"},
        "cmd_tail_percentile": level,
        "cmd_samples": len(samples),
        "cmd_samples_beyond_tail": sum(t > tail for t in samples),
        "passes": len(raw["pass_wall_s"]),
        "setup_samples_s": setup,
        "unscaled": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(raw["pass_raw_s"]),
            "reference_s": speed.REFERENCE_S,
        },
    }
    if raw["search_ratios"]:
        ratio = sum(raw["search_ratios"]) / len(raw["search_ratios"])
        extra["search_best_ratio"] = {"value": ratio, "unit": "ratio"}
    return values, extra


def per_layer(raw: dict) -> tuple[dict, dict]:
    """Metrics of a traced run: counts, self times and the tracing overhead."""
    overhead = statistics.median(raw["traced_pass_wall_s"]) / statistics.median(raw["pass_wall_s"])
    values = {**raw["counters"], **raw["timings"], "bench.trace_overhead": overhead}
    extra = {"passes": len(raw["pass_wall_s"]), "traced_passes": len(raw["traced_pass_wall_s"])}
    return values, extra


def provenance(args, raw: dict, env: dict[str, str]) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bhc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        **raw["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_vars": {var: env[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": args.loadavg,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.loadavg = os.getloadavg()
    deadline = time.monotonic() + RUN_DEADLINE_S

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "bhc" / "cli.py").is_file():
        raise BenchError(f"no bhc sources under {ROOT / 'src'}")
    env = worker_env()
    if args.trace:
        raw = run_worker(args, env, deadline)
        values, extra = per_layer(raw)
        wanted = declared["per_layer"]
    else:
        setup, setup_raw = setup_times(env, deadline)
        raw = run_worker(args, env, deadline)
        values, extra = end_to_end(raw, setup, setup_raw)
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = raw["failed"] == 0 and not raw["problems"]
    report = {
        "metrics": metrics,
        **extra,
        "measured_s": raw["measured_s"],
        "problems": raw["problems"][:20],
        "provenance": provenance(args, raw, env),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(2)
