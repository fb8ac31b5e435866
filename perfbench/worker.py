"""One benchmark run inside a fresh interpreter.

``run.py`` starts this file in a subprocess with ``src`` on ``PYTHONPATH``
and the BLAS/OpenMP thread variables pinned to 1.  It imports ``bhc.cli``
and plays the workload's commands through ``bhc.cli.main`` as one
closed-loop client: one command at a time, the next only after the
previous one returned, no extra threads.  It prints one JSON object with
the raw measurements; ``run.py`` turns them into metrics.

Modes:

    worker.py --setup
        import bhc.cli, run ``constants --max-m 12`` and print a line when
        it has finished (the set-up probe timed by run.py)
    worker.py --workload W --seed N --seconds T --trace 0|1
        the measured run
    worker.py --record-digests
        rewrite digests.json from one pass of every workload at the
        default seed
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import speed
import workloads
from tracing import Tracer

DIGESTS = Path(__file__).with_name("digests.json")


def run_command(argv: list[str]) -> tuple[float, int, str]:
    """Run one bhc command in-process; return (seconds, exit code, stdout)."""
    from bhc.cli import main

    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=argv, prog_name="bhc", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return time.perf_counter() - started, code, out.getvalue()


def run_pass(
    commands: list[list[str]], tracer: Tracer | None = None
) -> tuple[list[tuple[float, int, str]], list[float]]:
    """One pass over the commands, with the host-speed reference timed
    before the first command and after each one.

    Returns each command's (raw seconds, exit code, stdout) and the
    reference times; each traced command is a ``cli`` span.
    """
    results = []
    refs = [speed.reference()]
    for argv in commands:
        with tracer.span("cli.command") if tracer else contextlib.nullcontext():
            results.append(run_command(argv))
        refs.append(speed.reference())
    return results, refs


def scaled_times(results: list[tuple[float, int, str]], refs: list[float]) -> list[float]:
    """Each command's time at nominal host speed (see speed.py)."""
    return speed.scaled([t for t, _, _ in results], refs)


def traced_pass(commands: list[list[str]], tracer: Tracer):
    """One traced pass; returns its results, reference times, counters and
    timings, the timings scaled to nominal host speed."""
    tracer.reset()
    with tracer.installed():
        results, refs = run_pass(commands, tracer)
    factor = speed.REFERENCE_S / statistics.median(refs)
    timings = {k: v * factor for k, v in tracer.timings().items()}
    return results, refs, tracer.counters(), timings


def gate(
    commands: list[list[str]],
    first: list[tuple[float, int, str]],
    runs: list[list[tuple[int, str]]],
    seed: int,
) -> dict:
    """Check every command execution outside the timed region.

    ``first`` holds the first pass's full outputs, which are checked in
    depth; ``runs`` holds (exit code, digest) of every execution, and each
    must exit 0 and print the same bytes as the first, apart from wall_time.
    At the default seed the digests must also match digests.json.
    """
    expected = None
    if seed == workloads.DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    problems: list[str] = []
    failed = work = 0
    ratios = []
    for i, argv in enumerate(commands):
        command = " ".join(argv)
        _, code, text = first[i]
        checked = workloads.check_output(argv, code, text)
        digest = workloads.stripped_digest(text)
        if expected is not None and expected.get(command) != digest:
            checked.problems.append("output digest differs from digests.json")
        problems.extend(f"{command}: {msg}" for msg in checked.problems)
        work += checked.work
        if checked.search_ratio is not None:
            ratios.append(checked.search_ratio)
        for p, results in enumerate(runs):
            code, other = results[i]
            repeated = code == 0 and other == digest
            if not repeated:
                problems.append(f"pass {p}: {command}: exit code {code} or output differs from pass 0")
            failed += bool(checked.problems) or not repeated
    return {
        "attempted": len(commands) * len(runs),
        "failed": failed,
        "problems": problems,
        "work_per_pass": work,
        "search_ratios": ratios,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` have passed and at least MIN_PASSES ran.

    With tracing on, untraced and traced passes alternate, and only the
    per-layer figures and the tracing overhead are reported.  Only the
    first pass's outputs are kept whole; later ones are kept as digests,
    so the worker's memory does not grow with the number of passes.
    """
    commands = workloads.WORKLOADS[workload](seed)
    first: list[tuple[float, int, str]] = []
    runs: list[list[tuple[int, str]]] = []
    command_s: list[list[float]] = []
    raw_walls: list[float] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    counters: list[dict] = []
    timings: list[dict] = []

    def keep(results: list[tuple[float, int, str]]) -> None:
        if not first:
            first.extend(results)
        runs.append([(code, workloads.stripped_digest(text)) for _, code, text in results])

    tracer = Tracer() if trace else None
    speed.reference()  # warm-up: first numpy and Fraction calls are slower
    started = time.perf_counter()
    while True:
        results, refs = run_pass(commands)
        command_s.append(scaled_times(results, refs))
        walls.append(sum(command_s[-1]))
        raw_walls.append(sum(t for t, _, _ in results))
        keep(results)
        if tracer is not None:
            results, refs, count, timing = traced_pass(commands, tracer)
            traced_walls.append(sum(scaled_times(results, refs)))
            keep(results)
            counters.append(count)
            timings.append(timing)
        del results
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (trace or len(walls) >= workloads.MIN_PASSES):
            break
    out = {
        "workload": workload,
        "seed": seed,
        "commands": [" ".join(argv) for argv in commands],
        "measured_s": elapsed,
        "pass_wall_s": walls,
        "pass_raw_s": raw_walls,
        "command_s": command_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": _versions(),
        **gate(commands, first, runs, seed),
    }
    if tracer is not None:
        tracer.check_restored()
        if any(c != counters[0] for c in counters):
            out["problems"].append("per-layer counts differ between traced passes")
            out["failed"] += 1
        out["traced_pass_wall_s"] = traced_walls
        out["counters"] = counters[0]
        out["timings"] = {k: statistics.median(t[k] for t in timings) for k in timings[0]}
    return out


def _versions() -> dict:
    from importlib.metadata import version

    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "click": version("click")}


def setup_probe() -> None:
    run_command(["constants", "--max-m", "12"])
    print("ready", flush=True)


def record_digests() -> None:
    digests = {}
    for make in workloads.WORKLOADS.values():
        commands = make(workloads.DEFAULT_SEED)
        for argv, (_, code, text) in zip(commands, run_pass(commands)[0]):
            checked = workloads.check_output(argv, code, text)
            if not checked.ok:
                raise SystemExit(f"{' '.join(argv)}: {checked.problems}")
            digests[" ".join(argv)] = workloads.stripped_digest(text)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.setup:
        setup_probe()
    elif args.record_digests:
        record_digests()
    elif args.workload:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    else:
        parser.error("give --setup, --record-digests or --workload")


if __name__ == "__main__":
    main()
