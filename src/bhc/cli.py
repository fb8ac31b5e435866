"""Command-line interface.

Usage:
    bhc constants --field real --strategy halving --max-m 12 --compare
    bhc explain --field real --strategy halving --m 12
    bhc baselines --max-m 10
    bhc verify bh --field real --m 2 --dim 2 --trials 200 --seed 42
    bhc verify khinchine --p 2 --n 8 --trials 50
    bhc search --field real --m 2 --dim 2 --budget 100000

Exit codes: 0 all checks passed, 1 a certified check failed, 2 bad arguments
(including a request beyond a size guard).
The default seed is 42 and can be overridden by the BHC_SEED environment
variable, so bare invocations are reproducible.
"""

from __future__ import annotations

import sys
import time

import click

from . import __version__
from .core import DomainError, Field, SizeLimitError
from .recursion import Strategy
from .reports import (
    DEFAULT_SEED,
    ReportDocument,
    RunConfig,
    run_baselines,
    run_constants,
    run_explain,
    run_search,
    run_verify,
)

_FIELDS = {f.value: f for f in Field}
_STRATEGIES = {s.value: s for s in Strategy}

_field_option = click.option(
    "--field", "field_name", type=click.Choice(sorted(_FIELDS)), default="real", show_default=True
)
_strategy_option = click.option(
    "--strategy",
    "strategy_name",
    type=click.Choice(list(_STRATEGIES)),
    default="halving",
    show_default=True,
)


def _common(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["table", "csv", "json"]),
        default="table",
        show_default=True,
    )(fn)
    fn = click.option("--precision", type=click.IntRange(1, 12), default=4, show_default=True)(fn)
    fn = click.option(
        "--seed", type=int, default=DEFAULT_SEED, envvar="BHC_SEED", show_default=True
    )(fn)
    return fn


def _emit(ctx: click.Context, runner, cfg: RunConfig) -> None:
    started = time.perf_counter()
    try:
        doc: ReportDocument = runner(cfg)
    except (DomainError, SizeLimitError) as exc:
        raise click.UsageError(str(exc))
    doc.wall_time = time.perf_counter() - started
    # An explicit file: left to itself, click.echo keeps every stdout object
    # it is handed in a cache whose values refer to their keys, so a caller
    # that runs commands in-process under redirected stdout keeps every
    # output alive.
    click.echo(doc.render(), file=sys.stdout)
    ctx.exit(doc.exit_status)


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Constants engine and verifier for the Bohnenblust-Hille inequality."""


@main.command()
@_field_option
@_strategy_option
@click.option("--max-m", "m_max", type=int, default=12, show_default=True)
@click.option("--compare", is_flag=True, help="Add the published comparison columns.")
@_common
@click.pass_context
def constants(ctx, field_name, strategy_name, m_max, compare, fmt, precision, seed):
    """Constants table for m = 2..MAX_M under one strategy."""
    cfg = RunConfig(
        command="constants",
        field=_FIELDS[field_name],
        strategy=_STRATEGIES[strategy_name],
        m_max=m_max,
        seed=seed,
        format=fmt,
        precision=precision,
        compare=compare,
    )
    _emit(ctx, run_constants, cfg)


@main.command()
@_field_option
@_strategy_option
@click.option("--m", type=int, required=True)
@_common
@click.pass_context
def explain(ctx, field_name, strategy_name, m, fmt, precision, seed):
    """Derivation trace of a single constant."""
    cfg = RunConfig(
        command="explain",
        field=_FIELDS[field_name],
        strategy=_STRATEGIES[strategy_name],
        m=m,
        seed=seed,
        format=fmt,
        precision=precision,
    )
    _emit(ctx, run_explain, cfg)


@main.command()
@click.option(
    "--field", "field_name", type=click.Choice(sorted(_FIELDS)), default="complex", show_default=True
)
@click.option("--max-m", "m_max", type=int, default=10, show_default=True)
@_common
@click.pass_context
def baselines(ctx, field_name, m_max, fmt, precision, seed):
    """The three classical baseline columns side by side."""
    cfg = RunConfig(
        command="baselines",
        field=_FIELDS[field_name],
        m_max=m_max,
        seed=seed,
        format=fmt,
        precision=precision,
    )
    _emit(ctx, run_baselines, cfg)


@main.command()
@click.argument("subtarget", type=click.Choice(["khinchine", "blei", "bh", "summing"]))
@_field_option
@click.option("--m", type=int, default=None, help="Form arity (bh/summing).")
@click.option("--dim", type=int, default=None, help="Slot dimension (bh/summing).")
@click.option("--n", type=int, default=None, help="Max vector length (khinchine).")
@click.option("--p", type=float, default=None, help="Single moment exponent (khinchine).")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--verbose", is_flag=True, help="One row per trial instead of a summary.")
@_common
@click.pass_context
def verify(ctx, subtarget, field_name, m, dim, n, p, trials, verbose, fmt, precision, seed):
    """Seeded property suites; exits 1 if any certified check fails."""
    if trials < 1:
        raise click.UsageError("--trials must be positive")
    cfg = RunConfig(
        command="verify",
        field=_FIELDS[field_name],
        m=m,
        dim=dim,
        n=n,
        p=p,
        trials=trials,
        seed=seed,
        format=fmt,
        precision=precision,
        verbose=verbose,
        subtarget=subtarget,
    )
    _emit(ctx, run_verify, cfg)


@main.command()
@_field_option
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--budget", type=int, default=100_000, show_default=True)
@_common
@click.pass_context
def search(ctx, field_name, m, dim, budget, fmt, precision, seed):
    """Hill-climb the coefficient-norm / operator-norm ratio from below."""
    cfg = RunConfig(
        command="search",
        field=_FIELDS[field_name],
        m=m,
        dim=dim,
        budget=budget,
        seed=seed,
        format=fmt,
        precision=precision,
    )
    _emit(ctx, run_search, cfg)


if __name__ == "__main__":
    main()
