"""Command-line interface.

Usage:
    bhc constants --field real --strategy halving --max-m 12 --compare
    bhc explain --field real --strategy halving --m 12
    bhc baselines --max-m 10
    bhc verify bh --field real --m 2 --dim 2 --trials 200 --seed 42
    bhc verify khinchine --p 2 --n 8 --trials 50
    bhc search --field real --m 2 --dim 2 --budget 100000

Each option is named after the :class:`~bhc.reports.RunConfig` field it
fills and ``--field``/``--strategy`` yield enum members, so a command hands
its options to ``RunConfig`` as they are.

Exit codes: 0 all checks passed, 1 a certified check failed, 2 bad arguments
(including a request beyond a size guard).
The default seed is 42 and can be overridden by the BHC_SEED environment
variable, so bare invocations are reproducible; a seed is a non-negative
integer.
"""

from __future__ import annotations

import sys
import time

import click

from . import __version__
from .core import DomainError, Field, SizeLimitError
from .recursion import Strategy
from .reports import (
    _VERIFY_FLAGS,
    DEFAULT_SEED,
    ReportDocument,
    RunConfig,
    run_baselines,
    run_constants,
    run_explain,
    run_search,
    run_verify,
)


def _field_option(default: str):
    return click.option(
        "--field",
        type=click.Choice(sorted(f.value for f in Field)),
        default=default,
        show_default=True,
        callback=lambda ctx, param, value: Field(value),
    )


_strategy_option = click.option(
    "--strategy",
    type=click.Choice([s.value for s in Strategy]),
    default="halving",
    show_default=True,
    callback=lambda ctx, param, value: Strategy(value),
)


def _common(fn):
    fn = click.option(
        "--format",
        type=click.Choice(["table", "csv", "json"]),
        default="table",
        show_default=True,
    )(fn)
    fn = click.option("--precision", type=click.IntRange(1, 12), default=4, show_default=True)(fn)
    fn = click.option(
        "--seed", type=click.IntRange(min=0), default=DEFAULT_SEED, envvar="BHC_SEED", show_default=True
    )(fn)
    return fn


def _emit(runner, **options) -> None:
    ctx = click.get_current_context()
    started = time.perf_counter()
    try:
        doc: ReportDocument = runner(RunConfig(command=ctx.command.name, **options))
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
@_field_option("real")
@_strategy_option
@click.option("--max-m", "m_max", type=int, default=12, show_default=True)
@click.option("--compare", is_flag=True, help="Add the published comparison columns.")
@_common
def constants(**options):
    """Constants table for m = 2..MAX_M under one strategy."""
    _emit(run_constants, **options)


@main.command()
@_field_option("real")
@_strategy_option
@click.option("--m", type=int, required=True)
@_common
def explain(**options):
    """Derivation trace of a single constant."""
    _emit(run_explain, **options)


@main.command()
@_field_option("complex")
@click.option("--max-m", "m_max", type=int, default=10, show_default=True)
@_common
def baselines(**options):
    """The three classical baseline columns side by side."""
    _emit(run_baselines, **options)


@main.command()
@click.argument("subtarget", type=click.Choice(list(_VERIFY_FLAGS)))
@_field_option("real")
@click.option("--m", type=int, default=None, help="Form arity (bh/summing).")
@click.option("--dim", type=int, default=None, help="Slot dimension (bh/summing).")
@click.option("--n", type=int, default=None, help="Max vector length (khinchine).")
@click.option("--p", type=float, default=None, help="Single moment exponent (khinchine).")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--verbose", is_flag=True, help="One row per trial instead of a summary.")
@_common
def verify(**options):
    """Seeded property suites; exits 1 if any certified check fails."""
    _emit(run_verify, **options)


@main.command()
@_field_option("real")
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--dim", type=int, default=2, show_default=True)
@click.option("--budget", type=int, default=100_000, show_default=True)
@_common
def search(**options):
    """Hill-climb the coefficient-norm / operator-norm ratio from below."""
    _emit(run_search, **options)


if __name__ == "__main__":
    main()
