"""Constants engine and numerical verifier for the Bohnenblust-Hille inequality.

``bhc.special``    Gamma function and Haagerup's optimal Khinchine constants.
``bhc.exponents``  Blei mixed-norm exponents and the induction split data.
``bhc.recursion``  Real/complex constants under every recursion strategy,
                   with exact dyadic exponents and derivation traces.
``bhc.verify``     Brute-force oracles for the Khinchine, Blei and
                   Bohnenblust-Hille inequalities at desk scale.
``bhc.reports``    Table/CSV/JSON serialization behind the ``bhc`` CLI.
"""

from .core import DomainError, Field, SizeLimitError
from .exponents import ExponentSplit, blei_f, blei_w
from .recursion import (
    BaselineKind,
    ConstantRecord,
    PowerProduct,
    Strategy,
    baseline,
    best_constant,
    complex_halving,
    complex_one_step,
    compute_constant,
    constants_columns,
    constants_table,
    is_stated_for,
    real_halving,
    real_one_step,
    real_two_step,
    replay_trace,
)
from .special import (
    Branch,
    HaagerupConstants,
    crossover_p0,
    khinchine_a,
    khinchine_b,
    log_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Field",
    "SizeLimitError",
    "ExponentSplit",
    "blei_f",
    "blei_w",
    "BaselineKind",
    "ConstantRecord",
    "PowerProduct",
    "Strategy",
    "baseline",
    "best_constant",
    "complex_halving",
    "complex_one_step",
    "compute_constant",
    "constants_columns",
    "constants_table",
    "is_stated_for",
    "real_halving",
    "real_one_step",
    "real_two_step",
    "replay_trace",
    "Branch",
    "HaagerupConstants",
    "crossover_p0",
    "khinchine_a",
    "khinchine_b",
    "log_gamma",
]
