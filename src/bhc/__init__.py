"""Constants engine and numerical verifier for the Bohnenblust-Hille inequality.

``bhc.special``    Gamma function and Haagerup's optimal Khinchine constants.
``bhc.exponents``  Blei mixed-norm exponents and the induction split data.
``bhc.recursion``  Real/complex constants under every recursion strategy,
                   with exact dyadic exponents and derivation traces.
``bhc.verify``     Brute-force oracles for the Khinchine, Blei and
                   Bohnenblust-Hille inequalities at desk scale.
``bhc.oracle``     The exact real operator norm by a serial cube-vertex
                   walk (private; reached through ``bhc.verify``).
``bhc.reports``    Table/CSV/JSON serialization behind the ``bhc`` CLI.
"""

from .core import DomainError, Field, SizeLimitError
from .exponents import ExponentSplit, blei_f, blei_w
from .recursion import (
    ConstantRecord,
    PowerProduct,
    Strategy,
    compute_constant,
    constants_columns,
    is_stated_for,
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
    "ConstantRecord",
    "PowerProduct",
    "Strategy",
    "compute_constant",
    "constants_columns",
    "is_stated_for",
    "replay_trace",
    "Branch",
    "HaagerupConstants",
    "crossover_p0",
    "khinchine_a",
    "khinchine_b",
    "log_gamma",
]
