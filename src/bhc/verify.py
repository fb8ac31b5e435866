"""Brute-force oracles for the inequalities behind the constants engine.

Everything here certifies at desk scale, by exhaustion rather than sampling:

* Rademacher p-th moments are exact averages over all 2^N sign patterns.
* The operator norm of a real m-linear form on l_inf^N is exact: a
  multilinear form attains its sup at cube vertices, so slots 2..m are
  enumerated over sign vectors while slot 1 collapses to an l1 sum.  Each
  of slots 2..m fixes its first sign to +1, since flipping a whole slot
  only negates the value, and each block of last-slot vertices reuses one
  product buffer.  One call can take a stack of forms of one shape, which
  share one build of the sign tables.
* The weak-(1) norm on l_inf^N is the max coordinate-wise absolute column
  sum (the extreme points of the dual l1 ball are coordinate functionals).

The complex operator norm has no finite vertex set, so a seeded
coordinate-ascent over per-coordinate unimodular phases reports a lower
bound only, and complex checks are diagnostic: an underestimated norm can
only inflate the reported ratio, never mask a violation.

Certified comparisons use a relative slack of 1e-9.  The property suites
at the bottom generate seeded random instances so the command-line front
end and the test suite exercise identical machinery.  Every suite is called
as ``suite(trials, seed, **flags)``, each flag a keyword with its own
default; a report holds no seed, since the run that asked for it knows it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Field, SizeLimitError, digest_bytes
from .exponents import blei_f, blei_w
from .recursion import ConstantRecord, Strategy, compute_constant
from .special import _khinchine_exponent, khinchine_a, khinchine_b

__all__ = [
    "CERTIFIED_SLACK",
    "MultilinearForm",
    "VectorFamily",
    "VerificationReport",
    "lp_norm",
    "rademacher_moment",
    "khinchine_check",
    "sup_norm_real",
    "sup_norm_complex_lb",
    "mixed_norm_lhs",
    "bh_check",
    "weak1_norm",
    "multiple_summing_check",
    "blei_check",
    "extremal_search",
    "random_form",
    "littlewood_form",
    "random_family",
    "canonical_family",
    "khinchine_suite",
    "bh_suite",
    "blei_suite",
    "summing_suite",
]

# Relative slack separating float noise from genuine violations.
CERTIFIED_SLACK = 1e-9

# Slots 2..m span prod(2^N_k) <= 2^MAX_ENUM_BITS sign vectors; the oracle
# evaluates the 2^(m-1) times fewer whose slots each start with +1.
MAX_ENUM_BITS = 24

# Exact Rademacher averages enumerate 2^N sign patterns.
MAX_RADEMACHER_N = 20

_TINY = np.finfo(float).tiny  # the smallest normal double


def _frozen(values, field: Field, what: str) -> np.ndarray:
    """A read-only copy of ``values`` in the field's dtype; ``what`` names them in errors."""
    arr = np.asarray(values, dtype=np.complex128 if field is Field.COMPLEX else np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MultilinearForm:
    """Dense coefficient tensor of an m-linear form on l_inf^{N_1} x ... x l_inf^{N_m}."""

    coeffs: np.ndarray
    field: Field

    def __post_init__(self):
        if np.ndim(self.coeffs) < 1:
            raise DomainError("a multilinear form needs at least one slot")
        object.__setattr__(self, "coeffs", _frozen(self.coeffs, self.field, "form coefficients"))
        if 0 in self.dims:
            raise DomainError(f"every slot of a multilinear form needs width >= 1, got shape {self.dims}")

    @property
    def m(self) -> int:
        return self.coeffs.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.coeffs.shape

    def digest(self) -> str:
        shape = ",".join(map(str, self.dims))
        return f"{self.field.value};{shape};{digest_bytes(self.coeffs.tobytes())}"


@dataclass(frozen=True)
class VectorFamily:
    """A finite family of vectors in l_inf^N, one row per vector."""

    vectors: np.ndarray
    field: Field

    def __post_init__(self):
        if np.ndim(self.vectors) != 2:
            raise DomainError("a vector family is a 2-d array (one row per vector)")
        object.__setattr__(self, "vectors", _frozen(self.vectors, self.field, "family entries"))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one inequality check."""

    check: str
    params: str
    lhs: float
    rhs: float
    ratio: float
    constant: ConstantRecord | None
    passed: bool
    trials: int = 1  # evaluations behind the report; only a search makes more than one
    witness: np.ndarray | None = None


# --------------------------------------------------------------------------
# Khinchine oracle
# --------------------------------------------------------------------------

def rademacher_moment(a, p: float) -> float:
    """Exact ( 2^-N  sum_{eps in {+-1}^N} |sum_n a_n eps_n|^p )^(1/p).

    Enumerates all sign patterns by iterative doubling; N <= 20.
    """
    p = _khinchine_exponent(p, "moment exponent")
    a = np.asarray(a)
    if a.ndim != 1:
        raise DomainError("coefficients must form a vector")
    if not np.all(np.isfinite(a)):
        raise DomainError("coefficients must be finite")
    if a.size > MAX_RADEMACHER_N:
        raise SizeLimitError(f"exact enumeration limited to N <= {MAX_RADEMACHER_N}, got {a.size}")
    sums = np.zeros(1, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    for coef in a:
        sums = np.concatenate([sums + coef, sums - coef])
    sums = np.abs(sums)
    if p < 1.0 and (top := sums.max()) > 0:
        # the power 1/p multiplies the mean's rounding error by 1/p; the mean
        # of |s/top|^p - 1 keeps the small terms, and n = 1 gives top exactly
        with np.errstate(divide="ignore"):
            logs = p * np.log(sums / top)
        return float(top * math.exp(math.log1p(np.mean(np.expm1(logs))) / p))
    with np.errstate(over="ignore"):
        mean = np.mean(sums**p)
    if not _TINY <= mean < math.inf and (top := sums.max()) > 0:
        # |s|^p under- or overflowed: the same moment over |s| / max|s|
        return float(top * np.mean((sums / top) ** p) ** (1.0 / p))
    return float(mean ** (1.0 / p))


def khinchine_check(a, p: float) -> VerificationReport:
    """Check A_p ||a||_2 <= (E|sum a_n r_n|^p)^(1/p) <= B_p ||a||_2 exactly."""
    a = np.asarray(a)
    moment = rademacher_moment(a, p)
    l2 = float(np.linalg.norm(a))
    lower = khinchine_a(p).a_p * l2
    upper = khinchine_b(p) * l2
    slack = 1e-12
    passed = moment >= lower * (1.0 - slack) and moment <= upper * (1.0 + slack)
    ratio = moment / l2 if l2 > 0 else 1.0
    params = f"p={float(p)!r};n={a.size};{digest_bytes(np.ascontiguousarray(a).tobytes())}"
    return VerificationReport("khinchine", params, moment, upper, ratio, None, passed)


# --------------------------------------------------------------------------
# Operator norms
# --------------------------------------------------------------------------

# Last-slot sign vectors are built at most this many at a time, and fewer
# when slot 1 is wide or many forms are stacked, so that a block's
# K x N_1 x block product holds at most _BLOCK_VALUES values: memory stays
# flat up to the enumeration guard whatever K and N_1 are.
_LAST_SLOT_BLOCK = 2**16
_BLOCK_VALUES = 2**22


def _sign_vectors(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 (all 2^(n-1) by default) of the length-n sign vectors
    whose first sign is +1, as +-1.0; row r carries the signs of the bits of 2r."""
    half = 2 ** (n - 1)
    rows = np.arange(2 * start, 2 * (half if stop is None else min(stop, half)), 2, dtype=np.int64)
    return np.array([1.0, -1.0])[(rows[:, None] >> np.arange(n)) & 1]


def _check_enumerable(dims: tuple[int, ...]) -> None:
    """Raise unless slots 2..m of ``dims`` span at most 2^MAX_ENUM_BITS sign vectors."""
    if sum(dims[1:]) > MAX_ENUM_BITS:
        raise SizeLimitError(
            f"sign enumeration over slots 2..m spans 2^{sum(dims[1:])} > 2^{MAX_ENUM_BITS} sign vectors"
        )


def sup_norm_real(form: MultilinearForm) -> float:
    """Exact operator norm of a real form.

    The sup over the product of unit balls is attained at cube vertices, so
    slots 2..m are enumerated over sign vectors while the slot-1 maximization
    reduces to an l1 sum.  Each enumerated slot fixes its first sign to +1:
    flipping every sign of one slot negates the slot-1 vector, and so leaves
    its l1 sum, and each flipped value is computed as the exact negation of
    its partner, so the result is the full enumeration's to the bit.  This
    is the one-form case of the stacked kernel :func:`_sup_norms_real`.
    Raises when slots 2..m span more than 2^MAX_ENUM_BITS sign vectors.
    """
    if form.field is not Field.REAL:
        raise DomainError("sup_norm_real handles real forms only; use sup_norm_complex_lb")
    return float(_sup_norms_real(form.coeffs[None])[0])


def _sup_norms_real(stack: np.ndarray) -> np.ndarray:
    """Exact operator norms of the finite real forms stack[0], stack[1], ... of one shape.

    Each norm is bit for bit what the form alone would give: the sign tables
    are built once for the whole stack, and every slice goes through the
    same contraction as a single form, a ``tensordot`` per middle slot, then
    ``matmul`` with a block of last-slot vertices, ``abs`` and ``add.reduce``
    over slot 1.  The last slot is walked in blocks of at most
    _LAST_SLOT_BLOCK vertices, fewer when K x N_1 is large, so a block's
    K x N_1 x block product holds at most _BLOCK_VALUES values; every
    middle-slot combination of a block fills the same product and column-sum
    buffers, and keeps each column's largest sum so far.
    """
    dims = stack.shape[1:]
    _check_enumerable(dims)
    if len(dims) == 1:
        return np.abs(stack).sum(axis=1)
    k, n1 = stack.shape[:2]
    # the middle slots see the stack as one form with K x N_1 rows in slot 1
    rows = stack.reshape(k * n1, *dims[1:])
    middle = [list(_sign_vectors(n)) for n in dims[1:-1]]
    block = min(_LAST_SLOT_BLOCK, max(1, _BLOCK_VALUES // (k * n1)))
    best = np.zeros(k)
    for start in range(0, 2 ** (dims[-1] - 1), block):
        last = _sign_vectors(dims[-1], start, start + block)
        if len(last) == 1:
            # numpy sums a lone column pairwise; with the vertex twice, slot 1
            # is summed row by row, as in every wider block
            last = np.repeat(last, 2, axis=0)
        product = np.empty((k, n1, len(last)))
        sums = np.empty((k, len(last)))
        peaks = np.zeros((k, len(last)))
        for combo in itertools.product(*middle):
            w = rows
            for eps in combo:
                w = np.tensordot(w, eps, axes=([1], [0]))
            # one N_1 x N_m matrix per form; the block's last-slot vertices at once
            np.matmul(w.reshape(k, n1, dims[-1]), last.T, out=product)
            np.abs(product, out=product)
            np.add.reduce(product, axis=1, out=sums)
            np.maximum(peaks, sums, out=peaks)
        np.maximum(best, peaks.max(axis=1), out=best)
    return best


def _contract_except(coeffs: np.ndarray, zs: list[np.ndarray], k: int) -> np.ndarray:
    """Contract every slot but k with its vector; returns a vector over slot k."""
    w = coeffs
    for j in reversed(range(coeffs.ndim)):
        if j != k:
            w = np.tensordot(w, zs[j], axes=([j], [0]))
    return w


def sup_norm_complex_lb(form: MultilinearForm, restarts: int = 16, seed: int = 0) -> float:
    """Seeded lower bound on the operator norm of a complex form.

    Coordinate ascent over per-coordinate unimodular phases: with all other
    coordinates fixed the value is a z + b in one coordinate z, maximized on
    the circle by aligning a z with b.  The first restart starts from the
    all-ones point, the rest from random phases; after convergence the
    slot-1 l1 collapse is applied as a final (still feasible) improvement.
    """
    if form.field is not Field.COMPLEX:
        raise DomainError("sup_norm_complex_lb handles complex forms only")
    rng = np.random.default_rng(seed)
    dims = form.dims
    best = 0.0
    for restart in range(max(1, restarts)):
        if restart == 0:
            zs = [np.ones(n, dtype=np.complex128) for n in dims]
        else:
            zs = [np.exp(2j * np.pi * rng.random(n)) for n in dims]
        current = 0.0
        for _ in range(200):
            for k in range(form.m):
                partial = _contract_except(form.coeffs, zs, k)
                total = np.dot(partial, zs[k])
                for i in range(dims[k]):
                    v = partial[i]
                    if v == 0:
                        continue
                    b = total - v * zs[k][i]
                    z_new = np.conj(v) / abs(v)
                    if b != 0:
                        z_new *= b / abs(b)
                    total = b + v * z_new
                    zs[k][i] = z_new
            value = float(abs(np.dot(_contract_except(form.coeffs, zs, 0), zs[0])))
            if value <= current * (1.0 + 1e-12) + 1e-300:
                current = max(current, value)
                break
            current = value
        # slot-1 collapse: optimal slot-1 phases give the l1 norm
        collapsed = float(np.abs(_contract_except(form.coeffs, zs, 0)).sum())
        best = max(best, current, collapsed)
    return best


def _sup_norm(form: MultilinearForm, restarts: int, seed: int) -> float:
    """The exact norm of a real form; a seeded lower bound for a complex one."""
    if form.field is Field.REAL:
        return sup_norm_real(form)
    return sup_norm_complex_lb(form, restarts=restarts, seed=seed)


# --------------------------------------------------------------------------
# Mixed norms and the Bohnenblust-Hille check
# --------------------------------------------------------------------------

def lp_norm(values, p: float) -> float:
    """(sum |v|^p)^(1/p) for positive finite p."""
    p = _khinchine_exponent(p, "lp exponent")
    total = float(np.sum(np.abs(np.asarray(values)) ** p))
    return total ** (1.0 / p)


def mixed_norm_lhs(form: MultilinearForm) -> float:
    """Coefficient l_{2m/(m+1)} norm of the form."""
    m = form.m
    return lp_norm(form.coeffs, 2.0 * m / (m + 1.0))


def bh_check(form: MultilinearForm, constant: ConstantRecord) -> VerificationReport:
    """Check mixed_norm_lhs <= C * ||U||.

    Real forms are certified against the exact vertex oracle.  Complex forms
    are diagnostic: the norm is a lower bound (16 phase-ascent restarts from
    seed 0), so the ratio may only be inflated and the check never
    hard-fails.
    """
    lhs = mixed_norm_lhs(form)
    sup = _sup_norm(form, 16, 0)
    certified = form.field is Field.REAL
    check = "bh" if certified else "bh-diagnostic"
    if sup == 0.0 and lhs > 1e-12:
        raise RuntimeError("zero operator norm with nonzero coefficients: oracle bug")
    rhs = constant.value * sup
    ratio = lhs / sup if sup > 0 else 0.0
    passed = True if not certified else lhs <= rhs * (1.0 + CERTIFIED_SLACK)
    return VerificationReport(check, form.digest(), lhs, rhs, ratio, constant, passed)


# --------------------------------------------------------------------------
# Multiple (p;1)-summing reformulation
# --------------------------------------------------------------------------

def weak1_norm(family: VectorFamily) -> float:
    """sup over unit dual functionals of sum_j |phi(x_j)|.

    On l_inf^N the dual ball is the l1 ball, whose extreme points are
    unimodular multiples of coordinate functionals, and the objective is
    convex; the sup is therefore the max absolute column sum.
    """
    if family.count == 0:
        return 0.0
    return float(np.abs(family.vectors).sum(axis=0).max())


def multiple_summing_check(
    form: MultilinearForm,
    families: list[VectorFamily],
    constant: ConstantRecord,
) -> VerificationReport:
    """Check the multiple (p;1)-summing inequality on given vector families.

    The exponent is the Bohnenblust-Hille one, p = 2m/(m+1):
    lhs = ( sum_{j_1..j_m} |U(x^(1)_{j_1}, .., x^(m)_{j_m})|^p )^(1/p),
    rhs = C * ||U|| * prod_k weak1_norm(family_k).  With canonical-basis
    families this reduces to the plain coefficient-norm check.
    """
    if form.field is not Field.REAL:
        raise DomainError("the certified summing check handles real forms only")
    if len(families) != form.m:
        raise DomainError(f"need one family per slot: {form.m} slots, {len(families)} families")
    for k, family in enumerate(families):
        if family.dimension != form.dims[k]:
            raise DomainError(
                f"slot {k + 1} has dimension {form.dims[k]} but its family lives in l_inf^{family.dimension}"
            )
    p = 2.0 * form.m / (form.m + 1.0)
    values = form.coeffs
    for family in families:
        # consumes axis 0, appends the family index last; after m rounds the
        # axes are (j_1, ..., j_m) again
        values = np.tensordot(values, family.vectors, axes=([0], [1]))
    lhs = lp_norm(values, p)
    sup = sup_norm_real(form)
    weak_product = math.prod(weak1_norm(f) for f in families)
    rhs = constant.value * sup * weak_product
    scale = sup * weak_product
    ratio = lhs / scale if scale > 0 else 0.0
    passed = lhs <= rhs * (1.0 + CERTIFIED_SLACK)
    params = f"{form.digest()};p={p!r};families={','.join(str(f.count) for f in families)}"
    return VerificationReport("summing", params, lhs, rhs, ratio, constant, passed)


# --------------------------------------------------------------------------
# Blei inequality check
# --------------------------------------------------------------------------

def blei_check(matrix, q: float, s1: float, s2: float) -> VerificationReport:
    """Check Blei's mixed-norm inequality on a positive matrix.

    lhs = (sum a_ij^w)^(1/w); rhs combines row l_q norms to the s1-th power
    with weight f(s1,s2)/s1 and column l_q norms to the s2-th power with
    weight f(s2,s1)/s2.  Both sides have degree 1 in the matrix, so when a
    direct sum under- or overflows the check is decided on a / max(a).
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2:
        raise DomainError("Blei's inequality is stated for matrices")
    if not np.all(np.isfinite(a)):
        raise DomainError("Blei matrix entries must be finite")
    if not np.all(a > 0):
        raise DomainError("Blei's inequality requires strictly positive entries")
    w = blei_w(q, s1, s2)
    f1 = blei_f(q, s1, s2)
    f2 = blei_f(q, s2, s1)

    def sides(a: np.ndarray) -> tuple[float, float, bool]:
        """lhs, rhs, and whether every sum behind them is a normal float."""
        with np.errstate(over="ignore"):
            total = float(np.sum(a**w))
            powers = a**q
            row_sums, col_sums = np.sum(powers, axis=1), np.sum(powers, axis=0)
            row_total = float(np.sum((row_sums ** (1.0 / q)) ** s1))
            col_total = float(np.sum((col_sums ** (1.0 / q)) ** s2))
        # an infinite row or column sum makes its total infinite
        low = min(total, row_total, col_total, row_sums.min(), col_sums.min())
        normal = _TINY <= low and max(total, row_total, col_total) < math.inf
        return total ** (1.0 / w), row_total ** (f1 / s1) * col_total ** (f2 / s2), normal

    lhs, rhs, normal = sides(a)
    scale = 1.0
    if not normal:
        # the same check on a / max(a), whose largest entry makes each total >= 1
        scale = float(a.max())
        lhs, rhs, _ = sides(a / scale)
    passed = lhs <= rhs * (1.0 + CERTIFIED_SLACK)
    params = f"shape={a.shape[0]}x{a.shape[1]};q={q!r};s1={s1!r};s2={s2!r};{digest_bytes(a.tobytes())}"
    return VerificationReport("blei", params, scale * lhs, scale * rhs, lhs / rhs, None, passed)


# --------------------------------------------------------------------------
# Extremal search
# --------------------------------------------------------------------------

_STEPS = (1.0, 0.1, 0.01)  # the climb's continuous step sizes


def _search_ratio(form: MultilinearForm, restarts: int, seed: int) -> float:
    sup = _sup_norm(form, restarts, seed)
    if sup == 0.0:
        return 0.0
    return mixed_norm_lhs(form) / sup


def _search_ratios(stack: np.ndarray, field: Field, seed: int) -> list[float]:
    """The climb's ratios of the forms stack[0], stack[1], ..., each to the bit
    what :func:`_search_ratio` gives it alone with 4 phase-ascent restarts."""
    if not np.all(np.isfinite(stack)):
        raise DomainError("form coefficients must be finite")
    m = stack.ndim - 1
    p = 2.0 * m / (m + 1.0)
    # one row-wise l_p sum, each row summed as mixed_norm_lhs sums one form
    totals = np.sum(np.abs(stack.reshape(len(stack), -1)) ** p, axis=1)
    if field is Field.REAL:
        sups = _sup_norms_real(stack)
    else:
        sups = [sup_norm_complex_lb(MultilinearForm(coeffs, field), restarts=4, seed=seed) for coeffs in stack]
    return [float(t) ** (1.0 / p) / sup if sup != 0.0 else 0.0 for t, sup in zip(totals, sups)]


def _moves(value: complex, field: Field) -> list:
    """A coordinate's candidates in climb order: +-1, value +- each step; complex: +-i, phase turns."""
    moves = [1.0, -1.0]
    for s in _STEPS:
        moves += (value + s, value - s)
    if field is Field.COMPLEX:
        moves += (1j, -1j)
        for s in _STEPS:
            moves += (value * np.exp(1j * s), value * np.exp(-1j * s))
    return moves


def extremal_search(
    m: int,
    n: int,
    field: Field = Field.REAL,
    budget: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Maximize mixed_norm_lhs / ||U|| over coefficient tensors.

    Random restarts (budget/1000 of them) followed by greedy coordinate
    sweeps through each coordinate's :func:`_moves`, then a snap of every
    entry to the unit circle; every tried ratio counts against the budget.
    A coordinate's candidates are scored as one stacked batch, one tensor
    per move, by :func:`_search_ratios`, each to the bit what it scores
    alone, and are then taken in move order, so the climb is the one that
    tries them one at a time.  Deterministic for a fixed seed.  The best
    ratio found is re-evaluated with the exact real oracle, so for real
    scalars the report is a certified lower bound on the extremal ratio;
    the complex report is diagnostic because its norm is itself only a
    lower bound.
    """
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if budget < 1:
        raise DomainError(f"the evaluation budget must be positive, got {budget}")
    dims = (n,) * m
    _check_enumerable(dims)
    rng = np.random.default_rng(seed)
    evals = 0
    best_ratio = -1.0
    best_tensor: np.ndarray | None = None
    for _ in range(max(1, budget // 1000)):
        if evals >= budget:
            break
        arr = _draw(dims, field, rng)
        [current] = _search_ratios(arr[None], field, seed)
        evals += 1
        improved = True
        while improved and evals < budget:
            improved = False
            for idx in np.ndindex(*dims):
                kept = arr[idx]
                moves = _moves(kept, field)[: budget - evals]
                if not moves:
                    break
                stack = np.repeat(arr[None], len(moves), axis=0)
                stack[(slice(None), *idx)] = moves
                evals += len(moves)
                for move, ratio in zip(moves, _search_ratios(stack, field, seed)):
                    if ratio > current + 1e-15:
                        current, kept, improved = ratio, move, True
                arr[idx] = kept
            if not improved and evals < budget:
                safe = np.where(arr == 0, 1.0, arr)
                vertex = safe / np.abs(safe)
                [ratio] = _search_ratios(vertex[None], field, seed)
                evals += 1
                if ratio > current + 1e-15:
                    arr, current, improved = vertex, ratio, True
        if current > best_ratio:
            best_ratio = current
            best_tensor = arr.copy()

    best_form = MultilinearForm(best_tensor, field)
    ratio = _search_ratio(best_form, 16, seed)  # final re-evaluation
    reference = compute_constant(m, field, Strategy.BEST) if m >= 2 else None
    certified = field is Field.REAL
    upper = reference.value if reference is not None else 1.0
    passed = True if not certified else ratio <= upper * (1.0 + CERTIFIED_SLACK)
    check = "search" if certified else "search-diagnostic"
    params = f"m={m};n={n};budget={budget};{best_form.digest()}"
    lhs = mixed_norm_lhs(best_form)
    norm = lhs / ratio if ratio > 0 else 0.0
    return VerificationReport(
        check, params, lhs, upper * norm, ratio, reference, passed, evals, best_form.coeffs
    )


# --------------------------------------------------------------------------
# Seeded generators
# --------------------------------------------------------------------------

def _draw(shape: tuple[int, ...], field: Field, rng: np.random.Generator) -> np.ndarray:
    """Entries uniform on [-1, 1] (real) or the unit disk (complex)."""
    if field is Field.REAL:
        return rng.uniform(-1.0, 1.0, size=shape)
    radius = np.sqrt(rng.random(shape))
    angle = 2.0 * np.pi * rng.random(shape)
    return radius * np.exp(1j * angle)


def random_form(dims: tuple[int, ...], field: Field, rng: np.random.Generator) -> MultilinearForm:
    """Coefficients uniform on [-1, 1] (real) or the unit disk (complex)."""
    return MultilinearForm(_draw(dims, field, rng), field)


def littlewood_form(dim: int = 2, field: Field = Field.REAL) -> MultilinearForm:
    """The 2x2 sign matrix (1,1;1,-1) zero-padded to dim x dim.

    Attains the bilinear ratio 2^(1/2) exactly.
    """
    if dim < 2:
        raise DomainError("the Littlewood matrix needs dim >= 2")
    arr = np.zeros((dim, dim))
    arr[:2, :2] = [[1.0, 1.0], [1.0, -1.0]]
    return MultilinearForm(arr, field)


def random_family(count: int, dimension: int, field: Field, rng: np.random.Generator) -> VectorFamily:
    return VectorFamily(_draw((count, dimension), field, rng), field)


def canonical_family(dimension: int, field: Field = Field.REAL) -> VectorFamily:
    """The canonical basis e_1..e_N of l_inf^N as a family."""
    return VectorFamily(np.eye(dimension), field)


# --------------------------------------------------------------------------
# Property suites: suite(trials, seed, **flags), each flag with its default
# --------------------------------------------------------------------------

def _require_shape(m: int, dim: int) -> None:
    if m < 1 or dim < 1:
        raise DomainError(f"need m >= 1 and dim >= 1, got m={m}, dim={dim}")


def khinchine_suite(trials: int, seed: int, n: int = 10, p: float | None = None) -> list[VerificationReport]:
    """Random coefficient vectors checked against the exact Rademacher oracle.

    Each vector's length is drawn from 1..n, so n is checked against the
    oracle's size guard before any draw.  Every vector is checked at the
    moment exponent p, or at 1, 4/3, 3/2, 5/3 and 2 when p is None.
    """
    if n < 1:
        raise DomainError(f"the maximal vector length must be positive, got {n}")
    if n > MAX_RADEMACHER_N:
        raise SizeLimitError(f"exact enumeration limited to N <= {MAX_RADEMACHER_N}, got n_max={n}")
    ps = (1.0, 4.0 / 3.0, 1.5, 5.0 / 3.0, 2.0) if p is None else (p,)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        a = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, n + 1)))
        reports.extend(khinchine_check(a, q) for q in ps)
    return reports


def bh_suite(trials: int, seed: int, m: int = 2, dim: int = 2) -> list[VerificationReport]:
    """Random real m-linear forms on l_inf^dim certified against the exact oracles.

    For bilinear runs the first instance is the Littlewood sign matrix, so
    the maximal ratio 2^(1/2) is always exercised.
    """
    _require_shape(m, dim)
    constant = compute_constant(m, Field.REAL, Strategy.BEST)
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(trials):
        if t == 0 and m == 2 and dim >= 2:
            form = littlewood_form(dim)
        else:
            form = random_form((dim,) * m, Field.REAL, rng)
        reports.append(bh_check(form, constant))
    return reports


def blei_suite(trials: int, seed: int) -> list[VerificationReport]:
    """Random positive matrices with random Blei parameters at q = 2.

    Each matrix has 1..6 rows and 1..8 columns; s1 and s2 are uniform on
    [1, 1.9).
    """
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 9))
        matrix = 1.0 - rng.random((rows, cols))  # entries in (0, 1]
        s1 = float(rng.uniform(1.0, 1.9))
        s2 = float(rng.uniform(1.0, 1.9))
        reports.append(blei_check(matrix, 2.0, s1, s2))
    return reports


def summing_suite(trials: int, seed: int, m: int = 2, dim: int = 2) -> list[VerificationReport]:
    """Random real m-linear forms on l_inf^dim and random vector families for the summing check."""
    _require_shape(m, dim)
    constant = compute_constant(m, Field.REAL, Strategy.BEST)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        form = random_form((dim,) * m, Field.REAL, rng)
        families = [
            random_family(int(rng.integers(1, dim + 2)), dim, Field.REAL, rng)
            for _ in range(m)
        ]
        reports.append(multiple_summing_check(form, families, constant))
    return reports
