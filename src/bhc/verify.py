"""Brute-force oracles for the inequalities behind the constants engine.

Everything here certifies at desk scale, by exhaustion rather than sampling:

* Rademacher p-th moments are exact averages over all 2^N sign patterns.
* The operator norm of a real m-linear form on l_inf^N is exact: a
  multilinear form attains its sup at cube vertices, so slots 2..m are
  enumerated over sign vectors while slot 1 collapses to an l1 sum; the
  serial vertex walk that does so lives in :mod:`bhc.oracle`.
* The weak-(1) norm on l_inf^N is the max coordinate-wise absolute column
  sum (the extreme points of the dual l1 ball are coordinate functionals).

The complex operator norm has no finite vertex set, so a seeded
coordinate-ascent over per-coordinate unimodular phases reports a lower
bound only, and complex checks are diagnostic: an underestimated norm can
only inflate the reported ratio, never mask a violation.  Each of its
contractions makes the gemvs ``np.tensordot`` would, on operands built once
per form, and an iteration contracts each slot once; a form of tiny or huge
coefficients is scaled by a power of two first, so the bound is scale-free.

Certified comparisons use a relative slack of 1e-9.  The property suites
at the bottom generate seeded random instances so the command-line front
end and the test suite exercise identical machinery.  Every suite is called
as ``suite(trials, seed, **flags)``, each flag a keyword with its own
default; a report holds no seed, since the run that asked for it knows it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .core import DomainError, Field, SizeLimitError, digest_bytes
from .exponents import blei_f, blei_w
from .oracle import MAX_ENUM_BITS
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

# Exact Rademacher averages enumerate 2^N sign patterns.
MAX_RADEMACHER_N = 20

_TINY = np.finfo(float).tiny  # the smallest normal double


def _frozen(values, field: Field, what: str) -> np.ndarray:
    """A read-only copy of ``values`` in the field's dtype; ``what`` names them in errors."""
    if not isinstance(field, Field):
        raise DomainError(f"unknown field {field!r}")
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
    # pattern sums double in one buffer: the first half adds coef, the second subtracts it
    sums = np.empty(1 << a.size, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    sums[0] = 0.0
    n = 1
    for coef in a:
        np.subtract(sums[:n], coef, out=sums[n : 2 * n])
        sums[:n] += coef
        n *= 2
    sums = np.abs(sums, out=None if np.iscomplexobj(sums) else sums)
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

def _cube(m: int, dim: int) -> tuple[int, ...]:
    """The dims (dim,)*m of an m-linear form on l_inf^dim, checked against the size guard,
    so a caller can check them before it draws or builds anything."""
    if m < 1 or dim < 1:
        raise DomainError(f"need m >= 1 and dim >= 1, got m={m}, dim={dim}")
    dims = (dim,) * m
    oracle._check_enumerable(dims)
    return dims


def sup_norm_real(form: MultilinearForm) -> float:
    """Exact operator norm of a real form.

    The sup over the product of unit balls is attained at cube vertices, so
    slots 2..m are enumerated over sign vectors while the slot-1 maximization
    reduces to an l1 sum.  Each enumerated slot fixes its first sign to +1:
    flipping every sign of one slot negates the slot-1 vector, and so leaves
    its l1 sum, and each flipped value is computed as the exact negation of
    its partner, so the result is the full enumeration's to the bit on
    OpenBLAS kernels that round like the SkylakeX ones (ROADMAP item 2).
    This is the one-form case of the stacked kernel
    :func:`bhc.oracle._sup_norms_real`, which contracts the middle slots depth
    first and scores their combinations a chunk at a time; an m = 3 form
    whose middle slot's sign table is cached and whose last slot has two
    coordinates or more and fits one block is pruned instead, scoring only
    the middle rows a certified bound lets reach the running norm.  Raises
    when slots 2..m span more than 2^MAX_ENUM_BITS sign vectors.
    """
    if form.field is not Field.REAL:
        raise DomainError("sup_norm_real handles real forms only; use sup_norm_complex_lb")
    return float(oracle._sup_norms_real(form.coeffs[None])[0])


def _contraction_chains(coeffs: np.ndarray) -> list[tuple[np.ndarray, list[tuple]]]:
    """For each slot k of ``coeffs``, the chain ``w = np.tensordot(w, zs[j], axes=([j], [0]))``
    over every slot j but k, highest first, taken apart into the steps ``tensordot`` makes:
    move axis j last, flatten the other axes into rows, one ``dot`` (a gemv) with zs[j]
    as a column, and shape the result.  Slot k's chain is (operand, steps): the first
    step's operand, built here once, and each step's (j, transpose, result shape), the
    first step's transpose None; with one slot, the chain is the form alone."""
    m = coeffs.ndim
    chains = []
    for k in range(m):
        slots, shape, steps = list(range(m)), coeffs.shape, []
        for j in reversed(range(m)):
            if j != k:
                at = slots.index(j)
                keep = [i for i in range(len(slots)) if i != at]
                steps.append((j, (*keep, at), tuple(shape[i] for i in keep)))
                slots, shape = [slots[i] for i in keep], steps[-1][2]
        operand = coeffs
        if steps:
            j, axes, out = steps[0]
            operand = coeffs.transpose(axes).reshape(-1, coeffs.shape[j])
            steps[0] = (j, None, out)
        chains.append((operand, steps))
    return chains


def _contract(chains: list[tuple[np.ndarray, list[tuple]]], cols: list[np.ndarray], k: int) -> np.ndarray:
    """Every slot but k of the form behind ``chains`` contracted with its column in ``cols``;
    returns a vector over slot k, bit for bit the ``tensordot`` chain it takes apart."""
    w, steps = chains[k]
    for j, axes, out in steps:
        if axes is not None:
            w = w.transpose(axes).reshape(-1, len(cols[j]))
        w = np.dot(w, cols[j]).reshape(out)
    return w


def _subnormal_phase(x):
    """x / |x| for a complex scalar x of subnormal modulus.  numpy divides by |x| through
    its reciprocal, which overflows there, so x is first scaled up by 2^600, exactly."""
    x = x * 2.0**600
    return x / abs(x)


def sup_norm_complex_lb(form: MultilinearForm, restarts: int = 16, seed: int = 0) -> float:
    """Seeded lower bound on the operator norm of a complex form.

    Coordinate ascent over per-coordinate unimodular phases: with all other
    coordinates fixed the value is a z + b in one coordinate z, maximized on
    the circle by aligning a z with b.  The first restart starts from the
    all-ones point, the rest from random phases; after convergence the
    slot-1 l1 collapse is applied as a final (still feasible) improvement.

    Each contraction is the ``tensordot`` chain of :func:`_contraction_chains`,
    whose first operands are built once per form.  No phase moves between an
    iteration's value check and the next iteration's slot-1 update, so the
    check's slot-1 contraction serves that update too.  A form whose largest
    coefficient modulus lies outside [2^-512, 2^512] is scaled by a power of
    two to bring it into [0.5, 1), and its bound scaled back, so the bound
    neither over- nor underflows inside the ascent.  A partial contraction
    or coordinate sum of subnormal modulus, which a form inside that range
    can still have, gets its phase from :func:`_subnormal_phase`.
    """
    if form.field is not Field.COMPLEX:
        raise DomainError("sup_norm_complex_lb handles complex forms only")
    if restarts < 1:
        raise DomainError(f"the phase ascent needs at least one restart, got restarts={restarts}")
    coeffs, scale = form.coeffs, 0
    top = float(np.abs(coeffs).max())
    if top != 0.0 and not 2.0**-512 <= top <= 2.0**512:
        scale = math.frexp(top)[1]
        coeffs = np.ldexp(coeffs.view(np.float64), -scale).view(np.complex128)
    chains = _contraction_chains(coeffs)
    rng = np.random.default_rng(seed)
    dims = form.dims
    best = 0.0
    for restart in range(restarts):
        if restart == 0:
            zs = [np.ones(n, dtype=np.complex128) for n in dims]
        else:
            zs = [np.exp(2j * np.pi * rng.random(n)) for n in dims]
        cols = [z.reshape(-1, 1) for z in zs]
        slot1 = _contract(chains, cols, 0)
        current = 0.0
        for _ in range(200):
            for k in range(form.m):
                partial = slot1 if k == 0 else _contract(chains, cols, k)
                total = np.dot(partial, zs[k])
                for i in range(dims[k]):
                    v = partial[i]
                    if v == 0:
                        continue
                    b = total - v * zs[k][i]
                    r = abs(v)
                    z_new = np.conj(v) / r if r >= _TINY else _subnormal_phase(np.conj(v))
                    if b != 0:
                        r = abs(b)
                        z_new *= b / r if r >= _TINY else _subnormal_phase(b)
                    total = b + v * z_new
                    zs[k][i] = z_new
            value = float(abs(np.dot(slot1 := _contract(chains, cols, 0), zs[0])))
            if value <= current * (1.0 + 1e-12) + 1e-300:
                current = max(current, value)
                break
            current = value
        # slot-1 collapse: optimal slot-1 phases give the l1 norm
        collapsed = float(np.abs(slot1).sum())
        best = max(best, current, collapsed)
    try:
        return math.ldexp(best, scale)
    except OverflowError:  # a norm beyond the largest double
        return math.inf


def _sup_norms(stack: np.ndarray, field: Field, restarts: int, seed: int) -> list[float]:
    """The exact norms of real forms stack[0], stack[1], ...; seeded lower bounds of complex ones."""
    if field is Field.REAL:
        return oracle._sup_norms_real(stack).tolist()
    return [sup_norm_complex_lb(MultilinearForm(coeffs, field), restarts, seed) for coeffs in stack]


# --------------------------------------------------------------------------
# Mixed norms and the Bohnenblust-Hille check
# --------------------------------------------------------------------------

def _lp_norms(rows, p: float) -> list[float]:
    """(sum |v|^p)^(1/p) of each of rows[0], rows[1], ..., summed flat; a sum that leaves the
    normal double range is taken over |v| / max|v| instead, if that max is positive and finite."""
    rows = np.abs(rows).reshape(len(rows), -1)
    norms = np.add.reduce(rows**p, axis=1).tolist()  # np.sum's reduce, without its Python wrapper
    for i, total in enumerate(norms):
        if _TINY <= total < math.inf or not 0.0 < (top := float(rows[i].max(initial=0.0))) < math.inf:
            norms[i] = total ** (1.0 / p)
        else:
            norms[i] = top * float(np.sum((rows[i] / top) ** p)) ** (1.0 / p)
    return norms


def lp_norm(values, p: float) -> float:
    """(sum |v|^p)^(1/p) for positive finite p: :func:`_lp_norms` of one row, in memory order."""
    with np.errstate(over="ignore"):
        return _lp_norms(np.ravel(values, order="K")[None], _khinchine_exponent(p, "lp exponent"))[0]


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
    [sup] = _sup_norms(form.coeffs[None], form.field, 16, 0)
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
    """Check Blei's mixed-norm inequality on a nonempty positive matrix.

    lhs = (sum a_ij^w)^(1/w); rhs combines row l_q norms to the s1-th power
    with weight f(s1,s2)/s1 and column l_q norms to the s2-th power with
    weight f(s2,s1)/s2.  Both sides have degree 1 in the matrix, so when a
    direct sum under- or overflows the check is decided on a / max(a).
    """
    [report] = _blei_checks(np.asarray(matrix, dtype=np.float64)[None], q, (s1,), (s2,))
    return report


def _powers(stack: np.ndarray, exps: tuple[float, ...]) -> np.ndarray:
    """stack[k] ** exps[k] for each k, each to the bit of its scalar power.  numpy's ``**``
    squares for a scalar exponent 2, and its pow loop does not always give those bits; every
    exponent here is at least 1, and of those only 2 takes such a path of its own."""
    out = stack ** np.array(exps).reshape(-1, *(1,) * (stack.ndim - 1))
    if 2.0 in exps:
        for k, e in enumerate(exps):
            if e == 2.0:
                out[k] = stack[k] ** e
    return out


def _blei_checks(
    stack: np.ndarray, q: float, s1s: tuple[float, ...], s2s: tuple[float, ...]
) -> list[VerificationReport]:
    """Blei's check of each float64 matrix stack[k] of one shape, at q, s1s[k] and s2s[k].

    Each array step is one numpy call over the whole stack, and every sum runs
    along the axis and in the order a lone matrix's would, so each report is to
    the bit what :func:`blei_check` gives the matrix alone.  A matrix whose sums
    leave the normal double range is decided on a / max(a), as a stack of one.
    """
    if stack.ndim != 3:
        raise DomainError("Blei's inequality is stated for matrices")
    if 0 in stack.shape[1:]:
        raise DomainError(f"Blei's inequality needs a nonempty matrix, got shape {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise DomainError("Blei matrix entries must be finite")
    if not (stack > 0).all():
        raise DomainError("Blei's inequality requires strictly positive entries")
    ws = [blei_w(q, s1, s2) for s1, s2 in zip(s1s, s2s)]
    f1s = [blei_f(q, s1, s2) for s1, s2 in zip(s1s, s2s)]
    f2s = [blei_f(q, s2, s1) for s1, s2 in zip(s1s, s2s)]

    def sides(a: np.ndarray, ks: slice) -> tuple[list[float], list[float], list[bool]]:
        """lhs, rhs, and whether every sum behind them is a normal float, of each matrix of a
        at the exponents of the matrices ks."""
        with np.errstate(over="ignore"):
            totals = np.add.reduce(_powers(a, ws[ks]).reshape(len(a), -1), axis=1)
            powers = a**q
            row_sums, col_sums = np.add.reduce(powers, axis=2), np.add.reduce(powers, axis=1)
            row_totals = np.add.reduce(_powers(row_sums ** (1.0 / q), s1s[ks]), axis=1)
            col_totals = np.add.reduce(_powers(col_sums ** (1.0 / q), s2s[ks]), axis=1)
        sums = (totals[:, None], row_totals[:, None], col_totals[:, None], row_sums, col_sums)
        sums = np.concatenate(sums, axis=1)
        normal = ((_TINY <= sums) & (sums < math.inf)).all(axis=1).tolist()
        lhs = [total ** (1.0 / w) for total, w in zip(totals.tolist(), ws[ks])]
        factors = zip(row_totals.tolist(), col_totals.tolist(), f1s[ks], s1s[ks], f2s[ks], s2s[ks])
        rhs = [row ** (f1 / s1) * col ** (f2 / s2) for row, col, f1, s1, f2, s2 in factors]
        return lhs, rhs, normal

    lhs, rhs, normal = sides(stack, slice(None))
    rows, cols = stack.shape[1:]
    reports = []
    for k, a in enumerate(stack):
        scale, lhs_k, rhs_k = 1.0, lhs[k], rhs[k]
        if not normal[k]:
            # the same check on a / max(a), whose largest entry makes each total >= 1
            scale = float(a.max())
            [lhs_k], [rhs_k], _ = sides((a / scale)[None], slice(k, k + 1))
        passed = lhs_k <= rhs_k * (1.0 + CERTIFIED_SLACK)
        params = f"shape={rows}x{cols};q={q!r};s1={s1s[k]!r};s2={s2s[k]!r};{digest_bytes(a.tobytes())}"
        reports.append(
            VerificationReport("blei", params, scale * lhs_k, scale * rhs_k, lhs_k / rhs_k, None, passed)
        )
    return reports


# --------------------------------------------------------------------------
# Extremal search
# --------------------------------------------------------------------------

_STEPS = (1.0, 0.1, 0.01)  # the climb's continuous step sizes


def _search_ratios(stack: np.ndarray, field: Field, seed: int, restarts: int = 4) -> list[float]:
    """The ratios of the forms stack[0], stack[1], ..., each to the bit its ratio alone; a
    complex norm takes ``restarts`` phase-ascent restarts, so 16 and seed 0 give bh_check's."""
    if not np.isfinite(stack).all():
        raise DomainError("form coefficients must be finite")
    m = stack.ndim - 1
    lhs = _lp_norms(stack, 2.0 * m / (m + 1.0))
    sups = _sup_norms(stack, field, restarts, seed)
    return [t / sup if sup != 0.0 else 0.0 for t, sup in zip(lhs, sups)]


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
    The candidates of the next few coordinates of a sweep are scored as one
    stacked batch, one tensor per move, by :func:`_search_ratios`, each to
    the bit what it scores alone, and are then taken in sweep and move
    order.  An accepted move changes only its own coordinate, so the later
    coordinates' candidates are known before it; once a coordinate accepts
    a move, the rest of its batch is discarded and the sweep resumes at the
    next coordinate.  The climb is therefore the one that tries the moves
    one at a time, though it scores more candidates than the budget counts.
    Each sweep starts with one coordinate per batch; a batch that accepts
    nothing doubles the next one while the stack's vertex values fit one
    capped product (oracle._CHUNK_VALUES), and an accepted move resets it to one
    coordinate.  Complex batches stay at one coordinate: each complex norm
    is its own phase ascent, so a discarded candidate would only cost time.
    Deterministic for a fixed seed.  The best ratio found is re-evaluated
    with the exact real oracle, so for real scalars the report is a
    certified lower bound on the extremal ratio; the complex report is
    diagnostic because its norm is itself only a lower bound.
    """
    dims = _cube(m, n)
    if budget < 1:
        raise DomainError(f"the evaluation budget must be positive, got {budget}")
    # the vertex values the oracle scores for one coordinate's moves
    coordinate_values = len(_moves(0.0, field)) * n * 2 ** ((n - 1) * (m - 1))
    rng = np.random.default_rng(seed)
    evals = 0
    best_ratio = -1.0
    best_tensor: np.ndarray | None = None
    for _ in range(max(1, budget // 1000)):
        if evals >= budget:
            break
        arr = _draw(dims, field, rng).reshape(-1)  # coordinate i is flat index i in C order
        [current] = _search_ratios(arr.reshape(1, *dims), field, seed)
        evals += 1
        improved = True
        while improved and evals < budget:
            improved = False
            at, width = 0, 1
            while at < arr.size and evals < budget:
                # the next `width` coordinates' moves, each cut to the budget left
                # when its turn comes: until a move is accepted the tensor is arr
                plan, planned = [], evals
                for i in range(at, min(at + width, arr.size)):
                    moves = _moves(arr[i], field)[: budget - planned]
                    if not moves:
                        break
                    plan.append((i, moves))
                    planned += len(moves)
                stack = np.repeat(arr[None], planned - evals, axis=0)
                row = 0
                for i, moves in plan:
                    stack[row : row + len(moves), i] = moves
                    row += len(moves)
                ratios = iter(_search_ratios(stack.reshape(-1, *dims), field, seed))
                accepted = False
                for i, moves in plan:
                    at += 1
                    evals += len(moves)
                    kept = arr[i]
                    for move, ratio in zip(moves, ratios):
                        if ratio > current + 1e-15:
                            current, kept, accepted = ratio, move, True
                    arr[i] = kept
                    if accepted:
                        break  # the later coordinates were scored against the old tensor
                improved |= accepted
                if accepted:
                    width = 1
                elif field is Field.REAL and 2 * width * coordinate_values <= oracle._CHUNK_VALUES:
                    width *= 2
            if not improved and evals < budget:
                safe = np.where(arr == 0, 1.0, arr)
                vertex = safe / np.abs(safe)
                [ratio] = _search_ratios(vertex.reshape(1, *dims), field, seed)
                evals += 1
                if ratio > current + 1e-15:
                    arr, current, improved = vertex, ratio, True
        if current > best_ratio:
            best_ratio = current
            best_tensor = arr  # each restart draws a fresh arr

    best_form = MultilinearForm(best_tensor.reshape(dims), field)
    [ratio] = _search_ratios(best_form.coeffs[None], field, seed, restarts=16)  # final re-evaluation
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
    if not isinstance(field, Field):
        raise DomainError(f"unknown field {field!r}")
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
    dims = _cube(m, dim)
    constant = compute_constant(m, Field.REAL, Strategy.BEST)
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(trials):
        if t == 0 and m == 2 and dim >= 2:
            form = littlewood_form(dim)
        else:
            form = random_form(dims, Field.REAL, rng)
        reports.append(bh_check(form, constant))
    return reports


def blei_suite(trials: int, seed: int) -> list[VerificationReport]:
    """Random positive matrices with random Blei parameters at q = 2.

    Each matrix has 1..6 rows and 1..8 columns; s1 and s2 are uniform on
    [1, 1.9).  The draws of each shape are checked as one stack, each report
    to the bit what its matrix gives alone, and returned in trial order.
    """
    rng = np.random.default_rng(seed)
    groups: dict[tuple[int, int], list[tuple[int, np.ndarray, float, float]]] = {}
    for t in range(trials):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 9))
        matrix = 1.0 - rng.random((rows, cols))  # entries in (0, 1]
        s1 = float(rng.uniform(1.0, 1.9))
        s2 = float(rng.uniform(1.0, 1.9))
        groups.setdefault(matrix.shape, []).append((t, matrix, s1, s2))
    reports: list = [None] * trials
    for group in groups.values():
        ts, matrices, s1s, s2s = zip(*group)
        for t, report in zip(ts, _blei_checks(np.stack(matrices), 2.0, s1s, s2s)):
            reports[t] = report
    return reports


def summing_suite(trials: int, seed: int, m: int = 2, dim: int = 2) -> list[VerificationReport]:
    """Random real m-linear forms on l_inf^dim and random vector families for the summing check."""
    dims = _cube(m, dim)
    constant = compute_constant(m, Field.REAL, Strategy.BEST)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(trials):
        form = random_form(dims, Field.REAL, rng)
        families = [
            random_family(int(rng.integers(1, dim + 2)), dim, Field.REAL, rng)
            for _ in range(m)
        ]
        reports.append(multiple_summing_check(form, families, constant))
    return reports
