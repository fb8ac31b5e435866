"""Brute-force oracles for the inequalities behind the constants engine.

Everything here certifies at desk scale, by exhaustion rather than sampling:

* Rademacher p-th moments are exact averages over all 2^N sign patterns.
* The operator norm of a real m-linear form on l_inf^N is exact: a
  multilinear form attains its sup at cube vertices, so slots 2..m are
  enumerated over sign vectors while slot 1 collapses to an l1 sum.  Each
  of slots 2..m fixes its first sign to +1, since flipping a whole slot
  only negates the value.  The middle slots 2..m-1 are contracted depth
  first, so a shared prefix is contracted once, and their combinations are
  scored a chunk at a time: one ``matmul`` against a block of last-slot
  vertices, one ``abs`` and one sum over slot 1 per chunk.  Every slot is
  read a block of sign vectors at a time and every product is capped, so
  memory stays flat up to the size guard.  One call can take a stack of
  forms of one shape; the sign tables of narrow slots are cached.  A large
  call spreads over threads when the BLAS leaves CPUs idle, each thread
  walking one range of a slot's sign vectors, with the same norms to the
  bit.  A lone form with one middle slot of 64 rows or more is pruned
  instead, where that measured faster: a vectorised bound pass gives each
  of that slot's rows a certified upper bound on the vertex values the walk
  would compute for it, and the rows are scored in descending bound until
  none left can reach the running norm (717 of the 6 144 rows of three
  random (12,12,12) forms), again with the same norms to the bit.
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

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import DomainError, Field, SizeLimitError, _blas_threads, digest_bytes
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

# Every enumerated slot, middle or last, is read at most _SIGN_BLOCK sign
# vectors at a time, and every scored product holds at most _CHUNK_VALUES
# values (1 MiB) whatever K, N_1 and the slot widths: a last-slot block has at
# most _CHUNK_VALUES // (K x N_1) vertices, and a chunk as many middle
# combinations as fit, one of each at least.  A larger gemm amortizes packing
# the block, and a product this size still sits in cache for the abs and the
# sum that follow.
_SIGN_BLOCK = 2**16
_CHUNK_VALUES = 2**17

# A call takes one more thread per _PARALLEL_VALUES vertex values (see _workers),
# and a call with middle slots takes threads only if each middle combination
# meets _LEAF_VALUES vertex values or more: below that, the walk's Python step
# per combination holds the GIL for most of the call, and a second thread only
# waits for it.  With a one-thread BLAS on 2 CPUs, two threads saved 12-30 % of
# a call from 2^21 values on, and broke even at 2^11 values per combination.
_PARALLEL_VALUES = 2**20
_LEAF_VALUES = 2**12

# A lone form with one middle slot of _PRUNE_ROWS rows or more has its rows ranked
# by a certified bound and only those that can still reach the running norm
# scored (_pruned_walk), where that measured faster than the walk (_prune_pays):
# for N_1 <= _PRUNE_SLOT1, since the bound over two halves of the last slot
# loosens as slot 1 grows.
_PRUNE_ROWS = 2**6
_PRUNE_SLOT1 = 16


def _prune_pays(n1: int, n2: int, nm: int) -> bool:
    """Whether a lone form of shape (N_1, N_2, N_m) is pruned.

    On 2 CPUs with a one-thread BLAS, random forms of the shapes so pruned
    with N_2 of 7, 10, 13 or 16 ran from about as fast as the walk over two
    threads at the rule's edge ((16,7,5), (12,7,5): 0.9x-1.1x) to 40x as fast
    ((1,10,14)); (12,12,12) 4x-11x, (8,8,8) 2x-3x.  Past the rule, (32,10,10),
    (64,12,7) and (5,5,5) ran 0.66x to 0.91x as fast.  A last slot of 4 or
    fewer keeps the walk: no CLI cube has one with _PRUNE_ROWS middle rows,
    so no workload measures pruning there.
    """
    return nm > 4 and 2 ** (n2 - 1) >= _PRUNE_ROWS and n1 <= _PRUNE_SLOT1


def _sign_vectors(n: int, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows start..stop-1 of the 2^(n-1) length-n sign vectors whose first sign
    is +1, as +-1.0, written into the first rows of ``out`` if given; row r
    carries the signs of the bits of 2r.  The bits are unpacked one byte each,
    so the build needs an eighth of the table besides it."""
    rows = np.arange(2 * start, 2 * min(stop, 2 ** (n - 1)), 2, dtype="<u8")
    bits = np.unpackbits(rows.view(np.uint8).reshape(-1, 8), axis=1, count=n, bitorder="little")
    table = np.multiply(bits, -2.0, dtype=np.float64, out=None if out is None else out[: len(rows)])
    table += 1.0
    return table


@functools.cache
def _cached_sign_vectors(n: int) -> np.ndarray:
    """All rows of :func:`_sign_vectors`, read-only; only for n whose table fits one sign block."""
    table = _sign_vectors(n, 0, 2 ** (n - 1))
    table.setflags(write=False)
    return table


def _sign_blocks(n: int, block: int, start: int = 0, stop: int | None = None):
    """Yield rows start..stop-1 of :func:`_sign_vectors` in order, ``block`` at a time (all
    rows by default): slices of the cached table when the whole table fits one sign block;
    else each block is built into one buffer, over the block before it, so a wide slot
    holds one block at a time."""
    total = 2 ** (n - 1)
    stop = total if stop is None else min(stop, total)
    if total <= _SIGN_BLOCK:
        table = _cached_sign_vectors(n)
        for at in range(start, stop, block):
            yield table[at : min(at + block, stop)]
        return
    buffer = np.empty((min(block, stop - start), n))
    for at in range(start, stop, block):
        yield _sign_vectors(n, at, min(at + block, stop), buffer)


def _middle_leaves(w: np.ndarray, widths: tuple[int, ...], start: int = 0, stop: int | None = None):
    """Yield w with axis 1 contracted by a sign vector of width widths[0], the next
    axis 1 by one of width widths[1], and so on: every combination, depth first,
    each slot's sign vectors read a sign block at a time, the first slot's only
    from rows start..stop-1.

    Each leaf is its combination's chain of ``np.tensordot(w, eps, axes=([1], [0]))``
    to the bit: a prefix's transpose, the operand ``tensordot`` builds, is taken
    once for every row that extends it, and each row makes the ``dot`` (a gemv)
    that ``tensordot`` makes.
    """
    if not widths:
        yield w
        return
    at = np.moveaxis(w, 1, -1).reshape(-1, w.shape[1])
    shape = w.shape[:1] + w.shape[2:]
    for signs in _sign_blocks(widths[0], _SIGN_BLOCK, start, stop):
        for eps in signs:
            yield from _middle_leaves(np.dot(at, eps.reshape(-1, 1)).reshape(shape), widths[1:])


def _check_enumerable(dims: tuple[int, ...]) -> None:
    """Raise unless slots 2..m of ``dims`` span at most 2^MAX_ENUM_BITS sign vectors."""
    if sum(dims[1:]) > MAX_ENUM_BITS:
        raise SizeLimitError(
            f"sign enumeration over slots 2..m spans 2^{sum(dims[1:])} > 2^{MAX_ENUM_BITS} sign vectors"
        )


def _cube(m: int, dim: int) -> tuple[int, ...]:
    """The dims (dim,)*m of an m-linear form on l_inf^dim, checked against the size guard,
    so a caller can check them before it draws or builds anything."""
    if m < 1 or dim < 1:
        raise DomainError(f"need m >= 1 and dim >= 1, got m={m}, dim={dim}")
    dims = (dim,) * m
    _check_enumerable(dims)
    return dims


def sup_norm_real(form: MultilinearForm) -> float:
    """Exact operator norm of a real form.

    The sup over the product of unit balls is attained at cube vertices, so
    slots 2..m are enumerated over sign vectors while the slot-1 maximization
    reduces to an l1 sum.  Each enumerated slot fixes its first sign to +1:
    flipping every sign of one slot negates the slot-1 vector, and so leaves
    its l1 sum, and each flipped value is computed as the exact negation of
    its partner, so the result is the full enumeration's to the bit.  This
    is the one-form case of the stacked kernel :func:`_sup_norms_real`, which
    contracts the middle slots depth first and scores their combinations a
    chunk at a time.  Raises when slots 2..m span more than 2^MAX_ENUM_BITS
    sign vectors.
    """
    if form.field is not Field.REAL:
        raise DomainError("sup_norm_real handles real forms only; use sup_norm_complex_lb")
    return float(_sup_norms_real(form.coeffs[None])[0])


def _sup_norms_real(stack: np.ndarray) -> np.ndarray:
    """Exact operator norms of the finite real forms stack[0], stack[1], ... of one shape.

    Each norm is bit for bit what a full enumeration through the chain
    ``tensordot`` per middle slot, ``matmul`` with the last-slot vertices,
    ``abs`` and ``add.reduce`` over slot 1 would give the form alone:

    * Every slot is read in blocks of at most _SIGN_BLOCK sign vectors, and
      every product holds at most _CHUNK_VALUES values: a last-slot block has
      at most _CHUNK_VALUES // (K x N_1) vertices, one at least.
    * The middle slots see the stack as one form with K x N_1 rows in slot 1
      and are contracted depth first (:func:`_middle_leaves`), so a prefix
      shared by many combinations is contracted once.
    * The middle combinations of a block are scored a chunk at a time
      (_CHUNK_VALUES): the walk copies their N_1 x N_m matrices straight into
      one buffer, then one product, one ``abs``, one ``add.reduce`` over slot
      1 and one ``maximum`` into the running norms.
    * One rule picks the product, with or without middle slots: one gemm
      over all rows when N_1 > 1 and the last slot fits one block, otherwise
      one product per form, as for a lone form.
    * The sign tables of slots that fit one sign block are cached; a wider
      slot's blocks are built in turn into one buffer (:func:`_sign_blocks`).
    * A large call is walked by :func:`_workers` threads: each takes one
      contiguous range of the first middle slot's rows, or with no middle
      slot of the last slot's blocks, and walks it with its own buffers and
      running norms (:func:`_walk`); the caller takes the first range and
      the maximum over all (:func:`_fan_out`).  Every product is one the
      serial walk makes and a maximum is exact in any order, so the norms do
      not depend on the thread count; one worker runs inline, with no thread.
    * A lone form with one middle slot is pruned (:func:`_pruned_walk`) where
      that measured faster (:func:`_prune_pays`), its middle slot's sign table
      is cached, and its last slot has two coordinates or more and fits one
      block.  A bound pass (:func:`_row_reach`) gives each middle row r a
      reach R(r) = B(r) (1 + c) + (c ||U||_1 + tiny), with B(r) the computed
      bound over two halves of the last slot, c = 4 (N_1 + N_2 + N_3) u,
      u = 2^-53 and tiny the smallest normal double; the rows are scored in
      descending reach, one row first and then twice as many per chunk up to
      a full chunk, and those whose reach is below the running norm are
      dropped.  A scored row is scored as in the walk, and the norm is a
      maximum, so only a dropped row could change it, and none does: R(r) is
      at or above every vertex value V^(r, t) the walk would compute for r.

    Proof that R(r) >= V^(r, t) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., §3.1 and §4.2; gamma_n = n u / (1 - n u)).  Every
    multiplication in the walk and the bound pass is by +-1, so exact, and
    an addition rounds by a factor (1 + d), |d| <= u, with no underflow
    term; a sum of n terms x_j computed in any order is off by at most
    gamma_(n-1) sum |x_j|.  Write A = ||U||_1, A_i for its part in slot-1 row
    i and A_h for its part over half h of the last slot.
    The leaf entry L^_ic = sum_j U_ijc e_j is off by gamma_N2 sum_j |U_ijc|,
    and the product P^_i = sum_c L^_ic t_c by gamma_N3 sum_c |L^_ic|, so
    |P^_i - P_i| <= gamma_(N2+N3) A_i (Lemma 3.3), and the vertex value
    V^ = fl(sum_i |P^_i|) <= (1 + gamma_N1) (V + gamma_(N2+N3) A), with V the
    exact value.  Split the last slot into halves a and b: V <= B_a + B_b,
    B_h = max over the half's sign vectors t_h of sum_i |sum_jc U_ijc e_j t_c|
    (triangle inequality; the sum is even in t_h, so t_h may start with +1).
    The bound pass computes each such sum, for every t_h, within the same
    error from below: B^_h >= (1 - gamma_N1) (B_h - gamma_(N2+N3) A_h), and
    B^ = fl(B^_a + B^_b) >= (1 - u) (B^_a + B^_b).  So, with n = N_1 + N_2 +
    N_3 and n u <= 2^-20,
        V^ <= (1 + gamma_N1) / ((1 - u) (1 - gamma_N1)) B^ + 2 (1 + gamma_N1) gamma_(N2+N3) A
           <= (1 + 2 n u) B^ + 2 n u (1 + 2^-18) A^,
    A^ the computed ||U||_1, A <= A^ / (1 - gamma_(N1 N2 N3)).  R(r) is computed
    with four roundings, each losing at most a factor (1 - u) and, for a
    product, an underflow of 2^-1075, which tiny covers; 1 + c rounds to no
    less than 1 + (4n - 1) u.  That leaves R(r) >= (1 + (4n - 5) u) B^ +
    4 n u (1 - 3u) A^, at or above the bound for n >= 3.  Every partial sum
    above, and R(r), is below 4A in magnitude, so none overflows while 4A^ is
    finite; when it is not, every R(r) is inf and every row is scored.
    """
    dims = stack.shape[1:]
    _check_enumerable(dims)
    if len(dims) == 1:
        return np.abs(stack).sum(axis=1)
    k, n1, nm = *stack.shape[:2], dims[-1]
    rows = stack.reshape(k * n1, *dims[1:])
    middle = dims[1:-1]
    block = min(_SIGN_BLOCK, max(1, _CHUNK_VALUES // (k * n1)))
    vertices = 2 ** (nm - 1)
    # numpy makes a 1 x N_m form a gemv, and OpenBLAS rounds a gemm over many
    # forms' rows differently at some partial block widths (above 192, not a
    # multiple of 8), so only a last slot that fits one block gets one gemm
    one_gemm = n1 > 1 and block >= vertices
    # a lone form (a stack's Python step per middle row serves all its forms),
    # one middle slot whose sign table is cached, and a last slot of more than one
    # vertex (the walk doubles a lone one) that fits one block
    if (
        k == 1
        and len(middle) == 1
        and 1 < nm
        and 2 ** (middle[0] - 1) <= _SIGN_BLOCK
        and vertices <= min(_SIGN_BLOCK, _CHUNK_VALUES // n1)
        and _prune_pays(n1, middle[0], nm)
    ):
        return np.array([_pruned_walk(stack[0])])
    # a worker walks a range of the first middle slot's rows, else of the last slot's blocks
    units = 2 ** (middle[0] - 1) if middle else -(-vertices // block)
    leaf_values = k * n1 * vertices  # the vertex values of one middle combination
    # the call's vertex values: leaf_values times 2^(N_j - 1) per middle slot
    workers = _workers(units, leaf_values * 2 ** (sum(middle) - len(middle)), leaf_values)
    if workers == 1:
        return _walk(rows, k, n1, middle, block, one_gemm, 0, units, _NEVER_SET)
    for n in dims[1:]:
        if 2 ** (n - 1) <= _SIGN_BLOCK:
            _cached_sign_vectors(n)  # built once, before the workers read it
    return _fan_out(functools.partial(_walk, rows, k, n1, middle, block, one_gemm), units, workers)


def _walk(
    rows: np.ndarray,
    k: int,
    n1: int,
    middle: tuple[int, ...],
    block: int,
    one_gemm: bool,
    lo: int,
    hi: int,
    stop: threading.Event,
) -> np.ndarray:
    """The running norms of :func:`_sup_norms_real` over rows lo..hi-1 of the first
    middle slot's sign table, or with no middle slot over the last slot's blocks
    lo..hi-1; ``rows`` is the stack seen as one form of K x N_1 rows.  Returns
    early, with the norms so far, once ``stop`` is set."""
    nm = rows.shape[-1]
    best = np.zeros(k)
    blocks = _sign_blocks(nm, block) if middle else _sign_blocks(nm, block, lo * block, hi * block)
    for last in blocks:
        if stop.is_set():
            break
        if len(last) == 1:
            # numpy sums a lone column pairwise; with the vertex twice, slot 1
            # is summed row by row, as in every wider block
            last = np.repeat(last, 2, axis=0)
        width = len(last)
        if not middle:
            product = np.matmul(rows if one_gemm else rows.reshape(k, n1, nm), last.T)
            sums = np.add.reduce(np.abs(product, out=product).reshape(k, n1, width), axis=1)
            np.maximum(best, np.maximum.reduce(sums, axis=1), out=best)
            continue
        # the middle combinations that extend rows lo..hi-1 of the first middle slot
        combinations = 2 ** (sum(middle[1:]) - len(middle[1:])) * (hi - lo)
        chunk = min(combinations, max(1, _CHUNK_VALUES // (k * n1 * width)))
        leaves = np.empty((chunk, k * n1, nm))
        product = np.empty((chunk * k, n1, width))
        sums = np.empty((chunk * k, width))
        walk = _middle_leaves(rows, middle, lo, hi)
        for start in range(0, combinations, chunk):
            if stop.is_set():
                break
            count = min(chunk, combinations - start)
            for i, leaf in zip(range(count), walk):
                leaves[i] = leaf
            _score_chunk(leaves, product, sums, last, count, one_gemm, best)
    return best


def _score_chunk(
    leaves: np.ndarray,
    product: np.ndarray,
    sums: np.ndarray,
    last: np.ndarray,
    count: int,
    one_gemm: bool,
    best: np.ndarray,
) -> None:
    """Score the first ``count`` middle combinations in ``leaves``, each K x N_1 rows
    over the last slot, against the last-slot block ``last`` into the K running
    norms ``best``, through the buffers ``product`` and ``sums``: one product, one
    ``abs``, one ``add.reduce`` over slot 1 and one ``maximum``.  A combination's
    values do not depend on which others share its chunk."""
    k, (n1, width), nm = len(best), product.shape[1:], last.shape[1]
    forms = count * k  # one per (combination, slice)
    matrices, values = leaves[:count].reshape(forms, n1, nm), product[:forms]
    if one_gemm:
        np.matmul(matrices.reshape(-1, nm), last.T, out=values.reshape(-1, width))
    else:
        np.matmul(matrices, last.T, out=values)
    np.abs(values, out=values)
    np.add.reduce(values, axis=1, out=sums[:forms])
    np.maximum(best, np.maximum.reduce(sums[:forms].reshape(count, k, width), axis=(0, 2)), out=best)


def _pruned_walk(form: np.ndarray) -> float:
    """The norm of :func:`_sup_norms_real` for one form of shape (N_1, N_2, N_m)
    whose last slot fits one block.

    The middle slot's rows are taken in descending order of their reach
    (:func:`_row_reach`) and scored a chunk at a time, as :func:`_walk` scores
    them: one row, then two, four and so on up to a full chunk, so the
    running norm is near its final value before many rows are scored.  Once
    a row's reach is below the running norm, it and every row after it are
    dropped unscored.  A row's leaf is the one :func:`_middle_leaves` yields
    for it.
    """
    n1, n2, nm = form.shape
    signs, last = _cached_sign_vectors(n2), _cached_sign_vectors(nm)
    reach = _row_reach(form)
    order = np.argsort(-reach, kind="stable")
    chunk = min(len(signs), _CHUNK_VALUES // (n1 * len(last)))
    leaves = np.empty((chunk, n1, nm))
    product = np.empty((chunk, n1, len(last)))
    sums = np.empty((chunk, len(last)))
    at = np.moveaxis(form, 1, -1).reshape(-1, n2)
    best = np.zeros(1)
    start, size = 0, 1
    while start < len(order):
        rows = order[start : start + size]
        rows = rows[reach[rows] >= best[0]]
        if not len(rows):
            break
        for i, row in enumerate(rows):
            leaves[i] = np.dot(at, signs[row].reshape(-1, 1)).reshape(n1, nm)
        _score_chunk(leaves, product, sums, last, len(rows), n1 > 1, best)
        start, size = start + size, min(2 * size, chunk)
    return best[0]


def _row_reach(form: np.ndarray) -> np.ndarray:
    """For each row of the middle slot's sign table of a form of shape (N_1, N_2, N_m),
    a float at or above every vertex value the walk computes for that row, or inf.

    The last slot is split into halves a and b, and the row's bound is
    max_{t_a} sum_i |L_i[a] . t_a| + max_{t_b} sum_i |L_i[b] . t_b|, L its
    leaf.  Each half is contracted with its own sign table, then one product
    with a block of middle rows gives all their half-values.  The reach adds
    the margin of :func:`_sup_norms_real` to the bound; it is inf for every
    row of a form whose ||U||_1 times 4 is not finite.
    """
    n1, n2, nm = form.shape
    signs = _cached_sign_vectors(n2)
    norm1 = float(np.abs(form).sum())
    if not math.isfinite(4.0 * norm1):
        return np.full(len(signs), math.inf)
    bound = np.zeros(len(signs))
    for half in (slice(0, (nm + 1) // 2), slice((nm + 1) // 2, nm)):
        table = _cached_sign_vectors(half.stop - half.start)
        # w[(i, t), j]: sum over the half's coordinates c of form[i, j, c] t[c]
        w = np.matmul(form[..., half], table.T).transpose(0, 2, 1).reshape(-1, n2)
        # an eighth of a chunk per product: it stays in cache, measured as fast
        # as a whole chunk or faster, and the call's peak stays the walk's
        step = max(1, _CHUNK_VALUES // 8 // len(w))
        product = np.empty(len(w) * min(step, len(signs)))
        for at in range(0, len(signs), step):
            block = signs[at : at + step]
            values = product[: len(w) * len(block)].reshape(len(w), len(block))
            np.matmul(w, block.T, out=values)
            np.abs(values, out=values)
            sums = np.add.reduce(values.reshape(n1, len(table), len(block)), axis=0)
            bound[at : at + len(block)] += np.maximum.reduce(sums, axis=0)
    slack = 4 * (n1 + n2 + nm) * 2.0**-53
    return bound * (1.0 + slack) + (slack * norm1 + _TINY)


def _workers(units: int, values: int, leaf_values: int) -> int:
    """The threads one oracle call of ``values`` vertex values spreads over, splitting
    ``units`` rows: at most one per _PARALLEL_VALUES values and one per row, and no
    more than the usable CPUs over the BLAS's own threads; one if a middle
    combination has fewer than _LEAF_VALUES vertex values (``leaf_values``).

    The BLAS threads are read as OpenBLAS reads them (:func:`bhc.core._blas_threads`);
    with none set the BLAS takes one thread per usable CPU, and every call stays
    in one thread, since threads over a threaded BLAS run slower.
    """
    workers = min(units, values // _PARALLEL_VALUES)
    if workers < 2 or leaf_values < _LEAF_VALUES:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus // (_blas_threads() or cpus)))


_NEVER_SET = threading.Event()  # the stop signal of a walk that runs inline, in one worker


def _fan_out(task, units: int, workers: int) -> np.ndarray:
    """The elementwise maximum of ``task(lo, hi, stop)`` over ``workers`` contiguous
    ranges lo..hi-1 that cover rows 0..units-1, the first walked by the caller and
    the others by one thread each.

    If a task raises, or the caller is interrupted, ``stop`` is set and every
    task returns at its next chunk; the error is raised once every thread is
    joined, so no thread outlives the call.
    """
    bounds = [units * i // workers for i in range(workers + 1)]
    stop = threading.Event()
    results, errors, threads = [None] * workers, [], []

    def run(i: int) -> None:
        try:
            results[i] = task(bounds[i], bounds[i + 1], stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    try:
        for i in range(1, workers):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        results[0] = task(bounds[0], bounds[1], stop)
        for thread in threads:
            thread.join()
    except BaseException:
        stop.set()
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]
    return np.maximum.reduce(results)


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
        return _sup_norms_real(stack).tolist()
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
    capped product (_CHUNK_VALUES), and an accepted move resets it to one
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
    coords = list(np.ndindex(*dims))
    # the vertex values the oracle scores for one coordinate's moves
    coordinate_values = len(_moves(0.0, field)) * n * 2 ** ((n - 1) * (m - 1))
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
            at, width = 0, 1
            while at < len(coords) and evals < budget:
                # the next `width` coordinates' moves, each cut to the budget left
                # when its turn comes: until a move is accepted the tensor is arr
                plan, planned = [], evals
                for idx in coords[at : at + width]:
                    moves = _moves(arr[idx], field)[: budget - planned]
                    if not moves:
                        break
                    plan.append((idx, moves))
                    planned += len(moves)
                stack = np.repeat(arr[None], planned - evals, axis=0)
                row = 0
                for idx, moves in plan:
                    stack[(slice(row, row + len(moves)), *idx)] = moves
                    row += len(moves)
                ratios = iter(_search_ratios(stack, field, seed))
                accepted = False
                for idx, moves in plan:
                    at += 1
                    evals += len(moves)
                    kept = arr[idx]
                    for move, ratio in zip(moves, ratios):
                        if ratio > current + 1e-15:
                            current, kept, accepted = ratio, move, True
                    arr[idx] = kept
                    if accepted:
                        break  # the later coordinates were scored against the old tensor
                improved |= accepted
                if accepted:
                    width = 1
                elif field is Field.REAL and 2 * width * coordinate_values <= _CHUNK_VALUES:
                    width *= 2
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
