"""Brute-force oracles: exactness cases, properties, cross-checks."""

import functools
import itertools
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from bhc.core import DomainError, Field, SizeLimitError, digest_bytes
from bhc import oracle, verify
from bhc.exponents import blei_f, blei_w
from bhc.oracle import _sup_norms_real
from bhc.recursion import Strategy, compute_constant
from bhc.reports import _BLAS_THREAD_VARIABLES, ReportDocument, RunConfig, report_row
from bhc.verify import (
    MultilinearForm,
    VectorFamily,
    _blei_checks,
    _powers,
    _moves,
    _search_ratios,
    bh_check,
    bh_suite,
    blei_check,
    blei_suite,
    canonical_family,
    extremal_search,
    khinchine_check,
    khinchine_suite,
    littlewood_form,
    lp_norm,
    mixed_norm_lhs,
    multiple_summing_check,
    rademacher_moment,
    random_family,
    random_form,
    summing_suite,
    sup_norm_complex_lb,
    sup_norm_real,
    weak1_norm,
)

SQRT2 = math.sqrt(2.0)

# |c|^(4/3) of this real form's coefficients over- or underflows at each of
# these scales, so its lhs is summed over |c| / max|c|
EXTREME_BASE = np.array([[1.0, 2.0], [3.0, -4.0]])
EXTREME_SCALES = pytest.mark.parametrize(
    "scale", [1e300, 1e-300, 2.0**1000, 2.0**-1000], ids=["1e300", "1e-300", "2^1000", "2^-1000"]
)


def _one_coordinate_climb(m, n, field, budget, seed):
    """extremal_search's climb as it was before it stacked several coordinates
    in one oracle call: each coordinate's moves scored alone, in sweep order.
    Returns the evaluations spent and the best tensor."""
    dims = (n,) * m
    rng = np.random.default_rng(seed)
    evals = 0
    best_ratio = -1.0
    best_tensor = None
    for _ in range(max(1, budget // 1000)):
        if evals >= budget:
            break
        arr = verify._draw(dims, field, rng)
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
    return evals, best_tensor


def _tensordot_ascent(form, restarts, seed):
    """sup_norm_complex_lb as it was before its contractions were taken apart: every
    slot but k contracted by a fresh ``np.tensordot`` chain, slot 1 again for every
    iteration's first update."""

    def contract_except(coeffs, zs, k):
        w = coeffs
        for j in reversed(range(coeffs.ndim)):
            if j != k:
                w = np.tensordot(w, zs[j], axes=([j], [0]))
        return w

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
                partial = contract_except(form.coeffs, zs, k)
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
            value = float(abs(np.dot(slot1 := contract_except(form.coeffs, zs, 0), zs[0])))
            if value <= current * (1.0 + 1e-12) + 1e-300:
                current = max(current, value)
                break
            current = value
        collapsed = float(np.abs(slot1).sum())
        best = max(best, current, collapsed)
    return best


class TestRademacherMoment:
    def test_single_coefficient(self):
        for p in (0.5, 1.0, 3.7):
            assert rademacher_moment([1.0], p) == pytest.approx(1.0, abs=1e-15)

    def test_two_ones(self):
        assert rademacher_moment([1.0, 1.0], 2.0) == pytest.approx(SQRT2, rel=1e-15)
        assert rademacher_moment([1.0, 1.0], 1.0) == 1.0

    def test_tight_lower_ratio(self):
        # the (1,1) vector at p=1 attains A_1 = 2^(-1/2)
        ratio = rademacher_moment([1.0, 1.0], 1.0) / np.linalg.norm([1.0, 1.0])
        assert abs(ratio - 2.0**-0.5) <= 1e-14

    def test_p2_is_l2_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-1, 1, size=int(rng.integers(1, 11)))
            assert rademacher_moment(a, 2.0) == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)

    def test_complex_coefficients(self):
        a = np.array([1.0 + 1.0j, 0.5 - 0.25j])
        assert rademacher_moment(a, 2.0) == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)

    @staticmethod
    def _exact_moment(a, p: int) -> float:
        # the mean of |s|^p over all sign patterns in exact rationals
        coefs = [Fraction(x) for x in a]
        mean = sum(
            abs(sum(e * c for e, c in zip(eps, coefs))) ** p
            for eps in itertools.product((1, -1), repeat=len(coefs))
        ) / 2 ** len(coefs)
        return math.exp((math.log(mean.numerator) - math.log(mean.denominator)) / p)

    @pytest.mark.parametrize(
        "a, p",
        [
            ([0.05, 0.03, 0.01], 400),  # every |s|^p underflows to 0
            ([0.3, -0.2, 0.1], 1500),
            # the mean of |s|^p is subnormal, with most of its bits lost
            ([0.05, 0.03, 0.01], 305),
            ([3.0, 2.0, -1.0], 400),  # the largest |s|^p overflows
            ([0.9, 0.5, 0.25], 1500),
            ([0.5, -0.3, 0.1], 400),  # in range: the direct mean
        ],
    )
    def test_large_exponents(self, a, p):
        assert rademacher_moment(a, float(p)) == pytest.approx(self._exact_moment(a, p), rel=1e-13)

    @pytest.mark.parametrize("p", [0.9, 0.5, 1e-3, 1e-6, 1e-10, 1e-14])
    def test_single_coefficient_is_exact_at_small_p(self, p):
        for x in (0.7, -3.25, 1e-200):
            assert rademacher_moment([x], p) == abs(x)

    def test_errors(self):
        with pytest.raises(DomainError):
            rademacher_moment([1.0], 0.0)
        with pytest.raises(DomainError, match="vector"):
            rademacher_moment(np.ones((2, 2)), 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="positive and finite"):
                rademacher_moment([1.0], bad)
        with pytest.raises(SizeLimitError):
            rademacher_moment(np.ones(21), 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_non_finite_coefficient_is_rejected(self, field, bad):
        # bad input, not a failed check: a nan ratio must not be reported
        a = [1.0, bad] if field is Field.REAL else [1.0 + 0.5j, complex(0.5, bad)]
        with pytest.raises(DomainError, match="finite"):
            rademacher_moment(a, 1.5)
        with pytest.raises(DomainError, match="finite"):
            khinchine_check(a, 1.5)


class TestKhinchineCheck:
    def test_equality_at_two(self):
        rng = np.random.default_rng(8)
        report = khinchine_check(rng.uniform(-1, 1, 7), 2.0)
        assert report.passed
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_tight_case(self):
        report = khinchine_check([1.0, 1.0], 1.0)
        assert report.passed
        assert abs(report.ratio - 2.0**-0.5) <= 1e-14

    def test_property_run(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = rng.uniform(-1, 1, 10)
            assert khinchine_check(a, 4.0 / 3.0).passed

    @pytest.mark.parametrize("p", [1e-5, 3e-5])
    def test_small_exponent_suite_passes(self, p):
        # the upper constant B_p = 1 is attained at n = 1, with slack 1e-12
        assert all(r.passed for r in khinchine_suite(200, 42, p=p))


class TestSupNormReal:
    def test_linear_is_l1(self):
        v = np.array([1.0, -2.0, 0.5])
        assert sup_norm_real(MultilinearForm(v, Field.REAL)) == pytest.approx(3.5, rel=1e-15)

    def test_rank_one(self):
        rng = np.random.default_rng(21)
        u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 4)
        form = MultilinearForm(np.outer(u, v), Field.REAL)
        expected = float(np.abs(u).sum() * np.abs(v).sum())
        assert sup_norm_real(form) == pytest.approx(expected, rel=1e-12)

    def test_littlewood(self):
        assert sup_norm_real(littlewood_form(2)) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("dims", [(2, 20), (256, 16), (2, 20, 2)], ids=lambda dims: "-".join(map(str, dims)))
    def test_wide_last_slot_in_bounded_memory(self, dims):
        # (2, 20): 2^20 last-slot vertices, walked in blocks; building every
        # sign vector at once peaks near 480 MB.  (256, 16): a wide first
        # slot shrinks the block; one 2^16 block peaks near 264 MB.
        # (2, 20, 2): a middle slot of 2^19 sign vectors, read in blocks;
        # its whole table peaks near 164 MiB
        vectors = [np.arange(1.0, n + 1) * (-1.0) ** np.arange(n) for n in dims]
        form = MultilinearForm(functools.reduce(np.multiply.outer, vectors), Field.REAL)
        tracemalloc.start()
        try:
            norm = sup_norm_real(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the product of the slots' l1 norms, exact for integer coefficients
        assert norm == math.prod(n * (n + 1) // 2 for n in dims)
        assert peak < 128 * 2**20

    @staticmethod
    def _full_enumeration(form):
        # every 2^N_k sign vector of slots 2..m, through the oracle's own
        # tensordot chain and w @ last.T, with no sign fixed; a linear form
        # has no enumerated slot, and slot 1 is its l1 sum
        if form.m == 1:
            return float(np.abs(form.coeffs).sum())

        def signs(n):
            bits = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
            return 1.0 - 2.0 * bits.astype(np.float64)

        best = 0.0
        last = signs(form.dims[-1])
        for combo in itertools.product(*(list(signs(n)) for n in form.dims[1:-1])):
            w = form.coeffs
            for eps in combo:
                w = np.tensordot(w, eps, axes=([1], [0]))
            best = max(best, float(np.abs(w @ last.T).sum(axis=0).max()))
        return best

    @pytest.mark.parametrize(
        "shape",
        [(2,) * 8, (3, 3, 3), (4, 10, 10), (3, 2, 2, 2), (1, 5), (5, 1), (2, 1, 3), (70, 1), (9, 1), (8, 2, 1),
         (1, 3, 4), (1, 2, 2, 5), (2, 3, 2, 4)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_bit_identical_to_full_enumeration(self, shape):
        rng = np.random.default_rng(sum(shape) * len(shape))
        for _ in range(3):
            form = random_form(shape, Field.REAL, rng)
            assert sup_norm_real(form) == self._full_enumeration(form)

    @pytest.mark.parametrize(
        "form",
        [littlewood_form(2), littlewood_form(5), MultilinearForm(np.ones((3, 3, 3)), Field.REAL)],
        ids=["littlewood-2", "littlewood-5", "ones-3x3x3"],
    )
    def test_known_forms_bit_identical_to_full_enumeration(self, form):
        assert sup_norm_real(form) == self._full_enumeration(form)

    @pytest.mark.parametrize(
        "shape, patch, chunk",
        [((5,), {}, None), ((1, 6), {}, None), ((6, 1), {}, None), ((3, 3, 3), {}, None),
         ((2,) * 6, {}, None), ((70, 3), {}, None), ((70, 4), {"_CHUNK_VALUES": 70 * 16}, None),
         ((70, 4), {"_CHUNK_VALUES": 70 * 7}, None), ((70, 1), {}, None), ((9, 1), {}, None),
         ((8, 2, 1), {}, None), ((1, 3, 4), {}, None), ((1, 3, 4), {}, 3), ((1, 2, 2, 5), {}, 3),
         ((2, 3, 2, 4), {}, None), ((2, 3, 2, 4), {}, 1), ((2, 3, 2, 4), {}, 2), ((2, 3, 2, 4), {}, 3),
         ((2, 5, 3), {"_SIGN_BLOCK": 4}, None), ((3, 4, 5, 2), {"_SIGN_BLOCK": 4}, None),
         ((5, 5), {}, None), ((8, 8), {}, None), ((3, 10), {}, None), ((3, 10), {"_CHUNK_VALUES": 3 * 200}, None),
         ((2, 1, 3), {}, None)],
        ids=["5", "1x6", "6x1", "3x3x3", "2x2x2x2x2x2", "70x3", "70x4-small-blocks", "70x4-lone-blocks",
             "70x1", "9x1", "8x2x1", "1x3x4", "1x3x4-chunks-of-3", "1x2x2x5-chunks-of-3", "2x3x2x4",
             "2x3x2x4-chunks-of-1", "2x3x2x4-chunks-of-2", "2x3x2x4-chunks-of-3", "2x5x3-sign-blocks-of-4",
             "3x4x5x2-sign-blocks-of-4", "5x5", "8x8", "3x10", "3x10-small-blocks", "2x1x3"],
    )
    def test_stacked_kernel_matches_full_enumeration(self, shape, patch, chunk, monkeypatch):
        # 70x4: the 8 last-slot vertices go in one block at K = 1, 2, then in
        # blocks of 5+3, 4+4, 3+3+2 and 2 as K grows (70 * 16); or in 7+1,
        # 3+3+2, 2+2+2+2, then one at a time (70 * 7), where a lone vertex's
        # column must still be summed row by row, not pairwise.  Sign blocks
        # of 4: the middle tables of 16 and 8 rows are read in 4-row blocks.
        # 5x5, 8x8 and 1x6 also take the stacks of 16, 64 and 128 forms that a
        # widened search climb sends: one gemm for the stack, a gemv per form at
        # 1x6.  At K = 128, 3x10 splits its 512 last-slot vertices into blocks
        # of 341 and 171, where one gemm for the whole stack rounds differently;
        # with 3 * 200 values per product it reads them in blocks of 200 down to
        # 25 as K goes from 1 to 8.  2x1x3: a middle slot of one row
        for name, value in patch.items():
            monkeypatch.setattr(oracle, name, value)
        rng = np.random.default_rng(len(shape) * sum(shape))
        wide = (16, 64, 128) if shape in ((5, 5), (8, 8), (1, 6), (3, 10)) else ()
        for k in (*range(1, 9), *wide):
            if chunk is not None:
                # all last-slot vertices fit one block, so a chunk holds
                # `chunk` middle combinations: 8 of them in 3+3+2 at
                # 2x3x2x4, and 4 in 3+1 at 1x3x4 and 1x2x2x5
                monkeypatch.setattr(oracle, "_CHUNK_VALUES", chunk * k * shape[0] * 2 ** (shape[-1] - 1))
            stack = rng.uniform(-1.0, 1.0, size=(k, *shape))
            stack[k // 2] = rng.choice([-1.0, 1.0], size=shape)
            if k > 2:
                stack[-1] = 0.0
            norms = _sup_norms_real(stack)
            assert norms.shape == (k,)
            for coeffs, norm in zip(stack, norms):
                reference = self._full_enumeration(MultilinearForm(coeffs, Field.REAL))
                assert float(norm).hex() == reference.hex()
            if k > 2:
                assert _search_ratios(stack, Field.REAL, 0)[-1] == 0.0

    @pytest.mark.parametrize("k", [100, 128])
    def test_multi_block_middle_stack_matches_full_enumeration(self, k):
        # (3, 2, 10): a middle slot and 512 last-slot vertices in blocks of
        # 436 + 76 (K = 100) or 341 + 171 (K = 128); one gemm over a whole
        # chunk's rows rounded slice 80, and slices 6 and 37, differently
        stack = np.random.default_rng(0).uniform(-1.0, 1.0, size=(k, 3, 2, 10))
        for coeffs, norm in zip(stack, _sup_norms_real(stack)):
            reference = self._full_enumeration(MultilinearForm(coeffs, Field.REAL))
            assert float(norm).hex() == reference.hex()

    @pytest.mark.parametrize("shape", [(1, 5, 6), (1, 4, 7), (1, 6, 5)], ids=lambda shape: "x".join(map(str, shape)))
    def test_stacked_norm_within_the_summation_bound(self, shape):
        # a stack of one-row forms with a middle slot may round a form's norm
        # differently from the form alone (the middle slot's leaf gemv over
        # K x N_m rows), but each norm stays within gamma_n sum|U|, n = N_1 +
        # ... + N_m, of the exact norm.  Every term of a vertex value is +-U
        # exactly, so fsum rounds each vertex value, and their maximum, correctly
        n, unit = sum(shape), Fraction(1, 2**53)
        gamma = n * unit / (1 - n * unit)

        def signs(width):
            return np.array([(1.0, *rest) for rest in itertools.product((1.0, -1.0), repeat=width - 1)])

        middle, last = signs(shape[1]), signs(shape[2])
        rng = np.random.default_rng(1)
        for k in (4, 8, 16):
            for _ in range(4):
                stack = rng.uniform(-1.0, 1.0, size=(k, *shape))
                for coeffs, norm in zip(stack, _sup_norms_real(stack)):
                    terms = coeffs[0] * middle[:, None, :, None] * last[None, :, None, :]
                    exact = max(abs(math.fsum(row)) for row in terms.reshape(-1, shape[1] * shape[2]))
                    l1 = sum(map(Fraction, np.abs(coeffs).flat))
                    assert abs(Fraction(norm) - Fraction(exact)) <= gamma * l1 + unit * Fraction(exact)

    def test_middle_leaves_go_straight_into_the_chunk(self):
        # (2, 16, 2): 2^15 leaves of 2 x 2 values each; gathering a chunk's
        # leaves as a list of small arrays before concatenating peaked at
        # 16.3 MiB, copying each into the chunk buffer at 7.3 MiB.  A warm
        # width-16 sign table would hide part of the peak.  sup_norm_real
        # prunes this lone form, so the walk is called directly
        vectors = [np.arange(1.0, n + 1) * (-1.0) ** np.arange(n) for n in (2, 16, 2)]
        form = MultilinearForm(functools.reduce(np.multiply.outer, vectors), Field.REAL)
        oracle._cached_sign_vectors.cache_clear()
        tracemalloc.start()
        try:
            norm = float(oracle._walk(form.coeffs[None])[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm == 3 * 136 * 3
        assert peak < 12 * 2**20

    def test_sign_tables_are_cached_read_only(self):
        cached = oracle._cached_sign_vectors
        form = random_form((8, 8, 8), Field.REAL, np.random.default_rng(0))
        sup_norm_real(form)
        misses = cached.cache_info().misses
        sup_norm_real(form)
        assert cached.cache_info().misses == misses
        assert not cached(8).flags.writeable
        assert not next(oracle._sign_blocks(8, 2)).flags.writeable
        # 2^17 sign vectors exceed one sign block: built block by block, never cached
        cached.cache_clear()
        wide = MultilinearForm(np.ones((1, 18)), Field.REAL)
        assert sup_norm_real(wide) == 18.0
        assert cached.cache_info().currsize == 0

    def test_sign_block_builds_in_little_more_than_its_table(self):
        # one block of a width-18 slot is a 9 MiB table; building it from
        # full-size int64 bit arrays peaked at 18.5 MiB
        tracemalloc.start()
        try:
            block = oracle._sign_vectors(18, 0, 2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.shape == (2**16, 18) and block.nbytes == 9 * 2**20
        assert peak < 12 * 2**20
        bits = (2 * np.arange(2**16)[:, None] >> np.arange(18)) & 1
        assert np.array_equal(block, 1.0 - 2.0 * bits)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stacked_batch_rejects_non_finite(self, field, bad):
        stack = np.ones((3, 2, 2), dtype=np.complex128 if field is Field.COMPLEX else np.float64)
        stack[1, 0, 1] = bad
        with pytest.raises(DomainError, match="finite"):
            _search_ratios(stack, field, 0)

    def test_trilinear_all_ones(self):
        form = MultilinearForm(np.ones((2, 2, 2)), Field.REAL)
        assert sup_norm_real(form) == pytest.approx(8.0, rel=1e-13)

    def test_grid_oracle_cross_check(self):
        # independent oracle: dense grid over the cube, endpoints included
        rng = np.random.default_rng(31)
        for n in (2, 3):
            grid_1d = np.linspace(-1.0, 1.0, 9)
            grid = np.array(list(itertools.product(grid_1d, repeat=n)))
            for _ in range(5):
                a = rng.uniform(-1, 1, size=(n, n))
                brute = float(np.abs(grid @ a @ grid.T).max())
                fast = sup_norm_real(MultilinearForm(a, Field.REAL))
                assert abs(fast - brute) <= 2e-3

    def test_errors(self):
        with pytest.raises(DomainError):
            sup_norm_real(MultilinearForm(np.ones((2, 2)), Field.COMPLEX))
        with pytest.raises(SizeLimitError):
            sup_norm_real(MultilinearForm(np.ones((1, 25)), Field.REAL))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        a = rng.uniform(-1, 1, size=(2, 3, 4))
        reference = sup_norm_real(MultilinearForm(a, Field.REAL))
        for perm in itertools.permutations(range(3)):
            permuted = MultilinearForm(np.transpose(a, perm), Field.REAL)
            assert sup_norm_real(permuted) == pytest.approx(reference, rel=1e-12)
            assert mixed_norm_lhs(permuted) == pytest.approx(
                mixed_norm_lhs(MultilinearForm(a, Field.REAL)), rel=1e-12
            )


class TestOracleModule:
    def test_oracle_defines_no_public_function(self):
        # perfbench's tracer wraps the public functions of the layer modules,
        # and bhc.oracle is none of them: its calls count through bhc.verify's
        public = [
            name
            for name, value in vars(oracle).items()
            if callable(value) and getattr(value, "__module__", None) == oracle.__name__ and not name.startswith("_")
        ]
        assert public == []

    def test_verify_binds_no_kernel_name(self, monkeypatch):
        # a patch of a kernel name on bhc.verify would reach no oracle call,
        # so it must raise instead of patching nothing; verify keeps its own
        # _TINY for its other oracles
        kernel = [name for name in vars(oracle) if name.startswith("_") and not name.startswith("__")]
        assert "_CHUNK_VALUES" in kernel and "_sup_norms_real" in kernel
        assert [name for name in kernel if hasattr(verify, name) and name != "_TINY"] == []
        with pytest.raises(AttributeError):
            monkeypatch.setattr(verify, "_CHUNK_VALUES", 1)
        assert verify.MAX_ENUM_BITS == oracle.MAX_ENUM_BITS


class TestThreadedOracle:
    # The walk runs in its caller's thread, so callers in several threads walk
    # at once; they share the cached, read-only sign tables and nothing else

    @staticmethod
    def _in_threads(count, call):
        # call() in `count` threads released together; their results in order
        results, errors = [None] * count, []
        barrier = threading.Barrier(count, timeout=60)

        def run(i):
            try:
                barrier.wait()
                results[i] = call()
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    @pytest.mark.parametrize(
        "shape, patch, threads",
        [((3, 3, 3), {}, 2), ((2, 3, 2, 4), {}, 2), ((2, 5, 3), {"_SIGN_BLOCK": 4}, 3),
         ((70, 4), {"_CHUNK_VALUES": 70 * 7}, 3), ((3, 10), {"_CHUNK_VALUES": 3 * 200}, 2),
         ((8, 2, 1), {}, 3), ((1, 3, 4), {}, 3), ((2, 1, 3), {}, 2)],
        ids=["3x3x3", "2x3x2x4", "2x5x3-sign-blocks-of-4", "70x4-split-on-blocks", "3x10-split-on-blocks",
             "8x2x1", "1x3x4", "2x1x3-unsplit-width-1"],
    )
    def test_threaded_walk_matches_full_enumeration(self, shape, patch, threads, monkeypatch):
        # the sign tables are cleared before each stack, so the callers build
        # them at once.  A lone m = 3 form (K = 1) is pruned, but 2x5x3 reads
        # its 16 middle rows in sign blocks of 4, so it walks; 70x4 reads its
        # 8 last-slot vertices in 2 blocks at K = 1 (7 + 1), then in 3 or more,
        # and 3x10 its 512 in blocks of 200 down to 25; a width-1 middle slot
        # has one row
        for name, value in patch.items():
            monkeypatch.setattr(oracle, name, value)
        rng = np.random.default_rng(len(shape) * sum(shape))
        for k in range(1, 9):
            stack = rng.uniform(-1.0, 1.0, size=(k, *shape))
            stack[k // 2] = rng.choice([-1.0, 1.0], size=shape)
            if k > 2:
                stack[-1] = 0.0
            references = [TestSupNormReal._full_enumeration(MultilinearForm(c, Field.REAL)).hex() for c in stack]
            oracle._cached_sign_vectors.cache_clear()
            for norms in self._in_threads(threads, functools.partial(_sup_norms_real, stack)):
                assert [float(norm).hex() for norm in norms] == references

    def test_more_workers_than_cores_under_fast_switching(self):
        # 8 callers on any host, the interpreter switching threads every
        # microsecond: a sign table read half built, or a buffer shared
        # between calls, would change a maximum
        stack = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 3, 5, 4))
        serial = [float(norm).hex() for norm in _sup_norms_real(stack)]
        oracle._cached_sign_vectors.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self._in_threads(8, functools.partial(_sup_norms_real, stack))
        finally:
            sys.setswitchinterval(interval)
        for norms in threaded:
            assert [float(norm).hex() for norm in norms] == serial

    def test_two_workers_in_bounded_memory(self):
        # (2, 16, 2) as in test_middle_leaves_go_straight_into_the_chunk, walked
        # by two callers at once: each holds one walk's buffers, and the
        # width-16 table is built at most once per caller
        vectors = [np.arange(1.0, n + 1) * (-1.0) ** np.arange(n) for n in (2, 16, 2)]
        form = MultilinearForm(functools.reduce(np.multiply.outer, vectors), Field.REAL)
        oracle._cached_sign_vectors.cache_clear()
        tracemalloc.start()
        try:
            norms = self._in_threads(2, functools.partial(sup_norm_real, form))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norms == [3 * 136 * 3] * 2
        assert peak < 2 * 12 * 2**20

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_an_unpinned_blas_takes_one_worker(self, cpus, monkeypatch):
        # two forms of 2^8 middle rows, 2^21 vertex values in all, whatever
        # the usable CPUs: the walk starts no thread
        for name in _BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        stack = np.random.default_rng(cpus).uniform(-1.0, 1.0, size=(2, 1, 9, 13))
        norms = _sup_norms_real(stack)
        assert started == []
        assert np.all((norms > 0.0) & (norms <= np.abs(stack).sum(axis=(1, 2, 3))))


class TestPrunedOracle:
    @staticmethod
    def _count_pruned(monkeypatch):
        pruned = []
        walk = oracle._pruned_walk

        def counted(form):
            pruned.append(form.shape)
            return walk(form)

        monkeypatch.setattr(oracle, "_pruned_walk", counted)
        return pruned

    @staticmethod
    def _count_scored(monkeypatch):
        # the middle combinations each chunk scores
        scored = []
        score = oracle._score_chunk

        def counted(leaves, product, sums, last, count, one_gemm, best):
            scored.append(count)
            score(leaves, product, sums, last, count, one_gemm, best)

        monkeypatch.setattr(oracle, "_score_chunk", counted)
        return scored

    @pytest.mark.parametrize(
        "shape, chunk",
        [((3, 3, 3), None), ((2, 4, 5), None), ((1, 5, 6), None), ((4, 5, 3), None), ((6, 3, 2), None),
         ((2, 7, 9), None), ((3, 6, 4), 1), ((3, 6, 4), 3), ((2, 7, 2), None), ((16, 7, 3), None),
         ((6, 6, 6), None), ((40, 6, 4), None)],
        ids=["3x3x3", "2x4x5", "1x5x6", "4x5x3", "6x3x2", "2x7x9", "3x6x4-chunks-of-1", "3x6x4-chunks-of-3",
             "2x7x2", "16x7x3", "6x6x6", "40x6x4"],
    )
    def test_pruned_walk_matches_full_enumeration(self, shape, chunk, monkeypatch):
        # the forms of stacks of 1 to 8, each pruned alone: a stack keeps the walk
        pruned = self._count_pruned(monkeypatch)
        if chunk is not None:
            monkeypatch.setattr(oracle, "_CHUNK_VALUES", chunk * shape[0] * 2 ** (shape[-1] - 1))
        rng = np.random.default_rng(len(shape) * sum(shape))
        for k in range(1, 9):
            stack = rng.uniform(-1.0, 1.0, size=(k, *shape))
            stack[k // 2] = rng.choice([-1.0, 1.0], size=shape)
            if k > 2:
                stack[-1] = 0.0
            if k > 3:
                stack[1] *= 2.0**-1000
                stack[2] *= 2.0**1000
            for coeffs in stack:
                reference = TestSupNormReal._full_enumeration(MultilinearForm(coeffs, Field.REAL))
                assert float(oracle._pruned_walk(coeffs)).hex() == reference.hex()
            pruned.clear()
            norms = _sup_norms_real(stack)
            assert pruned == ([shape] if k == 1 else [])
            if k == 1:
                assert float(norms[0]).hex() == reference.hex()

    @pytest.mark.parametrize(
        "coeffs",
        [np.zeros((3, 4, 5)), np.ones((3, 3, 3)), -np.ones((2, 5, 4)),
         np.pad([[[1.0], [1.0]], [[1.0], [-1.0]]], ((0, 2), (0, 2), (0, 3))),
         np.pad([[[1.0, 1.0], [1.0, -1.0]]], ((0, 3), (0, 3), (0, 2)))],
        ids=["zero", "all-ones-3x3x3", "minus-ones", "littlewood-padded-4x4x4", "littlewood-padded-4x5x4"],
    )
    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000, 2.0**1000], ids=["1", "2^-1000", "2^1000"])
    def test_known_forms_pruned_to_the_bit(self, coeffs, scale, monkeypatch):
        # all ones: every row with its signs all +1 or all -1 ties for the norm
        pruned = self._count_pruned(monkeypatch)
        form = MultilinearForm(coeffs * scale, Field.REAL)
        assert sup_norm_real(form).hex() == TestSupNormReal._full_enumeration(form).hex()
        assert pruned == [coeffs.shape]

    @pytest.mark.parametrize(
        "shape",
        [(3, 4, 5), (2, 6, 6), (5, 3, 8), (1, 7, 3), (6, 5, 4), (9, 4, 2), (40, 6, 4)],
        ids=lambda s: "x".join(map(str, s)),
    )
    @pytest.mark.parametrize("scale", [1.0, 2.0**-1000, 2.0**1000], ids=["1", "2^-1000", "2^1000"])
    def test_reach_covers_every_vertex_value_of_its_row(self, shape, scale):
        # the reach of each middle row against the largest vertex value the walk
        # computes for it, leaf and product as the walk makes them; each half's
        # maximum is at most the row's, so the reach is at most twice it plus
        # its margin
        rng = np.random.default_rng(sum(shape))
        n1, n2, nm = shape
        last = oracle._cached_sign_vectors(nm)
        for _ in range(4):
            form = rng.uniform(-1.0, 1.0, size=shape) * scale
            at = np.moveaxis(form, 1, -1).reshape(-1, n2)
            margin = 1e-12 * float(np.abs(form).sum()) + oracle._TINY
            reach = oracle._row_reach(form)
            assert reach.shape == (2 ** (n2 - 1),)
            for row, eps in enumerate(oracle._cached_sign_vectors(n2)):
                leaf = np.dot(at, eps.reshape(-1, 1)).reshape(n1, nm)
                top = float(np.add.reduce(np.abs(leaf @ last.T), axis=0).max())
                assert top <= reach[row] <= 2.0 * top * (1.0 + 1e-12) + margin

    def test_reach_of_a_form_near_the_double_range_is_infinite(self):
        form = np.full((2, 3, 4), 2.0**1018)
        assert np.all(oracle._row_reach(form) == math.inf)
        assert np.all(np.isfinite(oracle._row_reach(form / 4)))

    def test_scored_rows_pinned_at_the_guard_cube(self, monkeypatch):
        # the three seed-42 forms of `verify bh --m 3 --dim 12 --trials 3`: 717 of
        # their 3 x 2048 middle rows are scored, each form's norm as the walk's
        pruned = self._count_pruned(monkeypatch)
        scored = self._count_scored(monkeypatch)
        rng = np.random.default_rng(42)
        forms = [random_form((12, 12, 12), Field.REAL, rng) for _ in range(3)]
        counts = []
        for form in forms:
            scored.clear()
            sup_norm_real(form)
            counts.append(sum(scored))
        assert counts == [66, 615, 36]
        assert len(pruned) == 3
        norms = [sup_norm_real(form).hex() for form in forms]
        assert [float(oracle._walk(form.coeffs[None])[0]).hex() for form in forms] == norms
        assert len(pruned) == 6

    @pytest.mark.parametrize(
        "shape, k, pruned",
        [((12, 12, 12), 1, True), ((12, 12, 12), 2, False), ((8, 8, 8), 1, True), ((3, 3, 3), 8, False),
         ((6, 6, 6), 1, True), ((2, 7, 5), 1, True), ((2, 17, 5), 1, True), ((2, 18, 5), 1, False),
         ((16, 7, 12), 1, True), ((17, 7, 12), 1, True), ((16, 12, 4), 1, True), ((2, 16, 2), 1, True),
         ((2, 7, 17), 1, True), ((3, 7, 17), 1, False), ((4, 4, 4, 4), 1, False), ((4096, 8, 1), 1, False)],
        ids=["12x12x12", "12x12x12-stack", "8x8x8", "search-3x3x3", "6x6x6-32-rows", "2x7x5-64-rows", "2x17x5",
             "2x18x5-uncached", "16x7x12", "17x7x12", "16x12x4-narrow-last-slot", "2x16x2-narrow-last-slot",
             "2x7x17-one-block", "3x7x17-two-blocks", "four-slots", "last-slot-of-one"],
    )
    def test_engage_rule(self, shape, k, pruned, monkeypatch):
        # a lone form is pruned when the pruned walk can hold it: its middle
        # slot's table is cached (2^(N_2 - 1) <= _SIGN_BLOCK) and its last slot
        # has 2 coordinates or more and fits one block (2^(N_m - 1) <=
        # _CHUNK_VALUES // N_1); never with m != 3
        counted = self._count_pruned(monkeypatch)
        stack = np.zeros((k, *shape))
        stack[(slice(None), *(0,) * len(shape))] = 1.0
        assert _sup_norms_real(stack).tolist() == [1.0] * k
        assert counted == ([shape] * k if pruned else [])

    def test_bound_pass_in_bounded_memory(self):
        # (16, 17, 7): 2^16 middle rows of 16 x (8 + 8) half-values; one product
        # for all rows would hold 64 MiB, the capped ones 128 KiB
        form = np.random.default_rng(0).uniform(-1.0, 1.0, size=(16, 17, 7))
        oracle._cached_sign_vectors(17)
        tracemalloc.start()
        try:
            reach = oracle._row_reach(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reach.shape == (2**16,) and np.all(np.isfinite(reach))
        assert peak < 6 * 2**20

    def test_pruned_walk_in_bounded_memory(self, monkeypatch):
        # (2, 16, 2), the form of test_middle_leaves_go_straight_into_the_chunk:
        # the walk's chunk buffer, the 2^15 reaches and their order, and the
        # bound pass's small products.  (65536, 7, 2): a 7 MiB form whose slot
        # 1 fills a chunk with one vertex pair.  Each peaks at or below the walk
        pruned = self._count_pruned(monkeypatch)
        for dims in ((2, 16, 2), (65536, 7, 2)):
            vectors = [np.arange(1.0, n + 1) * (-1.0) ** np.arange(n) for n in dims]
            form = MultilinearForm(functools.reduce(np.multiply.outer, vectors), Field.REAL)
            peaks = []
            for call in (sup_norm_real, lambda form: float(oracle._walk(form.coeffs[None])[0])):
                oracle._cached_sign_vectors.cache_clear()
                tracemalloc.start()
                try:
                    norm = call(form)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                # the product of the slots' l1 norms, exact for integer coefficients
                assert norm == math.prod(n * (n + 1) // 2 for n in dims)
            assert pruned.pop() == dims and not pruned
            assert peaks[0] <= peaks[1] and peaks[0] < 12 * 2**20


class TestSupNormComplexLb:
    def test_real_embedding_is_reachable(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            a = rng.uniform(-1, 1, size=(3, 3))
            real_value = sup_norm_real(MultilinearForm(a, Field.REAL))
            lb = sup_norm_complex_lb(MultilinearForm(a, Field.COMPLEX), restarts=24, seed=7)
            assert lb >= real_value - 1e-9

    def test_rank_one_alignment(self):
        rng = np.random.default_rng(52)
        u = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        v = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        form = MultilinearForm(np.outer(u, v), Field.COMPLEX)
        expected = float(np.abs(u).sum() * np.abs(v).sum())
        assert sup_norm_complex_lb(form, restarts=4, seed=1) == pytest.approx(expected, rel=1e-9)

    def test_zero_tensor(self):
        form = MultilinearForm(np.zeros((2, 2), dtype=complex), Field.COMPLEX)
        assert sup_norm_complex_lb(form, restarts=2, seed=0) == 0.0

    def test_field_guard(self):
        with pytest.raises(DomainError):
            sup_norm_complex_lb(MultilinearForm(np.ones((2, 2)), Field.REAL))

    def test_returns_a_python_float(self):
        # whether the phase ascent or the slot-1 collapse gives the bound
        rng = np.random.default_rng(53)
        for _ in range(40):
            form = random_form((2, 2), Field.COMPLEX, rng)
            assert type(sup_norm_complex_lb(form, restarts=2, seed=0)) is float

    @pytest.mark.parametrize(
        "dims",
        [(2, 2), (3, 3), (2, 2, 2), (4, 4), (3, 2, 4), (5,), (1, 4), (4, 1), (2, 3, 2, 2), (6, 6)],
        ids=str,
    )
    def test_the_tensordot_ascent_to_the_bit(self, dims):
        # every contraction is the gemv tensordot makes, on the same operands; a
        # transposed operand is a view or a copy, and width-1 slots make either
        rng = np.random.default_rng(54)
        coefficient_sets = [np.zeros(dims, dtype=complex)]
        for _ in range(3):
            coefficient_sets.append(verify._draw(dims, Field.COMPLEX, rng))
        coefficient_sets[-1][rng.random(dims) < 0.4] = 0.0  # partly zeroed
        for coeffs in coefficient_sets:
            form = MultilinearForm(coeffs, Field.COMPLEX)
            for restarts, seed in ((4, 0), (16, 7), (1, 3)):
                expected = _tensordot_ascent(form, restarts, seed)
                assert sup_norm_complex_lb(form, restarts, seed).hex() == expected.hex()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)], ids=str)
    def test_an_iteration_contracts_each_slot_once(self, dims, monkeypatch):
        # a restart's first iteration contracts slot 1, the others and slot 1 for its
        # check (m + 1); every later iteration takes the check's slot 1 (m)
        contracted = []

        def counted(chains, cols, k):
            contracted.append(str(k))
            return contract(chains, cols, k)

        contract = verify._contract
        monkeypatch.setattr(verify, "_contract", counted)
        form = random_form(dims, Field.COMPLEX, np.random.default_rng(55))
        sup_norm_complex_lb(form, restarts=4, seed=0)
        later = "".join(map(str, range(1, len(dims)))) + "0"  # one later iteration
        restarts = re.findall(f"0((?:{later})+)", "".join(contracted))
        assert len(restarts) == 4 and "".join(f"0{r}" for r in restarts) == "".join(contracted)
        # every restart runs later iterations, so both counts are seen
        assert all(len(r) // len(dims) >= 2 for r in restarts)

    def test_bound_is_scale_free(self):
        # a modulus outside [2^-512, 2^512] runs the ascent on the form scaled by a power
        # of two into [0.5, 1): no subnormal |v| overflows a reciprocal, and the stop
        # rule's absolute 1e-300 does not end the ascent early
        coeffs = verify._draw((3, 3), Field.COMPLEX, np.random.default_rng(56))
        assert 0.5 <= np.abs(coeffs).max() < 1.0
        base = sup_norm_complex_lb(MultilinearForm(coeffs, Field.COMPLEX))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for exponent in (-900, 600):
                scaled = MultilinearForm(coeffs * 2.0**exponent, Field.COMPLEX)
                assert sup_norm_complex_lb(scaled) == base * 2.0**exponent
            for scale in (1e-310, 1e-300):
                scaled = MultilinearForm(coeffs * scale, Field.COMPLEX)
                assert sup_norm_complex_lb(scaled) == pytest.approx(base * scale, rel=1e-9)

    @pytest.mark.parametrize(
        "coeffs", [[[1, 1e-310]], [[1e-310, 1]], [[1, 1e-320j]]], ids=["1e-310 last", "1e-310 first", "1e-320j"]
    )
    def test_subnormal_partial_contraction(self, coeffs):
        # the largest modulus is 1, so the form is ascended unscaled, but a partial
        # contraction or a coordinate sum b has a subnormal modulus, whose reciprocal
        # overflows; its phase is taken after an exact power-of-two scaling
        form = MultilinearForm(np.array(coeffs, dtype=complex), Field.COMPLEX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(sup_norm_complex_lb(form) - 1.0) <= 1e-12

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_are_refused(self, restarts):
        form = random_form((2, 2), Field.COMPLEX, np.random.default_rng(57))
        with pytest.raises(DomainError, match=f"restarts={restarts}"):
            sup_norm_complex_lb(form, restarts=restarts)


class TestMixedNorm:
    def test_littlewood(self):
        assert mixed_norm_lhs(littlewood_form(2)) == pytest.approx(4.0**0.75, rel=1e-15)

    def test_singleton(self):
        arr = np.zeros((3, 3))
        arr[1, 2] = -0.7
        assert mixed_norm_lhs(MultilinearForm(arr, Field.REAL)) == pytest.approx(0.7, rel=1e-15)

    def test_all_ones_cube(self):
        form = MultilinearForm(np.ones((2, 2, 2)), Field.REAL)
        assert mixed_norm_lhs(form) == pytest.approx(4.0, rel=1e-14)  # 8^(2/3)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    def test_lp_norm_rejects_bad_exponents(self, bad):
        with pytest.raises(DomainError, match="positive and finite"):
            lp_norm([1.0, 2.0], bad)

    @pytest.mark.parametrize("values", [[], [0.0, 0.0]], ids=["empty", "zeros"])
    def test_lp_norm_of_no_mass_is_zero(self, values):
        assert lp_norm(values, 1.5) == 0.0

    def test_lp_norm_keeps_inf_and_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_norm([1.0, math.inf], 1.5) == math.inf
            assert math.isnan(lp_norm([1.0, math.nan], 1.5))

    def test_lp_norm_sum_beyond_the_double_range(self):
        # 1e300^1.5 overflows; the sum over |v| / max|v| is 2 exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lp_norm([1e300, 1e300], 1.5) == 1e300 * 2 ** (2 / 3)

    @pytest.mark.parametrize("scale", [1e307, 1e-300], ids=["1e307", "1e-300"])
    def test_rescaled_sums_give_python_floats(self, scale):
        # the sum over |v| / max|v| is scaled back by a float, not a numpy scalar
        form = MultilinearForm(scale * EXTREME_BASE, Field.REAL)
        report = bh_check(form, compute_constant(2, Field.REAL, Strategy.BEST))
        for value in (lp_norm(form.coeffs, 1.5), mixed_norm_lhs(form), report.lhs, report.ratio):
            assert type(value) is float
        table = ReportDocument(RunConfig("verify", format="csv"), [report_row(report, 0)]).to_csv()
        assert "np." not in table

    def test_lp_norm_monotone_in_exponent(self):
        rng = np.random.default_rng(61)
        tensors = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(10)]
        exponents = [2.0 * m / (m + 1.0) for m in range(2, 11)]
        for t in tensors:
            values = [lp_norm(t, p) for p in exponents]
            assert all(b <= a * (1.0 + 1e-12) for a, b in zip(values, values[1:]))


class TestBhCheck:
    def test_littlewood_sharpness(self):
        report = bh_check(littlewood_form(2), compute_constant(2, Field.REAL, Strategy.BEST))
        assert report.passed
        assert abs(report.ratio - SQRT2) <= 1e-9

    def test_zero_form(self):
        constant = compute_constant(2, Field.REAL, Strategy.BEST)
        report = bh_check(MultilinearForm(np.zeros((2, 2)), Field.REAL), constant)
        assert report.passed and report.ratio == 0.0

    def test_property_run_trilinear(self):
        rng = np.random.default_rng(71)
        constant = compute_constant(3, Field.REAL, Strategy.BEST)
        for _ in range(200):
            form = random_form((3, 3, 3), Field.REAL, rng)
            assert bh_check(form, constant).passed

    def test_sandwich_property(self):
        rng = np.random.default_rng(72)
        for m in (2, 3):
            constant = compute_constant(m, Field.REAL, Strategy.BEST)
            for _ in range(50):
                form = random_form((3,) * m, Field.REAL, rng)
                report = bh_check(form, constant)
                assert 0.0 <= report.ratio <= constant.value + 1e-9

    def test_homogeneity(self):
        rng = np.random.default_rng(73)
        arr = rng.uniform(-1, 1, size=(3, 3))
        constant = compute_constant(2, Field.REAL, Strategy.BEST)
        base = bh_check(MultilinearForm(arr, Field.REAL), constant)
        for t in (2.0, 0.37):
            scaled = bh_check(MultilinearForm(t * arr, Field.REAL), constant)
            assert scaled.passed == base.passed
            assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
            assert scaled.lhs == pytest.approx(t * base.lhs, rel=1e-12)

    @EXTREME_SCALES
    def test_extreme_scales_keep_the_ratio(self, scale):
        constant = compute_constant(2, Field.REAL, Strategy.BEST)
        base = bh_check(MultilinearForm(EXTREME_BASE, Field.REAL), constant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = bh_check(MultilinearForm(scale * EXTREME_BASE, Field.REAL), constant)
        assert report.passed
        assert report.ratio == pytest.approx(base.ratio, rel=1e-13)
        assert report.lhs == pytest.approx(scale * base.lhs, rel=1e-13)

    @pytest.mark.parametrize(
        "dims, field",
        [((2, 2), Field.REAL), ((3, 3, 3), Field.REAL), ((2, 2), Field.COMPLEX), ((3, 3), Field.COMPLEX)],
        ids=["real-2x2", "real-3x3x3", "complex-2x2", "complex-3x3"],
    )
    def test_scored_as_the_search_scores(self, dims, field):
        # one l_p sum and one norm dispatch serve the check and the climb
        rng = np.random.default_rng(74)
        constant = compute_constant(len(dims), field, Strategy.BEST)
        for _ in range(5):
            form = random_form(dims, field, rng)
            [ratio] = _search_ratios(form.coeffs[None], form.field, 0, restarts=16)
            assert bh_check(form, constant).ratio.hex() == ratio.hex()

    def test_complex_is_diagnostic(self):
        form = littlewood_form(2, Field.COMPLEX)
        report = bh_check(form, compute_constant(2, Field.COMPLEX, Strategy.BEST))
        assert report.check == "bh-diagnostic"
        assert report.passed  # never hard-fails
        # complex norm of the Littlewood matrix is 2*sqrt(2), so the ratio is 1
        assert report.ratio == pytest.approx(1.0, rel=1e-9)


class TestWeak1Norm:
    def test_canonical_basis(self):
        assert weak1_norm(canonical_family(6)) == 1.0

    def test_single_vector(self):
        fam = VectorFamily(np.array([[0.3, -2.5, 1.0]]), Field.REAL)
        assert weak1_norm(fam) == 2.5

    def test_two_sign_vectors(self):
        fam = VectorFamily(np.array([[1.0, 1.0], [1.0, -1.0]]), Field.REAL)
        assert weak1_norm(fam) == 2.0

    def test_empty_family(self):
        fam = VectorFamily(np.zeros((0, 4)), Field.REAL)
        assert weak1_norm(fam) == 0.0

    @pytest.mark.parametrize("vectors", [np.ones(3), np.ones((2, 2, 2))])
    def test_family_must_be_2d(self, vectors):
        with pytest.raises(DomainError, match="2-d"):
            VectorFamily(vectors, Field.REAL)


class TestMultipleSumming:
    def test_canonical_families_reduce_to_bh(self):
        rng = np.random.default_rng(81)
        for m in (2, 3):
            constant = compute_constant(m, Field.REAL, Strategy.BEST)
            for _ in range(25):
                form = random_form((3,) * m, Field.REAL, rng)
                families = [canonical_family(3) for _ in range(m)]
                summing = multiple_summing_check(form, families, constant)
                bh = bh_check(form, constant)
                assert summing.passed == bh.passed
                assert abs(summing.ratio - bh.ratio) <= 1e-12

    def test_scaling_invariance(self):
        rng = np.random.default_rng(82)
        form = random_form((3, 3), Field.REAL, rng)
        constant = compute_constant(2, Field.REAL, Strategy.BEST)
        families = [random_family(4, 3, Field.REAL, rng) for _ in range(2)]
        base = multiple_summing_check(form, families, constant)
        t = 3.7
        scaled_families = [VectorFamily(t * f.vectors, Field.REAL) for f in families]
        scaled = multiple_summing_check(form, scaled_families, constant)
        assert scaled.passed == base.passed
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
        assert scaled.lhs == pytest.approx(t**2 * base.lhs, rel=1e-12)

    @EXTREME_SCALES
    def test_extreme_scales_keep_the_ratio(self, scale):
        constant = compute_constant(2, Field.REAL, Strategy.BEST)
        families = [canonical_family(2) for _ in range(2)]
        base = multiple_summing_check(MultilinearForm(EXTREME_BASE, Field.REAL), families, constant)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = multiple_summing_check(MultilinearForm(scale * EXTREME_BASE, Field.REAL), families, constant)
        assert report.passed
        assert report.ratio == pytest.approx(base.ratio, rel=1e-13)
        assert report.lhs == pytest.approx(scale * base.lhs, rel=1e-13)

    def test_property_run(self):
        reports = summing_suite(100, 17, m=2, dim=3)
        assert all(r.passed for r in reports)

    def test_dimension_mismatch(self):
        form = littlewood_form(2)
        constant = compute_constant(2, Field.REAL, Strategy.BEST)
        with pytest.raises(DomainError):
            multiple_summing_check(form, [canonical_family(2)], constant)
        with pytest.raises(DomainError):
            multiple_summing_check(form, [canonical_family(2), canonical_family(3)], constant)

    def test_complex_form_is_rejected(self):
        form = littlewood_form(2, Field.COMPLEX)
        constant = compute_constant(2, Field.COMPLEX, Strategy.BEST)
        families = [canonical_family(2, Field.COMPLEX) for _ in range(2)]
        with pytest.raises(DomainError, match="real forms only"):
            multiple_summing_check(form, families, constant)


class TestBleiCheck:
    def test_all_ones_equality(self):
        report = blei_check(np.ones((2, 2)), 2.0, 4.0 / 3.0, 4.0 / 3.0)
        assert report.passed
        assert report.lhs == pytest.approx(2.0**1.25, rel=1e-13)
        assert abs(report.lhs - report.rhs) <= 1e-12 * report.lhs

    def test_single_entry(self):
        report = blei_check(np.array([[0.42]]), 2.0, 1.5, 1.2)
        assert report.lhs == pytest.approx(0.42, rel=1e-13)
        assert report.rhs == pytest.approx(0.42, rel=1e-13)

    def test_property_run(self):
        reports = blei_suite(200, seed=7)
        assert all(r.passed for r in reports)

    def test_domain(self):
        with pytest.raises(DomainError):
            blei_check(np.array([[1.0, -0.1]]), 2.0, 1.2, 1.2)
        with pytest.raises(DomainError):
            blei_check(np.ones((2, 2)), 1.1, 1.2, 1.2)
        with pytest.raises(DomainError, match="matrices"):
            blei_check(np.ones(3), 2.0, 1.2, 1.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_is_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            blei_check(np.array([[1.0, bad]]), 2.0, 1.2, 1.7)

    TINY = np.array([[2e-300, 3e-300], [1e-300, 5e-300]])

    @pytest.mark.parametrize(
        "matrix, reference, scale",
        [
            # a^w overflows; the entry 1.0 adds under 1e-300 relative to 1e300
            ([[1e300, 1.0]], [[1.0]], 1e300),
            # a^q underflows to 0; times 2^1000, exactly, every sum is normal
            (TINY, TINY * 2.0**1000, 2.0**-1000),
        ],
        ids=["overflow", "underflow"],
    )
    def test_extreme_entries_are_decided_on_the_scaled_matrix(self, matrix, reference, scale):
        # both sides have degree 1 in the matrix, so the ratio is the reference's
        report = blei_check(matrix, 2.0, 1.2, 1.7)
        expected = blei_check(reference, 2.0, 1.2, 1.7)
        assert report.passed
        assert report.ratio == pytest.approx(expected.ratio, rel=1e-13)
        assert report.lhs == pytest.approx(scale * expected.lhs, rel=1e-13)
        assert report.rhs == pytest.approx(scale * expected.rhs, rel=1e-13)

    def test_normal_sums_keep_the_formula_bits(self):
        rng = np.random.default_rng(5)
        q, s1, s2 = 2.0, 1.2, 1.7
        w, f1, f2 = blei_w(q, s1, s2), blei_f(q, s1, s2), blei_f(q, s2, s1)
        for _ in range(50):
            a = rng.uniform(0.01, 10.0, size=rng.integers(1, 6, size=2))
            report = blei_check(a, q, s1, s2)
            lhs = float(np.sum(a**w)) ** (1.0 / w)
            rows = np.sum(a**q, axis=1) ** (1.0 / q)
            cols = np.sum(a**q, axis=0) ** (1.0 / q)
            rhs = float(np.sum(rows**s1)) ** (f1 / s1) * float(np.sum(cols**s2)) ** (f2 / s2)
            assert (report.lhs.hex(), report.rhs.hex()) == (lhs.hex(), rhs.hex())
            assert report.ratio.hex() == (lhs / rhs).hex()

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)], ids=["no-rows", "no-columns"])
    def test_empty_matrix_is_rejected(self, shape):
        with pytest.raises(DomainError, match="nonempty"):
            blei_check(np.ones(shape), 2.0, 1.2, 1.7)

    def test_empty_suite(self):
        assert blei_suite(0, seed=3) == []


def _hexes(report):
    return report.params, report.lhs.hex(), report.rhs.hex(), report.ratio.hex()


def _blei_formula(a, q, s1, s2):
    """Blei's lhs and rhs of one matrix by the scalar-exponent formula, on a / max(a) where a
    sum leaves the normal double range; the bits blei_check gives."""
    w, f1, f2 = blei_w(q, s1, s2), blei_f(q, s1, s2), blei_f(q, s2, s1)

    def sides(a):
        with np.errstate(over="ignore"):
            total = float(np.sum(a**w))
            rows, cols = np.sum(a**q, axis=1), np.sum(a**q, axis=0)
            row_total = float(np.sum((rows ** (1.0 / q)) ** s1))
            col_total = float(np.sum((cols ** (1.0 / q)) ** s2))
        sums = [total, row_total, col_total, *rows, *cols]
        normal = all(np.finfo(float).tiny <= s < math.inf for s in sums)
        return total ** (1.0 / w), row_total ** (f1 / s1) * col_total ** (f2 / s2), normal

    lhs, rhs, normal = sides(a)
    if normal:
        return lhs.hex(), rhs.hex(), (lhs / rhs).hex()
    scale = float(a.max())
    lhs, rhs, _ = sides(a / scale)
    return (scale * lhs).hex(), (scale * rhs).hex(), (lhs / rhs).hex()


class TestBleiStack:
    """_blei_checks of a stack gives each matrix, to the bit, what blei_check gives it alone."""

    @staticmethod
    def _assert_alone(stack, q, s1s, s2s):
        reports = _blei_checks(stack, q, s1s, s2s)
        assert len(reports) == len(stack)
        for a, s1, s2, report in zip(stack, s1s, s2s, reports):
            alone = blei_check(a, q, s1, s2)
            assert _hexes(report) == _hexes(alone)
            assert _hexes(alone)[1:] == _blei_formula(a, q, s1, s2)

    def test_normal_and_rescaled_matrices_in_one_stack(self):
        rng = np.random.default_rng(11)
        stack = 1.0 - rng.random((9, 4, 5))
        stack[[1, 5]] *= 1e-200  # a^q underflows
        stack[[2, 7]] *= 1e200  # a^w overflows
        stack[3, 0, 0] = 1e200  # one huge entry
        s1s = rng.uniform(1.0, 1.9, 9).tolist()
        s2s = rng.uniform(1.0, 1.9, 9).tolist()
        self._assert_alone(stack, 2.0, s1s, s2s)

    def test_exponent_two_keeps_the_scalar_square(self):
        # at q = 3, s1 = s2 = 1.5 gives w = 2, and s1 = 2 squares the row norms:
        # numpy squares for a scalar 2, and its pow loop rounds otherwise
        rng = np.random.default_rng(12)
        stack = rng.uniform(0.1, 10.0, (6, 5, 7))
        s1s = [1.5, 1.3, 2.0, 1.5, 2.5, 1.1]
        s2s = [1.5, 1.7, 1.2, 1.5, 1.01, 2.0]
        assert blei_w(3.0, 1.5, 1.5) == 2.0
        self._assert_alone(stack, 3.0, s1s, s2s)

    def test_powers_keep_each_scalar_power(self):
        # numpy's pow loop gives 11 of the 105 entries raised to 2 here other bits than its square
        stack = np.random.default_rng(12).uniform(0.1, 10.0, (6, 5, 7))
        exps = [2.0, 1.5, 2.0, 1.0, 3.0, 2.0]
        out = _powers(stack, exps)
        for k, e in enumerate(exps):
            assert out[k].tobytes() == (stack[k] ** e).tobytes()

    def test_stack_of_one(self):
        a = 1.0 - np.random.default_rng(13).random((1, 6, 8))
        self._assert_alone(a, 2.0, [1.25], [1.75])

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
    def test_suite_reports_are_each_matrix_alone(self, seed):
        # the suite's draws, in its order
        rng = np.random.default_rng(seed)
        alone = []
        for _ in range(1000):
            shape = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            matrix = 1.0 - rng.random(shape)
            s1, s2 = float(rng.uniform(1.0, 1.9)), float(rng.uniform(1.0, 1.9))
            alone.append(_hexes(blei_check(matrix, 2.0, s1, s2)))
            assert alone[-1][1:] == _blei_formula(matrix, 2.0, s1, s2)
        assert [_hexes(r) for r in blei_suite(1000, seed)] == alone

    def test_every_check_is_kept(self):
        with pytest.raises(DomainError, match="matrices"):
            _blei_checks(np.ones((2, 3)), 2.0, [1.2, 1.2], [1.2, 1.2])
        with pytest.raises(DomainError, match="finite"):
            _blei_checks(np.array([[[1.0]], [[math.inf]]]), 2.0, [1.2, 1.2], [1.2, 1.2])
        with pytest.raises(DomainError, match="positive"):
            _blei_checks(np.array([[[1.0]], [[0.0]]]), 2.0, [1.2, 1.2], [1.2, 1.2])
        with pytest.raises(DomainError, match="q > max"):
            _blei_checks(np.ones((2, 1, 1)), 2.0, [1.2, 1.9], [1.2, 2.5])


class TestExtremalSearch:
    def test_move_order(self):
        # the climb tries a coordinate's moves in this order, so the order
        # fixes which ties win and where a spent budget cuts a sweep
        assert _moves(0.5, Field.REAL) == [1.0, -1.0, 1.5, -0.5, 0.6, 0.4, 0.51, 0.49]
        z = 0.5 + 0.5j
        turns = [z * np.exp(sign * 1j * s) for s in (1.0, 0.1, 0.01) for sign in (1, -1)]
        steps = [z + 1, z - 1, z + 0.1, z - 0.1, z + 0.01, z - 0.01]
        assert _moves(z, Field.COMPLEX) == [1.0, -1.0, *steps, 1j, -1j, *turns]

    def test_linear_case_is_unit(self):
        report = extremal_search(1, 4, Field.REAL, budget=2000, seed=3)
        assert report.ratio == 1.0

    def test_wide_linear_search_in_bounded_memory(self):
        # the sweep reads coordinate i as flat index i and keeps no list of
        # coordinates: the draw, its one-row stacks and the final form are
        # 1.6 MB each at width 2 x 10^5
        tracemalloc.start()
        try:
            report = extremal_search(1, 200_000, Field.REAL, budget=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ratio == 1.0
        assert peak < 12 * 2**20

    def test_bilinear_recovers_littlewood(self):
        report = extremal_search(2, 2, Field.REAL, budget=20000, seed=0)
        assert report.ratio >= SQRT2 - 1e-6
        assert report.ratio <= SQRT2 + 1e-9
        assert report.passed

    def test_trilinear_respects_upper_bound(self):
        report = extremal_search(3, 2, Field.REAL, budget=10000, seed=42)
        assert report.ratio <= 2.0 ** (5.0 / 6.0) + 1e-9

    def test_complex_is_diagnostic(self):
        report = extremal_search(2, 2, Field.COMPLEX, budget=2000, seed=1)
        assert report.check == "search-diagnostic"
        assert report.passed

    @pytest.mark.parametrize(
        "m, n, field, budget, ratio_hex, witness",
        [
            (3, 3, Field.REAL, 6000, "0x1.16b1563f65b64p+0", "679a28597618"),
            (2, 5, Field.REAL, 8000, "0x1.16c19cdb26033p+0", "c5d4700fa36f"),
            (2, 2, Field.COMPLEX, 20, "0x1.ec58f96124a39p-1", "596fa3f30da4"),
            # m = 3 contracts a middle slot and copies a transposed operand; (3,3) makes 3-wide gemvs
            (3, 2, Field.COMPLEX, 40, "0x1.81f64cec495afp-1", "d04b2be3e5b2"),
            (2, 3, Field.COMPLEX, 40, "0x1.90cddfe781140p-1", "cb7be55abc43"),
        ],
        ids=["real-3x3x3", "real-5x5", "complex-2x2", "complex-2x2x2", "complex-3x3"],
    )
    def test_trajectory_pinned(self, m, n, field, budget, ratio_hex, witness):
        # every tried ratio steers the climb, so one bit of drift in any
        # candidate's score moves the witness
        report = extremal_search(m, n, field, budget=budget, seed=42)
        assert report.trials == budget
        assert report.ratio.hex() == ratio_hex
        assert digest_bytes(report.witness.tobytes()) == witness

    @pytest.mark.parametrize(
        "m, n, field, budget",
        [(3, 3, Field.REAL, 6000), (2, 5, Field.REAL, 8000), (2, 8, Field.REAL, 2000), (2, 2, Field.COMPLEX, 40),
         (1, 4, Field.REAL, 2000), (1, 1, Field.REAL, 10), (2, 5, Field.REAL, 1003), (2, 5, Field.REAL, 37)],
        ids=["real-3x3x3", "real-5x5", "real-8x8", "complex-2x2", "linear-4", "linear-1", "real-5x5-budget-1003",
             "real-5x5-budget-37"],
    )
    def test_batched_climb_is_the_one_coordinate_climb(self, m, n, field, budget):
        # moves of later coordinates scored in the same call as an accepted
        # one are discarded, so the climb is the one that scores each
        # coordinate alone; budgets 1003 and 37 end inside a widened batch
        report = extremal_search(m, n, field, budget=budget, seed=42)
        evals, tensor = _one_coordinate_climb(m, n, field, budget, 42)
        [ratio] = _search_ratios(tensor[None], field, 42, restarts=16)
        assert report.trials == evals
        assert report.ratio.hex() == ratio.hex()
        assert digest_bytes(report.witness.tobytes()) == digest_bytes(tensor.tobytes())

    def test_batched_climb_halves_the_oracle_calls(self, monkeypatch):
        # one coordinate per call made 1 009 calls here
        calls = []

        def counted(stack, *args, **kwargs):
            calls.append(len(stack))
            return _search_ratios(stack, *args, **kwargs)

        monkeypatch.setattr(verify, "_search_ratios", counted)
        report = extremal_search(2, 5, Field.REAL, budget=8000, seed=42)
        assert report.trials == 8000
        assert len(calls) <= 600
        assert max(calls) > len(_moves(0.0, Field.REAL))

    def test_batches_widen_up_to_the_oracle_chunk_cap(self, monkeypatch):
        # 5x5: one coordinate's moves are 8 x 5 x 2^4 = 640 vertex values, so a
        # cap below two coordinates' keeps every call at one coordinate, and
        # the climb, the one-coordinate climb either way, ends where it did
        calls = []

        def counted(stack, *args, **kwargs):
            calls.append(len(stack))
            return _search_ratios(stack, *args, **kwargs)

        monkeypatch.setattr(verify, "_search_ratios", counted)
        monkeypatch.setattr(oracle, "_CHUNK_VALUES", 2 * 640 - 1)
        report = extremal_search(2, 5, Field.REAL, budget=8000, seed=42)
        assert max(calls) == len(_moves(0.0, Field.REAL))
        assert report.ratio.hex() == "0x1.16c19cdb26033p+0"
        assert digest_bytes(report.witness.tobytes()) == "c5d4700fa36f"

    def test_domain(self):
        with pytest.raises(DomainError):
            extremal_search(0, 2)
        with pytest.raises(DomainError):
            extremal_search(2, 2, budget=0)

    def test_oversized_shape_names_the_guard(self):
        with pytest.raises(SizeLimitError, match=r"spans 2\^30 > 2\^24 sign vectors"):
            extremal_search(2, 30, budget=10)


class TestSuites:
    def test_khinchine_suite(self):
        reports = khinchine_suite(50, 13, n=8, p=2.0)
        assert len(reports) == 50
        assert all(r.passed for r in reports)
        assert all(abs(r.ratio - 1.0) <= 1e-12 for r in reports)

    def test_bh_suite_injects_littlewood(self):
        reports = bh_suite(50, 42, m=2, dim=2)
        assert all(r.passed for r in reports)
        assert max(r.ratio for r in reports) == pytest.approx(SQRT2, abs=1e-9)

    def test_littlewood_needs_two_coordinates(self):
        with pytest.raises(DomainError, match="dim >= 2"):
            littlewood_form(1)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 2)])
    def test_form_rejects_width_zero_slot(self, shape):
        with pytest.raises(DomainError, match=re.escape(f"width >= 1, got shape {shape}")):
            MultilinearForm(np.zeros(shape), Field.REAL)

    @pytest.mark.parametrize("m, dim", [(10, 2), (19, 1)])
    def test_bh_suite_many_middle_slots(self, m, dim):
        # 8 and 17 middle slots; with first signs fixed, 2^8 and 1 middle combinations per form
        reports = bh_suite(3, 0, m=m, dim=dim)
        assert len(reports) == 3
        assert sum(not r.passed for r in reports) == 0

    @pytest.mark.parametrize("suite", [bh_suite, summing_suite])
    def test_oversized_cube_is_refused_before_the_draw(self, suite):
        # the (1000,)*5 tensor would need 7.11 PiB; the guard comes first
        with pytest.raises(SizeLimitError, match=r"spans 2\^4000 > 2\^24 sign vectors"):
            suite(1, 0, m=5, dim=1000)

    def test_form_validation(self):
        with pytest.raises(DomainError):
            MultilinearForm(np.array([[np.inf, 1.0]]), Field.REAL)
        with pytest.raises(DomainError):
            MultilinearForm(np.float64(3.0), Field.REAL)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field", ["real", None], ids=repr)
    def test_field_that_is_not_a_field_is_refused(self, field):
        # "real" was once taken for a complex form: its draws lost their imaginary
        # parts after a ComplexWarning, and the oracles called it complex
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        refused = [
            lambda: MultilinearForm(np.ones((2, 2)), field),
            lambda: VectorFamily(np.ones((2, 2)), field),
            lambda: random_form((2, 2), field, rng),
            lambda: random_family(2, 2, field, rng),
            lambda: littlewood_form(2, field),
            lambda: extremal_search(2, 2, field),
        ]
        for call in refused:
            with pytest.raises(DomainError, match=f"unknown field {re.escape(repr(field))}"):
                call()
        assert rng.bit_generator.state == state  # refused before any draw
