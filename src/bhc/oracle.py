"""The exact operator norm of real multilinear forms, by walking cube vertices.

A multilinear form attains its sup at cube vertices, so slots 2..m are
enumerated over sign vectors while slot 1 collapses to an l1 sum.  Each of
slots 2..m fixes its first sign to +1, since flipping a whole slot only
negates the value.  The middle slots 2..m-1 are contracted depth first, so a
shared prefix is contracted once, and their combinations are scored a chunk
at a time: one ``matmul`` against a block of last-slot vertices, one ``abs``
and one sum over slot 1 per chunk.  Every slot is read a block of sign
vectors at a time and every product is capped, so memory stays flat up to
the size guard.  One call can take a stack of forms of one shape; the sign
tables of narrow slots are cached.  A lone form with one middle slot is
pruned instead, wherever the pruned walk can hold it: a vectorised bound
pass gives each of the middle slot's rows a certified upper bound on the
vertex values the walk would compute for it, and the rows are scored in
descending bound until none left can reach the running norm (717 of the
6 144 rows of three random (12,12,12) forms), with the same norms to the bit.

The module is private to :mod:`bhc.verify`, whose ``sup_norm_real`` is the
public entry point; every call runs in the calling thread.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import SizeLimitError

# Slots 2..m span prod(2^N_k) <= 2^MAX_ENUM_BITS sign vectors; the oracle
# evaluates the 2^(m-1) times fewer whose slots each start with +1.
MAX_ENUM_BITS = 24

_TINY = np.finfo(float).tiny  # the smallest normal double


# Every enumerated slot, middle or last, is read at most _SIGN_BLOCK sign
# vectors at a time, and every scored product holds at most _CHUNK_VALUES
# values (1 MiB) whatever K, N_1 and the slot widths: a last-slot block has at
# most _CHUNK_VALUES // (K x N_1) vertices, and a chunk as many middle
# combinations as fit, one of each at least.  A larger gemm amortizes packing
# the block, and a product this size still sits in cache for the abs and the
# sum that follow.
_SIGN_BLOCK = 2**16
_CHUNK_VALUES = 2**17

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


def _sign_blocks(n: int, block: int):
    """Yield the rows of :func:`_sign_vectors` in order, ``block`` at a time: slices of
    the cached table when the whole table fits one sign block; else each block is built
    into one buffer, over the block before it, so a wide slot holds one block at a time."""
    total = 2 ** (n - 1)
    if total <= _SIGN_BLOCK:
        table = _cached_sign_vectors(n)
        for at in range(0, total, block):
            yield table[at : at + block]
        return
    buffer = np.empty((min(block, total), n))
    for at in range(0, total, block):
        yield _sign_vectors(n, at, min(at + block, total), buffer)


def _middle_leaves(w: np.ndarray, widths: tuple[int, ...]):
    """Yield w with axis 1 contracted by a sign vector of width widths[0], the next
    axis 1 by one of width widths[1], and so on: every combination, depth first,
    each slot's sign vectors read a sign block at a time.

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
    for signs in _sign_blocks(widths[0], _SIGN_BLOCK):
        for eps in signs:
            yield from _middle_leaves(np.dot(at, eps.reshape(-1, 1)).reshape(shape), widths[1:])


def _check_enumerable(dims: tuple[int, ...]) -> None:
    """Raise unless slots 2..m of ``dims`` span at most 2^MAX_ENUM_BITS sign vectors."""
    if sum(dims[1:]) > MAX_ENUM_BITS:
        raise SizeLimitError(
            f"sign enumeration over slots 2..m spans 2^{sum(dims[1:])} > 2^{MAX_ENUM_BITS} sign vectors"
        )


def _sup_norms_real(stack: np.ndarray) -> np.ndarray:
    """Exact operator norms of the finite real forms stack[0], stack[1], ... of one shape.

    Each norm is bit for bit what a full enumeration through the chain
    ``tensordot`` per middle slot, ``matmul`` with the last-slot vertices,
    ``abs`` and ``add.reduce`` over slot 1 would give the form alone, with one
    exception: in a stack of forms with N_1 = 1 and a middle slot, OpenBLAS
    may round the middle slot's leaf gemv over K x N_m rows differently from
    the lone form's over N_m rows.  In stacks of 4, 8 and 16 random forms of
    shapes (1,5,6), (1,4,7) and (1,6,5) (seed 1, one-thread BLAS), 83 of
    2 100 forms got a last bit other than their stack of one; (1,6), (1,9),
    (1,3,9), (2,5,6) and (3,3,3) showed none.  Such a norm is still within
    gamma_n sum|U| (n = N_1 + ... + N_m) of the exact norm, a bound that holds
    for any summation order, so it certifies as any other; correctly rounded
    norms would remove the exception (ROADMAP item 2).  No search stack is
    affected: a cube with N_1 = 1 has one coordinate per slot.

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
    * A lone form with one middle slot is pruned (:func:`_pruned_walk`) when
      that slot's sign table is cached and its last slot has two coordinates
      or more and fits one block.  A bound pass (:func:`_row_reach`) gives
      each middle row r a reach R(r) = B(r) (1 + c) + (c ||U||_1 + tiny),
      with B(r) the computed bound over two halves of the last slot, c = 4
      (N_1 + N_2 + N_3) u, u = 2^-53 and tiny the smallest normal double;
      the rows are scored in descending reach, one row first and then twice
      as many per chunk up to a full chunk, and those whose reach is below
      the running norm are dropped.  A scored row is scored as in the walk,
      and the norm is a maximum, so only a dropped row could change it, and
      none does: R(r) is at or above every vertex value V^(r, t) the walk
      would compute for r.

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
    n1, nm = dims[0], dims[-1]
    # a lone form (a stack's Python step per middle row serves all its forms),
    # one middle slot whose sign table is cached, and a last slot of more than one
    # vertex (the walk doubles a lone one) that fits one block
    if (
        len(stack) == 1
        and len(dims) == 3
        and 1 < nm
        and 2 ** (dims[1] - 1) <= _SIGN_BLOCK
        and 2 ** (nm - 1) <= min(_SIGN_BLOCK, _CHUNK_VALUES // n1)
    ):
        return np.array([_pruned_walk(stack[0])])
    return _walk(stack)


def _walk(stack: np.ndarray) -> np.ndarray:
    """The norms of :func:`_sup_norms_real` for a stack of forms with two slots or
    more, by the walk over every middle combination and last-slot block."""
    k, n1, *_, nm = stack.shape
    # the stack seen as one form of K x N_1 rows
    rows = stack.reshape(k * n1, *stack.shape[2:])
    middle = stack.shape[2:-1]
    block = min(_SIGN_BLOCK, max(1, _CHUNK_VALUES // (k * n1)))
    # numpy makes a 1 x N_m form a gemv, and OpenBLAS rounds a gemm over many
    # forms' rows differently at some partial block widths (above 192, not a
    # multiple of 8), so only a last slot that fits one block gets one gemm
    one_gemm = n1 > 1 and block >= 2 ** (nm - 1)
    best = np.zeros(k)
    for last in _sign_blocks(nm, block):
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
        combinations = 2 ** (sum(middle) - len(middle))
        chunk = min(combinations, max(1, _CHUNK_VALUES // (k * n1 * width)))
        leaves = np.empty((chunk, k * n1, nm))
        product = np.empty((chunk * k, n1, width))
        sums = np.empty((chunk * k, width))
        walk = _middle_leaves(rows, middle)
        for start in range(0, combinations, chunk):
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
