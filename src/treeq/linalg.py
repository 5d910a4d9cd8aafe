"""Deterministic dense linear algebra: Hadamard transforms and truncated SVD.

Every routine here is a pure function of its input.  Products and
reductions go through ``np.einsum``, which fixes the accumulation order and
calls no BLAS, so no BLAS setting or kernel enters; README's determinism
contract says what the package's bits depend on.

The SVD is direct, with fixed step counts and no BLAS or LAPACK, in four
steps on the tall form A of each problem (Golub & Kahan, SIAM J. Numer.
Anal. B 1965):

1. Householder bidiagonalisation A = Q_L B Q_R^T, the reflectors kept in
   the routine's own copy of A;
2. the top r singular values from Sturm counts on the Golub-Kahan
   tridiagonal of B, by multisection: a fixed number of passes, each
   placing a fixed number of probes inside every value's interval (Barth,
   Martin & Wilkinson, Numer. Math. 1967);
3. the vectors by inverse iteration on the same tridiagonal, one
   partial-pivot factorization per value and a fixed number of solves,
   each followed by Gram-Schmidt in descending-sigma order;
4. back-transformation of only the r wanted vectors through the stored
   reflectors.

Every step is elementwise or a fixed-order ``einsum`` per problem, so a
whole stack of matrices is solved at once, each bit-identical to solving
it alone.  Nothing iterates to a tolerance, so the routine cannot fail to
converge; it checks its answer instead, and raises ConvergenceError when
max ||A v_j - sigma_j u_j|| exceeds SVD_RESIDUAL_FACTOR * max(m, n) * eps
* sigma_1.  No routine here writes its input, and ``hadamard`` hands out
one shared ``frozen`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ConvergenceError, InvalidDimensionError, InvalidRankError

MAX_HADAMARD = 4096
SVD_PROBES = 15  # multisection probes per interval and pass
SVD_PASSES = 14  # (SVD_PROBES + 1) ** SVD_PASSES = 2 ** 56
SVD_SOLVES = 3  # inverse-iteration solves per singular value
SVD_RESIDUAL_FACTOR = 16.0  # residual bound in units of max(m, n) * eps * sigma_1
STURM_ROOM = 2**14  # Sturm terms a buffer may always hold, over the whole stack

_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps


def as_stack(m) -> np.ndarray:
    """Coerce ``m`` to a finite float64 array of shape (..., rows, cols), both >= 1."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2:
        raise InvalidDimensionError(f"expected a matrix or a stack, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidDimensionError("matrix contains non-finite entries")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise InvalidDimensionError("matrix must be at least 1 x 1")
    return a


def as_matrix(a) -> np.ndarray:
    """``as_stack`` of ``a``, which must be a single 2-D matrix."""
    m = as_stack(a)
    if m.ndim != 2:
        raise InvalidDimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def is_int(value) -> bool:
    """Whether ``value`` is an integer (numpy's too) and not a bool: ``as_int``'s rule."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_int(value, what: str, error=InvalidDimensionError) -> int:
    """``value`` as an int; ``error`` unless ``is_int(value)``."""
    if not is_int(value):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def frozen(a) -> np.ndarray:
    """``a`` as a float64 array that nothing can make writable again.

    That is ``a`` itself if it lies on a read-only memoryview (it is frozen,
    or a view of a frozen array), else a C-ordered copy on one.  numpy
    refuses ``setflags(write=True)`` on such an array and on every view of
    it, so a cache may key on its identity.
    """
    a = np.asarray(a, dtype=np.float64)
    root = a
    while isinstance(root, np.ndarray) and root.base is not None:
        root = root.base
    if isinstance(root, memoryview) and root.readonly:
        return a
    return np.asarray(memoryview(np.array(a, order="C")).toreadonly())


def splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer (see ``toymodel``) of each entry of a uint64 array."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hadamard(n: int) -> np.ndarray:
    """Normalized Sylvester Hadamard matrix of order ``n``.

    ``n`` must be an integer (``as_int``) and a power of two, at most
    4096.  Entries are +-1/sqrt(n) and the matrix is symmetric and
    orthogonal.  Results are cached and shared: every caller gets the same
    ``frozen`` array, so no layer holds a copy and no caller can write
    into another's rotation.
    """
    n = as_int(n, "Hadamard order")
    if n < 1 or (n & (n - 1)) != 0:
        raise InvalidDimensionError(f"Hadamard order must be a power of two, got {n}")
    if n > MAX_HADAMARD:
        raise InvalidDimensionError(f"Hadamard order {n} exceeds cap {MAX_HADAMARD}")
    return _sylvester(n)


@cache
def _sylvester(n: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return frozen(h / np.sqrt(n))


@dataclass(frozen=True)
class SvdTriple:
    """Rank-r factorization: u (m x r), sigma (r,) non-increasing, v (n x r).

    From a stack every field carries the stack's leading axes.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def _reflect(x):
    """Turn each row of ``x`` (B, len) into its Householder vector, in place.

    Row x becomes h = x - beta e_1 with beta = -sign(x_1) ||x||, so that
    (I - tau h h^T) x = beta e_1.  Returns beta and tau; a zero row gets
    tau 0, the identity.
    """
    alpha = x[:, 0]
    norm = np.sqrt(np.einsum("bi,bi->b", x, x))
    beta = np.where(alpha < 0.0, norm, -norm)
    scale = norm * (norm + np.abs(alpha))
    alpha -= beta
    tau = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0.0)
    return beta, tau


def _bidiagonalize(w):
    """Householder bidiagonalisation of a (B, n, m) stack of column sets, in place.

    w[k, j] is column j of problem k's tall m x n matrix A (n <= m).
    Returns the diagonal d (B, n) and superdiagonal e (B, n-1) of the upper
    bidiagonal Q_L^T A Q_R, and the reflectors' tau_l (B, n) and tau_r
    (B, n).  The reflectors are left in ``w``: the left one of step k in
    w[:, k, k:] (column k from the diagonal down), the right one in
    w[:, k+1:, k] (row k right of the diagonal).
    """
    count, n, _ = w.shape
    d = np.empty((count, n))
    e = np.empty((count, n - 1))
    tau_l = np.empty((count, n))
    tau_r = np.zeros((count, n))
    for k in range(n):
        h = w[:, k, k:]
        d[:, k], tau_l[:, k] = _reflect(h)
        rest = w[:, k + 1 :, k:]
        s = np.einsum("bi,bji->bj", h, rest) * tau_l[:, k, None]
        rest -= np.einsum("bj,bi->bji", s, h)
        if k + 2 < n:
            g = w[:, k + 1 :, k]
            e[:, k], tau_r[:, k] = _reflect(g)
            rest = w[:, k + 1 :, k + 1 :]
            s = np.einsum("bj,bji->bi", g, rest) * tau_r[:, k, None]
            rest -= np.einsum("bj,bi->bji", g, s)
        elif k + 1 < n:
            e[:, k] = w[:, k + 1, k]
    return d, e, tau_l, tau_r


def _gk_sigmas(off, r: int, room: int):
    """Top r singular values of each bidiagonal, by Sturm multisection.

    ``off`` (B, 2n-1) is the off-diagonal (d_1, e_1, d_2, ..., d_n) of the
    Golub-Kahan tridiagonal T, which has a zero diagonal and eigenvalues
    +-sigma_i.  For x > 0, n + #{sigma_i < x} of the terms p_0 = x,
    p_i = x - off_i^2 / p_{i-1} are positive (Barth, Martin & Wilkinson
    1967).  Squares below the smallest normal are raised to it, so a zero
    p_i makes p_{i+1} = -inf and p_{i+2} = x; a zero counts as positive,
    as the division after it takes it.  No pivot guard is needed.

    Every sigma_j starts in [0, Gershgorin bound of T].  A pass puts
    SVD_PROBES evenly spaced probes inside each interval and keeps the
    piece between the two that bracket sigma_j, so SVD_PASSES passes shrink
    it 16^14 = 2^56-fold.  A pass runs its terms through a buffer of at
    most ``room`` terms per problem (and at least one step), counting the
    positive ones each time it fills, beside a same-size buffer of the
    squares spread over the probes, which is filled once when a whole pass
    fits.  The result does not depend on ``room``.  Returns the midpoints
    (B, r) and the bound (B,).
    """
    count, steps = off.shape
    mag = np.pad(np.abs(off), ((0, 0), (1, 1)))
    bound = (mag[:, :-1] + mag[:, 1:]).max(axis=1)
    sq = np.maximum(off * off, _TINY).T[:, :, None, None]
    lo = np.zeros((count, r))
    hi = np.repeat(bound[:, None], r, axis=1)
    grid = np.arange(SVD_PROBES + 2) / (SVD_PROBES + 1)
    inner = grid[1:-1, None]
    # probe x lies at or below sigma_j when at most 2n - 1 - j terms are positive
    most = steps - np.arange(r)
    # the terms p_1 ... p_{2n-1} of every probe: (i, problem, probe, value)
    rows = max(1, min(steps, room // (r * SVD_PROBES)))
    p = np.empty((rows, count, SVD_PROBES, r))
    # off_i^2 spread over the probes, copied once when the pass fits one chunk
    num = np.empty_like(p)
    starts = range(0, steps, rows)
    refill = len(starts) > 1
    if not refill:
        num[...] = sq
    terms = list(zip(num, p))
    divide, subtract = np.divide, np.subtract
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(SVD_PASSES):
            width = hi - lo
            x = lo[:, None] + width[:, None] * inner
            # p_0 = x >= 0 counts as positive
            below = np.ones(x.shape, dtype=np.int32)
            prev = x
            for start in starts:
                h = min(rows, steps - start)
                if refill:
                    num[:h] = sq[start : start + h]
                for s, term in terms[:h]:
                    divide(s, prev, term)
                    subtract(x, term, term)
                    prev = term
                below += np.add.reduce(p[:h] >= 0.0, axis=0, dtype=np.int32)
            idx = np.add.reduce(below <= most, axis=1, dtype=np.int32)
            lo, hi = lo + width * grid[idx], lo + width * grid[idx + 1]
    return lo + (hi - lo) / 2.0, bound


def _start_vectors(r: int, size: int) -> np.ndarray:
    """Start vectors (r, size) in [-1, 1): the splitmix64 finalizer of (j << 32) | i.

    Pseudo-random, so no two rows project onto an eigenspace in proportion,
    and exact integer arithmetic, so the same on every machine.
    """
    rows = np.arange(r, dtype=np.uint64)[:, None] << np.uint64(32)
    z = splitmix64(rows | np.arange(size, dtype=np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0


def _gk_vectors(off, sigma, bound):
    """Eigenvectors of the Golub-Kahan tridiagonals for +sigma, by inverse iteration.

    T - s_j I is factored once per sigma_j by Gaussian elimination with
    partial pivoting, which swaps neighbouring rows only, so U has two
    superdiagonals; a pivot below eps * bound is raised to it.  The shift
    s_j = sigma_j + n * eps * bound sits just above sigma_j, farther than
    the computed values of an exact cluster spread, so every vector of a
    cluster grows alike.  Each sigma_j starts from its own vector and takes
    SVD_SOLVES solves; after each, Gram-Schmidt in descending-sigma order
    keeps the vectors of a cluster apart (Peters & Wilkinson, 1971).
    Returns z (B, r, 2n), unit rows; the eigenvector of +sigma is
    (v_1, u_1, ..., v_n, u_n) with B v = sigma u and B^T u = sigma v.
    """
    count, r = sigma.shape
    size = off.shape[1] + 1
    guard = _EPS * np.where(bound > 0.0, bound, 1.0)[:, None]
    diag = -(sigma + (size // 2) * guard)
    mag = list(np.abs(off).T[:, :, None])
    # row i + 1 of T - s_j I from column i on, (off_i, diag, off_{i+1}); the
    # elimination turns it in place into U's row i, (u0, u1, u2)
    rows = np.empty((size - 1, 3, count, r))
    rows[:, 0] = off.T[:, :, None]
    rows[:, 1] = diag
    rows[:-1, 2] = off.T[1:, :, None]
    rows[-1, 2] = 0.0
    # the row still to pivot from column i on, (piv, sup, 0), in two buffers by turns
    carry = np.zeros((2, 3, count, r))
    pivot = carry[0]
    pivot[0] = diag
    pivot[1] = off[:, :1]
    # per elimination step: the swap and the multiplier, and U's row as (u0, (u1, u2))
    lower, upper = [], []
    for i, (row, low_mag) in enumerate(zip(rows, mag)):
        sw = low_mag > np.abs(pivot[0])
        rest = np.where(sw, pivot, row)
        np.copyto(row, pivot, where=~sw)
        lead = row[0]
        np.copyto(lead, guard, where=np.abs(lead) < guard)
        m = rest[0] / lead
        pivot = carry[(i + 1) % 2]
        np.subtract(rest[1:], m * row[1:], out=pivot[:2])
        lower.append((sw, m))
        upper.append((lead, row[1:]))
    last = np.where(np.abs(pivot[0]) < guard, guard, pivot[0])
    z = np.empty((count, r, size))
    z[...] = _start_vectors(r, size)
    y = np.empty((size, count, r))
    # per step: rows i and i + 1 of y, the two swapped, and each alone
    pairs = [(pair, pair[::-1], pair[0], pair[1]) for pair in (y[i : i + 2] for i in range(size - 1))]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(SVD_SOLVES):
            y[...] = z.transpose(2, 0, 1)
            # forward, in place: y = L^-1 P z
            for (sw, m), (pair, swapped, top, below) in zip(lower, pairs):
                np.copyto(pair, swapped, where=sw)
                np.subtract(below, m * top, out=below)
            # backward, in place from the last row up: y = U^-1 y
            y[-1] /= last
            lead, u12 = upper[-1]
            np.divide(y[-2] - u12[0] * y[-1], lead, out=y[-2])
            for i in range(size - 3, -1, -1):
                lead, u12 = upper[i]
                terms = u12 * y[i + 1 : i + 3]
                np.divide(y[i] - terms[0] - terms[1], lead, out=y[i])
            z = _orthonormalize(np.ascontiguousarray(y.transpose(1, 2, 0)))
    return z


def _canonical_unit(prev) -> np.ndarray:
    """Deterministic unit vector orthogonal to the rows of ``prev`` (j x dim)."""
    dim = prev.shape[1]
    for i in range(dim):
        w = np.zeros(dim)
        w[i] = 1.0
        for p in prev:
            w -= np.einsum("i,i->", p, w) * p
        nrm = np.sqrt(np.einsum("i,i->", w, w))
        if nrm > 1e-6:
            return w / nrm
    raise InvalidRankError("no direction left orthogonal to previous vectors")


def _orthonormalize(v):
    """Orthonormalise the rows of each (r, dim) matrix of a (B, r, dim) stack, in place.

    Rows go in order: classical Gram-Schmidt against the rows before,
    applied twice, then normalisation.  A row with no direction of its own
    (nothing left after the projection, or not finite) gets a canonical
    unit instead.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(v.shape[1]):
            row = w = v[:, j]
            nrm = before = np.sqrt(np.einsum("bp,bp->b", w, w))
            if j:
                prev = v[:, :j]
                for _ in range(2):
                    w = w - np.einsum("bkp,bk->bp", prev, np.einsum("bkp,bp->bk", prev, w))
                nrm = np.sqrt(np.einsum("bp,bp->b", w, w))
            lost = ~(nrm > 1e-6 * before)
            np.divide(w, np.where(lost, 1.0, nrm)[:, None], out=row)
            for k in np.flatnonzero(lost):
                row[k] = _canonical_unit(v[k, :j])
    return v


def _fix_sign(u, v):
    """Flip pairs so the first entry of each u row with |u_i| > 1e-12 is positive."""
    big = np.abs(u) > 1e-12
    lead = np.take_along_axis(u, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    sign = np.where(big.any(axis=-1) & (lead < 0.0), -1.0, 1.0)[..., None]
    return u * sign, v * sign


def _check_residual(cols, u, sigma, v):
    """Raise ConvergenceError unless every problem's triples satisfy A v = sigma u.

    The bound on max_j ||A v_j - sigma_j u_j|| is SVD_RESIDUAL_FACTOR *
    max(m, n) * eps * sigma_1, a small multiple of what a backward-stable
    SVD leaves.  A non-finite residual fails too.
    """
    _, n, m = cols.shape
    res = np.einsum("bji,bkj->bki", cols, v) - sigma[..., None] * u
    worst = np.sqrt(np.einsum("bki,bki->bk", res, res).max(axis=1))
    bad = ~(worst <= SVD_RESIDUAL_FACTOR * max(m, n) * _EPS * sigma[:, 0])
    if bad.any():
        raise ConvergenceError(
            f"SVD residual above {SVD_RESIDUAL_FACTOR:g} * n * eps * sigma_1",
            residual=float(worst[bad].max()),
        )


def _svd(a, r: int):
    """Top-r SVD of each matrix of a (B, m, n) stack, sorted by descending sigma.

    Returns u (B, m, r), sigma (B, r) and v (B, n, r), all C-contiguous,
    and never writes ``a``.  Works on the tall form of each problem (a[k],
    or a[k]^T for a wide stack) in four steps: Householder
    bidiagonalisation, sigma by Sturm multisection and the vectors by
    inverse iteration on the Golub-Kahan tridiagonal, and back-
    transformation of the r vectors through the stored reflectors.  Exact
    sigma ties get orthonormal vectors from distinct start vectors, and a
    zero sigma canonical units orthogonal to the vectors before it.  Signs
    follow ``_fix_sign`` on the tall form's left vectors, which are v for a
    wide stack.  Raises ConvergenceError if a residual is past its bound.

    Each problem is first scaled by the power of two that brings its
    largest |entry| into [1/2, 1) (a zero problem keeps scale 1), and its
    sigma scaled back at the end.  The scaling is exact, so it changes no
    bit of a problem whose squares and norms stay in range, and it keeps
    them in range at either end of the float range.  The residual check
    runs on the scaled problem.
    """
    exponent = np.frexp(np.abs(a).max(axis=(1, 2)))[1]
    a = np.ldexp(a, -exponent[:, None, None])
    transposed = a.shape[2] > a.shape[1]
    # cols[k, j] is column j of the tall form
    cols = a if transposed else np.swapaxes(a, 1, 2)
    count, n, m = cols.shape
    w = np.array(cols, order="C")
    d, e, tau_l, tau_r = _bidiagonalize(w)
    off = np.empty((count, 2 * n - 1))
    off[:, 0::2] = d
    off[:, 1::2] = e
    # each of the two Sturm buffers holds at most one copy of the stack or
    # STURM_ROOM terms, whichever is more, so that a pass over a small stack
    # fits one chunk
    sigma, bound = _gk_sigmas(off, r, room=max(m * n, STURM_ROOM // count))
    z = _gk_vectors(off, sigma, bound)
    v = _orthonormalize(z[:, :, 0::2].copy())
    u = np.zeros((count, r, m))
    u[:, :, :n] = _orthonormalize(z[:, :, 1::2])
    for k in range(n - 1, -1, -1):
        h = w[:, k, k:]
        s = np.einsum("bi,bji->bj", h, u[:, :, k:]) * tau_l[:, k, None]
        u[:, :, k:] -= np.einsum("bj,bi->bji", s, h)
    for k in range(n - 3, -1, -1):
        h = w[:, k + 1 :, k]
        s = np.einsum("bi,bji->bj", h, v[:, :, k + 1 :]) * tau_r[:, k, None]
        v[:, :, k + 1 :] -= np.einsum("bj,bi->bji", s, h)
    for k, j in zip(*np.nonzero(sigma == 0.0)):
        u[k, j] = _canonical_unit(u[k, :j])
        v[k, j] = _canonical_unit(v[k, :j])
    u, v = _fix_sign(u, v)
    _check_residual(cols, u, sigma, v)
    if transposed:
        u, v = v, u
    return (
        np.ascontiguousarray(np.swapaxes(u, 1, 2)),
        np.ldexp(sigma, exponent[:, None]),
        np.ascontiguousarray(np.swapaxes(v, 1, 2)),
    )


def truncated_svd(m, r: int) -> SvdTriple:
    """Best rank-``r`` factorization of a matrix or of each matrix of a stack.

    A 2-D input gives u (m, r), sigma (r,) and v (n, r); an input of shape
    (..., m, n) is solved in one batched call and gives u (..., m, r),
    sigma (..., r) and v (..., n, r), each entry bit-identical to the 2-D
    call on that matrix.  Deterministic: fixed step counts and fixed
    start vectors; exact singular-value ties get orthonormal vectors.
    ``r`` must be an integer (``as_int``) in [1, min(m, n)].
    """
    a = as_stack(m)
    *batch, rows, cols = a.shape
    r = as_int(r, "rank", InvalidRankError)
    if r < 1 or r > min(rows, cols):
        raise InvalidRankError(f"rank {r} invalid for shape {a.shape}")
    u, sigma, v = _svd(a.reshape(-1, rows, cols), r)
    return SvdTriple(
        u=u.reshape(*batch, rows, r),
        sigma=sigma.reshape(*batch, r),
        v=v.reshape(*batch, cols, r),
    )


def top_singular_pair(m):
    """Leading singular triple ``(sigma, u, v)`` of each matrix of a stack.

    An input of shape (..., m, n) is solved in one batched call and gives
    sigma (...), u (..., m) and v (..., n); each entry is bit-identical to
    the call on that matrix alone (a 2-D input gives a 0-d sigma).  The
    sign convention makes the first significant entry of u positive (of v
    when n > m), so results are reproducible across runs.  A zero matrix yields sigma 0 with u and v
    the first canonical basis vectors.  This is ``truncated_svd(m, 1)``
    with the rank axis dropped.
    """
    t = truncated_svd(m, 1)
    return t.sigma[..., 0], t.u[..., 0], t.v[..., 0]
