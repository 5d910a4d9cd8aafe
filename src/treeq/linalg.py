"""Deterministic dense linear algebra: Hadamard transforms and truncated SVD.

Every routine here is a pure function of its input: on one build (numpy
version and CPU) it returns the same bits on every run.  Products and
reductions go through ``np.einsum``, which fixes the accumulation order and
calls no BLAS, so a BLAS thread setting never enters.  The package's one
BLAS product is the quantized layer's residual product
(``branches.residual_product``): it multiplies two integer grids whose
row sums stay below 2^24 in magnitude, so float64 holds every partial sum
exactly and the result is the same in any accumulation order.  The SVD is one-sided
Jacobi in Brent-Luk round-robin order (Brent & Luk, SIAM J. Sci. Stat.
Comput. 1985): it needs no start vector, visits column pairs in a fixed
order, and solves a whole stack of matrices at once, each bit-identical to
solving it alone.

The Jacobi rotates only the columns of A @ V and does not accumulate V (de
Rijk, SIAM J. Sci. Stat. Comput. 1989).  Sigma and the Jacobi's left
vectors (u, or v for a wide matrix) are exactly the bits a Jacobi that
also rotated V would give.  The other side is recovered afterwards as
V_r = A^T U_r / sigma_r and re-orthonormalised in descending-sigma order;
it carries an error of about eps * sigma_1 / sigma_r, about 1e-14 on this
package's weights.  No routine here writes its input: the Jacobi rotates
its own copy, and ``hadamard`` hands out one shared read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, InvalidDimensionError, InvalidRankError

MAX_HADAMARD = 4096
JACOBI_SWEEP_CAP = 60
JACOBI_TOL = 1e-14

_hadamard_cache: dict[int, np.ndarray] = {}


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array or raise InvalidDimensionError."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidDimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidDimensionError("matrix contains non-finite entries")
    return m


def as_stack(m) -> np.ndarray:
    """Coerce ``m`` to a finite float64 array of shape (..., rows, cols), both >= 1."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2:
        raise InvalidDimensionError(f"expected a matrix or a stack, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidDimensionError("matrix contains non-finite entries")
    if a.shape[-2] < 1 or a.shape[-1] < 1:
        raise InvalidDimensionError("matrix must be at least 1 x 1")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed left-to-right accumulation order."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise InvalidDimensionError(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    return np.einsum("ij,jk->ik", a, b)


def hadamard(n: int) -> np.ndarray:
    """Normalized Sylvester Hadamard matrix of order ``n``.

    ``n`` must be a power of two, at most 4096.  Entries are +-1/sqrt(n) and
    the matrix is symmetric and orthogonal.  Results are cached and shared:
    every caller gets the same read-only array, so no layer holds a copy.
    """
    if not isinstance(n, (int, np.integer)) or n < 1 or (n & (n - 1)) != 0:
        raise InvalidDimensionError(f"Hadamard order must be a power of two, got {n}")
    if n > MAX_HADAMARD:
        raise InvalidDimensionError(f"Hadamard order {n} exceeds cap {MAX_HADAMARD}")
    cached = _hadamard_cache.get(n)
    if cached is None:
        h = np.ones((1, 1))
        while h.shape[0] < n:
            h = np.block([[h, h], [h, -h]])
        cached = h / np.sqrt(n)
        cached.setflags(write=False)
        _hadamard_cache[n] = cached
    return cached


@dataclass(frozen=True)
class SvdTriple:
    """Rank-r factorization: u (m x r), sigma (r,) non-increasing, v (n x r).

    From a stack every field carries the stack's leading axes.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """Brent-Luk round-robin schedule: one sweep over all column pairs of n.

    Returns n-1 rounds (n even) of n/2 disjoint pairs (p, q), p < q, each
    round as one index array: the p's, then the q's in the same order.
    Index 0 stays put while the others rotate one place per round.  Odd n
    gets a dummy index n; its pairs are dropped, so each column sits out
    one round per sweep.
    """
    slots = n + n % 2
    pos = list(range(slots))
    rounds = []
    for _ in range(slots - 1):
        pairs = [
            (min(pos[k], pos[-1 - k]), max(pos[k], pos[-1 - k]))
            for k in range(slots // 2)
        ]
        pairs = [pq for pq in pairs if pq[1] < n]
        if pairs:
            pq = np.array([p for p, _ in pairs] + [q for _, q in pairs])
            pq.setflags(write=False)
            rounds.append(pq)
        pos = [pos[0], pos[-1]] + pos[1:-1]
    return tuple(rounds)


def _jacobi_columns(cols):
    """One-sided Jacobi on a (B, n, m) stack of column sets, n <= m.

    cols[k, j] is column j of problem k, an m x n matrix A_k.

    Each sweep runs the round-robin rounds; a round rotates its disjoint
    column pairs in all problems at once.  A pair is left alone when
    either column is zero or the pair is orthogonal to relative tolerance
    JACOBI_TOL.  A problem is done after a sweep that rotates nothing, and
    drops out of later sweeps, so each problem's result is bit-identical
    to solving it alone.

    Only the columns of A_k @ V_k are rotated; V_k itself is not
    accumulated (de Rijk, SIAM J. Sci. Stat. Comput. 1989).  The rotation
    works on its own copy, so ``cols`` is never written.  Returns b of the
    same shape: b[k, j] is column j of A_k @ V_k, and b[k]'s rows are
    mutually orthogonal.
    """
    count, n, m = cols.shape
    # the scatter below writes in place, so never into the caller's buffer
    w = cols.copy()
    todo = np.arange(count)
    for _ in range(JACOBI_SWEEP_CAP):
        sub = w[todo]
        worst = np.zeros(todo.size)
        for pq in _round_robin(n):
            h = pq.size // 2
            pair = sub[:, pq]
            norms = np.einsum("bki,bki->bk", pair, pair)
            alpha, beta = norms[:, :h], norms[:, h:]
            gamma = np.einsum("bki,bki->bk", pair[:, :h], pair[:, h:])
            live = (alpha != 0.0) & (beta != 0.0)
            rel = np.abs(gamma) / np.sqrt(np.where(live, alpha * beta, 1.0))
            rel = np.where(live, rel, 0.0)
            np.maximum(worst, rel.max(axis=1), out=worst)
            turn = rel > JACOBI_TOL
            if not turn.any():
                continue
            zeta = (beta - alpha) / (2.0 * np.where(turn, gamma, 1.0))
            t = np.where(
                zeta == 0.0,
                1.0,
                np.sign(zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta)),
            )
            c = (1.0 / np.sqrt(1.0 + t * t))[..., None]
            s = c * t[..., None]
            wp, wq = pair[:, :h], pair[:, h:]
            turned = np.empty_like(pair)
            np.subtract(c * wp, s * wq, out=turned[:, :h])
            np.add(s * wp, c * wq, out=turned[:, h:])
            if not turn.all():
                turn = np.concatenate([turn, turn], axis=1)[..., None]
                turned = np.where(turn, turned, pair)
            sub[:, pq] = turned
        w[todo] = sub
        busy = worst > JACOBI_TOL
        if not busy.any():
            return w
        todo = todo[busy]
    raise ConvergenceError(
        f"Jacobi SVD did not converge in {JACOBI_SWEEP_CAP} sweeps",
        residual=float(worst.max()),
    )


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


def _fix_sign(u):
    """Flip rows so the first entry of each u row with |u_i| > 1e-12 is positive."""
    big = np.abs(u) > 1e-12
    lead = np.take_along_axis(u, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    sign = np.where(big.any(axis=-1) & (lead < 0.0), -1.0, 1.0)[..., None]
    return u * sign


def _right_vectors(cols, u, sigma):
    """Right singular vectors V_r = A^T U_r / sigma_r as a (B, r, n) row stack.

    ``cols`` is the (B, n, m) column stack of the problems and ``u`` their
    left vectors as (B, r, m) rows.  Recovered this way, v_j is off by
    about eps * sigma_1 / sigma_j, so the rows are re-orthonormalised in
    descending-sigma order: classical Gram-Schmidt against the rows before,
    applied twice.  A row with no direction of its own (sigma 0, or
    nothing left after the projection) gets a canonical unit instead.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.einsum("bpi,bji->bjp", cols, u) / sigma[..., None]
    v[(sigma == 0.0) | ~np.isfinite(v).all(axis=-1)] = 0.0
    for j in range(v.shape[1]):
        w = v[:, j]
        before = np.sqrt(np.einsum("bp,bp->b", w, w))
        if j:
            prev = v[:, :j]
            for _ in range(2):
                w = w - np.einsum("bkp,bk->bp", prev, np.einsum("bkp,bp->bk", prev, w))
        nrm = np.sqrt(np.einsum("bp,bp->b", w, w))
        lost = ~(nrm > 1e-6 * before)
        v[:, j] = w / np.where(lost, 1.0, nrm)[:, None]
        for k in np.nonzero(lost)[0]:
            v[k, j] = _canonical_unit(v[k, :j])
    return v


def _svd(a, r: int):
    """Top-r SVD of each matrix of a (B, m, n) stack, sorted by descending sigma.

    Returns u (B, m, r), sigma (B, r) and v (B, n, r), all C-contiguous,
    and never writes ``a``.  The Jacobi runs on the tall form of each
    problem (a[k], or a[k]^T for a wide stack) and gives sigma and that
    form's left vectors; exact sigma ties keep column order, and a zero
    sigma gets a canonical unit orthogonal to the vectors before it.  Signs
    follow ``_fix_sign`` on those left vectors, which are v for a wide
    stack.  The other side is recovered by ``_right_vectors``.
    """
    transposed = a.shape[2] > a.shape[1]
    # cols[k, j] is column j of the tall form; for a C-contiguous wide
    # stack this is ``a``'s own buffer, read here and copied by the Jacobi
    cols = np.ascontiguousarray(a if transposed else np.swapaxes(a, 1, 2))
    b = _jacobi_columns(cols)
    norms = np.sqrt(np.einsum("bji,bji->bj", b, b))
    order = np.argsort(-norms, axis=1, kind="stable")[:, :r]
    sigma = np.take_along_axis(norms, order, axis=1)
    b = np.take_along_axis(b, order[..., None], axis=1)
    with np.errstate(invalid="ignore"):
        u = b / sigma[..., None]
    for k, j in zip(*np.nonzero(sigma == 0.0)):
        u[k, j] = _canonical_unit(u[k, :j])
    u = _fix_sign(u)
    v = _right_vectors(cols, u, sigma)
    if transposed:
        u, v = v, u
    return (
        np.ascontiguousarray(np.swapaxes(u, 1, 2)),
        sigma,
        np.ascontiguousarray(np.swapaxes(v, 1, 2)),
    )


def truncated_svd(m, r: int) -> SvdTriple:
    """Best rank-``r`` factorization of a matrix or of each matrix of a stack.

    A 2-D input gives u (m, r), sigma (r,) and v (n, r); an input of shape
    (..., m, n) is solved in one batched Jacobi call and gives u (..., m,
    r), sigma (..., r) and v (..., n, r), each entry bit-identical to the
    2-D call on that matrix.  Deterministic: fixed rotation order, no
    random starts; exact singular-value ties keep column order.
    """
    a = as_stack(m)
    *batch, rows, cols = a.shape
    if not isinstance(r, (int, np.integer)) or r < 1 or r > min(rows, cols):
        raise InvalidRankError(f"rank {r} invalid for shape {a.shape}")
    u, sigma, v = _svd(a.reshape(-1, rows, cols), int(r))
    return SvdTriple(
        u=u.reshape(*batch, rows, r),
        sigma=sigma.reshape(*batch, r),
        v=v.reshape(*batch, cols, r),
    )


def top_singular_pair(m):
    """Leading singular triple ``(sigma, u, v)`` of a matrix or a stack of them.

    A 2-D input gives a float sigma and vectors u (m,), v (n,).  An input
    of shape (..., m, n) is solved in one batched Jacobi call and gives
    sigma (...), u (..., m) and v (..., n); each entry is bit-identical to
    the 2-D call on that matrix.  The sign convention makes the first
    significant entry of u positive (of v when n > m), so results are
    reproducible across runs.  A zero matrix yields sigma 0 with u and v
    the first canonical basis vectors.  This is ``truncated_svd(m, 1)``
    with the rank axis dropped.
    """
    t = truncated_svd(m, 1)
    if t.sigma.ndim == 1:
        return float(t.sigma[0]), t.u[:, 0], t.v[:, 0]
    return t.sigma[..., 0], t.u[..., 0], t.v[..., 0]
