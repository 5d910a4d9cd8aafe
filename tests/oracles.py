"""Independent reference implementations used only by the tests.

Everything here deliberately takes a different route from the package code:
closed-form normal integrals (with a cell-aligned Gauss-Legendre
quadrature as a second route to the same MSE), per-cell scipy ``ndtr``
sums and Brent's method instead of the summed-by-parts stdlib bisection,
exhaustive grids as a second check on the optimal step, O(n^2) dominance
filtering instead of the sorted sweep, full enumeration instead of tree
search, LAPACK's SVD instead of the package's multisection and inverse
iteration, and that multisection and inverse iteration again one Python
float at a time, to hold the batched loops to their scalar arithmetic.
scipy is a test-only dependency.
"""

import itertools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

from treeq.toymodel import end_to_end_mse, mean_bitwidth

QUAD_TAIL = 8.0
QUAD_MIN_NODES = 2048


def round_half_away(y):
    """Nearest integer, halves away from zero: sign(y) * floor(|y| + 1/2)."""
    return np.sign(y) * np.floor(np.abs(y) + 0.5)


def _phi(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.where(np.isinf(x), 0.0, np.exp(-0.5 * np.minimum(np.abs(x), 40.0) ** 2))
    return out / np.sqrt(2.0 * np.pi)


def _x_phi(x):
    # x * phi(x) with the limit 0 at +-inf made explicit.
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.isinf(x), 0.0, x) * _phi(x)


def gaussian_quant_mse(delta, bits):
    """Exact E[(x - Q(x))^2], x ~ N(0,1), for the symmetric uniform quantizer.

    Sums the closed-form integral of (x - l*delta)^2 * phi(x) over each
    quantizer cell.  Cell l covers [(l-0.5)d, (l+0.5)d], with the outermost
    cells extended to +-inf by the clamp.  Vectorized over ``delta``.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    qmin = -(1 << (bits - 1))
    qmax = (1 << (bits - 1)) - 1
    levels = np.arange(qmin, qmax + 1, dtype=np.float64)[:, None]
    centers = levels * delta[None, :]
    lo = (levels - 0.5) * delta[None, :]
    hi = (levels + 0.5) * delta[None, :]
    lo[0, :] = -np.inf
    hi[-1, :] = np.inf
    mass = ndtr(hi) - ndtr(lo)
    # int (x-c)^2 phi = (1+c^2) mass + [a phi(a) - b phi(b)] - 2c [phi(a) - phi(b)]
    cell = (
        (1.0 + centers**2) * mass
        + (_x_phi(lo) - _x_phi(hi))
        - 2.0 * centers * (_phi(lo) - _phi(hi))
    )
    total = np.sum(cell, axis=0)
    return total if total.shape[0] > 1 else float(total[0])


def mse_quadrature(delta: float, bits: int) -> float:
    """E[(x - Q(x))^2] for x ~ N(0,1), by composite Gauss-Legendre on [-8, 8].

    The integrand has kinks where the quantizer switches cells, at
    (l + 1/2) * delta for integer l.  Panels are aligned to those cell
    boundaries (then subdivided until there are at least QUAD_MIN_NODES
    nodes total), so each panel integrates a smooth function and the MSE
    is a smooth function of delta.  A fixed uniform panel grid would
    instead produce spurious kinks as boundaries drift across panel edges.
    The package calibrates by solving ``quantizer._stationarity`` instead,
    so this route serves only as a second check on the closed form.
    """
    qmin = -(1 << (bits - 1))
    qmax = (1 << (bits - 1)) - 1
    bounds = (np.arange(qmin, qmax, dtype=np.float64) + 0.5) * delta
    edges = np.unique(
        np.concatenate(
            [[-QUAD_TAIL], bounds[(bounds > -QUAD_TAIL) & (bounds < QUAD_TAIL)], [QUAD_TAIL]]
        )
    )
    order = 8
    panels = edges.shape[0] - 1
    # subdivide every panel evenly until order * total panels >= QUAD_MIN_NODES
    per = int(np.ceil(QUAD_MIN_NODES / (order * panels)))
    if per > 1:
        pieces = [
            np.linspace(edges[i], edges[i + 1], per + 1)[:-1] for i in range(panels)
        ]
        edges = np.concatenate(pieces + [[QUAD_TAIL]])
    nodes, weights = np.polynomial.legendre.leggauss(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * nodes[None, :]
    q = np.clip(round_half_away(x / delta), qmin, qmax) * delta
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    vals = (x - q) ** 2 * pdf
    return float(np.sum(vals * weights[None, :] * half))


def grid_optimal_delta(bits, step=1e-4, hi=4.0):
    """Exhaustive argmin of the closed-form MSE over a uniform delta grid."""
    deltas = np.arange(1, int(round(hi / step)) + 1, dtype=np.float64) * step
    mses = gaussian_quant_mse(deltas, bits)
    i = int(np.argmin(mses))
    return float(deltas[i]), float(mses[i])


def gaussian_quant_stationarity(delta, bits):
    """-1/2 dMSE/ddelta of ``gaussian_quant_mse``, cell by cell.

    The boundary terms of the derivative cancel, leaving
    sum_l l * [phi(a_l) - phi(b_l) - l*delta*(Phi(b_l) - Phi(a_l))].  Cell
    masses are taken from the tail on the cell's own side of zero so the
    outer cells keep full relative accuracy.
    """
    qmin = -(1 << (bits - 1))
    qmax = (1 << (bits - 1)) - 1
    levels = np.arange(qmin, qmax + 1, dtype=np.float64)
    lo = (levels - 0.5) * delta
    hi = (levels + 0.5) * delta
    lo[0] = -np.inf
    hi[-1] = np.inf
    mass = np.where(levels > 0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    terms = levels * (_phi(lo) - _phi(hi) - levels * delta * mass)
    return float(np.sum(terms))


def stationary_delta(bits):
    """Root of ``gaussian_quant_stationarity`` on [1e-4, 4] by Brent's method."""
    return brentq(
        gaussian_quant_stationarity,
        1e-4,
        4.0,
        args=(bits,),
        xtol=1e-300,
        rtol=4.0 * np.finfo(np.float64).eps,
        maxiter=200,
    )


def dominates(a, b) -> bool:
    """True iff a is at least as good on both axes and better on one."""
    if a.indicator > b.indicator or a.mean_bits > b.mean_bits:
        return False
    return a.indicator < b.indicator or a.mean_bits < b.mean_bits


def frontier_oracle(entries):
    """Quadratic-time Pareto filter over (mean_bits, indicator) pairs.

    ``entries`` is a sequence of objects with .mean_bits and .indicator.
    Keeps exactly the points no other point dominates; among exact duplicate
    coordinate pairs only the earliest survives.  Returns entries sorted by
    (mean_bits, indicator) ascending, matching the package's frontier order.
    """
    kept = []
    for i, e in enumerate(entries):
        dominated = False
        for j, o in enumerate(entries):
            if j == i:
                continue
            duplicate = (
                o.mean_bits == e.mean_bits and o.indicator == e.indicator and j < i
            )
            if dominates(o, e) or duplicate:
                dominated = True
                break
        if not dominated:
            kept.append(e)
    kept.sort(key=lambda e: (e.mean_bits, e.indicator))
    return kept


class ScoredConfig:
    def __init__(self, config, indicator, mean_bits):
        self.config = config
        self.indicator = indicator
        self.mean_bits = mean_bits


def enumerate_all_configs(model, calib, ctx, candidates):
    """Evaluate every full-chain allocation over the candidate bit-widths."""
    out = []
    for combo in itertools.product(candidates, repeat=model.n_layers):
        alloc = {i: b for i, b in enumerate(combo)}
        out.append(
            ScoredConfig(
                alloc,
                end_to_end_mse(model, alloc, calib, ctx),
                mean_bitwidth(alloc, model),
            )
        )
    return out


def brute_force_selection(frontier, target):
    """Reference final pick: closest mean to target, then error, then mean."""
    return min(
        frontier,
        key=lambda e: (abs(e.mean_bits - target), e.indicator, e.mean_bits),
    )


def lapack_svd(m, r):
    """Top-r SVD (u, sigma, v) of one matrix from LAPACK via ``np.linalg.svd``.

    Each singular pair is flipped to treeq's sign convention: the first
    entry above 1e-12 in magnitude of u (of v for a wide matrix) is
    positive.  Meaningful only for singular values that are well separated.
    """
    u, sigma, vt = np.linalg.svd(np.asarray(m, dtype=np.float64), full_matrices=False)
    u, sigma, v = u[:, :r], sigma[:r], vt[:r].T
    lead = v if m.shape[1] > m.shape[0] else u
    for j in range(r):
        col = lead[:, j]
        if col[np.abs(col) > 1e-12][0] < 0:
            u[:, j], v[:, j] = -u[:, j], -v[:, j]
    return u, sigma, v


def _scalar_div(a, b):
    """a / b under IEEE-754, as numpy divides: no ZeroDivisionError on a zero divisor."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def sturm_sigmas(off, r, probes, passes, tiny):
    """Top r singular values of each bidiagonal, one probe and one float at a time.

    The same multisection as ``linalg._gk_sigmas``: ``probes`` evenly spaced
    probes per interval and pass, each counting the positive terms of
    p_0 = x, p_i = x - max(off_i^2, tiny) / p_{i-1}, over ``passes`` passes.
    """
    out = np.empty((off.shape[0], r))
    grid = [k / (probes + 1) for k in range(probes + 2)]
    for b, row in enumerate(off.tolist()):
        mag = [0.0] + [abs(v) for v in row] + [0.0]
        bound = max(mag[i] + mag[i + 1] for i in range(len(mag) - 1))
        squares = [max(v * v, tiny) for v in row]
        for j in range(r):
            lo, hi = 0.0, bound
            for _ in range(passes):
                width = hi - lo
                idx = 0
                for k in range(1, probes + 1):
                    x = lo + width * grid[k]
                    p, positive = x, 1
                    for sq in squares:
                        p = x - _scalar_div(sq, p)
                        positive += p >= 0.0
                    idx += positive <= len(row) - j
                lo, hi = lo + width * grid[idx], lo + width * grid[idx + 1]
            out[b, j] = lo + (hi - lo) / 2.0
    return out


def inverse_iteration(off, sigma, bound, start, solves, orthonormalize):
    """Eigenvectors of the Golub-Kahan tridiagonals, one value and one float at a time.

    The same shifted factorization with partial pivoting and the same
    solves as ``linalg._gk_vectors``; after each solve the whole stack goes
    through ``orthonormalize`` (the package's Gram-Schmidt), so only the
    factorization and the solves are restated here.
    """
    count, r = sigma.shape
    size = off.shape[1] + 1
    eps = np.finfo(np.float64).eps
    factors = {}
    for b, row in enumerate(off.tolist()):
        guard = eps * (float(bound[b]) if bound[b] > 0.0 else 1.0)
        for j in range(r):
            diag = -(float(sigma[b, j]) + (size // 2) * guard)
            steps = []
            piv, sup = diag, row[0]
            for i in range(size - 1):
                low, nxt = row[i], row[i + 1] if i + 2 < size else 0.0
                swap = abs(low) > abs(piv)
                lead = low if swap else piv
                u0 = guard if abs(lead) < guard else lead
                u1, u2 = (diag, nxt) if swap else (sup, 0.0)
                mult = (piv if swap else low) / u0
                piv = (sup if swap else diag) - mult * u1
                sup = (0.0 if swap else nxt) - mult * u2
                steps.append((swap, mult, u0, u1, u2))
            factors[b, j] = steps, guard if abs(piv) < guard else piv
    z = np.empty((count, r, size))
    z[...] = start
    for _ in range(solves):
        y = z.tolist()
        for (b, j), (steps, last) in factors.items():
            v = y[b][j]
            for i, (swap, mult, _, _, _) in enumerate(steps):
                if swap:
                    v[i], v[i + 1] = v[i + 1], v[i]
                v[i + 1] = v[i + 1] - mult * v[i]
            v[-1] = _scalar_div(v[-1], last)
            for i in range(size - 2, -1, -1):
                _, _, u0, u1, u2 = steps[i]
                rest = v[i] - u1 * v[i + 1]
                if i + 2 < size:
                    rest = rest - u2 * v[i + 2]
                v[i] = _scalar_div(rest, u0)
        z = orthonormalize(np.array(y))
    return z
