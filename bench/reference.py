"""Independent reference for the quantized layer pipeline.

Re-implements, from the package's documented behaviour, everything between
a float weight and the end-to-end MSE, taking a different numerical route
wherever one exists:

* step sizes are Brent roots (scipy ``brentq``) of the per-cell
  stationarity condition written with ``scipy.special.ndtr`` cell masses,
  where the package bisects a summed-by-parts stdlib form;
* branch fits use LAPACK ``np.linalg.svd`` (batched over GMB blocks), where
  the package runs a one-sided Jacobi SVD;
* products use BLAS ``@``, where the package uses fixed-order ``einsum``.

``treeq`` is used only to generate the inputs (weights and calibration
inputs); the dense outputs the MSE is measured against are recomputed here.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

LEAKY_SLOPE = 0.1
PASSTHROUGH_BITS = 32
QUANT_BITS = (2, 3, 4, 5, 6, 7, 8)
CONST_ROW_RTOL = 1e-12


def hadamard(n: int) -> np.ndarray:
    """Sylvester Hadamard matrix of order n, scaled to be orthogonal."""
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.vstack([np.hstack([h, h]), np.hstack([h, -h])])
    return h / np.sqrt(n)


def _phi(x):
    x = np.asarray(x, dtype=np.float64)
    finite = np.where(np.isinf(x), 0.0, x)
    return np.where(np.isinf(x), 0.0, np.exp(-0.5 * finite * finite)) / np.sqrt(2.0 * np.pi)


def stationarity(delta: float, bits: int) -> float:
    """-1/2 dMSE/d(delta) of the clamped uniform quantizer on N(0, 1).

    Cell l covers [(l - 1/2) delta, (l + 1/2) delta], the two end cells run
    to +-inf, and g = sum_l l * [phi(a_l) - phi(b_l) - l delta P(cell l)].
    Cell masses come from the tail on the cell's side of zero.
    """
    levels = np.arange(-(1 << (bits - 1)), 1 << (bits - 1), dtype=np.float64)
    lo = (levels - 0.5) * delta
    hi = (levels + 0.5) * delta
    lo[0] = -np.inf
    hi[-1] = np.inf
    mass = np.where(levels > 0, ndtr(-lo) - ndtr(-hi), ndtr(hi) - ndtr(lo))
    return float(np.sum(levels * (_phi(lo) - _phi(hi) - levels * delta * mass)))


def delta_table() -> dict:
    """Optimal step per bit-width: the stationarity root on [1e-4, 4]."""
    return {
        b: brentq(stationarity, 1e-4, 4.0, args=(b,), xtol=1e-300,
                  rtol=4.0 * np.finfo(np.float64).eps, maxiter=200)
        for b in QUANT_BITS
    }


def grid_quantize(y, bits: int, delta: float):
    """delta * clamp(round_half_away(y / delta)) on the two's-complement grid."""
    t = y / delta
    q = np.sign(t) * np.floor(np.abs(t) + 0.5)
    return np.clip(q, -(1 << (bits - 1)), (1 << (bits - 1)) - 1) * delta


def quantize_rows(w, bits: int, delta: float):
    """Per-row scales: population std, or |row| for rows constant to 1e-12."""
    sigma = w.std(axis=1)
    peak = np.abs(w).max(axis=1)
    scale = np.where(sigma <= CONST_ROW_RTOL * peak, peak, sigma)
    safe = np.where(scale == 0.0, 1.0, scale)[:, None]
    out = safe * grid_quantize(w / safe, bits, delta)
    out[scale == 0.0] = 0.0
    return out


def quantize_tokens(y, bits: int, delta: float):
    """Per-token scales: RMS of each row; zero rows stay zero."""
    rms = np.sqrt((y * y).mean(axis=1))
    safe = np.where(rms == 0.0, 1.0, rms)[:, None]
    out = safe * grid_quantize(y / safe, bits, delta)
    out[rms == 0.0] = 0.0
    return out


def lrb(m, r: int):
    """Best rank-r approximation of m (zero matrix for r = 0)."""
    if r == 0:
        return np.zeros_like(m)
    u, s, vt = np.linalg.svd(m)
    return (u[:, :r] * s[:r]) @ vt[:r]


def gmb(m, grid: int):
    """Top singular triple of every block of a grid x grid partition of m."""
    rows, cols = m.shape
    bo, bi = rows // grid, cols // grid
    blocks = m.reshape(grid, bo, grid, bi).transpose(0, 2, 1, 3)
    u, s, vt = np.linalg.svd(blocks)
    rank1 = s[..., 0, None, None] * u[..., :, 0, None] * vt[..., 0, None, :]
    return rank1.transpose(0, 2, 1, 3).reshape(rows, cols)


def branch_ranks(n: int, setting: dict) -> tuple[int, int]:
    """LRB rank and GMB grid after the per-layer rank-scaling rule."""
    r_l, r_g = setting["r_lrb"], setting["r_gmb"]
    if setting["scale_ranks"]:
        r_l = min(r_l, max(1, n // 4)) if r_l > 0 else 0
        r_g = min(r_g, max(1, n // 16)) if r_g > 0 else 0
    else:
        r_l = min(r_l, n)
    if not setting["use_gmb"]:
        r_g = 0
    return r_l, r_g


DEFAULT_SETTING = {
    "r_lrb": 16, "r_gmb": 4, "use_gmb": True, "scale_ranks": True,
    "order": "lrb_first", "placement": "post",
}


class ReferenceModel:
    """A chain of dense layers with branch fits done once per setting."""

    def __init__(self, weights, setting: dict | None = None, deltas: dict | None = None):
        self.setting = dict(DEFAULT_SETTING, **(setting or {}))
        self.deltas = deltas if deltas is not None else delta_table()
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.layers = [self._fit(w) for w in self.weights]
        self._residuals = {}

    def _fit(self, w):
        """(H, post-rotation branch, pre-rotation branch, residual) of one weight."""
        n_out, n_in = w.shape
        h = hadamard(n_in)
        w_h = w @ h
        r_l, r_g = branch_ranks(min(n_out, n_in), self.setting)
        pre = None
        if r_g == 0:
            post = lrb(w_h, r_l)
        elif self.setting["placement"] == "pre":
            pre = gmb(w, r_g)
            shadow = pre @ h
            post = lrb(w_h - shadow, r_l)
            return h, post, pre, w_h - shadow - post
        elif self.setting["order"] == "lrb_first":
            low = lrb(w_h, r_l)
            post = low + gmb(w_h - low, r_g)
        else:
            block = gmb(w_h, r_g)
            post = block + lrb(w_h - block, r_l)
        return h, post, pre, w_h - post

    def _residual(self, i: int, bits: int):
        key = (i, bits)
        if key not in self._residuals:
            self._residuals[key] = quantize_rows(self.layers[i][3], bits, self.deltas[bits])
        return self._residuals[key]

    def forward(self, alloc: dict, xs):
        """Chain output for one input per row; 32-bit layers run dense."""
        for i, w in enumerate(self.weights):
            bits = alloc[i]
            if bits == PASSTHROUGH_BITS:
                xs = xs @ w.T
            else:
                h, post, pre, _ = self.layers[i]
                rotated = xs @ h
                out = quantize_tokens(rotated, bits, self.deltas[bits]) @ self._residual(i, bits).T
                out = out + rotated @ post.T
                if pre is not None:
                    out = out + xs @ pre.T
                xs = out
            if i < len(self.weights) - 1:
                xs = np.where(xs > 0.0, xs, LEAKY_SLOPE * xs)
        return xs

    def mse(self, alloc: dict, inputs) -> float:
        """Mean squared deviation from the dense chain, over all outputs."""
        inputs = np.asarray(inputs, dtype=np.float64)
        dense = self.forward({i: PASSTHROUGH_BITS for i in range(len(self.weights))}, inputs)
        diff = self.forward(alloc, inputs) - dense
        return float(np.mean(diff * diff))


def mean_bits(alloc: dict, dims) -> float:
    """FLOPs-weighted mean bit-width, layer i weighing 2 * d_in * d_out."""
    flops = [2 * dims[i] * dims[i + 1] for i in range(len(dims) - 1)]
    return sum(f * alloc[i] for i, f in enumerate(flops)) / sum(flops)
