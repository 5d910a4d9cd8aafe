"""Symmetric uniform quantizers and Gaussian-optimal step sizes.

The integer grid for b bits is the two's-complement range
[-2^(b-1), 2^(b-1) - 1].  Step sizes are calibrated once per bit-width to
minimize the expected squared error of a standard normal input.  The MSE is
flat to rounding at its minimum, so ``calibrate_delta`` solves the
stationarity condition dMSE/ddelta = 0 instead, which is well conditioned.
The calibrated steps lie within about 1e-13 (relative) of the exact optimum
whichever libm or SIMD math library the build uses, and are bit-identical
from run to run on one build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import InvalidBitsError, InvalidDimensionError
from .linalg import as_matrix

QUANT_BITS = (2, 3, 4, 5, 6, 7, 8)
_DELTA_BRACKET = (1e-4, 4.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_CONST_ROW_RTOL = 1e-12


def check_bits(bits) -> None:
    """InvalidBitsError unless ``bits`` is one of QUANT_BITS."""
    if bits not in QUANT_BITS:
        raise InvalidBitsError(f"bits must be one of {QUANT_BITS}, got {bits}")


def _grid(t, bits: int, out=None):
    """Round ``t`` onto the ``bits``-bit integers in place, and return it,
    or write the result into ``out`` (a float32 array of t's shape) instead.

    Halves round away from zero (unlike banker's rounding), as
    trunc(t + copysign(1/2, t)); a zero, or anything that rounds to zero,
    keeps its sign.  The clamp is the two's-complement range
    [-2^(bits-1), 2^(bits-1) - 1], whose integers float32 holds exactly.
    """
    t += np.copysign(0.5, t)
    np.trunc(t, out=t)
    np.maximum(t, -(1 << (bits - 1)), out=t)
    return np.minimum(t, (1 << (bits - 1)) - 1, out=t if out is None else out)


def _stationarity(delta: float, bits: int) -> float:
    """g(delta) = -1/2 dMSE/ddelta for x ~ N(0,1); zero at the optimal step.

    Differentiating the per-cell MSE, the boundary terms cancel and leave

        g = sum_l l * [phi(a_l) - phi(b_l) - l*delta*(Phi(b_l) - Phi(a_l))]

    over the cells [a_l, b_l] = [(l - 1/2) delta, (l + 1/2) delta], with the
    two clamp cells open to +-inf.  Summing by parts on each half-line gives
    the form evaluated here,

        g = sum_{j=1..n} w_j * [phi(t_j) - (2j - 1) * delta * Q(t_j)],

    with t_j = (j - 1/2) delta, n = 2^(b-1), Q the upper normal tail, and
    w_j = 2 except w_n = 1 (only the negative side has an n-th level).
    Every term is O(1), the tails come from ``erfc`` away from zero, and
    ``fsum`` adds the terms exactly, so each term carries only a few
    roundings and no cancellation is amplified.
    """
    n = 1 << (bits - 1)
    terms = []
    for j in range(1, n + 1):
        t = (j - 0.5) * delta
        w = 2.0 if j < n else 1.0
        terms.append(w * _INV_SQRT_2PI * math.exp(-0.5 * t * t))
        terms.append(-w * (2 * j - 1) * delta * 0.5 * math.erfc(t * _INV_SQRT_2))
    return math.fsum(terms)


def calibrate_delta(bits: int) -> float:
    """Optimal step size for a standard normal input at the given bit-width.

    Bisects the stationarity condition ``_stationarity(delta) = 0`` on
    [1e-4, 4], which brackets the root for every supported width (g > 0
    below the optimum, g < 0 above it), until the midpoint equals an
    endpoint.  Only stdlib ``math`` is used.  The result is within about
    1e-13 (relative) of the exact optimum across libm and SIMD builds, and
    bit-identical from call to call on one build.
    """
    check_bits(bits)
    lo, hi = _DELTA_BRACKET
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _stationarity(mid, bits) > 0.0:
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=1)
def default_delta_table() -> Mapping[int, float]:
    """The calibrated step of every width of QUANT_BITS, computed once: a
    read-only mapping from bits to delta."""
    return MappingProxyType({b: calibrate_delta(b) for b in QUANT_BITS})


def token_rms(y):
    """The sigma step of activation quantization: ``(y / sigma, sigma)``,
    with sigma the RMS of each row of the float64 matrix ``y`` (1 for a zero
    row).  It does not depend on bits."""
    # np.mean's own sum and division, without its Python-level wrapper
    sigma = np.sqrt(np.add.reduce(y * y, axis=1) / y.shape[1])
    safe = np.where(sigma == 0.0, 1.0, sigma)
    return y / safe[:, None], safe


def round_tokens(unit, sigma, bits: int, delta: float):
    """The rounding step of activation quantization, on ``token_rms``'s
    output: ``(grid, step)``, the float32 grid clamp(round(unit / delta)) at
    ``bits`` and the per-token step sigma * delta.  ``unit`` is not changed."""
    t = unit / delta
    return _grid(t, bits, np.empty(t.shape, np.float32)), sigma * delta


def quantize_rotated_batch(y, bits: int, delta: float):
    """Per-token dynamic quantization of already-rotated activations.

    ``y`` has one token per row, ``bits`` one of QUANT_BITS
    (InvalidBitsError otherwise) and ``delta`` the grid step.  ``y`` must
    be a float64 matrix (InvalidDimensionError if it is not 2-D); its
    entries are not checked, and a non-finite one gives a non-finite row.
    Returns ``(grid, step)``: the integer grid clamp(round(y / sigma /
    delta)) as float32, and the per-token step sigma * delta, with sigma the
    row's RMS (1 for a zero row, whose grid is zero).  The quantized
    activation is ``grid * step[:, None]``; the integer forward never forms
    it.  This is ``token_rms`` then ``round_tokens``: the quantized layer
    forward keeps the first, which no bit-width enters, once per input.
    """
    if np.ndim(y) != 2:
        raise InvalidDimensionError(f"expected a 2-D matrix, got ndim={np.ndim(y)}")
    check_bits(bits)
    return round_tokens(*token_rms(y), bits, delta)


@dataclass(frozen=True)
class WeightGrid:
    """A weight quantized row by row: an integer grid plus one scale per row.

    Entry (c, j) stands for ``scale[c] * (q[c, j] * delta)``.  ``q`` is int8,
    which holds every grid from 2 to 8 bits.
    """

    q: np.ndarray
    scale: np.ndarray
    delta: float
    bits: int

    @cached_property
    def step(self) -> np.ndarray:
        """Per-row step scale * delta, which multiplies the grid product."""
        return self.scale * self.delta


def quantize_weight_channelwise(w) -> dict:
    """Quantize a weight matrix row by row at every width of QUANT_BITS.

    Returns one ``WeightGrid`` per width, keyed by bits, each at the
    calibrated step of its width (``default_delta_table``).  Each output
    row c uses sigma_c = population std of that row; rows that are
    constant to within relative tolerance 1e-12 fall back to the absolute
    row value as the scale, and zero rows get scale 1 and a zero grid.
    The row scales and w / scale are computed once, and every width's grid
    divides that array by its step, so the seven grids share one ``scale``
    array.
    """
    w = as_matrix(w)
    peak = np.max(np.abs(w), axis=1)
    # each row's std at a power-of-two scale of its peak, so the squares
    # neither overflow nor underflow; exact wherever unscaled ones do neither
    exponent = np.frexp(peak)[1]
    sigma = np.ldexp(np.std(np.ldexp(w, -exponent[:, None]), axis=1), exponent)
    constant = sigma <= _CONST_ROW_RTOL * peak
    scale = np.where(constant, peak, sigma)
    safe = np.where(scale == 0.0, 1.0, scale)
    unit = w / safe[:, None]
    return {
        bits: WeightGrid(q=_grid(unit / delta, bits).astype(np.int8), scale=safe, delta=delta,
                         bits=bits)
        for bits, delta in default_delta_table().items()
    }
