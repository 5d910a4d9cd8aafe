"""Quantizer and calibration tests.

The step-size calibration is validated against closed-form normal-integral
oracles (tests/oracles.py) that share no code with the package's routes.
"""

import json

import numpy as np
import pytest

from treeq import cli, quantizer
from treeq.errors import InvalidBitsError, InvalidDimensionError
from treeq.linalg import hadamard
from treeq.quantizer import (
    QUANT_BITS,
    calibrate_delta,
    default_delta_table,
    quantize_rotated_batch,
    quantize_weight_channelwise,
    round_tokens,
    token_rms,
)

from conftest import dense
from oracles import (
    gaussian_quant_mse,
    grid_optimal_delta,
    mse_quadrature,
    stationary_delta,
)
from oracles import round_half_away as oracle_round_half_away


def grid_of(vals, bits=8):
    """The quantizer's rounding of ``vals`` onto the ``bits``-bit integers."""
    return quantizer._grid(np.array(vals, dtype=np.float64), bits)


class TestRounding:
    def test_halves_round_away_from_zero(self):
        vals = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5]
        assert np.array_equal(grid_of(vals), [1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
        ties = np.arange(-300, 300) + 0.5
        assert np.array_equal(grid_of(ties), np.clip(oracle_round_half_away(ties), -128, 127))

    def test_ordinary_rounding(self):
        assert np.array_equal(grid_of([0.49, 0.51, -1.2, 1.7]), [0.0, 1.0, -1.0, 2.0])

    def test_zero(self):
        # a zero, or anything that rounds to zero, keeps its sign
        out = grid_of([0.0, -0.0, 0.3, -0.3, -0.49])
        assert out.tolist() == [0.0] * 5
        assert np.signbit(out).tolist() == [False, True, False, True, True]

    def test_ties_through_the_token_quantizer(self):
        # rows of RMS exactly 1 under step 1 put every entry on a half step,
        # and a row of zeros keeps each zero's sign
        ties = np.array([0.5, -0.5, 0.5, -0.5, 0.5, 1.5, -1.5, 1.5])
        zeros = np.array([0.0, -0.0] * 4)
        grid, step = quantize_rotated_batch(np.vstack([ties, zeros]), 3, delta=1.0)
        assert step.tolist() == [1.0, 1.0]
        assert grid[0].tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, 2.0, -2.0, 2.0]
        assert np.signbit(grid[1]).tolist() == [False, True] * 4


class TestSpec:
    # a width is its bits alone: the clamp follows from them, and the
    # activation quantizer rejects any width outside QUANT_BITS

    def test_clamp_range(self):
        for bits, (lo, hi) in ((2, (-2, 1)), (3, (-4, 3)), (8, (-128, 127))):
            assert grid_of([-1e6, lo - 0.6, lo - 0.4, hi + 0.4, hi + 0.6, 1e6], bits).tolist() == [
                lo, lo, lo, hi, hi, hi
            ]

    def test_rejects_bad_bits(self):
        for bits in (1, 32):
            with pytest.raises(InvalidBitsError):
                quantize_rotated_batch(np.ones((1, 8)), bits, 1.0)

    @pytest.mark.parametrize("bits", [3.0, np.float64(3.0), True], ids=["3.0", "np.float64", "True"])
    def test_bits_must_be_an_integer(self, bits):
        # `in` takes 3.0 for 3 and True for 1; each would then fail in a
        # shift with TypeError, or quantize at a width no one asked for
        y = np.ones((1, 8))
        for call in (lambda: quantizer.check_bits(bits), lambda: calibrate_delta(bits),
                     lambda: quantize_rotated_batch(y, bits, 1.0)):
            with pytest.raises(InvalidBitsError, match="bits must be one of"):
                call()

    def test_numpy_integer_bits(self):
        quantizer.check_bits(np.int64(3))
        assert calibrate_delta(np.int64(3)) == calibrate_delta(3)


class TestUniform:
    # the uniform grid as the activation quantizer applies it, one token per row

    def test_grid_and_clamp(self):
        # binary fractions whose squares sum to the width, so the row's RMS
        # is exactly 1 and at step 1 the grid is clamp(round(y)) itself
        y = np.zeros((1, 64))
        y[0, :12] = [-5.0, -1.25, -0.375, 0.375, 0.5, 5.0, 3.0, 1.5, 0.75, 0.25, 0.125, 0.125]
        grid, step = quantize_rotated_batch(y, 2, 1.0)  # levels -2..1
        want = np.zeros((1, 64))
        want[0, :12] = [-2.0, -1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        assert step.tolist() == [1.0]
        assert np.array_equal(grid, want)

    def test_idempotent(self):
        # a grid row quantized at the step 1 / RMS(grid) is its own grid
        grid, _ = quantize_rotated_batch(np.linspace(-3, 3, 101)[None], 4, 0.3)
        again, _ = quantize_rotated_batch(grid, 4, 1.0 / np.sqrt(np.mean(grid * grid)))
        assert np.array_equal(again, grid)

    def test_error_bounded_inside_range(self):
        # every entry the clamp leaves alone lies within half a step of its level
        y = np.random.default_rng(17).standard_normal((8, 64))
        grid, step = quantize_rotated_batch(y, 5, 0.2)
        err = np.abs(y - grid * step[:, None]) / step[:, None]
        inside = (grid > -16) & (grid < 15)
        assert inside.sum() > 400
        assert np.max(err[inside]) <= 0.5 + 1e-12

    def test_preserves_shape(self):
        grid, step = quantize_rotated_batch(np.zeros((3, 8)), 3, 0.4)
        assert grid.shape == (3, 8) and step.shape == (3,)


class TestCalibration:
    @pytest.mark.parametrize("bits", [2, 3, 4, 5])
    def test_matches_grid_oracle(self, bits):
        d_grid, mse_grid = grid_optimal_delta(bits)
        d = calibrate_delta(bits)
        assert abs(d - d_grid) / d_grid < 1e-3
        assert abs(gaussian_quant_mse(d, bits) - mse_grid) < 1e-5

    @pytest.mark.parametrize("bits", QUANT_BITS)
    def test_matches_stationary_oracle(self, bits):
        # The exact optimum, found by an unrelated root finder on an
        # unrelated evaluation of dMSE/ddelta = 0.
        d = calibrate_delta(bits)
        assert type(d) is float
        assert d == pytest.approx(stationary_delta(bits), rel=1e-12)

    @pytest.mark.parametrize("bits", QUANT_BITS)
    def test_quadrature_agrees_with_closed_form(self, bits):
        # Same MSE surface by two unrelated integration routes.
        for delta in (0.05, 0.2, 0.7, 1.3):
            assert mse_quadrature(delta, bits) == pytest.approx(
                gaussian_quant_mse(delta, bits), abs=1e-9
            )

    def test_deltas_shrink_with_bits(self):
        ds = [calibrate_delta(b) for b in QUANT_BITS]
        assert all(a > b for a, b in zip(ds, ds[1:]))

    def test_mse_shrinks_with_bits(self):
        ms = [gaussian_quant_mse(calibrate_delta(b), b) for b in QUANT_BITS]
        assert all(a > b for a, b in zip(ms, ms[1:]))

    def test_repeatable(self):
        assert calibrate_delta(3) == calibrate_delta(3)

    def test_rejects_bad_bits(self):
        with pytest.raises(InvalidBitsError):
            calibrate_delta(9)


class TestDeltaTable:
    def test_default_table_covers_all_bits(self):
        t = default_delta_table()
        assert tuple(t) == QUANT_BITS
        for b in QUANT_BITS:
            assert t[b] == calibrate_delta(b) > 0
        with pytest.raises(TypeError):
            t[4] = 0.33  # read-only

    def test_missing_bits_raises(self):
        # no calibrated step for 9 bits, so no activation grid either
        assert 9 not in default_delta_table()
        with pytest.raises(InvalidBitsError):
            quantize_rotated_batch(np.ones((1, 8)), 9, 1.0)

    def test_json_keys_are_strings(self, tmp_path):
        # the table as ``treeq calibrate-delta`` writes it to delta.json
        assert cli.main(["calibrate-delta", "--out", str(tmp_path)]) == 0
        raw = json.loads((tmp_path / "delta.json").read_text())
        assert list(raw) == [str(b) for b in QUANT_BITS]
        assert [raw[str(b)] for b in QUANT_BITS] == list(default_delta_table().values())


def rotate(x, h):
    """Rotate tokens (one per row) exactly as the batched forward does."""
    return np.einsum("nj,ji->ni", x, h)


class TestActivation:
    # single tokens go through the batch quantizer as one-row batches

    def test_quantized_output_on_grid(self):
        h = hadamard(16)
        rng = np.random.default_rng(3)
        y = rotate(rng.standard_normal((1, 16)), h)
        grid, step = quantize_rotated_batch(y, 4, default_delta_table()[4])
        assert np.array_equal(grid, np.round(grid))
        assert grid.min() >= -8 and grid.max() <= 7
        assert step[0] == np.sqrt(np.mean(y * y)) * default_delta_table()[4]

    def test_zero_vector(self):
        grid, _ = quantize_rotated_batch(np.zeros((1, 8)), 3, default_delta_table()[3])
        assert np.array_equal(grid, np.zeros((1, 8)))

    def test_dimension_mismatch(self):
        # a bare vector is not a batch of tokens
        with pytest.raises(InvalidDimensionError):
            quantize_rotated_batch(np.ones(8), 4, default_delta_table()[4])

    def test_relative_error_vs_bits(self):
        # Averaged over many tokens the RMS error must drop as bits grow
        # (per-token MSE ratios are noisy; the mean over 32 tokens is not).
        h = hadamard(64)
        rng = np.random.default_rng(7)
        errs = {}
        for bits in (2, 4, 6, 8):
            tot = 0.0
            for t in range(32):
                y = rotate(rng.standard_normal((1, 64)), h)
                grid, step = quantize_rotated_batch(y, bits, default_delta_table()[bits])
                tot += float(np.mean((grid * step[:, None] - y) ** 2))
            errs[bits] = tot / 32
        assert errs[2] > errs[4] > errs[6] > errs[8]


def sign_floor_grid(t, bits):
    """Oracle grid: clamp(sign(t) * floor(|t| + 1/2)) to the ``bits``-bit integers."""
    return np.clip(oracle_round_half_away(t), -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)


class TestRotatedBatch:
    def test_rows_match_vector_path(self):
        # each token quantized alone, as a one-row batch, gives its batch row
        h = hadamard(32)
        rng = np.random.default_rng(5)
        y = rotate(rng.standard_normal((6, 32)), h)
        grid, step = quantize_rotated_batch(y, 3, default_delta_table()[3])
        for i in range(6):
            row_grid, row_step = quantize_rotated_batch(y[i : i + 1], 3, default_delta_table()[3])
            assert np.array_equal(grid[i], row_grid[0]) and step[i] == row_step[0]

    def test_zero_row_stays_zero(self):
        y = np.zeros((2, 8))
        y[1] = 1.0
        grid, _ = quantize_rotated_batch(y, 2, default_delta_table()[2])
        assert np.array_equal(grid[0], np.zeros(8))
        assert np.any(grid[1] != 0)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
    def test_grid_matches_sign_floor_rounding(self, bits):
        # ties at every half step, values past the clamp, and a zero row
        delta = default_delta_table()[bits]
        rng = np.random.default_rng(bits)
        y = np.vstack([
            rng.standard_normal((4, 64)) * 3.0,
            np.arange(-32, 32) + 0.5,
            np.zeros(64),
        ])
        grid, step = quantize_rotated_batch(y, bits, delta)
        sigma = np.sqrt(np.mean(y * y, axis=1))
        safe = np.where(sigma == 0.0, 1.0, sigma)
        assert np.array_equal(grid, sign_floor_grid(y / safe[:, None] / delta, bits))
        assert np.array_equal(step, safe * delta)

    def test_grid_is_float32_and_the_two_steps_compose(self):
        # the grid is written straight into float32, which holds every
        # level exactly; the sigma step alone leaves its input unchanged
        rng = np.random.default_rng(9)
        y = rng.standard_normal((5, 64)) * 4.0
        y[2] = 0.0
        unit, sigma = token_rms(y)
        kept = unit.copy()
        for bits in QUANT_BITS:
            delta = default_delta_table()[bits]
            grid, step = quantize_rotated_batch(y, bits, delta)
            assert grid.dtype == np.float32 and step.dtype == np.float64
            again, again_step = round_tokens(unit, sigma, bits, delta)
            assert again.tobytes() == grid.tobytes() and again_step.tobytes() == step.tobytes()
            assert np.array_equal(grid, sign_floor_grid(y / sigma[:, None] / delta, bits))
        assert unit.tobytes() == kept.tobytes()


class TestChannelwise:
    def test_output_on_per_row_grid(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 32)) * np.exp(rng.standard_normal((6, 1)))
        q = quantize_weight_channelwise(w)[3]
        assert q.q.dtype == np.int8 and q.bits == 3
        out = dense(q)
        sigma = np.std(w, axis=1)
        ints = out / (sigma[:, None] * default_delta_table()[3])
        assert np.allclose(ints, np.round(ints), atol=1e-9)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
    def test_dense_is_the_scaled_float_grid(self, bits):
        # the dense form is scale * (q * delta), as a float quantizer gives
        rng = np.random.default_rng(bits)
        w = rng.standard_normal((8, 64))
        w[3] = 0.0
        delta = default_delta_table()[bits]
        q = quantize_weight_channelwise(w)[bits]
        safe = np.where(np.std(w, axis=1) == 0.0, 1.0, np.std(w, axis=1))
        assert np.array_equal(q.scale, safe)
        ints = sign_floor_grid(w / safe[:, None] / delta, bits)
        assert np.array_equal(q.q, ints)
        assert np.array_equal(dense(q), safe[:, None] * (ints * delta))

    def test_error_shrinks_with_bits(self):
        # Wide rows so per-row sample MSE concentrates near its mean.
        rng = np.random.default_rng(13)
        w = rng.standard_normal((8, 4096))
        errs = [
            float(np.mean((dense(quantize_weight_channelwise(w)[b]) - w) ** 2))
            for b in (2, 3, 4, 5, 6)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_constant_row_within_clamp(self):
        # A constant row has zero std; the fallback scale must keep the
        # value representable rather than dividing by ~0.
        w = np.vstack([np.full(16, 2.5), np.random.default_rng(1).standard_normal(16)])
        out = dense(quantize_weight_channelwise(w)[4])
        assert np.max(np.abs(out[0] - 2.5)) <= 2.5  # no clamp blow-up
        assert np.isfinite(out).all()

    def test_zero_row(self):
        w = np.zeros((1, 8))
        assert np.array_equal(dense(quantize_weight_channelwise(w)[2]), w)

    def test_one_pass_gives_every_width(self):
        # one call quantizes at every width: the grids share one scale array
        # and each is the oracle's grid at its width, with a constant row
        # scaled by its value and a zero row by 1
        rng = np.random.default_rng(19)
        w = rng.standard_normal((6, 64)) * np.exp(rng.standard_normal((6, 1)))
        w[2] = -1.75
        w[4] = 0.0
        scale = np.std(w, axis=1)
        scale[2], scale[4] = 1.75, 1.0
        grids = quantize_weight_channelwise(w)
        assert tuple(grids) == QUANT_BITS
        for bits, g in grids.items():
            delta = default_delta_table()[bits]
            assert g.scale is grids[2].scale
            assert (g.bits, g.delta, g.q.dtype) == (bits, delta, np.int8)
            assert np.array_equal(g.scale, scale)
            assert np.array_equal(g.q, sign_floor_grid(w / scale[:, None] / delta, bits))
            assert np.all(g.q[4] == 0)

    def test_grids_are_column_major(self):
        # residual_product then multiplies by a row-major float32 copy of q.T
        grids = quantize_weight_channelwise(np.random.default_rng(20).standard_normal((24, 64)))
        for g in grids.values():
            assert g.q.T.flags.c_contiguous and not g.q.flags.c_contiguous
