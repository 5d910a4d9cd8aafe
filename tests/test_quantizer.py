"""Quantizer and calibration tests.

The step-size calibration is validated against closed-form normal-integral
oracles (tests/oracles.py) that share no code with the package's routes.
"""

import json

import numpy as np
import pytest

from treeq.errors import InvalidBitsError, InvalidDimensionError
from treeq.linalg import hadamard
from treeq.quantizer import (
    QUANT_BITS,
    DeltaTable,
    QuantizerSpec,
    calibrate_delta,
    default_delta_table,
    quantize_rotated_batch,
    quantize_uniform,
    quantize_weight_channelwise,
    round_half_away,
)

from oracles import gaussian_quant_mse, grid_optimal_delta, mse_quadrature, stationary_delta


class TestRounding:
    def test_halves_round_away_from_zero(self):
        vals = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        want = np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
        assert np.array_equal(round_half_away(vals), want)

    def test_ordinary_rounding(self):
        assert np.array_equal(
            round_half_away(np.array([0.49, 0.51, -1.2, 1.7])),
            np.array([0.0, 1.0, -1.0, 2.0]),
        )

    def test_zero(self):
        assert round_half_away(np.array([0.0, -0.0])).tolist() == [0.0, 0.0]


class TestSpec:
    def test_clamp_range(self):
        s = QuantizerSpec.create(3, 0.5)
        assert (s.qmin, s.qmax) == (-4, 3)
        s = QuantizerSpec.create(8, 0.1)
        assert (s.qmin, s.qmax) == (-128, 127)

    def test_rejects_bad_bits(self):
        with pytest.raises(InvalidBitsError):
            QuantizerSpec.create(1, 0.5)
        with pytest.raises(InvalidBitsError):
            QuantizerSpec.create(32, 0.5)

    def test_rejects_bad_delta(self):
        with pytest.raises(InvalidBitsError):
            QuantizerSpec.create(4, 0.0)
        with pytest.raises(InvalidBitsError):
            QuantizerSpec.create(4, float("nan"))


class TestUniform:
    def test_grid_and_clamp(self):
        s = QuantizerSpec.create(2, 1.0)  # levels -2..1
        x = np.array([-5.0, -1.2, -0.4, 0.4, 0.5, 5.0])
        want = np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 1.0])
        assert np.array_equal(quantize_uniform(x, s), want)

    def test_idempotent(self):
        s = QuantizerSpec.create(4, 0.3)
        x = np.linspace(-3, 3, 101)
        q = quantize_uniform(x, s)
        assert np.array_equal(quantize_uniform(q, s), q)

    def test_error_bounded_inside_range(self):
        s = QuantizerSpec.create(5, 0.2)
        x = np.linspace(s.qmin * 0.2 + 0.01, s.qmax * 0.2 - 0.01, 997)
        assert np.max(np.abs(x - quantize_uniform(x, s))) <= 0.1 + 1e-12

    def test_preserves_shape(self):
        s = QuantizerSpec.create(3, 0.4)
        assert quantize_uniform(np.zeros((2, 3, 4)), s).shape == (2, 3, 4)


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
        for b in QUANT_BITS:
            assert t.delta(b) > 0
            assert t.spec(b).bits == b

    def test_missing_bits_raises(self):
        t = DeltaTable(deltas={4: 0.33})
        with pytest.raises(InvalidBitsError):
            t.delta(3)

    def test_json_round_trip(self):
        t = default_delta_table()
        back = DeltaTable.from_json(t.to_json())
        assert back.key() == t.key()

    def test_json_keys_are_strings(self):
        raw = json.loads(default_delta_table().to_json())
        assert set(raw) == {str(b) for b in QUANT_BITS}

    def test_from_json_rejects_unknown_bits(self):
        with pytest.raises(InvalidBitsError):
            DeltaTable.from_json('{"12": 0.5}')

    def test_from_json_rejects_nonpositive(self):
        with pytest.raises(InvalidBitsError):
            DeltaTable.from_json('{"4": -0.1}')


def rotate(x, h):
    """Rotate tokens (one per row) exactly as the batched forward does."""
    return np.einsum("nj,ji->ni", x, h)


class TestActivation:
    # single tokens go through the batch quantizer as one-row batches

    def test_quantized_output_on_grid(self):
        h = hadamard(16)
        rng = np.random.default_rng(3)
        y = rotate(rng.standard_normal((1, 16)), h)
        grid, step = quantize_rotated_batch(y, 4)
        spec = default_delta_table().spec(4)
        assert np.array_equal(grid, np.round(grid))
        assert grid.min() >= spec.qmin and grid.max() <= spec.qmax
        assert step[0] == np.sqrt(np.mean(y * y)) * spec.delta

    def test_zero_vector(self):
        grid, _ = quantize_rotated_batch(np.zeros((1, 8)), 3)
        assert np.array_equal(grid, np.zeros((1, 8)))

    def test_dimension_mismatch(self):
        # a bare vector is not a batch of tokens
        with pytest.raises(InvalidDimensionError):
            quantize_rotated_batch(np.ones(8), 4)

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
                grid, step = quantize_rotated_batch(y, bits)
                tot += float(np.mean((grid * step[:, None] - y) ** 2))
            errs[bits] = tot / 32
        assert errs[2] > errs[4] > errs[6] > errs[8]


def sign_floor_grid(t, spec):
    """Oracle grid: clamp(sign(t) * floor(|t| + 1/2))."""
    return np.clip(np.sign(t) * np.floor(np.abs(t) + 0.5), spec.qmin, spec.qmax)


class TestRotatedBatch:
    def test_rows_match_vector_path(self):
        # each token quantized alone, as a one-row batch, gives its batch row
        h = hadamard(32)
        rng = np.random.default_rng(5)
        y = rotate(rng.standard_normal((6, 32)), h)
        grid, step = quantize_rotated_batch(y, 3)
        for i in range(6):
            row_grid, row_step = quantize_rotated_batch(y[i : i + 1], 3)
            assert np.array_equal(grid[i], row_grid[0]) and step[i] == row_step[0]

    def test_zero_row_stays_zero(self):
        y = np.zeros((2, 8))
        y[1] = 1.0
        grid, _ = quantize_rotated_batch(y, 2)
        assert np.array_equal(grid[0], np.zeros(8))
        assert np.any(grid[1] != 0)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
    def test_grid_matches_sign_floor_rounding(self, bits):
        # ties at every half step, values past the clamp, and a zero row
        spec = default_delta_table().spec(bits)
        rng = np.random.default_rng(bits)
        y = np.vstack([
            rng.standard_normal((4, 64)) * 3.0,
            np.arange(-32, 32) + 0.5,
            np.zeros(64),
        ])
        grid, step = quantize_rotated_batch(y, bits)
        sigma = np.sqrt(np.mean(y * y, axis=1))
        safe = np.where(sigma == 0.0, 1.0, sigma)
        assert np.array_equal(grid, sign_floor_grid(y / safe[:, None] / spec.delta, spec))
        assert np.array_equal(step, safe * spec.delta)
        ties = np.arange(-300, 300) + 0.5
        assert np.array_equal(round_half_away(ties), np.sign(ties) * np.floor(np.abs(ties) + 0.5))


class TestChannelwise:
    def test_output_on_per_row_grid(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 32)) * np.exp(rng.standard_normal((6, 1)))
        q = quantize_weight_channelwise(w, 3)
        assert q.q.dtype == np.int8 and q.bits == 3
        out = q.dense()
        spec = default_delta_table().spec(3)
        sigma = np.std(w, axis=1)
        ints = out / (sigma[:, None] * spec.delta)
        assert np.allclose(ints, np.round(ints), atol=1e-9)

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
    def test_dense_is_the_scaled_float_grid(self, bits):
        # the dense form is scale * (q * delta), as a float quantizer gives
        rng = np.random.default_rng(bits)
        w = rng.standard_normal((8, 64))
        w[3] = 0.0
        spec = default_delta_table().spec(bits)
        q = quantize_weight_channelwise(w, bits)
        safe = np.where(np.std(w, axis=1) == 0.0, 1.0, np.std(w, axis=1))
        assert np.array_equal(q.scale, safe)
        assert np.array_equal(q.q, sign_floor_grid(w / safe[:, None] / spec.delta, spec))
        assert np.array_equal(q.dense(), safe[:, None] * quantize_uniform(w / safe[:, None], spec))

    def test_error_shrinks_with_bits(self):
        # Wide rows so per-row sample MSE concentrates near its mean.
        rng = np.random.default_rng(13)
        w = rng.standard_normal((8, 4096))
        errs = [
            float(np.mean((quantize_weight_channelwise(w, b).dense() - w) ** 2))
            for b in (2, 3, 4, 5, 6)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_constant_row_within_clamp(self):
        # A constant row has zero std; the fallback scale must keep the
        # value representable rather than dividing by ~0.
        w = np.vstack([np.full(16, 2.5), np.random.default_rng(1).standard_normal(16)])
        out = quantize_weight_channelwise(w, 4).dense()
        assert np.max(np.abs(out[0] - 2.5)) <= 2.5  # no clamp blow-up
        assert np.isfinite(out).all()

    def test_zero_row(self):
        w = np.zeros((1, 8))
        assert np.array_equal(quantize_weight_channelwise(w, 2).dense(), w)
