"""Quantizer and calibration tests.

The step-size calibration is validated against closed-form normal-integral
oracles (tests/oracles.py) that share no code with the package's routes.
"""

import json

import numpy as np
import pytest

from treeq.errors import InvalidBitsError, InvalidDimensionError
from treeq.linalg import hadamard, matvec_t
from treeq.quantizer import (
    PASSTHROUGH_BITS,
    QUANT_BITS,
    DeltaTable,
    QuantizerSpec,
    calibrate_delta,
    default_delta_table,
    quantize_activation,
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

    def test_passthrough_copies(self):
        s = QuantizerSpec.create(4, 0.3)
        s32 = QuantizerSpec(bits=PASSTHROUGH_BITS, delta=1.0, qmin=0, qmax=0)
        x = np.array([[0.123, -4.56]])
        out = quantize_uniform(x, s32)
        assert np.array_equal(out, x)
        assert out is not x
        assert not np.array_equal(quantize_uniform(x, s), x)

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


class TestActivation:
    def test_rotation_then_scale(self):
        # 32-bit path must be exactly H^T x.
        h = hadamard(8)
        x = np.arange(8.0)
        assert np.array_equal(quantize_activation(x, 32, h), matvec_t(h, x))

    def test_quantized_output_on_grid(self):
        h = hadamard(16)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16)
        out = quantize_activation(x, 4, h)
        y = matvec_t(h, x)
        sigma = np.sqrt(np.mean(y * y))
        spec = default_delta_table().spec(4)
        ints = out / (sigma * spec.delta)
        assert np.allclose(ints, np.round(ints), atol=1e-9)
        assert ints.min() >= spec.qmin and ints.max() <= spec.qmax

    def test_zero_vector(self):
        h = hadamard(8)
        assert np.array_equal(quantize_activation(np.zeros(8), 3, h), np.zeros(8))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            quantize_activation(np.ones(8), 4, hadamard(16))

    def test_relative_error_vs_bits(self):
        # Averaged over many tokens the RMS error must drop as bits grow
        # (per-token MSE ratios are noisy; the mean over 32 tokens is not).
        h = hadamard(64)
        rng = np.random.default_rng(7)
        errs = {}
        for bits in (2, 4, 6, 8):
            tot = 0.0
            for t in range(32):
                x = rng.standard_normal(64)
                y = matvec_t(h, x)
                out = quantize_activation(x, bits, h)
                tot += float(np.mean((out - y) ** 2))
            errs[bits] = tot / 32
        assert errs[2] > errs[4] > errs[6] > errs[8]


class TestRotatedBatch:
    def test_rows_match_vector_path(self):
        h = hadamard(32)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 32))
        # Rotate exactly as the batched forward does; a BLAS x @ h would
        # differ in the last bits and the comparison below is bitwise.
        y = np.einsum("nj,ji->ni", x, h)
        batch = quantize_rotated_batch(y, 3)
        for i in range(6):
            row = quantize_activation(x[i], 3, h)
            assert np.array_equal(batch[i], row)

    def test_zero_row_stays_zero(self):
        y = np.zeros((2, 8))
        y[1] = 1.0
        out = quantize_rotated_batch(y, 2)
        assert np.array_equal(out[0], np.zeros(8))
        assert np.any(out[1] != 0)

    def test_passthrough(self):
        y = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(quantize_rotated_batch(y, 32), y)


class TestChannelwise:
    def test_output_on_per_row_grid(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 32)) * np.exp(rng.standard_normal((6, 1)))
        out = quantize_weight_channelwise(w, 3)
        spec = default_delta_table().spec(3)
        sigma = np.std(w, axis=1)
        ints = out / (sigma[:, None] * spec.delta)
        assert np.allclose(ints, np.round(ints), atol=1e-9)

    def test_error_shrinks_with_bits(self):
        # Wide rows so per-row sample MSE concentrates near its mean.
        rng = np.random.default_rng(13)
        w = rng.standard_normal((8, 4096))
        errs = [
            float(np.mean((quantize_weight_channelwise(w, b) - w) ** 2))
            for b in (2, 3, 4, 5, 6)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_constant_row_within_clamp(self):
        # A constant row has zero std; the fallback scale must keep the
        # value representable rather than dividing by ~0.
        w = np.vstack([np.full(16, 2.5), np.random.default_rng(1).standard_normal(16)])
        out = quantize_weight_channelwise(w, 4)
        assert np.max(np.abs(out[0] - 2.5)) <= 2.5  # no clamp blow-up
        assert np.isfinite(out).all()

    def test_zero_row(self):
        w = np.zeros((1, 8))
        assert np.array_equal(quantize_weight_channelwise(w, 2), w)

    def test_32_copies(self):
        w = np.random.default_rng(2).standard_normal((3, 5))
        out = quantize_weight_channelwise(w, 32)
        assert np.array_equal(out, w)
        assert out is not w
