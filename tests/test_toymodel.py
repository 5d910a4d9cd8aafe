"""Synthetic model and evaluation harness tests.

The generator is counter-based, so most determinism checks are exact
(array_equal, not allclose).  A couple of frozen constants guard against
silent drift in the RNG or the forward pipeline; they were produced by this
same code at freeze time and detect change.  The end-to-end MSE pin is also
reproduced from independently computed step sizes.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from treeq import branches, linalg, toymodel
from treeq.errors import (
    ConvergenceError,
    InvalidBitsError,
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from treeq.quantizer import (
    QUANT_BITS,
    DeltaTable,
    quantize_rotated_batch,
    quantize_weight_channelwise,
)
from treeq.search import SearchParams, tss_search
from treeq.suite import exhaustive_spec
from treeq.toymodel import (
    TAG_CALIB,
    TAG_WEIGHT,
    ModelSpec,
    QuantContext,
    ToyModel,
    _gen_block,
    end_to_end_mse,
    forward_batch,
    gaussian_stream,
    gen,
    gen_calibration,
    gen_model,
    mean_bitwidth,
    model_to_json,
    quantized_layer,
    substream,
    uniform_stream,
)

from oracles import stationary_delta


class TestGenerator:
    def test_block_matches_scalar(self):
        for seed in (0, 1, 2**63, 0xDEADBEEF):
            block = _gen_block(seed, 17)
            scalar = np.array([gen(seed, i) for i in range(17)], dtype=np.uint64)
            assert np.array_equal(block, scalar)

    def test_substream_formula(self):
        assert substream(42, 3, 7) == gen(42, (3 << 32) | 7)

    def test_streams_are_distinct(self):
        a = uniform_stream(1, 100)
        b = uniform_stream(2, 100)
        assert not np.array_equal(a, b)

    def test_uniform_range_and_determinism(self):
        u = uniform_stream(9, 10_000)
        assert np.array_equal(u, uniform_stream(9, 10_000))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_gaussian_moments(self):
        g = gaussian_stream(7, 100_000)
        assert abs(g.mean()) < 0.02
        assert abs(g.std() - 1.0) < 0.02

    def test_gaussian_pairing(self):
        # Box-Muller consumes uniforms in pairs; odd counts drop the last.
        assert np.array_equal(gaussian_stream(3, 5), gaussian_stream(3, 6)[:5])

    def test_gaussian_finite(self):
        # u1 = 0 must not produce inf (log is taken on 1 - u1).
        assert np.isfinite(gaussian_stream(0, 10_000)).all()


class TestModelSpec:
    def test_json_round_trip(self):
        spec = exhaustive_spec(5)
        assert ModelSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_layers=0, dims=(8,)),
            dict(n_layers=129, dims=(8,) * 130),
            dict(n_layers=2, dims=(8, 8)),  # wrong length
            dict(n_layers=1, dims=(8, 12)),  # not a power of two
            dict(n_layers=1, dims=(8, 4)),  # too small
            dict(n_layers=1, dims=(8, 2048)),  # too large
        ],
    )
    def test_rejects_bad_shapes(self, kw):
        with pytest.raises(InvalidDimensionError):
            ModelSpec(seed=1, **kw)

    def test_rejects_bad_outliers(self):
        with pytest.raises(InvalidDimensionError):
            ModelSpec(n_layers=1, dims=(8, 8), seed=1, outlier_fraction=1.5)
        with pytest.raises(InvalidDimensionError):
            ModelSpec(n_layers=1, dims=(8, 8), seed=1, outlier_scale=0.5)

    def test_rejects_oversize_seed(self):
        with pytest.raises(InvalidDimensionError):
            ModelSpec(n_layers=1, dims=(8, 8), seed=1 << 64)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_layers=1, dims=(32.9, 32), seed=1),
            dict(n_layers=1, dims=(32.0, 32), seed=1),
            dict(n_layers=1, dims=(True, 8), seed=1),
            dict(n_layers=1.0, dims=(8, 8), seed=1),
            dict(n_layers=True, dims=(8, 8), seed=1),
            dict(n_layers=1, dims=(8, 8), seed=1.5),
            dict(n_layers=1, dims=(8, 8), seed=False),
        ],
        ids=["dim-32.9", "dim-32.0", "dim-bool", "n_layers-float", "n_layers-bool",
             "seed-float", "seed-bool"],
    )
    def test_rejects_non_integers(self, kw):
        # int() would build a 32-wide layer from 32.9 and read True as 1
        with pytest.raises(InvalidDimensionError, match="must be an integer"):
            ModelSpec(**kw)

    def test_numpy_integers_are_integers(self):
        spec = ModelSpec(n_layers=np.int64(1), dims=np.array([8, 16]), seed=np.uint64(3))
        assert (spec.n_layers, spec.dims, spec.seed) == (1, (8, 16), 3)
        assert all(type(v) is int for v in (spec.n_layers, spec.seed) + spec.dims)
        assert ModelSpec.from_json(spec.to_json()) == spec


class TestQuantContext:
    @pytest.mark.parametrize("field", ["r_lrb", "r_gmb"])
    def test_rejects_negative_ranks(self, field):
        with pytest.raises(InvalidRankError, match=field):
            QuantContext(**{field: -1})

    @pytest.mark.parametrize("rank", [2.5, True])
    def test_rejects_non_integer_ranks(self, rank):
        with pytest.raises(InvalidRankError, match="must be an integer"):
            QuantContext(r_lrb=rank)

    @pytest.mark.parametrize("field", ["gmb_order", "gmb_placement"])
    def test_rejects_unknown_order_or_placement(self, field):
        with pytest.raises(InvalidPartitionError, match=field):
            QuantContext(**{field: "x"})

    def test_zero_ranks_fit_no_branches(self):
        ctx = QuantContext(r_lrb=0, r_gmb=np.int64(0))
        assert toymodel._effective_ranks(ctx, 64, 64) == (0, 0)


class TestGenModel:
    def test_deterministic(self):
        a = gen_model(exhaustive_spec(3))
        b = gen_model(exhaustive_spec(3))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes_and_flops(self):
        spec = ModelSpec(n_layers=2, dims=(8, 16, 32), seed=1)
        m = gen_model(spec)
        assert m.weights[0].shape == (16, 8)
        assert m.weights[1].shape == (32, 16)
        assert m.flops == (2 * 16 * 8, 2 * 32 * 16)

    def test_fan_in_scaling(self):
        spec = ModelSpec(n_layers=1, dims=(1024, 1024), seed=4)
        w = gen_model(spec).weights[0]
        assert w.std() == pytest.approx(1.0 / 32.0, rel=0.01)

    def test_outliers_scale_a_fraction(self):
        base = gen_model(ModelSpec(n_layers=1, dims=(64, 64), seed=6))
        out = gen_model(
            ModelSpec(
                n_layers=1, dims=(64, 64), seed=6,
                outlier_fraction=0.1, outlier_scale=8.0,
            )
        )
        ratio = out.weights[0] / base.weights[0]
        scaled = np.isclose(ratio, 8.0)
        kept = np.isclose(ratio, 1.0)
        assert np.all(scaled | kept)
        frac = scaled.mean()
        assert 0.05 < frac < 0.15

    def test_weight_stream_frozen(self):
        # Regression pin: flags any change to the RNG or the scaling.
        m = gen_model(exhaustive_spec(1))
        assert float(np.sum(m.weights[0])) == pytest.approx(
            3.0194909342061056, abs=1e-12
        )
        assert m.weights[0][0, 0] == pytest.approx(-0.05545128, abs=1e-7)


class TestForward:
    def test_vector_equals_batch_row(self):
        m = gen_model(exhaustive_spec(2))
        alloc = {0: 3, 1: 4, 2: 2, 3: 5}
        xs = np.stack([gaussian_stream(substream(5, TAG_CALIB, j), 32) for j in range(4)])
        batch = forward_batch(m, alloc, xs)
        for j in range(4):
            assert np.array_equal(forward_batch(m, alloc, xs[j : j + 1])[0], batch[j])

    def test_all_32_matches_manual_dense(self):
        m = gen_model(exhaustive_spec(4))
        xs = np.stack([gaussian_stream(substream(8, TAG_CALIB, j), 32) for j in range(3)])
        want = xs
        for i in range(4):
            want = np.einsum("nd,od->no", want, m.weights[i])
            if i < 3:
                want = np.where(want > 0.0, want, 0.1 * want)
        got = forward_batch(m, {i: 32 for i in range(4)}, xs)
        assert np.array_equal(got, want)

    def test_input_width_check(self):
        m = gen_model(exhaustive_spec(1))
        with pytest.raises(InvalidDimensionError):
            forward_batch(m, {i: 32 for i in range(4)}, np.ones((1, 16)))

    def test_alloc_validation(self):
        m = gen_model(exhaustive_spec(1))
        x = np.ones((1, 32))
        with pytest.raises(InvalidBitsError):
            forward_batch(m, {0: 32, 1: 32, 2: 32}, x)  # missing layer 3
        with pytest.raises(InvalidBitsError):
            forward_batch(m, {0: 32, 1: 32, 2: 32, 3: 32, 7: 32}, x)  # unknown layer
        with pytest.raises(InvalidBitsError):
            forward_batch(m, {0: 32, 1: 32, 2: 32, 3: 16}, x)  # 16 not allowed


class TestLayerCache:
    def test_same_object_returned(self):
        m = gen_model(exhaustive_spec(7))
        a = quantized_layer(m, 0, 3)
        b = quantized_layer(m, 0, 3)
        assert a is b

    def test_branch_fit_shared_across_bits(self, monkeypatch):
        calls = []
        fit = toymodel.branch_decomposition
        monkeypatch.setattr(
            toymodel, "branch_decomposition", lambda *a, **k: calls.append(1) or fit(*a, **k)
        )
        m = gen_model(exhaustive_spec(7))
        quantized_layer(m, 1, 2)
        n_fits = (len(calls), len(m.fit_cache.decomps))
        quantized_layer(m, 1, 5)
        assert (len(calls), len(m.fit_cache.decomps)) == n_fits

    def test_range_check(self):
        m = gen_model(exhaustive_spec(7))
        with pytest.raises(InvalidDimensionError):
            quantized_layer(m, 4, 3)

    # each call asks for a 32-bit quantized form of layer 0 of a model
    AT_32_BITS = {
        "quantize_rotated_batch": lambda m: quantize_rotated_batch(m.weights[0], 32),
        "quantize_weight_channelwise": lambda m: quantize_weight_channelwise(m.weights[0], 32),
        "assemble_layer": lambda m: branches.assemble_layer(
            m.weights[0], quantized_layer(m, 0, 3).branches, 32
        ),
        "quantized_layer": lambda m: quantized_layer(m, 0, 32),
    }

    @pytest.mark.parametrize("call", sorted(AT_32_BITS))
    def test_32_bits_has_no_quantized_form(self, call):
        # 32 bits means the dense weight, which forward_batch runs itself
        m = gen_model(exhaustive_spec(7))
        with pytest.raises(InvalidBitsError):
            self.AT_32_BITS[call](m)
        assert all(bits != 32 for _, bits, _ in m.fit_cache.layers)

    def test_bit_widths_share_the_branch_matrix(self):
        m = gen_model(exhaustive_spec(7))
        low, high = quantized_layer(m, 1, 2), quantized_layer(m, 1, 5)
        assert low.branches is high.branches
        assert low.branches.post is high.branches.post

    @pytest.mark.parametrize("n", [128, 256])
    def test_entry_holds_a_byte_grid_and_row_scales(self, n):
        # a new (layer, bits) entry, forwarded once, costs its n x n int8
        # grid plus O(n) floats (row scales and steps) and a few objects;
        # the branch matrix and the Hadamard matrix are already shared
        m = gen_model(ModelSpec(1, (n, n), seed=3))
        ctx = QuantContext(r_lrb=0, r_gmb=0)  # no SVD: only the entry is measured
        xs = np.ones((4, n))
        toymodel.forward_quantized_batch(quantized_layer(m, 0, 2, ctx), xs)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layer = quantized_layer(m, 0, 3, ctx)
            toymodel.forward_quantized_batch(layer, xs)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= n * n + 4 * 8 * n + 2048, grown

    def test_lrb_fit_shared_across_gmb_ranks(self, monkeypatch):
        # the settings of `treeq ablate gmb`: the lrb_first rows and the
        # no-GMB row all fit the same LRB on W @ H
        settings = [
            QuantContext(r_gmb=0, scale_ranks=False),
            QuantContext(r_gmb=2, scale_ranks=False),
            QuantContext(r_gmb=4, scale_ranks=False),
            QuantContext(r_gmb=8, scale_ranks=False),
            QuantContext(gmb_order="gmb_first"),
            QuantContext(gmb_placement="pre"),
        ]
        calls = []
        fit = branches.truncated_svd
        monkeypatch.setattr(branches, "truncated_svd", lambda *a: calls.append(1) or fit(*a))
        shared = gen_model(exhaustive_spec(7))
        layers = [quantized_layer(shared, 0, 3, ctx) for ctx in settings]
        assert len(calls) == 3  # W @ H once, then gmb_first and pre
        for ctx, layer in zip(settings, layers):
            alone = quantized_layer(gen_model(exhaustive_spec(7)), 0, 3, ctx)
            assert np.array_equal(layer.weight.dense(), alone.weight.dense())
            assert np.array_equal(layer.branches.post, alone.branches.post)


def two_group_spec(seed):
    # layer shapes alternate (64, 32) and (32, 64): two shape groups of two
    return ModelSpec(n_layers=4, dims=(32, 64, 32, 64, 32), seed=seed,
                     outlier_fraction=0.02, outlier_scale=8.0)


class TestStackedFit:
    CONTEXTS = [QuantContext(), QuantContext(gmb_order="gmb_first"), QuantContext(gmb_placement="pre")]

    def _count_svds(self, monkeypatch):
        shapes = []
        fit = branches.truncated_svd
        monkeypatch.setattr(branches, "truncated_svd", lambda *a: shapes.append(a[0].shape) or fit(*a))
        return shapes

    def test_one_lrb_stack_per_shape_group(self, monkeypatch):
        shapes = self._count_svds(monkeypatch)
        m = gen_model(two_group_spec(5))
        quantized_layer(m, 2, 3)
        # the first use fits every layer, stacked by shape
        assert sorted(shapes) == [(2, 32, 64), (2, 64, 32)]
        assert len(m.fit_cache.decomps) == 4
        for i in range(4):
            quantized_layer(m, i, 4)
        assert len(shapes) == 2

    def test_split_stacks_give_the_same_bits(self, monkeypatch):
        whole = gen_model(two_group_spec(6))
        want = [[quantized_layer(whole, i, 3, ctx) for i in range(4)] for ctx in self.CONTEXTS]
        monkeypatch.setattr(toymodel, "FIT_STACK_BYTES", 1)
        shapes = self._count_svds(monkeypatch)
        split = gen_model(two_group_spec(6))
        for ctx, layers in zip(self.CONTEXTS, want):
            for i, layer in enumerate(layers):
                got = quantized_layer(split, i, 3, ctx)
                assert got.weight.dense().tobytes() == layer.weight.dense().tobytes()
                assert got.branches.post.tobytes() == layer.branches.post.tobytes()
                assert got.branches.lrb.a.tobytes() == layer.branches.lrb.a.tobytes()
                assert got.branches.gmb.u.tobytes() == layer.branches.gmb.u.tobytes()
        assert all(shape[0] == 1 for shape in shapes) and len(shapes) == 4 * 3

    def test_non_convergence_names_the_layers(self, monkeypatch):
        # with a zero residual bound every fit fails its check
        monkeypatch.setattr(linalg, "SVD_RESIDUAL_FACTOR", 0.0)
        m = gen_model(two_group_spec(7))
        with pytest.raises(ConvergenceError, match=r"^branch fit of layers 0, 2: SVD residual") as err:
            quantized_layer(m, 3, 3)
        assert err.value.residual > 0.0
        assert m.fit_cache.decomps == {}


class TestCalibration:
    def test_inputs_come_from_tagged_streams(self):
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 3, 123)
        want = gaussian_stream(substream(123, TAG_CALIB, 1), 32)
        assert np.array_equal(c.inputs[1], want)

    def test_outputs_are_dense_forward(self):
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 4, 5)
        want = forward_batch(m, {i: 32 for i in range(4)}, c.input_matrix)
        assert np.array_equal(c.output_matrix, want)

    def test_key(self):
        m = gen_model(exhaustive_spec(1))
        assert gen_calibration(m, 4, 5).key() == (5, 4)

    def test_rejects_empty(self):
        m = gen_model(exhaustive_spec(1))
        with pytest.raises(InvalidDimensionError):
            gen_calibration(m, 0, 5)


class TestEndToEndMse:
    def test_all_32_is_exactly_zero(self):
        m = gen_model(exhaustive_spec(9))
        c = gen_calibration(m, 8, 2)
        assert end_to_end_mse(m, {i: 32 for i in range(4)}, c) == 0.0

    def test_alloc_order_irrelevant(self):
        m = gen_model(exhaustive_spec(9))
        c = gen_calibration(m, 8, 2)
        a = end_to_end_mse(m, {0: 2, 1: 3, 2: 4, 3: 5}, c)
        b = end_to_end_mse(m, {3: 5, 1: 3, 0: 2, 2: 4}, c)
        assert a == b

    def test_memoized(self):
        m = gen_model(exhaustive_spec(9))
        c = gen_calibration(m, 8, 2)
        alloc = {0: 2, 1: 3, 2: 4, 3: 5}
        first = end_to_end_mse(m, alloc, c)
        assert (m.eval_cache.hits, m.eval_cache.misses) == (0, 1)
        assert end_to_end_mse(m, dict(reversed(alloc.items())), c) == first
        assert (m.eval_cache.hits, m.eval_cache.misses) == (1, 1)

    def test_more_bits_lower_error(self):
        m = gen_model(exhaustive_spec(9))
        c = gen_calibration(m, 16, 2)
        mses = [
            end_to_end_mse(m, {i: b for i in range(4)}, c) for b in (2, 4, 8)
        ]
        assert mses[0] > mses[1] > mses[2] >= 0.0

    def test_frozen_value(self):
        # Pin of the full pipeline (RNG -> branches -> quantizers -> MSE).
        # It was computed with the optimal step sizes, the roots of
        # dMSE/ddelta = 0 for a standard normal input (delta_2 =
        # 1.0483852624850134, ..., delta_8 = 0.03076557854276634).  Two
        # independent computations agree with it within 1e-13: the same
        # chain on a 50-digit mpmath delta table gives 0.4514087110541001,
        # and on the scipy table of oracles.stationary_delta (checked in
        # test_frozen_value_on_oracle_deltas) 0.4514087110541006.
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 8, 9)
        got = end_to_end_mse(m, {0: 3, 1: 4, 2: 2, 3: 5}, c)
        assert got == pytest.approx(0.4514087110541004, rel=1e-12)

    def test_frozen_value_on_oracle_deltas(self):
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 8, 9)
        table = DeltaTable(deltas={b: stationary_delta(b) for b in QUANT_BITS})
        got = end_to_end_mse(m, {0: 3, 1: 4, 2: 2, 3: 5}, c, QuantContext(deltas=table))
        assert got == pytest.approx(0.4514087110541004, rel=1e-13)


def _fresh(model):
    """A model sharing ``model``'s weights and layer fits but not its EvalCache."""
    return ToyModel(
        spec=model.spec,
        weights=model.weights,
        fit_cache=model.fit_cache,
    )


def _shared_prefix(a, b):
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


class TestEvalCache:
    def test_bit_identical_to_fresh_model(self):
        m = gen_model(exhaustive_spec(2))
        calibs = [gen_calibration(m, 8, 3), gen_calibration(m, 8, 4)]
        ctxs = [
            QuantContext(),
            QuantContext(gmb_order="gmb_first"),
            QuantContext(r_gmb=0),
            QuantContext(gmb_placement="pre"),
        ]
        rng = np.random.default_rng(0)
        alloc = {i: 3 for i in range(4)}
        calib, ctx = calibs[0], ctxs[0]
        for _ in range(80):
            # one layer changes per step, so consecutive evaluations share
            # prefixes; now and then the calibration or the context switches
            alloc[int(rng.integers(4))] = int(rng.choice((2, 3, 4, 32)))
            if rng.random() < 0.2:
                calib = calibs[int(rng.integers(2))]
            if rng.random() < 0.2:
                ctx = ctxs[int(rng.integers(4))]
            got = end_to_end_mse(m, dict(alloc), calib, ctx)
            assert got == end_to_end_mse(_fresh(m), dict(alloc), calib, ctx)
        assert m.eval_cache.hits > 0

    def test_runs_only_layers_after_shared_prefix(self, monkeypatch):
        m = gen_model(exhaustive_spec(2))
        c = gen_calibration(m, 8, 3)
        calls = []
        run = toymodel.forward_quantized_batch
        monkeypatch.setattr(
            toymodel, "forward_quantized_batch", lambda *a: calls.append(1) or run(*a)
        )
        rng = np.random.default_rng(1)
        last, seen = (), set()
        for _ in range(60):
            bits = tuple(int(b) for b in rng.choice((2, 3, 4, 5), size=4))
            calls.clear()
            end_to_end_mse(m, dict(enumerate(bits)), c)
            if bits in seen:
                assert calls == []  # a memo hit runs no layer
            else:
                assert len(calls) == 4 - _shared_prefix(bits, last)
                last = bits
            seen.add(bits)

    def test_forward_that_raises_leaves_cache_consistent(self, monkeypatch):
        m = gen_model(exhaustive_spec(2))
        c = gen_calibration(m, 8, 3)
        a, b = {0: 2, 1: 3, 2: 4, 3: 5}, {0: 2, 1: 3, 2: 5, 3: 5}
        end_to_end_mse(m, a, c)
        run = toymodel.forward_quantized_batch

        def fail_at_layer_2(layer, xs):
            if layer is quantized_layer(m, 2, 5):
                raise RuntimeError("fit failed")
            return run(layer, xs)

        monkeypatch.setattr(toymodel, "forward_quantized_batch", fail_at_layer_2)
        with pytest.raises(RuntimeError):
            end_to_end_mse(m, b, c)
        monkeypatch.undo()
        assert len(m.eval_cache.acts) == len(m.eval_cache.bits) + 1
        for alloc in (b, a):
            assert end_to_end_mse(m, alloc, c) == end_to_end_mse(_fresh(m), alloc, c)

    def test_holds_one_scope_after_searches(self):
        m = gen_model(ModelSpec(n_layers=3, dims=(16,) * 4, seed=1))
        cache = m.eval_cache
        for seed in range(5):
            calib = gen_calibration(m, 8, seed)
            misses = cache.misses
            tss_search(m, SearchParams(calib=calib, k=4))
            assert cache.acts[0] is calib.input_matrix
            assert len(cache.acts) <= m.n_layers
            # the memo holds this search's evaluations and nothing older
            assert len(cache.mse) == cache.misses - misses > 0

    def test_equal_calibration_keys_do_not_alias(self):
        m = gen_model(exhaustive_spec(2))
        a = gen_calibration(m, 8, 3)
        b = dataclasses.replace(gen_calibration(m, 8, 4), seed=3)
        assert a.key() == b.key()
        alloc = {i: 3 for i in range(4)}
        got_a = end_to_end_mse(m, alloc, a)
        got_b = end_to_end_mse(m, alloc, b)
        assert got_a != got_b
        assert got_a == end_to_end_mse(_fresh(m), alloc, a)
        assert got_b == end_to_end_mse(_fresh(m), alloc, b)


class TestMeanBitwidth:
    def test_uniform(self):
        m = gen_model(exhaustive_spec(1))
        assert mean_bitwidth({i: 5 for i in range(4)}, m) == 5.0

    def test_flops_weighting(self):
        spec = ModelSpec(n_layers=3, dims=(8, 16, 8, 8), seed=1)
        m = gen_model(spec)
        # flops = (256, 256, 128); (256*2 + 256*4 + 128*8) / 640 = 4.0
        assert mean_bitwidth({0: 2, 1: 4, 2: 8}, m) == pytest.approx(4.0)

    def test_requires_complete_alloc(self):
        m = gen_model(exhaustive_spec(1))
        with pytest.raises(InvalidBitsError):
            mean_bitwidth({0: 3}, m)


class TestModelJson:
    def test_document_structure(self):
        m = gen_model(exhaustive_spec(1))
        doc = json.loads(model_to_json(m))
        assert doc["spec"]["n_layers"] == 4
        assert doc["flops"] == list(m.flops)
        w0 = doc["weights"][0]
        back = np.asarray(w0["data"]).reshape(w0["rows"], w0["cols"])
        assert np.array_equal(back, m.weights[0])
