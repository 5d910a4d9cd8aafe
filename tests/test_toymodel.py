"""Synthetic model and evaluation harness tests.

The generator is counter-based, so most determinism checks are exact
(array_equal, not allclose).  A couple of frozen constants guard against
silent drift in the RNG or the forward pipeline; they were produced by this
same code at freeze time and detect change.  The end-to-end MSE pin is also
reproduced from independently computed step sizes.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from treeq import branches, linalg, quantizer, toymodel
from treeq.cli import _gmb_settings
from treeq.errors import (
    ConvergenceError,
    InvalidBitsError,
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from treeq.quantizer import (
    QUANT_BITS,
    quantize_rotated_batch,
)
from treeq.search import SearchParams, tss_search
from treeq.toymodel import (
    TAG_CALIB,
    TAG_WEIGHT,
    CalibrationSet,
    ModelSpec,
    QuantContext,
    ToyModel,
    _gen_block,
    end_to_end_mse,
    fit_all,
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
from suite import exhaustive_spec


class TestGenerator:
    def test_block_matches_scalar(self):
        for seed in (0, 1, 2**63, 0xDEADBEEF):
            block = _gen_block(seed, 17)
            scalar = np.array([gen(seed, i) for i in range(17)], dtype=np.uint64)
            assert np.array_equal(block, scalar)

    def test_matches_the_splitmix64_reference(self):
        # the first outputs of the reference SplitMix64 seeded with 0
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert [gen(0, i) for i in range(3)] == want
        assert [int(z) for z in _gen_block(0, 3)] == want

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
        # model.json's spec section holds every field of the spec
        spec = exhaustive_spec(5)
        assert ModelSpec(**json.loads(model_to_json(gen_model(spec)))["spec"]) == spec

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

    def test_rejects_infinite_outlier_scale(self):
        # JSON's Infinity passes ">= 1" and would write Infinity weights
        with pytest.raises(InvalidDimensionError, match="outlier_scale must be finite and >= 1"):
            ModelSpec(n_layers=1, dims=(8, 8), seed=1, outlier_scale=float("inf"))

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
        assert ModelSpec(**json.loads(model_to_json(gen_model(spec)))["spec"]) == spec


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

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_scale_ranks_must_be_a_bool(self, value):
        # any truthy value used to scale the ranks
        with pytest.raises(InvalidRankError, match="scale_ranks must be a bool"):
            QuantContext(scale_ranks=value)

    def test_numpy_bools_are_bools(self):
        assert QuantContext(scale_ranks=np.False_) == QuantContext(scale_ranks=False)

    def test_zero_ranks_fit_no_branches(self):
        ctx = QuantContext(r_lrb=0, r_gmb=np.int64(0))
        assert ctx.chain(64, 64) == (("lrb", 0),)

    @pytest.mark.parametrize("shape,fields,chain", [
        # r_gmb 0 fits the LRB alone, whatever the order and placement
        ((64, 32), {"r_gmb": 0}, (("lrb", 8),)),
        ((64, 32), {"r_gmb": 0, "gmb_order": "gmb_first"}, (("lrb", 8),)),
        ((64, 32), {"r_gmb": 0, "gmb_placement": "pre"}, (("lrb", 8),)),
        ((64, 32), {"r_gmb": 0, "scale_ranks": False}, (("lrb", 16),)),
        # the LRB goes first only under lrb_first and post
        ((64, 32), {}, (("lrb", 8), ("gmb", (2, 2), "post"))),
        ((64, 32), {"gmb_order": "gmb_first"}, (("gmb", (2, 2), "post"), ("lrb", 8))),
        ((64, 32), {"gmb_placement": "pre"}, (("gmb", (2, 2), "pre"), ("lrb", 8))),
        ((64, 32), {"gmb_order": "gmb_first", "gmb_placement": "pre"},
         (("gmb", (2, 2), "pre"), ("lrb", 8))),
        # scaled ranks are capped at N/4 and N/16 (floor 1), unscaled the LRB at N
        ((64, 32), {"scale_ranks": False}, (("lrb", 16), ("gmb", (4, 4), "post"))),
        ((64, 32), {"r_lrb": 64, "r_gmb": 32}, (("lrb", 8), ("gmb", (2, 2), "post"))),
        ((64, 32), {"r_lrb": 64, "r_gmb": 32, "scale_ranks": False},
         (("lrb", 32), ("gmb", (32, 32), "post"))),
        ((8, 8), {}, (("lrb", 2), ("gmb", (1, 1), "post"))),
        ((8, 8), {"gmb_order": "gmb_first", "scale_ranks": False},
         (("gmb", (4, 4), "post"), ("lrb", 8))),
    ])
    def test_chain(self, shape, fields, chain):
        assert QuantContext(**fields).chain(*shape) == chain

    def test_chain_rejects_a_grid_that_does_not_divide(self):
        with pytest.raises(InvalidPartitionError, match="must divide both dimensions"):
            QuantContext(r_gmb=3, scale_ranks=False).chain(64, 32)


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

    def test_weights_are_read_only(self):
        # the model's fits are keyed by layer index: an edited weight would
        # keep its stale fits
        m = gen_model(ModelSpec(n_layers=2, dims=(16,) * 3, seed=4, outlier_fraction=0.1))
        for w in m.weights:
            with pytest.raises(ValueError, match="read-only"):
                w[:] *= 2

    def test_weights_cannot_be_made_writable_again(self):
        # doubling weight 0 behind the flag would leave its stale fits:
        # a uniform 3-bit MSE of 0.1689 where a refit gives 0.0545
        m = gen_model(ModelSpec(n_layers=3, dims=(32,) * 4, seed=1))
        for w in m.weights:
            with pytest.raises(ValueError):
                w.setflags(write=True)

    def test_weights_cannot_be_replaced(self):
        # a replaced weight would keep the stale fits of its index: a model
        # built with it reads 0.03147 where the original reads 0.007868
        m = gen_model(ModelSpec(n_layers=4, dims=(32,) * 5, seed=1))
        with pytest.raises(TypeError):
            m.weights[0] = m.weights[0] * 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.weights = (m.weights[0] * 2,) + m.weights[1:]
        assert isinstance(ToyModel(m.spec, list(m.weights)).weights, tuple)
        fresh = _fresh(m)
        assert fresh.fits is m.fits and fresh.eval_cache is not m.eval_cache


class TestForward:
    def test_one_row_equals_its_matmul_reference(self):
        # each row forwarded alone equals its layers run by hand on that row:
        # a 32-bit layer as np.matmul, a quantized one as its own forward; a
        # row of a larger batch may round otherwise
        m = gen_model(exhaustive_spec(2))
        alloc = {0: 3, 1: 32, 2: 2, 3: 5}
        xs = np.stack([gaussian_stream(substream(5, TAG_CALIB, j), 32) for j in range(4)])
        for j in range(4):
            want = xs[j : j + 1]
            for i in range(4):
                if alloc[i] == 32:
                    want = want @ m.weights[i].T
                else:
                    want = branches.forward_quantized_batch(quantized_layer(m, i, alloc[i]), want)
                if i < 3:
                    want = np.where(want > 0.0, want, 0.1 * want)
            assert np.array_equal(forward_batch(m, alloc, xs[j : j + 1]), want)

    def test_all_32_matches_manual_dense(self):
        m = gen_model(exhaustive_spec(4))
        xs = np.stack([gaussian_stream(substream(8, TAG_CALIB, j), 32) for j in range(3)])
        want = xs
        for i in range(4):
            want = want @ m.weights[i].T
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

    @pytest.mark.parametrize("key", [1.5, -0.5, "x", True])
    def test_alloc_key_must_be_a_layer_index(self, key):
        # int() truncates 1.5 and -0.5 into range and raises ValueError on
        # "x", and True is an int equal to 1; every key that is not an
        # integer layer index is an unknown layer
        m = gen_model(exhaustive_spec(1))
        alloc = {0: 32, 2: 32, 3: 32, key: 32}
        alloc.setdefault(1, 32)  # a True key already stands for layer 1
        with pytest.raises(InvalidBitsError, match="unknown layer"):
            forward_batch(m, alloc, np.ones((1, 32)))

    def test_numpy_integer_keys_are_layer_indices(self):
        m = gen_model(exhaustive_spec(1))
        xs = np.ones((1, 32))
        want = forward_batch(m, {i: 3 for i in range(4)}, xs)
        got = forward_batch(m, {np.int64(i): 3 for i in range(4)}, xs)
        assert np.array_equal(got, want)

    def test_bytes_do_not_depend_on_blas_threads(self):
        # A 256-wide quantized layer and a 32-bit layer forward one fixed
        # batch in two child processes; the environment variables reach
        # only the children.  Both run BLAS products, whose result must not
        # depend on how OpenBLAS splits them over threads.
        script = (
            "import hashlib\n"
            "from treeq.toymodel import ModelSpec, forward_batch, gaussian_stream, gen_model\n"
            "model = gen_model(ModelSpec(n_layers=1, dims=(256, 256), seed=3))\n"
            "xs = gaussian_stream(7, 64 * 256).reshape(64, 256)\n"
            "for bits in (4, 32):\n"
            "    out = forward_batch(model, {0: bits}, xs)\n"
            "    print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(toymodel.__file__))
        digests = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            digests[threads] = run.stdout.split()
            assert len(digests[threads]) == 2, run.stdout
        assert digests["1"] == digests["2"], digests


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
        n_fits = (len(calls), len(m.fits))
        quantized_layer(m, 1, 5)
        assert (len(calls), len(m.fits)) == n_fits

    def test_range_check(self):
        m = gen_model(exhaustive_spec(7))
        with pytest.raises(InvalidDimensionError):
            quantized_layer(m, 4, 3)

    @pytest.mark.parametrize("i", [1.5, True], ids=["1.5", "True"])
    def test_index_must_be_an_integer(self, i):
        # as for every other integer input: int() would truncate 1.5, and
        # True is an int that would name layer 1
        m = gen_model(exhaustive_spec(7))
        with pytest.raises(InvalidDimensionError, match="layer must be an integer"):
            quantized_layer(m, i, 3)

    # each call asks for a 32-bit quantized form of layer 0 of a model
    AT_32_BITS = {
        "quantize_rotated_batch": lambda m: quantize_rotated_batch(m.weights[0], 32, 1.0),
        "quantized_layer": lambda m: quantized_layer(m, 0, 32),
    }

    @pytest.mark.parametrize("call", sorted(AT_32_BITS))
    def test_32_bits_has_no_quantized_form(self, call):
        # 32 bits means the dense weight, which forward_batch runs itself
        m = gen_model(exhaustive_spec(7))
        with pytest.raises(InvalidBitsError):
            self.AT_32_BITS[call](m)
        assert all(32 not in layers for layers in m.fits.values())

    def test_contexts_that_share_a_fit_share_its_layers(self):
        # ``ablate gmb``'s r=4 row fits what the default context fits on a
        # 64-wide layer, so it gets the very same quantized layers
        m = gen_model(ModelSpec(2, (64, 64, 64), seed=3))
        for i in range(2):
            layer = quantized_layer(m, i, 3, QuantContext())
            assert quantized_layer(m, i, 3, QuantContext(r_gmb=4, scale_ranks=False)) is layer
        assert len(m.fits) == 2

    @pytest.mark.parametrize("ctxs", [
        (QuantContext(r_gmb=0), QuantContext(r_gmb=0, gmb_order="gmb_first", gmb_placement="pre")),
        (QuantContext(gmb_placement="pre"), QuantContext(gmb_order="gmb_first", gmb_placement="pre")),
    ], ids=["no-gmb", "pre"])
    def test_contexts_with_one_chain_share_one_fit(self, monkeypatch, ctxs):
        # each pair poses one chain per layer, so it is fitted and quantized once
        calls = []
        quantize = toymodel.quantize_fit
        monkeypatch.setattr(toymodel, "quantize_fit", lambda *a: calls.append(1) or quantize(*a))
        m = gen_model(ModelSpec(3, (32,) * 4, seed=1))
        fit_all(m, ctxs)
        assert len(m.fits) == len(calls) == 3
        for i in range(3):
            assert quantized_layer(m, i, 3, ctxs[0]) is quantized_layer(m, i, 3, ctxs[1])
        assert len(calls) == 3

    def test_bit_widths_share_the_branch_matrix(self):
        m = gen_model(exhaustive_spec(7))
        low, high = quantized_layer(m, 1, 2), quantized_layer(m, 1, 5)
        assert low.branches is high.branches
        assert low.branches.pair is high.branches.pair

    @pytest.mark.parametrize("n", [128, 256])
    def test_entry_holds_a_byte_grid_and_row_scales(self, n):
        # a fit with no branch ranks, forwarded once, costs at each width
        # the n x n int8 grid plus O(n) floats (row scales, steps and empty
        # factor pairs) and a few objects; the Hadamard matrix is already
        # shared
        spec = ModelSpec(1, (n, n), seed=3)
        ctx = QuantContext(r_lrb=0, r_gmb=0)  # no SVD: only the entry is measured
        xs = np.ones((4, n))
        # a throwaway model makes the shared Hadamard matrix and step table
        toymodel.forward_quantized_batch(quantized_layer(gen_model(spec), 0, 2, ctx), xs)
        m = gen_model(spec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            toymodel.forward_quantized_batch(quantized_layer(m, 0, 3, ctx), xs)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= len(QUANT_BITS) * (n * n + 4 * 8 * n + 2048), grown

    def test_fit_quantizes_every_width_once(self, monkeypatch):
        # the first layer asked for quantizes every layer at every width,
        # in one quantizer call per layer; after that no layer is
        # quantized again
        calls = []
        quantize = branches.quantize_weight_channelwise
        monkeypatch.setattr(
            branches, "quantize_weight_channelwise", lambda w: calls.append(w.shape) or quantize(w)
        )
        m = gen_model(two_group_spec(5))
        quantized_layer(m, 2, 3)
        assert sorted(calls) == sorted(w.shape for w in m.weights)
        for i in range(m.n_layers):
            for bits in QUANT_BITS:
                quantized_layer(m, i, bits)
        assert len(calls) == m.n_layers

    def _float_matrices(self, value, seen):
        """Every float64 array reachable from ``value`` through containers and
        dataclasses, cached properties included."""
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            if value.dtype == np.float64:
                yield value
        elif isinstance(value, (dict, list, tuple)):
            for v in value.values() if isinstance(value, dict) else value:
                yield from self._float_matrices(v, seen)
        elif dataclasses.is_dataclass(value):
            for v in vars(value).values():
                yield from self._float_matrices(v, seen)

    @pytest.mark.parametrize("ctx", [QuantContext(), QuantContext(gmb_placement="pre")],
                             ids=["post", "pre"])
    def test_fit_keeps_no_float_residual(self, ctx):
        # the residual is quantized at every width in the fit and dropped,
        # and the branches keep only factors: after a forward through every
        # layer, no float matrix of a weight's shape is left
        m = gen_model(two_group_spec(5))
        forward_batch(m, {i: 3 for i in range(m.n_layers)}, np.ones((2, 32)), ctx)
        for (i, *_), layers in m.fits.items():
            assert sorted(layers) == sorted(QUANT_BITS)
            (fit,) = {id(layer.branches): layer.branches for layer in layers.values()}.values()
            assert "pair" in vars(fit)  # the forward built the factor pair
            dense = [a for a in self._float_matrices(layers, set()) if a.shape == m.weights[i].shape]
            assert dense == [], (i, len(dense))

    def test_retained_memory_per_layer(self):
        # a 2 x 256 model asked at every width, each layer forwarded once,
        # keeps per layer its int8 grids (7 n^2), its branch factors and
        # their factor pair (2 n^2): no float residual (8 n^2) and no dense
        # branch matrix (8 n^2)
        n = 256
        linalg.hadamard(n)  # shared by every model, so made before measuring
        m = gen_model(ModelSpec(2, (n, n, n), seed=3))
        xs = np.ones((4, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(m.n_layers):
                for bits in QUANT_BITS:
                    quantized_layer(m, i, bits)
                toymodel.forward_quantized_batch(quantized_layer(m, i, 3), xs)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown / m.n_layers < 12 * n * n, grown / (m.n_layers * n * n)

    def test_lrb_fit_shared_across_gmb_ranks(self, monkeypatch):
        # settings like those of `treeq ablate gmb`, all at LRB rank 16 and
        # fitted in one call: the lrb_first rows and the no-GMB row share
        # the LRB on W @ H, and gmb_first and pre stack their own problems
        # beside it, in one SVD call for every layer
        settings = [
            QuantContext(r_gmb=0, scale_ranks=False),
            QuantContext(r_gmb=2, scale_ranks=False),
            QuantContext(r_gmb=4, scale_ranks=False),
            QuantContext(r_gmb=8, scale_ranks=False),
            QuantContext(gmb_order="gmb_first", scale_ranks=False),
            QuantContext(gmb_placement="pre", scale_ranks=False),
        ]
        calls = []
        fit = branches.truncated_svd
        monkeypatch.setattr(branches, "truncated_svd", lambda *a: calls.append(a[0].shape) or fit(*a))
        shared = gen_model(exhaustive_spec(7))
        fit_all(shared, settings)
        assert calls == [(4 * 3, 32, 32)]  # W @ H, then gmb_first's and pre's
        layers = [quantized_layer(shared, 0, 3, ctx) for ctx in settings]
        assert len(calls) == 1
        for ctx, layer in zip(settings, layers):
            alone = quantized_layer(gen_model(exhaustive_spec(7)), 0, 3, ctx)
            assert np.array_equal(layer.weight.q, alone.weight.q)
            assert np.array_equal(layer.weight.scale, alone.weight.scale)
            assert layer.weight.delta == alone.weight.delta
            assert all(map(np.array_equal, layer.branches.pair, alone.branches.pair))


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
        assert len(m.fits) == 4
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
                assert got.weight.q.tobytes() == layer.weight.q.tobytes()
                assert got.weight.scale.tobytes() == layer.weight.scale.tobytes()
                assert got.weight.delta == layer.weight.delta
                for got_f, want_f in zip(got.branches.pair, layer.branches.pair):
                    assert got_f.tobytes() == want_f.tobytes()
                assert got.branches.lrb.a.tobytes() == layer.branches.lrb.a.tobytes()
                assert got.branches.gmb.u.tobytes() == layer.branches.gmb.u.tobytes()
        assert all(shape[0] == 1 for shape in shapes) and len(shapes) == 4 * 3

    ABLATION = [ctx for _, ctx in _gmb_settings(QuantContext())]

    def _count_fit_calls(self, monkeypatch):
        """(name, input shape) of every stacked SVD call, in call order."""
        calls = []
        for name in ("truncated_svd", "top_singular_pair"):
            fit = getattr(branches, name)
            monkeypatch.setattr(
                branches, name, lambda m, *a, _f=fit, _n=name: calls.append((_n, m.shape)) or _f(m, *a)
            )
        return calls

    def _assert_fitted_alone(self, m, spec, ctxs):
        """Each context's layers of ``m`` equal that context's on a fresh model, at every width."""
        for ctx in ctxs:
            alone = gen_model(spec)
            for i in range(m.n_layers):
                for bits in QUANT_BITS:
                    got, want = quantized_layer(m, i, bits, ctx), quantized_layer(alone, i, bits, ctx)
                    assert np.array_equal(got.weight.q, want.weight.q)
                    assert np.array_equal(got.weight.scale, want.weight.scale)
                    assert got.weight.delta == want.weight.delta
                    assert all(map(np.array_equal, got.branches.pair, want.branches.pair))

    def test_ablation_settings_fit_in_one_call(self, monkeypatch):
        # on one 64-wide layer the eight settings pose three LRB problems
        # (W_H, W_H less the gmb_first GMB, W_H less the pre GMB's image) and
        # four GMB calls: the two GMBs fitted first share one, and the
        # r=4, 8 and 16 grids after the LRB take one each
        spec = ModelSpec(1, (64, 64), seed=3)
        m = gen_model(spec)
        calls = self._count_fit_calls(monkeypatch)
        fit_all(m, self.ABLATION)
        assert [shape for name, shape in calls if name == "truncated_svd"] == [(3, 64, 64)]
        assert [name for name, _ in calls].count("top_singular_pair") == 4
        assert len(m.fits) == 6  # r=4, order=lrb_first and placement=post agree
        monkeypatch.undo()
        self._assert_fitted_alone(m, spec, self.ABLATION)

    def test_ablation_settings_on_two_shapes(self, monkeypatch):
        # at width 32 the class-default rows scale to LRB rank 8 and GMB rank 2,
        # while the r= rows keep rank 16: two LRB calls and five GMB calls per shape
        spec = two_group_spec(8)
        m = gen_model(spec)
        calls = self._count_fit_calls(monkeypatch)
        fit_all(m, self.ABLATION)
        svds = [shape for name, shape in calls if name == "truncated_svd"]
        assert sorted(svds) == [(2, 32, 64), (2, 64, 32), (6, 32, 64), (6, 64, 32)]
        assert [name for name, _ in calls].count("top_singular_pair") == 2 * 5
        monkeypatch.undo()
        self._assert_fitted_alone(m, spec, self.ABLATION)

    def test_one_context_makes_one_call_per_branch_type(self, monkeypatch):
        m = gen_model(ModelSpec(4, (64,) * 5, seed=3))
        calls = self._count_fit_calls(monkeypatch)
        quantized_layer(m, 0, 3)
        assert calls == [("truncated_svd", (4, 64, 64)), ("top_singular_pair", (4, 4, 4, 16, 16))]

    @pytest.mark.parametrize("budget", [1, 2 * 8 * 64 * 32, 5 * 8 * 64 * 32])
    def test_stack_budget_holds_across_contexts(self, monkeypatch, budget):
        # every stacked SVD input stays within FIT_STACK_BYTES unless it
        # holds one problem, and the split fit gives the unsplit fit's bits
        spec = two_group_spec(9)
        whole = gen_model(spec)
        fit_all(whole, self.ABLATION)
        monkeypatch.setattr(toymodel, "FIT_STACK_BYTES", budget)
        calls = self._count_fit_calls(monkeypatch)
        split = gen_model(spec)
        fit_all(split, self.ABLATION)
        problems = [shape[0] for _, shape in calls]
        assert all(p == 1 or p * 8 * 64 * 32 <= budget for p in problems), calls
        assert (max(problems) > 1) == (budget >= 2 * 8 * 64 * 32)  # still stacked where it may
        assert split.fits.keys() == whole.fits.keys()
        for key, layers in whole.fits.items():
            for bits, want in layers.items():
                got = split.fits[key][bits]
                assert got.weight.q.tobytes() == want.weight.q.tobytes()
                assert got.weight.scale.tobytes() == want.weight.scale.tobytes()
                assert got.weight.delta == want.weight.delta
                for got_f, want_f in zip(got.branches.pair, want.branches.pair):
                    assert got_f.tobytes() == want_f.tobytes()

    def test_non_convergence_names_the_layers(self, monkeypatch):
        # with a zero residual bound every fit fails its check
        monkeypatch.setattr(linalg, "SVD_RESIDUAL_FACTOR", 0.0)
        m = gen_model(two_group_spec(7))
        with pytest.raises(ConvergenceError, match=r"^branch fit of layers 0, 2: SVD residual") as err:
            quantized_layer(m, 3, 3)
        assert err.value.residual > 0.0
        assert m.fits == {}


class TestCalibration:
    def test_inputs_come_from_tagged_streams(self):
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 3, 123)
        want = gaussian_stream(substream(123, TAG_CALIB, 1), 32)
        assert np.array_equal(c.input_matrix[1], want)

    def test_outputs_are_dense_forward(self):
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 4, 5)
        want = forward_batch(m, {i: 32 for i in range(4)}, c.input_matrix)
        assert np.array_equal(c.output_matrix, want)

    @pytest.mark.parametrize("name", ["input_matrix", "output_matrix"])
    def test_matrices_are_read_only(self, name):
        # the eval cache's scope is the input matrix by identity: a write
        # into either matrix would leave its memo stale
        c = gen_calibration(gen_model(exhaustive_spec(1)), 4, 5)
        with pytest.raises(ValueError, match="read-only"):
            getattr(c, name)[:] *= 2

    def test_dense_forward_leaves_the_input_matrix_as_scope(self):
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 4, 5)
        assert np.array_equal(m.eval_cache.acts[0], c.input_matrix)

    def test_rejects_empty(self):
        m = gen_model(exhaustive_spec(1))
        with pytest.raises(InvalidDimensionError):
            gen_calibration(m, 0, 5)

    @pytest.mark.parametrize("count", [2.5, "3", True], ids=["2.5", "str", "True"])
    def test_count_must_be_an_integer(self, count):
        # as for the seed: a bool is an int, and True would draw one row
        m = gen_model(exhaustive_spec(1))
        with pytest.raises(InvalidDimensionError, match="count must be an integer"):
            gen_calibration(m, count, 7)

    @pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["-1", "2^64"])
    def test_rejects_seed_outside_64_bits(self, seed):
        # as ModelSpec does: the generator would reduce it mod 2^64
        m = gen_model(exhaustive_spec(1))
        with pytest.raises(InvalidDimensionError, match="seed must fit in 64 bits"):
            gen_calibration(m, 4, seed)

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1], ids=["0", "2^64-1"])
    def test_accepts_seed_at_either_end_of_64_bits(self, seed):
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 4, seed)
        assert c.seed == seed and c.input_matrix.shape == (4, m.dims[0])


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

    def test_memoized(self, monkeypatch):
        m = gen_model(exhaustive_spec(9))
        c = gen_calibration(m, 8, 2)
        forwards = count_forwards(monkeypatch, m)
        alloc = {0: 2, 1: 3, 2: 4, 3: 5}
        first = end_to_end_mse(m, alloc, c)
        assert len(forwards) == 1
        assert end_to_end_mse(m, dict(reversed(alloc.items())), c) == first
        assert len(forwards) == 1

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

    def test_frozen_value_on_oracle_deltas(self, monkeypatch):
        # the whole chain on the scipy table in place of the calibrated one
        table = {b: stationary_delta(b) for b in QUANT_BITS}
        monkeypatch.setattr(quantizer, "default_delta_table", lambda: table)
        m = gen_model(exhaustive_spec(1))
        c = gen_calibration(m, 8, 9)
        got = end_to_end_mse(m, {0: 3, 1: 4, 2: 2, 3: 5}, c)
        assert quantized_layer(m, 0, 3).weight.delta == table[3]
        assert got == pytest.approx(0.4514087110541004, rel=1e-13)

    def test_non_finite_result_raises_and_is_not_memoized(self, monkeypatch):
        # no check sees the last layer's output but the result's own: a NaN
        # there would otherwise come back, and be memoized, as the indicator
        m = gen_model(exhaustive_spec(9))
        c = gen_calibration(m, 8, 2)
        alloc = {0: 2, 1: 3, 2: 4, 3: 5}
        run = toymodel.forward_quantized_batch

        def nan_at_layer_3(layer, xs, half):
            out = run(layer, xs, half)
            if layer is quantized_layer(m, 3, 5):
                out[0, 0] = np.nan
            return out

        monkeypatch.setattr(toymodel, "forward_quantized_batch", nan_at_layer_3)
        with pytest.raises(InvalidDimensionError, match=r"allocation \[2, 3, 4, 5\] gives a non-finite"):
            end_to_end_mse(m, alloc, c)
        assert (2, 3, 4, 5) not in m.eval_cache.mse
        monkeypatch.undo()
        assert end_to_end_mse(m, alloc, c) == end_to_end_mse(_fresh(m), alloc, c)

    def test_a_hit_accepts_only_what_a_miss_accepts(self, monkeypatch):
        # the allocation is checked before the memo lookup: a dict takes True
        # and 1.0 for layer 1, and `in` takes 3.0 for 3 bits, but alloc_bits
        # does not, so a memoized tuple answers none of them
        m = gen_model(ModelSpec(3, (32,) * 4, 1))
        c = gen_calibration(m, 4, 5)
        forwards = count_forwards(monkeypatch, m)
        first = end_to_end_mse(m, {0: 3, 1: 3, 2: 3}, c)
        for alloc, message in [
            ({0: 3, True: 3, 2: 3}, "allocation names unknown layer True"),
            ({0: 3, 1.0: 3, 2: 3}, "allocation names unknown layer 1.0"),
            ({0: 3, 1: 3.0, 2: 3}, "layer 1 bits must be an integer, got 3.0"),
        ]:
            with pytest.raises(InvalidBitsError, match=message):
                end_to_end_mse(m, alloc, c)
        assert end_to_end_mse(m, {0: 3, np.int64(1): np.int64(3), 2: 3}, c) == first
        assert len(forwards) == 1
        assert [tuple(map(type, key)) for key in m.eval_cache.mse] == [(int, int, int)]

    def test_rejected_allocation_runs_no_forward(self, monkeypatch):
        m = gen_model(exhaustive_spec(9))
        c = gen_calibration(m, 8, 2)
        forwards = count_forwards(monkeypatch, m)
        missing, bad_bits = {0: 2, 1: 3, 2: 4}, {0: 2, 1: 3, 2: 4, 3: 16}
        for alloc in (missing, bad_bits, {0: 2, 1: 3, 2: 4, 3: 5, 4: 5}):
            with pytest.raises(InvalidBitsError):
                end_to_end_mse(m, alloc, c)
        assert forwards == []


def count_forwards(monkeypatch, model):
    """A list that gains an entry per ``forward_batch`` call on ``model``.

    ``end_to_end_mse`` runs one forward per memo miss and none on a hit.
    """
    calls = []
    run = toymodel.forward_batch

    def counted(m, *args, **kwargs):
        if m is model:
            calls.append(1)
        return run(m, *args, **kwargs)

    monkeypatch.setattr(toymodel, "forward_batch", counted)
    return calls


def _fresh(model):
    """A model sharing ``model``'s weights and layer fits but not its EvalCache."""
    return ToyModel(
        spec=model.spec,
        weights=model.weights,
        fits=model.fits,
    )


def _shared_prefix(a, b):
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    return n


class TestEvalCache:
    def test_bit_identical_to_fresh_model(self, monkeypatch):
        m = gen_model(exhaustive_spec(2))
        calibs = [gen_calibration(m, 8, 3), gen_calibration(m, 8, 4)]
        forwards = count_forwards(monkeypatch, m)
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
        assert len(forwards) < 80  # some evaluations were memo hits

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

        def fail_at_layer_2(layer, xs, half):
            if layer is quantized_layer(m, 2, 5):
                raise RuntimeError("fit failed")
            return run(layer, xs, half)

        monkeypatch.setattr(toymodel, "forward_quantized_batch", fail_at_layer_2)
        with pytest.raises(RuntimeError):
            end_to_end_mse(m, b, c)
        monkeypatch.undo()
        assert len(m.eval_cache.acts) == len(m.eval_cache.bits) + 1
        assert len(m.eval_cache.halves) == len(m.eval_cache.acts)
        for alloc in (b, a):
            assert end_to_end_mse(m, alloc, c) == end_to_end_mse(_fresh(m), alloc, c)

    def test_resumed_forward_equals_fresh_at_every_level_and_width(self):
        # each evaluation resumes at level j from the activation and the
        # half an evaluation at another width left there
        m = gen_model(ModelSpec(n_layers=6, dims=(32,) * 7, seed=4,
                                outlier_fraction=0.02, outlier_scale=8.0))
        c = gen_calibration(m, 8, 3)
        base = {i: 3 for i in range(6)}
        for j in range(6):
            for b in (2, 3, 4, 5, 32):
                forward_batch(m, base, c.input_matrix)
                alloc = dict(base)
                alloc[j] = b
                got = forward_batch(m, alloc, c.input_matrix)
                want = forward_batch(_fresh(m), alloc, c.input_matrix)
                assert got.tobytes() == want.tobytes(), (j, b)

    def test_allocations_that_differ_at_one_layer_share_its_half(self, monkeypatch):
        m = gen_model(exhaustive_spec(2))
        c = gen_calibration(m, 8, 3)
        layer_of = {id(quantized_layer(m, i, 3).branches): i for i in range(4)}
        filled = []
        fill = branches.LayerHalf.fill

        def counted(half, xs, fit):
            filled.append(layer_of[id(fit)])
            fill(half, xs, fit)

        monkeypatch.setattr(branches.LayerHalf, "fill", counted)
        for j in range(4):
            fresh = _fresh(m)
            filled.clear()
            for b in (2, 3, 4, 5):
                end_to_end_mse(fresh, {i: b if i == j else 3 for i in range(4)}, c)
            # layers up to j fill their half once, layer j's serving all four
            # widths, and each later layer fills one per width, on a new input
            assert [filled.count(i) for i in range(4)] == [1] * (j + 1) + [4] * (3 - j)
            assert fresh.eval_cache.halves[j].xs is fresh.eval_cache.acts[j]

    def test_never_holds_more_halves_than_activations(self):
        m = gen_model(exhaustive_spec(2))
        calibs = [gen_calibration(m, 8, 3), gen_calibration(m, 8, 4)]
        cache = m.eval_cache
        rng = np.random.default_rng(2)
        for _ in range(60):
            alloc = {i: int(rng.choice((2, 3, 5, 32))) for i in range(4)}
            end_to_end_mse(m, alloc, calibs[int(rng.integers(2))])
            assert len(cache.halves) == len(cache.acts) == len(cache.bits) + 1
            for act, half in zip(cache.acts, cache.halves):
                assert half.xs is None or half.xs is act

    def test_holds_one_scope_after_searches(self, monkeypatch):
        m = gen_model(ModelSpec(n_layers=3, dims=(16,) * 4, seed=1))
        cache = m.eval_cache
        forwards = count_forwards(monkeypatch, m)
        for seed in range(5):
            calib = gen_calibration(m, 8, seed)
            forwards.clear()
            tss_search(m, SearchParams(calib=calib, k=4))
            assert np.array_equal(cache.acts[0], calib.input_matrix)
            assert len(cache.acts) <= m.n_layers
            # the memo holds this search's evaluations and nothing older
            assert len(cache.mse) == len(forwards) > 0

    @pytest.mark.parametrize("view", [False, True], ids=["writable", "read-only-view"])
    def test_input_written_between_forwards(self, view):
        # a forward resumes only from the input it was given: neither a
        # writable matrix nor a read-only view of a writable base keeps
        # the scope once it is written
        m = gen_model(ModelSpec(n_layers=3, dims=(32,) * 4, seed=1))
        base = np.ones((4, 32))
        xs = base
        if view:
            xs = base.view()
            xs.setflags(write=False)
        forward_batch(m, {0: 3, 1: 3, 2: 3}, xs)
        base[:] = 2.0
        b = {0: 3, 1: 3, 2: 4}
        assert np.array_equal(forward_batch(m, b, xs), forward_batch(_fresh(m), b, xs))

    def test_calibration_matrix_written_between_evaluations(self):
        m = gen_model(ModelSpec(n_layers=3, dims=(32,) * 4, seed=1))
        xs = np.ones((4, 32))
        calib = CalibrationSet(input_matrix=xs, output_matrix=np.zeros((4, 32)), seed=0)
        alloc = {0: 3, 1: 3, 2: 3}
        end_to_end_mse(m, alloc, calib)
        xs[:] = 2.0
        assert end_to_end_mse(m, alloc, calib) == end_to_end_mse(_fresh(m), alloc, calib)

    def test_calibration_matrix_made_writable_again(self):
        # the cache keys on both matrices by identity, so neither may be
        # made writable again, in a drawn set or in a hand-built one
        m = gen_model(ModelSpec(n_layers=3, dims=(32,) * 4, seed=1))
        drawn = gen_calibration(m, 4, 5)
        built = CalibrationSet(input_matrix=np.ones((4, 32)), output_matrix=np.zeros((4, 32)), seed=0)
        for c in (drawn, built):
            for matrix in (c.input_matrix, c.output_matrix):
                with pytest.raises(ValueError):
                    matrix.setflags(write=True)

    def test_scope_is_the_calibration_matrices_themselves(self):
        # the cache keeps no copy of its own: a search leaves the set's
        # very matrices as the scope and the memo's target
        m = gen_model(ModelSpec(n_layers=3, dims=(16,) * 4, seed=1))
        c = gen_calibration(m, 8, 2)
        tss_search(m, SearchParams(calib=c, k=4))
        assert m.eval_cache.acts[0] is c.input_matrix
        assert m.eval_cache.target is c.output_matrix

    def test_equal_inputs_with_other_targets_do_not_alias(self):
        # a calibration set's inputs depend only on its seed and width, so
        # another model's set of that seed has the same inputs and other
        # dense outputs: its MSE is not the memo of the first set's
        m = gen_model(ModelSpec(n_layers=3, dims=(32,) * 4, seed=1))
        other = gen_model(ModelSpec(n_layers=3, dims=(32,) * 4, seed=2))
        a, b = gen_calibration(m, 4, 5), gen_calibration(other, 4, 5)
        assert np.array_equal(a.input_matrix, b.input_matrix)
        alloc = {0: 3, 1: 3, 2: 3}
        end_to_end_mse(m, alloc, a)
        assert end_to_end_mse(m, alloc, b) == end_to_end_mse(_fresh(m), alloc, b)
        assert end_to_end_mse(m, alloc, a) == end_to_end_mse(_fresh(m), alloc, a)

    def test_equal_calibration_keys_do_not_alias(self):
        m = gen_model(exhaustive_spec(2))
        a = gen_calibration(m, 8, 3)
        b = dataclasses.replace(gen_calibration(m, 8, 4), seed=3)
        assert (a.seed, len(a.input_matrix)) == (b.seed, len(b.input_matrix))
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
