"""Low-rank and block-factored branch tests.

Per-block correctness is checked against numpy's SVD (test-only oracle);
the factored form is checked against the dense block assembly it must equal.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from treeq import branches
from treeq.branches import (
    Branches,
    GmbFactors,
    LrbFactors,
    QuantizedLinear,
    assemble_layer,
    branch_decomposition,
    forward_quantized_batch,
    gmb_budget_partitions,
    gmb_build_factored,
    gmb_decompose,
    gmb_permutation,
    gmb_reconstruct_blocks,
    init_lrb,
    lrb_fitted_first,
    permutation_matrix,
    qlinear_from_json,
    qlinear_to_json,
    quantize_layer,
    residual_product,
)
from treeq.errors import (
    InvalidBitsError,
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from treeq.linalg import hadamard, matmul, top_singular_pair
from treeq.quantizer import (
    DeltaTable,
    WeightGrid,
    default_delta_table,
    quantize_rotated_batch,
)

from conftest import seeded_matrix
from oracles import round_half_away


class TestLrb:
    def test_rank_zero_is_empty(self):
        f = init_lrb(seeded_matrix(4, 6, seed=0), 0)
        assert f.rank == 0
        assert np.array_equal(f.product(), np.zeros((4, 6)))

    def test_full_rank_recovers_matrix(self):
        m = seeded_matrix(5, 5, seed=1)
        f = init_lrb(m, 5)
        assert np.allclose(f.product(), m, atol=1e-10)

    def test_truncation_error_is_optimal(self):
        # Eckart-Young: no rank-r matrix comes closer in Frobenius norm.
        m = seeded_matrix(8, 8, seed=2)
        sig = np.linalg.svd(m, compute_uv=False)
        for r in (1, 3, 5):
            err = np.linalg.norm(m - init_lrb(m, r).product())
            assert err == pytest.approx(np.sqrt(np.sum(sig[r:] ** 2)), abs=1e-9)

    def test_a_absorbs_singular_values(self):
        m = seeded_matrix(6, 4, seed=3)
        f = init_lrb(m, 3)
        sig = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(np.linalg.norm(f.a, axis=0), sig[:3], atol=1e-10)
        # b rows stay unit length
        assert np.allclose(np.linalg.norm(f.b, axis=1), 1.0, atol=1e-10)

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            init_lrb(np.ones((3, 4)), 4)
        with pytest.raises(InvalidRankError):
            init_lrb(np.ones((3, 4)), -1)


class TestGmbPartition:
    def test_budget_identity(self):
        # n_i*n_o*(b_i+b_o) == r*(n_o*b_o + n_i*b_i) at n_i = n_o = r
        for n_out, n_in, r in [(8, 8, 4), (16, 8, 4), (32, 64, 8), (6, 9, 3)]:
            n_o, n_i = gmb_budget_partitions(n_out, n_in, r)
            assert (n_o, n_i) == (r, r)
            b_o, b_i = n_out // n_o, n_in // n_i
            assert n_i * n_o * (b_i + b_o) == r * (n_o * b_o + n_i * b_i)

    def test_zero_rank(self):
        assert gmb_budget_partitions(8, 8, 0) == (0, 0)

    def test_indivisible(self):
        with pytest.raises(InvalidPartitionError):
            gmb_budget_partitions(8, 6, 4)

    def test_rank_too_large(self):
        with pytest.raises(InvalidRankError):
            gmb_budget_partitions(4, 4, 8)


class TestGmbDecompose:
    def test_blocks_match_svd_oracle(self):
        m = seeded_matrix(12, 8, seed=4)
        f = gmb_decompose(m, 4, 2)
        for j in range(4):
            for k in range(2):
                block = m[j * 3 : (j + 1) * 3, k * 4 : (k + 1) * 4]
                s = np.linalg.svd(block, compute_uv=False)[0]
                assert f.sigma[j, k] == pytest.approx(s, abs=1e-8)
                rank1 = f.sigma[j, k] * np.outer(f.u[j, k], f.v[j, k])
                best = None
                u_, s_, vt_ = np.linalg.svd(block)
                best = s_[0] * np.outer(u_[:, 0], vt_[0])
                assert np.allclose(rank1, best, atol=1e-8)

    def test_reconstruct_shape_and_content(self):
        m = seeded_matrix(6, 6, seed=5)
        f = gmb_decompose(m, 3, 3)
        dense = gmb_reconstruct_blocks(f)
        assert dense.shape == (6, 6)
        blk = f.sigma[1, 2] * np.outer(f.u[1, 2], f.v[1, 2])
        assert np.allclose(dense[2:4, 4:6], blk, atol=1e-12)

    def test_block_approx_never_worse_than_zero(self):
        # Each rank-1 block is the best rank-1 fit, so it cannot increase
        # the per-block error over leaving the block at zero.
        m = seeded_matrix(8, 8, seed=6)
        f = gmb_decompose(m, 2, 2)
        dense = gmb_reconstruct_blocks(f)
        assert np.linalg.norm(m - dense) <= np.linalg.norm(m)

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartitionError):
            gmb_decompose(np.ones((6, 6)), 4, 2)

    @pytest.mark.parametrize("shape,grid", [((12, 8), (4, 2)), ((8, 16), (2, 2)), ((9, 9), (3, 3))])
    def test_equals_per_block_loop_bit_for_bit(self, shape, grid):
        m = seeded_matrix(*shape, seed=shape[1] + 13)
        n_o, n_i = grid
        b_o, b_i = shape[0] // n_o, shape[1] // n_i
        m[:b_o, b_i : 2 * b_i] = 0.0  # a zero block among live ones
        f = gmb_decompose(m, n_o, n_i)
        for j in range(n_o):
            for k in range(n_i):
                block = m[j * b_o : (j + 1) * b_o, k * b_i : (k + 1) * b_i]
                s, u, v = top_singular_pair(block)
                assert f.sigma[j, k].tobytes() == np.float64(s).tobytes()
                assert f.u[j, k].tobytes() == u.tobytes()
                assert f.v[j, k].tobytes() == v.tobytes()
        assert f.sigma[0, 1] == 0.0
        assert np.array_equal(f.u[0, 1], np.eye(b_o)[0])
        assert np.array_equal(f.v[0, 1], np.eye(b_i)[0])


class TestGmbFactored:
    def test_permutation_formula(self):
        perm = gmb_permutation(2, 3)
        # position k*n_o + j holds j*n_i + k
        want = np.empty(6, dtype=np.int64)
        for j in range(2):
            for k in range(3):
                want[k * 2 + j] = j * 3 + k
        assert np.array_equal(perm, want)

    def test_permutation_matrix_is_orthogonal(self):
        p = permutation_matrix(gmb_permutation(3, 4))
        assert np.array_equal(p @ p.T, np.eye(12))

    @pytest.mark.parametrize(
        "shape,grid",
        [((8, 8), (2, 2)), ((12, 8), (4, 2)), ((6, 9), (3, 3)), ((16, 4), (2, 4))],
    )
    def test_factored_equals_assembly(self, shape, grid):
        m = seeded_matrix(*shape, seed=shape[0] * 10 + grid[0])
        f = gmb_decompose(m, *grid)
        l, perm, r = gmb_build_factored(f)
        dense = matmul(matmul(l, permutation_matrix(perm)), r)
        assert np.array_equal(dense, gmb_reconstruct_blocks(f))

    def test_factor_shapes(self):
        f = gmb_decompose(seeded_matrix(12, 8, seed=7), 4, 2)
        l, perm, r = gmb_build_factored(f)
        assert l.shape == (12, 8)  # (n_o*b_o, n_i*n_o)
        assert r.shape == (8, 8)  # (n_i*n_o, n_i*b_i)
        assert perm.shape == (8,)


class TestBranchDecomposition:
    def test_residual_reassembles(self):
        w = seeded_matrix(16, 16, seed=9)
        h = hadamard(16)
        lrb, gmb, w_res = branch_decomposition(w, 4, 4, h)
        w_h = matmul(w, h)
        total = lrb.product() + gmb_reconstruct_blocks(gmb) + w_res
        assert np.allclose(total, w_h, atol=1e-12)

    @pytest.mark.parametrize("placement", ["post", "pre"])
    def test_residual_and_branch_matrices_reassemble_the_rotated_weight(
        self, suite_models, placement
    ):
        # w_res + post (+ pre @ H under "pre") is W @ H: all a layer adds
        # back to its quantized residual is the branches' own matrices
        h = hadamard(64)
        worst = 0.0
        for model in suite_models.values():
            stack = np.stack(model.weights)
            fits = branch_decomposition(stack, 16, 4, h, placement=placement)
            for w, (lrb, gmb, w_res) in zip(stack, fits):
                fit = Branches(lrb, gmb, placement)
                total = w_res + fit.post
                if fit.pre is not None:
                    total += matmul(fit.pre, h)
                worst = max(worst, float(np.max(np.abs(total - matmul(w, h)))))
        assert worst <= 1e-14

    def test_gmb_reduces_residual(self):
        w = seeded_matrix(16, 16, seed=10)
        h = hadamard(16)
        lrb, gmb, w_res = branch_decomposition(w, 4, 4, h)
        _, _, res_no = branch_decomposition(w, 4, 0, h)
        assert np.linalg.norm(w_res) <= np.linalg.norm(res_no)

    def test_pre_placement_accounts_for_rotation(self):
        w = seeded_matrix(8, 8, seed=11)
        h = hadamard(8)
        lrb, gmb, w_res = branch_decomposition(w, 2, 2, h, placement="pre")
        shadow = matmul(gmb_reconstruct_blocks(gmb), h)
        assert np.allclose(
            w_res + lrb.product() + shadow, matmul(w, h), atol=1e-12
        )

    def test_order_changes_split(self):
        w = seeded_matrix(8, 8, seed=12)
        h = hadamard(8)
        a = branch_decomposition(w, 2, 2, h, order="lrb_first")
        b = branch_decomposition(w, 2, 2, h, order="gmb_first")
        assert not np.allclose(a[0].product(), b[0].product())

    @pytest.mark.parametrize(
        "kwargs,first",
        [
            ({"r_gmb": 0}, True),
            ({"order": "lrb_first"}, True),
            ({"order": "gmb_first"}, False),
            ({"placement": "pre"}, False),
        ],
    )
    def test_given_lrb_replaces_the_first_fit(self, kwargs, first):
        w = seeded_matrix(16, 16, seed=14)
        h = hadamard(16)
        kwargs = dict(kwargs)
        r_gmb = kwargs.pop("r_gmb", 4)
        assert lrb_fitted_first(r_gmb, **kwargs) is first
        fresh = branch_decomposition(w, 4, r_gmb, h, **kwargs)
        shared = init_lrb(matmul(w, h), 4)
        reused = branch_decomposition(w, 4, r_gmb, h, lrb=shared, **kwargs)
        assert (reused[0] is shared) is first
        assert np.array_equal(fresh[0].a, reused[0].a)
        assert np.array_equal(fresh[0].b, reused[0].b)
        assert np.array_equal(fresh[2], reused[2])

    def test_rejects_lrb_of_wrong_rank(self):
        w = seeded_matrix(8, 8, seed=15)
        h = hadamard(8)
        with pytest.raises(InvalidRankError):
            branch_decomposition(w, 2, 2, h, lrb=init_lrb(matmul(w, h), 3))

    def test_rejects_unknown_order(self):
        with pytest.raises(InvalidPartitionError):
            branch_decomposition(np.ones((4, 4)), 1, 1, hadamard(4), order="both")

    def test_rejects_mismatched_hadamard(self):
        with pytest.raises(InvalidDimensionError):
            branch_decomposition(np.ones((4, 8)), 1, 1, hadamard(4))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


PIPELINES = [{"r_gmb": 0}, {"order": "lrb_first"}, {"order": "gmb_first"}, {"placement": "pre"}]


class TestStackedDecomposition:
    @pytest.mark.parametrize("kwargs", PIPELINES)
    def test_stack_equals_each_weight_alone(self, kwargs):
        stack = np.stack([seeded_matrix(16, 32, seed=30 + k) for k in range(5)])
        stack[3] *= 1e-3  # its own number of sweeps
        h = hadamard(32)
        kwargs = dict(kwargs)
        r_gmb = kwargs.pop("r_gmb", 4)
        fits = branch_decomposition(stack, 4, r_gmb, h, **kwargs)
        assert len(fits) == 5
        placement = kwargs.get("placement", "post")
        for k, (lrb, gmb, w_res) in enumerate(fits):
            a_lrb, a_gmb, a_res = branch_decomposition(stack[k], 4, r_gmb, h, **kwargs)
            assert same_bits(lrb.a, a_lrb.a) and same_bits(lrb.b, a_lrb.b)
            assert same_bits(w_res, a_res)
            assert (gmb is None) == (a_gmb is None) == (r_gmb == 0)
            if gmb is not None:
                assert same_bits(gmb.sigma, a_gmb.sigma)
                assert same_bits(gmb.u, a_gmb.u) and same_bits(gmb.v, a_gmb.v)
            layer = assemble_layer(w_res, Branches(lrb, gmb, placement), 3)
            alone = assemble_layer(a_res, Branches(a_lrb, a_gmb, placement), 3)
            assert same_bits(layer.weight.dense(), alone.weight.dense())
            assert same_bits(layer.branches.post, alone.branches.post)

    def test_one_svd_call_per_branch_type(self, monkeypatch):
        calls = []
        for name in ("truncated_svd", "top_singular_pair"):
            fit = getattr(branches, name)
            monkeypatch.setattr(
                branches, name, lambda m, *a, _f=fit, _n=name: calls.append((_n, m.shape)) or _f(m, *a)
            )
        stack = np.stack([seeded_matrix(16, 16, seed=50 + k) for k in range(3)])
        branch_decomposition(stack, 4, 4, hadamard(16), order="gmb_first")
        assert calls == [("top_singular_pair", (3, 4, 4, 4, 4)), ("truncated_svd", (3, 16, 16))]

    def test_given_lrbs_must_match_the_stack(self):
        stack = np.stack([seeded_matrix(8, 8, seed=60 + k) for k in range(2)])
        h = hadamard(8)
        lrbs = [init_lrb(matmul(w, h), 2) for w in stack]
        with pytest.raises(InvalidRankError):
            branch_decomposition(stack, 2, 2, h, lrb=lrbs[:1])
        reused = branch_decomposition(stack, 2, 2, h, lrb=lrbs)
        assert all(fit[0] is given for fit, given in zip(reused, lrbs))


class TestQuantizedLayer:
    def test_forward_reference(self):
        # Hand-compute the three-term forward for one token; the residual
        # term is the int64 product of the two grids, then the two steps.
        w = seeded_matrix(8, 8, seed=13)
        h = hadamard(8)
        layer = quantize_layer(w, 3, 2, 2, h)
        x = seeded_matrix(1, 8, seed=14)
        rot = np.einsum("nj,ji->ni", x, h)
        grid, step = quantize_rotated_batch(rot, 3)
        ints = grid.astype(np.int64) @ layer.weight.q.astype(np.int64).T
        want = (
            ints * step[:, None] * layer.weight.step
            + np.einsum("nd,od->no", rot, layer.branches.post)
        )
        assert np.array_equal(forward_quantized_batch(layer, x), want)

    def test_activations_use_the_step_the_layer_was_built_with(self):
        # a layer quantized under a non-default table quantizes its
        # activations with that table's step; the forward takes no table
        w = seeded_matrix(8, 8, seed=30)
        h = hadamard(8)
        delta = 0.5  # the default 3-bit step is about 0.586
        layer = quantize_layer(w, 3, 2, 2, h, table=DeltaTable(deltas={3: delta}))
        assert layer.weight.delta == delta
        x = seeded_matrix(1, 8, seed=31)
        rot = np.einsum("nj,ji->ni", x, h)
        sigma = np.sqrt(np.mean(rot * rot, axis=1))
        grid = np.clip(round_half_away(rot / sigma[:, None] / delta), -4, 3)
        ints = grid.astype(np.int64) @ layer.weight.q.astype(np.int64).T
        want = (
            ints * (sigma * delta)[:, None] * layer.weight.step
            + np.einsum("nd,od->no", rot, layer.branches.post)
        )
        assert np.array_equal(forward_quantized_batch(layer, x), want)

    def test_vector_equals_batch_row(self):
        # one token forwarded as a one-row batch gives its row of the batch
        w = seeded_matrix(16, 16, seed=15)
        layer = quantize_layer(w, 4, 4, 4, hadamard(16))
        xs = seeded_matrix(5, 16, seed=16)
        batch = forward_quantized_batch(layer, xs)
        for i in range(5):
            assert np.array_equal(forward_quantized_batch(layer, xs[i : i + 1])[0], batch[i])

    def test_branch_improves_over_residual_only(self):
        # With branches absorbing the top singular mass, quantization error
        # on the suite-style weights must drop versus plain rotation+quant.
        w = seeded_matrix(32, 32, seed=20) + 4.0 * np.eye(32)
        h = hadamard(32)
        xs = seeded_matrix(16, 32, seed=21)
        want = np.einsum("nd,od->no", xs, w)
        with_b = quantize_layer(w, 3, 4, 4, h)
        without = quantize_layer(w, 3, 0, 0, h)
        err_with = np.mean((forward_quantized_batch(with_b, xs) - want) ** 2)
        err_without = np.mean((forward_quantized_batch(without, xs) - want) ** 2)
        assert err_with < err_without

    def test_pre_placement_forward_uses_raw_activation(self):
        w = seeded_matrix(8, 8, seed=22)
        h = hadamard(8)
        layer = quantize_layer(w, 3, 2, 2, h, placement="pre")
        assert layer.branches.pre is not None
        x = seeded_matrix(1, 8, seed=23)
        rot = np.einsum("nj,ji->ni", x, h)
        grid, step = quantize_rotated_batch(rot, 3)
        ints = grid.astype(np.int64) @ layer.weight.q.astype(np.int64).T
        want = (
            ints * step[:, None] * layer.weight.step
            + np.einsum("nd,od->no", rot, layer.branches.post)
            + np.einsum("nd,od->no", x, layer.branches.pre)
        )
        assert np.array_equal(forward_quantized_batch(layer, x), want)

    def test_width_mismatch(self):
        layer = quantize_layer(seeded_matrix(8, 8, seed=24), 3, 1, 1, hadamard(8))
        with pytest.raises(InvalidDimensionError):
            forward_quantized_batch(layer, np.ones((1, 16)))

    def test_residual_is_an_int8_grid(self):
        layer = quantize_layer(seeded_matrix(16, 16, seed=28), 8, 2, 2, hadamard(16))
        assert layer.weight.q.dtype == np.int8 and layer.weight.q.shape == (16, 16)
        assert layer.weight.scale.shape == (16,)
        assert np.array_equal(
            layer.weight.dense(), layer.weight.scale[:, None] * (layer.weight.q * layer.weight.delta)
        )


class TestExactResidualProduct:
    """The grid product is exact, so BLAS may compute it in any order."""

    @pytest.mark.parametrize("bits", [2, 3, 4, 5, 8])
    def test_float_product_equals_int64(self, bits):
        rng = np.random.default_rng(bits)
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1))
        grid = rng.integers(lo, hi, size=(64, 1024)).astype(np.float64)
        q = rng.integers(lo, hi, size=(96, 1024)).astype(np.int8)
        weight = WeightGrid(q=q, scale=np.ones(96), delta=1.0, bits=bits)
        got = residual_product(grid, np.ones(64), weight)
        want = grid.astype(np.int64) @ q.astype(np.int64).T
        assert got.tobytes() == want.astype(np.float64).tobytes()

    def test_bound_case_sums_to_two_to_the_24(self):
        # 8 bits, width 1024, both grids all -128: every term is 2^14 and
        # the row sums reach 2^24 exactly
        grid = np.full((4, 1024), -128.0)
        q = np.full((3, 1024), -128, dtype=np.int8)
        weight = WeightGrid(q=q, scale=np.ones(3), delta=1.0, bits=8)
        got = residual_product(grid, np.ones(4), weight)
        want = grid.astype(np.int64) @ q.astype(np.int64).T
        assert np.all(want == 1 << 24)
        assert got.tobytes() == want.astype(np.float64).tobytes()

    def test_steps_scale_tokens_and_rows(self):
        grid = np.array([[1.0, -2.0], [3.0, 0.0]])
        q = np.array([[1, 1], [-1, 2]], dtype=np.int8)
        weight = WeightGrid(q=q, scale=np.array([2.0, 4.0]), delta=0.5, bits=3)
        got = residual_product(grid, np.array([0.25, 8.0]), weight)
        assert np.array_equal(got, np.array([[-0.25, -2.5], [24.0, -48.0]]))

    def test_bytes_do_not_depend_on_blas_threads_or_simd_target(self):
        # One layer's residual product in three child processes.  The
        # environment variables reach only the children.
        script = (
            "import hashlib, numpy as np\n"
            "from treeq.branches import residual_product\n"
            "from treeq.quantizer import WeightGrid\n"
            "from treeq.toymodel import uniform_stream\n"
            "def ints(seed, shape, bits):\n"
            "    u = uniform_stream(seed, shape[0] * shape[1]).reshape(shape)\n"
            "    return np.floor(u * (1 << bits)) - (1 << (bits - 1))\n"
            "grid = ints(1, (64, 1024), 8)\n"
            "q = ints(2, (256, 1024), 8).astype(np.int8)\n"
            "weight = WeightGrid(q=q, scale=uniform_stream(3, 256) + 0.5, delta=0.0307, bits=8)\n"
            "out = residual_product(grid, uniform_stream(4, 64) + 0.5, weight)\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        variants = [
            {"OPENBLAS_NUM_THREADS": "1"},
            {"OPENBLAS_NUM_THREADS": "2"},
            {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
        ]
        src = os.path.dirname(os.path.dirname(branches.__file__))
        digests = []
        for extra in variants:
            env = dict(os.environ, **extra)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.split()[-1])
        assert len(set(digests)) == 1, dict(zip(map(str, variants), digests))


class TestSerialization:
    def _layer(self, **kw):
        return quantize_layer(
            seeded_matrix(8, 8, seed=25), 3, 2, 2, hadamard(8), **kw
        )

    def test_round_trip_exact(self):
        layer = self._layer()
        back = qlinear_from_json(qlinear_to_json(layer))
        assert back.weight.q.dtype == np.int8
        assert np.array_equal(back.weight.q, layer.weight.q)
        assert back.weight.scale.tobytes() == layer.weight.scale.tobytes()
        assert back.weight.delta == layer.weight.delta
        assert back.weight.dense().tobytes() == layer.weight.dense().tobytes()
        assert np.array_equal(back.branches.lrb.a, layer.branches.lrb.a)
        assert np.array_equal(back.branches.lrb.b, layer.branches.lrb.b)
        assert np.array_equal(back.branches.gmb.sigma, layer.branches.gmb.sigma)
        assert np.array_equal(back.branches.gmb.u, layer.branches.gmb.u)
        assert np.array_equal(back.branches.gmb.v, layer.branches.gmb.v)
        assert (back.weight.bits, back.weight.q.shape) == (3, (8, 8))

    def test_round_trip_forward_identical(self):
        layer = self._layer()
        back = qlinear_from_json(qlinear_to_json(layer))
        x = seeded_matrix(1, 8, seed=26)
        assert np.array_equal(
            forward_quantized_batch(back, x), forward_quantized_batch(layer, x)
        )

    def test_no_gmb(self):
        layer = quantize_layer(seeded_matrix(8, 8, seed=27), 3, 2, 0, hadamard(8))
        back = qlinear_from_json(qlinear_to_json(layer))
        assert back.branches.gmb is None

    @pytest.mark.parametrize(
        "field,value,error",
        [
            ("bits_a", 4, InvalidBitsError),
            ("n", 16, InvalidDimensionError),
            # "+" sets several fields; "w_grid" replaces the grid's first entry
            ("bits_w+bits_a", 1, InvalidBitsError),
            ("bits_w+bits_a", 32, InvalidBitsError),
            ("w_grid", 300, InvalidBitsError),
            ("w_grid", 2.7, InvalidBitsError),
            ("w_grid", 9, InvalidBitsError),
            ("w_grid", -5, InvalidBitsError),
            ("w_scale", [1.0], InvalidDimensionError),
            ("w_scale", [1.0] * 9, InvalidDimensionError),
            ("w_scale", [1.0] * 7 + [0.0], InvalidDimensionError),
            ("w_scale", [1.0] * 7 + [-1.0], InvalidDimensionError),
            ("w_scale", [1.0] * 7 + [float("inf")], InvalidDimensionError),
            ("w_scale", [1.0] * 7 + [float("nan")], InvalidDimensionError),
            ("w_delta", -1.0, InvalidBitsError),
            ("w_delta", 0.0, InvalidBitsError),
            ("w_delta", float("inf"), InvalidBitsError),
            ("gmb_placement", "sideways", InvalidPartitionError),
        ],
    )
    def test_rejects_bits_a_or_n_that_disagree_with_the_grid(self, field, value, error):
        # and every other field no quantized layer could have written
        doc = json.loads(qlinear_to_json(self._layer()))
        assert (doc["bits_a"], doc["n"], doc["w_grid"]["rows"]) == (3, 8, 8)
        if field == "w_grid":
            doc["w_grid"]["data"][0] = value
        else:
            for name in field.split("+"):
                doc[name] = value
        with pytest.raises(error):
            qlinear_from_json(json.dumps(doc))

    def test_placement_survives(self):
        layer = self._layer(placement="pre")
        back = qlinear_from_json(qlinear_to_json(layer))
        assert back.branches.placement == "pre"
        # default placement stays implicit in the document
        assert "gmb_placement" not in json.loads(qlinear_to_json(self._layer()))
