"""Low-rank and block-factored branch tests.

Per-block correctness is checked against numpy's SVD (test-only oracle);
the factor pair the forward applies is checked against the dense block
assembly it must equal.
"""

import dataclasses
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
    QuantContext,
    QuantizedLinear,
    branch_decomposition,
    factor_pair,
    fit_gmbs,
    fit_lrbs,
    forward_quantized_batch,
    gmb_budget_partitions,
    gmb_reconstruct_blocks,
    layer_half,
    quantize_fit,
    residual_product,
)
from treeq.cli import qlinear_doc
from treeq.errors import (
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from treeq.linalg import hadamard, top_singular_pair
from treeq.quantizer import (
    QUANT_BITS,
    WeightGrid,
    default_delta_table,
    quantize_rotated_batch,
    quantize_weight_channelwise,
)

from conftest import seeded_matrix
from oracles import round_half_away


def times_h(m):
    """m @ hadamard(n) as a fixed-order einsum, the rotation the fit applies."""
    return np.einsum("ij,jk->ik", m, hadamard(m.shape[1]))


def branch_term(x, pair):
    """(x @ down.T) @ up.T for a (down, up) factor pair."""
    down, up = pair
    return (x @ down.T) @ up.T


def chain_of(shape, r_lrb, r_gmb, order="lrb_first", placement="post"):
    """The chain of a context with these ranks, unscaled, on weights of ``shape``."""
    return QuantContext(r_lrb, r_gmb, order, placement, scale_ranks=False).chain(*shape[-2:])


def fit_stack(stack, r_lrb, r_gmb, order="lrb_first", placement="post"):
    """(branches, w_res) of each weight of ``stack`` under one context's chain."""
    (fits,) = branch_decomposition(stack, [chain_of(np.shape(stack), r_lrb, r_gmb, order, placement)])
    return fits


def fit_one(w, r_lrb, r_gmb, **kwargs):
    """(branches, w_res) of ``w`` alone, from the stack of that one weight."""
    return fit_stack(w[None], r_lrb, r_gmb, **kwargs)[0]


def make_layer(w, bits, r_lrb, r_gmb, **kwargs):
    """``w`` rotated, its branches peeled off, the residual quantized at ``bits``."""
    fit, w_res = fit_one(w, r_lrb, r_gmb, **kwargs)
    return quantize_fit(w_res, fit)[bits]


def matmul_forward(layer, x):
    """The forward of ``x`` by hand, with ``np.matmul`` for its float products.

    The residual term is the int64 product of the two grids, then the two
    steps; the branch term of the layer's one pair is added to it.
    """
    rot = x @ hadamard(x.shape[1])
    grid, step = quantize_rotated_batch(rot, layer.weight.bits,
                                        default_delta_table()[layer.weight.bits])
    ints = grid.astype(np.int64) @ layer.weight.q.astype(np.int64).T
    return ints * step[:, None] * layer.weight.step + branch_term(rot, layer.branches.pair)


def branch_matrices(lrb, gmb, placement):
    """(post, pre) dense matrices of a fit, rebuilt from its factors with
    ``np.einsum`` as the fit forms the matrices it subtracts."""
    post = np.einsum("ir,rj->ij", lrb.a, lrb.b)
    if gmb is None:
        return post, None
    blocks = np.einsum("jk,jko,jki->joki", gmb.sigma, gmb.u, gmb.v)
    blocks = blocks.reshape(gmb.n_o * gmb.b_o, gmb.n_i * gmb.b_i)
    return (post, blocks) if placement == "pre" else (post + blocks, None)


class TestLrb:
    """``fit_lrbs`` on stacks; each fit is checked against its own matrix."""

    def test_rank_zero_is_empty(self):
        stack = np.stack([seeded_matrix(4, 6, seed=k) for k in range(2)])
        fits, images = fit_lrbs(stack, 0)
        for f in fits:
            assert f.rank == 0
            assert np.array_equal(f.a @ f.b, np.zeros((4, 6)))
        assert np.array_equal(images, np.zeros((2, 4, 6)))

    def test_full_rank_recovers_matrix(self):
        stack = np.stack([seeded_matrix(5, 5, seed=1 + 10 * k) for k in range(3)])
        fits, images = fit_lrbs(stack, 5)
        for m, f, image in zip(stack, fits, images):
            assert np.allclose(f.a @ f.b, m, atol=1e-10)
            # the image is the fit's own product, as the fit forms it
            assert np.array_equal(image, np.einsum("ir,rj->ij", f.a, f.b))

    def test_truncation_error_is_optimal(self):
        # Eckart-Young: no rank-r matrix comes closer in Frobenius norm.
        stack = np.stack([seeded_matrix(8, 8, seed=2 + 10 * k) for k in range(3)])
        for r in (1, 3, 5):
            for m, f in zip(stack, fit_lrbs(stack, r)[0]):
                sig = np.linalg.svd(m, compute_uv=False)
                err = np.linalg.norm(m - f.a @ f.b)
                assert err == pytest.approx(np.sqrt(np.sum(sig[r:] ** 2)), abs=1e-9)

    def test_a_absorbs_singular_values(self):
        stack = np.stack([seeded_matrix(6, 4, seed=3 + 10 * k) for k in range(2)])
        for m, f in zip(stack, fit_lrbs(stack, 3)[0]):
            sig = np.linalg.svd(m, compute_uv=False)
            assert np.allclose(np.linalg.norm(f.a, axis=0), sig[:3], atol=1e-10)
            # b rows stay unit length
            assert np.allclose(np.linalg.norm(f.b, axis=1), 1.0, atol=1e-10)

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            fit_lrbs(np.ones((2, 3, 4)), 4)
        with pytest.raises(InvalidRankError):
            fit_lrbs(np.ones((2, 3, 4)), -1)


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
    """``fit_gmbs`` on stacks; each fit is checked against its own matrix."""

    def test_blocks_match_svd_oracle(self):
        stack = np.stack([seeded_matrix(12, 8, seed=4 + 10 * k) for k in range(2)])
        fits, _ = fit_gmbs(stack, 4, 2)
        for m, f in zip(stack, fits):
            for j in range(4):
                for k in range(2):
                    block = m[j * 3 : (j + 1) * 3, k * 4 : (k + 1) * 4]
                    s = np.linalg.svd(block, compute_uv=False)[0]
                    assert f.sigma[j, k] == pytest.approx(s, abs=1e-8)
                    rank1 = f.sigma[j, k] * np.outer(f.u[j, k], f.v[j, k])
                    u_, s_, vt_ = np.linalg.svd(block)
                    best = s_[0] * np.outer(u_[:, 0], vt_[0])
                    assert np.allclose(rank1, best, atol=1e-8)

    def test_reconstruct_shape_and_content(self):
        stack = seeded_matrix(6, 6, seed=5)[None]
        (f,), assembled = fit_gmbs(stack, 3, 3)
        dense = gmb_reconstruct_blocks(f)
        assert dense.shape == (6, 6)
        assert np.array_equal(assembled[0], dense)
        blk = f.sigma[1, 2] * np.outer(f.u[1, 2], f.v[1, 2])
        assert np.allclose(dense[2:4, 4:6], blk, atol=1e-12)

    def test_block_approx_never_worse_than_zero(self):
        # Each rank-1 block is the best rank-1 fit, so it cannot increase
        # the per-block error over leaving the block at zero.
        stack = np.stack([seeded_matrix(8, 8, seed=6 + 10 * k) for k in range(2)])
        _, dense = fit_gmbs(stack, 2, 2)
        for m, d in zip(stack, dense):
            assert np.linalg.norm(m - d) <= np.linalg.norm(m)

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartitionError):
            fit_gmbs(np.ones((1, 6, 6)), 4, 2)

    @pytest.mark.parametrize("shape,grid", [((12, 8), (4, 2)), ((8, 16), (2, 2)), ((9, 9), (3, 3))])
    def test_equals_per_block_loop_bit_for_bit(self, shape, grid):
        m = seeded_matrix(*shape, seed=shape[1] + 13)
        n_o, n_i = grid
        b_o, b_i = shape[0] // n_o, shape[1] // n_i
        m[:b_o, b_i : 2 * b_i] = 0.0  # a zero block among live ones
        (f,), _ = fit_gmbs(m[None], n_o, n_i)
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
    @pytest.mark.parametrize(
        "shape,grid",
        [((8, 8), (2, 2)), ((12, 8), (4, 2)), ((6, 9), (3, 3)), ((16, 4), (2, 4))],
    )
    def test_factored_equals_assembly(self, shape, grid):
        m = seeded_matrix(*shape, seed=shape[0] * 10 + grid[0])
        (f,), _ = fit_gmbs(m[None], *grid)
        (empty,), _ = fit_lrbs(m[None], 0)
        down, up = factor_pair(empty, f)
        assert np.array_equal(up @ down, gmb_reconstruct_blocks(f))

    def test_factor_shapes(self):
        (f,), _ = fit_gmbs(seeded_matrix(12, 8, seed=7)[None], 4, 2)
        (lrb,), _ = fit_lrbs(seeded_matrix(12, 8, seed=8)[None], 3)
        down, up = factor_pair(lrb, f)
        assert down.shape == (3 + 8, 8)  # (r + n_o*n_i, n_in)
        assert up.shape == (12, 3 + 8)  # (n_out, r + n_o*n_i)
        # the LRB's factors come first, as they are
        assert np.array_equal(down[:3], lrb.b) and np.array_equal(up[:, :3], lrb.a)
        # block (j, k) = (2, 1): v in input column block 1, sigma * u in output row block 2
        row = 2 * 2 + 1
        assert np.array_equal(down[3 + row], np.r_[np.zeros(4), f.v[2, 1]])
        assert np.array_equal(up[:, 3 + row], np.r_[np.zeros(6), f.sigma[2, 1] * f.u[2, 1], np.zeros(3)])


class TestBranchDecomposition:
    def test_residual_reassembles(self):
        w = seeded_matrix(16, 16, seed=9)
        fit, w_res = fit_one(w, 4, 4)
        total = fit.lrb.a @ fit.lrb.b + gmb_reconstruct_blocks(fit.gmb) + w_res
        assert np.allclose(total, times_h(w), atol=1e-12)

    @pytest.mark.parametrize("placement", ["post", "pre"])
    def test_residual_and_branch_matrices_reassemble_the_rotated_weight(
        self, suite_models, placement
    ):
        # w_res + post (+ pre @ H under "pre") is W @ H: all a layer adds
        # back to its quantized residual is the products of its factors
        worst = 0.0
        for model in suite_models.values():
            stack = np.stack(model.weights)
            fits = fit_stack(stack, 16, 4, placement=placement)
            for w, (fit, w_res) in zip(stack, fits):
                post, pre = branch_matrices(fit.lrb, fit.gmb, placement)
                total = w_res + post
                if pre is not None:
                    total += times_h(pre)
                worst = max(worst, float(np.max(np.abs(total - times_h(w)))))
        assert worst <= 1e-14

    def test_gmb_reduces_residual(self):
        w = seeded_matrix(16, 16, seed=10)
        _, w_res = fit_one(w, 4, 4)
        _, res_no = fit_one(w, 4, 0)
        assert np.linalg.norm(w_res) <= np.linalg.norm(res_no)

    def test_pre_placement_accounts_for_rotation(self):
        w = seeded_matrix(8, 8, seed=11)
        fit, w_res = fit_one(w, 2, 2, placement="pre")
        shadow = times_h(gmb_reconstruct_blocks(fit.gmb))
        assert np.allclose(
            w_res + fit.lrb.a @ fit.lrb.b + shadow, times_h(w), atol=1e-12
        )

    def test_a_chain_with_no_gmb_is_placed_post(self):
        # a fit depends on its chain alone, and a chain with no GMB names
        # no placement, so the one fit of r_gmb 0 serves "pre" contexts too
        w = seeded_matrix(16, 16, seed=16)
        chain = QuantContext(r_lrb=4, r_gmb=0, gmb_placement="pre").chain(16, 16)
        ((fit, _),) = branch_decomposition(w[None], [chain])[0]
        assert fit.gmb is None and fit.placement == "post"
        assert "gmb_placement" not in qlinear_doc(quantize_fit(np.zeros((16, 16)), fit)[3])

    def test_order_changes_split(self):
        w = seeded_matrix(8, 8, seed=12)
        a, _ = fit_one(w, 2, 2, order="lrb_first")
        b, _ = fit_one(w, 2, 2, order="gmb_first")
        assert not np.allclose(a.lrb.a @ a.lrb.b, b.lrb.a @ b.lrb.b)

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
        # fitted beside a no-GMB setting of its LRB rank, a setting whose
        # LRB is fitted first, on W_H, is given that setting's LRB
        w = seeded_matrix(16, 16, seed=14)
        kwargs = dict(kwargs)
        r_gmb = kwargs.pop("r_gmb", 4)
        chain = chain_of(w.shape, 4, r_gmb, **kwargs)
        assert (chain[0] == ("lrb", 4)) is first
        fresh, fresh_res = fit_one(w, 4, r_gmb, **kwargs)
        given, together = branch_decomposition(w[None], [(("lrb", 4),), chain])
        (shared, _), (reused, reused_res) = given[0], together[0]
        assert (reused.lrb is shared.lrb) is first
        assert np.array_equal(fresh.lrb.a, reused.lrb.a)
        assert np.array_equal(fresh.lrb.b, reused.lrb.b)
        assert same_pair(fresh.pair, reused.pair)
        assert np.array_equal(fresh_res, reused_res)

    def test_rejects_lrb_of_wrong_rank(self):
        w = seeded_matrix(8, 8, seed=15)
        with pytest.raises(InvalidRankError):
            branch_decomposition(w[None], [(("lrb", 9), ("gmb", (2, 2), "post"))])

    def test_rejects_unknown_order(self):
        with pytest.raises(InvalidPartitionError):
            fit_one(np.ones((4, 4)), 1, 1, order="both")

    def test_rejects_a_single_matrix(self):
        # a weight is fitted as a stack of one
        with pytest.raises(InvalidDimensionError, match="stack of weights"):
            fit_stack(np.ones((4, 4)), 1, 1)

    def test_rejects_width_with_no_hadamard(self):
        # the rotation is hadamard(n), which exists for powers of two only
        with pytest.raises(InvalidDimensionError, match="power of two"):
            fit_one(np.ones((4, 12)), 1, 1)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_pair(a, b):
    """Whether two factor pairs, or two Nones, hold the same bytes."""
    if a is None or b is None:
        return a is b
    return all(same_bits(x, y) for x, y in zip(a, b))


PIPELINES = [{"r_gmb": 0}, {"order": "lrb_first"}, {"order": "gmb_first"}, {"placement": "pre"}]


class TestStackedDecomposition:
    @pytest.mark.parametrize("kwargs", PIPELINES)
    def test_stack_equals_each_weight_alone(self, kwargs):
        stack = np.stack([seeded_matrix(16, 32, seed=30 + k) for k in range(5)])
        stack[3] *= 1e-3  # its own number of sweeps
        kwargs = dict(kwargs)
        r_gmb = kwargs.pop("r_gmb", 4)
        fits = fit_stack(stack, 4, r_gmb, **kwargs)
        assert len(fits) == 5
        for k, (fit, w_res) in enumerate(fits):
            a_fit, a_res = fit_stack(stack[k : k + 1], 4, r_gmb, **kwargs)[0]
            lrb, gmb, a_lrb, a_gmb = fit.lrb, fit.gmb, a_fit.lrb, a_fit.gmb
            assert same_bits(lrb.a, a_lrb.a) and same_bits(lrb.b, a_lrb.b)
            assert same_bits(w_res, a_res)
            assert (gmb is None) == (a_gmb is None) == (r_gmb == 0)
            if gmb is not None:
                assert same_bits(gmb.sigma, a_gmb.sigma)
                assert same_bits(gmb.u, a_gmb.u) and same_bits(gmb.v, a_gmb.v)
            layer = quantize_fit(w_res, fit)[3]
            alone = quantize_fit(a_res, a_fit)[3]
            assert np.array_equal(layer.weight.q, alone.weight.q)
            assert same_bits(layer.weight.scale, alone.weight.scale)
            assert layer.weight.delta == alone.weight.delta
            assert same_pair(layer.branches.pair, alone.branches.pair)

    @pytest.mark.parametrize("kwargs", PIPELINES)
    def test_branch_matrices_equal_an_einsum_of_the_factors(self, kwargs):
        # the pair the forward applies holds the fit's factors: the LRB's
        # as they are, the GMB's multiplying out to its block assembly (its
        # rows folded through H under "pre")
        stack = np.stack([seeded_matrix(16, 32, seed=40 + k) for k in range(3)])
        kwargs = dict(kwargs)
        r_gmb = kwargs.pop("r_gmb", 4)
        placement = kwargs.get("placement", "post")
        for fit, _ in fit_stack(stack, 4, r_gmb, **kwargs):
            assert fit.placement == placement
            (down, up), r = fit.pair, fit.lrb.rank
            assert same_bits(down[:r], fit.lrb.b) and same_bits(up[:, :r], fit.lrb.a)
            if fit.gmb is None:
                assert down.shape[0] == r
                continue
            assert down.shape[0] == r + fit.gmb.n_o * fit.gmb.n_i
            raw_down, raw_up = factor_pair(fit.lrb, fit.gmb)
            assert same_bits(up, raw_up)
            if placement == "pre":
                assert same_bits(down[r:], raw_down[r:] @ hadamard(32))
            else:
                assert same_bits(down, raw_down)
            assert np.array_equal(up[:, r:] @ raw_down[r:], gmb_reconstruct_blocks(fit.gmb))

    def test_one_svd_call_per_branch_type(self, monkeypatch):
        calls = []
        for name in ("truncated_svd", "top_singular_pair"):
            fit = getattr(branches, name)
            monkeypatch.setattr(
                branches, name, lambda m, *a, _f=fit, _n=name: calls.append((_n, m.shape)) or _f(m, *a)
            )
        stack = np.stack([seeded_matrix(16, 16, seed=50 + k) for k in range(3)])
        fit_stack(stack, 4, 4, order="gmb_first")
        assert calls == [("top_singular_pair", (3, 4, 4, 4, 4)), ("truncated_svd", (3, 16, 16))]

    def test_settings_share_one_call_per_stage(self, monkeypatch):
        # the eight settings of ``ablate gmb``, at ranks for a 16-wide
        # stack: the GMBs fitted first (gmb_first on W_H, pre on W) share
        # one call, the LRBs one call, and the GMBs fitted after the LRB
        # take one call per grid
        calls = []
        for name in ("truncated_svd", "top_singular_pair"):
            fit = getattr(branches, name)
            monkeypatch.setattr(
                branches, name, lambda m, *a, _f=fit, _n=name: calls.append((_n, m.shape)) or _f(m, *a)
            )
        stack = np.stack([seeded_matrix(16, 16, seed=70 + k) for k in range(2)])
        settings = [(4, r, "lrb_first", "post") for r in (0, 1, 2, 4)] + [
            (4, 1, "lrb_first", "post"), (4, 1, "gmb_first", "post"),
            (4, 1, "lrb_first", "post"), (4, 1, "lrb_first", "pre"),
        ]
        fitted = branch_decomposition(stack, [chain_of(stack.shape, *s) for s in settings])
        assert calls == [
            ("top_singular_pair", (4, 1, 1, 16, 16)),
            ("truncated_svd", (6, 16, 16)),
            ("top_singular_pair", (2, 1, 1, 16, 16)),
            ("top_singular_pair", (2, 2, 2, 8, 8)),
            ("top_singular_pair", (2, 4, 4, 4, 4)),
        ]
        assert len(fitted) == len(settings)
        for setting, fits in zip(settings, fitted):
            for k, (fit, w_res) in enumerate(fits):
                alone, alone_res = fit_one(stack[k], *setting[:2], order=setting[2],
                                           placement=setting[3])
                assert same_bits(fit.lrb.a, alone.lrb.a) and same_bits(fit.lrb.b, alone.lrb.b)
                assert same_bits(w_res, alone_res)
                assert same_pair(fit.pair, alone.pair)
                if fit.gmb is not None:
                    assert same_bits(fit.gmb.sigma, alone.gmb.sigma)
                    assert same_bits(fit.gmb.u, alone.gmb.u) and same_bits(fit.gmb.v, alone.gmb.v)
        # settings that differ only in GMB rank share the LRB fitted on W_H
        assert all(fitted[j][k][0].lrb is fitted[0][k][0].lrb for j in (1, 2, 3) for k in (0, 1))

    def test_gmb_fitted_first_is_one_problem_across_lrb_ranks(self, monkeypatch):
        # both settings start with the same GMB on W_H: one block call fits
        # it for both, and each LRB rank then takes its own call
        calls = []
        for name in ("truncated_svd", "top_singular_pair"):
            fit = getattr(branches, name)
            monkeypatch.setattr(
                branches, name, lambda m, *a, _f=fit, _n=name: calls.append((_n, m.shape)) or _f(m, *a)
            )
        stack = np.stack([seeded_matrix(16, 16, seed=80 + k) for k in range(2)])
        settings = [(2, 4, "gmb_first", "post"), (4, 4, "gmb_first", "post")]
        fitted = branch_decomposition(stack, [chain_of(stack.shape, *s) for s in settings])
        assert calls == [
            ("top_singular_pair", (2, 4, 4, 4, 4)),
            ("truncated_svd", (2, 16, 16)),
            ("truncated_svd", (2, 16, 16)),
        ]
        assert [fits[0][0].lrb.rank for fits in fitted] == [2, 4]
        assert all(fitted[1][k][0].gmb is fitted[0][k][0].gmb for k in (0, 1))


class TestQuantizedLayer:
    def test_forward_reference(self):
        layer = make_layer(seeded_matrix(8, 8, seed=13), 3, 2, 2)
        x = seeded_matrix(1, 8, seed=14)
        assert np.array_equal(forward_quantized_batch(layer, x), matmul_forward(layer, x))

    def test_activations_use_the_step_the_layer_was_built_with(self):
        # a layer whose grid carries another step than the calibrated one
        # quantizes its activations with that step; the forward takes none
        w = seeded_matrix(8, 8, seed=30)
        h = hadamard(8)
        delta = 0.5  # the default 3-bit step is about 0.586
        built = make_layer(w, 3, 2, 2)
        weight = WeightGrid(q=built.weight.q, scale=built.weight.scale, delta=delta, bits=3)
        layer = QuantizedLinear(weight, built.branches)
        x = seeded_matrix(1, 8, seed=31)
        rot = x @ h
        sigma = np.sqrt(np.mean(rot * rot, axis=1))
        grid = np.clip(round_half_away(rot / sigma[:, None] / delta), -4, 3)
        ints = grid.astype(np.int64) @ layer.weight.q.astype(np.int64).T
        want = ints * (sigma * delta)[:, None] * layer.weight.step + branch_term(rot, layer.branches.pair)
        assert np.array_equal(forward_quantized_batch(layer, x), want)

    def test_one_row_equals_its_matmul_reference(self):
        # a one-row forward runs the same BLAS products as a hand-built
        # reference of that row; a row of a larger batch may round otherwise
        w = seeded_matrix(16, 16, seed=15)
        layer = make_layer(w, 4, 4, 4)
        xs = seeded_matrix(5, 16, seed=16)
        for i in range(5):
            x = xs[i : i + 1]
            assert np.array_equal(forward_quantized_batch(layer, x), matmul_forward(layer, x))

    def test_branch_improves_over_residual_only(self):
        # With branches absorbing the top singular mass, quantization error
        # on the suite-style weights must drop versus plain rotation+quant.
        w = seeded_matrix(32, 32, seed=20) + 4.0 * np.eye(32)
        xs = seeded_matrix(16, 32, seed=21)
        want = np.einsum("nd,od->no", xs, w)
        with_b = make_layer(w, 3, 4, 4)
        without = make_layer(w, 3, 0, 0)
        err_with = np.mean((forward_quantized_batch(with_b, xs) - want) ** 2)
        err_without = np.mean((forward_quantized_batch(without, xs) - want) ** 2)
        assert err_with < err_without

    def test_pre_placement_forward_uses_raw_activation(self):
        # the pre-placed GMB acts on the raw activation through its folded
        # rows, inside the layer's one pair on the rotated activation
        layer = make_layer(seeded_matrix(8, 8, seed=22), 3, 2, 2, placement="pre")
        assert layer.branches.placement == "pre" and layer.branches.gmb is not None
        x = seeded_matrix(1, 8, seed=23)
        assert np.array_equal(forward_quantized_batch(layer, x), matmul_forward(layer, x))

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_pre_pair_folds_the_gmb_through_the_rotation(self, n):
        # the pre pair's GMB rows are the unfolded rows @ H, bit for bit, and
        # the forward agrees with adding the GMB's term on the raw activation
        r_lrb, r_gmb = max(1, n // 16), max(1, n // 32)
        worst = 0.0
        for seed in range(5):
            w = seeded_matrix(n, n, seed=200 + seed)
            layer = make_layer(w, 4, r_lrb, r_gmb, placement="pre")
            lrb, gmb = layer.branches.lrb, layer.branches.gmb
            raw_down, raw_up = factor_pair(lrb, gmb)
            down, up = layer.branches.pair
            assert same_bits(up, raw_up) and same_bits(down[:r_lrb], raw_down[:r_lrb])
            assert same_bits(down[r_lrb:], raw_down[r_lrb:] @ hadamard(n))
            xs = seeded_matrix(16, n, seed=300 + seed)
            rot = xs @ hadamard(n)
            grid, step = quantize_rotated_batch(rot, 4, default_delta_table()[4])
            raw = residual_product(grid, step, layer.weight)
            raw += branch_term(rot, (lrb.b, lrb.a))
            raw += branch_term(xs, (raw_down[r_lrb:], raw_up[:, r_lrb:]))
            y = forward_quantized_batch(layer, xs)
            worst = max(worst, float(np.max(np.abs(y - raw)) / np.max(np.abs(y))))
        assert worst <= 1e-15

    @pytest.mark.parametrize("r_gmb,placement", [(0, "post"), (2, "post"), (2, "pre")])
    def test_pair_keeps_its_layouts(self, r_gmb, placement):
        # a float64 product's bits follow its operands' memory layouts, since
        # OpenBLAS's NN and NT kernels round differently: a Fortran-ordered
        # down moves a forward's last bits without failing any pinned value
        layer = make_layer(seeded_matrix(16, 16, seed=40), 3, 2, r_gmb, placement=placement)
        down, up = layer.branches.pair
        assert down.flags.c_contiguous
        if r_gmb == 0:
            assert up.flags.c_contiguous
        else:
            # factor_pair fills the transpose of up row by row
            assert up.T.flags.c_contiguous and not up.flags.c_contiguous

    def test_a_half_is_a_value_that_serves_every_width(self):
        # the half holds three arrays and nothing else, cannot be reassigned,
        # and a forward handed it gives the bits of one that computes its own
        w = seeded_matrix(16, 16, seed=41)
        fit, w_res = fit_one(w, 2, 2)
        layers = quantize_fit(w_res, fit)
        xs = seeded_matrix(6, 16, seed=42)
        half = layer_half(xs, fit)
        assert [f.name for f in dataclasses.fields(half)] == ["unit", "sigma", "branch"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            half.unit = half.branch
        for layer in layers.values():
            assert same_bits(forward_quantized_batch(layer, xs, half),
                             forward_quantized_batch(layer, xs))

    def test_width_mismatch(self):
        layer = make_layer(seeded_matrix(8, 8, seed=24), 3, 1, 1)
        with pytest.raises(InvalidDimensionError):
            forward_quantized_batch(layer, np.ones((1, 16)))

    def test_residual_is_an_int8_grid(self):
        layer = make_layer(seeded_matrix(16, 16, seed=28), 8, 2, 2)
        assert layer.weight.q.dtype == np.int8 and layer.weight.q.shape == (16, 16)
        assert layer.weight.scale.shape == (16,)


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

    def test_float32_grid_at_the_bound_equals_the_int64_product(self):
        # the forward's grid is float32, and so is the product: at 8 bits and
        # width 1024, both grids all -128, every row sum is 2^24 exactly
        grid = np.full((4, 1024), -128.0, dtype=np.float32)
        q = np.full((3, 1024), -128, dtype=np.int8)
        weight = WeightGrid(q=q, scale=np.array([0.7, 1.3, 2.9]), delta=0.0307, bits=8)
        step = np.array([0.11, 0.5, 3.3, 1e-3])
        got = residual_product(grid, step, weight)
        ints = grid.astype(np.int64) @ q.astype(np.int64).T
        assert np.all(ints == 1 << 24)
        assert got.dtype == np.float64
        assert got.tobytes() == (ints * step[:, None] * weight.step).tobytes()

    def test_column_major_grid_equals_the_int64_product(self):
        # the forward's weight grids are column-major, so the float32 copy
        # of q.T is row-major; at width 1024 and 8 bits the product keeps
        # the int64 reference's bytes, on a quantized grid and at the bound
        rng = np.random.default_rng(24)
        weight = quantize_weight_channelwise(rng.standard_normal((96, 1024)))[8]
        assert weight.q.T.flags.c_contiguous
        bound = WeightGrid(q=np.full((3, 1024), -128, dtype=np.int8, order="F"),
                           scale=np.array([0.7, 1.3, 2.9]), delta=0.0307, bits=8)
        for weight, grid in [
            (weight, rng.integers(-128, 128, size=(64, 1024)).astype(np.float32)),
            (bound, np.full((4, 1024), -128.0, dtype=np.float32)),
        ]:
            step = rng.uniform(0.01, 3.0, size=len(grid))
            ints = grid.astype(np.int64) @ weight.q.astype(np.int64).T
            got = residual_product(grid, step, weight)
            assert got.tobytes() == (ints * step[:, None] * weight.step).tobytes()

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


def layer_from_doc(doc: dict) -> QuantizedLinear:
    """The layer a ``qlinear_doc`` document describes, read field by field."""

    def matrix(m):
        return np.asarray(m["data"], dtype=np.float64).reshape(m["rows"], m["cols"])

    g = doc["gmb"]
    gmb = None if g is None else GmbFactors(
        g["n_o"], g["n_i"], np.asarray(g["sigma"]), np.asarray(g["u"]), np.asarray(g["v"])
    )
    weight = WeightGrid(
        q=matrix(doc["w_grid"]).astype(np.int8),
        scale=np.asarray(doc["w_scale"], dtype=np.float64),
        delta=doc["w_delta"],
        bits=doc["bits_w"],
    )
    lrb = LrbFactors(matrix(doc["lrb"]["a"]), matrix(doc["lrb"]["b"]))
    return QuantizedLinear(weight, Branches(lrb, gmb, doc.get("gmb_placement", "post")))


class TestSerialization:
    """``quantize.json``'s layer document alone rebuilds the layer, bit for bit."""

    def _layer(self, **kw):
        return make_layer(seeded_matrix(8, 8, seed=25), 3, 2, 2, **kw)

    @staticmethod
    def _written(layer):
        # the document as quantize.json stores it: through JSON text and back
        return json.loads(json.dumps(qlinear_doc(layer)))

    def _round_trip(self, layer):
        return layer_from_doc(self._written(layer))

    def test_round_trip_exact(self):
        layer = self._layer()
        doc = self._written(layer)
        assert (doc["bits_w"], doc["bits_a"], doc["n"]) == (3, 3, 8)
        back = layer_from_doc(doc)
        assert np.array_equal(back.weight.q, layer.weight.q)
        assert back.weight.scale.tobytes() == layer.weight.scale.tobytes()
        assert back.weight.delta == layer.weight.delta
        assert back.weight.step.tobytes() == layer.weight.step.tobytes()
        assert np.array_equal(back.branches.lrb.a, layer.branches.lrb.a)
        assert np.array_equal(back.branches.lrb.b, layer.branches.lrb.b)
        assert np.array_equal(back.branches.gmb.sigma, layer.branches.gmb.sigma)
        assert np.array_equal(back.branches.gmb.u, layer.branches.gmb.u)
        assert np.array_equal(back.branches.gmb.v, layer.branches.gmb.v)
        assert (back.weight.bits, back.weight.q.shape) == (3, (8, 8))

    def test_w_grid_is_row_major(self):
        # the grid is stored column-major, but its document lists it row by
        # row, as quantize.json always has
        layer = make_layer(seeded_matrix(8, 16, seed=26), 3, 2, 2)
        q = layer.weight.q
        assert q.T.flags.c_contiguous and not q.flags.c_contiguous
        doc = self._written(layer)["w_grid"]
        assert (doc["rows"], doc["cols"]) == (8, 16)
        assert doc["data"] == [int(v) for row in q.tolist() for v in row]
        assert np.array(doc["data"], dtype=np.int8).tobytes() == np.ascontiguousarray(q).tobytes()

    def test_round_trip_forward_identical(self):
        layer = self._layer()
        back = self._round_trip(layer)
        x = seeded_matrix(1, 8, seed=26)
        assert np.array_equal(
            forward_quantized_batch(back, x), forward_quantized_batch(layer, x)
        )

    @pytest.mark.parametrize("placement", ["post", "pre"])
    def test_grid_alone_carries_the_residual(self, placement):
        # the int8 grid, its scales and its step rebuild the residual, so the
        # document holds no float copy of it
        layer = self._layer(placement=placement)
        assert "q_res" not in qlinear_doc(layer)
        back = self._round_trip(layer)
        xs = seeded_matrix(5, 8, seed=29)
        assert same_bits(forward_quantized_batch(back, xs), forward_quantized_batch(layer, xs))

    def test_no_gmb(self):
        layer = make_layer(seeded_matrix(8, 8, seed=27), 3, 2, 0)
        back = self._round_trip(layer)
        assert back.branches.gmb is None
        xs = seeded_matrix(5, 8, seed=29)
        assert same_bits(forward_quantized_batch(back, xs), forward_quantized_batch(layer, xs))

    @pytest.mark.parametrize("bits", QUANT_BITS)
    def test_document_agrees_with_its_grid(self, bits):
        # what quantize.json writes is a layer some quantization could give:
        # bits_a and n restate the grid, every entry is on the bits' integers,
        # one positive finite scale per row, and the calibrated step
        layer = make_layer(seeded_matrix(8, 16, seed=31), bits, 2, 2)
        doc = self._written(layer)
        grid = doc["w_grid"]
        assert (doc["bits_w"], doc["bits_a"], doc["n"]) == (bits, bits, 16)
        assert (grid["rows"], grid["cols"], len(grid["data"])) == (8, 16, 128)
        limit = 1 << (bits - 1)
        assert all(v == int(v) and -limit <= v < limit for v in grid["data"])
        scale = np.asarray(doc["w_scale"])
        assert scale.shape == (8,) and np.all(np.isfinite(scale)) and np.all(scale > 0)
        assert doc["w_delta"] == default_delta_table()[bits]
        xs = seeded_matrix(5, 16, seed=32)
        back = layer_from_doc(doc)
        assert same_bits(forward_quantized_batch(back, xs), forward_quantized_batch(layer, xs))

    def test_placement_survives(self):
        layer = self._layer(placement="pre")
        back = self._round_trip(layer)
        assert back.branches.placement == "pre"
        # default placement stays implicit in the document
        assert "gmb_placement" not in qlinear_doc(self._layer())
