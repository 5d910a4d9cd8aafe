"""Linear-algebra kernel tests.

The SVD here is hand-rolled (Householder bidiagonalisation, Sturm
multisection and inverse iteration, batched over a stack of matrices), so
it is checked against numpy's LAPACK-backed ``np.linalg.svd``
(``oracles.lapack_svd``) and ``eigh`` as independent oracles.  Those
oracles are allowed in tests only; the package itself never calls them.
"""

import numpy as np
import pytest

from treeq import linalg
from treeq.errors import ConvergenceError, InvalidDimensionError
from treeq.linalg import (
    MAX_HADAMARD,
    as_matrix,
    frozen,
    hadamard,
    splitmix64,
    top_singular_pair,
    truncated_svd,
)

from conftest import seeded_matrix
from oracles import inverse_iteration, lapack_svd, sturm_sigmas


def reconstruct(tri):
    """u @ diag(sigma) @ v^T of a single matrix's triple."""
    return (tri.u * tri.sigma) @ tri.v.T


class TestCoercion:
    def test_as_matrix_accepts_lists(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(InvalidDimensionError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(InvalidDimensionError):
            as_matrix([[1.0, float("nan")]])

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 3, 4)])
    def test_as_matrix_rejects_empty_axes_and_stacks(self, shape):
        # the checks of as_stack, plus one of the number of axes
        with pytest.raises(InvalidDimensionError):
            as_matrix(np.ones(shape))


class TestFrozen:
    @pytest.mark.parametrize("layout", ["F-ordered", "strided"])
    def test_copies_come_back_equal_and_read_only(self, layout):
        m = seeded_matrix(6, 9, seed=4)
        a = np.asfortranarray(m) if layout == "F-ordered" else m[::2, ::3]
        f = frozen(a)
        assert np.array_equal(f, a) and f.dtype == np.float64
        for view in (f, f[1:], f.T):
            with pytest.raises(ValueError):
                view.setflags(write=True)
        # the copy is the array's own: writing the input leaves it as it was
        want = f.copy()
        a[...] = 0.0
        assert np.array_equal(f, want)

    def test_frozen_arrays_and_their_views_come_back_as_they_are(self):
        f = frozen([[1, 2], [3, 4]])
        assert f.dtype == np.float64
        assert frozen(f) is f
        view = f[1:]
        assert frozen(view) is view

    def test_a_read_only_flag_alone_is_copied(self):
        # a read-only array that owns its memory can be made writable again
        a = np.ones((2, 3))
        a.setflags(write=False)
        assert frozen(a) is not a


class TestSplitmix64:
    def test_matches_the_python_int_finalizer(self):
        mask = (1 << 64) - 1

        def mix(z):
            z ^= z >> 30
            z = (z * 0xBF58476D1CE4E5B9) & mask
            z ^= z >> 27
            z = (z * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        zs = [0, 1, 0x9E3779B97F4A7C15, mask, 1 << 63, 0xDEADBEEF12345678]
        z = np.array(zs, dtype=np.uint64)
        got = splitmix64(z)
        assert [int(v) for v in got] == [mix(v) for v in zs]
        assert [int(v) for v in z] == zs  # the input is not written


class TestHadamard:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_orthonormal(self, n):
        h = hadamard(n)
        err = np.max(np.abs(h @ h.T - np.eye(n)))
        assert err < 1e-12

    def test_entries_are_uniform_magnitude(self):
        h = hadamard(16)
        assert np.allclose(np.abs(h), 1.0 / 4.0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidDimensionError):
            hadamard(12)

    def test_rejects_oversize(self):
        with pytest.raises(InvalidDimensionError):
            hadamard(MAX_HADAMARD * 2)

    @pytest.mark.parametrize("n", [True, 8.0, "8"])
    def test_order_must_be_an_integer(self, n):
        # True is an int equal to 1, which returned [[1.]]
        with pytest.raises(InvalidDimensionError, match="Hadamard order must be an integer"):
            hadamard(n)

    def test_numpy_integer_order(self):
        assert hadamard(np.int64(8)) is hadamard(8)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_is_c_contiguous(self, n):
        # the forward's rotation operand: its layout selects the BLAS kernel,
        # and so the last bits of every rotated activation
        assert hadamard(n).flags.c_contiguous

    def test_cache_is_shared_and_read_only(self):
        a = hadamard(8)
        want = a.copy()
        with pytest.raises(ValueError):
            a[0, 0] = 99.0
        assert hadamard(8) is a
        assert np.array_equal(hadamard(8), want)

    def test_cannot_be_made_writable_again(self):
        # every layer of a width shares this array
        h = hadamard(16)
        for view in (h, h[2:], h.T):
            with pytest.raises(ValueError):
                view.setflags(write=True)

    def test_sylvester_recursion(self):
        # H_{2n} = [[H_n, H_n], [H_n, -H_n]] / sqrt(2)
        h4 = hadamard(4)
        h8 = hadamard(8)
        top = h8[:4, :4] * np.sqrt(2)
        assert np.allclose(top, h4, atol=1e-14)
        assert np.allclose(h8[4:, 4:] * np.sqrt(2), -h4, atol=1e-14)


class TestSvd:
    @pytest.mark.parametrize(
        "shape,seed", [((8, 8), 0), ((12, 5), 1), ((5, 12), 2), ((16, 16), 3)]
    )
    def test_singular_values_match_lapack(self, shape, seed):
        m = seeded_matrix(*shape, seed=seed)
        r = min(shape)
        got = truncated_svd(m, r)
        want = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(got.sigma, want, atol=1e-10)

    def test_full_rank_reconstruction(self):
        m = seeded_matrix(9, 6, seed=4)
        tri = truncated_svd(m, 6)
        assert np.allclose(reconstruct(tri), m, atol=1e-10)

    def test_eckart_young_error(self):
        # Rank-r truncation error must equal sqrt(sum of trailing sigma^2).
        m = seeded_matrix(10, 10, seed=5)
        sig = np.linalg.svd(m, compute_uv=False)
        for r in (1, 3, 7):
            tri = truncated_svd(m, r)
            err = np.linalg.norm(m - reconstruct(tri))
            assert err == pytest.approx(np.sqrt(np.sum(sig[r:] ** 2)), abs=1e-9)

    def test_orthonormal_factors(self):
        m = seeded_matrix(7, 5, seed=6)
        tri = truncated_svd(m, 5)
        assert np.allclose(tri.u.T @ tri.u, np.eye(5), atol=1e-12)
        assert np.allclose(tri.v.T @ tri.v, np.eye(5), atol=1e-12)

    def test_gram_eigenvalue_oracle(self):
        # sigma^2 are the eigenvalues of M^T M (independent route via eigh).
        m = seeded_matrix(8, 8, seed=7)
        tri = truncated_svd(m, 8)
        eig = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        assert np.allclose(tri.sigma**2, eig, atol=1e-9)

    def test_diagonal_matrix(self):
        m = np.diag([3.0, -5.0, 1.0, 0.0])
        tri = truncated_svd(m, 4)
        assert np.allclose(tri.sigma, [5.0, 3.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(reconstruct(tri), m, atol=1e-12)

    def test_rank_one_outer_product(self):
        u = np.array([1.0, 2.0, -2.0])
        v = np.array([0.5, 0.5, -0.5, 0.5])
        m = np.outer(u, v)
        sigma, uu, vv = (
            truncated_svd(m, 1).sigma[0],
            truncated_svd(m, 1).u[:, 0],
            truncated_svd(m, 1).v[:, 0],
        )
        assert sigma == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(sigma * np.outer(uu, vv), m, atol=1e-12)

    def test_repeated_singular_values(self):
        # Orthogonal matrix: every sigma is exactly 1.
        q, _ = np.linalg.qr(seeded_matrix(6, 6, seed=8))
        tri = truncated_svd(q, 6)
        assert np.allclose(tri.sigma, 1.0, atol=1e-12)
        assert np.allclose(reconstruct(tri), q, atol=1e-10)

    def test_zero_matrix(self):
        tri = truncated_svd(np.zeros((4, 3)), 3)
        assert np.allclose(tri.sigma, 0.0)
        # Factors stay orthonormal even with nothing to recover.
        assert np.allclose(tri.u.T @ tri.u, np.eye(3), atol=1e-12)

    def test_sign_convention_deterministic(self):
        m = seeded_matrix(6, 6, seed=9)
        a = truncated_svd(m, 6)
        b = truncated_svd(m.copy(), 6)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
        # First nonzero entry of each left vector is positive.
        for j in range(6):
            col = a.u[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0

    def test_invalid_rank(self):
        from treeq.errors import InvalidRankError

        with pytest.raises(InvalidRankError):
            truncated_svd(np.ones((3, 3)), 0)
        with pytest.raises(InvalidRankError):
            truncated_svd(np.ones((3, 3)), 4)

    @pytest.mark.parametrize("r", [True, 2.0])
    def test_rank_must_be_an_integer(self, r):
        # True passed the range check and failed in a reshape with a TypeError
        from treeq.errors import InvalidRankError

        with pytest.raises(InvalidRankError, match="rank must be an integer"):
            truncated_svd(np.ones((3, 3)), r)

    def test_top_singular_pair(self):
        m = seeded_matrix(5, 8, seed=10)
        sigma, u, v = top_singular_pair(m)
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert sigma == pytest.approx(want, abs=1e-10)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_top_singular_pair_zero_matrix(self):
        sigma, u, v = top_singular_pair(np.zeros((2, 3, 4)))
        assert sigma.shape == (2,) and np.all(sigma == 0.0)
        assert np.allclose(np.linalg.norm(u, axis=-1), 1.0)
        assert np.allclose(np.linalg.norm(v, axis=-1), 1.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedJacobi:
    @pytest.mark.parametrize("shape", [(9, 6), (6, 9), (8, 8), (5, 1)])
    def test_each_problem_matches_solving_alone(self, shape):
        stack = np.stack([seeded_matrix(*shape, seed=40 + k) for k in range(9)])
        stack[2] *= 1e-3
        stack[4][:, 0] = 0.0
        # orthonormal columns (rows, if wide): every sigma is 1
        q, _ = np.linalg.qr(stack[7] if shape[0] >= shape[1] else stack[7].T)
        stack[7] = q if shape[0] >= shape[1] else q.T
        stack[8] = 0.0
        r = min(shape)
        u, sigma, v = linalg._svd(stack, r)
        for k in range(stack.shape[0]):
            uk, sk, vk = linalg._svd(stack[k : k + 1], r)
            assert same_bits(u[k], uk[0]) and same_bits(sigma[k], sk[0])
            assert same_bits(v[k], vk[0])
            alone = truncated_svd(stack[k], r)
            assert same_bits(alone.u, uk[0]) and same_bits(alone.v, vk[0])

    def test_top_pair_stack_matches_2d_calls(self):
        stack = np.stack([seeded_matrix(6, 4, seed=60 + k) for k in range(6)])
        stack = stack.reshape(2, 3, 6, 4)
        sigma, u, v = top_singular_pair(stack)
        assert sigma.shape == (2, 3) and u.shape == (2, 3, 6) and v.shape == (2, 3, 4)
        for j in range(2):
            for k in range(3):
                s1, u1, v1 = top_singular_pair(stack[j, k])
                assert same_bits(sigma[j, k], s1)
                assert same_bits(u[j, k], u1) and same_bits(v[j, k], v1)

    def test_zero_problems_in_a_batch_get_canonical_vectors(self):
        stack = np.stack([seeded_matrix(5, 3, seed=70 + k) for k in range(4)])
        stack[1] = 0.0
        stack[3] = 0.0
        sigma, u, v = top_singular_pair(stack)
        e0_u, e0_v = np.eye(5)[0], np.eye(3)[0]
        for k in (1, 3):
            assert sigma[k] == 0.0
            assert same_bits(u[k], e0_u) and same_bits(v[k], e0_v)
        for k in (0, 2):
            want = np.linalg.svd(stack[k], compute_uv=False)[0]
            assert sigma[k] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "name,m",
        [
            ("odd", seeded_matrix(7, 7, seed=80)),
            ("n=1", seeded_matrix(6, 1, seed=81)),
            ("m=1", seeded_matrix(1, 6, seed=82)),
            ("tall", seeded_matrix(11, 4, seed=83)),
            ("wide", seeded_matrix(4, 11, seed=84)),
            ("rank-deficient", seeded_matrix(8, 2, seed=85) @ seeded_matrix(2, 6, seed=86)),
            ("duplicate-columns", seeded_matrix(6, 5, seed=87)[:, [0, 1, 1, 2, 0]]),
            ("256-wide", seeded_matrix(256, 256, seed=88)),
            # a Sturm probe lands exactly on a pivot's zero (sigma_2 = 2.9693...)
            ("exact-pivot", np.array([[-2, -1, -1, -2], [-2, 1, 1, -2], [1, 0, 0, 1], [0, 1, 2, 2]], float)),
            # the bidiagonal splits into blocks, two with sigma = sqrt(3)
            ("split-bidiagonal", np.array([[1, 1, 0, 0, 1], [0, 0, -1, 0, 0], [0, 1, 0, -1, -1]], float)),
            # one cluster of 64 equal sigma
            ("orthogonal-64", np.linalg.qr(seeded_matrix(64, 64, seed=89))[0]),
        ],
    )
    def test_sigma_matches_lapack(self, name, m):
        r = min(m.shape)
        tri = truncated_svd(m, r)
        want = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(tri.sigma, want, atol=1e-10)
        assert np.allclose(reconstruct(tri), m, atol=1e-10)
        assert np.allclose(tri.u.T @ tri.u, np.eye(r), atol=1e-12)
        assert np.allclose(tri.v.T @ tri.v, np.eye(r), atol=1e-12)

    def test_truncated_svd_stack_matches_2d_calls(self):
        stack = np.stack([seeded_matrix(9, 5, seed=100 + k) for k in range(6)])
        stack = stack.reshape(2, 3, 9, 5)
        tri = truncated_svd(stack, 3)
        assert tri.u.shape == (2, 3, 9, 3) and tri.v.shape == (2, 3, 5, 3)
        for j in range(2):
            for k in range(3):
                alone = truncated_svd(stack[j, k], 3)
                assert same_bits(tri.sigma[j, k], alone.sigma)
                assert same_bits(tri.u[j, k], alone.u) and same_bits(tri.v[j, k], alone.v)

    @pytest.mark.parametrize(
        "shape,r",
        [
            ((12, 8), 8),
            ((8, 12), 8),
            ((16, 16), 16),
            ((64, 64), 16),
            ((256, 256), 16),
            ((512, 64), 16),
            ((64, 512), 16),
        ],
    )
    def test_vectors_match_lapack(self, shape, r):
        m = seeded_matrix(*shape, seed=sum(shape) + r)
        tri = truncated_svd(m, r)
        u, sigma, v = lapack_svd(m, r)
        assert np.allclose(tri.sigma, sigma, atol=1e-10)
        assert np.allclose(tri.u, u, atol=1e-10)
        assert np.allclose(tri.v, v, atol=1e-10)

    @pytest.mark.parametrize(
        "shape,r",
        [((256, 4, 4), 1), ((16, 16, 16), 1), ((1, 64, 64), 16)],
        ids=["256x4x4", "16x16x16", "64x64-r16"],
    )
    def test_sturm_counts_do_not_depend_on_the_buffer(self, shape, r, monkeypatch):
        # the multisection fills its buffer in chunks of ``room`` terms per
        # problem; one step per chunk, the room _svd gives and one chunk
        # per pass must all give the same bits
        seen = []
        sigmas = linalg._gk_sigmas

        def spy(off, r, room):
            out = sigmas(off, r, room)
            seen.append((off.copy(), room, out[0].copy()))
            return out

        monkeypatch.setattr(linalg, "_gk_sigmas", spy)
        stack = seeded_matrix(int(np.prod(shape[:-1])), shape[-1], seed=130).reshape(shape)
        linalg._svd(stack, r)
        [(off, room, sigma)] = seen
        for other in (1, room, 2**20):
            got, _ = sigmas(off, r, room=other)
            assert same_bits(got, sigma)

    @pytest.mark.parametrize(
        "stack,r",
        [
            (seeded_matrix(4 * 9, 5, seed=140).reshape(4, 9, 5), 3),
            (seeded_matrix(3 * 4, 7, seed=141).reshape(3, 4, 7), 4),
            (np.stack([seeded_matrix(6, 2, seed=142) @ seeded_matrix(2, 6, seed=143)] * 2), 4),
            (np.linalg.qr(seeded_matrix(8, 8, seed=144))[0][None], 3),
            (np.stack([np.zeros((4, 4)), np.diag([3.0, 0.0, 3.0, 1.0])]), 2),
        ],
        ids=["tall", "wide", "rank-deficient", "orthogonal", "zero-and-blocks"],
    )
    def test_batched_loops_do_the_scalar_arithmetic(self, stack, r):
        # the multisection and the inverse iteration, restated one float at a
        # time, give the same bits: the batching reorders no operation
        cols = np.array(np.swapaxes(stack, 1, 2) if stack.shape[1] >= stack.shape[2] else stack)
        d, e, _, _ = linalg._bidiagonalize(cols)
        off = np.empty((cols.shape[0], 2 * cols.shape[1] - 1))
        off[:, 0::2], off[:, 1::2] = d, e
        sigma, bound = linalg._gk_sigmas(off, r, room=1)
        want = sturm_sigmas(off, r, linalg.SVD_PROBES, linalg.SVD_PASSES, np.finfo(float).tiny)
        assert same_bits(sigma, want)
        start = linalg._start_vectors(r, off.shape[1] + 1)
        want = inverse_iteration(off, sigma, bound, start, linalg.SVD_SOLVES, linalg._orthonormalize)
        assert same_bits(linalg._gk_vectors(off, sigma, bound), want)

    def test_sweep_cap_raises(self, monkeypatch):
        # a residual past SVD_RESIDUAL_FACTOR * max(m, n) * eps * sigma_1 raises
        m = seeded_matrix(8, 8, seed=90)
        monkeypatch.setattr(linalg, "SVD_RESIDUAL_FACTOR", 1e-3)
        with pytest.raises(ConvergenceError, match="^SVD residual above ") as err:
            truncated_svd(m, 8)
        bound = 1e-3 * 8 * np.finfo(float).eps * np.linalg.svd(m, compute_uv=False)[0]
        assert err.value.residual > bound


class TestFloatRangeEnds:
    """Each problem is scaled by a power of two before the fit, and sigma back after."""

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_matches_lapack_at_either_end(self, scale):
        # unscaled, squares of entries near 1e-300 underflow and those near
        # 1e200 overflow: sigma came out wrong, or the residual was nan
        m = seeded_matrix(6, 6, seed=150) * scale
        tri = truncated_svd(m, 2)
        u, sigma, v = lapack_svd(m, 2)
        assert np.allclose(tri.sigma / scale, sigma / scale, atol=1e-10)
        assert np.allclose(tri.u, u, atol=1e-10)
        assert np.allclose(tri.v, v, atol=1e-10)

    @pytest.mark.parametrize(
        "shape,r",
        [
            ((256, 4, 4), 1),
            ((64, 8, 8), 1),
            ((16, 16, 16), 1),
            ((192, 16, 16), 1),
            ((1, 64, 64), 16),
            ((12, 64, 64), 16),
            ((3, 5, 9), 2),
            ((3, 9, 5), 2),
        ],
        ids=lambda p: "x".join(map(str, p)) if isinstance(p, tuple) else f"r{p}",
    )
    def test_a_power_of_two_changes_no_bit(self, shape, r):
        # every problem, at any exponent and beside a zero problem, gives
        # the same vectors and the same sigma times its power of two
        stack = seeded_matrix(int(np.prod(shape[:-1])), shape[-1], seed=151).reshape(shape)
        if shape[0] > 1:
            stack[-1] = 0.0
        u, sigma, v = linalg._svd(stack, r)
        exponents = np.resize([-900, -3, 0, 5, 900], shape[0])
        su, ssigma, sv = linalg._svd(np.ldexp(stack, exponents[:, None, None]), r)
        assert same_bits(su, u) and same_bits(sv, v)
        assert same_bits(ssigma, np.ldexp(sigma, exponents[:, None]))


class TestInputsUntouched:
    """No SVD entry point writes the array it is given.

    A C-contiguous wide stack is the case to watch: its tall form's
    columns are the input's own rows, so a reduction that worked in place
    would overwrite the caller's matrix.
    """

    @pytest.mark.parametrize(
        "shape", [(9, 6), (6, 9), (1, 5, 12), (4, 12, 5), (4, 5, 12), (2, 3, 4, 9)]
    )
    def test_entry_points_never_write(self, shape):
        a = seeded_matrix(int(np.prod(shape[:-1])), shape[-1], seed=120).reshape(shape)
        want = a.copy()
        r = min(shape[-2:])
        linalg._svd(a.reshape(-1, *shape[-2:]), r)
        assert same_bits(a, want)
        truncated_svd(a, r)
        assert same_bits(a, want)
        top_singular_pair(a)
        assert same_bits(a, want)
