"""Linear-algebra kernel tests.

The SVD here is hand-rolled (one-sided Jacobi, batched over a stack of
matrices, with the right vectors recovered afterwards), so it is checked
against numpy's LAPACK-backed ``np.linalg.svd`` (``oracles.lapack_svd``)
and ``eigh`` as independent oracles.  Those oracles are allowed in tests
only; the package itself never calls them.
"""

import itertools


import numpy as np
import pytest

from treeq import linalg
from treeq.errors import ConvergenceError, InvalidDimensionError
from treeq.linalg import (
    MAX_HADAMARD,
    as_matrix,
    hadamard,
    matmul,
    top_singular_pair,
    truncated_svd,
)

from conftest import seeded_matrix
from oracles import lapack_svd


def matmul_ref(a, b):
    """Triple-loop reference product, deliberately not vectorized."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


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


class TestProducts:
    @pytest.mark.parametrize("shape", [(3, 4, 5), (1, 7, 2), (6, 6, 6)])
    def test_matmul_against_triple_loop(self, shape):
        n, k, m = shape
        a = seeded_matrix(n, k, seed=n * 100 + k)
        b = seeded_matrix(k, m, seed=m * 100 + k)
        assert np.allclose(matmul(a, b), matmul_ref(a, b), atol=1e-12)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))


class TestHadamard:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 256])
    def test_orthonormal(self, n):
        h = hadamard(n)
        err = np.max(np.abs(matmul(h, h.T) - np.eye(n)))
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

    def test_cache_is_shared_and_read_only(self):
        a = hadamard(8)
        want = a.copy()
        with pytest.raises(ValueError):
            a[0, 0] = 99.0
        assert hadamard(8) is a
        assert np.array_equal(hadamard(8), want)

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

    def test_top_singular_pair(self):
        m = seeded_matrix(5, 8, seed=10)
        sigma, u, v = top_singular_pair(m)
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert sigma == pytest.approx(want, abs=1e-10)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_top_singular_pair_zero_matrix(self):
        sigma, u, v = top_singular_pair(np.zeros((3, 4)))
        assert sigma == 0.0
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedJacobi:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
    def test_round_robin_visits_each_pair_once(self, n):
        rounds = [np.split(pq, 2) for pq in linalg._round_robin(n)]
        pairs = [(int(p), int(q)) for ps, qs in rounds for p, q in zip(ps, qs)]
        assert sorted(pairs) == list(itertools.combinations(range(n), 2))
        for ps, qs in rounds:
            assert np.all(ps < qs)
            assert len(set(ps) | set(qs)) == 2 * len(ps)  # disjoint within a round

    @pytest.mark.parametrize("shape", [(9, 6), (6, 9), (8, 8), (5, 1)])
    def test_each_problem_matches_solving_alone(self, shape):
        stack = np.stack([seeded_matrix(*shape, seed=40 + k) for k in range(7)])
        stack[2] *= 1e-3  # converges in its own number of sweeps
        stack[4][:, 0] = 0.0
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
        "shape,r", [((12, 8), 8), ((8, 12), 8), ((16, 16), 16), ((64, 64), 16)]
    )
    def test_vectors_match_lapack(self, shape, r):
        # v is recovered as A^T u / sigma, not rotated along with u
        m = seeded_matrix(*shape, seed=sum(shape) + r)
        tri = truncated_svd(m, r)
        u, sigma, v = lapack_svd(m, r)
        assert np.allclose(tri.sigma, sigma, atol=1e-10)
        assert np.allclose(tri.u, u, atol=1e-10)
        assert np.allclose(tri.v, v, atol=1e-10)

    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_SWEEP_CAP", 1)
        with pytest.raises(ConvergenceError) as err:
            truncated_svd(seeded_matrix(8, 8, seed=90), 8)
        assert err.value.residual > linalg.JACOBI_TOL


class TestInputsUntouched:
    """No SVD entry point writes the array it is given.

    A C-contiguous wide stack is the case to watch: its tall form's
    columns are the input's own rows, so a Jacobi that rotated in place
    would rotate the caller's matrix.
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
