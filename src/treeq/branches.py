"""High-precision side branches for quantized layers.

Two branch types capture weight structure that survives quantization badly:

* LRB: a rank-r factorization a @ b of the rotated weight, from truncated SVD.
* GMB: a block-partitioned Monarch-style correction.  The weight is cut into
  an n_o x n_i grid of blocks and each block keeps its top singular pair, so
  the branch is rank-1 per block but full-rank overall.  It admits an exact
  factored form L @ P @ R with block-diagonal L and R around a fixed
  grid-transpose permutation P.

Both branches stay in floating point; only the residual left after
subtracting them gets quantized, to an int8 grid with one scale per row.
The fit (``branch_decomposition``) is the one place that builds the dense
branch matrices: the ones it subtracts are the ones the forward applies.
The fit's products are fixed-order ``einsum`` calls, as in ``linalg``.

The forward's products are BLAS ``matmul`` calls: the rotation xs @ H, the
branch terms and the residual product.  The float products give the same
bytes on one numpy build, SIMD target and BLAS kernel, and do not depend on
the BLAS thread count (measured with OpenBLAS at 1 and 2 threads); another
kernel, or a batch of another row count, may round them otherwise.  The
residual product multiplies the weight grid with the activation's integer
grid.  Every term of it is an integer of magnitude at most 2^14 (8-bit
grids) and every partial sum of a row of at most 1024 terms at most 2^24,
far inside float64's exact integer range, so the sum is exact in any order:
that product does not depend on the BLAS build, its thread count or the
SIMD target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from .linalg import as_matrix, as_stack, hadamard, top_singular_pair, truncated_svd
from .quantizer import (
    WeightGrid,
    check_bits,
    quantize_rotated_batch,
    quantize_weight_channelwise,
)

GMB_ORDERS = ("lrb_first", "gmb_first")
GMB_PLACEMENTS = ("post", "pre")


@dataclass(frozen=True)
class LrbFactors:
    """Low-rank branch a (n_out x r) @ b (r x n_in); r may be zero."""

    a: np.ndarray
    b: np.ndarray

    @property
    def rank(self) -> int:
        return self.a.shape[1]


def _fit_lrbs(w_h, r: int) -> list:
    """Rank-r LRB of every matrix of a (B, m, n) stack, one truncated SVD call."""
    count, rows, cols = w_h.shape
    if r == 0:
        return [LrbFactors(a=np.zeros((rows, 0)), b=np.zeros((0, cols)))] * count
    if r < 0 or r > min(rows, cols):
        raise InvalidRankError(f"LRB rank {r} invalid for shape {(rows, cols)}")
    t = truncated_svd(w_h, r)
    a = t.u * t.sigma[:, None, :]
    b = np.swapaxes(t.v, 1, 2).copy()
    return [LrbFactors(a=a[k], b=b[k]) for k in range(count)]


def init_lrb(w_h, r: int) -> LrbFactors:
    """Rank-r factors of a rotated weight via truncated SVD.

    a absorbs the singular values (a = U_r diag(s_r), b = V_r^T).  r = 0
    returns empty factors whose product is the zero matrix.
    """
    return _fit_lrbs(as_matrix(w_h)[None], r)[0]


@dataclass(frozen=True)
class GmbFactors:
    """Per-block rank-1 factors over an n_o x n_i block grid.

    sigma[..., j, k], u[..., j, k, :] (length b_o) and v[..., j, k, :]
    (length b_i) describe block (j, k) of the n_o*b_o x n_i*b_i matrix;
    the leading axes, if any, index a stack of such matrices.
    """

    n_o: int
    n_i: int
    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def b_o(self) -> int:
        return self.u.shape[-1]

    @property
    def b_i(self) -> int:
        return self.v.shape[-1]


def gmb_budget_partitions(n_out: int, n_in: int, r: int) -> tuple[int, int]:
    """Block-grid shape (n_o, n_i) for parameter budget r(n_o b_o + n_i b_i).

    Setting n_o = n_i = r makes the per-block rank-1 parameter count
    n_i*n_o*(b_i+b_o) equal that budget exactly.  r = 0 means no branch.
    Raises if r does not divide both dimensions.
    """
    if r == 0:
        return (0, 0)
    if r < 0 or r > min(n_out, n_in):
        raise InvalidRankError(f"GMB r {r} invalid for shape ({n_out}, {n_in})")
    if n_out % r or n_in % r:
        raise InvalidPartitionError(
            f"r {r} must divide both dimensions ({n_out}, {n_in})"
        )
    return (r, r)


def _fit_gmbs(m, n_o: int, n_i: int):
    """GMB of every matrix of a (B, rows, cols) stack, one top_singular_pair call.

    Returns the B fits and their (B, rows, cols) block assemblies.
    """
    count, rows, cols = m.shape
    if n_o < 1 or n_i < 1 or rows % n_o or cols % n_i:
        raise InvalidPartitionError(
            f"partition {n_o} x {n_i} does not divide shape {(rows, cols)}"
        )
    blocks = m.reshape(count, n_o, rows // n_o, n_i, cols // n_i).transpose(0, 1, 3, 2, 4)
    stacked = GmbFactors(n_o, n_i, *top_singular_pair(blocks))
    fits = [
        GmbFactors(n_o, n_i, stacked.sigma[k], stacked.u[k], stacked.v[k]) for k in range(count)
    ]
    return fits, gmb_reconstruct_blocks(stacked)


def gmb_decompose(m, n_o: int, n_i: int) -> GmbFactors:
    """Top singular pair of every block in an n_o x n_i partition of ``m``.

    All blocks go through one batched ``top_singular_pair`` call; each
    block's triple is bit-identical to the call on that block alone, and a
    zero block gets sigma 0 with canonical unit vectors.
    """
    fits, _ = _fit_gmbs(as_matrix(m)[None], n_o, n_i)
    return fits[0]


def gmb_reconstruct_blocks(f: GmbFactors) -> np.ndarray:
    """Assemble the dense branch matrix (or a stack of them) block by block."""
    blocks = np.einsum("...jk,...jko,...jki->...joki", f.sigma, f.u, f.v)
    return blocks.reshape(f.sigma.shape[:-2] + (f.n_o * f.b_o, f.n_i * f.b_i))


def gmb_permutation(n_o: int, n_i: int) -> np.ndarray:
    """Grid-transpose permutation: position k*n_o + j maps to j*n_i + k."""
    k, j = np.meshgrid(np.arange(n_i), np.arange(n_o), indexing="ij")
    perm = np.empty(n_i * n_o, dtype=np.int64)
    perm[(k * n_o + j).ravel()] = (j * n_i + k).ravel()
    return perm


def permutation_matrix(perm) -> np.ndarray:
    p = np.zeros((perm.shape[0], perm.shape[0]))
    p[perm, np.arange(perm.shape[0])] = 1.0
    return p


def gmb_build_factored(f: GmbFactors):
    """Exact factored form (L, perm, R) with L @ P @ R equal to the block assembly.

    L is block-diagonal with n_o blocks of shape b_o x n_i (columns are
    sigma[j,k] * u[j,k]); R is block-diagonal with n_i blocks of shape
    n_o x b_i (rows are v[j,k]); perm is the grid transpose wiring them up.
    """
    l = np.zeros((f.n_o * f.b_o, f.n_i * f.n_o))
    for j in range(f.n_o):
        l[j * f.b_o : (j + 1) * f.b_o, j * f.n_i : (j + 1) * f.n_i] = (
            f.u[j].T * f.sigma[j][None, :]
        )
    r = np.zeros((f.n_i * f.n_o, f.n_i * f.b_i))
    for k in range(f.n_i):
        r[k * f.n_o : (k + 1) * f.n_o, k * f.b_i : (k + 1) * f.b_i] = f.v[:, k, :]
    return l, gmb_permutation(f.n_o, f.n_i), r


@dataclass(frozen=True)
class Branches:
    """One layer's fitted side branches and their dense matrices.

    ``post`` is the branch matrix applied to the rotated activation: the
    LRB product, plus the GMB block assembly under the post placement.
    ``pre`` is the GMB block assembly applied to the raw activation under
    the pre placement, and None otherwise.  ``branch_decomposition`` builds
    both from the matrices it peels off the weight, and every bit-width
    quantized from the fit shares them.
    """

    lrb: LrbFactors
    gmb: GmbFactors | None
    placement: str
    post: np.ndarray
    pre: np.ndarray | None


@dataclass(frozen=True)
class QuantizedLinear:
    """One quantized layer: integer-grid residual plus floating branches.

    The forward path is
        y = R @ Q_act(x) + branches.post @ (H^T x) [+ branches.pre @ x]
    where R, with entry (c, j) equal to scale[c] * (q[c, j] * delta) of
    ``weight``, is the quantized residual and Q_act rotates the activation
    and quantizes it at the weight's bit-width and step: a layer quantizes
    weights and activations alike.  With the default post-rotation
    placement every branch acts on H^T x and ``branches.pre`` is absent.
    The layer holds only its residual grid and a reference to the shared
    ``branches``.
    """

    weight: WeightGrid
    branches: Branches


def lrb_fitted_first(r_gmb: int, *, order: str = "lrb_first", placement: str = "post") -> bool:
    """Whether branch_decomposition fits the LRB on W_H itself, before any GMB.

    Such an LRB depends only on the weight and its rank, so one fit can
    serve every GMB rank.  With ``r_gmb`` 0 there is no GMB at all.
    """
    return r_gmb <= 0 or (order == "lrb_first" and placement == "post")


def branch_decomposition(
    w,
    r_lrb: int,
    r_gmb: int,
    *,
    order: str = "lrb_first",
    placement: str = "post",
    lrb: LrbFactors | list | None = None,
):
    """Fit the branches of one weight or a stack; independent of any bit-width.

    Default pipeline: W_H = W @ H, with H = ``hadamard(n)`` the rotation
    ``layer_input`` applies to activations; LRB fitted on W_H, GMB fitted
    on W_H - LRB; ``r_gmb`` 0 fits no GMB.  ``order`` swaps which branch is
    fitted first; ``placement`` "pre" fits the GMB on the raw weight W
    instead (its output then feeds on x, not H^T x).  ``lrb`` may carry an
    earlier rank-``r_lrb`` fit of W_H; it replaces the refit where
    ``lrb_fitted_first`` holds and is ignored otherwise.  Returns
    (branches, w_res): the fitted ``Branches``, whose ``post`` and ``pre``
    are the very matrices subtracted from W_H (``pre`` through H), and
    w_res the leftover handed to the residual quantizer.

    ``w`` may also be a (B, m, n) stack of same-shape weights, with ``lrb``
    then a list of B fits or None.  Every variant fits all LRBs of the
    stack in one ``truncated_svd`` call and all GMB blocks in one
    ``top_singular_pair`` call, forms every product in one stacked
    ``einsum``, and returns a list of B pairs, each bit-identical to
    fitting that weight alone.
    """
    stack = as_stack(w)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
        lrb = None if lrb is None else [lrb]
    if stack.ndim != 3:
        raise InvalidDimensionError(f"expected a weight or a stack of them, got ndim={stack.ndim}")
    if order not in GMB_ORDERS:
        raise InvalidPartitionError(f"order must be one of {GMB_ORDERS}")
    if placement not in GMB_PLACEMENTS:
        raise InvalidPartitionError(f"placement must be one of {GMB_PLACEMENTS}")
    count, rows, cols = stack.shape
    h = hadamard(cols)
    with_gmb = r_gmb > 0
    if with_gmb:
        n_o, n_i = gmb_budget_partitions(rows, cols, r_gmb)
    w_h = np.einsum("bij,jk->bik", stack, h)
    if lrb_fitted_first(r_gmb, order=order, placement=placement):
        if lrb is None:
            lrb = _fit_lrbs(w_h, r_lrb)
        elif len(lrb) != count or any(
            f.rank != r_lrb or f.a.shape[0] != rows or f.b.shape[1] != cols for f in lrb
        ):
            raise InvalidRankError(
                f"given LRBs are not {count} of rank {r_lrb} on {(rows, cols)}"
            )
    gmb = pre = [None] * count
    if not with_gmb:
        post = _lrb_products(lrb)
        w_res = w_h - post
    elif placement == "pre":
        # branch lives outside the rotation; fit on the raw weight,
        # then remove its rotated image from the residual
        gmb, pre = _fit_gmbs(stack, n_o, n_i)
        shadow = np.einsum("bij,jk->bik", pre, h)
        lrb = _fit_lrbs(w_h - shadow, r_lrb)
        post = _lrb_products(lrb)
        w_res = w_h - shadow - post
    elif order == "lrb_first":
        lrb_h = _lrb_products(lrb)
        gmb, gmb_h = _fit_gmbs(w_h - lrb_h, n_o, n_i)
        w_res = w_h - lrb_h - gmb_h
        post = lrb_h + gmb_h
    else:
        gmb, gmb_h = _fit_gmbs(w_h, n_o, n_i)
        lrb = _fit_lrbs(w_h - gmb_h, r_lrb)
        lrb_h = _lrb_products(lrb)
        w_res = w_h - gmb_h - lrb_h
        post = lrb_h + gmb_h
    fits = [
        (Branches(lrb[k], gmb[k], placement, post[k], pre[k]), w_res[k]) for k in range(count)
    ]
    return fits[0] if single else fits


def _lrb_products(lrbs) -> np.ndarray:
    """a @ b of every LRB of a list, in one stacked einsum."""
    a = np.stack([f.a for f in lrbs])
    b = np.stack([f.b for f in lrbs])
    return np.einsum("bir,brj->bij", a, b)


def quantize_fit(w_res, branches: Branches) -> dict:
    """The fit's layer at every width, from one quantizer pass over ``w_res``."""
    return {bits: QuantizedLinear(grid, branches)
            for bits, grid in quantize_weight_channelwise(w_res).items()}


def quantize_layer(
    w,
    bits: int,
    r_lrb: int,
    r_gmb: int,
    *,
    order: str = "lrb_first",
    placement: str = "post",
) -> QuantizedLinear:
    """Rotate a weight, peel off the branches, and quantize the residual.

    See branch_decomposition for the pipeline and its variants; the layer
    holds the ``Branches`` it returns.  The layer quantizes its weights and
    its activations at ``bits``.
    """
    check_bits(bits)
    fit, w_res = branch_decomposition(w, r_lrb, r_gmb, order=order, placement=placement)
    return quantize_fit(w_res, fit)[bits]


def residual_product(grid, step, weight: WeightGrid) -> np.ndarray:
    """(grid @ weight.q^T) * step[:, None] * weight.step, the grid product exact.

    ``grid`` holds the activations' integers (one token per row) and
    ``step`` their per-token steps.  The integer product runs as one BLAS
    ``matmul`` on float64 copies of both grids, which is exact (see the
    module docstring), so the result is the same bits on every BLAS build,
    thread count and SIMD target.
    """
    out = np.matmul(grid, weight.q.astype(np.float64).T)
    out *= step[:, None]
    out *= weight.step
    return out


@dataclass(frozen=True)
class LayerInput:
    """A layer's bit-independent work on one activation batch.

    ``rotated`` is xs @ H, ``post`` the branch term rotated @ post^T and
    ``pre`` the term xs @ pre^T under the pre-rotation placement (None
    otherwise), with xs the activation batch and post and pre the matrices
    of one ``Branches``.  Each is one BLAS ``matmul`` over the whole batch
    (see the module docstring for what its bits depend on).  No field
    depends on a bit-width, so one record serves every layer quantized
    from those branches.
    """

    rotated: np.ndarray
    post: np.ndarray
    pre: np.ndarray | None


def layer_input(branches: Branches, xs) -> LayerInput:
    """Rotate ``xs`` (one token per row) and apply ``branches`` to it."""
    xs = as_matrix(xs)
    n = branches.post.shape[1]
    if xs.shape[1] != n:
        raise InvalidDimensionError(
            f"activation width {xs.shape[1]} does not match layer width {n}"
        )
    rotated = xs @ hadamard(n)
    post = rotated @ branches.post.T
    pre = None if branches.pre is None else xs @ branches.pre.T
    return LayerInput(rotated, post, pre)


def forward_quantized_batch(layer: QuantizedLinear, xs):
    """Quantized forward, one token per row of ``xs``.

    ``xs`` is an activation matrix or a ``LayerInput`` built from
    ``layer.branches``; a matrix is first turned into one, so a caller
    that keeps the ``LayerInput`` can run the layer at other bit-widths
    without redoing the rotation and the branch products.  Activations
    are quantized at the weight's bit-width with the weight's step
    ``delta``.  The residual product multiplies the two integer grids
    exactly (see the module docstring) and then scales row i, column c by
    step_a[i] * step_w[c]; the post and then the pre branch term are added
    to it.
    """
    weight = layer.weight
    if not isinstance(xs, LayerInput):
        xs = layer_input(layer.branches, xs)
    n = weight.q.shape[1]
    if xs.rotated.shape[1] != n:
        raise InvalidDimensionError(
            f"activation width {xs.rotated.shape[1]} does not match layer width {n}"
        )
    grid, step = quantize_rotated_batch(xs.rotated, weight.bits, weight.delta)
    out = residual_product(grid, step, weight)
    out += xs.post
    if xs.pre is not None:
        out += xs.pre
    return out


def _matrix_to_json(m: np.ndarray) -> dict:
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.ravel().tolist(),
    }


def qlinear_doc(layer: QuantizedLinear) -> dict:
    """The layer's JSON document; ``bits_a`` and ``n`` restate the grid's bits and width."""
    weight, lrb, gmb = layer.weight, layer.branches.lrb, layer.branches.gmb
    doc = {
        "bits_w": weight.bits,
        "bits_a": weight.bits,
        "n": weight.q.shape[1],
        "lrb": {
            "a": _matrix_to_json(lrb.a),
            "b": _matrix_to_json(lrb.b),
        },
        "gmb": None,
        "w_grid": _matrix_to_json(weight.q),
        "w_scale": [float(v) for v in weight.scale],
        "w_delta": weight.delta,
    }
    if gmb is not None:
        doc["gmb"] = {
            "n_o": gmb.n_o,
            "n_i": gmb.n_i,
            "sigma": [[float(v) for v in row] for row in gmb.sigma],
            "u": [[list(map(float, vec)) for vec in row] for row in gmb.u],
            "v": [[list(map(float, vec)) for vec in row] for row in gmb.v],
        }
    if layer.branches.placement != "post":
        doc["gmb_placement"] = layer.branches.placement
    return doc
