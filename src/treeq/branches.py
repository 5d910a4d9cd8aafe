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
The forward multiplies that grid with the activation's integer grid in one
BLAS ``matmul``.  Every term of that product is an integer of magnitude at
most 2^14 (8-bit grids) and every partial sum of a row of at most 1024
terms at most 2^24, far inside float64's exact integer range, so the sum is
exact in any order: the product does not depend on the BLAS build, its
thread count or the SIMD target.  All other products are fixed-order
``einsum`` calls, as in ``linalg``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidBitsError,
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from .linalg import as_matrix, as_stack, hadamard, matmul, top_singular_pair, truncated_svd
from .quantizer import (
    DeltaTable,
    QuantizerSpec,
    WeightGrid,
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

    def product(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros((self.a.shape[0], self.b.shape[1]))
        return matmul(self.a, self.b)


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

    sigma[j, k], u[j, k] (length b_o) and v[j, k] (length b_i) describe
    block (j, k) of the n_o*b_o x n_i*b_i matrix.
    """

    n_o: int
    n_i: int
    sigma: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def b_o(self) -> int:
        return self.u.shape[2]

    @property
    def b_i(self) -> int:
        return self.v.shape[2]


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
    b_o, b_i = n_out // r, n_in // r
    assert r * r * (b_i + b_o) == r * (r * b_o + r * b_i)
    return (r, r)


def _fit_gmbs(m, n_o: int, n_i: int) -> list:
    """GMB of every matrix of a (B, rows, cols) stack, one top_singular_pair call."""
    count, rows, cols = m.shape
    if n_o < 1 or n_i < 1 or rows % n_o or cols % n_i:
        raise InvalidPartitionError(
            f"partition {n_o} x {n_i} does not divide shape {(rows, cols)}"
        )
    blocks = m.reshape(count, n_o, rows // n_o, n_i, cols // n_i).transpose(0, 1, 3, 2, 4)
    sigma, u, v = top_singular_pair(blocks)
    return [
        GmbFactors(n_o=n_o, n_i=n_i, sigma=sigma[k], u=u[k], v=v[k]) for k in range(count)
    ]


def gmb_decompose(m, n_o: int, n_i: int) -> GmbFactors:
    """Top singular pair of every block in an n_o x n_i partition of ``m``.

    All blocks go through one batched ``top_singular_pair`` call; each
    block's triple is bit-identical to the call on that block alone, and a
    zero block gets sigma 0 with canonical unit vectors.
    """
    return _fit_gmbs(as_matrix(m)[None], n_o, n_i)[0]


def gmb_reconstruct_blocks(f: GmbFactors) -> np.ndarray:
    """Assemble the dense branch matrix block by block."""
    blocks = np.einsum("jk,jko,jki->joki", f.sigma, f.u, f.v)
    return blocks.reshape(f.n_o * f.b_o, f.n_i * f.b_i)


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

    The dense matrices are built on first use and kept here, so every
    bit-width quantized from one fit shares them.
    """

    lrb: LrbFactors
    gmb: GmbFactors | None
    placement: str = "post"

    @cached_property
    def post(self) -> np.ndarray:
        """Combined branch matrix applied to the rotated activation."""
        total = self.lrb.product()
        if self.gmb is not None and self.placement == "post":
            total = total + gmb_reconstruct_blocks(self.gmb)
        return total

    @cached_property
    def pre(self) -> np.ndarray | None:
        """Branch applied to the raw activation (pre-rotation placement only)."""
        if self.gmb is not None and self.placement == "pre":
            return gmb_reconstruct_blocks(self.gmb)
        return None


@dataclass(frozen=True)
class QuantizedLinear:
    """One quantized layer: integer-grid residual plus floating branches.

    The forward path is
        y = R @ Q_act(x) + branches.post @ (H^T x) [+ branches.pre @ x]
    where R = ``weight.dense()`` is the quantized residual and Q_act
    rotates the activation and quantizes it at the weight's bit-width and
    step: a layer quantizes weights and activations alike.  With the
    default post-rotation placement every branch acts on H^T x and
    ``branches.pre`` is absent.  The layer holds only its residual grid
    and a reference to the shared ``branches``.
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
    h,
    *,
    order: str = "lrb_first",
    placement: str = "post",
    lrb: LrbFactors | list | None = None,
):
    """Fit the branches of one weight or a stack; independent of any bit-width.

    Default pipeline: W_H = W @ H, LRB fitted on W_H, GMB fitted on
    W_H - LRB; ``r_gmb`` 0 fits no GMB.  ``order`` swaps which branch is
    fitted first; ``placement`` "pre" fits the GMB on the raw weight W
    instead (its output then feeds on x, not H^T x).  ``lrb`` may carry an earlier rank-``r_lrb`` fit of
    W_H; it replaces the refit where ``lrb_fitted_first`` holds and is
    ignored otherwise.  Returns (lrb, gmb, w_res) with w_res the leftover
    handed to the residual quantizer.

    ``w`` may also be a (B, m, n) stack of same-shape weights, with ``lrb``
    then a list of B fits or None.  Every variant fits all LRBs of the
    stack in one ``truncated_svd`` call and all GMB blocks in one
    ``top_singular_pair`` call, and returns a list of B triples, each
    bit-identical to fitting that weight alone.
    """
    stack = as_stack(w)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
        lrb = None if lrb is None else [lrb]
    if stack.ndim != 3:
        raise InvalidDimensionError(f"expected a weight or a stack of them, got ndim={stack.ndim}")
    h = as_matrix(h)
    if order not in GMB_ORDERS:
        raise InvalidPartitionError(f"order must be one of {GMB_ORDERS}")
    if placement not in GMB_PLACEMENTS:
        raise InvalidPartitionError(f"placement must be one of {GMB_PLACEMENTS}")
    count, rows, cols = stack.shape
    if h.shape[0] != h.shape[1] or h.shape[0] != cols:
        raise InvalidDimensionError(
            f"Hadamard shape {h.shape} does not match weight {(rows, cols)}"
        )
    with_gmb = r_gmb > 0
    if with_gmb:
        n_o, n_i = gmb_budget_partitions(rows, cols, r_gmb)
    w_h = np.stack([matmul(wk, h) for wk in stack])
    if lrb_fitted_first(r_gmb, order=order, placement=placement):
        if lrb is None:
            lrb = _fit_lrbs(w_h, r_lrb)
        elif len(lrb) != count or any(
            f.rank != r_lrb or f.a.shape[0] != rows or f.b.shape[1] != cols for f in lrb
        ):
            raise InvalidRankError(
                f"given LRBs are not {count} of rank {r_lrb} on {(rows, cols)}"
            )
    gmb = [None] * count
    if not with_gmb:
        w_res = w_h - _lrb_products(lrb)
    elif placement == "pre":
        # branch lives outside the rotation; fit on the raw weight,
        # then remove its rotated image from the residual
        gmb = _fit_gmbs(stack, n_o, n_i)
        shadow = np.stack([matmul(gmb_reconstruct_blocks(g), h) for g in gmb])
        lrb = _fit_lrbs(w_h - shadow, r_lrb)
        w_res = w_h - shadow - _lrb_products(lrb)
    elif order == "lrb_first":
        lrb_h = _lrb_products(lrb)
        gmb = _fit_gmbs(w_h - lrb_h, n_o, n_i)
        w_res = w_h - lrb_h - _gmb_products(gmb)
    else:
        gmb = _fit_gmbs(w_h, n_o, n_i)
        gmb_h = _gmb_products(gmb)
        lrb = _fit_lrbs(w_h - gmb_h, r_lrb)
        w_res = w_h - gmb_h - _lrb_products(lrb)
    fits = list(zip(lrb, gmb, w_res))
    return fits[0] if single else fits


def _lrb_products(lrbs) -> np.ndarray:
    return np.stack([f.product() for f in lrbs])


def _gmb_products(gmbs) -> np.ndarray:
    return np.stack([gmb_reconstruct_blocks(g) for g in gmbs])


def assemble_layer(w_res, branches: Branches, bits: int,
                   table: DeltaTable | None = None) -> QuantizedLinear:
    """Quantize a decomposition's residual and package the layer."""
    return QuantizedLinear(quantize_weight_channelwise(w_res, bits, table), branches)


def quantize_layer(
    w,
    bits: int,
    r_lrb: int,
    r_gmb: int,
    h,
    *,
    order: str = "lrb_first",
    placement: str = "post",
    table: DeltaTable | None = None,
) -> QuantizedLinear:
    """Rotate a weight, peel off the branches, and quantize the residual.

    See branch_decomposition for the pipeline and its variants.  The layer
    quantizes its weights and its activations at ``bits``.
    """
    lrb, gmb, w_res = branch_decomposition(w, r_lrb, r_gmb, h, order=order, placement=placement)
    return assemble_layer(w_res, Branches(lrb, gmb, placement), bits, table)


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


def forward_quantized_batch(layer: QuantizedLinear, xs):
    """Quantized forward, one token per row of ``xs``.

    Activations are quantized at the weight's bit-width with the weight's
    step ``delta``, so a layer built from a delta table runs with it.  The
    residual product multiplies the two integer grids exactly (see the
    module docstring) and then scales row i, column c by
    step_a[i] * step_w[c].
    """
    weight, branches = layer.weight, layer.branches
    xs = as_matrix(xs)
    n = weight.q.shape[1]
    if xs.shape[1] != n:
        raise InvalidDimensionError(
            f"activation width {xs.shape[1]} does not match layer width {n}"
        )
    rotated = np.einsum("nj,ji->ni", xs, hadamard(n))
    grid, step = quantize_rotated_batch(rotated, weight.bits, weight.delta)
    out = residual_product(grid, step, weight)
    out += np.einsum("nd,od->no", rotated, branches.post)
    if branches.pre is not None:
        out += np.einsum("nd,od->no", xs, branches.pre)
    return out


def _matrix_to_json(m: np.ndarray) -> dict:
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.ravel().tolist(),
    }


def _matrix_from_json(obj: dict) -> np.ndarray:
    m = np.asarray(obj["data"], dtype=np.float64).reshape(obj["rows"], obj["cols"])
    return m


def qlinear_to_json(layer: QuantizedLinear) -> str:
    """The layer as JSON; ``bits_a`` and ``n`` restate the grid's bits and width."""
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
        "q_res": _matrix_to_json(weight.dense()),
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
    return json.dumps(doc)


def qlinear_from_json(text: str) -> QuantizedLinear:
    """Inverse of ``qlinear_to_json``; rejects a residual no quantizer writes.

    Bits, step and grid entries are checked against ``QuantizerSpec``,
    ``bits_a``, ``n`` and ``w_scale`` against the grid, and the placement
    against GMB_PLACEMENTS.
    """
    doc = json.loads(text)
    gmb = None
    if doc.get("gmb") is not None:
        g = doc["gmb"]
        gmb = GmbFactors(
            n_o=int(g["n_o"]),
            n_i=int(g["n_i"]),
            sigma=np.asarray(g["sigma"], dtype=np.float64),
            u=np.asarray(g["u"], dtype=np.float64),
            v=np.asarray(g["v"], dtype=np.float64),
        )
    spec = QuantizerSpec.create(doc["bits_w"], float(doc["w_delta"]))
    grid = _matrix_from_json(doc["w_grid"])
    scale = np.asarray(doc["w_scale"], dtype=np.float64)
    if doc["bits_a"] != spec.bits:
        raise InvalidBitsError(f"bits_a {doc['bits_a']} differs from bits_w {spec.bits}")
    if not np.all((grid == np.trunc(grid)) & (grid >= spec.qmin) & (grid <= spec.qmax)):
        raise InvalidBitsError(
            f"w_grid entries must be integers in [{spec.qmin}, {spec.qmax}] at {spec.bits} bits"
        )
    if doc["n"] != grid.shape[1]:
        raise InvalidDimensionError(f"n {doc['n']} differs from the grid width {grid.shape[1]}")
    if scale.shape != (grid.shape[0],) or not np.all(np.isfinite(scale) & (scale > 0.0)):
        raise InvalidDimensionError(
            f"w_scale must hold {grid.shape[0]} positive finite scales, one per grid row"
        )
    placement = doc.get("gmb_placement", "post")
    if placement not in GMB_PLACEMENTS:
        raise InvalidPartitionError(f"gmb_placement must be one of {GMB_PLACEMENTS}")
    weight = WeightGrid(q=grid.astype(np.int8), scale=scale, delta=spec.delta, bits=spec.bits)
    lrb = LrbFactors(
        a=_matrix_from_json(doc["lrb"]["a"]),
        b=_matrix_from_json(doc["lrb"]["b"]),
    )
    return QuantizedLinear(weight, Branches(lrb, gmb, placement))
