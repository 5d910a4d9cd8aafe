"""High-precision side branches for quantized layers.

Two branch types capture weight structure that survives quantization badly:

* LRB: a rank-r factorization a @ b of the rotated weight, from truncated SVD.
* GMB: a block-partitioned Monarch-style correction.  The weight is cut into
  an n_o x n_i grid of blocks and each block keeps its top singular pair, so
  the branch is rank-1 per block and has rank at most n_o * n_i overall.

Both branches stay in floating point; only the residual left after
subtracting them gets quantized, to an int8 grid with one scale per row.
The fit (``branch_decomposition``) forms the dense branch matrices to
subtract them from the weight, with fixed-order ``einsum`` calls as in
``linalg``, and keeps only the factors.  A ``QuantContext`` poses on
each layer a chain of one or two steps (``QuantContext.chain``), the only
name a fit has; each prefix of a chain is one fit problem, named by that
prefix, and ``fit_plan`` stacks the problems of many chains into one
call per branch kind and rank or grid.  The forward applies the branches
from those factors (``factor_pair``): together the LRB and the GMB have
rank at most r + n_o * n_i, so the branch term is two thin BLAS products.
A GMB placed before the rotation has its rows folded through H once, so
every layer adds one branch term, on the rotated activation.  The
quantized forward splits where bits enter (``forward_quantized_batch``).
README's determinism contract says what the forward's bits depend on;
the residual product is exact on any build (see ``residual_product``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from .linalg import as_int, as_stack, hadamard, top_singular_pair, truncated_svd
from .quantizer import (  # quantize_rotated_batch is kept here for bench/spans.py to wrap
    WeightGrid,
    quantize_rotated_batch,
    quantize_weight_channelwise,
    round_tokens,
    token_rms,
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


def fit_lrbs(w_h, r: int) -> list:
    """Rank-r LRB of every matrix of a (B, m, n) stack, in one truncated SVD call.

    a absorbs the singular values (a = U_r diag(s_r), b = V_r^T).  r = 0
    gives empty factors whose product is the zero matrix.
    """
    count, rows, cols = w_h.shape
    if r == 0:
        return [LrbFactors(a=np.zeros((rows, 0)), b=np.zeros((0, cols)))] * count
    if r < 0 or r > min(rows, cols):
        raise InvalidRankError(f"LRB rank {r} invalid for shape {(rows, cols)}")
    t = truncated_svd(w_h, r)
    a = t.u * t.sigma[:, None, :]
    b = np.swapaxes(t.v, 1, 2).copy()
    return [LrbFactors(a=a[k], b=b[k]) for k in range(count)]


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


def fit_gmbs(m, n_o: int, n_i: int):
    """GMB of every matrix of a (B, rows, cols) stack over an n_o x n_i grid.

    Every block of every matrix goes through one batched
    ``top_singular_pair`` call, so each block's triple is bit-identical to
    the call on that block alone; a zero block gets sigma 0 with canonical
    unit vectors.  Returns the B fits and their (B, rows, cols) block
    assemblies.
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


def gmb_reconstruct_blocks(f: GmbFactors) -> np.ndarray:
    """Assemble the dense branch matrix (or a stack of them) block by block."""
    blocks = np.einsum("...jk,...jko,...jki->...joki", f.sigma, f.u, f.v)
    return blocks.reshape(f.sigma.shape[:-2] + (f.n_o * f.b_o, f.n_i * f.b_i))


def factor_pair(lrb: LrbFactors, gmb: GmbFactors | None):
    """(down, up) with up @ down equal to lrb's a @ b plus gmb's block assembly.

    ``down`` stacks the LRB's b, then one row per block (j, k), holding v of
    that block in input column block k; ``up`` stacks a, then one column per
    block, holding sigma * u of that block in output row block j.  The GMB
    rows and columns are a Monarch L (P R) with the grid-transpose
    permutation P absorbed (Dao et al., ICML 2022).  A branch term is then
    (x @ down.T) @ up.T, at rank r + n_o * n_i instead of the layer's width.
    """
    if gmb is None:
        return lrb.b, lrb.a
    r, n_o, n_i = lrb.rank, gmb.n_o, gmb.n_i
    down = np.zeros((r + n_o * n_i, n_i * gmb.b_i))
    up_t = np.zeros((r + n_o * n_i, n_o * gmb.b_o))
    down[:r] = lrb.b
    up_t[:r] = lrb.a.T
    # row r + j * n_i + k of each belongs to block (j, k)
    k, j = np.arange(n_i), np.arange(n_o)
    down[r:].reshape(n_o, n_i, n_i, gmb.b_i)[:, k, k] = gmb.v
    up_t[r:].reshape(n_o, n_i, n_o, gmb.b_o)[j, :, j] = gmb.sigma[..., None] * gmb.u
    return down, up_t.T


@dataclass(frozen=True)
class Branches:
    """One layer's fitted side branches, kept as factors.

    ``pair`` is the (down, up) ``factor_pair`` the forward applies to the
    rotated activation H^T x.  Under the pre placement the GMB acts on the
    raw activation x = H (H^T x) instead, so its rows of ``down`` are
    multiplied by H once, when the pair is built (QuaRot's rotation
    folding, Ashkboos et al., NeurIPS 2024).  ``placement`` is the GMB's,
    "post" when there is none.  The pair is built on first use and kept;
    every bit-width quantized from one fit shares it.
    """

    lrb: LrbFactors
    gmb: GmbFactors | None
    placement: str

    @cached_property
    def pair(self) -> tuple:
        down, up = factor_pair(self.lrb, self.gmb)
        if self.gmb is not None and self.placement == "pre":
            r = self.lrb.rank
            down[r:] = down[r:] @ hadamard(down.shape[1])
        return down, up


@dataclass(frozen=True)
class QuantizedLinear:
    """One quantized layer: integer-grid residual plus floating branches.

    The forward path is
        y = R @ Q_act(x) + up @ (down @ H^T x)
    where R, with entry (c, j) equal to scale[c] * (q[c, j] * delta) of
    ``weight``, is the quantized residual, Q_act rotates the activation
    and quantizes it at the weight's bit-width and step (a layer quantizes
    weights and activations alike), and (down, up) is ``branches.pair``,
    which carries a pre-placed GMB folded through H.  The layer holds only
    its residual grid and a reference to the shared ``branches``.
    """

    weight: WeightGrid
    branches: Branches


@dataclass(frozen=True)
class QuantContext:
    """Branch settings shared by every layer.

    Only the branches vary between contexts: every layer is rotated by the
    Hadamard matrix of its width and quantized with the calibrated step of
    its bit-width (``default_delta_table``).  Ranks must be integers >= 0
    (InvalidRankError), gmb_order and gmb_placement one of GMB_ORDERS and
    GMB_PLACEMENTS (InvalidPartitionError), and scale_ranks a bool
    (InvalidRankError); all are checked here, once, when the context is
    built.  ``chain`` names what a context fits on a layer.  A context is
    hashable and scopes the ``EvalCache``.
    """

    r_lrb: int = 16
    r_gmb: int = 4
    gmb_order: str = "lrb_first"
    gmb_placement: str = "post"
    scale_ranks: bool = True

    def __post_init__(self):
        for name in ("r_lrb", "r_gmb"):
            r = as_int(getattr(self, name), name, InvalidRankError)
            if r < 0:
                raise InvalidRankError(f"{name} must be >= 0, got {r}")
        for name, allowed in (("gmb_order", GMB_ORDERS), ("gmb_placement", GMB_PLACEMENTS)):
            value = getattr(self, name)
            if value not in allowed:
                raise InvalidPartitionError(f"{name} must be one of {allowed}, got {value!r}")
        if not isinstance(self.scale_ranks, (bool, np.bool_)):
            raise InvalidRankError(f"scale_ranks must be a bool, got {self.scale_ranks!r}")

    def chain(self, rows: int, cols: int) -> tuple:
        """The steps, in fitting order, that the context fits on rows x cols
        weights: the name of its fit.

        A step is ("lrb", r) or ("gmb", grid, placement).  With scale_ranks
        on, the ranks are capped per layer, r_lrb at N/4 and r_gmb at N/16
        (floor 1, N = min(rows, cols)), so small layers keep proportionate
        branches; off, r_lrb is capped at N.  A GMB rank of 0 fits the LRB
        alone.  Otherwise the LRB is fitted first, on W_H, only in the
        default order and placement, and second in the others.  A GMB rank
        whose grid does not divide the shape raises here
        (``gmb_budget_partitions``).  A context works out each shape's chain
        once and keeps it.
        """
        chains = self._chains
        key = (rows, cols)
        if key not in chains:
            chains[key] = self._pose(rows, cols)
        return chains[key]

    @cached_property
    def _chains(self) -> dict:
        return {}  # (rows, cols) -> chain; outside the fields, so not compared or hashed

    def _pose(self, rows: int, cols: int) -> tuple:
        n = min(rows, cols)
        if self.scale_ranks:
            r_lrb, r_gmb = min(self.r_lrb, max(1, n // 4)), min(self.r_gmb, max(1, n // 16))
        else:
            r_lrb, r_gmb = min(self.r_lrb, n), self.r_gmb
        lrb = ("lrb", r_lrb)
        if r_gmb == 0:
            return (lrb,)
        gmb = ("gmb", gmb_budget_partitions(rows, cols, r_gmb), self.gmb_placement)
        if (self.gmb_order, self.gmb_placement) == ("lrb_first", "post"):
            return (lrb, gmb)
        return (gmb, lrb)


def fit_plan(chains) -> list:
    """The stacked fit calls that ``QuantContext.chain`` chains pose.

    Each prefix of a chain is one problem, named by that prefix, so chains
    that share a prefix share its problem.  A call is ((kind, rank or
    grid), problems): one ``fit_lrbs`` call per rank, one ``fit_gmbs``
    call per grid.  The calls come in three stages, so that a problem's
    parent is fitted before it: the GMBs that start a chain, every LRB,
    then the GMBs that follow an LRB.  Within a stage, calls and their
    problems keep the order in which the chains first pose them.
    """
    calls = {}  # (stage, kind, arg) -> its problems, as keys in first-posed order
    for chain in chains:
        for depth, (kind, arg, *_) in enumerate(chain):
            stage = 1 if kind == "lrb" else 2 * depth
            calls.setdefault((stage, kind, arg), {})[chain[: depth + 1]] = None
    return [((kind, arg), list(problems))
            for (_, kind, arg), problems in sorted(calls.items(), key=lambda c: c[0][0])]


def branch_decomposition(w, chains):
    """Fit each chain on every weight of a (B, m, n) stack; independent of any bit-width.

    A chain (``QuantContext.chain``) lists its steps in fitting order.  W_H
    = W @ H, with H = ``hadamard(n)`` the rotation the forward applies to
    activations; the first step is fitted on W_H, and the second on W_H
    less the first step's image.  A "pre" GMB is fitted on the raw weight
    W instead (its output then feeds on x, not H^T x).

    All chains are fitted at once, one stacked call per ``fit_plan`` call,
    for both branch kinds alike.  A problem's source is W_H (W for a "pre"
    GMB) when it starts its chain, and W_H less its parent's image
    otherwise; its image is the dense product of its factors, a "pre"
    GMB's taken through H.  A problem that several chains pose is fitted
    once: chains that differ only in GMB rank share the LRB fitted on W_H,
    and chains that fit the same GMB first share it across LRB ranks.  A
    call stacks its problems for all B weights, and every product is one
    stacked ``einsum``, so each weight's fit under each chain is
    bit-identical to fitting that weight alone under that chain alone.

    Returns, per chain, a list of B pairs (branches, w_res): the fitted
    ``Branches``, whose placement is the chain's GMB placement ("post"
    with no GMB), and w_res, W_H less each image of the chain in order,
    the leftover handed to the residual quantizer.
    """
    stack = as_stack(w)
    if stack.ndim != 3:
        raise InvalidDimensionError(f"expected a stack of weights, got ndim={stack.ndim}")
    count = stack.shape[0]
    h = hadamard(stack.shape[2])
    w_h = np.einsum("bij,jk->bik", stack, h)
    fitted = {}  # problem -> its B fits and their (B, m, n) images
    for (kind, arg), problems in fit_plan(chains):
        # a problem's source: W_H less its parent's image, or, at the start
        # of a chain, W_H (the raw W for a "pre" GMB, outside the rotation)
        joined = np.concatenate([
            w_h - fitted[p[:-1]][1] if len(p) > 1 else stack if p[-1][-1] == "pre" else w_h
            for p in problems
        ])
        if kind == "lrb":
            fits = fit_lrbs(joined, arg)
            images = np.einsum("bir,brj->bij", np.stack([f.a for f in fits]),
                               np.stack([f.b for f in fits]))
        else:
            fits, images = fit_gmbs(joined, *arg)
        for k, p in enumerate(problems):
            part = slice(k * count, (k + 1) * count)
            if p[-1][-1] == "pre":
                images[part] = np.einsum("bij,jk->bik", images[part], h)
            fitted[p] = fits[part], images[part]
    out = []
    for chain in chains:
        branch, w_res = {}, w_h
        for depth, (kind, *_) in enumerate(chain):
            branch[kind], image = fitted[chain[: depth + 1]]
            w_res = w_res - image
        gmb = branch.get("gmb", [None] * count)
        placement = "pre" if any(step[-1] == "pre" for step in chain) else "post"
        out.append([(Branches(branch["lrb"][k], gmb[k], placement), w_res[k]) for k in range(count)])
    return out


def quantize_fit(w_res, branches: Branches) -> dict:
    """The fit's layer at every width, from one quantizer pass over ``w_res``."""
    return {bits: QuantizedLinear(grid, branches)
            for bits, grid in quantize_weight_channelwise(w_res).items()}


def residual_product(grid, step, weight: WeightGrid) -> np.ndarray:
    """(grid @ weight.q^T) * step[:, None] * weight.step, the grid product exact.

    ``grid`` holds the activations' integers as float32 (one token per
    row) and ``step`` their float64 per-token steps.  The integer product
    is one float32 BLAS ``matmul`` by a float32 copy of the column-major
    int8 weight grid, made per call, whose transpose is row-major.  Every
    term is an integer of magnitude at most 2^7 * 2^7 = 2^14, and every row
    sum and partial sum at most 1024 * 2^14 = 2^24 at the widest layer
    ``ModelSpec`` accepts: float32 holds every integer up to 2^24, so the
    product is exact in any order and operand layout (README's determinism
    contract).  It becomes float64 exactly and is scaled in place, by the
    token steps, then the weight's.
    """
    out = np.matmul(grid, weight.q.astype(np.float32).T).astype(np.float64)
    out *= step[:, None]
    out *= weight.step
    return out


class LayerHalf:
    """The half of a quantized layer's forward that no bit-width enters.

    For an input ``xs`` and its rotation y = xs @ H, the half is the
    per-token RMS ``sigma`` of y and the unit rows ``unit`` = y / sigma
    (``quantizer.token_rms``), and the branch term ``branch`` = (y @
    down.T) @ up.T of one ``Branches``' pair; y itself is not kept.  A half
    starts empty and ``fill`` computes it.  Every width of one fit shares
    one ``Branches``, so one half serves a layer at every width.  A filled
    half holds two arrays of ``xs``'s rows, ``unit`` as wide as the
    layer's input and ``branch`` as its output.
    """

    __slots__ = ("xs", "branches", "unit", "sigma", "branch")

    def __init__(self):
        self.xs = self.branches = None

    def fill(self, xs, branches: Branches) -> None:
        rotated = xs @ hadamard(xs.shape[1])
        self.unit, self.sigma = token_rms(rotated)
        down, up = branches.pair
        self.branch = (rotated @ down.T) @ up.T
        self.xs, self.branches = xs, branches


def forward_quantized_batch(layer: QuantizedLinear, xs, half: LayerHalf | None = None):
    """Quantized forward of the activation matrix ``xs``, one token per row.

    It runs in two halves.  The first is a ``LayerHalf`` of ``xs`` under
    the layer's ``Branches``: ``half``, if given, is refilled only when it
    was not filled from the same ``xs`` and ``Branches``, both by identity,
    so a caller that keeps it beside ``xs`` pays for it once over all
    widths.  The second rounds the unit rows at the weight's bit-width and
    step (``quantizer.round_tokens``), multiplies the two integer grids
    exactly and scales them (``residual_product``), and adds the branch
    term.  ``xs`` is not checked for non-finite entries: ``forward_batch``
    checks its input once, as it enters the eval cache's scope.
    """
    weight, n = layer.weight, layer.weight.q.shape[1]
    if xs.shape[-1] != n:
        raise InvalidDimensionError(f"activation width {xs.shape[-1]} does not match layer width {n}")
    half = LayerHalf() if half is None else half
    if half.xs is not xs or half.branches is not layer.branches:
        half.fill(xs, layer.branches)
    grid, step = round_tokens(half.unit, half.sigma, weight.bits, weight.delta)
    out = residual_product(grid, step, weight)
    out += half.branch
    return out


def matrix_to_json(m: np.ndarray) -> dict:
    """A 2-D matrix as its row and column counts and its row-major entries."""
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
            "a": matrix_to_json(lrb.a),
            "b": matrix_to_json(lrb.b),
        },
        "gmb": None,
        "w_grid": matrix_to_json(weight.q),
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
