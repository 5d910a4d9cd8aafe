"""Seeded synthetic linear-chain network and its quantized forward passes.

The model is a stack of dense layers with a leaky rectifier (slope 0.1)
between them, standing in for a transformer backbone at desk scale.  All
randomness flows through one documented counter-based generator so every
artifact is a pure function of its seed:

    gen(seed, index) = mix(seed + (index + 1) * 0x9E3779B97F4A7C15)  mod 2^64

where mix is the splitmix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic modulo 2^64).  Uniform doubles take the top 53 bits:
u = (gen(...) >> 11) * 2^-53, giving u in [0, 1).  Gaussians come from
Box-Muller on consecutive uniform pairs (u1, u2):

    r = sqrt(-2 ln(1 - u1)),  z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)

emitted in (z0, z1) order.  Substreams are indexed as
gen(seed, (tag << 32) | i) with documented tags.  The integer streams and
the uniforms are exact in any language.  The Gaussians are exact only up
to the rounding of log1p, cos and sin: numpy's SIMD routines and libm
differ in the last bit for a few percent of inputs, and recomputing the
Box-Muller pairs with libm moves the frozen end-to-end MSE by 7.4e-16
relative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .branches import (
    GMB_ORDERS,
    GMB_PLACEMENTS,
    Branches,
    QuantizedLinear,
    assemble_layer,
    branch_decomposition,
    forward_quantized_batch,
    lrb_fitted_first,
)
from .errors import (
    ConvergenceError,
    InvalidBitsError,
    InvalidDimensionError,
    InvalidPartitionError,
    InvalidRankError,
)
from .linalg import as_matrix, hadamard
from .quantizer import QUANT_BITS, DeltaTable, default_delta_table

LEAKY_SLOPE = 0.1
# a layer at this width runs its dense weight: the noise-free environment
PASSTHROUGH_BITS = 32
ALLOWED_BITS = QUANT_BITS + (PASSTHROUGH_BITS,)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# substream tags (see module docstring)
TAG_WEIGHT = 1
TAG_OUTLIER = 2
TAG_CALIB = 3
TAG_DERIVE = 4

# bytes of weights per stacked branch fit: a shape group of layers larger
# than this is fitted in several calls (a layer alone if it is larger)
FIT_STACK_BYTES = 1 << 24


def gen(seed: int, index: int) -> int:
    """The counter-based generator: value of stream ``seed`` at ``index``."""
    z = (int(seed) + (int(index) + 1) * _GAMMA) & _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def _gen_block(seed: int, count: int) -> np.ndarray:
    """Vectorized gen(seed, 0..count-1); bit-identical to the scalar form."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def substream(seed: int, tag: int, i: int) -> int:
    """Derived stream seed: gen(seed, (tag << 32) | i)."""
    return gen(seed, (tag << 32) | i)


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1) from stream ``seed``."""
    return (_gen_block(seed, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def gaussian_stream(seed: int, count: int) -> np.ndarray:
    """``count`` standard normals from stream ``seed`` (Box-Muller pairs)."""
    pairs = (count + 1) // 2
    u = uniform_stream(seed, 2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def _power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def as_int(value, what: str, error=InvalidDimensionError) -> int:
    """``value`` as an int; ``error`` unless it is an integer (numpy's too) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelSpec:
    """Blueprint for a synthetic chain: sizes, seed, and outlier structure."""

    n_layers: int
    dims: tuple
    seed: int
    outlier_fraction: float = 0.0
    outlier_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_layers", as_int(self.n_layers, "n_layers"))
        object.__setattr__(self, "dims", tuple(as_int(d, "dims entry") for d in self.dims))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        if not (1 <= self.n_layers <= 128):
            raise InvalidDimensionError(f"n_layers must be in [1, 128], got {self.n_layers}")
        if len(self.dims) != self.n_layers + 1:
            raise InvalidDimensionError(
                f"dims must have n_layers+1={self.n_layers + 1} entries, got {len(self.dims)}"
            )
        for d in self.dims:
            if not _power_of_two(d) or not (8 <= d <= 1024):
                raise InvalidDimensionError(
                    f"dims must be powers of two in [8, 1024], got {d}"
                )
        if not (0 <= self.seed <= _MASK):
            raise InvalidDimensionError("seed must fit in 64 bits")
        if not (0.0 <= self.outlier_fraction <= 1.0):
            raise InvalidDimensionError("outlier_fraction must be in [0, 1]")
        if not (self.outlier_scale >= 1.0):
            raise InvalidDimensionError("outlier_scale must be >= 1")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_layers": self.n_layers,
                "dims": list(self.dims),
                "seed": self.seed,
                "outlier_fraction": self.outlier_fraction,
                "outlier_scale": self.outlier_scale,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls(**json.loads(text))


class EvalCache:
    """Prefix activations and the MSE memo of one evaluation scope.

    A scope is one calibration input matrix (compared by identity, so two
    calibration sets that share ``key()`` never alias) under one context
    (compared by value).  For it the cache keeps the activations entering
    each layer of the last forward (``acts[0]`` is the input matrix itself,
    ``acts[j + 1]`` the output of layer j after the leaky rectifier), the
    bits of the layers that produced them (``bits[j]`` for ``acts[j + 1]``,
    so ``len(acts) == len(bits) + 1`` holds even if a forward raises part
    way), and the MSE of every allocation evaluated, keyed by bit tuple.  Entering a new scope drops
    all of it, so the cache never holds more than one scope.  ``hits`` and
    ``misses`` count memo lookups over the cache's life.
    """

    def __init__(self):
        self.ctx = None
        self.bits = []
        self.acts = []
        self.mse = {}
        self.hits = 0
        self.misses = 0

    def enter(self, xs: np.ndarray, ctx: QuantContext) -> None:
        """Make (``xs``, ``ctx``) the scope, dropping any other one."""
        if self.acts and self.acts[0] is xs and self.ctx == ctx:
            return
        self.ctx = ctx
        self.bits = []
        self.acts = [xs]
        self.mse = {}


class FitCache:
    """Every branch fit and quantized layer of one model.

    Fits are eager and stacked: the first time a branch context needs any
    layer, every layer is fitted under it, with one ``branch_decomposition``
    call per group of same-shape layers (split to stay within
    FIT_STACK_BYTES).  A layer's branch key is its effective ranks, order
    and placement, so contexts that agree on them share one fit.  The
    cache holds:

    * ``decomps[(i,) + branch key]``: layer i's (branches, w_res), the
      fitted ``Branches`` and the float residual left for the quantizer.
      The branch matrices are built once on the ``Branches`` and shared by
      every bit-width;
    * ``lrbs[(i, r_lrb)]``: layer i's rank-r_lrb LRB fitted on W_i @ H
      alone, which every pipeline for which ``lrb_fitted_first`` holds
      reuses, whatever its GMB rank;
    * ``layers[(i, bits, ctx)]``: the quantized layer.  It
      holds the residual's int8 grid (n_out x n_in bytes), its row scales
      and row steps (2 n_out floats), and a reference to the shared
      ``Branches``: nothing else dense.
    """

    def __init__(self):
        self.decomps = {}
        self.lrbs = {}
        self.layers = {}


@dataclass
class ToyModel:
    spec: ModelSpec
    weights: list
    fit_cache: FitCache = field(default_factory=FitCache, repr=False, compare=False)
    eval_cache: EvalCache = field(default_factory=EvalCache, repr=False, compare=False)

    @property
    def n_layers(self) -> int:
        return self.spec.n_layers

    @property
    def dims(self) -> tuple:
        return self.spec.dims

    @property
    def flops(self) -> tuple:
        d = self.spec.dims
        return tuple(2 * d[i + 1] * d[i] for i in range(self.spec.n_layers))


def gen_model(spec: ModelSpec) -> ToyModel:
    """Materialize the weights: N(0, 1/fan_in) entries with scaled outliers.

    Layer i uses substream (TAG_WEIGHT, i) for the Gaussian entries and
    (TAG_OUTLIER, i) for the outlier mask; a fraction of entries is
    multiplied by outlier_scale.
    """
    weights = []
    for i in range(spec.n_layers):
        n_in, n_out = spec.dims[i], spec.dims[i + 1]
        vals = gaussian_stream(substream(spec.seed, TAG_WEIGHT, i), n_out * n_in)
        w = vals.reshape(n_out, n_in) / np.sqrt(n_in)
        if spec.outlier_fraction > 0.0:
            u = uniform_stream(substream(spec.seed, TAG_OUTLIER, i), n_out * n_in)
            mask = u.reshape(n_out, n_in) < spec.outlier_fraction
            w = np.where(mask, w * spec.outlier_scale, w)
        weights.append(w)
    return ToyModel(spec=spec, weights=weights)


@dataclass(frozen=True)
class CalibrationSet:
    """Inputs plus their exact full-precision outputs; immutable after build."""

    inputs: tuple
    fp_outputs: tuple
    seed: int

    def key(self) -> tuple:
        return (self.seed, len(self.inputs))

    @cached_property
    def input_matrix(self) -> np.ndarray:
        return np.stack(self.inputs, axis=0)

    @cached_property
    def output_matrix(self) -> np.ndarray:
        return np.stack(self.fp_outputs, axis=0)


@dataclass(frozen=True)
class QuantContext:
    """Quantization-pipeline parameters shared by every layer.

    Requested branch ranks are scaled per layer when scale_ranks is on:
    r_lrb capped at N/4 and r_gmb at N/16 (floor 1, N = min layer dim), so
    small toy layers keep proportionate branches; r_gmb 0 fits no GMB.
    Ranks must be integers >= 0 (InvalidRankError), and gmb_order and
    gmb_placement one of GMB_ORDERS and GMB_PLACEMENTS
    (InvalidPartitionError); both are checked when the context is built.
    A context is hashable and keys the cache entries built under it.
    """

    deltas: DeltaTable = field(default_factory=default_delta_table)
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


@lru_cache(maxsize=1)
def default_context() -> QuantContext:
    return QuantContext()


def _effective_ranks(ctx: QuantContext, n_out: int, n_in: int) -> tuple[int, int]:
    n = min(n_out, n_in)
    if ctx.scale_ranks:
        r_l = min(ctx.r_lrb, max(1, n // 4))
        r_g = min(ctx.r_gmb, max(1, n // 16))
    else:
        r_l = min(ctx.r_lrb, n)
        r_g = ctx.r_gmb
    return r_l, r_g


def _branch_key(ctx: QuantContext, shape) -> tuple:
    return _effective_ranks(ctx, *shape) + (ctx.gmb_order, ctx.gmb_placement)


def _fit_all(model: ToyModel, ctx: QuantContext) -> None:
    """Fit every layer that has no fit under ``ctx`` yet, stacked by shape."""
    cache = model.fit_cache
    groups = {}
    for i, w in enumerate(model.weights):
        if (i,) + _branch_key(ctx, w.shape) not in cache.decomps:
            groups.setdefault(w.shape, []).append(i)
    for (n_out, n_in), layers in groups.items():
        key = _branch_key(ctx, (n_out, n_in))
        r_l, r_g = key[:2]
        first = lrb_fitted_first(r_g, order=ctx.gmb_order, placement=ctx.gmb_placement)
        per_call = max(1, FIT_STACK_BYTES // (8 * n_out * n_in))
        for start in range(0, len(layers), per_call):
            chunk = layers[start : start + per_call]
            lrbs = [cache.lrbs.get((i, r_l)) for i in chunk]
            try:
                decomps = branch_decomposition(
                    np.stack([model.weights[i] for i in chunk]),
                    r_l,
                    r_g,
                    hadamard(n_in),
                    order=ctx.gmb_order,
                    placement=ctx.gmb_placement,
                    lrb=lrbs if first and all(f is not None for f in lrbs) else None,
                )
            except ConvergenceError as e:
                names = ", ".join(map(str, chunk))
                raise ConvergenceError(
                    f"branch fit of layers {names}: {e.message}", e.residual
                ) from e
            for i, (lrb, gmb, w_res) in zip(chunk, decomps):
                cache.decomps[(i,) + key] = (Branches(lrb, gmb, ctx.gmb_placement), w_res)
                if first:
                    cache.lrbs[(i, r_l)] = lrb


def _layer_for(model: ToyModel, i: int, bits: int, ctx: QuantContext) -> QuantizedLinear:
    cache = model.fit_cache
    key = (i, bits, ctx)
    layer = cache.layers.get(key)
    if layer is None:
        dkey = (i,) + _branch_key(ctx, model.weights[i].shape)
        if dkey not in cache.decomps:
            _fit_all(model, ctx)
        branches, w_res = cache.decomps[dkey]
        layer = assemble_layer(w_res, branches, bits, ctx.deltas)
        cache.layers[key] = layer
    return layer


def quantized_layer(model: ToyModel, i: int, bits: int, ctx: QuantContext | None = None) -> QuantizedLinear:
    """Build (or fetch from the model's ``fit_cache``) one layer's quantized form.

    The first layer asked for under a branch context fits every layer of
    the model under it (see ``FitCache``).
    """
    if ctx is None:
        ctx = default_context()
    if not (0 <= i < model.n_layers):
        raise InvalidDimensionError(f"layer {i} out of range")
    if bits not in QUANT_BITS:
        raise InvalidBitsError(f"bits {bits} not in {QUANT_BITS}")
    return _layer_for(model, i, bits, ctx)


def _validate_alloc(model: ToyModel, alloc: Mapping[int, int]):
    for i in range(model.n_layers):
        if i not in alloc:
            raise InvalidBitsError(f"allocation missing layer {i}")
        if alloc[i] not in ALLOWED_BITS:
            raise InvalidBitsError(
                f"layer {i} bits {alloc[i]} not in {ALLOWED_BITS}"
            )
    for key in alloc:
        if not (0 <= int(key) < model.n_layers):
            raise InvalidBitsError(f"allocation names unknown layer {key}")


def forward_batch(model: ToyModel, alloc, xs, ctx: QuantContext | None = None,
                  cache: EvalCache | None = None) -> np.ndarray:
    """Quantized forward, one input per row; layers at 32 bits run dense.

    ``cache`` is the model's own ``eval_cache`` or None.  With it, (``xs``,
    ``ctx``) becomes the cache's scope and the forward resumes from the
    longest prefix of layers whose bits match the cache's last forward: it
    starts from the cached activation entering the first differing layer
    (the last layer's output is not cached, so that layer always runs) and
    caches the activations of the layers it runs.  A cached activation is
    the very array an earlier forward in the same scope computed from the
    same input through the same layers, so every layer sees the inputs a
    full forward would give it and the result is bit-identical.
    """
    if ctx is None:
        ctx = default_context()
    xs = as_matrix(xs)
    if xs.shape[1] != model.dims[0]:
        raise InvalidDimensionError(
            f"input width {xs.shape[1]} does not match model width {model.dims[0]}"
        )
    _validate_alloc(model, alloc)
    n = model.n_layers
    bits = tuple(alloc[i] for i in range(n))
    start = 0
    if cache is not None:
        cache.enter(xs, ctx)
        while start < len(cache.bits) and bits[start] == cache.bits[start]:
            start += 1
        xs = cache.acts[start]
        del cache.acts[start + 1:]
        del cache.bits[start:]
    for i in range(start, n):
        if bits[i] == PASSTHROUGH_BITS:
            xs = np.einsum("nd,od->no", xs, model.weights[i])
        else:
            xs = forward_quantized_batch(_layer_for(model, i, bits[i], ctx), xs)
        if i < n - 1:
            xs = np.maximum(xs, LEAKY_SLOPE * xs)  # the leaky rectifier, 0 < slope < 1
            if cache is not None:
                cache.acts.append(xs)
                cache.bits.append(bits[i])
    return xs


def gen_calibration(model: ToyModel, count: int, seed: int) -> CalibrationSet:
    """``count`` i.i.d. standard-normal inputs plus exact dense outputs.

    Input j comes from substream (TAG_CALIB, j) of ``seed``.
    """
    if count < 1:
        raise InvalidDimensionError(f"count must be >= 1, got {count}")
    d0 = model.dims[0]
    xs = np.stack(
        [gaussian_stream(substream(seed, TAG_CALIB, j), d0) for j in range(count)],
        axis=0,
    )
    all32 = {i: PASSTHROUGH_BITS for i in range(model.n_layers)}
    fp = forward_batch(model, all32, xs, default_context())
    return CalibrationSet(
        inputs=tuple(xs[j] for j in range(count)),
        fp_outputs=tuple(fp[j] for j in range(count)),
        seed=int(seed),
    )


def end_to_end_mse(model: ToyModel, alloc, calib: CalibrationSet, ctx: QuantContext | None = None) -> float:
    """Mean over the calibration set of |out - fp|^2 / output_dim.

    This is the search's performance indicator once environment bits are
    folded into ``alloc``.  Results are memoized in the model's
    ``EvalCache`` by bit tuple, for the current scope only: the
    calibration's input matrix (by identity) and ``ctx``.  A miss runs
    ``forward_batch`` through the same cache, so it resumes from the
    longest layer prefix shared with the previous evaluation and gives
    the value a full forward gives, bit for bit.
    """
    if ctx is None:
        ctx = default_context()
    _validate_alloc(model, alloc)
    cache = model.eval_cache
    cache.enter(calib.input_matrix, ctx)
    key = tuple(alloc[i] for i in range(model.n_layers))
    hit = cache.mse.get(key)
    if hit is not None:
        cache.hits += 1
        return hit
    cache.misses += 1
    out = forward_batch(model, alloc, calib.input_matrix, ctx, cache=cache)
    diff = out - calib.output_matrix
    mse = float(np.mean(diff * diff))
    cache.mse[key] = mse
    return mse


def module_mean_bits(config: dict, model: ToyModel) -> float:
    """FLOPs-weighted mean over the module's own layers only."""
    flops = model.flops
    total = sum(flops[i] for i in config)
    return sum(flops[i] * b for i, b in config.items()) / total


def mean_bitwidth(alloc, model: ToyModel) -> float:
    """FLOPs-weighted average bit-width over the full allocation."""
    _validate_alloc(model, alloc)
    return module_mean_bits(alloc, model)


def model_to_json(model: ToyModel) -> str:
    from .branches import _matrix_to_json

    return json.dumps(
        {
            "spec": json.loads(model.spec.to_json()),
            "flops": list(model.flops),
            "weights": [_matrix_to_json(w) for w in model.weights],
        }
    )
