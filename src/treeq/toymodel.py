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
import math
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from .branches import (
    LayerHalf,
    QuantContext,
    QuantizedLinear,
    branch_decomposition,
    forward_quantized_batch,
    fit_plan,
    matrix_to_json,
    quantize_fit,
)
from .errors import ConvergenceError, InvalidBitsError, InvalidDimensionError
from .linalg import as_int, as_matrix, frozen, is_int, splitmix64
from .quantizer import QUANT_BITS, check_bits

LEAKY_SLOPE = 0.1
# a layer at this width runs its dense weight: the noise-free environment
PASSTHROUGH_BITS = 32
ALLOWED_BITS = QUANT_BITS + (PASSTHROUGH_BITS,)
_ALLOWED = frozenset(ALLOWED_BITS)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# substream tags (see module docstring)
TAG_WEIGHT = 1
TAG_OUTLIER = 2
TAG_CALIB = 3
TAG_DERIVE = 4

# the largest magnitude a calibration set's dense activations may reach:
# squares of such values, and sums of 1024 of them, stay finite in float64
DENSE_BOUND = 2.0**500

# bytes per stacked SVD input of a branch fit: fits that would stack more
# are split over several calls (a problem alone if it is larger)
FIT_STACK_BYTES = 1 << 24


def gen(seed: int, index: int) -> int:
    """The counter-based generator: value of stream ``seed`` at ``index``."""
    z = (int(seed) + (int(index) + 1) * _GAMMA) & _MASK
    return int(splitmix64(np.array([z], dtype=np.uint64))[0])


def _gen_block(seed: int, count: int) -> np.ndarray:
    """Vectorized gen(seed, 0..count-1); bit-identical to the scalar form."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return splitmix64(np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA))


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


def _check_seed(seed) -> int:
    """``seed`` as an int; InvalidDimensionError unless it is an integer in [0, 2^64)."""
    seed = as_int(seed, "seed")
    if not (0 <= seed <= _MASK):
        raise InvalidDimensionError("seed must fit in 64 bits")
    return seed


@dataclass(frozen=True)
class ModelSpec:
    """Blueprint for a synthetic chain: sizes, seed, and outlier structure.

    No accepted shape comes near float64 underflow in the dense forward:
    the weakest chain measured, 128 layers of width 8 with no outliers,
    has an output power of 1.9e-58, against a smallest normal of 2.2e-308.
    """

    n_layers: int
    dims: tuple
    seed: int
    outlier_fraction: float = 0.0
    outlier_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_layers", as_int(self.n_layers, "n_layers"))
        object.__setattr__(self, "dims", tuple(as_int(d, "dims entry") for d in self.dims))
        object.__setattr__(self, "seed", _check_seed(self.seed))
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
        if not (0.0 <= self.outlier_fraction <= 1.0):
            raise InvalidDimensionError("outlier_fraction must be in [0, 1]")
        if not (math.isfinite(self.outlier_scale) and self.outlier_scale >= 1.0):
            raise InvalidDimensionError("outlier_scale must be finite and >= 1")


class EvalCache:
    """Prefix activations, their layers' bits-independent halves and the
    MSE memo of one scope.

    A scope is one ``frozen`` input matrix (by identity) under one context
    (by value).  For it the cache keeps the activations entering each
    layer of the last forward (``acts[0]`` is the input matrix itself,
    ``acts[j + 1]`` the output of layer j after the leaky rectifier), the
    bits of the layers that produced them (``bits[j]`` for ``acts[j + 1]``,
    so ``len(acts) == len(bits) + 1`` holds even if a forward raises part
    way), beside each activation the ``LayerHalf`` of the layer it enters
    (``halves[j]`` for ``acts[j]``, empty until a quantized layer runs on
    it, so ``len(halves) == len(acts)``), and the MSE of every allocation
    evaluated against one ``target`` (a ``frozen`` matrix of dense outputs,
    by identity), keyed by bit tuple.  A level holds one activation-sized
    array, and two more once its half is filled: the unit rows and the
    branch term.  A half is truncated with its activation, and entering a
    new scope drops all of it.  Identity is sound because no caller can
    make a ``frozen`` array writable again: the scope holds the values it
    held when it was entered (and checked, by ``_scope_input``), and the
    cache owns every other activation and every half.
    """

    def __init__(self):
        self.ctx, self.bits, self.acts, self.halves, self.target, self.mse = (
            None, [], [], [], None, {})

    def enter(self, xs: np.ndarray, ctx: QuantContext, target: np.ndarray | None = None) -> dict:
        """Make (``xs``, ``ctx``) the scope, dropping any other one, and
        return the scope's MSE memo.  A ``target`` other than the memo's
        drops the memo and becomes its target; with none, as from a
        forward, the memo stays as it is."""
        if not (self.acts and self.acts[0] is xs and self.ctx == ctx):
            self.ctx, self.bits, self.acts, self.halves, self.target, self.mse = (
                ctx, [], [xs], [LayerHalf()], None, {})
        if target is not None and target is not self.target:
            self.target, self.mse = target, {}
        return self.mse


@dataclass(frozen=True, eq=False)
class ToyModel:
    """A chain's spec, its weights (a tuple of frozen matrices) and
    every branch fit of it, finished at every bit-width.

    ``fits[(i, chain)]`` holds layer i's quantized layers, one per width
    of QUANT_BITS, keyed by width (see ``fit_all``).  A layer's fit is
    named by the ``QuantContext.chain`` a context poses on it, so contexts
    that pose the same chain share one fit.  The rotation and the steps
    are the same for every context, so a layer's fit and a width fix the
    layer, and contexts that share a fit share its layers.  All widths
    share one ``Branches``, which keeps only factors, and one array of row
    scales; each layer adds only its residual's int8 grid (n_out x n_in
    bytes) and its row steps (n_out floats).

    The model is frozen, its weights are a tuple and ``gen_model`` makes
    each matrix ``frozen``, because ``fits`` names a layer's weight by its
    index alone: no weight may change under its fits.  A model equals
    only itself.
    """

    spec: ModelSpec
    weights: tuple
    fits: dict = field(default_factory=dict, repr=False)
    eval_cache: EvalCache = field(default_factory=EvalCache, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))

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
    multiplied by outlier_scale.  Each matrix is ``frozen``, so that no
    caller can make it writable again (see ``ToyModel``).
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
        weights.append(frozen(w))
    return ToyModel(spec=spec, weights=weights)


@dataclass(frozen=True, eq=False)
class CalibrationSet:
    """Inputs, one per row, and their exact dense outputs.

    Both matrices are ``frozen`` when the set is built (a copy unless the
    matrix given is frozen already), hand-built sets included, and a set
    equals only itself.  An ``EvalCache`` scopes the input matrix and
    memoizes against the output matrix by identity, which is sound
    because no caller can make either writable again.
    """

    input_matrix: np.ndarray
    output_matrix: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "input_matrix", frozen(self.input_matrix))
        object.__setattr__(self, "output_matrix", frozen(self.output_matrix))


def fit_all(model: ToyModel, ctxs) -> None:
    """Fit every layer under each context of the sequence ``ctxs`` whose
    chain it has no fit under yet, into ``model.fits``.

    A layer's fit is named by its ``QuantContext.chain``, so contexts that
    pose the same chain on a layer share one fit.  Fits are eager and
    stacked: the first time a chain is asked of any layer, every layer is
    fitted under its context.  Layers are grouped by shape and by the
    chains they lack, and each group is fitted in one
    ``branch_decomposition`` call over all its layers and chains, so every
    fit problem the chains share (see ``branches.fit_plan``) is solved
    once, in one SVD call per plan call.  To keep every stacked SVD input
    within FIT_STACK_BYTES, unless it holds a single problem, a group's
    chains are split into runs whose width, the problem count of the
    plan's largest call, stacks at most that many bytes per layer, and
    each run's layers into chunks.  A single context makes one call per
    shape and chunk.  Every fit is quantized at every width of QUANT_BITS
    straight away, in one ``quantize_fit`` call per layer and chain (one
    pass over its rows), and the float residual is dropped once that is
    done.
    """
    groups = {}
    for i, w in enumerate(model.weights):
        chains = dict.fromkeys(ctx.chain(*w.shape) for ctx in ctxs)
        missing = tuple(chain for chain in chains if (i, chain) not in model.fits)
        if missing:
            groups.setdefault((w.shape, missing), []).append(i)
    for ((n_out, n_in), chains), layers in groups.items():
        per_call = max(1, FIT_STACK_BYTES // (8 * n_out * n_in))
        runs = [[]]
        for chain in chains:
            if runs[-1] and _plan_width(runs[-1] + [chain]) > per_call:
                runs.append([])
            runs[-1].append(chain)
        for run in runs:
            per_chunk = max(1, per_call // _plan_width(run))
            for start in range(0, len(layers), per_chunk):
                chunk = layers[start : start + per_chunk]
                try:
                    fitted = branch_decomposition(
                        np.stack([model.weights[i] for i in chunk]), run
                    )
                except ConvergenceError as e:
                    names = ", ".join(map(str, chunk))
                    raise ConvergenceError(
                        f"branch fit of layers {names}: {e.message}", e.residual
                    ) from e
                for chain, fits in zip(run, fitted):
                    for i, (fit, w_res) in zip(chunk, fits):
                        model.fits[(i, chain)] = quantize_fit(w_res, fit)


def _plan_width(chains) -> int:
    """The most problems per layer that one call of the chains' ``fit_plan`` stacks."""
    return max(len(problems) for _, problems in fit_plan(chains))


def _layer_for(model: ToyModel, i: int, bits: int, ctx: QuantContext) -> QuantizedLinear:
    key = (i, ctx.chain(*model.weights[i].shape))
    if key not in model.fits:
        fit_all(model, (ctx,))
    return model.fits[key][bits]


def quantized_layer(model: ToyModel, i: int, bits: int, ctx: QuantContext = QuantContext()) -> QuantizedLinear:
    """Layer i quantized at ``bits`` under ``ctx``, from the model's ``fits``.

    The first layer asked for under a branch context fits every layer of
    the model under it and quantizes each at every width (see
    ``fit_all``); every later call is a lookup that returns the same
    object.  ``i`` must be an integer layer index (InvalidDimensionError),
    and ``bits`` pass ``check_bits`` (InvalidBitsError).
    """
    i = as_int(i, "layer")
    if not (0 <= i < model.n_layers):
        raise InvalidDimensionError(f"layer {i} out of range")
    check_bits(bits)
    return _layer_for(model, i, bits, ctx)


def alloc_bits(model: ToyModel, alloc: Mapping[int, int]) -> tuple:
    """The bits of ``alloc`` as a tuple of ints, layer by layer: the one
    check of an allocation.  Its keys must be exactly layers 0..n-1 and its
    values widths of ALLOWED_BITS, all integers by ``as_int``'s rule
    (``is_int``), which refuses ``True``, ``1.0`` and ``3.0`` although a
    dict takes them for 1 and 3.  InvalidBitsError names the first key or
    layer at fault.  A dict of ``int`` keys and values is checked in a few
    set operations, and any other allocation key by key."""
    n = model.n_layers
    if type(alloc) is dict and len(alloc) == n:
        bits = tuple(map(alloc.get, range(n)))
        if {*map(type, alloc), *map(type, bits)} == {int} and _ALLOWED.issuperset(bits):
            return bits
    for key in alloc:
        if not (is_int(key) and 0 <= key < n):
            raise InvalidBitsError(f"allocation names unknown layer {key!r}")
    for i in range(n):
        if i not in alloc:
            raise InvalidBitsError(f"allocation missing layer {i}")
        if not is_int(alloc[i]):
            raise InvalidBitsError(f"layer {i} bits must be an integer, got {alloc[i]!r}")
        if alloc[i] not in ALLOWED_BITS:
            raise InvalidBitsError(f"layer {i} bits {alloc[i]} not in {ALLOWED_BITS}")
    return tuple(int(alloc[i]) for i in range(n))


def _scope_input(model: ToyModel, xs) -> np.ndarray:
    """``frozen(xs)``, checked to be a finite matrix of the model's input
    width (InvalidDimensionError otherwise), or ``xs`` itself, unchecked,
    when it is the ``eval_cache``'s scope: only a checked input enters it."""
    cache = model.eval_cache
    if cache.acts and cache.acts[0] is xs:
        return xs
    xs = frozen(as_matrix(xs))
    if xs.shape[1] != model.dims[0]:
        raise InvalidDimensionError(f"input width {xs.shape[1]} does not match model width "
                                    f"{model.dims[0]}")
    return xs


def forward_batch(model: ToyModel, alloc, xs, ctx: QuantContext = QuantContext()) -> np.ndarray:
    """Quantized forward, one input per row; layers at 32 bits run dense.

    (``xs``, ``ctx``) becomes the scope of the model's ``eval_cache``, and
    the forward resumes from the longest prefix of layers whose bits match
    the cache's last forward (the last layer always runs), caching the
    activations of the layers it runs.  A quantized layer runs
    ``forward_quantized_batch`` with the cache's ``LayerHalf`` of its
    input, filled once per level and reused at every width of the same
    fit; a 32-bit layer runs its dense weight, as one BLAS ``matmul``.  A
    cached activation or half is the very array an earlier forward of the
    scope computed by the same operations, so the result is bit-identical
    to a forward on a fresh cache (README's determinism contract says what
    its bits depend on; a row of a batch may differ from that row alone).
    The scope is ``xs`` if it is frozen, else a frozen copy, so an input
    that can still be written never resumes an earlier forward.  ``xs``
    must be a finite matrix of the model's input width, checked as it
    enters the scope (``_scope_input``), and ``alloc`` pass ``alloc_bits``.
    """
    xs = _scope_input(model, xs)
    bits = alloc_bits(model, alloc)
    n = model.n_layers
    cache = model.eval_cache
    cache.enter(xs, ctx)
    start = 0
    while start < len(cache.bits) and bits[start] == cache.bits[start]:
        start += 1
    xs = cache.acts[start]
    del cache.acts[start + 1:]
    del cache.halves[start + 1:]
    del cache.bits[start:]
    for i in range(start, n):
        if bits[i] == PASSTHROUGH_BITS:
            xs = xs @ model.weights[i].T
        else:
            xs = forward_quantized_batch(_layer_for(model, i, bits[i], ctx), xs, cache.halves[i])
        if i < n - 1:
            # the leaky rectifier (0 < slope < 1), in place on the layer's fresh output
            np.maximum(xs, LEAKY_SLOPE * xs, out=xs)
            cache.acts.append(xs)
            cache.halves.append(LayerHalf())
            cache.bits.append(bits[i])
    return xs


def check_calibration(count: int, seed) -> int:
    """``seed`` as an int; InvalidDimensionError unless ``count`` is an
    integer >= 1 and ``seed`` an integer in [0, 2^64), as a model's seed
    must be."""
    if as_int(count, "count") < 1:
        raise InvalidDimensionError(f"count must be >= 1, got {count}")
    return _check_seed(seed)


def gen_calibration(model: ToyModel, count: int, seed: int) -> CalibrationSet:
    """``count`` i.i.d. standard-normal inputs plus exact dense outputs.

    Input j comes from substream (TAG_CALIB, j) of ``seed``; see
    ``check_calibration`` for the arguments' ranges.  The input matrix is
    ``frozen`` first, so the set holds the very scope of its dense forward
    (see ``CalibrationSet``).  That forward runs through the model's
    ``eval_cache``, and every activation it leaves there and its output
    must stay within DENSE_BOUND in magnitude: otherwise the model's
    outliers make the forward overflow, and InvalidDimensionError names
    the first layer past the bound and the outlier settings.
    """
    seed = check_calibration(count, seed)
    d0 = model.dims[0]
    xs = frozen(
        np.stack([gaussian_stream(substream(seed, TAG_CALIB, j), d0) for j in range(count)])
    )
    all32 = {i: PASSTHROUGH_BITS for i in range(model.n_layers)}
    with np.errstate(over="ignore", invalid="ignore"):
        fp = forward_batch(model, all32, xs)
    for j, act in enumerate(model.eval_cache.acts + [fp]):
        peak = float(np.max(np.abs(act)))
        if not peak <= DENSE_BOUND:
            where = f"entering layer {j}" if j < model.n_layers else "at the output"
            raise InvalidDimensionError(
                f"the dense forward overflows: its activation {where} reaches {peak:.3g}, "
                f"above 2^500 = {DENSE_BOUND:.3g} (outlier_fraction {model.spec.outlier_fraction}, "
                f"outlier_scale {model.spec.outlier_scale:g})"
            )
    return CalibrationSet(input_matrix=xs, output_matrix=fp, seed=seed)


def end_to_end_mse(model: ToyModel, alloc, calib: CalibrationSet, ctx: QuantContext = QuantContext()) -> float:
    """Mean over the calibration set of |out - fp|^2 / output_dim.

    This is the search's performance indicator once environment bits are
    folded into ``alloc``.  Results are memoized in the model's
    ``EvalCache`` by the tuple ``alloc_bits`` returns, for one scope only:
    the calibration's (``frozen``) input matrix, checked as it enters, and
    ``ctx``, with its output matrix as the memo's target, the matrices by
    identity.  The allocation is checked first, so a hit and a miss accept
    the same allocations.  A miss runs ``forward_batch``, which resumes from
    the longest layer prefix shared with the scope's previous evaluation,
    so it gives the value a full forward gives, bit for bit.  A value that
    is not finite (the quantized forward overflowed) raises
    InvalidDimensionError naming the allocation, and is not memoized.
    """
    key = alloc_bits(model, alloc)
    xs = _scope_input(model, calib.input_matrix)
    memo = model.eval_cache.enter(xs, ctx, calib.output_matrix)
    if key in memo:
        return memo[key]
    with np.errstate(over="ignore", invalid="ignore"):
        diff = forward_batch(model, alloc, xs, ctx) - calib.output_matrix
        mse = float(np.add.reduce(diff * diff, axis=None) / diff.size)  # np.mean, unwrapped
    if not math.isfinite(mse):
        raise InvalidDimensionError(
            f"the quantized forward of allocation {list(key)} gives a non-finite MSE ({mse})"
        )
    memo[key] = mse
    return mse


def module_mean_bits(config: dict, model: ToyModel) -> float:
    """FLOPs-weighted mean over the module's own layers only."""
    flops = model.flops
    total = sum(flops[i] for i in config)
    return sum(flops[i] * b for i, b in config.items()) / total


def mean_bitwidth(alloc, model: ToyModel) -> float:
    """FLOPs-weighted average bit-width over the full allocation (``alloc_bits``)."""
    alloc_bits(model, alloc)
    return module_mean_bits(alloc, model)


def model_to_json(model: ToyModel) -> str:
    return json.dumps(
        {
            "spec": asdict(model.spec),
            "flops": list(model.flops),
            "weights": [matrix_to_json(w) for w in model.weights],
        }
    )
