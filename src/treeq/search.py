"""Tree-structured bit-width search over per-layer Pareto queues.

Each layer starts as a leaf queue of candidate bit-widths scored by the
end-to-end indicator under an environment (all layers outside the module
run at ``env_bits``).  Adjacent queues are merged bottom-up: every pair of
entries forms a union whose indicator is re-evaluated on the merged span —
never summed from the parts, which is the whole point of the method — and
the result is filtered to its Pareto frontier and pruned toward the target
mean bit-width.  After exactly n-1 merges the root queue covers the model
and the entry closest to the target wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import InvalidBitsError, InvalidSpanError
from .linalg import as_int
from .quantizer import QUANT_BITS
from .toymodel import (
    ALLOWED_BITS,
    CalibrationSet,
    QuantContext,
    ToyModel,
    end_to_end_mse,
    module_mean_bits,
)


@dataclass(frozen=True)
class SearchParams:
    """A search's settings, checked and normalized once, when built.

    ``candidates`` become a sorted tuple of ints, and ``k`` and
    ``env_bits`` ints (``as_int``; InvalidBitsError otherwise).  The
    params are frozen, so no later assignment skips these checks; derive
    other params with ``dataclasses.replace``, which checks them again.
    """

    calib: CalibrationSet
    candidates: tuple = (2, 3, 4, 5)
    k: int = 16
    target: float = 3.0
    env_bits: int = 3

    def __post_init__(self):
        candidates = tuple(
            sorted(as_int(b, "candidate bits", InvalidBitsError) for b in self.candidates)
        )
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "k", as_int(self.k, "k", InvalidBitsError))
        object.__setattr__(self, "env_bits", as_int(self.env_bits, "env_bits", InvalidBitsError))
        if not self.candidates:
            raise InvalidBitsError("candidate set must not be empty")
        for b in self.candidates:
            if b not in QUANT_BITS:
                raise InvalidBitsError(f"candidate bits {b} unsupported")
        if self.k < len(self.candidates):
            raise InvalidBitsError(
                f"k={self.k} smaller than candidate count {len(self.candidates)}"
            )
        if not (self.candidates[0] <= self.target <= self.candidates[-1]):
            raise InvalidBitsError(
                f"target {self.target} outside candidate hull {self.candidates}"
            )
        if self.env_bits not in ALLOWED_BITS:
            raise InvalidBitsError(f"env_bits {self.env_bits} not in {ALLOWED_BITS}")


@dataclass
class ParetoEntry:
    config: dict
    indicator: float
    mean_bits: float


@dataclass
class ParetoQueue:
    """Entries sorted by mean_bits ascending; none dominates another."""

    span: tuple | None
    entries: list
    raw_frontier_size: int | None = None  # pre-pruning size, for merge traces


def _config_span(config: dict) -> tuple:
    keys = sorted(config)
    if not keys or keys != list(range(keys[0], keys[-1] + 1)):
        raise InvalidSpanError(f"config layers {keys} are not a contiguous interval")
    return (keys[0], keys[-1])


def build_frontier(entries: list) -> ParetoQueue:
    """Non-dominated subset, sorted by mean_bits ascending.

    Exact ties on both coordinates keep the earliest entry by insertion
    order.  Single sweep over the (mean_bits, indicator)-sorted list: an
    entry survives iff its indicator strictly undercuts everything kept
    before it.
    """
    if not entries:
        return ParetoQueue(span=None, entries=[])
    span = _config_span(entries[0].config)
    for e in entries[1:]:
        if _config_span(e.config) != span:
            raise InvalidSpanError("entries span different modules")
    ranked = sorted(entries, key=lambda e: (e.mean_bits, e.indicator))
    kept = []
    best = float("inf")
    for e in ranked:
        if e.indicator < best:
            kept.append(e)
            best = e.indicator
    return ParetoQueue(span=span, entries=kept)


def apply_eng(alloc: dict, env_bits: int, n: int) -> dict:
    """Extend a module-local config to all n layers, filling with env_bits
    (``SearchParams`` checks it, and ``alloc_bits`` every allocation)."""
    return {i: alloc.get(i, env_bits) for i in range(n)}


def _evaluate_configs(configs, params: SearchParams, model: ToyModel, ctx: QuantContext):
    """Indicator of each module config under the environment, in input order.

    Consecutive configs of a leaf or merge share their leading layers, so
    evaluating them in order lets each forward resume from the previous
    one's activations (see ``end_to_end_mse``).
    """
    allocs = [apply_eng(c, params.env_bits, model.n_layers) for c in configs]
    return [end_to_end_mse(model, a, params.calib, ctx) for a in allocs]


def leaf_queue(layer: int, params: SearchParams, model: ToyModel, ctx: QuantContext) -> ParetoQueue:
    """Enumerate the candidate bit-widths of one layer under the environment."""
    if not (0 <= layer < model.n_layers):
        raise InvalidSpanError(f"layer {layer} out of range")
    configs = [{layer: b} for b in params.candidates]
    values = _evaluate_configs(configs, params, model, ctx)
    entries = [
        ParetoEntry(config=c, indicator=v, mean_bits=module_mean_bits(c, model))
        for c, v in zip(configs, values)
    ]
    return build_frontier(entries)


def merge(qa: ParetoQueue, qb: ParetoQueue, params: SearchParams, model: ToyModel, ctx: QuantContext) -> ParetoQueue:
    """Cartesian-merge two adjacent queues and re-score every union.

    The merged frontier is pruned to the k entries whose mean bit-widths
    sit closest to the target (ties: lower indicator, then lower
    mean_bits).  Union enumeration order pairs low-bit entries of the
    earlier module first, which fixes all downstream tie-breaking.
    """
    if qa.span is None or qb.span is None:
        raise InvalidSpanError("cannot merge an empty queue")
    if qa.span[1] + 1 != qb.span[0]:
        raise InvalidSpanError(f"spans {qa.span} and {qb.span} are not adjacent")
    unions = [
        {**ea.config, **eb.config} for ea in qa.entries for eb in qb.entries
    ]
    values = _evaluate_configs(unions, params, model, ctx)
    entries = [
        ParetoEntry(config=c, indicator=v, mean_bits=module_mean_bits(c, model))
        for c, v in zip(unions, values)
    ]
    queue = build_frontier(entries)
    size = len(queue.entries)
    if len(qa.entries) >= 2 and len(qb.entries) >= 2 and size >= len(unions):
        warnings.warn(
            f"merged frontier at span {queue.span} kept all {size} unions; "
            "expected strict sparsity",
            stacklevel=2,
        )
    if size > params.k:
        pruned = sorted(queue.entries, key=_closeness(params.target))[: params.k]
        queue = ParetoQueue(
            span=queue.span,
            entries=sorted(pruned, key=lambda e: e.mean_bits),
        )
    queue.raw_frontier_size = size
    return queue


@dataclass
class SearchResult:
    final: dict
    root: ParetoQueue
    evals: int
    merge_trace: list
    target: float
    env_bits: int
    k: int
    candidates: tuple
    mean_bits: float
    indicator: float


# how far a pick's mean bits may lie from the target and still meet the budget
BUDGET_TOLERANCE = 0.25


def _closeness(target: float):
    """Sort key: mean_bits nearest ``target`` first, then lower indicator, then lower bits."""
    return lambda e: (abs(e.mean_bits - target), e.indicator, e.mean_bits)


def select_entry(entries, target: float) -> ParetoEntry:
    """Entry with mean_bits closest to target; ties prefer lower indicator."""
    return min(entries, key=_closeness(target))


def tss_search(model: ToyModel, params: SearchParams, ctx: QuantContext = QuantContext()) -> SearchResult:
    """Full tree-structured search: leaves, balanced merges, final selection.

    Merges pair adjacent queues (1,2), (3,4), ... each round, promoting an
    odd leftover, until one root remains; any schedule performs exactly
    n-1 merges.  The evaluations, n * |candidates| for the leaves plus
    |qa| * |qb| for each merge, never exceed n * |candidates| + (n-1) * k^2.
    """
    queues = [leaf_queue(i, params, model, ctx) for i in range(model.n_layers)]
    evals = model.n_layers * len(params.candidates)
    trace = []
    while len(queues) > 1:
        merged = []
        for j in range(0, len(queues) - 1, 2):
            evals += len(queues[j].entries) * len(queues[j + 1].entries)
            q = merge(queues[j], queues[j + 1], params, model, ctx)
            trace.append(q.raw_frontier_size)
            merged.append(q)
        if len(queues) % 2:
            merged.append(queues[-1])
        queues = merged
    root = queues[0]
    assert len(trace) == model.n_layers - 1
    bound = model.n_layers * len(params.candidates) + (model.n_layers - 1) * params.k**2
    assert evals <= bound, f"eval count {evals} exceeds bound {bound}"
    best = select_entry(root.entries, params.target)
    return SearchResult(
        final=dict(best.config),
        root=root,
        evals=evals,
        merge_trace=trace,
        target=params.target,
        env_bits=params.env_bits,
        k=params.k,
        candidates=params.candidates,
        mean_bits=best.mean_bits,
        indicator=best.indicator,
    )
