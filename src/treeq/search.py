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

import json
import warnings
from dataclasses import dataclass, field

from .errors import InvalidBitsError, InvalidSpanError
from .toymodel import (
    ALLOWED_BITS,
    CalibrationSet,
    QuantContext,
    ToyModel,
    end_to_end_mse,
)


class EvalCounter:
    """Monotone count of indicator evaluations."""

    def __init__(self):
        self._value = 0

    def add(self, n: int = 1):
        self._value += n

    @property
    def value(self) -> int:
        return self._value


@dataclass
class SearchParams:
    calib: CalibrationSet
    candidates: tuple = (2, 3, 4, 5)
    k: int = 16
    target: float = 3.0
    env_bits: int = 3
    eval_counter: EvalCounter = field(default_factory=EvalCounter)

    def __post_init__(self):
        self.candidates = tuple(sorted(int(b) for b in self.candidates))
        if not self.candidates:
            raise InvalidBitsError("candidate set must not be empty")
        for b in self.candidates:
            if b not in (2, 3, 4, 5, 6, 7, 8):
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


def dominates(a: ParetoEntry, b: ParetoEntry) -> bool:
    """True iff a is at least as good on both axes and better on one."""
    if a.indicator > b.indicator or a.mean_bits > b.mean_bits:
        return False
    return a.indicator < b.indicator or a.mean_bits < b.mean_bits


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


def module_mean_bits(config: dict, model: ToyModel) -> float:
    """FLOPs-weighted mean over the module's own layers only."""
    flops = model.flops
    total = sum(flops[i] for i in config)
    return sum(flops[i] * b for i, b in config.items()) / total


def apply_eng(alloc: dict, env_bits: int, n: int) -> dict:
    """Extend a module-local config to all n layers, filling with env_bits."""
    if env_bits not in ALLOWED_BITS:
        raise InvalidBitsError(f"env_bits {env_bits} not in {ALLOWED_BITS}")
    return {i: alloc.get(i, env_bits) for i in range(n)}


def _evaluate_configs(configs, params: SearchParams, model: ToyModel, ctx: QuantContext):
    """Indicator of each module config under the environment, in input order.

    Consecutive configs of a leaf or merge share their leading layers, so
    evaluating them in order lets each forward resume from the previous
    one's activations (see ``end_to_end_mse``).
    """
    allocs = [apply_eng(c, params.env_bits, model.n_layers) for c in configs]
    params.eval_counter.add(len(configs))
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
        pruned = sorted(
            queue.entries,
            key=lambda e: (abs(e.mean_bits - params.target), e.indicator, e.mean_bits),
        )[: params.k]
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


def select_entry(entries, target: float) -> ParetoEntry:
    """Entry with mean_bits closest to target; ties prefer lower indicator."""
    return min(
        entries, key=lambda e: (abs(e.mean_bits - target), e.indicator, e.mean_bits)
    )


def tss_search(model: ToyModel, params: SearchParams, ctx: QuantContext | None = None) -> SearchResult:
    """Full tree-structured search: leaves, balanced merges, final selection.

    Merges pair adjacent queues (1,2), (3,4), ... each round, promoting an
    odd leftover, until one root remains; any schedule performs exactly
    n-1 merges.  The evaluation counter never exceeds
    n * |candidates| + (n-1) * k^2.
    """
    if ctx is None:
        from .toymodel import default_context

        ctx = default_context()
    start = params.eval_counter.value
    queues = [leaf_queue(i, params, model, ctx) for i in range(model.n_layers)]
    trace = []
    while len(queues) > 1:
        merged = []
        for j in range(0, len(queues) - 1, 2):
            q = merge(queues[j], queues[j + 1], params, model, ctx)
            trace.append(q.raw_frontier_size)
            merged.append(q)
        if len(queues) % 2:
            merged.append(queues[-1])
        queues = merged
    root = queues[0]
    assert len(trace) == model.n_layers - 1
    evals = params.eval_counter.value - start
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


def result_to_json(result: SearchResult) -> str:
    return json.dumps(
        {
            "target": result.target,
            "env_bits": result.env_bits,
            "k": result.k,
            "candidates": list(result.candidates),
            "final_alloc": {str(i): result.final[i] for i in sorted(result.final)},
            "mean_bits": result.mean_bits,
            "indicator": result.indicator,
            "evals": result.evals,
            "merge_trace": result.merge_trace,
        },
        sort_keys=True,
    )
