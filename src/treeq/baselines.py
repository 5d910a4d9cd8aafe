"""Comparison allocators: uniform bits and integer-programming knapsack.

The IP route scores each layer in isolation (noise-free environment: every
other layer at full precision), then picks per-layer bits minimizing the
summed scores under a FLOPs-weighted budget.  It deliberately ignores
inter-layer coupling; the search module exists because that assumption
fails.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBitsError
from .toymodel import (ALLOWED_BITS, PASSTHROUGH_BITS, CalibrationSet, QuantContext, ToyModel,
                       forward_batch)

METRICS = ("L1", "L2")
MAX_BUDGET_UNITS = 10**6


@dataclass(frozen=True)
class SensitivityTable:
    """Per-(layer, bits) isolation scores under one metric."""

    metric: str
    scores: dict

    def score(self, layer: int, bits: int) -> float:
        return self.scores[layer][bits]


def layer_sensitivity(model: ToyModel, layer: int, bits: int, metric: str,
                      calib: CalibrationSet, ctx: QuantContext | None = None) -> float:
    """Mean output distance when only ``layer`` is quantized (rest at FP).

    The forward runs through the model's ``EvalCache``, so consecutive
    calls on one calibration set resume after the dense prefix they share.
    """
    if metric not in METRICS:
        raise InvalidBitsError(f"metric must be one of {METRICS}")
    alloc = {i: PASSTHROUGH_BITS for i in range(model.n_layers)}
    alloc[layer] = bits
    out = forward_batch(model, alloc, calib.input_matrix, ctx, cache=model.eval_cache)
    diff = out - calib.output_matrix
    if metric == "L1":
        return float(np.mean(np.sum(np.abs(diff), axis=1)))
    return float(np.mean(np.sqrt(np.sum(diff * diff, axis=1))))


def build_sensitivity_table(model: ToyModel, metric: str, calib: CalibrationSet,
                            ctx: QuantContext | None = None,
                            candidates=(2, 3, 4, 5)) -> SensitivityTable:
    """Score every (layer, bits) pair; warns if any layer's scores are not
    non-increasing in bits (more precision should never hurt)."""
    scores = {}
    for layer in range(model.n_layers):
        row = {}
        for b in sorted(candidates):
            row[b] = layer_sensitivity(model, layer, b, metric, calib, ctx)
        scores[layer] = row
        ordered = [row[b] for b in sorted(row)]
        if any(lo < hi - 1e-12 for lo, hi in zip(ordered, ordered[1:])):
            warnings.warn(
                f"layer {layer} sensitivity not monotone in bits: {row}",
                stacklevel=2,
            )
    return SensitivityTable(metric=metric, scores=scores)


def _budget_units(flops) -> list:
    """Scale FLOPs to integers with bounded total, preserving feasibility.

    The gcd scale is exact.  If the total still exceeds the cap, further
    halvings round each layer's units up, which only tightens the budget
    (a config feasible in scaled units is feasible in true FLOPs).
    """
    g = math.gcd(*flops)
    units = [f // g for f in flops]
    scale = 1
    while sum(units) > MAX_BUDGET_UNITS:
        scale *= 2
        units = [-(-f // (g * scale)) for f in flops]
    return units


def ip_allocate(table: SensitivityTable, flops, target: float, candidates=(2, 3, 4, 5)) -> dict:
    """Exact knapsack: minimize summed scores subject to the bit budget.

    Dynamic program over integer budget units.  Ties break toward lower
    total bits, then toward the lexicographically smallest per-layer
    assignment.  Raises if the target sits below the cheapest candidate.
    """
    candidates = tuple(sorted(int(b) for b in candidates))
    n = len(flops)
    if n == 0 or any(f <= 0 for f in flops):
        raise InvalidBitsError("flops must be positive")
    if target < candidates[0]:
        raise InvalidBitsError(
            f"target {target} below cheapest candidate {candidates[0]}: infeasible"
        )
    for layer in range(n):
        for b in candidates:
            table.score(layer, b)  # raises KeyError if the table is incomplete
    units = _budget_units(flops)
    budget = int(math.floor(target * sum(units) + 1e-9))
    inf = float("inf")
    next_score = np.zeros(budget + 1)
    next_bits = np.zeros(budget + 1, dtype=np.int64)
    choices = []
    for layer in range(n - 1, -1, -1):
        cur_score = np.full(budget + 1, inf)
        cur_bits = np.zeros(budget + 1, dtype=np.int64)
        cur_choice = np.full(budget + 1, -1, dtype=np.int8)
        for b in candidates:
            cost = units[layer] * b
            if cost > budget:
                continue
            cand_score = np.full(budget + 1, inf)
            cand_bits = np.zeros(budget + 1, dtype=np.int64)
            cand_score[cost:] = table.score(layer, b) + next_score[: budget + 1 - cost]
            cand_bits[cost:] = b + next_bits[: budget + 1 - cost]
            better = (cand_score < cur_score) | (
                (cand_score == cur_score) & (cand_bits < cur_bits)
            )
            cur_score = np.where(better, cand_score, cur_score)
            cur_bits = np.where(better, cand_bits, cur_bits)
            cur_choice = np.where(better, np.int8(b), cur_choice)
        choices.append(cur_choice)
        next_score, next_bits = cur_score, cur_bits
    choices.reverse()
    if not np.isfinite(next_score[budget]):
        raise InvalidBitsError(f"no allocation fits budget {target}")
    alloc = {}
    j = budget
    for layer in range(n):
        b = int(choices[layer][j])
        alloc[layer] = b
        j -= units[layer] * b
    return alloc


def uniform_allocate(n: int, bits: int) -> dict:
    """Every layer at the same width."""
    if bits not in ALLOWED_BITS:
        raise InvalidBitsError(f"bits {bits} unsupported for uniform allocation")
    return {i: int(bits) for i in range(n)}
