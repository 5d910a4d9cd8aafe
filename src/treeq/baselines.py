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

import numpy as np

from .errors import InvalidBitsError, InvalidDimensionError
from .linalg import as_int
from .toymodel import (ALLOWED_BITS, PASSTHROUGH_BITS, CalibrationSet, QuantContext, ToyModel,
                       forward_batch)

MAX_BUDGET_UNITS = 10**6


def sensitivity_tables(model: ToyModel, calib: CalibrationSet, ctx: QuantContext = QuantContext(),
                       candidates=(2, 3, 4, 5)) -> dict:
    """Isolation scores ``{"L1": {layer: {bits: score}}, "L2": {...}}``.

    Each (layer, bits) pair gets one quantized forward with every other
    layer at PASSTHROUGH_BITS; its score under each metric is the mean
    over calibration rows of that norm of the output error.  Layers run
    in order and bits ascending, so each forward resumes through the
    model's ``EvalCache`` after the dense prefix it shares with the last.
    A non-finite score (the quantized forward overflowed) raises
    InvalidDimensionError naming the layer, its bits and each metric that
    failed.  Warns if a layer's scores under a metric are not
    non-increasing in bits (more precision should never hurt).
    """
    tables = {"L1": {}, "L2": {}}
    for layer in range(model.n_layers):
        rows = {"L1": {}, "L2": {}}
        for b in sorted(candidates):
            alloc = {i: PASSTHROUGH_BITS for i in range(model.n_layers)}
            alloc[layer] = b
            with np.errstate(over="ignore", invalid="ignore"):
                diff = forward_batch(model, alloc, calib.input_matrix, ctx) - calib.output_matrix
                rows["L1"][b] = float(np.mean(np.sum(np.abs(diff), axis=1)))
                rows["L2"][b] = float(np.mean(np.sqrt(np.sum(diff * diff, axis=1))))
            bad = [f"{metric} score ({row[b]})" for metric, row in rows.items()
                   if not math.isfinite(row[b])]
            if bad:
                raise InvalidDimensionError(
                    f"the quantized forward with layer {layer} at {b} bits, every other at "
                    f"{PASSTHROUGH_BITS}, gives a non-finite {' and '.join(bad)}"
                )
        for metric, row in rows.items():
            ordered = list(row.values())  # bits ascending
            if any(lo < hi - 1e-12 for lo, hi in zip(ordered, ordered[1:])):
                warnings.warn(
                    f"layer {layer} {metric} sensitivity not monotone in bits: {row}",
                    stacklevel=2,
                )
            tables[metric][layer] = row
    return tables


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


def ip_allocate(scores: dict, flops, target: float, candidates=(2, 3, 4, 5)) -> dict:
    """Exact knapsack: minimize summed scores subject to the bit budget.

    ``scores[layer][bits]`` is one metric's table from sensitivity_tables.

    Dynamic program over integer budget units.  Ties break toward lower
    total bits, then toward the lexicographically smallest per-layer
    assignment.  Candidates must be integers (``as_int``) and the target
    must not sit below the cheapest of them (InvalidBitsError otherwise).
    """
    candidates = tuple(sorted(as_int(b, "candidate bits", InvalidBitsError) for b in candidates))
    n = len(flops)
    if n == 0 or any(f <= 0 for f in flops):
        raise InvalidBitsError("flops must be positive")
    if target < candidates[0]:
        raise InvalidBitsError(
            f"target {target} below cheapest candidate {candidates[0]}: infeasible"
        )
    for layer in range(n):
        for b in candidates:
            scores[layer][b]  # raises KeyError if the table is incomplete
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
            cand_score[cost:] = scores[layer][b] + next_score[: budget + 1 - cost]
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
    """Every layer at the same width, an integer (``as_int``) of ALLOWED_BITS."""
    bits = as_int(bits, "bits", InvalidBitsError)
    if bits not in ALLOWED_BITS:
        raise InvalidBitsError(f"bits {bits} unsupported for uniform allocation")
    return {i: bits for i in range(n)}
