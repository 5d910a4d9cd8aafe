"""Output checks: agreement with the reference and properties of the method.

Each check returns a list of error strings; an empty list means the output
passed.  RTOL is the relative tolerance against the reference (see
README.md for why it is 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass

from reference import ReferenceModel, mean_bits

RTOL = 1e-9
MEAN_BITS_RTOL = 1e-12


def close(value: float, expected: float, rtol: float = RTOL) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


@dataclass
class SearchOutput:
    """What a search reports: its root frontier, its pick and its counts."""

    entries: list  # [(config, indicator, mean_bits)] of the root queue
    final: dict
    indicator: float
    mean_bits: float
    evals: int
    merges: int
    k: int
    target: float
    candidates: tuple


def from_result(result, merges=None) -> SearchOutput:
    """SearchOutput of a ``treeq.search.SearchResult``."""
    return SearchOutput(
        entries=[(dict(e.config), e.indicator, e.mean_bits) for e in result.root.entries],
        final=dict(result.final),
        indicator=result.indicator,
        mean_bits=result.mean_bits,
        evals=result.evals,
        merges=len(result.merge_trace) if merges is None else merges,
        k=result.k,
        target=result.target,
        candidates=tuple(result.candidates),
    )


def check_search(out: SearchOutput, ref, inputs, dims) -> list:
    """Check one search against the reference chain ``ref`` on ``inputs``."""
    n = len(dims) - 1
    errors = []
    if out.merges != n - 1:
        errors.append(f"{out.merges} merges, expected {n - 1}")
    bound = n * len(out.candidates) + (n - 1) * out.k ** 2
    if out.evals > bound:
        errors.append(f"{out.evals} evals exceed the bound {bound}")
    if not 1 <= len(out.entries) <= out.k:
        errors.append(f"root frontier has {len(out.entries)} entries, k={out.k}")
    for (_, ind_a, mb_a), (_, ind_b, mb_b) in zip(out.entries, out.entries[1:]):
        if mb_b < mb_a:
            errors.append(f"root frontier not sorted by mean bits: {mb_a} then {mb_b}")
        if not ind_b < ind_a:
            errors.append(f"root indicators not strictly falling: {ind_a} then {ind_b}")
    for config, indicator, mb in out.entries:
        if sorted(config) != list(range(n)) or not set(config.values()) <= set(out.candidates):
            errors.append(f"root config {config} is not a full candidate allocation")
            continue
        if not close(mb, mean_bits(config, dims), MEAN_BITS_RTOL):
            errors.append(f"mean_bits {mb} != {mean_bits(config, dims)} from FLOPs")
        expected = ref.mse(config, inputs)
        if not close(indicator, expected):
            errors.append(f"indicator {indicator!r} != reference {expected!r} for {config}")
    if out.entries:
        pick = min(out.entries, key=lambda e: (abs(e[2] - out.target), e[1], e[2]))
        if out.final != pick[0] or out.indicator != pick[1]:
            errors.append(f"pick {out.final} is not the entry closest to {out.target}")
    if not close(out.mean_bits, mean_bits(out.final, dims), MEAN_BITS_RTOL):
        errors.append(f"reported mean_bits {out.mean_bits} != {mean_bits(out.final, dims)}")
    return errors


# ``treeq ablate gmb`` rows and the reference setting each one stands for
ABLATION_SETTINGS = {
    "r=0": {"r_gmb": 0, "use_gmb": False, "scale_ranks": False},
    "r=4": {"r_gmb": 4, "scale_ranks": False},
    "r=8": {"r_gmb": 8, "scale_ranks": False},
    "r=16": {"r_gmb": 16, "scale_ranks": False},
    "order=lrb_first": {"order": "lrb_first"},
    "order=gmb_first": {"order": "gmb_first"},
    "placement=post": {"placement": "post"},
    "placement=pre": {"placement": "pre"},
}


def check_ablation(rows, weights, inputs, alloc, deltas) -> list:
    """Check every ``ablate gmb`` row's MSE against the reference."""
    errors = []
    labels = [row.get("setting") for row in rows]
    if labels != list(ABLATION_SETTINGS):
        errors.append(f"ablation rows {labels}, expected {list(ABLATION_SETTINGS)}")
        return errors
    for row in rows:
        ref = ReferenceModel(weights, ABLATION_SETTINGS[row["setting"]], deltas)
        expected = ref.mse(alloc, inputs)
        if row["evals"] != 1:
            errors.append(f"{row['setting']}: {row['evals']} evals, expected 1")
        if not close(row["mse"], expected):
            errors.append(f"{row['setting']}: mse {row['mse']!r} != reference {expected!r}")
    return errors
