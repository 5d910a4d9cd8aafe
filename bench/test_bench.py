"""Tests of the benchmark's own checks and tracer, on small models.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from treeq import branches, search, toymodel  # noqa: E402


@pytest.fixture(scope="module")
def deltas():
    return reference.delta_table()


@pytest.fixture(scope="module")
def small_search(deltas):
    model = toymodel.gen_model(workloads.model_spec(3, 32, 5))
    calib = toymodel.gen_calibration(model, 16, 3)
    result = search.tss_search(model, search.SearchParams(calib=calib, k=4))
    ref = reference.ReferenceModel(model.weights, deltas=deltas)
    return model, calib, result, ref


def _check(out, small_search):
    model, calib, _, ref = small_search
    return checks.check_search(out, ref, calib.input_matrix, model.dims)


def test_search_output_passes(small_search):
    assert _check(checks.from_result(small_search[2]), small_search) == []


@pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
def test_perturbed_indicator_is_rejected(small_search, factor):
    base = checks.from_result(small_search[2])
    for i, (config, indicator, mb) in enumerate(base.entries):
        out = dataclasses.replace(base, entries=list(base.entries))
        out.entries[i] = (config, indicator * factor, mb)
        if config == out.final:
            out.indicator = indicator * factor
        errors = _check(out, small_search)
        assert len(errors) == 1 and "!= reference" in errors[0], errors


def test_method_properties_are_checked(small_search):
    base = checks.from_result(small_search[2])
    assert len(base.entries) >= 2
    swapped = dataclasses.replace(base, entries=base.entries[::-1])
    assert any("not sorted" in e for e in _check(swapped, small_search))
    other = next(e for e in base.entries if e[0] != base.final)
    wrong_pick = dataclasses.replace(base, final=other[0], indicator=other[1], mean_bits=other[2])
    assert any("closest" in e for e in _check(wrong_pick, small_search))
    assert any("merges" in e for e in _check(dataclasses.replace(base, merges=1), small_search))
    too_many = dataclasses.replace(base, evals=3 * 4 + 2 * 16 + 1)
    assert any("bound" in e for e in _check(too_many, small_search))


def test_perturbed_ablation_row_is_rejected(tmp_path, deltas):
    workload = workloads.GmbAblate(seed=3, out_dir=str(tmp_path), small=True)
    out = workload.run(workload.round_inputs(0)[0])
    assert workload.check(out, deltas) == []
    out["rows"][5]["mse"] *= 1 + 1e-6
    errors = workload.check(out, deltas)
    assert len(errors) == 1 and "order=gmb_first" in errors[0]


def test_tracer_counts_a_cold_search_and_restores():
    model = toymodel.gen_model(workloads.model_spec(2, 32, 9))
    calib = toymodel.gen_calibration(model, 8, 1)
    original = branches.truncated_svd
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        with tracer.span("op"):
            result = search.tss_search(model, search.SearchParams(calib=calib, k=4))
    finally:
        tracer.restore()
    assert branches.truncated_svd is original
    metrics = spans.per_layer(tracer, 1)
    # 32-wide layers: LRB rank 8 and a 2 x 2 GMB grid, one fit per layer
    assert metrics["linalg.svd_calls"] == 2
    assert metrics["linalg.svd_distinct_ratio"] == 1.0
    assert metrics["branches.fit_calls"] == 2
    assert metrics["linalg.top_pair_calls"] == 2 * 4
    assert metrics["search.merge_calls"] == 1
    assert metrics["search.evals"] == result.evals
    assert metrics["toymodel.mse_calls"] == result.evals
    assert metrics["toymodel.layer_forwards"] == 2 * metrics["toymodel.forward_calls"]
