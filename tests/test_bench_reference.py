"""End-to-end MSE against the bench's independent reference pipeline.

``bench/reference.py`` re-implements the quantized chain from its
documented behaviour with LAPACK SVDs, scipy step sizes and BLAS products.
This test compares ``end_to_end_mse`` with ``ReferenceModel.mse`` on random
configurations from a fixed seed, so a wrong fitting order, rank scaling or
"pre" fold on a shape the bench never runs fails here.  It loads
``bench/reference.py`` from its file and changes nothing under ``bench/``.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from treeq.toymodel import ModelSpec, QuantContext, end_to_end_mse, gen_calibration, gen_model

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
RTOL = 1e-9  # the bench's tolerance (bench/checks.py)
# a full-rank LRB leaves an MSE of about 1e-31, where the two pipelines'
# rounding differs by tens of percent: compare against this share of the
# dense output power at least
FLOOR = 1e-20
WIDTHS = (16, 32, 64)
BITS = (2, 3, 4, 5, 8, 32)
CONFIGS = 120
ALLOCS = 4


@functools.cache
def reference():
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, module.delta_table()


def config(index: int):
    """Config ``index``: a spec, a context and allocations from one seeded draw.

    Widths are powers of two of at least 16 and GMB ranks at most 4, so
    every GMB grid divides every shape.
    """
    rng = np.random.default_rng([20251, index])
    n = int(rng.integers(1, 5))
    dims = tuple(int(d) for d in rng.choice(WIDTHS, n + 1))
    if rng.random() < 0.25:
        dims = (dims[0],) * (n + 1)  # square layers throughout
    outliers = rng.random() < 0.5
    spec = ModelSpec(n, dims, int(rng.integers(1 << 32)),
                     outlier_fraction=0.02 if outliers else 0.0,
                     outlier_scale=8.0 if outliers else 1.0)
    ctx = QuantContext(
        r_lrb=int(rng.choice((0, 4, 16))),
        r_gmb=int(rng.choice((0, 1, 2, 4))),
        gmb_order=str(rng.choice(("lrb_first", "gmb_first"))),
        gmb_placement=str(rng.choice(("post", "pre"))),
        scale_ranks=bool(rng.random() < 0.5),
    )
    allocs = [{i: int(rng.choice(BITS)) for i in range(n)} for _ in range(ALLOCS)]
    return spec, ctx, allocs, int(rng.integers(1 << 32))


@pytest.mark.parametrize("index", range(CONFIGS))
def test_end_to_end_mse_matches_reference(index):
    module, deltas = reference()
    spec, ctx, allocs, calib_seed = config(index)
    model = gen_model(spec)
    calib = gen_calibration(model, 8, calib_seed)
    ref = module.ReferenceModel(model.weights, {
        "r_lrb": ctx.r_lrb, "r_gmb": ctx.r_gmb, "scale_ranks": ctx.scale_ranks,
        "order": ctx.gmb_order, "placement": ctx.gmb_placement,
    }, deltas)
    floor = FLOOR * float(np.mean(calib.output_matrix ** 2))
    for alloc in allocs:
        got = end_to_end_mse(model, alloc, calib, ctx)
        want = ref.mse(alloc, calib.input_matrix)
        assert abs(got - want) <= RTOL * max(abs(want), floor), (spec, ctx, alloc, got, want)
