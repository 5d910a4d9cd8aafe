"""Baseline allocator tests.

The knapsack DP is validated against brute-force enumeration over all
candidate assignments with the same tie-break key (score, total bits,
lexicographic assignment).
"""

import itertools
import math

import numpy as np
import pytest

from treeq.baselines import (
    MAX_BUDGET_UNITS,
    SensitivityTable,
    _budget_units,
    build_sensitivity_table,
    ip_allocate,
    layer_sensitivity,
    uniform_allocate,
)
from treeq import toymodel
from treeq.errors import InvalidBitsError, InvalidDimensionError
from treeq.suite import exhaustive_spec
from treeq.toymodel import gen_calibration, gen_model, mean_bitwidth


def brute_force_ip(table, flops, target, candidates):
    units = _budget_units(flops)
    budget = int(math.floor(target * sum(units) + 1e-9))
    best = None
    best_key = None
    for combo in itertools.product(sorted(candidates), repeat=len(flops)):
        if sum(u * b for u, b in zip(units, combo)) > budget:
            continue
        score = sum(table.score(i, b) for i, b in enumerate(combo))
        key = (score, sum(combo), combo)
        if best_key is None or key < best_key:
            best_key = key
            best = {i: b for i, b in enumerate(combo)}
    return best


def random_table(n, seed, candidates=(2, 3, 4, 5)):
    # Non-increasing in bits, like real sensitivities.
    rng = np.random.default_rng(seed)
    scores = {}
    for layer in range(n):
        drops = np.sort(rng.random(len(candidates)))[::-1] * rng.uniform(0.5, 2.0)
        scores[layer] = {b: float(s) for b, s in zip(sorted(candidates), drops)}
    return SensitivityTable(metric="L2", scores=scores)


@pytest.fixture(scope="module")
def sens_model():
    return gen_model(exhaustive_spec(3))


@pytest.fixture(scope="module")
def sens_calib(sens_model):
    return gen_calibration(sens_model, 16, 7)


class TestSensitivity:
    def test_full_precision_scores_zero(self, sens_model, sens_calib):
        assert layer_sensitivity(sens_model, 0, 32, "L2", sens_calib) == 0.0
        assert layer_sensitivity(sens_model, 0, 32, "L1", sens_calib) == 0.0

    def test_l2_never_exceeds_l1(self, sens_model, sens_calib):
        for bits in (2, 4):
            l1 = layer_sensitivity(sens_model, 1, bits, "L1", sens_calib)
            l2 = layer_sensitivity(sens_model, 1, bits, "L2", sens_calib)
            assert 0.0 < l2 <= l1

    def test_rejects_unknown_metric(self, sens_model, sens_calib):
        with pytest.raises(InvalidBitsError):
            layer_sensitivity(sens_model, 0, 4, "Linf", sens_calib)

    @pytest.mark.parametrize("metric", ["L1", "L2"])
    def test_non_finite_score_raises(self, monkeypatch, metric):
        # a NaN output of the quantized layer would otherwise be the score
        model = gen_model(exhaustive_spec(3))
        calib = gen_calibration(model, 16, 7)
        run = toymodel.forward_quantized_batch
        monkeypatch.setattr(toymodel, "forward_quantized_batch",
                            lambda layer, xs: run(layer, xs) * np.nan)
        with pytest.raises(InvalidDimensionError, match=f"layer 3 at 4 bits.*non-finite {metric}"):
            layer_sensitivity(model, 3, 4, metric, calib)

    def test_table_matches_direct_calls(self, sens_model, sens_calib):
        table = build_sensitivity_table(sens_model, "L2", sens_calib)
        assert set(table.scores) == set(range(4))
        for layer in range(4):
            assert set(table.scores[layer]) == {2, 3, 4, 5}
        want = layer_sensitivity(sens_model, 2, 3, "L2", sens_calib)
        assert table.score(2, 3) == want

    def test_scores_monotone_on_suite_model(self, sens_model, sens_calib):
        table = build_sensitivity_table(sens_model, "L1", sens_calib)
        for layer, row in table.scores.items():
            vals = [row[b] for b in sorted(row)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))



class TestBudgetUnits:
    def test_gcd_scaling_exact(self):
        assert _budget_units((256, 256, 128)) == [2, 2, 1]

    def test_cap_halving_rounds_up(self):
        # Coprime totals above the cap force halving with ceil.
        units = _budget_units((1_000_003, 999_983))
        assert sum(units) <= MAX_BUDGET_UNITS
        assert units == [500_002, 499_992]


class TestIpAllocate:
    @pytest.mark.parametrize("n,seed", [(2, 10), (3, 11), (4, 12)])
    @pytest.mark.parametrize("target", [2.5, 3.0, 3.5, 4.0])
    def test_matches_exhaustive(self, n, seed, target):
        flops = tuple(2 * 32 * 32 * (i % 2 + 1) for i in range(n))
        table = random_table(n, seed)
        got = ip_allocate(table, flops, target)
        want = brute_force_ip(table, flops, target, (2, 3, 4, 5))
        assert got == want

    def test_respects_budget(self, sens_model, sens_calib):
        table = build_sensitivity_table(sens_model, "L2", sens_calib)
        for target in (2.5, 3.0, 3.75):
            alloc = ip_allocate(table, sens_model.flops, target)
            assert mean_bitwidth(alloc, sens_model) <= target + 1e-9

    def test_spends_toward_budget(self):
        # Budget floor(4.99 * 3) = 14 units: two layers can afford the
        # upgrade to 5, uniform-5 cannot fit.  Strictly decreasing scores
        # mean the DP must use all the headroom it has.
        table = random_table(3, seed=13)
        alloc = ip_allocate(table, (512, 512, 512), 4.99)
        assert sum(alloc.values()) == 14
        assert sorted(alloc.values()) == [4, 5, 5]

    def test_exact_uniform_budget(self):
        table = random_table(3, seed=14)
        alloc = ip_allocate(table, (512, 512, 512), 5.0)
        assert alloc == {0: 5, 1: 5, 2: 5}

    def test_tie_breaks_lexicographic(self):
        # Identical rows everywhere: many optima, the smallest assignment
        # (after spending down to equal scores) must be returned.
        row = {2: 4.0, 3: 3.0, 4: 2.0, 5: 1.0}
        table = SensitivityTable(metric="L2", scores={0: dict(row), 1: dict(row)})
        got = ip_allocate(table, (256, 256), 3.5)
        want = brute_force_ip(table, (256, 256), 3.5, (2, 3, 4, 5))
        assert got == want

    def test_infeasible_target(self):
        table = random_table(2, seed=15)
        with pytest.raises(InvalidBitsError):
            ip_allocate(table, (256, 256), 1.5)

    def test_incomplete_table(self):
        table = SensitivityTable(metric="L2", scores={0: {2: 1.0}})
        with pytest.raises(KeyError):
            ip_allocate(table, (256,), 2.5)

    def test_rejects_bad_flops(self):
        table = random_table(2, seed=16)
        with pytest.raises(InvalidBitsError):
            ip_allocate(table, (256, 0), 3.0)


class TestUniform:
    def test_allocates_every_layer(self):
        assert uniform_allocate(3, 4) == {0: 4, 1: 4, 2: 4}

    def test_accepts_32(self):
        assert uniform_allocate(2, 32) == {0: 32, 1: 32}

    def test_rejects_unsupported(self):
        with pytest.raises(InvalidBitsError):
            uniform_allocate(2, 16)
