"""Baseline allocator tests.

The knapsack DP is validated against brute-force enumeration over all
candidate assignments with the same tie-break key (score, total bits,
lexicographic assignment).
"""

import itertools
import math

import numpy as np
import pytest

from treeq import baselines, toymodel
from treeq.baselines import (
    MAX_BUDGET_UNITS,
    _budget_units,
    ip_allocate,
    sensitivity_tables,
    uniform_allocate,
)
from treeq.errors import InvalidBitsError, InvalidDimensionError
from treeq.toymodel import PASSTHROUGH_BITS, gen_calibration, gen_model, mean_bitwidth, quantized_layer

from suite import exhaustive_spec


def brute_force_ip(table, flops, target, candidates):
    units = _budget_units(flops)
    budget = int(math.floor(target * sum(units) + 1e-9))
    best = None
    best_key = None
    for combo in itertools.product(sorted(candidates), repeat=len(flops)):
        if sum(u * b for u, b in zip(units, combo)) > budget:
            continue
        score = sum(table[i][b] for i, b in enumerate(combo))
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
    return scores


@pytest.fixture(scope="module")
def sens_model():
    return gen_model(exhaustive_spec(3))


@pytest.fixture(scope="module")
def sens_calib(sens_model):
    return gen_calibration(sens_model, 16, 7)


class TestSensitivity:
    def test_full_precision_scores_zero(self, sens_model, sens_calib):
        tables = sensitivity_tables(sens_model, sens_calib, candidates=(32,))
        for metric in ("L1", "L2"):
            assert tables[metric] == {layer: {32: 0.0} for layer in range(4)}

    def test_l2_never_exceeds_l1(self, sens_model, sens_calib):
        tables = sensitivity_tables(sens_model, sens_calib, candidates=(2, 4))
        for bits in (2, 4):
            l1 = tables["L1"][1][bits]
            l2 = tables["L2"][1][bits]
            assert 0.0 < l2 <= l1

    @pytest.mark.parametrize("factor, named", [
        (np.nan, r"non-finite L1 score \(nan\) and L2 score \(nan\)$"),
        # the squares overflow but the absolute values do not
        (1e200, r"non-finite L2 score \(inf\)$"),
    ], ids=["L1", "L2"])  # the metric each case must name
    def test_non_finite_score_raises(self, monkeypatch, factor, named):
        # a non-finite score would otherwise enter the knapsack; only layer
        # 3 at 4 bits is scaled, so the forwards before it are scored
        model = gen_model(exhaustive_spec(3))
        calib = gen_calibration(model, 16, 7)
        bad = quantized_layer(model, 3, 4)
        run = toymodel.forward_quantized_batch
        monkeypatch.setattr(toymodel, "forward_quantized_batch",
                            lambda layer, xs: run(layer, xs) * (factor if layer is bad else 1.0))
        with pytest.raises(InvalidDimensionError, match=f"layer 3 at 4 bits.*{named}"):
            sensitivity_tables(model, calib)

    def test_one_forward_per_layer_and_bits(self, monkeypatch, sens_model, sens_calib):
        # both metrics reduce the same forward, run layer-major with bits
        # ascending; each score equals a norm of a direct forward's error
        allocs = []

        def counted(model, alloc, xs, ctx):
            allocs.append(dict(alloc))
            return toymodel.forward_batch(model, alloc, xs, ctx)

        monkeypatch.setattr(baselines, "forward_batch", counted)
        tables = sensitivity_tables(sens_model, sens_calib)
        order = [(layer, b) for layer in range(4) for b in (2, 3, 4, 5)]
        assert len(allocs) == 16
        for alloc, (layer, b) in zip(allocs, order):
            assert alloc == {i: b if i == layer else PASSTHROUGH_BITS for i in range(4)}
        for alloc, (layer, b) in zip(allocs, order):
            diff = toymodel.forward_batch(sens_model, alloc, sens_calib.input_matrix)
            diff = diff - sens_calib.output_matrix
            assert tables["L1"][layer][b] == np.linalg.norm(diff, ord=1, axis=1).mean()
            assert tables["L2"][layer][b] == np.linalg.norm(diff, axis=1).mean()
        assert set(tables) == {"L1", "L2"}

    def test_table_matches_direct_calls(self, sens_model, sens_calib):
        # a score does not depend on which other widths the table holds
        tables = sensitivity_tables(sens_model, sens_calib)
        for table in tables.values():
            assert set(table) == set(range(4))
            for layer in range(4):
                assert set(table[layer]) == {2, 3, 4, 5}
        alone = sensitivity_tables(sens_model, sens_calib, candidates=(3,))
        for metric in ("L1", "L2"):
            assert tables[metric][2][3] == alone[metric][2][3]

    def test_scores_monotone_on_suite_model(self, sens_model, sens_calib):
        for table in sensitivity_tables(sens_model, sens_calib).values():
            for layer, row in table.items():
                vals = [row[b] for b in sorted(row)]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_monotone_row_warns_with_its_metric(self, monkeypatch):
        # 5 bits made worse than 4 on layer 2 only: both metrics warn for it
        model = gen_model(exhaustive_spec(3))
        calib = gen_calibration(model, 16, 7)
        worse = quantized_layer(model, 2, 5)
        run = toymodel.forward_quantized_batch
        monkeypatch.setattr(toymodel, "forward_quantized_batch",
                            lambda layer, xs: run(layer, xs) * (4.0 if layer is worse else 1.0))
        with pytest.warns(UserWarning) as caught:
            sensitivity_tables(model, calib)
        messages = sorted(str(w.message).split(":")[0] for w in caught)
        assert messages == [f"layer 2 {m} sensitivity not monotone in bits" for m in ("L1", "L2")]


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
        table = sensitivity_tables(sens_model, sens_calib)["L2"]
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
        table = {0: dict(row), 1: dict(row)}
        got = ip_allocate(table, (256, 256), 3.5)
        want = brute_force_ip(table, (256, 256), 3.5, (2, 3, 4, 5))
        assert got == want

    def test_infeasible_target(self):
        table = random_table(2, seed=15)
        with pytest.raises(InvalidBitsError):
            ip_allocate(table, (256, 256), 1.5)

    def test_incomplete_table(self):
        table = {0: {2: 1.0}}
        with pytest.raises(KeyError):
            ip_allocate(table, (256,), 2.5)

    def test_rejects_bad_flops(self):
        table = random_table(2, seed=16)
        with pytest.raises(InvalidBitsError):
            ip_allocate(table, (256, 0), 3.0)

    def test_rejects_non_integer_candidates(self):
        # int() would truncate these to 2 and 3 and return {0: 2, 1: 3}
        table = {0: {2: 1.0, 3: 0.5}, 1: {2: 1.0, 3: 0.4}}
        with pytest.raises(InvalidBitsError, match="candidate bits must be an integer, got 2.9"):
            ip_allocate(table, (10, 10), 2.6, candidates=(2.9, 3.2))


class TestUniform:
    def test_allocates_every_layer(self):
        assert uniform_allocate(3, 4) == {0: 4, 1: 4, 2: 4}

    def test_accepts_32(self):
        assert uniform_allocate(2, 32) == {0: 32, 1: 32}

    def test_rejects_unsupported(self):
        with pytest.raises(InvalidBitsError):
            uniform_allocate(2, 16)

    def test_rejects_non_integer_bits(self):
        # 3.0 == 3, but no allocation takes a float width (as_int's rule)
        with pytest.raises(InvalidBitsError, match="bits must be an integer, got 3.0"):
            uniform_allocate(2, 3.0)
