"""Tree-structured search tests.

Frontier construction is checked against a quadratic-time oracle; the full
search is checked against exhaustive enumeration on a 2-layer model (the
4-layer version is an acceptance criterion and lives in test_acceptance).
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from treeq import search
from treeq.errors import InvalidBitsError, InvalidSpanError
from treeq.search import (
    ParetoEntry,
    ParetoQueue,
    SearchParams,
    apply_eng,
    build_frontier,
    leaf_queue,
    merge,
    module_mean_bits,
    result_doc,
    select_entry,
    tss_search,
)
from treeq.toymodel import (
    ModelSpec,
    QuantContext,
    end_to_end_mse,
    gen_calibration,
    gen_model,
    mean_bitwidth,
)

from oracles import dominates, frontier_oracle


def entry(config, indicator, mean_bits):
    return ParetoEntry(config=config, indicator=indicator, mean_bits=mean_bits)


@pytest.fixture(scope="module")
def small_model():
    return gen_model(ModelSpec(n_layers=2, dims=(16, 16, 16), seed=1))


@pytest.fixture(scope="module")
def small_calib(small_model):
    return gen_calibration(small_model, 16, 3)


@pytest.fixture()
def mse_calls(monkeypatch):
    """List that grows by one on every ``search.end_to_end_mse`` call."""
    calls = []
    real = search.end_to_end_mse

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "end_to_end_mse", counted)
    return calls


class TestParams:
    def test_candidates_sorted(self, small_calib):
        p = SearchParams(calib=small_calib, candidates=(5, 2, 4, 3))
        assert p.candidates == (2, 3, 4, 5)

    def test_rejects_empty_candidates(self, small_calib):
        with pytest.raises(InvalidBitsError):
            SearchParams(calib=small_calib, candidates=())

    def test_rejects_unsupported_bits(self, small_calib):
        with pytest.raises(InvalidBitsError):
            SearchParams(calib=small_calib, candidates=(2, 9))

    def test_rejects_small_k(self, small_calib):
        with pytest.raises(InvalidBitsError):
            SearchParams(calib=small_calib, k=3)

    def test_rejects_target_outside_hull(self, small_calib):
        with pytest.raises(InvalidBitsError):
            SearchParams(calib=small_calib, target=6.0)
        with pytest.raises(InvalidBitsError):
            SearchParams(calib=small_calib, target=1.0)

    def test_rejects_bad_env(self, small_calib):
        with pytest.raises(InvalidBitsError):
            SearchParams(calib=small_calib, env_bits=16)

    @pytest.mark.parametrize(
        "kw",
        [
            {"candidates": (2, 3.7, 4, 5)},
            {"candidates": (2, 3.0, 4)},
            {"candidates": (2, True, 4)},
            {"k": 16.5},
            {"k": True},
            {"env_bits": 3.0},
        ],
        ids=["candidate-3.7", "candidate-3.0", "candidate-bool", "k-float", "k-bool", "env-float"],
    )
    def test_rejects_non_integers(self, small_calib, kw):
        # int() would truncate 3.7 to 3 and read True as 1
        with pytest.raises(InvalidBitsError, match="must be an integer"):
            SearchParams(calib=small_calib, **kw)

    def test_numpy_integers_are_integers(self, small_calib):
        p = SearchParams(
            calib=small_calib, candidates=np.array([5, 2, 3]), k=np.int64(8), env_bits=np.int32(3)
        )
        assert p.candidates == (2, 3, 5) and all(type(b) is int for b in p.candidates)
        assert (p.k, p.env_bits) == (8, 3)


    def test_is_frozen(self, small_calib):
        # an assignment would skip every check: k=1 broke the search's
        # eval bound, a 32-bit candidate was searched, target 9 picked 5 bits
        p = SearchParams(calib=small_calib)
        for field, value in (("k", 1), ("candidates", (2, 32)), ("target", 9.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field, value)
        with pytest.raises(InvalidBitsError, match="smaller than candidate count"):
            dataclasses.replace(p, k=1)


class TestDominates:
    def test_strictly_better(self):
        assert dominates(entry({0: 2}, 1.0, 2.0), entry({0: 3}, 2.0, 3.0))

    def test_equal_never_dominates(self):
        a = entry({0: 2}, 1.0, 2.0)
        b = entry({0: 3}, 1.0, 2.0)
        assert not dominates(a, b) and not dominates(b, a)

    def test_better_on_one_axis(self):
        assert dominates(entry({0: 2}, 1.0, 2.0), entry({0: 3}, 1.0, 3.0))
        assert dominates(entry({0: 2}, 0.5, 2.0), entry({0: 3}, 1.0, 2.0))

    def test_trade_off(self):
        a = entry({0: 2}, 0.5, 3.0)
        b = entry({0: 3}, 1.0, 2.0)
        assert not dominates(a, b) and not dominates(b, a)


class TestBuildFrontier:
    def test_matches_quadratic_oracle(self):
        # Discrete grids force exact coordinate ties, exercising the
        # keep-first rule as well as ordinary dominance.
        rng = np.random.default_rng(17)
        entries = [
            entry(
                {0: 2},
                float(rng.choice([0.1, 0.2, 0.4, 0.8])),
                float(rng.choice([2.0, 2.5, 3.0, 3.5, 4.0])),
            )
            for _ in range(100)
        ]
        got = build_frontier(entries).entries
        want = frontier_oracle(entries)
        assert [id(e) for e in got] == [id(e) for e in want]

    def test_frontier_shape(self):
        rng = np.random.default_rng(23)
        entries = [
            entry({0: 2}, float(rng.random()), float(rng.random())) for _ in range(50)
        ]
        kept = build_frontier(entries).entries
        means = [e.mean_bits for e in kept]
        inds = [e.indicator for e in kept]
        assert means == sorted(means)
        assert all(a > b for a, b in zip(inds, inds[1:]))

    def test_empty(self):
        q = build_frontier([])
        assert q.span is None and q.entries == []

    def test_span_recorded(self):
        q = build_frontier([entry({1: 2, 2: 3}, 1.0, 2.5)])
        assert q.span == (1, 2)

    def test_mixed_spans_rejected(self):
        with pytest.raises(InvalidSpanError):
            build_frontier([entry({0: 2}, 1.0, 2.0), entry({1: 2}, 1.0, 2.0)])

    def test_gappy_config_rejected(self):
        with pytest.raises(InvalidSpanError):
            build_frontier([entry({0: 2, 2: 3}, 1.0, 2.5)])


class TestModuleMeanBits:
    def test_uses_module_flops_only(self):
        m = gen_model(ModelSpec(n_layers=3, dims=(8, 16, 32, 32), seed=1))
        assert m.flops == (256, 1024, 2048)
        got = module_mean_bits({0: 2, 1: 4}, m)
        assert got == pytest.approx((256 * 2 + 1024 * 4) / 1280)

    def test_full_config_matches_global_mean(self, small_model):
        config = {0: 2, 1: 5}
        assert module_mean_bits(config, small_model) == pytest.approx(
            mean_bitwidth(config, small_model)
        )


class TestApplyEng:
    def test_fills_missing_layers(self):
        assert apply_eng({1: 4}, 3, 4) == {0: 3, 1: 4, 2: 3, 3: 3}

    def test_full_config_untouched(self):
        alloc = {0: 2, 1: 5}
        assert apply_eng(alloc, 3, 2) == alloc

    def test_env_32(self):
        assert apply_eng({0: 2}, 32, 3) == {0: 2, 1: 32, 2: 32}

    def test_rejects_bad_env(self, small_model, small_calib):
        # apply_eng fills in what it is given; the forward rejects bits 1
        alloc = apply_eng({0: 2}, 1, 2)
        assert alloc == {0: 2, 1: 1}
        with pytest.raises(InvalidBitsError, match="layer 1 bits 1 not in"):
            end_to_end_mse(small_model, alloc, small_calib)


class TestLeafQueue:
    def test_configs_and_environment(self, small_model, small_calib):
        ctx = QuantContext()
        params = SearchParams(calib=small_calib, env_bits=32)
        q = leaf_queue(0, params, small_model, ctx)
        assert q.span == (0, 0)
        for e in q.entries:
            assert set(e.config) == {0}
            # indicator is the union-with-environment error, re-derivable
            want = end_to_end_mse(
                small_model, apply_eng(e.config, 32, 2), small_calib, ctx
            )
            assert e.indicator == want

    def test_counts_evaluations(self, small_model, small_calib, mse_calls):
        params = SearchParams(calib=small_calib)
        leaf_queue(1, params, small_model, QuantContext())
        assert len(mse_calls) == 4

    def test_out_of_range(self, small_model, small_calib):
        with pytest.raises(InvalidSpanError):
            leaf_queue(5, SearchParams(calib=small_calib), small_model, QuantContext())


class TestMerge:
    def test_rejects_non_adjacent(self, small_model, small_calib):
        qa = ParetoQueue(span=(0, 0), entries=[entry({0: 2}, 1.0, 2.0)])
        qb = ParetoQueue(span=(0, 0), entries=[entry({0: 3}, 0.5, 3.0)])
        with pytest.raises(InvalidSpanError):
            merge(qa, qb, SearchParams(calib=small_calib), small_model, QuantContext())

    def test_rejects_empty(self, small_model, small_calib):
        qa = ParetoQueue(span=None, entries=[])
        qb = ParetoQueue(span=(1, 1), entries=[entry({1: 2}, 1.0, 2.0)])
        with pytest.raises(InvalidSpanError):
            merge(qa, qb, SearchParams(calib=small_calib), small_model, QuantContext())

    def test_unions_are_rescored_not_summed(self, small_model, small_calib):
        # Inter-layer coupling means the union error differs from any
        # combination of the parts; the merged indicator must equal a fresh
        # evaluation of the union config.
        ctx = QuantContext()
        params = SearchParams(calib=small_calib, env_bits=3)
        qa = leaf_queue(0, params, small_model, ctx)
        qb = leaf_queue(1, params, small_model, ctx)
        q = merge(qa, qb, params, small_model, ctx)
        for e in q.entries:
            want = end_to_end_mse(
                small_model, apply_eng(e.config, 3, 2), small_calib, ctx
            )
            assert e.indicator == want
            assert set(e.config) == {0, 1}

    def test_eval_accounting(self, small_model, small_calib, mse_calls):
        ctx = QuantContext()
        params = SearchParams(calib=small_calib)
        qa = leaf_queue(0, params, small_model, ctx)
        qb = leaf_queue(1, params, small_model, ctx)
        before = len(mse_calls)
        merge(qa, qb, params, small_model, ctx)
        assert len(mse_calls) - before == len(qa.entries) * len(qb.entries)

    def test_prunes_to_k_closest(self, small_model, small_calib):
        ctx = QuantContext()
        params = SearchParams(calib=small_calib, k=4, target=3.0)
        qa = leaf_queue(0, params, small_model, ctx)
        qb = leaf_queue(1, params, small_model, ctx)
        q = merge(qa, qb, params, small_model, ctx)
        assert len(q.entries) <= 4
        assert q.raw_frontier_size >= len(q.entries)
        means = [e.mean_bits for e in q.entries]
        assert means == sorted(means)

    def test_dense_frontier_warns(self):
        # Wide second layer dominates the error, so every (b0, b1) union
        # lands on the frontier and the sparsity expectation fails softly.
        m = gen_model(ModelSpec(n_layers=2, dims=(8, 16, 32), seed=1))
        c = gen_calibration(m, 16, 3)
        with pytest.warns(UserWarning, match="sparsity"):
            tss_search(
                m,
                SearchParams(calib=c, candidates=(2, 5), k=4, target=3.5, env_bits=32),
                QuantContext(),
            )


class TestSelectEntry:
    def test_closest_mean_wins(self):
        best = select_entry(
            [entry({0: 2}, 0.1, 2.0), entry({0: 3}, 0.5, 3.1), entry({0: 4}, 0.2, 4.0)],
            3.0,
        )
        assert best.mean_bits == 3.1

    def test_tie_prefers_lower_indicator(self):
        best = select_entry(
            [entry({0: 2}, 0.5, 2.5), entry({0: 4}, 0.2, 3.5)], 3.0
        )
        assert best.indicator == 0.2

    def test_full_tie_prefers_lower_mean(self):
        best = select_entry(
            [entry({0: 4}, 0.2, 3.5), entry({0: 2}, 0.2, 2.5)], 3.0
        )
        assert best.mean_bits == 2.5


class TestTssSearch:
    def test_matches_exhaustive_on_two_layers(self, small_model, small_calib):
        ctx = QuantContext()
        res = tss_search(
            small_model,
            SearchParams(calib=small_calib, k=64, target=3.0, env_bits=32),
            ctx,
        )
        entries = []
        for combo in itertools.product((2, 3, 4, 5), repeat=2):
            alloc = {0: combo[0], 1: combo[1]}
            entries.append(
                ParetoEntry(
                    config=alloc,
                    indicator=end_to_end_mse(small_model, alloc, small_calib, ctx),
                    mean_bits=mean_bitwidth(alloc, small_model),
                )
            )
        bf = build_frontier(entries)
        assert [e.config for e in res.root.entries] == [e.config for e in bf.entries]
        assert res.final == select_entry(bf.entries, 3.0).config

    def test_single_layer(self, small_calib):
        m = gen_model(ModelSpec(n_layers=1, dims=(16, 16), seed=2))
        c = gen_calibration(m, 8, 3)
        res = tss_search(m, SearchParams(calib=c, target=3.0))
        assert res.merge_trace == []
        assert res.evals == 4
        assert set(res.final) == {0}

    def test_trace_and_bound(self, suite_models, suite_calibs, ctx):
        m = suite_models[101]
        res = tss_search(m, SearchParams(calib=suite_calibs[101], target=3.0), ctx)
        assert len(res.merge_trace) == m.n_layers - 1
        assert res.evals <= m.n_layers * 4 + (m.n_layers - 1) * 16**2
        assert set(res.final) == set(range(m.n_layers))
        assert res.mean_bits == pytest.approx(mean_bitwidth(res.final, m))

    def test_evals_equal_indicator_calls(self, mse_calls):
        # five layers: two merge rounds plus an odd queue promoted once
        m = gen_model(ModelSpec(n_layers=5, dims=(16,) * 6, seed=4))
        c = gen_calibration(m, 8, 3)
        res = tss_search(m, SearchParams(calib=c, k=4, target=3.0), QuantContext())
        assert len(res.merge_trace) == 4
        assert res.evals == len(mse_calls) > 5 * 4

    def test_deterministic(self, small_model, small_calib):
        ctx = QuantContext()
        a = tss_search(small_model, SearchParams(calib=small_calib, target=3.0), ctx)
        b = tss_search(small_model, SearchParams(calib=small_calib, target=3.0), ctx)
        assert a.final == b.final
        assert a.indicator == b.indicator
        assert a.merge_trace == b.merge_trace


class TestResultJson:
    def test_document_fields(self, small_model, small_calib):
        res = tss_search(
            small_model, SearchParams(calib=small_calib, target=3.0), QuantContext()
        )
        doc = result_doc(res)
        assert doc["target"] == 3.0
        assert doc["env_bits"] == 3
        assert doc["k"] == 16
        assert doc["candidates"] == [2, 3, 4, 5]
        assert set(doc["final_alloc"]) == {"0", "1"}
        assert doc["evals"] == res.evals
        assert doc["merge_trace"] == res.merge_trace
        assert doc["mean_bits"] == res.mean_bits
        assert doc["indicator"] == res.indicator
