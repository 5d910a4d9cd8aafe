"""Acceptance gate: nine numbered criteria, one test and one verdict line each.

Every test funnels through ``report``, which prints
``[criterion N] <name>: PASS|FAIL (<measurements>)`` before asserting and
registers the line for the end-of-run summary, so both green and red runs
show the measured values next to the pinned tolerance.
Oracles come from tests/oracles.py and numpy/scipy, never from the package.

Tolerances and runtime caps (pinned):
  1. delta within 1e-3 relative, MSE within 1e-5 absolute, < 10 s
  2. Hadamard orthogonality 1e-12 for n up to 1024; round trip 1e-8
  3. factored branch 1e-12; block oracle 1e-8; budget identity exact; < 30 s
  4. frontier and selection exactly equal on 5 seeds x 4 targets; < 5 min
  5. evals <= n*|cands| + (n-1)*k^2; doubling adds <= k^2 extra evals
  6. env=3 beats env=2 on >= 4/5 seeds; env=32 differs somewhere
  7. TSS <= IP+L2 and <= uniform on >= 4/5 seeds, budgets within 0.25; < 10 min
  8. GMB r=4 beats no-GMB on >= 4/5 seeds at uniform 3-bit
  9. every CLI rerun byte-identical up to wall_ms
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from treeq.baselines import ip_allocate, sensitivity_tables, uniform_allocate
from treeq.branches import (
    branch_decomposition,
    factor_pair,
    fit_gmbs,
    fit_lrbs,
    gmb_reconstruct_blocks,
)
from treeq.cli import main as cli_main
from treeq.linalg import hadamard
from treeq.quantizer import calibrate_delta
from treeq.search import SearchParams, select_entry, tss_search
from treeq.toymodel import (
    TAG_DERIVE,
    QuantContext,
    end_to_end_mse,
    gen_calibration,
    gen_model,
    mean_bitwidth,
    substream,
)

from conftest import acceptance_lines, seeded_matrix
from oracles import (
    ScoredConfig,
    brute_force_selection,
    enumerate_all_configs,
    frontier_oracle,
    gaussian_quant_mse,
    grid_optimal_delta,
)
from suite import (
    EXHAUSTIVE_CALIB_COUNT,
    EXHAUSTIVE_CALIB_SEED,
    EXHAUSTIVE_ENV_BITS,
    EXHAUSTIVE_SEEDS,
    SUITE_SEEDS,
    exhaustive_spec,
    scaling_spec,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    acceptance_lines.append(line)
    assert ok, line


@pytest.fixture(scope="session")
def suite_results(suite_models, suite_calibs, ctx):
    """Per-seed search and baseline results shared by criteria 6, 7, and 8."""
    ctx_nogmb = QuantContext(r_gmb=0)
    out = {}
    for seed in SUITE_SEEDS:
        model = suite_models[seed]
        calib = suite_calibs[seed]
        res = {
            env: tss_search(
                model, SearchParams(calib=calib, target=3.0, env_bits=env), ctx
            )
            for env in (2, 3, 32)
        }
        sens_calib = gen_calibration(model, 256, substream(77, TAG_DERIVE, 1))
        table = sensitivity_tables(model, sens_calib, ctx)["L2"]
        ip = ip_allocate(table, model.flops, 3.0)
        uni = uniform_allocate(model.n_layers, 3)
        out[seed] = {
            "alloc": {env: r.final for env, r in res.items()},
            "mse": {env: end_to_end_mse(model, r.final, calib, ctx) for env, r in res.items()},
            "ip_alloc": ip,
            "ip_mse": end_to_end_mse(model, ip, calib, ctx),
            "uni_mse": end_to_end_mse(model, uni, calib, ctx),
            "nogmb_mse": end_to_end_mse(model, uni, calib, ctx_nogmb),
            "evals": {env: r.evals for env, r in res.items()},
            "mean_bits": {env: r.mean_bits for env, r in res.items()},
        }
    return out


def test_criterion_1_quantizer_optimality():
    started = time.perf_counter()
    worst_delta = 0.0
    worst_mse = 0.0
    for bits in (2, 3, 4, 5):
        d_grid, mse_grid = grid_optimal_delta(bits, step=1e-4)
        d = calibrate_delta(bits)
        worst_delta = max(worst_delta, abs(d - d_grid) / d_grid)
        worst_mse = max(worst_mse, abs(float(gaussian_quant_mse(d, bits)) - mse_grid))
    elapsed = time.perf_counter() - started
    report(
        1,
        "quantizer optimality vs grid oracle",
        worst_delta < 1e-3 and worst_mse < 1e-5 and elapsed < 10.0,
        f"max rel delta err {worst_delta:.2e} (tol 1e-3), "
        f"max MSE err {worst_mse:.2e} (tol 1e-5), {elapsed:.2f}s (cap 10s)",
    )


def test_criterion_2_hadamard_exactness(suite_models):
    worst_orth = 0.0
    for p in range(1, 11):  # 2 .. 1024
        n = 1 << p
        h = hadamard(n)
        worst_orth = max(worst_orth, float(np.max(np.abs(h @ h.T - np.eye(n)))))
    # round trip: every layer rebuilt as leaky((x H) w_res^T + branch term)
    # from its branch decomposition, the branch term as the forward applies
    # it from its factor pair, against the dense chain
    h = hadamard(64)
    worst_rt = 0.0
    for seed, model in suite_models.items():
        xs = ys = gen_calibration(model, 8, seed).input_matrix
        (fits,) = branch_decomposition(np.stack(model.weights), [(("lrb", 16), ("gmb", (4, 4), "post"))])
        for i, (w, (fit, w_res)) in enumerate(zip(model.weights, fits)):
            down, up = fit.pair
            rotated = xs @ h
            xs, ys = rotated @ w_res.T + (rotated @ down.T) @ up.T, ys @ w.T
            if i < model.n_layers - 1:
                xs, ys = np.where(xs > 0.0, xs, 0.1 * xs), np.where(ys > 0.0, ys, 0.1 * ys)
        worst_rt = max(worst_rt, float(np.sqrt(np.mean((xs - ys) ** 2))))
    report(
        2,
        "Hadamard orthogonality and lossless round trip",
        worst_orth < 1e-12 and worst_rt < 1e-8,
        f"max |HH^T - I| {worst_orth:.2e} (tol 1e-12) over n<=1024, "
        f"max round-trip RMS {worst_rt:.2e} (tol 1e-8) on {len(suite_models)} models",
    )


def test_criterion_3_gmb_correctness(suite_models, ctx):
    started = time.perf_counter()
    combos = [
        ((8, 8), (2, 2)), ((8, 8), (4, 4)), ((8, 8), (8, 8)),
        ((16, 16), (2, 2)), ((16, 16), (4, 4)), ((16, 16), (8, 8)),
        ((16, 8), (4, 2)), ((8, 16), (2, 4)), ((32, 32), (4, 4)),
        ((32, 16), (8, 8)), ((16, 32), (2, 2)), ((32, 32), (16, 16)),
        ((64, 64), (4, 4)), ((64, 32), (8, 4)), ((32, 64), (4, 8)),
        ((64, 64), (8, 8)), ((24, 24), (3, 3)), ((24, 8), (6, 2)),
        ((8, 24), (4, 12)), ((48, 48), (6, 6)),
    ]
    assert len(combos) == 20
    exact_pairs = 0
    worst_block = 0.0
    for idx, (shape, grid) in enumerate(combos):
        m = seeded_matrix(*shape, seed=1000 + idx)
        (f,), _ = fit_gmbs(m[None], *grid)
        # the (down, up) pair the forward applies is the block assembly exactly
        down, up = factor_pair(fit_lrbs(m[None], 0)[0], f)
        exact_pairs += np.array_equal(up @ down, gmb_reconstruct_blocks(f))
        b_o, b_i = shape[0] // grid[0], shape[1] // grid[1]
        for j in range(grid[0]):
            for k in range(grid[1]):
                block = m[j * b_o : (j + 1) * b_o, k * b_i : (k + 1) * b_i]
                u_, s_, vt_ = np.linalg.svd(block)
                oracle = s_[0] * np.outer(u_[:, 0], vt_[0])
                ours = f.sigma[j, k] * np.outer(f.u[j, k], f.v[j, k])
                worst_block = max(worst_block, float(np.max(np.abs(ours - oracle))))
        # (c) exact budget identity at n_i = n_o = r
        n_o, n_i = grid
        if n_o == n_i:
            rr = n_o
            assert n_i * n_o * (b_i + b_o) == rr * (n_o * b_o + n_i * b_i)

    monotone_ok = True
    fitted, exact_fitted = 0, 0
    for model in suite_models.values():
        (fits,) = branch_decomposition(np.stack(model.weights), [(("lrb", 8), ("gmb", (4, 4), "post"))])
        for fit, res_full in fits:
            # the LRB-only residual is the full residual with the GMB put back
            gmb_h = gmb_reconstruct_blocks(fit.gmb)
            res_lrb = res_full + gmb_h
            if np.linalg.norm(res_full) > np.linalg.norm(res_lrb):
                monotone_ok = False
            # a fitted layer's pair: the LRB's rows, then the GMB's
            down, up = fit.pair
            r = fit.lrb.rank
            fitted += 1
            exact_fitted += np.array_equal(up[:, r:] @ down[r:], gmb_h)
    elapsed = time.perf_counter() - started
    report(
        3,
        "GMB factored form, block oracle, budget identity, residual monotone",
        exact_pairs == len(combos) and exact_fitted == fitted and worst_block < 1e-8
        and monotone_ok and elapsed < 30.0,
        f"factor pair equals the block assembly exactly on {exact_pairs}/{len(combos)} "
        f"combos and {exact_fitted}/{fitted} fitted layers, "
        f"block vs SVD oracle {worst_block:.2e} (tol 1e-8), "
        f"residual monotone on all weights: {monotone_ok}, {elapsed:.1f}s (cap 30s)",
    )


def test_criterion_4_tss_exhaustive_equivalence(ctx):
    started = time.perf_counter()
    targets = (2.5, 3.0, 3.5, 4.0)
    candidates = (2, 3, 4, 5)
    frontier_match = 0
    selection_match = 0
    checks = 0
    for seed in EXHAUSTIVE_SEEDS:
        model = gen_model(exhaustive_spec(seed))
        calib = gen_calibration(model, EXHAUSTIVE_CALIB_COUNT, EXHAUSTIVE_CALIB_SEED)
        scored = enumerate_all_configs(model, calib, ctx, candidates)
        assert len(scored) == len(candidates) ** model.n_layers
        oracle_front = frontier_oracle(scored)
        for target in targets:
            res = tss_search(
                model,
                SearchParams(
                    calib=calib,
                    candidates=candidates,
                    k=256,
                    target=target,
                    env_bits=EXHAUSTIVE_ENV_BITS,
                ),
                ctx,
            )
            checks += 1
            got = [(e.config, e.indicator) for e in res.root.entries]
            want = [(e.config, e.indicator) for e in oracle_front]
            if got == want:
                frontier_match += 1
            if res.final == brute_force_selection(oracle_front, target).config:
                selection_match += 1
    elapsed = time.perf_counter() - started
    report(
        4,
        "TSS root frontier and selection equal brute force",
        frontier_match == checks and selection_match == checks and elapsed < 300.0,
        f"frontier {frontier_match}/{checks}, selection {selection_match}/{checks} "
        f"over {len(EXHAUSTIVE_SEEDS)} seeds x {len(targets)} targets, "
        f"{elapsed:.1f}s (cap 300s)",
    )


def test_criterion_5_eval_count_scaling(ctx):
    evals = {}
    bound_ok = True
    for n in (8, 16, 32):
        model = gen_model(scaling_spec(n, 101))
        calib = gen_calibration(model, 32, 77)
        params = SearchParams(calib=calib, target=3.0, env_bits=3, k=16)
        res = tss_search(model, params, ctx)
        evals[n] = res.evals
        bound = n * len(params.candidates) + (n - 1) * params.k**2
        if res.evals > bound:
            bound_ok = False
    c = 16**2
    linear_ok = (
        evals[16] <= 2 * evals[8] + c and evals[32] <= 2 * evals[16] + c
    )
    report(
        5,
        "evaluation count linear in layers with hard bound",
        bound_ok and linear_ok,
        f"evals(8/16/32) = {evals[8]}/{evals[16]}/{evals[32]}, "
        f"doubling slack <= k^2 = {c}, hard bound n*|cands|+(n-1)*k^2 held: {bound_ok}",
    )


def test_criterion_6_eng_behavior(suite_results):
    strict_wins = sum(
        1 for r in suite_results.values() if r["mse"][3] < r["mse"][2]
    )
    differing = sum(
        1 for r in suite_results.values() if r["alloc"][32] != r["alloc"][3]
    )
    report(
        6,
        "env=3 beats env=2 and PTQ/QAT objectives diverge",
        strict_wins >= 4 and differing >= 1,
        f"env3 strictly better on {strict_wins}/5 seeds (need >= 4), "
        f"env32 alloc differs from env3 on {differing}/5 seeds (need >= 1)",
    )


def test_criterion_7_allocation_quality(suite_models, suite_results):
    started = time.perf_counter()
    beats = 0
    budget_ok = True
    for seed, r in suite_results.items():
        if r["mse"][3] <= r["ip_mse"] and r["mse"][3] <= r["uni_mse"]:
            beats += 1
        model = suite_models[seed]
        means = (
            r["mean_bits"][3],
            mean_bitwidth(r["ip_alloc"], model),
            3.0,
        )
        if any(abs(m - 3.0) > 0.25 for m in means):
            budget_ok = False
    elapsed = time.perf_counter() - started
    report(
        7,
        "TSS at least as good as IP+L2 and uniform at equal budget",
        beats >= 4 and budget_ok and elapsed < 600.0,
        f"TSS <= both baselines on {beats}/5 seeds (need >= 4), "
        f"all mean_bits within 0.25 of 3.0: {budget_ok}, {elapsed:.1f}s shared-fixture time",
    )


def test_criterion_8_gmb_benefit(suite_results):
    wins = sum(
        1 for r in suite_results.values() if r["uni_mse"] < r["nogmb_mse"]
    )
    report(
        8,
        "uniform 3-bit error lower with GMB than without",
        wins >= 4,
        f"GMB r=4 beats r=0 on {wins}/5 seeds (need >= 4)",
    )


def _strip_volatile(doc):
    if isinstance(doc, dict):
        return {k: _strip_volatile(v) for k, v in doc.items() if k != "wall_ms"}
    if isinstance(doc, list):
        return [_strip_volatile(v) for v in doc]
    return doc


def test_criterion_9_cli_determinism(tmp_path, capsys):
    cfg = {
        "model": {
            "n_layers": 4,
            "dims": [32] * 5,
            "seed": 3,
            "outlier_fraction": 0.02,
            "outlier_scale": 8.0,
        },
        "calib": {"count": 8, "seed": 5},
        "search": {"k": 8, "target": 3.0, "env_bits": 3, "candidates": [2, 3, 4, 5]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    commands = [
        ["gen-model"],
        ["calibrate-delta"],
        ["search"],
        ["quantize"],
        ["eval", "SEARCH_JSON"],
        ["baseline"],
        ["ablate", "k"],
        ["ablate", "calib"],
        ["ablate", "gmb"],
    ]
    mismatches = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        for cmd in commands:
            argv = [
                arg.replace("SEARCH_JSON", str(out_dir / "search.json"))
                for arg in cmd
            ] + ["--config", str(cfg_path), "--out", str(out_dir)]
            rc = cli_main(argv)
            assert rc == 0, f"command {cmd} failed with {rc}"
    capsys.readouterr()  # CLI chatter is not under test
    files = sorted(os.listdir(tmp_path / "a"))
    assert len(files) == 9
    for name in files:
        raw_a = (tmp_path / "a" / name).read_text()
        raw_b = (tmp_path / "b" / name).read_text()
        if raw_a == raw_b:
            continue  # byte-identical including timings
        doc_a = _strip_volatile(json.loads(raw_a))
        doc_b = _strip_volatile(json.loads(raw_b))
        if doc_a != doc_b:
            mismatches.append(name)
    report(
        9,
        "CLI outputs byte-identical across reruns (wall_ms excluded)",
        not mismatches,
        f"{len(files)} output files compared, mismatches: {mismatches or 'none'}",
    )
