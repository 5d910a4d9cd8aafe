"""The benchmark's workloads: set-up, operations and output checks.

Every workload runs in rounds.  ``round_inputs(r)`` lists the inputs of
round r, all derived from the workload seed, ``run`` performs one
operation, and ``check`` compares its output with the reference.  Set-up
covers delta-table calibration and model generation (plus the layer prefit
on eng_sweep); import time is measured by the runner.  ``checks`` and
``reference`` import scipy, so they load only when checking, after the
peak memory has been read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys

from treeq import cli, quantizer, search, toymodel

CALIB_COUNT = 64  # the CLI default calibration set
CALIB_SEED = 77
TARGET = 3.0


def derive(seed: int, *keys) -> int:
    """A 63-bit seed drawn from ``seed`` and a path of keys."""
    text = repr((int(seed),) + keys).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 1


def calibrate_deltas():
    """Recalibrate the delta table the package caches for the process."""
    quantizer.default_delta_table.cache_clear()
    return quantizer.default_delta_table()


def model_spec(n_layers: int, width: int, seed: int) -> toymodel.ModelSpec:
    """A chain shaped like the CLI default model (2% outliers at 8x)."""
    model = cli.DEFAULT_MODEL
    return toymodel.ModelSpec(n_layers, (width,) * (n_layers + 1), seed,
                              model["outlier_fraction"], model["outlier_scale"])


class CliWorkload:
    """An in-process ``treeq`` command on a fresh model seed per operation.

    The model shape goes in a config file; small mode (``--smoke``) uses
    ``small_shape`` and k=4.
    """

    width = 64
    span = "cli.main"
    setup_reps = 3

    def __init__(self, seed: int, out_dir: str, small: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        if small:
            self.n_layers, self.width = self.small_shape
        config = {"model": {"n_layers": self.n_layers,
                            "dims": [self.width] * (self.n_layers + 1)},
                  "search": {"k": 4} if small else {}}
        path = os.path.join(out_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        self.argv = self.command + ["--config", path]

    def setup(self):
        calibrate_deltas()
        toymodel.gen_model(model_spec(self.n_layers, self.width, derive(self.seed, "setup")))

    def round_inputs(self, r: int) -> list:
        return [derive(self.seed, self.name, r)]

    def _main(self, argv):
        # the command's report goes to stderr: stdout carries the metrics
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv + ["--out", self.out_dir])
        if code != 0:
            raise RuntimeError(f"treeq {' '.join(argv)} exited with {code}")

    def _reference_inputs(self, model_seed):
        model = toymodel.gen_model(model_spec(self.n_layers, self.width, model_seed))
        calib = toymodel.gen_calibration(model, CALIB_COUNT, CALIB_SEED)
        return model, calib.input_matrix


class SearchCold(CliWorkload):
    """``treeq search`` with the default config on a 4-layer model.

    Every branch fit is cold.  The CLI's 12 layers would fit two operations
    in a run, and their eval counts differ by up to 30% between model seeds;
    at 4 layers they stay within a few percent (see README.md).
    """

    name = "search_cold"
    command = ["search"]
    n_layers = 4
    small_shape = (3, 32)

    def __init__(self, seed, out_dir, small=False):
        super().__init__(seed, out_dir, small)
        # keep the SearchResult the command computes: search.json omits the root queue
        self.results = []
        original = getattr(cli.tss_search, "__wrapped__", cli.tss_search)

        @functools.wraps(original)
        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.results.append(result)
            return result

        cli.tss_search = capture

    def run(self, model_seed, repeat=0):
        self._main(self.argv + ["--seed", str(model_seed)])
        with open(os.path.join(self.out_dir, "search.json")) as fh:
            doc = json.load(fh)
        result = self.results.pop()
        return {"seed": model_seed, "doc": doc, "result": result, "evals": doc["evals"]}

    def check(self, out, deltas) -> list:
        import checks
        import reference

        model, inputs = self._reference_inputs(out["seed"])
        got = checks.from_result(out["result"], merges=len(out["doc"]["merge_trace"]))
        doc = out["doc"]
        errors = []
        if doc["indicator"] != got.indicator or doc["evals"] != got.evals or \
                {int(i): b for i, b in doc["final_alloc"].items()} != got.final:
            errors.append("search.json disagrees with the search result")
        ref = reference.ReferenceModel(model.weights, deltas=deltas)
        return errors + checks.check_search(got, ref, inputs, model.dims)


class GmbAblate(CliWorkload):
    """``treeq ablate gmb``: 8 branch settings fitted on one model."""

    name = "gmb_ablate"
    command = ["ablate", "gmb"]
    n_layers = 1  # the CLI default's 64 x 64 layer shape, one layer per operation
    small_shape = (1, 32)

    def run(self, model_seed, repeat=0):
        self._main(self.argv + ["--seed", str(model_seed)])
        with open(os.path.join(self.out_dir, "ablate_gmb.json")) as fh:
            rows = json.load(fh)["rows"]
        return {"seed": model_seed, "rows": rows, "evals": sum(r["evals"] for r in rows)}

    def check(self, out, deltas) -> list:
        import checks

        model, inputs = self._reference_inputs(out["seed"])
        alloc = {i: int(TARGET) for i in range(self.n_layers)}
        return checks.check_ablation(out["rows"], model.weights, inputs, alloc, deltas)


class EngSweep:
    """``tss_search`` on one prefitted model, cycling the environment width.

    The model is the CLI's default one, so every seed pays the same prefit;
    the seed picks the calibration draws.
    """

    name = "eng_sweep"
    span = "op"
    setup_reps = 2  # each set-up prefits every layer: 11-14 s on a 2-core Xeon VM
    n_layers = 12
    width = 64
    env_cycle = (2, 3, 32)

    def __init__(self, seed: int, out_dir: str, small: bool = False):
        self.seed = seed
        self.small = small
        if small:
            self.n_layers, self.width, self.env_cycle = 3, 32, (3,)
        self.model = None
        self._ref = None

    def setup(self):
        calibrate_deltas()
        spec = model_spec(self.n_layers, self.width, cli.DEFAULT_MODEL["seed"])
        self.model = toymodel.gen_model(spec)
        for i in range(self.n_layers):
            for bits in (2, 3, 4, 5):
                toymodel.quantized_layer(self.model, i, bits)

    def round_inputs(self, r: int) -> list:
        return [(env, derive(self.seed, "calib", r, j)) for j, env in enumerate(self.env_cycle)]

    def run(self, inp, repeat=0):
        """One search on a fresh calibration draw.

        A repeat of a draw gets a new seed label, which keys the model's MSE
        memo, so the repeat also starts with an empty memo.
        """
        env, calib_seed = inp
        calib = toymodel.gen_calibration(self.model, CALIB_COUNT, calib_seed)
        if repeat:
            calib = dataclasses.replace(calib, seed=derive(calib_seed, "repeat", repeat))
        params = search.SearchParams(calib=calib, env_bits=env, target=TARGET,
                                     k=4 if self.small else 16)
        result = search.tss_search(self.model, params)
        return {"inputs": calib.input_matrix, "result": result, "evals": result.evals}

    def check(self, out, deltas) -> list:
        import checks
        import reference

        if self._ref is None:
            self._ref = reference.ReferenceModel(self.model.weights, deltas=deltas)
        got = checks.from_result(out["result"])
        return checks.check_search(got, self._ref, out["inputs"], self.model.dims)


WORKLOADS = {w.name: w for w in (SearchCold, EngSweep, GmbAblate)}
