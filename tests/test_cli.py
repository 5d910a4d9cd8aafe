"""Command-line interface tests.

Every test drives ``treeq.cli.main`` in-process with a small 4-layer config
so the whole file stays fast.  Determinism at the byte level is an
acceptance criterion; here we cover exit codes, config handling, seed
precedence, and the shape of each output document.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from treeq import cli, linalg, toymodel
from treeq.cli import _gmb_settings, main
from treeq.quantizer import default_delta_table
from treeq.toymodel import ModelSpec, QuantContext


SMALL_CFG = {
    "model": {
        "n_layers": 4,
        "dims": [32, 32, 32, 32, 32],
        "seed": 3,
        "outlier_fraction": 0.02,
        "outlier_scale": 8.0,
    },
    "calib": {"count": 8, "seed": 5},
    "search": {"k": 8, "target": 3.0, "env_bits": 3, "candidates": [2, 3, 4, 5]},
}


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = dict(SMALL_CFG)
    cfg["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_out(cfg_path, name):
    return read_json(os.path.join(read_json(cfg_path)["output_dir"], name))


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["gen-model", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["gen-model", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_field_named_in_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"search": {"kk": 16}}))
        assert main(["gen-model", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "search.kk" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"quantize": {}}))
        assert main(["gen-model", "--config", str(p)]) == 2
        assert "quantize" in capsys.readouterr().err

    def test_bool_is_not_an_integer(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"calib": {"count": True}}))
        assert main(["gen-model", "--config", str(p)]) == 2
        assert "calib.count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,field", [("model", "outlier_fraction"), ("search", "target")]
    )
    def test_bool_is_not_a_number(self, tmp_path, capsys, section, field):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({section: {field: True}}))
        assert main(["gen-model", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"{section}.{field}" in capsys.readouterr().err

    def test_use_gmb_is_unknown(self, tmp_path, capsys):
        # r_gmb 0 is the one way to turn the GMB off
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"quant": {"use_gmb": False}}))
        assert main(["gen-model", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config field 'quant.use_gmb'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,raw",
        [
            ("search.candidates", {"search": {"candidates": [2, 3.7, 4, 5]}}),
            ("search.candidates", {"search": {"candidates": [2, True, 4, 5]}}),
            ("search.candidates", {"search": {"candidates": 4}}),
            ("model.dims", {"model": {"n_layers": 2, "dims": [32, 32.9, 32]}}),
        ],
        ids=["candidate-3.7", "candidate-bool", "candidates-not-a-list", "dim-32.9"],
    )
    def test_lists_take_json_integers_only(self, tmp_path, capsys, path, raw):
        # a truncated entry would run a different setting without a word
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["search", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{path}' must be a list of integers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["r_lrb", "r_gmb"])
    def test_negative_rank_exits_2(self, tmp_path, capsys, field):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"quant": {field: -5}}))
        assert main(["search", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert f"invalid quant config: {field} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen-model", "search"])
    def test_quant_section_checked_against_every_layer_shape(self, tmp_path, capsys, command):
        # r_gmb 3 is capped at 1 on the 64 x 16 first layer and divides it,
        # but not the 64 x 64 second one: the load poses the chain on each
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": {"n_layers": 2, "dims": [16, 64, 64]},
                                 "quant": {"r_gmb": 3}}))
        assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: invalid quant config: r 3 must divide both dimensions (64, 64)"
        )
        assert not (tmp_path / "o").exists()

    def test_number_fields_are_stored_as_floats(self, cfg_path, tmp_path):
        raw = read_json(cfg_path)
        raw["search"]["target"] = 3
        raw["model"]["outlier_scale"] = 8
        int_path = str(tmp_path / "int_cfg.json")
        with open(int_path, "w") as fh:
            json.dump(raw, fh)
        assert main(["search", "--config", cfg_path]) == 0
        assert main(["gen-model", "--config", cfg_path]) == 0
        want = read_out(cfg_path, "search.json"), read_out(cfg_path, "model.json")["spec"]
        assert main(["search", "--config", int_path]) == 0
        assert main(["gen-model", "--config", int_path]) == 0
        got = read_out(cfg_path, "search.json"), read_out(cfg_path, "model.json")["spec"]
        assert json.dumps(got[1]) == json.dumps(want[1])
        got[0].pop("wall_ms"), want[0].pop("wall_ms")
        assert json.dumps(got[0], sort_keys=True) == json.dumps(want[0], sort_keys=True)

    def _rejects_calib(self, tmp_path, capsys, calib, message):
        # checked when the config loads, so even gen-model, which draws no
        # calibration, exits 2 before it writes anything
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(SMALL_CFG, calib=calib)))
        for cmd in ("gen-model", "search"):
            assert main([cmd, "--config", str(p), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err.strip() == f"error: invalid calib config: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["-1", "2^64"])
    def test_calibration_seed_outside_64_bits(self, tmp_path, capsys, seed):
        # gen would reduce it mod 2^64: -1 and 2^64 - 1 drew the same inputs
        calib = {"count": 8, "seed": seed}
        self._rejects_calib(tmp_path, capsys, calib, "seed must fit in 64 bits")

    def test_calibration_count_below_one(self, tmp_path, capsys):
        calib = {"count": 0, "seed": 77}
        self._rejects_calib(tmp_path, capsys, calib, "count must be >= 1, got 0")

    def test_invalid_model_shape(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": {"dims": [64] * 4}}))
        assert main(["gen-model", "--config", str(p)]) == 2
        assert "invalid model config" in capsys.readouterr().err

    def test_infinite_outlier_scale(self, tmp_path, capsys):
        # Python's json reads Infinity; gen-model must not write it out
        p = tmp_path / "cfg.json"
        p.write_text('{"model": {"outlier_scale": Infinity}}')
        assert main(["gen-model", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: invalid model config: outlier_scale must be finite and >= 1"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flags, target", [
        ('{"search": {"target": NaN}}', [], "nan"),
        ('{"search": {"target": Infinity}}', [], "inf"),
        ("{}", ["--target", "nan"], "nan"),
    ], ids=["json-NaN", "json-Infinity", "flag-nan"])
    def test_non_finite_target(self, tmp_path, capsys, config, flags, target):
        # json and argparse's float both read these; quantize would write
        # a 2-bit result for them.  SearchParams rejects them: no comparison
        # with NaN holds, so NaN lies outside the hull as inf does
        p = tmp_path / "cfg.json"
        p.write_text(config)
        argv = ["quantize", "--config", str(p), "--out", str(tmp_path / "o"), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: invalid search config: target {target} outside candidate hull (2, 3, 4, 5)"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["gen-model"], ["calibrate-delta"], ["search"], ["eval", "alloc.json"],
        ["baseline"], ["ablate", "k"], ["ablate", "calib"], ["ablate", "gmb"],
    ], ids=lambda c: "-".join(c))
    def test_non_finite_target_stops_every_command(self, tmp_path, capsys, command):
        assert main([*command, "--target=-inf", "--out", str(tmp_path / "o")]) == 2
        assert "invalid search config: target -inf outside" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, message", [
        (["quantize"], "--target=9", "target 9.0 outside candidate hull (2, 3, 4, 5)"),
        (["baseline"], "--target=1.5", "target 1.5 outside candidate hull (2, 3, 4, 5)"),
        (["gen-model"], "--k=2", "k=2 smaller than candidate count 4"),
    ], ids=["quantize-target-9", "baseline-target-1.5", "gen-model-k-2"])
    def test_search_section_checked_at_load(self, tmp_path, capsys, monkeypatch,
                                            command, flag, message):
        # checked like calib, before any command runs a forward
        forwards = []
        run = toymodel.forward_batch

        def counted(*args, **kwargs):
            forwards.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(toymodel, "forward_batch", counted)
        assert main([*command, flag, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.strip() == f"error: invalid search config: {message}"
        assert not (tmp_path / "o").exists()
        assert forwards == []

    @pytest.mark.parametrize("model, where", [
        ({"n_layers": 4, "dims": [32] * 5, "outlier_scale": 1e200}, "entering layer 1"),
        ({"n_layers": 64, "dims": [8] * 65, "outlier_fraction": 0.5, "outlier_scale": 1e6},
         "entering layer 27"),
    ], ids=["4x32-scale-1e200", "64x8-half-outliers"])
    def test_forward_overflow_named(self, tmp_path, capsys, model, where):
        # ModelSpec accepts both, but the dense calibration forward
        # overflows; no numpy warning may escape (they are errors here)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": model, "output_dir": str(tmp_path / "o")}))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({str(i): 3 for i in range(model["n_layers"])}))
        for argv in (["search"], ["eval", str(alloc)]):
            assert main(argv + ["--config", str(p)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: the dense forward overflows: its activation {where} ")
            assert "2^500" in err and f"outlier_scale {model['outlier_scale']:g}" in err

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSeedPrecedence:
    def test_flag_beats_config_seed(self, cfg_path, tmp_path):
        out = str(tmp_path / "c")
        assert main(["gen-model", "--config", cfg_path, "--seed", "7", "--out", out]) == 0
        doc = read_json(os.path.join(out, "model.json"))
        assert SMALL_CFG["model"]["seed"] != 7 and doc["spec"]["seed"] == 7


class TestGenModel:
    def test_writes_model_and_table(self, cfg_path, capsys):
        assert main(["gen-model", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "layer" in out and "flops" in out
        doc = read_out(cfg_path, "model.json")
        assert ModelSpec(**doc["spec"]) == ModelSpec(**SMALL_CFG["model"])
        assert doc["flops"] == [2 * 32 * 32] * 4
        assert len(doc["weights"]) == 4


class TestCalibrateDelta:
    def test_writes_default_table(self, cfg_path):
        assert main(["calibrate-delta", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "delta.json")
        assert doc == {str(b): delta for b, delta in default_delta_table().items()}


class TestSearch:
    def test_output_document(self, cfg_path, capsys):
        assert main(["search", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "search.json")
        assert set(doc) == {
            "target", "env_bits", "k", "candidates", "final_alloc",
            "mean_bits", "indicator", "evals", "merge_trace", "wall_ms",
        }
        assert set(doc["final_alloc"]) == {"0", "1", "2", "3"}
        assert len(doc["merge_trace"]) == 3
        assert "allocation:" in capsys.readouterr().out

    def test_flag_overrides(self, cfg_path):
        assert main(["search", "--config", cfg_path, "--target", "4.0", "--env", "32", "--k", "12"]) == 0
        doc = read_out(cfg_path, "search.json")
        assert doc["target"] == 4.0
        assert doc["env_bits"] == 32
        assert doc["k"] == 12

    def test_rerun_is_deterministic(self, cfg_path, tmp_path):
        out_a, out_b = str(tmp_path / "da"), str(tmp_path / "db")
        assert main(["search", "--config", cfg_path, "--out", out_a]) == 0
        assert main(["search", "--config", cfg_path, "--out", out_b]) == 0
        a = read_json(os.path.join(out_a, "search.json"))
        b = read_json(os.path.join(out_b, "search.json"))
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    def test_non_convergence_exits_1_naming_the_layers(self, cfg_path, monkeypatch, capsys):
        # with a zero residual bound every fit fails its check
        monkeypatch.setattr(linalg, "SVD_RESIDUAL_FACTOR", 0.0)
        assert main(["search", "--config", cfg_path]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: branch fit of layers 0, 1, 2, 3: ")
        assert "SVD residual above 0 * n * eps * sigma_1 (residual=" in err
        assert "internal error" not in err


# 24 layers of width 8: the search's root frontier tops out at 2.5417 bits,
# below the default target of 3 by more than BUDGET_TOLERANCE
DEEP_NARROW = {"model": {"n_layers": 24, "dims": [8] * 25}}
BUDGET_MISS = (
    "error: the search missed its budget: it picked mean_bits=2.5417 against target 3 "
    "(tolerance 0.25); its root frontier spans 2.0000-2.5417 bits"
)


@pytest.mark.parametrize("command", ["search", "baseline"])
def test_budget_miss_exits_2_writing_nothing(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(DEEP_NARROW, output_dir=str(tmp_path / "out"))))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == BUDGET_MISS
    assert not (tmp_path / "out").exists()


def test_every_command_reports_the_file_it_wrote(cfg_path, capsys):
    # (arguments, output file, rest of the wrote line, lines printed)
    out = read_json(cfg_path)["output_dir"]
    commands = [
        (["gen-model"], "model.json", "", 6),
        (["calibrate-delta"], "delta.json", "", 9),
        (["search"], "search.json", "", 3),
        (["quantize"], "quantize.json", " (uniform 3-bit, 4 layers)", 1),
        (["eval", f"{out}/search.json"], "eval.json", "", 2),
        (["baseline"], "baseline.json", "", 6),
        (["ablate", "k"], "ablate_k.json", "", 6),
        (["ablate", "calib"], "ablate_calib.json", "", 7),
        (["ablate", "gmb"], "ablate_gmb.json", "", 10),
    ]
    for argv, name, note, count in commands:
        assert main(argv + ["--config", cfg_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote {out}/{name}{note}" and len(lines) == count
    assert sorted(os.listdir(out)) == sorted(name for _, name, _, _ in commands)


# narrow and uneven shapes that ModelSpec accepts: an 8-wide model, a
# 16-wide one and a chain whose widths run from 8 to 1024 and back
EDGE_MODELS = {
    "2x8": {"n_layers": 2, "dims": [8, 8, 8]},
    "3x16": {"n_layers": 3, "dims": [16, 16, 16, 16]},
    "8-1024-16-8": {"n_layers": 3, "dims": [8, 1024, 16, 8]},
}


@pytest.mark.parametrize("model", EDGE_MODELS.values(), ids=EDGE_MODELS)
def test_every_command_runs_on_edge_shapes(tmp_path, capsys, model):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": model, "output_dir": str(out)}))
    commands = [
        (["gen-model"], "model.json"),
        (["calibrate-delta"], "delta.json"),
        (["search"], "search.json"),
        (["quantize"], "quantize.json"),
        (["eval", str(out / "search.json")], "eval.json"),
        (["baseline"], "baseline.json"),
        (["ablate", "k"], "ablate_k.json"),
        (["ablate", "calib"], "ablate_calib.json"),
        (["ablate", "gmb"], "ablate_gmb.json"),
    ]
    for argv, name in commands:
        assert main(argv + ["--config", str(path)]) == 0, (argv, capsys.readouterr().err)
        assert (out / name).is_file()
    assert sorted(os.listdir(out)) == sorted(name for _, name in commands)


class TestDispatchRobustness:
    """The default ``treeq search`` under other SIMD targets, BLAS thread
    counts and BLAS kernels.

    Each run is a child process; the environment variables reach only the
    children.  The allocation and the evaluation count must not move.  The
    indicator may, by rounding: numpy's AVX-512 ``log1p``/``cos``/``sin``
    loops round some Gaussians of the generator differently from its other
    loops.  Measured on a 2-core AVX-512 Xeon, the indicator under
    ``NPY_DISABLE_CPU_FEATURES=X86_V4`` differed by 1.6e-15 relative, and
    by 3.1e-15 in an earlier measurement with another SVD; BLAS thread
    counts changed nothing, and neither did OpenBLAS's Haswell kernel in
    place of its default SkylakeX one on that machine, although the two
    round some products differently.  The tolerance, 1e-14 relative, is
    about three times the larger of those.
    """

    VARIANTS = [
        {},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
        {"OPENBLAS_NUM_THREADS": "1"},
        {"OPENBLAS_NUM_THREADS": "2"},
        {"OPENBLAS_CORETYPE": "Haswell"},
    ]

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        """search.json of the default search under each variant, in order."""
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        tmp_path = tmp_path_factory.mktemp("dispatch")
        runs = []
        for k, extra in enumerate(self.VARIANTS):
            env = dict(os.environ, **extra)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / str(k)
            argv = [sys.executable, "-m", "treeq.cli", "search", "--out", str(out)]
            runs.append((out, subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                               stderr=subprocess.PIPE, text=True)))
        docs = []
        for out, proc in runs:
            _, err = proc.communicate()
            assert proc.returncode == 0, err
            docs.append(read_json(out / "search.json"))
        return docs

    def test_default_search_is_pinned(self, docs):
        # the default search's own output, so a change that should move no
        # output shows here; the indicator bound is about 600 times the
        # 1.6e-15 that the SIMD target moves it by
        doc = docs[0]
        assert doc["final_alloc"] == {
            "0": 3, "1": 3, "2": 2, "3": 3, "4": 2, "5": 4,
            "6": 2, "7": 2, "8": 2, "9": 4, "10": 4, "11": 5,
        }
        assert doc["evals"] == 489
        assert doc["merge_trace"] == [5, 5, 5, 5, 7, 7, 7, 9, 13, 16, 29]
        assert doc["mean_bits"] == 3.0
        assert doc["indicator"] == pytest.approx(0.6747619556904152, rel=1e-12, abs=0.0)

    def test_default_search_holds(self, docs):
        base = docs[0]
        for extra, doc in zip(self.VARIANTS[1:], docs[1:]):
            assert doc["final_alloc"] == base["final_alloc"], extra
            assert doc["evals"] == base["evals"], extra
            assert doc["indicator"] == pytest.approx(base["indicator"], rel=1e-14, abs=0.0), extra


class TestQuantize:
    def test_uniform_bits_nearest_to_target(self, cfg_path):
        assert main(["quantize", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "quantize.json")
        assert doc["bits"] == 3
        assert doc["mean_bits"] == 3.0
        assert len(doc["layers"]) == 4
        assert doc["layers"][0]["bits_w"] == 3

    def test_tie_prefers_lower(self, cfg_path):
        assert main(["quantize", "--config", cfg_path, "--target", "3.5"]) == 0
        assert read_out(cfg_path, "quantize.json")["bits"] == 3

    def test_rounds_up_past_midpoint(self, cfg_path):
        assert main(["quantize", "--config", cfg_path, "--target", "3.6"]) == 0
        assert read_out(cfg_path, "quantize.json")["bits"] == 4

    def test_huge_outliers_give_finite_row_scales(self, tmp_path, capsys):
        # quantize draws no calibration set, so no dense-forward bound
        # stops these weights; each row's std is taken at a power-of-two
        # scale of its peak, so its squares do not overflow to Infinity
        cfg = {"model": {"n_layers": 4, "dims": [32] * 5, "outlier_scale": 1e200},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["quantize", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""
        layers = json.loads((tmp_path / "out" / "quantize.json").read_text())["layers"]
        scales = np.concatenate([layer["w_scale"] for layer in layers])
        assert scales.shape == (128,) and np.all(np.isfinite(scales)) and np.all(scales > 0)

    def test_32_bit_candidate_exits_2(self, tmp_path, capsys):
        # 32 bits is the dense weight, which has no quantized layer to write
        cfg = dict(SMALL_CFG, output_dir=str(tmp_path / "out"))
        cfg["search"] = dict(SMALL_CFG["search"], candidates=[2, 32], target=32.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["quantize", "--config", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: invalid search config: candidate bits 32 unsupported"
        )
        assert not (tmp_path / "out" / "quantize.json").exists()


class TestEval:
    def test_eval_of_search_output(self, cfg_path):
        assert main(["search", "--config", cfg_path]) == 0
        out_dir = read_json(cfg_path)["output_dir"]
        alloc_path = os.path.join(out_dir, "search.json")
        assert main(["eval", alloc_path, "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "eval.json")
        search_doc = read_out(cfg_path, "search.json")
        assert doc["per_layer_bits"] == [
            search_doc["final_alloc"][str(i)] for i in range(4)
        ]
        assert doc["mse"] >= 0.0
        assert set(doc) == {"mse", "mean_bits", "per_layer_bits", "wall_ms"}

    def test_eval_of_plain_map(self, cfg_path, tmp_path):
        p = tmp_path / "alloc.json"
        p.write_text(json.dumps({"0": 32, "1": 32, "2": 32, "3": 32}))
        assert main(["eval", str(p), "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "eval.json")
        assert doc["mse"] == 0.0
        assert doc["mean_bits"] == 32.0

    def test_missing_layer(self, cfg_path, tmp_path, capsys):
        p = tmp_path / "alloc.json"
        p.write_text(json.dumps({"0": 3, "1": 3, "2": 3}))
        assert main(["eval", str(p), "--config", cfg_path]) == 2
        assert "missing layer 3" in capsys.readouterr().err

    def test_unknown_layer(self, cfg_path, tmp_path, capsys):
        p = tmp_path / "alloc.json"
        p.write_text(json.dumps({str(i): 3 for i in range(5)}))
        assert main(["eval", str(p), "--config", cfg_path]) == 2
        assert capsys.readouterr().err.strip() == "error: allocation names unknown layer 4"

    @pytest.mark.parametrize(
        "key",
        ["011", " 11", "11 ", "+11", "1_1", "\u0661\u0661", "-1", ""],
        ids=["011", " 11", "11 ", "+11", "1_1", "arabic-indic 11", "-1", "empty"],
    )
    def test_layer_keys_must_be_canonical(self, tmp_path, capsys, key):
        # int() reads the first six as layer 11, which would run at whichever
        # bits came last; "-1" and "" name no layer either
        table = {str(i): 3 for i in range(12)}
        table[key] = 5
        p = tmp_path / "alloc.json"
        p.write_text(json.dumps(table))
        assert main(["eval", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: allocation entry {key!r} is not a layer index"
        )
        assert not (tmp_path / "o" / "eval.json").exists()

    def test_non_integer_bits(self, cfg_path, tmp_path, capsys):
        p = tmp_path / "alloc.json"
        p.write_text(json.dumps({"0": "three", "1": 3, "2": 3, "3": 3}))
        assert main(["eval", str(p), "--config", cfg_path]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: layer 0 bits must be an integer, got 'three'"
        )

    @pytest.mark.parametrize("value", [3.7, 3.0, True])
    def test_bits_must_be_json_integers(self, cfg_path, tmp_path, capsys, value):
        p = tmp_path / "alloc.json"
        p.write_text(json.dumps({"0": value, "1": 3, "2": 3, "3": 3}))
        assert main(["eval", str(p), "--config", cfg_path]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: layer 0 bits must be an integer, got {value!r}"
        )


class TestBaseline:
    def test_rows_and_budgets(self, cfg_path, capsys):
        assert main(["baseline", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "baseline.json")
        assert [r["method"] for r in doc["rows"]] == ["uniform", "ip_l1", "ip_l2", "tss"]
        for row in doc["rows"]:
            assert row["mse"] > 0.0
            assert isinstance(row["within_budget"], bool)
            assert row["within_budget"]
        out = capsys.readouterr().out
        assert "method" in out and "mean_bits" in out


class TestAblate:
    def test_k_sweep(self, cfg_path):
        assert main(["ablate", "k", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "ablate_k.json")
        ks = [r["k"] for r in doc["rows"]]
        assert ks == [4, 8, 16, 32]
        evals = [r["evals"] for r in doc["rows"]]
        assert all(a <= b for a, b in zip(evals, evals[1:]))
        # a larger queue can only widen the explored frontier
        assert doc["rows"][-1]["mse"] <= doc["rows"][0]["mse"] + 1e-15

    def test_calib_sweep(self, cfg_path):
        assert main(["ablate", "calib", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "ablate_calib.json")
        counts = [r["count"] for r in doc["rows"]]
        assert counts == [4, 8, 16, 32, 64]
        # indicator variance across draws collapses as the set grows
        assert doc["rows"][-1]["indicator_std"] < doc["rows"][0]["indicator_std"]

    def test_gmb_sweep(self, cfg_path):
        assert main(["ablate", "gmb", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "ablate_gmb.json")
        by = {r["setting"]: r["mse"] for r in doc["rows"]}
        assert by["r=0"] > by["r=4"] > by["r=8"]
        assert set(by) == {
            "r=0", "r=4", "r=8", "r=16",
            "order=lrb_first", "order=gmb_first",
            "placement=post", "placement=pre",
        }

    def test_calib_sweep_draws_only_its_own_sets(self, cfg_path, monkeypatch):
        # five counts of eight sets each; the config's own set goes unused
        counts = []
        draw = cli.gen_calibration

        def counted(model, count, seed):
            counts.append(count)
            return draw(model, count, seed)

        monkeypatch.setattr(cli, "gen_calibration", counted)
        assert main(["ablate", "calib", "--config", cfg_path]) == 0
        assert len(counts) == 5 * 8
        assert sorted(set(counts)) == [4, 8, 16, 32, 64]

    def test_gmb_sweep_caps_r_at_a_narrow_layer(self, tmp_path):
        # unscaled, r=16 fits an 8-wide layer at r = 8, the row of r=8
        cfg = {"model": {"n_layers": 2, "dims": [8, 8, 8]}, "calib": {"count": 8, "seed": 5},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["ablate", "gmb", "--config", str(path)]) == 0
        rows = read_out(str(path), "ablate_gmb.json")["rows"]
        assert [row["setting"] for row in rows] == [label for label, _ in _gmb_settings(QuantContext())]
        by = {row["setting"]: row["mse"] for row in rows}
        assert by["r=16"] == by["r=8"] != by["r=4"]

    def test_gmb_sweep_honours_the_quant_section(self, tmp_path):
        def rows(name, quant):
            cfg = {
                "model": {"n_layers": 1, "dims": [32, 32]},
                "calib": {"count": 8, "seed": 5},
                "quant": quant,
                "output_dir": str(tmp_path / name),
            }
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert main(["ablate", "gmb", "--config", str(path)]) == 0
            return [row["mse"] for row in read_out(str(path), "ablate_gmb.json")["rows"]]

        default, rank_1 = rows("default", {}), rows("rank_1", {"r_lrb": 1})
        assert all(a != b for a, b in zip(default, rank_1))

    def test_default_gmb_settings_are_the_eight_class_default_rows(self):
        assert _gmb_settings(QuantContext()) == [
            ("r=0", QuantContext(r_gmb=0, scale_ranks=False)),
            ("r=4", QuantContext(r_gmb=4, scale_ranks=False)),
            ("r=8", QuantContext(r_gmb=8, scale_ranks=False)),
            ("r=16", QuantContext(r_gmb=16, scale_ranks=False)),
            ("order=lrb_first", QuantContext(gmb_order="lrb_first")),
            ("order=gmb_first", QuantContext(gmb_order="gmb_first")),
            ("placement=post", QuantContext(gmb_placement="post")),
            ("placement=pre", QuantContext(gmb_placement="pre")),
        ]

    def test_requires_axis(self, cfg_path):
        with pytest.raises(SystemExit):
            main(["ablate", "--config", cfg_path])


def test_check_reference_script(tmp_path):
    # tests/check_reference.py, which CI runs on its LRB-only 4 x 64 and
    # 2 x 1024 outputs, here on an LRB-only search and a 1 x 32 ablate gmb
    runs = {
        "lrb": ({"n_layers": 3, "dims": [32] * 4}, {"r_gmb": 0}, [["search"]]),
        "one": ({"n_layers": 1, "dims": [32, 32]}, {}, [["search"], ["ablate", "gmb"]]),
    }
    for name, (model, quant, commands) in runs.items():
        (tmp_path / name).mkdir()
        path = tmp_path / name / "config.json"
        path.write_text(json.dumps({"model": model, "quant": quant, "calib": SMALL_CFG["calib"],
                                    "output_dir": str(tmp_path / name)}))
        for command in commands:
            assert main(command + ["--config", str(path)]) == 0
    script = os.path.join(os.path.dirname(__file__), "check_reference.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(linalg.__file__)), env.get("PYTHONPATH")])
    )

    def check():
        return subprocess.run([sys.executable, script, *(str(tmp_path / n) for n in runs)],
                              env=env, capture_output=True, text=True, timeout=120)

    run = check()
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.count("errors: none") == 3
    # an indicator one ulp off the search's own fails the check
    doc = read_json(tmp_path / "lrb" / "search.json")
    doc["indicator"] = float(np.nextafter(doc["indicator"], 1.0))
    (tmp_path / "lrb" / "search.json").write_text(json.dumps(doc))
    run = check()
    assert run.returncode == 1 and "evals or indicator differ from search.json" in run.stdout


class TestPackage:
    def test_the_command_imports_every_module(self):
        # a module that no command imports is test or dead code, which
        # belongs outside the package; a fresh interpreter sees only what
        # `import treeq.cli` loads
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        package = os.path.join(src, "treeq")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys, treeq.cli\n"
            "for name, module in sys.modules.items():\n"
            "    if name == 'treeq' or name.startswith('treeq.'):\n"
            "        print(module.__file__)\n"
        )
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        loaded = {os.path.realpath(path) for path in run.stdout.split()}
        files = {os.path.realpath(os.path.join(package, name))
                 for name in os.listdir(package) if name.endswith(".py")}
        assert sorted(files - loaded) == []
