"""Command-line interface tests.

Every test drives ``treeq.cli.main`` in-process with a small 4-layer config
so the whole file stays fast.  Determinism at the byte level is an
acceptance criterion; here we cover exit codes, config handling, seed
precedence, and the shape of each output document.
"""

import json
import os

import pytest

from treeq import linalg
from treeq.cli import main
from treeq.quantizer import default_delta_table
from treeq.toymodel import ModelSpec


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


def read_out(cfg_path, name):
    out_dir = json.loads(open(cfg_path).read())["output_dir"]
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


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

    def test_invalid_model_shape(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": {"dims": [64] * 4}}))
        assert main(["gen-model", "--config", str(p)]) == 2
        assert "invalid model config" in capsys.readouterr().err

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestSeedPrecedence:
    def test_env_var_overrides_config(self, cfg_path, tmp_path, monkeypatch):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        monkeypatch.setenv("TREEQ_SEED", "99")
        assert main(["gen-model", "--config", cfg_path, "--out", out_a]) == 0
        monkeypatch.delenv("TREEQ_SEED")
        assert main(["gen-model", "--config", cfg_path, "--seed", "99", "--out", out_b]) == 0
        a = open(os.path.join(out_a, "model.json")).read()
        b = open(os.path.join(out_b, "model.json")).read()
        assert a == b
        assert json.loads(a)["spec"]["seed"] == 99

    def test_flag_beats_env_var(self, cfg_path, tmp_path, monkeypatch):
        out = str(tmp_path / "c")
        monkeypatch.setenv("TREEQ_SEED", "99")
        assert main(["gen-model", "--config", cfg_path, "--seed", "7", "--out", out]) == 0
        doc = json.loads(open(os.path.join(out, "model.json")).read())
        assert doc["spec"]["seed"] == 7

    def test_garbage_env_var(self, cfg_path, monkeypatch, capsys):
        monkeypatch.setenv("TREEQ_SEED", "seven")
        assert main(["gen-model", "--config", cfg_path]) == 2
        assert "TREEQ_SEED" in capsys.readouterr().err


class TestGenModel:
    def test_writes_model_and_table(self, cfg_path, capsys):
        assert main(["gen-model", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "layer" in out and "flops" in out
        doc = read_out(cfg_path, "model.json")
        spec = ModelSpec.from_json(json.dumps(doc["spec"]))
        assert spec.n_layers == 4
        assert doc["flops"] == [2 * 32 * 32] * 4
        assert len(doc["weights"]) == 4


class TestCalibrateDelta:
    def test_writes_default_table(self, cfg_path):
        assert main(["calibrate-delta", "--config", cfg_path]) == 0
        doc = read_out(cfg_path, "delta.json")
        assert doc == json.loads(default_delta_table().to_json())


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
        a = json.loads(open(os.path.join(out_a, "search.json")).read())
        b = json.loads(open(os.path.join(out_b, "search.json")).read())
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    def test_non_convergence_exits_1_naming_the_layers(self, cfg_path, monkeypatch, capsys):
        monkeypatch.setattr(linalg, "JACOBI_SWEEP_CAP", 1)
        assert main(["search", "--config", cfg_path]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: branch fit of layers 0, 1, 2, 3: ")
        assert "did not converge in 1 sweeps (residual=" in err
        assert "internal error" not in err


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


class TestEval:
    def test_eval_of_search_output(self, cfg_path):
        assert main(["search", "--config", cfg_path]) == 0
        out_dir = json.loads(open(cfg_path).read())["output_dir"]
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
        assert "unknown layers" in capsys.readouterr().err

    def test_non_integer_bits(self, cfg_path, tmp_path, capsys):
        p = tmp_path / "alloc.json"
        p.write_text(json.dumps({"0": "three", "1": 3, "2": 3, "3": 3}))
        assert main(["eval", str(p), "--config", cfg_path]) == 2
        assert "not an integer" in capsys.readouterr().err


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

    def test_requires_axis(self, cfg_path):
        with pytest.raises(SystemExit):
            main(["ablate", "--config", cfg_path])

