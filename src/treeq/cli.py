"""Command-line front end: generate models, calibrate, search, compare.

All machine-readable outputs are JSON files under the output directory.
Rerunning a command with the same config reproduces the files byte for
byte except for the wall_ms timing fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .baselines import build_sensitivity_table, ip_allocate, uniform_allocate
from .branches import qlinear_to_json
from .errors import ConvergenceError
from .quantizer import default_delta_table
from .search import EvalCounter, SearchParams, result_to_json, tss_search
from .toymodel import (
    TAG_DERIVE,
    ModelSpec,
    QuantContext,
    end_to_end_mse,
    gen_calibration,
    gen_model,
    mean_bitwidth,
    model_to_json,
    quantized_layer,
    substream,
)

SEED_ENV_VAR = "TREEQ_SEED"

DEFAULT_MODEL = {
    "n_layers": 12,
    "dims": [64] * 13,
    "seed": 11_0101,
    "outlier_fraction": 0.02,
    "outlier_scale": 8.0,
}
DEFAULT_SEARCH = {"candidates": [2, 3, 4, 5], "k": 16, "target": 3.0, "env_bits": 3}
DEFAULT_QUANT = {"r_lrb": 16, "r_gmb": 4, "use_gmb": True}
DEFAULT_CALIB = {"count": 64, "seed": 77}
DEFAULT_OUT = "runs"

_SCHEMA = {
    "model": {
        "n_layers": int,
        "dims": list,
        "seed": int,
        "outlier_fraction": (int, float),
        "outlier_scale": (int, float),
    },
    "search": {
        "candidates": list,
        "k": int,
        "target": (int, float),
        "env_bits": int,
    },
    "quant": {"r_lrb": int, "r_gmb": int, "use_gmb": bool},
    "calib": {"count": int, "seed": int},
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    model: ModelSpec
    search: dict
    quant: dict
    calib: dict
    output_dir: str


def _check_type(path: str, value, expected) -> None:
    if expected is int and isinstance(value, bool):
        raise ConfigError(f"config field '{path}' must be an integer")
    if not isinstance(value, expected):
        name = expected.__name__ if isinstance(expected, type) else "number"
        raise ConfigError(f"config field '{path}' must be of type {name}")


def _merge_section(section: str, raw: dict) -> dict:
    defaults = {
        "model": DEFAULT_MODEL,
        "search": DEFAULT_SEARCH,
        "quant": DEFAULT_QUANT,
        "calib": DEFAULT_CALIB,
    }[section]
    out = dict(defaults)
    override = raw.get(section, {})
    if not isinstance(override, dict):
        raise ConfigError(f"config field '{section}' must be an object")
    for key, value in override.items():
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config field '{section}.{key}'")
        _check_type(f"{section}.{key}", value, _SCHEMA[section][key])
        out[key] = value
    return out


def load_run_config(args) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {args.config} is not valid JSON: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        for key in raw:
            if key not in ("model", "search", "quant", "calib", "output_dir"):
                raise ConfigError(f"unknown config field '{key}'")
    model_cfg = _merge_section("model", raw)
    search_cfg = _merge_section("search", raw)
    quant_cfg = _merge_section("quant", raw)
    calib_cfg = _merge_section("calib", raw)
    output_dir = raw.get("output_dir", DEFAULT_OUT)
    if not isinstance(output_dir, str):
        raise ConfigError("config field 'output_dir' must be a string")

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            model_cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    if getattr(args, "seed", None) is not None:
        model_cfg["seed"] = args.seed
    if getattr(args, "target", None) is not None:
        search_cfg["target"] = args.target
    if getattr(args, "env", None) is not None:
        search_cfg["env_bits"] = args.env
    if getattr(args, "k", None) is not None:
        search_cfg["k"] = args.k
    if getattr(args, "out", None) is not None:
        output_dir = args.out

    try:
        spec = ModelSpec(
            n_layers=model_cfg["n_layers"],
            dims=tuple(model_cfg["dims"]),
            seed=model_cfg["seed"],
            outlier_fraction=float(model_cfg["outlier_fraction"]),
            outlier_scale=float(model_cfg["outlier_scale"]),
        )
    except ValueError as e:
        raise ConfigError(f"invalid model config: {e}")
    return RunConfig(
        model=spec,
        search=search_cfg,
        quant=quant_cfg,
        calib=calib_cfg,
        output_dir=output_dir,
    )


def _context(cfg: RunConfig) -> QuantContext:
    return QuantContext(
        r_lrb=cfg.quant["r_lrb"],
        r_gmb=cfg.quant["r_gmb"],
        use_gmb=cfg.quant["use_gmb"],
    )


def _write(cfg: RunConfig, name: str, text: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _uniform_bits(cfg: RunConfig) -> int:
    target = cfg.search["target"]
    return min(cfg.search["candidates"], key=lambda b: (abs(b - target), b))


def cmd_gen_model(cfg: RunConfig, args) -> int:
    model = gen_model(cfg.model)
    path = _write(cfg, "model.json", model_to_json(model))
    print(f"wrote {path}")
    print(f"{'layer':>5} {'d_in':>6} {'d_out':>6} {'flops':>10}")
    for i in range(model.n_layers):
        print(
            f"{i:>5} {model.dims[i]:>6} {model.dims[i + 1]:>6} {model.flops[i]:>10}"
        )
    return 0


def cmd_calibrate_delta(cfg: RunConfig, args) -> int:
    table = default_delta_table()
    path = _write(cfg, "delta.json", table.to_json())
    print(f"wrote {path}")
    print(f"{'bits':>4} {'delta':>12}")
    for b in sorted(table.deltas):
        print(f"{b:>4} {table.deltas[b]:>12.6f}")
    return 0


def _run_search(cfg: RunConfig, model, calib, ctx, k=None, calib_override=None):
    params = SearchParams(
        calib=calib_override if calib_override is not None else calib,
        candidates=tuple(cfg.search["candidates"]),
        k=k if k is not None else cfg.search["k"],
        target=float(cfg.search["target"]),
        env_bits=cfg.search["env_bits"],
        eval_counter=EvalCounter(),
    )
    return tss_search(model, params, ctx)


def cmd_search(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    model = gen_model(cfg.model)
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    result = _run_search(cfg, model, calib, _context(cfg))
    doc = json.loads(result_to_json(result))
    doc["wall_ms"] = (time.perf_counter() - started) * 1e3
    path = _write(cfg, "search.json", _dump(doc))
    print(f"wrote {path}")
    alloc = " ".join(str(result.final[i]) for i in sorted(result.final))
    print(f"allocation: {alloc}")
    print(
        f"mean_bits={result.mean_bits:.4f} indicator={result.indicator:.6e} "
        f"evals={result.evals}"
    )
    return 0


def cmd_quantize(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    model = gen_model(cfg.model)
    ctx = _context(cfg)
    bits = _uniform_bits(cfg)
    alloc = uniform_allocate(model.n_layers, bits)
    layers = [
        json.loads(qlinear_to_json(quantized_layer(model, i, alloc[i], ctx)))
        for i in range(model.n_layers)
    ]
    doc = {
        "bits": bits,
        "mean_bits": mean_bitwidth(alloc, model),
        "layers": layers,
        "wall_ms": (time.perf_counter() - started) * 1e3,
    }
    path = _write(cfg, "quantize.json", _dump(doc))
    print(f"wrote {path} (uniform {bits}-bit, {model.n_layers} layers)")
    return 0


def _load_alloc(path: str, n_layers: int) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read allocation {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"allocation {path} is not valid JSON: {e}")
    table = doc.get("final_alloc", doc) if isinstance(doc, dict) else None
    if not isinstance(table, dict):
        raise ConfigError("allocation file must map layer index to bits")
    alloc = {}
    for key, value in table.items():
        try:
            alloc[int(key)] = int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"allocation entry {key!r}: {value!r} is not an integer")
    for i in range(n_layers):
        if i not in alloc:
            raise ConfigError(f"allocation missing layer {i}")
    if len(alloc) != n_layers:
        extra = sorted(set(alloc) - set(range(n_layers)))
        raise ConfigError(f"allocation names unknown layers {extra}")
    return alloc


def cmd_eval(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    model = gen_model(cfg.model)
    alloc = _load_alloc(args.alloc, model.n_layers)
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    mse = end_to_end_mse(model, alloc, calib, _context(cfg))
    doc = {
        "mse": mse,
        "mean_bits": mean_bitwidth(alloc, model),
        "per_layer_bits": [alloc[i] for i in range(model.n_layers)],
        "wall_ms": (time.perf_counter() - started) * 1e3,
    }
    path = _write(cfg, "eval.json", _dump(doc))
    print(f"wrote {path}")
    print(f"mse={mse:.6e} mean_bits={doc['mean_bits']:.4f}")
    return 0


def cmd_baseline(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    model = gen_model(cfg.model)
    ctx = _context(cfg)
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    # sensitivity tables get a 4x larger, disjoint calibration draw
    sens_calib = gen_calibration(
        model, 4 * cfg.calib["count"], substream(cfg.calib["seed"], TAG_DERIVE, 1)
    )
    target = float(cfg.search["target"])
    candidates = tuple(cfg.search["candidates"])

    allocs = {"uniform": uniform_allocate(model.n_layers, _uniform_bits(cfg))}
    for metric, label in (("L1", "ip_l1"), ("L2", "ip_l2")):
        table = build_sensitivity_table(model, metric, sens_calib, ctx, candidates)
        allocs[label] = ip_allocate(table, model.flops, target, candidates)
    allocs["tss"] = _run_search(cfg, model, calib, ctx).final

    rows = []
    for method in ("uniform", "ip_l1", "ip_l2", "tss"):
        alloc = allocs[method]
        mean = mean_bitwidth(alloc, model)
        rows.append(
            {
                "method": method,
                "mse": end_to_end_mse(model, alloc, calib, ctx),
                "mean_bits": mean,
                "within_budget": abs(mean - target) <= 0.25,
            }
        )
    doc = {
        "target": target,
        "env_bits": cfg.search["env_bits"],
        "rows": rows,
        "wall_ms": (time.perf_counter() - started) * 1e3,
    }
    path = _write(cfg, "baseline.json", _dump(doc))
    print(f"wrote {path}")
    print(f"{'method':<8} {'mse':>14} {'mean_bits':>10} {'budget':>7}")
    for row in rows:
        flag = "ok" if row["within_budget"] else "OVER"
        print(
            f"{row['method']:<8} {row['mse']:>14.6e} {row['mean_bits']:>10.4f} {flag:>7}"
        )
    tss_mse = rows[-1]["mse"]
    if any(r["mse"] < tss_mse for r in rows[1:3]):
        print("note: an IP baseline beat TSS on this seed (soft expectation)")
    return 0


def _ablate_k(cfg: RunConfig, model, calib, ctx) -> list:
    rows = []
    for k in (4, 8, 16, 32):
        started = time.perf_counter()
        result = _run_search(cfg, model, calib, ctx, k=k)
        rows.append(
            {
                "k": k,
                "mse": result.indicator,
                "evals": result.evals,
                "wall_ms": (time.perf_counter() - started) * 1e3,
            }
        )
    return rows


def _ablate_calib(cfg: RunConfig, model, calib, ctx) -> list:
    import numpy as np

    draws = 8
    bits = _uniform_bits(cfg)
    alloc = uniform_allocate(model.n_layers, bits)
    rows = []
    for count in (4, 8, 16, 32, 64):
        started = time.perf_counter()
        values = []
        for j in range(draws):
            draw = gen_calibration(
                model, count, substream(cfg.calib["seed"], TAG_DERIVE, 100 + j)
            )
            values.append(end_to_end_mse(model, alloc, draw, ctx))
        rows.append(
            {
                "count": count,
                "mse": float(np.mean(values)),
                "indicator_std": float(np.std(values)),
                "evals": draws,
                "wall_ms": (time.perf_counter() - started) * 1e3,
            }
        )
    return rows


def _ablate_gmb(cfg: RunConfig, model, calib, ctx) -> list:
    bits = _uniform_bits(cfg)
    alloc = uniform_allocate(model.n_layers, bits)
    settings = [
        ("r=0", QuantContext(r_gmb=0, use_gmb=False, scale_ranks=False)),
        ("r=4", QuantContext(r_gmb=4, scale_ranks=False)),
        ("r=8", QuantContext(r_gmb=8, scale_ranks=False)),
        ("r=16", QuantContext(r_gmb=16, scale_ranks=False)),
        ("order=lrb_first", QuantContext(gmb_order="lrb_first")),
        ("order=gmb_first", QuantContext(gmb_order="gmb_first")),
        ("placement=post", QuantContext(gmb_placement="post")),
        ("placement=pre", QuantContext(gmb_placement="pre")),
    ]
    rows = []
    for label, setting_ctx in settings:
        started = time.perf_counter()
        rows.append(
            {
                "setting": label,
                "mse": end_to_end_mse(model, alloc, calib, setting_ctx),
                "evals": 1,
                "wall_ms": (time.perf_counter() - started) * 1e3,
            }
        )
    return rows


def cmd_ablate(cfg: RunConfig, args) -> int:
    model = gen_model(cfg.model)
    ctx = _context(cfg)
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    runner = {"k": _ablate_k, "calib": _ablate_calib, "gmb": _ablate_gmb}[args.axis]
    rows = runner(cfg, model, calib, ctx)
    doc = {"axis": args.axis, "rows": rows}
    path = _write(cfg, f"ablate_{args.axis}.json", _dump(doc))
    print(f"wrote {path}")
    keys = [k for k in rows[0] if k != "wall_ms"]
    print(" ".join(f"{k:>14}" for k in keys))
    for row in rows:
        print(
            " ".join(
                f"{row[k]:>14.6e}" if isinstance(row[k], float) else f"{row[k]!s:>14}"
                for k in keys
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override model seed")
    common.add_argument("--target", type=float, help="target mean bit-width")
    common.add_argument("--env", type=int, help="environment bit-width")
    common.add_argument("--k", type=int, help="max Pareto queue length")
    common.add_argument("--out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="treeq",
        description="Mixed-precision quantization sandbox: searches per-layer "
        "bit-widths on a seeded synthetic network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-model", parents=[common]).set_defaults(func=cmd_gen_model)
    sub.add_parser("calibrate-delta", parents=[common]).set_defaults(
        func=cmd_calibrate_delta
    )
    sub.add_parser("search", parents=[common]).set_defaults(func=cmd_search)
    sub.add_parser("quantize", parents=[common]).set_defaults(func=cmd_quantize)
    p_eval = sub.add_parser("eval", parents=[common])
    p_eval.add_argument("alloc", help="allocation JSON (search output or layer->bits map)")
    p_eval.set_defaults(func=cmd_eval)
    sub.add_parser("baseline", parents=[common]).set_defaults(func=cmd_baseline)
    p_ablate = sub.add_parser("ablate", parents=[common])
    p_ablate.add_argument("axis", choices=("k", "calib", "gmb"))
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args)
        return args.func(cfg, args)
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - internal failure path
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
