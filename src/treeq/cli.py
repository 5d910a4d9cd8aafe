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
from dataclasses import dataclass, replace

import numpy as np

from .baselines import ip_allocate, sensitivity_tables, uniform_allocate
from .branches import GMB_ORDERS, GMB_PLACEMENTS, qlinear_doc
from .errors import ConvergenceError
from .linalg import is_int
from .quantizer import default_delta_table
from .search import SearchParams, result_doc, tss_search
from .toymodel import (
    TAG_DERIVE,
    ModelSpec,
    QuantContext,
    check_calibration,
    end_to_end_mse,
    fit_all,
    gen_calibration,
    gen_model,
    mean_bitwidth,
    model_to_json,
    quantized_layer,
    substream,
)

DEFAULT_MODEL = {
    "n_layers": 12,
    "dims": [64] * 13,
    "seed": 11_0101,
    "outlier_fraction": 0.02,
    "outlier_scale": 8.0,
}
# Every config field with its default.  A field takes a value of its
# default's kind: a JSON integer for an int, any JSON number (stored as a
# float) for a float, a list of JSON integers for a list, never a bool.
DEFAULTS = {
    "model": DEFAULT_MODEL,
    "search": {
        "candidates": list(SearchParams.candidates),
        "k": SearchParams.k,
        "target": SearchParams.target,
        "env_bits": SearchParams.env_bits,
    },
    "quant": {"r_lrb": QuantContext.r_lrb, "r_gmb": QuantContext.r_gmb},
    "calib": {"count": 64, "seed": 77},
}
DEFAULT_OUT = "runs"
# command-line flag -> the config field it overrides
FLAG_FIELDS = {
    "seed": ("model", "seed"),
    "target": ("search", "target"),
    "env": ("search", "env_bits"),
    "k": ("search", "k"),
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    model: ModelSpec
    search: SearchParams  # with no calibration set: a command draws its own
    quant: QuantContext
    calib: dict
    output_dir: str


def _checked(path: str, value, default):
    """``value`` if it has the kind of ``default`` (see DEFAULTS), else ConfigError."""
    if isinstance(default, list):
        if isinstance(value, list) and all(is_int(v) for v in value):
            return value
        raise ConfigError(f"config field '{path}' must be a list of integers")
    if isinstance(default, float):
        if is_int(value) or isinstance(value, float):
            return float(value)
        raise ConfigError(f"config field '{path}' must be of type number")
    if is_int(value):
        return value
    raise ConfigError(f"config field '{path}' must be of type int")


def _merge_section(section: str, raw: dict) -> dict:
    out = dict(DEFAULTS[section])
    override = raw.get(section, {})
    if not isinstance(override, dict):
        raise ConfigError(f"config field '{section}' must be an object")
    for key, value in override.items():
        if key not in out:
            raise ConfigError(f"unknown config field '{section}.{key}'")
        out[key] = _checked(f"{section}.{key}", value, out[key])
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
            if key not in DEFAULTS and key != "output_dir":
                raise ConfigError(f"unknown config field '{key}'")
    cfg = {section: _merge_section(section, raw) for section in DEFAULTS}
    output_dir = raw.get("output_dir", DEFAULT_OUT)
    if not isinstance(output_dir, str):
        raise ConfigError("config field 'output_dir' must be a string")

    for flag, (section, key) in FLAG_FIELDS.items():
        if getattr(args, flag, None) is not None:
            cfg[section][key] = getattr(args, flag)
    if getattr(args, "out", None) is not None:
        output_dir = args.out

    try:
        spec = ModelSpec(**cfg["model"])
    except ValueError as e:
        raise ConfigError(f"invalid model config: {e}")
    try:
        quant = QuantContext(**cfg["quant"])
    except ValueError as e:
        raise ConfigError(f"invalid quant config: {e}")
    try:
        check_calibration(**cfg["calib"])
    except ValueError as e:
        raise ConfigError(f"invalid calib config: {e}")
    try:
        search = SearchParams(calib=None, **cfg["search"])
    except ValueError as e:
        raise ConfigError(f"invalid search config: {e}")
    return RunConfig(spec, search, quant, cfg["calib"], output_dir)


def _write(cfg: RunConfig, name: str, text: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def _uniform_bits(cfg: RunConfig) -> int:
    target = cfg.search.target
    return min(cfg.search.candidates, key=lambda b: (abs(b - target), b))


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
    path = _write(cfg, "delta.json", json.dumps({str(b): table[b] for b in sorted(table)}))
    print(f"wrote {path}")
    print(f"{'bits':>4} {'delta':>12}")
    for b in sorted(table):
        print(f"{b:>4} {table[b]:>12.6f}")
    return 0


def _run_search(cfg: RunConfig, model, calib, **overrides):
    return tss_search(model, replace(cfg.search, calib=calib, **overrides), cfg.quant)


def cmd_search(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    model = gen_model(cfg.model)
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    result = _run_search(cfg, model, calib)
    doc = result_doc(result)
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
    bits = _uniform_bits(cfg)
    alloc = uniform_allocate(model.n_layers, bits)
    layers = [
        qlinear_doc(quantized_layer(model, i, alloc[i], cfg.quant)) for i in range(model.n_layers)
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


def _load_alloc(path: str) -> dict:
    """The layer -> bits table of a search.json's ``final_alloc`` or of a
    bare JSON object.  Only what is particular to JSON is checked here
    (ConfigError): the file holds an object whose keys are canonical
    decimals.  ``alloc_bits`` checks the layers and bits on evaluation."""
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
        # canonical decimal only, as search.json writes it: int() would read
        # "011" and " 11" as layer 11 and let the last of them win
        if not (key.isdecimal() and key == str(int(key))):
            raise ConfigError(f"allocation entry {key!r} is not a layer index")
        alloc[int(key)] = value
    return alloc


def cmd_eval(cfg: RunConfig, args) -> int:
    started = time.perf_counter()
    model = gen_model(cfg.model)
    alloc = _load_alloc(args.alloc)
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    mse = end_to_end_mse(model, alloc, calib, cfg.quant)
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
    ctx = cfg.quant
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    # sensitivity tables get a 4x larger, disjoint calibration draw
    sens_calib = gen_calibration(
        model, 4 * cfg.calib["count"], substream(cfg.calib["seed"], TAG_DERIVE, 1)
    )
    target, candidates = cfg.search.target, cfg.search.candidates

    allocs = {"uniform": uniform_allocate(model.n_layers, _uniform_bits(cfg))}
    tables = sensitivity_tables(model, sens_calib, ctx, candidates)
    for metric, label in (("L1", "ip_l1"), ("L2", "ip_l2")):
        allocs[label] = ip_allocate(tables[metric], model.flops, target, candidates)
    allocs["tss"] = _run_search(cfg, model, calib).final

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
        "env_bits": cfg.search.env_bits,
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


def _ablate_k(cfg: RunConfig, model, calib) -> list:
    rows = []
    for k in (4, 8, 16, 32):
        started = time.perf_counter()
        result = _run_search(cfg, model, calib, k=k)
        rows.append(
            {
                "k": k,
                "mse": result.indicator,
                "evals": result.evals,
                "wall_ms": (time.perf_counter() - started) * 1e3,
            }
        )
    return rows


def _ablate_calib(cfg: RunConfig, model, calib) -> list:
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
            values.append(end_to_end_mse(model, alloc, draw, cfg.quant))
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


def _gmb_settings(quant: QuantContext) -> list:
    """The eight (label, context) rows of ``ablate gmb``, each a change to ``quant``."""
    return [
        *((f"r={r}", replace(quant, r_gmb=r, scale_ranks=False)) for r in (0, 4, 8, 16)),
        *((f"order={o}", replace(quant, gmb_order=o)) for o in GMB_ORDERS),
        *((f"placement={p}", replace(quant, gmb_placement=p)) for p in GMB_PLACEMENTS),
    ]


def _ablate_gmb(cfg: RunConfig, model, calib) -> list:
    """One row per ``_gmb_settings`` context: the uniform allocation's MSE under it.

    Every layer is fitted under all eight contexts first, in one
    ``fit_all`` call, so the settings share their stacked fits; a row's
    ``wall_ms`` times its evaluation only.
    """
    bits = _uniform_bits(cfg)
    alloc = uniform_allocate(model.n_layers, bits)
    settings = _gmb_settings(cfg.quant)
    fit_all(model, [setting_ctx for _, setting_ctx in settings])
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
    calib = gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    runner = {"k": _ablate_k, "calib": _ablate_calib, "gmb": _ablate_gmb}[args.axis]
    rows = runner(cfg, model, calib)
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
