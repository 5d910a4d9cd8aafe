"""Command-line front end: generate models, calibrate, search, compare.

All machine-readable outputs are JSON files under the output directory,
and this module builds every one of them.  A command (``COMMANDS``)
returns its file name, its document and the report to print after the
path, and ``main`` hands the three to one emitter, ``_emit``.
Rerunning a command with the same config reproduces the files byte for
byte except for the wall_ms timing fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baselines import ip_allocate, sensitivity_tables, uniform_allocate
from .branches import GMB_ORDERS, GMB_PLACEMENTS
from .errors import ConvergenceError
from .linalg import is_int
from .quantizer import default_delta_table
from .search import BUDGET_TOLERANCE, SearchParams, SearchResult, tss_search
from .toymodel import (
    TAG_DERIVE,
    ModelSpec,
    QuantContext,
    QuantizedLinear,
    ToyModel,
    check_calibration,
    end_to_end_mse,
    fit_all,
    gen_calibration,
    gen_model,
    mean_bitwidth,
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

    built = {}  # in this order, so that quant can pose its chains on the model
    for section, build in (
        ("model", lambda fields: ModelSpec(**fields)),
        ("quant", lambda fields: _posed(QuantContext(**fields), built["model"])),
        ("calib", lambda fields: check_calibration(**fields)),
        ("search", lambda fields: SearchParams(calib=None, **fields)),
    ):
        try:
            built[section] = build(cfg[section])
        except ValueError as e:
            raise ConfigError(f"invalid {section} config: {e}")
    return RunConfig(built["model"], built["search"], built["quant"], cfg["calib"], output_dir)


def _posed(quant: QuantContext, spec: ModelSpec) -> QuantContext:
    """``quant`` once its chain is posed on every layer shape of ``spec``:
    a GMB rank whose grid does not divide a layer's shape raises here, as
    the config loads, so that it stops every command before it runs."""
    for rows, cols in zip(spec.dims[1:], spec.dims):
        quant.chain(rows, cols)
    return quant


def _emit(cfg: RunConfig, name: str, doc, report: str, started: float | None) -> None:
    """Write a command's output file ``name`` and print ``wrote <path>``
    followed by the command's ``report``.

    ``doc`` is a document, dumped with sorted keys and given the
    ``wall_ms`` since ``started`` unless that is None, or a ready string.
    """
    if isinstance(doc, dict):
        if started is not None:
            doc["wall_ms"] = (time.perf_counter() - started) * 1e3
        doc = json.dumps(doc, sort_keys=True)
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    with open(path, "w") as fh:
        fh.write(doc + "\n")
    print(f"wrote {path}{report}")


def _lines(lines) -> str:
    """A report of whole lines, each after the ``wrote`` line."""
    return "".join(f"\n{line}" for line in lines)


def _draw(cfg: RunConfig):
    """The config's model and its calibration set."""
    model = gen_model(cfg.model)
    return model, gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])


def _uniform_bits(cfg: RunConfig) -> int:
    target = cfg.search.target
    return min(cfg.search.candidates, key=lambda b: (abs(b - target), b))


def matrix_to_json(m: np.ndarray) -> dict:
    """A 2-D matrix as its row and column counts and its row-major entries."""
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.ravel().tolist(),
    }


def model_to_json(model: ToyModel) -> str:
    """``model.json``: the spec, the FLOPs and every weight, in that key order."""
    return json.dumps(
        {
            "spec": asdict(model.spec),
            "flops": list(model.flops),
            "weights": [matrix_to_json(w) for w in model.weights],
        }
    )


def qlinear_doc(layer: QuantizedLinear) -> dict:
    """The layer's JSON document; ``bits_a`` and ``n`` restate the grid's bits and width."""
    weight, lrb, gmb = layer.weight, layer.branches.lrb, layer.branches.gmb
    doc = {
        "bits_w": weight.bits,
        "bits_a": weight.bits,
        "n": weight.q.shape[1],
        "lrb": {
            "a": matrix_to_json(lrb.a),
            "b": matrix_to_json(lrb.b),
        },
        "gmb": None,
        "w_grid": matrix_to_json(weight.q),
        "w_scale": [float(v) for v in weight.scale],
        "w_delta": weight.delta,
    }
    if gmb is not None:
        doc["gmb"] = {
            "n_o": gmb.n_o,
            "n_i": gmb.n_i,
            "sigma": [[float(v) for v in row] for row in gmb.sigma],
            "u": [[list(map(float, vec)) for vec in row] for row in gmb.u],
            "v": [[list(map(float, vec)) for vec in row] for row in gmb.v],
        }
    if layer.branches.placement != "post":
        doc["gmb_placement"] = layer.branches.placement
    return doc


def result_doc(result: SearchResult) -> dict:
    """The search's JSON document: settings, final allocation and counts."""
    return {
        "target": result.target,
        "env_bits": result.env_bits,
        "k": result.k,
        "candidates": list(result.candidates),
        "final_alloc": {str(i): result.final[i] for i in sorted(result.final)},
        "mean_bits": result.mean_bits,
        "indicator": result.indicator,
        "evals": result.evals,
        "merge_trace": list(result.merge_trace),
    }


def cmd_gen_model(cfg: RunConfig, args) -> tuple:
    model = gen_model(cfg.model)
    table = [f"{'layer':>5} {'d_in':>6} {'d_out':>6} {'flops':>10}"]
    table += [
        f"{i:>5} {model.dims[i]:>6} {model.dims[i + 1]:>6} {model.flops[i]:>10}"
        for i in range(model.n_layers)
    ]
    return "model.json", model_to_json(model), _lines(table)


def cmd_calibrate_delta(cfg: RunConfig, args) -> tuple:
    table = default_delta_table()
    text = json.dumps({str(b): table[b] for b in sorted(table)})
    report = [f"{'bits':>4} {'delta':>12}"] + [f"{b:>4} {table[b]:>12.6f}" for b in sorted(table)]
    return "delta.json", text, _lines(report)


def _run_search(cfg: RunConfig, model, calib, **overrides):
    return tss_search(model, replace(cfg.search, calib=calib, **overrides), cfg.quant)


def _check_budget(result: SearchResult) -> None:
    """ValueError (exit 2) if the search's pick misses its target by more
    than BUDGET_TOLERANCE bits: no entry of the root frontier meets the
    budget, and the message gives the frontier's bit range."""
    if abs(result.mean_bits - result.target) > BUDGET_TOLERANCE:
        bits = [e.mean_bits for e in result.root.entries]
        raise ValueError(
            f"the search missed its budget: it picked mean_bits={result.mean_bits:.4f} "
            f"against target {result.target:g} (tolerance {BUDGET_TOLERANCE}); its root "
            f"frontier spans {min(bits):.4f}-{max(bits):.4f} bits"
        )


def cmd_search(cfg: RunConfig, args) -> tuple:
    result = _run_search(cfg, *_draw(cfg))
    _check_budget(result)
    alloc = " ".join(str(result.final[i]) for i in sorted(result.final))
    report = [
        f"allocation: {alloc}",
        f"mean_bits={result.mean_bits:.4f} indicator={result.indicator:.6e} evals={result.evals}",
    ]
    return "search.json", result_doc(result), _lines(report)


def cmd_quantize(cfg: RunConfig, args) -> tuple:
    model = gen_model(cfg.model)
    bits = _uniform_bits(cfg)
    alloc = uniform_allocate(model.n_layers, bits)
    doc = {
        "bits": bits,
        "mean_bits": mean_bitwidth(alloc, model),
        "layers": [
            qlinear_doc(quantized_layer(model, i, alloc[i], cfg.quant))
            for i in range(model.n_layers)
        ],
    }
    return "quantize.json", doc, f" (uniform {bits}-bit, {model.n_layers} layers)"


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


def cmd_eval(cfg: RunConfig, args) -> tuple:
    alloc = _load_alloc(args.alloc)
    model, calib = _draw(cfg)
    mse = end_to_end_mse(model, alloc, calib, cfg.quant)
    doc = {
        "mse": mse,
        "mean_bits": mean_bitwidth(alloc, model),
        "per_layer_bits": [alloc[i] for i in range(model.n_layers)],
    }
    return "eval.json", doc, _lines([f"mse={mse:.6e} mean_bits={doc['mean_bits']:.4f}"])


def cmd_baseline(cfg: RunConfig, args) -> tuple:
    model, calib = _draw(cfg)
    # sensitivity tables get a 4x larger, disjoint calibration draw
    sens_calib = gen_calibration(
        model, 4 * cfg.calib["count"], substream(cfg.calib["seed"], TAG_DERIVE, 1)
    )
    target, candidates = cfg.search.target, cfg.search.candidates

    # the search first, so that a missed budget exits before the tables
    result = _run_search(cfg, model, calib)
    _check_budget(result)
    tables = sensitivity_tables(model, sens_calib, cfg.quant, candidates)
    allocs = {
        "uniform": uniform_allocate(model.n_layers, _uniform_bits(cfg)),
        "ip_l1": ip_allocate(tables["L1"], model.flops, target, candidates),
        "ip_l2": ip_allocate(tables["L2"], model.flops, target, candidates),
        "tss": result.final,
    }
    rows, report = [], [f"{'method':<8} {'mse':>14} {'mean_bits':>10} {'budget':>7}"]
    for method, alloc in allocs.items():
        mean = mean_bitwidth(alloc, model)
        row = {
            "method": method,
            "mse": end_to_end_mse(model, alloc, calib, cfg.quant),
            "mean_bits": mean,
            "within_budget": abs(mean - target) <= BUDGET_TOLERANCE,
        }
        rows.append(row)
        flag = "ok" if row["within_budget"] else "OVER"
        report.append(f"{method:<8} {row['mse']:>14.6e} {mean:>10.4f} {flag:>7}")
    if any(r["mse"] < rows[-1]["mse"] for r in rows[1:3]):
        report.append("note: an IP baseline beat TSS on this seed (soft expectation)")
    doc = {"target": target, "env_bits": cfg.search.env_bits, "rows": rows}
    return "baseline.json", doc, _lines(report)


def _timed_rows(items, row) -> list:
    """``row(item)`` for each item, with the ``wall_ms`` that it took."""
    rows = []
    for item in items:
        started = time.perf_counter()
        rows.append({**row(item), "wall_ms": (time.perf_counter() - started) * 1e3})
    return rows


def _ablate_k(cfg: RunConfig) -> list:
    model, calib = _draw(cfg)

    def row(k):
        result = _run_search(cfg, model, calib, k=k)
        return {"k": k, "mse": result.indicator, "evals": result.evals}

    return _timed_rows((4, 8, 16, 32), row)


def _ablate_calib(cfg: RunConfig) -> list:
    """One row per calibration count: the uniform allocation's MSE over
    eight sets of that count, each drawn for its row (the config's own set
    goes unused, so it is not drawn)."""
    model = gen_model(cfg.model)
    alloc = uniform_allocate(model.n_layers, _uniform_bits(cfg))
    seeds = [substream(cfg.calib["seed"], TAG_DERIVE, 100 + j) for j in range(8)]

    def row(count):
        values = [
            end_to_end_mse(model, alloc, gen_calibration(model, count, seed), cfg.quant)
            for seed in seeds
        ]
        return {
            "count": count,
            "mse": float(np.mean(values)),
            "indicator_std": float(np.std(values)),
            "evals": len(seeds),
        }

    return _timed_rows((4, 8, 16, 32, 64), row)


def _gmb_settings(quant: QuantContext) -> list:
    """The eight (label, context) rows of ``ablate gmb``, each a change to
    ``quant``.  The r rows turn rank scaling off, so a layer narrower than
    r fits its GMB at r = N, its narrower dimension (``QuantContext.chain``)."""
    return [
        *((f"r={r}", replace(quant, r_gmb=r, scale_ranks=False)) for r in (0, 4, 8, 16)),
        *((f"order={o}", replace(quant, gmb_order=o)) for o in GMB_ORDERS),
        *((f"placement={p}", replace(quant, gmb_placement=p)) for p in GMB_PLACEMENTS),
    ]


def _ablate_gmb(cfg: RunConfig) -> list:
    """One row per ``_gmb_settings`` context: the uniform allocation's MSE under it.

    Every layer is fitted under all eight contexts first, in one
    ``fit_all`` call, so the settings share their stacked fits; a row's
    ``wall_ms`` times its evaluation only.
    """
    model, calib = _draw(cfg)
    alloc = uniform_allocate(model.n_layers, _uniform_bits(cfg))
    settings = _gmb_settings(cfg.quant)
    fit_all(model, [setting_ctx for _, setting_ctx in settings])
    return _timed_rows(
        settings,
        lambda setting: {
            "setting": setting[0],
            "mse": end_to_end_mse(model, alloc, calib, setting[1]),
            "evals": 1,
        },
    )


ABLATIONS = {"k": _ablate_k, "calib": _ablate_calib, "gmb": _ablate_gmb}


def cmd_ablate(cfg: RunConfig, args) -> tuple:
    rows = ABLATIONS[args.axis](cfg)
    keys = [k for k in rows[0] if k != "wall_ms"]
    report = [" ".join(f"{k:>14}" for k in keys)]
    report += [
        " ".join(
            f"{row[k]:>14.6e}" if isinstance(row[k], float) else f"{row[k]!s:>14}"
            for k in keys
        )
        for row in rows
    ]
    return f"ablate_{args.axis}.json", {"axis": args.axis, "rows": rows}, _lines(report)


# subcommand -> (its function, whether its document gets wall_ms, its
# positional argument as (name, add_argument keywords) or None)
COMMANDS = {
    "gen-model": (cmd_gen_model, False, None),
    "calibrate-delta": (cmd_calibrate_delta, False, None),
    "search": (cmd_search, True, None),
    "quantize": (cmd_quantize, True, None),
    "eval": (
        cmd_eval, True, ("alloc", {"help": "allocation JSON (search output or layer->bits map)"})
    ),
    "baseline": (cmd_baseline, True, None),
    "ablate": (cmd_ablate, False, ("axis", {"choices": tuple(ABLATIONS)})),
}


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
    for name, (func, timed, positional) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common])
        if positional is not None:
            command.add_argument(positional[0], **positional[1])
        command.set_defaults(func=func, timed=timed)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args)
        started = time.perf_counter() if args.timed else None
        _emit(cfg, *args.func(cfg, args), started)
        return 0
    except (ConfigError, ValueError, OSError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, ConvergenceError) else 2
    except Exception as e:  # pragma: no cover - internal failure path
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
