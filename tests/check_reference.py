"""Check treeq search and ablate gmb outputs against the bench's reference.

    python tests/check_reference.py RUN_DIR...

Each RUN_DIR holds a ``config.json`` and the ``search.json`` that ``treeq
search --config RUN_DIR/config.json`` wrote there, and may hold the
``ablate_gmb.json`` of the same config.  For each, the same search runs
again in process: every root-frontier indicator is checked against
``bench/reference.py``, an independent LAPACK pipeline fitted with the
config's quant ranks, and the pick, eval count and indicator against
``search.json``.  Each row of ``ablate_gmb.json`` has its MSE checked
against the same reference.  It prints the checks of each run and exits 1
if any of them failed.  ``treeq`` must be importable (``PYTHONPATH=src``).
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))

import checks  # noqa: E402
import reference  # noqa: E402

from treeq import cli  # noqa: E402
from treeq.baselines import uniform_allocate  # noqa: E402


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_run(run: str) -> list:
    """The errors of one run directory's outputs."""
    args = cli.build_parser().parse_args(["search", "--config", f"{run}/config.json"])
    cfg = cli.load_run_config(args)
    model = cli.gen_model(cfg.model)
    calib = cli.gen_calibration(model, cfg.calib["count"], cfg.calib["seed"])
    result = cli._run_search(cfg, model, calib)
    setting = {"r_lrb": cfg.quant.r_lrb, "r_gmb": cfg.quant.r_gmb}
    ref = reference.ReferenceModel(model.weights, setting, deltas=reference.delta_table())
    errors = checks.check_search(checks.from_result(result), ref, calib.input_matrix, model.dims)
    doc = read_json(f"{run}/search.json")
    if {int(i): b for i, b in doc["final_alloc"].items()} != result.final:
        errors.append("final_alloc differs from search.json")
    if (doc["evals"], doc["indicator"]) != (result.evals, result.indicator):
        errors.append("evals or indicator differ from search.json")
    print(run, len(result.root.entries), "root entries checked against the reference, errors:",
          errors or "none")
    if os.path.exists(f"{run}/ablate_gmb.json"):
        rows = read_json(f"{run}/ablate_gmb.json")["rows"]
        alloc = uniform_allocate(model.n_layers, cli._uniform_bits(cfg))
        ablation = checks.check_ablation(rows, model.weights, calib.input_matrix, alloc,
                                         reference.delta_table())
        print(run, len(rows), "ablate gmb rows checked against the reference, errors:",
              ablation or "none")
        errors += ablation
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", metavar="RUN_DIR")
    args = parser.parse_args(argv)
    failed = [run for run in args.runs if check_run(run)]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
