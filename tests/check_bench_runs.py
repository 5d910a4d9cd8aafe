"""Check the verdicts of ``bench/run.py`` workload runs.

    python tests/check_bench_runs.py OUT...

Each OUT holds what one ``bench/run.py --workload ...`` run printed.  The
runner exits 0 even when a reference check fails, so its verdict is read
from the last line it prints, a JSON object: ``correct`` must be true and
``failed`` 0.  It prints one line per file and exits 1 if any file is
missing, empty or malformed, or its run failed.
"""

import argparse
import json
import sys


def verdict(path: str) -> str:
    """"ok", or why the run that printed ``path`` does not pass."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        return f"cannot read it: {e}"
    if not lines:
        return "it is empty"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not {"correct", "failed"} <= result.keys():
        return f"its last line is not a run's verdict: {lines[-1]}"
    if result["correct"] is not True or result["failed"] != 0:
        return f"check failed: {lines[-1]}"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outs", nargs="+", metavar="OUT")
    args = parser.parse_args(argv)
    verdicts = [verdict(path) for path in args.outs]
    for path, why in zip(args.outs, verdicts):
        print(f"{path}: {why}")
    return 0 if all(why == "ok" for why in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
