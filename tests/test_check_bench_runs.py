"""``tests/check_bench_runs.py``, which reads the verdicts of CI's bench runs.

The runs themselves are too slow for tier-1, so the script reads files that
end as ``bench/run.py`` ends its output: one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench_runs.py")


def run_output(correct=True, failed=0) -> str:
    verdict = {"correct": correct, "attempted": 3, "failed": failed,
               "metrics": {"op_s": {"value": 0.1, "unit": "s"}}}
    return ("search_cold op_s = 0.1 s\n"
            f"search_cold attempted = 3, failed = {failed}, correct = {correct}\n"
            + json.dumps(verdict) + "\n")


def check(*paths):
    return subprocess.run([sys.executable, SCRIPT, *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def test_passing_runs_exit_0(tmp_path):
    paths = [tmp_path / f"{w}.out" for w in ("search_cold-0", "search_cold-1")]
    for path in paths:
        path.write_text(run_output())
    run = check(*paths)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines() == [f"{path}: ok" for path in paths]


def test_any_bad_missing_or_malformed_file_exits_1(tmp_path):
    good = tmp_path / "good.out"
    good.write_text(run_output())
    cases = {
        "incorrect": (run_output(correct=False), "check failed"),
        "failed": (run_output(failed=1), "check failed"),
        "truthy": (run_output(correct=1), "check failed"),
        "empty": ("", "it is empty"),
        "truncated": (run_output()[:-10], "not a run's verdict"),
        "no-verdict": ("search_cold op_s = 0.1 s\n", "not a run's verdict"),
        "list": ("[true, 0]\n", "not a run's verdict"),
        "no-failed": ('{"correct": true}\n', "not a run's verdict"),
        "missing": (None, "cannot read it"),
    }
    for name, (text, why) in cases.items():
        bad = tmp_path / f"{name}.out"
        if text is not None:
            bad.write_text(text)
        # a bad file fails the step wherever it comes in the list
        for paths in ([good, bad], [bad, good]):
            run = check(*paths)
            assert run.returncode == 1, name
            assert f"{bad}: " in run.stdout and why in run.stdout, (name, run.stdout)
            assert f"{good}: ok" in run.stdout
