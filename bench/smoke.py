"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

For every workload: a --trace 0 and a --trace 1 run must pass their oracle
checks and print exactly the metrics BENCHMARK.json declares; an
--inject-fault run (one corrupted reference value) must report failures and
exit 1.  Finally the benchmark must refuse, with a nonzero exit and no
result line, to run in a copy that holds only BENCHMARK.json and bench/.
Everything is written under .bench_out/smoke/.  Exit 0 when all holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out" / "smoke"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], names: list[str], errors: list[str], label: str) -> dict:
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if sorted(result["metrics"]) != sorted(names):
        errors.append(f"{label}: metrics {sorted(result['metrics'])} != declared {sorted(names)}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)) or set(metric) != {"value", "unit"}:
            errors.append(f"{label}: malformed metric {name}: {metric}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted = {result['attempted']}")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    reference = WORK / "reference"
    errors: list[str] = []

    code, _ = run([str(HERE / "make_reference.py"), "--size", "tiny", "--out", str(reference)])
    if code:
        print("FAIL: could not generate the tiny references")
        return 1

    for workload in (w["name"] for w in bench["workloads"]):
        common = [str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "0",
                  "--size", "tiny", "--reference-dir", str(reference)]
        for trace, names in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            code, lines = run(common + ["--trace", str(trace)])
            result = check_result(lines, names, errors, label)
            if code != 0 or not result["correct"] or result["failed"]:
                errors.append(f"{label}: exit {code}, correct {result['correct']}, failed {result['failed']}")
            if trace == 0 and any(m["value"] <= 0 for m in result["metrics"].values()):
                errors.append(f"{label}: an end-to-end metric is not positive: {result['metrics']}")
        label = f"{workload} --inject-fault"
        code, lines = run(common + ["--trace", "0", "--inject-fault"])
        result = check_result(lines, end_to_end, errors, label)
        fail_frac = json.loads(lines[-2])["record"]["fail_frac"]
        if code != 1 or result["correct"] or not fail_frac > 0:
            errors.append(f"{label}: exit {code}, correct {result['correct']}, fail_frac {fail_frac}: fault not caught")
        print(f"{workload}: checked")

    stripped = WORK / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(HERE, stripped / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run([*bench["command"][1:], "--workload", "cli-figures", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=stripped)
    if code == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"stripped copy: exit {code}, stdout {lines[-1:]}: should refuse to run")

    for error in errors:
        print("FAIL:", error)
    print("smoke: OK" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
