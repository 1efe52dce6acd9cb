"""Smoke check of the benchmark itself.

Runs ``run.py --smoke`` (a few training steps, one repetition, one set-up
sample) on every workload with tracing off and on, and checks the schema of
the JSON line each run prints against BENCHMARK.json: exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, every metric named
there with its unit and a finite value, and the run reported correct. It
also checks that the desk lora_pro_adamw step makes 162 / 26 / 6 / 6 calls to
``as_matrix`` / ``spd_solve`` / ``adjust`` / ``validate_bundle``. It sets no
bound on wall-clock time, so it cannot flake on a slow machine.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESK_COUNTS = {
    "linalg.as_matrix_calls": 162.0,
    "linalg.spd_solve_calls": 26.0,
    "gradadjust.adjust_calls": 6.0,
    "gradadjust.validate_bundle_calls": 6.0,
}


def schema_errors(result: dict, wanted: list[dict]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
        return errors
    if result["correct"] is not True:
        errors.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        errors.append("attempted < 1")
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"}:
            errors.append(f"{name}: keys {sorted(entry)}")
            continue
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
        if entry["unit"] != units.get(name):
            errors.append(f"{name}: unit {entry['unit']!r}, expected {units.get(name)!r}")
    return errors


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True,
                text=True,
                cwd=ROOT,
            )
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if done.returncode != 0 or result is None:
                errors = [f"exit code {done.returncode}", done.stderr.strip()[-2000:]]
            else:
                errors = schema_errors(result, benchmark["per_layer" if trace else "end_to_end"])
                if trace and workload == "desk":
                    errors += [
                        f"{name} = {result['metrics'][name]['value']}, expected {count}"
                        for name, count in DESK_COUNTS.items()
                        if result["metrics"].get(name, {}).get("value") != count
                    ]
            status = "FAIL" if errors else "ok"
            print(f"{status} {workload} trace {trace}")
            for error in errors:
                print(f"    {error}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
