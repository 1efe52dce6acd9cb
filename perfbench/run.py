"""The lorapro benchmark: steps/s per method on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
measures the per-layer metrics with the outside-in tracer of ``tracer.py``,
alternating untraced and traced passes to report the tracing overhead.
``--smoke`` shrinks the grid (a few steps, one repetition, one set-up sample)
for ``smoke.py``. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit, the sample counts, the yardsticks
and the environment. The exit code is 0 when every correctness check passed,
1 when one failed and 2 when the library is not there to measure.

Set-up is timed in fresh interpreters (``setup_probe.py``), a few before
each worker and after the last, so that the samples span the run; the
measurement itself runs in ``WORKERS`` fresh interpreters (``bench.py``) that
each take an equal share of ``--seconds``, one after another, never two at
once. A
user's process lands in one of several BLAS thread schedules that persist
for its lifetime, so pooling a few processes measures what users get rather
than the luck of one. Nothing here sets a BLAS thread variable.
See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

sys.path.insert(0, str(HERE))
from bench import ADAMW, METHODS, RUNS, WORKLOADS, config_text  # noqa: E402

# full_ft is a yardstick: on wide its p90 spread reached 0.19, so it is reported, not gated
STEP_P90 = {
    "lora_pro_adamw": "adamw_step_ms_p90",
    "lora_pro_sgd": "sgd_step_ms_p90",
    "lora": "lora_step_ms_p90",
}
WORKERS = 3
SETUP_PER_GROUP = 2  # set-up samples before each worker and after the last
P_HIGH = 0.9
MIN_ADAMW_STEPS = 100  # per run, so that ten samples lie beyond p90
CHILD_TIMEOUT_S = 150


def child(script: str, request: dict) -> dict:
    """Run one helper script in a fresh interpreter; return its last JSON line."""
    done = subprocess.run(
        [sys.executable, str(HERE / script)],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workers: list[dict], setup: list[dict]) -> tuple[dict, list[str]]:
    """The gated metrics, plus report lines with the ungated figures and sample counts.

    Neighbours on a shared host slow whole runs by 15-100% for minutes at a
    time; of the statistics tried, the p90 of step and call times moved
    least between runs, so it is what gets gated. Steps/s, p10 and p50 are
    reported beside it.
    """
    calls = [seconds for w in workers for seconds in w["units"]]
    compares = [c for w in workers for c in w["compares"]]
    steps = {m: [t for c in compares for t in c[m]] for m in METHODS}
    metrics = {
        "setup_s": (statistics.median(s["total_s"] for s in setup), "s"),
        "run_s": (percentile(calls, P_HIGH), "s"),
    }
    for method, name in STEP_P90.items():
        metrics[name] = (1e3 * percentile(steps[method], P_HIGH), "ms")
    metrics["peak_mem_mb"] = (workers[-1]["peak_mib"], "MiB")

    n = len(steps[ADAMW])
    beyond = n - math.ceil(P_HIGH * n)
    quantiles = {
        q: {m: 1e3 * percentile(v, q) for m, v in steps.items()} for q in (0.1, 0.5, P_HIGH)
    }
    p50 = quantiles[0.5]
    notes = [
        f"samples: setup_s {len(setup)} fresh interpreters; {n} steps per method in "
        f"{len(compares)} compares, {beyond} beyond p90; {len(workers)} worker processes",
        f"run_s: p90 of {len(calls)} user-facing calls; their median "
        f"{statistics.median(calls):.6g} s (not gated)",
        "steps/s (steps / summed Trainer.step time, not gated): "
        + ", ".join(f"{m} {len(v) / sum(v):.4g}" for m, v in steps.items()),
        *(
            f"step ms p{round(100 * q)}: " + ", ".join(f"{m} {v:.4g}" for m, v in row.items())
            for q, row in quantiles.items()
        ),
        f"yardstick adamw_step_ms_p50 / lora_step_ms_p50 = {p50[ADAMW] / p50['lora']:.3f} "
        f"(base: lora p50 {p50['lora']:.4f} ms over {len(steps['lora'])} steps; "
        "ROADMAP target <= 2)",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lorapro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grid for smoke.py")
    args = parser.parse_args(argv)

    if not (SRC / "lorapro" / "__init__.py").is_file():
        print(f"error: no lorapro sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace and os.environ.get("LORAPRO_THREADS", "1") not in ("", "1"):
        print("error: --trace 1 needs the single-threaded harness (LORAPRO_THREADS 1)",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    probe = {
        "src": str(SRC),
        "config": config_text(workload, args.seed, workload.steps, RUNS / "setup"),
        "methods": list(METHODS),
        "suite": workload.suite,
    }
    per_group = 1 if args.smoke else SETUP_PER_GROUP
    setup = [child("setup_probe.py", probe) for _ in range(per_group)]
    count = 1 if args.smoke or args.trace else WORKERS
    seconds = 0.0 if args.smoke else args.seconds / count
    workers = []
    for k in range(count):
        timed = sum(len(c[ADAMW]) for w in workers for c in w.get("compares", ()))
        min_steps = 0 if args.smoke else math.ceil((MIN_ADAMW_STEPS - timed) / (count - k))
        workers.append(
            child(
                "bench.py",
                {
                    "src": str(SRC),
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": seconds,
                    "min_adamw_steps": max(0, min_steps),
                    "smoke": args.smoke,
                    "trace": bool(args.trace),
                    "peak": k == count - 1,
                },
            )
        )
        if not args.smoke:
            setup += [child("setup_probe.py", probe) for _ in range(per_group)]
    attempted = sum(w["attempted"] for w in workers) + 1
    failed = sum(w["failed"] for w in workers)
    if any(w["losses"] != workers[0]["losses"] for w in workers):
        failed += 1
        print("check failed: worker processes gave other final losses", file=sys.stderr)

    if args.trace:
        traced = workers[0]["trace"]
        metrics = dict(traced.get("metrics", {}))
        if metrics:
            metrics.update(
                {
                    "config.parse_ms": 1e3 * statistics.median(s["parse_s"] for s in setup),
                    "tasks.build_ms": 1e3 * statistics.median(s["tasks_s"] for s in setup),
                    "lorapro.import_ms": 1e3 * statistics.median(s["import_s"] for s in setup),
                }
            )
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {k: (v, units[k]) for k, v in metrics.items()}
        notes = traced.get("notes", [])
    elif all(w["units"] for w in workers):
        metrics, notes = end_to_end(workers, setup)
    else:
        metrics, notes = {}, []

    wanted = {m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]}
    attempted += 1
    if wanted != metrics.keys():
        failed += 1
        print("check failed: a metric is missing", file=sys.stderr)

    env = workers[0]["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    outcome = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(
        json.dumps({"environment": env, "notes": notes, **outcome, "workers": workers}) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
