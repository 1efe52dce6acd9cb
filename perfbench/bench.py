"""One measurement worker of the lorapro benchmark.

``run.py`` starts this file in a fresh interpreter, one worker after
another, and sends it one JSON request on standard input::

    {"src": "<path of src/>", "workload": "desk", "seed": 0, "seconds": 8.0,
     "min_adamw_steps": 34, "smoke": false, "trace": false, "peak": true}

The worker warms up on the fixed-seed reference compare, then repeats the
workload's user-facing call until ``seconds`` have passed, checking every
output, and prints one JSON line with its raw samples: the wall time of each
call, the ``Trainer.step`` times of each method grouped by compare, the check
counts, the environment and, when asked, the tracemalloc peak or the traced
per-layer metrics. On ``selfcheck`` the user-facing call is
``run_selfcheck``; a short compare of the desk config before each call
supplies the step times. It drives lorapro only through ``harness.compare``,
``harness.Trainer`` and ``selfcheck.run_selfcheck``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = HERE / ".out" / "runs"

METHODS = ("lora", "lora_pro_sgd", "lora_pro_adamw", "full_ft")
ADAMW = "lora_pro_adamw"
SMOKE_STEPS = 3
GOLDEN_SEED = 1
MIB = 2**20


@dataclass(frozen=True)
class Workload:
    config: str  # template under configs/
    steps: int  # training steps per method in one compare
    golden_steps: int  # steps of the fixed-seed reference compare
    suite: bool  # whether run_selfcheck is the user-facing call


# selfcheck trains on desk's config only to report the step metrics every workload reports
WORKLOADS = {
    "desk": Workload("desk.cfg", steps=500, golden_steps=60, suite=False),
    "wide": Workload("wide.cfg", steps=20, golden_steps=3, suite=False),
    "selfcheck": Workload("desk.cfg", steps=100, golden_steps=60, suite=True),
}


def config_text(workload: Workload, seed: int, steps: int, out_dir: Path) -> str:
    template = (HERE / "configs" / workload.config).read_text(encoding="utf-8")
    return template.format(seed=seed, steps=steps, out_dir=out_dir)


class Checks:
    """Counts correctness checks and runs attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def environment() -> dict:
    """Software, BLAS and thread settings of this process, as measured."""
    import numpy
    import scipy

    blas = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            base = os.path.basename(path).lower()
            if base.startswith("lib") and ".so" in base and any(
                k in base for k in ("blas", "lapack", "mkl", "blis")
            ):
                blas.add(path)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_shared_objects": sorted(blas),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "LORAPRO_THREADS": os.environ.get("LORAPRO_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def trainer_arrays(trainer) -> dict:
    """Every array and counter a trainer's checkpoint must restore."""
    state = {"step_count": trainer.step_count, "rng": trainer.data_rng.bit_generator.state}
    for i, layer in enumerate(trainer.network.layers):
        for part in ("w0", "b", "a"):
            state[f"layer{i}.{part}"] = getattr(layer, part)
    for attr in ("states", "states_a", "states_b", "ft_states"):
        for i, st in enumerate(getattr(trainer, attr, ())):
            state[f"{attr}{i}.m"], state[f"{attr}{i}.v"] = st.m, st.v
            state[f"{attr}{i}.t"] = st.t
    for i, w in enumerate(getattr(trainer, "weights", ())):
        state[f"weights{i}"] = w
    return state


def bit_identical(left: dict, right: dict) -> bool:
    if left.keys() != right.keys():
        return False
    for key, a in left.items():
        b = right[key]
        if hasattr(a, "tobytes"):
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return False
        elif a != b:
            return False
    return True


class _Patch:
    """Set attributes of one object for the duration of a with-block."""

    def __init__(self, owner, values: dict):
        self.owner, self.values, self.saved = owner, values, {}

    def __enter__(self):
        for attr, value in self.values.items():
            self.saved[attr] = getattr(self.owner, attr)
            setattr(self.owner, attr, value)
        return self

    def __exit__(self, *exc):
        for attr, value in self.saved.items():
            setattr(self.owner, attr, value)


class Bench:
    """One workload at one seed: compares, suite runs, checks and timings."""

    def __init__(self, name: str, seed: int, smoke: bool, checks: Checks):
        from lorapro import config, harness, selfcheck
        from lorapro.errors import LoraProError

        self.harness, self.selfcheck, self.error = harness, selfcheck, LoraProError
        self.name, self.workload, self.seed, self.checks = name, WORKLOADS[name], seed, checks
        steps = SMOKE_STEPS if smoke else self.workload.steps
        self.config = config.parse_config_text(
            config_text(self.workload, seed, steps, RUNS / name)
        )
        self.golden_config = config.parse_config_text(
            config_text(self.workload, GOLDEN_SEED, self.workload.golden_steps, RUNS / "golden")
        )
        self.step_times = {m: [] for m in METHODS}
        self.saved = []  # trainers that wrote a checkpoint in the current compare
        self.losses = None  # final losses of the first seeded compare
        self.properties_failed = 0
        self.last_result = None
        self.shapes = []

    def hooks(self):
        """Time Trainer.step per method and keep every trainer that saves."""
        trainer = self.harness.Trainer
        step, save = trainer.step, trainer.save
        times, saved = self.step_times, self.saved
        clock = time.perf_counter

        def timed_step(self_):
            began = clock()
            record = step(self_)
            times[self_.config.method].append(clock() - began)
            return record

        def keeping_save(self_, path):
            save(self_, path)
            saved.append((self_, Path(path)))

        return _Patch(trainer, {"step": timed_step, "save": keeping_save})

    def compare(self, cfg, methods=METHODS):
        """One harness.compare; returns (result, seconds), or (None, None) on a LoraProError."""
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        self.saved.clear()
        began = time.perf_counter()
        try:
            result = self.harness.compare(cfg, list(methods))
        except self.error as exc:
            for method in methods:
                self.checks.check(False, f"{method} run raised {type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - began
        for _ in methods:
            self.checks.check(True, "run completed")
        return result, elapsed

    def check_compare(self, result) -> None:
        """Certificates, finite losses, checkpoint round trips, repeatability."""
        checks = self.checks
        losses = {label: r.final_loss for label, r in result.results.items()}
        for label, run in result.results.items():
            checks.check(math.isfinite(run.final_loss), f"{label}: final loss {run.final_loss}")
            if label.startswith("lora_pro"):
                verdict = run.verdicts["dl_certificate_nonpositive"]
                checks.check(verdict is True, f"{label}: dl_certificate_nonpositive is {verdict}")
        for trainer, path in self.saved:
            if trainer.config.method == ADAMW:
                self.shapes = [layer.shape for layer in trainer.network.layers]
            restored = self.harness.Trainer.from_checkpoint(trainer.config, path)
            checks.check(
                bit_identical(trainer_arrays(trainer), trainer_arrays(restored)),
                f"{trainer.config.method}: {path} does not load back bit-identical",
            )
        if self.losses is None:
            self.losses = losses
        else:
            checks.check(
                losses == self.losses,
                f"repeated compare gave other final losses: {losses} vs {self.losses}",
            )

    def golden(self) -> None:
        """Fixed-seed compare against the recorded reference losses; also warms up."""
        references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
        tolerance = references["rel_tolerance"]
        expected = references["final_loss"][Path(self.workload.config).stem]
        with self.hooks():
            result, _ = self.compare(self.golden_config)
        self.step_times.update({m: [] for m in METHODS})
        if result is None:
            return
        for method in METHODS:
            got, want = result.results[method].final_loss, expected[method]
            self.checks.check(
                math.isfinite(got) and abs(got - want) <= tolerance * abs(want),
                f"golden {self.name} {method}: final loss {got!r}, reference {want!r}",
            )

    def suite(self, seed: int, adjust_fn=None) -> float:
        """One run_selfcheck with its checks; returns its wall time."""
        kwargs = {} if adjust_fn is None else {"adjust_fn": adjust_fn}
        began = time.perf_counter()
        report = self.selfcheck.run_selfcheck(seed, **kwargs)
        elapsed = time.perf_counter() - began
        for prop in report.results:
            self.checks.check(prop.passed, f"selfcheck seed {seed}: {prop.line()}")
        self.properties_failed += sum(not p.passed for p in report.results)
        return elapsed

    def train(self) -> float | None:
        """One timed compare of the workload's config with its checks; its wall time."""
        with self.hooks():
            result, elapsed = self.compare(self.config)
        if result is None:
            return None
        self.check_compare(result)
        self.last_result = result
        return elapsed

    def peak_memory_mib(self) -> float:
        """tracemalloc peak of the lora_pro_adamw run (the whole suite on selfcheck)."""
        if self.workload.suite:
            tracemalloc.start()
            try:
                self.suite(self.seed)
                return tracemalloc.get_traced_memory()[1] / MIB
            finally:
                tracemalloc.stop()
        run, peaks = self.harness.run, []

        def traced_run(cfg, *args, **kwargs):
            if cfg.method != ADAMW:
                return run(cfg, *args, **kwargs)
            tracemalloc.start()
            try:
                return run(cfg, *args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        with _Patch(self.harness, {"run": traced_run}):
            self.compare(self.config, (ADAMW, "full_ft"))
        return peaks[0] / MIB

    def bare_moment_ms(self, repeats: int) -> float:
        """Yardstick: a bare m x n Adam moment update, ms per layer-step (mean over layers)."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        per_layer = []
        for shape in self.shapes:
            g = rng.normal(size=shape)
            m, v = np.zeros(shape), np.zeros(shape)
            samples = []
            for t in range(1, repeats + 1):
                began = time.perf_counter()
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g**2
                direction = (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
                samples.append(time.perf_counter() - began)
            if direction.shape != shape:
                raise RuntimeError("bare moment update changed shape")
            per_layer.append(statistics.median(samples))
        return 1e3 * statistics.mean(per_layer)


def measure(bench: Bench, seconds: float, min_adamw_steps: int) -> dict:
    """Untraced: repeat the user-facing call until ``seconds`` pass; raw samples.

    On selfcheck the compares that supply the step times count in ``seconds``.
    """
    units, compares = [], []
    deadline = time.perf_counter() + seconds
    while True:
        bench.step_times = {m: [] for m in METHODS}
        trained = bench.train()
        if trained is None:
            break
        compares.append(bench.step_times)
        units.append(bench.suite(bench.seed) if bench.workload.suite else trained)
        steps = sum(len(c[ADAMW]) for c in compares)
        if time.perf_counter() >= deadline and steps >= min_adamw_steps:
            break
    return {"units": units, "compares": compares}


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Alternate untraced and traced passes until ``seconds`` pass; per-layer metrics."""
    import tracer as tracing
    from lorapro import gradadjust

    adjust = gradadjust.adjust
    plain_times, traced_times, passes = [], [], []
    counts = None
    deadline = time.perf_counter() + seconds
    while True:
        bench.step_times = {m: [] for m in METHODS}
        trained = bench.train()
        if trained is None:
            break
        plain_times.append(bench.suite(bench.seed) if bench.workload.suite else trained)
        plain_losses = {k: r.final_loss for k, r in bench.last_result.results.items()}
        yardstick = statistics.median(bench.step_times[ADAMW]) / statistics.median(
            bench.step_times["lora"]
        )

        recorder = tracing.Tracer()
        shutil.rmtree(bench.config.out_dir, ignore_errors=True)
        with recorder:
            began = time.perf_counter()
            try:
                result = bench.harness.compare(bench.config, list(METHODS))
            except bench.error as exc:
                bench.checks.check(False, f"traced compare raised {type(exc).__name__}: {exc}")
                break
            elapsed = time.perf_counter() - began
            if bench.workload.suite:
                traced_adjust = recorder.wrap("gradadjust.adjust", "selfcheck", adjust)
                elapsed = bench.suite(bench.seed, adjust_fn=traced_adjust)
        traced_times.append(elapsed)
        spans = recorder.spans
        bench.checks.check(
            {k: r.final_loss for k, r in result.results.items()} == plain_losses,
            "traced compare gave other final losses than the untraced one",
        )
        values, pass_counts = tracing.step_metrics(spans, ADAMW, len(bench.shapes))
        if counts is None:
            counts = pass_counts
        else:
            bench.checks.check(pass_counts == counts, "traced call counts differ between passes")
        values.update(tracing.suite_metrics(spans))
        values["sylvester.spectrum_errors"] = float(tracing.spectrum_errors(spans))
        values["yardstick.adamw_over_lora_p50"] = yardstick
        passes.append(values)
        if time.perf_counter() >= deadline:
            break
    if not passes:
        return {}
    trace_path = HERE / ".out" / f"trace-{bench.name}.jsonl"
    recorder.write(trace_path)

    metrics = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    adamw_run = bench.last_result.results[ADAMW]
    bare = bench.bare_moment_ms(repeats=200)
    suites = len(plain_times) + len(traced_times) if bench.workload.suite else 1
    metrics.update(
        {
            "harness.csv_bytes": float(adamw_run.csv_path.stat().st_size),
            "optim.bare_moment_ms": bare,
            "optim.adamw_step_over_bare": metrics["optim.lorapro_adamw_step_ms"] / bare,
            "checkpoint.save_bytes": float(adamw_run.checkpoint_path.stat().st_size),
            "selfcheck.properties_failed": bench.properties_failed / suites,
            "trace.overhead_frac": statistics.median(traced_times)
            / statistics.median(plain_times)
            - 1.0,
        }
    )
    notes = [
        f"traced passes {len(passes)}; spans of the last one in perfbench/.out/{trace_path.name}",
        "calls per lora_pro_adamw step: "
        + ", ".join(f"{k} {v:g}" for k, v in sorted(counts.items())),
        f"yardstick optim.adamw_step_over_bare = {metrics['optim.adamw_step_over_bare']:.3f} "
        f"(base: bare m x n moment update {bare:.4f} ms per layer-step)",
    ]
    return {"metrics": metrics, "notes": notes}


def main() -> None:
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, request["src"])
    checks = Checks()
    bench = Bench(request["workload"], request["seed"], request["smoke"], checks)
    bench.golden()
    try:
        if request["trace"]:
            out = {"trace": measure_traced(bench, request["seconds"])}
        else:
            out = measure(bench, request["seconds"], request["min_adamw_steps"])
            if request["peak"] and out["units"]:
                out["peak_mib"] = bench.peak_memory_mib()
    finally:
        shutil.rmtree(RUNS, ignore_errors=True)
    out.update(
        {
            "env": environment(),
            "losses": bench.losses,
            "attempted": checks.attempted,
            "failed": checks.failed,
        }
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
