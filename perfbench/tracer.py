"""Outside-in tracing of the lorapro layers.

The tracer wraps, from the benchmark's side, the functions each lorapro
module imports from the layer below: it replaces every module binding of a
watched function with a wrapper that records a span (name, start, end,
parent, info). No file of the library changes. Spans stay in memory and are
written out once, when the benchmark ends.

A span name is ``<call site module>><defining module>.<function>``, so the
harness's own ``adjust`` call ("harness>gradadjust.adjust") stays apart from
the optimizer's ("optim>gradadjust.adjust"). Self time is a span's duration
minus the time its child spans cover. The wrappers assume the harness runs
its layers on one thread (``LORAPRO_THREADS`` unset or 1), because parents
come from one call stack.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, INFO_SLOT, ERROR = range(6)

# (defining module, function) pairs whose every binding gets wrapped
WATCHED = (
    ("linalg", "as_matrix"),
    ("linalg", "spd_solve"),
    ("linalg", "numerical_rank"),
    ("linalg", "sym_eig"),
    ("gradadjust", "adjust"),
    ("gradadjust", "choose_x"),
    ("gradadjust", "validate_bundle"),
    ("gradadjust", "equivalent_gradient"),
    ("gradadjust", "loss_decrease_certificate"),
    ("gradadjust", "lora_raw_grads"),
    ("sylvester", "solve_sylvester"),
    ("lora", "effective_weight"),
    ("model", "forward"),
    ("model", "backward"),
    ("model", "forward_with_weights"),
    ("model", "backward_weight_grads"),
    ("optim", "adamw_transform"),
    ("optim", "lorapro_adamw_step"),
    ("optim", "lorapro_sgd_step"),
    ("optim", "lora_adamw_step"),
    ("optim", "full_ft_adamw_step"),
    ("checkpoint", "save_checkpoint"),
    ("tasks", "build_task"),
    ("harness", "run"),
    ("oracle", "brute_force_optimal_grads"),
    ("oracle", "projection_residual_norm_sq"),
    ("oracle", "solve_sylvester_kron"),
    ("oracle", "x_objective_scan"),
    ("oracle", "finite_diff_grad"),
    ("selfcheck", "run_selfcheck"),
)
TRAINER_METHODS = ("__init__", "step", "save")
STEP = "harness>harness.Trainer.step"
RUN = "harness>harness.run"


def _adjust_key(bound) -> tuple:
    layer, bundle = bound.arguments["layer"], bound.arguments["bundle"]
    x_override = bound.arguments["x_override"]
    return (
        layer.b.tobytes(),
        layer.a.tobytes(),
        layer.scaling,
        bundle.g_a_lora.tobytes(),
        bundle.g_b_lora.tobytes(),
        bound.arguments["strategy"],
        None if x_override is None else x_override.tobytes(),
    )


def _spd_key(bound) -> tuple:
    return (bound.arguments["p"].tobytes(), bound.arguments["damping"])


def _passthrough(result, key) -> tuple:
    return (key, result.x_strategy == "passthrough")


# What a span remembers about its call: INFO maps the bound arguments to a
# value stored before the clock starts, TAGS maps (result, info) to the value
# kept after it stops. Keyed by defining module and function.
INFO = {
    "gradadjust.adjust": _adjust_key,
    "linalg.spd_solve": _spd_key,
    "harness.run": lambda bound: bound.arguments["config"].method,
    "harness.Trainer.step": lambda bound: bound.arguments["self"].config.method,
}
TAGS = {"gradadjust.adjust": _passthrough}
# the harness's own per-step metric calls, beside the optimizer's
HARNESS_METRIC_CALLS = (
    "gradadjust.adjust",
    "gradadjust.equivalent_gradient",
    "gradadjust.loss_decrease_certificate",
    "linalg.numerical_rank",
)


class Tracer:
    """Records spans around every binding of the watched lorapro functions."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, qualified: str, site: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack
        name = f"{site}>{qualified}"
        info, tag = INFO.get(qualified), TAGS.get(qualified)
        signature = inspect.signature(fn) if info is not None else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(record)
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[INFO_SLOT] = info(bound)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if tag is not None:
                record[INFO_SLOT] = tag(result, record[INFO_SLOT])
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of the watched functions in loaded lorapro modules."""
        modules = {
            name.partition(".")[2] or name: mod
            for name, mod in sys.modules.items()
            if name == "lorapro" or name.startswith("lorapro.")
        }
        for home, func in WATCHED:
            original = getattr(modules[home], func)
            for site, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, self.wrap(f"{home}.{func}", site, original))
        trainer = modules["harness"].Trainer
        for method in TRAINER_METHODS:
            self._patch(
                trainer,
                method,
                self.wrap(f"harness.Trainer.{method}", "harness", vars(trainer)[method]),
            )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _info, error in self.spans:
                fh.write(json.dumps([name, start, end, parent, error]) + "\n")


def _func(name: str) -> str:
    return name.partition(">")[2]


def _site(name: str) -> str:
    return name.partition(">")[0]


class _Ancestry:
    """Child time and the enclosing step and run span of every span."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        self.child_time = [0.0] * n
        self.step_of = [-1] * n
        self.run_of = [-1] * n
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                self.child_time[parent] += span[END] - span[START]
                self.step_of[i] = self.step_of[parent]
                self.run_of[i] = self.run_of[parent]
            if span[NAME] == STEP:
                self.step_of[i] = i
            elif span[NAME] == RUN:
                self.run_of[i] = i


def step_metrics(
    spans: list[list], method: str, n_layers: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of the ``method`` run in one traced pass, and its call counts.

    Times are milliseconds per step of ``method`` unless the name says
    otherwise; ``harness.write_ms`` and ``checkpoint.save_ms`` are per run.
    The counts are calls per step of every watched function, by defining
    function.
    """
    tree = _Ancestry(spans)
    steps = [i for i, s in enumerate(spans) if s[NAME] == STEP and s[INFO_SLOT] == method]
    runs = [i for i, s in enumerate(spans) if s[NAME] == RUN and s[INFO_SLOT] == method]
    wanted = set(steps)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    harness_metric = 0.0
    adjust_keys: dict[int, set] = defaultdict(set)
    spd_keys: dict[int, set] = defaultdict(set)
    passthrough = 0
    for i, span in enumerate(spans):
        step = tree.step_of[i]
        if step not in wanted or step == i:
            continue
        func, site = _func(span[NAME]), _site(span[NAME])
        duration = span[END] - span[START]
        calls[func] += 1
        busy[func] += duration
        busy[site + ">" + func] += duration
        if site == "harness" and func in HARNESS_METRIC_CALLS:
            harness_metric += duration
        if func == "gradadjust.adjust":
            key, passed_through = span[INFO_SLOT]
            adjust_keys[step].add(key)
            passthrough += passed_through
        elif func == "linalg.spd_solve":
            spd_keys[step].add(span[INFO_SLOT])

    n = len(steps)
    ms = 1e3 / n

    def per_run(func: str) -> float:
        total = sum(
            s[END] - s[START]
            for i, s in enumerate(spans)
            if tree.run_of[i] in runs and _func(s[NAME]) == func
        )
        return 1e3 * total / len(runs)

    adjust_calls = calls["gradadjust.adjust"]
    spd_calls = calls["linalg.spd_solve"]
    metrics = {
        "harness.step_self_ms": ms * sum(
            spans[i][END] - spans[i][START] - tree.child_time[i] for i in steps
        ),
        "harness.metric_ms": ms * harness_metric,
        "harness.write_ms": 1e3 * sum(
            spans[i][END] - spans[i][START] - tree.child_time[i] for i in runs
        ) / len(runs),
        "model.forward_ms": ms * busy["model.forward"],
        "model.backward_ms": ms * busy["model.backward"],
        "lora.effective_weight_calls": calls["lora.effective_weight"] / n,
        "lora.effective_weight_ms": ms * busy["lora.effective_weight"],
        "gradadjust.adjust_calls": adjust_calls / n,
        "gradadjust.adjust_ms": ms * busy["gradadjust.adjust"],
        "gradadjust.adjust_useful_ratio": (
            sum(len(k) for k in adjust_keys.values()) / adjust_calls if adjust_calls else 1.0
        ),
        "gradadjust.validate_bundle_calls": calls["gradadjust.validate_bundle"] / n,
        "gradadjust.validate_bundle_ms": ms * busy["gradadjust.validate_bundle"],
        "gradadjust.certificate_ms": ms * busy["gradadjust.loss_decrease_certificate"],
        "gradadjust.choose_x_ms": ms * busy["gradadjust.choose_x"],
        "gradadjust.raw_grads_ms": ms * busy["model>gradadjust.lora_raw_grads"],
        "gradadjust.reproject_ms": ms * busy["optim>gradadjust.lora_raw_grads"],
        "gradadjust.passthrough_count": float(passthrough),
        "linalg.as_matrix_calls": calls["linalg.as_matrix"] / n,
        "linalg.as_matrix_ms": ms * busy["linalg.as_matrix"],
        "linalg.spd_solve_calls": spd_calls / n,
        "linalg.spd_solve_ms": ms * busy["linalg.spd_solve"],
        "linalg.factorization_useful_ratio": (
            sum(len(k) for k in spd_keys.values()) / spd_calls if spd_calls else 1.0
        ),
        "linalg.numerical_rank_ms": ms * busy["linalg.numerical_rank"],
        "linalg.sym_eig_calls": calls["linalg.sym_eig"] / n,
        "sylvester.solve_calls": calls["sylvester.solve_sylvester"] / n,
        "sylvester.solve_ms": ms * busy["sylvester.solve_sylvester"],
        "optim.adamw_transform_ms": ms * busy["optim.adamw_transform"],
        "optim.lorapro_adamw_step_ms": ms * busy["optim.lorapro_adamw_step"] / n_layers,
        "checkpoint.save_ms": per_run("checkpoint.save_checkpoint"),
    }
    return metrics, {func: count / n for func, count in calls.items()}


def suite_metrics(spans: list[list]) -> dict[str, float]:
    """Milliseconds per ``run_selfcheck`` call spent in gradadjust and oracle calls."""
    suites = sum(1 for s in spans if _func(s[NAME]) == "selfcheck.run_selfcheck")
    if suites == 0:
        return {"selfcheck.gradadjust_ms": 0.0, "oracle.ms": 0.0}
    gradadjust = oracle = 0.0
    for span in spans:
        if _site(span[NAME]) != "selfcheck":
            continue
        func = _func(span[NAME])
        if func.startswith("gradadjust."):
            gradadjust += span[END] - span[START]
        elif func.startswith("oracle."):
            oracle += span[END] - span[START]
    return {
        "selfcheck.gradadjust_ms": 1e3 * gradadjust / suites,
        "oracle.ms": 1e3 * oracle / suites,
    }


def spectrum_errors(spans: list[list]) -> int:
    return sum(
        1
        for s in spans
        if _func(s[NAME]) == "sylvester.solve_sylvester" and s[ERROR] == "SpectrumError"
    )
