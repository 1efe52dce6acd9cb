"""Synthetic tasks and dataset loading for the experiment harness.

The flagship task is teacher–student regression: a frozen random two-layer
teacher generates targets, and the student starts from the teacher's weights
contaminated by a low-rank perturbation. The optimal weight change is then
genuinely low-rank-ish, which makes adapter-method differences visible at
desk scale (the perturbation rank is a knob).
"""

from __future__ import annotations

import csv
import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import LOSS_KINDS, Batch

__all__ = ["TaskData", "build_task", "check_task_params", "task_keys"]


@dataclass
class TaskData:
    inputs: np.ndarray
    targets: np.ndarray
    loss_kind: str
    activations: list[str]
    base_weights: list[np.ndarray]

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


def _low_rank_perturbation(
    rng: np.random.Generator, shape: tuple[int, int], rank: int, rel_scale: float, ref_norm: float
) -> np.ndarray:
    m, n = shape
    u = rng.normal(size=(m, rank))
    v = rng.normal(size=(rank, n))
    p = u @ v
    norm = np.linalg.norm(p)
    if norm == 0.0 or rel_scale == 0.0:
        return np.zeros(shape)
    return p * (rel_scale * ref_norm / norm)


def _at_least(floor: int, **sizes) -> None:
    for key, value in sizes.items():
        if value < floor:
            raise ConfigError(f"invalid config key '{key}': must be >= {floor}, got {value}")


# Each builder takes the rng plus its [task] keys, keyword-only and annotated
# with the type a config value is parsed as; a key without a default is required.
def _teacher_student(
    rng: np.random.Generator, *, d_in: int, d_hidden: int, d_out: int, n_samples: int = 256,
    noise_sd: float = 0.01, perturb_rank: int = 4, perturb_scale: float = 0.5,
) -> TaskData:
    _at_least(1, d_in=d_in, d_hidden=d_hidden, d_out=d_out, n_samples=n_samples)
    _at_least(0, perturb_rank=perturb_rank)
    dims = [(d_in, d_hidden), (d_hidden, d_out)]
    for m, n in dims:
        if perturb_rank > min(m, n):
            raise ConfigError(
                f"invalid config key 'perturb_rank': {perturb_rank} exceeds min layer dim {min(m, n)}"
            )

    teacher = [rng.normal(size=(m, n)) / np.sqrt(m) for m, n in dims]
    inputs = rng.normal(size=(n_samples, d_in))
    # the (n_samples x d_hidden) activations are the task's largest temporary:
    # one buffer, freed once the targets exist
    hidden = inputs @ teacher[0]
    np.tanh(hidden, out=hidden)
    targets = hidden @ teacher[1]
    del hidden
    if noise_sd > 0.0:
        targets = targets + noise_sd * rng.normal(size=targets.shape)

    base = [
        t + _low_rank_perturbation(rng, t.shape, perturb_rank, perturb_scale, np.linalg.norm(t))
        for t in teacher
    ]
    return TaskData(
        inputs=inputs,
        targets=targets,
        loss_kind="mse",
        activations=["tanh", "identity"],
        base_weights=base,
    )


def _two_cluster(
    rng: np.random.Generator, *, d: int, k: int = 2, n_samples: int = 256, separation: float = 3.0
) -> TaskData:
    _at_least(1, d=d, n_samples=n_samples)
    _at_least(2, k=k)

    means = rng.normal(size=(k, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.integers(0, k, size=n_samples)
    inputs = means[labels] + rng.normal(size=(n_samples, d))
    base = [rng.normal(size=(d, k)) * (0.01 / np.sqrt(d))]
    return TaskData(
        inputs=inputs,
        targets=labels.astype(np.int64),
        loss_kind="softmax_cross_entropy",
        activations=["identity"],
        base_weights=base,
    )


def _csv_dataset(
    rng: np.random.Generator, *, path: str, target_column: str, loss: str = "mse"
) -> TaskData:
    if loss not in LOSS_KINDS:
        raise ConfigError(f"invalid config key 'loss': {loss!r} not in {LOSS_KINDS}")

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or target_column not in reader.fieldnames:
            raise ConfigError(
                f"invalid config key 'target_column': {target_column!r} not in {path}"
            )
        feature_names = [c for c in reader.fieldnames if c != target_column]
        rows = list(reader)
    if not rows:
        raise ConfigError(f"csv dataset {path} is empty")

    try:
        features = np.array(
            [[float(row[c]) for c in feature_names] for row in rows], dtype=np.float64
        )
        raw_targets = np.array([float(row[target_column]) for row in rows], dtype=np.float64)
    except ValueError as exc:
        raise ConfigError(f"csv dataset {path} has non-numeric entries: {exc}") from exc

    d = features.shape[1]
    if loss == "softmax_cross_entropy":
        classes = np.unique(raw_targets)
        labels = np.searchsorted(classes, raw_targets).astype(np.int64)
        base = [rng.normal(size=(d, len(classes))) * (0.01 / np.sqrt(d))]
        return TaskData(features, labels, loss, ["identity"], base)
    base = [rng.normal(size=(d, 1)) * (0.01 / np.sqrt(d))]
    return TaskData(features, raw_targets.reshape(-1, 1), loss, ["identity"], base)


_BUILDERS = {
    "teacher_student_regression": _teacher_student,
    "two_cluster_classification": _two_cluster,
    "csv_dataset": _csv_dataset,
}


@functools.cache
def task_keys(kind: str) -> dict[str, inspect.Parameter]:
    """The [task] keys of ``kind``: its builder's keyword-only parameters."""
    if kind not in _BUILDERS:
        raise ConfigError(f"invalid config key 'task': unknown kind {kind!r}")
    params = inspect.signature(_BUILDERS[kind], eval_str=True).parameters.values()
    return {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}


def check_task_params(kind: str, params: dict) -> None:
    """Reject an unknown kind, a key ``kind`` does not take, or a missing required key."""
    keys = task_keys(kind)
    for key in params:
        if key not in keys:
            raise ConfigError(f"invalid config key '{key}' in [task] for {kind}")
    for key, param in keys.items():
        if param.default is param.empty and key not in params:
            raise ConfigError(f"invalid config: missing required key '{key}' in [task] for {kind}")


def build_task(kind: str, params: dict, rng: np.random.Generator) -> TaskData:
    """The task ``kind`` built from ``params``, its data checked as a batch is.

    The data is checked here, once, so a batch drawn from its rows needs no
    check of its own. The task keeps the checked arrays, which are the
    builder's own unless they needed a conversion.
    """
    check_task_params(kind, params)
    task = _BUILDERS[kind](rng, **params)
    try:
        checked = Batch(inputs=task.inputs, targets=task.targets)
    except ValueError as exc:
        source = f" {params['path']}" if kind == "csv_dataset" else ""
        raise ConfigError(f"task {kind}{source}: {exc}") from exc
    task.inputs, task.targets = checked.inputs, checked.targets
    return task
