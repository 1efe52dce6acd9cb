"""Run configuration: a flat ``key = value`` file with ``[section]`` headers.

The grammar is deliberately plain (full-line ``#`` comments, no nesting, no
interpolation) so any tool can parse or emit it. Each key is declared once:
a ``RunConfig`` field, placed in its section by ``_SECTIONS``, or a parameter
of a task builder (``tasks.task_keys``). Either declaration's annotation is
the type a value is parsed as, and the type a ``RunConfig`` built in code
must hold. Unknown sections or keys are rejected by name, and each value is
checked once, when its ``RunConfig`` is built.
"""

from __future__ import annotations

import configparser
import math
import re
import typing
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .gradadjust import DampingPolicy, X_STRATEGIES
from .lora import InitScheme, scaling_factor
from .optim import HyperParams
from .tasks import _at_least, check_task_params, task_keys

__all__ = ["METHODS", "RunConfig", "parse_config_file", "parse_config_text"]

METHODS = ("lora", "lora_pro_sgd", "lora_pro_adamw", "full_ft")


def _check_value(key: str, value, hint) -> None:
    """Raise a ConfigError naming ``key`` unless ``value`` is a ``hint``, and finite if a float.

    An int serves where a float is declared; a bool serves as neither.
    """
    accepted = (int, float) if hint is float else hint
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ConfigError(
            f"invalid config key '{key}': expected {hint.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"invalid config key '{key}': must be finite, got {value}")


# the section of every RunConfig field but task_params
_SECTIONS = {
    "run": ("task", "method", "steps", "batch_size", "seed", "out_dir"),
    "adapter": ("rank", "alpha", "scaling", "init"),
    "optimizer": ("lr", "weight_decay", "beta1", "beta2", "epsilon", "schedule", "warmup_ratio"),
    "lorapro": ("x_strategy", "damping", "fallback"),
}


@dataclass
class RunConfig:
    """Everything one training run needs; defaults follow the package conventions.

    Building one checks each value once: its type (an int serves as a float,
    a bool as no number), finiteness and range, and what a run builds from
    it. What needs the task's data (a rank above a layer's min(m, n), the
    task's sizes, a csv file) is checked when a run builds its task and
    layers, before ``run`` creates ``out_dir``.
    """

    task: str
    method: str = "lora_pro_adamw"
    steps: int = 100
    batch_size: int = 32
    seed: int = 0
    out_dir: str = "runs/run"
    task_params: dict = field(default_factory=dict)
    rank: int = 8
    alpha: float = 16.0
    scaling: str = "rslora"
    init: str = "standard"
    lr: float = 1e-3
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    schedule: str = "cosine_with_warmup"
    warmup_ratio: float = 0.03
    x_strategy: str = "sylvester"
    damping: float = 1e-8
    fallback: str = "damp"  # the one geometry; kept as a key for the configs that name it

    def __post_init__(self):
        # each value has the type its field, or its task builder's parameter, declares
        for key, hint in _TYPES.items():
            _check_value(key, getattr(self, key), hint)
        check_task_params(self.task, self.task_params)
        keys = task_keys(self.task)
        for key, value in self.task_params.items():
            _check_value(key, value, keys[key].annotation)
        if self.method not in METHODS:
            raise ConfigError(f"invalid config key 'method': {self.method!r} not in {METHODS}")
        _at_least(1, steps=self.steps, batch_size=self.batch_size, rank=self.rank)
        _at_least(0, seed=self.seed)
        if not self.alpha > 0.0:
            raise ConfigError(f"invalid config key 'alpha': must be > 0, got {self.alpha}")
        if self.x_strategy not in X_STRATEGIES:
            raise ConfigError(
                f"invalid config key 'x_strategy': {self.x_strategy!r} not in {X_STRATEGIES}"
            )
        if self.fallback != "damp":
            raise ConfigError(
                f"invalid config key 'fallback': only 'damp' is supported, got {self.fallback!r}"
            )
        if self.method == "lora_pro_sgd" and self.weight_decay != 0.0:
            raise ConfigError(
                f"invalid config key 'weight_decay': lora_pro_sgd has no weight decay, "
                f"got {self.weight_decay}"
            )
        # every other value is checked by building, once, what a run builds from it
        builds = (
            (("scaling",), lambda: scaling_factor(self.alpha, self.rank, self.scaling)),
            (("init",), lambda: InitScheme(self.init)),
            (_SECTIONS["optimizer"], self.hyperparams),
            (("damping",), self.damping_policy),
        )
        for keys, build in builds:
            try:
                build()
            except ValueError as exc:
                # the keys the message names, or else every key the build reads
                named = [key for key in keys if re.search(rf"\b{key}\b", str(exc))] or keys
                named = " or ".join(f"'{key}'" for key in named)
                raise ConfigError(f"invalid config key {named}: {exc}") from exc

    def hyperparams(self) -> HyperParams:
        return HyperParams(**{key: getattr(self, key) for key in _SECTIONS["optimizer"]})

    def damping_policy(self) -> DampingPolicy:
        return DampingPolicy(rel_epsilon=self.damping)

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        sections = {
            section: {key: getattr(self, key) for key in keys}
            for section, keys in _SECTIONS.items()
        }
        sections["task"] = dict(self.task_params)
        return sections


_TYPES = typing.get_type_hints(RunConfig)


def parse_config_text(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep keys case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse config: {exc}") from exc

    if not parser.has_option("run", "task"):
        raise ConfigError("invalid config: missing required key 'task' in [run]")
    kwargs: dict = {"task_params": {}}
    for section in parser.sections():
        if section == "task":
            keys, into = task_keys(parser.get("run", "task")), kwargs["task_params"]
            types = {key: keys[key].annotation for key in keys}
        elif section in _SECTIONS:
            types, into = {key: _TYPES[key] for key in _SECTIONS[section]}, kwargs
        else:
            raise ConfigError(f"invalid config section '{section}'")
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"invalid config key '{key}' in [{section}]")
            try:
                into[key] = types[key](raw)
            except ValueError as exc:
                raise ConfigError(f"invalid config key '{key}' in [{section}]: {exc}") from exc
    return RunConfig(**kwargs)


def parse_config_file(path: str) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"could not read config {path}: not UTF-8 ({exc})") from exc
    return parse_config_text(text)
