"""Experiment driver: seeded runs, method comparisons, metrics, checkpoints.

A run is deterministic given its config and seed: task data, adapter
initialization, and batch order each come from an independent stream spawned
from the run seed, so the method under test can never influence the data it
sees. Metrics go to a fixed-schema CSV (one row per step and layer), written
and hashed as each step completes, so a run's memory does not grow with its
step count; a JSON summary carries the config echo and the hash of the CSV,
and the final state lands in a binary checkpoint that resumes bit-exactly.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .errors import (
    CheckpointError,
    ConfigError,
    DescentViolationError,
    LoraProError,
    NonFiniteError,
    ShapeError,
)
from .gradadjust import (
    GradBundle,
    TangentGeometry,
    _check_pair_shapes,
    adjust,
    equivalent_gradient,
    factor_ranks,
    loss_decrease_certificate,
)
from .linalg import as_matrix, build_unchecked, replace_unchecked
from .lora import (
    InitScheme,
    LoraLayer,
    derived,
    effective_weight,
    freeze,
    init_layer,
    scaling_factor,
)
from .model import Batch, Network, backward, backward_weight_grads, forward, forward_with_weights
from .optim import (
    AdamWState,
    full_ft_adamw_step,
    init_adamw_state,
    lora_adamw_step,
    lorapro_adamw_step,
    lorapro_sgd_step,
    lr_at,
)
from .tasks import TaskData, _unreadable, build_task

__all__ = [
    "CSV_HEADER",
    "LayerMetrics",
    "RunRecord",
    "RunResult",
    "CompareResult",
    "Trainer",
    "discrepancy",
    "run",
    "compare",
]

CSV_HEADER = "step,lr,train_loss,layer,discrepancy,rank_a,rank_b,dl_certificate"
CERTIFICATE_CEILING = 1e-12
# The share of its rounding bound below which the factored discrepancy's sum
# of squares counts as cancelled (see ``discrepancy``). Its relative error
# measured at most 0.4 eps over that share, about 1e-11 at this bound; in
# training the share stayed above 1e-4 (the wide config, seeds 0-2).
DISCREPANCY_CANCELLATION = 1e-5


@dataclass
class LayerMetrics:
    discrepancy: float | None
    rank_a: int | None
    rank_b: int | None
    dl_certificate: float | None


@dataclass
class RunRecord:
    step: int
    lr: float
    train_loss: float
    per_layer: list[LayerMetrics]


@dataclass
class RunResult:
    config: RunConfig
    final_loss: float
    csv_path: Path
    summary_path: Path
    checkpoint_path: Path
    verdicts: dict


@dataclass
class CompareResult:
    labels: list[str]
    results: dict[str, RunResult]
    verdicts: dict
    csv_path: Path
    json_path: Path


def discrepancy(
    bundle: GradBundle,
    g_a: np.ndarray,
    g_b: np.ndarray,
    g_tilde: np.ndarray | None = None,
) -> float:
    """||g_tilde - g||_F, for g_tilde the equivalent gradient of (g_a, g_b) on the
    bundle's layer and g the bundle's.

    ``g_a`` and ``g_b`` are taken as ``equivalent_gradient(checked=True)``
    takes them; ``g_tilde``, if given, is their equivalent gradient, already
    formed, and is not written. For a factored g = x^T delta,
    g_tilde - g = U V^T with U = [s B, s g_b, -x^T] and
    V = [g_a^T, A^T, delta^T], so its squared norm is
    sum((U^T U) o (V^T V)): two k x k Grams, k = 2r + batch, and no m x n
    array. Their sum's rounding error is a small multiple of eps times
    (sum_i |u_i| |v_i|)^2 over the columns of U and V, at most k times the
    sum of the diagonal terms, so where the sum falls below
    ``DISCREPANCY_CANCELLATION`` times that bound (g_tilde close to g) the
    residual is formed densely, as it is for a dense g.

    A pair not shaped as the layer's A and B, or a ``g_tilde`` not shaped
    as the layer, raises ShapeError before either route. A non-finite entry
    in the pair or the bundle raises NonFiniteError ("g_tilde - g contains
    non-finite entries"), and so does a norm that overflows, with no numpy
    warning first.
    """
    layer = bundle.layer
    _check_pair_shapes(layer, g_a, g_b)
    if g_tilde is not None and np.shape(g_tilde) != layer.shape:
        raise ShapeError(f"g_tilde must be {layer.shape}, got {np.shape(g_tilde)}")
    r = layer.rank
    if bundle.x is None and bundle.g_full is None:
        raise ShapeError("the bundle holds no full gradient to measure the discrepancy from")
    # an overflow or a non-finite entry shows as a non-finite sum, which the
    # dense residual's check names, with no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        if bundle.x is not None:
            u = np.concatenate((layer.b, g_b, bundle.x.T), axis=1)
            u[:, : 2 * r] *= layer.scaling
            u[:, 2 * r :] *= -1.0
            v = np.concatenate((g_a, layer.a, bundle.delta))  # V^T
            terms = u.T @ u
            terms *= v @ v.T
            total = terms.sum()
            # k tr(terms) = k sum_i |u_i|^2 |v_i|^2 >= (sum_i |u_i| |v_i|)^2
            bound = DISCREPANCY_CANCELLATION * len(terms) * terms.trace()
            if math.isfinite(total) and total >= bound:
                return math.sqrt(total)
        if g_tilde is None:
            residual = equivalent_gradient(layer, g_a, g_b, checked=True)
            residual -= bundle.full_gradient()
        else:
            residual = np.subtract(g_tilde, bundle.full_gradient())
        norm = float(np.linalg.norm(as_matrix(residual, "g_tilde - g")))
    if not math.isfinite(norm):
        raise NonFiniteError(f"||g_tilde - g|| overflows to {norm}")
    return norm


# The AdamW states each method keeps for an m x n layer at rank r, by shape
# ("rn" is r x n): lora's moments of A, then of B; LoRA-Pro AdamW's of the
# equivalent gradient; full_ft's of the weight it trains. Trainer.states
# holds them layer by layer, in this order within a layer.
STATE_SHAPES = {
    "lora": ("rn", "mr"),
    "lora_pro_sgd": (),
    "lora_pro_adamw": ("mn",),
    "full_ft": ("mn",),
}


def checkpoint_shapes(config: RunConfig, layer_shapes: list) -> dict[str, tuple[int, int]]:
    """The name and shape of every array a checkpoint of a run under ``config`` holds.

    The m x n layer ``i`` gives ``layer{i}/w0`` (m x n), ``layer{i}/b`` (m x r)
    and ``layer{i}/a`` (r x n) under every method, and ``Trainer.states[j]``
    gives ``states{j}/m`` and ``states{j}/v``, in order; no other name ends in ``/m``.
    """
    r, arrays, states = config.rank, {}, []
    for i, (m, n) in enumerate(layer_shapes):
        arrays.update({f"layer{i}/w0": (m, n), f"layer{i}/b": (m, r), f"layer{i}/a": (r, n)})
        dims = {"m": m, "n": n, "r": r}
        states += [(dims[rows], dims[cols]) for rows, cols in STATE_SHAPES[config.method]]
    for j, shape in enumerate(states):
        arrays[f"states{j}/m"] = arrays[f"states{j}/v"] = shape
    return arrays


def _config_keys(echo) -> dict:
    """Each ``[section] key`` of a config echo, with its value; a non-table holds none."""
    tables = echo.items() if isinstance(echo, dict) else ()
    return {f"[{s}] {k}": v for s, table in tables if isinstance(table, dict)
            for k, v in table.items()}


def _check_same(error, path, what: str, found: dict, expected: dict) -> None:
    """Raise ``error`` naming ``path`` and the first ``what``, in sorted order,
    that the file (``found``) and the run (``expected``) disagree on, if any."""
    if found != expected:
        key = min(k for k in {*found, *expected} if found.get(k, ...) != expected.get(k, ...))
        raise error(f"{path}: {what} {key!r} is {found.get(key, 'missing')} in the file, "
                    f"{expected.get(key, 'missing')} in the run")


def _streams(seed: int) -> list[np.random.SeedSequence]:
    """The task, initial-factor and batch streams of a run seeded ``seed``."""
    return np.random.SeedSequence(seed).spawn(3)


def _task_key(config: RunConfig) -> tuple:
    """What the task of a run under ``config`` is built from, as ``_task``'s arguments.

    A csv task's key also holds its file's identity (device, inode, size,
    modification time), so a file rewritten or replaced is read again.
    """
    source = None
    if config.task == "csv_dataset":
        path = config.task_params["path"]
        try:
            st = os.stat(path)
        except OSError as exc:
            raise _unreadable(path, exc) from exc
        source = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    return config.task, tuple(sorted(config.task_params.items())), config.seed, source


@functools.lru_cache(maxsize=1)
def _task(kind: str, params: tuple, seed: int, source) -> TaskData:
    """The task of a run seeded ``seed``, built once per process for every trainer of it.

    Its inputs, targets and base weights are read-only, so the trainers that
    share them cannot change one another's data. ``build_task`` is looked up
    here at each build, so a wrapper set on this module sees every build.
    The last task stays alive until a different one replaces it.
    """
    task_ss = _streams(seed)[0]
    task = build_task(kind, dict(params), np.random.default_rng(task_ss))
    freeze(task.inputs, task.targets, *task.base_weights)
    return task


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Trainer:
    """Owns the model, optimizer state, and data stream of a single run.

    A step of every method is one forward and backward (full_ft's over its
    merged w0s) and one loop that computes, checks and records each layer's
    update, committing none until all pass; an error gains its layer and step.
    Layers are values (``lora.LoraLayer``): a step replaces each layer.
    ``geometries`` caches each committed LoRA-Pro layer's TangentGeometry for
    the next step and is never saved; a step rebuilds one whose layer was
    replaced. A ``lora`` or ``full_ft`` layer's entry is None: a ``lora``
    step counts its ranks by ``gradadjust.factor_ranks`` alone.
    ``states`` holds the method's AdamW states as ``checkpoint_shapes`` lists
    them. full_ft merges each adapter into w0 (w0 := w0 + s*b*a, b := 0) and
    trains w0, so every method's trained state is the layers plus ``states``.
    ``task`` is the trainer's own ``TaskData`` over the read-only arrays that
    every trainer of the same task, seed (and csv file) in the process
    shares; an adapter layer's w0 is the shared base weight itself.
    """

    def __init__(self, config: RunConfig):
        init_ss = self._start(config)
        layer_seeds = [
            int(child.generate_state(1, np.uint64)[0])
            for child in init_ss.spawn(len(self.task.base_weights))
        ]
        layers = [
            init_layer(*w0.shape, config.rank, alpha=config.alpha, mode=config.scaling,
                       scheme=InitScheme(kind=config.init, seed=seed), w0=w0)
            for w0, seed in zip(self.task.base_weights, layer_seeds)
        ]
        if config.method == "full_ft":  # its merged w0s sit beside the shared base weights
            layers = [derived(old, w0=effective_weight(old), b=np.zeros_like(old.b))
                      for old in layers]
        self._set_layers(layers)
        shapes = checkpoint_shapes(config, [layer.shape for layer in layers])
        self.states = [init_adamw_state(s) for name, s in shapes.items() if name.endswith("/m")]

    def _start(self, config: RunConfig) -> np.random.SeedSequence:
        """Set what a new and a restored trainer share: the config, the task,
        the batch stream at its start, the step count and the settings.

        Checks the rank against each of the task's layers and returns the
        stream that draws the initial factors.
        """
        self.config = config
        _, init_ss, data_ss = _streams(config.seed)
        shared = _task(*_task_key(config))
        # the trainer's own fields over the shared arrays: rebinding one reaches no other trainer
        self.task = replace_unchecked(shared, activations=list(shared.activations),
                                      base_weights=list(shared.base_weights))
        for w0 in self.task.base_weights:
            m, n = w0.shape
            if config.rank > min(m, n):
                raise ConfigError(
                    f"invalid config key 'rank': {config.rank} exceeds min(m,n)={min(m, n)} "
                    f"for a {m}x{n} layer"
                )
        self.data_rng = np.random.default_rng(data_ss)
        self.step_count = 0
        self.hp = config.hyperparams()
        self.policy = config.damping_policy()
        return init_ss

    def _set_layers(self, layers: list[LoraLayer]) -> None:
        self.network = Network(
            layers=layers, activations=list(self.task.activations), loss_kind=self.task.loss_kind
        )
        self.geometries: list[TangentGeometry | None] = [None] * len(layers)

    def _draw_batch(self) -> Batch:
        idx = self.data_rng.integers(0, self.task.n_samples, size=self.config.batch_size)
        # rows of the task's arrays, which build_task checked
        return build_unchecked(Batch, inputs=self.task.inputs[idx], targets=self.task.targets[idx])

    def step(self) -> RunRecord:
        cfg, net = self.config, self.network
        lr_now = lr_at(self.hp, self.step_count, cfg.steps)
        # lr_at gives a value in [0, lr], which the checks of self.hp cover
        hp_now = replace_unchecked(self.hp, lr=lr_now)
        batch = self._draw_batch()

        try:
            if cfg.method == "full_ft":
                # each layer's b is zero, so its w0 is the weight the network applies
                weights = [layer.w0 for layer in net.layers]
                loss, cache = forward_with_weights(weights, net.activations, net.loss_kind, batch)
                grads = backward_weight_grads(cache)
            else:
                loss, cache = forward(net, batch)
                # each bundle is checked at its discrepancy, which names the layer
                grads = backward(cache)
            del cache  # what it holds beyond the bundles is not read again

            # every layer is computed and checked before any is committed, so
            # a step that raises leaves the trainer as it was; each layer takes
            # its states from the flat list in STATE_SHAPES order
            states = iter(self.states)
            new_layers, new_geometries, new_states, metrics = [], [], [], []
            for i in range(len(net.layers)):
                try:
                    new_layer, layer_states, values, layer_discrepancy, certificate = self._update(
                        grads, i, states, hp_now
                    )
                    # the step's one finiteness check: its values derive from
                    # inputs checked where they entered it, so only overflow can
                    # make them non-finite, and this catches it without
                    # re-checking every intermediate. A finite second moment
                    # also bounds the gradient that fed it, so the first moment
                    # needs no check of its own
                    for name, value in values.items():
                        as_matrix(value, f"new {name}")
                    # the next step's geometry, which counts the ranks too; a
                    # lora layer needs its ranks alone, full_ft's neither
                    committed, ranks = None, (None, None)
                    if cfg.method == "lora":
                        ranks = factor_ranks(new_layer)
                    elif cfg.method != "full_ft":
                        committed = TangentGeometry(new_layer, self.policy)
                        ranks = committed.rank_b, committed.rank_a
                except LoraProError as exc:
                    exc.args = (f"layer {i}: {exc}",)
                    raise
                new_layers.append(new_layer)
                new_geometries.append(committed)
                new_states += layer_states
                metrics.append(LayerMetrics(layer_discrepancy, ranks[1], ranks[0], certificate))
        except LoraProError as exc:
            # the message gains the step; the type and what the error carries
            # (a SpectrumError's pair, a FactorizationError's leading minor) stay
            exc.args = (f"aborting at step {self.step_count + 1}: {exc}",)
            raise

        net.layers[:] = new_layers
        self.geometries = new_geometries
        self.states = new_states
        self.step_count += 1
        return RunRecord(
            step=self.step_count, lr=lr_now, train_loss=loss, per_layer=metrics
        )

    def _update(self, grads: list, i: int, states, hp_now) -> tuple:
        """Layer ``i``'s update arm: its new value and states, the values to check
        before a commit, its discrepancy and its certificate. ``grads[i]`` is
        full_ft's weight gradient, which becomes the Adam direction's buffer,
        or a ``GradBundle``; it is taken out of ``grads``, so the update holds
        the only reference to it and drops it as soon as it is read for the
        last time."""
        cfg, layer = self.config, self.network.layers[i]
        grad, grads[i] = grads[i], None
        if cfg.method == "full_ft":
            w, state = full_ft_adamw_step(layer.w0, next(states), grad, hp_now, out=grad)
            return derived(layer, w0=w), [state], {"w": w, "v": state.v}, 0.0, None
        # the pair whose equivalent gradient the method applies: the raw one,
        # or the X = 0 adjustment, whose one geometry and one solve serve the
        # metric, the certificate and the step. It derives from the bundle's
        # unchecked arrays; the discrepancy checks them all, naming the layer
        if cfg.method == "lora":
            layer_discrepancy = discrepancy(grad, grad.g_a_lora, grad.g_b_lora)
            new_layer, sa, sb = lora_adamw_step(layer, next(states), next(states), grad, hp_now)
            values = {"b": new_layer.b, "a": new_layer.a, "v_a": sa.v, "v_b": sb.v}
            return new_layer, [sa, sb], values, layer_discrepancy, None
        geometry = self.geometries[i]
        if geometry is None or geometry.layer is not layer:
            geometry = TangentGeometry(layer, self.policy)
        adjusted = adjust(layer, grad, strategy="zero", policy=self.policy, geometry=geometry)
        layer_discrepancy = discrepancy(grad, adjusted.g_a, adjusted.g_b)
        del grad  # from here the projection of ``adjusted`` alone holds the bundle
        certificate = loss_decrease_certificate(adjusted, hp_now.lr)
        if certificate > CERTIFICATE_CEILING:
            raise DescentViolationError(
                f"predicted loss change {certificate:.3e} above {CERTIFICATE_CEILING:.0e}"
            )
        if cfg.method == "lora_pro_sgd":
            new_layer = lorapro_sgd_step(adjusted.projection, hp_now, cfg.x_strategy)
            new_states, moments = [], {}
        else:
            # the AdamW step reads the X = 0 pair alone, so the projection,
            # and with it the bundle, is dropped before it allocates
            g_a, g_b = adjusted.g_a, adjusted.g_b
            del adjusted
            new_layer, state = lorapro_adamw_step(
                geometry, next(states), g_a, g_b, hp_now, cfg.x_strategy
            )
            new_states, moments = [state], {"v": state.v}
        values = {"b": new_layer.b, "a": new_layer.a, **moments}
        return new_layer, new_states, values, layer_discrepancy, certificate

    # --- checkpointing ---------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every array a checkpoint holds beside the layers, by its ``checkpoint_shapes`` name.

        A state's step count is not saved: each equals ``step_count``.
        """
        return {f"states{j}/{part}": getattr(state, part)
                for j, state in enumerate(self.states) for part in ("m", "v")}

    def save(self, path) -> None:
        arrays = self.state_arrays()
        for i, layer in enumerate(self.network.layers):
            arrays.update({f"layer{i}/{part}": getattr(layer, part) for part in ("w0", "b", "a")})
        meta = {
            "kind": "trainer-state",
            "config": self.config.to_dict(),
            "step_count": self.step_count,
            "data_rng_state": self.data_rng.bit_generator.state,
        }
        save_checkpoint(str(path), meta, arrays)

    @classmethod
    def from_checkpoint(cls, config: RunConfig, path) -> "Trainer":
        """The trainer that ``Trainer.save`` wrote to ``path`` under ``config``.

        Takes the task as a new trainer does, then the layers and optimizer
        states straight from the file, so a restore holds no initial layers or
        zeroed moments beside the loaded ones. A task the process already
        holds is shared, not built again. One built for this restore alone
        is not cached, and the trainer drops its base weights, since the file
        holds each layer's w0, so they are not held through the load.
        Raises ConfigError naming the file and the first ``[section] key``
        that differs from ``config``, and CheckpointError naming the file and
        the first array that differs from ``checkpoint_shapes``, an array whose
        values no trainer saves, or a header field missing or out of range.
        """
        trainer = cls.__new__(cls)
        misses = _task.cache_info().misses
        trainer._start(config)
        expected = checkpoint_shapes(config, [w0.shape for w0 in trainer.task.base_weights])
        if _task.cache_info().misses > misses:  # built for this restore alone
            _task.cache_clear()
            trainer.task.base_weights = []
        meta, arrays = load_checkpoint(str(path))
        _check_same(ConfigError, path, "config key",
                    _config_keys(meta.get("config")), _config_keys(config.to_dict()))
        _check_same(CheckpointError, path, "array",
                    {name: arr.shape for name, arr in arrays.items()}, expected)
        step_count = trainer.step_count = meta.get("step_count")
        if type(step_count) is not int or step_count < 0:
            raise CheckpointError(
                f"{path}: header field 'step_count' must be an int >= 0, got {step_count!r}"
            )
        try:
            trainer.data_rng.bit_generator.state = meta["data_rng_state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: header field 'data_rng_state': {exc!r}") from exc
        for name, arr in arrays.items():  # checked by name, so what is built below is not
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: array {name!r} contains non-finite entries")
            if name.endswith("/v") and (arr < 0.0).any():
                raise CheckpointError(f"{path}: array {name!r} has a negative second moment")
            if config.method == "full_ft" and name.endswith("/b") and arr.any():
                raise CheckpointError(f"{path}: array {name!r} is not zero, as full_ft keeps it")
        trainer._set_layers([derived(
            **{part: arrays[name[:-2] + part] for part in ("w0", "b", "a")},
            scaling=scaling_factor(config.alpha, config.rank, config.scaling),
        ) for name in expected if name.endswith("/w0")])
        trainer.states = [build_unchecked(AdamWState, m=arrays[name], v=arrays[name[:-1] + "v"],
                                          t=step_count) for name in expected if name.endswith("/m")]
        return trainer


def _rows(record: RunRecord) -> list[str]:
    """The metrics.csv lines of one step, one per layer."""
    head = f"{_fmt(record.step)},{_fmt(record.lr)},{_fmt(record.train_loss)}"
    return [
        ",".join(
            [
                head,
                _fmt(i),
                _fmt(lm.discrepancy),
                _fmt(lm.rank_a),
                _fmt(lm.rank_b),
                _fmt(lm.dl_certificate),
            ]
        )
        for i, lm in enumerate(record.per_layer)
    ]


def _write_hashed(path: Path, chunks) -> str:
    """Write the text ``chunks`` to ``path`` as they come; the SHA-256 of the bytes.

    Nothing is held beyond the chunk at hand. If producing a chunk raises,
    the file keeps every chunk before it.
    """
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def run(config: RunConfig) -> RunResult:
    """Execute one training run and write metrics CSV, summary JSON, checkpoint.

    Each step's rows are written to ``metrics.csv`` as soon as the step
    returns, and the run keeps only the running certificate maximum and the
    last loss, so its memory does not grow with its step count. A step that
    raises leaves the rows of every completed step and no summary or
    checkpoint; ``summary.json``, written last, marks a complete run.
    """
    trainer = Trainer(config)
    # created only once the trainer is built, so a bad task or rank leaves no directory
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"
    checkpoint_path = out_dir / "checkpoint.bin"
    summary_path = out_dir / "summary.json"
    # an earlier run's, which would otherwise sit beside rows it does not describe
    summary_path.unlink(missing_ok=True)
    checkpoint_path.unlink(missing_ok=True)

    cert_max = final_loss = None

    def chunks():
        nonlocal cert_max, final_loss
        yield CSV_HEADER + "\n"
        for _ in range(config.steps):
            record = trainer.step()
            for lm in record.per_layer:
                cert = lm.dl_certificate
                if cert is not None and (cert_max is None or cert > cert_max):
                    cert_max = cert
            final_loss = record.train_loss
            yield "".join(line + "\n" for line in _rows(record))

    csv_sha = _write_hashed(csv_path, chunks())
    trainer.save(checkpoint_path)

    verdicts = {
        "finite_loss": True,
        "dl_certificate_max": cert_max,
        "dl_certificate_nonpositive": (
            None if cert_max is None else cert_max <= CERTIFICATE_CEILING
        ),
    }
    summary = {
        "config": config.to_dict(),
        "final_loss": final_loss,
        "verdicts": verdicts,
        "csv_sha": csv_sha,
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return RunResult(
        config=config,
        final_loss=final_loss,
        csv_path=csv_path,
        summary_path=summary_path,
        checkpoint_path=checkpoint_path,
        verdicts=verdicts,
    )


def _steps(csv):
    """(step, lr, train_loss, mean layer discrepancy) of each step of an open metrics.csv.

    The first three are the file's own text. The mean is over the layers
    with a discrepancy, 0.0 when none has one; the values it averages are
    exact, since the file writes them with ``repr``.
    """
    next(csv)  # the header
    for step, rows in itertools.groupby(csv, key=lambda line: line.split(",", 1)[0]):
        discrepancies = []
        for row in rows:
            _, lr, loss, _, discrepancy, _ = row.split(",", 5)
            if discrepancy:
                discrepancies.append(float(discrepancy))
        yield step, lr, loss, float(np.mean(discrepancies)) if discrepancies else 0.0


def compare(config: RunConfig, methods: list[str]) -> CompareResult:
    """Run several methods from identical initialization and data order.

    Emits an aligned per-step CSV plus JSON verdicts: final losses and their
    ordering, and mean per-layer equivalent-gradient discrepancy over the
    last half of training. When both a plain ``lora`` run and a
    ``lora_pro_*`` run are present, the pairwise verdicts compare them
    directly. The CSV is built by reading the runs' metrics files in
    lockstep and written row by row.
    """
    if len(methods) < 2:
        raise ConfigError(f"compare needs at least 2 methods, got {len(methods)}")

    labels = []
    for m in methods:
        label = m
        k = 2
        while label in labels:
            label = f"{m}_{k}"
            k += 1
        labels.append(label)

    out_dir = Path(config.out_dir)
    # every method's config is built, and so checked, before any run starts;
    # the first run creates out_dir
    subs = [
        config.with_overrides(method=method, out_dir=str(out_dir / label))
        for label, method in zip(labels, methods)
    ]
    results = {label: run(sub) for label, sub in zip(labels, subs)}

    steps = config.steps
    half = steps // 2
    # one value per method per step of the last half; np.mean of each row
    # sums pairwise, as it would the same values in a list
    last_half = np.empty((len(labels), steps - half))
    header = ["step", "lr"]
    for label in labels:
        header += [f"loss_{label}", f"disc_{label}"]

    def chunks():
        yield ",".join(header) + "\n"
        with contextlib.ExitStack() as stack:
            files = [
                stack.enter_context(results[label].csv_path.open(encoding="utf-8"))
                for label in labels
            ]
            for t, columns in enumerate(zip(*map(_steps, files))):
                step, lr = columns[0][:2]
                row = [step, lr]
                for j, (_, _, loss, discrepancy) in enumerate(columns):
                    row += [loss, _fmt(discrepancy)]
                    if t >= half:
                        last_half[j, t - half] = discrepancy
                yield ",".join(row) + "\n"

    csv_path = out_dir / "comparison.csv"
    csv_sha = _write_hashed(csv_path, chunks())

    mean_disc = {label: float(np.mean(last_half[j])) for j, label in enumerate(labels)}
    final_loss = {label: results[label].final_loss for label in labels}
    ordering = sorted(labels, key=lambda lbl: final_loss[lbl])

    pro_label = next((lbl for lbl, m in zip(labels, methods) if m.startswith("lora_pro")), None)
    lora_label = next((lbl for lbl, m in zip(labels, methods) if m == "lora"), None)
    pair_disc = pair_loss = None
    if pro_label is not None and lora_label is not None:
        pair_disc = mean_disc[pro_label] < mean_disc[lora_label]
        pair_loss = final_loss[pro_label] < final_loss[lora_label]

    verdicts = {
        "final_loss": final_loss,
        "final_loss_ordering": ordering,
        "mean_discrepancy_last_half": mean_disc,
        "lora_pro_discrepancy_below_lora": pair_disc,
        "lora_pro_final_loss_below_lora": pair_loss,
    }
    payload = {
        "config": config.to_dict(),
        "methods": {label: m for label, m in zip(labels, methods)},
        "verdicts": verdicts,
        "csv_sha": csv_sha,
    }
    json_path = out_dir / "comparison.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return CompareResult(
        labels=labels, results=results, verdicts=verdicts, csv_path=csv_path, json_path=json_path
    )
