"""Experiment driver: seeded runs, method comparisons, metrics, checkpoints.

A run is deterministic given its config and seed: task data, adapter
initialization, and batch order each come from an independent stream spawned
from the run seed, so the method under test can never influence the data it
sees. Metrics go to a fixed-schema CSV (one row per step and layer), a JSON
summary carries the config echo and a content hash of the CSV, and the final
state lands in a binary checkpoint that resumes bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .errors import CheckpointError, ConfigError, DescentViolationError, NonFiniteError
from .gradadjust import TangentGeometry, adjust, equivalent_gradient, loss_decrease_certificate
from .linalg import as_matrix, build_unchecked, replace_unchecked
from .lora import InitScheme, init_layer, layer_from_state, layer_state
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
from .tasks import build_task

__all__ = [
    "CSV_HEADER",
    "LayerMetrics",
    "RunRecord",
    "RunResult",
    "CompareResult",
    "Trainer",
    "run",
    "compare",
]

CSV_HEADER = "step,lr,train_loss,layer,discrepancy,rank_a,rank_b,dl_certificate"
CERTIFICATE_CEILING = 1e-12


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
    records: list[RunRecord]
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


def _check_commit(i: int, values: dict[str, np.ndarray]) -> None:
    """A step's one finiteness check of what it is about to commit for layer ``i``.

    The values inside a step derive from inputs checked where they entered
    it, so only overflow can make them non-finite; checking them once here,
    before anything is committed, catches it without re-checking every
    intermediate. A finite second moment also bounds the gradient that fed
    it, so the first moment needs no check of its own.
    """
    for name, value in values.items():
        as_matrix(value, f"layer {i}: new {name}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Trainer:
    """Owns the model, optimizer state, and data stream of a single run.

    Layers are values: a step replaces each layer and never writes into it.
    ``geometries`` caches each committed layer's TangentGeometry for the next
    step and is never saved; a step rebuilds one whose layer, or one of whose
    factor arrays, was replaced. The factors a step commits are read-only.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        root = np.random.SeedSequence(config.seed)
        task_ss, init_ss, data_ss = root.spawn(3)
        self.task = build_task(config.task, config.task_params, np.random.default_rng(task_ss))

        layer_seeds = [
            int(child.generate_state(1, np.uint64)[0])
            for child in init_ss.spawn(len(self.task.base_weights))
        ]
        layers = []
        for w0, seed in zip(self.task.base_weights, layer_seeds):
            m, n = w0.shape
            if config.rank > min(m, n):
                raise ConfigError(
                    f"invalid config key 'rank': {config.rank} exceeds min(m,n)={min(m, n)} "
                    f"for a {m}x{n} layer"
                )
            layers.append(
                init_layer(
                    m,
                    n,
                    config.rank,
                    alpha=config.alpha,
                    mode=config.scaling,
                    scheme=InitScheme(kind=config.init, seed=seed),
                    w0=w0,
                )
            )
        self.task.base_weights = []  # each layer holds its own copy of its base weight
        self.network = Network(
            layers=layers, activations=list(self.task.activations), loss_kind=self.task.loss_kind
        )
        self.geometries: list[TangentGeometry | None] = [None] * len(layers)
        self.data_rng = np.random.default_rng(data_ss)
        self.step_count = 0
        self.hp = config.hyperparams()
        self.policy = config.damping_policy()

        method = config.method
        if method == "full_ft":
            self.weights = self.network.effective_weights()
            self.ft_states = [init_adamw_state(w.shape) for w in self.weights]
        elif method == "lora":
            self.states_a = [init_adamw_state(l.a.shape) for l in layers]
            self.states_b = [init_adamw_state(l.b.shape) for l in layers]
        elif method == "lora_pro_adamw":
            self.states = [init_adamw_state(l.shape) for l in layers]
        # lora_pro_sgd keeps no optimizer state

    def _draw_batch(self) -> Batch:
        idx = self.data_rng.integers(0, self.task.n_samples, size=self.config.batch_size)
        # rows of the task's arrays, which build_task checked
        return build_unchecked(Batch, inputs=self.task.inputs[idx], targets=self.task.targets[idx])

    def step(self) -> RunRecord:
        cfg = self.config
        lr_now = lr_at(self.hp, self.step_count, cfg.steps)
        # lr_at gives a value in [0, lr], which the checks of self.hp cover
        hp_now = replace_unchecked(self.hp, lr=lr_now)
        batch = self._draw_batch()

        try:
            if cfg.method == "full_ft":
                loss, metrics = self._step_full_ft(batch, hp_now)
            else:
                loss, metrics = self._step_adapters(batch, hp_now)
        except NonFiniteError as exc:
            raise NonFiniteError(f"aborting at step {self.step_count + 1}: {exc}") from exc

        self.step_count += 1
        return RunRecord(
            step=self.step_count, lr=lr_now, train_loss=loss, per_layer=metrics
        )

    def _step_full_ft(self, batch: Batch, hp_now) -> tuple[float, list[LayerMetrics]]:
        acts, loss_kind = self.network.activations, self.network.loss_kind
        loss, cache = forward_with_weights(self.weights, acts, loss_kind, batch)
        grads = backward_weight_grads(cache, acts, loss_kind)
        # every layer is computed and checked before any is committed
        new = [
            full_ft_adamw_step(w, state, g, hp_now)
            for w, state, g in zip(self.weights, self.ft_states, grads)
        ]
        for i, (w, state) in enumerate(new):
            _check_commit(i, {"w": w, "v": state.v})
        self.weights = [w for w, _ in new]
        self.ft_states = [state for _, state in new]
        metrics = [
            LayerMetrics(discrepancy=0.0, rank_a=None, rank_b=None, dl_certificate=None)
            for _ in grads
        ]
        return loss, metrics

    def _step_adapters(self, batch: Batch, hp_now) -> tuple[float, list[LayerMetrics]]:
        cfg = self.config
        loss, cache = forward(self.network, batch)
        # backward checks each weight gradient as it comes out, naming the
        # layer, and skips its stale-cache recompute for the cache just made
        bundles = backward(self.network, cache)
        del cache  # its effective weights and activations are not read again

        # every layer is computed and checked before any is committed, so a
        # step that raises leaves the trainer as it was
        new_geometries, new_states, metrics = [], [], []
        for i, (layer, bundle) in enumerate(zip(self.network.layers, bundles)):
            certificate, moments = None, {}
            # the pairs below derive from the checked weight gradient; an
            # overflow in them is caught by the discrepancy's check
            if cfg.method == "lora":
                g_tilde = equivalent_gradient(
                    layer, bundle.g_a_lora, bundle.g_b_lora, checked=True
                )
            else:
                # one geometry and one X = 0 solve serve the metric, the
                # certificate and the step
                geometry = self.geometries[i]
                if geometry is None or not geometry.describes(layer):
                    geometry = TangentGeometry(layer, self.policy)
                adjusted = adjust(
                    layer, bundle, strategy="zero", policy=self.policy, geometry=geometry
                )
                g_tilde = equivalent_gradient(layer, adjusted.g_a, adjusted.g_b, checked=True)
            # the discrepancy is g_full's last read, so it is taken before the
            # update, with g_tilde - g_full written into g_full's own buffer;
            # then the layer's g_full (held by the bundle, its origin record and
            # residual) is dropped before the update allocates
            residual = np.subtract(g_tilde, bundle.g_full, out=bundle.g_full)
            discrepancy = float(np.linalg.norm(as_matrix(residual, f"layer {i}: g_tilde - g")))
            bundle.g_full = bundle._origin = residual = None
            if cfg.method == "lora":
                new_layer, sa, sb = lora_adamw_step(
                    layer, self.states_a[i], self.states_b[i], bundle, hp_now
                )
                new_states.append((sa, sb))
                moments = {"v_a": sa.v, "v_b": sb.v}
            else:
                if not geometry.passthrough:
                    certificate = loss_decrease_certificate(
                        layer, bundle, adjusted, hp_now.lr, policy=self.policy, geometry=geometry
                    )
                    if certificate > CERTIFICATE_CEILING:
                        raise DescentViolationError(
                            f"layer {i}: predicted loss change {certificate:.3e} above "
                            f"{CERTIFICATE_CEILING:.0e}"
                        )
                if cfg.method == "lora_pro_sgd":
                    new_layer = lorapro_sgd_step(
                        layer,
                        bundle,
                        hp_now,
                        strategy=cfg.x_strategy,
                        policy=self.policy,
                        geometry=geometry,
                        adjusted=adjusted,
                    )
                    del adjusted  # with the products it kept, which served only this layer
                else:
                    del adjusted  # the AdamW step reads g_tilde alone
                    new_layer, state = lorapro_adamw_step(
                        layer,
                        self.states[i],
                        bundle,
                        hp_now,
                        policy=self.policy,
                        x_strategy=cfg.x_strategy,
                        geometry=geometry,
                        g_tilde=g_tilde,  # consumed: it now holds the Adam direction
                    )
                    new_states.append(state)
                    moments = {"v": state.v}
            del g_tilde  # free before the next layer allocates its own
            _check_commit(i, {"b": new_layer.b, "a": new_layer.a, **moments})
            # fresh arrays; read-only, as a write would go unseen by the carried geometry
            new_layer.b.setflags(write=False)
            new_layer.a.setflags(write=False)
            committed = TangentGeometry(new_layer, self.policy)  # the next step's, too
            new_geometries.append(committed)
            metrics.append(
                LayerMetrics(
                    discrepancy=discrepancy,
                    rank_a=committed.rank_a,
                    rank_b=committed.rank_b,
                    dl_certificate=certificate,
                )
            )

        self.network.layers[:] = [geo.layer for geo in new_geometries]
        self.geometries = new_geometries
        if cfg.method == "lora":
            self.states_a = [sa for sa, _ in new_states]
            self.states_b = [sb for _, sb in new_states]
        elif cfg.method == "lora_pro_adamw":
            self.states = new_states
        return loss, metrics

    # --- checkpointing ---------------------------------------------------

    def save(self, path) -> None:
        cfg = self.config
        arrays: dict[str, np.ndarray] = {}
        layer_meta = []
        for i, layer in enumerate(self.network.layers):
            meta_i, arrays_i = layer_state(layer, prefix=f"layer{i}/")
            layer_meta.append(meta_i)
            arrays.update(arrays_i)

        def saved(states, prefix) -> list[int]:
            for i, st in enumerate(states):
                arrays[f"{prefix}{i}/m"], arrays[f"{prefix}{i}/v"] = st.m, st.v
            return [st.t for st in states]

        adamw_t: list = []
        if cfg.method == "full_ft":
            arrays.update({f"ft{i}/w": w for i, w in enumerate(self.weights)})
            adamw_t = saved(self.ft_states, "ft")
        elif cfg.method == "lora":
            steps = zip(saved(self.states_a, "sta"), saved(self.states_b, "stb"))
            adamw_t = [[ta, tb] for ta, tb in steps]
        elif cfg.method == "lora_pro_adamw":
            adamw_t = saved(self.states, "st")
        meta = {
            "kind": "trainer-state",
            "config": cfg.to_dict(),
            "step_count": self.step_count,
            "layers": layer_meta,
            "adamw_t": adamw_t,
            "data_rng_state": self.data_rng.bit_generator.state,
        }
        save_checkpoint(str(path), meta, arrays)

    @classmethod
    def from_checkpoint(cls, config: RunConfig, path) -> "Trainer":
        meta, arrays = load_checkpoint(str(path))
        if meta.get("config") != config.to_dict():
            raise ConfigError("checkpoint was produced by a different config")
        trainer = cls(config)
        layers = trainer.network.layers
        n_layers = len(layers)
        if len(meta["layers"]) != n_layers:
            raise CheckpointError(
                f"{path}: checkpoint holds {len(meta['layers'])} layers, the run has {n_layers}"
            )
        for i, (layer_meta, layer) in enumerate(zip(meta["layers"], layers)):
            try:
                loaded = layer_from_state(layer_meta, arrays, prefix=f"layer{i}/")
            except (KeyError, ValueError) as exc:
                raise CheckpointError(f"{path}: layer {i}: {exc}") from exc
            if (loaded.shape, loaded.rank) != (layer.shape, layer.rank):
                raise CheckpointError(
                    f"{path}: layer {i} is {loaded.shape} at rank {loaded.rank}, "
                    f"the run's is {layer.shape} at rank {layer.rank}"
                )
            layers[i] = loaded
        adamw_t = meta["adamw_t"]
        if config.method != "lora_pro_sgd" and len(adamw_t) != n_layers:
            raise CheckpointError(
                f"{path}: checkpoint holds optimizer states for {len(adamw_t)} layers, "
                f"the run has {n_layers}"
            )

        def restored(prefix, steps):
            return [
                AdamWState(m=arrays[f"{prefix}{i}/m"], v=arrays[f"{prefix}{i}/v"], t=int(t))
                for i, t in enumerate(steps)
            ]

        if config.method == "full_ft":
            trainer.weights = [arrays[f"ft{i}/w"] for i in range(n_layers)]
            trainer.ft_states = restored("ft", adamw_t)
        elif config.method == "lora":
            trainer.states_a = restored("sta", [t for t, _ in adamw_t])
            trainer.states_b = restored("stb", [t for _, t in adamw_t])
        elif config.method == "lora_pro_adamw":
            trainer.states = restored("st", adamw_t)
        trainer.step_count = int(meta["step_count"])
        trainer.data_rng.bit_generator.state = meta["data_rng_state"]
        return trainer


def _csv_lines(records: list[RunRecord]):
    yield CSV_HEADER
    for rec in records:
        for i, lm in enumerate(rec.per_layer):
            yield ",".join(
                [
                    _fmt(rec.step),
                    _fmt(rec.lr),
                    _fmt(rec.train_loss),
                    _fmt(i),
                    _fmt(lm.discrepancy),
                    _fmt(lm.rank_a),
                    _fmt(lm.rank_b),
                    _fmt(lm.dl_certificate),
                ]
            )


def records_to_csv_lines(records: list[RunRecord]) -> list[str]:
    return list(_csv_lines(records))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: RunConfig) -> RunResult:
    """Execute one training run and write metrics CSV, summary JSON, checkpoint."""
    trainer = Trainer(config)
    # created only once the trainer is built, so a bad task or rank leaves no directory
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = [trainer.step() for _ in range(config.steps)]

    csv_path = out_dir / "metrics.csv"
    # line by line, so the text is never held whole
    with csv_path.open("w", encoding="utf-8") as fh:
        for line in _csv_lines(records):
            fh.write(line + "\n")

    checkpoint_path = out_dir / "checkpoint.bin"
    trainer.save(checkpoint_path)

    certs = [
        lm.dl_certificate
        for rec in records
        for lm in rec.per_layer
        if lm.dl_certificate is not None
    ]
    verdicts = {
        "finite_loss": True,
        "dl_certificate_max": max(certs) if certs else None,
        "dl_certificate_nonpositive": (max(certs) <= CERTIFICATE_CEILING) if certs else None,
    }
    final_loss = records[-1].train_loss
    summary = {
        "config": config.to_dict(),
        "final_loss": final_loss,
        "verdicts": verdicts,
        "csv_sha": _sha256(csv_path),
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return RunResult(
        config=config,
        records=records,
        final_loss=final_loss,
        csv_path=csv_path,
        summary_path=summary_path,
        checkpoint_path=checkpoint_path,
        verdicts=verdicts,
    )


def _mean_layer_discrepancy(record: RunRecord) -> float:
    values = [lm.discrepancy for lm in record.per_layer if lm.discrepancy is not None]
    return float(np.mean(values)) if values else 0.0


def compare(config: RunConfig, methods: list[str]) -> CompareResult:
    """Run several methods from identical initialization and data order.

    Emits an aligned per-step CSV plus JSON verdicts: final losses and their
    ordering, and mean per-layer equivalent-gradient discrepancy over the
    last half of training. When both a plain ``lora`` run and a
    ``lora_pro_*`` run are present, the pairwise verdicts compare them
    directly.
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
    header = ["step", "lr"]
    for label in labels:
        header += [f"loss_{label}", f"disc_{label}"]
    lines = [",".join(header)]
    for t in range(steps):
        row = [
            _fmt(results[labels[0]].records[t].step),
            _fmt(results[labels[0]].records[t].lr),
        ]
        for label in labels:
            rec = results[label].records[t]
            row += [_fmt(rec.train_loss), _fmt(_mean_layer_discrepancy(rec))]
        lines.append(",".join(row))
    csv_path = out_dir / "comparison.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    last_half = range(steps // 2, steps)
    mean_disc = {
        label: float(
            np.mean([_mean_layer_discrepancy(results[label].records[t]) for t in last_half])
        )
        for label in labels
    }
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
        "csv_sha": _sha256(csv_path),
    }
    json_path = out_dir / "comparison.json"
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return CompareResult(
        labels=labels, results=results, verdicts=verdicts, csv_path=csv_path, json_path=json_path
    )
