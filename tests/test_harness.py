import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lorapro.checkpoint as checkpoint
import lorapro.harness as harness
import lorapro.model as model
from lorapro.checkpoint import load_checkpoint, save_checkpoint
from lorapro.cli import main as cli_main
from lorapro.config import RunConfig, parse_config_text
from lorapro.errors import CheckpointError, ConfigError, LoraProError, NonFiniteError, ShapeError
from lorapro.gradadjust import (
    X_STRATEGIES,
    AdjustedGrads,
    GradBundle,
    TangentGeometry,
    choose_x,
    equivalent_gradient,
    lora_raw_grads,
    loss_decrease_certificate,
)
from lorapro.harness import CSV_HEADER, Trainer, compare, records_to_csv_lines, run
from lorapro.linalg import numerical_rank
from lorapro.lora import LoraLayer, apply_decayed_merge_step
from lorapro.model import backward, forward
from lorapro.optim import adamw_transform, lr_at
from lorapro.selfcheck import (
    check_oracle_consistency,
    check_sylvester_x_optimality,
    oracle_minima,
    random_instances,
    run_selfcheck,
)

ROOT = Path(__file__).resolve().parents[1]


def small_config(tmp_path, **overrides):
    base = dict(
        task="teacher_student_regression",
        task_params={"d_in": 6, "d_hidden": 10, "d_out": 3, "n_samples": 64,
                     "noise_sd": 0.01, "perturb_rank": 2, "perturb_scale": 0.5},
        method="lora_pro_adamw",
        steps=30,
        batch_size=8,
        seed=11,
        out_dir=str(tmp_path / "out"),
        rank=2,
        lr=5e-3,
        schedule="cosine_with_warmup",
        warmup_ratio=0.1,
    )
    base.update(overrides)
    return RunConfig(**base)


def desk_config(tmp_path, steps=2):
    """The benchmark's desk workload: the shipped 8-16-4, r=2 config."""
    text = (ROOT / "perfbench" / "configs" / "desk.cfg").read_text(encoding="utf-8")
    return parse_config_text(text.format(steps=steps, seed=3, out_dir=tmp_path / "desk"))


def test_run_writes_artifacts_and_schema(tmp_path):
    cfg = small_config(tmp_path)
    result = run(cfg)
    lines = Path(result.csv_path).read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + cfg.steps * 2  # one row per (step, layer)
    summary = json.loads(Path(result.summary_path).read_text())
    assert summary["config"]["run"]["seed"] == 11
    assert summary["verdicts"]["dl_certificate_nonpositive"] is True
    assert summary["final_loss"] == result.final_loss
    import hashlib
    assert summary["csv_sha"] == hashlib.sha256(Path(result.csv_path).read_bytes()).hexdigest()


def test_same_seed_byte_identical_csv(tmp_path):
    cfg = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    r1 = run(cfg)
    r2 = run(cfg.with_overrides(out_dir=str(tmp_path / "b")))
    assert Path(r1.csv_path).read_bytes() == Path(r2.csv_path).read_bytes()


def test_different_seed_changes_trajectory(tmp_path):
    r1 = run(small_config(tmp_path, out_dir=str(tmp_path / "a")))
    r2 = run(small_config(tmp_path, seed=12, out_dir=str(tmp_path / "b")))
    assert Path(r1.csv_path).read_bytes() != Path(r2.csv_path).read_bytes()


@pytest.mark.parametrize("method", ["lora", "lora_pro_sgd", "lora_pro_adamw", "full_ft"])
def test_checkpoint_resume_is_bit_identical(tmp_path, method):
    cfg = small_config(tmp_path, method=method, steps=24)
    full = Trainer(cfg)
    full_rows = [full.step() for _ in range(24)]

    half = Trainer(cfg)
    head = [half.step() for _ in range(12)]
    ckpt = tmp_path / "state.bin"
    half.save(ckpt)
    resumed = Trainer.from_checkpoint(cfg, ckpt)
    tail = [resumed.step() for _ in range(12)]

    assert records_to_csv_lines(full_rows) == records_to_csv_lines(head + tail)


def _new_layer(old):
    return LoraLayer(
        w0=old.w0, b=2.0 * old.b, a=old.a[::-1].copy(), alpha=old.alpha, rank=old.rank,
        scaling_mode=old.scaling_mode,
    )


def _reassign_b(layer):
    layer.b = 3.0 * layer.b
    return layer


def _write_into_b(layer):
    with pytest.raises(ValueError, match="read-only"):
        layer.b[...] *= 3.0
    return layer


LORA_PRO_METHODS = ("lora_pro_sgd", "lora_pro_adamw")


@pytest.mark.parametrize(
    "method, change",
    [pytest.param(m, _new_layer, id=m) for m in LORA_PRO_METHODS]
    + [pytest.param(m, _reassign_b, id=f"{m}-reassign_b") for m in LORA_PRO_METHODS]
    + [pytest.param(m, _write_into_b, id=f"{m}-write_into_b") for m in LORA_PRO_METHODS],
)
def test_replaced_layer_gets_a_fresh_geometry(tmp_path, method, change):
    # the trainer keeps each committed layer's geometry for the next step; a
    # layer or factor array put in its place between steps must not be solved
    # in the old one, and a committed factor cannot be written in place
    cfg = small_config(tmp_path, method=method, steps=6)
    trainer = Trainer(cfg)
    for _ in range(2):  # the first step's warmup lr is 0, so B is still 0 after it
        trainer.step()
    trainer.network.layers[1] = change(trainer.network.layers[1])
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    from_start = Trainer.from_checkpoint(cfg, ckpt)  # holds the new layer from its start
    rows = [trainer.step() for _ in range(2)]
    expected = [from_start.step() for _ in range(2)]
    assert records_to_csv_lines(rows) == records_to_csv_lines(expected)


def test_checkpoint_rejects_other_config(tmp_path):
    cfg = small_config(tmp_path)
    trainer = Trainer(cfg)
    trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    with pytest.raises(ConfigError):
        Trainer.from_checkpoint(cfg.with_overrides(lr=1e-4), ckpt)


@pytest.mark.parametrize("method", ["lora", "lora_pro_adamw", "full_ft"])
def test_checkpoint_with_wrong_state_count_raises_typed_error(tmp_path, method):
    # each restored state is built from the checkpoint alone, one per layer
    cfg = small_config(tmp_path, method=method)
    trainer = Trainer(cfg)
    trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    meta, arrays = load_checkpoint(str(ckpt))
    meta["adamw_t"] = meta["adamw_t"][:1]
    save_checkpoint(str(ckpt), meta, arrays)
    with pytest.raises(CheckpointError, match="optimizer states for 1 layers, the run has 2"):
        Trainer.from_checkpoint(cfg, ckpt)


def _rank_one(meta, arrays):
    # a layer-0 entry that is a valid adapter, at rank 1 where the run has 2
    meta["layers"][0]["rank"] = 1
    arrays["layer0/b"] = arrays["layer0/b"][:, :1]
    arrays["layer0/a"] = arrays["layer0/a"][:1]


def _rank_field_only(meta, arrays):
    meta["layers"][0]["rank"] = 1


def _drop_last_layer(meta, arrays):
    meta["layers"] = meta["layers"][:1]


def _repeat_first_layer(meta, arrays):
    meta["layers"] = meta["layers"] + meta["layers"][:1]


LAYER_LIST_DAMAGE = {
    "short": (_drop_last_layer, "checkpoint holds 1 layers, the run has 2"),
    "long": (_repeat_first_layer, "checkpoint holds 3 layers, the run has 2"),
    "other_rank": (_rank_one, r"layer 0 is \(6, 10\) at rank 1, the run's is \(6, 10\) at rank 2"),
    "rank_field": (_rank_field_only, r"layer 0: b must be 6x1, got \(6, 2\)"),
}


@pytest.mark.parametrize("damage", sorted(LAYER_LIST_DAMAGE))
def test_checkpoint_layer_list_must_match_the_run(tmp_path, damage):
    # the header's layer list is not hashed: a short list used to resume with the
    # missing layers at their initial values, and a long one ended in a KeyError
    cfg = small_config(tmp_path, method="lora_pro_sgd")
    trainer = Trainer(cfg)
    trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    meta, arrays = load_checkpoint(str(ckpt))
    rewrite, message = LAYER_LIST_DAMAGE[damage]
    rewrite(meta, arrays)
    save_checkpoint(str(ckpt), meta, arrays)
    with pytest.raises(CheckpointError, match=message) as excinfo:
        Trainer.from_checkpoint(cfg, ckpt)
    assert str(ckpt) in str(excinfo.value)


def _flip_bit(data: bytes, offset: int, bit: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= 1 << bit
    return bytes(out)


HEADER_AT = 16  # 8-byte magic, then the 8-byte header length
CHECKPOINT_DAMAGE = {
    "bad_magic": lambda data: _flip_bit(data, 0, 0),
    "short_length_field": lambda data: data[:HEADER_AT - 3],
    "oversized_header_length": lambda data: _flip_bit(data, HEADER_AT - 1, 7),
    "undecodable_header": lambda data: _flip_bit(data, HEADER_AT, 7),
    "truncated_payload": lambda data: data[:-8],
    "trailing_bytes": lambda data: data + b"\0",
    "payload_bit_flip": lambda data: _flip_bit(data, len(data) - 1, 6),
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_damaged_checkpoint_raises_typed_error(tmp_path, damage):
    trainer = Trainer(desk_config(tmp_path))
    trainer.step()
    intact = tmp_path / "state.bin"
    trainer.save(intact)
    load_checkpoint(str(intact))
    damaged = tmp_path / "damaged.bin"
    damaged.write_bytes(CHECKPOINT_DAMAGE[damage](intact.read_bytes()))
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(str(damaged))
    # existing callers catch ValueError; the CLI catches LoraProError
    assert isinstance(excinfo.value, ValueError)
    assert isinstance(excinfo.value, LoraProError)
    assert str(damaged) in str(excinfo.value)


class _FailingFile(io.FileIO):
    """A file whose write fails partway through its first large chunk."""

    def write(self, data):
        if len(data) > 256:
            super().write(bytes(data[:128]))
            raise OSError("injected: disk full")
        return super().write(data)


def test_failed_save_keeps_earlier_checkpoint(tmp_path, monkeypatch):
    trainer = Trainer(desk_config(tmp_path))
    trainer.step()
    target = tmp_path / "ckpt" / "state.bin"
    target.parent.mkdir()
    trainer.save(target)
    earlier = target.read_bytes()
    trainer.step()
    monkeypatch.setattr(checkpoint, "open", _FailingFile, raising=False)
    with pytest.raises(OSError, match="injected"):
        trainer.save(target)
    assert target.read_bytes() == earlier
    assert [p.name for p in target.parent.iterdir()] == ["state.bin"]
    monkeypatch.undo()
    trainer.save(target)
    assert target.read_bytes() != earlier
    assert [p.name for p in target.parent.iterdir()] == ["state.bin"]


def _whole_payload_file(meta: dict, arrays: dict) -> bytes:
    """A format-2 checkpoint assembled in memory, payload and all, as a reference."""
    table, payload = [], bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        table.append({"name": name, "rows": arr.shape[0], "cols": arr.shape[1]})
        payload += arr.astype("<f8").tobytes(order="C")
    header = json.dumps(
        {"meta": meta, "arrays": table, "payload_sha256": hashlib.sha256(payload).hexdigest()},
        sort_keys=True,
    ).encode("utf-8")
    return checkpoint.MAGIC + struct.pack("<Q", len(header)) + header + bytes(payload)


def test_streamed_save_matches_a_whole_payload_assembly(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    base = rng.normal(size=(6, 4))
    arrays = {
        "c_order": base,
        "fortran": np.asfortranarray(base),
        "strided": rng.normal(size=(6, 8))[:, ::2],
        "float32": base.astype(np.float32),
        "big_endian": base.astype(">f8"),
        "empty": np.zeros((0, 3)),
        "specials": np.array([[np.nan, -0.0], [np.inf, 5e-324]]),
    }
    originals = {name: (arr.dtype, arr.tobytes(order="A")) for name, arr in arrays.items()}
    meta = {"kind": "test", "note": "streamed"}
    path = tmp_path / "arrays.bin"
    save_checkpoint(str(path), meta, arrays)
    assert path.read_bytes() == _whole_payload_file(meta, arrays)
    assert {n: (a.dtype, a.tobytes(order="A")) for n, a in arrays.items()} == originals
    _, loaded = load_checkpoint(str(path))
    for name, arr in arrays.items():
        assert np.array_equal(loaded[name], arr.astype(np.float64), equal_nan=True)

    # a trainer's own save, with its real meta and arrays
    trainer = Trainer(desk_config(tmp_path))
    trainer.step()
    saved = []
    real_save = harness.save_checkpoint
    monkeypatch.setattr(harness, "save_checkpoint",
                        lambda *args: (saved.append(args[1:]), real_save(*args)))
    trainer.save(tmp_path / "trainer.bin")
    assert (tmp_path / "trainer.bin").read_bytes() == _whole_payload_file(*saved[0])


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 2)), 1.5])
def test_save_rejects_a_non_matrix_before_any_file_exists(tmp_path, bad):
    # "z" sorts last, so the arrays before it have been checked and hashed
    with pytest.raises(ShapeError, match="'z' must be 2-D"):
        save_checkpoint(str(tmp_path / "state.bin"), {}, {"a": np.ones((2, 2)), "z": bad})
    assert list(tmp_path.iterdir()) == []


def test_adamw_step_and_save_working_set(tmp_path):
    # tracemalloc counts numpy's buffers, so the working set is measured
    # exactly, here in units of the largest layer's m x n float64 bytes
    cfg = small_config(
        tmp_path,
        task_params={"d_in": 128, "d_hidden": 256, "d_out": 64, "n_samples": 64,
                     "noise_sd": 0.01, "perturb_rank": 2, "perturb_scale": 0.5},
        rank=4,
        batch_size=16,
    )
    trainer = Trainer(cfg)
    unit = 8 * max(m * n for m, n in (layer.shape for layer in trainer.network.layers))
    trainer.step()  # from here on the moments exist between steps
    step_over, save_over = [], []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            steady = tracemalloc.get_traced_memory()[0]
            trainer.step()
            step_over.append((tracemalloc.get_traced_memory()[1] - steady) / unit)
            tracemalloc.reset_peak()
            steady = tracemalloc.get_traced_memory()[0]
            trainer.save(tmp_path / "state.bin")
            save_over.append((tracemalloc.get_traced_memory()[1] - steady) / unit)
    finally:
        tracemalloc.stop()
    # a step holds the layer's two new moments, its direction (in the
    # equivalent gradient's buffer) and one scratch array, plus the g_full
    # of the layers after it (here half a unit): 4.7 units measured. Holding
    # the layer's own g_full through its update as well reads 5.8; the
    # forward cache, g_full and a separate direction together, 8.6.
    assert max(step_over) < 5.5, step_over
    # a save holds no copy of the payload: 0.09 units measured, 5.7 for a
    # save that assembles the payload in memory
    assert max(save_over) < 1.0, save_over


def test_load_holds_the_payload_once(tmp_path):
    cfg = small_config(
        tmp_path,
        task_params={"d_in": 128, "d_hidden": 256, "d_out": 64, "n_samples": 64,
                     "noise_sd": 0.01, "perturb_rank": 2, "perturb_scale": 0.5},
        rank=4,
    )
    trainer = Trainer(cfg)
    trainer.step()
    path = tmp_path / "state.bin"
    trainer.save(path)
    del trainer
    tracemalloc.start()
    try:
        steady = tracemalloc.get_traced_memory()[0]
        _, arrays = load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1] - steady
    finally:
        tracemalloc.stop()
    payload = sum(arr.nbytes for arr in arrays.values())
    # the arrays it returns and little else: 1.01 measured; a load that reads
    # the whole payload and then copies each array out of it reads 2.01
    assert peak < 1.25 * payload, peak / payload


def _committed(trainer) -> dict:
    """The bytes of everything a training step commits."""
    state = {"step_count": trainer.step_count}
    for i, layer in enumerate(trainer.network.layers):
        for part in ("w0", "b", "a"):
            state[f"layer{i}.{part}"] = getattr(layer, part).tobytes()
    for attr in ("states", "states_a", "states_b", "ft_states"):
        for i, st in enumerate(getattr(trainer, attr, ())):
            state[f"{attr}{i}"] = (st.m.tobytes(), st.v.tobytes(), st.t)
    for i, w in enumerate(getattr(trainer, "weights", ())):
        state[f"weights{i}"] = w.tobytes()
    return state


@pytest.mark.parametrize("method", ["lora", "lora_pro_sgd", "lora_pro_adamw"])
def test_non_finite_weight_gradient_aborts_and_commits_nothing(tmp_path, monkeypatch, method):
    trainer = Trainer(desk_config(tmp_path).with_overrides(method=method))
    real = model.backward_weight_grads
    calls = []

    def poisoned(*args, **kwargs):
        grads = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            grads[1][0, 0] = np.nan
        return grads

    monkeypatch.setattr(model, "backward_weight_grads", poisoned)
    trainer.step()
    trainer.step()
    before = _committed(trainer)
    with pytest.raises(NonFiniteError, match=r"step 3: layer 1\b"):
        trainer.step()
    assert len(calls) == 3
    assert _committed(trainer) == before


@pytest.mark.parametrize("method", ["lora", "lora_pro_sgd", "lora_pro_adamw"])
def test_non_finite_factor_gradient_is_caught_at_the_discrepancy(tmp_path, monkeypatch,
                                                                  method):
    # the step reads a bundle's factor gradients unchecked; a non-finite
    # entry in one reaches g_tilde, whose difference from g is checked,
    # naming the layer
    trainer = Trainer(desk_config(tmp_path).with_overrides(method=method))
    trainer.step()
    real = model.lora_raw_grads

    def overflowing(layer, g_full):
        bundle = real(layer, g_full)
        if layer is trainer.network.layers[1]:
            bundle.g_a_lora[0, 0] = np.nan
        return bundle

    monkeypatch.setattr(model, "lora_raw_grads", overflowing)
    before = _committed(trainer)
    with pytest.raises(NonFiniteError, match=r"step 2: layer 1: g_tilde - g contains"):
        trainer.step()
    assert _committed(trainer) == before


STEP_FUNCTIONS = {
    "lora": "lora_adamw_step",
    "lora_pro_sgd": "lorapro_sgd_step",
    "lora_pro_adamw": "lorapro_adamw_step",
    "full_ft": "full_ft_adamw_step",
}


@pytest.mark.parametrize("method", sorted(STEP_FUNCTIONS))
def test_non_finite_update_is_caught_before_commit(tmp_path, monkeypatch, method):
    # an update that overflows inside the step is caught once, before any
    # layer is committed
    trainer = Trainer(desk_config(tmp_path).with_overrides(method=method))
    trainer.step()
    real = getattr(harness, STEP_FUNCTIONS[method])
    calls = []

    def overflowing(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        if len(calls) < 2:
            return out
        if method == "full_ft":
            return (np.full_like(out[0], np.inf), *out[1:])
        layer = out if method == "lora_pro_sgd" else out[0]
        layer.a = np.full_like(layer.a, np.inf)
        return out

    monkeypatch.setattr(harness, STEP_FUNCTIONS[method], overflowing)
    before = _committed(trainer)
    with pytest.raises(NonFiniteError, match=r"step 2: layer 1: new (a|w) contains"):
        trainer.step()
    assert _committed(trainer) == before


def test_failed_step_commits_no_layer(tmp_path, monkeypatch):
    trainer = Trainer(desk_config(tmp_path))
    trainer.step()
    layers = [(layer.b.copy(), layer.a.copy()) for layer in trainer.network.layers]
    states = [(st.m.copy(), st.v.copy(), st.t) for st in trainer.states]
    calls = []
    real_step = harness.lorapro_adamw_step

    def fail_on_second_layer(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected failure on layer 1")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(harness, "lorapro_adamw_step", fail_on_second_layer)
    with pytest.raises(RuntimeError, match="injected"):
        trainer.step()
    assert len(calls) == 2
    assert trainer.step_count == 1
    for layer, (b, a) in zip(trainer.network.layers, layers):
        assert np.array_equal(layer.b, b) and np.array_equal(layer.a, a)
    for st, (m, v, t) in zip(trainer.states, states):
        assert np.array_equal(st.m, m) and np.array_equal(st.v, v) and st.t == t


def test_benchmark_tracer_wraps_a_training_step(tmp_path, monkeypatch):
    # perfbench/tracer.py looks up every watched lorapro function by name; a
    # deletion or rename in the library would break its --trace 1 pass
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    step = vars(Trainer)["step"]
    adjust = harness.adjust
    cfg = desk_config(tmp_path, steps=1)
    recorder = tracer.Tracer()
    with recorder:
        assert vars(Trainer)["step"] is not step
        assert harness.adjust is not adjust
        harness.run(cfg)  # through the module, whose bindings the tracer wraps
    assert vars(Trainer)["step"] is step
    assert harness.adjust is adjust

    names = {span[tracer.NAME] for span in recorder.spans}
    assert {tracer.STEP, tracer.RUN, "harness>gradadjust.adjust"} <= names
    assert any(name.endswith(">linalg.as_matrix") for name in names)
    metrics, counts = tracer.step_metrics(recorder.spans, cfg.method, n_layers=2)
    assert counts["gradadjust.adjust"] > 0 and counts["linalg.as_matrix"] > 0
    assert all(math.isfinite(value) for value in metrics.values())


def _count_calls(monkeypatch, watched) -> dict[str, int]:
    """Count calls of each "module.function" in ``watched``.

    Like perfbench/tracer.py, this replaces every binding of the function in
    the loaded lorapro modules, so calls through any import count.
    "np.linalg.eigh" counts numpy's eigh, which lorapro looks up on
    ``np.linalg`` at each call.
    """
    counts = dict.fromkeys(watched, 0)
    modules = [mod for name, mod in sys.modules.items() if name.startswith("lorapro")]

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for key in watched:
        if key == "np.linalg.eigh":
            monkeypatch.setattr(np.linalg, "eigh", counting(key, np.linalg.eigh))
            continue
        home, func = key.split(".")
        original = getattr(sys.modules[f"lorapro.{home}"], func)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting(key, original))
    return counts


# per desk lora_pro_adamw step (2 layers): the forward pass's effective
# weights and nothing else; the backward and re-projection bundles; the
# inputs of public functions, the gradients, each layer's g_tilde - g and the
# values a step commits, but not the batch, whose rows were checked once with
# the task, nor the pairs the step derives from a checked gradient;
# one Gram eigendecomposition per layer, of the layer the step commits, whose
# geometry gives the rank metrics and serves the next step's solves
DESK_ADAMW_STEP_CALLS = {
    "lora.effective_weight": 2,
    "gradadjust.lora_raw_grads": 4,
    "linalg.as_matrix": 18,
    "linalg.numerical_rank": 0,
    "linalg.sym_eig": 0,
    "np.linalg.eigh": 2,
}
# the other adapter methods: lora_pro_sgd has no re-projection, and a lora
# step has no adjustment, so its geometries give the rank metrics only
DESK_STEP_CALLS = {
    "lora_pro_sgd": {**DESK_ADAMW_STEP_CALLS, "gradadjust.lora_raw_grads": 2,
                     "linalg.as_matrix": 12},
    "lora": {**DESK_ADAMW_STEP_CALLS, "gradadjust.lora_raw_grads": 2, "linalg.as_matrix": 12},
}


def _assert_desk_step_calls(tmp_path, monkeypatch, method, expected, first_eigh):
    trainer = Trainer(desk_config(tmp_path, steps=3).with_overrides(method=method))
    # the first step starts from B = 0 and builds the geometries it starts from
    for eigh in (first_eigh, expected["np.linalg.eigh"]):
        counts = _count_calls(monkeypatch, expected)
        trainer.step()
        monkeypatch.undo()
        assert counts == {**expected, "np.linalg.eigh": eigh}


def test_desk_step_call_counts(tmp_path, monkeypatch):
    _assert_desk_step_calls(tmp_path, monkeypatch, "lora_pro_adamw", DESK_ADAMW_STEP_CALLS, 4)


@pytest.mark.parametrize("method, first_eigh", [("lora_pro_sgd", 4), ("lora", 2)])
def test_desk_adapter_step_call_counts(tmp_path, monkeypatch, method, first_eigh):
    _assert_desk_step_calls(tmp_path, monkeypatch, method, DESK_STEP_CALLS[method], first_eigh)


# per desk step (2 layers): one X = 0 solve per layer serves the discrepancy,
# the certificate and the SGD update; the AdamW update adds the re-projected
# bundle's own adjustment; the Sylvester X is solved once per layer
DESK_STEP_SOLVES = {
    "lora_pro_sgd": {"solve_b": 2, "project_out_b": 2, "solve_a_right": 2, "solve_sylvester": 2},
    "lora_pro_adamw": {"solve_b": 4, "project_out_b": 4, "solve_a_right": 4,
                       "solve_sylvester": 2},
    "lora": {"solve_b": 0, "project_out_b": 0, "solve_a_right": 0, "solve_sylvester": 0},
}


@pytest.mark.parametrize("method", sorted(DESK_STEP_SOLVES))
def test_desk_step_solves_once_per_layer_step(tmp_path, monkeypatch, method):
    counts = dict.fromkeys(DESK_STEP_SOLVES[method], 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in counts:
        monkeypatch.setattr(TangentGeometry, name, counting(name, getattr(TangentGeometry, name)))
    trainer = Trainer(desk_config(tmp_path, steps=3).with_overrides(method=method))
    for _ in range(2):  # from B = 0, then from the carried geometries
        trainer.step()
        assert counts == DESK_STEP_SOLVES[method]
        counts.update(dict.fromkeys(counts, 0))


def _pair_as_adjust_formed_it(layer, bundle, strategy, policy, geometry):
    """The adjusted pair by separate solves: choose_x's X, then the base pair's own."""
    if geometry.passthrough:
        return bundle.g_a_lora.copy(), bundle.g_b_lora.copy()
    x = choose_x(layer, bundle, strategy, policy, geometry=geometry)
    s = layer.scaling
    base_a = geometry.solve_b(bundle.g_a_lora)[0] / s**2
    base_b = geometry.solve_a_right(geometry.project_out_b(bundle.g_b_lora))[0] / s**2
    return base_a + x @ layer.a, base_b - layer.b @ x


def _reference_step(trainer):
    """One LoRA-Pro step of ``trainer`` from separate calls, committing nothing.

    The metric's X = 0 pair, a certificate that forms its own products, and
    the update's own adjustment each solve for themselves. Returns the loss,
    and per layer the new (w0, b, a), the new AdamW state and the CSV metrics.
    """
    cfg, policy = trainer.config, trainer.policy
    lr = lr_at(trainer.hp, trainer.step_count, cfg.steps)
    hp = dataclasses.replace(trainer.hp, lr=lr)
    loss, cache = forward(trainer.network, trainer._draw_batch())
    out = []
    for i, (layer, bundle) in enumerate(zip(trainer.network.layers,
                                            backward(trainer.network, cache))):
        geometry = TangentGeometry(layer, policy)
        g_a, g_b = _pair_as_adjust_formed_it(layer, bundle, "zero", policy, geometry)
        g_tilde = equivalent_gradient(layer, g_a, g_b)
        discrepancy = float(np.linalg.norm(g_tilde - bundle.g_full))
        certificate = None
        if not geometry.passthrough:
            by_hand = AdjustedGrads(g_a=g_a, g_b=g_b, x=np.zeros((2, 2)), x_strategy="zero")
            certificate = loss_decrease_certificate(layer, bundle, by_hand, lr, policy,
                                                    geometry=geometry)
        state = None
        if cfg.method == "lora_pro_sgd":
            g_a, g_b = _pair_as_adjust_formed_it(layer, bundle, cfg.x_strategy, policy, geometry)
        else:
            direction, state = adamw_transform(trainer.states[i], g_tilde, hp)
            reprojected = lora_raw_grads(layer, direction)
            g_a, g_b = _pair_as_adjust_formed_it(layer, reprojected, cfg.x_strategy, policy,
                                                 geometry)
            layer = apply_decayed_merge_step(layer, lr, hp.weight_decay)
        b, a = layer.b - lr * g_b, layer.a - lr * g_a
        metrics = (discrepancy, numerical_rank(a), numerical_rank(b), certificate)
        out.append(((layer.w0, b, a), state, metrics))
    return loss, out


@pytest.mark.parametrize("policy", [{}, {"damping": 0.0, "fallback": "passthrough"}],
                         ids=["damp", "passthrough"])
@pytest.mark.parametrize("strategy", X_STRATEGIES)
@pytest.mark.parametrize("method", ["lora_pro_sgd", "lora_pro_adamw"])
def test_one_solve_per_layer_step_changes_no_bit(tmp_path, method, strategy, policy):
    # the step shares one X = 0 solve between the metric, the certificate and
    # the update; from B = 0, five steps must land on the bytes of separate
    # solves, passthrough steps included
    decay = 0.1 if method == "lora_pro_adamw" else 0.0
    cfg = desk_config(tmp_path, steps=5).with_overrides(
        method=method, x_strategy=strategy, lr=0.05, weight_decay=decay, **policy
    )
    trainer = Trainer(cfg)
    passthrough_steps = 0
    for _ in range(5):
        draw = trainer.data_rng.bit_generator.state
        loss, want = _reference_step(trainer)
        trainer.data_rng.bit_generator.state = draw
        record = trainer.step()
        assert record.train_loss == loss
        passthrough_steps += record.per_layer[0].dl_certificate is None
        for i, ((w0, b, a), state, metrics) in enumerate(want):
            layer = trainer.network.layers[i]
            for got, expect in ((layer.w0, w0), (layer.b, b), (layer.a, a)):
                assert got.tobytes() == expect.tobytes()
            if state is not None:
                got = trainer.states[i]
                assert (got.m.tobytes(), got.v.tobytes(), got.t) == (
                    state.m.tobytes(), state.v.tobytes(), state.t)
            lm = record.per_layer[i]
            assert (lm.discrepancy, lm.rank_a, lm.rank_b, lm.dl_certificate) == metrics
    assert passthrough_steps == (2 if policy else 0)  # lr 0 at step 1 keeps B = 0 for step 2


def test_compare_needs_two_methods(tmp_path):
    with pytest.raises(ConfigError):
        compare(small_config(tmp_path), ["full_ft"])


def test_compare_rejects_unknown_method(tmp_path):
    with pytest.raises(ConfigError, match="adamax"):
        compare(small_config(tmp_path), ["lora", "adamax"])


def test_compare_duplicate_method_identical_columns(tmp_path):
    cfg = small_config(tmp_path, steps=10)
    result = compare(cfg, ["lora", "lora"])
    assert result.labels == ["lora", "lora_2"]
    a = result.results["lora"]
    b = result.results["lora_2"]
    assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]


def test_compare_emits_aligned_columns_and_verdicts(tmp_path):
    cfg = small_config(tmp_path, steps=12)
    result = compare(cfg, ["lora", "lora_pro_adamw"])
    header = Path(result.csv_path).read_text().splitlines()[0].split(",")
    assert header == ["step", "lr", "loss_lora", "disc_lora",
                      "loss_lora_pro_adamw", "disc_lora_pro_adamw"]
    payload = json.loads(Path(result.json_path).read_text())
    v = payload["verdicts"]
    assert set(v["final_loss"]) == {"lora", "lora_pro_adamw"}
    assert isinstance(v["lora_pro_discrepancy_below_lora"], bool)
    assert sorted(v["final_loss_ordering"]) == ["lora", "lora_pro_adamw"]


def test_full_rank_limit_run_matches_full_fine_tuning(tmp_path):
    # all layers square with adapter rank equal to the dimension: the
    # adjusted AdamW run and direct full fine-tuning land on the same loss
    cfg = RunConfig(
        task="teacher_student_regression",
        task_params={"d_in": 4, "d_hidden": 4, "d_out": 4, "n_samples": 64,
                     "noise_sd": 0.0, "perturb_rank": 2, "perturb_scale": 0.5},
        method="lora_pro_adamw", steps=60, batch_size=64, seed=3,
        out_dir=str(tmp_path / "fr"), rank=4, alpha=4.0, scaling="lora",
        init="gaussian_both", schedule="constant", lr=5e-4,
    )
    result = compare(cfg, ["lora_pro_adamw", "full_ft"])
    losses = result.verdicts["final_loss"]
    assert abs(losses["lora_pro_adamw"] - losses["full_ft"]) < 1e-4


def test_selfcheck_passes_and_is_seed_stable():
    names = None
    for seed in (1, 2, 3, 4, 5):
        report = run_selfcheck(seed=seed)
        assert report.passed, [r.line() for r in report.results if not r.passed]
        current = [r.name for r in report.results]
        assert names is None or current == names
        names = current


def test_selfcheck_flags_corrupted_adjustment():
    from lorapro.gradadjust import adjust

    def corrupted(layer, bundle, strategy="sylvester", policy=None, x_override=None,
                  geometry=None):
        out = adjust(layer, bundle, strategy=strategy, policy=policy,
                     x_override=x_override, geometry=geometry)
        out.g_a = -out.g_a  # sign flip: optimality and descent both break
        return out

    report = run_selfcheck(seed=0, adjust_fn=corrupted)
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert "adjustment_optimality_vs_bruteforce" in failed
    for r in report.results:
        if not r.passed:
            assert r.worst > r.tolerance


def test_selfcheck_scan_alone_flags_a_non_optimal_x():
    # B @ M added to g_b_lora: the Sylvester equation reads only g_a_lora, so
    # X* still solves it but no longer minimizes the departure; only the scan
    # can tell
    rng = np.random.default_rng(49)
    instances = random_instances(0, count=20)
    offset = [
        (layer, GradBundle(g_a_lora=bundle.g_a_lora,
                           g_b_lora=bundle.g_b_lora + layer.b @ rng.normal(size=(layer.rank,) * 2)))
        for layer, bundle in instances
    ]
    assert check_sylvester_x_optimality(instances).passed
    result = check_sylvester_x_optimality(offset)
    assert not result.passed
    assert result.worst > 0.1
    assert float(result.detail.removeprefix("max residual ")) <= 1e-12


def test_sylvester_x_optimality_fails_on_a_nan_objective(monkeypatch):
    import lorapro.selfcheck as selfcheck

    scan = selfcheck.x_objective_scan
    monkeypatch.setattr(selfcheck, "x_objective_scan", lambda *args: np.nan * scan(*args))
    result = check_sylvester_x_optimality(random_instances(0, count=3))
    assert not result.passed and math.isnan(result.worst)


def test_oracle_consistency_fails_on_a_nan_residual(monkeypatch):
    # a NaN on the second instance must survive the finite errors after it
    import lorapro.selfcheck as selfcheck

    real = selfcheck.projection_residual_norm_sq
    calls = []

    def nan_on_second_call(layer, g):
        calls.append(None)
        return np.nan if len(calls) == 2 else real(layer, g)

    monkeypatch.setattr(selfcheck, "projection_residual_norm_sq", nan_on_second_call)
    result = check_oracle_consistency(oracle_minima(random_instances(0, count=5)))
    assert len(calls) == 5
    assert not result.passed and math.isnan(result.worst)
    assert result.line().startswith("FAIL oracle_self_consistency")


def test_sylvester_x_optimality_scan_call_count(monkeypatch):
    # X* once, then one stack of perturbations per magnitude (3), per instance
    instances = random_instances(0, count=7)
    counts = _count_calls(monkeypatch, ("oracle.x_objective_scan",))
    assert check_sylvester_x_optimality(instances).passed
    assert counts == {"oracle.x_objective_scan": 7 * (1 + 3)}


def test_selfcheck_shares_geometries_and_oracle_minima(monkeypatch):
    # one TangentGeometry per instance in each of the six properties that adjust
    # or solve on the 200 instances, plus one per certificate_first_order layer
    # (10); each oracle minimum once per instance; and finite-difference probes
    # that build no layer or network
    import lorapro.gradadjust as gradadjust
    import lorapro.selfcheck as selfcheck

    counts = _count_calls(
        monkeypatch, ("oracle.brute_force_optimal_grads", "oracle.projection_residual_norm_sq")
    )
    built = {"TangentGeometry": 0, "probes": 0, "LoraLayer in probes": 0,
             "Network in probes": 0}
    probing = []

    def counting_init(cls, key):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            if key == "TangentGeometry" or probing:
                built[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    counting_init(gradadjust.TangentGeometry, "TangentGeometry")
    counting_init(LoraLayer, "LoraLayer in probes")
    counting_init(model.Network, "Network in probes")
    finite_diff_grad = selfcheck.finite_diff_grad

    def probed(f, at, h):
        def probe(w0):
            probing.append(None)
            try:
                return f(w0)
            finally:
                probing.pop()
                built["probes"] += 1

        return finite_diff_grad(probe, at, h)

    monkeypatch.setattr(selfcheck, "finite_diff_grad", probed)
    assert run_selfcheck(seed=0).passed
    assert counts == {"oracle.brute_force_optimal_grads": 200,
                      "oracle.projection_residual_norm_sq": 200}
    assert built["probes"] > 0
    assert built == {"TangentGeometry": 6 * 200 + 10, "probes": built["probes"],
                     "LoraLayer in probes": 0, "Network in probes": 0}


@pytest.mark.parametrize("loss_kind", model.LOSS_KINDS)
@pytest.mark.parametrize("activation", model.ACTIVATIONS)
def test_selfcheck_probe_loss_matches_a_rebuilt_network_bit_for_bit(loss_kind, activation):
    # a probe adds the held s*B*A product to the probed w0; the network it
    # replaces rebuilt the layer and the network around that w0 for every probe
    import lorapro.selfcheck as selfcheck

    rng = np.random.default_rng(71)
    for _ in range(4):
        net, batch = selfcheck._random_network(rng, loss_kind, (activation,))
        # a scaling other than 1, so that where it is applied shows in the bits
        net.layers = [dataclasses.replace(layer, alpha=1.5 * layer.rank) for layer in net.layers]
        _, cache = model.forward(net, batch)
        for i, old in enumerate(net.layers):
            probe = selfcheck._loss_at_w0(net, batch, cache.weights, i)
            for w0 in (old.w0, old.w0 + 1e-5 * rng.normal(size=old.shape)):
                layers = list(net.layers)
                layers[i] = LoraLayer(w0=w0, b=old.b, a=old.a, alpha=old.alpha,
                                      rank=old.rank, scaling_mode=old.scaling_mode)
                rebuilt = model.Network(layers, net.activations, net.loss_kind)
                assert probe(w0) == model.forward(rebuilt, batch)[0]


def test_selfcheck_oracle_that_raises_fails_both_properties_that_read_it(monkeypatch):
    import lorapro.selfcheck as selfcheck
    from lorapro.errors import RankDeficiencyError

    def raising(layer, g):
        raise RankDeficiencyError("injected")

    monkeypatch.setattr(selfcheck, "brute_force_optimal_grads", raising)
    report = run_selfcheck(seed=0)
    failed = {r.name: r for r in report.results if not r.passed}
    assert set(failed) == {"oracle_self_consistency", "adjustment_optimality"}
    for result in failed.values():
        assert result.detail == "raised RankDeficiencyError: injected"


def test_cli_run_compare_selfcheck(tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "\n".join(
            [
                "[run]",
                "task = teacher_student_regression",
                "method = lora_pro_adamw",
                "steps = 8",
                "batch_size = 8",
                "seed = 2",
                f"out_dir = {tmp_path / 'cli_out'}",
                "",
                "[task]",
                "d_in = 5",
                "d_hidden = 6",
                "d_out = 2",
                "n_samples = 32",
                "perturb_rank = 2",
                "",
                "[adapter]",
                "rank = 2",
                "",
                "[optimizer]",
                "lr = 1e-3",
            ]
        )
    )
    assert cli_main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "cli_out" / "metrics.csv").exists()
    assert (tmp_path / "cli_out" / "summary.json").exists()
    assert (tmp_path / "cli_out" / "checkpoint.bin").exists()

    assert cli_main([
        "compare", "--config", str(config_path),
        "--methods", "lora,lora_pro_adamw",
        "--out", str(tmp_path / "cli_cmp"),
    ]) == 0
    assert (tmp_path / "cli_cmp" / "comparison.csv").exists()
    out = capsys.readouterr().out
    assert "final_loss" in out


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\ntask = teacher_student_regression\nstepz = 5\n")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "stepz" in capsys.readouterr().err


def test_cli_selfcheck_json(capsys):
    assert cli_main(["selfcheck", "--seed", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert any(p["name"] == "oracle_self_consistency" for p in report["properties"])


def test_diverging_run_ends_in_the_typed_error_alone(tmp_path):
    # the shipped config's lora_pro_sgd at lr 1 overflows the certificate's
    # inner products at step 101; with warnings as errors, that must still end
    # in NonFiniteError, not in a numpy RuntimeWarning
    text = (ROOT / "configs" / "teacher_student.cfg").read_text(encoding="utf-8")
    cfg = parse_config_text(text).with_overrides(
        method="lora_pro_sgd", lr=1.0, out_dir=str(tmp_path / "lr1")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="aborting at step 101: certificate"):
            run(cfg)


def test_diverging_forward_loss_ends_in_the_typed_error_alone(tmp_path):
    # the shipped config's lora_pro_sgd at lr 10 with X = 0 overflows the
    # forward pass's squared residual at step 38; with warnings as errors,
    # that must still end in NonFiniteError, not in a numpy RuntimeWarning
    text = (ROOT / "configs" / "teacher_student.cfg").read_text(encoding="utf-8")
    cfg = parse_config_text(text).with_overrides(
        method="lora_pro_sgd", lr=10.0, x_strategy="zero", out_dir=str(tmp_path / "lr10")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="aborting at step 38: forward produced"):
            run(cfg)


def test_non_finite_loss_aborts_with_step_index(tmp_path):
    from lorapro.errors import NonFiniteError

    cfg = small_config(tmp_path)
    trainer = Trainer(cfg)
    trainer.task.inputs = trainer.task.inputs * 1e200
    trainer.task.targets = trainer.task.targets * -1e200
    with pytest.raises(NonFiniteError, match="step 1"):
        trainer.step()


@pytest.mark.parametrize("method", ["lora_pro_sgd", "lora_pro_adamw"])
def test_passthrough_without_damping_trains_from_zero_b(tmp_path, method):
    # B starts at zero: step 1 must pass the raw gradients through without
    # factoring the singular, undamped B^T B
    cfg = small_config(tmp_path, method=method, steps=3, damping=0.0, fallback="passthrough")
    trainer = Trainer(cfg)
    records = [trainer.step() for _ in range(3)]
    assert all(math.isfinite(rec.train_loss) for rec in records)
    assert all(lm.dl_certificate is None for lm in records[0].per_layer)
    assert all(lm.dl_certificate is not None for lm in records[-1].per_layer)


def test_metrics_csv_bytes_reproduce_at_one_blas_thread(tmp_path):
    # README: identical config and seed give identical metrics.csv bytes at a
    # fixed BLAS thread setting; two fresh interpreters, wide shapes, 1 thread
    import lorapro

    script = textwrap.dedent(
        """
        import sys
        from lorapro.config import RunConfig
        from lorapro.harness import run

        run(RunConfig(
            task="teacher_student_regression",
            task_params={"d_in": 256, "d_hidden": 512, "d_out": 128, "n_samples": 1024,
                         "noise_sd": 0.01, "perturb_rank": 4, "perturb_scale": 0.5},
            method="lora_pro_adamw", steps=5, batch_size=64, seed=7, out_dir=sys.argv[1],
            rank=8, alpha=16.0, scaling="rslora",
        ))
        """
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(lorapro.__file__).resolve().parents[1]))
    written = []
    for name in ("first", "second"):
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / name)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        written.append((tmp_path / name / "metrics.csv").read_bytes())
    assert len(written[0].splitlines()) == 1 + 5 * 2  # header, then 5 steps x 2 layers
    assert written[0] == written[1]


def test_training_loads_one_blas_runtime(tmp_path):
    import lorapro

    script = textwrap.dedent(
        """
        import fnmatch, json, os, sys
        from lorapro.config import parse_config_file
        from lorapro.harness import Trainer

        cfg = parse_config_file(sys.argv[1]).with_overrides(out_dir=sys.argv[2])
        Trainer(cfg).step()
        blas = None
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as fh:
                paths = {line.split()[-1] for line in fh if len(line.split()) >= 6}
            blas = sorted(p for p in paths if fnmatch.fnmatch(os.path.basename(p), "*openblas*"))
        print(json.dumps({"scipy": "scipy" in sys.modules, "openblas": blas}))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lorapro.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "configs" / "teacher_student.cfg"),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert loaded["scipy"] is False
    if loaded["openblas"] is not None:
        assert len(loaded["openblas"]) == 1, loaded["openblas"]
