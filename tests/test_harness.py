import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_layer_is_value

import lorapro.checkpoint as checkpoint
import lorapro.harness as harness
import lorapro.model as model
from lorapro.checkpoint import load_checkpoint, save_checkpoint
from lorapro.cli import main as cli_main
from lorapro.config import RunConfig, parse_config_text
from lorapro.errors import (
    CheckpointError,
    ConfigError,
    FactorizationError,
    LoraProError,
    NonFiniteError,
    ShapeError,
    SpectrumError,
)
from lorapro.gradadjust import (
    X_STRATEGIES,
    GradBundle,
    TangentGeometry,
    equivalent_gradient,
    lora_raw_grads,
)
from lorapro.harness import CSV_HEADER, STATE_SHAPES, Trainer, _rows, compare, discrepancy, run
from lorapro.linalg import numerical_rank
from lorapro.lora import LoraLayer, apply_decayed_merge_step, derived, effective_weight
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
METHODS = ("lora", "lora_pro_sgd", "lora_pro_adamw", "full_ft")


def _csv_rows(records) -> list[str]:
    """The metrics.csv rows, header aside, that ``run`` writes for ``records``."""
    return [line for record in records for line in _rows(record)]


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
    # every layer-step from B = 0 on is adjusted and certified, step 1 included
    assert all(float(line.rsplit(",", 1)[1]) <= harness.CERTIFICATE_CEILING
               for line in lines[1:])
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


# a restore computes each layer's scaling from the config, as a new trainer's
# init_layer does, so under either mode the two must agree bit for bit
@pytest.mark.parametrize("method, scaling", [(m, "rslora") for m in METHODS]
                         + [(m, "lora") for m in METHODS],
                         ids=list(METHODS) + [f"{m}-scaling=lora" for m in METHODS])
def test_checkpoint_resume_is_bit_identical(tmp_path, method, scaling):
    cfg = small_config(tmp_path, method=method, steps=24, scaling=scaling)
    full = Trainer(cfg)
    full_rows = [full.step() for _ in range(24)]

    half = Trainer(cfg)
    head = [half.step() for _ in range(12)]
    ckpt = tmp_path / "state.bin"
    half.save(ckpt)
    resumed = Trainer.from_checkpoint(cfg, ckpt)
    # what bench.py's checkpoint check compares: the attributes of a new trainer
    assert vars(resumed).keys() == vars(Trainer(cfg)).keys()
    assert resumed.geometries == [None, None]
    tail = [resumed.step() for _ in range(12)]

    assert _csv_rows(full_rows) == _csv_rows(head + tail)


@pytest.mark.parametrize("method", METHODS)
def test_every_state_counts_the_trainers_steps(tmp_path, method):
    # a checkpoint holds no AdamW step counts: a restore sets each from step_count
    trainer = Trainer(small_config(tmp_path, method=method))
    for _ in range(3):
        trainer.step()
    counts = [state.t for state in trainer.states]
    assert counts == [trainer.step_count] * (2 * len(STATE_SHAPES[method]))


@pytest.mark.parametrize("method", METHODS)
def test_checkpoint_passes_the_benchmark_bit_identity_check(tmp_path, monkeypatch, method):
    # perfbench/bench.py compares a saved and a restored trainer through
    # trainer_arrays, which reads the state attributes by name: an array it
    # does not read would drop out of that check unseen
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from bench import bit_identical, trainer_arrays

    cfg = small_config(tmp_path, method=method)
    trainer = Trainer(cfg)
    for _ in range(3):
        trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    compared = trainer_arrays(trainer)
    assert bit_identical(compared, trainer_arrays(Trainer.from_checkpoint(cfg, ckpt)))
    layers = [f"layer{i}/{part}" for i in range(2) for part in ("w0", "b", "a")]
    saved = sorted(load_checkpoint(str(ckpt))[1])
    assert saved == sorted([*layers, *trainer.state_arrays()])
    assert {name.replace("/", ".") for name in saved} <= compared.keys()


def _held_arrays(trainer) -> list[np.ndarray]:
    """Every distinct array the trainer holds, outside its task's data."""
    held, todo = {}, [value for name, value in vars(trainer).items() if name != "task"]
    while todo:
        value = todo.pop()
        if isinstance(value, np.ndarray):
            held[id(value)] = value
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        elif dataclasses.is_dataclass(value):
            todo.extend(vars(value).values())
    return list(held.values())


@pytest.mark.parametrize("init", ["standard", "gaussian_both"])
def test_full_ft_trains_its_merged_layer(tmp_path, init):
    # full_ft merges each adapter into w0 and trains it there: per layer the
    # trainer holds w0 and its two moments, and no second copy of the weight
    cfg = small_config(tmp_path, method="full_ft", init=init)
    trainer = Trainer(cfg)
    for _ in range(3):
        trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    for held_by in (trainer, Trainer.from_checkpoint(cfg, ckpt)):
        shapes = [arr.shape for arr in _held_arrays(held_by)]
        for layer in held_by.network.layers:
            assert shapes.count(layer.shape) == 3
            assert np.array_equal(effective_weight(layer), layer.w0)
            assert not layer.b.any()


@pytest.mark.parametrize("init", ["standard", "gaussian_both"])
@pytest.mark.parametrize("strategy", X_STRATEGIES)
@pytest.mark.parametrize("method", ["lora_pro_sgd", "lora_pro_adamw"])
def test_rank_lost_mid_run_keeps_training_sound(tmp_path, method, strategy, init):
    # layer 0 loses a column of B between steps, and every later step stays
    # finite and certified
    trainer = Trainer(small_config(tmp_path, method=method, x_strategy=strategy, init=init,
                                   steps=13))
    for _ in range(3):
        trainer.step()
    layer = trainer.network.layers[0]
    b = layer.b.copy()
    b[:, 0] = 0.0
    trainer.network.layers[0] = dataclasses.replace(layer, b=b)
    for _ in range(10):
        record = trainer.step()
        assert math.isfinite(record.train_loss)
        for metrics in record.per_layer:
            assert metrics.dl_certificate <= harness.CERTIFICATE_CEILING


def _new_layer(old):
    return LoraLayer(
        w0=old.w0, b=2.0 * old.b, a=old.a[::-1].copy(), scaling=old.scaling,
    )


def _reassign_b(layer):
    with pytest.raises(dataclasses.FrozenInstanceError):
        layer.b = 3.0 * layer.b
    return dataclasses.replace(layer, b=3.0 * layer.b)


def _twin(layer):
    return dataclasses.replace(layer)  # equal in value, over the same arrays


def _write_into_b(layer):
    with pytest.raises(ValueError, match="read-only"):
        layer.b[...] *= 3.0
    return layer


LORA_PRO_METHODS = ("lora_pro_sgd", "lora_pro_adamw")


@pytest.mark.parametrize(
    "method, change",
    [pytest.param(m, _new_layer, id=m) for m in LORA_PRO_METHODS]
    + [pytest.param(m, _reassign_b, id=f"{m}-reassign_b") for m in LORA_PRO_METHODS]
    + [pytest.param(m, _twin, id=f"{m}-twin") for m in LORA_PRO_METHODS]
    + [pytest.param(m, _write_into_b, id=f"{m}-write_into_b") for m in LORA_PRO_METHODS],
)
def test_replaced_layer_gets_a_fresh_geometry(tmp_path, method, change):
    # the trainer keeps each committed layer's geometry for the next step; a
    # layer put in its place between steps, even one equal in value, must not
    # be solved in the old one (adjust would refuse it), and a committed
    # layer cannot be changed
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
    assert _csv_rows(rows) == _csv_rows(expected)


@pytest.mark.parametrize("method", METHODS)
def test_trainer_holds_every_layer_as_a_value(tmp_path, method):
    # after init, after a step and after a restore: an adapter layer shares
    # the task's read-only base weight as its w0, full_ft's merged w0 is its
    # own, and a step's or a restore's arrays alias none a layer held before
    cfg = small_config(tmp_path, method=method, steps=4)
    trainer = Trainer(cfg)
    for layer, base in zip(trainer.network.layers, trainer.task.base_weights, strict=True):
        if method == "full_ft":
            assert_layer_is_value(layer, copied=[base])
        else:
            assert_layer_is_value(layer, shared={"w0": base})
    for _ in range(2):  # the first step's warmup lr is 0
        before = list(trainer.network.layers)
        trainer.step()
        for old, layer in zip(before, trainer.network.layers, strict=True):
            if method == "full_ft":
                assert_layer_is_value(layer, copied=[old.w0], shared={"b": old.b, "a": old.a})
            else:
                assert_layer_is_value(layer, copied=[old.b, old.a], shared={"w0": old.w0})
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    restored = Trainer.from_checkpoint(cfg, ckpt)
    for old, layer in zip(trainer.network.layers, restored.network.layers, strict=True):
        assert_layer_is_value(layer, copied=[old.w0, old.b, old.a])


def test_checkpoint_rejects_other_config(tmp_path):
    cfg = small_config(tmp_path)
    trainer = Trainer(cfg)
    trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    with pytest.raises(ConfigError, match=r"config key '\[optimizer\] lr' is 0.005 in the file, "
                                          r"0.0001 in the run") as excinfo:
        Trainer.from_checkpoint(cfg.with_overrides(lr=1e-4), ckpt)
    assert str(ckpt) in str(excinfo.value)


# layer 0's states come first in Trainer.states, so layer 1's first is at
# the count of one layer's states
FIRST_STATE_OF_LAYER_1 = {method: f"states{len(STATE_SHAPES[method])}/m"
                          for method in ("lora", "lora_pro_adamw", "full_ft")}


def _saved_after_one_step(tmp_path, cfg):
    """A checkpoint of ``cfg``'s trainer after one step: its path, header and arrays."""
    trainer = Trainer(cfg)
    trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    return (ckpt, *load_checkpoint(str(ckpt)))


@pytest.mark.parametrize("method", sorted(FIRST_STATE_OF_LAYER_1))
def test_checkpoint_with_wrong_state_count_raises_typed_error(tmp_path, method):
    # each restored state is built from the checkpoint alone; a file without
    # layer 1's states names the first one missing
    missing = FIRST_STATE_OF_LAYER_1[method]
    cfg = small_config(tmp_path, method=method)
    ckpt, meta, arrays = _saved_after_one_step(tmp_path, cfg)
    per_layer = len(STATE_SHAPES[method])
    for j in range(per_layer, 2 * per_layer):
        del arrays[f"states{j}/m"], arrays[f"states{j}/v"]
    save_checkpoint(str(ckpt), meta, arrays)
    with pytest.raises(CheckpointError, match=f"array '{missing}' is missing in the file"):
        Trainer.from_checkpoint(cfg, ckpt)


def _rank_one(arrays):
    # layer 0's factors of a valid adapter at rank 1, where the run has 2
    arrays["layer0/b"] = arrays["layer0/b"][:, :1]
    arrays["layer0/a"] = arrays["layer0/a"][:1]


def _drop_last_layer(arrays):
    for part in ("w0", "b", "a"):
        del arrays[f"layer1/{part}"]


def _repeat_first_layer(arrays):
    for part in ("w0", "b", "a"):
        arrays[f"layer2/{part}"] = arrays[f"layer0/{part}"]


def _transpose_first_state(arrays):
    arrays["states0/m"] = arrays["states0/m"].T
    arrays["states0/v"] = arrays["states0/v"].T


def _nan_in_w0(arrays):
    arrays["layer0/w0"][0, 0] = np.nan


def _negative_second_moment(arrays):
    arrays["states1/v"][0, 0] = -1.0


def _add_unmerged_weight(arrays):
    # a full_ft checkpoint of a trainer that kept its weight beside the layer
    arrays["weights0"] = arrays["layer0/w0"].copy()


def _nonzero_b(arrays):
    arrays["layer1/b"][0, 0] = 1.0


# (method, damage to the arrays, what the error says): the first array of
# the sorted names that is missing, extra or of another shape, or the array
# whose values the restore refuses
LAYER_LIST_DAMAGE = {
    "short": ("lora_pro_sgd", _drop_last_layer,
              r"array 'layer1/a' is missing in the file, \(2, 3\) in the run"),
    "long": ("lora_pro_sgd", _repeat_first_layer,
             r"array 'layer2/a' is \(2, 10\) in the file, missing in the run"),
    "other_rank": ("lora_pro_sgd", _rank_one,
                   r"array 'layer0/a' is \(1, 10\) in the file, \(2, 10\) in the run"),
    # a restore used to take these, and the next step failed without naming the file
    "state_transposed": ("lora_pro_adamw", _transpose_first_state,
                         r"array 'states0/m' is \(10, 6\) in the file, \(6, 10\) in the run"),
    "unmerged_full_ft": ("full_ft", _add_unmerged_weight,
                         r"array 'weights0' is \(6, 10\) in the file, missing in the run"),
    # arrays of the right shapes, whose values no trainer can have saved
    "nan_w0": ("lora_pro_sgd", _nan_in_w0, "array 'layer0/w0' contains non-finite"),
    "negative_second_moment": ("lora_pro_adamw", _negative_second_moment,
                               "array 'states1/v' has a negative second moment"),
    "full_ft_nonzero_b": ("full_ft", _nonzero_b, "array 'layer1/b' is not zero"),
}


@pytest.mark.parametrize("damage", sorted(LAYER_LIST_DAMAGE))
def test_checkpoint_layer_list_must_match_the_run(tmp_path, damage):
    # a checkpoint re-saved with other arrays: the restore compares every
    # array's name and shape with checkpoint_shapes before it builds anything,
    # and names an array whose values no trainer saves
    method, rewrite, message = LAYER_LIST_DAMAGE[damage]
    cfg = small_config(tmp_path, method=method)
    ckpt, meta, arrays = _saved_after_one_step(tmp_path, cfg)
    rewrite(arrays)
    save_checkpoint(str(ckpt), meta, arrays)
    with pytest.raises(CheckpointError, match=message) as excinfo:
        Trainer.from_checkpoint(cfg, ckpt)
    assert str(ckpt) in str(excinfo.value)


# (method, header edit, the field the error names)
HEADER_DAMAGE = {
    "no_step_count": ("lora_pro_adamw", lambda meta: meta.pop("step_count"), "step_count"),
    "negative_step_count": ("lora_pro_adamw", lambda meta: meta.update(step_count=-1),
                            "step_count"),
    "negative_step_count_sgd": ("lora_pro_sgd", lambda meta: meta.update(step_count=-1),
                                "step_count"),
    "no_data_rng_state": ("lora_pro_adamw", lambda meta: meta.pop("data_rng_state"),
                          "data_rng_state"),
    "other_generator": ("lora_pro_adamw",
                        lambda meta: meta.update(data_rng_state=np.random.PCG64DXSM(0).state),
                        "data_rng_state"),
}


@pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
def test_checkpoint_header_fields_raise_typed_errors(tmp_path, damage):
    # a header re-saved without a field, or with one out of range: these used
    # to end in a bare KeyError or ValueError, or to restore without error
    method, edit, field = HEADER_DAMAGE[damage]
    cfg = small_config(tmp_path, method=method)
    ckpt, meta, arrays = _saved_after_one_step(tmp_path, cfg)
    edit(meta)
    save_checkpoint(str(ckpt), meta, arrays)
    with pytest.raises(CheckpointError, match=f"header field '{field}'") as excinfo:
        Trainer.from_checkpoint(cfg, ckpt)
    assert str(ckpt) in str(excinfo.value)


@pytest.mark.parametrize("meta", [["trainer-state"], "trainer-state", None],
                         ids=["list", "str", "null"])
def test_checkpoint_whose_meta_is_not_an_object_raises_typed_error(tmp_path, meta):
    # save_checkpoint refuses a meta its reader would refuse, before it
    # touches the file: an earlier checkpoint at the path keeps its bytes
    cfg = small_config(tmp_path)
    ckpt, _, arrays = _saved_after_one_step(tmp_path, cfg)
    earlier = ckpt.read_bytes()
    with pytest.raises(CheckpointError, match="'meta' must be a dict"):
        save_checkpoint(str(ckpt), meta, arrays)
    assert ckpt.read_bytes() == earlier
    assert [p.name for p in ckpt.parent.iterdir()] == [ckpt.name]
    # a header whose meta is valid JSON but no object, in a file whose
    # SHA-256 holds: the restore used to end in a bare AttributeError on meta.get
    ckpt.write_bytes(_whole_payload_file(meta, arrays))
    for restore in (lambda: load_checkpoint(str(ckpt)), lambda: Trainer.from_checkpoint(cfg, ckpt)):
        with pytest.raises(CheckpointError, match="header field 'meta' must be an object") as excinfo:
            restore()
        assert str(ckpt) in str(excinfo.value)


@pytest.mark.parametrize("rename", ["int", "repeated"])
def test_checkpoint_whose_array_names_are_not_distinct_strings_raises_typed_error(tmp_path, rename):
    # in a file whose SHA-256 holds: an int name ended the restore in a bare
    # TypeError from comparing it with the expected names, and a repeated name
    # loaded one array, the last
    cfg = small_config(tmp_path)
    ckpt, meta, arrays = _saved_after_one_step(tmp_path, cfg)
    names = sorted(arrays)
    names[0] = 0 if rename == "int" else names[1]
    ckpt.write_bytes(_whole_payload_file(meta, arrays, names))
    for restore in (lambda: load_checkpoint(str(ckpt)), lambda: Trainer.from_checkpoint(cfg, ckpt)):
        with pytest.raises(CheckpointError, match="undecodable header.*is not a string or is "
                                                  "repeated") as excinfo:
            restore()
        assert str(ckpt) in str(excinfo.value)


def _flip_bit(data: bytes, offset: int, bit: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= 1 << bit
    return bytes(out)


def _edit_step_count(data: bytes) -> bytes:
    # a valid-JSON edit of the same length, which only the hash can catch
    edited = data.replace(b'"step_count": 1', b'"step_count": 7', 1)
    assert edited != data
    return edited


HEADER_AT = 16  # 8-byte magic, then the 8-byte header length
CHECKPOINT_DAMAGE = {
    "format_2": lambda data: b"LRPCKP02" + data[8:],
    "edited_header": _edit_step_count,
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
    if damage == "format_2":
        assert "LRPCKP02" in str(excinfo.value)
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


def _whole_payload_file(meta: dict, arrays: dict, names: list | None = None) -> bytes:
    """A format-3 checkpoint assembled in memory, payload and all, as a reference;
    ``names``, if given, stand in the array table for the sorted names, one for one."""
    table, payload = [], bytearray()
    for i, name in enumerate(sorted(arrays)):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        label = name if names is None else names[i]
        table.append({"name": label, "rows": arr.shape[0], "cols": arr.shape[1]})
        payload += arr.astype("<f8").tobytes(order="C")
    header = json.dumps({"meta": meta, "arrays": table}, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(header + payload).digest()
    return checkpoint.MAGIC + struct.pack("<Q", len(header)) + header + digest + bytes(payload)


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


def _step_and_save_over(tmp_path, method):
    """Two steps' and two saves' peaks above the steady state, in m x n units.

    tracemalloc counts numpy's buffers, so the working set is measured
    exactly, here in units of the largest layer's m x n float64 bytes
    (128 x 256, beside a second layer of half a unit).
    """
    cfg = small_config(
        tmp_path,
        task_params={"d_in": 128, "d_hidden": 256, "d_out": 64, "n_samples": 64,
                     "noise_sd": 0.01, "perturb_rank": 2, "perturb_scale": 0.5},
        method=method,
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
    return step_over, save_over


def test_adamw_step_and_save_working_set(tmp_path):
    step_over, save_over = _step_and_save_over(tmp_path, "lora_pro_adamw")
    # a step holds the AdamW step's four row block buffers (half a unit each
    # here) and the two its moment write keeps for each layer before it until
    # the commit, beside the factored gradients of the layers after it and
    # the activations, all batch-sized: 3.35 units measured, bounded with a
    # margin of 0.15. New moments held beside the old ones until the commit
    # read 3.81. The whole-array step, with its direction in an m x n
    # equivalent gradient's buffer and one m x n scratch array, read 4.32.
    # Keeping the layer's own factors through its update read 4.49, and the
    # dense g of each later layer (half a unit here) 4.71; holding the
    # layer's own as well, 5.8; the forward cache, g and a separate
    # direction together, 8.6.
    assert max(step_over) < 3.5, step_over
    # a save holds no copy of the payload: 0.09 units measured, 5.7 for a
    # save that assembles the payload in memory
    assert max(save_over) < 1.0, save_over


def test_full_ft_step_working_set(tmp_path):
    step_over, _ = _step_and_save_over(tmp_path, "full_ft")
    # every layer is computed before any is committed, so a step holds the
    # new weights and moments of the layers before the one being updated,
    # plus that layer's gradient buffer (holding its direction) and scratch
    # array and the gradients of the layers after it: 5.1 units measured.
    # Keeping every gradient and a separate direction until the step ends
    # reads 6.9.
    assert max(step_over) < 5.5, step_over


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


@pytest.mark.parametrize("method", ["lora_pro_adamw", "full_ft"])
def test_restore_holds_no_throwaway_trainer(tmp_path, method):
    # from_checkpoint in a process that holds no task builds it, keeps no
    # base weights and takes the layers and states from the file, so its peak
    # is the larger of the task build's and the load's, plus the task's data
    cfg = small_config(
        tmp_path,
        task_params={"d_in": 128, "d_hidden": 256, "d_out": 64, "n_samples": 64,
                     "noise_sd": 0.01, "perturb_rank": 2, "perturb_scale": 0.5},
        method=method,
        rank=4,
    )
    trainer = Trainer(cfg)
    unit = 8 * max(m * n for m, n in (layer.shape for layer in trainer.network.layers))
    trainer.step()
    path = tmp_path / "state.bin"
    trainer.save(path)
    del trainer

    def peak(call):
        gc.collect()
        tracemalloc.start()
        try:
            steady = tracemalloc.get_traced_memory()[0]
            call()
            return (tracemalloc.get_traced_memory()[1] - steady) / unit
        finally:
            tracemalloc.stop()

    task_rng = np.random.default_rng(0)
    parts = max(peak(lambda: load_checkpoint(str(path))),
                peak(lambda: harness.build_task(cfg.task, cfg.task_params, task_rng)))
    harness._task.cache_clear()  # so the restore builds the task, as a fresh process does
    restore = peak(lambda: Trainer.from_checkpoint(cfg, path))
    # 0.5 units above the load measured for both methods; keeping the base
    # weights it built through the load reads 2.0, and building a whole new
    # trainer and replacing its layers and moments 5.5 (adamw) and 7.0
    # (full_ft) units above it
    assert restore < parts + 1.0, (restore, parts)


def _committed(trainer) -> dict:
    """The bytes of everything a training step commits."""
    state = {"step_count": trainer.step_count}
    for i, layer in enumerate(trainer.network.layers):
        for part in ("w0", "b", "a"):
            state[f"layer{i}.{part}"] = getattr(layer, part).tobytes()
    state.update({name: arr.tobytes() for name, arr in trainer.state_arrays().items()})
    return state


@pytest.mark.parametrize("method", ["lora", "lora_pro_sgd", "lora_pro_adamw"])
def test_non_finite_weight_gradient_aborts_and_commits_nothing(tmp_path, monkeypatch, method):
    # a NaN in a layer's weight gradient g, which backward's bundle holds
    # densely on desk's layers
    trainer = Trainer(desk_config(tmp_path).with_overrides(method=method))
    real = harness.backward
    calls = []

    def poisoned(*args, **kwargs):
        bundles = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            bundles[1].g_full[0, 0] = np.nan
        return bundles

    monkeypatch.setattr(harness, "backward", poisoned)
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
    real = harness.backward

    def overflowing(*args, **kwargs):
        bundles = real(*args, **kwargs)
        bundles[1].g_a_lora[0, 0] = np.nan
        return bundles

    monkeypatch.setattr(harness, "backward", overflowing)
    before = _committed(trainer)
    with pytest.raises(NonFiniteError, match=r"step 2: layer 1: g_tilde - g contains"):
        trainer.step()
    assert _committed(trainer) == before


def test_each_bundle_is_released_before_its_adamw_step(tmp_path, monkeypatch):
    # the step takes each layer's bundle out of backward's list, and drops the
    # adjustment, whose projection holds it last, before lorapro_adamw_step
    # allocates; the bundles of the layers after it are still held
    real_backward, real_step, refs, done = harness.backward, harness.lorapro_adamw_step, [], []

    def recording(cache):
        bundles = real_backward(cache)
        refs[:] = [weakref.ref(bundle) for bundle in bundles]
        done.append([])
        return bundles

    def checking(geometry, *args, **kwargs):
        i = len(done[-1])
        assert refs[i]() is None, f"layer {i}'s bundle is alive in its AdamW step"
        assert all(ref() is not None for ref in refs[i + 1:])
        done[-1].append(i)
        return real_step(geometry, *args, **kwargs)

    monkeypatch.setattr(harness, "backward", recording)
    monkeypatch.setattr(harness, "lorapro_adamw_step", checking)
    trainer = Trainer(desk_config(tmp_path))
    trainer.step()
    trainer.step()
    assert done == [[0, 1], [0, 1]]


@pytest.mark.parametrize("layers, grams", [((8, 16, 4), False), ((64, 96, 48), True)],
                         ids=["desk", "wider"])
@pytest.mark.parametrize("method", ["lora", "lora_pro_sgd", "lora_pro_adamw"])
def test_step_discrepancy_matches_the_dense_residual(tmp_path, monkeypatch, method, layers,
                                                     grams):
    # every layer-step's discrepancy is the dense residual's ||g_tilde - g||.
    # At rank 2 and batch 4, k = 8 columns: backward forms the 8-16-4
    # layers' g, which are no larger than their k x k Grams' inputs, so the
    # step forms the residual, and keeps the 64-96-48 ones' factored, so it
    # takes the factored sum of squares. lora_pro_adamw's step forms its
    # equivalent gradient row block by row block, so no method forms one there
    real, dense_pair, formed, seen = harness.discrepancy, equivalent_gradient, [], []

    def counting(*args, **kwargs):
        formed.append(None)
        return dense_pair(*args, **kwargs)

    def compared(bundle, g_a, g_b):
        assert (bundle.x is not None) == grams
        assert (bundle.g_full is None) == grams
        got = real(bundle, g_a, g_b)
        g_tilde = dense_pair(bundle.layer, g_a, g_b)
        g = bundle.full_gradient()
        scale = float(np.linalg.norm(g_tilde) + np.linalg.norm(g))
        assert abs(got - float(np.linalg.norm(g_tilde - g))) <= 1e-12 * scale
        seen.append(None)
        return got

    monkeypatch.setattr(harness, "equivalent_gradient", counting)
    monkeypatch.setattr(harness, "discrepancy", compared)
    d_in, d_hidden, d_out = layers
    cfg = small_config(tmp_path, method=method, batch_size=4, task_params={
        "d_in": d_in, "d_hidden": d_hidden, "d_out": d_out, "n_samples": 32,
        "noise_sd": 0.01, "perturb_rank": 2, "perturb_scale": 0.5})
    trainer = Trainer(cfg)
    for _ in range(3):
        trainer.step()
    assert len(seen) == 6
    assert len(formed) == (0 if grams else 6)


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
        layer = derived(layer, a=np.full_like(layer.a, np.inf))
        return layer if method == "lora_pro_sgd" else (layer, *out[1:])

    monkeypatch.setattr(harness, STEP_FUNCTIONS[method], overflowing)
    before = _committed(trainer)
    with pytest.raises(NonFiniteError, match=r"step 2: layer 1: new (a|w) contains"):
        trainer.step()
    assert _committed(trainer) == before


@pytest.mark.parametrize("method", sorted(STEP_FUNCTIONS))
def test_failed_step_commits_no_layer(tmp_path, monkeypatch, method):
    # the second layer's update arm fails after the first layer's update was
    # computed and checked: neither layer, no state and no geometry is committed
    trainer = Trainer(desk_config(tmp_path).with_overrides(method=method))
    trainer.step()
    before, geometries = _committed(trainer), list(trainer.geometries)
    calls = []
    real_step = getattr(harness, STEP_FUNCTIONS[method])

    def fail_on_second_layer(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected failure on layer 1")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(harness, STEP_FUNCTIONS[method], fail_on_second_layer)
    with pytest.raises(RuntimeError, match="injected"):
        trainer.step()
    assert len(calls) == 2
    assert _committed(trainer) == before
    assert all(now is then for now, then in zip(trainer.geometries, geometries))


def test_adamw_step_writes_the_moments_in_place(tmp_path, monkeypatch):
    # a committed lora_pro_adamw step writes each state's new moments into its
    # own arrays; a step that fails on layer 1, after layer 0's moments were
    # decided, leaves every moment's bytes as they were
    trainer = Trainer(desk_config(tmp_path, steps=3))
    trainer.step()
    arrays = [(state.m, state.v) for state in trainer.states]
    before = [(m.tobytes(), v.tobytes()) for m, v in arrays]
    trainer.step()
    assert all(state.m is m and state.v is v for state, (m, v) in zip(trainer.states, arrays))
    assert all(state.t == 2 for state in trainer.states)
    assert all(m.tobytes() != mb and v.tobytes() != vb
               for (m, v), (mb, vb) in zip(arrays, before))

    before = [(m.tobytes(), v.tobytes()) for m, v in arrays]
    calls, real_step = [], harness.lorapro_adamw_step

    def fail_on_second_layer(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected failure on layer 1")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(harness, "lorapro_adamw_step", fail_on_second_layer)
    with pytest.raises(RuntimeError, match="injected"):
        trainer.step()
    assert all(state.m is m and state.v is v for state, (m, v) in zip(trainer.states, arrays))
    assert [(m.tobytes(), v.tobytes()) for m, v in arrays] == before
    assert all(state.t == 2 for state in trainer.states)


def test_overflowing_adamw_step_fails_with_no_warning_and_commits_nothing(tmp_path,
                                                                          monkeypatch):
    # layer 1's X = 0 pair scaled by 1e200: its g_tilde squares past the
    # largest double, and the step names the second moment, with no numpy
    # warning (an error under the test settings) first
    trainer = Trainer(desk_config(tmp_path, steps=3))
    trainer.step()
    real_step, calls = harness.lorapro_adamw_step, []

    def overflowing(geometry, state, g_a, g_b, *args):
        calls.append(None)
        if len(calls) == 2:
            g_a, g_b = 1e200 * g_a, 1e200 * g_b
        return real_step(geometry, state, g_a, g_b, *args)

    monkeypatch.setattr(harness, "lorapro_adamw_step", overflowing)
    before = _committed(trainer)
    with pytest.raises(NonFiniteError,
                       match=r"step 2: layer 1: new v contains non-finite entries"):
        trainer.step()
    assert _committed(trainer) == before


# the spans of a traced step that the per-layer metrics read, each named after
# the module that makes the call
_ADJUSTED_STEP_SPANS = {
    "harness>model.forward",
    "harness>model.backward",
    "harness>gradadjust.adjust",
    "harness>gradadjust.loss_decrease_certificate",
    "gradadjust>gradadjust.choose_x",
    # the Sylvester X, by the sylvester module's one solver
    "gradadjust>sylvester.solve_sylvester",
}
TRACED_STEP_SPANS = {
    "lora": {"harness>model.forward", "harness>model.backward", "harness>optim.lora_adamw_step"},
    "lora_pro_sgd": {*_ADJUSTED_STEP_SPANS, "harness>optim.lorapro_sgd_step"},
    "lora_pro_adamw": {*_ADJUSTED_STEP_SPANS, "harness>optim.lorapro_adamw_step"},
    "full_ft": {"harness>model.forward_with_weights", "harness>model.backward_weight_grads",
                "harness>optim.full_ft_adamw_step"},
}


@pytest.mark.parametrize("method", sorted(TRACED_STEP_SPANS))
def test_benchmark_tracer_wraps_a_training_step(tmp_path, monkeypatch, method):
    # perfbench/tracer.py looks up every watched lorapro function by name; a
    # deletion or rename in the library would break its --trace 1 pass, and a
    # stage called past the binding it wraps would read 0 in its metric
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    step = vars(Trainer)["step"]
    adjust = harness.adjust
    cfg = desk_config(tmp_path, steps=1).with_overrides(method=method)
    recorder = tracer.Tracer()
    with recorder:
        assert vars(Trainer)["step"] is not step
        assert harness.adjust is not adjust
        harness.run(cfg)  # through the module, whose bindings the tracer wraps
    assert vars(Trainer)["step"] is step
    assert harness.adjust is adjust

    names = {span[tracer.NAME] for span in recorder.spans}
    assert {tracer.STEP, tracer.RUN, *TRACED_STEP_SPANS[method]} <= names
    assert any(name.endswith(">linalg.as_matrix") for name in names)
    metrics, counts = tracer.step_metrics(recorder.spans, cfg.method, n_layers=2)
    assert counts["linalg.as_matrix"] > 0
    assert all(math.isfinite(value) for value in metrics.values())
    if method != "full_ft":
        for stage in ("model.forward_ms", "model.backward_ms", "harness.metric_ms"):
            assert metrics[stage] > 0.0, stage
        # an adapter step forms no effective weight. The harness forms each
        # desk layer's equivalent gradient once, for the discrepancy's
        # residual alone (desk's layers hold g densely); lora_pro_adamw's step
        # forms its own row block by row block for the moments
        assert counts.get("lora.effective_weight", 0) == 0
        assert counts["gradadjust.equivalent_gradient"] == 2
    if method.startswith("lora_pro"):
        assert counts["gradadjust.adjust"] > 0
        for stage in ("gradadjust.certificate_ms", "gradadjust.choose_x_ms",
                      "sylvester.solve_ms"):
            assert metrics[stage] > 0.0, stage
        # the Sylvester X of each of the two layers
        assert metrics["sylvester.solve_calls"] == 2.0


def _count_calls(monkeypatch, watched) -> dict[str, int]:
    """Count calls of each "module.function" in ``watched``.

    Like perfbench/tracer.py, this replaces every binding of the function in
    the loaded lorapro modules, so calls through any import count.
    "np.linalg.eigh" and "np.linalg.eigvalsh" count numpy's functions, which
    lorapro looks up on ``np.linalg`` at each call.
    """
    counts = dict.fromkeys(watched, 0)
    modules = [mod for name, mod in sys.modules.items() if name.startswith("lorapro")]

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for key in watched:
        if key.startswith("np.linalg."):
            func = key.rpartition(".")[2]
            monkeypatch.setattr(np.linalg, func, counting(key, getattr(np.linalg, func)))
            continue
        home, func = key.split(".")
        original = getattr(sys.modules[f"lorapro.{home}"], func)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting(key, original))
    return counts


# per desk lora_pro_adamw step (2 layers): no effective weight, as the
# forward pass is factored; no re-projection bundle from lora_raw_grads, as
# the AdamW step forms its re-projected pair row block by row block; the
# inputs of public functions, each layer's g_tilde - g (backward holds desk's
# small g densely, so the discrepancy forms the residual) and the new factors
# a step commits, but not the batch, whose rows were checked once with the
# task, nor backward's bundles and the pairs the step derives from them,
# which the discrepancy checks, nor the new second moment, which the AdamW
# step checks block by block; one Gram eigendecomposition per layer, of the
# layer the step commits, whose geometry gives the rank metrics and serves
# the next step's solves
DESK_ADAMW_STEP_CALLS = {
    "lora.effective_weight": 0,
    "gradadjust.lora_raw_grads": 0,
    "linalg.as_matrix": 10,
    "linalg.numerical_rank": 0,
    "linalg.sym_eig": 0,
    "np.linalg.eigh": 2,
    "np.linalg.eigvalsh": 0,
}
# the other adapter methods: lora_pro_sgd has no AdamW step, and a lora step
# has no adjustment, so it needs no geometry: the Grams' eigenvalues alone
# give its rank metrics
DESK_STEP_CALLS = {
    "lora_pro_sgd": DESK_ADAMW_STEP_CALLS,
    "lora": {**DESK_ADAMW_STEP_CALLS, "np.linalg.eigh": 0, "np.linalg.eigvalsh": 2},
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


@pytest.mark.parametrize("method, first_eigh", [("lora_pro_sgd", 4), ("lora", 0)])
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


def _pair_as_adjust_formed_it(layer, bundle, strategy, geometry):
    """The adjusted pair by separate solves: the strategy's X, then the base pair's own."""
    r, s = layer.rank, layer.scaling
    if strategy == "zero":
        x = np.zeros((r, r))
    elif strategy == "symmetry":
        half = geometry.solve_b(layer.b.T @ bundle.g_b_lora)[0]
        x = -0.5 / s**2 * geometry.solve_a_right(half)[0]
    else:
        rhs = -1.0 / s**2 * (geometry.solve_b(bundle.g_a_lora)[0] @ layer.a.T)
        x = geometry.solve_sylvester(rhs)
    base_a = geometry.solve_b(bundle.g_a_lora)[0] / s**2
    base_b = geometry.solve_a_right(geometry.project_out_b(bundle.g_b_lora))[0] / s**2
    return base_a + x @ layer.a, base_b - layer.b @ x


def _certificate_by_hand(layer, bundle, lr, geometry):
    """The certificate's quadratic forms, each whitened product formed here."""
    s = layer.scaling
    white_g_a = (geometry.white_b.T @ bundle.g_a_lora).ravel()
    white_g_b = (geometry.project_out_b(bundle.g_b_lora) @ geometry.white_a).ravel()
    term_a = float(np.dot(white_g_a, white_g_a)) / s**2
    term_b = float(np.dot((bundle.g_b_lora @ geometry.white_a).ravel(), white_g_b)) / s**2
    return -lr * (term_a + term_b)


def _reference_step(trainer):
    """One LoRA-Pro step of ``trainer`` from separate calls, committing nothing.

    The metric's X = 0 pair, the certificate's products, and the update's
    own adjustment each solve for themselves. Returns the loss, and per layer
    the new (w0, b, a), the new AdamW state and the CSV metrics.
    """
    cfg, policy = trainer.config, trainer.policy
    lr = lr_at(trainer.hp, trainer.step_count, cfg.steps)
    hp = dataclasses.replace(trainer.hp, lr=lr)
    loss, cache = forward(trainer.network, trainer._draw_batch())
    out = []
    for i, (layer, bundle) in enumerate(zip(trainer.network.layers,
                                            backward(cache))):
        geometry = TangentGeometry(layer, policy)
        g_a, g_b = _pair_as_adjust_formed_it(layer, bundle, "zero", geometry)
        g_tilde = equivalent_gradient(layer, g_a, g_b)
        layer_discrepancy = discrepancy(bundle, g_a, g_b)
        certificate = _certificate_by_hand(layer, bundle, lr, geometry)
        state = None
        if cfg.method == "lora_pro_sgd":
            g_a, g_b = _pair_as_adjust_formed_it(layer, bundle, cfg.x_strategy, geometry)
        else:
            direction, state = adamw_transform(trainer.states[i], g_tilde, hp)
            reprojected = lora_raw_grads(layer, direction)
            g_a, g_b = _pair_as_adjust_formed_it(layer, reprojected, cfg.x_strategy, geometry)
            layer = apply_decayed_merge_step(layer, lr, hp.weight_decay)
        b, a = layer.b - lr * g_b, layer.a - lr * g_a
        metrics = (layer_discrepancy, numerical_rank(a), numerical_rank(b), certificate)
        out.append(((layer.w0, b, a), state, metrics))
    return loss, out


@pytest.mark.parametrize("policy", [{}, {"damping": 1e-2}], ids=["damp", "damp=1e-2"])
@pytest.mark.parametrize("strategy", X_STRATEGIES)
@pytest.mark.parametrize("method", ["lora_pro_sgd", "lora_pro_adamw"])
def test_one_solve_per_layer_step_changes_no_bit(tmp_path, method, strategy, policy):
    # the step shares one X = 0 solve between the metric, the certificate and
    # the update; from B = 0, five steps must land on the bytes of separate
    # solves, and every layer-step is certified, the two from B = 0 included
    decay = 0.1 if method == "lora_pro_adamw" else 0.0
    cfg = desk_config(tmp_path, steps=5).with_overrides(
        method=method, x_strategy=strategy, lr=0.05, weight_decay=decay, **policy
    )
    trainer = Trainer(cfg)
    for _ in range(5):
        draw = trainer.data_rng.bit_generator.state
        loss, want = _reference_step(trainer)
        trainer.data_rng.bit_generator.state = draw
        record = trainer.step()
        assert record.train_loss == loss
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


# --- the task every trainer of one config shares -------------------------


@pytest.fixture
def task_builds(monkeypatch):
    """The calls ``harness`` makes to ``build_task``, from a cold task cache on."""
    calls = []
    build = harness.build_task

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_task", counting)
    harness._task.cache_clear()
    return calls


def _fresh_task(cfg):
    """``build_task`` as a run seeded ``cfg.seed`` calls it, uncached."""
    task_ss = np.random.SeedSequence(cfg.seed).spawn(3)[0]
    return harness.build_task(cfg.task, cfg.task_params, np.random.default_rng(task_ss))


def _task_bytes(task) -> list:
    return [(arr.dtype, arr.shape, arr.tobytes())
            for arr in (task.inputs, task.targets, *task.base_weights)]


def test_compare_builds_its_task_once(tmp_path, task_builds):
    compare(small_config(tmp_path, steps=2), list(METHODS))
    assert len(task_builds) == 1


def test_second_trainer_and_its_restore_build_no_task(tmp_path, task_builds):
    cfg = small_config(tmp_path)
    Trainer(cfg)
    assert len(task_builds) == 1
    second = Trainer(cfg)
    second.step()
    second.save(tmp_path / "state.bin")
    Trainer.from_checkpoint(cfg, tmp_path / "state.bin")
    assert len(task_builds) == 1


def test_shared_task_is_a_fresh_build_and_read_only(tmp_path):
    cfg = small_config(tmp_path)
    task = Trainer(cfg).task
    assert _task_bytes(task) == _task_bytes(_fresh_task(cfg))
    for arr in (task.inputs, task.targets, *task.base_weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("method", ["lora", "lora_pro_sgd", "lora_pro_adamw"])
def test_adapter_layer_w0_is_the_shared_base_weight(tmp_path, method):
    cfg = small_config(tmp_path, method=method)
    first, second = Trainer(cfg), Trainer(cfg)
    for i, layer in enumerate(first.network.layers):
        assert layer.w0 is first.task.base_weights[i] is second.network.layers[i].w0


def test_rebinding_one_trainers_task_leaves_another_unchanged(tmp_path):
    cfg = small_config(tmp_path)
    expected = Trainer(cfg).step().train_loss
    first, second = Trainer(cfg), Trainer(cfg)
    first.task.inputs = first.task.inputs * 1e200
    first.task.targets = first.task.targets * -1e200
    first.task.base_weights = []
    assert second.step().train_loss == expected
    assert len(second.task.base_weights) == 2


@pytest.mark.parametrize("change", [
    *({"task_params": {key: value}} for key, value in [
        ("d_in", 7), ("d_hidden", 11), ("d_out", 4), ("n_samples", 65),
        ("noise_sd", 0.02), ("perturb_rank", 1), ("perturb_scale", 0.25)]),
    {"seed": 12},
    {"task": "two_cluster_classification", "task_params": {"d": 6, "k": 3}},
], ids=lambda change: "task" if "task" in change else next(iter(change.get("task_params", change))))
def test_another_task_key_seed_or_kind_builds_anew(tmp_path, task_builds, change):
    cfg = small_config(tmp_path)
    params = change.get("task_params", {})
    if "task" not in change:
        params = {**cfg.task_params, **params}
    other = small_config(tmp_path, **{**change, "task_params": params})
    Trainer(cfg)
    task = Trainer(other).task
    assert len(task_builds) == 2
    assert _task_bytes(task) == _task_bytes(_fresh_task(other))


@pytest.mark.parametrize("rewrite", ["size", "mtime"])
def test_rewritten_csv_file_is_read_again(tmp_path, task_builds, rewrite):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n4.0,5.0,9.0\n0.5,0.5,1.0\n")
    cfg = small_config(tmp_path, task="csv_dataset", rank=1,
                       task_params={"path": str(path), "target_column": "y"})
    Trainer(cfg)
    before = os.stat(path)
    if rewrite == "size":
        path.write_text("x1,x2,y\n1.0,2.0,3.0\n4.0,5.0,9.0\n0.5,0.5,1.0\n2.0,2.0,4.0\n")
    else:  # the same size and inode, a later modification time
        path.write_text("x1,x2,y\n1.0,2.0,3.0\n4.0,5.0,9.0\n0.5,0.5,2.0\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10**9))
    task = Trainer(cfg).task
    assert len(task_builds) == 2
    assert _task_bytes(task) == _task_bytes(_fresh_task(cfg))


def test_cold_and_warm_task_give_the_same_files(tmp_path, task_builds):
    written = []
    for name in ("cold", "warm"):
        result = compare(small_config(tmp_path / name, steps=6), list(METHODS))
        assert len(task_builds) == 1  # the warm compare builds none
        written.append((
            [result.results[label].csv_path.read_bytes() for label in result.labels],
            result.csv_path.read_bytes(),
            [load_checkpoint(str(result.results[label].checkpoint_path))[1]
             for label in result.labels],
        ))
    (cold_csvs, cold_comparison, cold_arrays), (warm_csvs, warm_comparison, warm_arrays) = written
    assert cold_csvs == warm_csvs and cold_comparison == warm_comparison
    for cold, warm in zip(cold_arrays, warm_arrays):
        assert cold.keys() == warm.keys()
        assert all(cold[name].tobytes() == warm[name].tobytes() for name in cold)


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
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()


def _reference_comparison(config, methods, labels) -> tuple[bytes, bytes]:
    """comparison.csv and comparison.json built from each method's step records.

    The arithmetic is the one compare used when its runs kept every record:
    a step's discrepancy is np.mean over its layers, and a method's last-half
    figure np.mean over a list of those.
    """
    records = {}
    for label, method in zip(labels, methods):
        trainer = Trainer(config.with_overrides(method=method))
        records[label] = [trainer.step() for _ in range(config.steps)]

    def mean_discrepancy(record):
        values = [lm.discrepancy for lm in record.per_layer if lm.discrepancy is not None]
        return float(np.mean(values)) if values else 0.0

    header = ["step", "lr"]
    for label in labels:
        header += [f"loss_{label}", f"disc_{label}"]
    lines = [",".join(header)]
    for t in range(config.steps):
        first = records[labels[0]][t]
        row = [str(first.step), repr(first.lr)]
        for label in labels:
            row += [repr(records[label][t].train_loss), repr(mean_discrepancy(records[label][t]))]
        lines.append(",".join(row))
    csv = ("\n".join(lines) + "\n").encode("utf-8")

    last_half = range(config.steps // 2, config.steps)
    mean_disc = {
        label: float(np.mean([mean_discrepancy(records[label][t]) for t in last_half]))
        for label in labels
    }
    final_loss = {label: records[label][-1].train_loss for label in labels}
    pro = next(label for label, m in zip(labels, methods) if m.startswith("lora_pro"))
    lora = next(label for label, m in zip(labels, methods) if m == "lora")
    payload = {
        "config": config.to_dict(),
        "methods": dict(zip(labels, methods)),
        "verdicts": {
            "final_loss": final_loss,
            "final_loss_ordering": sorted(labels, key=lambda label: final_loss[label]),
            "mean_discrepancy_last_half": mean_disc,
            "lora_pro_discrepancy_below_lora": mean_disc[pro] < mean_disc[lora],
            "lora_pro_final_loss_below_lora": final_loss[pro] < final_loss[lora],
        },
        "csv_sha": hashlib.sha256(csv).hexdigest(),
    }
    return csv, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("steps", [8, 9])
def test_compare_files_match_a_reference_built_from_step_records(tmp_path, steps):
    # compare reads its runs' metrics.csv files back in lockstep and keeps one
    # discrepancy per method per step of the last half; its files must hold
    # the bytes the step records give, with a duplicate method and an odd
    # step count
    methods = ["lora", "lora_pro_sgd", "full_ft", "lora_pro_adamw", "lora"]
    cfg = small_config(tmp_path, steps=steps)
    result = compare(cfg, methods)
    assert result.labels == ["lora", "lora_pro_sgd", "full_ft", "lora_pro_adamw", "lora_2"]
    csv, payload = _reference_comparison(cfg, methods, result.labels)
    assert result.csv_path.read_bytes() == csv
    assert result.json_path.read_bytes() == payload


def test_run_memory_does_not_grow_with_its_step_count(tmp_path):
    # run writes each step's rows as the step returns and keeps no record,
    # so its tracemalloc peak at 1000 desk steps is its peak at 50
    run(desk_config(tmp_path / "warm", steps=5))  # imports and caches filled
    peaks = {}
    for steps in (50, 1000):
        cfg = desk_config(tmp_path / str(steps), steps=steps)
        harness._task.cache_clear()  # both runs build their task, as a fresh process does
        gc.collect()
        tracemalloc.start()
        try:
            run(cfg)
            peaks[steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # within 5 KiB either way measured; a run that keeps every step's record
    # peaks 0.72 MiB higher at 1000 steps
    assert peaks[1000] - peaks[50] < 16 * 1024, peaks


def test_aborted_run_keeps_the_rows_of_its_completed_steps(tmp_path):
    # the shipped config's lora_pro_sgd at lr 10 with X = 0 overflows at step
    # 38: metrics.csv keeps the header and steps 1..37, as an uninterrupted
    # trainer gives them, and the summary and checkpoint an earlier run left
    # in the directory are gone, so no summary vouches for the partial file
    text = (ROOT / "configs" / "teacher_student.cfg").read_text(encoding="utf-8")
    cfg = parse_config_text(text).with_overrides(
        method="lora_pro_sgd", lr=10.0, x_strategy="zero", out_dir=str(tmp_path / "lr10")
    )
    out = Path(cfg.out_dir)
    run(cfg.with_overrides(steps=3))
    assert {"summary.json", "checkpoint.bin"} <= {p.name for p in out.iterdir()}
    with pytest.raises(NonFiniteError, match="aborting at step 38"):
        run(cfg)
    assert [p.name for p in out.iterdir()] == ["metrics.csv"]
    trainer = Trainer(cfg)
    completed = [trainer.step() for _ in range(37)]
    expected = "".join(line + "\n" for line in [CSV_HEADER, *_csv_rows(completed)])
    assert (out / "metrics.csv").read_bytes() == expected.encode("utf-8")


def test_aborted_compare_leaves_no_earlier_comparison(tmp_path):
    # the shipped config's lora_pro_sgd at lr 10 with X = 0 overflows within
    # a 50-step compare; the comparison.json and .csv that an earlier compare
    # left in the directory are gone, so neither vouches for the new runs
    text = (ROOT / "configs" / "teacher_student.cfg").read_text(encoding="utf-8")
    cfg = parse_config_text(text).with_overrides(
        lr=10.0, x_strategy="zero", steps=50, out_dir=str(tmp_path / "lr10")
    )
    out = Path(cfg.out_dir)
    compare(cfg.with_overrides(steps=5), ["lora", "lora_pro_sgd"])
    assert {"comparison.json", "comparison.csv"} <= {p.name for p in out.iterdir()}
    with pytest.raises(NonFiniteError, match="aborting at step"):
        compare(cfg, ["lora", "lora_pro_sgd"])
    assert sorted(p.name for p in out.iterdir()) == ["lora", "lora_pro_sgd"]
    assert (out / "lora" / "summary.json").exists()
    assert not (out / "lora_pro_sgd" / "summary.json").exists()


@pytest.mark.parametrize("marker", ["summary.json", "comparison.json"])
def test_failed_marker_write_leaves_neither_marker_nor_temporary_file(tmp_path, monkeypatch,
                                                                       marker):
    # a run's summary.json and a compare's comparison.json mark them complete,
    # so each is written whole or not at all: a failure just before its
    # rename leaves neither the marker nor the temporary file it was written to
    replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == marker:
            raise OSError("injected before the rename")
        replace(src, dst)

    monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
    cfg = small_config(tmp_path, steps=3)
    with pytest.raises(OSError, match="injected"):
        compare(cfg, ["lora", "lora_pro_sgd"])
    left = [p.name for p in Path(cfg.out_dir).rglob("*")]
    assert "metrics.csv" in left
    assert marker not in left and not any(name.endswith(".tmp") for name in left), left


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


def test_selfcheck_reaches_every_adjustment_through_its_stand_in(monkeypatch):
    # with the module's own adjust unusable, a suite handed the real one
    # passes only if no property calls the module's binding
    import lorapro.gradadjust as gradadjust
    import lorapro.selfcheck as selfcheck

    def unusable(*args, **kwargs):
        raise AssertionError("a property called selfcheck.adjust, not its stand-in")

    monkeypatch.setattr(selfcheck, "adjust", unusable)
    report = run_selfcheck(seed=0, adjust_fn=gradadjust.adjust)
    assert report.passed, [r.line() for r in report.results if not r.passed]


def test_selfcheck_certifies_the_sylvester_x_that_training_solves(monkeypatch):
    # an X off by a relative 1e-6 in TangentGeometry.solve_sylvester, the solve
    # training runs: the two Sylvester properties, which solve on the shipped
    # damping, and sylvester_x_optimality, which reads the same solve
    # undamped through choose_x, fail; the adjustment properties do not,
    # since X never changes the equivalent gradient
    solve = TangentGeometry.solve_sylvester
    monkeypatch.setattr(
        TangentGeometry, "solve_sylvester", lambda self, c: solve(self, c) * (1.0 + 1e-6)
    )
    report = run_selfcheck(seed=0)
    failed = {r.name for r in report.results if not r.passed}
    assert failed == {
        "sylvester_residual", "sylvester_kronecker_agreement", "sylvester_x_optimality"
    }
    for r in report.results:
        if r.name in failed:
            assert r.worst > r.tolerance


def test_selfcheck_scan_alone_flags_a_non_optimal_x():
    # B @ M added to g_b_lora: the Sylvester equation reads only g_a_lora, so
    # X* still solves it but no longer minimizes the departure; only the scan
    # can tell
    rng = np.random.default_rng(49)
    instances = random_instances(0, count=20)
    offset = [
        (layer, GradBundle(layer, g_a_lora=bundle.g_a_lora,
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
    # (10) and one per Sylvester instance (100 residual, 40 Kronecker); each
    # oracle minimum once per instance; and finite-difference probes that
    # build no layer or network
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
    assert built == {"TangentGeometry": 6 * 200 + 10 + 100 + 40, "probes": built["probes"],
                     "LoraLayer in probes": 0, "Network in probes": 0}


@pytest.mark.parametrize("loss_kind", model.LOSS_KINDS)
@pytest.mark.parametrize("activation", model.ACTIVATIONS)
def test_selfcheck_probe_loss_matches_a_rebuilt_network_bit_for_bit(loss_kind, activation):
    # a probe adds the held s*B*A product to the probed w0; the network it
    # replaces rebuilt the layer and the network around that w0 for every
    # probe, and took the loss over their effective weights
    import lorapro.selfcheck as selfcheck

    rng = np.random.default_rng(71)
    for _ in range(4):
        net, batch = selfcheck._random_network(rng, loss_kind, (activation,))
        # a scaling other than 1, so that where it is applied shows in the bits
        net.layers = [dataclasses.replace(layer, scaling=1.5) for layer in net.layers]
        weights = [effective_weight(layer) for layer in net.layers]
        for i, old in enumerate(net.layers):
            probe = selfcheck._loss_at_w0(net, batch, weights, i)
            for w0 in (old.w0, old.w0 + 1e-5 * rng.normal(size=old.shape)):
                layers = list(net.layers)
                layers[i] = LoraLayer(w0=w0, b=old.b, a=old.a, scaling=old.scaling)
                rebuilt = [effective_weight(layer) for layer in layers]
                assert probe(w0) == model.forward_with_weights(
                    rebuilt, net.activations, net.loss_kind, batch)[0]


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


def test_cli_negative_seed_is_one_error_line(tmp_path, capsys):
    # selfcheck used to end in numpy's traceback; run's override names its key
    for seed in (-1, True, 1.5):
        with pytest.raises(ConfigError, match="invalid seed: expected a non-negative integer"):
            run_selfcheck(seed=seed)
    config = tmp_path / "run.cfg"
    config.write_text((ROOT / "configs" / "teacher_student.cfg").read_text(encoding="utf-8"))
    out_dir = tmp_path / "out"
    run_argv = ["run", "--config", str(config), "--seed", "-3", "--out", str(out_dir)]
    for argv, named in ((["selfcheck", "--seed", "-1"], ("seed", "-1")),
                        (run_argv, ("'seed'", "must be >= 0, got -3"))):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(word in err[0] for word in named)
        assert captured.out == ""
    assert not out_dir.exists()


def test_diverging_run_ends_in_the_typed_error_alone(tmp_path):
    # the shipped config's lora_pro_sgd at lr 1 overflows the certificate's
    # inner products at step 106 (at step 107 under the dense forward and
    # backward: the run diverges, its loss past 1e91 by step 50, so the last
    # digits decide the step); with warnings as errors, that must still end
    # in NonFiniteError, not in a numpy RuntimeWarning
    text = (ROOT / "configs" / "teacher_student.cfg").read_text(encoding="utf-8")
    cfg = parse_config_text(text).with_overrides(
        method="lora_pro_sgd", lr=1.0, out_dir=str(tmp_path / "lr1")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"aborting at step 106: layer \d: certificate"):
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


def _sylvester_fails_from_step(monkeypatch, first: int):
    """Make the Sylvester X raise SpectrumError in every trainer step from step ``first`` on."""
    at = {"step": 0}
    step, solve = Trainer.step, TangentGeometry.solve_sylvester

    def counted_step(self):
        at["step"] = self.step_count + 1
        return step(self)

    def solve_or_fail(self, c):
        if at["step"] >= first:
            raise SpectrumError("eigenvalue pair sum 1e-14 at or below floor", pair=(1e-14, 0.0))
        return solve(self, c)

    monkeypatch.setattr(Trainer, "step", counted_step)
    monkeypatch.setattr(TangentGeometry, "solve_sylvester", solve_or_fail)


def test_step_error_names_its_step_and_keeps_its_context(tmp_path, monkeypatch):
    # any LoraProError out of a step gains the step in its message and keeps
    # its type and what it carries
    _sylvester_fails_from_step(monkeypatch, 3)
    trainer = Trainer(small_config(tmp_path))
    trainer.step()
    trainer.step()
    with pytest.raises(SpectrumError, match=r"^aborting at step 3: layer \d: X selection") as excinfo:
        trainer.step()
    assert excinfo.value.pair == (1e-14, 0.0)
    assert trainer.step_count == 2


def test_cli_run_reports_a_step_error_in_one_line(tmp_path, monkeypatch, capsys):
    _sylvester_fails_from_step(monkeypatch, 3)
    config_path = tmp_path / "run.cfg"
    text = (ROOT / "configs" / "teacher_student.cfg").read_text(encoding="utf-8")
    config_path.write_text(text.replace("runs/teacher_student", str(tmp_path / "out")))
    assert cli_main(["run", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error: aborting at step 3: layer \d: X selection 'sylvester' failed",
                    captured.err)
    assert captured.err.count("\n") == 1


def test_non_finite_loss_aborts_with_step_index(tmp_path):
    from lorapro.errors import NonFiniteError

    cfg = small_config(tmp_path)
    trainer = Trainer(cfg)
    trainer.task.inputs = trainer.task.inputs * 1e200
    trainer.task.targets = trainer.task.targets * -1e200
    with pytest.raises(NonFiniteError, match="step 1"):
        trainer.step()


@pytest.mark.parametrize("method", ["lora_pro_sgd", "lora_pro_adamw"])
def test_undamped_zero_b_error_names_its_layer_and_gram(tmp_path, method):
    # damping = 0: the standard init's B = 0 leaves B^T B singular, and the
    # first layer's step refuses it
    cfg = small_config(tmp_path, method=method, damping=0.0)
    trainer = Trainer(cfg)
    before = _committed(trainer)
    with pytest.raises(FactorizationError, match=(
        r"^aborting at step 1: layer 0: Cholesky factorization failed at leading minor 1 "
        r"\(B\^T B of dimension 2, damping 0\.0\)$"
    )) as excinfo:
        trainer.step()
    assert excinfo.value.leading_minor == 1
    assert _committed(trainer) == before



# the BLAS thread counts of two fresh interpreters, and the code each runs
# in a directory of its own, writing into "out" there so the config echoes match
BLAS_RUNS = {
    # 5 steps of the benchmark's wide shapes, at 1 thread in both
    "wide": (("1", "1"), """
        run(RunConfig(
            task="teacher_student_regression",
            task_params={"d_in": 256, "d_hidden": 512, "d_out": 128, "n_samples": 1024,
                         "noise_sd": 0.01, "perturb_rank": 4, "perturb_scale": 0.5},
            method="lora_pro_adamw", steps=5, batch_size=64, seed=7, out_dir="out",
            rank=8, alpha=16.0, scaling="rslora",
        ))
        """),
    # the shipped config's four-method compare, at 1 thread and at 2
    "desk": (("1", "2"), """
        compare(parse_config_file(sys.argv[1]).with_overrides(out_dir="out"),
                ["lora", "lora_pro_sgd", "lora_pro_adamw", "full_ft"])
        """),
}


@pytest.mark.parametrize("case", sorted(BLAS_RUNS))
def test_metrics_csv_bytes_reproduce_at_one_blas_thread(tmp_path, case):
    # README: identical config and seed give identical bytes at a fixed BLAS
    # thread setting, and desk's do not depend on the thread count (wide's
    # differ between 1 and 2 threads at rounding level)
    import lorapro

    threads, body = BLAS_RUNS[case]
    script = ("import sys\nfrom lorapro.config import RunConfig, parse_config_file\n"
              "from lorapro.harness import compare, run\n" + textwrap.dedent(body))
    written = []
    for i, count in enumerate(threads):
        cwd = tmp_path / f"{i}-{count}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=count,
                   PYTHONPATH=str(Path(lorapro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "configs" / "teacher_student.cfg")],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        written.append({p.relative_to(cwd).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (cwd / "out").rglob("*") if p.is_file()})
    if case == "wide":
        csv = (tmp_path / "0-1" / "out" / "metrics.csv").read_text(encoding="utf-8")
        assert len(csv.splitlines()) == 1 + 5 * 2  # header, then 5 steps x 2 layers
    else:  # each method's three files, and the comparison's two
        assert len(written[0]) == 4 * 3 + 2
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
