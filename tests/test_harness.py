import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import lorapro.harness as harness
from lorapro.checkpoint import load_checkpoint
from lorapro.cli import main as cli_main
from lorapro.config import RunConfig, parse_config_text
from lorapro.errors import CheckpointError, ConfigError, LoraProError
from lorapro.harness import CSV_HEADER, Trainer, compare, records_to_csv_lines, run
from lorapro.selfcheck import run_selfcheck

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


def test_checkpoint_rejects_other_config(tmp_path):
    cfg = small_config(tmp_path)
    trainer = Trainer(cfg)
    trainer.step()
    ckpt = tmp_path / "state.bin"
    trainer.save(ckpt)
    with pytest.raises(ConfigError):
        Trainer.from_checkpoint(cfg.with_overrides(lr=1e-4), ckpt)


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

    def corrupted(layer, bundle, strategy="sylvester", policy=None, x_override=None):
        out = adjust(layer, bundle, strategy=strategy, policy=policy,
                     x_override=x_override)
        out.g_a = -out.g_a  # sign flip: optimality and descent both break
        return out

    report = run_selfcheck(seed=0, adjust_fn=corrupted)
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert "adjustment_optimality_vs_bruteforce" in failed
    for r in report.results:
        if not r.passed:
            assert r.worst > r.tolerance


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


@pytest.mark.filterwarnings("ignore:overflow")
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
