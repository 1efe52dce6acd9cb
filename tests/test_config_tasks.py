import configparser
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from lorapro.cli import main as cli_main
from lorapro.config import _SECTIONS, RunConfig, parse_config_text
from lorapro.errors import ConfigError
from lorapro.harness import Trainer
from lorapro.optim import HyperParams
from lorapro.tasks import build_task, task_keys

ROOT = Path(__file__).resolve().parents[1]

GOOD_CONFIG = """
# demo run
[run]
task = teacher_student_regression
method = lora_pro_adamw
steps = 50
batch_size = 16
seed = 3
out_dir = runs/demo

[task]
d_in = 8
d_hidden = 16
d_out = 4
n_samples = 128
noise_sd = 0.01
perturb_rank = 4
perturb_scale = 0.5

[adapter]
rank = 2
alpha = 16
scaling = rslora
init = standard

[optimizer]
lr = 1e-3
weight_decay = 0.0
schedule = cosine_with_warmup
warmup_ratio = 0.03

[lorapro]
x_strategy = sylvester
damping = 1e-8
fallback = damp
"""


def test_parse_full_config():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.task == "teacher_student_regression"
    assert cfg.method == "lora_pro_adamw"
    assert cfg.steps == 50 and cfg.batch_size == 16 and cfg.seed == 3
    assert cfg.rank == 2 and cfg.alpha == 16.0
    assert cfg.lr == pytest.approx(1e-3)
    assert cfg.task_params["d_hidden"] == 16
    assert cfg.x_strategy == "sylvester"


def test_defaults_follow_conventions():
    cfg = RunConfig(task="teacher_student_regression",
                    task_params={"d_in": 4, "d_hidden": 4, "d_out": 4})
    assert cfg.rank == 8 and cfg.alpha == 16.0 and cfg.scaling == "rslora"
    assert cfg.beta1 == 0.9 and cfg.beta2 == 0.999
    assert cfg.schedule == "cosine_with_warmup" and cfg.warmup_ratio == 0.03
    assert cfg.weight_decay == 0.0


def test_unknown_key_named_in_error():
    bad = GOOD_CONFIG.replace("batch_size = 16", "batchsize = 16")
    with pytest.raises(ConfigError, match="batchsize"):
        parse_config_text(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="extras"):
        parse_config_text(GOOD_CONFIG + "\n[extras]\nfoo = 1\n")


def test_unknown_task_key_rejected():
    bad = GOOD_CONFIG.replace("noise_sd = 0.01", "noise = 0.01")
    with pytest.raises(ConfigError, match="noise"):
        parse_config_text(bad)


def test_zero_steps_rejected():
    with pytest.raises(ConfigError, match="steps"):
        parse_config_text(GOOD_CONFIG.replace("steps = 50", "steps = 0"))


def test_bad_method_rejected():
    with pytest.raises(ConfigError, match="method"):
        parse_config_text(GOOD_CONFIG.replace("lora_pro_adamw", "sgd_with_momentum"))


def test_bad_type_rejected():
    with pytest.raises(ConfigError, match="steps"):
        parse_config_text(GOOD_CONFIG.replace("steps = 50", "steps = many"))


def _with(text, **values):
    """``text`` with each ``key = value`` set in the key's section."""
    for key, value in values.items():
        section = next((name for name, keys in _SECTIONS.items() if key in keys), "task")
        line = re.compile(rf"^{key} = .*$", re.M)
        if line.search(text):
            text = line.sub(f"{key} = {value}", text)
        else:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text


# each case's first key is the one its error must name
BAD_VALUES = [
    {"damping": "-1"},
    {"beta1": "1.5"},
    {"beta2": "1.0"},
    {"epsilon": "0"},
    {"alpha": "0"},
    {"seed": "-1"},
    {"lr": "-1"},
    {"warmup_ratio": "1"},
    {"weight_decay": "-0.1"},
    {"weight_decay": "2000"},
    {"weight_decay": "0.01", "method": "lora_pro_sgd"},
    {"schedule": "cosine"},
    {"scaling": "lora_plus"},
    {"init": "orthogonal"},
    {"fallback": "skip"},
    {"x_strategy": "random"},
    {"damping": "nan"},
    {"weight_decay": "nan"},
    {"alpha": "inf"},
    {"noise_sd": "nan"},
]
BAD_IDS = ["-".join(f"{k}={v}" for k, v in case.items()) for case in BAD_VALUES]


@pytest.mark.parametrize("values", BAD_VALUES, ids=BAD_IDS)
def test_bad_value_rejected_when_config_is_built(values):
    key = next(iter(values))
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config_text(_with(GOOD_CONFIG, **values))


# each case: the bad value and the keys its error must name, and no others
NAMED_KEYS = {
    "beta1=1.5": ({"beta1": "1.5"}, "'beta1'"),
    "epsilon=0": ({"epsilon": "0"}, "'epsilon'"),
    "schedule=cosine": ({"schedule": "cosine"}, "'schedule'"),
    "weight_decay=2000": ({"weight_decay": "2000"}, "'lr' or 'weight_decay'"),
    "fallback=skip": ({"fallback": "skip"}, "'fallback'"),
    "damping=-1": ({"damping": "-1"}, "'damping' or 'fallback'"),  # message names neither
}


@pytest.mark.parametrize("values, named", NAMED_KEYS.values(), ids=NAMED_KEYS.keys())
def test_bad_value_error_names_the_keys_its_message_names(values, named):
    with pytest.raises(ConfigError, match=f"^invalid config key {named}: "):
        parse_config_text(_with(GOOD_CONFIG, **values))


@pytest.mark.parametrize("values", BAD_VALUES, ids=BAD_IDS)
def test_cli_run_rejects_bad_value_with_one_error_line(tmp_path, capsys, values):
    out_dir = tmp_path / "out"
    path = tmp_path / "bad.cfg"
    path.write_text(_with(GOOD_CONFIG, out_dir=out_dir, **values), encoding="utf-8")
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"'{next(iter(values))}'" in err[0]
    assert not out_dir.exists()


def _task_config(task: str, params: str) -> str:
    """GOOD_CONFIG with a task of kind ``task`` whose [task] section is ``params``."""
    head, _, rest = GOOD_CONFIG.partition("[task]\n")
    head = head.replace("teacher_student_regression", task)
    return f"{head}[task]\n{params}\n\n{rest[rest.index('[adapter]'):]}"


# each case: the config file's contents and what its one error line must name
BAD_FILES = {
    "missing-d_in": (GOOD_CONFIG.replace("d_in = 8\n", ""), "'d_in'"),
    "missing-d": (_task_config("two_cluster_classification", "k = 3"), "'d'"),
    "missing-path": (_task_config("csv_dataset", "target_column = y"), "'path'"),
    "optimizer-lr=nan": (_with(GOOD_CONFIG, lr="nan"), "'lr'"),
    "task-perturb_scale=inf": (_with(GOOD_CONFIG, perturb_scale="inf"), "'perturb_scale'"),
    "n_samples=0": (_with(GOOD_CONFIG, n_samples="0"), "'n_samples'"),
    "perturb_rank=-1": (_with(GOOD_CONFIG, perturb_rank="-1"), "'perturb_rank'"),
    "d_in=0": (_with(GOOD_CONFIG, d_in="0"), "'d_in'"),
    "not-utf8": (b"\xff\xfe[run]\ntask = teacher_student_regression\n", "bad.cfg"),
}


@pytest.mark.parametrize("contents, named", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_cli_run_rejects_bad_task_or_file_with_one_error_line(tmp_path, capsys, contents, named):
    out_dir = tmp_path / "out"
    path = tmp_path / "bad.cfg"
    if isinstance(contents, bytes):
        path.write_bytes(contents)
    else:
        path.write_text(_with(contents, out_dir=out_dir), encoding="utf-8")
    assert cli_main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not out_dir.exists()


@pytest.mark.parametrize("kind, params, missing", [
    ("teacher_student_regression", {"d_in": 4, "d_out": 4}, "d_hidden"),
    ("two_cluster_classification", {"k": 3}, "d"),
    ("csv_dataset", {"path": "data.csv"}, "target_column"),
])
def test_build_task_names_missing_required_key(kind, params, missing):
    with pytest.raises(ConfigError, match=f"missing required key '{missing}'"):
        build_task(kind, params, np.random.default_rng(0))
    with pytest.raises(ConfigError, match=f"missing required key '{missing}'"):
        RunConfig(task=kind, task_params=params)


TASK = {"d_in": 8, "d_hidden": 16, "d_out": 4}


# a RunConfig built in code holds what a parsed one would: each value of its declared type
@pytest.mark.parametrize("key, fields", [
    ("alpha", {"alpha": "16"}),
    ("steps", {"steps": "5"}),
    ("lr", {"lr": "1e-3"}),
    ("d_in", {"task_params": {**TASK, "d_in": "8"}}),
    ("steps", {"steps": True}),
], ids=["alpha=str", "steps=str", "lr=str", "d_in=str", "steps=bool"])
def test_code_built_config_checks_each_type(key, fields):
    with pytest.raises(ConfigError, match=f"invalid config key '{key}': expected"):
        RunConfig(task="teacher_student_regression", **{"task_params": TASK, **fields})


def test_code_built_config_takes_an_int_for_a_float():
    cfg = RunConfig(task="teacher_student_regression", task_params={**TASK, "noise_sd": 0},
                    alpha=16, lr=1, weight_decay=0, epsilon=1)
    assert cfg.hyperparams().lr == 1 and cfg.alpha == 16


def test_optimizer_section_is_the_fields_of_hyperparams():
    # hyperparams() passes every [optimizer] key, and HyperParams checks each
    assert _SECTIONS["optimizer"] == tuple(f.name for f in dataclasses.fields(HyperParams))


def test_cli_run_rejects_non_finite_csv_row_before_any_draw(tmp_path, capsys):
    # the data is checked when the task is built, not when a batch happens
    # to draw the bad row, so every seed fails alike and writes nothing
    data = tmp_path / "data.csv"
    rows = [f"{i % 7}.0,{i % 3}.0,{i % 5}.0" for i in range(99)] + ["1.0,nan,2.0"]
    data.write_text("x1,x2,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    params = f"path = {data}\ntarget_column = y"
    text = _task_config("csv_dataset", params).replace("rank = 2", "rank = 1")
    for seed in range(4):
        out_dir = tmp_path / f"out{seed}"
        path = tmp_path / "nan.cfg"
        path.write_text(_with(text, steps=5, batch_size=4, seed=seed, out_dir=out_dir),
                        encoding="utf-8")
        assert cli_main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(data) in err[0]
        assert "csv_dataset" in err[0] and "non-finite" in err[0]
        assert not out_dir.exists()


def test_cli_run_reports_missing_config_file(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "missing.cfg" in err[0]


def test_every_field_in_exactly_one_section():
    listed = sorted(key for keys in _SECTIONS.values() for key in keys)
    fields = sorted(f.name for f in dataclasses.fields(RunConfig) if f.name != "task_params")
    assert listed == fields


def test_readme_config_parses_and_names_every_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    parse_config_text(block)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(block)
    for section, keys in _SECTIONS.items():
        assert set(parser[section]) == set(keys), section
    assert set(parser["task"]) == set(task_keys(parser["run"]["task"]))


def test_config_round_trip_dict():
    cfg = parse_config_text(GOOD_CONFIG)
    echo = cfg.to_dict()
    assert echo["run"]["seed"] == 3
    assert echo["adapter"]["rank"] == 2
    assert echo["task"]["perturb_rank"] == 4


def test_teacher_student_task_shapes_and_determinism():
    params = {"d_in": 6, "d_hidden": 10, "d_out": 3, "n_samples": 40,
              "noise_sd": 0.0, "perturb_rank": 2, "perturb_scale": 0.5}
    t1 = build_task("teacher_student_regression", params, np.random.default_rng(5))
    t2 = build_task("teacher_student_regression", params, np.random.default_rng(5))
    assert t1.inputs.shape == (40, 6)
    assert t1.targets.shape == (40, 3)
    assert [w.shape for w in t1.base_weights] == [(6, 10), (10, 3)]
    assert t1.activations == ["tanh", "identity"] and t1.loss_kind == "mse"
    assert np.array_equal(t1.inputs, t2.inputs)
    assert np.array_equal(t1.base_weights[0], t2.base_weights[0])


def test_teacher_student_perturbation_is_low_rank():
    params = {"d_in": 8, "d_hidden": 8, "d_out": 8, "n_samples": 10,
              "noise_sd": 0.0, "perturb_rank": 2, "perturb_scale": 0.5}
    rng = np.random.default_rng(6)
    task = build_task("teacher_student_regression", params, rng)
    # regenerate the teacher with the same stream to recover the perturbation
    ref = build_task("teacher_student_regression",
                     dict(params, perturb_scale=0.0), np.random.default_rng(6))
    for base, teacher in zip(task.base_weights, ref.base_weights):
        delta = base - teacher
        sv = np.linalg.svd(delta, compute_uv=False)
        assert int(np.sum(sv > 1e-9 * sv[0])) == 2


def test_two_cluster_task():
    task = build_task("two_cluster_classification",
                      {"d": 5, "k": 3, "n_samples": 30}, np.random.default_rng(7))
    assert task.inputs.shape == (30, 5)
    assert task.targets.dtype == np.int64
    assert task.loss_kind == "softmax_cross_entropy"
    assert task.base_weights[0].shape == (5, 3)
    assert set(np.unique(task.targets)) <= {0, 1, 2}


def test_csv_task(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n4.0,5.0,9.0\n0.5,0.5,1.0\n")
    task = build_task("csv_dataset", {"path": str(path), "target_column": "y"},
                      np.random.default_rng(8))
    assert task.inputs.shape == (3, 2)
    assert task.targets.shape == (3, 1)
    assert task.loss_kind == "mse"
    with pytest.raises(ConfigError, match="target_column"):
        build_task("csv_dataset", {"path": str(path), "target_column": "label"},
                   np.random.default_rng(8))
    with pytest.raises(ConfigError, match="'loss'"):
        build_task("csv_dataset",
                   {"path": str(path), "target_column": "y", "loss": "softmax_crossentropy"},
                   np.random.default_rng(8))


@pytest.mark.parametrize("unusable", ["missing", "directory", "not-utf8"])
def test_unusable_csv_file_raises_config_error_naming_it(tmp_path, capsys, unusable):
    path = tmp_path / "data.csv"
    if unusable == "directory":
        path.mkdir()
    elif unusable == "not-utf8":
        path.write_bytes(b"x1,y\n\xff\xfe,1.0\n")
    params = {"path": str(path), "target_column": "y"}
    with pytest.raises(ConfigError, match=r"\[task\] path") as built:
        build_task("csv_dataset", params, np.random.default_rng(0))
    assert str(path) in str(built.value)
    cfg = RunConfig(task="csv_dataset", task_params=params, rank=1, out_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match=r"\[task\] path") as trained:
        Trainer(cfg)
    assert str(trained.value) == str(built.value)
    config_path = tmp_path / "run.cfg"
    text = _task_config("csv_dataset", f"path = {path}\ntarget_column = y")
    config_path.write_text(_with(text, rank=1, out_dir=tmp_path / "out"), encoding="utf-8")
    assert cli_main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"error: {built.value}"


def test_csv_task_classification(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1.0,2.0,0\n4.0,5.0,1\n0.5,0.5,1\n")
    task = build_task(
        "csv_dataset",
        {"path": str(path), "target_column": "y", "loss": "softmax_cross_entropy"},
        np.random.default_rng(9),
    )
    assert task.loss_kind == "softmax_cross_entropy"
    assert task.base_weights[0].shape == (2, 2)
    assert np.array_equal(task.targets, np.array([0, 1, 1]))
