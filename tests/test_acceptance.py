"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import EXACT, adamw_step
from lorapro.config import RunConfig, parse_config_text
from lorapro.gradadjust import adjust, lora_raw_grads, loss_decrease_certificate
from lorapro.harness import Trainer, _rows, compare, run
from lorapro.linalg import numerical_rank
from lorapro.lora import LoraLayer
from lorapro.optim import HyperParams, init_adamw_state
from lorapro.selfcheck import (
    check_adjustment_optimality,
    check_certificate_first_order,
    check_chain_rule_and_gradients,
    check_rank_bound,
    check_sylvester_x_optimality,
    check_x_invariance,
    oracle_minima,
    random_instances,
)

SEED = 0


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} — {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def instances():
    return random_instances(SEED, count=200)


def test_adjustment_reaches_least_squares_optimum(instances):
    start = time.time()
    results = check_adjustment_optimality(instances, oracle_minima(instances))
    elapsed = time.time() - start
    for result in results:
        _report(
            f"optimality ({result.name.rsplit('_', 1)[-1]})",
            result.passed,
            f"worst rel diff {result.worst:.3e} vs tol {result.tolerance:.0e}",
        )
    _report("optimality runtime", elapsed < 5.0, f"{elapsed:.2f}s for 200 instances")


def test_equivalent_gradient_ignores_x_choice(instances):
    result = check_x_invariance(instances)
    _report(
        "x-invariance of the equivalent gradient",
        result.passed,
        f"worst pairwise rel diff {result.worst:.3e} vs tol 1e-09",
    )


def test_certificate_nonpositive_and_identity(instances):
    worst_dl = -np.inf
    worst_identity = 0.0
    lr = 0.1
    for layer, bundle in instances:
        adjusted = adjust(layer, bundle, strategy="sylvester", policy=EXACT)
        dl = loss_decrease_certificate(adjusted, lr)
        pairing = -lr * (
            np.vdot(bundle.g_a_lora, adjusted.g_a) + np.vdot(bundle.g_b_lora, adjusted.g_b)
        )
        worst_dl = max(worst_dl, dl)
        worst_identity = max(
            worst_identity, abs(dl - pairing) / max(1.0, abs(dl), abs(pairing))
        )
    _report("certificate nonpositive", worst_dl <= 1e-12, f"max dL {worst_dl:.3e}")
    _report(
        "certificate pairing identity",
        worst_identity <= 1e-9,
        f"worst rel mismatch {worst_identity:.3e}",
    )


def test_certificate_first_order_limit():
    result = check_certificate_first_order(SEED)
    _report(
        "certificate first-order limit",
        result.passed,
        f"worst |ratio-1| {result.worst:.3e} at lr=1e-2, monotone to 1e-4",
    )


def test_sylvester_x_is_the_minimizer(instances):
    result = check_sylvester_x_optimality(instances)
    _report(
        "solver X optimality and residual",
        result.passed,
        f"worst {result.worst:.3e} ({result.detail})",
    )


def test_equivalent_gradient_rank_bound(instances):
    result = check_rank_bound(instances)
    strict = int(result.detail.split()[0])
    _report(
        "equivalent-gradient rank bound",
        result.passed and strict > 0,
        f"max rank excess {result.worst:.0f}; {strict} strictly limited cases",
    )


def test_backward_pass_matches_finite_differences():
    eq, fd = check_chain_rule_and_gradients(SEED)
    _report(
        "factor-gradient identities",
        eq.passed,
        f"worst rel deviation {eq.worst:.3e} vs tol 1e-10",
    )
    _report(
        "finite-difference gradient check",
        fd.passed,
        f"worst rel deviation {fd.worst:.3e} vs tol 1e-05 on {fd.instances} networks",
    )


def _rank_tracking_config(tmp_path, seed):
    return RunConfig(
        task="teacher_student_regression",
        task_params={"d_in": 8, "d_hidden": 16, "d_out": 4, "n_samples": 128,
                     "noise_sd": 0.01, "perturb_rank": 4, "perturb_scale": 0.5},
        method="lora_pro_adamw", steps=3, batch_size=32, seed=seed,
        out_dir=str(tmp_path / f"rank{seed}"), rank=2, alpha=16.0,
        scaling="rslora", init="standard", schedule="constant", lr=1e-3,
    )


def test_factor_rank_jumps_to_full_after_first_step(tmp_path):
    ok = True
    details = []
    for seed in (1, 2, 3, 4, 5):
        cfg = _rank_tracking_config(tmp_path, seed)
        trainer = Trainer(cfg)
        ranks0 = [numerical_rank(l.b) for l in trainer.network.layers]
        record = trainer.step()
        ranks1 = [lm.rank_b for lm in record.per_layer]
        ok = ok and all(r == 0 for r in ranks0) and all(r == cfg.rank for r in ranks1)
        details.append(f"seed {seed}: {ranks0}->{ranks1}")
    _report("factor rank 0 at init, full after one step", ok, "; ".join(details))


def test_method_comparison_verdicts(tmp_path):
    start = time.time()
    base = RunConfig(
        task="teacher_student_regression",
        task_params={"d_in": 8, "d_hidden": 16, "d_out": 4, "n_samples": 256,
                     "noise_sd": 0.0, "perturb_rank": 4, "perturb_scale": 0.5},
        method="lora_pro_adamw", steps=500, batch_size=256, seed=0,
        out_dir=str(tmp_path / "cmp"), rank=2, alpha=16.0, scaling="rslora",
        init="standard", schedule="constant", lr=0.1,
    )
    disc_wins = loss_wins = 0
    for seed in (1, 2, 3, 4, 5):
        cfg = base.with_overrides(seed=seed, out_dir=str(tmp_path / f"cmp{seed}"))
        verdicts = compare(cfg, ["lora", "lora_pro_adamw"]).verdicts
        disc_wins += bool(verdicts["lora_pro_discrepancy_below_lora"])
        loss_wins += bool(verdicts["lora_pro_final_loss_below_lora"])
    elapsed = time.time() - start
    _report(
        "adjusted run tracks the full gradient more closely",
        disc_wins >= 4,
        f"{disc_wins}/5 seeds (last-half mean discrepancy)",
    )
    _report(
        "adjusted run reaches a lower final training loss",
        loss_wins >= 4,
        f"{loss_wins}/5 seeds",
    )
    _report("comparison runtime", elapsed < 120.0, f"{elapsed:.1f}s for 5 seeds x 2 methods")


def test_full_rank_limit_matches_full_fine_tuning_trajectory():
    from lorapro.model import (
        Batch,
        Network,
        backward,
        backward_weight_grads,
        forward,
        forward_with_weights,
    )
    from lorapro.lora import effective_weight
    from lorapro.optim import full_ft_adamw_step

    rng = np.random.default_rng(7)
    m = n = r = 3
    layer = LoraLayer(w0=0.3 * rng.normal(size=(m, n)),
                      b=np.eye(m) + 0.05 * rng.normal(size=(m, r)),
                      a=rng.normal(size=(r, n)) / np.sqrt(r),
                      scaling=1.0)
    batch = Batch(inputs=rng.normal(size=(16, m)), targets=rng.normal(size=(16, n)))
    hp = HyperParams(lr=1e-4)
    state = init_adamw_state((m, n))
    ft_state = init_adamw_state((m, n))
    w = effective_weight(layer).copy()
    current = layer
    for _ in range(20):
        net = Network([current], ["identity"], "mse")
        _, cache = forward(net, batch)
        bundle = backward(cache)[0]
        current, state = adamw_step(current, state, bundle, hp)
        _, ft_cache = forward_with_weights([w], ["identity"], "mse", batch)
        g = backward_weight_grads(ft_cache)[0]
        w, ft_state = full_ft_adamw_step(w, ft_state, g, hp)
    gap = float(np.linalg.norm(effective_weight(current) - w))
    _report("full-rank limit shadows direct fine-tuning", gap < 1e-6,
            f"Frobenius gap {gap:.3e} after 20 steps")


def test_single_adamw_step_golden_values(unit_instance):
    layer, g = unit_instance
    bundle = lora_raw_grads(layer, g)
    state = init_adamw_state((2, 2))
    stepped, new_state = adamw_step(layer, state, bundle, HyperParams(lr=0.1), policy=EXACT)
    # hand execution: the equivalent gradient is [[1,2],[3,0]]; after the
    # bias-corrected first moment step each entry becomes m/(sqrt(v)+eps),
    # re-projection gives [[1/(1+e), 2/(2+e)]] and [[1/(1+e)],[3/(3+e)]],
    # the solver X is -1/(2(1+e)), and the factor updates follow
    eps = 1e-8
    expected_a = np.array([[1.0 - 0.05 / (1.0 + eps), -0.2 / (2.0 + eps)]])
    expected_b = np.array([[1.0 - 0.05 / (1.0 + eps)], [-0.3 / (3.0 + eps)]])
    gap = max(np.abs(stepped.a - expected_a).max(), np.abs(stepped.b - expected_b).max())
    ok = gap <= 1e-12 and new_state.t == 1
    ok = ok and np.allclose(new_state.m, 0.1 * np.array([[1.0, 2.0], [3.0, 0.0]]), atol=1e-15)
    _report("single-step golden values", ok, f"max deviation {gap:.3e}")


def test_reproducibility_and_checkpoint_round_trip(tmp_path):
    cfg = RunConfig(
        task="teacher_student_regression",
        task_params={"d_in": 6, "d_hidden": 10, "d_out": 3, "n_samples": 64,
                     "noise_sd": 0.01, "perturb_rank": 2, "perturb_scale": 0.5},
        method="lora_pro_adamw", steps=30, batch_size=8, seed=11,
        out_dir=str(tmp_path / "a"), rank=2, lr=5e-3,
        schedule="cosine_with_warmup", warmup_ratio=0.1,
    )
    r1 = run(cfg)
    r2 = run(cfg.with_overrides(out_dir=str(tmp_path / "b")))
    identical = Path(r1.csv_path).read_bytes() == Path(r2.csv_path).read_bytes()
    _report("same config+seed gives byte-identical metrics", identical)

    full = Trainer(cfg)
    full_rows = [full.step() for _ in range(30)]
    half = Trainer(cfg)
    head = [half.step() for _ in range(15)]
    ckpt = tmp_path / "state.bin"
    half.save(ckpt)
    resumed = Trainer.from_checkpoint(cfg, ckpt)
    tail = [resumed.step() for _ in range(15)]
    same = list(map(_rows, full_rows)) == list(map(_rows, head + tail))
    _report("checkpoint round trip continues bit-identically", same)


@pytest.mark.parametrize("workload", ["desk", "wide"])
def test_benchmark_reference_losses_hold(tmp_path, monkeypatch, workload):
    # the fixed-seed compare that perfbench/bench.py checks against
    # perfbench/references.json before it measures, run with its own settings
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    from bench import GOLDEN_SEED, METHODS, WORKLOADS, config_text

    references = json.loads((perfbench / "references.json").read_text(encoding="utf-8"))
    settings = WORKLOADS[workload]
    cfg = parse_config_text(
        config_text(settings, GOLDEN_SEED, settings.golden_steps, tmp_path / workload)
    )
    result = compare(cfg, list(METHODS))
    tolerance = references["rel_tolerance"]
    gaps = {}
    for method, want in references["final_loss"][workload].items():
        got = result.results[method].final_loss
        gaps[method] = abs(got - want) / abs(want)
    worst = max(gaps, key=gaps.get)
    _report(f"{workload} reference losses ({settings.golden_steps} steps)",
            all(gap <= tolerance for gap in gaps.values()) and set(gaps) == set(METHODS),
            f"worst relative gap {gaps[worst]:.1e} ({worst}) vs tol {tolerance:.0e}")
