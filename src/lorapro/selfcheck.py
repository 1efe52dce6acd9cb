"""Numerical certification suite.

Each property pits a closed form against an independent reference: the
vectorized least-squares oracle, the analytic double-projection residual,
the Kronecker-built Sylvester system, perturbation scans, and
central-difference gradients. The oracle's own internal consistency runs
first, so an oracle bug shows up as self-inconsistency instead of silently
blessing the implementation. The suite is what the ``selfcheck`` CLI
command executes; the acceptance tests drive the same functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .gradadjust import (
    DampingPolicy,
    GradBundle,
    TangentGeometry,
    adjust,
    equivalent_gradient,
    lora_raw_grads,
    loss_decrease_certificate,
)
from .linalg import frob_norm, numerical_rank
from .lora import LoraLayer, effective_weight
from .model import (
    Batch,
    ForwardCache,
    Network,
    backward,
    backward_weight_grads,
    forward,
    forward_with_weights,
)
from .oracle import (
    brute_force_optimal_grads,
    finite_diff_grad,
    projection_residual_norm_sq,
    solve_sylvester_kron,
    x_objective_scan,
)

__all__ = [
    "PropertyResult", "SelfcheckReport", "oracle_minima", "random_instances", "run_selfcheck",
]

# Full-rank instances get exact (undamped) Gram inversions; the two Sylvester
# properties solve on the Grams a run damps by default, and the rank-zero
# start is exercised by its own tests elsewhere.
EXACT = DampingPolicy(rel_epsilon=0.0)
SHIPPED = DampingPolicy()
DEFAULT_INSTANCES = 200
MAX_FACTOR_COND = 1e2


@dataclass
class PropertyResult:
    name: str
    passed: bool
    instances: int
    worst: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"{status} {self.name}: instances={self.instances} "
            f"worst={self.worst:.3e} tol={self.tolerance:.0e}"
        )
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class SelfcheckReport:
    seed: int
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "properties": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "instances": r.instances,
                    "worst_residual": r.worst,
                    "tolerance": r.tolerance,
                    "detail": r.detail,
                }
                for r in self.results
            ],
        }

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        out.append(f"{'PASS' if self.passed else 'FAIL'} overall ({len(self.results)} properties)")
        return out


def _conditioned(rng: np.random.Generator, shape: tuple[int, int], max_cond: float) -> np.ndarray:
    # rejection-sample a Gaussian matrix with bounded condition number, so
    # the full-rank assumption holds with numerical margin
    while True:
        x = rng.normal(size=shape)
        sv = np.linalg.svd(x, compute_uv=False)
        if sv[-1] > 0.0 and sv[0] / sv[-1] <= max_cond:
            return x


def random_instances(
    seed: int, count: int = DEFAULT_INSTANCES
) -> list[tuple[LoraLayer, GradBundle]]:
    """Random full-rank adapter instances with their full-gradient bundles."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    while len(out) < count:
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(3, m, n) + 1))
        s = float((0.5, 1.0, 2.0)[rng.integers(3)])
        b = _conditioned(rng, (m, r), MAX_FACTOR_COND)
        a = _conditioned(rng, (r, n), MAX_FACTOR_COND)
        g = rng.normal(size=(m, n))
        layer = LoraLayer(w0=np.zeros((m, n)), b=b, a=a, scaling=s)
        out.append((layer, lora_raw_grads(layer, g)))
    return out


def _rel(diff: float, *scales: float) -> float:
    return diff / max(1e-12, *map(abs, scales))


def _worse(worst: float, value: float) -> float:
    """The larger of two errors, where a NaN in either counts as the larger.

    Python's ``max(worst, value)`` keeps ``worst`` when ``value`` is NaN, so a
    property folding with it would pass on a NaN error; this fold carries the
    NaN through to ``_result``, which fails it.
    """
    return value if value > worst or math.isnan(value) else worst


def _result(name, worst, tol, count, detail="") -> PropertyResult:
    return PropertyResult(
        name=name, passed=bool(worst <= tol), instances=count, worst=float(worst),
        tolerance=tol, detail=detail,
    )


def oracle_minima(instances) -> np.ndarray:
    """Each instance's least-squares minimum and its double-projection residual.

    Both are minima of the adjustment objective, by two independent routes;
    the suite computes them once, for ``check_oracle_consistency`` and
    ``check_adjustment_optimality`` to read. One float64 row per instance.
    """
    minima = np.empty((len(instances), 2))
    for row, (layer, bundle) in zip(minima, instances):
        row[0] = brute_force_optimal_grads(layer, bundle.g_full)[2]
        row[1] = projection_residual_norm_sq(layer, bundle.g_full)
    return minima


def check_oracle_consistency(minima) -> PropertyResult:
    """Least-squares oracle vs the analytic double-projection residual, from ``oracle_minima``."""
    worst = 0.0
    for objective, formula in minima:
        worst = _worse(worst, _rel(abs(objective - formula), objective, formula, 1.0))
    return _result("oracle_self_consistency", worst, 1e-8, len(minima))


def _sylvester_solve(rng: np.random.Generator, r: int) -> tuple:
    """The X that a random rank-``r`` layer's geometry solves under the
    shipped damping for a Gaussian right-hand side c, with (p, q, c).

    The coefficients p = B^T B + eps_b I and q = A A^T + eps_a I of its
    equation are formed here from the factors, with each eps the shipped
    relative damping times the mean diagonal of its Gram. The factors are at
    least 2r long, so that well-conditioned draws are common at every rank.
    """
    m, n = (int(d) for d in rng.integers(2 * r, 2 * r + 5, size=2))
    layer = LoraLayer(
        w0=np.zeros((m, n)),
        b=_conditioned(rng, (m, r), MAX_FACTOR_COND),
        a=_conditioned(rng, (r, n), MAX_FACTOR_COND),
        scaling=1.0,
    )
    p, q = (g + SHIPPED.rel_epsilon * float(np.mean(np.diag(g))) * np.eye(r)
            for g in (layer.b.T @ layer.b, layer.a @ layer.a.T))
    c = rng.normal(size=(r, r))
    return TangentGeometry(layer, SHIPPED).solve_sylvester(c), p, q, c


def check_sylvester_residual(seed: int) -> PropertyResult:
    """The X that training solves satisfies its Sylvester equation."""
    rng = np.random.default_rng(np.random.SeedSequence(seed + 101))
    worst = 0.0
    count = 0
    for r in (1, 2, 4, 8, 16):
        for _ in range(20):
            x, p, q, c = _sylvester_solve(rng, r)
            resid = frob_norm(p @ x + x @ q - c) / max(1.0, frob_norm(c))
            worst = _worse(worst, resid)
            count += 1
    return _result("sylvester_residual", worst, 1e-8, count)


def check_sylvester_kron_agreement(seed: int) -> PropertyResult:
    """The X that training solves matches the Kronecker-built reference."""
    rng = np.random.default_rng(np.random.SeedSequence(seed + 202))
    worst = 0.0
    count = 40
    for _ in range(count):
        x, p, q, c = _sylvester_solve(rng, int(rng.integers(1, 5)))
        x_ref = solve_sylvester_kron(p, q, c)
        worst = _worse(worst, _rel(frob_norm(x - x_ref), frob_norm(x_ref), 1.0))
    return _result("sylvester_kronecker_agreement", worst, 1e-8, count)


def _objective(layer, bundle, adjusted) -> float:
    g_tilde = equivalent_gradient(layer, adjusted.g_a, adjusted.g_b)
    return float(np.sum((g_tilde - bundle.g_full) ** 2))


def check_adjustment_optimality(instances, minima, adjust_fn=adjust) -> list[PropertyResult]:
    """The closed form's objective matches both independent references.

    ``minima`` are the instances' ``oracle_minima``.
    """
    worst_bf = 0.0
    worst_proj = 0.0
    for (layer, bundle), (reference, formula) in zip(instances, minima, strict=True):
        adjusted = adjust_fn(layer, bundle, strategy="sylvester", policy=EXACT)
        ours = _objective(layer, bundle, adjusted)
        worst_bf = _worse(worst_bf, _rel(abs(ours - reference), ours, reference, 1.0))
        worst_proj = _worse(worst_proj, _rel(abs(ours - formula), ours, formula, 1.0))
    return [
        _result("adjustment_optimality_vs_bruteforce", worst_bf, 1e-7, len(instances)),
        _result("adjustment_optimality_vs_projection", worst_proj, 1e-8, len(instances)),
    ]


def check_x_invariance(instances, adjust_fn=adjust) -> PropertyResult:
    """Every X selection yields the same equivalent gradient."""
    worst = 0.0
    rng = np.random.default_rng(np.random.SeedSequence(999))
    for layer, bundle in instances:
        geo = TangentGeometry(layer, EXACT)
        tildes = []
        for strategy in ("zero", "symmetry", "sylvester"):
            adj = adjust_fn(layer, bundle, strategy=strategy, policy=EXACT, geometry=geo)
            tildes.append(equivalent_gradient(layer, adj.g_a, adj.g_b))
        random_x = rng.normal(size=(layer.rank, layer.rank))
        adj = adjust_fn(layer, bundle, policy=EXACT, x_override=random_x, geometry=geo)
        tildes.append(equivalent_gradient(layer, adj.g_a, adj.g_b))
        for i in range(len(tildes)):
            for j in range(i + 1, len(tildes)):
                diff = frob_norm(tildes[i] - tildes[j])
                worst = _worse(worst, _rel(diff, frob_norm(tildes[i]), 1.0))
    return _result("equivalent_gradient_x_invariance", worst, 1e-9, len(instances))


def check_idempotence(instances, adjust_fn=adjust) -> PropertyResult:
    """Adjusting the projected gradient again must reproduce it."""
    worst = 0.0
    for layer, bundle in instances:
        geo = TangentGeometry(layer, EXACT)
        adj = adjust_fn(layer, bundle, strategy="zero", policy=EXACT, geometry=geo)
        g_tilde = equivalent_gradient(layer, adj.g_a, adj.g_b)
        replay = adjust_fn(
            layer, lora_raw_grads(layer, g_tilde), strategy="zero", policy=EXACT, geometry=geo
        )
        again = equivalent_gradient(layer, replay.g_a, replay.g_b)
        worst = _worse(worst, _rel(frob_norm(again - g_tilde), frob_norm(g_tilde), 1.0))
    return _result("adjustment_idempotence", worst, 1e-9, len(instances))


def check_certificate(instances, adjust_fn=adjust) -> PropertyResult:
    """Predicted loss change at lr 0.1 is nonpositive (and matches the pairing identity)."""
    worst = -np.inf
    for layer, bundle in instances:
        adjusted = adjust_fn(layer, bundle, strategy="sylvester", policy=EXACT)
        dl = loss_decrease_certificate(adjusted, 0.1)
        worst = _worse(worst, dl)
    return _result("descent_certificate", worst, 1e-12, len(instances))


def check_certificate_first_order(seed: int, adjust_fn=adjust) -> PropertyResult:
    """Realized loss change over lr converges to the certificate's slope.

    On a quadratic (mse, single linear layer) loss, the ratio of the realized
    change to the predicted first-order change must approach 1 monotonically
    as the step size shrinks through 1e-2, 1e-3, 1e-4, staying within 5%.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed + 303))
    worst = 0.0
    count = 10
    gammas = (1e-2, 1e-3, 1e-4)
    for _ in range(count):
        m, n, r = 4, 5, 2
        layer = LoraLayer(
            w0=0.1 * rng.normal(size=(m, n)),
            b=_conditioned(rng, (m, r), 20.0),
            a=_conditioned(rng, (r, n), 20.0),
            scaling=1.0,
        )
        batch = Batch(inputs=rng.normal(size=(16, m)), targets=rng.normal(size=(16, n)))
        net = Network(layers=[layer], activations=["identity"], loss_kind="mse")
        loss0, cache = forward(net, batch)
        bundle = backward(cache)[0]
        adjusted = adjust_fn(layer, bundle, strategy="sylvester", policy=EXACT)

        deviations = []
        for gamma in gammas:
            dl = loss_decrease_certificate(adjusted, gamma)
            stepped = LoraLayer(
                w0=layer.w0,
                b=layer.b - gamma * adjusted.g_b,
                a=layer.a - gamma * adjusted.g_a,
                scaling=layer.scaling,
            )
            loss1, _ = forward(
                Network(layers=[stepped], activations=["identity"], loss_kind="mse"), batch
            )
            ratio = (loss1 - loss0) / dl
            deviations.append(abs(ratio - 1.0))
        worst = _worse(worst, deviations[0])
        # monotone approach: allow rounding slack once deviations are tiny
        for earlier, later in zip(deviations, deviations[1:]):
            if later > earlier + 1e-6:
                worst = _worse(worst, 1.0)
    return _result("descent_certificate_first_order", worst, 0.05, count)


def check_sylvester_x_optimality(instances, adjust_fn=adjust) -> PropertyResult:
    """The Sylvester X beats 50 random perturbations per magnitude and solves its equation."""
    rng = np.random.default_rng(np.random.SeedSequence(424242))
    n_perturbations = 50
    worst_gap = 0.0
    worst_resid = 0.0
    for layer, bundle in instances:
        s = layer.scaling
        x_star = adjust_fn(layer, bundle, strategy="sylvester", policy=EXACT).x
        best = x_objective_scan(layer, bundle, x_star)
        gram_b = layer.b.T @ layer.b
        gram_a = layer.a @ layer.a.T
        rhs = -np.linalg.solve(gram_b, bundle.g_a_lora) @ layer.a.T / s**2
        resid = frob_norm(gram_b @ x_star + x_star @ gram_a - rhs) / max(1.0, frob_norm(rhs))
        worst_resid = _worse(worst_resid, resid)
        # unit directions (the same stream as one draw each, scaled by frob_norm's
        # dot product), scanned in one stack per magnitude
        deltas = rng.normal(size=(n_perturbations, *x_star.shape))
        flat = deltas.reshape(n_perturbations, -1)
        deltas /= np.sqrt(flat[:, np.newaxis, :] @ flat[:, :, np.newaxis])
        for mag in (1e-3, 1e-1, 1.0):
            others = x_objective_scan(layer, bundle, x_star + mag * deltas)
            # optimality margin, _rel per perturbation: a positive gap means one
            # won, and a NaN gap propagates into worst and fails the property
            gaps = (best - others) / np.maximum(max(1e-12, abs(best), 1.0), np.abs(others))
            worst_gap = float(np.max(gaps, initial=worst_gap))
    worst = _worse(worst_gap, worst_resid)
    return _result(
        "sylvester_x_optimality",
        worst,
        1e-8,
        len(instances),
        detail=f"max residual {worst_resid:.3e}",
    )


def check_rank_bound(instances, adjust_fn=adjust) -> PropertyResult:
    """Equivalent gradients never exceed rank 2r."""
    worst = 0.0
    strict_cases = 0
    count = 0
    for layer, bundle in instances:
        adj = adjust_fn(layer, bundle, strategy="zero", policy=EXACT)
        g_tilde = equivalent_gradient(layer, adj.g_a, adj.g_b)
        bound = 2 * layer.rank
        excess = numerical_rank(g_tilde) - bound
        worst = _worse(worst, float(excess))
        if bound < min(layer.shape) and numerical_rank(bundle.g_full) > bound:
            strict_cases += 1
        count += 1
    return _result(
        "equivalent_gradient_rank_bound",
        worst,
        0.0,
        count,
        detail=f"{strict_cases} strictly rank-limited cases",
    )


def _random_network(rng: np.random.Generator, loss_kind: str, activations_pool) -> tuple:
    depth = int(rng.integers(1, 4))
    dims = [int(rng.integers(3, 9)) for _ in range(depth + 1)]
    layers = []
    acts = []
    for i in range(depth):
        m, n = dims[i], dims[i + 1]
        r = int(rng.integers(1, min(m, n) + 1))
        layers.append(
            LoraLayer(
                w0=0.5 * rng.normal(size=(m, n)),
                b=rng.normal(size=(m, r)),
                a=rng.normal(size=(r, n)),
                scaling=1.0,
            )
        )
        acts.append(activations_pool[int(rng.integers(len(activations_pool)))])
    if loss_kind == "softmax_cross_entropy":
        targets = rng.integers(0, dims[-1], size=4).astype(np.int64)
    else:
        targets = rng.normal(size=(4, dims[-1]))
    batch = Batch(inputs=rng.normal(size=(4, dims[0])), targets=targets)
    net = Network(layers=layers, activations=acts, loss_kind=loss_kind)
    return net, batch


def _relu_safe(cache: ForwardCache) -> bool:
    """No relu layer's pre-activation, formed anew from the dense cache, lies
    within 0.01 of the kink."""
    return all(act != "relu" or np.min(np.abs(x @ w)) >= 0.01
               for x, w, act in zip(cache.post_activations, cache.weights, cache.activations))


def _loss_at_w0(net: Network, batch: Batch, weights, i: int) -> Callable:
    """The batch loss as a function of layer ``i``'s w0, with every factor held.

    ``weights`` are the network's effective weights. A probe adds the
    layer's s*B*A product to the w0 it is given, the operations
    ``lora.effective_weight`` makes, so each loss equals, bit for bit, the
    ``forward_with_weights`` loss over the effective weights of the network
    rebuilt around a layer holding that w0.
    """
    layer = net.layers[i]
    product = layer.b @ layer.a
    product *= layer.scaling
    probe = list(weights)

    def loss(w0: np.ndarray) -> float:
        probe[i] = product + w0
        return forward_with_weights(probe, net.activations, net.loss_kind, batch)[0]

    return loss


def check_chain_rule_and_gradients(seed: int) -> list[PropertyResult]:
    """The factored backward against the dense one, and the dense one against
    central differences, on 20 networks.

    The dense reference is ``backward_weight_grads`` over
    ``forward_with_weights`` of the layers' effective weights. Each bundle of
    ``backward`` must hold s*B^T g and s*g*A^T as its factor gradients and g
    as its factored x^T delta, for that dense g; and g must match central
    differences of the loss in the layer's w0.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed + 404))
    activations_pool = ("identity", "relu", "tanh")
    worst_fd = 0.0
    worst_eq = 0.0
    built = 0
    while built < 20:
        loss_kind = ("mse", "softmax_cross_entropy")[built % 2]
        net, batch = _random_network(rng, loss_kind, activations_pool)
        weights = [effective_weight(layer) for layer in net.layers]
        _, dense = forward_with_weights(weights, net.activations, net.loss_kind, batch)
        # finite differences need a margin from relu kinks; resample if close
        if not _relu_safe(dense):
            continue
        built += 1
        _, cache = forward(net, batch)
        for i, (layer, bundle, g) in enumerate(
            zip(net.layers, backward(cache), backward_weight_grads(dense), strict=True)
        ):
            s = layer.scaling
            for ours, ref in ((bundle.g_a_lora, s * (layer.b.T @ g)),
                              (bundle.g_b_lora, s * (g @ layer.a.T)),
                              (bundle.full_gradient(), g)):
                worst_eq = _worse(worst_eq, _rel(frob_norm(ours - ref), frob_norm(ref), 1.0))

            fd = finite_diff_grad(_loss_at_w0(net, batch, weights, i), layer.w0, 1e-5)
            worst_fd = _worse(worst_fd, frob_norm(fd - g) / (frob_norm(g) + 1e-3))
    return [
        _result("chain_rule_identities", worst_eq, 1e-10, built),
        _result("gradient_finite_difference", worst_fd, 1e-5, built),
    ]


def run_selfcheck(seed: int = 0, adjust_fn: Callable = adjust) -> SelfcheckReport:
    """Run every property; the oracle's internal consistency goes first.

    ``adjust_fn`` stands in for ``gradadjust.adjust`` in every property that
    adjusts, and receives its keyword arguments, ``geometry`` included: a
    property that passes one builds one TangentGeometry per instance and
    passes it to each call it makes on that layer. The oracle minima are
    computed once, for the two properties that read them. A property that
    raises counts as failed (with the exception recorded) rather than
    aborting the rest of the suite; an oracle that raises fails both. A seed
    that is not a non-negative integer raises ConfigError before any
    property runs.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"invalid seed: expected a non-negative integer, got {seed!r}")
    instances = random_instances(seed)
    # not cached when it raises, so each property that reads it records the exception
    minima = functools.cache(lambda: oracle_minima(instances))
    checks = [
        ("oracle_self_consistency", lambda: check_oracle_consistency(minima())),
        ("sylvester_residual", lambda: check_sylvester_residual(seed)),
        ("sylvester_kronecker_agreement", lambda: check_sylvester_kron_agreement(seed)),
        (
            "adjustment_optimality",
            lambda: check_adjustment_optimality(instances, minima(), adjust_fn),
        ),
        ("equivalent_gradient_x_invariance", lambda: check_x_invariance(instances, adjust_fn)),
        ("adjustment_idempotence", lambda: check_idempotence(instances, adjust_fn)),
        ("descent_certificate", lambda: check_certificate(instances, adjust_fn)),
        (
            "descent_certificate_first_order",
            lambda: check_certificate_first_order(seed, adjust_fn),
        ),
        ("sylvester_x_optimality", lambda: check_sylvester_x_optimality(instances, adjust_fn)),
        ("equivalent_gradient_rank_bound", lambda: check_rank_bound(instances, adjust_fn)),
        ("chain_rule_and_gradients", lambda: check_chain_rule_and_gradients(seed)),
    ]
    report = SelfcheckReport(seed=seed)
    for name, fn in checks:
        try:
            outcome = fn()
        except Exception as exc:  # a crashed property is a failed property
            outcome = PropertyResult(
                name=name, passed=False, instances=0, worst=float("inf"), tolerance=0.0,
                detail=f"raised {type(exc).__name__}: {exc}",
            )
        report.results.extend(outcome if isinstance(outcome, list) else [outcome])
    return report
