"""Low-rank adapter training with closed-form gradient adjustment.

The package provides a small dense linear-algebra kernel, a Sylvester solver,
adapter layers, the gradient adjustment itself with its loss-decrease
certificate, the adjusted optimizer loops beside plain-LoRA and full
fine-tuning AdamW references, brute-force oracles that certify the closed
forms, and a seeded experiment harness with a CLI.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DescentViolationError,
    EigenDecompositionError,
    FactorizationError,
    LoraProError,
    NonFiniteError,
    RankDeficiencyError,
    ShapeError,
    SpectrumError,
    StateError,
)
from .gradadjust import (
    AdjustedGrads,
    DampingPolicy,
    GradBundle,
    Projection,
    TangentGeometry,
    adjust,
    choose_x,
    equivalent_gradient,
    lora_raw_grads,
    loss_decrease_certificate,
    shift,
)
from .lora import (
    InitScheme,
    LoraLayer,
    apply_decayed_merge_step,
    effective_weight,
    init_layer,
)
from .model import Batch, Network, backward, forward
from .optim import (
    AdamWState,
    HyperParams,
    init_adamw_state,
    lorapro_adamw_step,
    lorapro_sgd_step,
    lr_at,
)

__version__ = "0.1.0"

__all__ = [
    "AdamWState",
    "AdjustedGrads",
    "Batch",
    "CheckpointError",
    "ConfigError",
    "DampingPolicy",
    "DescentViolationError",
    "EigenDecompositionError",
    "FactorizationError",
    "GradBundle",
    "HyperParams",
    "InitScheme",
    "LoraLayer",
    "LoraProError",
    "Network",
    "NonFiniteError",
    "Projection",
    "RankDeficiencyError",
    "ShapeError",
    "SpectrumError",
    "StateError",
    "TangentGeometry",
    "adjust",
    "apply_decayed_merge_step",
    "backward",
    "choose_x",
    "effective_weight",
    "equivalent_gradient",
    "forward",
    "init_adamw_state",
    "init_layer",
    "lora_raw_grads",
    "lorapro_adamw_step",
    "lorapro_sgd_step",
    "loss_decrease_certificate",
    "lr_at",
    "shift",
]
