"""Adam with bias correction over identity-keyed parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .autodiff import Tensor

# the moment decay rates and the denominator guard of Kingma & Ba (2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus a shared step counter.

    Moments are keyed by parameter identity, so the same state object must
    be reused across steps for the same parameter tensors.
    """

    learning_rate: float = 1e-3
    step: int = 0
    moments: dict[Tensor, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(params: Sequence[Tensor], grads: Mapping[Tensor, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to params in place.

    A parameter with an exactly zero gradient (and zero accumulated
    moments) is left bit-identical. Non-finite or mis-shaped gradients
    reject the whole update.
    """
    for p in params:
        g = grads.get(p)
        if g is None:
            raise ValueError("adam_step: missing gradient for a parameter")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} does not match parameter {p.data.shape}")
        if not np.isfinite(g).all():
            raise ValueError("adam_step: non-finite gradient, update rejected")
    state.step += 1
    t = state.step
    for p in params:
        g = np.asarray(grads[p], dtype=np.float64)
        m, v = state.moments.get(p, (np.zeros_like(p.data), np.zeros_like(p.data)))
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        state.moments[p] = (m, v)
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
