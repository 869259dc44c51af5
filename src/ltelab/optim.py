"""SGD and AdamW steppers with per-parameter state.

Both steppers are pure: they take the parameter and return a new array,
leaving the input untouched. AdamW uses decoupled weight decay applied from
the pre-step parameter value, independently of the adaptive term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Matrix


@dataclass(frozen=True)
class OptimConfig:
    eta: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class AdamState:
    """First/second moment estimates for one parameter tensor."""

    m: Matrix
    v: Matrix
    step_count: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), step_count=0)


def sgd_step(param: Matrix, grad: Matrix, eta: float) -> Matrix:
    """param - eta * grad."""
    if param.shape != grad.shape:
        raise ValueError(f"sgd_step shape mismatch: {param.shape} vs {grad.shape}")
    return param - eta * grad


def adamw_step(
    param: Matrix, grad: Matrix, state: AdamState, cfg: OptimConfig
) -> tuple[Matrix, AdamState]:
    """One AdamW step; returns the new parameter and the advanced state.

    Update: m <- b1 m + (1-b1) g; v <- b2 v + (1-b2) g^2; with bias-corrected
    m_hat, v_hat the parameter moves by -eta*wd*param - eta*m_hat/(sqrt(v_hat)+eps),
    decay taken from the pre-step value before the adaptive term.
    """
    if param.shape != grad.shape:
        raise ValueError(f"adamw_step shape mismatch: {param.shape} vs {grad.shape}")
    if state.m.shape != param.shape or state.v.shape != param.shape:
        raise ValueError("adamw_step state shape mismatch")
    t = state.step_count + 1
    # the docstring's formula, operation for operation, on five fresh arrays
    m = np.multiply(state.m, cfg.beta1)
    tmp = np.multiply(grad, 1.0 - cfg.beta1)
    m += tmp
    v = np.multiply(state.v, cfg.beta2)
    v += np.multiply(np.multiply(grad, grad, out=tmp), 1.0 - cfg.beta2, out=tmp)
    denom = np.divide(v, 1.0 - cfg.beta2**t)  # v_hat
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    np.divide(m, 1.0 - cfg.beta1**t, out=tmp)  # m_hat
    tmp *= cfg.eta
    tmp /= denom
    new = np.multiply(param, cfg.eta * cfg.weight_decay)
    np.subtract(param, new, out=new)
    new -= tmp
    return new, AdamState(m=m, v=v, step_count=t)
