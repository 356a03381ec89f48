"""Multi-task losses with learned uncertainty weighting.

Each task contributes a mean-squared error; the total is
sum_k exp(-s_k) L_k + s_k with one learnable log-variance s_k per task.
All s_k = 0 reduces to the plain sum.
"""

from __future__ import annotations

import numpy as np


class LossWeights:
    """One scalar log-variance per task name."""

    def __init__(self, task_names, dtype=np.float64):
        self.s = {name: np.zeros((), dtype) for name in task_names}

    def named(self) -> dict[str, np.ndarray]:
        return {f"loss_s.{k}": v for k, v in self.s.items()}


def task_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over every element (chunk ends, channels, pixels)."""
    d = pred - target
    return float(np.mean(d * d))


def combine(mses: dict[str, float], weights: LossWeights) -> float:
    total = 0.0
    for name, L in mses.items():
        s = float(weights.s[name])
        total += np.exp(-s) * L + s
    return float(total)


def combine_backward(mses: dict[str, float], weights: LossWeights):
    """d(total)/d(L_k) and d(total)/d(s_k) per task."""
    dL = {}
    ds = {}
    for name, L in mses.items():
        s = float(weights.s[name])
        dL[name] = float(np.exp(-s))
        ds[name] = 1.0 - np.exp(-s) * L
    return dL, ds
