"""Adam with bias correction, operating in place on a named parameter dict."""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              lr: float, step: int = 1) -> None:
    """One update on a single tensor; m, v, param are modified in place."""
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * (grad * grad)
    mhat = m / (1.0 - BETA1 ** step)
    vhat = v / (1.0 - BETA2 ** step)
    param -= lr * mhat / (np.sqrt(vhat) + EPS)


class Adam:
    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Updates every tensor in place. Raises FloatingPointError, before
        any tensor, m, v or t changes, if a gradient is non-finite."""
        for name in params:
            if not np.all(np.isfinite(grads[name])):
                raise FloatingPointError(f"non-finite gradient for {name}")
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            adam_step(p, g, self.m[name], self.v[name], self.lr, self.t)
