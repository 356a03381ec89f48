"""Adam with bias correction, operating in place on a named parameter dict."""

from __future__ import annotations

import numpy as np


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, step: int = 1) -> None:
    """One update on a single tensor; m, v, param are modified in place."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    mhat = m / (1.0 - beta1 ** step)
    vhat = v / (1.0 - beta2 ** step)
    param -= lr * mhat / (np.sqrt(vhat) + eps)


class Adam:
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
            adam_step(p, g, self.m[name], self.v[name], self.lr,
                      self.beta1, self.beta2, self.eps, self.t)
