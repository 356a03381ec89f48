"""Shared test utilities."""

import numpy as np

from eva.params import SLOW_DECAY_BIAS, EncoderParams, named_arrays


def randomize_params(params: EncoderParams, seed: int, scale: float = 0.5) -> None:
    """Overwrite every tensor with uniform noise (exercises all gradient
    paths, unlike the structured init)."""
    rng = np.random.default_rng(seed)
    for name, arr in named_arrays(params).items():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape).astype(arr.dtype)
        if name.endswith("lam_d"):
            arr[...] = arr + SLOW_DECAY_BIAS
