"""Shared test utilities."""

import contextlib

import numpy as np
import pytest

from eva import scan
from eva.params import SLOW_DECAY_BIAS, EncoderParams, named_arrays


def randomize_params(params: EncoderParams, seed: int, scale: float = 0.5) -> None:
    """Overwrite every tensor with uniform noise (exercises all gradient
    paths, unlike the structured init)."""
    rng = np.random.default_rng(seed)
    for name, arr in named_arrays(params).items():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape).astype(arr.dtype)
        if name.endswith("lam_d"):
            arr[...] = arr + SLOW_DECAY_BIAS


@contextlib.contextmanager
def outer_chunk(n: int):
    """Scan in outer chunks of n tokens (`scan.DEFAULT_CHUNK`) inside the
    block; the default comes back on exit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "DEFAULT_CHUNK", n)
        yield


def heads_innermost(S):
    """Whether the matrix states S (..., N, Dh, Dh) are stored in memory
    order (Dh, Dh, ..., N)."""
    return np.moveaxis(S, (-2, -1), (0, 1)).flags.c_contiguous
