"""Shared test utilities."""

import contextlib

import numpy as np
import pytest

from eva import scan
from eva.encoder import encode_events
from eva.events import partition_patches
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


def chunked_frame(params: EncoderParams, events, geometry, t_ref=None):
    """The frame of `events` up to t_ref (default: all of them) from the
    chunked-parallel path: each patch's events through `encode_events`,
    the final state's output channels tiled into place. The reference that
    live and offline encoding, both recurrent, are checked against.
    Returns (values (n_out, rows * Dh, cols * Dh) float32, watermarks
    (rows, cols) int64, -1 where a patch saw nothing)."""
    cfg = params.config
    Dh, n_out = cfg.mvhs_d_head, cfg.n_out
    R, C = geometry.grid_rows, geometry.grid_cols
    values = np.zeros((n_out, R * Dh, C * Dh), np.float32)
    marks = np.full((R, C), -1, np.int64)
    for (r, c), local in partition_patches(events, geometry).items():
        if t_ref is not None:
            local = local[local["t"] <= t_ref]
        if len(local):
            snaps, _ = encode_events(params, local)
            values[:, r * Dh:(r + 1) * Dh, c * Dh:(c + 1) * Dh] = snaps[-1, :n_out]
            marks[r, c] = local["t"][-1]
    return values, marks
