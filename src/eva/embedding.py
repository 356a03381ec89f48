"""Event tokenization and input embedding.

An event's spatial component (x, y, p) maps bijectively onto an integer
token in [0, 2*H*W); the token indexes a learnable table. Timing enters
through a sinusoidal embedding of the inter-event gap in raw microseconds,
summed onto the spatial row.
"""

from __future__ import annotations

import numpy as np


def tok(x: int, y: int, p: int, H: int, W: int):
    """token = p*H*W + y*W + x. Accepts scalars or arrays."""
    x, y, p = np.asarray(x), np.asarray(y), np.asarray(p)
    if np.any((x < 0) | (x >= W)) or np.any((y < 0) | (y >= H)):
        raise ValueError("coordinate out of bounds")
    if np.any((p != 0) & (p != 1)):
        raise ValueError("polarity outside {0,1}")
    out = p.astype(np.int64) * (H * W) + y.astype(np.int64) * W + x.astype(np.int64)
    return out if out.ndim else int(out)


def untok(token, H: int, W: int):
    """Inverse of tok: token -> (x, y, p)."""
    token = np.asarray(token)
    if np.any((token < 0) | (token >= 2 * H * W)):
        raise ValueError("token out of range")
    p, rem = np.divmod(token.astype(np.int64), H * W)
    y, x = np.divmod(rem, W)
    if token.ndim:
        return x, y, p
    return int(x), int(y), int(p)


_FREQ_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _freq_ladder(D: int) -> tuple[np.ndarray, np.ndarray]:
    if D not in _FREQ_CACHE:
        k = np.arange(D, dtype=np.float64)
        _FREQ_CACHE[D] = (1.0 / np.power(10000.0, 2.0 * k / D),
                          (k.astype(np.int64) % 2 == 0))
    return _FREQ_CACHE[D]


def embed_temporal(dt, D: int, dtype=np.float64) -> np.ndarray:
    """Sinusoidal embedding of a microsecond gap.

    Component k is sin(dt / 10000^(2k/D)) for even k and
    cos(dt / 10000^(2k/D)) for odd k.
    """
    if D % 2:
        raise ValueError("D must be even")
    inv_freq, even = _freq_ladder(D)
    dt = np.asarray(dt, dtype=np.float64)
    angles = dt[..., None] * inv_freq
    out = np.where(even, np.sin(angles), np.cos(angles))
    return out.astype(dtype)


def init_embedding_table(vocab: int, D: int, rng: np.random.Generator,
                         dtype=np.float64, scale: float = 1e-4) -> np.ndarray:
    # near-zero init keeps the residual stream dominated by timing early on
    return rng.uniform(-scale, scale, size=(vocab, D)).astype(dtype)


def embed_events(tokens: np.ndarray, dts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """table[token] + sinusoid(dt) for arrays of tokens/gaps (any leading shape)."""
    D = table.shape[1]
    return table[tokens] + embed_temporal(dts, D, dtype=table.dtype)


def event_to_token_dt(events: np.ndarray, H: int, W: int, prev_t: int | None = None):
    """Token and dt arrays for a patch-local event stream.

    The first gap is 0 when prev_t is None (stream start), otherwise
    t[0] - prev_t.
    """
    tokens = tok(events["x"], events["y"], events["p"], H, W)
    t = events["t"].astype(np.int64)
    if len(t) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    base = t[0] if prev_t is None else prev_t
    dts = np.diff(t, prepend=base)
    return np.asarray(tokens, dtype=np.int64), dts
