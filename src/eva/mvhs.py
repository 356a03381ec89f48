"""Matrix-state output layer: the per-head state IS the representation.

Structurally a token-mixing sublayer stripped to its k/v/decay paths: no
read-out vector, no bonus term, no gating or output projection. The state
accumulates decayed outer products event by event; snapshots of the first
`n_out` head matrices form the representation handed to consumers. This
module holds the chunked form; the event-by-event step is `runtime._MvhsRt`.

The projection width (`mvhs_state_dim`) normally equals the model width,
but may differ (e.g. the width-1-head ablation used for size accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scan
from .config import EncoderConfig
from .blocks import _outer_grad
from .params import MvhsParams


@dataclass
class MvhsState:
    S: np.ndarray     # (N, Dh, Dh)
    prev: np.ndarray  # (D,) last layer input

    @classmethod
    def zeros(cls, cfg: EncoderConfig, dtype=None) -> "MvhsState":
        dtype = dtype or cfg.dtype
        return cls(
            S=np.zeros((cfg.mvhs_heads, cfg.mvhs_d_head, cfg.mvhs_d_head), dtype),
            prev=np.zeros(cfg.d_model, dtype),
        )

    def copy(self) -> "MvhsState":
        return MvhsState(self.S.copy(), self.prev.copy())


def select_channels(S: np.ndarray, n_out: int) -> np.ndarray:
    """Keep the lowest-indexed `n_out` head matrices (copying)."""
    if not 0 < n_out <= S.shape[0]:
        raise ValueError(f"n_out must be in [1, {S.shape[0]}], got {n_out}")
    return S[:n_out].copy()


def mvhs_parallel(x: np.ndarray, mp: MvhsParams, S0: np.ndarray, checkpoints,
                  carry=None, chunk: int = scan.DEFAULT_CHUNK):
    """States after each checkpoint prefix of a (T, D) input sequence.

    Checkpoint indices are 1-based event counts (sorted, <= T). Returns
    (snapshots (K, N, Dh, Dh), final state). Equivalent to stepping
    recurrently and snapshotting.
    """
    T, D = x.shape
    N, Dh, _ = S0.shape
    if carry is None:
        carry = np.zeros(D, dtype=x.dtype)
    snaps, S_fin, _ = _mvhs_seq(x[None], carry[None], S0[None], mp, N,
                                list(checkpoints), chunk)
    return snaps[0], S_fin[0]


def _mvhs_seq(x, carry, S0, mp: MvhsParams, n_heads: int, checkpoints,
              chunk: int, want_cache: bool = False):
    """Batched core: x (B, T, D). Returns (snaps, S_fin, new_carry[, cache])."""
    B, T, D = x.shape
    Dh = S0.shape[-1]
    x_prev = np.concatenate([carry[:, None], x[:, :-1]], axis=1)
    delta = x_prev - x
    m = x + delta * mp.mu

    q_k = np.tanh(m @ mp.A_k)
    gk = mp.lam_k + q_k @ mp.B_k
    mixed_k = x + delta * gk
    k = mixed_k @ mp.W_k

    q_v = np.tanh(m @ mp.A_v)
    gv = mp.lam_v + q_v @ mp.B_v
    mixed_v = x + delta * gv
    v = mixed_v @ mp.W_v

    q_d = np.tanh(m @ mp.A_w)
    d = mp.lam_d + q_d @ mp.B_w
    lw = -np.exp(d)

    Ds = k.shape[-1]
    kh = k.reshape(B, T, n_heads, Dh)
    vh = v.reshape(B, T, n_heads, Dh)
    lwh = lw.reshape(B, T, n_heads, Dh)
    if want_cache:
        snaps, S_fin, scan_cache = scan.state_scan_forward(
            kh, vh, lwh, S0, checkpoints, chunk, want_cache=True)
        cache = {"x": x, "delta": delta, "m": m, "q_k": q_k, "gk": gk,
                 "mixed_k": mixed_k, "q_v": q_v, "gv": gv, "mixed_v": mixed_v,
                 "q_d": q_d, "lw": lw, "scan": scan_cache, "mp": mp,
                 "n_heads": n_heads, "Ds": Ds}
        return snaps, S_fin, x[:, -1].copy(), cache
    snaps, S_fin = scan.state_scan_forward(kh, vh, lwh, S0, checkpoints, chunk)
    return snaps, S_fin, x[:, -1].copy()


def _mvhs_seq_bwd(cache, dSnaps, dS_fin=None):
    """Returns (dx, d_carry, grads dict keyed by MvhsParams field name)."""
    mp: MvhsParams = cache["mp"]
    x, delta, m = cache["x"], cache["delta"], cache["m"]
    B, T, D = x.shape
    if dS_fin is None:
        dS_fin = np.zeros_like(cache["scan"]["s_ins"][0])
    dk_h, dv_h, dlw_h, _ = scan.state_scan_backward(cache["scan"], dSnaps, dS_fin)
    Ds = cache["Ds"]
    dk = dk_h.reshape(B, T, Ds)
    dv = dv_h.reshape(B, T, Ds)
    dd = dlw_h.reshape(B, T, Ds) * cache["lw"]

    grads = {}
    grads["lam_d"] = dd.sum((0, 1))
    grads["B_w"] = _outer_grad(cache["q_d"], dd)
    dz_d = (dd @ mp.B_w.T) * (1.0 - cache["q_d"] ** 2)
    grads["A_w"] = _outer_grad(m, dz_d)
    dm = dz_d @ mp.A_w.T

    dx = np.zeros_like(x)
    ddelta = np.zeros_like(x)
    for name, dproj in (("k", dk), ("v", dv)):
        W = getattr(mp, f"W_{name}")
        mixed = cache[f"mixed_{name}"]
        q = cache[f"q_{name}"]
        gmix = cache[f"g{name}"]
        grads[f"W_{name}"] = _outer_grad(mixed, dproj)
        dmixed = dproj @ W.T
        dx += dmixed
        ddelta += dmixed * gmix
        dgmix = dmixed * delta
        grads[f"lam_{name}"] = dgmix.sum((0, 1))
        Bm = getattr(mp, f"B_{name}")
        grads[f"B_{name}"] = _outer_grad(q, dgmix)
        dz = (dgmix @ Bm.T) * (1.0 - q * q)
        grads[f"A_{name}"] = _outer_grad(m, dz)
        dm += dz @ getattr(mp, f"A_{name}").T

    dx += dm
    ddelta += dm * mp.mu
    grads["mu"] = (dm * delta).sum((0, 1))

    dx -= ddelta
    dx[:, :-1] += ddelta[:, 1:]
    d_carry = ddelta[:, 0].copy()
    return dx, d_carry, grads
