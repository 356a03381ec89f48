"""The event-by-event (recurrent) evaluation of the encoder.

This is the only recurrent implementation: serving steps it, and
`encoder.encode_sequence_recurrent` wraps it for the mode-equivalence
tests against the chunked-parallel `encoder.encode_sequence`. The four
r/k/v/g projection paths are stacked into batched matmuls and the norms
written as plain dot products, which keeps per-event numpy dispatch low.
Parameter tensors are referenced, not copied, except for the stacked
views built at construction; mutate parameters -> rebuild the runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .embedding import _freq_ladder
from .params import LN_EPS, BlockParams, EncoderParams, MvhsParams

if TYPE_CHECKING:
    from .encoder import EncoderState


def _ln(x, g, b, eps=LN_EPS):
    D = x.shape[0]
    mu = x.sum() / D
    xc = x - mu
    var = (xc @ xc) / D
    return xc * (g / np.sqrt(var + eps)) + b


class _BlockRt:
    __slots__ = ("bp", "A_cat", "B_stack", "W_stack", "lam_stack", "u_h",
                 "n_heads", "d_head", "d_lora")

    def __init__(self, bp: BlockParams, n_heads: int):
        self.bp = bp
        self.A_cat = np.concatenate([bp.A_r, bp.A_k, bp.A_v, bp.A_g], axis=1)
        self.B_stack = np.stack([bp.B_r, bp.B_k, bp.B_v, bp.B_g])
        self.W_stack = np.stack([bp.W_r, bp.W_k, bp.W_v, bp.W_g])
        self.lam_stack = np.stack([bp.lam_r, bp.lam_k, bp.lam_v, bp.lam_g])
        D = bp.mu.shape[0]
        self.n_heads = n_heads
        self.d_head = D // n_heads
        self.d_lora = bp.A_r.shape[1]
        self.u_h = bp.u.reshape(n_heads, self.d_head)

    def step(self, x, state) -> np.ndarray:
        bp = self.bp
        N, Dh, Dl = self.n_heads, self.d_head, self.d_lora
        a = _ln(x, bp.ln1_g, bp.ln1_b)
        delta = state.tm_prev - a
        m = a + delta * bp.mu
        z = np.tanh(m @ self.A_cat).reshape(4, 1, Dl)
        gmix = self.lam_stack + np.matmul(z, self.B_stack)[:, 0]
        mixed = a + delta * gmix
        rkvg = np.matmul(mixed[:, None, :], self.W_stack)[:, 0]
        d = bp.lam_d + np.tanh(m @ bp.A_w) @ bp.B_w
        w = np.exp(-np.exp(d))

        rh = rkvg[0].reshape(N, Dh)
        kh = rkvg[1].reshape(N, Dh)
        vh = rkvg[2].reshape(N, Dh)
        g = rkvg[3]
        S = state.S
        kv = kh[:, :, None] * vh[:, None, :]
        y = np.matmul(S + self.u_h[:, :, None] * kv, rh[:, :, None])[:, :, 0]
        S *= w.reshape(N, Dh)[:, :, None]
        S += kv

        ym = y.sum(1) / Dh
        yc = y - ym[:, None]
        inv = 1.0 / np.sqrt((yc * yc).sum(1) / Dh + LN_EPS)
        yn = (yc * inv[:, None]).reshape(-1)
        sg = g / (1.0 + np.exp(-g))
        h = x + (sg * yn) @ bp.W_o

        b2 = _ln(h, bp.ln2_g, bp.ln2_b)
        deltac = state.cm_prev - b2
        rr = (b2 + deltac * bp.mu_cr) @ bp.W_cr
        kk = (b2 + deltac * bp.mu_ck) @ bp.W_ck
        kr = np.maximum(kk, 0.0)
        out = h + ((kr * kr) @ bp.W_cv) / (1.0 + np.exp(-rr))
        state.tm_prev = a
        state.cm_prev = b2
        return out


class _MvhsRt:
    __slots__ = ("mp", "A_cat", "n_heads", "d_head", "d_lora")

    def __init__(self, mp: MvhsParams, n_heads: int, d_head: int):
        self.mp = mp
        self.A_cat = np.concatenate([mp.A_k, mp.A_v], axis=1)
        self.n_heads = n_heads
        self.d_head = d_head
        self.d_lora = mp.A_k.shape[1]

    def step(self, x, state) -> None:
        """Raises FloatingPointError, before `state.S` is written, if the
        update (k, v or the decay w) is non-finite."""
        mp = self.mp
        N, Dh, Dl = self.n_heads, self.d_head, self.d_lora
        delta = state.prev - x
        m = x + delta * mp.mu
        z = np.tanh(m @ self.A_cat)
        gk = mp.lam_k + z[:Dl] @ mp.B_k
        gv = mp.lam_v + z[Dl:] @ mp.B_v
        k = (x + delta * gk) @ mp.W_k
        v = (x + delta * gv) @ mp.W_v
        d = mp.lam_d + np.tanh(m @ mp.A_w) @ mp.B_w
        w = np.exp(-np.exp(d))
        if not (np.isfinite(k).all() and np.isfinite(v).all() and np.isfinite(w).all()):
            raise FloatingPointError("non-finite MVHS update")
        S = state.S
        S *= w.reshape(N, Dh)[:, :, None]
        S += k.reshape(N, Dh)[:, :, None] * v.reshape(N, Dh)[:, None, :]
        state.prev = x


class EncoderRuntime:
    """Bound fast path over a fixed parameter set."""

    def __init__(self, params: EncoderParams):
        cfg = params.config
        self.params = params
        self.blocks = [_BlockRt(bp, cfg.n_heads) for bp in params.blocks]
        self.mvhs = _MvhsRt(params.mvhs, cfg.mvhs_heads, cfg.mvhs_d_head)
        self.inv_freq, self.even = _freq_ladder(cfg.d_model)
        self.dtype = params.dtype

    def step(self, state: EncoderState, token: int, dt: int) -> None:
        """Absorb one token with gap `dt` into `state`, in place.

        Raises FloatingPointError, before the matrix state is written, if
        the MVHS update is non-finite (a non-finite block output makes it
        so); the block states are then already advanced, so the caller
        must discard them.
        """
        p = self.params
        angles = dt * self.inv_freq
        temporal = np.where(self.even, np.sin(angles), np.cos(angles))
        x = p.embed[token] + temporal.astype(self.dtype)
        h = _ln(x, p.ln0_g, p.ln0_b)
        for blk, bs in zip(self.blocks, state.blocks):
            h = blk.step(h, bs)
        self.mvhs.step(h, state.mvhs)
        state.event_index += 1

    def ingest(self, state: EncoderState, token: int, t: int) -> None:
        dt = 0 if state.last_t < 0 else t - state.last_t
        self.step(state, token, dt)
        state.last_t = t
