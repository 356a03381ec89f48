"""The event-by-event (recurrent) evaluation of the encoder, batched.

This is the only recurrent implementation. Every step takes a leading
batch axis: B independent streams (tokens and gaps of shape (B,), states
whose arrays are (B, ...)) advance by one event each, through one numpy
call per op. Serving batches the k-th pending event of every active
patch into one step (`pipeline.A2SPipeline`); `encoder.encode_sequence_
recurrent` steps with B = 1 as the mode-equivalence reference for the
chunked-parallel `encoder.encode_sequence`.

The r/k/v/g mixes and the decay share one stacked LoRA matmul pair, the
norms reduce with matmuls against a column of 1/D, and the decay
pre-activation is capped at `blocks._D_CAP` as in the chunked path, so
the two modes use one formula. 2-D products call np.dot, whose dispatch
costs less than `@` for a batch of one. Every state array is written in
place, so a state of views (such as one stream's state with a batch axis
of one added, `EncoderState.rows(None)`) is advanced where it lives.
Parameter tensors are referenced, not copied, except for the stacked
views built at construction; mutate parameters -> rebuild the runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .blocks import _D_CAP
from .embedding import _freq_ladder
from .params import LN_EPS, BlockParams, EncoderParams, MvhsParams

if TYPE_CHECKING:
    from .encoder import EncoderState


class _LayerNorm:
    """Layer norm over the last axis of x (B, D) in few numpy calls: the row
    means are one matmul with a column of 1/D and the squared norms one
    batched dot product. The gain is stored times sqrt(D) and epsilon
    times D, so the variance needs no division by D."""
    __slots__ = ("avg", "g", "b", "eps")

    def __init__(self, g, b):
        D = g.shape[0]
        self.avg = np.full((D, 1), 1.0 / D, g.dtype)
        self.g = g * np.sqrt(g.dtype.type(D))
        self.b = b
        self.eps = g.dtype.type(LN_EPS * D)

    def __call__(self, x):
        xc = x - np.dot(x, self.avg)
        ss = np.matmul(xc[:, None, :], xc[:, :, None])[:, 0]
        return xc * (self.g / np.sqrt(ss + self.eps)) + self.b


def _pad_to(a, shape):
    """a zero-padded at the end of each axis to `shape`."""
    return np.pad(a, [(0, n - k) for k, n in zip(a.shape, shape)])


class _BlockRt:
    __slots__ = ("bp", "ln1", "ln2", "A5", "B5", "lam5", "W_stack", "mu_c", "u_h",
                 "head_avg", "n_heads", "d_head")

    def __init__(self, bp: BlockParams, n_heads: int):
        self.bp = bp
        D = bp.mu.shape[0]
        # the r, k, v, g mixes and the decay d as one stacked LoRA; a
        # narrower path is zero-padded, which adds exact zeros
        width = max(bp.A_r.shape[1], bp.A_w.shape[1])
        self.A5 = np.stack([_pad_to(getattr(bp, f"A_{n}"), (D, width)) for n in "rkvgw"])
        self.B5 = np.stack([_pad_to(getattr(bp, f"B_{n}"), (width, D)) for n in "rkvgw"])
        self.lam5 = np.stack([bp.lam_r, bp.lam_k, bp.lam_v, bp.lam_g, bp.lam_d])[:, None]
        self.W_stack = np.stack([bp.W_r, bp.W_k, bp.W_v, bp.W_g])
        self.mu_c = np.stack([bp.mu_cr, bp.mu_ck])[:, None]
        self.n_heads = n_heads
        self.d_head = D // n_heads
        self.u_h = bp.u.reshape(n_heads, self.d_head, 1)
        self.ln1 = _LayerNorm(bp.ln1_g, bp.ln1_b)
        self.ln2 = _LayerNorm(bp.ln2_g, bp.ln2_b)
        self.head_avg = np.full((self.d_head, 1), 1.0 / self.d_head, bp.mu.dtype)

    def step(self, x, state) -> np.ndarray:
        """x: (B, D); state: a BlockState of (B, ...) arrays, updated in
        place. Returns the block output (B, D)."""
        bp = self.bp
        Bsz, D = x.shape
        N, Dh = self.n_heads, self.d_head
        a = self.ln1(x)
        delta = state.tm_prev - a
        m = a + delta * bp.mu
        G = self.lam5 + np.matmul(np.tanh(np.matmul(m, self.A5)), self.B5)
        rkvg = np.matmul(a + delta * G[:4], self.W_stack)
        w = np.exp(-np.exp(np.minimum(G[4], _D_CAP)))

        rh = rkvg[0].reshape(Bsz, N, Dh)
        kh = rkvg[1].reshape(Bsz, N, Dh)
        vh = rkvg[2].reshape(Bsz, N, Dh)
        g = rkvg[3]
        S = state.S
        kv = kh[..., None] * vh[:, :, None, :]
        y = np.matmul(S + self.u_h * kv, rh[..., None])[..., 0]
        S *= w.reshape(Bsz, N, Dh, 1)
        S += kv

        yc = y - np.dot(y, self.head_avg)
        yn = (yc / np.sqrt(np.dot(yc * yc, self.head_avg) + LN_EPS)).reshape(Bsz, D)
        h = x + np.dot(g / (1.0 + np.exp(-g)) * yn, bp.W_o)

        b2 = self.ln2(h)
        mix_rk = b2 + (state.cm_prev - b2) * self.mu_c
        rr = np.dot(mix_rk[0], bp.W_cr)
        kr = np.maximum(np.dot(mix_rk[1], bp.W_ck), 0.0)
        out = h + np.dot(kr * kr, bp.W_cv) / (1.0 + np.exp(-rr))
        state.tm_prev[...] = a
        state.cm_prev[...] = b2
        return out


class _MvhsRt:
    __slots__ = ("mp", "A3", "B3", "lam3", "W_kv", "n_heads", "d_head")

    def __init__(self, mp: MvhsParams, n_heads: int, d_head: int):
        self.mp = mp
        # the k and v mixes (width D) and the decay d (width Ds) as one
        # stacked LoRA, zero-padded to the wider of each
        (D, Dl), (Dw, Ds) = mp.A_k.shape, mp.B_w.shape
        width, out = max(Dl, Dw), max(D, Ds)
        self.A3 = np.stack([_pad_to(a, (D, width)) for a in (mp.A_k, mp.A_v, mp.A_w)])
        self.B3 = np.stack([_pad_to(b, (width, out)) for b in (mp.B_k, mp.B_v, mp.B_w)])
        self.lam3 = np.stack([_pad_to(c, (out,)) for c in (mp.lam_k, mp.lam_v, mp.lam_d)])[:, None]
        self.W_kv = np.stack([mp.W_k, mp.W_v])
        self.n_heads = n_heads
        self.d_head = d_head

    def step(self, x, state) -> np.ndarray | None:
        """x: (B, D); state: an MvhsState of (B, ...) arrays, updated in
        place. Returns None when every row's update (k, v and the decay w)
        is finite, else the (B,) mask of the rows whose update is not; the
        matrix state of those rows is then non-finite and must be discarded
        (`EncoderRuntime.step` zeroes it)."""
        Bsz, D = x.shape
        N, Dh = self.n_heads, self.d_head
        delta = state.prev - x
        m = x + delta * self.mp.mu
        G = self.lam3 + np.matmul(np.tanh(np.matmul(m, self.A3)), self.B3)
        kv = np.matmul(x + delta * G[:2, :, :D], self.W_kv)
        w = np.exp(-np.exp(np.minimum(G[2, :, :N * Dh], _D_CAP)))
        bad = None
        if not (np.isfinite(kv).all() and np.isfinite(w).all()):
            bad = ~(np.isfinite(kv).all((0, 2)) & np.isfinite(w).all(1))
        S = state.S
        S *= w.reshape(Bsz, N, Dh, 1)
        S += kv[0].reshape(Bsz, N, Dh, 1) * kv[1].reshape(Bsz, N, 1, Dh)
        state.prev[...] = x
        return bad


class EncoderRuntime:
    """Bound fast path over a fixed parameter set."""

    def __init__(self, params: EncoderParams):
        cfg = params.config
        self.params = params
        self.blocks = [_BlockRt(bp, cfg.n_heads) for bp in params.blocks]
        self.mvhs = _MvhsRt(params.mvhs, cfg.mvhs_heads, cfg.mvhs_d_head)
        self.inv_freq, self.even = _freq_ladder(cfg.d_model)
        self.ln0 = _LayerNorm(params.ln0_g, params.ln0_b)
        self.dtype = params.dtype

    def step(self, state: EncoderState, tokens, dts) -> np.ndarray | None:
        """Absorb token `tokens[i]` with gap `dts[i]` into row i of the
        batched `state`, in place. Returns None when every row's update was
        finite, else the (B,) mask of the rows whose update was not: their
        block and MVHS state is zeroed and their event_index left as it was."""
        p = self.params
        angles = dts[:, None] * self.inv_freq
        temporal = np.where(self.even, np.sin(angles), np.cos(angles))
        x = p.embed.take(tokens, 0) + temporal.astype(self.dtype)
        h = self.ln0(x)
        for blk, bs in zip(self.blocks, state.blocks):
            h = blk.step(h, bs)
        bad = self.mvhs.step(h, state.mvhs)
        if bad is None:
            state.event_index += 1
        else:
            for arr in state.tensors():
                arr[bad] = 0.0
            state.event_index += ~bad
        return bad

    def ingest(self, state: EncoderState, tokens, ts) -> np.ndarray | None:
        """`step` with absolute timestamps: the gap is taken from each row's
        last_t (0 for a stream's first event), and last_t advances on the
        rows whose update was finite. Returns what `step` returns."""
        last = state.last_t
        bad = self.step(state, tokens, np.where(last < 0, 0, ts - last))
        np.copyto(last, ts, where=True if bad is None else ~bad)
        return bad
