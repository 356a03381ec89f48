"""The event-by-event (recurrent) evaluation of the encoder, batched.

This is the only recurrent implementation. Every step takes a leading
batch axis: B independent streams (tokens and gaps of shape (B,), states
whose arrays are (B, ...)) advance by one event each, through one numpy
call per op, from the chunked path's input embedding (the table row plus
`embedding.embed_temporal`). Serving batches the k-th pending event of
every active patch into one step (`pipeline.A2SPipeline`); `encoder.
encode_sequence_recurrent` steps with B = 1 as the mode-equivalence
reference for the chunked-parallel `encoder.encode_sequence`.

One token-shift front end, `_Front`, serves the block (paths r, k, v, g)
and the matrix-state layer (paths k, v): the mixes and the decay share
one stacked LoRA matmul pair, and the decay pre-activation is capped at
`blocks._D_CAP` as in the chunked path, so the two modes use one
formula. The norms reduce with matmuls against a column of 1/D (and one
batched dot product for the squared norms). 2-D products call np.dot,
whose dispatch costs less than `@` for a batch of one. Every state array
is written in place, so a state of views (such as one stream's state
with a batch axis of one added, `EncoderState.rows(None)`) is advanced
where it lives.

Matrix states are stepped heads-innermost. Their shape is (B, N, Dh, Dh),
but `encoder.EncoderState`, which alone decides the layout, stores them
in memory order (Dh_i, Dh_j, B, N), and a step works on the view
`S.transpose(2, 3, 0, 1)`, in which the (i, j) entry of every head of
every row is one run of B * N contiguous floats. The projections are
brought to the same order: the columns of W_r, W_k, W_v, W_g, of the
decay's B_w and lam_d and of u (and the rows of W_o) are permuted once,
at construction, from head-major (column n * Dh + i) to (i * N + n), so
one copy turns a (B, D) projection into (Dh, B, N). Then the outer
product k v^T, the read-out (S + u k v^T) r = S r + u k (v . r) and the
update S <- diag(w) S + k v^T are each one numpy op over B * N
contiguous floats, where in (B, N, Dh, Dh) order their inner loops were
Dh = 8 long. A state whose stores have other strides steps to the same
values, only slower.

Parameter tensors are referenced, not copied, except for the stacked and
permuted copies built at construction; mutate parameters -> rebuild the
runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .blocks import _D_CAP
from .embedding import embed_temporal
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
        ss = np.vecdot(xc, xc)[:, None]
        return xc * (self.g / np.sqrt(ss + self.eps)) + self.b


def _heads_inner(n_heads: int, d_head: int) -> np.ndarray:
    """The column order that puts a head-major width (column n * Dh + i)
    in (i, n) order (column i * N + n): a (B, N * Dh) projection through
    columns taken in this order reshapes to (B, Dh, N)."""
    return np.arange(n_heads * d_head).reshape(n_heads, d_head).T.ravel()


class _Front:
    """The token-shift front end of one step, for the TM paths r, k, v, g
    and the MVHS paths k, v alike: the ddlerp mixes of the named paths and
    the decay d as one stacked LoRA, decay last. Narrower LoRA or output
    widths are zero-padded, which adds exact zeros. The decay and the
    projections are in (i, n) order."""
    __slots__ = ("mu", "A", "B", "lam", "W", "n_heads", "d_head")

    def __init__(self, p, paths: str, n_heads: int, d_head: int):
        perm = _heads_inner(n_heads, d_head)
        As = [getattr(p, f"A_{n}") for n in paths] + [p.A_w]
        Bs = [getattr(p, f"B_{n}") for n in paths] + [p.B_w.take(perm, 1)]
        lams = [getattr(p, f"lam_{n}") for n in paths] + [p.lam_d[perm]]
        width = max(a.shape[1] for a in As)
        out = max(b.shape[1] for b in Bs)
        self.A = np.stack([np.pad(a, ((0, 0), (0, width - a.shape[1]))) for a in As])
        self.B = np.stack([np.pad(b, ((0, width - b.shape[0]), (0, out - b.shape[1])))
                           for b in Bs])
        self.lam = np.stack([np.pad(c, (0, out - c.shape[0])) for c in lams])[:, None]
        self.W = np.stack([getattr(p, f"W_{n}").take(perm, 1) for n in paths])
        self.mu = p.mu
        self.n_heads = n_heads
        self.d_head = d_head

    def __call__(self, x, prev):
        """x: (B, D) inputs; prev: (B, D), the input before x. Returns the
        decay w (Dh, 1, B, N) and the projections (paths, Dh, B, N)."""
        Bsz, D = x.shape
        N, Dh = self.n_heads, self.d_head
        delta = prev - x
        m = x + delta * self.mu
        G = self.lam + np.matmul(np.tanh(np.matmul(m, self.A)), self.B)
        d = G[-1, :, :N * Dh].reshape(Bsz, Dh, 1, N).transpose(1, 2, 0, 3)
        w = np.exp(-np.exp(np.minimum(d, _D_CAP, order="C")))
        proj = np.matmul(x + delta * G[:-1, :, :D], self.W)
        return w, np.ascontiguousarray(proj.reshape(-1, Bsz, Dh, N).swapaxes(1, 2))


class _BlockRt:
    __slots__ = ("bp", "ln1", "ln2", "front", "mu_c", "u", "head_avg", "n_heads", "d_head")

    def __init__(self, bp: BlockParams, n_heads: int):
        self.bp = bp
        D = bp.mu.shape[0]
        self.n_heads = n_heads
        self.d_head = D // n_heads
        self.front = _Front(bp, "rkvg", n_heads, self.d_head)
        self.u = bp.u[_heads_inner(n_heads, self.d_head)].reshape(self.d_head, 1, n_heads)
        self.mu_c = np.stack([bp.mu_cr, bp.mu_ck])[:, None]
        self.ln1 = _LayerNorm(bp.ln1_g, bp.ln1_b)
        self.ln2 = _LayerNorm(bp.ln2_g, bp.ln2_b)
        self.head_avg = np.full((1, self.d_head), 1.0 / self.d_head, bp.mu.dtype)

    def step(self, x, state) -> np.ndarray:
        """x: (B, D); state: a BlockState of (B, ...) arrays, updated in
        place. Returns the block output (B, D)."""
        bp = self.bp
        Bsz, D = x.shape
        N, Dh = self.n_heads, self.d_head
        a = self.ln1(x)
        w, (r, k, v, g) = self.front(a, state.tm_prev)

        S = state.S.transpose(2, 3, 0, 1)  # (Dh, Dh, B, N), a view
        kv = k[:, None] * v
        y = np.einsum("ijbn,jbn->ibn", S, r) + self.u * k * np.add.reduce(v * r, 0)
        S *= w
        S += kv

        y = y.reshape(Dh, -1)
        yc = y - np.dot(self.head_avg, y)
        yn = (yc / np.sqrt(np.dot(self.head_avg, yc * yc) + LN_EPS)).reshape(Dh, Bsz, N)
        z = g / (1.0 + np.exp(-g)) * yn
        h = x + np.dot(z.transpose(1, 2, 0).reshape(Bsz, D), bp.W_o)

        b2 = self.ln2(h)
        mix_rk = b2 + (state.cm_prev - b2) * self.mu_c
        rr = np.dot(mix_rk[0], bp.W_cr)
        kr = np.maximum(np.dot(mix_rk[1], bp.W_ck), 0.0)
        out = h + np.dot(kr * kr, bp.W_cv) / (1.0 + np.exp(-rr))
        state.tm_prev[...] = a
        state.cm_prev[...] = b2
        return out


class _MvhsRt:
    __slots__ = ("front",)

    def __init__(self, mp: MvhsParams, n_heads: int, d_head: int):
        self.front = _Front(mp, "kv", n_heads, d_head)

    def step(self, x, state) -> np.ndarray | None:
        """x: (B, D); state: an MvhsState of (B, ...) arrays, updated in
        place. Returns None when every row's update (k, v and the decay w)
        is finite, else the (B,) mask of the rows whose update is not; the
        matrix state of those rows is then non-finite and must be discarded
        (`EncoderRuntime.step` zeroes it)."""
        w, kv = self.front(x, state.prev)
        bad = None
        if not (np.isfinite(kv).all() and np.isfinite(w).all()):
            bad = ~(np.isfinite(kv).all((0, 1, 3)) & np.isfinite(w).all((0, 1, 3)))
        k, v = kv
        S = state.S.transpose(2, 3, 0, 1)
        S *= w
        S += k[:, None] * v
        state.prev[...] = x
        return bad


class EncoderRuntime:
    """Bound fast path over a fixed parameter set."""

    def __init__(self, params: EncoderParams):
        cfg = params.config
        self.params = params
        self.blocks = [_BlockRt(bp, cfg.n_heads) for bp in params.blocks]
        self.mvhs = _MvhsRt(params.mvhs, cfg.mvhs_heads, cfg.mvhs_d_head)
        self.ln0 = _LayerNorm(params.ln0_g, params.ln0_b)

    def step(self, state: EncoderState, tokens, dts) -> np.ndarray | None:
        """Absorb token `tokens[i]` with gap `dts[i]` into row i of the
        batched `state`, in place. Returns None when every row's update was
        finite, else the (B,) mask of the rows whose update was not: their
        block and MVHS state is zeroed and their event_index left as it was."""
        embed = self.params.embed
        x = embed.take(tokens, 0) + embed_temporal(dts, embed.shape[1], embed.dtype)
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
