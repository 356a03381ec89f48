"""The event-by-event (recurrent) evaluation of the encoder, batched.

This is the only recurrent implementation. A call advances B independent
streams, the rows of a batched state (arrays of shape (B, ...)), by n
tokens laid out in waves: wave k holds one token for each of the first
sizes[k] rows, in row order, and sizes never increases, so sizes[0] = B
and row s has one token in each wave whose size exceeds s. `sizes=None`
means one token per row. Serving and offline encoding make one call per
`pipeline.CALL_EVENTS` events of an `ingest_events`
(`pipeline.A2SPipeline`), wave k holding the k-th event of every patch
it advances; `encoder.encode_sequence_recurrent` steps one token at a
time with B = 1 as the mode-equivalence reference for the
chunked-parallel `encoder.encode_sequence`.

Within a layer only the matrix state's read-out and update depend on the
previous token, so only they loop over the waves, each on the prefix of
the rows it steps. Everything else runs once over all n tokens of the
call, in one numpy call per op: the input embedding (the table row plus
`embedding.embed_temporal`, as in the chunked path), the norms, the
projections, the gate and the channel mix. The token shift reads the
previous token of a row: for wave 0 the state's `tm_prev`/`cm_prev`/
`prev`, else the same slot of the wave before, which is one
`concatenate` and one `take` (`_Waves.prev`). The carried inputs, the
timestamp and the event count then come from each row's last token.

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
in memory order (Dh_i, Dh_j, B, N), and a wave works on a prefix of the
view `S.transpose(2, 3, 0, 1)`, in which the (i, j) entry of every head
of every row is one run of B * N contiguous floats. The projections are
brought to the same order: the columns of W_r, W_k, W_v, W_g, of the
decay's B_w and lam_d and of u (and the rows of W_o) are permuted once,
at construction, from head-major (column n * Dh + i) to (i * N + n), so
one copy turns an (n, D) projection into (Dh, n, N). Then the outer
product k v^T, the read-out (S + u k v^T) r = S r + u k (v . r) and the
update S <- diag(w) S + k v^T are each one numpy op over a wave's
b * N contiguous floats, where in (B, N, Dh, Dh) order their inner loops
were Dh = 8 long. A state whose stores have other strides steps to the
same values, only slower.

The arrays whose size grows with a call's width, and which would
otherwise be allocated and freed again by every call, are views of one
`_Scratch` that the `EncoderRuntime` owns and its layers share: each
front's stacked gates, projections and projections in (i, n) order, the
k v^T of a wave (one buffer sized for wave 0, rebuilt per wave), the
read-outs, and the channel mix's two mixes and its hidden layer. The
head norm, the gate and the channel mix's output then finish in place.
What a call still allocates is a few (n, D) arrays at a time, which glibc
keeps in its heap from one call to the next; the MB-sized temporaries
this replaced went back to the OS after each call and were faulted in
again by the next. A scratch buffer is replaced only by a larger one, so
the bytes it keeps are bounded by the largest call so far, which the
pipeline caps at `CALL_EVENTS` events. As its layers
share the scratch, a runtime is not reentrant: one call at a time, which
`pipeline.A2SPipeline` ensures by calling it under its lock. A `_BlockRt`
or `_MvhsRt` built alone gets a scratch of its own. What the `step`
methods return never aliases the scratch.

Parameter tensors are referenced, not copied, except for the stacked and
permuted copies built at construction; mutate parameters -> rebuild the
runtime.
"""

from __future__ import annotations

import math
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


class _Waves:
    """The layout of one call's n tokens (see the module docstring): the
    (start, size) span of each wave, and for each token the index of its
    previous input in `concatenate((first, tokens))`, for each row the
    index of its last token and its number of tokens. One wave (`sizes`
    None or of length one) needs neither index."""
    __slots__ = ("spans", "shift", "last", "counts")

    def __init__(self, sizes, n: int):
        if sizes is None or len(sizes) == 1:
            self.spans, self.shift, self.last, self.counts = ((0, n),), None, None, 1
            return
        sz = np.asarray(sizes)
        B = sizes[0]
        starts = np.cumsum(sz) - sz
        self.spans = tuple(zip(starts.tolist(), sizes))
        # slot s of wave k >= 1 follows slot s of wave k - 1, sizes[k - 1]
        # tokens back; wave 0 follows the B rows of `first`
        self.shift = np.arange(B, B + n) - np.repeat(np.concatenate(([B], sz[:-1])), sz)
        self.counts = np.searchsorted(-sz, -np.arange(B))  # waves wider than s
        self.last = starts[self.counts - 1] + np.arange(B)

    def prev(self, first, xs):
        """The previous input of each token: row s of `first` (B, ...) for
        wave 0, else the token before it in its row."""
        return first if self.shift is None else np.concatenate((first, xs)).take(self.shift, 0)

    def last_of(self, xs):
        """Each row's last token of xs (n, ...)."""
        return xs if self.last is None else xs.take(self.last, 0)


class _Scratch:
    """The reusable temporaries of a runtime's calls: one byte buffer per
    name, handed out as a C-contiguous array over its first bytes and
    replaced by a larger one only when a call needs more. An array is
    valid until the next request of its name."""
    __slots__ = ("bufs",)

    def __init__(self):
        self.bufs = {}

    def __call__(self, name: str, shape, dtype) -> np.ndarray:
        try:
            return np.ndarray(shape, dtype, self.bufs[name])
        except (KeyError, TypeError):  # a first request, or a buffer too small
            buf = self.bufs[name] = np.empty(math.prod(shape) * dtype.itemsize, np.uint8)
            return np.ndarray(shape, dtype, buf)


class _Front:
    """The token-shift front end of one step, for the TM paths r, k, v, g
    and the MVHS paths k, v alike: the ddlerp mixes of the named paths and
    the decay d as one stacked LoRA, decay last. Narrower LoRA or output
    widths are zero-padded, which adds exact zeros. The decay and the
    projections are in (i, n) order. The stacked gates, the projections
    and the projections in (i, n) order are written into `scratch`."""
    __slots__ = ("mu", "A", "B", "lam", "W", "n_heads", "d_head", "scratch")

    def __init__(self, p, paths: str, n_heads: int, d_head: int, scratch: _Scratch):
        perm = _heads_inner(n_heads, d_head)
        As = [getattr(p, f"A_{n}") for n in paths] + [p.A_w]
        Bs = [getattr(p, f"B_{n}") for n in paths] + [p.B_w.take(perm, 1)]
        lams = [getattr(p, f"lam_{n}") for n in paths] + [p.lam_d[perm]]
        Ws = [getattr(p, f"W_{n}") for n in paths]
        width = max(a.shape[1] for a in As)
        out = max(b.shape[1] for b in Bs)
        dtype = p.mu.dtype
        # one zeroed array per stack, filled by slices, not a padded copy
        # per path: `encode_offline` builds a runtime per call
        self.A = np.zeros((len(As), len(p.mu), width), dtype)
        self.B = np.zeros((len(Bs), width, out), dtype)
        self.lam = np.zeros((len(lams), 1, out), dtype)
        self.W = np.zeros((len(Ws), *Ws[0].shape), dtype)
        for i, (a, b, c) in enumerate(zip(As, Bs, lams)):
            self.A[i, :, :a.shape[1]] = a
            self.B[i, :b.shape[0], :b.shape[1]] = b
            self.lam[i, 0, :len(c)] = c
        for i, w in enumerate(Ws):
            self.W[i] = w.take(perm, 1)
        self.mu = p.mu
        self.n_heads = n_heads
        self.d_head = d_head
        self.scratch = scratch

    def __call__(self, x, prev):
        """x: (n, D) inputs; prev: (n, D), the input before each. Returns
        the decay w (Dh, 1, n, N) and the projections (paths, Dh, n, N),
        the latter a view of the scratch valid until the next front call."""
        n, D = x.shape
        N, Dh = self.n_heads, self.d_head
        paths, dtype = len(self.W), np.result_type(x, self.B)
        delta = prev - x
        G = np.matmul(np.tanh(np.matmul(x + delta * self.mu, self.A)), self.B,
                      out=self.scratch("gates", (paths + 1, n, self.B.shape[2]), dtype))
        G += self.lam
        d = G[-1, :, :N * Dh].reshape(n, Dh, 1, N).transpose(1, 2, 0, 3)
        w = np.exp(-np.exp(np.minimum(d, _D_CAP, order="C")))
        # the mixes overwrite their gates in place, so no fresh (paths, n, D)
        # array adds to the memory peak of a wide call
        mix = G[:-1, :, :D]
        mix *= delta
        mix += x
        proj = np.matmul(mix, self.W, out=self.scratch("proj", (paths, n, N * Dh), dtype))
        heads = self.scratch("heads", (paths, Dh, n, N), dtype)
        np.copyto(heads, proj.reshape(paths, n, Dh, N).swapaxes(1, 2))
        return w, heads


def _recur(S, w, k, v, waves: _Waves, scratch: _Scratch, r=None):
    """The one recurrence of a layer's matrix states S (B, N, Dh, Dh),
    stored heads-innermost, over the waves of a call: wave by wave, on the
    prefix of the rows it steps, the read-out S r of its tokens (when r is
    given) and then the update S <- diag(w) S + k v^T, in place. w is
    (Dh, 1, n, N); k, v and r are (Dh, n, N). Each wave's k v^T is built in
    one scratch buffer sized for wave 0. Returns the read-outs (Dh, n, N),
    a view of the scratch, or None without r."""
    S = S.transpose(2, 3, 0, 1)  # (Dh, Dh, B, N), a view
    Dh, n, N = k.shape
    kv = scratch("kv", (Dh, Dh, waves.spans[0][1], N), k.dtype)
    y = None if r is None else scratch("read", (Dh, n, N), np.result_type(S, r))
    k = k[:, None]
    for o, b in waves.spans:
        Sw = S[:, :, :b]
        if r is not None:
            np.einsum("ijbn,jbn->ibn", Sw, r[:, o:o + b], out=y[:, o:o + b])
        Sw *= w[:, :, o:o + b]
        Sw += np.multiply(k[:, :, o:o + b], v[:, o:o + b], out=kv[:, :, :b])
    return y


class _BlockRt:
    __slots__ = ("bp", "ln1", "ln2", "front", "mu_c", "u", "head_avg", "n_heads", "d_head")

    def __init__(self, bp: BlockParams, n_heads: int, scratch: _Scratch | None = None):
        self.bp = bp
        D = bp.mu.shape[0]
        self.n_heads = n_heads
        self.d_head = D // n_heads
        self.front = _Front(bp, "rkvg", n_heads, self.d_head, scratch or _Scratch())
        self.u = bp.u[_heads_inner(n_heads, self.d_head)].reshape(self.d_head, 1, n_heads)
        self.mu_c = np.stack([bp.mu_cr, bp.mu_ck])[:, None]
        self.ln1 = _LayerNorm(bp.ln1_g, bp.ln1_b)
        self.ln2 = _LayerNorm(bp.ln2_g, bp.ln2_b)
        self.head_avg = np.full((1, self.d_head), 1.0 / self.d_head, bp.mu.dtype)

    def step(self, x, state, waves: _Waves | None = None) -> np.ndarray:
        """x: (n, D) tokens in the layout `waves` (default: one per row);
        state: a BlockState of (B, ...) arrays, updated in place. Returns
        the block output (n, D)."""
        bp = self.bp
        waves = waves or _Waves(None, len(x))
        h = x + self._time_mix(self.ln1(x), state, waves)
        b = self.ln2(h)
        scratch = self.front.scratch
        mix_rk = scratch("mix_rk", (2, *b.shape), np.result_type(b, self.mu_c))
        np.multiply(waves.prev(state.cm_prev, b) - b, self.mu_c, out=mix_rk)
        mix_rk += b
        state.cm_prev[...] = waves.last_of(b)
        del b  # freed before the hidden layer
        rr = np.dot(mix_rk[0], bp.W_cr)
        kr = scratch("ffn", (len(h), bp.W_ck.shape[1]), np.result_type(mix_rk, bp.W_ck))
        np.dot(mix_rk[1], bp.W_ck, out=kr)
        np.maximum(kr, 0.0, out=kr)
        np.multiply(kr, kr, out=kr)
        out = np.dot(kr, bp.W_cv)
        out /= 1.0 + np.exp(-rr)
        out += h
        return out

    def _time_mix(self, a, state, waves: _Waves) -> np.ndarray:
        """The token mixing of the normed input a (n, D), before the
        residual; its temporaries are freed before the channel mix."""
        n, D = a.shape
        N, Dh = self.n_heads, self.d_head
        w, (r, k, v, g) = self.front(a, waves.prev(state.tm_prev, a))
        state.tm_prev[...] = waves.last_of(a)
        y = _recur(state.S, w, k, v, waves, self.front.scratch, r)
        y += self.u * k * np.add.reduce(v * r, 0)
        y = y.reshape(Dh, -1)
        y -= np.dot(self.head_avg, y)
        y /= np.sqrt(np.dot(self.head_avg, y * y) + LN_EPS)
        z = np.exp(-g)
        z += 1.0
        np.divide(g, z, out=z)
        z *= y.reshape(Dh, n, N)
        return np.dot(z.transpose(1, 2, 0).reshape(n, D), self.bp.W_o)


class _MvhsRt:
    __slots__ = ("front",)

    def __init__(self, mp: MvhsParams, n_heads: int, d_head: int,
                 scratch: _Scratch | None = None):
        self.front = _Front(mp, "kv", n_heads, d_head, scratch or _Scratch())

    def step(self, x, state, waves: _Waves | None = None) -> None:
        """x: (n, D) tokens in the layout `waves` (default: one per row);
        state: an MvhsState of (B, ...) arrays, updated in place. Nothing
        is checked: a non-finite input, or an update that overflows, leaves
        its row's state non-finite for the caller to find."""
        waves = waves or _Waves(None, len(x))
        w, kv = self.front(x, waves.prev(state.prev, x))
        _recur(state.S, w, *kv, waves, self.front.scratch)
        state.prev[...] = waves.last_of(x)


class EncoderRuntime:
    """Bound fast path over a fixed parameter set. Not reentrant: its
    layers share one scratch, so one call at a time."""

    def __init__(self, params: EncoderParams):
        cfg = params.config
        self.params = params
        scratch = _Scratch()
        self.blocks = [_BlockRt(bp, cfg.n_heads, scratch) for bp in params.blocks]
        self.mvhs = _MvhsRt(params.mvhs, cfg.mvhs_heads, cfg.mvhs_d_head, scratch)
        self.ln0 = _LayerNorm(params.ln0_g, params.ln0_b)

    def step(self, state: EncoderState, tokens, dts, waves: _Waves | None = None) -> None:
        """Absorb the tokens `tokens` with gaps `dts`, laid out in `waves`
        (default: one token per row), into the rows of the batched `state`,
        in place, and add each row's token count to its event_index. Plain
        arithmetic: a non-finite value stays in the state it reaches, where
        `EncoderState.finite` sees it (the pipeline's policy)."""
        waves = waves or _Waves(None, len(tokens))
        embed = self.params.embed
        x = embed.take(tokens, 0) + embed_temporal(dts, embed.shape[1], embed.dtype)
        h = self.ln0(x)
        for blk, bs in zip(self.blocks, state.blocks):
            h = blk.step(h, bs, waves)
        self.mvhs.step(h, state.mvhs, waves)
        state.event_index += waves.counts

    def ingest(self, state: EncoderState, tokens, ts, sizes=None) -> None:
        """`step` with absolute timestamps: each token's gap is taken from
        the timestamp before it in its row, for wave 0 the row's last_t (0
        for a stream's first event), and last_t becomes the row's last
        timestamp."""
        waves = _Waves(sizes, len(tokens))
        prev = waves.prev(state.last_t, ts)
        self.step(state, tokens, np.where(prev < 0, 0, ts - prev), waves)
        state.last_t[...] = waves.last_of(ts)
