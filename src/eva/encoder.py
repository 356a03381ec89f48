"""Full encoder stack: embedding, pre-norm, mixing blocks, matrix state.

Two evaluation modes share one parameter set:

  * event by event, through `runtime.EncoderRuntime` (serving and
    offline encoding, both through `pipeline.A2SPipeline`), which
    `encode_sequence_recurrent` wraps as the stepping reference;
  * chunked-parallel over a whole sequence, `encode_sequence` (training
    and the reference for the stepping mode).

The training path (`forward_train` / `backward_train`) runs the parallel
form with caches and returns exact reverse-mode gradients for every
parameter as a flat named dict matching `params.named_arrays`. Both
chunked paths are one walk of the stack, `_forward`, on a batched state.

`EncoderState` is the recurrent state of one stream or of a batch, and
the only code that knows its memory layout: it allocates, copies, gathers
and scatters the stores that every other module reads through its
`blocks` and `mvhs` views.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import blocks as B
from . import mvhs as M
from .config import EncoderConfig
from .embedding import embed_events, event_to_token_dt
from .params import EncoderParams
from .runtime import EncoderRuntime


@dataclass
class EncoderState:
    """Recurrent state of one stream, or of a batch of B streams, and the
    one owner of its memory layout. Three stores hold every state array:

      S       each block's matrix state, (n_blocks, Dh, Dh, [B,] N);
      S_mvhs  the MVHS matrix state, (Dm, Dm, [B,] Nm);
      vec     ([B,] 2 * n_blocks + 1, D): each block's tm_prev and cm_prev,
              then the MVHS prev.

    last_t (timestamp of the last absorbed event, -1 before the first) and
    event_index (events absorbed) are ints for one stream and (B,) int64
    arrays for a batch. `blocks` and `mvhs` are `BlockState`/`MvhsState`
    views of the stores, built once; their matrix states have the shape
    ([B,] N, Dh, Dh), and writing to them writes the stores.

    The matrix states are stored heads-innermost, so `runtime` steps every
    per-head op over the B * N contiguous floats of one (i, j) entry
    instead of one 8-long row at a time. States with other strides step
    correctly, only slower."""

    S: np.ndarray
    S_mvhs: np.ndarray
    vec: np.ndarray
    last_t: int | np.ndarray = -1
    event_index: int | np.ndarray = 0
    blocks: list = field(init=False, repr=False)
    mvhs: M.MvhsState = field(init=False, repr=False)

    def __post_init__(self):
        # transposes, not np.moveaxis, whose Python-level checks tripled the
        # cost of a 63-row `rows` slice (5.5 -> 16 us, dvs)
        nd = self.S_mvhs.ndim
        S = self.S.transpose(0, *range(3, nd + 1), 1, 2)
        vecs = self.vec.swapaxes(0, -2)
        self.blocks = [B.BlockState(S[i], vecs[2 * i], vecs[2 * i + 1]) for i in range(len(S))]
        self.mvhs = M.MvhsState(self.S_mvhs.transpose(*range(2, nd), 0, 1), vecs[-1])

    @classmethod
    def zeros(cls, cfg: EncoderConfig, dtype=None) -> "EncoderState":
        dtype = dtype or cfg.dtype
        Dh, Dm = cfg.d_head, cfg.mvhs_d_head
        return cls(np.zeros((cfg.n_blocks, Dh, Dh, cfg.n_heads), dtype),
                   np.zeros((Dm, Dm, cfg.mvhs_heads), dtype),
                   np.zeros((2 * cfg.n_blocks + 1, cfg.d_model), dtype))

    def copy(self) -> "EncoderState":
        # copy.copy copies a batch's last_t and event_index arrays and
        # passes a single stream's ints through
        return EncoderState(self.S.copy(), self.S_mvhs.copy(), self.vec.copy(),
                            copy.copy(self.last_t), copy.copy(self.event_index))

    def tensors(self) -> list[np.ndarray]:
        """The recurrent state arrays: each block's S, tm_prev and cm_prev,
        then the MVHS S and prev."""
        return ([a for b in self.blocks for a in (b.S, b.tm_prev, b.cm_prev)]
                + [self.mvhs.S, self.mvhs.prev])

    def rows(self, sel, into: "EncoderState | None" = None) -> "EncoderState":
        """The batched state of the rows `sel` of this batched state: a
        slice gives views of the stores, an index array copies them (in the
        same layout), and `None` adds a batch axis of one to a single
        stream's state (views, except last_t and event_index, which become
        new 1-element arrays). Given `into`, a batched state with
        C-contiguous stores and at least len(sel) rows, an index array's
        copy fills the front of its stores instead of new arrays, and is
        valid until the next gather into `into`."""
        if sel is None or isinstance(sel, slice):
            return EncoderState(self.S[:, :, :, sel], self.S_mvhs[:, :, sel], self.vec[sel],
                                np.asarray(self.last_t)[sel], np.asarray(self.event_index)[sel])
        if into is None:
            return EncoderState(self.S.take(sel, 3), self.S_mvhs.take(sel, 2),
                                self.vec.take(sel, 0), self.last_t.take(sel),
                                self.event_index.take(sel))
        return EncoderState(_take_into(self.S, sel, 3, into.S),
                            _take_into(self.S_mvhs, sel, 2, into.S_mvhs),
                            _take_into(self.vec, sel, 0, into.vec),
                            _take_into(self.last_t, sel, 0, into.last_t),
                            _take_into(self.event_index, sel, 0, into.event_index))

    def put(self, sel, rows: "EncoderState") -> None:
        """Write the batched state `rows` into the rows `sel` of this
        batched state: the scatter back of `rows(sel)`."""
        self.S[:, :, :, sel] = rows.S
        self.S_mvhs[:, :, sel] = rows.S_mvhs
        self.vec[sel] = rows.vec
        self.last_t[sel] = rows.last_t
        self.event_index[sel] = rows.event_index


def _take_into(a, sel, axis: int, buf):
    """a.take(sel, axis) written into the front of the C-contiguous buf."""
    out = np.ndarray(a.shape[:axis] + (len(sel),) + a.shape[axis + 1:], a.dtype, buf)
    # mode "raise" would gather into a temporary and then copy it to out
    return a.take(sel, axis, out, mode="clip")


# ---------------------------------------------------------------------------
# Sequence paths
# ---------------------------------------------------------------------------

def _embed(params: EncoderParams, tokens, dts):
    x = embed_events(np.asarray(tokens), np.asarray(dts), params.embed)
    return x.astype(params.dtype, copy=False)


def _forward(params: EncoderParams, tokens, dts, checkpoints, state: EncoderState,
             want_cache: bool):
    """The one chunked walk of the stack over (B, T) tokens and gaps, from
    the batched `state`, into whose arrays each layer writes its final
    state in place. Returns (snaps (B, K, N, Dh, Dh), cache), cache None
    unless want_cache."""
    cfg = params.config
    h, ln0_cache = B.ln_fwd(_embed(params, tokens, dts), params.ln0_g, params.ln0_b)
    block_caches = []
    for bp, bs in zip(params.blocks, state.blocks):
        h, (bs.S[...], bs.tm_prev[...], bs.cm_prev[...]), cache = B.block_seq_fwd(
            h, bs.S, bs.tm_prev, bs.cm_prev, bp, cfg.n_heads, want_cache)
        block_caches.append(cache)
    ms = state.mvhs
    snaps, ms.S[...], ms.prev[...], mvhs_cache = M._mvhs_seq(
        h, ms.prev, ms.S, params.mvhs, cfg.mvhs_heads, list(checkpoints), want_cache)
    cache = ({"tokens": tokens, "ln0": ln0_cache, "blocks": block_caches,
              "mvhs": mvhs_cache, "vocab": params.embed.shape[0]} if want_cache else None)
    return snaps, cache


def encode_sequence(params: EncoderParams, tokens, dts,
                    state: EncoderState | None = None, checkpoints=None):
    """Chunked-parallel encode of a token/gap sequence.

    Returns (snaps, new_state) where snaps is (K, N, Dh, Dh), one raw
    matrix-state snapshot per checkpoint (1-based indices; defaults to
    just the end of the sequence), and new_state a copy of `state` (zeros
    if None, so heads-innermost) advanced over the sequence in place.
    """
    T = len(tokens)
    state = state.copy() if state is not None else EncoderState.zeros(params.config, params.dtype)
    snaps, _ = _forward(params, np.asarray(tokens)[None], np.asarray(dts)[None],
                        [T] if checkpoints is None else checkpoints,
                        state.rows(None), False)
    state.event_index += T
    return snaps[0], state


def encode_sequence_recurrent(params: EncoderParams, tokens, dts,
                              state: EncoderState | None = None, checkpoints=None):
    """Stepping reference through `EncoderRuntime` (batch of one); identical
    contract to encode_sequence. Raises FloatingPointError on an event
    whose update is non-finite."""
    cfg = params.config
    T = len(tokens)
    checkpoints = set(checkpoints) if checkpoints is not None else {T}
    state = state.copy() if state is not None else EncoderState.zeros(cfg, params.dtype)
    row = state.rows(None)
    runtime = EncoderRuntime(params)
    tokens, dts = np.asarray(tokens), np.asarray(dts)
    snaps = []
    for i in range(T):
        if runtime.step(row, tokens[i:i + 1], dts[i:i + 1]) is not None:
            raise FloatingPointError(f"non-finite update at event {i}")
        if i + 1 in checkpoints:
            snaps.append(state.mvhs.S.copy())
    state.event_index = int(row.event_index[0])
    snaps = (np.stack(snaps) if snaps else
             np.zeros((0, cfg.mvhs_heads, cfg.mvhs_d_head, cfg.mvhs_d_head), params.dtype))
    return snaps, state


def encode_events(params: EncoderParams, events, state=None, checkpoints=None):
    """Encode patch-local events, tracking the timestamp cursor."""
    cfg = params.config
    prev_t = None if state is None or state.last_t < 0 else state.last_t
    tokens, dts = event_to_token_dt(events, cfg.patch, cfg.patch, prev_t)
    snaps, new_state = encode_sequence(params, tokens, dts, state, checkpoints)
    if len(events):
        new_state.last_t = int(events["t"][-1])
    return snaps, new_state


# ---------------------------------------------------------------------------
# Training path
# ---------------------------------------------------------------------------

def forward_train(params: EncoderParams, tokens: np.ndarray, dts: np.ndarray, checkpoints):
    """Batched forward with caches. tokens/dts: (B, T) int arrays.

    Sequences start from zero state. Returns (snaps (B, K, N, Dh, Dh), cache).
    """
    zeros = EncoderState.zeros(params.config, params.dtype).rows(None)
    return _forward(params, tokens, dts, checkpoints,
                    zeros.rows(np.zeros(len(tokens), np.intp)), True)


def backward_train(cache, dSnaps) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given d(loss)/d(snapshots)."""
    grads: dict[str, np.ndarray] = {}
    dh, _, mvhs_grads = M._mvhs_seq_bwd(cache["mvhs"], dSnaps)
    for name, g in mvhs_grads.items():
        grads[f"mvhs.{name}"] = g
    for i in reversed(range(len(cache["blocks"]))):
        dh, bgrads = B.block_seq_bwd(cache["blocks"][i], dh)
        for name, g in bgrads.items():
            grads[f"blocks.{i}.{name}"] = g
    dx, dln0_g, dln0_b = B.ln_bwd(cache["ln0"], dh)
    grads["ln0_g"] = dln0_g
    grads["ln0_b"] = dln0_b
    tokens = cache["tokens"]
    dtable = np.zeros((cache["vocab"], dx.shape[-1]), dtype=dx.dtype)
    np.add.at(dtable, tokens.reshape(-1), dx.reshape(-1, dx.shape[-1]))
    grads["embed"] = dtable
    return grads
