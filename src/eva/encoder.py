"""Full encoder stack: embedding, pre-norm, mixing blocks, matrix state.

Two evaluation modes share one parameter set:

  * event by event, through `runtime.EncoderRuntime` (serving), which
    `encode_sequence_recurrent` wraps as the stepping reference;
  * chunked-parallel over a whole sequence, `encode_sequence` (offline).

The training path (`forward_train` / `backward_train`) runs the parallel
form with caches and returns exact reverse-mode gradients for every
parameter as a flat named dict matching `params.named_arrays`. Both
chunked paths are one walk of the stack, `_forward`, on a batched state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blocks as B
from . import mvhs as M
from .config import EncoderConfig
from .embedding import embed_events, event_to_token_dt
from .params import EncoderParams
from .runtime import EncoderRuntime


@dataclass
class EncoderState:
    """Recurrent state of one stream. The same container holds a batch of
    streams (every array with a leading batch axis, last_t and event_index
    as (B,) int64 arrays) for `runtime.EncoderRuntime`; `rows` makes one
    from the other.

    The matrix states (each block's S and the MVHS S) have the shape
    (N, Dh, Dh), or (B, N, Dh, Dh) batched, but `zeros` stores them
    heads-innermost, in memory order (Dh, Dh, N) or (Dh, Dh, B, N), and
    `copy` and `rows` keep that order. `runtime` steps every per-head op
    over the B * N contiguous floats of one (i, j) entry instead of one
    8-long row at a time. States with other strides step correctly,
    only slower."""

    blocks: list
    mvhs: M.MvhsState
    last_t: int = -1      # timestamp of last absorbed event (-1: none yet)
    event_index: int = 0  # events absorbed

    @classmethod
    def zeros(cls, cfg: EncoderConfig, dtype=None) -> "EncoderState":
        return cls(blocks=[B.BlockState.zeros(cfg, dtype) for _ in range(cfg.n_blocks)],
                   mvhs=M.MvhsState.zeros(cfg, dtype))

    def copy(self) -> "EncoderState":
        return EncoderState(blocks=[s.copy() for s in self.blocks],
                            mvhs=self.mvhs.copy(),
                            last_t=self.last_t, event_index=self.event_index)

    def tensors(self) -> list[np.ndarray]:
        """The recurrent state arrays: each block's S, tm_prev and cm_prev,
        then the MVHS S and prev."""
        return ([a for b in self.blocks for a in (b.S, b.tm_prev, b.cm_prev)]
                + [self.mvhs.S, self.mvhs.prev])

    def rows(self, sel) -> "EncoderState":
        """Every array indexed by `sel` along a leading batch axis: a slice
        selects views, an index array copies, and `None` adds a batch axis
        of one to a single stream's state (views, except last_t and
        event_index, which become new 1-element arrays). Matrix states are
        indexed in their (Dh, Dh, ..., N) memory view, so a copy keeps the
        heads-innermost order."""
        def pick(S):
            m = np.moveaxis(S, (-2, -1), (0, 1))
            m = m[:, :, sel] if sel is None or isinstance(sel, slice) else m.take(sel, 2)
            return np.moveaxis(m, (0, 1), (-2, -1))
        return EncoderState([B.BlockState(pick(b.S), b.tm_prev[sel], b.cm_prev[sel])
                             for b in self.blocks],
                            M.MvhsState(pick(self.mvhs.S), self.mvhs.prev[sel]),
                            np.asarray(self.last_t)[sel], np.asarray(self.event_index)[sel])


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
