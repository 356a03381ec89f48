"""Full encoder stack: embedding, pre-norm, mixing blocks, matrix state.

Two evaluation modes share one parameter set:

  * event by event, through `runtime.EncoderRuntime` (serving), which
    `encode_sequence_recurrent` wraps as the stepping reference;
  * chunked-parallel over a whole sequence, `encode_sequence` (offline).

The training path (`forward_train` / `backward_train`) runs the parallel
form with caches and returns exact reverse-mode gradients for every
parameter as a flat named dict matching `params.named_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blocks as B
from . import mvhs as M
from . import scan
from .config import EncoderConfig
from .embedding import embed_events, event_to_token_dt
from .params import EncoderParams
from .runtime import EncoderRuntime


@dataclass
class EncoderState:
    """Recurrent state of one stream. The same container holds a batch of
    streams (every array with a leading batch axis, last_t and event_index
    as (B,) int64 arrays) for `runtime.EncoderRuntime`; `rows` makes one
    from the other."""

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

    @classmethod
    def from_tensors(cls, tensors, last_t=-1, event_index=0) -> "EncoderState":
        """The state holding `tensors`, in the order `tensors()` lists them."""
        *blocks, S, prev = tensors
        return cls([B.BlockState(*blocks[i:i + 3]) for i in range(0, len(blocks), 3)],
                   M.MvhsState(S, prev), last_t, event_index)

    def rows(self, sel) -> "EncoderState":
        """Every array indexed by `sel` along a leading batch axis: a slice
        selects views, an index array copies, and `None` adds a batch axis
        of one to a single stream's state (views, except last_t and
        event_index, which become new 1-element arrays)."""
        return EncoderState.from_tensors([a[sel] for a in self.tensors()],
                                         np.asarray(self.last_t)[sel],
                                         np.asarray(self.event_index)[sel])


# ---------------------------------------------------------------------------
# Sequence paths
# ---------------------------------------------------------------------------

def _embed(params: EncoderParams, tokens, dts):
    x = embed_events(np.asarray(tokens), np.asarray(dts), params.embed)
    return x.astype(params.dtype, copy=False)


def encode_sequence(params: EncoderParams, tokens, dts,
                    state: EncoderState | None = None, checkpoints=None,
                    chunk: int = scan.DEFAULT_CHUNK):
    """Chunked-parallel encode of a token/gap sequence.

    Returns (snaps, new_state) where snaps is (K, N, Dh, Dh), one raw
    matrix-state snapshot per checkpoint (1-based indices; defaults to
    just the end of the sequence).
    """
    cfg = params.config
    T = len(tokens)
    checkpoints = list(checkpoints) if checkpoints is not None else [T]
    state = state.copy() if state is not None else EncoderState.zeros(cfg, params.dtype)
    x = _embed(params, tokens, dts)[None]
    h, _ = B.ln_fwd(x, params.ln0_g, params.ln0_b)
    for i, bp in enumerate(params.blocks):
        bs = state.blocks[i]
        h, (S_f, tm_c, cm_c) = B.block_seq_fwd(
            h, bs.S[None], bs.tm_prev[None], bs.cm_prev[None], bp,
            cfg.n_heads, chunk)
        state.blocks[i] = B.BlockState(S_f[0], tm_c[0], cm_c[0])
    snaps, S_fin, new_prev = M._mvhs_seq(
        h, state.mvhs.prev[None], state.mvhs.S[None], params.mvhs,
        cfg.mvhs_heads, checkpoints, chunk)
    state.mvhs = M.MvhsState(S_fin[0], new_prev[0])
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

def forward_train(params: EncoderParams, tokens: np.ndarray, dts: np.ndarray,
                  checkpoints, chunk: int = scan.DEFAULT_CHUNK):
    """Batched forward with caches. tokens/dts: (B, T) int arrays.

    Sequences start from zero state. Returns (snaps (B, K, N, Dh, Dh), cache).
    """
    cfg = params.config
    Bsz, T = tokens.shape
    dtype = params.dtype
    x = _embed(params, tokens, dts)
    h, ln0_cache = B.ln_fwd(x, params.ln0_g, params.ln0_b)
    block_caches = []
    for bp in params.blocks:
        S0 = np.zeros((Bsz, cfg.n_heads, cfg.d_head, cfg.d_head), dtype)
        carry = np.zeros((Bsz, cfg.d_model), dtype)
        h, _, cache = B.block_seq_fwd(h, S0, carry, carry, bp, cfg.n_heads,
                                      chunk, want_cache=True)
        block_caches.append(cache)
    S0m = np.zeros((Bsz, cfg.mvhs_heads, cfg.mvhs_d_head, cfg.mvhs_d_head), dtype)
    carry_m = np.zeros((Bsz, cfg.d_model), dtype)
    snaps, _, _, mvhs_cache = M._mvhs_seq(h, carry_m, S0m, params.mvhs,
                                          cfg.mvhs_heads, list(checkpoints),
                                          chunk, want_cache=True)
    cache = {"tokens": tokens, "ln0": ln0_cache, "blocks": block_caches,
             "mvhs": mvhs_cache, "cfg": cfg, "vocab": params.embed.shape[0]}
    return snaps, cache


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
