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
(into new arrays or a runtime's scratch) and scatters the stores that
every other module reads through its `blocks` and `mvhs` views.
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

    last_t, the timestamp of the last absorbed event (-1 before the
    first), is an int for one stream and a (B,) int64 array for a batch.
    The state holds only what the next event reads. `blocks` and `mvhs` are
    `BlockState`/`MvhsState` views of the stores, built once; their matrix
    states have the shape ([B,] N, Dh, Dh), and writing to them writes the
    stores.

    The matrix states are stored heads-innermost, so `runtime` steps every
    per-head op over the B * N contiguous floats of one (i, j) entry
    instead of one 8-long row at a time. States with other strides step
    correctly, only slower."""

    S: np.ndarray
    S_mvhs: np.ndarray
    vec: np.ndarray
    last_t: int | np.ndarray = -1
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
    def zeros(cls, cfg: EncoderConfig, dtype=None, batch: int | None = None) -> "EncoderState":
        """The state of one stream, or of `batch` streams, before any event."""
        dtype = dtype or cfg.dtype
        Dh, Dm = cfg.d_head, cfg.mvhs_d_head
        b = () if batch is None else (batch,)
        return cls(np.zeros((cfg.n_blocks, Dh, Dh, *b, cfg.n_heads), dtype),
                   np.zeros((Dm, Dm, *b, cfg.mvhs_heads), dtype),
                   np.zeros((*b, 2 * cfg.n_blocks + 1, cfg.d_model), dtype),
                   -1 if batch is None else np.full(b, -1, np.int64))

    def copy(self) -> "EncoderState":
        # copy.copy copies a batch's last_t array and passes a single
        # stream's int through
        return EncoderState(self.S.copy(), self.S_mvhs.copy(), self.vec.copy(),
                            copy.copy(self.last_t))

    def tensors(self) -> list[np.ndarray]:
        """The recurrent state arrays: each block's S, tm_prev and cm_prev,
        then the MVHS S and prev."""
        return ([a for b in self.blocks for a in (b.S, b.tm_prev, b.cm_prev)]
                + [self.mvhs.S, self.mvhs.prev])

    def finite(self) -> bool:
        """Whether every value of the three stores is finite. A non-finite
        value persists through S <- diag(w) S + k v^T, so this sees every
        non-finite input or decay a state absorbed, and any overflow."""
        return all(np.isfinite(a).all() for a in (self.S, self.S_mvhs, self.vec))

    def rows(self, sel, scratch=None) -> "EncoderState":
        """`None` adds a batch axis of one to a single stream's state (views
        of the stores; last_t becomes a new 1-element array).
        An index array copies the rows `sel` of this batched state, in the
        same layout: into new arrays, or into the buffers of `scratch` (a
        `runtime._Scratch`), valid until its next gather."""
        if sel is None:
            return EncoderState(self.S[:, :, :, None], self.S_mvhs[:, :, None], self.vec[None],
                                np.asarray(self.last_t)[None])
        return EncoderState(*(_take(getattr(self, f), sel, axis, scratch, f) for f, axis in (
            ("S", 3), ("S_mvhs", 2), ("vec", 0), ("last_t", 0))))

    def put(self, sel, rows: "EncoderState") -> None:
        """Write the batched state `rows` into the rows `sel` of this
        batched state: the scatter back of `rows(sel)`."""
        self.S[:, :, :, sel] = rows.S
        self.S_mvhs[:, :, sel] = rows.S_mvhs
        self.vec[sel] = rows.vec
        self.last_t[sel] = rows.last_t


def _take(a, sel, axis: int, scratch, name: str):
    """a.take(sel, axis), into scratch's buffer `name` when given."""
    if scratch is None:
        return a.take(sel, axis)
    out = scratch(f"rows.{name}", a.shape[:axis] + (len(sel),) + a.shape[axis + 1:], a.dtype)
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
    Raises FloatingPointError if the final state is not finite
    (`EncoderState.finite`), as a non-finite value persists to it.
    """
    T = len(tokens)
    state = state.copy() if state is not None else EncoderState.zeros(params.config, params.dtype)
    snaps, _ = _forward(params, np.asarray(tokens)[None], np.asarray(dts)[None],
                        [T] if checkpoints is None else checkpoints,
                        state.rows(None), False)
    if not state.finite():
        raise FloatingPointError(f"non-finite state after {T} events")
    return snaps[0], state


def encode_sequence_recurrent(params: EncoderParams, tokens, dts,
                              state: EncoderState | None = None, checkpoints=None):
    """Stepping reference through `EncoderRuntime` (batch of one); identical
    contract to encode_sequence. Raises FloatingPointError naming the first
    event after which the state is not finite (`EncoderState.finite`)."""
    cfg = params.config
    T = len(tokens)
    checkpoints = set(checkpoints) if checkpoints is not None else {T}
    state = state.copy() if state is not None else EncoderState.zeros(cfg, params.dtype)
    row = state.rows(None)
    runtime = EncoderRuntime(params)
    tokens, dts = np.asarray(tokens), np.asarray(dts)
    snaps = []
    for i in range(T):
        runtime.step(row, tokens[i:i + 1], dts[i:i + 1])
        if not row.finite():
            raise FloatingPointError(f"non-finite state after event {i}")
        if i + 1 in checkpoints:
            snaps.append(state.mvhs.S.copy())
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
    return _forward(params, tokens, dts, checkpoints,
                    EncoderState.zeros(params.config, params.dtype, len(tokens)), True)


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
