"""Matrix-state output layer: the per-head state IS the representation.

Structurally a token-mixing sublayer stripped to its k/v/decay paths: no
read-out vector, no bonus term, no gating or output projection. The state
accumulates decayed outer products event by event; snapshots of the first
`n_out` head matrices form the representation handed to consumers. This
module holds the chunked form, which calls the TM front end
`blocks.mix_fwd`/`mix_bwd` with paths k, v and the state-only scan
`scan.state_scan_forward`/`_backward` (the token mixing's two-level
scan without its read-out: the same sub-chunks and carry, with every
checkpoint ending an outer chunk), and returns a cache slot as the
block's forward functions do; the event-by-event step is
`runtime._MvhsRt`, on the runtime's one front end `_Front` with the same
paths. `MvhsState` is the record of the layer's state arrays.

The projection width (`mvhs_state_dim`) normally equals the model width,
but may differ (e.g. the width-1-head ablation used for size accounting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scan
from .blocks import mix_bwd, mix_fwd
from .params import MvhsParams


@dataclass
class MvhsState:
    """The recurrent state arrays of the layer, a plain record like
    `blocks.BlockState`, which `encoder.EncoderState` builds over views of
    its stores."""

    S: np.ndarray     # (N, Dh, Dh)
    prev: np.ndarray  # (D,) last layer input


def _mvhs_seq(x, carry, S0, mp: MvhsParams, n_heads: int, checkpoints, want_cache=False):
    """Batched core: x (B, T, D). Returns (snaps, S_fin, new_carry, cache),
    cache None unless want_cache."""
    B, T, _ = x.shape
    Dh = S0.shape[-1]
    proj, lw, mix_cache = mix_fwd(x, carry, mp, ("k", "v"))
    kh, vh, lwh = (z.reshape(B, T, n_heads, Dh) for z in (proj["k"], proj["v"], lw))
    snaps, S_fin, scan_cache = scan.state_scan_forward(kh, vh, lwh, S0, checkpoints, want_cache)
    cache = {"mix": mix_cache, "scan": scan_cache} if want_cache else None
    return snaps, S_fin, x[:, -1].copy(), cache


def _mvhs_seq_bwd(cache, dSnaps):
    """Returns (dx, d_carry, grads dict keyed by MvhsParams field name)."""
    B, T, Ds = cache["mix"]["lw"].shape
    dk, dv, dlw, _ = scan.state_scan_backward(cache["scan"], dSnaps)
    return mix_bwd(cache["mix"], {"k": dk.reshape(B, T, Ds), "v": dv.reshape(B, T, Ds)},
                   dlw.reshape(B, T, Ds))
