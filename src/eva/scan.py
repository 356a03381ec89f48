"""Chunked evaluation of the decayed outer-product recurrence.

The state is one matrix per head, S[a, b], updated per token as

    S[a, b] <- w[a] * S[a, b] + k[a] * v[b],         w = exp(lw), lw <= 0

with the read-out y[a] = sum_b (S_prev[a, b] + u[a] k[a] v[b]) r[b].

Both scans, with read-out (`decay_scan_*`, token mixing) and state only
(`state_scan_*`, the matrix-state layer, which also ends an outer chunk
at every checkpoint and snapshots its end state), are two-level (the
secondary chunks of Gated Linear Attention, Yang et al., arXiv
2312.06635). A sequence is cut into outer chunks of at most
`DEFAULT_CHUNK` tokens, and each outer chunk into sub-chunks of `_SUB`
tokens, the last one zero-padded (k = v = lw = 0 leaves the state
unchanged). `_carry` gives, for every sub-chunk at once, batched over
(M * B) for M sub-chunks, its own state contribution dS_j; a sequential
carry S_{j+1} = exp(cw_last_j) * S_j + dS_j over the M cheap (B, N, Dh,
Dh) states then gives each sub-chunk's start state and the end state.
`_carry_bwd` is its adjoint. The read-out scan then evaluates every
sub-chunk from its start state in one batch; inside a sub-chunk the
read-out of token c takes the decayed outer products of the tokens t < c
one row c at a time, so the quadratic cost stays at the sub-chunk size
and no masked entry is computed.

Sub-chunks start every `_SUB` tokens from the sequence start or the last
checkpoint, and the carry takes the same step between outer chunks as
within one, so every `DEFAULT_CHUNK` that is a multiple of `_SUB` gives
bitwise the same outputs and gradients (u's gradient is summed over the
whole sequence at once for the same reason).

The backward passes recompute nothing that needs the carry. Both scans
cache per outer chunk, with its bounds, the log-decay prefix cw per
token and, per sub-chunk, exp(cw_last) and the start state; the read-out
scan also caches the decayed part of the read-out (y without its u
bonus) and the sub-chunk's row of v . r products per token. Per head and
token that is Dh + (Dh * Dh + Dh) / _SUB floats state-only (84 for the
`small` matrix state, 2 heads of 16) and Dh + _SUB more with read-out
(152 per token for `small` token mixing, 4 heads of 8). Every decayed
term of y[c] carries the factor exp(cwe[c]), with cwe the exclusive
prefix, so cwe's adjoint is dY times that saved decayed part.

Decay products are exp of differences of cumulative sums of lw within one
sub-chunk, so every exponent is <= 0 and every factor lies in [0, 1],
underflowing harmlessly to 0. The decay pre-activation cap
`blocks._D_CAP` keeps lw >= -60, so every cumulative sum, in either scan,
spans one sub-chunk and is at most 60 * _SUB = 240 in magnitude: a
difference of two never forms inf - inf, and its f32 rounding shifts an
exponent by about 1e-5. Across sub-chunks the decay is applied as a
product of exp(cw_last) in the carry, which loses no precision to
cancellation. Both forwards return their outputs and a cache slot, None
unless asked for with `want_cache`.

Shapes: sequences are (B, T, N, Dh); states are (B, N, Dh, Dh) with the
first Dh axis indexing the k channel (the decayed one) and the second the
v channel; u is (N, Dh). The contractions are phrased as batched matmuls
over (B, N); the transposes cost copies but keep everything in GEMM.
"""

from __future__ import annotations

import numpy as np

# Outer chunk, for training and `encoder.encode_sequence` alike; every scan
# reads it when called. It changes no result (every multiple of `_SUB` gives the
# same bits), only the size of the batched sub-chunk temporaries and the
# number of outer-chunk calls. On a 2-core host 128 was ~10% faster than
# 64 per scan call, but end to end on the `small` training step its gain
# stayed inside the run-to-run noise; 256 and 512 were slower.
DEFAULT_CHUNK = 64
# Sub-chunk, whose read-out costs _SUB * (_SUB - 1) / 2 decayed products
# per channel: 4 measured best on the `dvs` f32 offline windows, when offline
# encoding still ran this path, and the `small` training step, then in f64 (8
# was 0-18% slower offline and no faster in training, 16 twice as slow offline).
_SUB = 4


# Prefix sums over the short sub-chunk axis, in place. np.cumsum(axis=1)
# runs an inner loop _SUB long per element; a few row adds cost less than
# half of it and add in the same order, so the results are bitwise equal.

def _sub_cumsum(a: np.ndarray) -> np.ndarray:
    for i in range(1, a.shape[1]):
        a[:, i] += a[:, i - 1]
    return a


def _sub_rev_cumsum(a: np.ndarray) -> np.ndarray:
    for i in range(a.shape[1] - 2, -1, -1):
        a[:, i] += a[:, i + 1]
    return a


def _seq(a):
    """(B, T, N, D) -> (B, N, T, D) for batched matmul over (B, N)."""
    return a.transpose(0, 2, 1, 3)


def _sv_matrix(v, r):
    # sv[c, t, n] = v[t, n] . r[c, n]
    return np.matmul(_seq(r), _seq(v).transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1)


def _split(a):
    """(B, L, ...) -> (M * B, _SUB, ...): M sub-chunks, the last one
    zero-padded to full length, sub-chunk-major so that the carry steps
    over contiguous (B, ...) blocks."""
    B, L = a.shape[:2]
    M = -(-L // _SUB)
    if M * _SUB != L:
        a = np.concatenate([a, np.zeros((B, M * _SUB - L) + a.shape[2:], a.dtype)], axis=1)
    return a.reshape((B, M, _SUB) + a.shape[2:]).swapaxes(0, 1).reshape(
        (M * B, _SUB) + a.shape[2:])


def _unsplit(a, B, L):
    """Inverse of _split: (M * B, _SUB, ...) -> (B, L, ...)."""
    a = a.reshape((-1, B) + a.shape[1:]).swapaxes(0, 1)
    return a.reshape((B, -1) + a.shape[3:])[:, :L]


def _state_out(k, v, cw):
    """Own contribution of each sub-chunk to its end state, with inclusive
    log-decay prefix cw: sum_t exp(cw_last - cw[t, a]) k[t, a] v[t, e]."""
    e2 = np.exp(cw[:, -1:] - cw)
    return np.matmul(_seq(e2 * k).transpose(0, 1, 3, 2), _seq(v))


def _carry(k, v, lw, S_in):
    """State half of the two-level scan on split arrays. Returns (cw, w_last,
    starts, S_out): the inclusive log-decay prefix of each sub-chunk,
    exp(cw_last) and the start state per sub-chunk, and the end state."""
    cw = _sub_cumsum(lw.copy())
    own = _state_out(k, v, cw).reshape((-1,) + S_in.shape)
    w_last = np.exp(cw[:, -1])
    # starts[j] is the state before sub-chunk j. The decay is broadcast
    # over the v axis once, so each step runs on whole blocks.
    w_full = np.repeat(w_last[..., None], own.shape[-1], -1).reshape(own.shape)
    starts = np.empty_like(own)
    starts[0] = S_in
    for j in range(len(own) - 1):
        np.multiply(w_full[j], starts[j], out=starts[j + 1])
        starts[j + 1] += own[j]
    S_out = w_full[-1] * starts[-1] + own[-1]
    return cw, w_last, starts.reshape((-1,) + S_in.shape[1:]), S_out


def _carry_bwd(k, v, cw, w_last, starts, dstarts, dS_out):
    """Adjoint of _carry, with dstarts the start states' adjoint from
    elsewhere (the read-out). Returns (dk, dv, g, dS_in): the adjoint of cw
    is -k * dk, plus g on the last token."""
    dstarts = dstarts.reshape((-1,) + dS_out.shape)
    w_full = np.repeat(w_last[..., None], dS_out.shape[-1], -1).reshape(dstarts.shape)
    # dS_ends[j] is the adjoint of the state after sub-chunk j
    dS_ends = np.empty_like(dstarts)
    dS_ends[-1] = dS_out
    for j in range(len(dstarts) - 1, 0, -1):
        np.multiply(w_full[j], dS_ends[j], out=dS_ends[j - 1])
        dS_ends[j - 1] += dstarts[j]
    dS_in = w_full[0] * dS_ends[0] + dstarts[0]
    dS_ends = dS_ends.reshape(starts.shape)

    # own contributions: dk[t, a] = e2[t, a] sum_e v[t, e] dS_ends[a, e]
    e2 = np.exp(cw[:, -1:] - cw)
    dk = e2 * _seq(np.matmul(_seq(v), dS_ends.transpose(0, 1, 3, 2)))
    dv = _seq(np.matmul(_seq(e2 * k), dS_ends))
    g = np.einsum("btna,btna->bna", k, dk)
    g += w_last * np.einsum("bnae,bnae->bna", starts, dS_ends)
    return dk, dv, g, dS_in


def scan_chunk_forward(r, k, v, lw, u, S_in):
    """One outer chunk of the full recurrence with read-out, two-level.
    Returns (y, S_out, saved), saved being what scan_chunk_backward reads."""
    B, L = r.shape[:2]
    r, k, v, lw = (_split(a) for a in (r, k, v, lw))
    cw, w_last, starts, S_out = _carry(k, v, lw, S_in)
    cwe = cw - lw

    # decayed read-out: from the start state, then from the earlier tokens
    # of the sub-chunk, one row c at a time, as only t < c contribute
    ydec = np.exp(cwe) * _seq(np.matmul(_seq(r), starts.transpose(0, 1, 3, 2)))
    sv = _sv_matrix(v, r)
    for c in range(1, _SUB):
        d = np.exp(cwe[:, c:c + 1] - cw[:, :c])
        d *= k[:, :c]
        d *= sv[:, c, :c, :, None]
        ydec[:, c] += d.sum(1)
    sv_diag = (v * r).sum(-1)
    y = ydec + u[None, None] * k * sv_diag[..., None]
    return _unsplit(y, B, L), S_out, (cw, w_last, starts, sv, ydec)


def scan_chunk_backward(r, k, v, u, saved, dY, dS_out):
    """Adjoint of scan_chunk_forward, from its saved values, but for u,
    whose gradient decay_scan_backward sums. Returns (dr, dk, dv, dlw,
    dS_in)."""
    cw, w_last, starts, sv, ydec = saved
    B, L = r.shape[:2]
    r, k, v, dY = (_split(a) for a in (r, k, v, dY))

    # carry read-out: exp(cwe) * (S_in r), where cwe[c] = cw[c - 1] and
    # cwe[0] = 0 (the forward rounds cwe as cw - lw)
    g1 = dY.copy()
    g1[:, 1:] *= np.exp(cw[:, :-1])
    dr = _seq(np.matmul(_seq(g1), starts))
    dstarts = np.matmul(_seq(g1).transpose(0, 1, 3, 2), _seq(r))
    dk, dv, g, dS_in = _carry_bwd(k, v, cw, w_last, starts, dstarts, dS_out)

    # intra read-out: y[c, a] += sum_{t<c} exp(cwe[c,a] - cw[t,a]) k[t,a] sv[c,t]
    dsv = np.zeros_like(sv)
    for c in range(1, _SUB):
        x = np.exp(cw[:, c - 1:c] - cw[:, :c])
        x *= dY[:, c:c + 1]
        dk[:, :c] += x * sv[:, c, :c, :, None]
        dsv[:, c, :c] = np.einsum("btna,btna->btn", x, k[:, :c])
    # so far dk is k's adjoint through the own-state decays exp(cw_last - cw)
    # and the read-out decays exp(cwe[c] - cw[t]): cw[t] enters both as
    # exp(-cw[t]) k[t], so its adjoint is -k * dk, plus g on cw_last. Every
    # decayed term of y[c] carries exp(cwe[c]), so cwe[c] = cw[c - 1] adds
    # dY[c] * (y[c] - bonus) at c - 1.
    dcw = k * dk
    np.negative(dcw, out=dcw)
    dcw[:, -1] += g
    dcw[:, :-1] += dY[:, 1:] * ydec[:, 1:]

    # diagonal bonus: y[c] += u * k[c] * sv[c, c]
    diag = np.arange(_SUB)
    dk += dY * u[None, None] * sv[:, diag, diag, :, None]
    dsv[:, diag, diag] = np.einsum("btna,na->btn", dY * k, u)

    # sv[c, t, n] = v[t, n] . r[c, n]
    dsv_bn = dsv.transpose(0, 3, 1, 2)  # (M * B, N, _SUB, _SUB)
    dr += _seq(np.matmul(dsv_bn, _seq(v)))
    dv += _seq(np.matmul(dsv_bn.transpose(0, 1, 3, 2), _seq(r)))
    # cw_i = sum_{j<=i} lw_j within each sub-chunk
    dlw = _sub_rev_cumsum(dcw)
    return (*(_unsplit(a, B, L) for a in (dr, dk, dv, dlw)), dS_in)


def decay_scan_forward(r, k, v, lw, u, S0, want_cache: bool = False):
    """Full-sequence scan with read-out, in outer chunks of `DEFAULT_CHUNK`
    tokens. Returns (y, S_final, cache), cache None unless want_cache."""
    T = r.shape[1]
    S = S0.copy()
    y = np.empty_like(r)
    saved = []
    for start in range(0, T, DEFAULT_CHUNK):
        end = min(start + DEFAULT_CHUNK, T)
        y[:, start:end], S, chunk_saved = scan_chunk_forward(
            r[:, start:end], k[:, start:end], v[:, start:end],
            lw[:, start:end], u, S)
        if want_cache:
            saved.append((start, end, chunk_saved))
    return y, S, ({"r": r, "k": k, "v": v, "u": u, "saved": saved} if want_cache else None)


def decay_scan_backward(cache, dY, dS_final=None):
    """Returns (dr, dk, dv, dlw, du, dS0). dS_final None means zeros."""
    r, k, v, u = cache["r"], cache["k"], cache["v"], cache["u"]
    B, _, N, Dh = r.shape
    dS = np.zeros((B, N, Dh, Dh), r.dtype) if dS_final is None else dS_final
    dr = np.empty_like(r)
    dk = np.empty_like(k)
    dv = np.empty_like(v)
    dlw = np.empty_like(r)
    for s, e, saved in reversed(cache["saved"]):
        dr[:, s:e], dk[:, s:e], dv[:, s:e], dlw[:, s:e], dS = scan_chunk_backward(
            r[:, s:e], k[:, s:e], v[:, s:e], u, saved, dY[:, s:e], dS)
    # bonus y[c] += u * k[c] * (v[c] . r[c])
    du = np.einsum("btna,btn->na", dY * k, np.einsum("btna,btna->btn", v, r))
    return dr, dk, dv, dlw, du, dS


# ---------------------------------------------------------------------------
# State-only variant (no read-out, no bonus): used by the matrix-state
# output layer, which snapshots the state at checkpoint positions.
# ---------------------------------------------------------------------------

def state_chunk_forward(k, v, lw, S_in):
    """Returns (S_out, saved), saved being what state_chunk_backward reads."""
    cw, w_last, starts, S_out = _carry(_split(k), _split(v), _split(lw), S_in)
    return S_out, (cw, w_last, starts)


def state_chunk_backward(k, v, saved, dS_out):
    """Adjoint of state_chunk_forward. Returns (dk, dv, dlw, dS_in)."""
    cw, w_last, starts = saved
    B, L = k.shape[:2]
    k, v = _split(k), _split(v)
    dk, dv, g, dS_in = _carry_bwd(k, v, cw, w_last, starts, np.zeros_like(starts), dS_out)
    dcw = -k * dk
    dcw[:, -1] += g
    return (*(_unsplit(a, B, L) for a in (dk, dv, _sub_rev_cumsum(dcw))), dS_in)


def _segment_bounds(T: int, checkpoints) -> list[tuple[int, int, bool]]:
    """(start, end, is_checkpoint) spans covering [0, T) split at checkpoints
    and further subdivided to at most `DEFAULT_CHUNK` tokens."""
    cps = list(checkpoints)
    if any(c2 <= c1 for c1, c2 in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps and (cps[0] < 1 or cps[-1] > T):
        raise ValueError("checkpoints must lie in [1, T]")
    bounds = []
    pos = 0
    for cp in cps + ([T] if (not cps or cps[-1] != T) else []):
        while pos < cp:
            nxt = min(pos + DEFAULT_CHUNK, cp)
            bounds.append((pos, nxt, nxt == cp and cp in cps))
            pos = nxt
    return bounds


def state_scan_forward(k, v, lw, S0, checkpoints, want_cache: bool = False):
    """Returns (snapshots at each checkpoint, S_final, cache), cache None
    unless want_cache."""
    B, T, N, Dh = k.shape
    S = S0.copy()
    snaps = []
    saved = []
    for start, end, is_cp in _segment_bounds(T, checkpoints):
        S, seg_saved = state_chunk_forward(k[:, start:end], v[:, start:end],
                                           lw[:, start:end], S)
        if want_cache:
            saved.append((start, end, is_cp, seg_saved))
        if is_cp:
            snaps.append(S)
    snaps = (np.stack(snaps, axis=1) if snaps
             else np.zeros((B, 0, N, Dh, Dh), dtype=k.dtype))
    return snaps, S, ({"k": k, "v": v, "saved": saved} if want_cache else None)


def state_scan_backward(cache, dSnaps, dS_final=None):
    """Returns (dk, dv, dlw, dS0). dS_final None means zeros."""
    k, v = cache["k"], cache["v"]
    B, _, N, Dh = k.shape
    dS = np.zeros((B, N, Dh, Dh), k.dtype) if dS_final is None else dS_final
    dk = np.empty_like(k)
    dv = np.empty_like(v)
    dlw = np.empty_like(k)
    cp_idx = dSnaps.shape[1]
    for start, end, is_cp, saved in reversed(cache["saved"]):
        if is_cp:
            cp_idx -= 1
            dS = dS + dSnaps[:, cp_idx]
        dk[:, start:end], dv[:, start:end], dlw[:, start:end], dS = state_chunk_backward(
            k[:, start:end], v[:, start:end], saved, dS)
    return dk, dv, dlw, dS
