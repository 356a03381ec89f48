"""Chunked evaluation of the decayed outer-product recurrence.

The state is one matrix per head, S[a, b], updated per token as

    S[a, b] <- w[a] * S[a, b] + k[a] * v[b],         w = exp(lw), lw <= 0

with the read-out y[a] = sum_b (S_prev[a, b] + u[a] k[a] v[b]) r[b].

The read-out scan is two-level (the secondary chunks of Gated Linear
Attention, Yang et al., arXiv 2312.06635). A sequence is cut into outer
chunks of at most `DEFAULT_CHUNK` tokens, and each outer chunk into
sub-chunks of `_SUB` tokens, the last one zero-padded (r = k = v = lw = 0
leaves the state unchanged). For every sub-chunk at once, batched over
(M * B) for M sub-chunks, `_state_out` gives its own state contribution
dS_j; a sequential carry S_{j+1} = exp(cw_last_j) * S_j + dS_j over the
M cheap (B, N, Dh, Dh) states then gives each sub-chunk's start state, and
one batched read-out evaluates every sub-chunk from its start state. Inside
a sub-chunk the read-out of token c takes the decayed outer products of the
tokens t < c one row c at a time, so the quadratic cost stays at the
sub-chunk size and no masked entry is computed. The outer chunk bounds the
memory of the batched sub-chunk tensors.

The backward pass recomputes nothing that needs the carry. It runs the
adjoint of the read-out, the reverse carry and `_state_out_bwd` from what
the forward saved per outer chunk, kept with the chunk's bounds: per
token, the log-decay prefix cw, the decayed part of the read-out (y
without its u bonus) and the sub-chunk's row of v . r products; per
sub-chunk, its start state and exp(cw_last).
Per head and token that is 2 Dh + _SUB + (Dh * Dh + Dh) / _SUB floats:
152 per token for `small` (4 heads of 8), 1.2 KB in f64. Every decayed
term of y[c] carries the factor exp(cwe[c]), with cwe the exclusive
prefix, so cwe's adjoint is dY times that saved decayed part. The
state-only scan saves exp(cw_last - cw) and exp(cw_last) of each segment.

Decay products are exp of differences of cumulative sums of lw within one
sub-chunk (or one state-only chunk), so every exponent is <= 0 and every
factor lies in [0, 1], underflowing harmlessly to 0. The decay
pre-activation cap `blocks._D_CAP` keeps lw >= -60, so every cumulative
sum is finite (>= -60 per token) and a difference of two never forms
inf - inf. In a read-out sub-chunk a cumulative sum is at most
60 * _SUB = 240 in magnitude, so its f32 rounding shifts an exponent by
about 1e-5. Across sub-chunks the decay is applied as a product of
exp(cw_last) in the carry, which loses no precision to cancellation.

`decay_scan_*` (with read-out, token mixing) and `state_scan_*` (state
only, the matrix-state layer) share one state-update kernel, `_state_out`
and its adjoint `_state_out_bwd`. Both forwards return their outputs and
a cache slot, None unless asked for with `want_cache`.

Shapes: sequences are (B, T, N, Dh); states are (B, N, Dh, Dh) with the
first Dh axis indexing the k channel (the decayed one) and the second the
v channel; u is (N, Dh). The contractions are phrased as batched matmuls
over (B, N); the transposes cost copies but keep everything in GEMM.
"""

from __future__ import annotations

import numpy as np

# Outer chunk, for offline encoding and training alike; every scan reads it
# when called. With two-level chunking it no longer sets the per-token
# arithmetic, only the size of the batched sub-chunk temporaries and the
# number of outer-chunk calls. With the cached backward, 128 measured ~10%
# faster than 64 on a 2-core host, forward and backward alike, on both the
# `dvs` f32 `encode_offline` windows and the `small` f64 training step;
# 256 and 512 were slower again. It stays 64 because the value moves
# forward bits: a last outer chunk shorter than `_SUB` is cut into shorter
# sub-chunks, so some lengths (T = 257, say) round differently.
DEFAULT_CHUNK = 64
# Sub-chunk of the read-out scan, whose read-out inside a sub-chunk costs
# s * (s - 1) / 2 decayed products per channel: 4 measured best on the same
# two jobs (8 was 0-18% slower offline and no faster in training, 16 twice
# as slow offline).
_SUB = 4


def _rev_cumsum(a: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(a, axis), axis), axis)


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


def _state_out(k, v, cw):
    """Own contribution of one chunk to its end state, with inclusive
    log-decay prefix cw: sum_t e2[t, a] k[t, a] v[t, e]. Returns it with
    e2 = exp(cw_last - cw)."""
    e2 = np.exp(cw[:, -1:] - cw)
    return np.matmul(_seq(e2 * k).transpose(0, 1, 3, 2), _seq(v)), e2


def _state_out_bwd(k, v, e2, w_last, S_in, dS_out):
    """Adjoint of S_out = w_last * S_in + _state_out(k, v, cw). Returns (dk,
    dv, g): the adjoint of cw is -k * dk, plus g on the last token."""
    # p1[t, a] = sum_e v[t, e] dS_out[a, e]
    p1 = _seq(np.matmul(_seq(v), dS_out.transpose(0, 1, 3, 2)))
    dk = e2 * p1
    dv = _seq(np.matmul(_seq(e2 * k), dS_out))
    g = np.einsum("btna,btna->bna", k, dk)
    g += w_last * np.einsum("bnae,bnae->bna", S_in, dS_out)
    return dk, dv, g


def _split(a, M, s):
    """(B, L, ...) -> (M * B, s, ...): sub-chunks of s tokens, the last one
    zero-padded to full length, sub-chunk-major so that the carry steps
    over contiguous (B, ...) blocks."""
    B, L = a.shape[:2]
    if M * s != L:
        a = np.concatenate([a, np.zeros((B, M * s - L) + a.shape[2:], a.dtype)], axis=1)
    return a.reshape((B, M, s) + a.shape[2:]).swapaxes(0, 1).reshape((M * B, s) + a.shape[2:])


def _unsplit(a, B, L):
    """Inverse of _split: (M * B, s, ...) -> (B, L, ...)."""
    a = a.reshape((-1, B) + a.shape[1:]).swapaxes(0, 1)
    return a.reshape((B, -1) + a.shape[3:])[:, :L]


def scan_chunk_forward(r, k, v, lw, u, S_in):
    """One outer chunk of the full recurrence with read-out, two-level.
    Returns (y, S_out, saved), saved being what scan_chunk_backward reads."""
    B, L = r.shape[:2]
    s = min(_SUB, L)
    M = -(-L // s)
    r, k, v, lw = (_split(a, M, s) for a in (r, k, v, lw))
    cw = _sub_cumsum(lw.copy())
    cwe = cw - lw
    own, _ = _state_out(k, v, cw)
    own = own.reshape((M, B) + own.shape[1:])
    w_last = np.exp(cw[:, -1])
    # carry: starts[j] is the state before sub-chunk j. The decay is
    # broadcast over the v axis once, so each step runs on whole blocks.
    w_full = np.repeat(w_last[..., None], own.shape[-1], -1).reshape(own.shape)
    starts = np.empty_like(own)
    starts[0] = S_in
    for j in range(M - 1):
        np.multiply(w_full[j], starts[j], out=starts[j + 1])
        starts[j + 1] += own[j]
    S_out = w_full[-1] * starts[-1] + own[-1]
    starts = starts.reshape((M * B,) + S_in.shape[1:])

    # decayed read-out: from the start state, then from the earlier tokens
    # of the sub-chunk, one row c at a time, as only t < c contribute
    ydec = np.exp(cwe) * _seq(np.matmul(_seq(r), starts.transpose(0, 1, 3, 2)))
    sv = _sv_matrix(v, r)
    for c in range(1, s):
        d = np.exp(cwe[:, c:c + 1] - cw[:, :c])
        d *= k[:, :c]
        d *= sv[:, c, :c, :, None]
        ydec[:, c] += d.sum(1)
    sv_diag = (v * r).sum(-1)
    y = ydec + u[None, None] * k * sv_diag[..., None]
    return _unsplit(y, B, L), S_out, (cw, w_last, starts, sv, ydec)


def scan_chunk_backward(r, k, v, u, saved, dY, dS_out):
    """Adjoint of scan_chunk_forward, from its saved values. Returns (dr,
    dk, dv, dlw, du, dS_in)."""
    cw, w_last, starts, sv, ydec = saved
    B, L = r.shape[:2]
    s = cw.shape[1]
    M = cw.shape[0] // B
    r, k, v, dY = (_split(a, M, s) for a in (r, k, v, dY))

    # carry read-out: exp(cwe) * (S_in r), where cwe[c] = cw[c - 1] and
    # cwe[0] = 0 (the forward rounds cwe as cw - lw)
    g1 = dY.copy()
    g1[:, 1:] *= np.exp(cw[:, :-1])
    dr = _seq(np.matmul(_seq(g1), starts))
    dstarts = np.matmul(_seq(g1).transpose(0, 1, 3, 2), _seq(r))

    # reverse carry: dS_ends[j] is the adjoint of the state after sub-chunk j
    dstarts = dstarts.reshape((M, B) + dS_out.shape[1:])
    w_full = np.repeat(w_last[..., None], dstarts.shape[-1], -1).reshape(dstarts.shape)
    dS_ends = np.empty_like(dstarts)
    dS_ends[-1] = dS_out
    for j in range(M - 1, 0, -1):
        np.multiply(w_full[j], dS_ends[j], out=dS_ends[j - 1])
        dS_ends[j - 1] += dstarts[j]
    dS_in = w_full[0] * dS_ends[0] + dstarts[0]
    dk, dv, g = _state_out_bwd(k, v, np.exp(cw[:, -1:] - cw), w_last, starts,
                               dS_ends.reshape(starts.shape))

    # intra read-out: y[c, a] += sum_{t<c} exp(cwe[c,a] - cw[t,a]) k[t,a] sv[c,t]
    dsv = np.zeros_like(sv)
    for c in range(1, s):
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
    diag = np.arange(s)
    dY_k = dY * k
    du = np.einsum("btna,btn->na", dY_k, sv[:, diag, diag])
    dk += dY * u[None, None] * sv[:, diag, diag, :, None]
    dsv[:, diag, diag] = np.einsum("btna,na->btn", dY_k, u)

    # sv[c, t, n] = v[t, n] . r[c, n]
    dsv_bn = dsv.transpose(0, 3, 1, 2)  # (M * B, N, s, s)
    dr += _seq(np.matmul(dsv_bn, _seq(v)))
    dv += _seq(np.matmul(dsv_bn.transpose(0, 1, 3, 2), _seq(r)))
    # cw_i = sum_{j<=i} lw_j within each sub-chunk
    dlw = _sub_rev_cumsum(dcw)
    return (*(_unsplit(a, B, L) for a in (dr, dk, dv, dlw)), du, dS_in)


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
    du = np.zeros_like(u)
    for s, e, saved in reversed(cache["saved"]):
        out = scan_chunk_backward(
            r[:, s:e], k[:, s:e], v[:, s:e], u, saved, dY[:, s:e], dS)
        dr[:, s:e], dk[:, s:e], dv[:, s:e], dlw[:, s:e], du_c, dS = out
        du += du_c
    return dr, dk, dv, dlw, du, dS


# ---------------------------------------------------------------------------
# State-only variant (no read-out, no bonus): used by the matrix-state
# output layer, which snapshots the state at checkpoint positions.
# ---------------------------------------------------------------------------

def state_chunk_forward(k, v, lw, S_in):
    """Returns (S_out, saved), saved being what state_chunk_backward reads."""
    cw = np.cumsum(lw, axis=1)
    own, e2 = _state_out(k, v, cw)
    w_last = np.exp(cw[:, -1])
    return w_last[..., None] * S_in + own, (S_in, e2, w_last)


def state_chunk_backward(k, v, saved, dS_out):
    """Adjoint of state_chunk_forward. Returns (dk, dv, dlw, dS_in)."""
    S_in, e2, w_last = saved
    dk, dv, g = _state_out_bwd(k, v, e2, w_last, S_in, dS_out)
    dcw = -k * dk
    dcw[:, -1] += g
    return dk, dv, _rev_cumsum(dcw, 1), w_last[..., None] * dS_out


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
