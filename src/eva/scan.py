"""Chunked evaluation of the decayed outer-product recurrence.

The state is one matrix per head, S[a, b], updated per token as

    S[a, b] <- w[a] * S[a, b] + k[a] * v[b],         w = exp(lw), lw <= 0

with the read-out y[a] = sum_b (S_prev[a, b] + u[a] k[a] v[b]) r[b].

The read-out scan is two-level (the secondary chunks of Gated Linear
Attention, Yang et al., arXiv 2312.06635). A sequence is cut into outer
chunks of at most `DEFAULT_CHUNK` tokens, and each outer chunk into
sub-chunks of `_SUB` tokens, the last one zero-padded (r = k = v = lw = 0
leaves the state unchanged). For every sub-chunk at once, batched over
(B * M) for M sub-chunks, `_state_out` gives its own state contribution
dS_j; a sequential carry S_{j+1} = exp(cw_last_j) * S_j + dS_j over the
M cheap (B, N, Dh, Dh) states then gives each sub-chunk's start state, and
one batched `_sub_readout` evaluates every sub-chunk from its start state.
Only that read-out builds the masked (B * M, s, s, N, Dh) decay tensor, so
the quadratic cost stays at the sub-chunk size. The backward pass is the
adjoint of the same three steps: `_sub_readout_bwd`, the reverse carry,
then `_state_out_bwd`. The outer chunk bounds the memory of the batched
sub-chunk tensors; the backward pass recomputes the sub-chunk start states
from the cached outer-chunk start states.

Decay products are exp of differences of cumulative sums of lw within one
sub-chunk (or one state-only chunk), so every exponent is <= 0 and every
factor lies in [0, 1], underflowing harmlessly to 0. The decay
pre-activation cap `blocks._D_CAP` keeps lw >= -60, so every cumulative
sum is finite (>= -60 per token) and a difference of two never forms
inf - inf. In a read-out sub-chunk a cumulative sum is at most
60 * _SUB = 240 in magnitude, so its f32 rounding shifts an exponent by
about 1e-5. Across sub-chunks the decay is applied as a product of exp(cw_last) in the
carry, which loses no precision to cancellation.

`decay_scan_*` (with read-out, token mixing) and `state_scan_*` (state
only, the matrix-state layer) share one state-update kernel, `_state_out`
and its adjoint `_state_out_bwd`.

Shapes: sequences are (B, T, N, Dh); states are (B, N, Dh, Dh) with the
first Dh axis indexing the k channel (the decayed one) and the second the
v channel; u is (N, Dh). The contractions are phrased as batched matmuls
over (B, N); the transposes cost copies but keep everything in GEMM.
"""

from __future__ import annotations

import numpy as np

# Outer chunk, for offline encoding and training alike. With two-level
# chunking it no longer sets the per-token arithmetic, only the size of the
# batched sub-chunk temporaries and the number of outer-chunk calls. On a
# 2-core host, 64 was the fastest setting within noise for both the `dvs`
# f32 `encode_offline` windows and the `small` f64 training step; 128 was
# 15-20% slower on the former, 32 no faster on either.
DEFAULT_CHUNK = 64
# Sub-chunk of the read-out scan, whose masked decay tensor is s x s: 4
# measured best on the same two jobs (8 was 0-18% slower offline and no
# faster in training, 16 twice as slow offline).
_SUB = 4


def _rev_cumsum(a: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(a, axis), axis), axis)


def _intra_decay(cw: np.ndarray, cwe: np.ndarray) -> np.ndarray:
    """exp(cwe[c] - cw[t]) masked to t < c: decay applied to the outer
    product of token t when read at token c. Shape (B, C, C, N, Dh)."""
    C = cw.shape[1]
    diff = cwe[:, :, None] - cw[:, None, :]
    mask = np.tril(np.ones((C, C), dtype=bool), k=-1)
    return np.exp(np.where(mask[None, :, :, None, None], diff, -np.inf))


def _seq(a):
    """(B, T, N, D) -> (B, N, T, D) for batched matmul over (B, N)."""
    return a.transpose(0, 2, 1, 3)


def _carry_readout(S_in, r, e_cwe):
    # y[c, a] = e_cwe[c, a] * sum_e S_in[a, e] r[c, e]
    return e_cwe * _seq(np.matmul(_seq(r), S_in.transpose(0, 1, 3, 2)))


def _sv_matrix(v, r):
    # sv[c, t, n] = v[t, n] . r[c, n]
    return np.matmul(_seq(r), _seq(v).transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1)


def _state_out(k, v, cw, S_in):
    """State after one chunk with inclusive log-decay prefix cw."""
    cw_last = cw[:, -1]
    e2 = np.exp(cw_last[:, None] - cw)
    # S_out[a, e] = e_last[a] S_in[a, e] + sum_t e2[t, a] k[t, a] v[t, e]
    return np.exp(cw_last)[..., None] * S_in \
        + np.matmul(_seq(e2 * k).transpose(0, 1, 3, 2), _seq(v))


def _state_out_bwd(k, v, cw, S_in, dS_out):
    """Adjoint of _state_out. Returns (dk, dv, dcw, dS_in)."""
    cw_last = cw[:, -1]
    e2 = np.exp(cw_last[:, None] - cw)
    w_last = np.exp(cw_last)
    dS_in = w_last[..., None] * dS_out
    # p1[t, a] = sum_e v[t, e] dS_out[a, e]
    p1 = _seq(np.matmul(_seq(v), dS_out.transpose(0, 1, 3, 2)))
    dk = e2 * p1
    dv = _seq(np.matmul(_seq(e2 * k), dS_out))
    x_t = e2 * k * p1
    dcw = -x_t
    dcw[:, -1] += x_t.sum(axis=1)
    dcw[:, -1] += w_last * (S_in * dS_out).sum(-1)
    return dk, dv, dcw, dS_in


def _sub_readout(r, k, v, cw, cwe, u, S_in):
    """Read-out of independent sub-chunks (leading axis), each from its own
    start state S_in, with log-decay prefixes cw (inclusive), cwe (exclusive)."""
    y_carry = _carry_readout(S_in, r, np.exp(cwe))
    dk = _intra_decay(cw, cwe) * k[:, None]          # (B, s, s, N, Dh)
    y_intra = np.einsum("bctna,bctn->bcna", dk, _sv_matrix(v, r))
    sv_diag = (v * r).sum(-1)
    return y_carry + y_intra + u[None, None] * k * sv_diag[..., None]


def _sub_readout_bwd(r, k, v, cw, cwe, u, S_in, dY):
    """Adjoint of _sub_readout. Returns (dr, dk, dv, dcw, dcwe, du, dS_in)."""
    e_cwe = np.exp(cwe)
    dmat = _intra_decay(cw, cwe)
    sv = _sv_matrix(v, r)
    sv_diag = (v * r).sum(-1)

    # carry read-out: y_carry = e_cwe * (S_in r)
    dcwe = dY * _carry_readout(S_in, r, e_cwe)
    g1 = dY * e_cwe
    dr = _seq(np.matmul(_seq(g1), S_in))
    dS_in = np.matmul(_seq(g1).transpose(0, 1, 3, 2), _seq(r))

    # intra read-out: y_intra[c, a] = sum_{t<c} dmat[c,t,a] k[t,a] sv[c,t]
    t1 = dY[:, :, None] * dmat  # (B, s, s, N, Dh)
    dk_intra = np.einsum("bctna,bctn->btna", t1, sv)
    dsv = (t1 * k[:, None]).sum(-1)
    dcwe += dY * np.einsum("bctna,bctn->bcna", dmat * k[:, None], sv)
    dcw = -k * dk_intra

    # diagonal bonus: y_diag = u * k * sv_diag
    dY_k = dY * k
    du = (dY_k * sv_diag[..., None]).sum((0, 1))
    dk = dk_intra + dY * u[None, None] * sv_diag[..., None]
    dsv_diag = (dY_k * u[None, None]).sum(-1, keepdims=True)

    # sv[c, t, n] = v[t, n] . r[c, n];  sv_diag[c, n] = v[c, n] . r[c, n]
    dsv_bn = dsv.transpose(0, 3, 1, 2)  # (B, N, s, s)
    dr += _seq(np.matmul(dsv_bn, _seq(v))) + dsv_diag * v
    dv = _seq(np.matmul(dsv_bn.transpose(0, 1, 3, 2), _seq(r))) + dsv_diag * r
    return dr, dk, dv, dcw, dcwe, du, dS_in


def _split(a, M, s):
    """(B, L, ...) -> (B * M, s, ...): sub-chunks of s tokens, the last one
    zero-padded to full length."""
    B, L = a.shape[:2]
    if M * s != L:
        a = np.concatenate([a, np.zeros((B, M * s - L) + a.shape[2:], a.dtype)], axis=1)
    return a.reshape((B * M, s) + a.shape[2:])


def _subchunks(r, k, v, lw, S_in):
    """Sub-chunk inputs of one outer chunk, their log-decay prefixes, decays
    and start states. Returns (M, s, (r, k, v, cw, cwe), w_last, starts,
    S_out) with sequences (B * M, s, N, Dh), w_last (B, M, N, Dh, 1) and
    starts (B, M, N, Dh, Dh)."""
    B, L = r.shape[:2]
    s = min(_SUB, L)
    M = -(-L // s)
    r, k, v, lw = (_split(a, M, s) for a in (r, k, v, lw))
    cw = np.cumsum(lw, axis=1)
    own = _state_out(k, v, cw, 0.0)
    own = own.reshape((B, M) + own.shape[1:])
    w_last = np.exp(cw[:, -1]).reshape((B, M) + cw.shape[2:] + (1,))
    starts = np.empty_like(own)
    S = S_in
    for j in range(M):
        starts[:, j] = S
        S = w_last[:, j] * S + own[:, j]
    return M, s, (r, k, v, cw, cw - lw), w_last, starts, S


def scan_chunk_forward(r, k, v, lw, u, S_in):
    """One outer chunk of the full recurrence with read-out, two-level.
    Returns (y, S_out)."""
    B, L = r.shape[:2]
    M, s, (r, k, v, cw, cwe), _, starts, S_out = _subchunks(r, k, v, lw, S_in)
    y = _sub_readout(r, k, v, cw, cwe, u, starts.reshape((B * M,) + S_in.shape[1:]))
    return y.reshape((B, M * s) + y.shape[2:])[:, :L], S_out


def scan_chunk_backward(r, k, v, lw, u, S_in, dY, dS_out):
    """Adjoint of scan_chunk_forward. Returns (dr, dk, dv, dlw, du, dS_in)."""
    B, L = r.shape[:2]
    M, s, (r, k, v, cw, cwe), w_last, starts, _ = _subchunks(r, k, v, lw, S_in)
    flat = (B * M,) + S_in.shape[1:]
    dr, dk, dv, dcw, dcwe, du, dstarts = _sub_readout_bwd(
        r, k, v, cw, cwe, u, starts.reshape(flat), _split(dY, M, s))
    # reverse carry: dS_ends[:, j] is the adjoint of the state after sub-chunk j
    dstarts = dstarts.reshape(starts.shape)
    dS_ends = np.empty_like(dstarts)
    dS = dS_out
    for j in reversed(range(M)):
        dS_ends[:, j] = dS
        dS = dstarts[:, j] + w_last[:, j] * dS
    dk_s, dv_s, dcw_s, _ = _state_out_bwd(k, v, cw, starts.reshape(flat),
                                          dS_ends.reshape(flat))
    # cw_i = sum_{j<=i} lw_j, cwe_i = sum_{j<i} lw_j, within each sub-chunk
    dlw = _rev_cumsum(dcw + dcw_s, 1) + (_rev_cumsum(dcwe, 1) - dcwe)
    out = (dr, dk + dk_s, dv + dv_s, dlw)
    return (*(a.reshape((B, M * s) + a.shape[2:])[:, :L] for a in out), du, dS)


def decay_scan_forward(r, k, v, lw, u, S0, chunk: int = DEFAULT_CHUNK,
                       want_cache: bool = False):
    """Full-sequence scan with read-out. Returns (y, S_final[, cache])."""
    B, T, N, Dh = r.shape
    S = S0.copy()
    y = np.empty_like(r)
    s_ins = []
    for start in range(0, T, chunk):
        end = min(start + chunk, T)
        if want_cache:
            s_ins.append(S.copy())
        y[:, start:end], S = scan_chunk_forward(
            r[:, start:end], k[:, start:end], v[:, start:end],
            lw[:, start:end], u, S)
    if want_cache:
        cache = {"r": r, "k": k, "v": v, "lw": lw, "u": u,
                 "s_ins": s_ins, "chunk": chunk, "T": T}
        return y, S, cache
    return y, S


def decay_scan_backward(cache, dY, dS_final):
    """Returns (dr, dk, dv, dlw, du, dS0)."""
    r, k, v, lw, u = cache["r"], cache["k"], cache["v"], cache["lw"], cache["u"]
    chunk, T = cache["chunk"], cache["T"]
    starts = list(range(0, T, chunk))
    dS = dS_final.copy()
    dr = np.empty_like(r)
    dk = np.empty_like(k)
    dv = np.empty_like(v)
    dlw = np.empty_like(lw)
    du = np.zeros_like(u)
    for i in reversed(range(len(starts))):
        s, e = starts[i], min(starts[i] + chunk, T)
        out = scan_chunk_backward(
            r[:, s:e], k[:, s:e], v[:, s:e], lw[:, s:e], u,
            cache["s_ins"][i], dY[:, s:e], dS)
        dr[:, s:e], dk[:, s:e], dv[:, s:e], dlw[:, s:e], du_c, dS = out
        du += du_c
    return dr, dk, dv, dlw, du, dS


# ---------------------------------------------------------------------------
# State-only variant (no read-out, no bonus): used by the matrix-state
# output layer, which snapshots the state at checkpoint positions.
# ---------------------------------------------------------------------------

def state_chunk_forward(k, v, lw, S_in):
    return _state_out(k, v, np.cumsum(lw, axis=1), S_in)


def state_chunk_backward(k, v, lw, S_in, dS_out):
    dk, dv, dcw, dS_in = _state_out_bwd(k, v, np.cumsum(lw, axis=1), S_in, dS_out)
    return dk, dv, _rev_cumsum(dcw, 1), dS_in


def _segment_bounds(T: int, checkpoints, chunk: int) -> list[tuple[int, int, bool]]:
    """(start, end, is_checkpoint) spans covering [0, T) split at checkpoints
    and further subdivided to at most `chunk` tokens."""
    cps = list(checkpoints)
    if any(c2 <= c1 for c1, c2 in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps and (cps[0] < 1 or cps[-1] > T):
        raise ValueError("checkpoints must lie in [1, T]")
    bounds = []
    pos = 0
    for cp in cps + ([T] if (not cps or cps[-1] != T) else []):
        while pos < cp:
            nxt = min(pos + chunk, cp)
            bounds.append((pos, nxt, nxt == cp and cp in cps))
            pos = nxt
    return bounds


def state_scan_forward(k, v, lw, S0, checkpoints, chunk: int = DEFAULT_CHUNK,
                       want_cache: bool = False):
    """Returns (snapshots at each checkpoint, S_final[, cache])."""
    B, T, N, Dh = k.shape
    bounds = _segment_bounds(T, checkpoints, chunk)
    S = S0.copy()
    snaps = []
    s_ins = []
    for start, end, is_cp in bounds:
        if want_cache:
            s_ins.append(S.copy())
        S = state_chunk_forward(k[:, start:end], v[:, start:end], lw[:, start:end], S)
        if is_cp:
            snaps.append(S.copy())
    snaps = (np.stack(snaps, axis=1) if snaps
             else np.zeros((B, 0, N, Dh, Dh), dtype=k.dtype))
    if want_cache:
        cache = {"k": k, "v": v, "lw": lw, "s_ins": s_ins, "bounds": bounds}
        return snaps, S, cache
    return snaps, S


def state_scan_backward(cache, dSnaps, dS_final):
    """Returns (dk, dv, dlw, dS0)."""
    k, v, lw = cache["k"], cache["v"], cache["lw"]
    bounds = cache["bounds"]
    dS = dS_final.copy()
    dk = np.empty_like(k)
    dv = np.empty_like(v)
    dlw = np.empty_like(lw)
    cp_idx = sum(1 for b in bounds if b[2]) - 1
    for i in reversed(range(len(bounds))):
        start, end, is_cp = bounds[i]
        if is_cp:
            dS = dS + dSnaps[:, cp_idx]
            cp_idx -= 1
        dk[:, start:end], dv[:, start:end], dlw[:, start:end], dS = state_chunk_backward(
            k[:, start:end], v[:, start:end], lw[:, start:end], cache["s_ins"][i], dS)
    return dk, dv, dlw, dS
