"""Chunked evaluation of the decayed outer-product recurrence.

The state is one matrix per head, S[a, b], updated per token as

    S[a, b] <- w[a] * S[a, b] + k[a] * v[b],         w = exp(lw), lw <= 0

with the read-out y[a] = sum_b (S_prev[a, b] + u[a] k[a] v[b]) r[b].

Within a chunk the decay products are evaluated as exp of cumulative sums
of lw, which keeps every factor in (0, 1] and underflows harmlessly to 0;
state is carried across chunks in full precision. The backward passes
recompute within-chunk quantities from the cached chunk-boundary states.

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

DEFAULT_CHUNK = 64


def _rev_cumsum(a: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(a, axis), axis), axis)


def _chunk_cw(lw: np.ndarray):
    cw = np.cumsum(lw, axis=1)  # inclusive prefix of log-decays
    cwe = cw - lw               # exclusive prefix
    return cw, cwe


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


def scan_chunk_forward(r, k, v, lw, u, S_in):
    """One chunk of the full recurrence with read-out. Returns (y, S_out)."""
    cw, cwe = _chunk_cw(lw)
    e_cwe = np.exp(cwe)
    y_carry = _carry_readout(S_in, r, e_cwe)
    sv = _sv_matrix(v, r)
    dk = _intra_decay(cw, cwe) * k[:, None]          # (B, C, C, N, Dh)
    y_intra = np.einsum("bctna,bctn->bcna", dk, sv)
    sv_diag = (v * r).sum(-1)
    y = y_carry + y_intra + u[None, None] * k * sv_diag[..., None]
    return y, _state_out(k, v, cw, S_in)


def scan_chunk_backward(r, k, v, lw, u, S_in, dY, dS_out):
    """Adjoint of scan_chunk_forward. Returns (dr, dk, dv, dlw, du, dS_in)."""
    cw, cwe = _chunk_cw(lw)
    e_cwe = np.exp(cwe)
    dmat = _intra_decay(cw, cwe)
    dk_mat = dmat * k[:, None]
    sv = _sv_matrix(v, r)
    sv_diag = (v * r).sum(-1)

    dk, dv, dcw, dS_in = _state_out_bwd(k, v, cw, S_in, dS_out)
    dcwe = np.zeros_like(cwe)
    dr = np.zeros_like(r)

    # carry read-out: y_carry = e_cwe * (S_in r)
    y_carry = _carry_readout(S_in, r, e_cwe)
    dcwe += dY * y_carry
    g1 = dY * e_cwe
    dr += _seq(np.matmul(_seq(g1), S_in))
    dS_in += np.matmul(_seq(g1).transpose(0, 1, 3, 2), _seq(r))

    # intra read-out: y_intra[c, a] = sum_{t<c} dmat[c,t,a] k[t,a] sv[c,t]
    t1 = dY[:, :, None] * dmat  # (B, C, C, N, Dh)
    dk_intra = np.einsum("bctna,bctn->btna", t1, sv)
    dk += dk_intra
    dsv = (t1 * k[:, None]).sum(-1)
    y_intra = np.einsum("bctna,bctn->bcna", dk_mat, sv)
    dcwe += dY * y_intra
    dcw -= k * dk_intra

    # diagonal bonus: y_diag = u * k * sv_diag
    dY_k = dY * k
    du = (dY_k * sv_diag[..., None]).sum((0, 1))
    dk += dY * u[None, None] * sv_diag[..., None]
    dsv_diag = (dY_k * u[None, None]).sum(-1, keepdims=True)

    # sv[c, t, n] = v[t, n] . r[c, n];  sv_diag[c, n] = v[c, n] . r[c, n]
    dsv_bn = dsv.transpose(0, 3, 1, 2)  # (B, N, C, T)
    dr += _seq(np.matmul(dsv_bn, _seq(v)))
    dv += _seq(np.matmul(dsv_bn.transpose(0, 1, 3, 2), _seq(r)))
    dr += dsv_diag * v
    dv += dsv_diag * r

    # cw_i = sum_{j<=i} lw_j, cwe_i = sum_{j<i} lw_j
    dlw = _rev_cumsum(dcw, 1) + (_rev_cumsum(dcwe, 1) - dcwe)
    return dr, dk, dv, dlw, du, dS_in


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
