"""Convolutional read-out heads mapping a matrix-state snapshot to a
2 x P x P target image.

Structure per head: 3x3 conv (ReLU), then a 4x4/stride-2 transposed conv
(ReLU) per doubling needed to reach the patch side, then a 1x1
projection. Heads are training scaffolding only; they are dropped after
pretraining.

Every head of a model reads the same snapshot, so `head_forward` and
`head_backward` evaluate all of them in one pass over a dict
`task -> params` of heads of equal geometry, channels-last throughout:
- one im2col of the input, (N, C*9) for N = B*H*W pixels;
- conv1 of every head as one GEMM against their filters side by side,
  giving (N, heads*width), with bias and ReLU in place; the post-ReLU
  activation h is the only conv1 cache (h > 0 is the mask);
- the 1x1 projections as one GEMM against a block-diagonal
  (heads*width, heads*2) matrix;
- in the backward, one GEMM each for the projection and conv1 weight
  gradients, and one for the input gradient, which sums over the heads,
  so one 9-tap col2im remains.
The GEMMs run over row blocks of `_BLOCK` activation floats, so a block
stays in cache from conv1 to the projection and back: over the whole
activation at once (25 MB for `small`) they were bound by memory
traffic, not arithmetic. The transposed convs (only when
d_head < patch) run per head on a NCHW view of that head's channels;
they scatter their 16 kernel taps onto a strided output buffer.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Floats of conv1 activation per row block (128 KB in f32, 256 KB in f64),
# small enough that a block's activation and gradient stay in a core's L2
# cache. In f32 too 1 << 15 measured best: 31 ms against 33-39 ms for
# 1 << 14, 1 << 16 and 1 << 17 over a 3-head `small` forward + backward.
_BLOCK = 1 << 15


def init_head(n_in: int, d_head: int, patch: int, width: int,
              rng: np.random.Generator, dtype=np.float64) -> dict[str, np.ndarray]:
    """Parameter dict for one head. Requires patch = d_head * 2**m."""
    ups = 0
    side = d_head
    while side < patch:
        side *= 2
        ups += 1
    if side != patch:
        raise ValueError(f"patch {patch} not reachable from d_head {d_head} by doubling")
    def conv_w(shape):
        fan_in = shape[1] * shape[2] * shape[3] if len(shape) == 4 else shape[0]
        return (rng.uniform(-1, 1, size=shape) / np.sqrt(fan_in)).astype(dtype)
    p = {
        "conv1_W": conv_w((width, n_in, 3, 3)),
        "conv1_b": np.zeros(width, dtype),
        "proj_W": conv_w((width, 2)),
        "proj_b": np.zeros(2, dtype),
    }
    for j in range(ups):
        p[f"up{j}_W"] = conv_w((width, width, 4, 4))
        p[f"up{j}_b"] = np.zeros(width, dtype)
    return p


def n_upsamples(head: dict) -> int:
    return sum(1 for k in head if k.startswith("up") and k.endswith("_W"))


def _geometry(heads: dict) -> tuple[int, int]:
    """(width, n_upsamples) shared by every head; ValueError if they differ."""
    shapes = [{k: v.shape for k, v in head.items()} for head in heads.values()]
    if not shapes:
        raise ValueError("no heads")
    if any(s != shapes[0] for s in shapes[1:]):
        raise ValueError("heads differ in geometry; one pass needs equal shapes")
    return shapes[0]["conv1_W"][0], n_upsamples(next(iter(heads.values())))


def _convT_fwd(x, W, b):
    """4x4 stride-2 pad-1 transposed conv: (B,C,H,W) -> (B,F,2H,2W)."""
    Bn, C, H, Wd = x.shape
    F = W.shape[1]
    # every tap at once: (B, H, W, F, 4, 4)
    taps = np.tensordot(x.transpose(0, 2, 3, 1), W, axes=([3], [0]))
    buf = np.zeros((Bn, F, 2 * H + 2, 2 * Wd + 2), dtype=x.dtype)
    for p in range(4):
        for q in range(4):
            buf[:, :, p:p + 2 * H:2, q:q + 2 * Wd:2] += \
                taps[:, :, :, :, p, q].transpose(0, 3, 1, 2)
    return buf[:, :, 1:2 * H + 1, 1:2 * Wd + 1] + b[None, :, None, None]


def _convT_bwd(x, W, dout):
    Bn, C, H, Wd = x.shape
    F = W.shape[1]
    dbuf = np.zeros((Bn, F, 2 * H + 2, 2 * Wd + 2), dtype=x.dtype)
    dbuf[:, :, 1:2 * H + 1, 1:2 * Wd + 1] = dout
    dtaps = np.empty((Bn, H, Wd, F, 4, 4), dtype=x.dtype)
    for p in range(4):
        for q in range(4):
            dtaps[:, :, :, :, p, q] = \
                dbuf[:, :, p:p + 2 * H:2, q:q + 2 * Wd:2].transpose(0, 2, 3, 1)
    x_flat = x.transpose(0, 2, 3, 1).reshape(-1, C)
    dt_flat = dtaps.reshape(-1, F * 16)
    dW = (x_flat.T @ dt_flat).reshape(C, F, 4, 4)
    dx = (dt_flat @ W.reshape(C, F * 16).T).reshape(Bn, H, Wd, C).transpose(0, 3, 1, 2)
    db = dout.sum((0, 2, 3))
    return dx, dW, db


def _block_diag(mats: list[np.ndarray]) -> np.ndarray:
    """The (k, n) blocks of `mats` on the diagonal of one zero matrix."""
    k, n = mats[0].shape
    out = np.zeros((len(mats) * k, len(mats) * n), mats[0].dtype)
    for t, m in enumerate(mats):
        out[t * k:(t + 1) * k, t * n:(t + 1) * n] = m
    return out


def _stacked(heads: dict, C: int, F: int):
    """conv1 filters (nh*F, C*9), conv1 bias (nh*F,) and the block-diagonal
    projection (nh*F, nh*2) of every head, heads side by side."""
    W1 = np.concatenate([hd["conv1_W"].reshape(F, C * 9) for hd in heads.values()])
    b1 = np.concatenate([hd["conv1_b"] for hd in heads.values()])
    return W1, b1, _block_diag([hd["proj_W"] for hd in heads.values()])


def head_forward(heads: dict, x: np.ndarray, want_cache: bool = False):
    """heads: task -> params; x: (B, n_in, d_head, d_head).

    Returns {task: prediction (B, 2, P, P)}, and the cache if asked.
    """
    F, ups = _geometry(heads)
    Bn, C, H, Wd = x.shape
    nh, N = len(heads), Bn * H * Wd
    W1, b1, Wp = _stacked(heads, C, F)
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = sliding_window_view(xp, (3, 3), axis=(1, 2)).reshape(N, C * 9)
    side = H << ups
    h = np.empty((N, nh * F), x.dtype)
    out = np.empty((Bn * side * side, nh * 2), x.dtype)
    rows = max(1, _BLOCK // (nh * F))
    for r in range(0, N, rows):
        hb = np.matmul(cols[r:r + rows], W1.T, out=h[r:r + rows])
        hb += b1
        np.maximum(hb, 0.0, out=hb)
        if not ups:
            np.matmul(hb, Wp, out=out[r:r + rows])
    cache = {"x_shape": x.shape, "cols": cols, "h": h}
    if ups:
        feat = np.empty((len(out), nh * F), x.dtype)
        feat_px = feat.reshape(Bn, side, side, nh, F)
        for t, hd in enumerate(heads.values()):
            acts = [h[:, t * F:(t + 1) * F].reshape(Bn, H, Wd, F).transpose(0, 3, 1, 2)]
            for j in range(ups):
                f = _convT_fwd(acts[-1], hd[f"up{j}_W"], hd[f"up{j}_b"])
                acts.append(np.maximum(f, 0.0, out=f))
            cache[f"acts{t}"] = acts
            feat_px[:, :, :, t] = acts[-1].transpose(0, 2, 3, 1)
        cache["feat"] = feat
        np.matmul(feat, Wp, out=out)
    out += np.concatenate([hd["proj_b"] for hd in heads.values()])
    out = out.reshape(Bn, side, side, nh, 2).transpose(3, 0, 4, 1, 2)
    preds = dict(zip(heads, out))
    if want_cache:
        return preds, cache
    return preds


def head_backward(heads: dict, cache: dict, douts: dict):
    """douts: task -> d(loss)/d(prediction), (B, 2, P, P).

    Returns ({task: grads dict}, dx), dx summed over every head.
    """
    F, ups = _geometry(heads)
    Bn, C, H, Wd = cache["x_shape"]
    nh, N = len(heads), Bn * H * Wd
    h, cols = cache["h"], cache["cols"]
    W1, _, Wp = _stacked(heads, C, F)
    side = H << ups
    dout = np.empty((Bn * side * side, nh * 2), h.dtype)
    for t, task in enumerate(heads):
        dout.reshape(Bn, side, side, nh, 2)[:, :, :, t] = douts[task].transpose(0, 2, 3, 1)
    grads = {task: {} for task in heads}
    if ups:
        dWp = cache["feat"].T @ dout
        dfeat = dout @ Wp.T
        dh = np.empty_like(h)
        for t, (task, hd) in enumerate(heads.items()):
            acts = cache[f"acts{t}"]
            d = dfeat[:, t * F:(t + 1) * F].reshape(Bn, side, side, F).transpose(0, 3, 1, 2)
            for j in reversed(range(ups)):
                d, grads[task][f"up{j}_W"], grads[task][f"up{j}_b"] = \
                    _convT_bwd(acts[j], hd[f"up{j}_W"], d * (acts[j + 1] > 0))
            dh.reshape(Bn, H, Wd, nh, F)[:, :, :, t] = d.transpose(0, 2, 3, 1)
    else:
        dWp = np.zeros_like(Wp)
    dW1 = np.zeros_like(W1)
    db1 = np.zeros(nh * F, h.dtype)
    dcols = np.empty_like(cols)
    rows = max(1, _BLOCK // (nh * F))
    for r in range(0, N, rows):
        hb = h[r:r + rows]
        if ups:
            dhb = dh[r:r + rows]
        else:
            dWp += hb.T @ dout[r:r + rows]
            dhb = dout[r:r + rows] @ Wp.T
        dhb *= hb > 0
        dW1 += dhb.T @ cols[r:r + rows]
        db1 += dhb.sum(0)
        np.matmul(dhb, W1, out=dcols[r:r + rows])
    for t, task in enumerate(heads):
        g = grads[task]
        g["proj_W"] = dWp[t * F:(t + 1) * F, 2 * t:2 * t + 2]
        g["proj_b"] = douts[task].sum((0, 2, 3))
        g["conv1_W"] = dW1[t * F:(t + 1) * F].reshape(F, C, 3, 3)
        g["conv1_b"] = db1[t * F:(t + 1) * F]
    dcols = dcols.reshape(Bn, H, Wd, C, 3, 3)
    dxp = np.zeros((Bn, H + 2, Wd + 2, C), dtype=h.dtype)
    for p in range(3):
        for q in range(3):
            dxp[:, p:p + H, q:q + Wd] += dcols[..., p, q]
    return grads, dxp[:, 1:-1, 1:-1].transpose(0, 3, 1, 2)
