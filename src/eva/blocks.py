"""Token-mixing (TM) and channel-mixing (CM) sublayers and their block.

Each block applies, with pre-norm residual wiring,

    h   = x + TM(LN1(x))
    out = h + CM(LN2(h))

TM interpolates consecutive inputs with a data-dependent mix (ddlerp),
projects to r/k/v/g and a per-channel decay w = exp(-exp(d)), runs the
decayed outer-product recurrence over heads, then gates the per-head
normalized read-out with SiLU(g) before the output projection. CM is the
squared-ReLU feed-forward with a sigmoid gate.

This module holds the chunked-parallel form used for training and offline
encoding, and the per-stream `BlockState`. Each forward function returns
its outputs and a cache slot for the hand-derived backward pass, None
unless asked for with `want_cache`; the scan underneath runs in outer
chunks of `scan.DEFAULT_CHUNK` tokens. `mix_fwd`/`mix_bwd` (ddlerp, LoRA
paths, decay) are shared with the matrix-state layer `mvhs`, and the
per-head norm is `ln_fwd`/`ln_bwd` with unit gain and zero bias. The
event-by-event form of the block is `runtime._BlockRt`; the two agree up
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scan
from .config import EncoderConfig
from .params import LN_EPS, BlockParams


def matrix_state_zeros(n_heads: int, d_head: int, dtype) -> np.ndarray:
    """Zero matrix states (N, Dh, Dh), stored heads-innermost: a view of
    (Dh, Dh, N) memory, the order `runtime` steps in (see there)."""
    return np.zeros((d_head, d_head, n_heads), dtype).transpose(2, 0, 1)


@dataclass
class BlockState:
    """Recurrent state of one block for one stream. `zeros` stores S
    heads-innermost and `copy` keeps whatever memory order S has."""

    S: np.ndarray        # (N, Dh, Dh)
    tm_prev: np.ndarray  # (D,) last normalized TM input
    cm_prev: np.ndarray  # (D,) last normalized CM input

    @classmethod
    def zeros(cls, cfg: EncoderConfig, dtype=None) -> "BlockState":
        dtype = dtype or cfg.dtype
        return cls(
            S=matrix_state_zeros(cfg.n_heads, cfg.d_head, dtype),
            tm_prev=np.zeros(cfg.d_model, dtype),
            cm_prev=np.zeros(cfg.d_model, dtype),
        )

    def copy(self) -> "BlockState":
        return BlockState(self.S.copy(order="K"), self.tm_prev.copy(), self.cm_prev.copy())


# ---------------------------------------------------------------------------
# Primitive ops (forward + hand-derived backward)
# ---------------------------------------------------------------------------

def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def silu(x):
    return x * sigmoid(x)


def ln_fwd(x, g, b, eps=LN_EPS):
    mean = x.mean(-1, keepdims=True)
    xc = x - mean
    inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + eps)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv, g)


def ln_bwd(cache, dy):
    xhat, inv, g = cache
    D = dy.shape[-1]
    dg = (dy * xhat).reshape(-1, D).sum(0)
    db = dy.reshape(-1, D).sum(0)
    dxh = dy * g
    dx = inv * (dxh - dxh.mean(-1, keepdims=True)
                - xhat * (dxh * xhat).mean(-1, keepdims=True))
    return dx, dg, db


def _shift(a, carry):
    """Previous-token sequence: [carry, a_0, ..., a_{T-2}]."""
    return np.concatenate([carry[:, None], a[:, :-1]], axis=1)


def _outer_grad(x, dy):
    """sum over leading dims of x[..., i] dy[..., j] -> (Din, Dout) GEMM."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


# ---------------------------------------------------------------------------
# Token-shift front end, shared by TM and the matrix-state layer
# ---------------------------------------------------------------------------

# Cap on the decay pre-activation d. exp(d) overflows to inf above d ~ 709,
# and the chunked scan's cw - lw then gives NaN where stepping gives w = 0.
# log(60) keeps lw = -exp(d) >= -60, a chunk's cumulative sum of lw stays
# accurate in f32, and w = exp(-60) is already a full reset.
_D_CAP = float(np.log(60.0))


def mix_fwd(a, carry, p, paths):
    """a: (B, T, D); carry: (B, D), the input before a[:, 0]; p: BlockParams
    or MvhsParams. With delta = a_prev - a and m = a + delta * mu, each path
    projects (a + delta * (lam + tanh(m A) B)) @ W, and the decay is
    lw = -exp(min(d, _D_CAP)), d = lam_d + tanh(m A_w) B_w.
    Returns ({path: projection}, lw, cache)."""
    delta = _shift(a, carry) - a
    m = a + delta * p.mu
    proj, path_cache = {}, {}
    for name in paths:
        q = np.tanh(m @ getattr(p, f"A_{name}"))
        gmix = getattr(p, f"lam_{name}") + q @ getattr(p, f"B_{name}")
        mixed = a + delta * gmix
        proj[name] = mixed @ getattr(p, f"W_{name}")
        path_cache[name] = (q, gmix, mixed)

    q_d = np.tanh(m @ p.A_w)
    d = p.lam_d + q_d @ p.B_w
    lw = -np.exp(np.minimum(d, _D_CAP))
    cache = {"a": a, "delta": delta, "m": m, "paths": path_cache, "q_d": q_d,
             "lw": lw, "capped": d > _D_CAP, "p": p}
    return proj, lw, cache


def mix_bwd(cache, dprojs, dlw):
    """Adjoint of mix_fwd. Returns (da, d_carry, grads by parameter name)."""
    p = cache["p"]
    a, delta, m = cache["a"], cache["delta"], cache["m"]
    grads = {}

    # decay path: lw = -exp(d), d = lam_d + tanh(m A_w) B_w; capped d is constant
    dd = np.where(cache["capped"], 0.0, dlw * cache["lw"])
    grads["lam_d"] = dd.sum((0, 1))
    q_d = cache["q_d"]
    grads["B_w"] = _outer_grad(q_d, dd)
    dz_d = (dd @ p.B_w.T) * (1.0 - q_d * q_d)
    grads["A_w"] = _outer_grad(m, dz_d)
    dm = dz_d @ p.A_w.T

    da = np.zeros_like(a)
    ddelta = np.zeros_like(a)
    for name, dproj in dprojs.items():
        q, gmix, mixed = cache["paths"][name]
        grads[f"W_{name}"] = _outer_grad(mixed, dproj)
        dmixed = dproj @ getattr(p, f"W_{name}").T
        da += dmixed
        ddelta += dmixed * gmix
        dgmix = dmixed * delta
        grads[f"lam_{name}"] = dgmix.sum((0, 1))
        grads[f"B_{name}"] = _outer_grad(q, dgmix)
        dz = (dgmix @ getattr(p, f"B_{name}").T) * (1.0 - q * q)
        grads[f"A_{name}"] = _outer_grad(m, dz)
        dm += dz @ getattr(p, f"A_{name}").T

    # m = a + delta * mu
    da += dm
    ddelta += dm * p.mu
    grads["mu"] = (dm * delta).sum((0, 1))

    # delta = a_prev - a; a_prev = shift(a, carry)
    da -= ddelta
    da[:, :-1] += ddelta[:, 1:]
    d_carry = ddelta[:, 0].copy()
    return da, d_carry, grads


# ---------------------------------------------------------------------------
# TM sublayer, sequence form
# ---------------------------------------------------------------------------

_TM_PATHS = ("r", "k", "v", "g")


def tm_sublayer_fwd(a, carry, S0, bp: BlockParams, n_heads: int, want_cache: bool = False):
    """a: (B, T, D) normalized inputs; carry: (B, D); S0: (B, N, Dh, Dh).

    Returns (o, S_final, new_carry, cache), cache None unless want_cache.
    """
    B, T, D = a.shape
    Dh = D // n_heads
    proj, lw, mix_cache = mix_fwd(a, carry, bp, _TM_PATHS)
    r, k, v, lw_h = (z.reshape(B, T, n_heads, Dh)
                     for z in (proj["r"], proj["k"], proj["v"], lw))
    u_h = bp.u.reshape(n_heads, Dh)
    y, S_fin, scan_cache = scan.decay_scan_forward(r, k, v, lw_h, u_h, S0, want_cache)

    # per-head norm: the layer norm with unit gain and zero bias
    yn, norm_cache = ln_fwd(y, 1.0, 0.0)
    g = proj["g"]
    sg = silu(g)
    o_pre = sg * yn.reshape(B, T, D)
    o = o_pre @ bp.W_o
    cache = ({"mix": mix_cache, "scan": scan_cache, "head_norm": norm_cache, "g": g,
              "sg": sg, "o_pre": o_pre, "bp": bp, "n_heads": n_heads}
             if want_cache else None)
    return o, S_fin, a[:, -1].copy(), cache


def tm_sublayer_bwd(cache, do):
    """Returns (da, d_carry, grads dict keyed by BlockParams field name)."""
    bp: BlockParams = cache["bp"]
    B, T, D = do.shape
    n_heads = cache["n_heads"]
    Dh = D // n_heads
    grads = {}

    # output projection and gate
    grads["W_o"] = _outer_grad(cache["o_pre"], do)
    d_opre = do @ bp.W_o.T
    # yn = xhat * 1 + 0 equals the head norm's cached xhat
    dsg = d_opre * cache["head_norm"][0].reshape(B, T, D)
    dyn = (d_opre * cache["sg"]).reshape(B, T, n_heads, Dh)
    sig_g = sigmoid(cache["g"])
    dg_proj = dsg * (sig_g * (1.0 + cache["g"] * (1.0 - sig_g)))

    dy, _, _ = ln_bwd(cache["head_norm"], dyn)
    dr, dk, dv, dlw, du, _ = scan.decay_scan_backward(cache["scan"], dy)
    grads["u"] = du.reshape(D)

    dproj = {"r": dr.reshape(B, T, D), "k": dk.reshape(B, T, D),
             "v": dv.reshape(B, T, D), "g": dg_proj}
    da, d_carry, mix_grads = mix_bwd(cache["mix"], dproj, dlw.reshape(B, T, D))
    grads.update(mix_grads)
    return da, d_carry, grads


# ---------------------------------------------------------------------------
# CM sublayer, sequence form
# ---------------------------------------------------------------------------

def cm_sublayer_fwd(b, carry, bp: BlockParams, want_cache: bool = False):
    """b: (B, T, D) normalized inputs; carry: (B, D). Returns (o, new_carry,
    cache), cache None unless want_cache."""
    b_prev = _shift(b, carry)
    delta = b_prev - b
    mr = b + delta * bp.mu_cr
    mk = b + delta * bp.mu_ck
    rr = mr @ bp.W_cr
    sig = sigmoid(rr)
    kk = mk @ bp.W_ck
    kr = np.maximum(kk, 0.0)
    relu2 = kr * kr
    vv = relu2 @ bp.W_cv
    cache = ({"delta": delta, "mr": mr, "mk": mk, "sig": sig, "kr": kr,
              "relu2": relu2, "vv": vv, "bp": bp} if want_cache else None)
    return sig * vv, b[:, -1].copy(), cache


def cm_sublayer_bwd(cache, do):
    bp: BlockParams = cache["bp"]
    delta, sig, vv = cache["delta"], cache["sig"], cache["vv"]
    grads = {}
    dsig = do * vv
    dvv = do * sig
    drr = dsig * sig * (1.0 - sig)
    grads["W_cr"] = _outer_grad(cache["mr"], drr)
    dmr = drr @ bp.W_cr.T
    grads["W_cv"] = _outer_grad(cache["relu2"], dvv)
    drelu2 = dvv @ bp.W_cv.T
    dkk = drelu2 * 2.0 * cache["kr"]
    grads["W_ck"] = _outer_grad(cache["mk"], dkk)
    dmk = dkk @ bp.W_ck.T

    db = dmr + dmk
    ddelta = dmr * bp.mu_cr + dmk * bp.mu_ck
    grads["mu_cr"] = (dmr * delta).sum((0, 1))
    grads["mu_ck"] = (dmk * delta).sum((0, 1))
    grads["mu_cv"] = np.zeros_like(bp.mu_cv)

    db -= ddelta
    db[:, :-1] += ddelta[:, 1:]
    d_carry = ddelta[:, 0].copy()
    return db, d_carry, grads


# ---------------------------------------------------------------------------
# Whole block, sequence form
# ---------------------------------------------------------------------------

def block_seq_fwd(x, S0, tm_prev, cm_prev, bp: BlockParams, n_heads: int,
                  want_cache: bool = False):
    """x: (B, T, D). Returns (out, (S_fin, tm_carry, cm_carry), cache),
    cache None unless want_cache."""
    a, ln1_cache = ln_fwd(x, bp.ln1_g, bp.ln1_b)
    o_tm, S_fin, tm_carry, tm_cache = tm_sublayer_fwd(a, tm_prev, S0, bp, n_heads, want_cache)
    h = x + o_tm
    b, ln2_cache = ln_fwd(h, bp.ln2_g, bp.ln2_b)
    o_cm, cm_carry, cm_cache = cm_sublayer_fwd(b, cm_prev, bp, want_cache)
    cache = ({"ln1": ln1_cache, "tm": tm_cache, "ln2": ln2_cache, "cm": cm_cache}
             if want_cache else None)
    return h + o_cm, (S_fin, tm_carry, cm_carry), cache


def block_seq_bwd(cache, dout):
    """Returns (dx, grads dict keyed by BlockParams field name)."""
    db, _, cm_grads = cm_sublayer_bwd(cache["cm"], dout)
    dh, dln2_g, dln2_b = ln_bwd(cache["ln2"], db)
    dh += dout
    da, _, tm_grads = tm_sublayer_bwd(cache["tm"], dh)
    dx, dln1_g, dln1_b = ln_bwd(cache["ln1"], da)
    dx += dh
    grads = {**tm_grads, **cm_grads,
             "ln1_g": dln1_g, "ln1_b": dln1_b, "ln2_g": dln2_g, "ln2_b": dln2_b}
    return dx, grads
