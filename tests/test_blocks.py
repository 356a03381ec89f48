import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eva import blocks as B
from eva import scan
from eva.config import EncoderConfig
from eva.encoder import EncoderState, encode_sequence, encode_sequence_recurrent
from eva.params import LN_EPS, MvhsParams, init_block_params, init_encoder_params
from eva.runtime import _BlockRt
from helpers import outer_chunk, randomize_params

# an unmasked exp overflow in the scan must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CFG = EncoderConfig(d_model=12, n_blocks=1, n_heads=2, d_ffn=20, d_lora=4,
                    d_w=4, mvhs_heads=2, mvhs_d_head=6, n_out=2, patch=4,
                    precision="f64")


def random_block(seed, cfg=CFG):
    rng = np.random.default_rng(seed)
    bp = init_block_params(cfg, rng)
    # exercise data-dependent paths: structured init zeroes the A matrices
    for name in ("A_r", "A_k", "A_v", "A_g", "A_w"):
        arr = getattr(bp, name)
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    bp.u[...] = rng.uniform(-0.5, 0.5, size=bp.u.shape)
    return bp


# ---------------------------------------------------------------------------
# The token-shift front end (`mix_fwd`) on one token: the LoRA mix
# lam + tanh(m A) B and the data-dependent lerp x + (x_prev - x) * mix
# ---------------------------------------------------------------------------

def mix_one(x, x_prev, mu, lam, A, Bm):
    """mix_fwd at T=1 on one path with an identity projection.

    Returns (lerp output, LoRA mix), both (D,)."""
    D = x.shape[0]
    p = MvhsParams(mu=mu, lam_k=lam, lam_v=None, A_k=A, A_v=None, B_k=Bm, B_v=None,
                   lam_d=np.zeros(D), A_w=np.zeros((D, 1)), B_w=np.zeros((1, D)),
                   W_k=np.eye(D), W_v=None)
    proj, _, cache = B.mix_fwd(x[None, None], x_prev[None], p, ("k",))
    return proj["k"][0, 0], cache["paths"]["k"][1][0, 0]


def test_lora_zero_input_returns_bias():
    rng = np.random.default_rng(0)
    lam, A, Bm = rng.normal(size=6), rng.normal(size=(6, 3)), rng.normal(size=(3, 6))
    zero = np.zeros(6)
    assert np.allclose(mix_one(zero, zero, rng.normal(size=6), lam, A, Bm)[1], lam)
    x, xp = rng.normal(size=6), rng.normal(size=6)
    assert np.allclose(mix_one(x, xp, rng.normal(size=6), lam, np.zeros((6, 3)), Bm)[1],
                       lam)


def test_lora_scalar_oracle():
    rng = np.random.default_rng(1)
    x, xp, lam = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    A, Bm = rng.normal(size=(4, 2)), rng.normal(size=(2, 4))
    _, got = mix_one(x, xp, np.zeros(4), lam, A, Bm)  # mu = 0: m = x
    for i in range(4):
        want = lam[i] + sum(np.tanh(sum(x[d] * A[d, l] for d in range(4))) * Bm[l, i]
                            for l in range(2))
        assert got[i] == pytest.approx(want, rel=1e-12)


def test_ddlerp_identical_inputs_is_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=5)
    out, _ = mix_one(x, x.copy(), rng.normal(size=5), rng.normal(size=5),
                     rng.normal(size=(5, 3)), rng.normal(size=(3, 5)))
    assert np.allclose(out, x)


def test_ddlerp_full_shift():
    rng = np.random.default_rng(3)
    x, xp = rng.normal(size=5), rng.normal(size=5)
    out, _ = mix_one(x, xp, np.zeros(5), np.ones(5), np.zeros((5, 3)), np.zeros((3, 5)))
    assert np.allclose(out, xp)


def test_ddlerp_scalar_oracle():
    rng = np.random.default_rng(4)
    x, xp, mu, lam = (rng.normal(size=3) for _ in range(4))
    A, Bm = rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
    got, _ = mix_one(x, xp, mu, lam, A, Bm)
    m = x + (xp - x) * mu
    g = lam + np.tanh(m @ A) @ Bm
    assert np.allclose(got, x + (xp - x) * g)


# ---------------------------------------------------------------------------
# One block step: the event-by-event `_BlockRt.step` and the chunked
# sublayers at T=1, against the formulas
# ---------------------------------------------------------------------------

def tm_one(bp, x, x_prev, S0=None):
    """tm_sublayer_fwd on a single token: (o (D,), S' (N, Dh, Dh), cache)."""
    if S0 is None:
        S0 = np.zeros((2, 6, 6))
    o, S_f, _, cache = B.tm_sublayer_fwd(x[None, None], x_prev[None], S0[None],
                                         bp, 2, want_cache=True)
    return o[0, 0], S_f[0], cache


def cm_one(x, x_prev, bp):
    o, _, _ = B.cm_sublayer_fwd(x[None, None], x_prev[None], bp)
    return o[0, 0]


def as_row(state):
    """A batch of one viewing a single stream's BlockState: stepping it
    updates `state` in place."""
    return B.BlockState(state.S[None], state.tm_prev[None], state.cm_prev[None])


def rt_one(bp, x, S=None, tm_prev=None, cm_prev=None):
    """_BlockRt.step on one token, as a batch of one: (out, state after)."""
    state = EncoderState.zeros(CFG).blocks[0]
    for name, val in (("S", S), ("tm_prev", tm_prev), ("cm_prev", cm_prev)):
        if val is not None:
            setattr(state, name, val.copy())
    return _BlockRt(bp, CFG.n_heads).step(x[None].copy(), as_row(state))[0], state


def block_step_oracle(x, S, tm_prev, cm_prev, bp, n_heads=2):
    """One token through one block, written out from the formulas.

    Returns (out, S', tm_prev', cm_prev')."""
    def ln(z, g, b):
        return (z - z.mean()) / np.sqrt(z.var() + 1e-5) * g + b

    D = x.shape[0]
    Dh = D // n_heads
    a = ln(x, bp.ln1_g, bp.ln1_b)
    m = a + (tm_prev - a) * bp.mu
    proj = {}
    for name in ("r", "k", "v", "g"):
        gmix = getattr(bp, f"lam_{name}") + np.tanh(m @ getattr(bp, f"A_{name}")) \
            @ getattr(bp, f"B_{name}")
        proj[name] = (a + (tm_prev - a) * gmix) @ getattr(bp, f"W_{name}")
    w = np.exp(-np.exp(bp.lam_d + np.tanh(m @ bp.A_w) @ bp.B_w))
    yn = np.zeros(D)
    S_new = np.zeros_like(S)
    for h in range(n_heads):
        sl = slice(h * Dh, (h + 1) * Dh)
        r, k, v = proj["r"][sl], proj["k"][sl], proj["v"][sl]
        y = (S[h] + np.outer(bp.u[sl] * k, v)) @ r
        yn[sl] = (y - y.mean()) / np.sqrt(y.var() + 1e-5)
        S_new[h] = w[sl][:, None] * S[h] + np.outer(k, v)
    g = proj["g"]
    hid = x + (g / (1 + np.exp(-g)) * yn) @ bp.W_o
    b = ln(hid, bp.ln2_g, bp.ln2_b)
    rr = (b + (cm_prev - b) * bp.mu_cr) @ bp.W_cr
    kk = np.maximum((b + (cm_prev - b) * bp.mu_ck) @ bp.W_ck, 0.0)
    out = hid + (1 / (1 + np.exp(-rr))) * ((kk * kk) @ bp.W_cv)
    return out, S_new, a, b


def test_tm_project_decay_in_unit_interval():
    bp = random_block(5)
    rng = np.random.default_rng(6)
    for _ in range(20):
        *_, cache = tm_one(bp, rng.normal(size=12), rng.normal(size=12))
        w = np.exp(cache["mix"]["lw"])
        assert np.all(w > 0.0) and np.all(w < 1.0)


def test_tm_project_decay_endpoints():
    bp = random_block(7)
    x, xp = np.zeros(12), np.zeros(12)
    bp.A_w[...] = 0.0
    bp.lam_d[...] = -40.0  # d -> -inf limit: w -> 1
    *_, cache = tm_one(bp, x, xp)
    assert np.allclose(np.exp(cache["mix"]["lw"]), 1.0)
    bp.lam_d[...] = 10.0  # large d: w -> 0
    *_, cache = tm_one(bp, x, xp)
    assert np.allclose(np.exp(cache["mix"]["lw"]), 0.0)


def test_tm_project_matches_formula_trace():
    # the whole block step from a non-zero state, both evaluation modes
    bp = random_block(8)
    rng = np.random.default_rng(9)
    x, tm_prev, cm_prev = (rng.normal(size=12) for _ in range(3))
    S = rng.normal(size=(2, 6, 6))
    want = block_step_oracle(x, S, tm_prev, cm_prev, bp)
    out, st = rt_one(bp, x, S, tm_prev, cm_prev)
    seq, (S_f, tm_c, cm_c), _ = B.block_seq_fwd(x[None, None], S[None], tm_prev[None],
                                                cm_prev[None], bp, CFG.n_heads)
    for got in ((out, st.S, st.tm_prev, st.cm_prev), (seq[0, 0], S_f[0], tm_c[0], cm_c[0])):
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-12)
    # a batch of three streams in one step: each row follows its own formula
    xs, tms, cms = (rng.normal(size=(3, 12)) for _ in range(3))
    Ss = rng.normal(size=(3, 2, 6, 6))
    batch = B.BlockState(Ss.copy(), tms.copy(), cms.copy())
    outs = _BlockRt(bp, CFG.n_heads).step(xs, batch)
    for i in range(3):
        want = block_step_oracle(xs[i], Ss[i], tms[i], cms[i], bp)
        got = (outs[i], batch.S[i], batch.tm_prev[i], batch.cm_prev[i])
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-12)


# ---------------------------------------------------------------------------
# The decayed outer-product scan (`scan.decay_scan_forward`) against a
# stepping loop written in the test
# ---------------------------------------------------------------------------

def step_ref(S, r, k, v, w, u):
    """One recurrence step per head on S: (N, Dh, Dh).

    y = (S + diag(u) k v^T) r; S' = diag(w) S + k v^T. Returns (y (D,), S')."""
    N, Dh, _ = S.shape
    rh, kh, vh, wh, uh = (z.reshape(N, Dh) for z in (r, k, v, w, u))
    kv = kh[:, :, None] * vh[:, None, :]
    y = np.einsum("nab,nb->na", S + uh[:, :, None] * kv, rh)
    return y.reshape(-1), wh[:, :, None] * S + kv


def scan_seq(r, k, v, lw, u, S0):
    """decay_scan_forward on (T, D) rows split into S0.shape[0] heads."""
    T, D = r.shape
    N, Dh, _ = S0.shape
    shape = (1, T, N, Dh)
    y, S_fin, _ = scan.decay_scan_forward(
        r.reshape(shape), k.reshape(shape), v.reshape(shape), lw.reshape(shape),
        u.reshape(N, Dh), S0[None])
    return y.reshape(T, D), S_fin[0]


def test_tm_step_first_token_unit_vectors():
    # 2-dim single head, S = 0, u = 1, k = v = r = e1, w = 1
    e1 = np.array([[1.0, 0.0]])
    y, S2 = scan_seq(e1, e1, e1, np.zeros((1, 2)), np.ones(2), np.zeros((1, 2, 2)))
    assert np.allclose(y[0], e1[0])
    assert np.allclose(S2[0], np.outer(e1, e1))


def test_tm_step_zero_decay_resets():
    # w = 0 (large decay bias): the step's new state forgets the old one
    bp = random_block(10)
    bp.A_w[...] = 0.0
    bp.lam_d[...] = 10.0
    rng = np.random.default_rng(10)
    x, tm_prev = rng.normal(size=12), rng.normal(size=12)
    _, from_random = rt_one(bp, x, rng.normal(size=(2, 6, 6)), tm_prev)
    _, from_zero = rt_one(bp, x, None, tm_prev)
    assert np.array_equal(from_random.S, from_zero.S)
    assert np.any(from_zero.S != 0.0)


def brute_force_readout(r, k, v, w, u):
    """Direct prefix-sum evaluation of the read-out with the bonus term."""
    T, D = r.shape
    ys = np.zeros((T, D))
    for i in range(T):
        S = np.zeros((D, D))
        for t in range(i):
            prod = np.ones(D)
            for j in range(t + 1, i):
                prod = prod * w[j]
            S += prod[:, None] * np.outer(k[t], v[t])
        S += u[:, None] * np.outer(k[i], v[i])
        ys[i] = S @ r[i]
    return ys


def test_tm_step_sequence_matches_prefix_sum_form():
    rng = np.random.default_rng(11)
    T, D = 64, 6
    r, k, v = (rng.normal(size=(T, D)) for _ in range(3))
    w = rng.uniform(0.05, 0.99, size=(T, D))
    u = rng.normal(size=D)
    want = brute_force_readout(r, k, v, w, u)
    for chunk in (64, 16):
        with outer_chunk(chunk):
            got, _ = scan_seq(r, k, v, np.log(w), u, np.zeros((1, D, D)))
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


def test_tm_parallel_length_one_equals_step():
    rng = np.random.default_rng(12)
    D, N = 8, 2
    r, k, v = (rng.normal(size=(1, D)) for _ in range(3))
    w = rng.uniform(0.1, 0.9, size=(1, D))
    u = rng.normal(size=D)
    S0 = rng.normal(size=(N, D // N, D // N))
    y_p, S_p = scan_seq(r, k, v, np.log(w), u, S0)
    y_s, S_s = step_ref(S0, r[0], k[0], v[0], w[0], u)
    assert np.allclose(y_p[0], y_s, rtol=1e-12)
    assert np.allclose(S_p, S_s, rtol=1e-12)


def test_tm_parallel_matches_recurrent_T256():
    rng = np.random.default_rng(13)
    T, D, N = 256, 32, 4
    r, k, v = (rng.normal(size=(T, D)) for _ in range(3))
    lw = -np.exp(rng.normal(size=(T, D)))
    u = rng.normal(size=D)
    S0 = rng.normal(size=(N, D // N, D // N))
    y_p, S_p = scan_seq(r, k, v, lw, u, S0)
    S = S0.copy()
    y_r = np.zeros((T, D))
    for i in range(T):
        y_r[i], S = step_ref(S, r[i], k[i], v[i], np.exp(lw[i]), u)
    assert np.max(np.abs(y_p - y_r)) / np.max(np.abs(y_r)) <= 1e-10
    assert np.max(np.abs(S_p - S)) / np.max(np.abs(S)) <= 1e-10


def test_tm_parallel_unit_decay_is_prefix_sum():
    rng = np.random.default_rng(14)
    T, D = 40, 4
    k, v = rng.normal(size=(T, D)), rng.normal(size=(T, D))
    r = rng.normal(size=(T, D))
    _, S_fin = scan_seq(r, k, v, np.zeros((T, D)), np.zeros(D), np.zeros((1, D, D)))
    want = sum(np.outer(k[t], v[t]) for t in range(T))
    assert np.allclose(S_fin[0], want, rtol=1e-10)


@pytest.mark.parametrize("T", [1, scan._SUB - 1, scan._SUB + 1,
                               scan.DEFAULT_CHUNK + 1, 2 * scan.DEFAULT_CHUNK + 3])
def test_tm_parallel_sub_chunk_edges_match_recurrent(T):
    # lengths at the sub-chunk and outer-chunk edges, for several chunks
    rng = np.random.default_rng(T)
    D, N = 6, 2
    r, k, v = (rng.normal(size=(T, D)) for _ in range(3))
    lw = -np.exp(rng.normal(size=(T, D)))
    u = rng.normal(size=D)
    S0 = rng.normal(size=(N, D // N, D // N))
    S = S0.copy()
    y_r = np.zeros((T, D))
    for i in range(T):
        y_r[i], S = step_ref(S, r[i], k[i], v[i], np.exp(lw[i]), u)
    for chunk in (scan.DEFAULT_CHUNK, scan._SUB + 3, scan._SUB, 1):
        with outer_chunk(chunk):
            y_p, S_p = scan_seq(r, k, v, lw, u, S0)
        assert np.max(np.abs(y_p - y_r)) / np.max(np.abs(y_r)) <= 1e-12, chunk
        assert np.max(np.abs(S_p - S)) / np.max(np.abs(S)) <= 1e-12, chunk


def test_decay_scan_backward_matches_finite_differences():
    # outer chunks of 2 * _SUB + 3 tokens, each ending in a zero-padded
    # sub-chunk; the last outer chunk is shorter and ragged as well
    chunk = 2 * scan._SUB + 3
    T = 2 * chunk + scan._SUB + 2
    rng = np.random.default_rng(7)
    shape = (1, T, 2, 2)
    r, k, v = (rng.normal(size=shape) for _ in range(3))
    lw = -np.exp(rng.normal(size=shape))
    u, S0 = rng.normal(size=(2, 2)), rng.normal(size=(1, 2, 2, 2))
    dY, dS = rng.normal(size=shape), rng.normal(size=S0.shape)

    def loss():
        with outer_chunk(chunk):
            y, S_fin, _ = scan.decay_scan_forward(r, k, v, lw, u, S0)
        return float(np.sum(dY * y) + np.sum(dS * S_fin))

    with outer_chunk(chunk):
        _, _, cache = scan.decay_scan_forward(r, k, v, lw, u, S0, want_cache=True)
    grads = scan.decay_scan_backward(cache, dY, dS)
    eps = 1e-4
    worst = 0.0
    for arr, g in zip((r, k, v, lw, u, S0), grads):
        assert g.shape == arr.shape
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + eps
            lp = loss()
            arr[idx] = old - eps
            lm = loss()
            arr[idx] = old
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-3))
    assert worst <= 1e-6


def scan_case(seed, T, lw=None, dtype=np.float64):
    """Random decay-scan inputs, two sequences of two heads of 4, and
    random adjoints (dY, dS) of its outputs."""
    rng = np.random.default_rng(seed)
    shape = (2, T, 2, 4)
    r, k, v, dY = (rng.normal(size=shape) for _ in range(4))
    lw = -np.exp(rng.normal(size=shape)) if lw is None else np.full(shape, lw)
    u, S0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 2, 4, 4))
    dS = rng.normal(size=S0.shape)
    return [a.astype(dtype) for a in (r, k, v, lw, u, S0)], dY.astype(dtype), dS.astype(dtype)


@pytest.mark.parametrize("lw", [-60.0, -1e-7])
def test_decay_scan_backward_f32_at_decay_extremes_matches_f64(lw):
    # -60 is the decay cap (w = exp(-60), a full reset), -1e-7 gives w -> 1
    T = 2 * scan.DEFAULT_CHUNK + scan._SUB + 1
    grads = {}
    for dtype in (np.float32, np.float64):
        args, dY, dS = scan_case(21, T, lw, dtype)
        _, _, cache = scan.decay_scan_forward(*args, want_cache=True)
        grads[dtype] = scan.decay_scan_backward(cache, dY, dS)
    # at the cap the lw gradient is a cancellation of O(1) terms, so every
    # gradient is held to f32 rounding of the largest one
    scale = max(np.max(np.abs(g)) for g in grads[np.float64])
    for g32, g64 in zip(grads[np.float32], grads[np.float64]):
        assert g32.dtype == np.float32 and np.all(np.isfinite(g32))
        assert np.max(np.abs(g32 - g64)) <= 1e-5 * scale


@pytest.mark.parametrize("which", ["decay", "state"])
def test_decay_scan_backward_does_not_rerun_the_forward(monkeypatch, which):
    # the sub-chunk start states come from the forward's cache, so neither
    # backward evaluates a state contribution again
    T = scan.DEFAULT_CHUNK + 2 * scan._SUB + 1
    (r, k, v, lw, u, S0), dY, dS = scan_case(22, T)
    with outer_chunk(2 * scan._SUB + 3):
        if which == "decay":
            _, _, cache = scan.decay_scan_forward(r, k, v, lw, u, S0, want_cache=True)
        else:
            snaps, _, cache = scan.state_scan_forward(k, v, lw, S0, [5, T // 2, T],
                                                      want_cache=True)

    def rerun(*a, **kw):
        raise AssertionError(f"{which}_scan_backward called scan._state_out")
    monkeypatch.setattr(scan, "_state_out", rerun)
    if which == "decay":
        scan.decay_scan_backward(cache, dY, dS)
    else:
        scan.state_scan_backward(cache, np.ones_like(snaps), dS)


def test_state_scan_backward_matches_finite_differences():
    # outer chunks of 2 * _SUB + 3 tokens; checkpoints off the _SUB grid,
    # one of them a 1-token segment, and a ragged last chunk
    chunk = 2 * scan._SUB + 3
    T = 3 * chunk + scan._SUB + 2
    cps = [3, 4, chunk + 6, 2 * chunk + 1, T - 2]
    rng = np.random.default_rng(8)
    shape = (1, T, 2, 2)
    k, v = (rng.normal(size=shape) for _ in range(2))
    lw = -np.exp(rng.normal(size=shape))
    S0 = rng.normal(size=(1, 2, 2, 2))
    dSnaps, dS = rng.normal(size=(1, len(cps), 2, 2, 2)), rng.normal(size=S0.shape)

    def loss():
        with outer_chunk(chunk):
            snaps, S_fin, _ = scan.state_scan_forward(k, v, lw, S0, cps)
        return float(np.sum(dSnaps * snaps) + np.sum(dS * S_fin))

    with outer_chunk(chunk):
        _, _, cache = scan.state_scan_forward(k, v, lw, S0, cps, want_cache=True)
    grads = scan.state_scan_backward(cache, dSnaps, dS)
    eps = 1e-4
    worst = 0.0
    for arr, g in zip((k, v, lw, S0), grads):
        assert g.shape == arr.shape
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + eps
            lp = loss()
            arr[idx] = old - eps
            lm = loss()
            arr[idx] = old
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-3))
    assert worst <= 1e-6


@pytest.mark.parametrize("reset, n_reset", [(-60.0, 48), (-40.0, 32)])
def test_state_scan_f32_after_reset_then_slow_decay_matches_f64_stepping(reset, n_reset):
    # a run of strong decay followed by near-unit decay: no cumulative
    # log-decay may span the reset, or f32 cancels away the slow tail
    T, N, Dh = 64, 2, 8
    rng = np.random.default_rng(9)
    k, v = (rng.normal(size=(1, T, N, Dh)) for _ in range(2))
    S0 = rng.normal(size=(1, N, Dh, Dh))
    lw = np.full((1, T, N, Dh), -0.01)
    lw[:, :n_reset] = reset
    S = S0[0].copy()
    for t in range(T):
        S = np.exp(lw[0, t])[..., None] * S + k[0, t][..., None] * v[0, t][..., None, :]
    _, S32, _ = scan.state_scan_forward(*(a.astype(np.float32) for a in (k, v, lw, S0)), [T])
    assert S32.dtype == np.float32
    assert np.max(np.abs(S32[0] - S)) / np.max(np.abs(S)) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                  st.tuples(st.integers(1, 4), st.integers(1, scan._SUB), st.integers(1, 3)),
                  elements=st.floats(-2.0**100, 2.0**100, width=32)))
def test_sub_chunk_prefix_sums_equal_cumsum_bitwise(a):
    assert scan._sub_cumsum(a.copy()).tobytes() == np.cumsum(a, axis=1).tobytes()
    want = np.flip(np.cumsum(np.flip(a, 1), axis=1), 1)
    assert scan._sub_rev_cumsum(a.copy()).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# TM output stage and CM sublayer
# ---------------------------------------------------------------------------

def test_tm_output_zero_gate():
    bp = random_block(15)
    bp.W_g[...] = 0.0  # g = 0 -> SiLU(g) = 0
    rng = np.random.default_rng(16)
    o, _, _ = tm_one(bp, rng.normal(size=12), rng.normal(size=12),
                     rng.normal(size=(2, 6, 6)))
    assert np.allclose(o, 0.0)
    bp.W_cv[...] = 0.0
    x = rng.normal(size=12)
    assert np.allclose(rt_one(bp, x, rng.normal(size=(2, 6, 6)))[0], x)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_layer_norm_matches_its_formula_and_the_gainless_path(dtype, tol):
    rng = np.random.default_rng(18)
    x = (3.0 + rng.normal(size=(2, 5, 3, 8))).astype(dtype)
    dy = rng.normal(size=x.shape).astype(dtype)
    g = rng.normal(size=8).astype(dtype)
    b = rng.normal(size=8).astype(dtype)
    x64, dy64, g64 = (a.astype(np.float64) for a in (x, dy, g))
    xc = x64 - x64.mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    dxh = dy64 * g64
    dx_ref = inv * (dxh - dxh.mean(-1, keepdims=True)
                    - xhat * (dxh * xhat).mean(-1, keepdims=True))

    y, cache = B.ln_fwd(x, g, b)
    dx, dg, db = B.ln_bwd(cache, dy)
    for got, want in ((y, xhat * g64 + b), (dx, dx_ref), (dg, (dy64 * xhat).sum((0, 1, 2))),
                      (db, dy64.sum((0, 1, 2)))):
        assert got.dtype == dtype and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    # without gain and bias: the unit-gain, zero-bias values, no dg or db
    ones, zeros = np.ones(8, dtype), np.zeros(8, dtype)
    yn, cache = B.ln_fwd(x)
    assert np.array_equal(yn, B.ln_fwd(x, ones, zeros)[0])
    dxn, dgn, dbn = B.ln_bwd(cache, dy)
    assert dgn is None and dbn is None
    assert np.array_equal(dxn, B.ln_bwd(B.ln_fwd(x, ones, zeros)[1], dy)[0])


def test_tm_output_constant_head_normalizes_to_zero():
    bp = random_block(17)
    y = np.concatenate([np.full(6, 3.7), np.full(6, -1.2)])
    yn, _ = B.ln_fwd(y.reshape(2, 6), 1.0, 0.0)
    assert np.allclose(yn, 0.0)  # zero variance handled by eps
    bp.W_r[...] = 0.0  # r = 0 -> y = 0, constant in every head
    rng = np.random.default_rng(17)
    o, _, _ = tm_one(bp, rng.normal(size=12), rng.normal(size=12),
                     rng.normal(size=(2, 6, 6)))
    assert np.allclose(o, 0.0)
    bp.W_cv[...] = 0.0
    x = rng.normal(size=12)
    assert np.allclose(rt_one(bp, x, rng.normal(size=(2, 6, 6)))[0], x)


def test_tm_output_scalar_composition():
    bp = random_block(18)
    rng = np.random.default_rng(19)
    S0 = rng.normal(size=(2, 6, 6))
    got, _, cache = tm_one(bp, rng.normal(size=12), rng.normal(size=12), S0)
    r, k, v = (cache["mix"]["paths"][n][2][0, 0] @ getattr(bp, f"W_{n}") for n in "rkv")
    y, _ = step_ref(S0, r, k, v, np.ones(12), bp.u)
    g = cache["g"][0, 0]
    yh = y.reshape(2, 6)
    yn = (yh - yh.mean(1, keepdims=True)) / np.sqrt(yh.var(1, keepdims=True) + 1e-5)
    silu = g / (1 + np.exp(-g))
    assert np.allclose(got, (silu * yn.reshape(-1)) @ bp.W_o, rtol=1e-12)


def test_cm_step_relu_kill():
    bp = random_block(20)
    bp.W_ck[...] = 0.0
    bp.mu_ck[...] = 0.0
    rng = np.random.default_rng(21)
    x = rng.normal(size=12)
    # k' = 0 everywhere -> relu^2 = 0 -> output 0
    assert np.allclose(cm_one(x, rng.normal(size=12), bp), 0.0)


def test_cm_step_degenerate_lerp():
    bp = random_block(22)
    rng = np.random.default_rng(23)
    x = rng.normal(size=12)
    got = cm_one(x, x.copy(), bp)
    rr = x @ bp.W_cr
    kk = np.maximum(x @ bp.W_ck, 0.0)
    want = (1 / (1 + np.exp(-rr))) * ((kk * kk) @ bp.W_cv)
    assert np.allclose(got, want, rtol=1e-12)


def test_cm_step_scalar_oracle():
    bp = random_block(24)
    rng = np.random.default_rng(25)
    x, xp = rng.normal(size=12), rng.normal(size=12)
    got = cm_one(x, xp, bp)
    lr = x + (xp - x) * bp.mu_cr
    lk = x + (xp - x) * bp.mu_ck
    kk = np.maximum(lk @ bp.W_ck, 0.0)
    want = (1 / (1 + np.exp(-(lr @ bp.W_cr)))) * ((kk ** 2) @ bp.W_cv)
    assert np.allclose(got, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# Whole block and whole-stack properties
# ---------------------------------------------------------------------------

def test_block_identity_with_zero_outputs():
    bp = random_block(26)
    bp.W_o[...] = 0.0
    bp.W_cv[...] = 0.0
    rt = _BlockRt(bp, CFG.n_heads)
    state = as_row(EncoderState.zeros(CFG).blocks[0])
    rng = np.random.default_rng(27)
    for _ in range(5):
        x = rng.normal(size=(1, 12))
        assert np.allclose(rt.step(x, state), x)


def test_block_single_token_equals_length_one_seq():
    bp = random_block(28)
    rng = np.random.default_rng(29)
    x = rng.normal(size=12)
    out, state = rt_one(bp, x)
    S0 = np.zeros((1, 2, 6, 6))
    carry = np.zeros((1, 12))
    out_seq, (S_f, tm_c, cm_c), _ = B.block_seq_fwd(x[None, None], S0, carry, carry,
                                                    bp, CFG.n_heads)
    assert np.allclose(out, out_seq[0, 0], rtol=1e-12)
    assert np.allclose(state.S, S_f[0], rtol=1e-12)
    assert np.allclose(state.tm_prev, tm_c[0])
    assert np.allclose(state.cm_prev, cm_c[0])


def _stack_outputs_recurrent(params, xs):
    cfg = params.config
    blocks = [_BlockRt(bp, cfg.n_heads) for bp in params.blocks]
    states = EncoderState.zeros(cfg).blocks
    rows = [as_row(st) for st in states]
    outs = np.zeros_like(xs)
    for i in range(len(xs)):
        h = xs[i:i + 1]
        for blk, st in zip(blocks, rows):
            h = blk.step(h, st)
        outs[i] = h[0]
    return outs, states


def _stack_outputs_parallel(params, xs):
    cfg = params.config
    h = xs[None]
    finals = []
    for bp in params.blocks:
        S0 = np.zeros((1, cfg.n_heads, cfg.d_head, cfg.d_head), xs.dtype)
        carry = np.zeros((1, cfg.d_model), xs.dtype)
        h, st, _ = B.block_seq_fwd(h, S0, carry, carry, bp, cfg.n_heads)
        finals.append(st)
    return h[0], finals


def test_three_block_stack_recurrent_vs_parallel():
    cfg = EncoderConfig(d_model=24, n_blocks=3, n_heads=4, d_ffn=32, d_lora=4,
                        d_w=4, mvhs_heads=4, mvhs_d_head=6, n_out=4, patch=4,
                        precision="f64")
    params = init_encoder_params(cfg, seed=30)
    randomize_params(params, seed=31)
    rng = np.random.default_rng(32)
    xs = rng.normal(size=(128, 24))
    out_r, states = _stack_outputs_recurrent(params, xs)
    out_p, finals = _stack_outputs_parallel(params, xs)
    scale = np.max(np.abs(out_r))
    assert np.max(np.abs(out_p - out_r)) / scale <= 1e-9
    for st, (S_f, tm_c, cm_c) in zip(states, finals):
        assert np.max(np.abs(st.S - S_f[0])) / max(np.max(np.abs(st.S)), 1e-12) <= 1e-9


def test_statefulness_split_equals_whole():
    bp = random_block(33)
    rng = np.random.default_rng(34)
    xs = rng.normal(size=(1, 50, 12))
    S0 = np.zeros((1, 2, 6, 6))
    carry = np.zeros((1, 12))
    whole, st_w, _ = B.block_seq_fwd(xs, S0, carry, carry, bp, 2)
    for cut in (1, 17, 49):
        a, st_a, _ = B.block_seq_fwd(xs[:, :cut], S0, carry, carry, bp, 2)
        b, st_b, _ = B.block_seq_fwd(xs[:, cut:], st_a[0], st_a[1], st_a[2], bp, 2)
        assert np.allclose(np.concatenate([a, b], axis=1), whole, rtol=1e-9, atol=1e-12)
        assert np.allclose(st_b[0], st_w[0], rtol=1e-9, atol=1e-12)


def test_causality():
    bp = random_block(35)
    rng = np.random.default_rng(36)
    xs = rng.normal(size=(1, 30, 12))
    S0 = np.zeros((1, 2, 6, 6))
    carry = np.zeros((1, 12))
    base, _, _ = B.block_seq_fwd(xs, S0, carry, carry, bp, 2)
    xs2 = xs.copy()
    xs2[:, 20:] += rng.normal(size=(1, 10, 12))
    pert, _, _ = B.block_seq_fwd(xs2, S0, carry, carry, bp, 2)
    assert np.allclose(pert[:, :20], base[:, :20], rtol=1e-12)
    assert not np.allclose(pert[:, 20:], base[:, 20:])


def test_state_bounded_by_outer_product_sums():
    # with 0 < w < 1, |S_T| <= sum_t |k_t| |v_t|^T entrywise, at every prefix
    rng = np.random.default_rng(37)
    T, D, N = 100, 8, 2
    k, v = (rng.normal(size=(1, T, N, D // N)) for _ in range(2))
    lw = -np.exp(rng.normal(size=(1, T, N, D // N)))
    with outer_chunk(16):
        snaps, _, _ = scan.state_scan_forward(k, v, lw, np.zeros((1, N, D // N, D // N)),
                                              range(1, T + 1))
    bound = np.zeros((N, D // N, D // N))
    for i in range(T):
        bound += np.abs(k[0, i])[:, :, None] * np.abs(v[0, i])[:, None, :]
        assert np.all(np.abs(snaps[0, i]) <= bound + 1e-12)


@pytest.mark.parametrize("decay_bias", [-6.0, 3.0])
def test_mode_equivalence_under_decay_extremes_f32(decay_bias):
    # near-unit decay (bias -6) and near-full reset (bias +3) at f32
    cfg = EncoderConfig(d_model=16, n_blocks=2, n_heads=2, d_ffn=24, d_lora=4,
                        d_w=4, mvhs_heads=2, mvhs_d_head=8, n_out=2, patch=4,
                        precision="f32")
    params = init_encoder_params(cfg, seed=40)
    randomize_params(params, seed=41)
    for lam_d in [bp.lam_d for bp in params.blocks] + [params.mvhs.lam_d]:
        lam_d[...] = lam_d - lam_d.mean() + decay_bias
    params = params.astype(np.float32)
    rng = np.random.default_rng(42)
    xs = rng.normal(size=(200, 16)).astype(np.float32)
    out_r, states = _stack_outputs_recurrent(params, xs)
    out_p, finals = _stack_outputs_parallel(params, xs)
    assert np.max(np.abs(out_p - out_r)) / np.max(np.abs(out_r)) <= 1e-3
    for st, (S_f, _, _) in zip(states, finals):
        scale = max(np.max(np.abs(st.S)), 1e-6)
        assert np.max(np.abs(S_f[0] - st.S)) / scale <= 1e-3
    # the matrix-state layer under the same decay, through the whole encoder
    tokens, dts = rng.integers(0, cfg.vocab, size=200), rng.integers(0, 3000, size=200)
    cps = [37, 101, 200]
    snaps_p, _ = encode_sequence(params, tokens, dts, checkpoints=cps)
    snaps_r, _ = encode_sequence_recurrent(params, tokens, dts, checkpoints=cps)
    assert np.max(np.abs(snaps_p - snaps_r)) / max(np.max(np.abs(snaps_r)), 1e-6) <= 1e-3


def test_tm_parallel_zero_decay_matches_recurrent():
    rng = np.random.default_rng(43)
    T, D, N = 20, 8, 2
    r, k, v = (rng.normal(size=(T, D)) for _ in range(3))
    lw = np.log(rng.uniform(0.1, 0.9, size=(T, D)))
    lw[7] = -1e6  # exact full reset mid-sequence: exp(lw) == 0
    u = rng.normal(size=D)
    S0 = rng.normal(size=(N, D // N, D // N))
    y_p, S_p = scan_seq(r, k, v, lw, u, S0)
    S = S0.copy()
    y_r = np.zeros((T, D))
    for i in range(T):
        y_r[i], S = step_ref(S, r[i], k[i], v[i], np.exp(lw[i]), u)
    assert np.all(np.isfinite(y_p))
    assert np.max(np.abs(y_p - y_r)) / np.max(np.abs(y_r)) <= 1e-10
    assert np.max(np.abs(S_p - S)) / np.max(np.abs(S)) <= 1e-10
