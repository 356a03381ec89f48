import numpy as np
import pytest

from eva import mvhs as M
from eva.config import EncoderConfig
from eva.params import init_mvhs_params
from eva.runtime import _MvhsRt

CFG = EncoderConfig(d_model=8, n_blocks=1, n_heads=2, d_ffn=16, d_lora=4,
                    d_w=4, mvhs_heads=2, mvhs_d_head=4, n_out=2, patch=4,
                    precision="f64")


def random_mvhs(seed, cfg=CFG):
    rng = np.random.default_rng(seed)
    mp = init_mvhs_params(cfg, rng, np.float64)
    for name in ("A_k", "A_v", "A_w"):
        arr = getattr(mp, name)
        arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    return mp


def project_ref(x, x_prev, mp):
    """The layer's (k, v, w) for one input, written out from the formulas."""
    m = x + (x_prev - x) * mp.mu
    gk = mp.lam_k + np.tanh(m @ mp.A_k) @ mp.B_k
    gv = mp.lam_v + np.tanh(m @ mp.A_v) @ mp.B_v
    k = (x + (x_prev - x) * gk) @ mp.W_k
    v = (x + (x_prev - x) * gv) @ mp.W_v
    return k, v, np.exp(-np.exp(mp.lam_d + np.tanh(m @ mp.A_w) @ mp.B_w))


def stepper(mp, cfg=CFG):
    """The event-by-event layer and a zero state for it."""
    return _MvhsRt(mp, cfg.mvhs_heads, cfg.mvhs_d_head), M.MvhsState.zeros(cfg)


def force_identity_kv(mp, w_value=-40.0):
    """Make k = v = x exactly and w = 1 (no decay)."""
    for name in ("A_k", "A_v", "A_w", "B_k", "B_v", "B_w"):
        getattr(mp, name)[...] = 0.0
    mp.lam_k[...] = 0.0
    mp.lam_v[...] = 0.0
    mp.W_k[...] = np.eye(mp.W_k.shape[0])
    mp.W_v[...] = np.eye(mp.W_v.shape[0])
    mp.lam_d[...] = w_value  # exp(-exp(-40)) == 1.0 in f64


def test_pure_accumulation_two_events():
    mp = random_mvhs(0)
    force_identity_kv(mp)
    e1 = np.zeros(8)
    e1[0] = 1.0  # head 0, channel 0
    rt, state = stepper(mp)
    rt.step(e1, state)
    rt.step(e1, state)
    want = np.zeros((2, 4, 4))
    want[0, 0, 0] = 2.0
    assert np.allclose(state.S, want)


def test_zero_events_zero_state():
    assert np.allclose(M.MvhsState.zeros(CFG).S, 0.0)


def closed_form_state(k, v, w):
    """Suffix-product form: S_T = sum_t diag(prod_{j>t} w_j) k_t v_t^T."""
    T, D = k.shape
    S = np.zeros((D, D))
    for t in range(T):
        prod = np.ones(D)
        for j in range(t + 1, T):
            prod = prod * w[j]
        S += (prod * k[t])[:, None] * v[t][None, :]
    return S


def test_recurrent_matches_closed_form_T512():
    mp = random_mvhs(1)
    rng = np.random.default_rng(2)
    T = 512
    xs = rng.normal(size=(T, 8))
    prev = np.zeros(8)
    rt, state = stepper(mp)
    ks, vs, ws = [], [], []
    for i in range(T):
        k, v, w = project_ref(xs[i], prev, mp)
        ks.append(k)
        vs.append(v)
        ws.append(w)
        rt.step(xs[i], state)
        prev = xs[i]
    k, v, w = np.array(ks), np.array(vs), np.array(ws)
    S = state.S
    for h in range(2):
        sl = slice(h * 4, (h + 1) * 4)
        want = closed_form_state(k[:, sl], v[:, sl], w[:, sl])
        rel = np.max(np.abs(S[h] - want)) / np.max(np.abs(want))
        assert rel <= 1e-9


def test_parallel_single_checkpoint_equals_stepping():
    mp = random_mvhs(3)
    rng = np.random.default_rng(4)
    T = 33
    xs = rng.normal(size=(T, 8))
    S0 = np.zeros((2, 4, 4))
    snaps, S_fin = M.mvhs_parallel(xs, mp, S0, [T])
    rt, state = stepper(mp)
    for i in range(T):
        rt.step(xs[i], state)
    S = state.S
    assert snaps.shape == (1, 2, 4, 4)
    assert np.allclose(snaps[0], S, rtol=1e-10, atol=1e-13)
    assert np.allclose(S_fin, S, rtol=1e-10, atol=1e-13)


def test_parallel_full_trajectory():
    mp = random_mvhs(5)
    rng = np.random.default_rng(6)
    T = 17
    xs = rng.normal(size=(T, 8))
    snaps, _ = M.mvhs_parallel(xs, mp, np.zeros((2, 4, 4)), list(range(1, T + 1)))
    rt, state = stepper(mp)
    for i in range(T):
        rt.step(xs[i], state)
        assert np.allclose(snaps[i], state.S, rtol=1e-10, atol=1e-13)


def test_parallel_checkpoints_every_16():
    mp = random_mvhs(7)
    rng = np.random.default_rng(8)
    T = 256
    xs = rng.normal(size=(T, 8))
    cps = list(range(16, T + 1, 16))
    snaps, _ = M.mvhs_parallel(xs, mp, np.zeros((2, 4, 4)), cps)
    rt, state = stepper(mp)
    j = 0
    for i in range(T):
        rt.step(xs[i], state)
        if i + 1 in cps:
            rel = np.max(np.abs(snaps[j] - state.S)) / np.max(np.abs(state.S))
            assert rel <= 1e-9
            j += 1


def test_parallel_rejects_unsorted_checkpoints():
    mp = random_mvhs(9)
    xs = np.zeros((4, 8))
    with pytest.raises(ValueError):
        M.mvhs_parallel(xs, mp, np.zeros((2, 4, 4)), [3, 2])


def test_split_invariance():
    mp = random_mvhs(10)
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(40, 8))
    snaps, S_whole = M.mvhs_parallel(xs, mp, np.zeros((2, 4, 4)), [40])
    _, S_half = M.mvhs_parallel(xs[:19], mp, np.zeros((2, 4, 4)), [19])
    _, S_full = M.mvhs_parallel(xs[19:], mp, S_half, [21], carry=xs[18])
    assert np.allclose(S_full, S_whole, rtol=1e-10, atol=1e-13)


def test_state_is_event_driven():
    # no new events -> unchanged state, regardless of wall-clock time
    mp = random_mvhs(12)
    rng = np.random.default_rng(13)
    rt, state = stepper(mp)
    for _ in range(5):
        rt.step(rng.normal(size=8), state)
    before = state.S.copy()
    assert np.array_equal(state.S, before)  # nothing mutates without an event


# ---------------------------------------------------------------------------
# select_channels
# ---------------------------------------------------------------------------

def test_select_channels_shapes():
    S = np.arange(8 * 16 * 16, dtype=float).reshape(8, 16, 16)
    rep = M.select_channels(S, 4)
    assert rep.shape == (4, 16, 16)
    assert np.array_equal(rep, S[:4])

    S2 = np.zeros((16, 8, 8))
    assert M.select_channels(S2, 16).shape == (16, 8, 8)


def test_select_channels_identity_and_copy():
    S = np.ones((4, 3, 3))
    rep = M.select_channels(S, 4)
    rep[...] = 7.0
    assert np.all(S == 1.0)  # snapshot never aliases the live state


def test_select_channels_rejects_bad_n_out():
    S = np.zeros((4, 3, 3))
    with pytest.raises(ValueError):
        M.select_channels(S, 0)
    with pytest.raises(ValueError):
        M.select_channels(S, 5)
