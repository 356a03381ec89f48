from dataclasses import replace

import numpy as np
import pytest

from eva import mvhs as M
from eva.config import EncoderConfig
from eva.encoder import EncoderState
from eva.events import SensorGeometry, make_events
from eva.params import init_encoder_params, init_mvhs_params
from eva.pipeline import A2SPipeline
from eva.runtime import _MvhsRt

# an unmasked exp overflow in the scan must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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
    """The event-by-event layer on one stream, from a zero state. Returns
    (step, state): step(x) absorbs one input (D,) through a batch of one
    that views `state`."""
    rt = _MvhsRt(mp, cfg.mvhs_heads, cfg.mvhs_d_head)
    whole = EncoderState.zeros(cfg)
    state = whole.mvhs
    row = M.MvhsState(state.S[None], state.prev[None])

    def step(x):
        rt.step(x[None], row)
        assert whole.finite()
    return step, state


def mvhs_seq(xs, mp, S0, checkpoints, carry=None):
    """The chunked layer `_mvhs_seq` on one (T, D) sequence.

    Returns (snapshots (K, N, Dh, Dh), final state)."""
    if carry is None:
        carry = np.zeros(xs.shape[1])
    snaps, S_fin, _, _ = M._mvhs_seq(xs[None], carry[None], S0[None], mp, S0.shape[0],
                                     checkpoints)
    return snaps[0], S_fin[0]


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
    step, state = stepper(mp)
    step(e1)
    step(e1)
    want = np.zeros((2, 4, 4))
    want[0, 0, 0] = 2.0
    assert np.allclose(state.S, want)


def test_zero_events_zero_state():
    assert np.allclose(EncoderState.zeros(CFG).mvhs.S, 0.0)


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
    step, state = stepper(mp)
    ks, vs, ws = [], [], []
    for i in range(T):
        k, v, w = project_ref(xs[i], prev, mp)
        ks.append(k)
        vs.append(v)
        ws.append(w)
        step(xs[i])
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
    snaps, S_fin = mvhs_seq(xs, mp, S0, [T])
    step, state = stepper(mp)
    for i in range(T):
        step(xs[i])
    S = state.S
    assert snaps.shape == (1, 2, 4, 4)
    assert np.allclose(snaps[0], S, rtol=1e-10, atol=1e-13)
    assert np.allclose(S_fin, S, rtol=1e-10, atol=1e-13)


def test_parallel_full_trajectory():
    mp = random_mvhs(5)
    rng = np.random.default_rng(6)
    T = 17
    xs = rng.normal(size=(T, 8))
    snaps, _ = mvhs_seq(xs, mp, np.zeros((2, 4, 4)), list(range(1, T + 1)))
    step, state = stepper(mp)
    for i in range(T):
        step(xs[i])
        assert np.allclose(snaps[i], state.S, rtol=1e-10, atol=1e-13)


def test_parallel_checkpoints_every_16():
    mp = random_mvhs(7)
    rng = np.random.default_rng(8)
    T = 256
    xs = rng.normal(size=(T, 8))
    cps = list(range(16, T + 1, 16))
    snaps, _ = mvhs_seq(xs, mp, np.zeros((2, 4, 4)), cps)
    step, state = stepper(mp)
    j = 0
    for i in range(T):
        step(xs[i])
        if i + 1 in cps:
            rel = np.max(np.abs(snaps[j] - state.S)) / np.max(np.abs(state.S))
            assert rel <= 1e-9
            j += 1


def test_parallel_rejects_unsorted_checkpoints():
    mp = random_mvhs(9)
    xs = np.zeros((4, 8))
    with pytest.raises(ValueError):
        mvhs_seq(xs, mp, np.zeros((2, 4, 4)), [3, 2])


def test_split_invariance():
    mp = random_mvhs(10)
    rng = np.random.default_rng(11)
    xs = rng.normal(size=(40, 8))
    snaps, S_whole = mvhs_seq(xs, mp, np.zeros((2, 4, 4)), [40])
    _, S_half = mvhs_seq(xs[:19], mp, np.zeros((2, 4, 4)), [19])
    _, S_full = mvhs_seq(xs[19:], mp, S_half, [21], carry=xs[18])
    assert np.allclose(S_full, S_whole, rtol=1e-10, atol=1e-13)


def test_state_is_event_driven():
    # no new events -> unchanged state, regardless of wall-clock time
    mp = random_mvhs(12)
    rng = np.random.default_rng(13)
    step, state = stepper(mp)
    for _ in range(5):
        step(rng.normal(size=8))
    before = state.S.copy()
    assert np.array_equal(state.S, before)  # nothing mutates without an event


def test_batched_rows_step_independently():
    # three streams in one batch, one of them fed an Inf at step 5: the
    # finite rows match their own single-stream stepping, and only the bad
    # row's state is non-finite, from step 5 on (this layer checks nothing;
    # the pipeline finds the row through `EncoderState.finite`)
    mp = random_mvhs(14)
    rng = np.random.default_rng(15)
    xs = rng.normal(size=(20, 3, 8))
    xs[5, 1, 0] = np.inf
    rt = _MvhsRt(mp, CFG.mvhs_heads, CFG.mvhs_d_head)
    batch = M.MvhsState(np.zeros((3, 2, 4, 4)), np.zeros((3, 8)))
    with np.errstate(invalid="ignore"):
        for i in range(20):
            rt.step(xs[i], batch)
            finite = np.isfinite(batch.S).all((1, 2, 3))
            assert finite.tolist() == [True, i < 5, True]
    for b in (0, 2):
        step, state = stepper(mp)
        for i in range(20):
            step(xs[i, b])
        assert np.allclose(batch.S[b], state.S, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# output channels: a snapshot keeps the first n_out head matrices
# ---------------------------------------------------------------------------

def test_select_channels_shapes():
    geom = SensorGeometry(8, 12, 4)  # a 2 x 3 grid of patches
    for n_out in (1, 2):
        cfg = replace(CFG, n_out=n_out, precision="f32")
        pipe = A2SPipeline(init_encoder_params(cfg, seed=0), geom)
        S = pipe._state.mvhs.S  # (patches, heads, Dh, Dh), patch (r, c) at row 3r + c
        S[...] = np.arange(S.size, dtype=S.dtype).reshape(S.shape)
        snap = pipe.snapshot()
        assert snap.values.shape == (n_out, 2 * 4, 3 * 4)
        for r in range(2):
            for c in range(3):
                tile = snap.values[:, 4 * r:4 * (r + 1), 4 * c:4 * (c + 1)]
                assert np.array_equal(tile, S[3 * r + c, :n_out])


def test_select_channels_identity_and_copy():
    geom = SensorGeometry(8, 8, 4)
    pipe = A2SPipeline(init_encoder_params(CFG, seed=0), geom)
    pipe.ingest_events(make_events([0, 5, 9, 12], [0, 5, 1, 7], [1, 6, 2, 3], [0, 1, 1, 0]))
    snap = pipe.snapshot()
    values, marks = snap.values.copy(), snap.watermarks.copy()
    assert values.any()
    snap.values[...] = 7.0  # a snapshot never aliases the live state
    snap.watermarks[...] = 7
    again = pipe.snapshot()
    assert np.array_equal(again.values, values)
    assert np.array_equal(again.watermarks, marks)


def test_select_channels_rejects_bad_n_out():
    with pytest.raises(ValueError):
        replace(CFG, n_out=0)
    with pytest.raises(ValueError):
        replace(CFG, n_out=CFG.mvhs_heads + 1)
