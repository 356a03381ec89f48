import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.config import ENCODER_PROFILES, EncoderConfig, TargetSpec, TrainConfig
from eva.embedding import embed_events
from eva.encoder import (EncoderState, backward_train, encode_sequence,
                         encode_sequence_recurrent, forward_train)
from eva.params import init_encoder_params
from eva.runtime import EncoderRuntime
from eva.train import batch_loss, build_synthetic_corpus, init_model
from helpers import heads_innermost, outer_chunk, overflowing_mvhs, randomize_params

# an overflow or invalid value anywhere in the encoder must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CFG = EncoderConfig(d_model=16, n_blocks=2, n_heads=2, d_ffn=24, d_lora=4,
                    d_w=4, mvhs_heads=2, mvhs_d_head=8, n_out=2, patch=4,
                    precision="f64")


@pytest.fixture(scope="module")
def params():
    p = init_encoder_params(CFG, seed=0)
    randomize_params(p, seed=1)
    return p


def random_stream(seed, T, cfg=CFG):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, cfg.vocab, size=T), rng.integers(0, 3000, size=T))


def test_parallel_equals_recurrent_with_checkpoints(params):
    tokens, dts = random_stream(2, 90)
    cps = [7, 40, 90]
    with outer_chunk(16):
        snaps_p, st_p = encode_sequence(params, tokens, dts, checkpoints=cps)
    snaps_r, st_r = encode_sequence_recurrent(params, tokens, dts, checkpoints=cps)
    assert np.max(np.abs(snaps_p - snaps_r)) / np.max(np.abs(snaps_r)) <= 1e-10
    assert np.allclose(st_p.mvhs.S, st_r.mvhs.S, rtol=1e-10, atol=1e-13)
    for bp, br in zip(st_p.blocks, st_r.blocks):
        assert np.allclose(bp.S, br.S, rtol=1e-10, atol=1e-13)
        assert np.allclose(bp.tm_prev, br.tm_prev, rtol=1e-10, atol=1e-13)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 79))
def test_split_invariance_any_boundary(cut):
    params = init_encoder_params(CFG, seed=3)
    randomize_params(params, seed=4)
    tokens, dts = random_stream(5, 80)
    with outer_chunk(16):
        _, whole = encode_sequence(params, tokens, dts)
        _, half = encode_sequence(params, tokens[:cut], dts[:cut])
        _, full = encode_sequence(params, tokens[cut:], dts[cut:], half)
    assert np.allclose(full.mvhs.S, whole.mvhs.S, rtol=1e-9, atol=1e-12)
    for bf, bw in zip(full.blocks, whole.blocks):
        assert np.allclose(bf.S, bw.S, rtol=1e-9, atol=1e-12)


def test_runtime_matches_reference_long_stream(params):
    tokens, dts = random_stream(6, 400)
    _, ref = encode_sequence(params, tokens, dts)
    rt = EncoderRuntime(params)
    fast = EncoderState.zeros(CFG)
    row = fast.rows(None)  # a batch of one, viewing fast's arrays
    for i in range(len(tokens)):
        rt.step(row, tokens[i:i + 1], dts[i:i + 1])
    assert fast.finite()
    assert np.max(np.abs(fast.mvhs.S - ref.mvhs.S)) / np.max(np.abs(ref.mvhs.S)) <= 1e-12
    for bf, br in zip(fast.blocks, ref.blocks):
        assert np.allclose(bf.S, br.S, rtol=1e-12, atol=1e-15)


def test_runtime_matches_reference_gen1_geometry():
    cfg = ENCODER_PROFILES["gen1"]
    params = init_encoder_params(cfg, seed=7)
    rng = np.random.default_rng(8)
    tokens = rng.integers(0, cfg.vocab, size=100)
    dts = rng.integers(0, 500, size=100)
    _, ref = encode_sequence(params, tokens, dts)
    fast = EncoderState.zeros(cfg)
    row = fast.rows(None)
    rt = EncoderRuntime(params)
    for i in range(len(tokens)):
        rt.step(row, tokens[i:i + 1], dts[i:i + 1])
    scale = np.abs(ref.mvhs.S).max()
    assert np.abs(fast.mvhs.S - ref.mvhs.S).max() / scale <= 1e-5  # f32 profile


@pytest.mark.parametrize("d_lora,d_w,mvhs_heads,mvhs_d_head",
                         [(4, 6, 2, 8), (6, 3, 3, 4), (4, 4, 4, 6)])
def test_runtime_matches_chunked_unequal_lora_widths(d_lora, d_w, mvhs_heads, mvhs_d_head):
    # the runtime stacks the mixes with the decay in one LoRA, zero-padding
    # the narrower width and, in the matrix-state layer, the narrower of
    # the model width 16 and the state width; the chunked path keeps them apart
    cfg = EncoderConfig(d_model=16, n_blocks=2, n_heads=2, d_ffn=24, d_lora=d_lora,
                        d_w=d_w, mvhs_heads=mvhs_heads, mvhs_d_head=mvhs_d_head,
                        n_out=2, patch=4, precision="f64")
    params = init_encoder_params(cfg, seed=12)
    randomize_params(params, seed=13)
    tokens, dts = random_stream(14, 120, cfg)
    with outer_chunk(16):
        _, st_p = encode_sequence(params, tokens, dts)
    _, st_r = encode_sequence_recurrent(params, tokens, dts)
    for a, b in zip(st_r.tensors(), st_p.tensors()):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_long_horizon_f32_precision():
    # 3000 events at near-unit decay (w = 0.98-0.9997), encoded in f32 by the
    # chunked path and by stepping, each against the f64 chunked encode.
    # Before the two-level scan this case measured 4.9e-7 (chunked) and
    # 1.9e-6 (stepping); the bounds leave a margin of about 4x and 5x.
    params = init_encoder_params(CFG, seed=20)
    randomize_params(params, seed=21)
    for lp in params.blocks + [params.mvhs]:
        lp.lam_d[...] = lp.lam_d - lp.lam_d.mean() - 6.0
    p32 = params.astype(np.float32)
    tokens, dts = random_stream(22, 3000)
    cps = [500, 1000, 2000, 3000]
    ref, _ = encode_sequence(params, tokens, dts, checkpoints=cps)
    chunked, _ = encode_sequence(p32, tokens, dts, checkpoints=cps)
    stepped, _ = encode_sequence_recurrent(p32, tokens, dts, checkpoints=cps)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(chunked - ref)) / scale <= 2e-6
    assert np.max(np.abs(stepped - ref)) / scale <= 1e-5


def test_outer_chunk_changes_no_bit():
    # the outer chunk is a memory tile: sub-chunks keep their place for any
    # multiple of _SUB, including a last outer chunk shorter than _SUB
    # (T = 257) and checkpoints off the sub-chunk grid
    params = init_encoder_params(ENCODER_PROFILES["dvs"], seed=3)
    randomize_params(params, seed=4)
    params = params.astype(np.float32)
    for T in (66, 130, 257, 300):
        tokens, dts = random_stream(T, T, params.config)
        outs = []
        for n in (16, 64, 128):
            with outer_chunk(n):
                snaps, st = encode_sequence(params, tokens, dts,
                                            checkpoints=[T // 3, T // 2 + 1, T])
            outs.append([a.tobytes() for a in (snaps, *st.tensors())])
        assert outs[0] == outs[1] == outs[2], T

    specs = (TargetSpec("ec", "mrp", window_us=50_000),
             TargetSpec("ec", "nrp", window_us=20_000, horizon_us=20_000))
    cfg = ENCODER_PROFILES["small"]
    tc = TrainConfig(seq_len=129, chunk_len=43, batch_size=2, targets=specs)
    batch = build_synthetic_corpus(tc, cfg, rate=20_000.0, duration_us=500_000, seed=0)[:2]
    model = init_model(cfg, tc, seed=1)
    randomize_params(model.params, seed=2)
    grads = []
    for n in (16, 64, 128):
        with outer_chunk(n):
            _, _, g = batch_loss(model, batch)
        grads.append({k: a.tobytes() for k, a in g.items()})
    assert grads[0] == grads[1] == grads[2]


@pytest.mark.parametrize("layer", ["block", "mvhs"])
def test_decay_overflow_matches_stepping(layer):
    # lam_d = 800: exp(d) would overflow to inf; both modes cap d, so they
    # stay finite, warn about nothing and agree (w = e^-60)
    cfg = ENCODER_PROFILES["tiny"]
    params = init_encoder_params(cfg, seed=9)
    randomize_params(params, seed=10)
    (params.blocks[0] if layer == "block" else params.mvhs).lam_d[...] = 800.0
    tokens, dts = random_stream(11, 100, cfg)
    cps = [10, 70, 100]
    with warnings.catch_warnings(), outer_chunk(16):
        warnings.simplefilter("error")
        snaps_p, _ = encode_sequence(params, tokens, dts, checkpoints=cps)
        snaps_r, _ = encode_sequence_recurrent(params, tokens, dts, checkpoints=cps)
    assert np.all(np.isfinite(snaps_p))
    assert np.max(np.abs(snaps_p - snaps_r)) / np.max(np.abs(snaps_r)) <= 1e-12
    snaps, cache = forward_train(params, tokens[None], dts[None], [50, 100])
    grads = backward_train(cache, np.ones_like(snaps))
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    # the capped decay is a constant: no gradient reaches its bias
    assert np.all(grads["blocks.0.lam_d" if layer == "block" else "mvhs.lam_d"] == 0.0)


def test_ingest_event_tracks_timestamps(params):
    # two streams in one batch: each row keeps its own watermark and count
    rt = EncoderRuntime(params)
    st = EncoderState.zeros(CFG).rows(None).rows(np.zeros(2, np.intp))
    assert rt.ingest(st, np.array([3, 5]), np.array([100, 7])) is None
    assert st.last_t.tolist() == [100, 7] and st.event_index.tolist() == [1, 1]
    assert rt.ingest(st, np.array([4, 6]), np.array([130, 9])) is None
    assert st.last_t.tolist() == [130, 9] and st.event_index.tolist() == [2, 2]
    assert st.mvhs.S[0][:CFG.n_out].shape == (2, 8, 8)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_runtime_ingest_of_ragged_waves_equals_each_row_stepped(params, dtype, tol):
    # one call over 20 tokens of five rows, 7, 5, 5, 2 and 1 of them, so the
    # waves shrink 5, 4, 3, 3, 3, 1, 1; each row starts from its own state
    # (row 4 from zeros) and must end where stepping its tokens one at a
    # time through encode_sequence_recurrent ends
    p = params.astype(dtype)
    rng = np.random.default_rng(35)
    counts = [7, 5, 5, 2, 1]
    B = len(counts)
    batch = EncoderState.zeros(CFG, dtype).rows(None).rows(np.zeros(B, np.intp))
    starts, toks, ts = [], [], []
    for s, c in enumerate(counts):
        if s < B - 1:
            pre_tok, pre_dt = random_stream(40 + s, 6)
            _, st = encode_sequence_recurrent(p, pre_tok, pre_dt)
            st.last_t = 1_000 * s
            batch.put([s], st.rows(None))
        else:
            st = EncoderState.zeros(CFG, dtype)
        starts.append(st)
        toks.append(rng.integers(0, CFG.vocab, size=c))
        ts.append(5_000 + np.sort(rng.integers(0, 4_000, size=c)))
    sizes = [sum(c > k for c in counts) for k in range(max(counts))]
    wave = [(k, s) for k, size in enumerate(sizes) for s in range(size)]
    tokens = np.array([toks[s][k] for k, s in wave])
    times = np.array([ts[s][k] for k, s in wave])
    assert EncoderRuntime(p).ingest(batch, tokens, times, sizes) is None
    for s in range(B):
        prev = starts[s].last_t
        dts = np.diff(ts[s], prepend=ts[s][0] if prev < 0 else prev)
        _, want = encode_sequence_recurrent(p, toks[s], dts, starts[s])
        got = batch.rows(slice(s, s + 1))
        for g, w in zip(got.tensors(), want.tensors()):
            assert np.max(np.abs(g[0] - w)) <= tol * np.max(np.abs(w))
        assert got.event_index[0] == want.event_index
        assert got.last_t[0] == ts[s][-1]


def test_runtime_buffer_reuse_is_invisible():
    # one runtime through calls of 256 tokens (four waves), 1, 37 (five
    # waves), 300 (wider than any before, so its buffers grow) and 2: each
    # call leaves its rows bitwise where a fresh runtime leaves a copy of them
    cfg = ENCODER_PROFILES["small"]
    p = init_encoder_params(cfg, seed=0)
    rng = np.random.default_rng(21)
    rt = EncoderRuntime(p)
    state = EncoderState.zeros(cfg, p.dtype).rows(None).rows(np.zeros(128, np.intp))
    t = 0
    for sizes in ([64] * 4, [1], [12, 10, 8, 4, 3], [100] * 3, [2]):
        n = sum(sizes)
        sel = rng.choice(128, sizes[0], replace=False)
        rows = state.rows(sel)
        fresh = rows.copy()
        tokens = rng.integers(0, cfg.vocab, n)
        ts = t + np.cumsum(rng.integers(1, 500, n))
        t = int(ts[-1])
        assert rt.ingest(rows, tokens, ts, sizes) is None
        assert EncoderRuntime(p).ingest(fresh, tokens, ts, sizes) is None
        for a, b in zip((rows.S, rows.S_mvhs, rows.vec, rows.last_t, rows.event_index),
                        (fresh.S, fresh.S_mvhs, fresh.vec, fresh.last_t, fresh.event_index)):
            assert np.array_equal(a, b)
        state.put(sel, rows)
    assert state.event_index.sum() == 256 + 1 + 37 + 300 + 2


def test_first_event_gap_is_zero(params):
    # stream start: dt = 0 regardless of the absolute timestamp
    rt = EncoderRuntime(params)
    st = EncoderState.zeros(CFG).rows(None).rows(np.zeros(2, np.intp))
    rt.ingest(st, np.array([5, 5]), np.array([0, 999_999]))
    assert np.array_equal(st.mvhs.S[0], st.mvhs.S[1])


def test_state_copies_keep_heads_innermost(params):
    st = EncoderState.zeros(CFG)
    batch = st.rows(None).rows(np.array([0, 0, 0]))
    for s in (st, st.copy(), st.rows(None), batch, batch.copy(), batch.rows(np.array([2, 0]))):
        for S in [b.S for b in s.blocks] + [s.mvhs.S]:
            assert heads_innermost(S), S.strides
    # stepping keeps the order, and a copy made after it too
    EncoderRuntime(params).step(batch, np.array([1, 2, 3]), np.array([0.0, 5.0, 9.0]))
    assert all(heads_innermost(b.S) for b in batch.copy().blocks)


def test_batched_copy_owns_every_array():
    batch = EncoderState.zeros(CFG).rows(None).rows(np.zeros(2, np.intp))
    c = batch.copy()
    c.last_t[0] = 5
    c.event_index[1] = 7
    for a in c.tensors():
        a[...] = 1.0
    assert np.array_equal(batch.last_t, [-1, -1]) and np.array_equal(batch.event_index, [0, 0])
    assert all(np.all(a == 0.0) for a in batch.tensors())


def test_put_writes_back_exactly_the_rows_taken():
    rng = np.random.default_rng(34)
    batch = EncoderState.zeros(CFG).rows(None).rows(np.zeros(5, np.intp))
    for a in batch.tensors() + [batch.last_t, batch.event_index]:
        a[...] = rng.integers(0, 100, size=a.shape)
    before = batch.copy()
    ids = np.array([3, 0])
    rows = batch.rows(ids)
    for a in rows.tensors() + [rows.last_t, rows.event_index]:
        a += np.arange(1, 3).reshape((2,) + (1,) * (a.ndim - 1))  # row k gets + k + 1
    batch.put(ids, rows)
    for a, b in zip(batch.tensors() + [batch.last_t, batch.event_index],
                    before.tensors() + [before.last_t, before.event_index]):
        assert np.array_equal(a[[1, 2, 4]], b[[1, 2, 4]])
        assert np.all(a[3] == b[3] + 1) and np.all(a[0] == b[0] + 2)


def test_finite_sees_every_store_and_an_overflow():
    # one non-finite value in any of the three stores, of one stream or of
    # one row of a batch, makes the state not finite; so does an update
    # that overflows, which the stepping reference raises on
    one = EncoderState.zeros(CFG)
    batch = one.rows(None).rows(np.zeros(3, np.intp))
    assert one.finite() and batch.finite()
    for state in (one, batch):
        for store in ("S", "S_mvhs", "vec"):
            for bad in (np.nan, np.inf, -np.inf):
                broken = state.copy()
                getattr(broken, store).flat[-1] = bad
                assert not broken.finite() and state.finite()
    params = overflowing_mvhs()[0]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="after event 0"):
        encode_sequence_recurrent(params, [3, 5], [0, 10])


def test_row_slice_writes_through_to_the_stores():
    batch = EncoderState.zeros(CFG).rows(None).rows(np.zeros(4, np.intp))
    view = batch.rows(slice(1, 3))
    for a in view.tensors() + [view.last_t, view.event_index]:
        a[...] = 7
    # the batch axis of the stores is the one before the heads in S and
    # S_mvhs, and the first in the others
    for a in (batch.S, batch.S_mvhs):
        assert np.all(a[..., 1:3, :] == 7) and not a[..., [0, 3], :].any()
    assert np.all(batch.vec[1:3] == 7) and not batch.vec[[0, 3]].any()
    assert np.array_equal(batch.last_t, [-1, 7, 7, -1])
    assert np.array_equal(batch.event_index, [0, 7, 7, 0])


def test_encode_sequence_returns_heads_innermost_states(params):
    # the chunked path writes into a copy of its input state, so it hands
    # back the order `zeros` made, which the runtime steps fastest
    tokens, dts = random_stream(32, 70)
    _, st = encode_sequence(params, tokens[:40], dts[:40])
    _, st2 = encode_sequence(params, tokens[40:], dts[40:], st)
    for s in (st, st2):
        for S in [b.S for b in s.blocks] + [s.mvhs.S]:
            assert heads_innermost(S), S.strides


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_runtime_step_ignores_state_strides(params, dtype, tol):
    # the same three streams held in C order and heads-innermost step to
    # the same states and outputs
    p = params.astype(dtype)
    rt = EncoderRuntime(p)
    inner = EncoderState.zeros(CFG, dtype).rows(None).rows(np.zeros(3, np.intp))
    rng = np.random.default_rng(30)
    for a in inner.tensors():
        a[...] = rng.normal(size=a.shape)
    # stores whose memory order is (n_blocks, B, N, Dh, Dh) and (B, N, Dh, Dh),
    # so that every matrix state is C order; each permutation is its own inverse
    blocks, mvhs = (0, 3, 4, 1, 2), (2, 3, 0, 1)
    c_order = EncoderState(np.array(inner.S.transpose(blocks), order="C").transpose(blocks),
                           np.array(inner.S_mvhs.transpose(mvhs), order="C").transpose(mvhs),
                           inner.vec.copy(), inner.last_t.copy(), inner.event_index.copy())
    assert all(S.flags.c_contiguous for S in [b.S for b in c_order.blocks] + [c_order.mvhs.S])
    assert heads_innermost(inner.mvhs.S) and inner.mvhs.S.strides != c_order.mvhs.S.strides
    tokens, dts = random_stream(31, 60)
    for t in range(0, 60, 3):
        rt.step(inner, tokens[t:t + 3], dts[t:t + 3].astype(float))
        rt.step(c_order, tokens[t:t + 3], dts[t:t + 3].astype(float))
    assert inner.finite() and c_order.finite()
    for a, b in zip(inner.tensors(), c_order.tensors()):
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))
    assert np.array_equal(inner.event_index, c_order.event_index)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_runtime_input_embedding_is_embed_events(params, dtype):
    # the live path's embedding of a (token, gap) is the offline path's,
    # bit for bit, at the gaps a record can carry and between them
    p = params.astype(dtype)
    rt = EncoderRuntime(p)
    seen = []
    ln0 = rt.ln0
    rt.ln0 = lambda x: (seen.append(x.copy()), ln0(x))[1]
    rng = np.random.default_rng(33)
    dts = np.concatenate([[0, 1, 65535], rng.integers(0, 1 << 20, size=13)])
    tokens = rng.integers(0, CFG.vocab, size=len(dts))
    state = EncoderState.zeros(CFG, dtype).rows(None).rows(np.zeros(len(dts), np.intp))
    rt.step(state, tokens, dts)
    want = embed_events(tokens, dts, p.embed)
    assert seen[0].dtype == want.dtype == dtype
    assert np.array_equal(seen[0], want)
