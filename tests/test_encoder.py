import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.config import ENCODER_PROFILES, EncoderConfig, TargetSpec, TrainConfig
from eva.embedding import embed_events
from eva.encoder import (EncoderState, backward_train, encode_events, encode_sequence,
                         encode_sequence_recurrent, forward_train)
from eva.events import make_events
from eva.params import init_encoder_params
from eva.runtime import EncoderRuntime, _Scratch
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

    specs = (TargetSpec("ec", "mrp", span_us=50_000),
             TargetSpec("ec", "nrp", span_us=20_000))
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
    # two streams in one batch: each row keeps its own watermark
    rt = EncoderRuntime(params)
    st = EncoderState.zeros(CFG, batch=2)
    ids, rows = rt.ingest(st, np.array([0, 1]), np.array([3, 5]), np.array([100, 7]))
    assert ids.tolist() == [0, 1]
    assert rows.last_t.tolist() == [100, 7]
    st.put(ids, rows)
    ids, rows = rt.ingest(st, np.array([0, 1]), np.array([4, 6]), np.array([130, 9]))
    assert rows.last_t.tolist() == [130, 9]
    assert rows.mvhs.S[0][:CFG.n_out].shape == (2, 8, 8)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_runtime_ingest_of_ragged_waves_equals_each_row_stepped(params, dtype, tol):
    # one call over 20 tokens of five rows, 2, 7, 1, 5 and 5 of them, so the
    # rows step in the order 1, 3, 4, 0, 2 and the waves shrink 5, 4, 3, 3,
    # 3, 1, 1; each row starts from its own state (row 2 from zeros) and
    # must end where stepping its tokens one at a time through
    # encode_sequence_recurrent ends
    p = params.astype(dtype)
    rng = np.random.default_rng(35)
    counts = [2, 7, 1, 5, 5]
    B = len(counts)
    batch = EncoderState.zeros(p.config, B)
    starts, toks, ts = [], [], []
    for s, c in enumerate(counts):
        if s != 2:
            pre_tok, pre_dt = random_stream(40 + s, 6)
            _, st = encode_sequence_recurrent(p, pre_tok, pre_dt)
            st.last_t = 1_000 * s
            batch.put([s], st.rows(None))
        else:
            st = EncoderState.zeros(p.config)
        starts.append(st)
        toks.append(rng.integers(0, CFG.vocab, size=c))
        ts.append(5_000 + np.sort(rng.integers(0, 4_000, size=c)))
    pid = np.repeat(np.arange(B), counts)
    ids, rows = EncoderRuntime(p).ingest(batch, pid, np.concatenate(toks), np.concatenate(ts))
    assert ids.tolist() == [1, 3, 4, 0, 2]
    for s in range(B):
        prev = starts[s].last_t
        dts = np.diff(ts[s], prepend=ts[s][0] if prev < 0 else prev)
        _, want = encode_sequence_recurrent(p, toks[s], dts, starts[s])
        got = rows.rows(np.flatnonzero(ids == s))
        for g, w in zip(got.tensors(), want.tensors()):
            assert np.max(np.abs(g[0] - w)) <= tol * np.max(np.abs(w))
        assert got.last_t[0] == ts[s][-1]


def _stores(state):
    return (state.S, state.S_mvhs, state.vec, state.last_t)


def test_encode_events_refuses_time_going_back(params):
    # what the live path counts out of order raises here, naming the event,
    # before anything is encoded; equal times (gap 0) are valid
    ev = lambda *ts: make_events(list(ts), [1] * len(ts), [2] * len(ts), [0] * len(ts))
    _, state = encode_events(params, ev(1, 2, 2, 4))
    assert state.last_t == 4
    before = state.copy()
    for events, msg in ((ev(10, 5, 20), "event 1 at t = 5 .* 10$"),
                        (ev(3), "event 0 at t = 3 .* 4$")):
        with pytest.raises(ValueError, match=msg):
            encode_events(params, events, state)
        for a, b in zip(_stores(state), _stores(before)):
            assert np.array_equal(a, b)
    snaps, tied = encode_events(params, ev(4, 4, 6), state)
    # token (p * H + y) * W + x = 2 * 4 + 1
    want, _ = encode_sequence(params, [9] * 3, [0, 0, 2], state)
    assert tied.last_t == 6 and np.array_equal(snaps, want)


def test_runtime_buffer_reuse_is_invisible():
    # one runtime through calls of 256 tokens (four waves), 1, 37 (five
    # waves), 300 (more rows than any before, so its buffers grow) and 2:
    # each call returns, bit for bit, the rows a fresh runtime returns
    cfg = ENCODER_PROFILES["small"]
    p = init_encoder_params(cfg, seed=0)
    rng = np.random.default_rng(21)
    rt = EncoderRuntime(p)
    state = EncoderState.zeros(cfg, 128)
    t = 0
    for sizes in ([64] * 4, [1], [12, 10, 8, 4, 3], [100] * 3, [2]):
        n = sum(sizes)
        counts = rng.permutation([sum(b > s for b in sizes) for s in range(sizes[0])])
        pid = np.repeat(np.sort(rng.choice(128, sizes[0], replace=False)), counts)
        tokens = rng.integers(0, cfg.vocab, n)
        ts = t + np.cumsum(rng.integers(1, 500, n))
        t = int(ts[-1])
        ids, rows = rt.ingest(state, pid, tokens, ts)
        fresh_ids, fresh = EncoderRuntime(p).ingest(state, pid, tokens, ts)
        assert np.array_equal(ids, fresh_ids)
        for a, b in zip(_stores(rows), _stores(fresh)):
            assert np.array_equal(a, b)
        state.put(ids, rows)


@pytest.mark.parametrize("finite", [True, False])
def test_runtime_ingest_leaves_the_store_unchanged(params, finite):
    # the pipeline replays a call whose rows turn non-finite from the store,
    # so a call, of any outcome, never writes it
    p = params if finite else overflowing_mvhs()[0]
    cfg = p.config
    rng = np.random.default_rng(36)
    store = EncoderState.zeros(cfg, 4)
    for a in store.tensors():
        a[...] = rng.normal(size=a.shape)
    store.last_t[...] = [5, -1, 7, 2]
    before = store.copy()
    pid = np.array([0, 0, 2, 3, 3, 3])
    with np.errstate(**({} if finite else dict(over="ignore", invalid="ignore"))):
        ids, rows = EncoderRuntime(p).ingest(store, pid, rng.integers(0, cfg.vocab, 6),
                                             np.array([10, 20, 30, 40, 50, 60]))
    assert ids.tolist() == [3, 0, 2] and rows.finite() == finite
    assert rows.last_t.tolist() == [60, 20, 30]
    for a, b in zip(_stores(store), _stores(before)):
        assert np.array_equal(a, b)


def test_first_event_gap_is_zero(params):
    # stream start: dt = 0 regardless of the absolute timestamp
    rt = EncoderRuntime(params)
    st = EncoderState.zeros(CFG, batch=2)
    _, rows = rt.ingest(st, np.array([0, 1]), np.array([5, 5]), np.array([0, 999_999]))
    assert np.array_equal(rows.mvhs.S[0], rows.mvhs.S[1])


def test_state_copies_keep_heads_innermost(params):
    st = EncoderState.zeros(CFG)
    batch = EncoderState.zeros(CFG, batch=3)
    for s in (st, st.copy(), st.rows(None), batch, batch.copy(), batch.rows(np.array([2, 0]))):
        for S in [b.S for b in s.blocks] + [s.mvhs.S]:
            assert heads_innermost(S), S.strides
    # stepping keeps the order, and a copy made after it too
    EncoderRuntime(params).step(batch, np.array([1, 2, 3]), np.array([0.0, 5.0, 9.0]))
    assert all(heads_innermost(b.S) for b in batch.copy().blocks)


def test_finite_sees_every_store_and_an_overflow():
    # one non-finite value in any of the three stores, of one stream or of
    # one row of a batch, makes the state not finite; so does an update
    # that overflows, which the stepping reference raises on, and the
    # chunked path too, which checks its final state once
    one = EncoderState.zeros(CFG)
    batch = EncoderState.zeros(CFG, batch=3)
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
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError, match="after 3 events"):
        encode_sequence(params, [3, 5, 7], [0, 10, 10])


def _fields(state):
    """Every init field of an `EncoderState`, by name, so that a field added
    to it is checked below without naming it here."""
    return {f.name: getattr(state, f.name) for f in dataclasses.fields(state) if f.init}


def _batch_axis(full, rows):
    # the one axis on which a batched field and its gathered rows differ
    assert full.ndim == rows.ndim
    (axis,) = [i for i, (a, b) in enumerate(zip(full.shape, rows.shape)) if a != b]
    return axis


def test_state_ops_carry_every_field():
    # zeros carries every field of the state, not only the tensors; copy,
    # rows and put are checked field by field in the tests below
    one, batch = EncoderState.zeros(CFG), EncoderState.zeros(CFG, batch=5)
    assert _fields(one).keys() == _fields(batch).keys() >= {"S", "S_mvhs", "vec", "last_t"}
    # zeros: every row of a batch is one stream's state before any event,
    # with the batch axis where rows(None) puts it
    view = _fields(one.rows(None))
    for k in range(5):
        for name, a in _fields(batch.rows(np.array([k]))).items():
            assert np.array_equal(a, view[name]) and a.dtype == view[name].dtype, name


def test_row_view_writes_through_to_the_stores():
    # rows(None) views one stream's stores, so the runtime steps it where it
    # lives; a field one stream holds as an int becomes a new array
    one = EncoderState.zeros(CFG)
    fresh = _fields(EncoderState.zeros(CFG))
    view = _fields(one.rows(None))
    assert view.keys() == fresh.keys()
    for name, a in view.items():
        a[...] = 7
        orig = _fields(one)[name]
        if isinstance(orig, np.ndarray):
            assert np.shares_memory(a, orig) and np.all(orig == 7), name
        else:
            assert a.shape == (1,) and orig == fresh[name], name


def _random_batch(seed=34):
    batch = EncoderState.zeros(CFG, batch=5)
    rng = np.random.default_rng(seed)
    for a in _fields(batch).values():
        a[...] = rng.integers(0, 100, size=a.shape)
    return batch


def test_batched_copy_owns_every_array():
    # copy owns every field, of one stream and of a batch
    for state in (EncoderState.zeros(CFG), _random_batch()):
        for name, a in _fields(state.copy()).items():
            orig = _fields(state)[name]
            assert np.array_equal(a, orig), name
            assert not (isinstance(a, np.ndarray) and np.shares_memory(a, orig)), name


def test_put_writes_back_exactly_the_rows_taken():
    # rows(ids) gathers each field's rows ids, into new arrays or each into
    # a scratch buffer of its own
    batch = _random_batch()
    ids, scratch, before = np.array([3, 0]), _Scratch(), _fields(batch.copy())
    new, kept = _fields(batch.rows(ids)), _fields(batch.rows(ids, scratch))
    bufs = list(scratch.bufs.values())
    assert len(bufs) == len(new)
    axes = {}
    for name, a in _fields(batch).items():
        axis = axes[name] = _batch_axis(a, new[name])
        assert a.shape[axis] == 5 and new[name].shape[axis] == 2, name
        assert np.array_equal(new[name], a.take(ids, axis)), name
        assert np.array_equal(kept[name], new[name]) and not np.shares_memory(new[name], a), name
        assert sum(np.shares_memory(kept[name], b) for b in bufs) == 1, name
    # put writes back exactly the rows taken: row k of the gather gets + k + 1
    for name, a in new.items():
        a += np.arange(1, 3).reshape((1,) * axes[name] + (2,) + (1,) * (a.ndim - axes[name] - 1))
    batch.put(ids, EncoderState(**new))
    for name, a in _fields(batch).items():
        for k, plus in ((1, 0), (2, 0), (4, 0), (3, 1), (0, 2)):
            got, was = a.take(k, axes[name]), before[name].take(k, axes[name])
            assert np.all(got == was + plus), (name, k)


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
    inner = EncoderState.zeros(p.config, 3)
    rng = np.random.default_rng(30)
    for a in inner.tensors():
        a[...] = rng.normal(size=a.shape)
    # stores whose memory order is (n_blocks, B, N, Dh, Dh) and (B, N, Dh, Dh),
    # so that every matrix state is C order; each permutation is its own inverse
    blocks, mvhs = (0, 3, 4, 1, 2), (2, 3, 0, 1)
    c_order = EncoderState(np.array(inner.S.transpose(blocks), order="C").transpose(blocks),
                           np.array(inner.S_mvhs.transpose(mvhs), order="C").transpose(mvhs),
                           inner.vec.copy(), inner.last_t.copy())
    assert all(S.flags.c_contiguous for S in [b.S for b in c_order.blocks] + [c_order.mvhs.S])
    assert heads_innermost(inner.mvhs.S) and inner.mvhs.S.strides != c_order.mvhs.S.strides
    tokens, dts = random_stream(31, 60)
    for t in range(0, 60, 3):
        rt.step(inner, tokens[t:t + 3], dts[t:t + 3].astype(float))
        rt.step(c_order, tokens[t:t + 3], dts[t:t + 3].astype(float))
    assert inner.finite() and c_order.finite()
    for a, b in zip(inner.tensors(), c_order.tensors()):
        assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


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
    state = EncoderState.zeros(p.config, len(dts))
    rt.step(state, tokens, dts)
    want = embed_events(tokens, dts, p.embed)
    assert seen[0].dtype == want.dtype == dtype
    assert np.array_equal(seen[0], want)
