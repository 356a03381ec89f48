import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.config import ENCODER_PROFILES, EncoderConfig
from eva.encoder import (EncoderState, backward_train, encode_sequence,
                         encode_sequence_recurrent, forward_train)
from eva.params import init_encoder_params, randomize_params
from eva.runtime import EncoderRuntime

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
    snaps_p, st_p = encode_sequence(params, tokens, dts, checkpoints=cps, chunk=16)
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
    _, whole = encode_sequence(params, tokens, dts, chunk=16)
    _, half = encode_sequence(params, tokens[:cut], dts[:cut], chunk=16)
    _, full = encode_sequence(params, tokens[cut:], dts[cut:], half, chunk=16)
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
        assert rt.step(row, tokens[i:i + 1], dts[i:i + 1]) is None  # finite
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
    _, st_p = encode_sequence(params, tokens, dts, chunk=16)
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snaps_p, _ = encode_sequence(params, tokens, dts, checkpoints=cps, chunk=16)
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


def test_first_event_gap_is_zero(params):
    # stream start: dt = 0 regardless of the absolute timestamp
    rt = EncoderRuntime(params)
    st = EncoderState.zeros(CFG).rows(None).rows(np.zeros(2, np.intp))
    rt.ingest(st, np.array([5, 5]), np.array([0, 999_999]))
    assert np.array_equal(st.mvhs.S[0], st.mvhs.S[1])
