import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.config import ENCODER_PROFILES, EncoderConfig
from eva.encoder import EncoderState, encode_sequence, encode_sequence_recurrent
from eva.mvhs import select_channels
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
    for tk, dt in zip(tokens, dts):
        rt.step(fast, int(tk), int(dt))
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
    rt = EncoderRuntime(params)
    for tk, dt in zip(tokens, dts):
        rt.step(fast, int(tk), int(dt))
    scale = np.abs(ref.mvhs.S).max()
    assert np.abs(fast.mvhs.S - ref.mvhs.S).max() / scale <= 1e-5  # f32 profile


def test_ingest_event_tracks_timestamps(params):
    rt = EncoderRuntime(params)
    st = EncoderState.zeros(CFG)
    rt.ingest(st, 3, 100)
    assert st.last_t == 100 and st.event_index == 1
    rt.ingest(st, 4, 130)
    assert st.last_t == 130 and st.event_index == 2
    assert select_channels(st.mvhs.S, CFG.n_out).shape == (2, 8, 8)


def test_first_event_gap_is_zero(params):
    # stream start: dt = 0 regardless of the absolute timestamp
    rt = EncoderRuntime(params)
    a = EncoderState.zeros(CFG)
    b = EncoderState.zeros(CFG)
    rt.ingest(a, 5, 0)
    rt.ingest(b, 5, 999_999)
    assert np.array_equal(a.mvhs.S, b.mvhs.S)
