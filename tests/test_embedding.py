import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.config import EncoderConfig
from eva.embedding import (embed_events, embed_temporal, event_to_token_dt,
                           init_embedding_table, tok, untok)
from eva.events import make_events


def test_tok_spot_values():
    assert tok(0, 0, 0, 16, 16) == 0
    assert tok(3, 2, 1, 16, 16) == 291  # 256 + 32 + 3


def test_tok_bounds():
    with pytest.raises(ValueError):
        tok(16, 0, 0, 16, 16)
    with pytest.raises(ValueError):
        tok(0, 0, 2, 16, 16)


def test_tok_exhaustive_bijection_16x16():
    seen = set()
    for p in (0, 1):
        for y in range(16):
            for x in range(16):
                seen.add(tok(x, y, p, 16, 16))
    assert seen == set(range(512))
    assert EncoderConfig(patch=16).vocab == 512


def test_untok_spot():
    assert untok(291, 16, 16) == (3, 2, 1)
    assert untok(0, 16, 16) == (0, 0, 0)
    with pytest.raises(ValueError):
        untok(512, 16, 16)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 256), st.integers(1, 256), st.data())
def test_untok_roundtrip(H, W, data):
    token = data.draw(st.integers(0, 2 * H * W - 1))
    x, y, p = untok(token, H, W)
    assert tok(x, y, p, H, W) == token


def test_embed_temporal_zero():
    assert np.allclose(embed_temporal(0, 4), [0.0, 1.0, 0.0, 1.0])
    v = embed_temporal(0, 128)
    assert np.count_nonzero(v == 0.0) == 64
    assert np.count_nonzero(v == 1.0) == 64
    assert np.all(v[np.arange(128) % 2 == 0] == 0.0)


def test_embed_temporal_bounded():
    for dt in (1, 137, 10_000, 12_345_678):
        assert np.all(np.abs(embed_temporal(dt, 64)) <= 1.0)


def test_embed_temporal_scalar_oracle():
    import math
    dt, D = 100, 8
    got = embed_temporal(dt, D)
    for k in range(D):
        angle = dt / (10000.0 ** (2 * k / D))
        want = math.sin(angle) if k % 2 == 0 else math.cos(angle)
        assert got[k] == pytest.approx(want, abs=1e-15)


def test_embed_temporal_requires_even():
    with pytest.raises(ValueError):
        embed_temporal(1, 5)


def test_embed_event_zero_table():
    table = np.zeros((512, 4))
    out = embed_events(np.array([3]), np.array([0]), table)
    assert np.allclose(out[0], [0, 1, 0, 1])


def test_embed_event_one_hot_row():
    table = np.zeros((8, 4))
    table[5] = [1, 2, 3, 4]
    out = embed_events(np.array([5]), np.array([0]), table)
    assert np.allclose(out[0], [1, 3, 3, 5])


def test_embed_event_decomposition():
    rng = np.random.default_rng(0)
    table = rng.normal(size=(512, 16))
    toks = rng.integers(0, 512, size=20)
    dts = rng.integers(0, 5000, size=20)
    out = embed_events(toks, dts, table)
    for i in range(20):
        assert np.allclose(out[i], table[toks[i]] + embed_temporal(dts[i], 16))


def test_embed_event_additive_in_table_row():
    rng = np.random.default_rng(1)
    table = rng.normal(size=(32, 8))
    out0 = embed_events(np.array([7]), np.array([42]), table)
    bump = rng.normal(size=8)
    table2 = table.copy()
    table2[7] += bump
    out1 = embed_events(np.array([7]), np.array([42]), table2)
    assert np.allclose(out1 - out0, bump)


def test_event_to_token_dt_first_gap():
    ev = make_events([100, 130, 190], [1, 2, 3], [0, 0, 0], [0, 1, 0])
    toks, dts = event_to_token_dt(ev, 16, 16)
    assert dts.tolist() == [0, 30, 60]
    toks2, dts2 = event_to_token_dt(ev, 16, 16, prev_t=40)
    assert dts2.tolist() == [60, 30, 60]
    assert np.array_equal(toks, toks2)


def test_init_table_near_zero():
    rng = np.random.default_rng(2)
    table = init_embedding_table(512, 128, rng)
    assert table.shape == (512, 128)
    assert np.abs(table).max() <= 1e-4


def test_embed_event_single():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(2 * 16 * 16, 8))
    ev = make_events([150], [3], [2], [1])
    tokens, dts = event_to_token_dt(ev, 16, 16, prev_t=100)
    got = embed_events(tokens, dts, table)
    assert np.allclose(got, table[291] + embed_temporal(50, 8))
