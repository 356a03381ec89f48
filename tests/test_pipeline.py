import threading
from dataclasses import replace

import numpy as np
import pytest

from eva.config import ENCODER_PROFILES, EncoderConfig
from eva.encoder import encode_events, encode_sequence, encode_sequence_recurrent
from eva.events import SensorGeometry, make_events, partition_patches, synth_generate
from eva.params import init_encoder_params
from eva.pipeline import A2SPipeline, encode_offline

# an overflow or invalid value on the serving or offline path must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SMALL = EncoderConfig(d_model=16, n_blocks=2, n_heads=2, d_ffn=24, d_lora=4,
                      d_w=4, mvhs_heads=2, mvhs_d_head=8, n_out=2, patch=8,
                      precision="f64")


@pytest.fixture(scope="module")
def small_params():
    return init_encoder_params(SMALL, seed=0)


def test_single_event_matches_reference_composition(small_params):
    geom = SensorGeometry(16, 16, 8)
    pipe = A2SPipeline(small_params, geom, threads=1)
    assert pipe.ingest(100, 3, 2, 1)
    token = 1 * 64 + 2 * 8 + 3
    _, ref = encode_sequence(small_params, [token], [0])
    got = pipe._state.mvhs.S[0]  # patch (0, 0) is row 0 of the stacks
    assert np.allclose(got, ref.mvhs.S, rtol=1e-12)


def test_stream_matches_batch_encoding(small_params):
    geom = SensorGeometry(8, 8, 8)
    ev = synth_generate("moving_dot", geom, 100_000, 3000.0, seed=1)
    pipe = A2SPipeline(small_params, geom, threads=1)
    acc, rej = pipe.ingest_events(ev)
    assert (acc, rej) == (len(ev), 0)
    _, state = encode_events(small_params, ev)
    live = pipe.snapshot().values
    want = state.mvhs.S[:SMALL.n_out].astype(np.float32)
    rel = np.abs(live - want).max() / np.abs(want).max()
    assert rel <= 1e-9


def test_patch_isolation(small_params):
    geom = SensorGeometry(16, 16, 8)
    ev_a = make_events([10, 20, 30], [1, 2, 3], [1, 1, 1], [0, 1, 0])     # patch (0,0)
    ev_b = make_events([15, 25], [9, 10], [9, 9], [1, 1])                 # patch (1,1)
    both = np.sort(np.concatenate([ev_a, ev_b]), order="t", kind="stable")

    pipe_both = A2SPipeline(small_params, geom, threads=1)
    pipe_both.ingest_events(both)
    pipe_a = A2SPipeline(small_params, geom, threads=1)
    pipe_a.ingest_events(ev_a)

    snap_both = pipe_both.snapshot()
    snap_a = pipe_a.snapshot()
    assert np.array_equal(snap_both.values[:, :8, :8], snap_a.values[:, :8, :8])
    assert np.all(snap_a.values[:, 8:, 8:] == 0.0)
    assert snap_both.watermarks[0, 0] == 30
    assert snap_both.watermarks[1, 1] == 25
    assert snap_both.watermarks[0, 1] == -1


def test_zero_events_zero_frame(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(16, 16, 8), threads=1)
    snap = pipe.snapshot()
    assert np.all(snap.values == 0.0)
    assert np.all(snap.watermarks == -1)


def test_out_of_order_rejected_and_counted(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(8, 8, 8), threads=1)
    assert pipe.ingest(100, 0, 0, 0)
    assert not pipe.ingest(50, 1, 1, 1)  # same patch, older timestamp
    stats = pipe.stats()
    assert stats["events_ingested"] == 1
    assert stats["events_rejected"] == 1


def test_out_of_bounds_ignored(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(8, 8, 8), threads=1)
    assert not pipe.ingest(1, 99, 0, 0)
    assert not pipe.ingest(1, 0, 0, 3)
    stats = pipe.stats()
    assert stats["events_ingested"] + stats["events_rejected"] == 2
    assert stats["events_out_of_bounds"] == 2


def test_snapshot_shape_dvs_profile():
    cfg = ENCODER_PROFILES["dvs"]
    params = init_encoder_params(cfg, seed=0)
    pipe = A2SPipeline(params, SensorGeometry(128, 128, 16), threads=1)
    snap = pipe.snapshot()
    assert snap.values.shape == (16, 64, 64)  # 8x8 grid of 8-px tiles


def test_snapshot_shape_full_resolution_profile():
    cfg = ENCODER_PROFILES["gen1"]
    params = init_encoder_params(cfg, seed=0)
    pipe = A2SPipeline(params, SensorGeometry(64, 64, 16), threads=1)
    snap = pipe.snapshot()
    assert snap.values.shape == (4, 64, 64)  # d_head = patch: full resolution


def test_snapshot_single_patch_selector(small_params):
    geom = SensorGeometry(16, 16, 8)
    pipe = A2SPipeline(small_params, geom, threads=1)
    pipe.ingest(5, 9, 9, 1)
    snap = pipe.snapshot([(1, 1)])
    assert snap.watermarks[1, 1] == 5
    assert snap.watermarks[0, 0] == -1
    with pytest.raises(KeyError):
        pipe.snapshot([(7, 7)])


def test_threaded_ingest_matches_serial(small_params):
    geom = SensorGeometry(16, 16, 8)
    ev = synth_generate("uniform_noise", geom, 100_000, 5000.0, seed=2)
    serial = A2SPipeline(small_params, geom, threads=1)
    serial.ingest_events(ev)
    threaded = A2SPipeline(small_params, geom, threads=4)
    threaded.ingest_events(ev)
    assert np.array_equal(serial.snapshot().values, threaded.snapshot().values)


def test_concurrent_snapshots_consistent(small_params):
    geom = SensorGeometry(8, 8, 8)
    ev = synth_generate("uniform_noise", geom, 200_000, 2000.0, seed=3)
    pipe = A2SPipeline(small_params, geom, threads=1)
    results = []
    def snapper():
        for _ in range(5):
            results.append(pipe.snapshot())
    threads = [threading.Thread(target=snapper) for _ in range(2)]
    for th in threads:
        th.start()
    pipe.ingest_events(ev)
    for th in threads:
        th.join()
    # every concurrent frame corresponds to a whole number of events: its
    # watermark must match some event timestamp (or be empty)
    valid_ts = {-1} | set(ev["t"].tolist())
    for snap in results:
        assert int(snap.watermarks[0, 0]) in valid_ts


def test_encode_offline_periodic(small_params):
    geom = SensorGeometry(8, 8, 8)
    ev = synth_generate("moving_dot", geom, 100_000, 1000.0, seed=4)
    frames = encode_offline(small_params, ev, geom, period_us=20_000)
    assert len(frames) >= 4
    t_refs = [t for t, _ in frames]
    assert t_refs == sorted(t_refs)
    assert all(f.watermark <= t for t, f in frames)
    # final periodic frame equals the single-shot encode
    single = encode_offline(small_params, ev, geom)[-1][1]
    assert np.allclose(frames[-1][1].values, single.values, rtol=1e-12)


def test_encode_offline_matches_per_boundary_encodes():
    # one encode per patch must give every boundary's frame: patch (0, 1)
    # is silent in the second period, (1, 0) starts after the second
    # boundary and (1, 1) never fires
    params = init_encoder_params(replace(SMALL, precision="f32"), seed=0)
    geom = SensorGeometry(16, 16, 8)
    rng = np.random.default_rng(9)
    spans = {(0, 0): [(0, 39_990, 300)], (0, 1): [(0, 9_999, 60), (20_001, 39_990, 90)],
             (1, 0): [(25_000, 39_990, 80)]}
    parts = []
    for (r, c), pieces in spans.items():
        for lo, hi, n in pieces:
            t = rng.integers(lo, hi + 1, size=n)
            t[:2] = lo, hi
            parts.append(make_events(t, c * 8 + rng.integers(0, 8, n),
                                     r * 8 + rng.integers(0, 8, n), rng.integers(0, 2, n)))
    ev = np.concatenate(parts)
    ev = ev[np.argsort(ev["t"], kind="stable")]
    frames = encode_offline(params, ev, geom, period_us=10_000)
    assert [t for t, _ in frames] == [10_000, 20_000, 30_000, 39_990]
    Dh, n_out = SMALL.mvhs_d_head, SMALL.n_out
    by_patch = partition_patches(ev, geom)
    for t_ref, snap in frames:
        want = np.zeros_like(snap.values)
        marks = np.full((2, 2), -1, np.int64)
        for (r, c), ps in by_patch.items():
            upto = ps.events[ps.events["t"] <= t_ref]
            if len(upto):
                snaps, _ = encode_events(params, upto)
                want[:, r * Dh:(r + 1) * Dh, c * Dh:(c + 1) * Dh] = snaps[-1, :n_out]
                marks[r, c] = upto["t"][-1]
        assert np.array_equal(snap.watermarks, marks)
        assert np.max(np.abs(snap.values - want)) <= 1e-5 * np.max(np.abs(want))
    assert frames[1][1].watermarks[0, 1] == frames[0][1].watermarks[0, 1] > 0
    assert frames[1][1].watermarks[1, 0] == -1 < frames[2][1].watermarks[1, 0]
    assert np.all(frames[-1][1].values[:, Dh:, Dh:] == 0.0)


def test_bench_report(small_params):
    # one-at-a-time ingestion is deterministic and accounts for every event
    geom = SensorGeometry(8, 8, 8)
    ev = synth_generate("uniform_noise", geom, 50_000, 4000.0, seed=5)
    pipes = [A2SPipeline(small_params, geom, threads=1) for _ in range(2)]
    for pipe in pipes:
        for e in ev:
            pipe.ingest(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"]))
    a, b = (pipe.snapshot() for pipe in pipes)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.watermarks, b.watermarks)
    stats = pipes[0].stats()
    assert stats["events_ingested"] + stats["events_rejected"] == len(ev)


def test_bench_empty():
    params = init_encoder_params(SMALL, seed=0)
    pipe = A2SPipeline(params, SensorGeometry(8, 8, 8))
    assert pipe.ingest_events(make_events([], [], [], [])) == (0, 0)
    snap = pipe.snapshot()
    assert not snap.values.any()
    assert np.all(snap.watermarks == -1)


def test_env_threads(small_params, monkeypatch):
    # EVA_THREADS no longer selects anything: ingestion is bitwise unchanged
    geom = SensorGeometry(16, 16, 8)
    ev = synth_generate("uniform_noise", geom, 50_000, 4000.0, seed=8)
    monkeypatch.delenv("EVA_THREADS", raising=False)
    plain = A2SPipeline(small_params, geom)
    got_plain = plain.ingest_events(ev)
    monkeypatch.setenv("EVA_THREADS", "3")
    env = A2SPipeline(small_params, geom)
    assert env.ingest_events(ev) == got_plain
    assert env.stats() == plain.stats()
    a, b = env.snapshot(), plain.snapshot()
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.watermarks, b.watermarks)


def test_batch_ingest_rejects_out_of_bounds(small_params):
    geom = SensorGeometry(8, 8, 8)
    pipe = A2SPipeline(small_params, geom, threads=1)
    ev = make_events([1, 2, 3], [0, 99, 1], [0, 0, 0], [0, 0, 3])
    acc, rej = pipe.ingest_events(ev)
    assert (acc, rej) == (1, 2)
    stats = pipe.stats()
    assert (stats["events_ingested"], stats["events_rejected"]) == (1, 2)
    assert stats["events_out_of_bounds"] == 2
    ref = A2SPipeline(small_params, geom, threads=1)
    ref.ingest_events(make_events([1], [0], [0], [0]))
    assert np.array_equal(pipe.snapshot().values, ref.snapshot().values)


def test_ingest_events_equals_ingest_loop(small_params):
    # interleaved patches, with out-of-order and out-of-bounds events
    geom = SensorGeometry(16, 16, 8)
    ev = synth_generate("uniform_noise", geom, 50_000, 4000.0, seed=6)
    rng = np.random.default_rng(7)
    late = rng.choice(len(ev), size=len(ev) // 10, replace=False)
    ev["t"][late] = np.maximum(ev["t"][late] - 5_000, 0)
    ev["x"][rng.choice(len(ev), size=5, replace=False)] = 99
    ev["p"][rng.choice(len(ev), size=5, replace=False)] = 2
    batch = A2SPipeline(small_params, geom, threads=1)
    loop = A2SPipeline(small_params, geom, threads=1)
    got = batch.ingest_events(ev)
    oks = [loop.ingest(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])) for e in ev]
    assert got == (sum(oks), len(oks) - sum(oks))
    assert 10 < got[1] < len(ev) // 2
    assert batch.stats() == loop.stats()
    stats = batch.stats()
    assert stats["events_ingested"] + stats["events_rejected"] == len(ev)
    assert stats["events_out_of_bounds"] == np.count_nonzero((ev["x"] == 99) | (ev["p"] == 2))
    a, b = batch.snapshot(), loop.snapshot()
    # waves step many patches per matmul and the loop one, so the f64 states
    # may differ in the last bits; their f32 snapshots stay bitwise equal
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.watermarks, b.watermarks)


def _patch_events(ev, geom, pid):
    """The events of patch pid = (row, col), in patch-local coordinates."""
    P = geom.patch
    mine = ev[(ev["y"] // P == pid[0]) & (ev["x"] // P == pid[1])].copy()
    mine["x"] %= P
    mine["y"] %= P
    return mine


def _reference(params, ev, geom, pid):
    """encode_sequence_recurrent on patch pid's own events."""
    from eva.embedding import event_to_token_dt
    P = geom.patch
    tokens, dts = event_to_token_dt(_patch_events(ev, geom, pid), P, P, None)
    return encode_sequence_recurrent(params, tokens, dts)[1]


def test_waves_shrink_with_unequal_patch_counts(small_params):
    # patch k of the 2x2 grid gets 40, 25, 9 and 1 events, so the later
    # waves step fewer patches; every patch must match its own stepping
    geom = SensorGeometry(16, 16, 8)
    rng = np.random.default_rng(9)
    parts = []
    for (r, c), n in zip([(0, 0), (0, 1), (1, 0), (1, 1)], [40, 25, 9, 1]):
        parts.append(make_events(np.sort(rng.integers(0, 50_000, n)),
                                 c * 8 + rng.integers(0, 8, n), r * 8 + rng.integers(0, 8, n),
                                 rng.integers(0, 2, n)))
    ev = np.concatenate(parts)
    ev = ev[np.argsort(ev["t"], kind="stable")]
    pipe = A2SPipeline(small_params, geom)
    assert pipe.ingest_events(ev) == (len(ev), 0)
    for k, pid in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        ref = _reference(small_params, ev, geom, pid)
        got = pipe._state.rows(slice(k, k + 1))
        for g, w in zip(got.tensors(), ref.tensors()):
            assert np.max(np.abs(g[0] - w)) <= 1e-12 * max(np.max(np.abs(w)), 1e-300)
        assert got.event_index[0] == ref.event_index
        assert got.last_t[0] == _patch_events(ev, geom, pid)["t"][-1]


def test_nonfinite_row_does_not_touch_its_wave(small_params):
    # one wave steps patch (0, 0), whose event hits an Inf embedding row,
    # and patch (1, 1), whose event does not
    params = small_params.astype(np.float64)
    bad = 1 * 64 + 2 * 8 + 3  # the token of event (x=3, y=2, p=1)
    params.embed[bad, 0] = np.inf
    geom = SensorGeometry(16, 16, 8)
    ev = make_events([10, 20, 30, 40], [0, 9, 3, 10], [0, 9, 2, 11], [0, 1, 1, 0])
    pipe = A2SPipeline(params, geom)
    with np.errstate(invalid="ignore", over="ignore"):
        assert pipe.ingest_events(ev) == (3, 1)
    stats = pipe.stats()
    assert stats["events_nonfinite"] == 1 and stats["events_rejected"] == 1
    _assert_zero_state(pipe, 0)
    assert pipe._state.last_t[0] == 10 and pipe._state.event_index[0] == 1
    assert pipe.snapshot().watermarks[0, 0] == 10
    ref = _reference(params, ev, geom, (1, 1))
    got = pipe._state.rows(slice(3, 4))
    for g, w in zip(got.tensors(), ref.tensors()):
        assert np.max(np.abs(g[0] - w)) <= 1e-12 * np.max(np.abs(w))
    assert got.last_t[0] == 40 and got.event_index[0] == 2


def _assert_zero_state(pipe, k):
    for arr in pipe._state.tensors():
        assert np.all(arr[k] == 0.0)


@pytest.mark.parametrize("poison", ["block W_o", "mvhs W_k"])
def test_nonfinite_event_resets_patch(small_params, poison):
    params = small_params.astype(np.float64)  # a copy: the fixture is shared
    if poison == "block W_o":
        params.blocks[1].W_o[0, 0] = np.inf
    else:
        params.mvhs.W_k[0, 0] = np.inf
    geom = SensorGeometry(16, 16, 8)
    pipe = A2SPipeline(params, geom, threads=1)
    with np.errstate(invalid="ignore", over="ignore"):
        assert not pipe.ingest(100, 3, 2, 1)
    assert pipe._state.last_t[0] == -1 and pipe._state.event_index[0] == 0
    _assert_zero_state(pipe, 0)
    stats = pipe.stats()
    assert stats["events_nonfinite"] == 1
    assert stats["events_rejected"] == 1 and stats["events_ingested"] == 0
    snap = pipe.snapshot()
    assert np.all(np.isfinite(snap.values))
    with np.errstate(invalid="ignore", over="ignore"):
        assert pipe.ingest_events(make_events([200], [9], [9], [0])) == (0, 1)
    assert pipe.stats()["events_nonfinite"] == 2


def test_nonfinite_event_keeps_watermark(small_params):
    params = small_params.astype(np.float64)
    bad = 1 * 64 + 2 * 8 + 3  # the token of event (x=3, y=2, p=1)
    params.embed[bad, 0] = np.inf
    pipe = A2SPipeline(params, SensorGeometry(16, 16, 8), threads=1)
    assert pipe.ingest(100, 0, 0, 0)
    with np.errstate(invalid="ignore", over="ignore"):
        assert not pipe.ingest(200, 3, 2, 1)
    _assert_zero_state(pipe, 0)
    assert pipe.snapshot().watermarks[0, 0] == 100
    assert not pipe.ingest(50, 0, 0, 0)  # still older than the watermark
    assert pipe.ingest(150, 0, 0, 0)
    stats = pipe.stats()
    assert stats["events_nonfinite"] == 1
    assert stats["events_rejected"] == 2 and stats["events_ingested"] == 2


def _heads_innermost(S):
    """Whether the matrix states S (..., N, Dh, Dh) are stored in memory
    order (Dh, Dh, ..., N)."""
    return np.moveaxis(S, (-2, -1), (0, 1)).flags.c_contiguous


def test_stacked_states_are_heads_innermost(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(16, 16, 8))
    pipe.ingest_events(make_events([1, 2, 3], [0, 9, 1], [0, 9, 1], [0, 1, 1]))
    st = pipe._state
    for s in (st, st.copy(), st.rows(np.array([3, 0]))):
        for S in [b.S for b in s.blocks] + [s.mvhs.S]:
            assert _heads_innermost(S), S.strides


def test_snapshot_tile_is_not_transposed(small_params):
    # two patches fed alternately, so every wave steps B = 2; the tile of
    # patch (1, 0) is its head matrix from encode_events, not the transpose
    geom = SensorGeometry(16, 16, 8)
    rng = np.random.default_rng(12)
    n = 30
    ev = make_events(np.arange(n) * 100, rng.integers(0, 8, n), rng.integers(0, 8, n) + 8 * (np.arange(n) % 2),
                     rng.integers(0, 2, n))
    pipe = A2SPipeline(small_params, geom)
    assert pipe.ingest_events(ev) == (n, 0)
    _, want = encode_events(small_params, _patch_events(ev, geom, (1, 0)))
    got = pipe._state.mvhs.S[2]  # patch (1, 0) is row 2 of the 2x2 grid
    W = want.mvhs.S
    assert np.max(np.abs(got - W)) <= 1e-12 * np.max(np.abs(W))
    assert np.max(np.abs(W - W.swapaxes(-1, -2))) > 1e-3 * np.max(np.abs(W))
    tile = pipe.snapshot().values[:, 8:16, 0:8]
    assert np.array_equal(tile, got[:SMALL.n_out].astype(np.float32))


def _rejection_frame():
    """Six events: two accepted, two late, one out of bounds, and one (token
    `_POISON` of patch (0, 0)) whose update is non-finite."""
    return make_events([100, 50, 200, 150, 300, 400], [0, 1, 9, 10, 99, 3],
                       [0, 1, 9, 10, 0, 2], [0, 0, 0, 1, 0, 1])


_POISON = 1 * 64 + 2 * 8 + 3  # the token of event (x=3, y=2, p=1)


def _poisoned(params):
    params = params.astype(np.float64)  # a copy: the fixture is shared
    params.embed[_POISON, 0] = np.inf
    return params


def test_out_of_order_has_its_own_key(small_params):
    params, ev = _poisoned(small_params), _rejection_frame()
    geom = SensorGeometry(16, 16, 8)
    batch, loop = A2SPipeline(params, geom), A2SPipeline(params, geom)
    with np.errstate(invalid="ignore", over="ignore"):
        assert batch.ingest_events(ev) == (2, 4)
        oks = [loop.ingest(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])) for e in ev]
    assert oks == [True, False, True, False, False, False]
    for stats in (batch.stats(), loop.stats()):
        assert (stats["events_out_of_order"], stats["events_nonfinite"],
                stats["events_out_of_bounds"]) == (2, 1, 1)
        assert stats["events_rejected"] == 4
        assert stats["events_ingested"] + stats["events_out_of_order"] + \
            stats["events_nonfinite"] + stats["events_out_of_bounds"] == len(ev)
