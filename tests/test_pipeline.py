import threading

import numpy as np
import pytest

from eva.config import ENCODER_PROFILES, EncoderConfig
from eva.encoder import encode_events, encode_sequence
from eva.events import SensorGeometry, make_events, synth_generate
from eva.params import init_encoder_params
from eva.pipeline import A2SPipeline, bench, encode_offline

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
    got = pipe._patches[(0, 0)].state
    assert np.allclose(got.mvhs.S, ref.mvhs.S, rtol=1e-12)


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


def test_bench_report(small_params):
    geom = SensorGeometry(8, 8, 8)
    ev = synth_generate("uniform_noise", geom, 50_000, 4000.0, seed=5)
    rep = bench(small_params, geom, ev)
    assert rep["events"] == len(ev)
    assert rep["events_per_sec"] > 0
    assert rep["p99_us"] >= rep["mean_us"] * 0.1
    rep2 = bench(small_params, geom, ev)
    assert rep2["checksum"] == rep["checksum"]  # deterministic final state


def test_bench_empty():
    params = init_encoder_params(SMALL, seed=0)
    rep = bench(params, SensorGeometry(8, 8, 8), make_events([], [], [], []))
    assert rep["events"] == 0


def test_env_threads(monkeypatch):
    from eva.pipeline import env_threads
    monkeypatch.setenv("EVA_THREADS", "3")
    assert env_threads() == 3
    monkeypatch.delenv("EVA_THREADS")
    assert env_threads() == 1


def test_batch_ingest_rejects_out_of_bounds(small_params):
    geom = SensorGeometry(8, 8, 8)
    pipe = A2SPipeline(small_params, geom, threads=1)
    ev = make_events([1, 2, 3], [0, 99, 1], [0, 0, 0], [0, 0, 3])
    acc, rej = pipe.ingest_events(ev)
    assert (acc, rej) == (1, 2)
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
    a, b = batch.snapshot(), loop.snapshot()
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.watermarks, b.watermarks)


def _assert_zero_state(st):
    for arr in [st.mvhs.S, st.mvhs.prev] + [a for bs in st.blocks
                                           for a in (bs.S, bs.tm_prev, bs.cm_prev)]:
        assert np.all(arr == 0.0)


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
    patch = pipe._patches[(0, 0)].state
    assert patch.last_t == -1 and patch.event_index == 0
    _assert_zero_state(patch)
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
    _assert_zero_state(pipe._patches[(0, 0)].state)
    assert pipe.snapshot().watermarks[0, 0] == 100
    assert not pipe.ingest(50, 0, 0, 0)  # still older than the watermark
    assert pipe.ingest(150, 0, 0, 0)
    stats = pipe.stats()
    assert stats["events_nonfinite"] == 1
    assert stats["events_rejected"] == 2 and stats["events_ingested"] == 2
