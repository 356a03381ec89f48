import os
import platform
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eva.config import ENCODER_PROFILES, EncoderConfig
from eva.encoder import encode_events, encode_sequence, encode_sequence_recurrent
from eva.events import SensorGeometry, make_events, partition_patches, synth_generate
from eva.params import init_encoder_params
from eva.pipeline import CALL_EVENTS, A2SPipeline, encode_offline
from helpers import chunked_frame, heads_innermost, overflowing_mvhs

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
    pipe = A2SPipeline(small_params, geom)
    assert pipe.ingest(100, 3, 2, 1)
    token = 1 * 64 + 2 * 8 + 3
    _, ref = encode_sequence(small_params, [token], [0])
    got = pipe._state.mvhs.S[0]  # patch (0, 0) is row 0 of the stacks
    assert np.allclose(got, ref.mvhs.S, rtol=1e-12)


def test_stream_matches_batch_encoding(small_params):
    geom = SensorGeometry(8, 8, 8)
    ev = synth_generate("moving_dot", geom, 100_000, 3000.0, seed=1)
    pipe = A2SPipeline(small_params, geom)
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

    pipe_both = A2SPipeline(small_params, geom)
    pipe_both.ingest_events(both)
    pipe_a = A2SPipeline(small_params, geom)
    pipe_a.ingest_events(ev_a)

    snap_both = pipe_both.snapshot()
    snap_a = pipe_a.snapshot()
    assert np.array_equal(snap_both.values[:, :8, :8], snap_a.values[:, :8, :8])
    assert np.all(snap_a.values[:, 8:, 8:] == 0.0)
    assert snap_both.watermarks[0, 0] == 30
    assert snap_both.watermarks[1, 1] == 25
    assert snap_both.watermarks[0, 1] == -1


def test_zero_events_zero_frame(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(16, 16, 8))
    snap = pipe.snapshot()
    assert np.all(snap.values == 0.0)
    assert np.all(snap.watermarks == -1)


def test_out_of_order_rejected_and_counted(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(8, 8, 8))
    assert pipe.ingest(100, 0, 0, 0)
    assert not pipe.ingest(50, 1, 1, 1)  # same patch, older timestamp
    stats = pipe.stats()
    assert stats["events_ingested"] == 1
    assert stats["events_rejected"] == 1


def test_out_of_bounds_ignored(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(8, 8, 8))
    # x = 2**40 and p = 300 do not fit `EVENT_DTYPE`'s int32 x and int8 p
    bad = ((99, 0, 0), (0, 0, 3), (2 ** 40, 0, 0), (0, -5, 0), (0, 0, 300), (0, 0, -1))
    for x, y, p in bad:
        assert not pipe.ingest(1, x, y, p)
    stats = pipe.stats()
    assert stats["events_ingested"] + stats["events_rejected"] == len(bad)
    assert stats["events_out_of_bounds"] == len(bad)


def test_snapshot_shape_dvs_profile():
    cfg = ENCODER_PROFILES["dvs"]
    params = init_encoder_params(cfg, seed=0)
    pipe = A2SPipeline(params, SensorGeometry(128, 128, 16))
    snap = pipe.snapshot()
    assert snap.values.shape == (16, 64, 64)  # 8x8 grid of 8-px tiles


def test_snapshot_shape_full_resolution_profile():
    cfg = ENCODER_PROFILES["gen1"]
    params = init_encoder_params(cfg, seed=0)
    pipe = A2SPipeline(params, SensorGeometry(64, 64, 16))
    snap = pipe.snapshot()
    assert snap.values.shape == (4, 64, 64)  # d_head = patch: full resolution


def test_snapshot_single_patch_selector(small_params):
    geom = SensorGeometry(16, 16, 8)
    pipe = A2SPipeline(small_params, geom)
    pipe.ingest(5, 9, 9, 1)
    snap = pipe.snapshot([(1, 1)])
    assert snap.watermarks[1, 1] == 5
    assert snap.watermarks[0, 0] == -1
    with pytest.raises(KeyError):
        pipe.snapshot([(7, 7)])


def test_threaded_ingest_matches_serial(small_params):
    # `threads` is accepted and ignored
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
    pipe = A2SPipeline(small_params, geom)
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
    for bad in (0, -5):
        with pytest.raises(ValueError, match="period_us"):
            encode_offline(small_params, ev, geom, period_us=bad)


@pytest.fixture(scope="module")
def small_f32_params():
    return init_encoder_params(replace(SMALL, precision="f32"), seed=0)


def test_encode_offline_matches_per_boundary_encodes(small_f32_params):
    # the replay must give every boundary's frame of the chunked per-patch
    # encodes: patch (0, 1) is silent in the second period, (1, 0) starts
    # after the second boundary and (1, 1) never fires
    params = small_f32_params
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
    Dh = SMALL.mvhs_d_head
    for t_ref, snap in frames:
        want, marks = chunked_frame(params, ev, geom, t_ref)
        assert np.array_equal(snap.watermarks, marks)
        assert np.max(np.abs(snap.values - want)) <= 1e-5 * np.max(np.abs(want))
    assert frames[1][1].watermarks[0, 1] == frames[0][1].watermarks[0, 1] > 0
    assert frames[1][1].watermarks[1, 0] == -1 < frames[2][1].watermarks[1, 0]
    assert np.all(frames[-1][1].values[:, Dh:, Dh:] == 0.0)


# streams over the four patches of a 16 x 16 sensor: (patch, local x, local
# y, polarity, gap to the event before in us), gaps of 0 included and about
# one in eleven a 30 ms pause, longer than some periods
_STREAM = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 7),
                             st.integers(0, 1),
                             st.integers(0, 2_200).map(lambda d: d if d <= 2_000 else 30_000)),
                   min_size=1, max_size=80)


@settings(max_examples=60, deadline=None)
@given(records=_STREAM, period=st.one_of(st.none(), st.integers(10_000, 40_000)))
def test_encode_offline_matches_chunked_encodes_at_every_boundary(small_f32_params,
                                                                  records, period):
    patch, lx, ly, p, dt = map(np.array, zip(*records))
    r, c = np.divmod(patch, 2)
    ev = make_events(np.cumsum(dt), c * 8 + lx, r * 8 + ly, p)
    geom = SensorGeometry(16, 16, 8)
    frames = encode_offline(small_f32_params, ev, geom, period)
    assert frames[-1][0] == ev["t"][-1]
    for t_ref, snap in frames:
        want, marks = chunked_frame(small_f32_params, ev, geom, t_ref)
        assert np.array_equal(snap.watermarks, marks)
        assert np.max(np.abs(snap.values - want)) <= 1e-5 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["unsorted", "outside", "nonfinite"])
def test_encode_offline_never_drops_an_event_silently(small_params, case):
    # the replay raises once every event is in, naming the count of each
    # kind the pipeline rejected
    geom = SensorGeometry(16, 16, 8)
    params, t, x = small_params, [10, 15, 20, 30, 40], [1, 2, 4, 9, 5]
    if case == "unsorted":  # 15 follows 20 in patch (0, 0)
        t, err, match = [10, 20, 15, 30, 40], ValueError, ": 1 out of order .*, 0 outside"
    elif case == "outside":
        x, err, match = [1, 2, 4, 16, 5], ValueError, ": 0 out of order .*, 1 outside"
    else:  # event (3, 2, 1) is the token _POISON
        params, x, err, match = _poisoned(small_params), [1, 3, 4, 9, 5], FloatingPointError, \
            ": 1 with a non-finite update"
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(err, match=match):
        encode_offline(params, make_events(t, x, [2] * 5, [1] * 5), geom, period_us=10)
    encode_offline(small_params, make_events([10, 15, 20, 30, 40], [1, 2, 4, 9, 5],
                                             [2] * 5, [1] * 5), geom, period_us=10)


def test_overflowing_state_is_counted_live():
    # finite inputs whose k v^T overflows f32: every event is rejected as
    # non-finite, its patch zeroed, and the snapshot stays finite
    params, geom, ev = overflowing_mvhs()
    assert params.dtype == np.float32 and len(ev) == 40
    pipe = A2SPipeline(params, geom)
    with np.errstate(invalid="ignore", over="ignore"):
        assert pipe.ingest_events(ev) == (0, 40)
    stats = pipe.stats()
    assert stats["events_nonfinite"] == stats["events_rejected"] == 40
    assert pipe._state.finite() and np.isfinite(pipe.snapshot().values).all()
    assert (pipe._state.last_t == -1).all()


def test_overflowing_state_raises_offline():
    params, geom, ev = overflowing_mvhs()
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(FloatingPointError, match=": 40 with a non-finite update"):
        encode_offline(params, ev, geom, period_us=10_000)


def test_long_calls_are_cut_into_bounded_runtime_calls(small_params, monkeypatch):
    # a call of 5 K + 3 events (some late, some outside the sensor) steps in
    # runtime calls of at most K and equals K-sized calls and a loop of
    # `ingest`: counters exactly, snapshots and states to 1e-6 relative.
    # Poisoned, the (K + 40)-th event inside the sensor is the token
    # _POISON: only the runtime call that holds it goes again one event per
    # call, and every other call stays one call
    K = CALL_EVENTS
    geom = SensorGeometry(16, 16, 8)
    for poisoned in (False, True):
        rng = np.random.default_rng(21)
        ev = synth_generate("uniform_noise", geom, 1_000_000, 4000.0, seed=21)[:5 * K + 3]
        assert len(ev) == 5 * K + 3
        late = rng.random(len(ev)) < 0.1
        outside = rng.random(len(ev)) < 0.05
        inside = np.flatnonzero(~outside)
        params = small_params
        if poisoned:
            params = _poisoned(small_params)
            ev["x"] += ev["x"] % 8 == 3  # no event is the token _POISON ...
            bad = inside[K + 40]  # ... but this one, on time
            late[bad] = False
            ev["x"][bad], ev["y"][bad], ev["p"][bad] = 8 + 3, 2, 1
        ev["t"][late] -= 300
        ev["x"][outside] = 99
        whole, sliced, loop = (A2SPipeline(params, geom) for _ in range(3))
        calls = []
        real = whole.runtime.ingest
        monkeypatch.setattr(whole.runtime, "ingest",
                            lambda *a: calls.append(len(a[1])) or real(*a))
        # only the poison may overflow
        with np.errstate(**(dict(invalid="ignore", over="ignore") if poisoned else {})):
            got = whole.ingest_events(ev)
            parts = [sliced.ingest_events(ev[i:i + K]) for i in range(0, len(ev), K)]
            oks = [loop.ingest(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])) for e in ev]
        # with the poison, the second call is followed by one call per event
        # of it that a loop of `ingest` steps: the accepted ones and the poison
        n_one = sum(oks[i] for i in inside[K:2 * K]) + 1 if poisoned else 0
        assert len(calls) == -(-len(inside) // K) + n_one and max(calls) <= K
        assert calls[2:2 + n_one] == [1] * n_one and whole.nonfinite == poisoned
        assert min(calls[:2] + calls[2 + n_one:]) > 1
        assert got == tuple(map(sum, zip(*parts))) == (sum(oks), len(ev) - sum(oks))
        assert whole.stats() == sliced.stats() == loop.stats()
        a = whole.snapshot()
        for b in (sliced.snapshot(), loop.snapshot()):
            assert np.array_equal(a.watermarks, b.watermarks)
            assert np.max(np.abs(a.values - b.values)) <= 1e-6 * np.max(np.abs(b.values))
        for x, y in zip(whole._state.tensors(), loop._state.tensors()):
            assert np.max(np.abs(x - y)) <= 1e-6 * np.max(np.abs(y))


def test_runtime_scratch_is_bounded_by_one_call(small_params):
    # a 10 K-event call leaves no more bytes in the runtime's scratch, which
    # holds every buffer a call keeps (its gathered rows too), than a K-event
    # call over the same patches
    K = CALL_EVENTS
    geom = SensorGeometry(16, 16, 8)
    ev = synth_generate("uniform_noise", geom, 1_000_000, 4000.0, seed=22)[:10 * K]
    assert len(ev) == 10 * K
    one, ten = A2SPipeline(small_params, geom), A2SPipeline(small_params, geom)
    one.ingest_events(ev[:K])
    ten.ingest_events(ev)
    kept = [sum(b.nbytes for b in pipe.runtime.scratch.bufs.values()) for pipe in (one, ten)]
    assert 0 < kept[1] <= kept[0]
    assert "rows.S" in one.runtime.scratch.bufs


def test_bench_report(small_params):
    # one-at-a-time ingestion is deterministic and accounts for every event
    geom = SensorGeometry(8, 8, 8)
    ev = synth_generate("uniform_noise", geom, 50_000, 4000.0, seed=5)
    pipes = [A2SPipeline(small_params, geom) for _ in range(2)]
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
    pipe = A2SPipeline(small_params, geom)
    ev = make_events([1, 2, 3], [0, 99, 1], [0, 0, 0], [0, 0, 3])
    acc, rej = pipe.ingest_events(ev)
    assert (acc, rej) == (1, 2)
    stats = pipe.stats()
    assert (stats["events_ingested"], stats["events_rejected"]) == (1, 2)
    assert stats["events_out_of_bounds"] == 2
    ref = A2SPipeline(small_params, geom)
    ref.ingest_events(make_events([1], [0], [0], [0]))
    assert np.array_equal(pipe.snapshot().values, ref.snapshot().values)


@pytest.mark.parametrize("t", [-1, -5])
def test_negative_time_is_out_of_bounds(small_params, t):
    # a time before 0 would reach the "no event yet" watermark -1, so its
    # patch would read as unseen and the next event there take gap 0
    geom = SensorGeometry(16, 16, 8)
    pipe = A2SPipeline(small_params, geom)
    before = pipe._state.copy()
    assert not pipe.ingest(t, 1, 1, 0)
    stats = pipe.stats()
    assert (stats["events_out_of_bounds"], stats["events_out_of_order"]) == (1, 0)
    assert (stats["events_rejected"], stats["events_ingested"]) == (1, 0)
    a, b = pipe._state, before
    for x, y in zip((a.S, a.S_mvhs, a.vec, a.last_t), (b.S, b.S_mvhs, b.vec, b.last_t)):
        assert np.array_equal(x, y)
    # in a frame too, and the patch's next event is its first
    assert pipe.ingest_events(make_events([t, 3], [1, 1], [1, 1], [0, 1])) == (1, 1)
    assert pipe.stats()["events_out_of_bounds"] == 2
    ref = A2SPipeline(small_params, geom)
    assert ref.ingest(3, 1, 1, 1)
    got, want = pipe.snapshot(), ref.snapshot()
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.watermarks, want.watermarks) and got.watermarks[0, 0] == 3


def test_ingest_events_equals_ingest_loop(small_params):
    # interleaved patches, with out-of-order and out-of-bounds events
    geom = SensorGeometry(16, 16, 8)
    ev = synth_generate("uniform_noise", geom, 50_000, 4000.0, seed=6)
    rng = np.random.default_rng(7)
    late = rng.choice(len(ev), size=len(ev) // 10, replace=False)
    ev["t"][late] = np.maximum(ev["t"][late] - 5_000, 0)
    ev["x"][rng.choice(len(ev), size=5, replace=False)] = 99
    ev["p"][rng.choice(len(ev), size=5, replace=False)] = 2
    batch = A2SPipeline(small_params, geom)
    loop = A2SPipeline(small_params, geom)
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
        got = pipe._state.rows(np.array([k]))
        for g, w in zip(got.tensors(), ref.tensors()):
            assert np.max(np.abs(g[0] - w)) <= 1e-12 * max(np.max(np.abs(w)), 1e-300)
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
    assert pipe._state.last_t[0] == 10
    assert pipe.snapshot().watermarks[0, 0] == 10
    ref = _reference(params, ev, geom, (1, 1))
    got = pipe._state.rows(np.array([3]))
    for g, w in zip(got.tensors(), ref.tensors()):
        assert np.max(np.abs(g[0] - w)) <= 1e-12 * np.max(np.abs(w))
    assert got.last_t[0] == 40


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
    pipe = A2SPipeline(params, geom)
    with np.errstate(invalid="ignore", over="ignore"):
        assert not pipe.ingest(100, 3, 2, 1)
    assert pipe._state.last_t[0] == -1
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
    pipe = A2SPipeline(params, SensorGeometry(16, 16, 8))
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


def test_stacked_states_are_heads_innermost(small_params):
    pipe = A2SPipeline(small_params, SensorGeometry(16, 16, 8))
    pipe.ingest_events(make_events([1, 2, 3], [0, 9, 1], [0, 9, 1], [0, 1, 1]))
    st = pipe._state
    for s in (st, st.copy(), st.rows(np.array([3, 0]))):
        for S in [b.S for b in s.blocks] + [s.mvhs.S]:
            assert heads_innermost(S), S.strides


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


def test_locate_agrees_with_partition_and_tile_placement(small_params):
    # a ragged 3 x 4 grid: neither side is a multiple of the patch, and the
    # rows and columns differ in number, so a transposed id shows
    geom = SensorGeometry(20, 28, 8)
    assert geom.locate(27, 19) == (11, 3, 3)
    rng = np.random.default_rng(11)
    ys, xs = np.divmod(rng.permutation(20 * 28), 28)
    ev = make_events(np.arange(len(xs)) * 10, xs, ys, rng.integers(0, 2, len(xs)))
    pid, lx, ly = geom.locate(ev["x"], ev["y"])
    parts = partition_patches(ev, geom)
    assert sorted(parts) == [divmod(int(u), geom.grid_cols) for u in np.unique(pid)]
    for (r, c), local in parts.items():
        mine = pid == r * geom.grid_cols + c
        assert np.array_equal(local["x"], lx[mine]) and np.array_equal(local["y"], ly[mine])
        assert np.array_equal(local["t"], ev["t"][mine])
    pipe = A2SPipeline(small_params, geom)
    assert pipe.ingest_events(ev[:300]) == (300, 0)
    for e in ev[300:]:
        assert pipe.ingest(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"]))
    live = pipe.snapshot()
    _, offline = encode_offline(small_params, ev, geom)[-1]
    assert np.array_equal(live.watermarks, offline.watermarks)
    assert np.allclose(live.values, offline.values, rtol=1e-6, atol=1e-9)


# a record: (patch of the 2 x 2 grid, 4 for out of the sensor, local x,
# local y, polarity, step from the previous record's time, which may go
# back, and a draw of 0 in 8 that makes the record the token _POISON)
_RECORDS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 7),
                              st.integers(0, 1), st.integers(-40, 60), st.integers(0, 7)),
                    max_size=40)


def _drawn_frame(records, t=100):
    cols = []
    for patch, lx, ly, p, dt, poison in records:
        t = max(t + dt, 0)
        if patch == 4:  # x beyond the sensor or p outside {0, 1}
            x, y, p = (99, ly, p) if lx % 2 else (lx, ly, 2)
        else:
            if poison == 0:
                lx, ly, p = 3, 2, 1
            r, c = divmod(patch, 2)
            x, y = c * 8 + lx, r * 8 + ly
        cols.append((t, x, y, p))
    return make_events(*np.array(cols, np.int64).reshape(-1, 4).T)


@settings(max_examples=80, deadline=None)
@given(warm=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 200)), max_size=4),
       records=_RECORDS)
@example(warm=[(0, 300)],  # patch 0's first event is older than its watermark
         records=[(0, 1, 1, 0, 0, 1), (1, 1, 1, 0, 10, 1),
                  (1, 0, 0, 0, 300, 0),  # non-finite in the middle of patch 1's run,
                  (1, 2, 2, 1, -200, 1),  # so this one is not late in a loop
                  (0, 1, 2, 1, 200, 1), (1, 3, 3, 0, 5, 1), (4, 1, 0, 0, 0, 1),
                  (2, 4, 4, 1, 1, 1)])
def test_one_call_equals_ingest_loop_on_drawn_frames(small_params, warm, records):
    # ragged per-patch counts, late events, out-of-bounds records and an Inf
    # embedding row, after a warm-up that sets some watermarks
    params, geom = _poisoned(small_params), SensorGeometry(16, 16, 8)
    batch, loop = A2SPipeline(params, geom), A2SPipeline(params, geom)
    ev = _drawn_frame(records)
    with np.errstate(invalid="ignore", over="ignore"):
        for patch, t in warm:
            r, c = divmod(patch, 2)
            assert batch.ingest(t, c * 8, r * 8, 0) == loop.ingest(t, c * 8, r * 8, 0)
        got = batch.ingest_events(ev)
        oks = [loop.ingest(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])) for e in ev]
    assert got == (sum(oks), len(oks) - sum(oks))
    assert batch.stats() == loop.stats()
    a, b = batch.snapshot(), loop.snapshot()
    assert np.array_equal(a.watermarks, b.watermarks)
    assert np.max(np.abs(a.values - b.values), initial=0.0) <= 1e-6 * np.max(np.abs(b.values),
                                                                             initial=0.0)


def _track_window(seed):
    """3 s of the serving benchmark's open-loop traffic, a moving dot at 200
    events/s on a 128 x 128 sensor, around its stream's longest gap."""
    geom = SensorGeometry(128, 128, 16)
    ev = synth_generate("moving_dot", geom, 60_000_000, 200.0, seed=seed)
    gap = int(np.argmax(np.diff(ev["t"])))
    t0 = max(int(ev["t"][gap]) - 1_500_000, 0)
    return geom, ev[(ev["t"] >= t0) & (ev["t"] < t0 + 3_000_000)], t0, int(np.diff(ev["t"])[gap])


@pytest.mark.parametrize("seed", [11, 353])
def test_track_ticks_equal_ingest_loop(seed):
    # 20 ms ticks of 1-2 active patches through one ingest_events each, as
    # the server takes them; seed 353's stream has a 65.6 ms gap, longer
    # than a record's u16 dt, which the library takes like any other
    params = init_encoder_params(ENCODER_PROFILES["small"], seed=0)
    geom, ev, t0, longest = _track_window(seed)
    assert longest > 65_535 if seed == 353 else longest > 0
    ticks, loop = A2SPipeline(params, geom), A2SPipeline(params, geom)
    edges = np.searchsorted(ev["t"], np.arange(t0, t0 + 3_000_001, 20_000))
    for lo, hi in zip(edges[:-1], edges[1:]):
        tick = ev[lo:hi]
        oks = [loop.ingest(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"])) for e in tick]
        assert ticks.ingest_events(tick) == (sum(oks), len(oks) - sum(oks))
    assert ticks.stats() == loop.stats() and ticks.stats()["events_ingested"] == len(ev)
    a, b = ticks.snapshot(), loop.snapshot()
    assert np.array_equal(a.watermarks, b.watermarks)
    assert np.max(np.abs(a.values - b.values)) <= 1e-6 * np.max(np.abs(b.values))


def test_one_runtime_call_per_ingest_events(small_params, monkeypatch):
    # late, out-of-bounds and ragged frames each take one runtime call; a
    # call whose state turns non-finite is followed by one call per event
    geom = SensorGeometry(16, 16, 8)
    pipe = A2SPipeline(_poisoned(small_params), geom)
    calls = []
    real = pipe.runtime.ingest
    monkeypatch.setattr(pipe.runtime, "ingest", lambda *a: calls.append(len(a[1])) or real(*a))
    rng = np.random.default_rng(13)
    for n in (1, 4, 37, 256):
        ev = synth_generate("uniform_noise", geom, 1_000_000, 4000.0, seed=n)[:n]
        ev["x"] += ev["x"] % 8 == 3  # no event is the token _POISON
        ev["t"][rng.random(n) < 0.1] -= 300
        ev["x"][rng.random(n) < 0.05] = 99
        calls.clear()
        acc, _ = pipe.ingest_events(ev)
        assert len(calls) == 1 and calls[0] == acc
    calls.clear()
    with np.errstate(invalid="ignore", over="ignore"):
        assert pipe.ingest_events(make_events([10**7, 10**7 + 1, 10**7 + 2],
                                              [0, 3, 9], [0, 2, 9], [0, 1, 0])) == (2, 1)
    assert calls == [3, 1, 1, 1]  # one call, then each of its events alone


def _counters(pipe):
    return pipe.ingested, pipe.out_of_order, pipe.nonfinite, pipe.out_of_bounds


def test_pipeline_buffer_reuse_is_invisible(small_params):
    # one pipeline through frames of 256 events (on half of the sensor), 1,
    # 37, 300 (more patches than any frame before, so the runtime's
    # gathered rows grow) and 2: each frame leaves the state, reply and
    # counters that a fresh pipeline gives from a copy of the same state,
    # bit for bit. The 300-event frame holds a non-finite event mid-call,
    # so its first call is dropped and its events go again one per call,
    # each gathered into the same scratch; as a fresh pipeline's runtime
    # gathers into its scratch too, that frame is also checked against a
    # loop of `ingest`
    params, geom = _poisoned(small_params), SensorGeometry(64, 64, 8)
    pipe = A2SPipeline(params, geom)
    rng = np.random.default_rng(17)
    t0, touched = 0, []
    for n in (256, 1, 37, 300, 2):
        ev = synth_generate("uniform_noise", geom, 1_000_000, 4000.0, seed=n)[:n]
        ev["t"] += t0
        t0 = int(ev["t"][-1])
        if n == 256:
            ev["x"] //= 2
        ev["x"] += ev["x"] % 8 == 3  # no event is the token _POISON ...
        late = rng.random(n) < 0.1
        if n == 300:  # ... but event 150, on time, in patch (7, 7)
            late[150] = False
            ev["x"][150], ev["y"][150], ev["p"][150] = 56 + 3, 56 + 2, 1
        ev["t"][late] -= 300
        touched.append(len(np.unique(geom.locate(ev["x"], ev["y"])[0])))
        fresh, loop = A2SPipeline(params, geom), A2SPipeline(params, geom)
        fresh._state, loop._state = pipe._state.copy(), pipe._state.copy()
        before = _counters(pipe)
        with np.errstate(invalid="ignore", over="ignore"):
            got = pipe.ingest_events(ev)
            assert fresh.ingest_events(ev) == got
            if n == 300:
                oks = [loop.ingest(*map(int, e)) for e in ev[["t", "x", "y", "p"]]]
                assert got == (sum(oks), n - sum(oks)) and _counters(loop) == _counters(fresh)
                for x, y in zip(pipe._state.tensors(), loop._state.tensors()):
                    assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))
        assert np.subtract(_counters(pipe), before).tolist() == list(_counters(fresh))
        a, b = pipe._state, fresh._state
        for x, y in zip((a.S, a.S_mvhs, a.vec, a.last_t), (b.S, b.S_mvhs, b.vec, b.last_t)):
            assert np.array_equal(x, y)
    assert touched[3] > touched[0] and pipe.nonfinite == 1


_WARM_WIDE_FRAMES = """
import resource, threading
from eva.config import ENCODER_PROFILES
from eva.events import SensorGeometry, synth_generate
from eva.params import init_encoder_params
from eva.pipeline import A2SPipeline

params = init_encoder_params(ENCODER_PROFILES["dvs"], seed=0)
geom = SensorGeometry(128, 128, params.config.patch)
pipe = A2SPipeline(params, geom)
ev = synth_generate("uniform_noise", geom, 1_000_000, 30 * 256, seed=1)
faults = []

def serve():
    for k in range(30):
        if k == 10:
            faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt)
        pipe.ingest_events(ev[256 * k:256 * (k + 1)])
    faults.append(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt)

worker = threading.Thread(target=serve)
worker.start()
worker.join()
print((faults[1] - faults[0]) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's heap")
def test_warm_wide_frames_take_no_page_faults():
    # 20 warm 256-event dvs frames in a worker thread, as the server runs
    # them, take fewer than 16 minor page faults each: what a call allocates
    # past the runtime's scratch (which holds its gathered rows) stays in the
    # heap (about 2,500 faults per frame when each call freed MB-sized
    # temporaries, glibc returned them to the OS and the next call faulted
    # them in again). In a fresh process, like the server's, because glibc
    # keeps more free memory once a process has freed a larger block, so
    # the count depends on what ran before in the same process
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _WARM_WIDE_FRAMES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 16
