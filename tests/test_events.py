import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.events import (EventFormatError, SensorGeometry, empty_events,
                        filter_hot_pixels, make_events, pack_binary, parse_csv,
                        partition_patches, slice_samples, synth_generate,
                        unpack_binary, write_csv)

GEOM = SensorGeometry(128, 128, 16)


def random_events(rng, n, geom=GEOM, max_dt=500):
    t = np.cumsum(rng.integers(0, max_dt, size=n))
    return make_events(t, rng.integers(0, geom.width, n),
                       rng.integers(0, geom.height, n), rng.integers(0, 2, n))


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_parse_csv_basic():
    ev = parse_csv("0,3,2,1\n5,3,2,0", GEOM)
    assert len(ev) == 2
    assert (ev["t"][0], ev["x"][0], ev["y"][0], ev["p"][0]) == (0, 3, 2, 1)
    assert (ev["t"][1], ev["p"][1]) == (5, 0)


def test_parse_csv_rejects_nonmonotonic():
    with pytest.raises(EventFormatError, match="line 2"):
        parse_csv("5,3,2,1\n0,3,2,0", GEOM)


def test_parse_csv_header_and_errors():
    assert len(parse_csv("t,x,y,p\n1,2,3,0", GEOM)) == 1
    with pytest.raises(EventFormatError, match="line 1"):
        parse_csv("1,2,3", GEOM)
    with pytest.raises(EventFormatError, match="polarity"):
        parse_csv("1,2,3,7", GEOM)
    with pytest.raises(EventFormatError, match="out of range"):
        parse_csv("1,500,3,1", GEOM)


def test_csv_roundtrip_10k():
    rng = np.random.default_rng(0)
    ev = random_events(rng, 10_000)
    buf = io.StringIO()
    write_csv(ev, buf)
    back = parse_csv(io.StringIO(buf.getvalue()), GEOM)
    assert np.array_equal(ev, back)


# ---------------------------------------------------------------------------
# Binary records
# ---------------------------------------------------------------------------

def test_pack_clamps_large_gaps():
    ev = make_events([0, 70_000], [1, 1], [2, 2], [1, 0])
    data = pack_binary(ev)
    rec = np.frombuffer(data, dtype="<u2").reshape(-1, 4)
    assert rec[0].tolist() == [0, 1, 2, 1]
    assert rec[1].tolist() == [65535, 1, 2, 0]
    back = unpack_binary(data)
    assert back["t"].tolist() == [0, 65535]


def test_pack_empty():
    assert pack_binary(empty_events()) == b""
    assert len(unpack_binary(b"")) == 0


def test_unpack_rejects_ragged():
    with pytest.raises(EventFormatError):
        unpack_binary(b"\x00" * 7)


def test_pack_unpack_lossless_small_gaps():
    rng = np.random.default_rng(1)
    ev = random_events(rng, 1000, max_dt=60_000)
    ev["t"] -= ev["t"][0]  # record times are stream-relative
    assert np.array_equal(unpack_binary(pack_binary(ev)), ev)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 65535), st.integers(0, 127),
                          st.integers(0, 127), st.integers(0, 1)),
                min_size=1, max_size=200))
def test_pack_unpack_property(rows):
    dts = [0] + [r[0] for r in rows[1:]]
    t = np.cumsum(dts)
    ev = make_events(t, [r[1] for r in rows], [r[2] for r in rows],
                     [r[3] for r in rows])
    assert np.array_equal(unpack_binary(pack_binary(ev)), ev)


# ---------------------------------------------------------------------------
# Hot pixels
# ---------------------------------------------------------------------------

def _burst(t0, n, x, y, span=9000):
    t = np.linspace(t0, t0 + span, n).astype(np.int64)
    return make_events(t, [x] * n, [y] * n, [1] * n)


def test_hot_pixel_threshold_boundary():
    hot = _burst(0, 41, 5, 5)
    cold = _burst(100, 3, 6, 6)
    ev = np.sort(np.concatenate([hot, cold]), order="t", kind="stable")
    out = filter_hot_pixels(ev, window_us=10_000, threshold=40)
    assert len(out) == 3
    assert np.all(out["x"] == 6)

    kept = filter_hot_pixels(_burst(0, 40, 5, 5), window_us=10_000, threshold=40)
    assert len(kept) == 40  # exactly at the threshold survives


def brute_force_hot_filter(events, window_us, threshold):
    if len(events) == 0:
        return events
    t0 = events["t"][0]
    counts = {}
    for ev in events:
        key = ((ev["t"] - t0) // window_us, ev["x"], ev["y"])
        counts[key] = counts.get(key, 0) + 1
    keep = [i for i, ev in enumerate(events)
            if counts[((ev["t"] - t0) // window_us, ev["x"], ev["y"])] <= threshold]
    return events[keep]


def test_hot_pixel_matches_brute_force():
    rng = np.random.default_rng(2)
    geom = SensorGeometry(8, 8, 4)
    ev = random_events(rng, 5000, geom, max_dt=40)
    out = filter_hot_pixels(ev, window_us=1000, threshold=10)
    ref = brute_force_hot_filter(ev, 1000, 10)
    assert np.array_equal(out, ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_hot_pixel_output_is_subsequence(seed, threshold):
    rng = np.random.default_rng(seed)
    ev = random_events(rng, 300, SensorGeometry(4, 4, 4), max_dt=100)
    out = filter_hot_pixels(ev, window_us=500, threshold=threshold)
    assert np.array_equal(out, brute_force_hot_filter(ev, 500, threshold))
    # subsequence: every kept event appears in order
    it = iter(ev.tolist())
    assert all(any(kept == orig for orig in it) for kept in out.tolist())


def test_hot_pixel_empty():
    assert len(filter_hot_pixels(empty_events())) == 0


@pytest.mark.parametrize("window_us, threshold", [(0, 40), (-5, 40), (10_000, -1)])
def test_hot_pixel_rejects_bad_settings(window_us, threshold):
    # a zero window once dropped every event of a pixel firing each 1 ms
    ev = _burst(0, 100, 5, 5, span=99_000)
    for events in (ev, empty_events()):
        with pytest.raises(ValueError, match=f"got {window_us} and {threshold}$"):
            filter_hot_pixels(events, window_us=window_us, threshold=threshold)


# ---------------------------------------------------------------------------
# Patch partitioning
# ---------------------------------------------------------------------------

def test_partition_spot():
    ev = make_events([0], [17], [0], [1])
    out = partition_patches(ev, GEOM)
    assert set(out) == {(0, 1)}
    local = out[(0, 1)]
    assert (local["x"][0], local["y"][0]) == (1, 0)


def test_partition_single_patch_identity():
    rng = np.random.default_rng(3)
    ev = random_events(rng, 50, SensorGeometry(16, 16, 16))
    out = partition_patches(ev, SensorGeometry(16, 16, 16))
    assert set(out) == {(0, 0)}
    assert np.array_equal(out[(0, 0)], ev)


def test_partition_reglobalize_multiset():
    rng = np.random.default_rng(4)
    ev = random_events(rng, 4000)
    out = partition_patches(ev, GEOM)
    assert sum(len(local) for local in out.values()) == len(ev)
    rows = []
    for (r, c), local in out.items():
        assert np.all(np.diff(local["t"]) >= 0)  # per-patch order kept
        assert np.all((local["x"] >= 0) & (local["x"] < GEOM.patch))
        for e in local:
            rows.append((e["t"], e["x"] + c * GEOM.patch, e["y"] + r * GEOM.patch, e["p"]))
    orig = sorted((e["t"], e["x"], e["y"], e["p"]) for e in ev)
    assert sorted(rows) == orig


def test_partition_edge_patches_kept():
    geom = SensorGeometry(130, 130, 16)
    ev = make_events([0], [129], [129], [0])
    out = partition_patches(ev, geom)
    assert set(out) == {(8, 8)}
    assert out[(8, 8)]["x"][0] == 1


# ---------------------------------------------------------------------------
# Sample slicing
# ---------------------------------------------------------------------------

def test_slice_single_window():
    rng = np.random.default_rng(5)
    ev = random_events(rng, 10_240)
    samples = slice_samples(ev, 8192, 8192, 2048)
    assert len(samples) == 1
    assert len(samples[0].input_events) == 8192
    assert len(samples[0].future_events) == 2048


def test_slice_two_windows():
    rng = np.random.default_rng(6)
    ev = random_events(rng, 20_480)
    samples = slice_samples(ev, 8192, 8192, 2048)
    assert len(samples) == 2
    assert np.array_equal(samples[1].input_events, ev[8192:16384])


def test_slice_too_short_is_empty():
    rng = np.random.default_rng(7)
    assert slice_samples(random_events(rng, 100), 8192, 8192, 2048) == []


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3000), st.integers(1, 64), st.integers(1, 400),
       st.integers(0, 100))
def test_slice_count_formula(n, stride, T, future):
    rng = np.random.default_rng(n)
    ev = random_events(rng, n)
    samples = slice_samples(ev, T, stride, future, chunk_len=T)
    expected = max((n - T - future) // stride + 1, 0) if n >= T + future else 0
    assert len(samples) == expected
    for s in samples:
        if future:
            assert s.future_events["t"][0] >= s.input_events["t"][-1]


def test_slice_future_strictly_later_times():
    # strictly increasing timestamps => future events are strictly later
    t = np.arange(40) * 7
    ev = make_events(t, np.zeros(40, int), np.zeros(40, int), np.zeros(40, int))
    (s,) = slice_samples(ev, 32, 32, 8)
    assert s.future_events["t"].min() > s.input_events["t"].max()


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

def test_synth_deterministic_and_sized():
    geom = SensorGeometry(16, 16, 16)
    a = synth_generate("uniform_noise", geom, 1_000_000, 1000.0, seed=7)
    b = synth_generate("uniform_noise", geom, 1_000_000, 1000.0, seed=7)
    assert len(a) == 1000
    assert np.array_equal(a, b)
    c = synth_generate("uniform_noise", geom, 1_000_000, 1000.0, seed=8)
    assert not np.array_equal(a, c)


def test_synth_rejects_bad_kind():
    with pytest.raises(ValueError):
        synth_generate("blob", SensorGeometry(8, 8, 8), 1000, 10.0, 0)


def test_moving_bar_translates():
    from eva.targets import event_count
    geom = SensorGeometry(32, 32, 32)
    ev = synth_generate("moving_bar", geom, 1_000_000, 40_000.0, seed=9)
    # per-10ms count images within the first sweep: the active columns form
    # a narrow band whose center drifts monotonically
    centers = []
    for w0 in range(40_000, 480_000, 10_000):  # inside one sweep, no wrap
        win = ev[(ev["t"] >= w0) & (ev["t"] < w0 + 10_000)]
        img = event_count(win, w0, w0 + 10_000, 32).sum(axis=(0, 1))
        cols = np.nonzero(img)[0]
        assert cols.max() - cols.min() <= 6  # contiguous band (bar + drift)
        centers.append((img * np.arange(32)).sum() / img.sum())
    diffs = np.diff(centers)
    assert np.all(diffs > -1.0)  # monotone translation up to jitter
    assert centers[-1] > centers[0] + 15


def test_moving_dot_structured():
    geom = SensorGeometry(24, 24, 24)
    ev = synth_generate("moving_dot", geom, 500_000, 5000.0, seed=10)
    assert len(ev) == 2500
    assert np.all(np.diff(ev["t"]) >= 0)
    occupied = len({(e["x"], e["y"]) for e in ev})
    assert occupied < 24 * 24 / 2  # events hug the circular path
