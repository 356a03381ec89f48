import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.config import TargetSpec
from eva.events import make_events, empty_events
from eva.targets import (StreamingEventCount, StreamingTimeSurface, chunk_targets,
                         event_count, time_surface)


def random_patch_events(seed, n, P=8, max_dt=50):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.integers(0, max_dt, size=n))
    return make_events(t, rng.integers(0, P, n), rng.integers(0, P, n),
                       rng.integers(0, 2, n))


# ---------------------------------------------------------------------------
# event_count
# ---------------------------------------------------------------------------

def test_ec_spot():
    ev = make_events([10, 20, 150], [1, 1, 1], [1, 1, 1], [0, 0, 0])
    img = event_count(ev, 0, 100, 4)
    assert img[0, 1, 1] == 2
    assert img.sum() == 2


def test_ec_empty():
    assert np.all(event_count(empty_events(), 0, 100, 4) == 0)


def test_ec_closed_interval_boundaries():
    ev = make_events([5, 10], [0, 0], [0, 0], [1, 1])
    img = event_count(ev, 5, 10, 2)
    assert img[1, 0, 0] == 2  # both endpoints included


def brute_force_ec(events, t_s, t_e, P):
    img = np.zeros((2, P, P))
    for e in events:
        if t_s <= e["t"] <= t_e:
            img[e["p"], e["y"], e["x"]] += 1
    return img


def test_ec_brute_force_oracle():
    ev = random_patch_events(0, 1000)
    t_s, t_e = 200, 9000
    assert np.array_equal(event_count(ev, t_s, t_e, 8),
                          brute_force_ec(ev, t_s, t_e, 8))


def test_ec_additivity():
    ev = random_patch_events(1, 500)
    lo, mid, hi = 0, int(ev["t"][250]), int(ev["t"][-1])
    # [lo, mid] + (mid, hi] = [lo, hi] requires mid to split between stamps
    while mid in ev["t"] and np.count_nonzero(ev["t"] == mid) > 0:
        mid += 1  # move to a gap so the half-open split is clean
    a = event_count(ev, lo, mid, 8)
    b = event_count(ev, mid + 1, hi, 8)
    c = event_count(ev, lo, hi, 8)
    assert np.array_equal(a + b, c)


# ---------------------------------------------------------------------------
# time_surface
# ---------------------------------------------------------------------------

def test_ts_spot_values():
    ev = make_events([1000], [2], [3], [1])
    img = time_surface(ev, 1000, 500.0, 4)
    assert img[1, 3, 2] == 1.0
    img = time_surface(ev, 1500, 500.0, 4)
    assert img[1, 3, 2] == pytest.approx(np.exp(-1.0))
    assert img[0].sum() == 0.0


def test_ts_rejects_future_events_and_bad_tau():
    ev = make_events([10], [0], [0], [0])
    with pytest.raises(ValueError):
        time_surface(ev, 5, 100.0, 2)
    with pytest.raises(ValueError):
        time_surface(ev, 20, 0.0, 2)


def brute_force_ts(events, t_ref, tau, P):
    img = np.zeros((2, P, P))
    for e in events:
        val = np.exp((e["t"] - t_ref) / tau)
        img[e["p"], e["y"], e["x"]] = max(img[e["p"], e["y"], e["x"]], val)
    return img


def test_ts_brute_force_max_oracle():
    ev = random_patch_events(2, 1000)
    t_ref = int(ev["t"][-1])
    got = time_surface(ev, t_ref, 3000.0, 8)
    assert np.allclose(got, brute_force_ts(ev, t_ref, 3000.0, 8), rtol=0, atol=0)


def test_ts_bounded_and_monotone():
    ev = random_patch_events(3, 400)
    t_ref = int(ev["t"][-1])
    a = time_surface(ev, t_ref, 1000.0, 8)
    assert np.all((a >= 0) & (a <= 1))
    b = time_surface(ev, t_ref + 5000, 1000.0, 8)
    assert np.all(b <= a + 1e-18)


# ---------------------------------------------------------------------------
# streaming forms
# ---------------------------------------------------------------------------

def test_streaming_ts_single_event():
    s = StreamingTimeSurface(4)
    s.update(100, 1, 2, 0)
    img = s.read(100, 50.0)
    assert img[0, 2, 1] == 1.0


def test_streaming_ts_later_event_wins():
    s = StreamingTimeSurface(4)
    s.update(100, 1, 1, 1)
    s.update(300, 1, 1, 1)
    assert s.read(300, 100.0)[1, 1, 1] == 1.0


def test_streaming_ts_rejects_out_of_order():
    s = StreamingTimeSurface(4)
    s.update(100, 0, 0, 0)
    with pytest.raises(ValueError):
        s.update(50, 0, 0, 0)


def test_streaming_ts_matches_batch_bitwise_10k():
    ev = random_patch_events(4, 10_000)
    s = StreamingTimeSurface(8)
    s.update_events(ev)
    t_ref = int(ev["t"][-1])
    got = s.read(t_ref, 2500.0)
    want = time_surface(ev, t_ref, 2500.0, 8)
    assert np.array_equal(got, want)  # bit-for-bit


def test_streaming_ec_all_inside_window():
    ev = random_patch_events(5, 100, max_dt=5)
    s = StreamingEventCount(8, window_us=10_000)
    s.update_events(ev)
    got = s.read(int(ev["t"][-1]))
    want = brute_force_ec(ev, 0, int(ev["t"][-1]), 8)
    assert np.array_equal(got, want)


def test_streaming_ec_all_expired():
    s = StreamingEventCount(4, window_us=100)
    s.update(0, 1, 1, 1)
    s.update(10, 2, 2, 0)
    assert np.all(s.read(10_000) == 0)


def test_streaming_ec_sliding_reads_match_batch():
    ev = random_patch_events(6, 3000, max_dt=30)
    window = 2000
    s = StreamingEventCount(8, window_us=window)
    reads = np.linspace(0, int(ev["t"][-1]), 40).astype(np.int64)
    idx = 0
    for t_ref in reads:
        while idx < len(ev) and ev["t"][idx] <= t_ref:
            e = ev[idx]
            s.update(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"]))
            idx += 1
        got = s.read(int(t_ref))
        want = event_count(ev, int(t_ref) - window, int(t_ref), 8)
        assert np.array_equal(got, want)


def test_streaming_ec_read_ignores_buffered_future():
    s = StreamingEventCount(4, window_us=1000)
    s.update(10, 0, 0, 0)
    s.update(500, 1, 1, 1)
    img = s.read(100)
    assert img[0, 0, 0] == 1 and img.sum() == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5000))
def test_streaming_equivalence_property(seed, window):
    ev = random_patch_events(seed, 400, P=4)
    t_ref = int(ev["t"][-1])
    ts = StreamingTimeSurface(4)
    ec = StreamingEventCount(4, window)
    ts.update_events(ev)
    ec.update_events(ev)
    assert np.array_equal(ts.read(t_ref, 777.0),
                          time_surface(ev, t_ref, 777.0, 4))
    assert np.array_equal(ec.read(t_ref),
                          event_count(ev, t_ref - window, t_ref, 4))


# ---------------------------------------------------------------------------
# chunk_targets: all chunk ends at once against one call per end
# ---------------------------------------------------------------------------

def chunk_targets_loop(spec, input_events, future_events, chunk_ends, P):
    """Reference: one `event_count` or `time_surface` call per chunk end."""
    out = np.zeros((len(chunk_ends), 2, P, P), dtype=np.float64)
    pool = np.concatenate([input_events, future_events])
    for j, end in enumerate(chunk_ends):
        t_end = int(input_events["t"][end - 1])
        if spec.role == "mrp":
            seen = input_events[:end]
            if spec.kind == "ec":
                out[j] = event_count(seen, t_end - spec.window_us, t_end, P)
            else:
                out[j] = time_surface(seen, t_end, spec.tau_us, P)
        else:
            future = pool[end:]
            out[j] = event_count(future, t_end + 1, t_end + spec.horizon_us, P)
    return out


CHUNK_SPECS = (
    TargetSpec("ec", "mrp", window_us=300),
    TargetSpec("ts", "mrp", tau_us=250),
    TargetSpec("ec", "nrp", window_us=200, horizon_us=200),
    TargetSpec("ts", "nrp", tau_us=250, horizon_us=5),
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(1, 40),
       st.integers(0, 60), st.integers(1, 30))
def test_chunk_targets_match_one_call_per_end(seed, n, chunk_len, n_future, max_dt):
    # ties in t (max_dt small), chunk ends at the first and last event,
    # events after the last end, and an empty future tail all occur
    ev = random_patch_events(seed, n + n_future, P=4, max_dt=max_dt)
    inputs, future = ev[:n], ev[n:]
    ends = list(range(min(chunk_len, n), n + 1, chunk_len))
    for spec in CHUNK_SPECS:
        want = chunk_targets_loop(spec, inputs, future, ends, 4)
        got = chunk_targets(spec, inputs, future, ends, 4)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), spec


def test_chunk_targets_reject_what_time_surface_rejects():
    ev = make_events([10, 30, 20], [0, 1, 2], [0, 0, 0], [0, 1, 0])
    ts = TargetSpec("ts", "mrp", tau_us=100)
    with pytest.raises(ValueError):
        chunk_targets(ts, ev, empty_events(), [3], 4)  # t = 30 absorbed before t_ref = 20
    assert chunk_targets(ts, ev, empty_events(), [], 4).shape == (0, 2, 4, 4)
