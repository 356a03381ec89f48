"""Asynchronous-to-synchronous pipeline.

Each sensor patch owns an independent recurrent encoder state, updated
event by event in O(1) per event. The states of all patches are one
batched `EncoderState`, and each `ingest_events` call advances the
patches it touches in one `runtime.EncoderRuntime.ingest` call per
`CALL_EVENTS` events, in stream order (`ingest` is `ingest_events` of one
event). A runtime call's events go in waves: wave k holds the k-th
accepted event of every patch that has one, so the runtime runs every
token-parallel op once over the call and loops over the waves only for
the matrix-state recurrence. Bounding the call bounds the runtime's
scratch, which holds a call's gathered rows and temporaries and grows
with the widest call.

Offline encoding (`encode_offline`) is the same path: it replays a file
through one pipeline, `ingest_events` up to each period boundary, then a
snapshot. The chunked-parallel `encoder.encode_events` stays the
reference it is tested against, and the training path. Per event, the
replay costs less than a chunked encode per patch once a period's events
span a few patches, and more on a one-patch stream (see the README);
every sensor in the paper has 56 to 285 patches.

Events are checked before the call. One out of the sensor, or with a
negative time, is counted in `out_of_bounds`; one older than its patch's
watermark, or than an earlier event of its patch in the call, is late,
dropped and counted in `out_of_order`. The runtime only steps; the
pipeline owns the non-finite policy and checks each call's state once,
after the call (`EncoderState.finite`), which sees a non-finite input,
decay or overflow anywhere in the state. A call whose state is not finite
is dropped whole: its patches keep their state from before it, and its
events go again one per call. A one-event call whose state is not finite
zeroes its patch's state, keeps the patch's watermark, and counts the
event in `nonfinite`. So counters, watermarks and states
equal a loop of `ingest` by construction.

One lock, held per call, orders ingestion and snapshots, so a snapshot
sees a whole number of events in every patch. A snapshot tiles the
selected output channels of every patch into a frame tensor; each tile
reports its own last-event watermark so consumers can align patches that
advance at different rates.

The runtime call gathers the patches it touches into the runtime's
scratch (`EncoderState.rows`), steps that copy and returns it; the
pipeline checks it and scatters it back with one `EncoderState.put`, so
the store holds the state from before the call until the check passes.
That is one gather and one scatter of each of the state's three stores
per call, whatever its size and number of waves; in the matrix stores,
whose patch axis comes just before the heads, each copies runs of N
floats. With the patch axis innermost instead, they would copy single
floats and cost about 10x more.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import snapshots as SN
from .embedding import token_index
from .encoder import EncoderState
from .events import SensorGeometry
from .params import EncoderParams
from .runtime import EncoderRuntime


@dataclass
class FrameSnapshot:
    values: np.ndarray      # (n_out, rows*Dh, cols*Dh) float32
    watermarks: np.ndarray  # (rows, cols) int64, -1 where a patch saw nothing
    tile: int

    @property
    def watermark(self) -> int:
        return int(self.watermarks.max())

    @property
    def grid(self) -> tuple[int, int]:
        return self.watermarks.shape

    def to_bytes(self) -> bytes:
        return SN.dump_snapshot(SN.KIND_REPR, self.values, max(self.watermark, 0),
                                self.grid, self.watermarks)


# `EVENT_DTYPE`'s fields, each wide enough that an out-of-range coordinate
# or polarity passed to `ingest` is counted, not overflowed
_RECORD = np.dtype([("t", "<i8"), ("x", "<i8"), ("y", "<i8"), ("p", "<i8")])

# The most events one runtime call steps: `ingest_events` cuts a longer call
# into calls of this many, in stream order. The runtime's scratch keeps the
# widest call's temporaries (~9.2 KB per event on `dvs`) and gathered rows
# (~20 KB per patch), so this bounds it at ~8.5 MB (a call over 256
# patches) whatever a client or a file sends, and a 256-event INGEST
# frame stays one call.
CALL_EVENTS = 256


class A2SPipeline:
    """Live per-patch recurrent encoding with on-demand snapshots.

    A patch's id from `SensorGeometry.locate` is its row of `_state`, the
    batched `EncoderState` of every patch, whose stores are allocated and
    zeroed when the pipeline is built. `threads` is accepted for
    compatibility and ignored: one runtime call batches the patches in one
    thread."""

    def __init__(self, params: EncoderParams, geometry: SensorGeometry,
                 threads: int | None = None):
        if geometry.patch != params.config.patch:
            raise ValueError("geometry patch size must match the encoder config")
        self.params = params
        self.geometry = geometry
        self.runtime = EncoderRuntime(params)
        self._state = EncoderState.zeros(params.config, params.dtype, geometry.n_patches)
        self.ingested = 0
        self.out_of_order = 0
        self.nonfinite = 0
        self.out_of_bounds = 0
        self.snapshots_served = 0
        self._lock = threading.Lock()

    def ingest(self, t: int, x: int, y: int, p: int) -> bool:
        """`ingest_events` of the one event (t, x, y, p), each an int64.
        Returns False (and counts) if it is out of the sensor bounds or
        before time 0, out of order for its patch or non-finite."""
        return self.ingest_events(np.array([(t, x, y, p)], _RECORD))[0] == 1

    def ingest_events(self, events: np.ndarray) -> tuple[int, int]:
        """Batch ingest (events may span patches, in stream order), one
        runtime call per `CALL_EVENTS` events. Returns (accepted, rejected);
        the result equals a loop of `ingest`."""
        g = self.geometry
        t, x, y, p = events["t"], events["x"], events["y"], events["p"]
        valid = ((t >= 0) & (x >= 0) & (x < g.width) & (y >= 0) & (y < g.height)
                 & (p >= 0) & (p <= 1))
        if not valid.all():
            events = events[valid]
            t, x, y, p = events["t"], events["x"], events["y"], events["p"]
            with self._lock:
                self.out_of_bounds += len(valid) - len(events)
        if not len(events):
            return 0, len(valid)
        pid, lx, ly = g.locate(x, y)
        tok = token_index(lx, ly, p, g.patch, g.patch)
        accepted = 0
        with self._lock:
            for i in range(0, len(t), CALL_EVENTS):
                accepted += self._run(pid[i:i + CALL_EVENTS], tok[i:i + CALL_EVENTS],
                                      t[i:i + CALL_EVENTS])
        return accepted, len(valid) - accepted

    def _run(self, pid, tok, t) -> int:
        """Advance the patches `pid` by the events (tok, t), in stream
        order, in one runtime call; call under the lock with at most
        `CALL_EVENTS` events. Returns the number of events accepted.

        An event is late, so rejected and counted, if its time is below its
        patch's watermark or an earlier time of its patch in the call. The
        rest go to one runtime call, which steps an advanced copy of their
        patches' rows. A call whose copy turns non-finite is dropped and its
        events go again one per call; a one-event call's patch is then
        zeroed and the event counted in `nonfinite`."""
        state = self._state
        n = len(pid)
        order = np.argsort(pid, kind="stable")
        ps, ts = pid[order], t[order]
        ok = ts >= state.last_t.take(ps)
        if n > 1 and (t[1:] < t[:-1]).any():
            # and at least every earlier time of its patch: a running max of
            # (patch, position in stable time order) keys
            pos = np.empty(n, np.intp)
            pos[np.argsort(ts, kind="stable")] = np.arange(n)
            key = ps.astype(np.intp) * n + pos
            ok &= np.maximum.accumulate(key) == key
        accepted = int(np.count_nonzero(ok))
        late = n - accepted
        if late:
            order, ps, ts = order[ok], ps[ok], ts[ok]
        if accepted:
            ids, rows = self.runtime.ingest(state, ps, tok[order], ts)
            if rows.finite():
                state.put(ids, rows)
            elif n > 1:  # the store still holds the state before the call
                return sum(self._run(pid[i:i + 1], tok[i:i + 1], t[i:i + 1]) for i in range(n))
            else:
                for arr in state.tensors():
                    arr[ids] = 0.0
                accepted = 0
                self.nonfinite += 1
        self.out_of_order += late
        self.ingested += accepted
        return accepted

    def snapshot(self, patch_ids=None) -> FrameSnapshot:
        """Tile the selected patches' representations (full frame default)."""
        cfg = self.params.config
        g = self.geometry
        R, C = g.grid_rows, g.grid_cols
        Dh, n_out = cfg.mvhs_d_head, cfg.n_out
        S, last_t = self._state.mvhs.S, self._state.last_t
        keep = None
        if patch_ids is not None:
            keep = np.zeros((R, C), bool)
            for pid in patch_ids:
                r, c = pid
                if not (0 <= r < R and 0 <= c < C):
                    raise KeyError(f"unknown patch id {pid}")
                keep[r, c] = True
        values = np.empty((n_out, R * Dh, C * Dh), np.float32)
        # head n of patch (r, c), stack row r * C + c, is tile (r, c) of channel
        # n; copied in the memory order of `values`, which is the faster order
        # for heads-innermost states
        tiles = values.reshape(n_out, R, Dh, C, Dh).transpose(1, 3, 0, 2, 4)
        with self._lock:
            tiles[...] = S[:, :n_out].reshape(R, C, n_out, Dh, Dh)
            marks = last_t.reshape(R, C).copy()
            self.snapshots_served += 1
        if keep is not None:
            tiles[~keep] = 0.0
            marks[~keep] = -1
        return FrameSnapshot(values, marks, Dh)

    def stats(self) -> dict:
        with self._lock:
            return {
                "events_ingested": self.ingested,
                "events_rejected": self.out_of_order + self.nonfinite + self.out_of_bounds,
                "events_out_of_order": self.out_of_order,
                "events_nonfinite": self.nonfinite,
                "events_out_of_bounds": self.out_of_bounds,
                "snapshots_served": self.snapshots_served,
                "patches": self.geometry.n_patches,
                "grid_rows": self.geometry.grid_rows,
                "grid_cols": self.geometry.grid_cols,
            }


# ---------------------------------------------------------------------------
# Offline (batch) encoding
# ---------------------------------------------------------------------------

def encode_offline(params: EncoderParams, events: np.ndarray,
                   geometry: SensorGeometry, period_us: int | None = None):
    """Encode a whole file by replaying it through one `A2SPipeline`.

    Returns a list of (t_ref, FrameSnapshot): one snapshot per sampling
    period boundary (aligned to the first event) or a single final
    snapshot when period_us is None. The snapshot at t_ref is the
    pipeline's after `ingest_events` of every event up to t_ref, so offline
    and live encoding are one code path, with one set of counters and one
    non-finite policy. No event is dropped silently: once every event is
    in, an event the pipeline rejected raises ValueError (out of order for
    its patch, or outside the sensor or before time 0) or
    FloatingPointError (one after which its patch's state was not finite),
    naming the count. A period_us <= 0 raises ValueError.
    """
    if period_us is not None and period_us <= 0:
        raise ValueError(f"period_us must be positive, got {period_us}")
    t = events["t"]
    if period_us is None or len(events) == 0:
        boundaries = [int(t[-1]) if len(events) else 0]
    else:
        t0, t1 = int(t[0]), int(t[-1])
        boundaries = list(range(t0 + period_us, t1 + 1, period_us))
        if not boundaries or boundaries[-1] < t1:
            boundaries.append(t1)
    # the events up to each boundary, cut where the time order says; the
    # last boundary takes the rest, so an unsorted stream still reaches the
    # pipeline whole, once
    cuts = np.maximum.accumulate(np.searchsorted(t, boundaries[:-1], side="right"))
    pipe = A2SPipeline(params, geometry)
    frames = []
    for t_ref, part in zip(boundaries, np.split(events, cuts)):
        pipe.ingest_events(part)
        frames.append((t_ref, pipe.snapshot()))
    if pipe.out_of_order or pipe.out_of_bounds:
        raise ValueError(f"encode_offline rejected events: {pipe.out_of_order} out of order "
                         f"for their patch, {pipe.out_of_bounds} outside the sensor or before 0")
    if pipe.nonfinite:
        raise FloatingPointError(f"encode_offline rejected events: {pipe.nonfinite} with a "
                                 "non-finite update")
    return frames
