"""Asynchronous-to-synchronous pipeline.

Each sensor patch owns an independent recurrent encoder state, updated
event by event in O(1) per event. The states of all patches are stacked
(patch k is row k of one buffer, viewed as one stacked array per state
tensor), and ingestion advances them in waves: the k-th in-order event
of every patch with pending events goes through one batched
`runtime.EncoderRuntime` step, its rows gathered from the buffer and
scattered back. One lock, held per wave, orders waves and snapshots, so a
snapshot sees a whole number of events in every patch. A snapshot tiles
the selected output channels of every patch into a frame tensor; each
tile reports its own last-event watermark so consumers can align patches
that advance at different rates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import snapshots as SN
from .encoder import EncoderState, encode_events
from .events import SensorGeometry, partition_patches
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


class A2SPipeline:
    """Live per-patch recurrent encoding with on-demand snapshots.

    Patch (r, c) is row r * grid_cols + c of the stacked state. `threads`
    is accepted for compatibility and ignored: waves batch the patches in
    one thread."""

    def __init__(self, params: EncoderParams, geometry: SensorGeometry,
                 threads: int | None = None):
        if geometry.patch != params.config.patch:
            raise ValueError("geometry patch size must match the encoder config")
        self.params = params
        self.geometry = geometry
        self.runtime = EncoderRuntime(params)
        n = geometry.grid_rows * geometry.grid_cols
        zero = EncoderState.zeros(params.config, params.dtype).tensors()
        self._layout = [(a.shape, a.size) for a in zero]
        # every state tensor of patch k lies in row k of one buffer, so a wave
        # gathers and scatters its patches with one indexing op each
        self._buf = np.zeros((n, sum(a.size for a in zero)), params.dtype)
        self._state = self._view(self._buf, np.full(n, -1, np.int64), np.zeros(n, np.int64))
        self._rejected = np.zeros(n, np.int64)   # out of order or non-finite
        self._nonfinite = np.zeros(n, np.int64)
        self.ingested = 0
        self.out_of_bounds = 0
        self.snapshots_served = 0
        self._lock = threading.Lock()

    def ingest(self, t: int, x: int, y: int, p: int) -> bool:
        """Absorb one event; returns False (and counts) if out of order for
        its patch, out of the sensor bounds or non-finite."""
        g = self.geometry
        if not (0 <= x < g.width and 0 <= y < g.height and p in (0, 1)):
            with self._lock:
                self.out_of_bounds += 1
            return False
        P = g.patch
        pid = (y // P) * g.grid_cols + x // P
        token = p * P * P + (y % P) * P + x % P
        with self._lock:
            return self._wave(np.array([pid]), np.array([token]), np.array([t])) == 1

    def ingest_events(self, events: np.ndarray) -> tuple[int, int]:
        """Batch ingest (events may span patches, in stream order). Returns
        (accepted, rejected); the result equals a loop of `ingest`."""
        g = self.geometry
        x, y, p = events["x"], events["y"], events["p"]
        valid = (x >= 0) & (x < g.width) & (y >= 0) & (y < g.height) & (p >= 0) & (p <= 1)
        if not valid.all():
            events = events[valid]
            x, y, p = events["x"], events["y"], events["p"]
            with self._lock:
                self.out_of_bounds += len(valid) - len(events)
        n, P = len(events), g.patch
        qy, ry = np.divmod(y.astype(np.int64), P)
        qx, rx = np.divmod(x.astype(np.int64), P)
        pid = qy * g.grid_cols + qx
        tok = p.astype(np.int64) * (P * P) + ry * P + rx
        t = events["t"]
        # wave k holds the k-th event of every patch that has one: rank each
        # event within its patch (its index minus that of its patch's first
        # event, in patch order), then order by (rank, patch)
        order = np.argsort(pid, kind="stable")
        by_patch = pid[order]
        first = np.ones(n, bool)
        np.not_equal(by_patch[1:], by_patch[:-1], out=first[1:])
        idx = np.arange(n)
        rank = idx - np.maximum.accumulate(np.where(first, idx, 0))
        waves = order[np.argsort(rank, kind="stable")]
        accepted, lo = 0, 0
        for hi in np.cumsum(np.bincount(rank)).tolist():
            sel = waves[lo:hi]
            with self._lock:
                accepted += self._wave(pid[sel], tok[sel], t[sel])
            lo = hi
        return accepted, len(valid) - accepted

    def _wave(self, ids, tokens, ts) -> int:
        """Advance the distinct patches `ids` by one event each; call under
        the lock. An event older than its patch's watermark is rejected; one
        whose update is non-finite zeroes its patch's block and MVHS state,
        keeps its watermark and is counted. Returns the number accepted."""
        st = self._state
        late = ts < st.last_t[ids]
        if late.any():
            self._rejected[ids[late]] += 1
            ids, tokens, ts = ids[~late], tokens[~late], ts[~late]
            if not len(ids):
                return 0
        buf = self._buf[ids]
        rows = self._view(buf, st.last_t[ids], st.event_index[ids])
        bad = self.runtime.ingest(rows, tokens, ts)
        self._buf[ids] = buf
        st.last_t[ids] = rows.last_t
        st.event_index[ids] = rows.event_index
        n_ok = len(ids)
        if bad is not None:
            self._rejected[ids[bad]] += 1
            self._nonfinite[ids[bad]] += 1
            n_ok -= int(np.count_nonzero(bad))
        self.ingested += n_ok
        return n_ok

    def _view(self, buf, last_t, event_index) -> EncoderState:
        """The batched state whose tensors view the rows of `buf`."""
        views, start = [], 0
        for shape, size in self._layout:
            views.append(buf[:, start:start + size].reshape((len(buf),) + shape))
            start += size
        return EncoderState.from_tensors(views, last_t, event_index)

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
        # head n of patch (r, c), stack row r * C + c, is tile (r, c) of channel n
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
                "events_rejected": int(self._rejected.sum()) + self.out_of_bounds,
                "events_nonfinite": int(self._nonfinite.sum()),
                "events_out_of_bounds": self.out_of_bounds,
                "snapshots_served": self.snapshots_served,
                "patches": len(self._rejected),
                "grid_rows": self.geometry.grid_rows,
                "grid_cols": self.geometry.grid_cols,
            }


# ---------------------------------------------------------------------------
# Offline (batch) encoding
# ---------------------------------------------------------------------------

def encode_offline(params: EncoderParams, events: np.ndarray,
                   geometry: SensorGeometry, period_us: int | None = None):
    """Chunked-parallel encode of a whole file.

    Returns a list of (t_ref, FrameSnapshot): one snapshot per sampling
    period boundary (aligned to the first event) or a single final
    snapshot when period_us is None.
    """
    cfg = params.config
    Dh, n_out = cfg.mvhs_d_head, cfg.n_out
    g = geometry
    by_patch = partition_patches(events, geometry)
    if period_us is None or len(events) == 0:
        boundaries = [int(events["t"][-1]) if len(events) else 0]
    else:
        t0, t1 = int(events["t"][0]), int(events["t"][-1])
        boundaries = list(range(t0 + period_us, t1 + 1, period_us))
        if not boundaries or boundaries[-1] < t1:
            boundaries.append(t1)
    n = len(boundaries)
    values = np.zeros((n, n_out, g.grid_rows * Dh, g.grid_cols * Dh), np.float32)
    marks = np.full((n, g.grid_rows, g.grid_cols), -1, dtype=np.int64)
    for (r, c), ps in by_patch.items():
        # one encode per patch, snapshotting at each distinct boundary index;
        # boundaries before the patch's first event keep zeros and -1
        ts = ps.events["t"]
        hi = np.searchsorted(ts, boundaries, side="right")
        cps, pos = np.unique(hi, return_inverse=True)
        snaps, _ = encode_events(params, ps.events, checkpoints=cps[cps > 0])
        seen = hi > 0
        at = pos[seen] - (cps[0] == 0)
        values[seen, :, r * Dh:(r + 1) * Dh, c * Dh:(c + 1) * Dh] = snaps[at, :n_out]
        marks[seen, r, c] = ts[hi[seen] - 1]
    return [(t_ref, FrameSnapshot(values[i], marks[i], Dh))
            for i, t_ref in enumerate(boundaries)]
