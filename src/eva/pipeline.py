"""Asynchronous-to-synchronous pipeline.

Each sensor patch owns an independent recurrent encoder state, updated
event by event in O(1) per event. Snapshots copy the selected output
channels of every requested patch under that patch's lock and tile them
into a frame tensor; each tile reports its own last-event watermark so
consumers can align patches that advance at different rates.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import snapshots as SN
from .encoder import EncoderState
from .events import SensorGeometry, partition_patches
from .mvhs import select_channels
from .params import EncoderParams
from .runtime import EncoderRuntime


def env_threads() -> int:
    return max(int(os.environ.get("EVA_THREADS", "1")), 1)


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
        return SN.dump_snapshot(SN.KIND_REPR, self.values.astype(np.float32),
                                max(self.watermark, 0), self.grid, self.watermarks)

    def checksum(self) -> int:
        return zlib.crc32(np.ascontiguousarray(self.values, dtype="<f4").tobytes())


class _Patch:
    __slots__ = ("state", "lock", "rejected", "nonfinite")

    def __init__(self, cfg, dtype):
        self.state = EncoderState.zeros(cfg, dtype)
        self.lock = threading.Lock()
        self.rejected = 0
        self.nonfinite = 0


class A2SPipeline:
    """Live per-patch recurrent encoding with on-demand snapshots."""

    def __init__(self, params: EncoderParams, geometry: SensorGeometry,
                 threads: int | None = None):
        if geometry.patch != params.config.patch:
            raise ValueError("geometry patch size must match the encoder config")
        self.params = params
        self.geometry = geometry
        self.threads = threads if threads is not None else env_threads()
        self.runtime = EncoderRuntime(params)
        cfg = params.config
        self._patches = {(r, c): _Patch(cfg, params.dtype)
                         for r in range(geometry.grid_rows)
                         for c in range(geometry.grid_cols)}
        self.ingested = 0
        self.out_of_bounds = 0
        self.snapshots_served = 0
        self._counter_lock = threading.Lock()

    def ingest(self, t: int, x: int, y: int, p: int) -> bool:
        """Absorb one event; returns False (and counts) if out of order for
        its patch or out of the sensor bounds."""
        g = self.geometry
        if not (0 <= x < g.width and 0 <= y < g.height and p in (0, 1)):
            with self._counter_lock:
                self.out_of_bounds += 1
            return False
        P = g.patch
        patch = self._patches[(y // P, x // P)]
        with patch.lock:
            if t < patch.state.last_t:
                patch.rejected += 1
                return False
            token = p * P * P + (y % P) * P + (x % P)
            if not self._step(patch, token, t):
                return False
        with self._counter_lock:
            self.ingested += 1
        return True

    def _step(self, patch: _Patch, token: int, t: int) -> bool:
        """Absorb one in-order event under the patch lock. An event that
        would drive the state non-finite zeroes the patch's block and MVHS
        state, keeps its watermark and is counted."""
        try:
            self.runtime.ingest(patch.state, token, t)
        except FloatingPointError:
            fresh = EncoderState.zeros(self.params.config, self.params.dtype)
            patch.state.blocks, patch.state.mvhs = fresh.blocks, fresh.mvhs
            patch.rejected += 1
            patch.nonfinite += 1
            return False
        return True

    def ingest_events(self, events: np.ndarray) -> tuple[int, int]:
        """Batch ingest (events may span patches). Returns (accepted, rejected)."""
        g = self.geometry
        valid = ((events["x"] >= 0) & (events["x"] < g.width)
                 & (events["y"] >= 0) & (events["y"] < g.height)
                 & ((events["p"] == 0) | (events["p"] == 1)))
        rejected = int(np.count_nonzero(~valid))
        if rejected:
            with self._counter_lock:
                self.out_of_bounds += rejected
        by_patch = partition_patches(events[valid], self.geometry)
        accepted = 0

        def run(item):
            pid, ps = item
            patch = self._patches[pid]
            P = self.geometry.patch
            toks = (ps.events["p"].astype(np.int64) * P * P
                    + ps.events["y"].astype(np.int64) * P + ps.events["x"])
            ts = ps.events["t"]
            acc = rej = 0
            with patch.lock:
                for i in range(len(ts)):
                    t = int(ts[i])
                    if t < patch.state.last_t:
                        patch.rejected += 1
                        rej += 1
                    elif self._step(patch, int(toks[i]), t):
                        acc += 1
                    else:
                        rej += 1
            return acc, rej

        items = list(by_patch.items())
        if self.threads > 1 and len(items) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                results = list(pool.map(run, items))
        else:
            results = [run(it) for it in items]
        for acc, rej in results:
            accepted += acc
            rejected += rej
        with self._counter_lock:
            self.ingested += accepted
        return accepted, rejected

    def snapshot(self, patch_ids=None) -> FrameSnapshot:
        """Tile the selected patches' representations (full frame default)."""
        cfg = self.params.config
        g = self.geometry
        Dh, n_out = cfg.mvhs_d_head, cfg.n_out
        values = np.zeros((n_out, g.grid_rows * Dh, g.grid_cols * Dh), np.float32)
        marks = np.full((g.grid_rows, g.grid_cols), -1, dtype=np.int64)
        ids = patch_ids if patch_ids is not None else self._patches.keys()
        for pid in ids:
            if pid not in self._patches:
                raise KeyError(f"unknown patch id {pid}")
            patch = self._patches[pid]
            with patch.lock:
                rep = select_channels(patch.state.mvhs.S, n_out)
                marks[pid] = patch.state.last_t
            r, c = pid
            values[:, r * Dh:(r + 1) * Dh, c * Dh:(c + 1) * Dh] = rep
        with self._counter_lock:
            self.snapshots_served += 1
        return FrameSnapshot(values, marks, Dh)

    def stats(self) -> dict:
        return {
            "events_ingested": self.ingested,
            "events_rejected": (sum(p.rejected for p in self._patches.values())
                                + self.out_of_bounds),
            "events_nonfinite": sum(p.nonfinite for p in self._patches.values()),
            "events_out_of_bounds": self.out_of_bounds,
            "snapshots_served": self.snapshots_served,
            "patches": len(self._patches),
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
    states = {pid: None for pid in by_patch}
    cursors = {pid: 0 for pid in by_patch}
    frames = []
    for t_ref in boundaries:
        values = np.zeros((n_out, g.grid_rows * Dh, g.grid_cols * Dh), np.float32)
        marks = np.full((g.grid_rows, g.grid_cols), -1, dtype=np.int64)
        for pid, ps in by_patch.items():
            ts = ps.events["t"]
            hi = int(np.searchsorted(ts, t_ref, side="right"))
            lo = cursors[pid]
            if hi > lo:
                from .encoder import encode_events
                _, states[pid] = encode_events(params, ps.events[lo:hi], states[pid])
                cursors[pid] = hi
            st = states[pid]
            if st is not None:
                r, c = pid
                values[:, r * Dh:(r + 1) * Dh, c * Dh:(c + 1) * Dh] = \
                    select_channels(st.mvhs.S, n_out)
                marks[pid] = st.last_t
        frames.append((t_ref, FrameSnapshot(values, marks, Dh)))
    return frames


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------

def bench(params: EncoderParams, geometry: SensorGeometry, events: np.ndarray) -> dict:
    """Ingest a stream one event at a time, timing per-event cost.

    Reports throughput, latency percentiles, and the ratio of the mean
    per-event cost over the last decile of the stream to the first decile
    (O(1) updates keep this near 1).
    """
    pipe = A2SPipeline(params, geometry, threads=1)
    n = len(events)
    if n == 0:
        return {"events": 0, "events_per_sec": 0.0, "mean_us": 0.0,
                "p99_us": 0.0, "decile_ratio": 0.0, "constant_cost_ok": True,
                "checksum": pipe.snapshot().checksum()}
    stamps = np.empty(n + 1, dtype=np.int64)
    stamps[0] = time.perf_counter_ns()
    for i, ev in enumerate(events):
        pipe.ingest(int(ev["t"]), int(ev["x"]), int(ev["y"]), int(ev["p"]))
        stamps[i + 1] = time.perf_counter_ns()
    lat = np.diff(stamps) / 1000.0  # microseconds
    dec = max(n // 10, 1)
    total_s = (stamps[-1] - stamps[0]) / 1e9
    ratio = float(lat[-dec:].mean() / lat[:dec].mean())
    return {
        "events": n,
        "events_per_sec": n / total_s,
        "mean_us": float(lat.mean()),
        "p99_us": float(np.percentile(lat, 99)),
        "decile_ratio": ratio,
        "constant_cost_ok": ratio <= 2.0,
        "checksum": pipe.snapshot().checksum(),
    }
