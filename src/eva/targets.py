"""Handcrafted event representations: event counts (EC) and time surfaces (TS).

Both are 2-channel (per-polarity) P x P images over patch-local events.
EC counts events per pixel inside a closed time window [t_s, t_e]; TS is
exp((t_last - t_ref) / tau) of the most recent event per pixel (0 where a
pixel never fired). Batch and streaming forms agree exactly; they serve as
self-supervision targets, as golden oracles for the learned state, and as
exportable features.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass
class TargetImage:
    values: np.ndarray  # (2, P, P), float64 for ts, int64-valued float for ec
    t_ref: int


def event_count(events: np.ndarray, t_s: int, t_e: int, P: int) -> TargetImage:
    """EC[p, y, x] = #events at (p, x, y) with t in [t_s, t_e] (closed)."""
    img = np.zeros((2, P, P), dtype=np.float64)
    if len(events):
        sel = events[(events["t"] >= t_s) & (events["t"] <= t_e)]
        np.add.at(img, (sel["p"], sel["y"], sel["x"]), 1.0)
    return TargetImage(img, t_e)


def time_surface(events: np.ndarray, t_ref: int, tau: float, P: int) -> TargetImage:
    """TS[p, y, x] = exp((t_last - t_ref) / tau), 0 for silent pixels."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if len(events) and events["t"].max() > t_ref:
        raise ValueError("time surface requires all event t <= t_ref")
    last = np.full((2, P, P), -1, dtype=np.int64)
    if len(events):
        np.maximum.at(last, (events["p"], events["y"], events["x"]), events["t"])
    img = np.where(last >= 0, np.exp((last - t_ref) / float(tau)), 0.0)
    return TargetImage(img, t_ref)


class StreamingTimeSurface:
    """O(1)-per-event time surface: keeps the last timestamp per cell."""

    def __init__(self, P: int):
        self.P = P
        self.last = np.full((2, P, P), -1, dtype=np.int64)
        self.watermark = -1

    def update(self, t: int, x: int, y: int, p: int) -> None:
        if t < self.watermark:
            raise ValueError(f"out-of-order event t={t} < watermark {self.watermark}")
        self.watermark = t
        self.last[p, y, x] = t

    def update_events(self, events: np.ndarray) -> None:
        for ev in events:
            self.update(int(ev["t"]), int(ev["x"]), int(ev["y"]), int(ev["p"]))

    def read(self, t_ref: int, tau: float) -> TargetImage:
        if tau <= 0:
            raise ValueError("tau must be positive")
        img = np.where(self.last >= 0, np.exp((self.last - t_ref) / float(tau)), 0.0)
        return TargetImage(img, t_ref)


class StreamingEventCount:
    """Trailing-window counts: enqueue on update, evict expired on read.

    Reads must use non-decreasing t_ref (eviction is permanent).
    """

    def __init__(self, P: int, window_us: int):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.P = P
        self.window_us = window_us
        self.buf: deque = deque()  # (t, p, y, x), in arrival order
        self.counts = np.zeros((2, P, P), dtype=np.int64)
        self.watermark = -1

    def update(self, t: int, x: int, y: int, p: int) -> None:
        if t < self.watermark:
            raise ValueError(f"out-of-order event t={t} < watermark {self.watermark}")
        self.watermark = t
        self.buf.append((t, p, y, x))
        self.counts[p, y, x] += 1

    def update_events(self, events: np.ndarray) -> None:
        for ev in events:
            self.update(int(ev["t"]), int(ev["x"]), int(ev["y"]), int(ev["p"]))

    def read(self, t_ref: int) -> TargetImage:
        cutoff = t_ref - self.window_us
        while self.buf and self.buf[0][0] < cutoff:
            t, p, y, x = self.buf.popleft()
            self.counts[p, y, x] -= 1
        img = self.counts.astype(np.float64)
        # events newer than t_ref stay buffered but are not counted yet
        for t, p, y, x in reversed(self.buf):
            if t <= t_ref:
                break
            img[p, y, x] -= 1
        return TargetImage(img, t_ref)


def quantize_repr(values: np.ndarray, scale: float = 0.125) -> np.ndarray:
    """u8 quantization: min(255, round(|v| * scale)), half away from zero."""
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values")
    q = np.floor(np.abs(values) * scale + 0.5)
    return np.minimum(q, 255.0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Target construction for training samples
# ---------------------------------------------------------------------------

def _pixel_index(events: np.ndarray, P: int) -> np.ndarray:
    """Flat index of each event's (p, y, x) cell in a (2, P, P) image."""
    return (events["p"].astype(np.int64) * P + events["y"]) * P + events["x"]


def chunk_targets(spec, input_events: np.ndarray, future_events: np.ndarray,
                  chunk_ends, P: int) -> np.ndarray:
    """Target image per chunk end, stacked (K, 2, P, P).

    A trailing-window ("mrp") target sees the events absorbed so far; a
    future ("nrp") target sees the events strictly after the chunk end
    within `horizon_us`, drawn from the rest of the input plus the
    sample's future tail. Every chunk end is built at once, bitwise equal
    to `event_count` or `time_surface` of that end's events.
    """
    ends = np.asarray(chunk_ends, dtype=np.int64)
    K, n_cells = len(ends), 2 * P * P
    if K == 0:
        return np.zeros((0, 2, P, P), dtype=np.float64)
    t = input_events["t"]
    t_end = t[ends - 1]
    if spec.role == "mrp" and spec.kind == "ts":
        if np.any(np.maximum.accumulate(t)[ends - 1] > t_end):
            raise ValueError("time surface requires all event t <= t_ref")
        # last timestamp per cell: each chunk's own maximum, then a running
        # maximum over chunks; events after the last end are never seen
        chunk_of = np.searchsorted(ends, np.arange(len(t)), side="right")
        seen = chunk_of < K
        last = np.full((K, n_cells), -1, dtype=np.int64)
        np.maximum.at(last, (chunk_of[seen], _pixel_index(input_events, P)[seen]), t[seen])
        np.maximum.accumulate(last, axis=0, out=last)
        img = np.where(last >= 0, np.exp((last - t_end[:, None]) / float(spec.tau_us)), 0.0)
        return img.reshape(K, 2, P, P)
    # event counts: which events each chunk end counts, then one bincount
    # over (chunk end, cell)
    if spec.role == "mrp":
        events = input_events
        lo, hi = t_end - spec.window_us, t_end
        member = np.arange(len(events))[None, :] < ends[:, None]
    else:
        # (t_end, t_end + horizon]: integer timestamps make the open
        # left edge equal to a closed edge at t_end + 1
        events = np.concatenate([input_events, future_events])
        lo, hi = t_end + 1, t_end + spec.horizon_us
        member = np.arange(len(events))[None, :] >= ends[:, None]
    te = events["t"][None, :]
    member &= (te >= lo[:, None]) & (te <= hi[:, None])
    j, i = np.nonzero(member)
    counts = np.bincount(j * n_cells + _pixel_index(events, P)[i], minlength=K * n_cells)
    return counts.reshape(K, 2, P, P).astype(np.float64)
