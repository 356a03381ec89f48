"""Asynchronous-to-synchronous pipeline.

Each sensor patch owns an independent recurrent encoder state, updated
event by event in O(1) per event. The states of all patches are stacked,
and ingestion advances them in waves: the k-th in-order event of every
patch with pending events goes through one batched
`runtime.EncoderRuntime` step. One lock, held per `ingest`/
`ingest_events` call, orders ingestion and snapshots, so a snapshot sees
a whole number of events in every patch. A snapshot tiles the selected
output channels of every patch into a frame tensor; each tile reports its
own last-event watermark so consumers can align patches that advance at
different rates.

The stacks keep the runtime's heads-innermost order (see `runtime`): the
block matrix states of all patches are one (n_blocks * Dh * Dh, patches,
N) store, the MVHS states one (Dh * Dh, patches, N) store, and the
vectors (each block's tm_prev and cm_prev, then the MVHS prev) one
patch-major buffer. A call gathers the patches it touches from each of
the three with one `take` (runs of N floats from the two matrix stores),
ordered by descending event count, so that wave k steps a prefix of the
gathered copy in place; then it scatters the copy back. That is three
gathers and three scatters per call, whatever its size and number of
waves. With the patch axis innermost instead, the gather and scatter
would copy single floats and cost about 10x more.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import snapshots as SN
from .blocks import BlockState
from .encoder import EncoderState, encode_events
from .events import SensorGeometry, partition_patches
from .mvhs import MvhsState
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

    Patch (r, c) is row r * grid_cols + c of the stacked state
    (`_state`, a batched `EncoderState` viewing the stores). `threads` is
    accepted for compatibility and ignored: waves batch the patches in one
    thread."""

    def __init__(self, params: EncoderParams, geometry: SensorGeometry,
                 threads: int | None = None):
        if geometry.patch != params.config.patch:
            raise ValueError("geometry patch size must match the encoder config")
        self.params = params
        self.geometry = geometry
        self.runtime = EncoderRuntime(params)
        cfg = params.config
        n = geometry.grid_rows * geometry.grid_cols
        self._S = np.zeros((cfg.n_blocks * cfg.d_head ** 2, n, cfg.n_heads), params.dtype)
        self._S_mvhs = np.zeros((cfg.mvhs_d_head ** 2, n, cfg.mvhs_heads), params.dtype)
        self._vec = np.zeros((n, (2 * cfg.n_blocks + 1) * cfg.d_model), params.dtype)
        self._state = self._view(self._S, self._S_mvhs, self._vec,
                                 np.full(n, -1, np.int64), np.zeros(n, np.int64))
        self.ingested = 0
        self.out_of_order = 0
        self.nonfinite = 0
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
            return self._run(np.array([pid]), np.array([token]), np.array([t]), [1]) == 1

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
        if not n:
            return 0, len(valid)
        qy, ry = np.divmod(y.astype(np.int64), P)
        qx, rx = np.divmod(x.astype(np.int64), P)
        pid = qy * g.grid_cols + qx
        tok = p.astype(np.int64) * (P * P) + ry * P + rx
        # wave k holds the k-th event of every patch that has one. Rank each
        # event within its patch (its index minus that of its patch's first
        # event, in patch order) and give the patches slots by descending
        # event count, so that wave k is the first bincount(rank)[k] slots;
        # then order the events by (rank, slot)
        order = np.argsort(pid, kind="stable")
        by_patch = pid[order]
        first = np.ones(n, bool)
        np.not_equal(by_patch[1:], by_patch[:-1], out=first[1:])
        idx = np.arange(n)
        rank = idx - np.maximum.accumulate(np.where(first, idx, 0))
        starts = np.flatnonzero(first)
        by_count = np.argsort(-np.diff(starts, append=n), kind="stable")
        slot = np.empty(len(starts), np.int64)
        slot[by_count] = np.arange(len(starts))
        waves = order[np.argsort(rank * len(starts) + slot[np.cumsum(first) - 1])]
        with self._lock:
            accepted = self._run(by_patch[starts[by_count]], tok[waves], events["t"][waves],
                                 np.bincount(rank).tolist())
        return accepted, len(valid) - accepted

    def _run(self, ids, tokens, ts, sizes) -> int:
        """Advance the distinct patches `ids` by waves of events; call under
        the lock. Wave k steps the first sizes[k] patches (sizes do not
        increase) by one event each, from the next sizes[k] entries of
        `tokens` and `ts`. The patches are gathered once, each wave steps a
        prefix of the gathered copy in place, and the copy is scattered
        back. Returns the number of events accepted."""
        st = self._state
        S, S_mvhs, vec = self._S.take(ids, 1), self._S_mvhs.take(ids, 1), self._vec[ids]
        last_t, event_index = st.last_t[ids], st.event_index[ids]
        accepted, lo = 0, 0
        for n in sizes:
            rows = self._view(S[:, :n], S_mvhs[:, :n], vec[:n], last_t[:n], event_index[:n])
            accepted += self._wave(rows, tokens[lo:lo + n], ts[lo:lo + n])
            lo += n
        self._S[:, ids] = S
        self._S_mvhs[:, ids] = S_mvhs
        self._vec[ids] = vec
        st.last_t[ids] = last_t
        st.event_index[ids] = event_index
        return accepted

    def _wave(self, rows, tokens, ts) -> int:
        """Advance every row of the batched state `rows` by one event, in
        place. An event older than its row's watermark is rejected and
        counted, and its row is not stepped; one whose update is non-finite
        zeroes its row's block and MVHS state, keeps its watermark and is
        counted. Returns the number accepted."""
        late = ts < rows.last_t
        if late.any():
            self.out_of_order += int(np.count_nonzero(late))
            ok = np.flatnonzero(~late)
            sub = rows.rows(ok)
            n_ok = self._wave(sub, tokens[ok], ts[ok]) if len(ok) else 0
            for a, b in zip(_arrays(rows), _arrays(sub)):
                a[ok] = b
            return n_ok
        bad = self.runtime.ingest(rows, tokens, ts)
        n_bad = 0 if bad is None else int(np.count_nonzero(bad))
        self.nonfinite += n_bad
        self.ingested += len(ts) - n_bad
        return len(ts) - n_bad

    def _view(self, S, S_mvhs, vec, last_t, event_index) -> EncoderState:
        """The batched state of the patches stored in (S, S_mvhs, vec),
        the layout of the stacks, whose arrays view those stores."""
        cfg = self.params.config
        B, Dh, Dm = len(vec), cfg.d_head, cfg.mvhs_d_head
        S = S.reshape(-1, Dh, Dh, B, cfg.n_heads).transpose(0, 3, 4, 1, 2)
        vecs = vec.reshape(B, -1, cfg.d_model).swapaxes(0, 1)
        blocks = [BlockState(S[i], vecs[2 * i], vecs[2 * i + 1]) for i in range(len(S))]
        mvhs = MvhsState(S_mvhs.reshape(Dm, Dm, B, cfg.mvhs_heads).transpose(2, 3, 0, 1), vecs[-1])
        return EncoderState(blocks, mvhs, last_t, event_index)

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
                "patches": len(self._vec),
                "grid_rows": self.geometry.grid_rows,
                "grid_cols": self.geometry.grid_cols,
            }


def _arrays(state: EncoderState) -> list[np.ndarray]:
    return state.tensors() + [state.last_t, state.event_index]


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
