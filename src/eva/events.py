"""Event stream ingestion: parsing, packing, filtering, patching, slicing.

Events are kept in a numpy structured array (``EVENT_DTYPE``) with fields
``t`` (microseconds, int64), ``x``, ``y`` (int32) and ``p`` (polarity, int8).
Timestamps are required to be non-decreasing within a stream.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

EVENT_DTYPE = np.dtype([("t", "<i8"), ("x", "<i4"), ("y", "<i4"), ("p", "<i1")])

BINARY_MAGIC = b"EVA1"
RECORD_BYTES = 8  # four little-endian u16: dt, x, y, p


class EventFormatError(ValueError):
    """Malformed event data (CSV, binary, or invariant violation)."""


@dataclass(frozen=True)
class SensorGeometry:
    """Sensor pixel dimensions plus the patch side length used for tiling."""

    height: int
    width: int
    patch: int = 16

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0:
            raise ValueError("sensor must have positive area")
        if self.patch <= 0:
            raise ValueError("patch side must be positive")

    @property
    def grid_rows(self) -> int:
        return math.ceil(self.height / self.patch)

    @property
    def grid_cols(self) -> int:
        return math.ceil(self.width / self.patch)

    @property
    def n_patches(self) -> int:
        return self.grid_rows * self.grid_cols

    def locate(self, x, y):
        """(patch id, local x, local y) of pixels (x, y), scalars or arrays:
        patch (row, col) has id row * grid_cols + col; local is modulo patch."""
        qy, ly = divmod(y, self.patch)
        qx, lx = divmod(x, self.patch)
        return qy * self.grid_cols + qx, lx, ly


@dataclass
class Sample:
    """One training window: T input events plus the future tail used for
    next-window targets. ``chunk_len`` must divide the input length."""

    input_events: np.ndarray
    future_events: np.ndarray
    chunk_len: int

    def __post_init__(self):
        if self.chunk_len <= 0 or len(self.input_events) % self.chunk_len:
            raise ValueError("input length must be a positive multiple of chunk_len")


def make_events(t, x, y, p) -> np.ndarray:
    ev = np.empty(len(t), dtype=EVENT_DTYPE)
    ev["t"], ev["x"], ev["y"], ev["p"] = t, x, y, p
    return ev


def empty_events() -> np.ndarray:
    return np.empty(0, dtype=EVENT_DTYPE)


def validate_events(events: np.ndarray, geometry: SensorGeometry | None = None) -> None:
    """Check ordering, polarity and (optionally) coordinate bounds."""
    if len(events) == 0:
        return
    if np.any(np.diff(events["t"]) < 0):
        i = int(np.argmax(np.diff(events["t"]) < 0)) + 1
        raise EventFormatError(f"non-monotonic timestamp at event index {i}")
    if np.any(events["t"] < 0):
        raise EventFormatError("negative timestamp")
    if np.any((events["p"] != 0) & (events["p"] != 1)):
        raise EventFormatError("polarity outside {0, 1}")
    if geometry is not None:
        if np.any((events["x"] < 0) | (events["x"] >= geometry.width)):
            raise EventFormatError("x coordinate out of range")
        if np.any((events["y"] < 0) | (events["y"] >= geometry.height)):
            raise EventFormatError("y coordinate out of range")


# ---------------------------------------------------------------------------
# CSV format: UTF-8 lines "t,x,y,p", LF terminated, optional header line.
# ---------------------------------------------------------------------------

def parse_csv(reader, geometry: SensorGeometry | None = None) -> np.ndarray:
    """Parse `t,x,y,p` lines (a str, bytes, or a text or binary file)
    into an event array.

    A header is detected by a non-numeric first field. Raises
    EventFormatError with a line number on malformed rows, bytes that are
    not UTF-8, decreasing timestamps, or fields out of range (of the
    geometry, or of the event fields' types).
    """
    if isinstance(reader, (str, bytes)):
        reader = io.StringIO(reader) if isinstance(reader, str) else io.BytesIO(reader)
    rows: list[tuple[int, int, int, int]] = []
    prev_t = None
    lines = iter(reader)
    for lineno in itertools.count(1):
        try:
            line = next(lines)
            line = (line.decode() if isinstance(line, bytes) else line).strip()
        except StopIteration:
            break
        except UnicodeDecodeError as exc:
            # a text file decodes a chunk at a time, once its decoded lines
            # run out, so the chunk starts within line `lineno`, and its
            # line ends before the bad byte (\n, \r\n or a bare \r, as a
            # text file splits them) count the lines after that
            head = exc.object[:exc.start]
            bad = lineno + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
            raise EventFormatError(f"line {bad}: not UTF-8") from None
        if not line:
            continue
        parts = line.split(",")
        if lineno == 1:
            head = parts[0].strip()
            if not (head.lstrip("+-").isdigit()):
                continue  # header row
        if len(parts) != 4:
            raise EventFormatError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            t, x, y, p = (int(s.strip()) for s in parts)
        except ValueError as exc:
            raise EventFormatError(f"line {lineno}: {exc}") from None
        if not 0 <= t < 2 ** 63:
            raise EventFormatError(f"line {lineno}: timestamp {t} outside int64 or negative")
        if prev_t is not None and t < prev_t:
            raise EventFormatError(f"line {lineno}: non-monotonic timestamp")
        if p not in (0, 1):
            raise EventFormatError(f"line {lineno}: polarity {p} outside {{0,1}}")
        if geometry is not None and not (0 <= x < geometry.width and 0 <= y < geometry.height):
            raise EventFormatError(f"line {lineno}: coordinate ({x},{y}) out of range")
        if not (-2 ** 31 <= x < 2 ** 31 and -2 ** 31 <= y < 2 ** 31):
            raise EventFormatError(f"line {lineno}: coordinate ({x},{y}) beyond int32")
        rows.append((t, x, y, p))
        prev_t = t
    return np.array(rows, dtype=EVENT_DTYPE)


def write_csv(events: np.ndarray, writer) -> None:
    for ev in events:
        writer.write(f"{ev['t']},{ev['x']},{ev['y']},{ev['p']}\n")


# ---------------------------------------------------------------------------
# Binary format: 8-byte records of little-endian u16 (dt, x, y, p).
# File container adds magic `EVA1` and a u16 (height, width) header.
# Timestamps are stream-relative: the first record carries dt=0, so unpack
# rebuilds absolute t from base 0. dt saturates at 65535 us: a longer gap
# reads back shortened to 65535 us, so `write_binary_file` returns the
# number of saturated records and `eva convert` prints it. The server's
# INGEST frames carry the same records (`decode_records`).
# ---------------------------------------------------------------------------

def _gaps(events: np.ndarray) -> np.ndarray:
    return np.diff(events["t"], prepend=events["t"][:1])


def decode_records(data, t0: int) -> np.ndarray:
    """Events of the packed records `data` on absolute times t0 + cumsum(dt).
    Unchecked but for the length: a polarity above 1 is clipped to 2, which
    stays out of range in the int8 field instead of wrapping to a valid one."""
    if len(data) % RECORD_BYTES:
        raise EventFormatError(f"byte length {len(data)} not a multiple of {RECORD_BYTES}")
    rec = np.frombuffer(data, dtype="<u2").reshape(-1, 4)
    ev = np.empty(len(rec), dtype=EVENT_DTYPE)
    ev["t"] = np.cumsum(rec[:, 0], dtype=np.int64) + t0
    ev["x"], ev["y"] = rec[:, 1], rec[:, 2]
    ev["p"] = np.minimum(rec[:, 3], 2)
    return ev


def pack_binary(events: np.ndarray) -> bytes:
    """Records of `events`, whose gaps saturate at 65535 us. Raises
    EventFormatError for decreasing timestamps or for a coordinate or
    polarity outside the u16 range of a record."""
    if len(events) == 0:
        return b""
    rec = np.stack([np.minimum(_gaps(events), 0xFFFF), events["x"], events["y"], events["p"]], 1)
    bad = (rec.min(0) < 0) | (rec.max(0) > 0xFFFF)
    if bad.any():
        field = ("dt", "x", "y", "p")[bad.argmax()]
        raise EventFormatError(f"{field} outside the u16 range of a record")
    return rec.astype("<u2").tobytes()


def unpack_binary(data: bytes, geometry: SensorGeometry | None = None) -> np.ndarray:
    ev = decode_records(data, 0)
    if len(ev):
        ev["t"] -= ev["t"][0]  # first record's dt is a base offset of zero
    validate_events(ev, geometry)
    return ev


def write_binary_file(path, events: np.ndarray, geometry: SensorGeometry) -> int:
    """Write a `.evt` file; returns the number of records whose gap
    saturated at 65535 us. Raises EventFormatError, before the file is
    opened, for a sensor side or an event the format cannot hold."""
    if max(geometry.height, geometry.width) > 0xFFFF:
        raise EventFormatError(f"sensor size {geometry.height}x{geometry.width} beyond u16")
    records = pack_binary(events)
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(np.array([geometry.height, geometry.width], dtype="<u2").tobytes())
        fh.write(records)
    return int(np.count_nonzero(_gaps(events) > 0xFFFF))


def read_binary_file(path) -> tuple[np.ndarray, SensorGeometry]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise EventFormatError(f"bad magic {magic!r}")
        header = fh.read(4)
        if len(header) < 4:
            raise EventFormatError("file ends inside the sensor size header")
        h, w = (int(v) for v in np.frombuffer(header, dtype="<u2"))
        if not (h and w):
            raise EventFormatError(f"sensor size {h}x{w} has no area")
        geometry = SensorGeometry(h, w)
        events = unpack_binary(fh.read(), geometry)
    return events, geometry


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def filter_hot_pixels(events: np.ndarray, window_us: int = 10_000, threshold: int = 40) -> np.ndarray:
    """Drop events of pixels firing more than `threshold` times in a window.

    Windows are consecutive spans of `window_us`, aligned to the first
    event's timestamp. Counting pools both polarities. Output preserves
    the order of the surviving events. Raises ValueError for a window_us
    <= 0 or a negative threshold.
    """
    if window_us <= 0 or threshold < 0:
        raise ValueError(f"need window_us > 0 and threshold >= 0, got {window_us} and {threshold}")
    if len(events) == 0:
        return events
    win = (events["t"] - events["t"][0]) // window_us
    # composite key (window, y, x) -> per-pixel-per-window counts
    key = (win.astype(np.int64), events["y"].astype(np.int64), events["x"].astype(np.int64))
    order = np.lexsort(key[::-1])
    kw, ky, kx = key[0][order], key[1][order], key[2][order]
    boundary = np.empty(len(events), dtype=bool)
    boundary[0] = True
    boundary[1:] = (kw[1:] != kw[:-1]) | (ky[1:] != ky[:-1]) | (kx[1:] != kx[:-1])
    group = np.cumsum(boundary) - 1
    counts = np.bincount(group)
    keep_sorted = counts[group] <= threshold
    keep = np.empty(len(events), dtype=bool)
    keep[order] = keep_sorted
    return events[keep]


def partition_patches(events: np.ndarray, geometry: SensorGeometry) -> dict[tuple[int, int], np.ndarray]:
    """Split a stream into per-patch streams: {(row, col): the patch's
    events, in stream order, with coordinates re-based to [0, patch)}."""
    out: dict[tuple[int, int], np.ndarray] = {}
    if len(events) == 0:
        return out
    pid, lx, ly = geometry.locate(events["x"], events["y"])
    for u in np.unique(pid):
        mask = pid == u
        local = events[mask]
        local["x"], local["y"] = lx[mask], ly[mask]
        out[divmod(int(u), geometry.grid_cols)] = local
    return out


def slice_samples(patch_events: np.ndarray, T: int, stride: int, future_len: int,
                  chunk_len: int | None = None) -> list[Sample]:
    """Sliding windows of T+future_len events; trailing partials dropped."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    window = T + future_len
    chunk_len = chunk_len or T
    n = len(patch_events)
    samples = []
    for start in range(0, n - window + 1, stride):
        samples.append(Sample(
            input_events=patch_events[start:start + T],
            future_events=patch_events[start + T:start + window],
            chunk_len=chunk_len,
        ))
    return samples


# ---------------------------------------------------------------------------
# Synthetic streams (desk-scale stand-ins for recorded datasets)
# ---------------------------------------------------------------------------

SYNTH_KINDS = ("uniform_noise", "moving_bar", "moving_dot")


def synth_generate(kind: str, geometry: SensorGeometry, duration_us: int,
                   rate: float, seed: int) -> np.ndarray:
    """Generate a deterministic synthetic stream of ~rate events/sec.

    moving_bar: a 2px vertical bar sweeping left-to-right (two sweeps over
    the duration), emitting p=1 on the leading edge and p=0 on the trailing
    edge. moving_dot: a dot circling the center with the same edge rule.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {SYNTH_KINDS}")
    if geometry.height <= 0 or geometry.width <= 0:
        raise ValueError("zero-area geometry")
    rng = np.random.default_rng(seed)
    n = int(round(rate * duration_us / 1e6))
    if n <= 0:
        return empty_events()
    t = np.sort(rng.integers(0, duration_us, size=n))
    H, W = geometry.height, geometry.width
    if kind == "uniform_noise":
        x = rng.integers(0, W, size=n)
        y = rng.integers(0, H, size=n)
        p = rng.integers(0, 2, size=n)
        return make_events(t, x, y, p)
    p = rng.integers(0, 2, size=n)  # 1 = leading edge, 0 = trailing edge
    if kind == "moving_bar":
        period = max(duration_us // 2, 1)
        lead = (W * (t % period)) // period
        bar_w = 2
        x = np.where(p == 1, lead, (lead - bar_w) % W)
        y = rng.integers(0, H, size=n)
        return make_events(t, x, y, p)
    # moving_dot
    period = max(duration_us // 2, 1)
    radius = max(min(H, W) // 3, 1)
    phase = 2 * np.pi * (t % period) / period
    cx = (W // 2 + radius * np.cos(phase)).astype(np.int64)
    cy = (H // 2 + radius * np.sin(phase)).astype(np.int64)
    lag = 2 * np.pi * 0.03
    px = (W // 2 + radius * np.cos(phase - lag)).astype(np.int64)
    py = (H // 2 + radius * np.sin(phase - lag)).astype(np.int64)
    jx = rng.integers(-1, 2, size=n)
    jy = rng.integers(-1, 2, size=n)
    x = np.where(p == 1, cx, px) + jx
    y = np.where(p == 1, cy, py) + jy
    x = np.clip(x, 0, W - 1)
    y = np.clip(y, 0, H - 1)
    return make_events(t, x, y, p)
