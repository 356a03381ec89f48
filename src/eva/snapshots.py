"""`EVAR` snapshot container for representations and target images.

Layout: magic "EVAR", kind u8 (one of `KINDS`: 0 = ec, 1 = ts, 3 =
representation), channels u16, tile side u16, grid rows u16, grid cols
u16, watermark u64 (max event timestamp; 0 if none), then the f32 payload
in channel-major (C, rows*tile, cols*tile) order, then one u64 watermark
per patch (rows * cols entries). A negative watermark is written as 0;
watermarks are read back as int64, so each must be below 2^63. Target
images from `eva oracle` use the sensor's grid of patches with tile = P.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"EVAR"
KIND_EC = 0
KIND_TS = 1
KIND_REPR = 3
KINDS = (KIND_EC, KIND_TS, KIND_REPR)

_HEADER = struct.Struct("<4sBHHHHQ")
_WM_LIMIT = 2 ** 63  # watermarks are stored as u64 but read as int64


class SnapshotError(ValueError):
    pass


@dataclass
class Snapshot:
    kind: int
    values: np.ndarray            # (C, rows*tile, cols*tile) f32
    watermark: int
    grid: tuple[int, int]
    tile: int
    patch_watermarks: np.ndarray  # (rows, cols) int64, 0 where unseen


def dump_snapshot(kind: int, values: np.ndarray, watermark: int,
                  grid: tuple[int, int] = (1, 1),
                  patch_watermarks: np.ndarray | None = None) -> bytes:
    if kind not in KINDS:
        raise SnapshotError(f"unknown snapshot kind {kind}")
    C, H, W = values.shape
    rows, cols = grid
    if rows <= 0 or cols <= 0:
        raise SnapshotError(f"grid {grid} has no patches")
    if H % rows or W % cols or H // rows != W // cols:
        raise SnapshotError(f"values {values.shape} not square-tileable by grid {grid}")
    tile = H // rows
    if patch_watermarks is None:
        patch_watermarks = np.full((rows, cols), watermark, dtype=np.int64)
    header = _HEADER.pack(MAGIC, kind, C, tile, rows, cols, max(watermark, 0))
    wm = np.where(patch_watermarks < 0, 0, patch_watermarks).astype("<u8")
    payload = np.ascontiguousarray(values, dtype="<f4")
    return b"".join((header, memoryview(payload).cast("B"), wm.tobytes()))


def load_snapshot(data: bytes) -> Snapshot:
    if len(data) < _HEADER.size:
        raise SnapshotError(f"snapshot of {len(data)} bytes is shorter than its header")
    magic, kind, C, tile, rows, cols, watermark = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SnapshotError(f"bad magic {magic!r}")
    if kind not in KINDS:
        raise SnapshotError(f"unknown snapshot kind {kind}")
    if rows == 0 or cols == 0:
        raise SnapshotError(f"grid {(rows, cols)} has no patches")
    pos = _HEADER.size
    count = C * rows * tile * cols * tile
    size = pos + 4 * count + 8 * rows * cols
    if len(data) != size:
        raise SnapshotError(f"snapshot of {len(data)} bytes, its header implies {size}")
    values = np.frombuffer(data, dtype="<f4", count=count, offset=pos)
    values = values.reshape(C, rows * tile, cols * tile).copy()
    pos += 4 * count
    wm = np.frombuffer(data, dtype="<u8", count=rows * cols, offset=pos)
    if watermark >= _WM_LIMIT or (wm >= _WM_LIMIT).any():
        raise SnapshotError("watermark of 2^63 or more does not fit int64")
    return Snapshot(kind, values, int(watermark), (rows, cols), tile,
                    wm.reshape(rows, cols).astype(np.int64))

