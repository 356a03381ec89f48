"""Streaming socket server: asynchronous ingestion, synchronous snapshots.

Frames are `opcode u8 | payload length u32 LE | payload`:

  0x01 INGEST    payload = packed 8-byte event records (dt, x, y, p as
                 u16 LE). dt accumulates onto a per-connection running
                 timestamp, across frames. Reply: INGEST frame with
                 u64 accepted, u64 rejected.
  0x02 SNAPSHOT  payload empty for the full frame, or u16 row + u16 col
                 for one patch. Reply: SNAPSHOT frame with an `EVAR`
                 container.
  0x03 STATS     Reply: STATS frame with `key = value` text.
  0x7F ERROR     sent on protocol violations and on any failure while
                 serving a request; the connection then closes.

INGEST ordering is guaranteed only within a connection. Out-of-order
events (per patch) are dropped and counted, never fatal. Each INGEST
frame goes to the pipeline as one `ingest_events` batch, so its events
are stepped in waves across patches.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import threading

import numpy as np

from . import snapshots as SN
from .config import format_kv_text, parse_kv_text
from .events import EVENT_DTYPE, RECORD_BYTES
from .pipeline import A2SPipeline

log = logging.getLogger(__name__)

OP_INGEST = 0x01
OP_SNAPSHOT = 0x02
OP_STATS = 0x03
OP_ERROR = 0x7F

_HEAD = struct.Struct("<BI")
MAX_PAYLOAD = 64 * 1024 * 1024


def _recv_exact(sock, n: int) -> bytearray | None:
    """Read exactly n bytes into one preallocated buffer; None on EOF."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            return None
        got += k
    return buf


def read_frame(sock) -> tuple[int, bytes] | None:
    head = _recv_exact(sock, _HEAD.size)
    if head is None:
        return None
    op, length = _HEAD.unpack(head)
    if length > MAX_PAYLOAD:
        raise ValueError(f"payload length {length} exceeds maximum")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        return None
    return op, payload


def write_frame(sock, op: int, payload: bytes = b"") -> None:
    sock.sendall(_HEAD.pack(op, len(payload)) + payload)


def _records_to_events(payload, t_cursor: int) -> np.ndarray:
    """Decode INGEST records onto absolute times t_cursor + cumsum(dt). A
    polarity above 1 is clipped to 2, which stays out of bounds in the
    int8 field instead of wrapping to a valid one."""
    rec = np.frombuffer(payload, dtype="<u2").reshape(-1, 4).astype(np.int64)
    ev = np.empty(len(rec), dtype=EVENT_DTYPE)
    ev["t"] = t_cursor + np.cumsum(rec[:, 0])
    ev["x"], ev["y"] = rec[:, 1], rec[:, 2]
    ev["p"] = np.minimum(rec[:, 3], 2)
    return ev


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        self.t_cursor = 0  # running absolute time for this connection's records
        while True:
            try:
                frame = read_frame(self.request)
            except (ValueError, ConnectionError, OSError) as exc:
                self._error(str(exc))
                return
            if frame is None:
                return
            try:
                if not self._serve(*frame):
                    return
            except Exception as exc:  # a failed request must not kill the thread silently
                log.exception("request with opcode 0x%02x failed", frame[0])
                self._error(f"internal error: {type(exc).__name__}: {exc}")
                return

    def _serve(self, op: int, payload) -> bool:
        """Answer one request; False once the connection must close."""
        pipe: A2SPipeline = self.server.pipeline
        if op == OP_INGEST:
            if len(payload) % RECORD_BYTES:
                self._error(f"INGEST payload not a multiple of {RECORD_BYTES}")
                return False
            events = _records_to_events(payload, self.t_cursor)
            if len(events):  # out-of-bounds records advance the cursor too
                self.t_cursor = int(events["t"][-1])
            accepted, rejected = pipe.ingest_events(events)
            write_frame(self.request, OP_INGEST, struct.pack("<QQ", accepted, rejected))
        elif op == OP_SNAPSHOT:
            if payload and len(payload) != 4:
                self._error("SNAPSHOT payload must be empty or u16 row + u16 col")
                return False
            try:
                ids = [struct.unpack("<HH", payload)] if payload else None
                frame_snap = pipe.snapshot(ids)
            except KeyError as exc:
                self._error(str(exc))
                return False
            write_frame(self.request, OP_SNAPSHOT, frame_snap.to_bytes())
        elif op == OP_STATS:
            text = format_kv_text(pipe.stats())
            write_frame(self.request, OP_STATS, text.encode())
        else:
            self._error(f"unknown opcode 0x{op:02x}")
            return False
        return True

    def _error(self, message: str):
        try:
            write_frame(self.request, OP_ERROR, message.encode())
        except OSError:
            pass


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class EvaServer:
    """Owns a pipeline and serves it over TCP until shut down."""

    def __init__(self, pipeline: A2SPipeline, host: str = "127.0.0.1", port: int = 0):
        self.pipeline = pipeline
        self._server = _TCPServer((host, port), _Handler)
        self._server.pipeline = pipeline
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()


class EvaClient:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)

    def _roundtrip(self, op: int, payload: bytes = b"") -> tuple[int, bytes]:
        write_frame(self.sock, op, payload)
        frame = read_frame(self.sock)
        if frame is None:
            raise ConnectionError("server closed the connection")
        if frame[0] == OP_ERROR:
            raise RuntimeError(f"server error: {frame[1].decode()}")
        return frame

    def ingest_records(self, records: bytes) -> tuple[int, int]:
        op, payload = self._roundtrip(OP_INGEST, records)
        return struct.unpack("<QQ", payload)

    def snapshot(self, patch: tuple[int, int] | None = None) -> SN.Snapshot:
        payload = struct.pack("<HH", *patch) if patch else b""
        _, data = self._roundtrip(OP_SNAPSHOT, payload)
        return SN.load_snapshot(data)

    def snapshot_bytes(self, patch: tuple[int, int] | None = None) -> bytes:
        payload = struct.pack("<HH", *patch) if patch else b""
        return self._roundtrip(OP_SNAPSHOT, payload)[1]

    def stats(self) -> dict:
        _, data = self._roundtrip(OP_STATS)
        return parse_kv_text(data.decode())

    def close(self) -> None:
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
