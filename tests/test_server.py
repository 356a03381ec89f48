import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.config import EncoderConfig
from eva.events import (EventFormatError, SensorGeometry, decode_records, pack_binary,
                        synth_generate, unpack_binary)
from eva.params import init_encoder_params
from eva.pipeline import A2SPipeline
from eva.server import (MAX_PAYLOAD, OP_ERROR, OP_INGEST, EvaClient, EvaServer,
                        read_frame, write_frame)
from helpers import chunked_frame, overflowing_mvhs

CFG = EncoderConfig(d_model=16, n_blocks=1, n_heads=2, d_ffn=24, d_lora=4,
                    d_w=4, mvhs_heads=2, mvhs_d_head=8, n_out=2, patch=8,
                    precision="f32")
GEOM = SensorGeometry(16, 16, 8)


@pytest.fixture()
def server():
    params = init_encoder_params(CFG, seed=0)
    pipe = A2SPipeline(params, GEOM, threads=1)
    with EvaServer(pipe) as srv:
        yield srv


def test_ingest_then_snapshot_matches_offline(server):
    params = server.pipeline.params
    ev = synth_generate("moving_dot", GEOM, 80_000, 2000.0, seed=1)
    records = pack_binary(ev)
    host, port = server.address
    with EvaClient(host, port) as client:
        acc, rej = client.ingest_records(records)
        assert (acc, rej) == (len(ev), 0)
        snap = client.snapshot()
    # the chunked reference sees the same stream rebased to t0 = 0
    ev_rb = ev.copy()
    ev_rb["t"] -= ev_rb["t"][0]
    chunked, _ = chunked_frame(params, ev_rb, GEOM)
    rel = np.abs(snap.values - chunked).max() / np.abs(chunked).max()
    assert rel <= 1e-3
    assert snap.watermark == int(ev_rb["t"][-1])


def test_empty_ingest_zero_frame(server):
    host, port = server.address
    with EvaClient(host, port) as client:
        acc, rej = client.ingest_records(b"")
        assert (acc, rej) == (0, 0)
        snap = client.snapshot()
        assert np.all(snap.values == 0.0)


def test_stats_and_rejection_counter(server):
    host, port = server.address
    rec = np.array([[100, 0, 0, 0]], dtype="<u2").tobytes()
    bad = np.array([[0, 77, 0, 0]], dtype="<u2").tobytes()  # x out of bounds
    with EvaClient(host, port) as client:
        client.ingest_records(rec)
        acc, rej = client.ingest_records(bad)
        assert (acc, rej) == (0, 1)
        stats = client.stats()
        assert int(stats["events_ingested"]) == 1


def test_stats_report_process_memory(server):
    # the server process's minor page faults and peak RSS: ints, and
    # counters that never go down
    host, port = server.address
    rec = np.array([[100, 0, 0, 0], [5, 9, 9, 1]], dtype="<u2").tobytes()
    with EvaClient(host, port) as client:
        first = client.stats()
        client.ingest_records(rec)
        second = client.stats()
    for key in ("minor_page_faults", "max_rss_kb"):
        assert int(first[key]) > 0 and int(second[key]) >= int(first[key])


def test_single_patch_snapshot(server):
    host, port = server.address
    with EvaClient(host, port) as client:
        client.ingest_records(np.array([[5, 9, 9, 1]], dtype="<u2").tobytes())
        snap = client.snapshot(patch=(1, 1))
        assert snap.patch_watermarks[1, 1] == 5
        with pytest.raises(RuntimeError, match="unknown patch"):
            client.snapshot(patch=(9, 9))


def test_dt_accumulates_across_frames(server):
    host, port = server.address
    with EvaClient(host, port) as client:
        client.ingest_records(np.array([[10, 0, 0, 0]], dtype="<u2").tobytes())
        client.ingest_records(np.array([[15, 0, 0, 0]], dtype="<u2").tobytes())
        snap = client.snapshot(patch=(0, 0))
        assert snap.patch_watermarks[0, 0] == 25


def test_out_of_bounds_record_advances_cursor(server):
    host, port = server.address
    with EvaClient(host, port) as client:
        assert client.ingest_records(np.array([[10, 99, 0, 0]], dtype="<u2").tobytes()) == (0, 1)
        assert client.ingest_records(np.array([[15, 0, 0, 0]], dtype="<u2").tobytes()) == (1, 0)
        snap = client.snapshot(patch=(0, 0))
        assert snap.patch_watermarks[0, 0] == 25


def test_polarity_above_one_is_out_of_bounds(server):
    # 256 would wrap to polarity 0 in an int8 field
    host, port = server.address
    recs = np.array([[10, 0, 0, 256], [5, 0, 0, 2], [5, 0, 0, 1]], dtype="<u2")
    with EvaClient(host, port) as client:
        assert client.ingest_records(recs.tobytes()) == (1, 2)
        assert int(client.stats()["events_out_of_bounds"]) == 2


def test_unexpected_exception_gets_error_frame(server, monkeypatch):
    def broken(events):
        raise RuntimeError("boom")
    monkeypatch.setattr(server.pipeline, "ingest_events", broken)
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    try:
        write_frame(sock, OP_INGEST, np.array([[1, 0, 0, 0]], dtype="<u2").tobytes())
        op, payload = read_frame(sock)
        assert op == OP_ERROR
        assert b"RuntimeError: boom" in payload
        assert read_frame(sock) is None  # then the server closes the connection
    finally:
        sock.close()
    monkeypatch.undo()
    with EvaClient(host, port) as client:  # and keeps serving others
        assert client.ingest_records(np.array([[1, 0, 0, 0]], dtype="<u2").tobytes()) == (1, 0)


def test_protocol_violation_gets_error_frame(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    try:
        write_frame(sock, OP_INGEST, b"\x00" * 7)  # ragged payload
        op, payload = read_frame(sock)
        assert op == OP_ERROR
        assert b"INGEST" in payload
    finally:
        sock.close()


def test_unknown_opcode_gets_error(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10)
    try:
        write_frame(sock, 0x42, b"")
        op, _ = read_frame(sock)
        assert op == OP_ERROR
    finally:
        sock.close()


def test_concurrent_snapshot_clients(server):
    host, port = server.address
    ev = synth_generate("uniform_noise", GEOM, 50_000, 3000.0, seed=2)
    records = pack_binary(ev)
    outputs = []
    def snapper():
        with EvaClient(host, port) as c:
            for _ in range(4):
                outputs.append(c.snapshot())
    threads = [threading.Thread(target=snapper) for _ in range(2)]
    for th in threads:
        th.start()
    with EvaClient(host, port) as c:
        step = (len(records) // 8 // 5) * 8
        for i in range(0, len(records), max(step, 8)):
            c.ingest_records(records[i:i + max(step, 8)])
    for th in threads:
        th.join()
    assert len(outputs) == 8
    valid = {0} | set((ev["t"] - ev["t"][0]).tolist())
    for snap in outputs:
        for wm in snap.patch_watermarks.ravel():
            assert int(wm) in valid


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the server thread meets the Inf
def test_stats_count_each_kind_of_rejection():
    # token 83 (x=3, y=2, p=1 within its patch) has an Inf embedding row
    params = init_encoder_params(CFG, seed=0).astype(np.float64)
    params.embed[1 * 64 + 2 * 8 + 3, 0] = np.inf
    recs = [
        [[1000, 0, 0, 0], [0, 9, 9, 0]],            # patches (0, 0) and (1, 1) reach t = 1000
        [[10, 1, 1, 0], [5, 10, 10, 1],             # t = 10, 15 on a new connection: late
         [5, 77, 0, 0],                             # out of bounds
         [5, 11, 2, 1],                             # patch (0, 1), token 83: non-finite
         [5, 2, 12, 0]],                            # patch (1, 0): accepted
    ]
    with EvaServer(A2SPipeline(params, GEOM)) as srv:
        host, port = srv.address
        with EvaClient(host, port) as first:
            assert first.ingest_records(np.array(recs[0], dtype="<u2").tobytes()) == (2, 0)
        with EvaClient(host, port) as second:
            assert second.ingest_records(np.array(recs[1], dtype="<u2").tobytes()) == (1, 4)
            stats = {k: int(v) for k, v in second.stats().items()}
    assert stats["events_ingested"] == 3
    assert (stats["events_out_of_order"], stats["events_nonfinite"],
            stats["events_out_of_bounds"]) == (2, 1, 1)
    assert stats["events_rejected"] == 4
    assert stats["events_ingested"] + stats["events_out_of_order"] + \
        stats["events_nonfinite"] + stats["events_out_of_bounds"] == 7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the server thread meets the overflow
def test_overflowing_state_is_counted():
    # finite inputs whose k v^T overflows f32: INGEST rejects every event
    # and STATS counts them as non-finite
    params, geom, ev = overflowing_mvhs()
    with EvaServer(A2SPipeline(params, geom)) as srv, EvaClient(*srv.address) as client:
        assert client.ingest_records(pack_binary(ev)) == (0, 40)
        stats = {k: int(v) for k, v in client.stats().items()}
        assert np.isfinite(client.snapshot().values).all()
    assert stats["events_nonfinite"] == stats["events_rejected"] == 40


class _ChunkedSocket:
    """recv_into over a byte string, at most chunks[i] bytes per call
    (then whatever is asked), returning 0 only at the end of the data."""

    def __init__(self, data: bytes, chunks):
        self.data, self.pos, self.chunks = data, 0, list(chunks)

    def recv_into(self, view):
        step = self.chunks.pop(0) if self.chunks else len(view)
        k = min(len(view), step, len(self.data) - self.pos)
        view[:k] = self.data[self.pos:self.pos + k]
        self.pos += k
        return k


def _frame_corrupted(op, payload, at, byte, cut):
    """A valid frame with the byte at `at` replaced (if inside), cut to `cut` bytes."""
    data = struct.pack("<BI", op, len(payload)) + payload
    if at < len(data):
        data = data[:at] + bytes([byte]) + data[at + 1:]
    return data[:cut]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
           st.binary(max_size=48),
           st.builds(_frame_corrupted, st.integers(0, 255), st.binary(max_size=40),
                     st.integers(0, 60), st.integers(0, 255), st.integers(0, 60))),
       st.lists(st.integers(1, 9), max_size=12))
def test_read_frame_parses_or_raises_value_error(data, chunks):
    sock = _ChunkedSocket(data, chunks)
    try:
        frame = read_frame(sock)
    except ValueError:
        assert len(data) >= 5 and struct.unpack("<BI", data[:5])[1] > MAX_PAYLOAD
        return
    if len(data) < 5:
        assert frame is None
        return
    op, length = struct.unpack("<BI", data[:5])
    assert length <= MAX_PAYLOAD
    if len(data) < 5 + length:
        assert frame is None
    else:
        assert frame[0] == op
        assert len(frame[1]) == length and bytes(frame[1]) == data[5:5 + length]


def test_wire_and_file_decoders_agree(server):
    # the same records, read as one file body and sent as INGEST frames with
    # the cursor carried across them, give the same events up to the base
    # offset; a polarity of 2 or more is rejected by both, never wrapped
    rng = np.random.default_rng(12)
    n = 40
    rec = np.stack([rng.integers(0, 3000, n), rng.integers(0, 16, n),
                    rng.integers(0, 16, n), rng.integers(0, 2, n)], 1).astype("<u2")
    rec[0, 0] = 700  # a file reads its first gap as the base; the wire adds it
    file_ev = unpack_binary(rec.tobytes())
    wire_ev = decode_records(rec.tobytes(), 5)
    assert np.array_equal(wire_ev["t"] - wire_ev["t"][0], file_ev["t"])
    for name in "xyp":
        assert np.array_equal(wire_ev[name], file_ev[name])
    bad = np.array([5, 17, 31])
    rec[bad, 3] = [2, 256, 65535]
    with pytest.raises(EventFormatError, match="polarity"):
        unpack_binary(rec.tobytes())
    wire_bad = decode_records(rec.tobytes(), 5)
    assert np.array_equal(wire_bad["p"][bad], [2, 2, 2])
    assert np.array_equal(np.delete(wire_bad, bad), np.delete(wire_ev, bad))
    host, port = server.address
    with EvaClient(host, port) as client:
        replies = [client.ingest_records(part.tobytes()) for part in np.split(rec, [9, 10, 26])]
        snap = client.snapshot()
    assert [sum(r) for r in zip(*replies)] == [n - len(bad), len(bad)]
    ref = A2SPipeline(server.pipeline.params, GEOM)
    assert ref.ingest_events(decode_records(rec.tobytes(), 0)) == (n - len(bad), len(bad))
    want = ref.snapshot()  # stepped in other waves, so equal to rounding
    assert np.array_equal(snap.patch_watermarks, want.watermarks)
    assert np.allclose(snap.values, want.values, rtol=1e-5, atol=1e-6)
