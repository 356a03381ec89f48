import socket
import threading

import numpy as np
import pytest

from eva.config import EncoderConfig
from eva.events import SensorGeometry, pack_binary, synth_generate
from eva.params import init_encoder_params
from eva.pipeline import A2SPipeline, encode_offline
from eva.server import (OP_ERROR, OP_INGEST, EvaClient, EvaServer,
                        read_frame, write_frame)

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
    # offline reference sees the same stream rebased to t0 = 0
    ev_rb = ev.copy()
    ev_rb["t"] -= ev_rb["t"][0]
    offline = encode_offline(params, ev_rb, GEOM)[-1][1]
    rel = np.abs(snap.values - offline.values).max() / np.abs(offline.values).max()
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
