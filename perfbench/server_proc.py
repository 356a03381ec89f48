"""Child process that serves an A2SPipeline over TCP for the serve workloads.

Usage: server_proc.py OUT_JSON TRACE(0|1)

Builds `dvs` f32 parameters from a fixed-seed init on a 128x128 sensor,
starts EvaServer on an ephemeral localhost port and prints the port on
stdout. It serves until its stdin closes, then writes its peak RSS and,
when tracing, its spans to OUT_JSON. With TRACE=1 the wrappers are
installed before the server starts serving.
"""

from __future__ import annotations

import json
import sys
import time

from measure import peak_rss_mb
from tracing import Tracer

PARAM_SEED = 0
SENSOR = 128
OP_NAMES = {1: "server.ingest", 2: "server.snapshot", 3: "server.stats"}


def install_server_spans(tracer: Tracer) -> None:
    """Per-frame root spans, from read_frame's return to write_frame's end.

    The part of read_frame after the frame header arrived is frame I/O;
    the wait for the header is idle time between requests."""
    local = tracer._local

    def wrap_recv(orig):
        def recv(sock, n):
            out = orig(sock, n)
            if getattr(local, "hdr_t", 0) is None:
                local.hdr_t = time.perf_counter_ns()
            return out
        return recv

    def wrap_read(orig):
        def read_frame(sock):
            local.hdr_t = None
            frame = orig(sock)
            t_ret = time.perf_counter_ns()
            hdr_t = local.hdr_t or t_ret
            local.hdr_t = 0
            if frame is None:
                return frame
            tracer.frame += 1
            tracer.record("server.frame_io", hdr_t, t_ret)
            tracer.open(OP_NAMES.get(frame[0], "server.other"), t_ret)
            return frame
        return read_frame

    def wrap_write(orig):
        def write_frame(sock, op, payload=b""):
            tracer.open("server.frame_io")
            try:
                return orig(sock, op, payload)
            finally:
                tracer.close()
                if tracer.stack():
                    tracer.close()
        return write_frame

    tracer.patch("eva.server:_recv_exact", wrap_recv)
    tracer.patch("eva.server:read_frame", wrap_read)
    tracer.patch("eva.server:write_frame", wrap_write)


def main() -> int:
    out_path, trace = sys.argv[1], sys.argv[2] == "1"
    from eva.config import ENCODER_PROFILES
    from eva.events import SensorGeometry
    from eva.params import init_encoder_params
    from eva.pipeline import A2SPipeline
    from eva.server import EvaServer

    tracer = Tracer()
    if trace:
        tracer.install()
        install_server_spans(tracer)
    params = init_encoder_params(ENCODER_PROFILES["dvs"], seed=PARAM_SEED)
    pipe = A2SPipeline(params, SensorGeometry(SENSOR, SENSOR, params.config.patch))
    server = EvaServer(pipe, "127.0.0.1", 0)
    server.start()
    print(server.address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    result = {"peak_rss_mb": peak_rss_mb()}
    if trace:
        result.update(tracer.export())
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
