#!/usr/bin/env python3
"""Round-trip demo: generate a stream, encode each patch with the
chunked-parallel path, then replay the stream through the live socket
server and compare the snapshots.

Exits with status 1 when the live frame deviates from the chunked one by
more than BOUND relative to its peak.

Usage: python scripts/stream_roundtrip.py [--events 50000]
"""

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from eva.config import ENCODER_PROFILES
from eva.encoder import encode_events
from eva.events import SensorGeometry, pack_binary, partition_patches, synth_generate
from eva.params import init_encoder_params
from eva.pipeline import A2SPipeline
from eva.server import EvaClient, EvaServer

# the live (recurrent) and chunked modes agree to this, relative to the peak
BOUND = 1e-3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--events", type=int, default=50_000)
    ap.add_argument("--profile", default="small")
    ap.add_argument("--sensor", type=int, default=64)
    args = ap.parse_args()

    cfg = replace(ENCODER_PROFILES[args.profile], precision="f32")
    params = init_encoder_params(cfg, seed=0)
    geom = SensorGeometry(args.sensor, args.sensor, cfg.patch)
    duration = 1_000_000
    events = synth_generate("moving_bar", geom, duration,
                            args.events * 1e6 / duration, seed=1)
    events["t"] -= events["t"][0]
    print(f"{len(events)} events over {geom.grid_rows}x{geom.grid_cols} patches")

    t0 = time.perf_counter()
    Dh = cfg.mvhs_d_head
    chunked = np.zeros((cfg.n_out, geom.grid_rows * Dh, geom.grid_cols * Dh), np.float32)
    for (r, c), local in partition_patches(events, geom).items():
        snaps, _ = encode_events(params, local)
        chunked[:, r * Dh:(r + 1) * Dh, c * Dh:(c + 1) * Dh] = snaps[-1, :cfg.n_out]
    print(f"chunked encode per patch: {time.perf_counter() - t0:.2f}s")

    pipe = A2SPipeline(params, geom)
    with EvaServer(pipe) as server:
        host, port = server.address
        t0 = time.perf_counter()
        with EvaClient(host, port) as client:
            records = pack_binary(events)
            for i in range(0, len(records), 8192 * 8):
                client.ingest_records(records[i:i + 8192 * 8])
            live = client.snapshot()
            stats = client.stats()
        print(f"live ingest+snapshot: {time.perf_counter() - t0:.2f}s")

    rel = np.abs(live.values - chunked).max() / np.abs(chunked).max()
    print(f"frame {live.values.shape}, max relative deviation {rel:.2e} (bound {BOUND:.0e})")
    print("server stats:", dict(stats))
    return 0 if rel <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
