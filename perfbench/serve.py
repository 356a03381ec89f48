"""The two serving workloads: one client process, one server process.

The server (`server_proc.py`) runs in its own process so the client does
not share its GIL; there is one connection, used for every request.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import eva.events as EV
import eva.server as S
from eva.config import ENCODER_PROFILES

from measure import at_ref, patch_ids, probe_s, reference_tiles, tiles_match
from server_proc import PARAM_SEED, SENSOR
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SNAP_HEADER_BYTES = 21   # fixed EVAR header: magic, kind, C, tile, rows, cols, watermark
FRAME_HEADER_BYTES = 5   # opcode u8 + length u32
SAMPLE_PATCHES = 4       # tiles compared against encode_events per check

# serve_wide: closed loop, back-to-back INGEST frames over uniform noise
WIDE_FRAME = 256         # events per INGEST frame (~63 of 64 patches touched)
WIDE_SNAP_EVERY = 8      # a full-frame SNAPSHOT after every 8th INGEST frame
WIDE_RATE = 100_000.0    # virtual event rate of the generated stream (sets dt)
WIDE_BLOCK_US = 1_000_000
WIDE_MAX_RATE = 30_000   # events generated per measured second (~20x the seed)

# serve_track: open loop, a moving dot replayed in real time
TRACK_RATE = 200.0       # events/s, well below the seed's ~1.5k events/s capacity
TRACK_TICK_S = 0.020     # a consumer sampling the representation at 50 Hz
TRACK_STREAM_US = 60_000_000


def geometry():
    return EV.SensorGeometry(SENSOR, SENSOR, ENCODER_PROFILES["dvs"].patch)


def wide_stream(seed: int, need: int, geom) -> np.ndarray:
    """First `need` events of an unbounded uniform-noise stream, made of
    1 s blocks with seeds derived from the workload seed."""
    blocks, have, b = [], 0, 0
    while have < need:
        ev = EV.synth_generate("uniform_noise", geom, WIDE_BLOCK_US, WIDE_RATE,
                               seed=seed * 1_000_003 + b)
        ev["t"] += b * WIDE_BLOCK_US
        blocks.append(ev)
        have += len(ev)
        b += 1
    return np.concatenate(blocks)[:need]


def track_stream(seed: int, geom) -> np.ndarray:
    return EV.synth_generate("moving_dot", geom, TRACK_STREAM_US, TRACK_RATE, seed=seed)


def pack_records(events: np.ndarray, prev_t: int) -> bytes:
    """INGEST payload; dt continues the connection's running timestamp."""
    t = events["t"].astype(np.int64)
    dt = np.diff(t, prepend=prev_t)
    if len(dt) and (dt.min() < 0 or dt.max() > 0xFFFF):
        raise ValueError("generated stream has a gap the wire format cannot carry")
    rec = np.empty((len(events), 4), dtype="<u2")
    rec[:, 0] = dt
    rec[:, 1] = events["x"]
    rec[:, 2] = events["y"]
    rec[:, 3] = events["p"]
    return rec.tobytes()


class Server:
    """One server process plus the client connection to it.

    Set-up time runs from process start to the first STATS reply; the
    probe that follows it is `setup_probe_s`."""

    def __init__(self, out_dir: Path, env: dict, trace: bool, tracer: Tracer | None = None):
        self.out = out_dir / f"server-{time.perf_counter_ns()}.json"
        self.tracer = tracer
        # per request: (op, rtt_ns, bytes sent, bytes received), headers included
        self.frames: list[tuple[int, int, int, int]] = []
        self.prev_t = 0
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server_proc.py"), str(self.out), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.client = None
        try:
            port = int(self.proc.stdout.readline())
            self.client = S.EvaClient("127.0.0.1", port)
            self.stats()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0
        self.setup_probe_s = probe_s()

    def _timed(self, op, fn, *args):
        if self.tracer is not None:
            self.tracer.frame = len(self.frames)
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.frames.append((op, time.perf_counter_ns() - t0, FRAME_HEADER_BYTES, 0))
        return out

    def _sizes(self, sent: int, received: int) -> None:
        op, rtt, _, _ = self.frames[-1]
        self.frames[-1] = (op, rtt, FRAME_HEADER_BYTES + sent, FRAME_HEADER_BYTES + received)

    def stats(self) -> dict:
        return self._timed(3, self.client.stats)

    def ingest(self, events: np.ndarray) -> tuple[int, int]:
        payload = pack_records(events, self.prev_t)
        if len(events):
            self.prev_t = int(events["t"][-1])
        out = self._timed(1, self.client.ingest_records, payload)
        self._sizes(len(payload), 16)
        return out

    def snapshot(self):
        snap = self._timed(2, self.client.snapshot)
        self._sizes(0, SNAP_HEADER_BYTES + snap.values.nbytes + 8 * snap.patch_watermarks.size)
        return snap

    def rtts(self, op: int) -> list[float]:
        return [f[1] / 1e9 for f in self.frames if f[0] == op]

    def close(self) -> dict:
        """Stop the server process and return what it wrote at exit."""
        if self.client is not None:
            self.client.close()
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0 or not self.out.exists():
            raise RuntimeError(f"server process exited with {self.proc.returncode}")
        with open(self.out) as fh:
            result = json.load(fh)
        self.out.unlink()
        return result


def check_outputs(srv: Server, sent: np.ndarray, accepted: int, rejected: int,
                  params, geom) -> list[tuple[str, bool, str]]:
    """Output checks after a run; references are computed here, untimed."""
    checks = []
    stats = srv.stats()
    n_stat = int(stats["events_ingested"]) + int(stats["events_rejected"])
    checks.append(("accepted+rejected == sent",
                   accepted + rejected == len(sent) and n_stat == len(sent),
                   f"{accepted}+{rejected} (STATS {n_stat}) vs {len(sent)}"))
    snap = srv.snapshot()
    pid = patch_ids(sent, geom)
    want = np.zeros(geom.n_patches, dtype=np.int64)
    np.maximum.at(want, pid, sent["t"])  # events are time-ordered
    got = snap.patch_watermarks.reshape(-1)
    checks.append(("watermarks == last event time per patch",
                   bool(np.array_equal(got, want)),
                   f"{int(np.count_nonzero(got != want))} patches differ"))
    ok, worst = tiles_match(snap.values, reference_tiles(sent, params, geom, SAMPLE_PATCHES),
                            snap.tile)
    checks.append(("sampled tiles match encode_events", ok, f"max rel err {worst:.2e}"))
    return checks


def active_patches(frames_pid: list[np.ndarray]) -> list[int]:
    return [len(np.unique(p)) for p in frames_pid]


def run_wide(srv: Server, seed: int, seconds: float, geom) -> dict:
    """Closed loop: INGEST frames back to back, a SNAPSHOT every k-th."""
    stream = wide_stream(seed, int(max(seconds, 1) * WIDE_MAX_RATE), geom)
    accepted = rejected = failed = attempted = 0
    pos = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    cycle_start, cycle_s, probes, idle = t_start, [], [], 0.0
    while time.perf_counter() < deadline and pos + WIDE_FRAME <= len(stream):
        frame = stream[pos:pos + WIDE_FRAME]
        attempted += 1
        try:
            a, r = srv.ingest(frame)
        except (OSError, RuntimeError, ConnectionError):
            failed += 1
            break
        pos += WIDE_FRAME
        accepted += a
        rejected += r
        if (pos // WIDE_FRAME) % WIDE_SNAP_EVERY == 0:
            attempted += 1
            try:
                srv.snapshot()
            except (OSError, RuntimeError, ConnectionError):
                failed += 1
                break
            now = time.perf_counter()
            cycle_s.append(now - cycle_start)
            probes.append(probe_s())
            cycle_start = time.perf_counter()
            idle += cycle_start - now
    wall = time.perf_counter() - t_start
    sent = stream[:pos]
    pid = patch_ids(sent, geom)
    # INGEST frames of whole cycles, each rescaled by its cycle's probe
    ingest = srv.rtts(1)[:len(probes) * WIDE_SNAP_EVERY]
    cycle_probe = np.repeat(probes, WIDE_SNAP_EVERY)
    cycle_events = WIDE_FRAME * WIDE_SNAP_EVERY
    return {"wall_s": wall, "idle_s": idle, "sent": sent,
            "accepted": accepted,
            # median over cycles of 8 INGEST frames and one SNAPSHOT
            "events_per_s": float(np.median(np.divide(cycle_events, at_ref(cycle_s, probes))))
            if probes else 0.0,
            "raw_events_per_s": float(np.median(np.divide(cycle_events, cycle_s)))
            if probes else 0.0,
            "rejected": rejected, "attempted": attempted, "failed": failed,
            "latency_s": at_ref(ingest, cycle_probe), "raw_latency_s": ingest,
            "probe_s": probes, "ingest_rtt_s": srv.rtts(1), "snapshot_rtt_s": srv.rtts(2),
            "active": active_patches(np.split(pid, range(WIDE_FRAME, len(pid), WIDE_FRAME))),
            "lag_s": []}


def run_track(srv: Server, seed: int, seconds: float, geom) -> dict:
    """Open loop: every tick sends the events that came due, then a SNAPSHOT.

    The latency sample is a tick's round trip, from sending its INGEST to
    receiving its SNAPSHOT, and throughput is events per second of those
    round trips: the work eva does per tick. Each round trip is followed by
    a probe, and the client spins, not sleeps, until the next tick, so the
    shared CPU never idles: waking an idle virtual CPU took a host-dependent
    delay that moved the tick round trip's ten-run median by about 40%
    between two sets of runs. Each event is also timed from its scheduled
    creation to the receipt of the snapshot that includes it; that adds up
    to a tick of waiting for the schedule, which the host's timer and
    scheduler, not eva, set, so it is reported without a bound."""
    stream = track_stream(seed, geom)
    offs = stream["t"] / 1e6
    accepted = rejected = failed = attempted = 0
    tick_rtt, probes, latency, lags, active = [], [], [], [], []
    i, k, idle = 0, 0, 0.0
    t_begin = time.perf_counter()
    t_start = t_begin + TRACK_TICK_S
    deadline = t_start + seconds
    while True:
        due = t_start + k * TRACK_TICK_S
        if due >= deadline:
            break
        now = time.perf_counter()
        if now < due:
            while time.perf_counter() < due:  # spin, not sleep
                pass
            idle += time.perf_counter() - now
            now = time.perf_counter()
        lags.append(now - due)
        k = max(k + 1, int((now - t_start) / TRACK_TICK_S) + 1)
        j = int(np.searchsorted(offs, now - t_start, side="right"))
        if j == i:
            continue
        frame = stream[i:j]
        attempted += 2
        t_send = time.perf_counter()
        try:
            a, r = srv.ingest(frame)
            srv.snapshot()
        except (OSError, RuntimeError, ConnectionError):
            failed += 1
            break
        t_recv = time.perf_counter()
        tick_rtt.append(t_recv - t_send)
        latency.extend(t_recv - (t_start + offs[i:j]))
        t_probe = time.perf_counter()
        probes.append(probe_s())
        idle += time.perf_counter() - t_probe
        accepted += a
        rejected += r
        active.append(len(np.unique(patch_ids(frame, geom))))
        i = j
    wall = time.perf_counter() - t_begin
    return {"wall_s": wall, "idle_s": idle, "sent": stream[:i],
            "accepted": accepted, "rejected": rejected, "attempted": attempted,
            "failed": failed,
            "events_per_s": accepted / sum(at_ref(tick_rtt, probes)) if tick_rtt else 0.0,
            "raw_events_per_s": accepted / sum(tick_rtt) if tick_rtt else 0.0,
            "latency_s": at_ref(tick_rtt, probes), "raw_latency_s": tick_rtt,
            "probe_s": probes, "event_latency_s": latency,
            "ingest_rtt_s": srv.rtts(1), "snapshot_rtt_s": srv.rtts(2),
            "active": active, "lag_s": lags}


RUNNERS = {"serve_wide": run_wide, "serve_track": run_track}


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the server processes it starts, which inherit
    its affinity, on its lowest allowed CPU: the probe then times the CPU
    the server ran on."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def serve_phase(workload: str, seed: int, seconds: float, out_dir: Path, env: dict,
                params, trace: bool) -> dict:
    """Start a server, drive it for `seconds`, check it, stop it."""
    geom = geometry()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(spans=(("eva.snapshots:load_snapshot", "snapshots.load"),), counts=())
    srv = Server(out_dir, env, trace, tracer)
    try:
        n_setup_frames = len(srv.frames)
        res = RUNNERS[workload](srv, seed, seconds, geom)
        res["measured_frames"] = (n_setup_frames, len(srv.frames))
        if tracer is not None:
            tracer.frame = -1
            tracer.uninstall()
        res["checks"] = check_outputs(srv, res["sent"], res["accepted"], res["rejected"],
                                      params, geom)
    finally:
        if tracer is not None:
            tracer.uninstall()
        server_out = srv.close()
    res["setup_s"] = srv.setup_s
    res["setup_probe_s"] = srv.setup_probe_s
    res["peak_rss_mb"] = server_out["peak_rss_mb"]
    res["frames"] = srv.frames
    res["server_trace"] = server_out if trace else None
    res["client_trace"] = tracer.export() if tracer is not None else None
    return res


def setup_only(out_dir: Path, env: dict) -> tuple[float, float]:
    """Set-up time of one server and the probe after it."""
    srv = Server(out_dir, env, trace=False)
    srv.close()
    return srv.setup_s, srv.setup_probe_s


def serve_params():
    from eva.params import init_encoder_params
    return init_encoder_params(ENCODER_PROFILES["dvs"], seed=PARAM_SEED)
