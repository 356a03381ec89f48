"""Per-layer metrics of a traced phase.

`.self_us` is self time per unit of work and `.calls` calls per unit of
work; the unit is one event for the serve workloads and offline_encode
and one optimizer step for pretrain_small. Layers that only run during
set-up (`events.read_binary`, `targets.chunk_targets`) are reported per
set-up instead. A layer a workload does not run reports 0.
"""

from __future__ import annotations

import numpy as np

from tracing import END, FRAME, NAME, PARENT, START, aggregate

LAYERS = (
    "runtime.embed_ln0", "runtime.block", "runtime.mvhs",
    "pipeline.ingest", "pipeline.snapshot", "pipeline.encode_offline",
    "snapshots.dump", "snapshots.load",
    "server.ingest", "server.snapshot", "server.frame_io", "server.transport",
    "events.read_binary", "events.partition",
    "embedding.embed_events",
    "encoder.encode_events", "encoder.forward_train", "encoder.backward_train",
    "blocks.tm_fwd", "blocks.tm_bwd", "blocks.cm_fwd", "blocks.cm_bwd", "blocks.ln",
    "scan.decay_fwd", "scan.decay_bwd", "scan.state_fwd", "scan.state_bwd",
    "mvhs.seq_fwd", "mvhs.seq_bwd",
    "heads.fwd", "heads.bwd", "losses.combine", "optim.adam", "train.batch_loss",
    "targets.chunk_targets",
)
SETUP_LAYERS = ("events.read_binary", "targets.chunk_targets")

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    [(f"{layer}.self_us", "us", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("runtime.embed_ln0.macs_per_s", "MAC/s", "higher"),
        ("runtime.block.macs_per_s", "MAC/s", "higher"),
        ("runtime.mvhs.macs_per_s", "MAC/s", "higher"),
        ("blocks.fwd.recurrent_macs_per_s", "MAC/s", "higher"),
        ("mvhs.fwd.recurrent_macs_per_s", "MAC/s", "higher"),
        ("pipeline.active_patches_per_frame.p50", "count", "higher"),
        ("pipeline.active_patches_per_frame.max", "count", "higher"),
        ("pipeline.events_rejected", "count", "lower"),
        ("snapshots.bytes", "B", "lower"),
        ("server.bytes_in", "B", "lower"),
        ("server.bytes_out", "B", "lower"),
        ("client.lag_p99_ms", "ms", "lower"),
        ("scan.chunks", "count", "lower"),
        ("trace.unattributed_us", "us", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.overhead_us", "us", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.absent_targets", "count", "lower"),
        ("e2e.latency_tail_ms", "ms", "lower"),
        ("e2e.event_latency_p50_ms", "ms", "lower"),
        ("e2e.event_latency_p99_ms", "ms", "lower"),
    ]
)


def _layer_entries(agg_measured: dict, agg_setup: dict, units: float, setups: int,
                   out: dict) -> None:
    for layer in LAYERS:
        a, n = (agg_setup, setups) if layer in SETUP_LAYERS else (agg_measured, units)
        rec = a.get(layer, {"self_ns": 0, "calls": 0})
        out[f"{layer}.self_us"] = rec["self_ns"] / 1e3 / n if n else 0.0
        out[f"{layer}.calls"] = rec["calls"] / n if n else 0.0


def _macs(out: dict, macs: dict, tokens_per_unit: float) -> None:
    """Achieved MAC/s from closed-form per-event counts and self times.

    The chunked entries use the recurrent per-token count, not the
    chunked algorithm's own operation count."""
    def rate(n_macs, *layers):
        us = sum(out[f"{layer}.self_us"] for layer in layers)
        return n_macs / (us * 1e-6) if us > 0 else 0.0
    out["runtime.embed_ln0.macs_per_s"] = rate(macs["embed"] + macs["ln0"], "runtime.embed_ln0")
    out["runtime.block.macs_per_s"] = rate(macs["blocks"], "runtime.block")
    out["runtime.mvhs.macs_per_s"] = rate(macs["mvhs"], "runtime.mvhs")
    out["blocks.fwd.recurrent_macs_per_s"] = rate(
        macs["blocks"] * tokens_per_unit, "blocks.tm_fwd", "blocks.cm_fwd", "scan.decay_fwd")
    out["mvhs.fwd.recurrent_macs_per_s"] = rate(
        macs["mvhs"] * tokens_per_unit, "mvhs.seq_fwd", "scan.state_fwd")


def _merged(span_sets, keep) -> dict:
    out: dict = {}
    for spans in span_sets:
        for name, a in aggregate(spans, keep).items():
            m = out.setdefault(name, {"self_ns": 0, "total_ns": 0, "calls": 0})
            for k in m:
                m[k] += a[k]
    return out


def tracing_cost_ns(trace: dict) -> float:
    """Time the wrappers added to the measured work of one process: its
    measured spans plus its counted calls, each charged at the process's
    timed span cost (a counted call costs less, so this errs high)."""
    n = sum(1 for rec in trace["spans"] if rec[FRAME] >= 0) + sum(trace["counts"].values())
    return n * trace["span_cost_ns"]


def layer_metrics(span_sets: list, counts: dict, absent: list, units: float, setups: int,
                  wall_ns: float, macs: dict, tokens_per_unit: float, overhead_ns: float,
                  extra_ns: float = 0.0, extra_calls: int = 0,
                  extra: dict | None = None) -> dict:
    """Per-layer metrics from one span list per process.

    Spans with frame >= 0 are measured work; frame -1 is set-up.
    `overhead_ns` is the tracing cost of the measured work.
    `extra_ns`/`extra_calls` carry time measured outside any span (the
    serve workloads' transport), which counts as attributed; `extra`
    holds metrics computed elsewhere."""
    agg = _merged(span_sets, lambda r: r[FRAME] >= 0)
    agg_setup = _merged(span_sets, lambda r: r[FRAME] == -1)
    agg["server.transport"] = {"self_ns": extra_ns, "calls": extra_calls}
    out: dict = {}
    _layer_entries(agg, agg_setup, units, setups, out)
    _macs(out, macs, tokens_per_unit)
    out.update({name: 0.0 for name, _, _ in PER_LAYER if name not in out})
    out.update(extra or {})
    out["scan.chunks"] = counts.get("scan.chunks", 0) / units if units else 0.0
    attributed = sum(a["self_ns"] for a in agg.values())
    out["trace.unattributed_us"] = (wall_ns - attributed) / 1e3 / units if units else 0.0
    out["trace.unattributed_share"] = (wall_ns - attributed) / wall_ns if wall_ns else 0.0
    out["trace.overhead_us"] = overhead_ns / 1e3 / units if units else 0.0
    out["trace.overhead_share"] = overhead_ns / wall_ns if wall_ns else 0.0
    out["trace.absent_targets"] = float(len(absent))
    return out


def serve_transport(server_spans: list, client_spans: list, frames: list,
                    lo: int, hi: int) -> tuple[float, int]:
    """Sum over frames lo..hi-1 of client RTT minus server-side time minus
    client-side decode: the time a request spent outside both handlers."""
    server_ns = np.zeros(len(frames))
    for rec in server_spans:
        f = rec[FRAME]
        if lo <= f < hi and rec[PARENT] == -1:
            # roots: the handler span and the frame-read part before it
            server_ns[f] += rec[END] - rec[START]
    client_ns = np.zeros(len(frames))
    for rec in client_spans:
        if lo <= rec[FRAME] < hi and rec[NAME] == "snapshots.load":
            client_ns[rec[FRAME]] += rec[END] - rec[START]
    rtt = np.array([f[1] for f in frames], dtype=float)
    sel = slice(lo, hi)
    return float(np.sum(rtt[sel] - server_ns[sel] - client_ns[sel])), hi - lo
