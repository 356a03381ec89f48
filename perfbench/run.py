#!/usr/bin/env python3
"""Benchmark of eva's live serving, offline encoding and pretraining paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; eva is imported from its `src/`.
Workloads (inputs from `synth_generate`, seeded by --seed):

  serve_wide      closed loop, INGEST frames of uniform noise over all 64
                  patches, a full SNAPSHOT every 8th frame
  serve_track     open loop, a moving dot replayed in real time, INGEST +
                  SNAPSHOT per 20 ms tick
  offline_encode  read_binary_file of a moving-bar .evt, encode_offline
                  window by window
  pretrain_small  corpus + model for the `small` profile, then
                  batch_loss + Adam.step in `pretrain` order

With --trace 0 the run measures the end-to-end metrics untraced. With
--trace 1 it measures half the time untraced and half traced, and reports
per-layer metrics, the untraced tails and the tracing overhead. The last
line of stdout is one JSON object: correct, attempted, failed, metrics. A
failed operation or output check counts in `failed`; error rate = failed /
attempted.

Each timed operation and set-up is followed by a host speed probe on the
same CPU (measure.probe_s), and the end-to-end times are rescaled by it to
a reference host (measure.PROBE_REF_S); the times as measured are printed
on the `raw` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out" / str(os.getpid())  # one per run, removed at exit

# Identical thread settings for this process and every process it starts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "EVA_THREADS": "1"}

# Fixed tail percentile per workload: the highest conventional percentile
# with at least 10 samples beyond it at the seed's operation count in a
# 25 s run (see measure.tail_level and results/seed.json). Set-up is timed
# `setups` times and reported as the median.
WORKLOADS = {
    "serve_wide": {
        "tail_q": 90, "setups": 7, "stream": "uniform_noise",
        "latency": "ms per INGEST frame (client RTT)",
        "why": "capacity of the per-event write path (runtime, pipeline.ingest, the "
               "server's INGEST loop); every frame touches nearly every patch, so "
               "stepping many patches in one wave must show here"},
    "serve_track": {
        "tail_q": 99, "setups": 7, "stream": "moving_dot",
        "latency": "ms per tick, from sending its INGEST to receipt of its SNAPSHOT",
        "why": "latency from event to representation; 1-2 active patches leave wave "
               "batching nothing to batch, and per-tick snapshots load "
               "pipeline.snapshot, eva.snapshots and the framing"},
    "offline_encode": {
        "tail_q": 80, "setups": 31, "stream": "moving_bar",
        "latency": "ms per encode_offline call on a 20 ms window",
        "why": "the chunked forward pass (scan, block sequence form, mvhs) at serving "
               "precision, with no server and no per-event stepping"},
    "pretrain_small": {
        "tail_q": 80, "setups": 3, "stream": "moving_bar",
        "latency": "ms per optimizer step (batch_loss + Adam.step)",
        "why": "the only workload with the backward pass, heads, losses and optim "
               "(f64, TRAIN_CHUNK)"},
}

# End-to-end metrics with a regression bound, times rescaled by the probe.
# The latency tail is printed and reported per layer, without a bound:
# before the rescaling, its run-to-run spread on a shared 2-vCPU host
# reached 0.4-0.8 of its median.
END_TO_END = (
    ("events_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
REPORTED = END_TO_END[:2] + (("latency_tail_ms", "ms"),) + END_TO_END[2:]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def end_to_end(res: dict, tail_q: float, raw: bool = False) -> dict:
    """End-to-end metrics of a phase, times rescaled by the host speed
    probe (see measure.PROBE_REF_S), or as measured with raw=True."""
    from measure import at_ref, timing
    pre = "raw_" if raw else ""
    t = timing("latency", res[pre + "latency_s"], tail_q)
    setup_s, probes = zip(*res["setups"])
    return {"events_per_s": res[pre + "events_per_s"], "latency_p50_ms": t["latency_p50"],
            "latency_tail_ms": t["latency_tail"], "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup_s if raw else at_ref(setup_s, probes)),
            "latency_n": t["latency_n"], "latency_tail_ok": t["latency_tail_ok"]}


# ---------------------------------------------------------------------------
# Workload runners: each returns a phase result dict
# ---------------------------------------------------------------------------

def serve_run(name: str, seed: int, seconds: float, trace: bool, setups: int,
              params) -> dict:
    import serve
    env = child_env()
    with serve.one_cpu():
        extra = [serve.setup_only(OUT_DIR, env) for _ in range(setups - 1)]
        res = serve.serve_phase(name, seed, seconds, OUT_DIR, env, params, trace)
    res["setups"] = extra + [(res["setup_s"], res["setup_probe_s"])]
    res["work"] = res["accepted"]
    return res


def batch_run(name: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    import batch
    from measure import peak_rss_mb, probe_s
    from tracing import Tracer
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    if name == "offline_encode":
        path = batch.offline_inputs(seed, OUT_DIR)
        setup = functools.partial(batch.offline_setup, path)
        phase = functools.partial(batch.offline_phase, path, seconds, tracer)
    else:
        setup = functools.partial(batch.pretrain_setup, seed)
        phase = functools.partial(batch.pretrain_phase, seed, seconds, tracer)
    try:
        extra = [(setup()[0], probe_s()) for _ in range(setups - 1)]
        res = phase()
    finally:
        if tracer is not None:
            tracer.uninstall()
    res["setups"] = extra + [(res["setup_s"], res["setup_probe_s"])]
    res["peak_rss_mb"] = peak_rss_mb()
    res["trace"] = tracer.export() if tracer is not None else None
    return res


def run_phase(name: str, seed: int, seconds: float, trace: bool, params) -> dict:
    setups = 1 if trace else WORKLOADS[name]["setups"]
    if name.startswith("serve"):
        return serve_run(name, seed, seconds, trace, setups, params)
    return batch_run(name, seed, seconds, trace, setups)


# ---------------------------------------------------------------------------
# Per-layer report of a traced phase
# ---------------------------------------------------------------------------

def per_layer(name: str, traced: dict, plain: dict, tail_q: float) -> dict:
    import numpy as np
    from eva.config import ENCODER_PROFILES
    from eva.counting import count_macs_breakdown
    from measure import percentile
    import serve
    from layers import layer_metrics, serve_transport, tracing_cost_ns
    # tails and event latency of the untraced half, which carry no bound
    from_phases = {"e2e.latency_tail_ms": end_to_end(plain, tail_q)["latency_tail_ms"]}
    if plain.get("event_latency_s"):
        from_phases["e2e.event_latency_p50_ms"] = percentile(plain["event_latency_s"], 50) * 1e3
        from_phases["e2e.event_latency_p99_ms"] = percentile(plain["event_latency_s"], 99) * 1e3
    profile = "small" if name == "pretrain_small" else "dvs"
    macs = count_macs_breakdown(ENCODER_PROFILES[profile])
    if not name.startswith("serve"):
        tr = traced["trace"]
        steps = len(traced["latency_s"])
        units = steps if name == "pretrain_small" else traced["work"]
        tokens_per_unit = traced["work"] / steps if name == "pretrain_small" else 1.0
        return layer_metrics([tr["spans"]], tr["counts"], tr["absent"], units, 1,
                             traced["wall_s"] * 1e9, macs, tokens_per_unit,
                             tracing_cost_ns(tr), extra=from_phases)
    lo, hi = traced["measured_frames"]
    frames = traced["frames"]
    srv, cli = traced["server_trace"], traced["client_trace"]
    for spans in (srv["spans"], cli["spans"]):
        for rec in spans:
            if not lo <= rec[0] < hi:
                rec[0] = -2
    transport_ns, n_frames = serve_transport(srv["spans"], cli["spans"], frames, lo, hi)
    measured = frames[lo:hi]
    events = traced["work"]
    snaps = [f for f in measured if f[0] == 2]
    extra = {
        **from_phases,
        "pipeline.active_patches_per_frame.p50": float(np.median(traced["active"])),
        "pipeline.active_patches_per_frame.max": float(np.max(traced["active"])),
        "pipeline.events_rejected": float(traced["rejected"]),
        "snapshots.bytes": (float(np.mean([f[3] - serve.FRAME_HEADER_BYTES for f in snaps]))
                            if snaps else 0.0),
        "server.bytes_in": sum(f[2] for f in measured) / events,
        "server.bytes_out": sum(f[3] for f in measured) / events,
        "client.lag_p99_ms": (float(np.percentile(traced["lag_s"], 99)) * 1e3
                              if traced["lag_s"] else 0.0),
    }
    # the open loop's wait between ticks and the probes are idle, not unattributed work
    busy_ns = (traced["wall_s"] - traced["idle_s"]) * 1e9
    return layer_metrics([srv["spans"], cli["spans"]], srv["counts"],
                         srv["absent"] + cli["absent"], events, 1, busy_ns, macs, 1.0,
                         tracing_cost_ns(srv) + tracing_cost_ns(cli), extra_ns=transport_ns,
                         extra_calls=n_frames, extra=extra)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def traffic(name: str, seed: int, res: dict) -> dict:
    import numpy as np
    import batch
    import serve
    out = {"seed": seed, "stream": WORKLOADS[name]["stream"], "why": WORKLOADS[name]["why"],
           "latency_samples": len(res["latency_s"])}
    if name == "serve_wide":
        out.update(rate="closed loop, 1 connection", frame_events=serve.WIDE_FRAME,
                   snapshot_every_frames=serve.WIDE_SNAP_EVERY,
                   cpus="client and server on one CPU")
    elif name == "serve_track":
        out.update(rate=f"open loop, {serve.TRACK_RATE:g} events/s, 1 connection",
                   tick_ms=serve.TRACK_TICK_S * 1e3,
                   cpus="client and server on one CPU; the client spins between ticks")
    elif name == "offline_encode":
        out.update(rate=f"{batch.OFF_RATE:g} events/s of stream time",
                   period_us=batch.OFF_PERIOD_US, window_us=batch.OFF_WINDOW_US)
    else:
        out.update(rate="as fast as the steps run")
    if "active" in res:
        lo, hi = res["measured_frames"]
        sizes = [(f[2] - serve.FRAME_HEADER_BYTES) // 8 for f in res["frames"][lo:hi] if f[0] == 1]
        out.update(frame_events_p50=float(np.median(sizes)),
                   active_patches_per_frame_p50=float(np.median(res["active"])),
                   active_patches_per_frame_max=int(np.max(res["active"])))
    out.update(res.get("traffic", {}))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eva" / "__init__.py").is_file():
        print(f"error: no eva package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import eva
    if Path(eva.__file__).resolve().parent != (SRC / "eva").resolve():
        print(f"error: eva imported from {eva.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from measure import PROBE_REF_S, machine

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload]
    params = None
    if args.workload.startswith("serve"):
        import serve
        params = serve.serve_params()
    try:
        if args.trace:
            plain = run_phase(args.workload, args.seed, args.seconds / 2, False, params)
            traced = run_phase(args.workload, args.seed, args.seconds / 2, True, params)
            phases = [plain, traced]
        else:
            phases = [run_phase(args.workload, args.seed, args.seconds, False, params)]
    finally:
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        try:
            OUT_DIR.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    checks = [c for p in phases for c in p["checks"]]
    attempted = sum(p["attempted"] for p in phases) + len(checks)
    failed = sum(p["failed"] for p in phases) + sum(1 for c in checks if not c[1])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine(THREAD_ENV)))
    print("traffic " + json.dumps(traffic(args.workload, args.seed, phases[0])))
    for label, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {label}: {detail}")
    from measure import timing
    for p, label in zip(phases, ("untraced", "traced")):
        e = end_to_end(p, w["tail_q"])
        for key, unit in REPORTED:
            note = ""
            if key.startswith("latency"):
                note = f"  [{w['latency']}; n={e['latency_n']}"
                note += f", tail=p{w['tail_q']:g}" if key.endswith("tail_ms") else ""
                note += "" if e["latency_tail_ok"] or not key.endswith("tail_ms") \
                    else ", fewer than 10 samples beyond the tail"
                note += "]"
            print(f"{label} {key} = {e[key]:.6g} {unit}{note}")
        raw = end_to_end(p, w["tail_q"], raw=True)
        print(f"{label} raw " + json.dumps({key: raw[key] for key, _ in REPORTED}))
        probes = [s for _, s in p["setups"]] + p["probe_s"]
        print(f"{label} probe_ms p50 = {statistics.median(probes) * 1e3:.6g} ms "
              f"(min {min(probes) * 1e3:.6g}, max {max(probes) * 1e3:.6g}, n={len(probes)}; "
              f"reference {PROBE_REF_S * 1e3:g} ms)")
        print(f"{label} set-up times s: " + " ".join(f"{v:.4g}" for v, _ in p["setups"]))
        for key, q in (("ingest_rtt_s", 90), ("snapshot_rtt_s", 90), ("event_latency_s", 99)):
            if p.get(key):
                name = key[:-2]
                t = timing(name, p[key], q)
                print(f"{label} {name}_p50_ms = {t[name + '_p50']:.6g} ms "
                      f"(p{q} {t[name + '_tail']:.6g} ms, n={t[name + '_n']})")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations "
          f"and checks failed)")

    if args.trace:
        metrics = per_layer(args.workload, phases[1], phases[0], w["tail_q"])
        from layers import PER_LAYER
        units = {name: unit for name, unit, _ in PER_LAYER}
        absent = phases[1].get("trace") or phases[1].get("server_trace") or {}
        if absent.get("absent"):
            print("absent trace targets: " + ", ".join(absent["absent"]))
        for name, value in metrics.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
        out = {name: {"value": float(metrics[name]), "unit": unit}
               for name, unit, _ in PER_LAYER}
    else:
        e = end_to_end(phases[0], w["tail_q"])
        out = {key: {"value": float(e[key]), "unit": unit} for key, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
