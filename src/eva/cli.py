"""Command-line interface.

Subcommands: convert (csv <-> binary), filter (hot pixels), pretrain,
encode (file -> periodic snapshots), serve, oracle (emit ec/ts targets),
inspect (parameter / MAC accounting).

Environment: EVA_PRECISION (f32|f64) overrides checkpoint precision at
load time.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

import numpy as np

from . import counting, snapshots as SN
from .checkpoint import load_checkpoint
from .config import (ENCODER_PROFILES, TRAIN_PROFILES, EncoderConfig,
                     encoder_config_from_kv, parse_kv_text)
from .events import (SYNTH_KINDS, SensorGeometry, filter_hot_pixels, parse_csv,
                     partition_patches, read_binary_file, write_binary_file, write_csv)
from .pipeline import A2SPipeline, encode_offline
from .server import EvaServer
from .targets import event_count, time_surface


def _geometry(arg: str | None, patch: int = 16) -> SensorGeometry | None:
    if not arg:
        return None
    h, w = (int(s) for s in arg.lower().split("x"))
    return SensorGeometry(h, w, patch)


def _load_events(path: str, geometry: SensorGeometry | None):
    if path.endswith(".csv"):
        if geometry is None:
            raise SystemExit("--geometry HxW is required for CSV input")
        with open(path, "rb") as fh:
            return parse_csv(fh, geometry), geometry
    events, header = read_binary_file(path)
    if geometry is not None and (geometry.height, geometry.width) != (header.height, header.width):
        raise SystemExit(f"--geometry {geometry.height}x{geometry.width} disagrees with "
                         f"the {header.height}x{header.width} sensor in {path}")
    return events, header


def _save_events(path: str, events, geometry: SensorGeometry):
    """Returns the number of saturated gaps (always 0 for csv)."""
    if path.endswith(".csv"):
        with open(path, "w") as fh:
            write_csv(events, fh)
        return 0
    return write_binary_file(path, events, geometry)


def _load_params(args):
    precision = os.environ.get("EVA_PRECISION") or None
    params, _, _ = load_checkpoint(args.checkpoint, precision=precision)
    return params


def _encoder_config(args) -> EncoderConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return encoder_config_from_kv(parse_kv_text(fh.read()))
    return ENCODER_PROFILES[args.profile]


def cmd_convert(args):
    events, geometry = _load_events(args.input, _geometry(args.geometry))
    saturated = _save_events(args.output, events, geometry)
    print(f"wrote {len(events)} events to {args.output}")
    if saturated:
        print(f"{saturated} gaps over 65535 us saturated (the stream reads back shorter)")


def cmd_filter(args):
    events, geometry = _load_events(args.input, _geometry(args.geometry))
    kept = filter_hot_pixels(events, args.window_us, args.threshold)
    _save_events(args.output, kept, geometry)
    print(f"kept {len(kept)}/{len(events)} events")


def cmd_pretrain(args):
    import time
    from dataclasses import replace
    from .train import build_synthetic_corpus, init_model, pretrain
    cfg = _encoder_config(args)
    tc = TRAIN_PROFILES[args.train_profile]
    tc = replace(tc, seed=args.seed, max_steps=args.steps,
                 batch_size=args.batch_size or tc.batch_size)
    samples = build_synthetic_corpus(tc, cfg, kind=args.synthetic,
                                     rate=args.rate, duration_us=args.duration_us,
                                     seed=args.seed)
    target_bytes = sum(t.nbytes for s in samples for t in s.targets.values())
    print(f"corpus: {len(samples)} samples of {tc.seq_len} events, "
          f"targets {target_bytes:,} bytes")
    batches = max(1, -(-len(samples) // tc.batch_size))  # steps per epoch
    epochs = max(1, -(-args.steps // batches)) if args.epochs is None else args.epochs
    tc = replace(tc, epochs=epochs)
    model = init_model(cfg, tc, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    model, history = pretrain(samples, model, tc, run_dir=args.out, log=print)
    dt = time.perf_counter() - t0
    print(f"finished at step {history[-1]['step']} ({1000 * dt / len(history):.0f} ms/step); "
          f"run dir: {args.out}")
    # each task's first loss against the mean of its last 25
    for task in [k for k in history[0] if k not in ("step", "epoch", "total")] + ["total"]:
        first = history[0][task]
        last = float(np.mean([h[task] for h in history[-25:]]))
        print(f"  {task:>16}: {first:8.4f} -> {last:8.4f}  (x{last / first:.3f})")


def cmd_encode(args):
    params = _load_params(args)
    events, geometry = _load_events(args.input, _geometry(args.geometry, params.config.patch))
    # an .evt header carries the sensor size only: the patch is the model's
    geometry = SensorGeometry(geometry.height, geometry.width, params.config.patch)
    frames = encode_offline(params, events, geometry,
                            None if args.final_only else args.period_us)
    os.makedirs(args.out, exist_ok=True)
    for t_ref, frame in frames:
        path = os.path.join(args.out, f"snap_{t_ref:012d}.evar")
        with open(path, "wb") as fh:
            fh.write(frame.to_bytes())
    print(f"wrote {len(frames)} snapshots to {args.out}")


def cmd_serve(args):
    import threading

    params = _load_params(args)
    geometry = _geometry(args.geometry, params.config.patch)
    if geometry is None:
        raise SystemExit("--geometry HxW is required")
    host, port = args.listen.rsplit(":", 1)
    pipe = A2SPipeline(params, geometry)
    server = EvaServer(pipe, host or "127.0.0.1", int(port))
    server.start()
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    print(f"serving on {server.address[0]}:{server.address[1]}", flush=True)
    stop.wait()
    server.shutdown()
    print("shut down")


def cmd_oracle(args):
    geometry = _geometry(args.geometry)
    events, geometry = _load_events(args.input, geometry)
    P = args.patch
    geometry = SensorGeometry(geometry.height, geometry.width, P)
    t_ref = args.t_ref if args.t_ref is not None else \
        (int(events["t"][-1]) if len(events) else 0)
    rows, cols = geometry.grid_rows, geometry.grid_cols
    values = np.zeros((2, rows * P, cols * P), dtype=np.float32)
    marks = np.full((rows, cols), -1, dtype=np.int64)
    for pid, local in partition_patches(events, geometry).items():
        sel = local[local["t"] <= t_ref]
        if args.kind == "ec":
            img = event_count(sel, t_ref - args.span_us, t_ref, P)
        else:
            img = time_surface(sel, t_ref, args.span_us, P)
        r, c = pid
        values[:, r * P:(r + 1) * P, c * P:(c + 1) * P] = img
        if len(sel):
            marks[pid] = int(sel["t"][-1])
    kind = SN.KIND_EC if args.kind == "ec" else SN.KIND_TS
    with open(args.out, "wb") as fh:
        fh.write(SN.dump_snapshot(kind, values, t_ref, (rows, cols), marks))
    print(f"wrote {args.kind} target ({values.shape[1]}x{values.shape[2]}) to {args.out}")


def cmd_inspect(args):
    if args.checkpoint:
        params, _, _ = load_checkpoint(args.checkpoint)
        cfg = params.config
    else:
        cfg = _encoder_config(args)
    print("config:", cfg)
    pb = counting.count_params_breakdown(cfg)
    mb = counting.count_macs_breakdown(cfg)
    for name in pb:
        print(f"params.{name} = {pb[name]}")
    print(f"params.total = {counting.count_params(cfg)}")
    for name in mb:
        print(f"macs.{name} = {mb[name]}")
    print(f"macs.total = {counting.count_macs_per_event(cfg)}")
    vec = counting.vector_output_config(cfg)
    ratio = counting.mvhs_param_count(vec) / counting.mvhs_param_count(cfg)
    print(f"output_layer.vector_over_matrix_param_ratio = {ratio:.2f}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eva", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert events between csv and binary")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--geometry", help="HxW (required for csv input)")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("filter", help="remove hot pixels")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--geometry")
    p.add_argument("--window-us", type=int, default=10_000)
    p.add_argument("--threshold", type=int, default=40)
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("pretrain", help="self-supervised pretraining on synthetic data")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", default="small", choices=sorted(ENCODER_PROFILES))
    p.add_argument("--config", help="encoder config file (key = value)")
    p.add_argument("--train-profile", default="small", choices=sorted(TRAIN_PROFILES))
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--epochs", type=int, help="default: as many as --steps takes, else 1")
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synthetic", default="moving_bar", choices=SYNTH_KINDS)
    p.add_argument("--rate", type=float, default=50_000.0)
    p.add_argument("--duration-us", type=int, default=4_000_000)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("encode", help="offline encode a file into snapshots")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--geometry")
    p.add_argument("--period-us", type=int, default=10_000)
    p.add_argument("--final-only", action="store_true")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("serve", help="run the streaming snapshot server")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--listen", default="127.0.0.1:7733")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("oracle", help="emit handcrafted ec/ts target images")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", required=True, choices=("ec", "ts"))
    p.add_argument("--geometry")
    p.add_argument("--patch", type=int, default=16)
    p.add_argument("--span-us", type=int, default=100_000,
                   help="ec: count window ending at --t-ref; ts: decay constant")
    p.add_argument("--t-ref", type=int)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("inspect", help="parameter and MAC accounting")
    p.add_argument("--checkpoint")
    p.add_argument("--profile", default="dvs", choices=sorted(ENCODER_PROFILES))
    p.add_argument("--config")
    p.set_defaults(fn=cmd_inspect)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, FloatingPointError) as exc:  # bad input, or a non-finite update
        raise SystemExit(f"eva {args.command}: {exc}") from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
