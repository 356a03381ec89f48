#!/usr/bin/env python3
"""Pretrain the small-profile encoder on a synthetic moving-bar corpus and
print the per-task loss trajectory summary.

Usage: python scripts/pretrain_synthetic.py [--steps 500] [--out runs/bar]
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from eva.config import ENCODER_PROFILES, TRAIN_PROFILES
from eva.events import SYNTH_KINDS
from eva.train import build_synthetic_corpus, init_model, pretrain


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--kind", default="moving_bar", choices=SYNTH_KINDS)
    ap.add_argument("--rate", type=float, default=60_000.0)
    ap.add_argument("--duration-us", type=int, default=4_000_000)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    cfg = ENCODER_PROFILES["small"]
    tc = replace(TRAIN_PROFILES["small"], max_steps=args.steps, epochs=10_000,
                 seed=args.seed)
    t0 = time.perf_counter()
    samples = build_synthetic_corpus(tc, cfg, kind=args.kind, rate=args.rate,
                                     duration_us=args.duration_us, seed=args.seed)
    print(f"corpus: {len(samples)} windows of {tc.seq_len} events "
          f"({time.perf_counter() - t0:.1f}s)")
    model = init_model(cfg, tc, seed=args.seed)
    t0 = time.perf_counter()
    model, history = pretrain(samples, model, tc, run_dir=args.out, log=print)
    dt = time.perf_counter() - t0

    tasks = [k for k in history[0] if k not in ("step", "epoch", "total")]
    print(f"\n{len(history)} steps in {dt:.0f}s "
          f"({1000 * dt / len(history):.0f} ms/step)")
    for task in tasks + ["total"]:
        first = history[0][task]
        last = float(np.mean([h[task] for h in history[-25:]]))
        print(f"  {task:>16}: {first:8.4f} -> {last:8.4f}  (x{last / first:.3f})")
    if args.out:
        print(f"run dir: {args.out}")


if __name__ == "__main__":
    main()
