#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as one JSON file.

    python3 perfbench/collect.py OUT.json [--seeds 1,2,...] [--workloads a,b]
                                 [--seconds 25] [--traced-seed 1]

For every workload: each end-to-end metric's per-seed values, median,
quartiles and spread (interquartile range over median, as
`statistics.quantiles(values, n=4)` gives them), the same for the times
as measured, before the probe's rescaling (`end_to_end_raw`), the wall
time of each run, then the per-layer metrics of one traced run (none
with --traced-seed 0). Results under `perfbench/results/` are the
trajectory: one file per measured commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--traced-seed", type=int, default=1, help="0: no traced run")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    out = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        per_raw: dict[str, list[float]] = {}
        failed = attempted = 0
        samples, run_wall_s = [], []
        for seed in seeds:
            t0 = time.perf_counter()
            res, lines = run_once(workload, seed, args.seconds, 0)
            run_wall_s.append(round(time.perf_counter() - t0, 2))
            failed += res["failed"]
            attempted += res["attempted"]
            samples += [json.loads(line.split(" ", 1)[1])["latency_samples"]
                        for line in lines if line.startswith("traffic ")]
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith("untraced raw "):
                    for name, v in json.loads(line.split(" ", 2)[2]).items():
                        if name in res["metrics"]:
                            per_raw.setdefault(name, []).append(v)
            print(workload, seed, {k: round(v[-1], 4) for k, v in per_metric.items()},
                  "raw", {k: round(v[-1], 4) for k, v in per_raw.items()},
                  f"{run_wall_s[-1]} s", flush=True)
        if args.traced_seed:
            traced, lines = run_once(workload, args.traced_seed, args.seconds, 1)
        else:
            traced = {"metrics": {}, "correct": None}
        info = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith(("machine ", "traffic "))}
        out["machine"] = info.get("machine")
        out["workloads"][workload] = {
            "traffic": info.get("traffic"),
            "attempted": attempted, "failed": failed, "latency_samples": samples,
            "run_wall_s": run_wall_s,
            "end_to_end": {k: summary(v) for k, v in per_metric.items()},
            "end_to_end_raw": {k: summary(v) for k, v in per_raw.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
