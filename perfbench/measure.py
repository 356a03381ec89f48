"""Timing summaries, output checks and the machine record."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

# Conventional percentiles a tail may be reported at.
TAIL_LEVELS = (50, 60, 70, 75, 80, 90, 95, 99, 99.9)
MIN_BEYOND = 10

# Host speed probe. The shared host's speed drifts by up to 1.5x within a
# minute, for eva and for any other program alike, which moved the ten-run
# spread of raw times past 0.25 of their median. A fixed pure-Python loop,
# timed right after each timed operation on the same CPU, measures that
# speed, and gated times are rescaled to a host on which one probe loop
# takes PROBE_REF_S: t * PROBE_REF_S / probe.
PROBE_LOOPS = 20_000
PROBE_REPEATS = 3
PROBE_REF_S = 1e-3

# f32 relative tolerance of the tier-1 mode-equivalence criterion.
F32_REL_TOL = 1e-3


def beyond(n: int, q: float) -> float:
    """Number of n samples above the q-th percentile."""
    return n * (100 - q) / 100 + 1e-9  # 100 - 99.9 is not exactly 0.1


def tail_level(n: int) -> float:
    """Highest conventional percentile with at least MIN_BEYOND of n
    samples beyond it (50 when even the median has fewer)."""
    ok = [q for q in TAIL_LEVELS if beyond(n, q) >= MIN_BEYOND]
    return ok[-1] if ok else 50


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def timing(name: str, values_s, tail_q: float, unit_scale: float = 1e3) -> dict:
    """Median and fixed-percentile tail of a list of durations in seconds."""
    v = np.asarray(values_s, dtype=float) * unit_scale
    n = len(v)
    return {
        f"{name}_p50": percentile(v, 50) if n else float("nan"),
        f"{name}_tail": percentile(v, tail_q) if n else float("nan"),
        f"{name}_tail_q": tail_q,
        f"{name}_n": n,
        # the tail is meaningful only with enough samples beyond it
        f"{name}_tail_ok": beyond(n, tail_q) >= MIN_BEYOND,
    }


def probe_s() -> float:
    """Median time (s) of PROBE_REPEATS runs of the probe loop."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_ref(seconds, probes) -> list[float]:
    """Durations rescaled to the reference host, each by its own probe."""
    return [t * PROBE_REF_S / p for t, p in zip(seconds, probes)]


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| / max |want|, as tier-1's mode-equivalence check."""
    scale = float(np.max(np.abs(want)))
    diff = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
    return diff / scale if scale > 0 else diff


def tiles_match(frame: np.ndarray, refs: dict, tile: int, tol: float = F32_REL_TOL):
    """Compare tiles of a (C, rows*tile, cols*tile) frame against reference
    (C, tile, tile) arrays keyed by patch id. Returns (ok, worst rel err)."""
    worst = 0.0
    for (r, c), want in refs.items():
        got = frame[:, r * tile:(r + 1) * tile, c * tile:(c + 1) * tile]
        err = rel_err(got, want)
        if not np.isfinite(err):
            return False, float("inf")
        worst = max(worst, err)
    return worst <= tol, worst


def patch_ids(events: np.ndarray, geom) -> np.ndarray:
    """Row-major patch index of each event."""
    return (events["y"] // geom.patch) * geom.grid_cols + events["x"] // geom.patch


def reference_tiles(events: np.ndarray, params, geom, n_patches: int) -> dict:
    """`encoder.encode_events` on the events of the `n_patches` busiest
    patches (ties to the lower index), in patch-local coordinates: the
    expected (n_out, tile, tile) tile per (row, col)."""
    import eva.encoder as E
    pid = patch_ids(events, geom)
    counts = np.bincount(pid, minlength=geom.n_patches)
    refs = {}
    for p in np.lexsort((np.arange(len(counts)), -counts))[:n_patches]:
        if counts[p] == 0:
            break
        local = events[pid == p].copy()
        local["x"] %= geom.patch
        local["y"] %= geom.patch
        _, state = E.encode_events(params, local)
        refs[divmod(int(p), geom.grid_cols)] = state.mvhs.S[:params.config.n_out]
    return refs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_name() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def machine(env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "EVA_THREADS": env["EVA_THREADS"],
    }
