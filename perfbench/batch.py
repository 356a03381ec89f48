"""The two in-process workloads: offline encoding and the pretraining step."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import eva.events as EV
import eva.optim as O
import eva.params as PR
import eva.pipeline as PL
import eva.train as T
from eva.config import ENCODER_PROFILES, TRAIN_PROFILES

from measure import at_ref, patch_ids, probe_s, reference_tiles, tiles_match
from tracing import Tracer

PARAM_SEED = 0

# offline_encode: a moving bar on 128x128, encoded 20 ms window at a time
OFF_SENSOR = 128
OFF_RATE = 50_000.0
OFF_FILE_US = 2_000_000
OFF_WINDOW_US = 20_000
OFF_PERIOD_US = 10_000
OFF_SAMPLE_PATCHES = 2

TRAIN_PROFILE = "small"


def rates(setup_s: float, setup_probe: float, times: list, probes: list, work: list) -> dict:
    """Timing fields of a phase: per-operation times rescaled by the probe
    that followed each operation, and the same figures as measured."""
    scaled = at_ref(times, probes)
    return {"setup_s": setup_s, "setup_probe_s": setup_probe, "wall_s": float(np.sum(times)),
            "latency_s": scaled, "raw_latency_s": times, "probe_s": probes,
            "work": int(np.sum(work)),
            "events_per_s": float(np.median(np.divide(work, scaled))) if times else 0.0,
            "raw_events_per_s": float(np.median(np.divide(work, times))) if times else 0.0}


# ---------------------------------------------------------------------------
# offline_encode
# ---------------------------------------------------------------------------

def offline_inputs(seed: int, out_dir: Path) -> Path:
    geom = EV.SensorGeometry(OFF_SENSOR, OFF_SENSOR, ENCODER_PROFILES["dvs"].patch)
    events = EV.synth_generate("moving_bar", geom, OFF_FILE_US, OFF_RATE, seed=seed)
    path = out_dir / f"offline-{seed}.evt"
    EV.write_binary_file(path, events, geom)
    return path


def offline_setup(path: Path):
    """File read plus parameter init; returns (setup_s, events, geometry, params)."""
    t0 = time.perf_counter()
    events, geom = EV.read_binary_file(path)
    params = PR.init_encoder_params(ENCODER_PROFILES["dvs"], seed=PARAM_SEED)
    return time.perf_counter() - t0, events, geom, params


def windows(events: np.ndarray) -> list[np.ndarray]:
    edges = np.arange(0, int(events["t"][-1]) + OFF_WINDOW_US, OFF_WINDOW_US)
    cuts = np.searchsorted(events["t"], edges[1:-1])
    return [w for w in np.split(events, cuts) if len(w)]


def boundaries(win: np.ndarray) -> list[int]:
    t0, t1 = int(win["t"][0]), int(win["t"][-1])
    out = list(range(t0 + OFF_PERIOD_US, t1 + 1, OFF_PERIOD_US))
    if not out or out[-1] < t1:
        out.append(t1)
    return out


def per_patch_per_period(wins, geom) -> float:
    """Median over periods of the mean events per active patch."""
    out = []
    for win in wins:
        pid = patch_ids(win, geom)
        lo = int(win["t"][0]) - 1
        for hi in boundaries(win):
            sel = (win["t"] > lo) & (win["t"] <= hi)
            if sel.any():
                counts = np.bincount(pid[sel])
                out.append(counts[counts > 0].mean())
            lo = hi
    return float(np.median(out))


def check_offline(win, frames, params, geom) -> list[tuple[str, bool, str]]:
    """Frame count, watermarks and sampled tiles at the first and last
    boundary against encode_events on each sampled patch's events."""
    bounds = boundaries(win)
    checks = [("frames == period boundaries", len(frames) == len(bounds),
               f"{len(frames)} vs {len(bounds)}")]
    if len(frames) != len(bounds):
        return checks
    pid = patch_ids(win, geom)
    worst, ok_tiles, ok_marks = 0.0, True, True
    for k in sorted({0, len(frames) - 1}):
        t_ref, snap = frames[k]
        upto = win["t"] <= t_ref
        marks = np.full(geom.n_patches, -1, dtype=np.int64)
        np.maximum.at(marks, pid[upto], win["t"][upto])
        ok_marks &= bool(np.array_equal(snap.watermarks.reshape(-1), marks))
        refs = reference_tiles(win[upto], params, geom, OFF_SAMPLE_PATCHES)
        ok, err = tiles_match(snap.values, refs, snap.tile)
        ok_tiles &= ok
        worst = max(worst, err)
    checks.append(("watermarks == last event time per patch", ok_marks,
                   f"at {len({0, len(frames) - 1})} boundaries"))
    checks.append(("sampled tiles match encode_events", ok_tiles, f"max rel err {worst:.2e}"))
    return checks


def offline_phase(path: Path, seconds: float, tracer: Tracer | None) -> dict:
    if tracer is not None:
        tracer.frame = -1
    setup_s, events, geom, params = offline_setup(path)
    setup_probe = probe_s()
    wins = windows(events)
    times, probes, n_events, frames_per, checks = [], [], [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    k = 0
    while time.perf_counter() < deadline:
        win = wins[k % len(wins)]
        if tracer is not None:
            tracer.frame = k
        attempted += 1
        t0 = time.perf_counter()
        try:
            frames = PL.encode_offline(params, win, geom, OFF_PERIOD_US)
        except (ValueError, FloatingPointError):
            failed += 1
            k += 1
            continue
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.frame = -2
        probes.append(probe_s())
        n_events.append(len(win))
        frames_per.append(len(frames))
        if k == 0:
            checks += check_offline(win, frames, params, geom)
        elif len(frames) != len(boundaries(win)):
            checks.append(("frames == period boundaries", False, f"window {k}"))
        k += 1
    if tracer is not None:
        tracer.frame = -2
    return {**rates(setup_s, setup_probe, times, probes, n_events),
            "attempted": attempted, "failed": failed, "checks": checks,
            "traffic": {"events_per_window_p50": float(np.median([len(w) for w in wins])),
                        "frames_per_window_p50": float(np.median(frames_per)) if frames_per else 0,
                        "events_per_active_patch_per_period": per_patch_per_period(wins, geom)}}


# ---------------------------------------------------------------------------
# pretrain_small
# ---------------------------------------------------------------------------

def pretrain_setup(seed: int):
    """Corpus build plus model init; returns (setup_s, corpus, model, train_cfg)."""
    cfg = ENCODER_PROFILES[TRAIN_PROFILE]
    tc = TRAIN_PROFILES[TRAIN_PROFILE]
    t0 = time.perf_counter()
    corpus = T.build_synthetic_corpus(tc, cfg, seed=seed)
    model = T.init_model(cfg, tc, seed=PARAM_SEED)
    return time.perf_counter() - t0, corpus, model, tc


def batches(corpus, tc):
    """Batches in the order `eva.train.pretrain` visits them, epoch after epoch."""
    rng = np.random.default_rng(tc.seed)
    epoch = 0
    while True:
        order = rng.permutation(len(corpus))
        for start in range(0, len(order), tc.batch_size):
            yield epoch, [corpus[i] for i in order[start:start + tc.batch_size]]
        epoch += 1


def all_finite(mses, total, grads) -> bool:
    return (all(np.isfinite(v) for v in mses.values()) and bool(np.isfinite(total))
            and all(bool(np.all(np.isfinite(g))) for g in grads.values()))


def pretrain_phase(seed: int, seconds: float, tracer: Tracer | None) -> dict:
    if tracer is not None:
        tracer.frame = -1
    setup_s, corpus, model, tc = pretrain_setup(seed)
    if tracer is not None:
        tracer.frame = -2
    setup_probe = probe_s()
    named = model.named()
    opt = O.Adam(lr=tc.lr)
    times, probes, tokens, checks = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for step, (epoch, batch) in enumerate(batches(corpus, tc)):
        if time.perf_counter() >= deadline:
            break
        if step == 0:
            _, ref_total, _ = T.batch_loss(model, batch, want_grads=False)
        opt.lr = tc.lr * (tc.lr_decay ** epoch)
        if tracer is not None:
            tracer.frame = step
        attempted += 1
        t0 = time.perf_counter()
        try:
            mses, total, grads = T.batch_loss(model, batch)
            opt.step(named, grads)
        except FloatingPointError:
            failed += 1
            continue
        finally:
            if tracer is not None:
                tracer.frame = -2
        times.append(time.perf_counter() - t0)
        probes.append(probe_s())
        tokens.append(sum(len(s.tokens) for s in batch))
        if not all_finite(mses, total, grads):
            failed += 1
        if step == 0:
            checks.append(("first step total == batch_loss(want_grads=False)",
                           bool(total == ref_total), f"{total!r} vs {ref_total!r}"))
    checks.append(("every loss and gradient finite", failed == 0, f"{failed} steps"))
    return {**rates(setup_s, setup_probe, times, probes, tokens),
            "attempted": attempted, "failed": failed, "checks": checks,
            "traffic": {"tokens_per_step": int(np.median(tokens)) if tokens else 0,
                        "corpus_samples": len(corpus), "batch_size": tc.batch_size,
                        "seq_len": tc.seq_len}}
