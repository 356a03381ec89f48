"""Self-supervised pretraining at desk scale.

A prepared sample carries the tokenized input window, the chunk-end
indices, and the precomputed target images per task: event counts as
narrow unsigned integers, cast exactly to the model dtype per batch, and
time surfaces in the model dtype. Each optimizer step
runs the chunked-parallel encoder forward, applies every task's read-out
head at every chunk end in one pass, combines per-task MSEs under uncertainty
weighting, backpropagates through heads and encoder, and takes one Adam
step on every trainable tensor (encoder, heads, loss weights).

Single-worker runs are bit-deterministic for a fixed seed.
"""

from __future__ import annotations

import contextlib
import csv
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from . import encoder as E
from . import heads as H
from . import losses as L
from .checkpoint import save_checkpoint
from .config import EncoderConfig, TrainConfig, encoder_config_to_kv, format_kv_text
from .embedding import event_to_token_dt
from .events import Sample, SensorGeometry, slice_samples, synth_generate
from .optim import Adam
from .params import EncoderParams, init_encoder_params, named_arrays
from .targets import chunk_targets


@dataclass
class TrainSample:
    """One prepared window: "ec" targets hold exact counts as unsigned
    integers, "ts" targets are in the model dtype (see `prepare_sample`)."""
    tokens: np.ndarray       # (T,)
    dts: np.ndarray          # (T,)
    chunk_ends: np.ndarray   # (K,)
    targets: dict            # task name -> (K, 2, P, P)


def prepare_sample(sample: Sample, specs, P: int, dtype=np.float64) -> TrainSample:
    """Tokens, chunk ends and target images. Count ("ec") images are stored
    as unsigned integers of the narrowest type that holds their largest
    count (uint8 up to 255, then uint16, ...), which `batch_loss` casts
    to the model dtype exactly; time surfaces ("ts") in `dtype`, the dtype
    of the model that trains on them."""
    tokens, dts = event_to_token_dt(sample.input_events, P, P)
    T = len(tokens)
    ends = list(range(sample.chunk_len, T + 1, sample.chunk_len))
    targets = {}
    for spec in specs:
        img = chunk_targets(spec, sample.input_events, sample.future_events, ends, P)
        store = np.min_scalar_type(int(img.max(initial=0))) if spec.kind == "ec" else dtype
        targets[spec.name] = img.astype(store, copy=False)
    return TrainSample(tokens, dts, np.asarray(ends), targets)


@dataclass
class Model:
    params: EncoderParams
    heads: dict
    weights: L.LossWeights

    def named(self) -> dict[str, np.ndarray]:
        out = dict(named_arrays(self.params))
        for task, head in self.heads.items():
            for k, v in head.items():
                out[f"heads.{task}.{k}"] = v
        out.update(self.weights.named())
        return out


def init_model(cfg: EncoderConfig, train_cfg: TrainConfig, seed: int = 0) -> Model:
    params = init_encoder_params(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    heads = {spec.name: H.init_head(cfg.n_out, cfg.mvhs_d_head, cfg.patch,
                                    train_cfg.head_width, rng, cfg.dtype)
             for spec in train_cfg.targets}
    weights = L.LossWeights([spec.name for spec in train_cfg.targets], cfg.dtype)
    return Model(params, heads, weights)


def batch_loss(model: Model, batch: list[TrainSample], want_grads: bool = True):
    """Returns (per-task MSE dict, total, grads dict or None)."""
    cfg = model.params.config
    tokens = np.stack([s.tokens for s in batch])
    dts = np.stack([s.dts for s in batch])
    ends = batch[0].chunk_ends
    Bsz, K = len(batch), len(ends)

    snaps, cache = E.forward_train(model.params, tokens, dts, list(ends))
    sel = snaps[:, :, :cfg.n_out].reshape(Bsz * K, cfg.n_out, cfg.mvhs_d_head,
                                          cfg.mvhs_d_head)
    targets = {task: np.concatenate([s.targets[task] for s in batch], dtype=sel.dtype)
               for task in model.heads}
    if want_grads:
        preds, hcache = H.head_forward(model.heads, sel, want_cache=True)
    else:
        preds = H.head_forward(model.heads, sel)
    mses = {task: L.task_mse(preds[task], targets[task]) for task in model.heads}
    total = L.combine(mses, model.weights)
    if not want_grads:
        return mses, total, None

    dL, ds = L.combine_backward(mses, model.weights)
    dpreds = {task: dL[task] * 2.0 * (preds[task] - targets[task]) / preds[task].size
              for task in model.heads}
    hgrads, d_sel = H.head_backward(model.heads, hcache, dpreds)
    grads: dict[str, np.ndarray] = {}
    for task in model.heads:
        for k, v in hgrads[task].items():
            grads[f"heads.{task}.{k}"] = v
        grads[f"loss_s.{task}"] = np.asarray(ds[task], dtype=sel.dtype)
    dSnaps = np.zeros_like(snaps)
    dSnaps[:, :, :cfg.n_out] = d_sel.reshape(Bsz, K, cfg.n_out, cfg.mvhs_d_head,
                                             cfg.mvhs_d_head)
    grads.update(E.backward_train(cache, dSnaps))
    return mses, total, grads


def pretrain(samples: list[TrainSample], model: Model, train_cfg: TrainConfig,
             run_dir: str | None = None, log=None):
    """Runs the optimizer loop; returns (model, history).

    history is a list of per-step dicts {"step", "epoch", "total", <task>: mse}.
    With a run_dir, steps.csv gets one row per step as it runs (see
    `_write_step_row`), and last.evaw is replaced at each epoch's end with
    what final.evaw holds; the other artifacts are written at the end. A step
    whose loss or any gradient is not finite raises FloatingPointError
    naming it, before any weight is updated.
    """
    if not samples:
        raise ValueError("empty dataset")
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
    named = model.named()
    opt = Adam(lr=train_cfg.lr)
    rng = np.random.default_rng(train_cfg.seed)
    history: list[dict] = []
    step = 0
    t0 = time.perf_counter()
    with (open(os.path.join(run_dir, "steps.csv"), "w", newline="", buffering=1)
          if run_dir else contextlib.nullcontext()) as steps_fh:
        steps_csv = csv.writer(steps_fh) if steps_fh else None
        for epoch in range(train_cfg.epochs):
            opt.lr = train_cfg.lr * (train_cfg.lr_decay ** epoch)
            order = rng.permutation(len(samples))
            for start in range(0, len(order), train_cfg.batch_size):
                batch = [samples[i] for i in order[start:start + train_cfg.batch_size]]
                t_loss = time.perf_counter()
                mses, total, grads = batch_loss(model, batch)
                step += 1
                if not np.isfinite(total):
                    raise FloatingPointError(f"step {step}: total loss {total}")
                t_adam = time.perf_counter()
                try:  # Adam checks every gradient before it changes anything
                    opt.step(named, grads)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"step {step}: {exc}") from None
                t_end = time.perf_counter()
                rec = {"step": step, "epoch": epoch, "total": total, **mses}
                history.append(rec)
                if steps_csv:
                    _write_step_row(steps_csv, rec, t_adam - t_loss, t_end - t_adam,
                                    named, grads)
                if log and (step % 25 == 0 or step == 1):
                    tasks = " ".join(f"{k}={v:.4g}" for k, v in mses.items())
                    log(f"step {step} epoch {epoch} total={total:.4g} {tasks}")
                if train_cfg.max_steps and step >= train_cfg.max_steps:
                    break
            if run_dir:  # a crash mid-write leaves the previous epoch's file
                last = os.path.join(run_dir, "last.evaw")
                _save_model(last + ".tmp", model)
                os.replace(last + ".tmp", last)
            if train_cfg.max_steps and step >= train_cfg.max_steps:
                break
    if run_dir:
        _write_run_dir(run_dir, model, train_cfg, history, time.perf_counter() - t0)
    return model, history


def _save_model(path: str, model: Model) -> None:
    """Every trained tensor: the encoder, `heads.*` and `loss_s.*`."""
    save_checkpoint(path, model.params,
                    extra_named={k: v for k, v in model.named().items()
                                 if k.startswith(("heads.", "loss_s."))})


def _grad_group(name: str) -> str:
    """Group of a named tensor in steps.csv: embed_ln0, block<i>, mvhs, heads or loss_s."""
    top, _, rest = name.partition(".")
    if top == "blocks":
        return "block" + rest.partition(".")[0]
    return "embed_ln0" if top in ("embed", "ln0_g", "ln0_b") else top


def _write_step_row(writer, rec: dict, loss_s: float, adam_s: float,
                    names, grads: dict[str, np.ndarray]) -> None:
    """One steps.csv row: step, epoch, batch_loss and Adam.step wall ms, the
    total and per-task MSEs, then the gradient norm of each group, in the
    order of `names`."""
    sq: dict[str, float] = {}
    for name in names:
        group = _grad_group(name)
        sq[group] = sq.get(group, 0.0) + float(np.sum(grads[name] ** 2))
    losses = {k: v for k, v in rec.items() if k not in ("step", "epoch")}
    if rec["step"] == 1:
        writer.writerow(["step", "epoch", "batch_loss_ms", "adam_ms", *losses,
                         *(f"gnorm.{k}" for k in sq)])
    writer.writerow([rec["step"], rec["epoch"], f"{1e3 * loss_s:.3f}",
                     f"{1e3 * adam_s:.3f}", *losses.values(),
                     *(float(np.sqrt(v)) for v in sq.values())])


def _write_run_dir(run_dir: str, model: Model, train_cfg: TrainConfig,
                   history: list[dict], elapsed: float) -> None:
    os.makedirs(run_dir, exist_ok=True)
    cfg_echo = dict(encoder_config_to_kv(model.params.config))
    cfg_echo.update({f"train.{k}": v for k, v in {
        "seq_len": train_cfg.seq_len, "chunk_len": train_cfg.chunk_len,
        "batch_size": train_cfg.batch_size, "lr": train_cfg.lr,
        "lr_decay": train_cfg.lr_decay, "epochs": train_cfg.epochs,
        "seed": train_cfg.seed}.items()})
    with open(os.path.join(run_dir, "config.txt"), "w") as fh:
        fh.write(format_kv_text(cfg_echo))
    tasks = [k for k in history[0] if k not in ("step", "epoch", "total")]
    with open(os.path.join(run_dir, "losses.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "task", "loss"])
        for epoch in sorted({r["epoch"] for r in history}):
            recs = [r for r in history if r["epoch"] == epoch]
            for task in tasks + ["total"]:
                writer.writerow([epoch, task, float(np.mean([r[task] for r in recs]))])
    _save_model(os.path.join(run_dir, "final.evaw"), model)
    final = history[-1]
    metrics = {f"final_{k}": v for k, v in final.items()}
    metrics["elapsed_sec"] = f"{elapsed:.2f}"
    metrics["steps"] = final["step"]
    # peak RSS of the process so far, KiB on Linux (the key STATS uses)
    metrics["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(run_dir, "metrics.txt"), "w") as fh:
        fh.write(format_kv_text(metrics))


def build_synthetic_corpus(train_cfg: TrainConfig, cfg: EncoderConfig,
                           kind: str = "moving_bar", rate: float = 50_000.0,
                           duration_us: int = 4_000_000, seed: int = 0):
    """Generate events on a one-patch sensor, slice windows of `seq_len`
    events plus a future tail of a quarter of that, prepare targets for a
    model in `cfg.dtype` (see `prepare_sample`). On one patch every event
    is already patch-local, so the stream is sliced as generated."""
    P = cfg.patch
    events = synth_generate(kind, SensorGeometry(P, P, P), duration_us, rate, seed)
    future_len = max(train_cfg.seq_len // 4, 1)
    return [prepare_sample(s, train_cfg.targets, P, cfg.dtype)
            for s in slice_samples(events, train_cfg.seq_len, train_cfg.seq_len,
                                   future_len, train_cfg.chunk_len)]
