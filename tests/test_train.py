from dataclasses import replace

import numpy as np
import pytest

from eva import heads as H
from eva import losses as L
from eva.config import ENCODER_PROFILES, TRAIN_PROFILES, TargetSpec, TrainConfig
from eva.events import SensorGeometry, partition_patches, slice_samples, synth_generate
from eva.optim import Adam, adam_step
from eva.targets import chunk_targets
from eva.train import (batch_loss, build_synthetic_corpus, init_model, prepare_sample,
                       pretrain)
from helpers import randomize_params

# an overflow or invalid value in a training step must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SPECS = (
    TargetSpec("ec", "mrp", span_us=50_000),
    TargetSpec("ts", "mrp", span_us=50_000),
    TargetSpec("ec", "nrp", span_us=20_000),
)


def tiny_setup(seed=0, T=16, chunk=8, n=4):
    cfg = ENCODER_PROFILES["tiny"]
    tc = TrainConfig(seq_len=T, chunk_len=chunk, batch_size=2, seed=seed,
                     targets=SPECS, head_width=8)
    model = init_model(cfg, tc, seed=seed)
    geom = SensorGeometry(4, 4, 4)
    ev = synth_generate("moving_dot", geom, 1_000_000, (T + chunk) * n * 1.2, seed=seed)
    samples = [prepare_sample(s, SPECS, 4)
               for s in slice_samples(ev, T, T, chunk, chunk_len=chunk)][:n]
    return cfg, tc, model, samples


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    p = {"w": np.array([1.0, -2.0])}
    opt = Adam(lr=0.1)
    for _ in range(3):
        opt.step(p, {"w": np.zeros(2)})
    assert np.array_equal(p["w"], [1.0, -2.0])
    # and existing moments decay under zero gradients
    opt.m["w"][...] = 1.0
    opt.v["w"][...] = 1.0
    opt.step(p, {"w": np.zeros(2)})
    assert np.allclose(opt.m["w"], 0.9) and np.allclose(opt.v["w"], 0.999)


def test_adam_constant_gradient_step_approaches_lr():
    p = {"w": np.zeros(1)}
    opt = Adam(lr=0.01)
    g = {"w": np.full(1, 3.3)}
    prev = p["w"].copy()
    for _ in range(200):
        prev = p["w"].copy()
        opt.step(p, g)
    assert abs(abs(p["w"][0] - prev[0]) - 0.01) < 1e-4


def test_adam_single_step_hand_computed():
    w = np.array([2.0])
    m = np.array([0.5])
    v = np.array([0.25])
    g = np.array([1.5])
    adam_step(w, g, m, v, lr=0.1, step=3)
    m_want = 0.9 * 0.5 + 0.1 * 1.5
    v_want = 0.999 * 0.25 + 0.001 * 1.5 ** 2
    mhat = m_want / (1 - 0.9 ** 3)
    vhat = v_want / (1 - 0.999 ** 3)
    assert w[0] == pytest.approx(2.0 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8), rel=1e-12)
    assert m[0] == pytest.approx(m_want) and v[0] == pytest.approx(v_want)


def test_adam_rejects_nonfinite():
    opt = Adam()
    with pytest.raises(FloatingPointError):
        opt.step({"w": np.zeros(1)}, {"w": np.array([np.nan])})


def test_adam_nonfinite_last_gradient_changes_nothing():
    # every gradient is checked before the first tensor is updated
    _, _, model, samples = tiny_setup(seed=17)
    named = model.named()
    _, _, grads = batch_loss(model, samples[:2])
    opt = Adam()
    opt.step(named, grads)  # one finite step, so m, v and t are set
    last = list(named)[-1]
    grads[last] = np.full_like(grads[last], np.nan)
    before = [{k: a.copy() for k, a in d.items()} for d in (named, opt.m, opt.v)]
    with pytest.raises(FloatingPointError, match=last):
        opt.step(named, grads)
    assert opt.t == 1
    for want, got in zip(before, (named, opt.m, opt.v)):
        assert all(np.array_equal(got[k], a) for k, a in want.items())


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_weighted_loss_reduces_to_sum_at_zero():
    w = L.LossWeights(["a", "b"])
    assert L.combine({"a": 1.25, "b": 0.5}, w) == pytest.approx(1.75)


def test_weighted_loss_worked_example():
    w = L.LossWeights(["a", "b"])
    w.s["b"][...] = np.log(2.0)
    total = L.combine({"a": 1.0, "b": 4.0}, w)
    assert total == pytest.approx(1.0 + 0.5 * 4.0 + np.log(2.0))
    assert total == pytest.approx(3.693, abs=1e-3)


def test_perfect_prediction_zero_loss():
    w = L.LossWeights(["x"])
    t = np.random.default_rng(0).normal(size=(3, 2, 4, 4))
    assert L.combine({"x": L.task_mse(t, t)}, w) == 0.0


def test_mrp_nrp_split_shared_reduction():
    rng = np.random.default_rng(1)
    preds = {sp.name: rng.normal(size=(2, 2, 4, 4)) for sp in SPECS}
    targets = {sp.name: rng.normal(size=(2, 2, 4, 4)) for sp in SPECS}
    w = L.LossWeights([sp.name for sp in SPECS])
    w.s[SPECS[0].name][...] = 0.3
    mses = {sp.name: L.task_mse(preds[sp.name], targets[sp.name]) for sp in SPECS}
    mrp = L.combine({sp.name: mses[sp.name] for sp in SPECS if sp.role == "mrp"}, w)
    nrp = L.combine({sp.name: mses[sp.name] for sp in SPECS if sp.role == "nrp"}, w)
    every = L.combine(mses, w)
    assert mrp + nrp == pytest.approx(every)


def test_nrp_empty_future_zero_target():
    # no future events: the count target is the zero image, so a zero
    # prediction gives exactly zero loss
    from eva.events import make_events, Sample
    t = np.arange(8) * 10
    ev = make_events(t, np.zeros(8, int), np.zeros(8, int), np.ones(8, int))
    sample = Sample(ev, ev[:0], chunk_len=8)
    spec = TargetSpec("ec", "nrp", span_us=5)
    ts = prepare_sample(sample, (spec,), 4)
    assert np.all(ts.targets[spec.name] == 0)
    assert L.task_mse(np.zeros_like(ts.targets[spec.name]), ts.targets[spec.name]) == 0.0


def test_nrp_target_differs_from_mrp_on_moving_bar():
    geom = SensorGeometry(16, 16, 16)
    ev = synth_generate("moving_bar", geom, 2_000_000, 3000.0, seed=3)
    (sample,) = slice_samples(ev, 512, 4096, 128, chunk_len=512)[:1]
    mrp = TargetSpec("ec", "mrp", span_us=20_000)
    nrp = TargetSpec("ec", "nrp", span_us=20_000)
    ts = prepare_sample(sample, (mrp, nrp), 16)
    assert not np.allclose(ts.targets[mrp.name], ts.targets[nrp.name])


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def test_head_zero_projection_zero_image():
    rng = np.random.default_rng(4)
    head = H.init_head(2, 4, 4, width=8, rng=rng)
    head["proj_W"][...] = 0.0
    out = H.head_forward({"t": head}, np.zeros((3, 2, 4, 4)))["t"]
    assert np.all(out == 0.0)


def test_head_output_shapes_both_geometries():
    rng = np.random.default_rng(5)
    up = H.init_head(16, 8, 16, width=8, rng=rng)   # 16x8x8 -> 2x16x16
    flat = H.init_head(4, 16, 16, width=8, rng=rng)  # 4x16x16 -> 2x16x16
    assert H.head_forward({"t": up}, rng.normal(size=(2, 16, 8, 8)))["t"].shape \
        == (2, 2, 16, 16)
    assert H.head_forward({"t": flat}, rng.normal(size=(2, 4, 16, 16)))["t"].shape \
        == (2, 2, 16, 16)
    with pytest.raises(ValueError):
        H.init_head(2, 5, 16, width=8, rng=rng)


def test_head_gradients_cover_every_parameter():
    rng = np.random.default_rng(6)
    head = H.init_head(3, 4, 8, width=6, rng=rng)  # includes one upsample
    x = rng.normal(size=(4, 3, 4, 4))
    out, cache = H.head_forward({"t": head}, x, want_cache=True)
    out = out["t"]
    assert np.all(np.isfinite(out))
    grads, dx = H.head_backward({"t": head}, cache, {"t": np.ones_like(out)})
    grads = grads["t"]
    assert set(grads) == set(head)
    for name, g in grads.items():
        assert np.any(g != 0.0), f"dead parameter {name}"
    assert dx.shape == x.shape


def test_head_gradient_finite_differences():
    rng = np.random.default_rng(7)
    head = H.init_head(2, 4, 8, width=4, rng=rng)
    x = rng.normal(size=(2, 2, 4, 4))
    proj = rng.normal(size=(2, 2, 8, 8))

    def loss():
        return float(np.sum(H.head_forward({"t": head}, x)["t"] * proj))

    out, cache = H.head_forward({"t": head}, x, want_cache=True)
    grads, dx = H.head_backward({"t": head}, cache, {"t": proj})
    grads = grads["t"]
    eps = 1e-6
    for name, arr in head.items():
        idx = tuple(rng.integers(0, s) for s in arr.shape)
        old = arr[idx]
        arr[idx] = old + eps
        lp = loss()
        arr[idx] = old - eps
        lm = loss()
        arr[idx] = old
        fd = (lp - lm) / (2 * eps)
        assert abs(fd - grads[name][idx]) <= 1e-6 * max(1.0, abs(fd)), name


@pytest.mark.parametrize("n_in,d_head,patch", [(2, 8, 8), (3, 4, 8)],
                         ids=["flat", "one_upsample"])
def test_fused_heads_match_one_head_calls(n_in, d_head, patch):
    rng = np.random.default_rng(8)
    heads = {t: H.init_head(n_in, d_head, patch, width=6, rng=rng) for t in ("a", "b")}
    for head in heads.values():
        for k in head:
            if k.endswith("_b"):
                head[k][...] = rng.normal(size=head[k].shape) * 0.1
    x = rng.normal(size=(3, n_in, d_head, d_head))
    douts = {t: rng.normal(size=(3, 2, patch, patch)) for t in heads}
    preds, cache = H.head_forward(heads, x, want_cache=True)
    grads, dx = H.head_backward(heads, cache, douts)
    dx_sum = np.zeros_like(x)
    for t, head in heads.items():
        one, one_cache = H.head_forward({t: head}, x, want_cache=True)
        np.testing.assert_allclose(preds[t], one[t], rtol=1e-13, atol=1e-15)
        one_grads, one_dx = H.head_backward({t: head}, one_cache, {t: douts[t]})
        assert set(grads[t]) == set(head)
        for k, g in one_grads[t].items():
            np.testing.assert_allclose(grads[t][k], g, rtol=1e-12, atol=1e-14, err_msg=k)
        dx_sum += one_dx
    np.testing.assert_allclose(dx, dx_sum, rtol=1e-12, atol=1e-14)


def test_fused_heads_reject_mismatched_geometry():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 2, 4, 4))
    for other in (H.init_head(2, 4, 4, width=6, rng=rng),   # another width
                  H.init_head(2, 4, 8, width=4, rng=rng)):  # an upsample
        heads = {"a": H.init_head(2, 4, 4, width=4, rng=rng), "b": other}
        with pytest.raises(ValueError):
            H.head_forward(heads, x)


# ---------------------------------------------------------------------------
# pretraining loop
# ---------------------------------------------------------------------------

def test_chunked_loss_consistency():
    # per-chunk-end errors at the coarse ends are a subset of the fine ends
    cfg, tc, model, _ = tiny_setup(T=16, chunk=8)
    geom = SensorGeometry(4, 4, 4)
    ev = synth_generate("moving_dot", geom, 500_000, 60.0, seed=9)
    (raw,) = slice_samples(ev, 16, 16, 8, chunk_len=8)[:1]
    coarse = prepare_sample(raw, SPECS, 4)
    raw.chunk_len = 4
    fine = prepare_sample(raw, SPECS, 4)
    assert list(fine.chunk_ends[1::2]) == list(coarse.chunk_ends)
    for name in coarse.targets:
        assert np.array_equal(fine.targets[name][1::2], coarse.targets[name])
    s_c, _ = __import__("eva.encoder", fromlist=["forward_train"]).forward_train(
        model.params, coarse.tokens[None], coarse.dts[None], list(coarse.chunk_ends))
    s_f, _ = __import__("eva.encoder", fromlist=["forward_train"]).forward_train(
        model.params, fine.tokens[None], fine.dts[None], list(fine.chunk_ends))
    assert np.allclose(s_f[:, 1::2], s_c, rtol=1e-10, atol=1e-13)


def test_zero_lr_keeps_everything_constant():
    cfg, tc, model, samples = tiny_setup()
    from dataclasses import replace
    tc0 = replace(tc, lr=0.0, epochs=2)
    before = {k: v.copy() for k, v in model.named().items()}
    _, history = pretrain(samples, model, tc0)
    after = model.named()
    for k in before:
        assert np.array_equal(before[k], after[k]), k
    totals = [h["total"] for h in history]
    assert all(t == totals[0] for t in totals[1:]) or len(set(totals)) <= len(samples)


def test_pretrain_deterministic_per_seed():
    _, tc, model_a, samples = tiny_setup(seed=11)
    _, _, model_b, _ = tiny_setup(seed=11)
    from dataclasses import replace
    tc = replace(tc, epochs=2)
    _, hist_a = pretrain(samples, model_a, tc)
    _, hist_b = pretrain(samples, model_b, tc)
    assert len(hist_a) == len(hist_b)
    for ra, rb in zip(hist_a, hist_b):
        assert ra == rb  # bit-identical trajectories


def test_pretrain_reduces_loss_quickly():
    _, tc, model, samples = tiny_setup(seed=12, n=6)
    from dataclasses import replace
    tc = replace(tc, epochs=40, max_steps=60)
    _, history = pretrain(samples, model, tc)
    first = history[0]["total"]
    last = np.mean([h["total"] for h in history[-5:]])
    assert last < first


@pytest.mark.parametrize("field,value", [("epochs", 0), ("max_steps", -1),
                                         ("head_width", 0), ("seq_len", 0),
                                         ("chunk_len", 0),
                                         # one name would key one head for both
                                         ("targets", SPECS[2:] + SPECS)])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError):
        TrainConfig(**{"seq_len": 16, "chunk_len": 8, field: value})


def test_first_step_total_does_not_depend_on_want_grads():
    # the benchmark checks the same equality on its first pretraining step
    _, _, model, samples = tiny_setup(seed=16)
    batch = samples[:2]
    mses, total, _ = batch_loss(model, batch, want_grads=True)
    ref_mses, ref, grads = batch_loss(model, batch, want_grads=False)
    assert grads is None
    assert total == ref
    assert mses == ref_mses  # per task too: a total can hide a last-bit change


def test_pretrain_rejects_empty_dataset():
    _, tc, model, _ = tiny_setup()
    with pytest.raises(ValueError):
        pretrain([], model, tc)


@pytest.mark.parametrize("poison", ["weight", "last_gradient"])
def test_pretrain_stops_on_nonfinite_step_before_any_update(poison, monkeypatch):
    # a NaN weight makes the loss NaN; a NaN in the last gradient Adam visits
    # would otherwise follow updates of every weight before it
    import eva.train as train_mod
    _, tc, model, samples = tiny_setup(seed=17)
    if poison == "weight":
        model.params.blocks[0].W_o[0, 0] = np.nan
    else:
        last = list(model.named())[-1]

        def poisoned(*args, **kwargs):
            mses, total, grads = batch_loss(*args, **kwargs)
            grads[last] = np.full_like(grads[last], np.nan)
            return mses, total, grads
        monkeypatch.setattr(train_mod, "batch_loss", poisoned)
    before = {k: v.copy() for k, v in model.named().items()}
    with pytest.raises(FloatingPointError, match="step 1:"):
        pretrain(samples, model, tc)
    for name, value in model.named().items():
        assert np.array_equal(value, before[name], equal_nan=True), name


def test_loss_scale_doubles_gradients():
    cfg, tc, model, samples = tiny_setup(seed=13)
    randomize_params(model.params, seed=14)
    batch = samples[:2]
    mses, total, grads = batch_loss(model, batch)
    # doubling every task's weight exp(-s) doubles every encoder/head grad
    for k in model.weights.s:
        model.weights.s[k][...] = -np.log(2.0)
    _, _, grads2 = batch_loss(model, batch)
    for name in grads:
        if name.startswith("loss_s."):
            continue
        assert np.allclose(grads2[name], 2.0 * grads[name], rtol=1e-9, atol=1e-12), name


def test_run_dir_artifacts(tmp_path):
    _, tc, model, samples = tiny_setup(seed=15)
    from dataclasses import replace
    tc = replace(tc, epochs=1, max_steps=3)
    run = tmp_path / "run"
    _, history = pretrain(samples, model, tc, run_dir=str(run))
    assert (run / "config.txt").exists()
    assert (run / "losses.csv").exists()
    assert (run / "final.evaw").exists()
    assert (run / "metrics.txt").exists()
    lines = (run / "losses.csv").read_text().splitlines()
    assert lines[0] == "epoch,task,loss"
    assert any("mrp_ec_50000" in line for line in lines)
    steps = (run / "steps.csv").read_text().splitlines()
    groups = ["embed_ln0", "block0", "mvhs", "heads", "loss_s"]  # tiny: one block
    assert steps[0].split(",") == (["step", "epoch", "batch_loss_ms", "adam_ms", "total"]
                                   + [sp.name for sp in SPECS]
                                   + [f"gnorm.{g}" for g in groups])
    assert len(steps) == 1 + len(history) == 1 + 2  # 4 samples, batch 2, one epoch
    for row, rec in zip(steps[1:], history):
        cells = row.split(",")
        assert len(cells) == len(steps[0].split(","))
        assert cells[:2] == [str(rec["step"]), str(rec["epoch"])]
        assert float(cells[4]) == rec["total"]
    from eva.checkpoint import load_checkpoint
    params, rest, _ = load_checkpoint(run / "final.evaw")
    assert any(k.startswith("heads.") for k in rest)


def test_run_dir_keeps_one_rolling_checkpoint(tmp_path):
    # last.evaw is replaced at each epoch's end and holds what final.evaw holds
    from eva.checkpoint import load_tensors
    _, tc, model, samples = tiny_setup(seed=15)
    run = tmp_path / "run"
    _, history = pretrain(samples, model, replace(tc, epochs=3), run_dir=str(run))
    assert history[-1]["epoch"] == 2
    assert sorted(p.name for p in run.glob("*.evaw*")) == ["final.evaw", "last.evaw"]
    _, last, _ = load_tensors((run / "last.evaw").read_bytes())
    _, final, _ = load_tensors((run / "final.evaw").read_bytes())
    assert last.keys() == final.keys() == model.named().keys()
    for name, value in final.items():
        assert np.array_equal(last[name], value), name
    metrics = (run / "metrics.txt").read_text()
    assert int(metrics.split("max_rss_kb = ")[1].split()[0]) > 0


def test_build_synthetic_corpus_shapes():
    tc = TrainConfig(seq_len=64, chunk_len=16, batch_size=2, targets=SPECS)
    cfg = ENCODER_PROFILES["small"]
    samples = build_synthetic_corpus(tc, cfg, rate=20_000.0, duration_us=500_000,
                                     seed=0)
    assert len(samples) >= 4
    s = samples[0]
    assert s.tokens.shape == (64,)
    assert list(s.chunk_ends) == [16, 32, 48, 64]
    for spec in SPECS:
        assert s.targets[spec.name].shape == (4, 2, 16, 16)


def test_corpus_counts_are_exact_unsigned_integers_surfaces_in_the_model_dtype():
    # counts are stored in the narrowest unsigned type that holds them, equal
    # to chunk_targets' f64 images; the gradients keep the model dtype
    assert ENCODER_PROFILES["small"].dtype == np.float32
    tc = TrainConfig(seq_len=64, chunk_len=16, batch_size=2, targets=SPECS, head_width=8)
    for cfg in (ENCODER_PROFILES["small"], ENCODER_PROFILES["tiny"]):
        P = cfg.patch
        events = synth_generate("moving_bar", SensorGeometry(P, P, P), 200_000, 20_000.0, 0)
        raws = slice_samples(events, 64, 64, 16, chunk_len=16)
        samples = build_synthetic_corpus(tc, cfg, rate=20_000.0, duration_us=200_000,
                                         seed=0)
        assert len(samples) == len(raws) > 0
        for raw, s in zip(raws, samples):
            for spec in SPECS:
                want = chunk_targets(spec, raw.input_events, raw.future_events,
                                     list(s.chunk_ends), P)
                got = s.targets[spec.name]
                if spec.kind == "ts":
                    assert got.dtype == cfg.dtype
                    assert np.array_equal(got, want.astype(cfg.dtype))
                else:
                    assert got.dtype == np.min_scalar_type(int(want.max()))
                    assert got.dtype.kind == "u" and np.array_equal(got, want)
        model = init_model(cfg, tc, seed=0)
        _, _, grads = batch_loss(model, samples[:2])
        assert {g.dtype for g in grads.values()} == {np.dtype(cfg.dtype)}


@pytest.mark.parametrize("profile", ["small", "tiny"])
def test_batch_loss_on_compact_targets_equals_upcast_targets(profile):
    cfg = ENCODER_PROFILES[profile]
    tc = TrainConfig(seq_len=64, chunk_len=16, batch_size=2, targets=SPECS, head_width=8)
    model = init_model(cfg, tc, seed=3)
    randomize_params(model.params, seed=4)
    batch = build_synthetic_corpus(tc, cfg, rate=20_000.0, duration_us=200_000, seed=3)[:2]
    assert {t.dtype.kind for s in batch for t in s.targets.values()} == {"u", "f"}
    upcast = [replace(s, targets={k: t.astype(cfg.dtype) for k, t in s.targets.items()})
              for s in batch]
    mses, total, grads = batch_loss(model, batch)
    mses_up, total_up, grads_up = batch_loss(model, upcast)
    assert (mses, total) == (mses_up, total_up)
    assert grads.keys() == grads_up.keys()
    for name, g in grads.items():
        assert g.dtype == grads_up[name].dtype and np.array_equal(g, grads_up[name]), name


def test_count_above_255_is_stored_as_uint16_exactly():
    from eva.events import Sample, make_events
    n = 304  # 300 events on one pixel, 4 on its neighbour
    x = np.zeros(n, int)
    x[::76] = 1
    ev = make_events(np.arange(n) * 10, x, np.zeros(n, int), np.ones(n, int))
    spec = TargetSpec("ec", "mrp", span_us=10 * n)
    sample = prepare_sample(Sample(ev, ev[:0], chunk_len=8), (spec,), 4)
    got = sample.targets[spec.name]
    want = chunk_targets(spec, ev, ev[:0], list(sample.chunk_ends), 4)
    assert got.dtype == np.uint16
    assert got.max() == 300 and np.count_nonzero(got[-1]) == 2
    assert np.array_equal(got.astype(np.float32), want)
    assert np.array_equal(got.astype(np.float64), want)


def test_corpus_equals_the_partitioned_stream_corpus():
    # on the corpus's one-patch sensor partition_patches returns the stream
    # itself, so slicing the generated events gives the same samples
    tc = TrainConfig(seq_len=64, chunk_len=16, batch_size=2, targets=SPECS)
    cfg = ENCODER_PROFILES["small"]
    P = cfg.patch
    geom = SensorGeometry(P, P, P)
    events = synth_generate("moving_bar", geom, 500_000, 20_000.0, seed=4)
    (local,) = partition_patches(events, geom).values()
    want = [prepare_sample(s, SPECS, P, cfg.dtype)
            for s in slice_samples(local, 64, 64, 16, chunk_len=16)]
    got = build_synthetic_corpus(tc, cfg, rate=20_000.0, duration_us=500_000, seed=4)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        pairs = [(g.tokens, w.tokens), (g.dts, w.dts), (g.chunk_ends, w.chunk_ends)]
        pairs += [(g.targets[k], w.targets[k]) for k in w.targets]
        for a, b in pairs:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_small_f32_batch_loss_tracks_f64():
    # measured over seeds 0-2: total <= 2.6e-7 and every gradient <= 1.2e-4
    # relative to f64
    tc = TRAIN_PROFILES["small"]
    cfg32 = ENCODER_PROFILES["small"]
    cfg64 = replace(cfg32, precision="f64")
    model64 = init_model(cfg64, tc, seed=0)
    randomize_params(model64.params, seed=1)
    model32 = init_model(cfg32, tc, seed=0)
    for name, arr in model32.named().items():
        assert arr.dtype == np.float32, name
        arr[...] = model64.named()[name]
    corpus = {cfg.precision: build_synthetic_corpus(tc, cfg, duration_us=100_000,
                                                    seed=0)[:tc.batch_size]
              for cfg in (cfg32, cfg64)}
    _, total32, grads32 = batch_loss(model32, corpus["f32"])
    _, total64, grads64 = batch_loss(model64, corpus["f64"])
    assert abs(total32 - total64) <= 1e-5 * abs(total64)
    assert grads32.keys() == grads64.keys()
    for name, g64 in grads64.items():
        g32 = grads32[name]
        assert g32.dtype == np.float32, name
        assert np.linalg.norm(g32 - g64) <= 1e-3 * np.linalg.norm(g64), name


def test_multi_window_count_target_list():
    # a list of count windows (e.g. 50/25/10/5 ms) is just several specs
    specs = tuple(TargetSpec("ec", "mrp", span_us=w)
                  for w in (50_000, 25_000, 10_000, 5_000)) + \
        (TargetSpec("ec", "nrp", span_us=10_000),)
    cfg = ENCODER_PROFILES["tiny"]
    tc = TrainConfig(seq_len=16, chunk_len=8, batch_size=2, targets=specs,
                     head_width=8)
    geom = SensorGeometry(4, 4, 4)
    ev = synth_generate("moving_dot", geom, 900_000, 150.0, seed=21)
    from eva.train import prepare_sample
    samples = [prepare_sample(s, specs, 4)
               for s in slice_samples(ev, 16, 16, 8, chunk_len=8)][:2]
    model = init_model(cfg, tc, seed=21)
    mses, total, grads = batch_loss(model, samples)
    assert set(mses) == {sp.name for sp in specs}
    assert len({sp.name for sp in specs}) == 5  # names stay distinct
    assert np.isfinite(total)
    # wider windows can only count more events
    wide = samples[0].targets["mrp_ec_50000"]
    narrow = samples[0].targets["mrp_ec_5000"]
    assert np.all(wide >= narrow)


def test_chunked_loss_coarse_is_subaverage_of_fine():
    # per-chunk-end squared errors at the shared ends coincide, so the
    # coarse task loss equals the mean of the fine per-end values there
    cfg, tc, model, _ = tiny_setup(T=16, chunk=8)
    geom = SensorGeometry(4, 4, 4)
    ev = synth_generate("moving_dot", geom, 500_000, 60.0, seed=22)
    (raw,) = slice_samples(ev, 16, 16, 8, chunk_len=8)[:1]
    coarse = prepare_sample(raw, SPECS, 4)
    raw.chunk_len = 4
    fine = prepare_sample(raw, SPECS, 4)

    import eva.heads as H
    from eva.encoder import forward_train

    def per_end_mse(sample):
        snaps, _ = forward_train(model.params, sample.tokens[None],
                                 sample.dts[None], list(sample.chunk_ends))
        sel = snaps[0, :, :cfg.n_out]
        out = {}
        for task, head in model.heads.items():
            pred = H.head_forward({task: head}, sel)[task]
            err = (pred - sample.targets[task]) ** 2
            out[task] = err.mean(axis=(1, 2, 3))
        return out

    pe_c = per_end_mse(coarse)
    pe_f = per_end_mse(fine)
    for task in pe_c:
        assert np.allclose(pe_f[task][1::2], pe_c[task], rtol=1e-9)
        assert np.isclose(pe_c[task].mean(), pe_f[task][1::2].mean())
