"""Reverse-mode gradients vs central finite differences on small models."""

import numpy as np
import pytest

from eva.config import ENCODER_PROFILES, TargetSpec, TrainConfig
from eva.events import SensorGeometry, slice_samples, synth_generate
from eva.train import batch_loss, init_model, prepare_sample
from helpers import randomize_params

# an unmasked exp overflow in the scan must fail, not warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SPECS = (
    TargetSpec("ec", "mrp", window_us=50_000),
    TargetSpec("ts", "mrp", tau_us=50_000),
    TargetSpec("ec", "nrp", window_us=20_000, horizon_us=20_000),
)


def fd_check(model, batch, names, rng, per_tensor=3, eps=1e-5, tol=1e-4):
    named = model.named()
    _, _, grads = batch_loss(model, batch)

    def loss():
        _, t, _ = batch_loss(model, batch, want_grads=False)
        return t

    worst = 0.0
    for name in names:
        arr, g = named[name], grads[name]
        idxs = [()] if arr.ndim == 0 else \
            [tuple(rng.integers(0, s) for s in arr.shape) for _ in range(per_tensor)]
        for idx in idxs:
            old = arr[idx]
            arr[idx] = old + eps
            lp = loss()
            arr[idx] = old - eps
            lm = loss()
            arr[idx] = old
            fd = (lp - lm) / (2 * eps)
            err = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-4)
            worst = max(worst, err)
            assert err <= tol, (name, idx, fd, float(g[idx]), err)
    return worst


def make_batch(T=16, chunk=8, seed=0, n=2):
    geom = SensorGeometry(4, 4, 4)
    ev = synth_generate("moving_dot", geom, 800_000, 150.0, seed=seed)
    samples = [prepare_sample(s, SPECS, 4)
               for s in slice_samples(ev, T, T, chunk, chunk_len=chunk)]
    return samples[:n]


@pytest.fixture(scope="module")
def tiny_model():
    cfg = ENCODER_PROFILES["tiny"]
    tc = TrainConfig(seq_len=16, chunk_len=8, batch_size=2, targets=SPECS,
                     head_width=8)
    model = init_model(cfg, tc, seed=1)
    randomize_params(model.params, seed=2)
    for k in model.weights.s:
        model.weights.s[k][...] = 0.2
    return model


def test_every_tensor_spot_checked(tiny_model):
    rng = np.random.default_rng(3)
    batch = make_batch(seed=4)
    names = list(tiny_model.named())
    worst = fd_check(tiny_model, batch, names, rng, per_tensor=2)
    assert worst <= 1e-4


def test_unused_parameter_has_zero_gradient(tiny_model):
    batch = make_batch(seed=5)
    _, _, grads = batch_loss(tiny_model, batch)
    for i in range(len(tiny_model.params.blocks)):
        assert np.all(grads[f"blocks.{i}.mu_cv"] == 0.0)


def test_gradient_linearity_in_loss_scale(tiny_model):
    batch = make_batch(seed=6)
    _, _, g1 = batch_loss(tiny_model, batch)
    for k in tiny_model.weights.s:
        tiny_model.weights.s[k][...] = 0.2 - np.log(3.0)
    _, _, g3 = batch_loss(tiny_model, batch)
    for k in tiny_model.weights.s:
        tiny_model.weights.s[k][...] = 0.2
    for name in g1:
        if name.startswith("loss_s."):
            continue
        assert np.allclose(g3[name], 3.0 * g1[name], rtol=1e-9, atol=1e-12), name


def test_untouched_embedding_rows_zero_grad(tiny_model):
    batch = make_batch(seed=7)
    _, _, grads = batch_loss(tiny_model, batch)
    used = set(np.unique(np.concatenate([s.tokens for s in batch])))
    table_grad = grads["embed"]
    for row in range(table_grad.shape[0]):
        if row not in used:
            assert np.all(table_grad[row] == 0.0)
        # rows that were used normally receive signal; not asserted per-row
