"""Parameter containers for the encoder, with flat named views.

All trainable tensors are plain numpy arrays. `named_arrays` exposes them
as a flat {name: array} dict of live references, which the optimizer and
the checkpoint writer operate on; in-place updates are therefore visible
through the dataclass fields as well.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .config import PRECISIONS, EncoderConfig
from .embedding import init_embedding_table

# initial per-channel decay ~0.95: d0 = log(-log(0.95))
SLOW_DECAY_BIAS = float(np.log(-np.log(0.95)))
LN_EPS = 1e-5


@dataclass
class BlockParams:
    # token-mixing sublayer
    mu: np.ndarray
    lam_r: np.ndarray
    lam_k: np.ndarray
    lam_v: np.ndarray
    lam_g: np.ndarray
    A_r: np.ndarray
    A_k: np.ndarray
    A_v: np.ndarray
    A_g: np.ndarray
    B_r: np.ndarray
    B_k: np.ndarray
    B_v: np.ndarray
    B_g: np.ndarray
    lam_d: np.ndarray
    A_w: np.ndarray
    B_w: np.ndarray
    W_r: np.ndarray
    W_k: np.ndarray
    W_v: np.ndarray
    W_g: np.ndarray
    W_o: np.ndarray
    u: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    # channel-mixing sublayer
    mu_cr: np.ndarray
    mu_ck: np.ndarray
    W_cr: np.ndarray
    W_ck: np.ndarray
    W_cv: np.ndarray


@dataclass
class MvhsParams:
    mu: np.ndarray
    lam_k: np.ndarray
    lam_v: np.ndarray
    A_k: np.ndarray
    A_v: np.ndarray
    B_k: np.ndarray
    B_v: np.ndarray
    lam_d: np.ndarray
    A_w: np.ndarray
    B_w: np.ndarray
    W_k: np.ndarray
    W_v: np.ndarray


@dataclass
class EncoderParams:
    config: EncoderConfig
    embed: np.ndarray
    ln0_g: np.ndarray
    ln0_b: np.ndarray
    blocks: list
    mvhs: MvhsParams

    def __post_init__(self):
        if self.embed.dtype != self.config.dtype:
            raise ValueError(f"embed is {self.embed.dtype}, but the config's precision "
                             f"is {self.config.precision}")

    @property
    def dtype(self):
        return self.embed.dtype

    def astype(self, dtype) -> "EncoderParams":
        """A copy in `dtype`, whose config's precision says so. Raises
        ValueError for a dtype outside `PRECISIONS`."""
        dtype = np.dtype(dtype)
        names = {np.dtype(v): k for k, v in PRECISIONS.items()}
        cfg = replace(self.config, precision=names.get(dtype, dtype.name))
        named = {k: v.astype(dtype) for k, v in named_arrays(self).items()}
        return encoder_params_from_named(cfg, named)


def _uniform(rng, shape, scale, dtype):
    return rng.uniform(-scale, scale, size=shape).astype(dtype)


def init_block_params(cfg: EncoderConfig, rng: np.random.Generator) -> BlockParams:
    D, Dl, Dw, F = cfg.d_model, cfg.d_lora, cfg.d_w, cfg.d_ffn
    dtype = cfg.dtype
    s = 1.0 / np.sqrt(D)
    mix = lambda: rng.uniform(0.0, 1.0, size=D).astype(dtype)
    return BlockParams(
        mu=mix(),
        lam_r=mix(), lam_k=mix(), lam_v=mix(), lam_g=mix(),
        A_r=np.zeros((D, Dl), dtype), A_k=np.zeros((D, Dl), dtype),
        A_v=np.zeros((D, Dl), dtype), A_g=np.zeros((D, Dl), dtype),
        B_r=_uniform(rng, (Dl, D), 0.01, dtype), B_k=_uniform(rng, (Dl, D), 0.01, dtype),
        B_v=_uniform(rng, (Dl, D), 0.01, dtype), B_g=_uniform(rng, (Dl, D), 0.01, dtype),
        lam_d=np.full(D, SLOW_DECAY_BIAS, dtype),
        A_w=np.zeros((D, Dw), dtype), B_w=_uniform(rng, (Dw, D), 0.01, dtype),
        W_r=_uniform(rng, (D, D), s, dtype), W_k=_uniform(rng, (D, D), s, dtype),
        W_v=_uniform(rng, (D, D), s, dtype), W_g=_uniform(rng, (D, D), s, dtype),
        W_o=_uniform(rng, (D, D), s, dtype),
        u=np.zeros(D, dtype),
        ln1_g=np.ones(D, dtype), ln1_b=np.zeros(D, dtype),
        ln2_g=np.ones(D, dtype), ln2_b=np.zeros(D, dtype),
        mu_cr=mix(), mu_ck=mix(),
        W_cr=_uniform(rng, (D, D), s, dtype),
        W_ck=_uniform(rng, (D, F), s, dtype),
        W_cv=_uniform(rng, (F, D), 1.0 / np.sqrt(F), dtype),
    )


def init_mvhs_params(cfg: EncoderConfig, rng: np.random.Generator) -> MvhsParams:
    """The interpolation acts on the model width D; the projections and the
    per-channel decay live in the state width Ds (= D unless ablating)."""
    D, Dl, Dw, Ds = cfg.d_model, cfg.d_lora, cfg.d_w, cfg.mvhs_state_dim
    dtype = cfg.dtype
    s = 1.0 / np.sqrt(D)
    mix = lambda: rng.uniform(0.0, 1.0, size=D).astype(dtype)
    return MvhsParams(
        mu=mix(),
        lam_k=mix(), lam_v=mix(),
        A_k=np.zeros((D, Dl), dtype), A_v=np.zeros((D, Dl), dtype),
        B_k=_uniform(rng, (Dl, D), 0.01, dtype), B_v=_uniform(rng, (Dl, D), 0.01, dtype),
        lam_d=np.full(Ds, SLOW_DECAY_BIAS, dtype),
        A_w=np.zeros((D, Dw), dtype), B_w=_uniform(rng, (Dw, Ds), 0.01, dtype),
        W_k=_uniform(rng, (D, Ds), s, dtype), W_v=_uniform(rng, (D, Ds), s, dtype),
    )


def init_encoder_params(cfg: EncoderConfig, seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    dtype = cfg.dtype
    return EncoderParams(
        config=cfg,
        embed=init_embedding_table(cfg.vocab, cfg.d_model, rng, dtype),
        ln0_g=np.ones(cfg.d_model, dtype),
        ln0_b=np.zeros(cfg.d_model, dtype),
        blocks=[init_block_params(cfg, rng) for _ in range(cfg.n_blocks)],
        mvhs=init_mvhs_params(cfg, rng),
    )


def named_arrays(params: EncoderParams) -> dict[str, np.ndarray]:
    named: dict[str, np.ndarray] = {
        "embed": params.embed, "ln0_g": params.ln0_g, "ln0_b": params.ln0_b}
    for i, bp in enumerate(params.blocks):
        for f in fields(BlockParams):
            named[f"blocks.{i}.{f.name}"] = getattr(bp, f.name)
    for f in fields(MvhsParams):
        named[f"mvhs.{f.name}"] = getattr(params.mvhs, f.name)
    return named


def encoder_params_from_named(cfg: EncoderConfig, named: dict[str, np.ndarray]) -> EncoderParams:
    blocks = []
    for i in range(cfg.n_blocks):
        kwargs = {f.name: named[f"blocks.{i}.{f.name}"] for f in fields(BlockParams)}
        blocks.append(BlockParams(**kwargs))
    mvhs = MvhsParams(**{f.name: named[f"mvhs.{f.name}"] for f in fields(MvhsParams)})
    return EncoderParams(config=cfg, embed=named["embed"], ln0_g=named["ln0_g"],
                         ln0_b=named["ln0_b"], blocks=blocks, mvhs=mvhs)

