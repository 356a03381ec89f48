"""Closed-form parameter and per-event multiply-accumulate counts.

Parameter counts mirror the live tensor shapes exactly (tests assert the
totals match `named_arrays`). MAC counts tally one recurrent event update:
projections, low-rank interpolations, state update, feed-forward, norms.
"""

from __future__ import annotations

from .config import EncoderConfig


def block_param_count(cfg: EncoderConfig) -> int:
    D, Dl, Dw, F = cfg.d_model, cfg.d_lora, cfg.d_w, cfg.d_ffn
    tm = (D              # mu
          + 4 * D        # lam r/k/v/g
          + 4 * D * Dl + 4 * Dl * D
          + D + D * Dw + Dw * D  # decay bias + low-rank
          + 5 * D * D    # W r/k/v/g/o
          + D)           # u
    norms = 4 * D
    cm = 2 * D + D * D + D * F + F * D
    return tm + norms + cm


def mvhs_param_count(cfg: EncoderConfig) -> int:
    D, Dl, Dw, Ds = cfg.d_model, cfg.d_lora, cfg.d_w, cfg.mvhs_state_dim
    return (D + 2 * D                    # mu, lam k/v
            + 2 * D * Dl + 2 * Dl * D    # A/B k/v
            + Ds + D * Dw + Dw * Ds      # decay
            + 2 * D * Ds)                # W k/v


def count_params_breakdown(cfg: EncoderConfig) -> dict[str, int]:
    return {
        "embed": cfg.vocab * cfg.d_model,
        "ln0": 2 * cfg.d_model,
        "blocks": cfg.n_blocks * block_param_count(cfg),
        "mvhs": mvhs_param_count(cfg),
    }


def count_params(cfg: EncoderConfig) -> int:
    return sum(count_params_breakdown(cfg).values())


def count_macs_breakdown(cfg: EncoderConfig) -> dict[str, int]:
    D, Dl, Dw, F = cfg.d_model, cfg.d_lora, cfg.d_w, cfg.d_ffn
    Dh, Ds, Dhm = cfg.d_head, cfg.mvhs_state_dim, cfg.mvhs_d_head
    embed = D          # sinusoid evaluation
    ln = 2 * D         # one normalization pass
    tm = (D                      # shared interpolation m
          + 4 * (2 * D * Dl + D + D * D)   # four lora+mix+projection paths
          + D * Dw + Dw * D      # decay low-rank
          + 4 * D * Dh           # state update + read-out over heads
          + 2 * D                # per-head norm
          + 2 * D                # gate
          + D * D)               # output projection
    cm = 2 * D + D * D + D * F + F + F * D + D
    block = tm + cm + 2 * ln
    mvhs = (D + 2 * (2 * D * Dl + D)     # interpolations
            + 2 * D * Ds                 # projections
            + D * Dw + Dw * Ds           # decay
            + 2 * Ds * Dhm)              # state update
    return {"embed": embed, "ln0": ln, "blocks": cfg.n_blocks * block, "mvhs": mvhs}


def count_macs_per_event(cfg: EncoderConfig) -> int:
    return sum(count_macs_breakdown(cfg).values())


def vector_output_config(cfg: EncoderConfig) -> EncoderConfig:
    """Width-1-head ablation at equal representation size: the state keeps
    n_out * d_head^2 scalars, realized as that many 1x1 head matrices."""
    from dataclasses import replace
    size = cfg.n_out * cfg.mvhs_d_head ** 2
    return replace(cfg, mvhs_heads=size, mvhs_d_head=1, n_out=size)
