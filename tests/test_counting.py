import numpy as np

from eva.config import ENCODER_PROFILES, EncoderConfig
from eva.counting import (count_macs_per_event, count_params, count_params_breakdown,
                          mvhs_param_count, vector_output_config)
from eva.params import init_encoder_params, named_arrays


def test_count_params_matches_live_tensors():
    for name, cfg in ENCODER_PROFILES.items():
        params = init_encoder_params(cfg, seed=0)
        live = sum(v.size for v in named_arrays(params).values())
        assert count_params(cfg) == live, name


def test_dvs_params_near_reported():
    total = count_params(ENCODER_PROFILES["dvs"])
    assert abs(total - 620_000) / 620_000 <= 0.20


def test_dvs_macs_near_reported():
    macs = count_macs_per_event(ENCODER_PROFILES["dvs"])
    assert abs(macs - 600_000) / 600_000 <= 0.25


def test_vector_output_ratio_near_head_dim():
    cfg = ENCODER_PROFILES["dvs"]
    vec = vector_output_config(cfg)
    assert vec.mvhs_d_head == 1
    assert vec.mvhs_state_dim == cfg.n_out * cfg.mvhs_d_head ** 2
    ratio = mvhs_param_count(vec) / mvhs_param_count(cfg)
    expected = cfg.d_model / cfg.mvhs_heads
    assert abs(ratio - expected) / expected <= 0.30


def test_vector_ablation_runs():
    # the width-1-head configuration is a usable model, not only a count
    cfg = EncoderConfig(d_model=8, n_blocks=1, n_heads=2, d_ffn=16, d_lora=4,
                        d_w=4, mvhs_heads=8, mvhs_d_head=1, n_out=8, patch=4,
                        precision="f64")
    params = init_encoder_params(cfg, seed=0)
    from eva.encoder import EncoderState
    from eva.runtime import EncoderRuntime
    st = EncoderState.zeros(cfg)
    EncoderRuntime(params).step(st.rows(None), np.array([3]), np.array([10]))
    assert st.mvhs.S.shape == (8, 1, 1)
    assert st.finite()


def test_counts_scale_with_blocks():
    from dataclasses import replace
    base = ENCODER_PROFILES["dvs"]
    deeper = replace(base, n_blocks=6)
    assert count_macs_per_event(deeper) > count_macs_per_event(base)
    bd = count_params_breakdown(base)
    assert bd["blocks"] == 3 * count_params_breakdown(replace(base, n_blocks=1))["blocks"]
