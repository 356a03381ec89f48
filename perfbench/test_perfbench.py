"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, aggregate, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    # frame, name, start, end, parent
    spans = [
        [0, "root", 0, 100, -1],
        [0, "a", 10, 40, 0],
        [0, "b", 20, 30, 1],
        [0, "a", 50, 70, 0],
        [0, "c", 60, 90, 0],   # overlaps the second "a": union counts once
        [1, "root", 200, 210, -1],
    ]
    assert self_times(spans) == [100 - 70, 30 - 10, 10, 20, 30, 10]
    agg = aggregate(spans, keep=lambda r: r[0] == 0)
    assert agg["a"] == {"self_ns": 40, "total_ns": 50, "calls": 2}
    assert agg["root"]["self_ns"] == 30
    # without overlapping siblings, self times add up to the root's wall time
    nested = spans[:4]
    assert sum(a["self_ns"] for a in aggregate(nested).values()) == 100


def test_tail_rule_keeps_ten_samples_beyond():
    assert measure.tail_level(1000) == 99
    assert measure.tail_level(10_000) == 99.9
    assert measure.tail_level(100) == 90
    assert measure.tail_level(40) == 75
    assert measure.tail_level(25) == 60
    assert measure.tail_level(5) == 50
    t = measure.timing("x", [0.001] * 99 + [0.002], 90)
    assert t["x_n"] == 100 and t["x_tail_ok"]
    assert t["x_p50"] == pytest.approx(1.0) and t["x_tail"] == pytest.approx(1.0)
    assert not measure.timing("x", [0.001] * 99, 90)["x_tail_ok"]


def test_workload_tails_follow_the_rule_at_seed_counts():
    # latency samples per run of the seed commit, as collect.py recorded them
    seed = json.loads((HERE / "results" / "seed.json").read_text())
    assert sorted(seed["workloads"]) == sorted(run.WORKLOADS)
    for name, w in seed["workloads"].items():
        n = statistics.median(w["latency_samples"])
        assert run.WORKLOADS[name]["tail_q"] == measure.tail_level(n), name


def test_probe_rescales_each_time_by_its_own_probe():
    ref = measure.PROBE_REF_S
    # a probe twice the reference halves the time; one at the reference keeps it
    assert measure.at_ref([0.2, 0.3], [2 * ref, ref]) == pytest.approx([0.1, 0.3])
    assert 0 < measure.probe_s() < 1.0


def test_tracing_cost_charges_measured_spans_and_counts():
    trace = {"spans": [[0, "a", 0, 5, -1], [-1, "setup", 0, 5, -1], [3, "b", 0, 5, -1]],
             "counts": {"scan.chunks": 4}, "span_cost_ns": 100.0}
    assert layers.tracing_cost_ns(trace) == (2 + 4) * 100.0
    assert 0 < tracing.span_cost_ns(calls=200, repeats=3) < 1e6


def _pipeline_snapshot():
    from eva.config import EncoderConfig
    from eva.events import SensorGeometry, synth_generate
    from eva.params import init_encoder_params
    from eva.pipeline import A2SPipeline
    cfg = EncoderConfig(d_model=16, n_blocks=1, n_heads=2, d_ffn=24, d_lora=4, d_w=4,
                        mvhs_heads=2, mvhs_d_head=8, n_out=2, patch=8)
    params = init_encoder_params(cfg, seed=0)
    geom = SensorGeometry(16, 16, 8)
    events = synth_generate("uniform_noise", geom, 50_000, 4000.0, seed=3)
    pipe = A2SPipeline(params, geom, threads=1)
    pipe.ingest_events(events)
    refs = measure.reference_tiles(events, params, geom, 4)
    return pipe.snapshot(), refs


def test_tile_check_passes_then_fails_on_corrupted_tile():
    snap, refs = _pipeline_snapshot()
    assert len(refs) == 4
    ok, worst = measure.tiles_match(snap.values, refs, snap.tile)
    assert ok and worst < 1e-5
    (r, c), want = next(iter(refs.items()))
    bad = snap.values.copy()
    bad[0, r * snap.tile + 1, c * snap.tile + 2] += 0.01 * np.abs(want).max()
    assert not measure.tiles_match(bad, refs, snap.tile)[0]
    bad[0, r * snap.tile, c * snap.tile] = np.nan
    assert not measure.tiles_match(bad, refs, snap.tile)[0]


def test_missing_targets_are_reported_not_fatal():
    import eva.embedding
    import eva.encoder
    orig = eva.embedding.embed_events
    tracer = Tracer()
    tracer.install(spans=(("eva.no_such_module:f", "x.a"),
                          ("eva.runtime:NoSuchClass.step", "x.b"),
                          ("eva.blocks:no_such_function", "x.c"),
                          ("eva.embedding:embed_events", "embedding.embed_events")),
                   counts=(("eva.scan:no_such_chunk", "x.d"),))
    try:
        assert sorted(tracer.export()["absent"]) == sorted([
            "eva.no_such_module:f", "eva.runtime:NoSuchClass.step",
            "eva.blocks:no_such_function", "eva.scan:no_such_chunk"])
        # a name imported into another module is rebound there too
        assert eva.encoder.embed_events is eva.embedding.embed_events is not orig
        tracer.frame = 0
        eva.encoder.embed_events(np.array([1, 2]), np.array([0, 5]), np.zeros((4, 8)))
        assert [s[1] for s in tracer.spans] == ["embedding.embed_events"]
    finally:
        tracer.uninstall()
    assert eva.encoder.embed_events is orig and eva.embedding.embed_events is orig


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(layers.PER_LAYER)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
