"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion report
lines; every test also asserts its own bound.
"""

import io
import time
from dataclasses import replace

import numpy as np

from eva import blocks as B
from eva.checkpoint import dump_tensors, save_checkpoint, load_checkpoint
from eva.config import ENCODER_PROFILES, TRAIN_PROFILES, EncoderConfig, TargetSpec
from eva.counting import (count_macs_per_event, count_params, mvhs_param_count,
                          vector_output_config)
from eva.embedding import tok, untok
from eva.encoder import EncoderState
from eva.events import (SensorGeometry, filter_hot_pixels, make_events, pack_binary,
                        parse_csv, read_binary_file, synth_generate,
                        unpack_binary, write_binary_file, write_csv)
from eva.mvhs import MvhsState
from eva.params import init_encoder_params, named_arrays
from eva.pipeline import A2SPipeline
from eva.runtime import _BlockRt, _MvhsRt
from eva.server import EvaClient, EvaServer
from eva.snapshots import dump_snapshot, load_snapshot, KIND_REPR
from eva.targets import (StreamingEventCount, StreamingTimeSurface, event_count,
                         time_surface)
from eva.train import batch_loss, build_synthetic_corpus, init_model, pretrain
from helpers import chunked_frame, randomize_params

SPECS = (
    TargetSpec("ec", "mrp", window_us=100_000),
    TargetSpec("ts", "mrp", tau_us=100_000),
    TargetSpec("ec", "nrp", window_us=20_000, horizon_us=20_000),
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel(a, b):
    scale = np.max(np.abs(b))
    return float(np.max(np.abs(a - b)) / scale) if scale > 0 else float(np.max(np.abs(a)))


# criterion 1 -------------------------------------------------------------

def _stack_case(seed: int, precision: str):
    cfg = EncoderConfig(d_model=32, n_blocks=3, n_heads=4, d_ffn=48, d_lora=8,
                        d_w=8, mvhs_heads=4, mvhs_d_head=8, n_out=4, patch=4,
                        precision=precision)
    params = init_encoder_params(cfg, seed=seed)
    randomize_params(params, seed=seed + 1)
    if precision == "f32":
        params = params.astype(np.float32)
    rng = np.random.default_rng(seed + 2)
    xs = rng.normal(size=(256, 32)).astype(cfg.dtype)
    # event-by-event stepping through all three blocks
    blocks = [_BlockRt(bp, cfg.n_heads) for bp in params.blocks]
    states = EncoderState.zeros(cfg).blocks
    rows = [B.BlockState(st.S[None], st.tm_prev[None], st.cm_prev[None])
            for st in states]  # a batch of one, viewing each state
    out_r = np.zeros_like(xs)
    for i in range(256):
        h = xs[i:i + 1]
        for blk, st in zip(blocks, rows):
            h = blk.step(h, st)
        out_r[i] = h[0]
    # chunked-parallel
    h = xs[None]
    finals = []
    for bp in params.blocks:
        S0 = np.zeros((1, cfg.n_heads, cfg.d_head, cfg.d_head), cfg.dtype)
        carry = np.zeros((1, 32), cfg.dtype)
        h, fin, _ = B.block_seq_fwd(h, S0, carry, carry, bp, cfg.n_heads)
        finals.append(fin)
    worst = _rel(h[0], out_r)
    for st, (S_f, tm_c, cm_c) in zip(states, finals):
        worst = max(worst, _rel(S_f[0], st.S), _rel(tm_c[0], st.tm_prev),
                    _rel(cm_c[0], st.cm_prev))
    return worst


def test_criterion_1_mode_equivalence():
    t0 = time.perf_counter()
    worst64 = max(_stack_case(seed, "f64") for seed in range(100))
    worst32 = max(_stack_case(seed, "f32") for seed in range(900, 1000))
    dt = time.perf_counter() - t0
    ok = worst64 <= 1e-9 and worst32 <= 1e-3 and dt < 60
    report("criterion 1 (mode equivalence, 100 f64 + 100 f32 cases, T=256)",
           ok, f"max rel err f64={worst64:.2e} (<=1e-9), f32={worst32:.2e} "
               f"(<=1e-3), {dt:.1f}s")


# criterion 2 -------------------------------------------------------------

def _mvhs_case(seed: int, T: int) -> float:
    cfg = ENCODER_PROFILES["tiny"]
    params = init_encoder_params(cfg, seed=seed)
    randomize_params(params, seed=seed + 1)
    mp = params.mvhs
    rng = np.random.default_rng(seed + 2)
    xs = rng.normal(size=(T, cfg.d_model))
    rt = _MvhsRt(mp, cfg.mvhs_heads, cfg.mvhs_d_head)
    state = EncoderState.zeros(cfg).mvhs
    row = MvhsState(state.S[None], state.prev[None])  # a batch of one
    # per-event k, v and decay, written out from the layer's formulas
    prev = np.vstack([np.zeros(cfg.d_model), xs[:-1]])
    m = xs + (prev - xs) * mp.mu
    k = (xs + (prev - xs) * (mp.lam_k + np.tanh(m @ mp.A_k) @ mp.B_k)) @ mp.W_k
    v = (xs + (prev - xs) * (mp.lam_v + np.tanh(m @ mp.A_v) @ mp.B_v)) @ mp.W_v
    w = np.exp(-np.exp(mp.lam_d + np.tanh(m @ mp.A_w) @ mp.B_w))
    for i in range(T):
        rt.step(xs[i:i + 1], row)
    S = state.S
    # prefix-sum formula, evaluated directly per head
    Dh = cfg.mvhs_d_head
    worst = 0.0
    for h in range(cfg.mvhs_heads):
        sl = slice(h * Dh, (h + 1) * Dh)
        want = np.zeros((Dh, Dh))
        for t in range(T):
            prod = np.ones(Dh)
            for j in range(t + 1, T):
                prod = prod * w[j, sl]
            want += (prod * k[t, sl])[:, None] * v[t, sl][None, :]
        worst = max(worst, _rel(S[h], want))
    return worst


def test_criterion_2_mvhs_closed_form():
    t0 = time.perf_counter()
    worst = max(_mvhs_case(seed, T) for seed, T in
                ((0, 512), (1, 512), (2, 257), (3, 64), (4, 1)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 60
    report("criterion 2 (matrix-state closed form, T<=512)", ok,
           f"max rel err={worst:.2e} (<=1e-9), {dt:.1f}s")


# criterion 3 -------------------------------------------------------------

def test_criterion_3_streaming_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n, P = 10_000, 8
    # heavy timestamp ties (dt in {0,1,2}) and two never-touched columns
    t = np.cumsum(rng.integers(0, 3, size=n))
    ev = make_events(t, rng.integers(0, P - 2, n), rng.integers(0, P, n),
                     rng.integers(0, 2, n))
    ts_stream = StreamingTimeSurface(P)
    ec_stream = StreamingEventCount(P, window_us=1500)
    reads = sorted(rng.choice(np.arange(len(ev)), size=25, replace=False).tolist())
    idx = 0
    exact = True
    for stop in reads + [len(ev)]:
        while idx < stop:
            e = ev[idx]
            ts_stream.update(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"]))
            ec_stream.update(int(e["t"]), int(e["x"]), int(e["y"]), int(e["p"]))
            idx += 1
        if idx == 0:
            continue
        t_ref = int(ev["t"][idx - 1])
        seen = ev[:idx]
        exact &= np.array_equal(ts_stream.read(t_ref, 2000.0),
                                time_surface(seen, t_ref, 2000.0, P))
        exact &= np.array_equal(ec_stream.read(t_ref),
                                event_count(seen, t_ref - 1500, t_ref, P))
    dt = time.perf_counter() - t0
    ok = exact and dt < 30
    report("criterion 3 (streaming vs batch targets, bit-for-bit, 10k events)",
           ok, f"exact={exact}, {dt:.1f}s")


# criterion 4 -------------------------------------------------------------

def test_criterion_4_gradient_check():
    t0 = time.perf_counter()
    cfg = ENCODER_PROFILES["tiny"]  # D=8, N=2, L=1, state heads 2x(4x4), P=4
    tc = replace(TRAIN_PROFILES["small"], seq_len=16, chunk_len=8,
                 batch_size=2, targets=SPECS, head_width=8)
    model = init_model(cfg, tc, seed=1)
    randomize_params(model.params, seed=2)
    for k in model.weights.s:
        model.weights.s[k][...] = 0.15
    geom = SensorGeometry(4, 4, 4)
    events = synth_generate("moving_dot", geom, 900_000, 150.0, seed=3)
    from eva.events import slice_samples
    from eva.train import prepare_sample
    batch = [prepare_sample(s, SPECS, 4)
             for s in slice_samples(events, 16, 16, 8, chunk_len=8)][:2]

    named = model.named()
    _, _, grads = batch_loss(model, batch)

    def loss():
        _, total, _ = batch_loss(model, batch, want_grads=False)
        return total

    eps = 1e-5
    worst = 0.0
    checked = 0
    for name, arr in named.items():
        g = grads[name]
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + eps
            lp = loss()
            arr[idx] = old - eps
            lm = loss()
            arr[idx] = old
            fd = (lp - lm) / (2 * eps)
            err = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-4)
            worst = max(worst, err)
            checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 300
    report("criterion 4 (exhaustive finite-difference gradient check)", ok,
           f"{checked} parameter entries, max rel err={worst:.2e} (<=1e-4), {dt:.0f}s")


# criterion 5 -------------------------------------------------------------

def test_criterion_5_tokenization():
    t0 = time.perf_counter()
    seen = {tok(x, y, p, 16, 16): (x, y, p)
            for p in (0, 1) for y in range(16) for x in range(16)}
    bijective = set(seen) == set(range(512)) and \
        all(untok(t, 16, 16) == xyz for t, xyz in seen.items())
    spot = tok(3, 2, 1, 16, 16) == 291
    dt = time.perf_counter() - t0
    ok = bijective and spot and dt < 1
    report("criterion 5 (tokenization bijectivity over 512 tuples)", ok,
           f"bijective={bijective}, (3,2,1)->291={spot}, {dt:.2f}s")


# criterion 6 -------------------------------------------------------------

def test_criterion_6_structural_counts():
    t0 = time.perf_counter()
    cfg = ENCODER_PROFILES["dvs"]
    params = count_params(cfg)
    macs = count_macs_per_event(cfg)
    p_dev = abs(params - 620_000) / 620_000
    m_dev = abs(macs - 600_000) / 600_000
    vec = vector_output_config(cfg)
    ratio = mvhs_param_count(vec) / mvhs_param_count(cfg)
    expected = cfg.d_model / cfg.mvhs_heads
    r_dev = abs(ratio - expected) / expected
    dt = time.perf_counter() - t0
    ok = p_dev <= 0.20 and m_dev <= 0.25 and r_dev <= 0.30 and dt < 1
    report("criterion 6 (structural counts)", ok,
           f"params={params} ({100*p_dev:.1f}% of 0.62M, <=20%), "
           f"macs={macs} ({100*m_dev:.1f}% of 0.60M, <=25%), "
           f"output ratio={ratio:.2f} vs {expected:.0f} ({100*r_dev:.1f}%, <=30%), "
           f"{dt:.2f}s")


# criterion 7 -------------------------------------------------------------

def test_criterion_7_ssl_convergence():
    t0 = time.perf_counter()
    cfg = ENCODER_PROFILES["small"]  # D=32, patch 16
    tc = replace(TRAIN_PROFILES["small"], max_steps=500, epochs=10_000, seed=0,
                 targets=SPECS)
    samples = build_synthetic_corpus(tc, cfg, kind="moving_bar", rate=60_000.0,
                                     duration_us=4_000_000, seed=0)
    # determinism: two short runs, bit-identical trajectories
    short = replace(tc, max_steps=20)
    _, h_a = pretrain(samples, init_model(cfg, short, seed=0), short)
    _, h_b = pretrain(samples, init_model(cfg, short, seed=0), short)
    deterministic = h_a == h_b

    model = init_model(cfg, tc, seed=0)
    _, history = pretrain(samples, model, tc)
    ec = "mrp_ec_100000"
    first = history[0][ec]
    final = float(np.mean([h[ec] for h in history[-50:]]))
    ratio = final / first
    dt = time.perf_counter() - t0
    ok = ratio <= 0.5 and deterministic and len(history) == 500 and dt < 600
    report("criterion 7 (500-step self-supervised convergence)", ok,
           f"count-loss step0={first:.3f} final={final:.3f} ratio={ratio:.3f} "
           f"(<=0.5), deterministic={deterministic}, {dt:.0f}s")


# criterion 8 -------------------------------------------------------------

def test_criterion_8_a2s_round_trip(tmp_path):
    t0 = time.perf_counter()
    cfg = replace(ENCODER_PROFILES["small"], precision="f32")
    params = init_encoder_params(cfg, seed=0)
    geom = SensorGeometry(64, 64, 16)
    events = synth_generate("moving_bar", geom, 1_000_000, 100_000.0, seed=1)
    assert len(events) == 100_000
    path = tmp_path / "stream.evt"
    write_binary_file(path, events, geom)
    file_events, file_geom = read_binary_file(path)

    chunked, chunked_marks = chunked_frame(params, file_events, file_geom)

    pipe = A2SPipeline(params, file_geom)
    with EvaServer(pipe) as server:
        host, port = server.address
        with EvaClient(host, port) as client:
            records = pack_binary(file_events)
            step = 8192 * 8
            acc = rej = 0
            for i in range(0, len(records), step):
                a, r = client.ingest_records(records[i:i + step])
                acc += a
                rej += r
            live_bytes = client.snapshot_bytes()
    live = load_snapshot(live_bytes)
    rel = _rel(live.values, chunked)
    marks_equal = np.array_equal(live.patch_watermarks,
                                 np.where(chunked_marks < 0, 0, chunked_marks))
    # with rel <= 1e-3, a peak of at most 8000 keeps every value within 8,
    # one count of a u8 quantization at scale 1/8
    peak = float(np.abs(chunked).max())

    # constant per-event cost: time a one-at-a-time ingest loop over the
    # whole stream; the last decile's mean may be at most twice the first's
    loop = A2SPipeline(params, file_geom)
    stamps = np.empty(len(file_events) + 1, dtype=np.int64)
    stamps[0] = time.perf_counter_ns()
    for i, ev in enumerate(file_events):
        loop.ingest(int(ev["t"]), int(ev["x"]), int(ev["y"]), int(ev["p"]))
        stamps[i + 1] = time.perf_counter_ns()
    lat = np.diff(stamps)
    dec = len(lat) // 10
    decile_ratio = float(lat[-dec:].mean() / lat[:dec].mean())
    dt = time.perf_counter() - t0
    ok = (acc == 100_000 and rej == 0 and rel <= 1e-3 and marks_equal
          and peak <= 8000 and decile_ratio <= 2.0 and dt < 120)
    report("criterion 8 (chunked encode vs live serve, 100k events)", ok,
           f"rel={rel:.2e} (<=1e-3), watermarks equal={marks_equal}, "
           f"peak={peak:.3g} (<=8000), decile ratio="
           f"{decile_ratio:.2f} (<=2), {dt:.0f}s")


# criterion 9 -------------------------------------------------------------

def test_criterion_9_hot_pixel_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    ok_all = True
    for trial in range(10):
        n = 4000
        t = np.cumsum(rng.integers(0, 60, size=n))
        ev = make_events(t, rng.integers(0, 6, n), rng.integers(0, 6, n),
                         rng.integers(0, 2, n))
        got = filter_hot_pixels(ev, window_us=1000, threshold=15)
        t0s = ev["t"][0]
        counts = {}
        for e in ev:
            key = ((e["t"] - t0s) // 1000, e["x"], e["y"])
            counts[key] = counts.get(key, 0) + 1
        want = ev[[counts[((e["t"] - t0s) // 1000, e["x"], e["y"])] <= 15
                   for e in ev]]
        ok_all &= np.array_equal(got, want)
    # the exact boundary: 40 kept, 41 removed
    at40 = make_events(np.linspace(0, 9000, 40).astype(int), [5] * 40, [5] * 40, [1] * 40)
    at41 = make_events(np.linspace(0, 9000, 41).astype(int), [5] * 41, [5] * 41, [1] * 41)
    boundary = (len(filter_hot_pixels(at40)) == 40
                and len(filter_hot_pixels(at41)) == 0)
    dt = time.perf_counter() - t0
    ok = ok_all and boundary and dt < 10
    report("criterion 9 (hot-pixel filter vs brute-force recount)", ok,
           f"randomized agree={ok_all}, boundary 40 kept / 41 removed={boundary}, "
           f"{dt:.1f}s")


# criterion 10 ------------------------------------------------------------

def test_criterion_10_format_round_trips(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    geom = SensorGeometry(48, 64, 16)
    n = 5000
    t = np.cumsum(rng.integers(0, 60_000, size=n))
    ev = make_events(t - t[0], rng.integers(0, 64, n), rng.integers(0, 48, n),
                     rng.integers(0, 2, n))
    # csv
    buf = io.StringIO()
    write_csv(ev, buf)
    csv_ok = np.array_equal(parse_csv(io.StringIO(buf.getvalue()), geom), ev)
    # binary records (all gaps < 2^16 by construction) and file container
    bin_ok = np.array_equal(unpack_binary(pack_binary(ev)), ev)
    path = tmp_path / "e.evt"
    write_binary_file(path, ev, geom)
    back, geom2 = read_binary_file(path)
    bin_ok &= np.array_equal(back, ev) and geom2.height == 48 and geom2.width == 64
    # documented clamp: a 70000us gap saturates at 65535
    clamped = unpack_binary(pack_binary(make_events([0, 70_000], [0, 0], [0, 0], [0, 0])))
    clamp_ok = clamped["t"].tolist() == [0, 65_535]
    # checkpoint container
    cfg = ENCODER_PROFILES["tiny"]
    params = init_encoder_params(cfg, seed=3)
    ck = tmp_path / "m.evaw"
    save_checkpoint(ck, params)
    params2, _, _ = load_checkpoint(ck)
    named1 = {k: v.astype(np.float32) for k, v in named_arrays(params).items()}
    named2 = {k: v.astype(np.float32) for k, v in named_arrays(params2).items()}
    ckpt_ok = all(np.array_equal(named1[k], named2[k]) for k in named1)
    ckpt_ok &= dump_tensors(cfg, named1) == dump_tensors(params2.config, named2)
    # snapshot container
    values = rng.normal(size=(4, 32, 32)).astype(np.float32)
    marks = rng.integers(0, 500, size=(2, 2))
    blob = dump_snapshot(KIND_REPR, values, int(marks.max()), (2, 2), marks)
    snap = load_snapshot(blob)
    snap_ok = (np.array_equal(snap.values, values)
               and np.array_equal(snap.patch_watermarks, marks)
               and dump_snapshot(snap.kind, snap.values, snap.watermark,
                                 snap.grid, snap.patch_watermarks) == blob)
    dt = time.perf_counter() - t0
    ok = csv_ok and bin_ok and clamp_ok and ckpt_ok and snap_ok and dt < 10
    report("criterion 10 (format round trips)", ok,
           f"csv={csv_ok}, binary={bin_ok}, clamp={clamp_ok}, "
           f"checkpoint={ckpt_ok}, snapshot={snap_ok}, {dt:.1f}s")
