import os
import re
from dataclasses import replace

import numpy as np
import pytest

from eva.checkpoint import save_checkpoint
from eva.cli import main
from eva.config import ENCODER_PROFILES
from eva.events import (SensorGeometry, make_events, read_binary_file,
                        synth_generate, write_binary_file, write_csv)
from eva.params import init_encoder_params
from eva.pipeline import encode_offline
from eva.snapshots import KIND_EC, KIND_TS, load_snapshot
from eva.targets import event_count, time_surface


@pytest.fixture()
def small_ckpt(tmp_path):
    cfg = ENCODER_PROFILES["small"]
    params = init_encoder_params(cfg, seed=0)
    path = tmp_path / "model.evaw"
    save_checkpoint(path, params)
    return str(path)


def test_convert_roundtrip(tmp_path):
    geom = SensorGeometry(32, 32, 16)
    ev = synth_generate("uniform_noise", geom, 50_000, 2000.0, seed=0)
    ev["t"] -= ev["t"][0]
    csv_path = tmp_path / "events.csv"
    with open(csv_path, "w") as fh:
        write_csv(ev, fh)
    bin_path = tmp_path / "events.evt"
    assert main(["convert", str(csv_path), str(bin_path), "--geometry", "32x32"]) == 0
    back, geom2 = read_binary_file(bin_path)
    assert np.array_equal(back, ev)
    csv2 = tmp_path / "events2.csv"
    assert main(["convert", str(bin_path), str(csv2)]) == 0
    assert csv2.read_text() == csv_path.read_text()


def test_convert_reports_saturated_gaps(tmp_path, capsys):
    # one 100 ms gap: the .evt record saturates at 65535 us, and both the
    # writer and `eva convert` say so
    ev = make_events([0, 500, 100_500, 101_000], [1, 2, 3, 4], [1, 1, 1, 1], [0, 1, 0, 1])
    geom = SensorGeometry(8, 8, 8)
    assert write_binary_file(tmp_path / "a.evt", ev, geom) == 1
    assert write_binary_file(tmp_path / "b.evt", ev[:2], geom) == 0
    back, _ = read_binary_file(tmp_path / "a.evt")
    assert back["t"].tolist() == [0, 500, 66_035, 66_535]
    csv_path = tmp_path / "events.csv"
    with open(csv_path, "w") as fh:
        write_csv(ev, fh)
    capsys.readouterr()
    assert main(["convert", str(csv_path), str(tmp_path / "c.evt"), "--geometry", "8x8"]) == 0
    assert "1 gaps over 65535 us saturated" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["convert", "filter", "oracle"])
def test_csv_without_geometry_is_refused_before_it_is_parsed(tmp_path, cmd):
    # a malformed file gets the missing --geometry message, not its parse error
    src, dst = tmp_path / "bad.csv", str(tmp_path / "out.evt")
    src.write_text("t,x,y,p\n1,2,3\n")
    argv = {"convert": ["convert", str(src), dst], "filter": ["filter", str(src), dst],
            "oracle": ["oracle", "--input", str(src), "--out", dst, "--kind", "ec"]}[cmd]
    with pytest.raises(SystemExit, match="^--geometry HxW is required for CSV input$"):
        main(argv)


def test_filter_cli(tmp_path):
    geom = SensorGeometry(8, 8, 8)
    hot = make_events(np.linspace(0, 9000, 50).astype(int), [3] * 50, [3] * 50, [1] * 50)
    src = tmp_path / "in.evt"
    dst = tmp_path / "out.evt"
    write_binary_file(src, hot, geom)
    assert main(["filter", str(src), str(dst), "--threshold", "40"]) == 0
    kept, _ = read_binary_file(dst)
    assert len(kept) == 0
    for opts, got in ((["--window-us", "0"], "0 and 40"), (["--threshold", "-1"], "10000 and -1")):
        with pytest.raises(SystemExit, match=f"^eva filter: need window_us > 0 .*, got {got}$"):
            main(["filter", str(src), str(dst), *opts])


def test_oracle_cli(tmp_path):
    geom = SensorGeometry(16, 16, 16)
    ev = synth_generate("moving_bar", geom, 100_000, 5000.0, seed=1)
    ev["t"] -= ev["t"][0]
    src = tmp_path / "in.evt"
    write_binary_file(src, ev, geom)
    out = tmp_path / "target.evar"
    assert main(["oracle", "--input", str(src), "--out", str(out), "--kind", "ec",
                 "--patch", "16", "--span-us", "50000"]) == 0
    snap = load_snapshot(out.read_bytes())
    assert snap.kind == KIND_EC
    t_ref = int(ev["t"][-1])
    want = event_count(ev, t_ref - 50_000, t_ref, 16)
    assert np.array_equal(snap.values, want.astype(np.float32))
    assert main(["oracle", "--input", str(src), "--out", str(out), "--kind", "ts",
                 "--span-us", "30000"]) == 0
    snap = load_snapshot(out.read_bytes())
    assert snap.kind == KIND_TS
    assert np.array_equal(snap.values, time_surface(ev, t_ref, 30_000, 16).astype(np.float32))


@pytest.mark.parametrize("cmd", ["convert", "oracle"])
def test_evt_input_with_another_geometry_is_refused(tmp_path, cmd):
    src, dst = tmp_path / "in.evt", str(tmp_path / "out.evt")
    write_binary_file(src, make_events([0, 5, 9], [40, 1, 63], [2, 31, 0], [0, 1, 1]),
                      SensorGeometry(32, 64))
    argv = {"convert": ["convert", str(src), dst],
            "oracle": ["oracle", "--input", str(src), "--out", dst, "--kind", "ec"]}[cmd]
    want = f"--geometry 16x16 disagrees with the 32x64 sensor in {src}"
    with pytest.raises(SystemExit, match=f"^{re.escape(want)}$"):
        main([*argv, "--geometry", "16x16"])
    assert main([*argv, "--geometry", "32x64"]) == 0


def test_inspect_cli(capsys):
    assert main(["inspect", "--profile", "dvs"]) == 0
    out = capsys.readouterr().out
    assert "params.total = 669312" in out
    assert "macs.total" in out


def test_encode_cli(tmp_path, small_ckpt):
    geom = SensorGeometry(16, 16, 16)
    ev = synth_generate("moving_dot", geom, 60_000, 2000.0, seed=2)
    ev["t"] -= ev["t"][0]
    src = tmp_path / "in.evt"
    write_binary_file(src, ev, geom)
    out_dir = tmp_path / "snaps"
    assert main(["encode", "--checkpoint", small_ckpt, "--input", str(src),
                 "--out", str(out_dir), "--period-us", "20000"]) == 0
    files = sorted(os.listdir(out_dir))
    assert len(files) >= 3
    snap = load_snapshot((out_dir / files[-1]).read_bytes())
    assert snap.values.shape == (2, 16, 16)
    with pytest.raises(SystemExit, match="period_us must be positive"):
        main(["encode", "--checkpoint", small_ckpt, "--input", str(src),
              "--out", str(out_dir), "--period-us", "-5"])
    # a checkpoint whose every update is non-finite: one line, no traceback
    params = init_encoder_params(ENCODER_PROFILES["small"], seed=0)
    params.embed[:, 0] = np.inf
    save_checkpoint(tmp_path / "inf.evaw", params)
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(SystemExit, match=f"eva encode: .*: {len(ev)} with a non-finite"):
        main(["encode", "--checkpoint", str(tmp_path / "inf.evaw"), "--input", str(src),
              "--out", str(out_dir)])


def test_encode_cli_takes_the_patch_from_the_checkpoint(tmp_path):
    # an .evt header holds only the sensor size, so a patch-8 model tiles
    # the 16 x 16 sensor into 2 x 2 patches, with or without --geometry
    params = init_encoder_params(replace(ENCODER_PROFILES["small"], patch=8), seed=0)
    save_checkpoint(tmp_path / "p8.evaw", params)
    geom = SensorGeometry(16, 16, 8)
    ev = synth_generate("moving_dot", geom, 60_000, 2000.0, seed=3)
    ev["t"] -= ev["t"][0]
    write_binary_file(tmp_path / "in.evt", ev, geom)
    (_, want), = encode_offline(params, ev, geom)
    for extra in ([], ["--geometry", "16x16"]):
        out = tmp_path / f"snaps{len(extra)}"
        assert main(["encode", "--checkpoint", str(tmp_path / "p8.evaw"), "--input",
                     str(tmp_path / "in.evt"), "--out", str(out), "--final-only", *extra]) == 0
        snap = load_snapshot((out / os.listdir(out)[0]).read_bytes())
        assert snap.grid == (2, 2) and np.array_equal(snap.values, want.values)


def test_bench_cli(capsys):
    # the speed lives in perfbench/; `eva inspect` keeps the model accounting
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["inspect", "--profile", "dvs"]) == 0
    out = capsys.readouterr().out
    assert "params.total = " in out and "macs.total = " in out


def test_pretrain_cli(tmp_path):
    run = tmp_path / "run"
    assert main(["pretrain", "--out", str(run), "--profile", "tiny",
                 "--train-profile", "small", "--steps", "2", "--rate", "60000",
                 "--duration-us", "1500000", "--seed", "3"]) == 0
    assert (run / "losses.csv").exists()
    assert (run / "final.evaw").exists()


def test_pretrain_cli_steps_run_past_one_epoch(tmp_path, capsys):
    # a corpus of 34 windows in batches of 8 is 5 steps an epoch: --steps 12
    # alone runs three epochs, while --epochs 1 still caps the run at one
    args = ["pretrain", "--profile", "tiny", "--train-profile", "small", "--batch-size", "8",
            "--rate", "60000", "--duration-us", "300000", "--seed", "3", "--steps", "12"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "corpus: 34 samples" in out and "finished at step 12 " in out
    rows = (tmp_path / "a" / "steps.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(1, 13))
    assert [int(r.split(",")[1]) for r in rows] == [0] * 5 + [1] * 5 + [2] * 2
    # the loss summary: each task's first loss -> mean of its last 25
    assert "ms/step" in out and "total:" in out and " -> " in out
    assert main(args + ["--epochs", "1", "--out", str(tmp_path / "b")]) == 0
    assert "finished at step 5 " in capsys.readouterr().out


def test_pretrain_cli_reports_target_bytes_and_peak_rss(tmp_path, capsys):
    from eva.config import TRAIN_PROFILES
    from eva.train import build_synthetic_corpus
    corpus = build_synthetic_corpus(TRAIN_PROFILES["small"], ENCODER_PROFILES["tiny"],
                                    rate=60_000.0, duration_us=300_000, seed=3)
    nbytes = sum(t.nbytes for s in corpus for t in s.targets.values())
    run = tmp_path / "run"
    assert main(["pretrain", "--out", str(run), "--profile", "tiny", "--train-profile",
                 "small", "--steps", "1", "--rate", "60000", "--duration-us", "300000",
                 "--seed", "3"]) == 0
    assert f"corpus: 34 samples of 512 events, targets {nbytes:,} bytes\n" in \
        capsys.readouterr().out
    assert "max_rss_kb = " in (run / "metrics.txt").read_text()


def test_precision_env_override(monkeypatch, tmp_path, small_ckpt):
    from argparse import Namespace
    from dataclasses import replace
    from eva.cli import _load_params
    f64_path = tmp_path / "model64.evaw"
    save_checkpoint(f64_path, init_encoder_params(
        replace(ENCODER_PROFILES["small"], precision="f64"), seed=0))
    f64_args = Namespace(checkpoint=str(f64_path))
    f32_args = Namespace(checkpoint=small_ckpt)
    monkeypatch.delenv("EVA_PRECISION", raising=False)
    assert _load_params(f64_args).dtype == np.float64  # the checkpoint's precision
    assert _load_params(f32_args).dtype == np.float32
    monkeypatch.setenv("EVA_PRECISION", "f32")
    assert _load_params(f64_args).dtype == np.float32
    monkeypatch.setenv("EVA_PRECISION", "f64")
    assert _load_params(f32_args).dtype == np.float64


def test_serve_cli_subprocess(tmp_path, small_ckpt):
    import signal
    import socket
    import subprocess
    import sys
    import time

    from eva.server import EvaClient

    # grab a free port, then hand it to the server process
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    proc = subprocess.Popen(
        [sys.executable, "-m", "eva.cli", "serve", "--checkpoint", small_ckpt,
         "--geometry", "32x32", "--listen", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.time() + 15
        client = None
        while time.time() < deadline:
            try:
                client = EvaClient("127.0.0.1", port, timeout=5)
                break
            except OSError:
                time.sleep(0.1)
        assert client is not None, "server did not come up"
        rec = np.array([[7, 1, 1, 1]], dtype="<u2").tobytes()
        assert client.ingest_records(rec) == (1, 0)
        snap = client.snapshot()
        assert snap.patch_watermarks[0, 0] == 7
        client.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert proc.returncode == 0
