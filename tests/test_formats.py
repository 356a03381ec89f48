import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eva.checkpoint import (CheckpointError, dump_tensors, load_checkpoint,
                            load_tensors, save_checkpoint)
from eva.config import (ENCODER_PROFILES, encoder_config_from_kv,
                        format_kv_text, parse_kv_text)
from eva.events import (BINARY_MAGIC, EventFormatError, SensorGeometry, make_events,
                        pack_binary, parse_csv, read_binary_file, unpack_binary,
                        write_binary_file, write_csv)
from eva.params import init_encoder_params, named_arrays
from eva.snapshots import (KIND_REPR, KIND_TS, KINDS, MAGIC, SnapshotError, dump_snapshot,
                           load_snapshot)


def test_kv_text_roundtrip():
    kv = {"a": "1", "b": "xyz"}
    assert parse_kv_text(format_kv_text(kv)) == kv
    assert parse_kv_text("# comment\n a = 3  # inline\n\n") == {"a": "3"}
    with pytest.raises(ValueError):
        parse_kv_text("no equals sign")


def test_encoder_config_kv_rejects_unknown():
    with pytest.raises(ValueError, match="unknown config key"):
        encoder_config_from_kv({"d_model": "64", "bogus": "1"})
    kv = {"profile": "small", "n_out": "1"}
    cfg = encoder_config_from_kv(kv)
    assert cfg.d_model == 32 and cfg.n_out == 1
    assert kv == {"profile": "small", "n_out": "1"}  # the caller's dict is not consumed


def test_encoder_config_kv_rejects_unknown_profile(tmp_path):
    with pytest.raises(ValueError, match="unknown profile 'nope'.*'small'"):
        encoder_config_from_kv({"profile": "nope"})
    from eva.cli import main
    path = tmp_path / "enc.cfg"
    path.write_text("profile = nope\n")
    with pytest.raises(SystemExit, match="unknown profile"):
        main(["inspect", "--config", str(path)])


def test_checkpoint_roundtrip_bitexact(tmp_path):
    cfg = ENCODER_PROFILES["tiny"]
    params = init_encoder_params(cfg, seed=5)
    path = tmp_path / "model.evaw"
    save_checkpoint(path, params, extra_meta={"note": "hello"})
    params2, rest, extra = load_checkpoint(path)
    assert extra["note"] == "hello"
    assert rest == {}
    named, named2 = named_arrays(params), named_arrays(params2)
    assert set(named) == set(named2)
    for k in named:
        assert np.array_equal(named[k].astype(np.float32), named2[k].astype(np.float32))
    # second save of the loaded params is byte-identical
    a = dump_tensors(params.config, {k: v.astype(np.float32) for k, v in named.items()})
    b = dump_tensors(params2.config, {k: v.astype(np.float32) for k, v in named2.items()})
    assert a == b


def test_checkpoint_magic_and_trailing():
    with pytest.raises(CheckpointError):
        load_tensors(b"XXXX" + b"\x00" * 8)
    cfg = ENCODER_PROFILES["tiny"]
    data = dump_tensors(cfg, {"t": np.ones((2, 2), np.float32)})
    with pytest.raises(CheckpointError):
        load_tensors(data + b"\x01")


def test_checkpoint_keeps_extra_tensors(tmp_path):
    cfg = ENCODER_PROFILES["tiny"]
    params = init_encoder_params(cfg, seed=1)
    extra = {"heads.mrp.conv1_W": np.full((2, 2), 3.0, np.float32)}
    path = tmp_path / "m.evaw"
    save_checkpoint(path, params, extra_named=extra)
    _, rest, _ = load_checkpoint(path)
    assert np.array_equal(rest["heads.mrp.conv1_W"], extra["heads.mrp.conv1_W"])


def test_checkpoint_with_retired_mu_cv_loads(tmp_path):
    # files written while blocks carried an unread channel-mix `mu_cv`
    # still load; the tensor lands in the extras
    cfg = ENCODER_PROFILES["tiny"]
    named = {}
    for name, arr in named_arrays(init_encoder_params(cfg, seed=2)).items():
        named[name] = arr
        if name.endswith(".mu_ck"):
            named[name.replace("mu_ck", "mu_cv")] = np.full_like(arr, 0.5)
    path = tmp_path / "old.evaw"
    path.write_bytes(dump_tensors(cfg, named))
    params, rest, _ = load_checkpoint(path)
    assert sorted(rest) == [f"blocks.{i}.mu_cv" for i in range(cfg.n_blocks)]
    assert all(np.all(a == 0.5) for a in rest.values())
    for name, arr in named_arrays(params).items():
        assert np.array_equal(arr.astype(np.float32), named[name].astype(np.float32)), name


_TINY = ENCODER_PROFILES["tiny"]
_CKPT = dump_tensors(_TINY, named_arrays(init_encoder_params(_TINY, seed=0)))
_META_END = 8 + struct.unpack_from("<I", _CKPT, 4)[0]


def _tiny_named(**changes):
    named = dict(named_arrays(init_encoder_params(_TINY, seed=0)))
    for name, arr in changes.items():
        if arr is None:
            del named[name]
        else:
            named[name] = arr
    return named


def test_checkpoint_malformed_inputs_raise_checkpoint_error(tmp_path):
    meta = b"d_model = x\n"
    for data in (b"EVAW", b"EVAW\x00\x00\x00",
                 _CKPT[:8] + b"\xff" + _CKPT[9:],  # metadata not UTF-8
                 b"EVAW" + struct.pack("<I", len(meta)) + meta,
                 _CKPT[:_META_END - 1],  # metadata cut short
                 _CKPT[:_META_END + 5]):  # cut inside the first tensor
        with pytest.raises(CheckpointError):
            load_tensors(data)
    path = tmp_path / "m.evaw"
    for named in (_tiny_named(embed=np.zeros((3, 5), np.float32)),
                  _tiny_named(**{"blocks.0.W_o": np.zeros((8, 9), np.float32)}),
                  _tiny_named(ln0_g=None)):
        path.write_bytes(dump_tensors(_TINY, named))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def _ckpt_corrupted(at, byte, cut, tail):
    """_CKPT with the byte at `at` replaced, cut to `cut` bytes, `tail` appended."""
    return (_CKPT[:at] + bytes([byte]) + _CKPT[at + 1:])[:cut] + tail


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=96),
    st.binary(max_size=96).map(lambda b: b"EVAW" + b),
    st.builds(_ckpt_corrupted,
              st.one_of(st.integers(0, _META_END + 16), st.integers(0, len(_CKPT) - 1)),
              st.integers(0, 255), st.integers(0, len(_CKPT)), st.binary(max_size=8))))
def test_checkpoint_bytes_parse_or_raise_checkpoint_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.evaw"
    path.write_bytes(data)
    try:
        load_tensors(data)
        params, _, _ = load_checkpoint(path)
    except CheckpointError:
        return
    template = named_arrays(init_encoder_params(params.config, seed=0))
    got = named_arrays(params)
    assert {k: v.shape for k, v in got.items()} == {k: v.shape for k, v in template.items()}


def test_binary_file_roundtrip(tmp_path):
    geom = SensorGeometry(32, 48, 16)
    ev = make_events([0, 10, 15], [1, 40, 47], [2, 30, 31], [0, 1, 1])
    path = tmp_path / "events.evt"
    write_binary_file(path, ev, geom)
    back, geom2 = read_binary_file(path)
    assert (geom2.height, geom2.width) == (32, 48)
    assert np.array_equal(back, ev)


def test_binary_file_header_errors_are_typed(tmp_path):
    path = tmp_path / "bad.evt"
    for data in (b"EVA1\x01",                            # ends inside the size header
                 b"EVA1" + struct.pack("<2H", 0, 0),    # a 0 x 0 sensor
                 b"EVA1" + struct.pack("<2H", 4, 0)):
        path.write_bytes(data)
        with pytest.raises(EventFormatError):
            read_binary_file(path)


def test_unpack_rejects_polarity_past_the_int8_field():
    # 256 and 257 must not wrap to polarity 0 and 1
    for p in (2, 256, 257):
        with pytest.raises(EventFormatError, match="polarity"):
            unpack_binary(struct.pack("<4H", 0, 1, 2, p))


_EVT = (BINARY_MAGIC + struct.pack("<2H", 32, 48)
        + pack_binary(make_events([0, 10, 15, 70, 70, 900], [1, 40, 47, 0, 5, 31],
                                  [2, 30, 31, 0, 3, 4], [0, 1, 1, 0, 1, 0])))


def _evt_corrupted(at, byte, cut, tail):
    """_EVT with the byte at `at` replaced, cut to `cut` bytes, `tail` appended."""
    return (_EVT[:at] + bytes([byte]) + _EVT[at + 1:])[:cut] + tail


def _first_gap_zeroed(records):
    return b"\x00\x00" + records[2:] if records else b""


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: BINARY_MAGIC + b),
    st.builds(_evt_corrupted, st.integers(0, len(_EVT) - 1), st.integers(0, 255),
              st.integers(0, len(_EVT)), st.binary(max_size=8))))
def test_event_bytes_parse_or_raise_event_format_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.evt"
    path.write_bytes(data)
    try:
        events, geom = read_binary_file(path)
    except EventFormatError:
        pass
    else:
        assert (geom.height, geom.width) == struct.unpack("<2H", data[4:8])
        assert np.all(events["x"] < geom.width) and np.all(events["y"] < geom.height)
        # what parses packs back to the same records (the first gap is the base 0)
        assert pack_binary(events) == _first_gap_zeroed(data[8:])
    for records in (data, data[8:]):
        try:
            events = unpack_binary(records)
        except EventFormatError:
            continue
        assert np.all(np.diff(events["t"]) >= 0) and np.all(events["p"] <= 1)
        assert pack_binary(events) == _first_gap_zeroed(records)


_CSV_INT = st.one_of(st.integers(-3, 300), st.integers(-2 ** 70, 2 ** 70))
_CSV_ROWS = st.lists(st.lists(_CSV_INT, min_size=3, max_size=5), max_size=8).map(
    lambda rows: "\n".join(",".join(map(str, r)) for r in rows))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.text(max_size=64), _CSV_ROWS,
                 _CSV_ROWS.map(lambda text: text.encode() + b"\xff")),
       st.sampled_from([None, SensorGeometry(200, 100)]))
def test_parse_csv_parses_or_raises_event_format_error(data, geometry):
    try:
        events = parse_csv(data, geometry)
    except EventFormatError:
        return
    # what parses is held exactly: written back, it parses to the same events
    buf = io.StringIO()
    write_csv(events, buf)
    assert np.array_equal(parse_csv(buf.getvalue(), geometry), events)
    assert np.all(np.diff(events["t"]) >= 0) and np.all((events["p"] == 0) | (events["p"] == 1))


@pytest.mark.parametrize("data, match", [
    (b"0,1,2,1\n5,1,\xff,0\n", "line 2: not UTF-8"),
    # a text file decodes in its iterator, and in chunks of several lines
    (io.TextIOWrapper(io.BytesIO(b"0,1,2,1\n5,1,\xff,0\n"), encoding="utf-8"), "line 2: not UTF-8"),
    (io.TextIOWrapper(io.BytesIO(b"".join(b"%d,1,2,1\n" % t for t in range(2000)) + b"1,\xff"),
                      encoding="utf-8"), "line 2001: not UTF-8"),
    # bare \r and \r\n line ends, split by the default and by newline=""
    (io.TextIOWrapper(io.BytesIO(b"1,0,0,1\r2,1,1,0\r3,\xff2,2,1\r"), encoding="utf-8"),
     "line 3: not UTF-8"),
    (io.TextIOWrapper(io.BytesIO(b"1,0,0,1\r2,1,1,0\r3,\xff2,2,1\r"), encoding="utf-8",
                      newline=""), "line 3: not UTF-8"),
    (io.TextIOWrapper(io.BytesIO(b"1,0,0,1\r\n2,1,1,0\r\n3,\xff2,2,1\r\n"), encoding="utf-8"),
     "line 3: not UTF-8"),
    ("0,1,2,1\n9223372036854775808,1,2,0", "line 2: timestamp"),
    ("0,4294967297,2,1", "line 1: coordinate"),
    ("0,1,-2147483649,1", "line 1: coordinate"),
])
def test_parse_csv_rejects_what_the_fields_cannot_hold(data, match):
    with pytest.raises(EventFormatError, match=match):
        parse_csv(data)


@pytest.mark.parametrize("field, value, named", [
    ("x", 70_000, "x"), ("y", 65_536, "y"), ("p", -1, "p"), ("t", -5, "dt")])
def test_pack_binary_rejects_what_a_record_cannot_hold(field, value, named):
    ev = make_events([0, 10], [1, 2], [3, 4], [0, 1])
    ev[field][1] = value
    with pytest.raises(EventFormatError, match=f"^{named} "):
        pack_binary(ev)


def test_write_binary_file_rejects_before_opening(tmp_path):
    path = tmp_path / "big.evt"
    ev = make_events([0], [1], [2], [1])
    with pytest.raises(EventFormatError, match="sensor size"):
        write_binary_file(path, ev, SensorGeometry(10, 65_536))
    ev["x"] = 70_000
    with pytest.raises(EventFormatError, match="x "):
        write_binary_file(path, ev, SensorGeometry(10, 10))
    assert not path.exists()


def test_snapshot_roundtrip_f32():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 32, 32)).astype(np.float32)
    marks = rng.integers(0, 1000, size=(2, 2))
    data = dump_snapshot(KIND_REPR, values, int(marks.max()), (2, 2), marks)
    snap = load_snapshot(data)
    assert snap.kind == KIND_REPR
    assert snap.tile == 16
    assert np.array_equal(snap.values, values)
    assert np.array_equal(snap.patch_watermarks, marks)
    assert snap.watermark == marks.max()
    assert dump_snapshot(snap.kind, snap.values, snap.watermark, snap.grid,
                         snap.patch_watermarks) == data


def test_snapshot_kind_tags():
    values = np.zeros((2, 4, 4), np.float32)
    for kind in KINDS:
        assert load_snapshot(dump_snapshot(kind, values, 0)).kind == kind
    for kind in (2, 9):  # the writer refuses what the reader would
        with pytest.raises(SnapshotError, match=f"unknown snapshot kind {kind}"):
            dump_snapshot(kind, values, 0)


def test_snapshot_rejects_bad_grid():
    with pytest.raises(SnapshotError):
        dump_snapshot(KIND_REPR, np.zeros((1, 6, 4), np.float32), 0, (2, 2))
    with pytest.raises(SnapshotError):
        load_snapshot(b"EVAX" + b"\x00" * 32)
    with pytest.raises(SnapshotError):
        dump_snapshot(KIND_REPR, np.zeros((1, 0, 0), np.float32), 0, (0, 0))
    with pytest.raises(SnapshotError):  # a header with a zero grid
        load_snapshot(MAGIC + bytes([KIND_REPR]) + struct.pack("<HHHHQ", 1, 4, 0, 1, 0))
    good = dump_snapshot(KIND_REPR, np.zeros((1, 4, 4), np.float32), 0)
    for bad in (good[:3], good[:10], good[:-1], good + b"\x00",  # short, truncated, trailing
                good[:4] + bytes([2]) + good[5:], good[:4] + bytes([9]) + good[5:]):  # kinds
        with pytest.raises(SnapshotError):
            load_snapshot(bad)
    # a u64 watermark of 2^63 or more would read back negative as int64
    for slot, value in ((-1, 2 ** 64 - 1), (0, 2 ** 63), (1, 2 ** 63)):
        with pytest.raises(SnapshotError):
            load_snapshot(_with_watermark(slot, value))
    assert load_snapshot(_with_watermark(1, 2 ** 63 - 1)).patch_watermarks[0, 1] == 2 ** 63 - 1


_GOOD = dump_snapshot(KIND_TS, np.ones((2, 4, 4), np.float32), 7, (2, 2))


def _corrupted(at, byte, cut, tail):
    """_GOOD with the byte at `at` replaced, cut to `cut` bytes, `tail` appended."""
    return (_GOOD[:at] + bytes([byte]) + _GOOD[at + 1:])[:cut] + tail


def _with_watermark(slot, value):
    """_GOOD with the u64 watermark `value` in the header (slot -1) or in
    per-patch slot 0..3."""
    at = 13 if slot < 0 else len(_GOOD) - 8 * (4 - slot)  # header: 4s B 4H Q
    return _GOOD[:at] + struct.pack("<Q", value) + _GOOD[at + 8:]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=96),
    st.binary(max_size=96).map(lambda b: MAGIC + b),
    st.builds(_corrupted, st.integers(0, len(_GOOD) - 1), st.integers(0, 255),
              st.integers(0, len(_GOOD)), st.binary(max_size=8)),
    st.builds(_with_watermark, st.integers(-1, 3), st.integers(0, 2 ** 64 - 1))))
def test_snapshot_bytes_parse_or_raise_snapshot_error(data):
    try:
        snap = load_snapshot(data)
    except SnapshotError:
        return
    assert snap.kind in KINDS
    rows, cols = snap.grid
    assert snap.values.shape[1:] == (rows * snap.tile, cols * snap.tile)
    assert snap.watermark >= 0 and np.all(snap.patch_watermarks >= 0)
    # what parses dumps back to the same bytes
    assert dump_snapshot(snap.kind, snap.values, snap.watermark, snap.grid,
                         snap.patch_watermarks) == data
