"""`EVAW` checkpoint container.

Layout: magic "EVAW", u32 metadata length, metadata (UTF-8 `key = value`
lines echoing the encoder configuration), then named tensors until EOF:
u16 name length, name bytes, u8 rank, u32 dims, little-endian f32 payload.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .config import (EncoderConfig, encoder_config_from_kv, encoder_config_to_kv,
                     format_kv_text, parse_kv_text)
from .counting import count_params
from .params import EncoderParams, encoder_params_from_named, named_arrays

MAGIC = b"EVAW"


class CheckpointError(ValueError):
    pass


def dump_tensors(cfg: EncoderConfig, named: dict[str, np.ndarray],
                 extra_meta: dict | None = None) -> bytes:
    meta = encoder_config_to_kv(cfg)
    if extra_meta:
        meta.update({k: str(v) for k, v in extra_meta.items()})
    meta_bytes = format_kv_text(meta).encode()
    out = [MAGIC, struct.pack("<I", len(meta_bytes)), meta_bytes]
    for name, arr in named.items():
        nb = name.encode()
        if len(nb) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name}")
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<B", arr.ndim))
        out.append(np.array(arr.shape, dtype="<u4").tobytes())
        out.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(out)


def load_tensors(data: bytes) -> tuple[EncoderConfig, dict[str, np.ndarray], dict[str, str]]:
    """Parse a container; any malformed input raises CheckpointError."""
    if data[:4] != MAGIC:
        raise CheckpointError(f"bad magic {data[:4]!r}")
    try:
        return _parse(data)
    except CheckpointError:
        raise
    except (struct.error, ValueError) as exc:  # includes UnicodeDecodeError
        raise CheckpointError(f"truncated or corrupt checkpoint: {exc}") from None


def _parse(data: bytes):
    (meta_len,) = struct.unpack_from("<I", data, 4)
    pos, n = 8 + meta_len, len(data)
    if pos > n:
        raise CheckpointError("truncated metadata")
    meta = parse_kv_text(data[8:pos].decode())
    cfg_keys = set(encoder_config_to_kv(EncoderConfig()))
    cfg = encoder_config_from_kv({k: v for k, v in meta.items() if k in cfg_keys})
    extra = {k: v for k, v in meta.items() if k not in cfg_keys}
    named: dict[str, np.ndarray] = {}
    while pos < n:
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode()
        pos += name_len
        (rank,) = struct.unpack_from("<B", data, pos)
        pos += 1
        dims = np.frombuffer(data, dtype="<u4", count=rank, offset=pos)
        pos += 4 * rank
        count = math.prod(int(d) for d in dims)
        if pos + 4 * count > n:
            raise CheckpointError(f"truncated tensor {name!r}")
        named[name] = np.frombuffer(data, dtype="<f4", count=count, offset=pos).reshape(dims).copy()
        pos += 4 * count
    return cfg, named, extra


def save_checkpoint(path, params: EncoderParams,
                    extra_named: dict[str, np.ndarray] | None = None,
                    extra_meta: dict | None = None) -> None:
    named = dict(named_arrays(params))
    if extra_named:
        named.update(extra_named)
    with open(path, "wb") as fh:
        fh.write(dump_tensors(params.config, named, extra_meta))


def load_checkpoint(path, precision: str | None = None):
    """Returns (EncoderParams, extra tensors, extra metadata). Raises
    CheckpointError unless every encoder tensor is present with the shape
    its config needs."""
    with open(path, "rb") as fh:
        cfg, named, extra = load_tensors(fh.read())
    if precision:
        from dataclasses import replace
        cfg = replace(cfg, precision=precision)
    # the tensors bound the template's size, so a corrupt config cannot
    # make it allocate more than the file holds
    if count_params(cfg) > sum(a.size for a in named.values()):
        raise CheckpointError("checkpoint holds fewer values than its config needs")
    template = named_arrays_template(cfg)
    for name, shape in template.items():
        if name not in named:
            raise CheckpointError(f"missing tensor {name!r}")
        if named[name].shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {named[name].shape}, "
                                  f"the config needs {shape}")
    enc = {k: v.astype(cfg.dtype) for k, v in named.items() if k in template}
    rest = {k: v for k, v in named.items() if k not in template}
    params = encoder_params_from_named(cfg, enc)
    return params, rest, extra


def named_arrays_template(cfg: EncoderConfig) -> dict[str, tuple]:
    """Names/shapes of the encoder tensors for a config (builds one model of
    that config)."""
    from .params import init_encoder_params
    return {k: v.shape for k, v in named_arrays(init_encoder_params(cfg, seed=0)).items()}
