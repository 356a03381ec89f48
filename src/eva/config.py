"""Configuration dataclasses and the plain-text `key = value` config format."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

PRECISIONS = {"f32": np.float32, "f64": np.float64}


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters of the asynchronous encoder.

    The mixing blocks split the model width into `n_heads` heads; the
    matrix-state output layer has its own head geometry (`mvhs_heads`,
    `mvhs_d_head`), whose product is the state width (normally = d_model).
    `n_out` output channels (head matrices) are kept in snapshots.
    """

    d_model: int = 128
    n_blocks: int = 3
    n_heads: int = 16
    d_ffn: int = 256
    d_lora: int = 16
    d_w: int = 16
    mvhs_heads: int = 16
    mvhs_d_head: int = 8
    n_out: int = 16
    patch: int = 16
    precision: str = "f32"

    def __post_init__(self):
        for name in ("d_model", "n_blocks", "n_heads", "d_ffn", "d_lora", "d_w",
                     "mvhs_heads", "mvhs_d_head", "patch"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads:
            raise ValueError("n_heads must divide d_model")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(PRECISIONS)}")
        if not (0 < self.n_out <= self.mvhs_heads):
            raise ValueError("need 0 < n_out <= mvhs_heads")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def mvhs_state_dim(self) -> int:
        return self.mvhs_heads * self.mvhs_d_head

    @property
    def vocab(self) -> int:
        return 2 * self.patch * self.patch

    @property
    def dtype(self):
        return PRECISIONS[self.precision]


# Reference configurations. `dvs` matches the 128-wide three-block encoder
# with a 16x(8x8) matrix state; `small` is the desk-scale training profile;
# `tiny` exists for finite-difference gradient checks.
ENCODER_PROFILES = {
    "dvs": EncoderConfig(),
    "gen1": EncoderConfig(mvhs_heads=8, mvhs_d_head=16, n_out=4),
    "small": EncoderConfig(d_model=32, n_blocks=3, n_heads=4, d_ffn=64,
                           d_lora=8, d_w=8, mvhs_heads=2, mvhs_d_head=16,
                           n_out=2, patch=16),
    "tiny": EncoderConfig(d_model=8, n_blocks=1, n_heads=2, d_ffn=16,
                          d_lora=4, d_w=4, mvhs_heads=2, mvhs_d_head=4,
                          n_out=2, patch=4, precision="f64"),
}


@dataclass(frozen=True)
class TargetSpec:
    """One self-supervised target: what to predict and from which window.

    kind:  "ec" (per-pixel event counts) or "ts" (exponential recency).
    role:  "mrp" (trailing window ending at the chunk end) or "nrp"
           (window of `horizon_us` after the chunk end).
    window_us: count window for ec; tau_us: decay constant for ts.
    """

    kind: str
    role: str
    window_us: int = 0
    tau_us: int = 0
    horizon_us: int = 0

    def __post_init__(self):
        if self.kind not in ("ec", "ts"):
            raise ValueError("kind must be 'ec' or 'ts'")
        if self.role not in ("mrp", "nrp"):
            raise ValueError("role must be 'mrp' or 'nrp'")
        if self.kind == "ec" and self.window_us <= 0:
            raise ValueError("ec target needs window_us > 0")
        if self.kind == "ts" and self.tau_us <= 0:
            raise ValueError("ts target needs tau_us > 0")
        if self.role == "nrp" and self.horizon_us <= 0:
            raise ValueError("nrp target needs horizon_us > 0")

    @property
    def name(self) -> str:
        return f"{self.role}_{self.kind}" + (
            f"_{self.window_us}" if self.kind == "ec" else f"_{self.tau_us}")


def default_targets() -> tuple[TargetSpec, ...]:
    """ec 100ms + ts tau 100ms trailing, plus ec over the next 20ms."""
    return (
        TargetSpec("ec", "mrp", window_us=100_000),
        TargetSpec("ts", "mrp", tau_us=100_000),
        TargetSpec("ec", "nrp", window_us=20_000, horizon_us=20_000),
    )


@dataclass(frozen=True)
class TrainConfig:
    seq_len: int = 8192
    chunk_len: int = 512
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 1.0  # multiplicative, applied per epoch
    epochs: int = 1
    max_steps: int = 0  # 0 = no cap
    seed: int = 0
    head_width: int = 32
    targets: tuple[TargetSpec, ...] = field(default_factory=default_targets)

    def __post_init__(self):
        if self.seq_len <= 0 or self.chunk_len <= 0:
            raise ValueError("seq_len and chunk_len must be positive")
        if self.seq_len % self.chunk_len:
            raise ValueError("chunk_len must divide seq_len")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0 (0 = no cap)")
        if self.head_width < 1:
            raise ValueError("head_width must be positive")


TRAIN_PROFILES = {
    "dvs": TrainConfig(seq_len=8192, chunk_len=512),
    "small": TrainConfig(seq_len=512, chunk_len=16, batch_size=4),
}


# ---------------------------------------------------------------------------
# Plain-text config files: one `key = value` per line, '#' comments.
# Unknown keys are rejected.
# ---------------------------------------------------------------------------

def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        out[key] = value
    return out


def format_kv_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def encoder_config_from_kv(kv: dict[str, str]) -> EncoderConfig:
    """Profile `profile` (default `EncoderConfig()`) with the other keys' fields replaced."""
    base = kv.get("profile")
    if base and base not in ENCODER_PROFILES:
        raise ValueError(f"unknown profile {base!r}; expected one of {sorted(ENCODER_PROFILES)}")
    valid = {f.name for f in fields(EncoderConfig)}
    updates = {key: value for key, value in kv.items() if key != "profile"}
    for key, value in updates.items():
        if key not in valid:
            raise ValueError(f"unknown config key {key!r}")
        updates[key] = value if key == "precision" else int(value)
    return replace(ENCODER_PROFILES[base] if base else EncoderConfig(), **updates)


def encoder_config_to_kv(cfg: EncoderConfig) -> dict[str, str]:
    return {f.name: str(getattr(cfg, f.name)) for f in fields(EncoderConfig)}
