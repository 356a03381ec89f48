"""Event-by-event asynchronous encoder for event-camera streams.

A linear-attention recurrence ingests camera events one at a time into
per-patch matrix-valued states that downstream consumers sample on demand,
for serving and for offline encoding alike; the same model evaluates in a
chunked-parallel mode for training and as the stepping mode's reference.
Handcrafted event-count / time-surface images double as self-supervision
targets and as exact oracles for the streaming paths.
"""

from .config import EncoderConfig, TargetSpec, TrainConfig
from .events import SensorGeometry
from .params import EncoderParams, init_encoder_params

__all__ = [
    "EncoderConfig",
    "EncoderParams",
    "SensorGeometry",
    "TargetSpec",
    "TrainConfig",
    "init_encoder_params",
]

__version__ = "0.1.0"
