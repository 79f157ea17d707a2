"""Analysis settings: what analyze reads, plus the frame shift and F0 range
the CLI reads and checks a reference contour with."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

MODES = ("parametric", "full")
OVERSIZE_POLICIES = ("error", "truncate")


@dataclass
class PipelineConfig:
    # spectral analysis
    fft_size: int = 512
    mode: str = "full"
    oversize_segment: str = "error"
    # F0 / voicing
    f0_min: float = 50.0
    f0_max: float = 500.0
    frame_shift_s: float = 0.005

    def __post_init__(self) -> None:
        # 128 is the smallest power of two above twice analysis.LSP_ORDER
        if self.fft_size < 128 or self.fft_size & (self.fft_size - 1):
            raise ConfigError(f"fft_size must be a power of two >= 128, got {self.fft_size}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.oversize_segment not in OVERSIZE_POLICIES:
            raise ConfigError(f"oversize_segment must be one of {OVERSIZE_POLICIES}")
        if not 0.0 < self.f0_min < self.f0_max:
            raise ConfigError(f"need 0 < f0_min < f0_max, got ({self.f0_min}, {self.f0_max})")
        if self.frame_shift_s <= 0:
            raise ConfigError("frame_shift_s must be positive")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _parse_value(name: str, text: str):
    kind = _FIELD_TYPES[name]
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
    except ValueError:
        raise ConfigError(f"config key {name}: expected a number, got {text!r}") from None
    return text


def load_config(path: str, overrides: dict | None = None) -> PipelineConfig:
    """Read `key = value` lines (# comments allowed), then apply overrides."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                name, text = (part.strip() for part in line.split("=", 1))
                if name not in _FIELD_TYPES:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {name!r}")
                values[name] = _parse_value(name, text)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if overrides:
        values.update(overrides)
    return PipelineConfig(**values)
