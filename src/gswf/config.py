"""Pipeline configuration shared by analysis, synthesis and the CLI."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

MODES = ("parametric", "full")
COST_NORMS = ("abs", "squared")
OVERSIZE_POLICIES = ("error", "truncate")


@dataclass
class PipelineConfig:
    # spectral analysis
    fft_size: int = 512
    lsp_order: int = 40
    mode: str = "full"
    oversize_segment: str = "error"
    # mel cepstrum
    mel_bands: int = 40
    mel_order: int = 24
    # F0 / voicing
    f0_min: float = 50.0
    f0_max: float = 500.0
    frame_shift_s: float = 0.005
    unvoiced_shift_s: float = 0.005
    # GCI detection
    candidates_per_interval: int = 5
    candidate_min_sep_s: float = 0.0005
    cost_norm: str = "abs"
    residual_frame_s: float = 0.025
    residual_shift_s: float = 0.005
    # synthesis
    eps_ola: float = 1e-3
    min_phase_from_envelope: bool = False
    # metrics
    dpd_wrap: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.fft_size < 64 or self.fft_size & (self.fft_size - 1):
            raise ConfigError(f"fft_size must be a power of two >= 64, got {self.fft_size}")
        if self.lsp_order < 2 or self.lsp_order % 2:
            raise ConfigError(f"lsp_order must be even and >= 2, got {self.lsp_order}")
        if self.lsp_order >= self.fft_size // 2:
            raise ConfigError(
                f"lsp_order {self.lsp_order} too large for fft_size {self.fft_size}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.oversize_segment not in OVERSIZE_POLICIES:
            raise ConfigError(f"oversize_segment must be one of {OVERSIZE_POLICIES}")
        if not 0.0 < self.f0_min < self.f0_max:
            raise ConfigError(f"need 0 < f0_min < f0_max, got ({self.f0_min}, {self.f0_max})")
        for name in ("frame_shift_s", "unvoiced_shift_s", "candidate_min_sep_s",
                     "residual_frame_s", "residual_shift_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.candidates_per_interval < 1:
            raise ConfigError("candidates_per_interval must be >= 1")
        if self.cost_norm not in COST_NORMS:
            raise ConfigError(f"cost_norm must be one of {COST_NORMS}, got {self.cost_norm!r}")
        if self.mel_bands < 2 or not 0 < self.mel_order < self.mel_bands:
            raise ConfigError(
                f"need 0 < mel_order < mel_bands, got ({self.mel_order}, {self.mel_bands})"
            )
        if not 0.0 < self.eps_ola <= 1.0:
            raise ConfigError(f"eps_ola must be in (0, 1], got {self.eps_ola}")

    def replace(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **kwargs)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _parse_value(name: str, text: str):
    kind = _FIELD_TYPES[name]
    text = text.strip()
    if kind == "bool":
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {name}: expected a boolean, got {text!r}")
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
