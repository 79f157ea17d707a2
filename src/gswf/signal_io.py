"""Waveform and F0-contour containers plus their file formats.

WAV support is deliberately narrow: 16-bit PCM mono RIFF only.  Samples map
to float64 in [-1, 1) with the scale 32768, so negative full scale reads as
exactly -1.0.  Reference F0 contours are plain text, one Hz value per line,
0 meaning unvoiced.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

PCM_SCALE = 32768.0


@dataclass
class Waveform:
    samples: np.ndarray
    fs: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValidationError(f"waveform must be mono, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("waveform contains non-finite samples")
        if self.fs <= 0:
            raise ValidationError(f"sample rate must be positive, got {self.fs}")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.fs


@dataclass
class F0Contour:
    values: np.ndarray
    frame_shift_s: float

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValidationError("F0 contour must be one value per frame")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("F0 contour contains non-finite values")
        if np.any(self.values < 0):
            raise ValidationError("F0 values must be 0 (unvoiced) or positive")
        if self.frame_shift_s <= 0:
            raise ValidationError(f"frame shift must be positive, got {self.frame_shift_s}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def duration_s(self) -> float:
        return len(self.values) * self.frame_shift_s

    @property
    def voiced(self) -> np.ndarray:
        return self.values > 0

    def check_range(self, f0_min: float, f0_max: float) -> None:
        bad = (self.values > 0) & ((self.values < f0_min) | (self.values > f0_max))
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise ValidationError(
                f"F0 value {self.values[idx]:g} at frame {idx} outside "
                f"[{f0_min:g}, {f0_max:g}]"
            )


def read_wav(path: str) -> Waveform:
    """Read a 16-bit PCM mono WAV file."""
    try:
        with wave.open(path, "rb") as fh:
            if fh.getcomptype() != "NONE":
                raise FormatError(f"{path}: compressed WAV not supported")
            if fh.getnchannels() != 1:
                raise FormatError(f"{path}: expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise FormatError(
                    f"{path}: expected 16-bit samples, got {8 * fh.getsampwidth()}-bit"
                )
            fs = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise FormatError(f"{path}: not a readable WAV file ({exc})") from exc
    codes = np.frombuffer(raw, dtype="<i2")
    return Waveform(codes.astype(np.float64) / PCM_SCALE, fs)


def write_wav(path: str, w: Waveform) -> None:
    """Write 16-bit PCM mono.  Values outside [-1, 1] clip to full scale."""
    codes = np.round(w.samples * PCM_SCALE)
    codes = np.clip(codes, -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(w.fs)
        fh.writeframes(codes.tobytes())


def read_f0_ref(path: str, frame_shift_s: float = 0.005) -> F0Contour:
    """Read a text F0 contour, one Hz value per line (0 = unvoiced)."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric F0 value {line!r}") from None
            if not np.isfinite(value):
                raise ValidationError(f"{path}:{lineno}: non-finite F0 value {line!r}")
            if value < 0:
                raise ValidationError(f"{path}:{lineno}: negative F0 value {value:g}")
            values.append(value)
    if not values:
        raise FormatError(f"{path}: empty F0 file")
    return F0Contour(np.array(values), frame_shift_s)


def write_f0_ref(path: str, contour: F0Contour) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for value in contour.values:
            fh.write(f"{value:.6f}\n")
