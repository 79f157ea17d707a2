"""Binary feature stream format.

Little-endian layout, version 1:

    header:  magic 'GSWF' | version u32 | fs u32 | fft_size u32
             | mode u8 (0 parametric, 1 full) | segment count u32
    segment: position u64 | voiced u8 | log_f0 f32 | gain f32
             | lsp L x f32 | phase_feature K x f32
             | log_mag K x f32          (full mode only)

with K = fft_size/2 + 1 and L = LSP_DIMS, the fixed analysis.LSP_ORDER;
streams with any other LSP order do not serialize.
"""

from __future__ import annotations

import struct

import numpy as np

from .analysis import LSP_ORDER, FeatureStream, SegmentFeatures
from .errors import FormatError

MAGIC = b"GSWF"
VERSION = 1
LSP_DIMS = LSP_ORDER
_HEADER = struct.Struct("<4sIIIBI")
_SEG_FIXED = struct.Struct("<QBff")
_MODES = {"parametric": 0, "full": 1}
_MODE_NAMES = {v: k for k, v in _MODES.items()}


def write_features(path: str, stream: FeatureStream) -> None:
    chunks = [_HEADER.pack(MAGIC, VERSION, stream.fs, stream.fft_size,
                           _MODES[stream.mode], len(stream.segments))]
    for seg in stream.segments:
        if len(seg.lsp) != LSP_DIMS:
            raise FormatError(
                f"feature file stores exactly {LSP_DIMS} LSP values, "
                f"stream has {len(seg.lsp)}"
            )
        chunks.append(_SEG_FIXED.pack(int(seg.position), int(seg.voiced),
                                      float(seg.log_f0), float(seg.gain)))
        chunks.append(np.asarray(seg.lsp, dtype="<f4").tobytes())
        chunks.append(np.asarray(seg.phase_feature, dtype="<f4").tobytes())
        if stream.mode == "full":
            chunks.append(np.asarray(seg.log_mag, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _take(data: bytes, offset: int, count: int, what: str) -> int:
    if offset + count > len(data):
        raise FormatError(
            f"truncated feature file: need {count} bytes for {what} at offset "
            f"{offset}, have {len(data) - offset}"
        )
    return offset + count


def read_features(path: str) -> FeatureStream:
    with open(path, "rb") as fh:
        data = fh.read()
    _take(data, 0, _HEADER.size, "header")
    magic, version, fs, fft_size, mode_byte, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if mode_byte not in _MODE_NAMES:
        raise FormatError(f"{path}: unknown mode byte {mode_byte}")
    if fft_size < 2 or fft_size % 2:
        raise FormatError(f"{path}: invalid fft_size {fft_size}")
    mode = _MODE_NAMES[mode_byte]
    n_bins = fft_size // 2 + 1
    offset = _HEADER.size
    segments = []
    for i in range(count):
        offset_after = _take(data, offset, _SEG_FIXED.size, f"segment {i} header")
        position, voiced, log_f0, gain = _SEG_FIXED.unpack_from(data, offset)
        offset = offset_after
        next_off = _take(data, offset, 4 * LSP_DIMS, f"segment {i} lsp")
        lsp = np.frombuffer(data, dtype="<f4", count=LSP_DIMS, offset=offset).astype(np.float64)
        offset = next_off
        next_off = _take(data, offset, 4 * n_bins, f"segment {i} phase")
        phase = np.frombuffer(data, dtype="<f4", count=n_bins, offset=offset).astype(np.float64)
        offset = next_off
        log_mag = None
        if mode == "full":
            next_off = _take(data, offset, 4 * n_bins, f"segment {i} log_mag")
            log_mag = np.frombuffer(data, dtype="<f4", count=n_bins,
                                    offset=offset).astype(np.float64)
            offset = next_off
        segments.append(SegmentFeatures(
            position=int(position), voiced=bool(voiced), log_f0=float(log_f0),
            gain=float(gain), lsp=lsp, phase_feature=phase, log_mag=log_mag))
    if offset != len(data):
        raise FormatError(
            f"{path}: {len(data) - offset} trailing bytes at offset {offset}"
        )
    return FeatureStream(fs=int(fs), fft_size=int(fft_size), mode=mode, segments=segments)
