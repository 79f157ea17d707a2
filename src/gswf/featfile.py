"""Binary feature stream format.

Little-endian layout, version 1:

    header:  magic 'GSWF' | version u32 | fs u32 | fft_size u32
             | mode u8 (0 parametric, 1 full) | segment count u32
    segment: position u64 | voiced u8 | log_f0 f32 | gain f32
             | lsp L x f32 | phase_feature K x f32
             | log_mag K x f32          (full mode only)

with K = fft_size/2 + 1 and L = analysis.LSP_ORDER.  fs is positive,
fft_size a power of two >= 128 (config.fft_size_ok), a voiced byte is 0
or 1, and every float is finite.
"""

from __future__ import annotations

import struct

import numpy as np

from .analysis import LSP_ORDER, FeatureStream
from .config import fft_size_ok
from .errors import FormatError

MAGIC = b"GSWF"
VERSION = 1
_HEADER = struct.Struct("<4sIIIBI")
_MODES = {"parametric": 0, "full": 1}
_MODE_NAMES = {v: k for k, v in _MODES.items()}


def _record(mode: str, fft_size: int) -> np.dtype:
    """The packed little-endian record of one segment; its fields are the
    stream's columns, in FeatureStream's argument order."""
    n_bins = fft_size // 2 + 1
    fields = [("positions", "<u8"), ("voiced", "u1"), ("log_f0", "<f4"), ("gain", "<f4"),
              ("lsp", "<f4", (LSP_ORDER,)), ("phase", "<f4", (n_bins,))]
    if mode == "full":
        fields.append(("log_mag", "<f4", (n_bins,)))
    return np.dtype(fields)


def write_features(path: str, stream: FeatureStream) -> None:
    if not fft_size_ok(stream.fft_size):
        raise FormatError(f"{path}: a feature file holds fft_size a power of two >= 128, "
                          f"not {stream.fft_size}")
    records = np.empty(len(stream), dtype=_record(stream.mode, stream.fft_size))
    for name in records.dtype.names:
        records[name] = getattr(stream, name)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, stream.fs, stream.fft_size,
                              _MODES[stream.mode], len(records)))
        records.tofile(fh)


def read_features(path: str) -> FeatureStream:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError(
            f"truncated feature file: need {_HEADER.size} bytes for the header at "
            f"offset 0, have {len(data)}"
        )
    magic, version, fs, fft_size, mode_byte, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if mode_byte not in _MODE_NAMES:
        raise FormatError(f"{path}: unknown mode byte {mode_byte}")
    if not fft_size_ok(fft_size):
        raise FormatError(f"{path}: fft_size {fft_size} is not a power of two >= 128")
    if fs == 0:
        raise FormatError(f"{path}: sample rate is 0")
    mode = _MODE_NAMES[mode_byte]
    record = _record(mode, fft_size)
    end = _HEADER.size + count * record.itemsize
    if len(data) != end:
        kind = ("truncated feature file" if len(data) < end
                else f"{len(data) - end} trailing bytes")
        raise FormatError(
            f"{path}: {kind}: {count} segments of {record.itemsize} bytes end at "
            f"offset {end}, the file has {len(data)} bytes"
        )
    rec = np.frombuffer(data, dtype=record, count=count, offset=_HEADER.size)
    flags = rec["voiced"]
    if np.any(flags > 1):
        row = int(np.argmax(flags > 1))
        raise FormatError(f"{path}: segment {row} has voiced byte {flags[row]}, not 0 or 1")
    return FeatureStream(int(fs), int(fft_size), mode, *(rec[name] for name in record.names))
