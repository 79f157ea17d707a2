"""Signal-processing primitives: windows, spectra, LPC/LSP, mel cepstra.

Everything operates on float64 arrays.  Magnitudes live in the natural-log
domain with a fixed floor so silence stays finite; phases live in (-pi, pi].
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import lapack

from .errors import RowError, ValidationError
from .signal_io import Waveform

EPS_MAG = 1e-10    # magnitude floor before taking logs
ENV_GUARD = 1e-12  # |A(e^jw)| guard in the LPC envelope
TWO_PI = 2.0 * np.pi
SILENT_R0 = 1e-20  # autocorrelation energy below which a frame is silence
WHITE_NOISE = 1e-9  # r[0] lift of a Levinson rerun on a row that clamped
MEL_BANDS = 40     # mel bands of the cepstra the metrics compare

# ---------------------------------------------------------------------------
# phases and windows
# ---------------------------------------------------------------------------


def wrap_phase(x):
    """Map angles into (-pi, pi].  Accepts scalars or arrays.

    Inputs inside (-2 pi, 2 pi), such as angles and their differences, take
    one add: fmod is exact there, so x + 2 pi (x < 0) has np.mod's bits,
    -0.0 mapping to +0.0 as in numpy's divmod.  Larger inputs, such as the
    cumulative phases of synthesis, go through np.mod."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return float(wrap_phase(arr.reshape(1))[0])
    peak = max(arr.max(initial=0.0), -arr.min(initial=0.0))
    if not np.isfinite(peak):
        raise ValidationError("wrap_phase: non-finite input")
    if peak < TWO_PI:
        out = TWO_PI * (arr < 0)
        out += arr
    else:
        out = np.mod(arr, TWO_PI)
    out -= TWO_PI * (out > np.pi)
    return out


def asymmetric_hann(left: int, right: int) -> np.ndarray:
    """Raised-cosine window rising over `left` samples and falling over
    `right`, length left + right + 1.  Endpoints are exactly 0, the peak is
    exactly 1 at index `left`."""
    if left < 1 or right < 1:
        raise ValidationError(f"window half lengths must be >= 1, got ({left}, {right})")
    j = np.arange(left + 1)
    rise = 0.5 - 0.5 * np.cos(np.pi * j / left)
    i = np.arange(1, right + 1)
    fall = 0.5 - 0.5 * np.cos(np.pi * (right - i) / right)
    return np.concatenate([rise, fall])


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def inverse_spectrum(log_mag: np.ndarray, phase: np.ndarray, fft_size: int) -> np.ndarray:
    """Inverse FFT of log-magnitude/phase half spectra along the last axis;
    the output is real, fft_size samples per spectrum.

    The magnitude floor applied at analysis is not undone.  DC and Nyquist
    are projected onto the real axis (mag * cos(phase)), which is exact for
    frames of real signals and keeps arbitrary frames real."""
    mag = np.exp(log_mag)
    spec = mag * np.exp(1j * phase)
    spec[..., 0] = mag[..., 0] * np.cos(phase[..., 0])
    spec[..., -1] = mag[..., -1] * np.cos(phase[..., -1])
    return np.fft.irfft(spec, n=fft_size)


# ---------------------------------------------------------------------------
# linear prediction
# ---------------------------------------------------------------------------


def autocorr(samples: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation lags 0..order of a frame; lags past its length are 0."""
    corr = np.correlate(samples, samples, "full")[len(samples) - 1:]
    r = np.zeros(order + 1)
    take = min(order + 1, len(corr))
    r[:take] = corr[:take]
    return r


def _check_rows(bad: np.ndarray, reason: str) -> None:
    if np.any(bad):
        raise RowError(reason, np.flatnonzero(bad), len(bad))


def _levinson(r: np.ndarray, order: int) -> tuple:
    # the recursion over the stack: (a, k, err, clamped, collapsed)
    n = len(r)
    # lags r[order..1] stored contiguously, so each row's inner product is
    # the same ddot call np.dot makes on a reversed slice (which it copies)
    rev = np.ascontiguousarray(r[:, order:0:-1])
    a = np.zeros((n, order + 1))
    a[:, 0] = 1.0
    refl = np.empty((n, order))
    err = r[:, 0].copy()
    clamped = np.zeros(n, dtype=bool)
    collapsed = np.zeros(n, dtype=bool)
    # a collapsed row turns to inf/nan on later steps; the caller reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, order + 1):
            dot = a[:, None, 1:m] @ rev[:, order - m + 1:order, None]
            k = -(r[:, m] + dot[:, 0, 0]) / err
            big = np.abs(k) >= 1.0
            k = np.where(big, np.where(k > 0, 0.999, -0.999), k)
            clamped |= big
            a[:, 1:m] = a[:, 1:m] + k[:, None] * a[:, m - 1:0:-1]
            a[:, m] = refl[:, m - 1] = k
            err *= 1.0 - k * k
            collapsed |= err <= 0.0
    return a, refl, err, clamped, collapsed


def lpc_from_autocorr_batch(r: np.ndarray, order: int) -> tuple:
    """Levinson-Durbin recursion on the autocorrelation values r[:, 0..order]
    of every row, as one recursion over the stack.

    A row whose recursion meets a reflection coefficient of magnitude >= 1
    (a singular autocorrelation, or one float64 rounding made indefinite)
    runs again alone with white-noise correction, r[0] * (1 + WHITE_NOISE)
    (Kabal, ICASSP 2003); rows that do not clamp keep their bits.  A
    coefficient that reaches magnitude 1 even then is clamped to +/-0.999.
    Every returned k has magnitude < 1, but the rounded polynomial of a row
    that clamps twice need not be minimum phase.  Returns (a, k, gain,
    clamped) with shapes (rows, order + 1), (rows, order), (rows,) and
    (rows,), clamped flagging the rows the first pass clamped; a RowError
    names failing rows."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or order < 1 or r.shape[1] < order + 1:
        raise ValidationError(f"need r[0..{order}] autocorrelation values, got "
                              f"shape {r.shape}")
    _check_rows(r[:, 0] <= 0, "r[0] must be positive")
    a, k, err, clamped, collapsed = _levinson(r, order)
    if np.any(clamped):
        redo = np.flatnonzero(clamped)
        lifted = r[redo]
        lifted[:, 0] *= 1.0 + WHITE_NOISE
        a[redo], k[redo], err[redo], _, collapsed[redo] = _levinson(lifted, order)
    _check_rows(collapsed, "Levinson recursion collapsed: r is not positive definite")
    return a, k, np.sqrt(err), clamped


def lpc_predictors(r: np.ndarray, order: int) -> tuple:
    """Prediction error polynomials (rows, order + 1) and reflection
    coefficients (rows, order) of autocorrelation rows; a row with
    r[0] <= SILENT_R0 (silence) gets the flat predictor 1 and k = 0."""
    silent = r[:, 0] <= SILENT_R0
    flat = np.zeros(order + 1)
    flat[0] = 1.0
    # a unit impulse's autocorrelation stands in for silent rows in the
    # recursion, which gives k = 0; their polynomial, whose coefficients come
    # out as -0.0, is replaced by the exact flat predictor
    a, k, _, _ = lpc_from_autocorr_batch(
        np.where(silent[:, None], flat, r[:, :order + 1]), order)
    a[silent] = flat
    return a, k


def _inverse_filter_span(x: np.ndarray, a: np.ndarray, start: int, stop: int) -> np.ndarray:
    # FIR-filter x[start:stop] through A(z) using real left context; the
    # truncated full convolution is what scipy.signal.lfilter(a, [1.0], .)
    # runs, so the bits are lfilter's
    ctx = max(0, start - (len(a) - 1))
    return np.convolve(a, x[ctx:stop])[start - ctx:stop - ctx]


def _kernel_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # dot products along the last axis of broadcast (..., k) stacks, with
    # the bits np.correlate's kernel loop (and so np.convolve) gives:
    # numpy sums kernels of up to 11 taps in order from 0.0 and longer ones
    # with ddot, which a (1, k) @ (k, 1) matmul calls too
    if u.shape[-1] > 11:
        return (u[..., None, :] @ v[..., :, None])[..., 0, 0]
    out = np.zeros(np.broadcast_shapes(u.shape, v.shape)[:-1])
    for j in range(u.shape[-1]):
        out += u[..., j] * v[..., j]
    return out


def lpc_residual(w: Waveform, order: int, frame_s: float = 0.025,
                 shift_s: float = 0.005) -> np.ndarray:
    """Inverse-filter a waveform with frame-wise LPC models.

    Models are fitted on Hann-windowed frames; the unwindowed signal is then
    filtered, cross-fading linearly between the filters of adjacent frames.
    Output has the same length as the input.

    The frame autocorrelations and the filtering between the first and last
    frame centers are array passes over the frame stack and the sliding
    windows of the signal, with the bits of one np.correlate per frame and
    one FIR convolution per frame."""
    x = w.samples
    fs = w.fs
    frame_len = int(round(frame_s * fs))
    shift = int(round(shift_s * fs))
    if frame_len <= order + 1:
        raise ValidationError(f"frame of {frame_len} samples too short for order {order}")
    if shift < 1:
        raise ValidationError(f"frame shift of {shift_s} s is under one sample")
    if len(x) < frame_len:
        raise ValidationError(f"signal shorter than one {frame_len}-sample frame")
    frames = sliding_window_view(x, frame_len)[::shift] * np.hanning(frame_len)
    # lag 0 is np.correlate's kernel loop, the other lags its ddot ramps
    r = np.empty((len(frames), order + 1))
    r[:, 0] = _kernel_dots(frames, frames)
    for lag in range(1, order + 1):
        r[:, lag] = (frames[:, None, lag:] @ frames[:, :frame_len - lag, None])[:, 0, 0]
    coefs = lpc_predictors(r, order)[0]
    centers = np.arange(len(frames)) * shift + frame_len // 2
    # span m = [c[m], c[m+1]) fades from frame m's filter (lo) to frame
    # m+1's (hi); frame m's filter runs over [c[m-1], c[m+1]), the file
    # edges standing in for the outer frames' missing neighbours.  Spans
    # that start past sample `order` are one FIR pass over their windows;
    # the edge spans and any span nearer the file start, where the
    # convolution of a frame sums its first outputs differently, filter as
    # that call does
    bounds = np.concatenate([[0], centers, [len(x)]])
    res = np.empty_like(x)
    res[:centers[0]] = _inverse_filter_span(x, coefs[0], 0, bounds[2])[:centers[0]]
    res[centers[-1]:] = _inverse_filter_span(x, coefs[-1], bounds[-3], len(x))[
        centers[-1] - bounds[-3]:]
    n_spans = len(centers) - 1
    lo, hi = np.empty((n_spans, shift)), np.empty((n_spans, shift))
    m0 = min(int(np.searchsorted(centers, order, side="right")), n_spans)
    for m in range(m0):
        lo[m] = _inverse_filter_span(x, coefs[m], bounds[m], bounds[m + 2])[
            centers[m] - bounds[m]:]
        hi[m] = _inverse_filter_span(x, coefs[m + 1], centers[m], bounds[m + 3])[:shift]
    if m0 < n_spans:
        windows = sliding_window_view(x[centers[m0] - order:centers[-1]], order + 1)
        windows = windows.reshape(n_spans - m0, shift, order + 1)
        rev = np.ascontiguousarray(coefs[:, None, ::-1])
        lo[m0:] = _kernel_dots(windows, rev[m0:-1])
        hi[m0:] = _kernel_dots(windows, rev[m0 + 1:])
    alpha = np.arange(shift) / shift
    res[centers[0]:centers[-1]] = ((1.0 - alpha) * lo + alpha * hi).ravel()
    return res


# ---------------------------------------------------------------------------
# line spectral pairs
# ---------------------------------------------------------------------------


def _nudge_increasing(freqs: np.ndarray, tol: float) -> np.ndarray:
    """Repair neighbors glued together by rounding.  Interlacing of the true
    roots is guaranteed for minimum-phase models, so order violations within
    tol are numerical; anything larger is a genuine contract breach."""
    out = np.asarray(freqs, dtype=np.float64).copy()
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            if out[i - 1] - out[i] > tol:
                raise ValidationError(
                    f"line spectral frequencies out of order by "
                    f"{out[i - 1] - out[i]:.3e} at index {i}"
                )
            out[i] = np.nextafter(out[i - 1], np.inf)
    if len(out) and not 0.0 < out[0] <= out[-1] < np.pi:
        raise ValidationError("line spectral frequencies must stay inside (0, pi)")
    return out


def _nudge_rows(freqs: np.ndarray, tol: float) -> np.ndarray:
    # _nudge_increasing, in place, on the rows out of order or out of (0, pi)
    bad, reason = [], ""
    inside = np.diff(freqs, axis=1, prepend=0.0, append=np.pi) > 0
    for i in np.flatnonzero(~np.all(inside, axis=1)):
        try:
            freqs[i] = _nudge_increasing(freqs[i], tol)
        except ValidationError as e:
            bad.append(i)
            reason = reason or str(e)
    if bad:
        raise RowError(reason, bad, len(freqs))
    return freqs


def reflection_to_lsp_batch(k: np.ndarray) -> np.ndarray:
    """Line spectral frequencies of the models with reflection coefficients
    k (rows, p), |k| < 1: (rows, p), strictly increasing in (0, pi), the
    sum polynomial's in the even slots.

    With k_{p+1} = +1 (sum polynomial) or -1 (difference polynomial), the
    zeros e^{+-i theta} of the polynomial are the eigenvalues of the CMV
    matrix LM, where L and M are block-diagonal reflections built from the
    k_j (Cantero, Moral & Velazquez, Linear Algebra Appl. 362, 2003).  The
    product of two reflections turns by twice the angles between their -1
    eigenspaces, so cos(theta / 2) are the singular values of the matrix
    B of inner products of those eigenvectors (Ammar, Gragg & Reichel,
    Proc. 25th IEEE CDC, 1986).  With c_j = sqrt((1 - k_j) / 2) and s_j =
    sqrt((1 + k_j) / 2) the eigenvectors form a chain whose links are g_j =
    c_j s_{j+1} (j = 1..p, s_{p+1} = 1 for the sum and 0 for the
    difference polynomial), and B is the bidiagonal of those links.  So
    cos^2(theta / 2) are the eigenvalues of the ceil(p/2)-sized tridiagonal
    B^T B: diagonal g_{2l-1}^2 + g_{2l}^2, off-diagonal g_{2l} g_{2l+1},
    links past g_p zero.  One LAPACK dsterf call per row takes both
    polynomials as two blocks; sorted, their 2 ceil(p/2) angles are the p
    frequencies, and for odd p one exact zero of the difference block
    (theta = pi, the trivial root at z = -1), which is dropped.  Pairs
    glued by rounding are split by one ulp; a RowError names the rows
    that fail."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[1] < 1:
        raise ValidationError("reflection_to_lsp_batch: need a (rows, p) array")
    _check_rows(~np.all(np.abs(k) < 1.0, axis=1),
                "reflection coefficient of magnitude >= 1: model is not minimum phase")
    rows, p = k.shape
    half = (p + 1) // 2
    # links g_1..g_{2 half} of the sum and the difference polynomial of each
    # row; the difference polynomial's last link and any past g_p are zero
    c = np.sqrt((1.0 - k) / 2.0)
    g = np.zeros((rows, 2, 2 * half))
    g[:, :, :p - 1] = (c[:, :-1] * np.sqrt((1.0 + k[:, 1:]) / 2.0))[:, None, :]
    g[:, 0, p - 1] = c[:, -1]
    diag = (g[:, :, 0::2] ** 2 + g[:, :, 1::2] ** 2).reshape(rows, -1)
    # the off-diagonal after each block's last row is 0: it ends the block
    off = np.zeros((rows, 2, half))
    off[:, :, :-1] = g[:, :, 1:-1:2] * g[:, :, 2::2]
    off = off.reshape(rows, -1)[:, :-1]
    lam = np.empty_like(diag)
    failed = np.zeros(rows, dtype=bool)
    for i in range(rows):
        lam[i], info = lapack.dsterf(diag[i], off[i])
        failed[i] = info != 0
    _check_rows(failed, "tridiagonal eigenvalue iteration did not converge")
    theta = np.sort(2.0 * np.arccos(np.sqrt(np.clip(lam, 0.0, 1.0))), axis=1)
    return _nudge_rows(np.clip(theta[:, :p], 1e-12, np.pi - 1e-12), 1e-9)


def _poly_from_circle_roots(w: np.ndarray) -> np.ndarray:
    """Product of the quadratics 1 - 2 cos(w_i) z^-1 + z^-2 over the last
    axis: (..., k) -> (..., 2k + 1).

    Extended precision keeps the repeated products from eroding high-order
    coefficients (clustered roots make float64 lose ~9 digits at order 40).
    Each coefficient adds p[j-2], then -2 cos(w_i) p[j-1], then p[j], the
    order np.convolve sums in, so one row equals the convolution chain."""
    w = np.asarray(w)
    rows, k = int(np.prod(w.shape[:-1])), w.shape[-1]
    q = -2.0 * np.cos(w.astype(np.longdouble)).reshape(rows, k, 1)
    # the coefficients sit after two zeros, with zeros after them too
    buf = np.zeros((rows, 2 * k + 5), dtype=np.longdouble)
    buf[:, 2] = 1.0
    for i in range(k):
        n = 2 * i + 3
        nxt = buf[:, :n] + q[:, i] * buf[:, 1:n + 1]
        nxt += buf[:, 2:n + 2]
        buf[:, 2:n + 2] = nxt
    return buf[:, 2:2 * k + 3].reshape(w.shape[:-1] + (2 * k + 1,))


def lsp_to_lpc_batch(lsp: np.ndarray) -> np.ndarray:
    """lsp_to_lpc of every row of (rows, p) frequencies in one pass: one
    product of quadratics per half for the whole stack.  Neighbours glued
    by float32 rounding (out of order by at most 1e-4) are split by one ulp
    first.  Returns (rows, p + 1); a RowError names the rows that fail."""
    f = _nudge_rows(np.array(lsp, dtype=np.float64), 1e-4)
    p = f.shape[1]
    if p % 2 == 0:
        # equal halves: both products in one call, then times 1 + z^-1 and
        # 1 - z^-1, the sums np.convolve makes; the last term is not needed
        psum, qdif = _poly_from_circle_roots(np.stack([f[:, 0::2], f[:, 1::2]]))
        psum[:, 1:] += psum[:, :-1]
        qdif[:, 1:] -= qdif[:, :-1]
    else:
        psum = _poly_from_circle_roots(f[:, 0::2])[:, :p + 1]
        qdif = np.zeros_like(psum)
        qdif[:, :p] = _poly_from_circle_roots(f[:, 1::2])
        qdif[:, 2:] -= qdif[:, :-2]  # times 1 - z^-2
    return (0.5 * (psum + qdif)).astype(np.float64)


def lpc_envelope(a: np.ndarray, fft_size: int) -> np.ndarray:
    """Log-magnitude envelope -log|A| of each prediction error polynomial
    along the last axis, on the fft_size//2 + 1 rfft bins."""
    if a.shape[-1] > fft_size:
        raise ValidationError(f"fft_size {fft_size} too small for order {a.shape[-1] - 1}")
    return -np.log(np.maximum(np.abs(np.fft.rfft(a, fft_size)), ENV_GUARD))


# ---------------------------------------------------------------------------
# mel cepstrum
# ---------------------------------------------------------------------------


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _mel_edges(fs: float, n_mels: int) -> np.ndarray:
    return _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(fs / 2.0)), n_mels + 2))


def mel_support(n_bins: int, fs: float, n_mels: int = MEL_BANDS) -> bool:
    """Whether every band of mel_filterbank(n_bins, fs, n_mels) holds a bin.
    The first band is the narrowest, since mel spacing widens with
    frequency, so it decides: it must hold the first bin above DC."""
    return fs / 2.0 / (n_bins - 1) < _mel_edges(fs, n_mels)[2]


def mel_filterbank(n_bins: int, fs: float, n_mels: int) -> np.ndarray:
    """Triangular filters on a mel-spaced grid over [0, fs/2], each row
    normalized to unit sum so a flat spectrum yields equal band energies."""
    if n_bins < 2:
        raise ValidationError("need at least 2 spectral bins")
    f = np.linspace(0.0, fs / 2.0, n_bins)
    edges = _mel_edges(fs, n_mels)
    bank = np.zeros((n_mels, n_bins))
    for b in range(n_mels):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        tri = np.minimum((f - lo) / (mid - lo), (hi - f) / (hi - mid))
        tri = np.maximum(tri, 0.0)
        total = tri.sum()
        if total <= 0.0:
            raise ValidationError(
                f"mel band {b} has no spectral support; lower n_mels or raise n_bins"
            )
        bank[b] = tri / total
    return bank


def mel_cepstrum(log_mag: np.ndarray, fs: float, n_mels: int = MEL_BANDS,
                 order: int = 24) -> np.ndarray:
    """Mel cepstrum of natural-log magnitude spectra along the last axis:
    filterbank on the linear power spectrum, log band energies, orthonormal
    DCT-II, first order+1 coefficients (c[0] included).  A (frames, bins)
    array gives one cepstrum per row from a single filterbank."""
    log_mag = np.asarray(log_mag, dtype=np.float64)
    if order + 1 > n_mels:
        raise ValidationError(f"cepstral order {order} needs more than {n_mels} bands")
    power = np.exp(2.0 * log_mag)
    bank = mel_filterbank(log_mag.shape[-1], fs, n_mels)
    band = np.log(np.maximum(power @ bank.T, EPS_MAG))
    import scipy.fft  # here, not at module level: only scoring pays its import
    return scipy.fft.dct(band, type=2, norm="ortho", axis=-1)[..., :order + 1]
