"""Signal-processing primitives: windows, spectra, LPC/LSP, mel cepstra, F0.

Everything operates on float64 arrays.  Magnitudes live in the natural-log
domain with a fixed floor so silence stays finite; phases live in (-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.signal
from numpy.polynomial import chebyshev

from .errors import ValidationError
from .signal_io import Waveform

EPS_MAG = 1e-10    # magnitude floor before taking logs
ENV_GUARD = 1e-12  # |A(e^jw)| guard in the LPC envelope
TWO_PI = 2.0 * np.pi

# ---------------------------------------------------------------------------
# phases and windows
# ---------------------------------------------------------------------------


def wrap_phase(x):
    """Map angles into (-pi, pi].  Accepts scalars or arrays."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("wrap_phase: non-finite input")
    m = np.mod(arr, TWO_PI)
    out = np.where(m > np.pi, m - TWO_PI, m)
    if arr.ndim == 0:
        return float(out)
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


@dataclass
class SpectrumFrame:
    log_mag: np.ndarray
    phase: np.ndarray
    fft_size: int

    def __post_init__(self) -> None:
        self.log_mag = np.asarray(self.log_mag, dtype=np.float64)
        self.phase = np.asarray(self.phase, dtype=np.float64)
        if self.fft_size < 2 or self.fft_size % 2:
            raise ValidationError(f"fft_size must be even and >= 2, got {self.fft_size}")
        k = self.fft_size // 2 + 1
        if self.log_mag.shape != (k,) or self.phase.shape != (k,):
            raise ValidationError(
                f"expected {k} spectral bins for fft_size {self.fft_size}, "
                f"got {self.log_mag.shape} / {self.phase.shape}"
            )

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


def _buffer_start(n: int, fft_size: int, pivot: int) -> int:
    """Start index that puts segment sample `pivot` at buffer index
    fft_size//2.  A one-sample shift is tolerated so a full-size segment
    still fits; anything larger means the segment cannot be represented."""
    start = fft_size // 2 - pivot
    clamped = min(max(start, 0), fft_size - n)
    if abs(clamped - start) > 1:
        raise ValidationError(
            f"segment of {n} samples with pivot {pivot} does not fit an "
            f"fft of {fft_size}"
        )
    return clamped


def analyze_spectrum(segment: np.ndarray, fft_size: int,
                     pivot: int | None = None) -> SpectrumFrame:
    """FFT of a segment in a zero-padded buffer, with segment sample `pivot`
    (default: the middle sample) placed at buffer index fft_size//2."""
    seg = np.asarray(segment, dtype=np.float64)
    if seg.ndim != 1 or len(seg) == 0:
        raise ValidationError("analyze_spectrum: segment must be a non-empty 1-d array")
    if len(seg) > fft_size:
        raise ValidationError(
            f"segment length {len(seg)} exceeds fft_size {fft_size}"
        )
    if pivot is None:
        pivot = (len(seg) - 1) // 2
    if not 0 <= pivot < len(seg):
        raise ValidationError(f"pivot {pivot} outside segment of {len(seg)} samples")
    buf = np.zeros(fft_size)
    start = _buffer_start(len(seg), fft_size, pivot)
    buf[start:start + len(seg)] = seg
    spec = np.fft.rfft(buf)
    log_mag = np.log(np.abs(spec) + EPS_MAG)
    phase = wrap_phase(np.angle(spec))
    return SpectrumFrame(log_mag, phase, fft_size)


def inverse_spectrum(frame: SpectrumFrame) -> np.ndarray:
    """Inverse FFT of a log-magnitude/phase frame; the output is real.

    The magnitude floor applied at analysis is not undone.  DC and Nyquist
    are projected onto the real axis (mag * cos(phase)), which is exact for
    frames of real signals and keeps arbitrary frames real."""
    mag = np.exp(frame.log_mag)
    spec = mag * np.exp(1j * frame.phase)
    spec[0] = mag[0] * np.cos(frame.phase[0])
    spec[-1] = mag[-1] * np.cos(frame.phase[-1])
    return np.fft.irfft(spec, n=frame.fft_size)


# ---------------------------------------------------------------------------
# linear prediction
# ---------------------------------------------------------------------------


@dataclass
class LpcModel:
    order: int
    a: np.ndarray      # prediction error polynomial, a[0] == 1
    gain: float        # sqrt of the Levinson residual energy
    clamped: bool = False

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.shape != (self.order + 1,):
            raise ValidationError(
                f"LPC order {self.order} needs {self.order + 1} coefficients, "
                f"got {self.a.shape}"
            )
        if self.a[0] != 1.0:
            raise ValidationError(f"a[0] must be 1, got {self.a[0]}")

    def is_min_phase(self) -> bool:
        if self.order == 0:
            return True
        return bool(np.max(np.abs(np.roots(self.a))) < 1.0)


def lpc_from_autocorr(r: np.ndarray, order: int | None = None) -> LpcModel:
    """Levinson-Durbin recursion on autocorrelation values r[0..order].

    Reflection coefficients with magnitude >= 1 are clamped to +/-0.999 and
    the model is flagged; every returned model is therefore minimum phase.
    """
    r = np.asarray(r, dtype=np.float64)
    if order is None:
        order = len(r) - 1
    if order < 1 or len(r) < order + 1:
        raise ValidationError(f"need r[0..{order}] autocorrelation values, got {len(r)}")
    if r[0] <= 0:
        raise ValidationError(f"r[0] must be positive, got {r[0]}")
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = float(r[0])
    clamped = False
    for m in range(1, order + 1):
        acc = r[m] + np.dot(a[1:m], r[m - 1:0:-1])
        k = -acc / err
        if abs(k) >= 1.0:
            k = 0.999 if k > 0 else -0.999
            clamped = True
        a[1:m] = a[1:m] + k * a[m - 1:0:-1]
        a[m] = k
        err *= 1.0 - k * k
        if err <= 0.0:
            raise ValidationError("Levinson recursion collapsed: r is not positive definite")
    return LpcModel(order=order, a=a, gain=float(np.sqrt(err)), clamped=clamped)


def _inverse_filter_span(x: np.ndarray, a: np.ndarray, start: int, stop: int) -> np.ndarray:
    # FIR-filter x[start:stop] through A(z) using real left context
    ctx = max(0, start - (len(a) - 1))
    out = scipy.signal.lfilter(a, [1.0], x[ctx:stop])
    return out[start - ctx:]


def lpc_residual(w: Waveform, order: int, frame_s: float = 0.025,
                 shift_s: float = 0.005) -> np.ndarray:
    """Inverse-filter a waveform with frame-wise LPC models.

    Models are fitted on Hann-windowed frames; the unwindowed signal is then
    filtered, cross-fading linearly between the filters of adjacent frames.
    Output has the same length as the input."""
    x = w.samples
    fs = w.fs
    frame_len = int(round(frame_s * fs))
    shift = int(round(shift_s * fs))
    if frame_len <= order + 1:
        raise ValidationError(f"frame of {frame_len} samples too short for order {order}")
    if len(x) < frame_len:
        raise ValidationError(f"signal shorter than one {frame_len}-sample frame")
    win = np.hanning(frame_len)
    starts = np.arange(0, len(x) - frame_len + 1, shift)
    coefs = []
    for s in starts:
        fr = x[s:s + frame_len] * win
        r = np.correlate(fr, fr, "full")[frame_len - 1:frame_len + order]
        if r[0] <= 1e-20:
            a = np.zeros(order + 1)
            a[0] = 1.0
        else:
            a = lpc_from_autocorr(r, order).a
        coefs.append(a)
    centers = starts + frame_len // 2
    res = np.empty_like(x)
    res[:centers[0]] = _inverse_filter_span(x, coefs[0], 0, centers[0])
    res[centers[-1]:] = _inverse_filter_span(x, coefs[-1], centers[-1], len(x))
    for m in range(len(centers) - 1):
        a0, b0 = centers[m], centers[m + 1]
        if b0 == a0:
            continue
        lo = _inverse_filter_span(x, coefs[m], a0, b0)
        hi = _inverse_filter_span(x, coefs[m + 1], a0, b0)
        alpha = np.arange(b0 - a0) / (b0 - a0)
        res[a0:b0] = (1.0 - alpha) * lo + alpha * hi
    return res


# ---------------------------------------------------------------------------
# line spectral pairs
# ---------------------------------------------------------------------------


@dataclass
class LspVector:
    frequencies: np.ndarray  # strictly increasing, in (0, pi)

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=np.float64)
        f = self.frequencies
        if f.ndim != 1 or len(f) < 1:
            raise ValidationError("LSP vector must hold at least one frequency")
        if f[0] <= 0.0 or f[-1] >= np.pi or np.any(np.diff(f) <= 0):
            raise ValidationError("LSP frequencies must be strictly increasing in (0, pi)")

    @property
    def order(self) -> int:
        return len(self.frequencies)


def _deconv_unit_root(poly: np.ndarray, root: float) -> np.ndarray:
    # synthetic division by (1 - root * z^-1) for root = +/-1
    out = np.empty(len(poly) - 1, dtype=poly.dtype)
    acc = poly.dtype.type(0.0)
    for i in range(len(out)):
        acc = poly[i] + root * acc
        out[i] = acc
    return out


def _cheb_series(g: np.ndarray) -> np.ndarray:
    # symmetric poly of even degree 2n evaluated on the unit circle:
    # e^{jnw} G(e^{-jw}) = c[0] + sum_d 2 c[d] cos(dw) with c[d] = g[n-d]
    n = (len(g) - 1) // 2
    c = np.empty(n + 1)
    c[0] = g[n]
    c[1:] = 2.0 * g[n - 1::-1]
    return c


def _roots_on_circle(g: np.ndarray) -> np.ndarray:
    """Roots in (0, pi) of a symmetric even-degree polynomial.

    In x = cos w the polynomial is a Chebyshev series (Kabal & Ramachandran,
    "The computation of line spectral frequencies using Chebyshev
    polynomials", IEEE TASSP 1986), so its roots are the eigenvalues of the
    series' colleague matrix (Good, "The colleague matrix, a Chebyshev
    analogue of the companion matrix", Q. J. Math. 1961).  One Newton step,
    evaluated in extended precision, polishes them."""
    if len(g) < 3:
        return np.empty(0)
    c = _cheb_series(g)
    x = np.linalg.eigvals(chebyshev.chebcompanion(c))
    # a minimum-phase model puts every root in [-1, 1]; near-double roots
    # split into complex pairs with small imaginary parts
    off = np.abs(x.imag) > 1e-6
    x = x.real.astype(np.longdouble)
    slope = chebyshev.chebval(x, chebyshev.chebder(c))
    x = x - chebyshev.chebval(x, c) / np.where(slope == 0.0, np.inf, slope)
    # an eigenvalue of a root near 0 or pi can land ~1e-7 past +/-1, so the
    # range is checked on the polished root; one exactly at +/-1 is valid
    off |= np.abs(x) > 1.0 + 1e-9
    if np.any(off):
        raise ValidationError(
            f"{int(np.count_nonzero(off))} of {len(x)} line spectral roots lie "
            f"off the unit circle; model is not minimum phase"
        )
    w = np.arccos(np.clip(x.astype(np.float64), -1.0, 1.0))
    return np.sort(np.clip(w, 1e-12, np.pi - 1e-12))


def _refine_circle_roots(g: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Fit the roots to the deflated coefficients themselves.

    The series Newton step answers 'where does the evaluated series vanish',
    and that evaluation cancels catastrophically for models whose
    coefficients dwarf the series values (crowded low-frequency poles).
    Rebuilding from candidate roots has no such cancellation, so a short
    Gauss-Newton pass on the rebuilt-minus-target coefficients recovers the
    digits the series evaluation cannot see."""
    n = len(roots)
    if n == 0:
        return np.asarray(roots, dtype=np.float64)
    target = np.asarray(g, dtype=np.longdouble)
    # stop two orders under the documented round-trip contract; pipeline
    # models land near 1e-10 from the series roots alone and skip the fit
    floor = max(1e-8, 1e-13 * float(np.max(np.abs(target))))

    def rebuild(w):
        resid = _poly_from_circle_roots(w) - target
        return resid, float(np.max(np.abs(resid)))

    w = np.array(roots, dtype=np.float64)
    resid, err = rebuild(w)
    best_err, best_w = err, w.copy()
    for _ in range(6):
        if err < floor:
            break
        # d/dw_i of the product: the other quadratics times 2 sin(w_i) z^-1
        cols = [2.0 * np.sin(w[i]) * np.convolve(
                    _poly_from_circle_roots(np.delete(w, i)), [0.0, 1.0, 0.0])
                for i in range(n)]
        jac = np.stack(cols, axis=1).astype(np.float64)
        # the jacobian condition reaches 1e12 for crowded roots; truncating
        # weak directions keeps the noise they carry out of the step, and the
        # residual those directions could fix is below the floor anyway
        step, *_ = np.linalg.lstsq(jac, np.asarray(resid, dtype=np.float64),
                                   rcond=1e-10)
        if not np.all(np.isfinite(step)):
            break
        improved = False
        for scale in (1.0, 0.5, 0.25, 0.125):
            trial = np.clip(w - scale * step, 1e-12, np.pi - 1e-12)
            resid_t, err_t = rebuild(trial)
            if err_t < err:
                w, resid, err = trial, resid_t, err_t
                improved = True
                break
        if not improved:
            break
        if err < best_err:
            best_err, best_w = err, w.copy()
    return np.sort(best_w)


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


def lpc_to_lsp(m: LpcModel) -> LspVector:
    """Line spectral frequencies of a minimum-phase LPC model.

    The sum and difference polynomials are written as Chebyshev series in
    cos w (Kabal & Ramachandran, IEEE TASSP 1986) and their roots taken from
    the colleague matrix (Good, Q. J. Math. 1961); see _roots_on_circle.
    Frequencies of the sum polynomial occupy the even vector slots and those
    of the difference polynomial the odd slots; strict interlacing is
    validated (pairs glued by rounding are split by one ulp)."""
    p = m.order
    # the symmetric extension and its deflation run in extended precision;
    # the series coefficients are the accuracy ceiling for every root
    ext = np.append(m.a.astype(np.longdouble), np.longdouble(0.0))
    psum = ext + ext[::-1]
    qdif = ext - ext[::-1]
    if p % 2 == 0:
        psum = _deconv_unit_root(psum, -1.0)   # drop root at w = pi
        qdif = _deconv_unit_root(qdif, 1.0)    # drop root at w = 0
    else:
        qdif = _deconv_unit_root(_deconv_unit_root(qdif, 1.0), -1.0)
    psum = 0.5 * (psum + psum[::-1])  # kill rounding asymmetry
    qdif = 0.5 * (qdif + qdif[::-1])
    wp = _refine_circle_roots(psum, _roots_on_circle(psum))
    wq = _refine_circle_roots(qdif, _roots_on_circle(qdif))
    freqs = np.empty(p)
    freqs[0::2] = wp
    freqs[1::2] = wq
    return LspVector(_nudge_increasing(freqs, 1e-9))


def _poly_from_circle_roots(w: np.ndarray) -> np.ndarray:
    # extended precision keeps the repeated products from eroding high-order
    # coefficients (clustered roots make float64 lose ~9 digits at order 40)
    poly = np.array([1.0], dtype=np.longdouble)
    for wi in w:
        quad = np.array([1.0, -2.0 * np.cos(np.longdouble(wi)), 1.0], dtype=np.longdouble)
        poly = np.convolve(poly, quad)
    return poly


def lsp_to_lpc(v: LspVector) -> LpcModel:
    """Rebuild the unit-gain LPC model from line spectral frequencies."""
    p = v.order
    psum = _poly_from_circle_roots(v.frequencies[0::2])
    qdif = _poly_from_circle_roots(v.frequencies[1::2])
    one = np.longdouble(1.0)
    if p % 2 == 0:
        psum = np.convolve(psum, [one, one])
        qdif = np.convolve(qdif, [one, -one])
    else:
        qdif = np.convolve(qdif, [one, 0.0 * one, -one])
    a = (0.5 * (psum + qdif)[:p + 1]).astype(np.float64)
    return LpcModel(order=p, a=a, gain=1.0)


def lpc_envelope(m: LpcModel, n_bins: int, fft_size: int) -> np.ndarray:
    """Log-magnitude envelope log(gain) - log|A| on the rfft bin grid."""
    if len(m.a) > fft_size:
        raise ValidationError(f"fft_size {fft_size} too small for order {m.order}")
    if n_bins > fft_size // 2 + 1:
        raise ValidationError(f"cannot produce {n_bins} bins from fft_size {fft_size}")
    response = np.abs(np.fft.rfft(m.a, fft_size)[:n_bins])
    return np.log(max(m.gain, EPS_MAG)) - np.log(np.maximum(response, ENV_GUARD))


# ---------------------------------------------------------------------------
# mel cepstrum
# ---------------------------------------------------------------------------


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(n_bins: int, fs: float, n_mels: int) -> np.ndarray:
    """Triangular filters on a mel-spaced grid over [0, fs/2], each row
    normalized to unit sum so a flat spectrum yields equal band energies."""
    if n_bins < 2:
        raise ValidationError("need at least 2 spectral bins")
    f = np.linspace(0.0, fs / 2.0, n_bins)
    edges = _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(fs / 2.0)), n_mels + 2))
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


def mel_cepstrum(log_mag: np.ndarray, fs: float, n_mels: int = 40,
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
    return scipy.fft.dct(band, type=2, norm="ortho", axis=-1)[..., :order + 1]


# ---------------------------------------------------------------------------
# fallback F0 tracker
# ---------------------------------------------------------------------------


def estimate_f0_autocorr(w: Waveform, frame_shift_s: float = 0.005,
                         f0_min: float = 50.0, f0_max: float = 500.0,
                         voicing_threshold: float = 0.3):
    """Normalized-autocorrelation F0 tracker, used when no reference contour
    is supplied.  Returns an F0Contour covering the whole waveform."""
    from .signal_io import F0Contour

    fs = w.fs
    x = w.samples
    if not 0.0 < f0_min < f0_max:
        raise ValidationError(f"need 0 < f0_min < f0_max, got ({f0_min}, {f0_max})")
    if f0_max > fs / 4.0:
        raise ValidationError(f"f0_max {f0_max} above fs/4 = {fs / 4}")
    lag_min = int(np.floor(fs / f0_max))
    lag_max = int(np.ceil(fs / f0_min))
    half = lag_max
    shift = int(round(frame_shift_s * fs))
    n_frames = max(1, int(np.ceil(len(x) / shift)))
    values = np.zeros(n_frames)
    for m in range(n_frames):
        c = m * shift
        a, b = max(0, c - half), min(len(x), c + half)
        seg = x[a:b]
        if len(seg) <= lag_min + 2 or np.max(np.abs(seg)) < 1e-8:
            continue
        seg = seg - np.mean(seg)
        hi = min(lag_max, len(seg) - 1)
        if hi <= lag_min:
            continue
        nfft = 1 << int(np.ceil(np.log2(2 * len(seg))))
        raw = np.fft.irfft(np.abs(np.fft.rfft(seg, nfft)) ** 2)[:len(seg)]
        energy = np.concatenate([[0.0], np.cumsum(seg * seg)])
        total = energy[-1]
        lags = np.arange(lag_min, hi + 1)
        e_head = energy[len(seg) - lags]
        e_tail = total - energy[lags]
        rho = raw[lags] / np.sqrt(e_head * e_tail + 1e-20)
        pk = float(np.max(rho))
        if pk >= voicing_threshold:
            # lags at multiples of the period tie on periodic signals;
            # take the shortest lag within 1% of the peak
            best = int(np.flatnonzero(rho >= pk - 0.01 * abs(pk))[0])
            values[m] = fs / lags[best]
    values = scipy.signal.medfilt(values, kernel_size=3)
    values[values > 0] = np.clip(values[values > 0], f0_min, f0_max)
    return F0Contour(values, frame_shift_s)
