"""Signal-processing primitives: phases, spectra, LPC/LSP, mel cepstra.

Everything operates on float64 arrays.  Magnitudes live in the natural-log
domain with a fixed floor so silence stays finite; phases live in (-pi, pi].
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RowError, ValidationError
from .signal_io import Waveform

EPS_MAG = 1e-10    # magnitude floor before taking logs
ENV_GUARD = 1e-12  # |A(e^jw)| guard in the LSP envelope
TWO_PI = 2.0 * np.pi
SILENT_R0 = 1e-20  # autocorrelation energy below which a frame is silence
WHITE_NOISE = 1e-9  # r[0] lift of a Levinson rerun on a row that clamped
MEL_BANDS = 40     # mel bands of the cepstra the metrics compare
MEL_ORDER = 24     # cepstral coefficients c[1..MEL_ORDER] after c[0]
RESIDUAL_FRAME_S = 0.025  # LPC frame of lpc_residual
RESIDUAL_SHIFT_S = 0.005  # hop between lpc_residual's frames

# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


def wrap_phase(x):
    """Map angles into (-pi, pi].  Accepts scalars or arrays.

    Inputs inside (-2 pi, 2 pi), such as angles and their differences, take
    one add: fmod is exact there, so x + 2 pi (x < 0) has np.mod's bits,
    -0.0 mapping to +0.0 as in numpy's divmod.  Larger inputs, such as the
    cumulative sums of decode_phase, go through np.mod."""
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
    # the recursion over the stack: (a, k, clamped, collapsed)
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
    return a, refl, clamped, collapsed


def lpc_predictors(r: np.ndarray, order: int) -> tuple:
    """Prediction error polynomials (rows, order + 1) and reflection
    coefficients (rows, order) of the autocorrelation rows r[:, 0..order],
    by one Levinson-Durbin recursion over the stack.

    A row with r[0] <= SILENT_R0 (silence) gets the flat predictor 1 and
    k = 0.  A row whose recursion meets a reflection coefficient of
    magnitude >= 1 (a singular autocorrelation, or one float64 rounding
    made indefinite) runs again alone with white-noise correction,
    r[0] * (1 + WHITE_NOISE) (Kabal, ICASSP 2003); rows that do not clamp
    keep their bits.  A coefficient that reaches magnitude 1 even then is
    clamped to +/-0.999.  Every returned k has magnitude < 1, but the
    rounded polynomial of a row that clamps twice need not be minimum
    phase.  A RowError names the rows whose recursion collapsed."""
    silent = r[:, 0] <= SILENT_R0
    flat = np.zeros(order + 1)
    flat[0] = 1.0
    # a unit impulse's autocorrelation stands in for silent rows in the
    # recursion, which gives k = 0; their polynomial, whose coefficients come
    # out as -0.0, is replaced by the exact flat predictor
    r = np.where(silent[:, None], flat, r[:, :order + 1])
    a, k, clamped, collapsed = _levinson(r, order)
    if np.any(clamped):
        redo = np.flatnonzero(clamped)
        lifted = r[redo]
        lifted[:, 0] *= 1.0 + WHITE_NOISE
        a[redo], k[redo], _, collapsed[redo] = _levinson(lifted, order)
    _check_rows(collapsed, "Levinson recursion collapsed: r is not positive definite")
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


def lpc_residual(w: Waveform, order: int) -> np.ndarray:
    """Inverse-filter a waveform with frame-wise LPC models.

    Models are fitted on Hann-windowed frames of RESIDUAL_FRAME_S, one every
    RESIDUAL_SHIFT_S; the unwindowed signal is then filtered, cross-fading
    linearly between the filters of adjacent frames.  Output has the same
    length as the input.

    The frame autocorrelations and the filtering between the first and last
    frame centers are array passes over the frame stack and the sliding
    windows of the signal, with the bits of one np.correlate per frame and
    one FIR convolution per frame."""
    x = w.samples
    fs = w.fs
    frame_len = int(round(RESIDUAL_FRAME_S * fs))
    shift = int(round(RESIDUAL_SHIFT_S * fs))
    if frame_len <= order + 1:
        raise ValidationError(f"frame of {frame_len} samples too short for order {order}")
    if shift < 1:
        raise ValidationError(f"residual frame shift is under one sample at {fs} Hz")
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


def _nudge_rows(freqs: np.ndarray, tol: float) -> np.ndarray:
    """Repair, in place, neighbors glued together by rounding in the rows
    out of order or out of (0, pi).  Interlacing of the true roots is
    guaranteed for minimum-phase models, so order violations within tol are
    numerical; anything larger is a genuine contract breach, and a RowError
    names the rows."""
    bad, reason = [], ""
    inside = np.diff(freqs, axis=1, prepend=0.0, append=np.pi) > 0
    for i in np.flatnonzero(~np.all(inside, axis=1)):
        row = freqs[i]
        for j in range(1, len(row)):
            if row[j] <= row[j - 1]:
                if row[j - 1] - row[j] > tol:
                    bad.append(i)
                    reason = reason or (f"line spectral frequencies out of order by "
                                        f"{row[j - 1] - row[j]:.3e} at index {j}")
                    break
                row[j] = np.nextafter(row[j - 1], np.inf)
        else:
            if not 0.0 < row[0] <= row[-1] < np.pi:
                bad.append(i)
                reason = reason or "line spectral frequencies must stay inside (0, pi)"
    if bad:
        raise RowError(reason, bad, len(freqs))
    return freqs


def _eigvalsh_fails(a: np.ndarray) -> bool:
    try:
        np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError:
        return True
    return False


def reflection_to_lsp_batch(k: np.ndarray) -> np.ndarray:
    """Line spectral frequencies of the models with reflection coefficients
    k (rows, p), |k| < 1 and p even: (rows, p), strictly increasing in
    (0, pi), the sum polynomial's in the even slots.

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
    cos^2(theta / 2) are the eigenvalues of the p/2-sized tridiagonal
    B^T B: diagonal g_{2l-1}^2 + g_{2l}^2 and off-diagonal g_{2l} g_{2l+1}.
    One eigvalsh call takes both polynomials of every row as a
    (rows, 2, p/2, p/2) stack of dense blocks; LAPACK's dsyevd leaves an
    already tridiagonal matrix as it is and calls dsterf on it, so the
    eigenvalues are those of a per-block dsterf, bit for bit.  Sorted, a
    row's p angles are its p frequencies.  Pairs glued by rounding are
    split by one ulp; a RowError names the rows that fail."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[1] < 1:
        raise ValidationError("reflection_to_lsp_batch: need a (rows, p) array")
    _check_rows(~np.all(np.abs(k) < 1.0, axis=1),
                "reflection coefficient of magnitude >= 1: model is not minimum phase")
    rows, p = k.shape
    if p % 2:
        raise ValidationError(f"reflection_to_lsp_batch: need an even order, got {p}")
    half = p // 2
    # links g_1..g_p of the sum and the difference polynomial of each row;
    # the difference polynomial's last link is zero
    c = np.sqrt((1.0 - k) / 2.0)
    g = np.zeros((rows, 2, p))
    g[:, :, :p - 1] = (c[:, :-1] * np.sqrt((1.0 + k[:, 1:]) / 2.0))[:, None, :]
    g[:, 0, p - 1] = c[:, -1]
    blocks = np.zeros((rows, 2, half, half))
    idx = np.arange(half)
    blocks[:, :, idx, idx] = g[:, :, 0::2] ** 2 + g[:, :, 1::2] ** 2
    blocks[:, :, idx[1:], idx[:-1]] = blocks[:, :, idx[:-1], idx[1:]] = (
        g[:, :, 1:-1:2] * g[:, :, 2::2])
    try:
        lam = np.linalg.eigvalsh(blocks).reshape(rows, -1)
    except np.linalg.LinAlgError:
        # the stack fails as a whole: find the rows that fail on their own
        _check_rows(np.array([_eigvalsh_fails(b) for b in blocks]),
                    "tridiagonal eigenvalue iteration did not converge")
        raise
    theta = np.sort(2.0 * np.arccos(np.sqrt(np.clip(lam, 0.0, 1.0))), axis=1)
    return _nudge_rows(np.clip(theta, 1e-12, np.pi - 1e-12), 1e-9)


def _poly_from_circle_roots(w: np.ndarray) -> np.ndarray:
    """Product of the quadratics 1 - 2 cos(w_i) z^-1 + z^-2 over the last
    axis: (..., k) -> (..., 2k + 1).

    Extended precision keeps the repeated products from eroding high-order
    coefficients (clustered roots make float64 lose ~9 digits at order 40).
    Each coefficient adds p[j-2], then -2 cos(w_i) p[j-1], then p[j], the
    order np.convolve sums in, so one row equals the convolution chain."""
    w = np.asarray(w)
    rows, k = int(np.prod(w.shape[:-1])), w.shape[-1]
    q = -2.0 * np.cos(w.astype(np.longdouble)).reshape(rows, k).T
    # coefficient-major buffers, written in turn: the coefficients sit after
    # two zeros, with zeros after them too
    a, b = np.zeros((2, 2 * k + 5, rows), dtype=np.longdouble)
    t = np.empty((2 * k + 3, rows), dtype=np.longdouble)
    a[2] = 1.0
    for i in range(k):
        n = 2 * i + 3
        np.multiply(q[i], a[1:n + 1], out=t[:n])
        np.add(a[:n], t[:n], out=t[:n])
        np.add(t[:n], a[2:n + 2], out=b[2:n + 2])
        a, b = b, a
    return a[2:2 * k + 3].T.reshape(w.shape[:-1] + (2 * k + 1,))


def lsp_to_lpc_batch(lsp: np.ndarray) -> np.ndarray:
    """Prediction error polynomials (rows, p + 1) of (rows, p) line
    spectral frequencies, p even, in one pass: one product of quadratics
    per half for the whole stack.  Neighbours glued by float32 rounding
    (out of order by at most 1e-4) are split by one ulp first; a RowError
    names the rows that fail."""
    f = np.array(lsp, dtype=np.float64)
    if f.shape[1] % 2:
        raise ValidationError(f"lsp_to_lpc_batch: need an even order, got {f.shape[1]}")
    _nudge_rows(f, 1e-4)
    # both products in one call, then times 1 + z^-1 and 1 - z^-1, the sums
    # np.convolve makes; the last term is not needed
    psum, qdif = _poly_from_circle_roots(np.stack([f[:, 0::2], f[:, 1::2]]))
    psum[:, 1:] += psum[:, :-1]
    qdif[:, 1:] -= qdif[:, :-1]
    return (0.5 * (psum + qdif)).astype(np.float64)


def lsp_envelope(lsp: np.ndarray, fft_size: int) -> np.ndarray:
    """Log-magnitude envelope -log|A| (rows, fft_size//2 + 1) on the rfft
    bins of (rows, p) line spectral frequencies, p even, from the product
    form of the prediction error polynomial on the unit circle (Soong &
    Juang, ICASSP 1984), with the sum polynomial's frequencies in the even
    slots:

        |A|^2 = cos^2(w/2) prod (2 cos w - 2 cos f_sum)^2
                + sin^2(w/2) prod (2 cos w - 2 cos f_dif)^2

    Neighbours glued by float32 rounding (out of order by at most 1e-4)
    are split by one ulp first, and a RowError names the rows that fail;
    |A| is floored at ENV_GUARD."""
    f = np.array(lsp, dtype=np.float64)
    p = f.shape[1]
    if p % 2:
        raise ValidationError(f"lsp_envelope: need an even order, got {p}")
    _nudge_rows(f, 1e-4)
    if p + 1 > fft_size:
        raise ValidationError(f"fft_size {fft_size} too small for order {p}")
    w = np.pi * np.arange(fft_size // 2 + 1) / (fft_size // 2)
    two_cos_w = 2.0 * np.cos(w)
    # one subtract and one multiply per factor pair over (rows, 2, bins):
    # the sum polynomial's factors, then the difference polynomial's
    two_cos_f = (2.0 * np.cos(f)).reshape(len(f), p // 2, 2).transpose(0, 2, 1)[..., None]
    prod = np.ones((len(f), 2, len(w)))
    term = np.empty_like(prod)
    for j in range(p // 2):
        np.subtract(two_cos_w, two_cos_f[:, :, j], out=term)
        prod *= term
    prod *= prod
    mag2 = np.cos(w / 2.0) ** 2 * prod[:, 0] + np.sin(w / 2.0) ** 2 * prod[:, 1]
    return -0.5 * np.log(np.maximum(mag2, ENV_GUARD ** 2))


# ---------------------------------------------------------------------------
# mel cepstrum
# ---------------------------------------------------------------------------


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def _mel_edges(fs: float) -> np.ndarray:
    return _mel_to_hz(np.linspace(0.0, float(_hz_to_mel(fs / 2.0)), MEL_BANDS + 2))


def mel_support(n_bins: int, fs: float) -> bool:
    """Whether every band of mel_filterbank(n_bins, fs) holds a bin.  The
    first band is the narrowest, since mel spacing widens with frequency,
    so it decides: it must hold the first bin above DC."""
    return fs / 2.0 / (n_bins - 1) < _mel_edges(fs)[2]


def mel_filterbank(n_bins: int, fs: float) -> np.ndarray:
    """MEL_BANDS triangular filters on a mel-spaced grid over [0, fs/2],
    each row normalized to unit sum so a flat spectrum yields equal band
    energies."""
    if n_bins < 2:
        raise ValidationError("need at least 2 spectral bins")
    f = np.linspace(0.0, fs / 2.0, n_bins)
    edges = _mel_edges(fs)
    bank = np.zeros((MEL_BANDS, n_bins))
    for b in range(MEL_BANDS):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        tri = np.minimum((f - lo) / (mid - lo), (hi - f) / (hi - mid))
        tri = np.maximum(tri, 0.0)
        total = tri.sum()
        if total <= 0.0:
            raise ValidationError(
                f"mel band {b} has no spectral support at fs {fs:g} Hz and "
                f"fft_size {2 * (n_bins - 1)}; raise fft_size"
            )
        bank[b] = tri / total
    return bank


@functools.lru_cache(maxsize=16)
def _mel_operator(n_bins: int, fs: float) -> tuple:
    # mel_filterbank as two weight rows, the even-numbered triangles in one
    # and the odd-numbered in the other (a triangle ends where the next but
    # one starts, so triangles of one parity never share a bin), the first
    # bin of each triangle's support, and the (MEL_ORDER + 1, MEL_BANDS)
    # orthonormal DCT-II basis; built on the first score, read-only
    bank = mel_filterbank(n_bins, fs)
    weights = np.stack([bank[0::2].sum(axis=0), bank[1::2].sum(axis=0)])
    starts = np.argmax(bank > 0.0, axis=1)
    k = np.arange(MEL_ORDER + 1)[:, None]
    m = np.arange(MEL_BANDS)
    basis = np.sqrt(2.0 / MEL_BANDS) * np.cos(np.pi * k * (2 * m + 1) / (2 * MEL_BANDS))
    basis[0] = np.sqrt(1.0 / MEL_BANDS)
    ops = (weights, starts[0::2], starts[1::2], basis)
    for a in ops:
        a.flags.writeable = False
    return ops


def mel_cepstrum(log_mag: np.ndarray, fs: float) -> np.ndarray:
    """Mel cepstrum of natural-log magnitude spectra along the last axis:
    mel_filterbank on the linear power spectrum, log band energies,
    orthonormal DCT-II, first MEL_ORDER + 1 coefficients (c[0] included).
    A (frames, bins) array gives one cepstrum per row.

    Every step runs in numpy's own loops, never BLAS (whose threaded gemm
    leaves a worker spinning after the call) or scipy: each band sums its
    triangle's bins with np.add.reduceat, one pass per triangle parity, and
    the DCT is an einsum against a cosine basis.  The weights and the basis
    are built once per (bins, fs)."""
    log_mag = np.asarray(log_mag, dtype=np.float64)
    weights, even, odd, basis = _mel_operator(log_mag.shape[-1], float(fs))
    power = np.exp(2.0 * log_mag)
    band = np.empty(log_mag.shape[:-1] + (MEL_BANDS,))
    # a run from one start to the next of its parity holds the triangle's
    # bins and zero-weight ones; the last run goes to the end
    band[..., 0::2] = np.add.reduceat(power * weights[0], even, axis=-1)
    band[..., 1::2] = np.add.reduceat(power * weights[1], odd, axis=-1)
    return np.einsum("...m,km->...k", np.log(np.maximum(band, EPS_MAG)), basis)
