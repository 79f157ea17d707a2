import itertools
import warnings

import numpy as np
import pytest

from gswf import DetectionError, F0Contour, ValidationError, Waveform
from gswf.gci import (UNVOICED_SHIFT_S, GciTrack, _skewness, _voiced_runs, detect_gci,
                      find_intervals, mean_based_signal, merge_marks, select_candidates,
                      viterbi_select, write_gci_track)
from gswf.metrics import align_gci
from signals import pulse_train, speech_like


# ------------------------------------------------------------------- track

def test_track_validates_ordering_and_shape():
    GciTrack(np.array([10, 20, 30]), np.array([True, True, False]))
    with pytest.raises(ValidationError):
        GciTrack(np.array([10, 10]), np.array([True, True]))
    with pytest.raises(ValidationError):
        GciTrack(np.array([-1, 5]), np.array([True, True]))
    with pytest.raises(ValidationError):
        GciTrack(np.array([1, 5]), np.array([True]))


def test_track_file_roundtrip(tmp_path):
    t = GciTrack(np.array([5, 100, 450]), np.array([False, True, True]))
    path = str(tmp_path / "t.gci")
    write_gci_track(path, t)
    back = np.loadtxt(path, dtype=np.int64, ndmin=2)
    assert back.tolist() == [[5, 0], [100, 1], [450, 1]]


# --------------------------------------------------------- mean-based signal

def test_mean_based_signal_oscillates_at_pitch_rate():
    fs = 16000
    f0 = 125.0
    t = np.arange(8000) / fs
    x = np.sin(2 * np.pi * f0 * t) + 0.4 * np.sin(2 * np.pi * 3 * f0 * t + 1.0)
    y = mean_based_signal(Waveform(x, fs), fs / f0)
    # zero crossings of the smoothed signal come in pitch-period pairs
    crossings = np.flatnonzero(np.diff(np.signbit(y[500:-500])))
    rate = np.mean(np.diff(crossings)) * 2
    assert rate == pytest.approx(fs / f0, rel=0.05)


def test_mean_based_signal_rejects_degenerate_windows():
    with pytest.raises(ValidationError):
        mean_based_signal(Waveform(np.zeros(100), 16000), 0.2)
    with pytest.raises(ValidationError):
        mean_based_signal(Waveform(np.zeros(10), 16000), 100.0)


# ----------------------------------------------------------------- intervals

def test_find_intervals_min_to_next_max():
    y = np.sin(2 * np.pi * np.arange(480) / 160)  # maxima 40+160k, minima 120+160k
    out = find_intervals(y, 0, 480)
    # two complete min->max half-cycles fit; the third minimum at 440 has no
    # following maximum inside the region
    assert out == [(120, 200), (280, 360)]
    for (a, b), (c, d) in zip(out[:-1], out[1:]):
        assert b < c  # strict ordering keeps candidate sets non-overlapping


def test_find_intervals_empty_for_monotone_and_constant():
    assert find_intervals(np.arange(50, dtype=float), 0, 50) == []
    assert find_intervals(np.zeros(50), 0, 50) == []


def test_find_intervals_respects_region_bounds():
    y = np.sin(2 * np.pi * np.arange(400) / 100)
    inside = find_intervals(y, 100, 300)
    for a, b in inside:
        assert 100 <= a < b < 300


def _intervals_by_scan(y, lo, hi):
    # reference: a per-sample scan that remembers the latest strict minimum
    # and pairs it with the next strict maximum
    out = []
    a, b = max(0, int(lo)), min(len(y), int(hi))
    pending = None
    for i in range(a + 1, b - 1):
        if y[i] < y[i - 1] and y[i] < y[i + 1]:
            pending = i
        elif y[i] > y[i - 1] and y[i] > y[i + 1] and pending is not None:
            out.append((pending, i))
            pending = None
    return out


def test_find_intervals_equals_the_per_sample_scan():
    rng = np.random.default_rng(15)
    for _ in range(300):
        n = int(rng.integers(0, 120))
        y = np.round(rng.normal(size=n), 1)  # rounding leaves plateaus
        # regions clipped at both ends, empty, or shorter than 3 samples
        regions = [(int(rng.integers(-10, n + 3)), int(rng.integers(-3, n + 10)))
                   for _ in range(int(rng.integers(0, 4)))]
        regions += [(n // 2, n // 2 + 2), (-5, n + 5)]
        for lo, hi in regions:
            got = find_intervals(y, lo, hi)
            assert got == _intervals_by_scan(y, lo, hi)
            assert all(type(v) is int for pair in got for v in pair)


# ---------------------------------------------------------------- candidates

def test_select_candidates_top_m_frozen():
    residual = np.array([0.0, 0.0, 5.0, 0.0, 3.0, 0.0, 4.0, 0.0])
    out = select_candidates(residual, [(0, 7)], 2)
    assert out.shape == (1, 2) and out.dtype == np.int64
    assert sorted(out[0].tolist()) == [2, 6]
    assert residual[out[0, 0]] == 5.0


def test_select_candidates_min_separation():
    # two peaks 4 samples apart: below the 0.5 ms floor at 16 kHz
    residual = np.zeros(40)
    residual[10] = 5.0
    residual[14] = 4.9
    residual[25] = 3.0
    out = select_candidates(residual, [(0, 39)], 2, min_sep_samples=8)
    assert out[0].tolist() == [10, 25]


def test_select_candidates_small_interval_yields_fewer():
    residual = np.array([1.0, 2.0, 3.0])
    out = select_candidates(residual, [(0, 2)], 5, min_sep_samples=2)
    assert np.count_nonzero(out[0] >= 0) == 2  # 2 and 0 only
    assert out[0].tolist() == [2, 0, -1, -1, -1]


def _select_candidates_loop(residual, intervals, m, min_sep_samples):
    # reference: per interval, walk the samples in stable descending order
    # and keep each one that is far enough from every kept one
    out = np.full((len(intervals), m), -1, dtype=np.int64)
    for row, (a, b) in enumerate(intervals):
        chosen = []
        for idx in np.argsort(-residual[a:b + 1], kind="stable"):
            pos = a + int(idx)
            if all(abs(pos - c) >= min_sep_samples for c in chosen):
                chosen.append(pos)
                if len(chosen) == m:
                    break
        out[row, :len(chosen)] = chosen
    return out


def test_select_candidates_matches_greedy_loop():
    rng = np.random.default_rng(9)
    for trial in range(300):
        n = int(rng.integers(1, 200))
        # few distinct levels, so ties are common
        residual = rng.integers(-3, 4, n).astype(np.float64)
        cuts = np.sort(rng.choice(n, size=2 * int(rng.integers(1, max(2, n // 4))),
                                  replace=True))
        intervals = [(int(a), int(b)) for a, b in zip(cuts[0::2], cuts[1::2])]
        intervals.append((n - 1, n - 1))  # width 1
        m = int(rng.integers(1, 7))
        min_sep = trial % 13  # 0 through 12
        got = select_candidates(residual, intervals, m, min_sep)
        assert np.array_equal(got, _select_candidates_loop(residual, intervals, m, min_sep))


def test_select_candidates_validates_arguments():
    residual = np.arange(10, dtype=np.float64)
    with pytest.raises(ValidationError):
        select_candidates(residual, [(0, 5)], 0)
    for bad in ((-1, 5), (3, 10), (6, 5)):
        with pytest.raises(ValidationError):
            select_candidates(residual, [(0, 2), bad], 3)


# ------------------------------------------------------------------- viterbi

def _toy_cand(positions_per_interval):
    # one row per interval in descending residual order: here simply the
    # positions in descending order, padded with -1
    width = max(len(p) for p in positions_per_interval)
    cand = np.full((len(positions_per_interval), width), -1, dtype=np.int64)
    for row, positions in enumerate(positions_per_interval):
        cand[row, :len(positions)] = sorted(positions, reverse=True)
    return cand


def _path_cost(cand, fs, contour, path):
    cost = 0.0
    for i in range(1, len(path)):
        p0, p1 = cand[i - 1, path[i - 1]], cand[i, path[i]]
        if p1 - p0 <= 0:
            return np.inf
        f0 = fs / (p1 - p0)
        mid = 0.5 * (p0 + p1) / fs
        frame = min(int(np.floor(mid / contour.frame_shift_s + 0.5)), len(contour) - 1)
        dev = abs(contour.values[frame] - f0)
        cost += dev
    return cost


def _brute_force_cost(cand, fs, contour):
    ranges = [range(int(np.count_nonzero(row >= 0))) for row in cand]
    return min(_path_cost(cand, fs, contour, path)
               for path in itertools.product(*ranges))


def test_viterbi_prefers_reference_consistent_gaps():
    fs = 16000
    contour = F0Contour(np.full(20, 100.0), 0.005)
    # interval 2 offers a decoy that would imply 200 Hz
    cand = _toy_cand([[100], [180, 260], [420]])
    path = viterbi_select(cand, fs, contour)
    assert cand[np.arange(3), path].tolist() == [100, 260, 420]


def test_viterbi_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(17)
    fs = 16000
    for _ in range(40):
        n_iv = int(rng.integers(2, 6))
        cursor = 0
        pos_lists = []
        for _ in range(n_iv):
            cursor += int(rng.integers(120, 200))
            width = int(rng.integers(8, 40))
            k = int(rng.integers(1, 4))
            pts = rng.choice(np.arange(cursor, cursor + width), size=k, replace=False)
            pos_lists.append(sorted(int(p) for p in pts))
        contour = F0Contour(rng.uniform(80.0, 140.0, 50), 0.005)
        cand = _toy_cand(pos_lists)
        path = viterbi_select(cand, fs, contour)
        assert all(cand[i, k] >= 0 for i, k in enumerate(path))
        got_cost = _path_cost(cand, fs, contour, path)
        best_cost = _brute_force_cost(cand, fs, contour)
        assert got_cost == pytest.approx(best_cost, abs=1e-9)


def test_viterbi_tie_breaks_toward_larger_amplitude():
    fs = 16000
    # gaps 140 and 180 around a reference at the mean of their F0s
    cand = _toy_cand([[160], [300, 340]])
    g = fs / (np.array([300, 340]) - 160.0)
    ref = float(np.mean(g))
    contour = F0Contour(np.full(10, ref), 0.005)
    path = viterbi_select(cand, fs, contour)
    assert cand[1, path[1]] == 300
    # an exact tie: gaps 100 and 400 imply 160 and 40 Hz, both 60 Hz from
    # the reference, so the first (larger-residual) candidate wins
    contour = F0Contour(np.full(10, 100.0), 0.005)
    cand = np.array([[160, -1], [560, 260]])
    assert viterbi_select(cand, fs, contour)[1] == 0


def test_viterbi_no_valid_transition_raises():
    # every gap into the second interval is non-positive
    contour = F0Contour(np.full(10, 100.0), 0.005)
    with pytest.raises(DetectionError):
        viterbi_select(np.array([[260], [100]]), 16000, contour)
    with pytest.raises(DetectionError):
        viterbi_select(np.array([[100, 120], [100, -1]]), 16000, contour)


def test_viterbi_never_picks_padding():
    fs = 16000
    contour = F0Contour(np.full(20, 100.0), 0.005)
    # the only real candidates imply F0s far from the reference; padded
    # slots would be free if they were not excluded
    cand = np.array([[100, -1, -1], [110, -1, -1], [500, 130, -1]])
    path = viterbi_select(cand, fs, contour)
    assert all(cand[i, k] >= 0 for i, k in enumerate(path))
    assert viterbi_select(cand[:1], fs, contour) == [0]
    assert viterbi_select(np.empty((0, 5), dtype=np.int64), fs, contour) == []


def _viterbi_numpy(positions, fs, f0_ref):
    # the recursion as one numpy step per interval: the reference whose
    # paths and errors viterbi_select must keep
    from gswf.gci import _nearest_frame
    cand = np.asarray(positions, dtype=np.int64)
    if not len(cand):
        return []
    g0, g1 = cand[:-1, :, None], cand[1:, None, :]
    gap = g1 - g0
    valid = (gap > 0) & (g0 >= 0) & (g1 >= 0)
    f0 = fs / np.where(valid, gap, 1)
    mid = 0.5 * (g0.astype(np.float64) + g1.astype(np.float64)) / fs
    frames = _nearest_frame(mid, f0_ref.frame_shift_s, len(f0_ref))
    dev = np.abs(f0_ref.values[frames] - f0)
    trans = np.where(valid, dev, np.inf)
    cost = np.where(cand[0] >= 0, 0.0, np.inf)
    back = []
    for i, t in enumerate(trans, start=1):
        total = cost[:, None] + t
        choice = np.argmin(total, axis=0)
        cost = total[choice, np.arange(total.shape[1])]
        if not np.any(np.isfinite(cost)):
            raise DetectionError(f"no valid transition into interval {i}")
        back.append(choice)
    path = [int(np.argmin(cost))]
    for choice in reversed(back):
        path.append(int(choice[path[-1]]))
    path.reverse()
    return path


def _same_as_reference(cand, fs, contour):
    """Assert that viterbi_select returns the reference's path or raises
    its error message; True if the reference raised."""
    try:
        want = _viterbi_numpy(cand, fs, contour)
    except DetectionError as e:
        with pytest.raises(DetectionError) as got:
            viterbi_select(cand, fs, contour)
        assert str(got.value) == str(e)
        return True
    assert viterbi_select(cand, fs, contour) == want
    return False


def test_viterbi_matches_the_numpy_recursion_on_random_candidates():
    rng = np.random.default_rng(31)
    fs = 16000
    raised = 0
    for case in range(600):
        n_iv, m = int(rng.integers(1, 14)), case % 5 + 1
        step = int(rng.choice([20, 40, 80]))
        # positions on a coarse grid, so gaps repeat and costs tie exactly;
        # the cursor sometimes steps back, leaving only non-positive gaps
        cursor = 4 * step
        cand = np.full((n_iv, m), -1, dtype=np.int64)
        for row in cand:
            cursor += step * (-3 if rng.random() < 0.03 else int(rng.integers(2, 6)))
            k = int(rng.integers(0 if rng.random() < 0.02 else 1, m + 1))
            row[:k] = cursor + step * rng.integers(-2, 3, k)
        contour = F0Contour(rng.choice([0.0, 100.0, 160.0, 200.0, 400.0], 40), 0.005)
        raised += _same_as_reference(cand, fs, contour)
    assert 0 < raised < 300


def test_viterbi_matches_the_numpy_recursion_on_real_candidates():
    import gswf.gci
    from signals import low_pitch_onsets
    seen = []

    def spy(cand, fs, contour):
        seen.append((cand, fs, contour))
        return viterbi_select(cand, fs, contour)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gswf.gci, "viterbi_select", spy)
        for w, contour in (speech_like(), low_pitch_onsets()):
            detect_gci(w, contour)
    assert sum(len(cand) for cand, _, _ in seen) > 100
    for args in seen:
        assert not _same_as_reference(*args)


# ------------------------------------------------------------- full detector

def test_detect_gci_on_pulse_train_hits_known_instants():
    w, truth, contour = pulse_train()
    track = detect_gci(w, contour)
    voiced = track.instants[track.voiced]
    pi, ri = align_gci(voiced, truth)
    assert len(pi) / len(truth) >= 0.98
    dev = np.abs(voiced[pi] - truth[ri])
    assert np.mean(dev) / w.fs < 0.00025


def _scipy_skew(x):
    # reference; scipy warns of precision loss on nearly constant input
    from scipy.stats import skew
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Precision loss", RuntimeWarning)
        return skew(x)


def test_skewness_is_scipy_stats_skew_bit_for_bit():
    # the polarity test flips the residual on skewness < 0, so the sign,
    # NaN included, must be scipy's: compare bits over random lengths,
    # scales, offsets, coarsely rounded values and constant inputs
    rng = np.random.default_rng(15)
    cases = [np.zeros(7), np.full(300, -2.5), np.full(1, 3.0), np.array([1e3, 1e3 + 1e-12])]
    for _ in range(3000):
        n = int(rng.integers(1, 5001)) if rng.random() < 0.3 else int(rng.integers(1, 60))
        x = rng.standard_gamma(rng.uniform(0.5, 5.0), size=n) * rng.choice([1.0, -1.0])
        x *= 10.0 ** rng.uniform(-8.0, 3.0)
        if rng.random() < 0.3:
            x += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 8.0)
        if rng.random() < 0.3:
            x = np.round(x, int(rng.integers(0, 4)))
        cases.append(x)
    nans = 0
    for x in cases:
        got, want = np.float64(_skewness(x)), np.float64(_scipy_skew(x))
        assert got.tobytes() == want.tobytes(), (len(x), got, want)
        nans += bool(np.isnan(want))
    assert 4 <= nans < len(cases) // 2  # constant and rounded-flat inputs give NaN


def test_detect_gci_handles_inverted_polarity():
    w, truth, contour = pulse_train()
    flipped = Waveform(-w.samples, w.fs)
    track = detect_gci(flipped, contour)
    voiced = track.instants[track.voiced]
    pi, _ = align_gci(voiced, truth)
    assert len(pi) / len(truth) >= 0.98


def test_detect_gci_marks_unvoiced_regions_at_constant_rate():
    w, contour = speech_like()
    track = detect_gci(w, contour)
    assert np.all(np.diff(track.instants) > 0)
    assert track.instants[0] >= 0 and track.instants[-1] < len(w.samples)
    unvoiced = track.instants[~track.voiced]
    # marks inside the fricative stretch run at the 5 ms default
    inside = unvoiced[(unvoiced > int(0.45 * w.fs)) & (unvoiced < int(0.55 * w.fs))]
    assert len(inside) >= 10
    gaps = np.diff(inside)
    assert np.all(gaps == int(0.005 * w.fs))


def test_detect_gci_marks_voiced_runs_without_cycles_at_constant_rate():
    # one- and two-frame voiced runs inside the fricative stretch hold no
    # [minimum, maximum] interval of the mean-based signal, so they take
    # unvoiced marks at the constant rate like the frames around them
    w, contour = speech_like()
    values = contour.values.copy()
    runs = [(84, 85), (97, 98), (103, 105), (110, 111), (115, 117)]
    for a, b in runs:
        values[a:b] = 120.0
    contour = F0Contour(values, contour.frame_shift_s)
    smooth = mean_based_signal(w, w.fs / float(np.mean(values[contour.voiced])))
    shift = int(round(contour.frame_shift_s * w.fs))
    assert all(find_intervals(smooth, a * shift, b * shift) == [] for a, b in runs)
    track = detect_gci(w, contour)
    lo, hi = int(0.40 * w.fs), int(0.60 * w.fs)
    stretch = (track.instants >= lo) & (track.instants < hi)
    assert not np.any(track.voiced[stretch])
    step = int(round(UNVOICED_SHIFT_S * w.fs))
    assert np.array_equal(track.instants[stretch], np.arange(lo, hi, step))


def test_detect_gci_keeps_unvoiced_marks_clear_of_voiced_instants():
    w, contour = speech_like()
    track = detect_gci(w, contour)
    voiced_pos = track.instants[track.voiced]
    unvoiced_pos = track.instants[~track.voiced]
    min_gap = int(0.001 * w.fs)
    for p in unvoiced_pos:
        assert np.min(np.abs(voiced_pos - p)) >= min_gap


def test_detect_gci_fully_unvoiced_contour():
    rng = np.random.default_rng(18)
    w = Waveform(rng.normal(0.0, 0.05, 8000), 16000)
    contour = F0Contour(np.zeros(100), 0.005)
    track = detect_gci(w, contour)
    assert not np.any(track.voiced)
    assert np.all(np.diff(track.instants) == 80)


def _voiced_runs_loop(voiced, shift, fs, n_samples):
    # reference: walk the frames, and round and clip each run's edges
    runs, start = [], None
    for k, v in enumerate(voiced.tolist() + [False]):
        if v and start is None:
            start = k
        elif not v and start is not None:
            lo = min(n_samples, int(round(start * shift * fs)))
            hi = min(n_samples, int(round(k * shift * fs)))
            if hi > lo:
                runs.append((lo, hi))
            start = None
    return runs


def test_voiced_runs_match_the_frame_walk():
    rng = np.random.default_rng(29)
    seen = dict.fromkeys(("first frame", "last frame", "clipped", "dropped"), 0)
    for trial in range(400):
        fs = int(rng.choice([8000, 11025, 16000, 22050, 44100, 48000]))
        shift = float(rng.choice([0.0032, 0.005, 0.0075, 0.01]))
        n_frames = int(rng.integers(0, 60))
        # runs of random length, the contour up to 20% longer or shorter
        # than the wav
        voiced = np.repeat(rng.random(n_frames) < 0.5, rng.integers(1, 6, n_frames))
        n_samples = int(len(voiced) * shift * fs * rng.uniform(0.8, 1.2))
        got = _voiced_runs(voiced, shift, fs, n_samples)
        want = _voiced_runs_loop(voiced, shift, fs, n_samples)
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert got.tolist() == [list(r) for r in want], (trial, fs, shift)
        edges = np.round(np.flatnonzero(np.diff(np.r_[0, voiced.astype(np.int8), 0]))
                         * shift * fs)
        seen["first frame"] += bool(len(voiced) and voiced[0])
        seen["last frame"] += bool(len(voiced) and voiced[-1])
        seen["clipped"] += bool(np.any((edges[0::2] < n_samples) & (edges[1::2] > n_samples)))
        seen["dropped"] += int(np.sum(edges[0::2] >= n_samples))
    assert min(seen.values()) >= 20, seen


def _merge_marks_loop(positions, voiced, min_gap):
    # reference: one mark at a time against every voiced mark
    marks = sorted(zip(positions.tolist(), voiced.tolist()),
                   key=lambda mk: (mk[0], not mk[1]))
    voiced_pos = np.array([p for p, v in marks if v], dtype=np.int64)
    out = []
    for pos, flag in marks:
        if not flag and len(voiced_pos) and np.min(np.abs(voiced_pos - pos)) < min_gap:
            continue
        if out and pos <= out[-1][0]:
            continue
        out.append((pos, flag))
    return [p for p, _ in out], [v for _, v in out]


def test_merge_marks_matches_loop_reference():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(0, 40))
        positions = rng.integers(0, 300, n)
        voiced = rng.random(n) < (0.0, 0.3, 1.0)[trial % 3]
        pos, flags = merge_marks(positions, voiced, 16)
        ref_pos, ref_flags = _merge_marks_loop(positions, voiced, 16)
        assert pos.tolist() == ref_pos
        assert flags.tolist() == ref_flags
