import itertools

import numpy as np
import pytest

from gswf import (CandidateInterval, DetectionError, F0Contour, FormatError,
                  GciCandidateSet, GciTrack, PipelineConfig, ValidationError,
                  Waveform, align_gci, candidate_f0_grid, detect_gci,
                  find_intervals, mean_based_signal, read_gci_track,
                  select_candidates, viterbi_select, write_gci_track)
from gswf.gci import merge_marks
from signals import pulse_train, speech_like


# ------------------------------------------------------------------- track

def test_track_validates_ordering_and_shape():
    GciTrack(np.array([10, 20, 30]), np.array([True, True, False]), 16000)
    with pytest.raises(ValidationError):
        GciTrack(np.array([10, 10]), np.array([True, True]), 16000)
    with pytest.raises(ValidationError):
        GciTrack(np.array([-1, 5]), np.array([True, True]), 16000)
    with pytest.raises(ValidationError):
        GciTrack(np.array([1, 5]), np.array([True]), 16000)


def test_track_file_roundtrip(tmp_path):
    t = GciTrack(np.array([5, 100, 450]), np.array([False, True, True]), 16000)
    path = str(tmp_path / "t.gci")
    write_gci_track(path, t)
    back = read_gci_track(path, 16000)
    assert np.array_equal(back.instants, t.instants)
    assert np.array_equal(back.voiced, t.voiced)


def test_track_file_rejects_garbage(tmp_path):
    (tmp_path / "bad.gci").write_text("100 1\nten 0\n")
    with pytest.raises(FormatError) as err:
        read_gci_track(str(tmp_path / "bad.gci"), 16000)
    assert "2" in str(err.value)
    (tmp_path / "flag.gci").write_text("100 2\n")
    with pytest.raises(FormatError):
        read_gci_track(str(tmp_path / "flag.gci"), 16000)


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
    out = find_intervals(y, [(0, 480)])
    # two complete min->max half-cycles fit; the third minimum at 440 has no
    # following maximum inside the region
    assert out == [(120, 200), (280, 360)]
    for (a, b), (c, d) in zip(out[:-1], out[1:]):
        assert b < c  # strict ordering keeps candidate sets non-overlapping


def test_find_intervals_empty_for_monotone_and_constant():
    assert find_intervals(np.arange(50, dtype=float), [(0, 50)]) == []
    assert find_intervals(np.zeros(50), [(0, 50)]) == []


def test_find_intervals_respects_region_bounds():
    y = np.sin(2 * np.pi * np.arange(400) / 100)
    inside = find_intervals(y, [(100, 300)])
    for a, b in inside:
        assert 100 <= a < b < 300


# ---------------------------------------------------------------- candidates

def test_select_candidates_top_m_frozen():
    residual = np.array([0.0, 0.0, 5.0, 0.0, 3.0, 0.0, 4.0, 0.0])
    out = select_candidates(residual, [(0, 7)], 2)
    assert sorted(out[0].positions.tolist()) == [2, 6]
    assert out[0].amplitudes[0] == 5.0


def test_select_candidates_min_separation():
    # two peaks 4 samples apart: below the 0.5 ms floor at 16 kHz
    residual = np.zeros(40)
    residual[10] = 5.0
    residual[14] = 4.9
    residual[25] = 3.0
    out = select_candidates(residual, [(0, 39)], 2, min_sep_samples=8)
    assert out[0].positions.tolist() == [10, 25]


def test_select_candidates_small_interval_yields_fewer():
    residual = np.array([1.0, 2.0, 3.0])
    out = select_candidates(residual, [(0, 2)], 5, min_sep_samples=2)
    assert len(out[0].positions) == 2  # 2 and 0 only


def test_candidate_interval_validation():
    with pytest.raises(ValidationError):
        CandidateInterval(0, 10, np.array([12]), np.array([1.0]))
    with pytest.raises(ValidationError):
        CandidateInterval(0, 10, np.array([2, 3]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        GciCandidateSet([
            CandidateInterval(0, 10, np.array([5]), np.array([1.0])),
            CandidateInterval(10, 20, np.array([15]), np.array([1.0])),
        ], 16000)


# ------------------------------------------------------------------- viterbi

def _toy_cset(fs, positions_per_interval, amplitudes=None):
    intervals = []
    for k, positions in enumerate(positions_per_interval):
        pos = np.array(sorted(positions, reverse=True), dtype=np.int64)
        amp = (np.array(amplitudes[k], dtype=np.float64) if amplitudes
               else np.linspace(2.0, 1.0, len(pos)))
        lo, hi = int(min(positions)), int(max(positions))
        intervals.append(CandidateInterval(lo, hi, pos, amp))
    return GciCandidateSet(intervals, fs)


def _brute_force_cost(cset, contour, cost_norm="abs"):
    grids = candidate_f0_grid(cset)
    best = (np.inf, None)
    ranges = [range(len(iv.positions)) for iv in cset.intervals]
    for path in itertools.product(*ranges):
        cost = 0.0
        ok = True
        for i in range(1, len(path)):
            f0 = grids[i - 1][path[i - 1], path[i]]
            if not np.isfinite(f0):
                ok = False
                break
            p0 = cset.intervals[i - 1].positions[path[i - 1]]
            p1 = cset.intervals[i].positions[path[i]]
            mid = 0.5 * (p0 + p1) / cset.fs
            frame = min(int(np.floor(mid / contour.frame_shift_s + 0.5)),
                        len(contour) - 1)
            dev = abs(contour.values[frame] - f0)
            cost += dev * dev if cost_norm == "squared" else dev
        if ok and cost < best[0]:
            best = (cost, path)
    return best


def test_viterbi_prefers_reference_consistent_gaps():
    fs = 16000
    contour = F0Contour(np.full(20, 100.0), 0.005)
    # interval 2 offers a decoy that would imply 200 Hz
    cset = _toy_cset(fs, [[100], [180, 260], [420]])
    path = viterbi_select(cset, contour)
    chosen = [iv.positions[k] for iv, k in zip(cset.intervals, path)]
    assert chosen == [100, 260, 420]


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
        cset = _toy_cset(fs, pos_lists)
        path = viterbi_select(cset, contour)
        got_cost = _path_cost(cset, contour, path)
        best_cost, _ = _brute_force_cost(cset, contour)
        assert got_cost == pytest.approx(best_cost, abs=1e-9)


def _path_cost(cset, contour, path, cost_norm="abs"):
    grids = candidate_f0_grid(cset)
    cost = 0.0
    for i in range(1, len(path)):
        f0 = grids[i - 1][path[i - 1], path[i]]
        p0 = cset.intervals[i - 1].positions[path[i - 1]]
        p1 = cset.intervals[i].positions[path[i]]
        mid = 0.5 * (p0 + p1) / cset.fs
        frame = min(int(np.floor(mid / contour.frame_shift_s + 0.5)), len(contour) - 1)
        dev = abs(contour.values[frame] - f0)
        cost += dev * dev if cost_norm == "squared" else dev
    return cost


def test_viterbi_tie_breaks_toward_larger_amplitude():
    fs = 16000
    contour = F0Contour(np.full(10, 100.0), 0.005)
    # both second-interval candidates imply the same |F0 - ref|
    cset = _toy_cset(fs, [[160], [304, 336]], amplitudes=[[1.0], [2.0, 1.0]])
    # gaps 144 and 176 straddle 160 samples (100 Hz): |111.1-100| = 11.1,
    # |90.9-100| = 9.1, not a tie; build a genuine tie instead
    cset = _toy_cset(fs, [[160], [300, 340]], amplitudes=[[1.0], [2.0, 1.0]])
    g = fs / (np.array([300, 340]) - 160.0)
    ref = float(np.mean(g))
    contour = F0Contour(np.full(10, ref), 0.005)
    path = viterbi_select(cset, contour)
    assert cset.intervals[1].positions[path[1]] == 300  # larger amplitude wins


def test_viterbi_squared_norm_changes_tradeoffs():
    fs = 16000
    contour = F0Contour(np.full(40, 100.0), 0.005)
    cset = _toy_cset(fs, [[100], [240, 280], [420, 430]])
    for norm in ("abs", "squared"):
        path = viterbi_select(cset, contour, cost_norm=norm)
        cost = _path_cost(cset, contour, path, norm)
        best, _ = _brute_force_cost(cset, contour, norm)
        assert cost == pytest.approx(best, abs=1e-9)


def test_viterbi_no_valid_transition_raises(monkeypatch):
    # ordered intervals cannot produce non-positive gaps, so the dead-end
    # guard is only reachable with a doctored grid
    import gswf.gci as gci_mod
    fs = 16000
    contour = F0Contour(np.full(10, 100.0), 0.005)
    cset = _toy_cset(fs, [[100], [260]])
    monkeypatch.setattr(gci_mod, "candidate_f0_grid",
                        lambda cs: [np.full((1, 1), np.nan)])
    with pytest.raises(DetectionError):
        viterbi_select(cset, contour)


def test_candidate_grid_positive_gaps_are_finite():
    cset = _toy_cset(16000, [[100, 110], [240, 260]])
    grid = candidate_f0_grid(cset)[0]
    assert grid.shape == (2, 2)
    assert np.isfinite(grid).all()
    # positions are stored in descending amplitude order: [110, 100], [260, 240]
    assert grid[0, 0] == pytest.approx(16000 / (260 - 110), abs=1e-9)
    assert grid[1, 1] == pytest.approx(16000 / (240 - 100), abs=1e-9)


# ------------------------------------------------------------- full detector

def test_detect_gci_on_pulse_train_hits_known_instants():
    w, truth, contour = pulse_train()
    track = detect_gci(w, contour)
    voiced = track.instants[track.voiced]
    pairs = align_gci(voiced, truth)
    assert len(pairs) / len(truth) >= 0.98
    dev = np.array([abs(int(voiced[i]) - int(truth[j])) for i, j in pairs])
    assert np.mean(dev) / w.fs < 0.00025


def test_detect_gci_handles_inverted_polarity():
    w, truth, contour = pulse_train()
    flipped = Waveform(-w.samples, w.fs)
    track = detect_gci(flipped, contour)
    voiced = track.instants[track.voiced]
    pairs = align_gci(voiced, truth)
    assert len(pairs) / len(truth) >= 0.98


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
