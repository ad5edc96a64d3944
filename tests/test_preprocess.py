import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chrononet.data import edf
from chrononet.data.edf import recording_from_arrays
from chrononet.data.montage import (MontagePair, Recording,
                                    apply_montage, default_montage,
                                    parse_montage)
from chrononet.data.preprocess import (FIR_TAPS, WINDOW_SAMPLES, _lowpass_taps,
                                       compute_stats, cut_to_windows, extract_windows,
                                       normalize, resample, resample_recording)
from chrononet.errors import ConfigError, ContractError, DataError, FormatError


def count_zero_crossings(x):
    signs = np.sign(x)
    signs[signs == 0] = 1
    return int(np.sum(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# resampling


def test_resample_identity_when_rates_equal():
    x = np.random.default_rng(0).normal(size=500)
    out = resample(x, 250.0, 250.0)
    assert np.array_equal(out, x)
    assert out is not x  # caller can mutate safely


def test_resample_dc_preserved():
    x = np.full(1000, 3.7)
    out = resample(x, 500.0, 250.0)
    assert out.shape == (500,)
    # interior, away from the filter's edge transient
    assert np.max(np.abs(out[40:-40] - 3.7)) < 1e-6


def test_resample_sine_halving():
    # 10 Hz sine over 1 s at 500 Hz -> 250 Hz: 20 crossings, amplitude kept
    t = np.arange(500) / 500.0
    x = np.sin(2 * np.pi * 10.0 * t)
    out = resample(x, 500.0, 250.0)
    assert out.shape == (250,)
    crossings = count_zero_crossings(out)
    assert 19 <= crossings <= 21
    assert abs(out.max() - 1.0) < 0.02
    assert abs(out.min() + 1.0) < 0.02


def test_resample_output_length_law():
    for n, fr, to in ((1000, 500.0, 250.0), (999, 500.0, 250.0),
                      (250, 250.0, 300.0), (128, 256.0, 250.0)):
        out = resample(np.zeros(n), fr, to)
        assert out.shape[0] == int(np.floor(n * to / fr + 1e-9))


def test_resample_empty_signal_gives_empty_output():
    assert resample(np.zeros((22, 0)), 512.0, 250.0).shape == (22, 0)
    assert resample(np.zeros(0), 512.0, 250.0).shape == (0,)
    # no rows: the output length still follows the length law
    assert resample(np.zeros((0, 1024)), 512.0, 250.0).shape == (0, 500)


def test_resample_upsampling_interpolates():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    out = resample(x, 100.0, 200.0)
    assert out.shape == (8,)
    assert np.allclose(out[:6], [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])


def test_resample_multichannel_matches_per_row():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 400))
    joint = resample(x, 400.0, 250.0)
    assert joint.shape == (3, 250)
    for c in range(3):
        assert np.allclose(joint[c], resample(x[c], 400.0, 250.0))


def test_resample_multichannel_rows_are_bitwise_per_row_calls():
    x = np.random.default_rng(2).normal(scale=40.0, size=(4, 3000))
    for from_hz in (512.0, 256.0):
        joint = resample(x, from_hz, 250.0)
        for row, c in zip(joint, x):
            assert np.array_equal(row, resample(c, from_hz, 250.0))


def test_resample_matches_convolve_then_interp():
    # The reference is direct convolution, trimmed by half the filter, then
    # np.interp on the unit grid; the GEMM low-pass may differ by rounding only.
    rng = np.random.default_rng(3)
    half = (FIR_TAPS - 1) // 2
    for from_hz in (512.0, 256.0, 400.0, 1000.0):
        taps = _lowpass_taps(0.45 * 250.0, from_hz)
        for n in (1, 10, 62, 63, 64, 65, 3000):
            x = rng.normal(scale=40.0, size=n)
            positions = np.arange(int(np.floor(n * 250.0 / from_hz + 1e-9))) * (from_hz / 250.0)
            ref = np.interp(positions, np.arange(n),
                            np.convolve(x, taps, mode="full")[half:half + n])
            out = resample(x, from_hz, 250.0)
            assert out.shape == ref.shape
            if ref.size:
                assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(x))
    # upsampling is np.interp itself, bit for bit, past the last sample too
    past_end = 0
    for from_hz in (100.0, 200.0):
        for n in (1, 2, 10, 3000):
            x = rng.normal(scale=40.0, size=n)
            positions = np.arange(int(np.floor(n * 250.0 / from_hz + 1e-9))) * (from_hz / 250.0)
            past_end += int(np.sum(positions > n - 1))
            assert np.array_equal(resample(x, from_hz, 250.0),
                                  np.interp(positions, np.arange(n), x))
    assert past_end


def test_resample_temporaries_are_per_row():
    # Each row is filtered and interpolated through buffers reused across
    # rows, so the temporaries stay a few rows long whatever the row count.
    rng = np.random.default_rng(4)
    for from_hz in (512.0, 256.0):
        x = rng.normal(scale=40.0, size=(22, int(720 * from_hz)))
        tracemalloc.start()
        try:
            out = resample(x, from_hz, 250.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 12 * x[0].nbytes


def test_resample_rejects_bad_rates():
    with pytest.raises(ContractError):
        resample(np.zeros(10), 0.0, 250.0)
    with pytest.raises(ContractError):
        resample(np.zeros(10), 250.0, -1.0)


def test_resample_recording_carries_ids():
    rec = Recording(data=np.zeros((2, 500)), rate=500.0, session_id="s1")
    out = resample_recording(rec)
    assert out.rate == 250.0 and out.samples == 250
    assert out.session_id == "s1"
    same = resample_recording(out)
    assert same is out


# ---------------------------------------------------------------------------
# windowing


def _windows_with_and_without_cut(rec, split, montage):
    """The float64 samples the windows read, and the windows, from the whole
    recording and from the cut one."""
    out = []
    for session in (rec, cut_to_windows(rec, split)):
        resampled = resample_recording(apply_montage(session, montage))
        windows = extract_windows(resampled, split)
        out.append((resampled.data[:, :len(windows) * WINDOW_SAMPLES], windows, session))
    return out


def _one_sample_records(rec):
    """The same samples in records of one sample each, so a cut is exact to
    the sample rather than rounded up to a whole record."""
    spr = rec.signals[0].samples_per_record
    return replace(rec, record_count=rec.record_count * spr,
                   record_duration=rec.record_duration / spr,
                   signals=[replace(sig, samples_per_record=1) for sig in rec.signals])


@pytest.mark.parametrize("rate", [250, 256, 400, 500, 512, 1000])
def test_cut_leaves_windows_bitwise_equal(rate):
    # Lengths at window edges: a window's last sample, one past it, and the
    # eleventh train window with and without samples after it.
    rng = np.random.default_rng(rate)
    full = recording_from_arrays(rng.normal(scale=40.0, size=(2, 720 * rate)),
                                 ["EEG A-REF", "EEG B-REF"], float(rate))
    montage = [MontagePair("A", "B", "A-B")]
    for seconds in (60, 61, 90, 660, 661, 700, 720):
        rec = replace(full, record_count=seconds, signals=[
            replace(sig, digital=sig.digital[:seconds * rate]) for sig in full.signals])
        for split in ("train", "test"):
            count = min(11, seconds // 60) if split == "train" else 1
            for records in (rec, _one_sample_records(rec)):
                assert records.rate(0) == rate
                (whole, whole_w, _), (cut, cut_w, session) = \
                    _windows_with_and_without_cut(records, split, montage)
                assert len(cut_w) == len(whole_w) == count
                assert np.array_equal(cut, whole)
                assert all(np.array_equal(a, b) for a, b in zip(cut_w, whole_w))
                # the samples kept run just past the last window
                assert session.record_count * session.signals[0].samples_per_record <= \
                    min(seconds, 60 * count + 1) * rate


def test_cut_keeps_enough_input_at_a_high_rate():
    # At 16 kHz the filter's reach past the last kept position is under one
    # output sample; the cut still keeps the samples that make the window.
    rate = 16000
    rng = np.random.default_rng(16)
    rec = _one_sample_records(recording_from_arrays(
        rng.normal(size=(2, 61 * rate)), ["EEG A-REF", "EEG B-REF"], float(rate)))
    (whole, whole_w, _), (cut, cut_w, session) = _windows_with_and_without_cut(
        rec, "test", [MontagePair("A", "B", "A-B")])
    assert len(cut_w) == 1 and np.array_equal(cut, whole)
    assert session.record_count == 60 * rate


def test_cut_gives_signals_of_every_rate_the_same_records():
    # Two 256 Hz signals and an unused 100 Hz one, 700 s long: every signal
    # keeps the same leading records, and the windows are the uncut ones.
    rng = np.random.default_rng(700)
    rec = recording_from_arrays(rng.normal(scale=40.0, size=(2, 700 * 256)),
                                ["EEG A-REF", "EEG B-REF"], 256.0)
    rec.signals.append(recording_from_arrays(
        [rng.normal(scale=40.0, size=700 * 100)], ["EEG C-REF"], 100.0).signals[0])
    for split, records in (("train", 661), ("test", 61)):
        (whole, whole_w, _), (cut, cut_w, session) = _windows_with_and_without_cut(
            rec, split, [MontagePair("A", "B", "A-B")])
        assert session.record_count == records
        assert [sig.digital.shape[0] for sig in session.signals] == \
            [records * 256, records * 256, records * 100]
        assert len(cut_w) == len(whole_w) and np.array_equal(cut, whole)
        assert all(np.array_equal(a, b) for a, b in zip(cut_w, whole_w))


def test_cut_leaves_sessions_without_windows_whole():
    rec = recording_from_arrays(np.zeros((2, 30 * 512)), ["EEG A-REF", "EEG B-REF"], 512.0)
    for split in ("train", "test"):
        assert cut_to_windows(rec, split) is rec


def _minutes_recording(seconds, rate=250.0, channels=3):
    n = int(seconds * rate)
    data = np.arange(channels * n, dtype=np.float64).reshape(channels, n)
    return Recording(data=data, rate=rate, session_id="s")


def test_train_windows_capped_at_eleven():
    rec = _minutes_recording(12 * 60)
    windows = extract_windows(rec, "train")
    assert len(windows) == 11
    assert all(w.shape == (3, 15000) for w in windows)
    assert all(w.dtype == np.float32 for w in windows)


def test_train_windows_partial_session():
    rec = _minutes_recording(150)  # 2.5 minutes -> 2 full windows
    windows = extract_windows(rec, "train")
    assert len(windows) == 2
    # consecutive, starting at t=0, no overlap
    assert np.allclose(windows[0][0], rec.data[0, :15000])
    assert np.allclose(windows[1][0], rec.data[0, 15000:30000])


def test_test_window_exactly_one():
    rec = _minutes_recording(90)
    windows = extract_windows(rec, "test")
    assert len(windows) == 1
    assert windows[0].shape == (3, 15000)


def test_exactly_sixty_seconds_suffices():
    rec = _minutes_recording(60)
    assert len(extract_windows(rec, "test")) == 1
    assert len(extract_windows(rec, "train")) == 1


def test_short_test_session_rejected():
    rec = _minutes_recording(59)
    with pytest.raises(DataError, match="test window"):
        extract_windows(rec, "test")
    assert extract_windows(rec, "train") == []


def test_window_rate_and_split_validation():
    rec = _minutes_recording(60, rate=200.0)
    with pytest.raises(DataError, match="200"):
        extract_windows(rec, "train")
    with pytest.raises(ConfigError):
        extract_windows(_minutes_recording(60), "validation")


# ---------------------------------------------------------------------------
# normalization


def test_stats_and_normalize_round():
    rng = np.random.default_rng(2)
    x = rng.normal(loc=5.0, scale=3.0, size=(20, 4, 100)).astype(np.float32)
    mean, std = compute_stats(x)
    assert mean.shape == (4,) and std.shape == (4,)
    z = normalize(x, mean, std)
    assert z.dtype == np.float32
    assert np.allclose(z.mean(axis=(0, 2)), 0.0, atol=1e-5)
    assert np.allclose(z.std(axis=(0, 2)), 1.0, atol=1e-5)


def test_normalize_single_sample_uses_given_stats():
    x = np.ones((2, 10), dtype=np.float32) * 4.0
    z = normalize(x, np.array([4.0, 0.0]), np.array([2.0, 1.0]))
    assert np.allclose(z[0], 0.0)
    assert np.allclose(z[1], 4.0)


def test_normalize_zero_variance_channel_centered_only():
    x = np.full((5, 2, 8), 7.0, dtype=np.float32)
    mean, std = compute_stats(x)
    assert np.all(std == 0.0)
    z = normalize(x, mean, std)
    assert np.all(z == 0.0)
    assert np.all(np.isfinite(z))


def test_normalize_matches_whole_array_float64_formula():
    rng = np.random.default_rng(5)
    x = (rng.normal(size=(6, 3, 50)) * 40.0).astype(np.float32)
    mean, std = compute_stats(x)
    std[1] = 0.0
    safe = np.where(std > 0, std, 1.0)
    expected = ((x.astype(np.float64) - mean[:, None]) / safe[:, None]).astype(np.float32)
    assert normalize(x, mean, std).tobytes() == expected.tobytes()
    assert normalize(x[2], mean, std).tobytes() == expected[2].tobytes()


def test_normalize_peak_memory_stays_near_output():
    x = np.random.default_rng(6).normal(size=(22, 22, 1500)).astype(np.float32)
    mean, std = compute_stats(x)
    tracemalloc.start()
    try:
        normalize(x, mean, std)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes


def test_compute_stats_matches_whole_array_float64_formula():
    rng = np.random.default_rng(7)
    for shape in ((1, 1, 1), (3, 2, 7), (5, 4, 129), (4, 3, 1500)):
        x = rng.normal(loc=3.0, scale=40.0, size=shape).astype(np.float32)
        mean, std = compute_stats(x)
        wide = x.astype(np.float64)
        assert mean.tobytes() == wide.mean(axis=(0, 2)).tobytes()
        assert std.tobytes() == wide.std(axis=(0, 2)).tobytes()


def test_compute_stats_peak_memory_stays_below_input():
    x = np.random.default_rng(8).normal(size=(22, 22, 1500)).astype(np.float32)
    tracemalloc.start()
    try:
        compute_stats(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes


def test_stats_contract():
    with pytest.raises(ContractError):
        compute_stats(np.zeros((3, 10)))
    with pytest.raises(ContractError):
        compute_stats(np.zeros((0, 2, 10)))


# ---------------------------------------------------------------------------
# montage


ELECTRODES = ["FP1", "FP2", "F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6",
              "C3", "C4", "CZ", "P3", "P4", "O1", "O2", "A1", "A2"]


def electrode_edf(tmp_path, rate=250.0, seconds=2, prefix="EEG ", suffix="-REF"):
    rng = np.random.default_rng(3)
    n = int(rate * seconds)
    arrays = [rng.normal(size=n) * 50 for _ in ELECTRODES]
    labels = [f"{prefix}{e}{suffix}" for e in ELECTRODES]
    rec = recording_from_arrays(arrays, labels, rate, patient_id="p9",
                                recording_id="s9")
    from chrononet.data.edf import write_edf, read_edf
    path = tmp_path / "m.edf"
    write_edf(path, rec)
    return read_edf(path)


def test_default_montage_is_22_pairs():
    m = default_montage()
    assert len(m) == 22
    assert m[0].anode == "FP1" and m[0].cathode == "F7"
    names = [p.name for p in m]
    assert len(set(names)) == 22


def test_apply_montage_differences(tmp_path):
    rec = electrode_edf(tmp_path)
    out = apply_montage(rec, default_montage())
    assert out.data.shape[0] == 22
    assert out.rate == 250.0
    by_token = {}
    for sig in rec.signals:
        token = sig.label.replace("EEG ", "").replace("-REF", "")
        by_token[token] = sig.samples
    m = default_montage()
    for row, pair in zip(out.data, m):
        assert np.allclose(row, by_token[pair.anode] - by_token[pair.cathode])


def test_apply_montage_rows_are_bitwise_differences(tmp_path):
    rec = electrode_edf(tmp_path, rate=512.0)
    samples = {sig.label: sig.samples for sig in rec.signals}
    out = apply_montage(rec, default_montage())
    for row, pair in zip(out.data, default_montage()):
        anode = samples[f"EEG {pair.anode}-REF"]
        cathode = samples[f"EEG {pair.cathode}-REF"]
        assert np.array_equal(row, anode - cathode)


def test_apply_montage_converts_each_electrode_once_and_holds_few(tmp_path, monkeypatch):
    rec = electrode_edf(tmp_path, rate=512.0, seconds=240)
    converted = []
    real = edf.digital_to_physical

    def counting(d, *args):
        converted.append(d)
        return real(d, *args)

    monkeypatch.setattr(edf, "digital_to_physical", counting)
    tracemalloc.start()
    try:
        out = apply_montage(rec, default_montage())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(converted) == len(ELECTRODES)
    # the output, plus at most eight electrodes that pairs still to come read
    row = out.data[0].nbytes
    assert peak < out.data.nbytes + 9 * row


def test_montage_token_matching_is_exact(tmp_path):
    # P3 must not match FP3-like labels; T3 must not match T31
    from chrononet.data.edf import write_edf, read_edf
    arrays = [np.zeros(100), np.ones(100), np.full(100, 2.0)]
    labels = ["EEG FP1-REF", "EEG P1-REF", "EEG T31-REF"]
    rec = recording_from_arrays(arrays, labels, 100.0)
    path = tmp_path / "t.edf"
    write_edf(path, rec)
    loaded = read_edf(path)
    montage = [MontagePair("FP1", "P1", "FP1-P1")]
    out = apply_montage(loaded, montage)
    quantum = loaded.signals[0].scale
    assert np.allclose(out.data[0], -1.0, atol=2 * quantum)
    with pytest.raises(DataError, match="T3"):
        apply_montage(loaded, [MontagePair("T3", "P1", "T3-P1")])


def test_montage_missing_and_ambiguous(tmp_path):
    rec = electrode_edf(tmp_path)
    with pytest.raises(DataError, match="not found"):
        apply_montage(rec, [MontagePair("XX", "F7", "bad")])
    rec.signals[1].label = rec.signals[0].label  # duplicate FP1
    with pytest.raises(DataError, match="ambiguous"):
        apply_montage(rec, [MontagePair("FP1", "F7", "dup")])


def test_montage_rate_mismatch(tmp_path):
    rec = electrode_edf(tmp_path)
    # halve one signal's rate: same duration, fewer samples per record
    target = next(i for i, s in enumerate(rec.signals) if "F7" in s.label)
    sig = rec.signals[target]
    sig.samples_per_record //= 2
    sig.digital = sig.digital[::2]
    with pytest.raises(DataError, match="rate"):
        apply_montage(rec, [MontagePair("FP1", "F7", "FP1-F7")])


def test_parse_montage_rejects_malformed():
    with pytest.raises(FormatError):
        parse_montage("FP1,F7\n")
    with pytest.raises(FormatError):
        parse_montage("# only comments\n")
    m = parse_montage("FP1, F7, FP1-F7  # frontal\n\nF7,T3,F7-T3\n")
    assert len(m) == 2
    assert m[0].cathode == "F7"
