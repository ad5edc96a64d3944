import struct
import tracemalloc

import numpy as np
import pytest

from chrononet.data.edf import (HEADER_SIZE, SIGNAL_HEADER_SIZE, EdfRecording,
                                EdfSignal, digital_to_physical, read_edf,
                                recording_from_arrays, write_edf)
from chrononet.errors import DataError, FormatError


def make_file(tmp_path, arrays, rate=250.0, name="x.edf", **kwargs):
    labels = kwargs.pop("labels", [f"EEG CH{i}-REF" for i in range(len(arrays))])
    rec = recording_from_arrays(arrays, labels, rate, **kwargs)
    path = tmp_path / name
    write_edf(path, rec)
    return path


# ---------------------------------------------------------------------------
# scaling


def test_endpoint_mapping_exact():
    assert digital_to_physical(-2048, -100.0, 100.0, -2048, 2047) == -100.0
    assert digital_to_physical(2047, -100.0, 100.0, -2048, 2047) == 100.0


def test_scaling_formula_value():
    # d=0 over phys [-1000,1000], dig [-32768,32767]
    v = digital_to_physical(0, -1000.0, 1000.0, -32768, 32767)
    expected = -1000.0 + 32768 * 2000.0 / 65535.0
    assert v == pytest.approx(expected, abs=1e-12)
    assert v == pytest.approx(0.015259021896696368, abs=1e-12)


def test_conversion_is_one_array_bitwise_equal_to_the_formula():
    rng = np.random.default_rng(3)
    d = rng.integers(-32768, 32768, size=200_000).astype(np.int16)
    for r in ((-1000.0, 1000.0, -32767, 32767), (-3276.8, 3276.7, -32768, 32767),
              (0.0, 5.5, -7, 2047), (-2.5, -0.25, -100, 100)):
        scale = (r[1] - r[0]) / (r[3] - r[2])
        expected = r[0] + (np.asarray(d, dtype=np.float64) - r[2]) * scale
        tracemalloc.start()
        try:
            out = digital_to_physical(d, *r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.tobytes() == expected.tobytes()
        assert peak < 1.05 * out.nbytes
    physical = np.linspace(-1.0, 1.0, 7)
    digital_to_physical(physical, -1.0, 1.0, -1, 1)
    assert np.array_equal(physical, np.linspace(-1.0, 1.0, 7))  # input untouched


def test_scaling_monotone_and_affine():
    d = np.arange(-2048, 2048)
    p = digital_to_physical(d, -500.0, 500.0, -2048, 2047)
    assert np.all(np.diff(p) > 0)
    steps = np.diff(p)
    assert np.allclose(steps, steps[0])  # affine: constant quantum


# ---------------------------------------------------------------------------
# reader/writer round trip


def test_bytes_follow_documented_layout(tmp_path):
    digital = [np.array([-2048, 0, 2047, 5, -7, 100], dtype=np.int16),
               np.array([-100, 100, 0, 1], dtype=np.int16)]
    ranges = [(-500.0, 500.0, -2048, 2047), (-2.5, 2.5, -100, 100)]
    signals = [EdfSignal(label, dim, *r, spr, d)
               for label, dim, r, spr, d in zip(("EEG A-REF", "EEG B-REF"), ("uV", "mV"),
                                                ranges, (3, 2), digital)]
    rec = EdfRecording("P 7", "R 9", 2, 0.5, signals)
    path = tmp_path / "layout.edf"
    write_edf(path, rec)

    def field(text, width):
        return text.encode("ascii").ljust(width)

    expected = b"".join(field(t, w) for t, w in (
        ("0", 8), ("P 7", 80), ("R 9", 80), ("01.01.01", 8), ("00.00.00", 8),
        ("768", 8), ("", 44), ("2", 8), ("0.5", 8), ("2", 4)))
    for width, texts in ((16, ("EEG A-REF", "EEG B-REF")), (80, ("", "")), (8, ("uV", "mV")),
                         (8, ("-500", "-2.5")), (8, ("500", "2.5")), (8, ("-2048", "-100")),
                         (8, ("2047", "100")), (80, ("", "")), (8, ("3", "2")), (32, ("", ""))):
        expected += b"".join(field(t, width) for t in texts)   # field-major
    for r in range(2):   # each record holds every signal's samples in turn
        expected += struct.pack("<3h", *digital[0][3 * r:3 * r + 3])
        expected += struct.pack("<2h", *digital[1][2 * r:2 * r + 2])
    assert path.read_bytes() == expected

    def fields(obj, skip):
        return {k: v for k, v in vars(obj).items() if k != skip}

    loaded = read_edf(path)
    assert fields(loaded, "signals") == fields(rec, "signals")
    for sig, original, r in zip(loaded.signals, signals, ranges):
        assert fields(sig, "digital") == fields(original, "digital")
        assert sig.digital.tobytes() == original.digital.tobytes()
        assert sig.samples.tobytes() == digital_to_physical(original.digital, *r).tobytes()


def test_round_trip_within_one_quantum(tmp_path):
    rng = np.random.default_rng(0)
    arrays = [rng.uniform(-900, 900, size=500), rng.uniform(-900, 900, size=500)]
    path = make_file(tmp_path, arrays, rate=250.0)
    rec = read_edf(path)
    assert len(rec.signals) == 2
    assert rec.record_count == 2
    assert rec.rate(0) == 250.0
    quantum = rec.signals[0].scale
    for sig, original in zip(rec.signals, arrays):
        assert sig.samples.shape == (500,)
        assert np.max(np.abs(sig.samples - original)) <= quantum


def test_round_trip_preserves_metadata(tmp_path):
    arrays = [np.zeros(100)]
    rec = recording_from_arrays(arrays, ["EEG FP1-REF"], 100.0,
                                patient_id="patient 42", recording_id="session 1")
    path = tmp_path / "meta.edf"
    write_edf(path, rec)
    loaded = read_edf(path)
    assert loaded.patient_id == "patient 42"
    assert loaded.recording_id == "session 1"
    assert loaded.signals[0].label == "EEG FP1-REF"
    assert loaded.signals[0].physical_dimension == "uV"
    assert loaded.record_duration == 1.0


def test_extreme_values_clip_not_wrap(tmp_path):
    arrays = [np.array([5000.0, -5000.0, 0.0, 999.0] * 25)]
    path = make_file(tmp_path, arrays, rate=100.0, physical_range=1000.0)
    sig = read_edf(path).signals[0]
    assert sig.samples[0] == pytest.approx(1000.0, abs=sig.scale)
    assert sig.samples[1] == pytest.approx(-1000.0, abs=sig.scale)
    assert np.all(np.abs(sig.samples) <= 1000.0 + sig.scale)


def test_mixed_rates_per_signal(tmp_path):
    rec = recording_from_arrays([np.zeros(500)], ["EEG A-REF"], 250.0)
    slow = recording_from_arrays([np.zeros(200)], ["EEG B-REF"], 100.0)
    rec.signals.append(slow.signals[0])
    path = tmp_path / "mixed.edf"
    write_edf(path, rec)
    loaded = read_edf(path)
    assert loaded.rate(0) == 250.0
    assert loaded.rate(1) == 100.0
    assert loaded.signals[0].samples.size == 500
    assert loaded.signals[1].samples.size == 200


def test_unknown_record_count_inferred(tmp_path):
    path = make_file(tmp_path, [np.linspace(-1, 1, 300)], rate=100.0)
    blob = bytearray(path.read_bytes())
    # record count lives at offset 236, 8 ascii chars
    blob[236:244] = b"-1      "
    path.write_bytes(bytes(blob))
    rec = read_edf(path)
    assert rec.record_count == 3
    assert rec.signals[0].samples.size == 300


# ---------------------------------------------------------------------------
# malformed input


def test_record_count_below_minus_one_rejected(tmp_path):
    path = make_file(tmp_path, [np.linspace(-1, 1, 300)], rate=100.0)
    blob = bytearray(path.read_bytes())
    blob[236:244] = b"-5      "
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="record count -5") as err:
        read_edf(path)
    assert err.value.offset == 236


def test_short_file_reports_offset(tmp_path):
    path = tmp_path / "tiny.edf"
    path.write_bytes(b"0" * 100)
    with pytest.raises(FormatError) as err:
        read_edf(path)
    assert err.value.offset == 100


def test_truncated_signal_headers(tmp_path):
    good = make_file(tmp_path, [np.zeros(100)], rate=100.0)
    blob = good.read_bytes()
    cut = tmp_path / "cut.edf"
    cut.write_bytes(blob[:HEADER_SIZE + SIGNAL_HEADER_SIZE // 2])
    with pytest.raises(FormatError, match="signal header"):
        read_edf(cut)


def test_truncated_data_records(tmp_path):
    good = make_file(tmp_path, [np.zeros(100)], rate=100.0)
    blob = good.read_bytes()
    cut = tmp_path / "cut2.edf"
    cut.write_bytes(blob[:-10])
    with pytest.raises(FormatError, match="records"):
        read_edf(cut)


def test_non_numeric_header_field(tmp_path):
    path = make_file(tmp_path, [np.zeros(100), np.zeros(100)], rate=100.0)
    good = path.read_bytes()
    # two signals: each signal field block holds two entries, the second's last
    for offset, width in ((252, 4),    # signal count
                          (236, 8),    # record count
                          (244, 8),    # record duration
                          (488, 8),    # physical max of the second signal
                          (520, 8),    # digital max of the second signal
                          (696, 8)):   # samples/record of the second signal
        blob = bytearray(good)
        blob[offset:offset + width] = b"abcd".ljust(width)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_edf(path)
        assert err.value.offset == offset


def test_non_finite_header_number_rejected(tmp_path):
    path = make_file(tmp_path, [np.zeros(100)], rate=100.0)
    good = path.read_bytes()
    phys_min_off = HEADER_SIZE + (16 + 80 + 8) * 1
    for offset in (244, phys_min_off, phys_min_off + 8):  # duration, physical min and max
        for text in (b"nan", b"inf", b"-inf", b"1e999"):
            blob = bytearray(good)
            blob[offset:offset + 8] = text.ljust(8)
            path.write_bytes(bytes(blob))
            with pytest.raises(FormatError, match="expected number") as err:
                read_edf(path)
            assert err.value.offset == offset


def test_digital_range_inverted(tmp_path):
    path = make_file(tmp_path, [np.zeros(100)], rate=100.0)
    blob = bytearray(path.read_bytes())
    # field-major: digital_min block starts after label/transducer/dim/phys blocks
    dig_min_off = HEADER_SIZE + (16 + 80 + 8 + 8 + 8) * 1
    blob[dig_min_off:dig_min_off + 8] = b"32767   "
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_edf(path)
    assert "digital" in str(err.value)
    assert err.value.offset == dig_min_off


def test_flat_physical_range_rejected(tmp_path):
    path = make_file(tmp_path, [np.zeros(100)], rate=100.0)
    blob = bytearray(path.read_bytes())
    phys_min_off = HEADER_SIZE + (16 + 80 + 8) * 1
    phys_max_off = phys_min_off + 8
    blob[phys_min_off:phys_min_off + 8] = b"5       "
    blob[phys_max_off:phys_max_off + 8] = b"5       "
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="physical"):
        read_edf(path)


def test_writer_rejects_ragged_input():
    with pytest.raises(DataError):
        recording_from_arrays([np.zeros(100), np.zeros(50)], ["A", "B"], 100.0)
    with pytest.raises(DataError):
        recording_from_arrays([np.zeros(150)], ["A"], 100.0)  # 1.5 records
    with pytest.raises(DataError):
        recording_from_arrays([np.zeros(100)], ["A", "B"], 100.0)


def test_writer_rejects_no_channels():
    with pytest.raises(DataError, match="no channels"):
        recording_from_arrays([], [], 100.0)


def test_writer_checks_digital_values(tmp_path):
    rec = recording_from_arrays([np.zeros(100)], ["A"], 100.0)
    sig = rec.signals[0]
    assert sig.digital.dtype == np.int16
    with pytest.raises(AttributeError):
        sig.samples = np.zeros(100)  # physical values are derived, never stored
    sig.digital = sig.digital[:99]
    with pytest.raises(DataError, match="99 samples, expected 100"):
        write_edf(tmp_path / "short.edf", rec)
    sig.digital = np.full(100, 10, dtype=np.int16)
    sig.digital_max = 9
    with pytest.raises(DataError, match=r"outside \[-32767, 9\]"):
        write_edf(tmp_path / "wide.edf", rec)
    assert not any(tmp_path.iterdir())


def test_writer_rejects_fields_it_cannot_encode(tmp_path):
    def recording(label="A"):
        return recording_from_arrays([np.zeros(100)], [label], 100.0)

    no_ascii, nan_min, inf_duration, too_long = (recording("café"), recording(),
                                                 recording(), recording("L" * 17))
    nan_min.signals[0].physical_min = float("nan")
    inf_duration.record_duration = float("inf")
    for rec, message in ((no_ascii, "label 'café' cannot be written"),
                         (nan_min, "physical min nan cannot be written"),
                         (inf_duration, "record duration inf cannot be written"),
                         (too_long, "label 'LLLLLLLLLLLLLLLLL' does not fit in 16 bytes")):
        with pytest.raises(DataError, match=message):
            write_edf(tmp_path / "x.edf", rec)
    assert list(tmp_path.iterdir()) == []
