"""Reader and writer for 16-bit EDF recordings.

Only the continuous subset is handled: fixed 256-byte header, one 256-byte
header block per signal (stored field-major), then data records of
little-endian int16 samples. Annotations and discontinuous files are out of
scope. The writer exists mainly so tests can round-trip real byte layouts.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, FormatError

HEADER_SIZE = 256
SIGNAL_HEADER_SIZE = 256

# (name, width in bytes) in file order for the fixed header
_FIXED_FIELDS = (
    ("version", 8),
    ("patient_id", 80),
    ("recording_id", 80),
    ("start_date", 8),
    ("start_time", 8),
    ("header_bytes", 8),
    ("reserved", 44),
    ("record_count", 8),
    ("record_duration", 8),
    ("signal_count", 4),
)

# (name, width per signal) in file order for the signal header block
_SIGNAL_FIELDS = (
    ("label", 16),
    ("transducer", 80),
    ("physical_dimension", 8),
    ("physical_min", 8),
    ("physical_max", 8),
    ("digital_min", 8),
    ("digital_max", 8),
    ("prefiltering", 80),
    ("samples_per_record", 8),
    ("reserved", 32),
)


@dataclass
class EdfSignal:
    label: str
    physical_dimension: str
    physical_min: float
    physical_max: float
    digital_min: int
    digital_max: int
    samples_per_record: int
    samples: np.ndarray  # physical values, float64

    @property
    def scale(self) -> float:
        return (self.physical_max - self.physical_min) / (self.digital_max - self.digital_min)


@dataclass
class EdfRecording:
    patient_id: str
    recording_id: str
    start_date: str
    start_time: str
    record_count: int
    record_duration: float
    signals: list[EdfSignal]

    def rate(self, index: int) -> float:
        return self.signals[index].samples_per_record / self.record_duration


def digital_to_physical(d, physical_min, physical_max, digital_min, digital_max):
    scale = (physical_max - physical_min) / (digital_max - digital_min)
    return physical_min + (np.asarray(d, dtype=np.float64) - digital_min) * scale


def _text(buf: bytes, offset: int, width: int) -> str:
    return buf[offset:offset + width].decode("ascii", errors="replace").strip()


def _int(buf: bytes, offset: int, width: int, what: str) -> int:
    raw = _text(buf, offset, width)
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"{what}: expected integer, got {raw!r}", offset=offset) from None


def _float(buf: bytes, offset: int, width: int, what: str) -> float:
    raw = _text(buf, offset, width)
    try:
        return float(raw)
    except ValueError:
        raise FormatError(f"{what}: expected number, got {raw!r}", offset=offset) from None


def read_edf(path) -> EdfRecording:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < HEADER_SIZE:
        raise FormatError("file shorter than the 256-byte fixed header", offset=len(buf))

    fields = {}
    offsets = {}
    pos = 0
    for name, width in _FIXED_FIELDS:
        offsets[name] = pos
        fields[name] = _text(buf, pos, width)
        pos += width

    ns = _int(buf, offsets["signal_count"], 4, "signal count")
    if ns < 1:
        raise FormatError(f"signal count must be positive, got {ns}",
                          offset=offsets["signal_count"])
    record_count = _int(buf, offsets["record_count"], 8, "record count")
    if record_count < -1:
        raise FormatError(f"record count {record_count} is below -1", offset=offsets["record_count"])
    record_duration = _float(buf, offsets["record_duration"], 8, "record duration")
    if record_duration <= 0:
        raise FormatError(f"record duration must be positive, got {record_duration}",
                          offset=offsets["record_duration"])

    header_bytes = HEADER_SIZE + ns * SIGNAL_HEADER_SIZE
    if len(buf) < header_bytes:
        raise FormatError(f"file ends inside the signal headers ({ns} signals declared)",
                          offset=len(buf))

    # Signal header fields are stored field-major: all labels, then all
    # transducers, and so on.
    sig_offsets = {}
    pos = HEADER_SIZE
    for name, width in _SIGNAL_FIELDS:
        sig_offsets[name] = (pos, width)
        pos += ns * width

    def field(name, i):
        base, width = sig_offsets[name]
        return base + i * width, width

    labels = [_text(buf, *field("label", i)) for i in range(ns)]
    dims = [_text(buf, *field("physical_dimension", i)) for i in range(ns)]
    phys_min = [_float(buf, *field("physical_min", i), f"physical min of {labels[i]}")
                for i in range(ns)]
    phys_max = [_float(buf, *field("physical_max", i), f"physical max of {labels[i]}")
                for i in range(ns)]
    dig_min = [_int(buf, *field("digital_min", i), f"digital min of {labels[i]}")
               for i in range(ns)]
    dig_max = [_int(buf, *field("digital_max", i), f"digital max of {labels[i]}")
               for i in range(ns)]
    spr = [_int(buf, *field("samples_per_record", i), f"samples/record of {labels[i]}")
           for i in range(ns)]

    for i in range(ns):
        if dig_min[i] >= dig_max[i]:
            raise FormatError(
                f"signal {labels[i]!r}: digital min {dig_min[i]} >= digital max {dig_max[i]}",
                offset=field("digital_min", i)[0])
        if phys_min[i] == phys_max[i]:
            raise FormatError(
                f"signal {labels[i]!r}: physical min equals physical max ({phys_min[i]})",
                offset=field("physical_min", i)[0])
        if spr[i] < 1:
            raise FormatError(f"signal {labels[i]!r}: samples/record must be positive",
                              offset=field("samples_per_record", i)[0])

    record_words = sum(spr)
    data_bytes = len(buf) - header_bytes
    if record_count == -1:  # unknown count: infer from the file size
        record_count = data_bytes // (2 * record_words)
    if data_bytes < 2 * record_words * record_count:
        raise FormatError(
            f"file ends inside the data records ({record_count} records declared)",
            offset=len(buf))

    raw = np.frombuffer(buf, dtype="<i2", count=record_words * record_count,
                        offset=header_bytes)
    table = raw.reshape(record_count, record_words)
    signals = []
    col = 0
    for i in range(ns):
        digital = table[:, col:col + spr[i]].reshape(-1)
        col += spr[i]
        physical = digital_to_physical(digital, phys_min[i], phys_max[i],
                                       dig_min[i], dig_max[i])
        signals.append(EdfSignal(labels[i], dims[i], phys_min[i], phys_max[i],
                                 dig_min[i], dig_max[i], spr[i], physical))

    return EdfRecording(
        patient_id=fields["patient_id"],
        recording_id=fields["recording_id"],
        start_date=fields["start_date"] or "01.01.01",
        start_time=fields["start_time"] or "00.00.00",
        record_count=record_count,
        record_duration=record_duration,
        signals=signals,
    )


def _pad(value: str, width: int, what: str) -> bytes:
    encoded = str(value).encode("ascii")
    if len(encoded) > width:
        raise DataError(f"{what} {value!r} does not fit in {width} bytes")
    return encoded.ljust(width)


def _num8(value, what: str) -> bytes:
    if float(value) == int(value):
        text = str(int(value))
    else:
        text = f"{value:.6g}"
    return _pad(text, 8, what)


def write_edf(path, rec: EdfRecording) -> None:
    ns = len(rec.signals)
    for sig in rec.signals:
        expected = rec.record_count * sig.samples_per_record
        if sig.samples.shape != (expected,):
            raise DataError(
                f"signal {sig.label!r} has {sig.samples.shape[0]} samples, "
                f"expected {expected} ({rec.record_count} records x {sig.samples_per_record})")

    parts = [
        _pad("0", 8, "version"),
        _pad(rec.patient_id, 80, "patient id"),
        _pad(rec.recording_id, 80, "recording id"),
        _pad(rec.start_date, 8, "start date"),
        _pad(rec.start_time, 8, "start time"),
        _num8(HEADER_SIZE + ns * SIGNAL_HEADER_SIZE, "header bytes"),
        _pad("", 44, "reserved"),
        _num8(rec.record_count, "record count"),
        _num8(rec.record_duration, "record duration"),
        _pad(str(ns), 4, "signal count"),
    ]

    def per_signal(width, what, values):
        return [_pad(v, width, what) if isinstance(v, str) else _num8(v, what)
                for v in values]

    parts += per_signal(16, "label", [s.label for s in rec.signals])
    parts += per_signal(80, "transducer", ["" for _ in rec.signals])
    parts += per_signal(8, "physical dimension", [s.physical_dimension for s in rec.signals])
    parts += per_signal(8, "physical min", [s.physical_min for s in rec.signals])
    parts += per_signal(8, "physical max", [s.physical_max for s in rec.signals])
    parts += per_signal(8, "digital min", [s.digital_min for s in rec.signals])
    parts += per_signal(8, "digital max", [s.digital_max for s in rec.signals])
    parts += per_signal(80, "prefiltering", ["" for _ in rec.signals])
    parts += per_signal(8, "samples/record", [s.samples_per_record for s in rec.signals])
    parts += per_signal(32, "reserved", ["" for _ in rec.signals])

    digitals = []
    for sig in rec.signals:
        d = np.rint((sig.samples - sig.physical_min) / sig.scale) + sig.digital_min
        digitals.append(np.clip(d, sig.digital_min, sig.digital_max).astype("<i2"))

    records = []
    for r in range(rec.record_count):
        for sig, d in zip(rec.signals, digitals):
            n = sig.samples_per_record
            records.append(d[r * n:(r + 1) * n].tobytes())

    with open(path, "wb") as f:
        f.write(b"".join(parts))
        f.write(b"".join(records))


def recording_from_arrays(arrays, labels, rate_hz: float, patient_id: str = "X",
                          recording_id: str = "X", physical_range: float = 1000.0,
                          physical_dimension: str = "uV") -> EdfRecording:
    """Package plain channel arrays as a 1-second-record EDF recording.

    Array lengths must be a whole number of seconds at rate_hz. Digital range
    is the full int16 span, so quantization error is physical_range/32767.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if len(arrays) != len(labels):
        raise DataError(f"{len(arrays)} arrays but {len(labels)} labels")
    spr = int(round(rate_hz))
    if abs(spr - rate_hz) > 1e-9:
        raise DataError(f"rate {rate_hz} is not a whole number of samples per second")
    n = arrays[0].shape[0]
    if any(a.shape != (n,) for a in arrays):
        raise DataError("all channels must have equal length")
    if n % spr:
        raise DataError(f"length {n} is not a whole number of 1 s records at {rate_hz} Hz")
    signals = [
        EdfSignal(label=label, physical_dimension=physical_dimension,
                  physical_min=-physical_range, physical_max=physical_range,
                  digital_min=-32767, digital_max=32767,
                  samples_per_record=spr, samples=arr)
        for arr, label in zip(arrays, labels)
    ]
    return EdfRecording(patient_id=patient_id, recording_id=recording_id,
                        start_date="01.01.01", start_time="00.00.00",
                        record_count=n // spr, record_duration=1.0, signals=signals)
