"""Reader and writer for 16-bit EDF recordings.

Only the continuous subset is handled: fixed 256-byte header, one 256-byte
header block per signal (stored field-major), then data records of
little-endian int16 samples. Annotations and discontinuous files are out of
scope. Both headers are read and written from one field table each. The
writer lets tests round-trip real byte layouts and builds the benchmark's
EDF corpus.

Each signal keeps the file's int16 values; its physical values are
converted from them on each access, so a recording costs its file size, not
four times that in float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, FormatError

HEADER_SIZE = 256
SIGNAL_HEADER_SIZE = 256

# (name, width in bytes, type) in file order for the fixed header. A typed
# field is read into the EdfRecording attribute of its name (signal_count
# sizes the signal list); a field of type None is skipped on read.
_FIXED_FIELDS = (
    ("version", 8, None),
    ("patient_id", 80, str),
    ("recording_id", 80, str),
    ("start_date", 8, str),
    ("start_time", 8, str),
    ("header_bytes", 8, None),
    ("reserved", 44, None),
    ("record_count", 8, int),
    ("record_duration", 8, float),
    ("signal_count", 4, int),
)

# The same for the signal header block, into EdfSignal attributes. Each
# field is stored for every signal in turn: all labels, then all
# transducers, and so on.
_SIGNAL_FIELDS = (
    ("label", 16, str),
    ("transducer", 80, None),
    ("physical_dimension", 8, str),
    ("physical_min", 8, float),
    ("physical_max", 8, float),
    ("digital_min", 8, int),
    ("digital_max", 8, int),
    ("prefiltering", 80, None),
    ("samples_per_record", 8, int),
    ("reserved", 32, None),
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
    digital: np.ndarray  # the file's int16 values

    @property
    def scale(self) -> float:
        return (self.physical_max - self.physical_min) / (self.digital_max - self.digital_min)

    @property
    def samples(self) -> np.ndarray:
        """Physical values as a new float64 array, converted on every access."""
        return digital_to_physical(self.digital, self.physical_min, self.physical_max,
                                   self.digital_min, self.digital_max)


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
    """physical_min + (d - digital_min) * scale, bit for bit, computed in place
    in the one float64 array it returns."""
    scale = (physical_max - physical_min) / (digital_max - digital_min)
    x = np.array(d, dtype=np.float64)
    x -= digital_min
    x *= scale
    x += physical_min
    return x


def _what(name: str) -> str:
    """A field's name as messages spell it."""
    return "samples/record" if name == "samples_per_record" else name.replace("_", " ")


def _offset(table, name: str, base: int = 0, count: int = 1, i: int = 0) -> int:
    """Offset of entry i's field `name` in a field-major block of count entries."""
    for field, width, _ in table:
        if field == name:
            return base + i * width
        base += count * width


def _read_block(buf: bytes, table, base: int, count: int) -> list[dict]:
    """Parse the typed fields of a field-major block of count entries."""
    entries = [{} for _ in range(count)]
    for name, width, kind in table:
        for i, entry in enumerate(entries if kind is not None else ()):
            offset = base + i * width
            raw = buf[offset:offset + width].decode("ascii", errors="replace").strip()
            try:
                entry[name] = kind(raw)
            except ValueError:
                entry[name] = math.nan
            if kind is not str and not math.isfinite(entry[name]):  # float() takes nan, inf
                what = _what(name) + (f" of {entry['label']}" if "label" in entry else "")
                expected = "integer" if kind is int else "number"
                raise FormatError(f"{what}: expected {expected}, got {raw!r}", offset=offset)
        base += count * width
    return entries


def read_edf(path) -> EdfRecording:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < HEADER_SIZE:
        raise FormatError("file shorter than the 256-byte fixed header", offset=len(buf))

    (head,) = _read_block(buf, _FIXED_FIELDS, 0, 1)
    ns = head.pop("signal_count")
    rec = EdfRecording(**head, signals=[])
    if ns < 1:
        raise FormatError(f"signal count must be positive, got {ns}",
                          offset=_offset(_FIXED_FIELDS, "signal_count"))
    if rec.record_count < -1:
        raise FormatError(f"record count {rec.record_count} is below -1",
                          offset=_offset(_FIXED_FIELDS, "record_count"))
    if rec.record_duration <= 0:
        raise FormatError(f"record duration must be positive, got {rec.record_duration}",
                          offset=_offset(_FIXED_FIELDS, "record_duration"))

    header_bytes = HEADER_SIZE + ns * SIGNAL_HEADER_SIZE
    if len(buf) < header_bytes:
        raise FormatError(f"file ends inside the signal headers ({ns} signals declared)",
                          offset=len(buf))

    # the digital values are filled in once the data records are checked
    rec.signals = [EdfSignal(**fields, digital=None)
                   for fields in _read_block(buf, _SIGNAL_FIELDS, HEADER_SIZE, ns)]
    for i, sig in enumerate(rec.signals):
        def at(name):
            return _offset(_SIGNAL_FIELDS, name, HEADER_SIZE, ns, i)
        if sig.digital_min >= sig.digital_max:
            raise FormatError(f"signal {sig.label!r}: digital min {sig.digital_min} "
                              f">= digital max {sig.digital_max}", offset=at("digital_min"))
        if sig.physical_min == sig.physical_max:
            raise FormatError(f"signal {sig.label!r}: physical min equals physical max "
                              f"({sig.physical_min})", offset=at("physical_min"))
        if sig.samples_per_record < 1:
            raise FormatError(f"signal {sig.label!r}: samples/record must be positive",
                              offset=at("samples_per_record"))

    record_words = sum(sig.samples_per_record for sig in rec.signals)
    data_bytes = len(buf) - header_bytes
    if rec.record_count == -1:  # unknown count: infer from the file size
        rec.record_count = data_bytes // (2 * record_words)
    if data_bytes < 2 * record_words * rec.record_count:
        raise FormatError(
            f"file ends inside the data records ({rec.record_count} records declared)",
            offset=len(buf))

    raw = np.frombuffer(buf, dtype="<i2", count=record_words * rec.record_count,
                        offset=header_bytes)
    table = raw.reshape(rec.record_count, record_words)
    col = 0
    for sig in rec.signals:
        sig.digital = table[:, col:col + sig.samples_per_record].reshape(-1)
        col += sig.samples_per_record
    rec.start_date = rec.start_date or "01.01.01"
    rec.start_time = rec.start_time or "00.00.00"
    return rec


def _field_bytes(value, width: int, name: str) -> bytes:
    """A header field: text as given, numbers as integers where exact, else 6 digits."""
    try:
        if not isinstance(value, str):
            value = str(int(value)) if float(value) == int(value) else f"{value:.6g}"
        encoded = value.encode("ascii")
    except (ValueError, OverflowError) as exc:  # a non-finite number, or text not ASCII
        raise DataError(f"{_what(name)} {value!r} cannot be written: {exc}") from None
    if len(encoded) > width:
        raise DataError(f"{_what(name)} {value!r} does not fit in {width} bytes")
    return encoded.ljust(width)


def write_edf(path, rec: EdfRecording) -> None:
    ns = len(rec.signals)
    for sig in rec.signals:
        expected = rec.record_count * sig.samples_per_record
        if sig.digital.shape != (expected,):
            raise DataError(
                f"signal {sig.label!r} has {sig.digital.shape[0]} samples, "
                f"expected {expected} ({rec.record_count} records x {sig.samples_per_record})")
        if expected and not (sig.digital_min <= sig.digital.min()
                             and sig.digital.max() <= sig.digital_max):
            raise DataError(f"signal {sig.label!r} has digital values outside "
                            f"[{sig.digital_min}, {sig.digital_max}]")

    # fields neither class holds are written as these values, or blank
    head = {**vars(rec), "version": "0", "signal_count": ns,
            "header_bytes": HEADER_SIZE + ns * SIGNAL_HEADER_SIZE}
    parts = [_field_bytes(head.get(name, ""), width, name) for name, width, _ in _FIXED_FIELDS]
    parts += [_field_bytes(getattr(sig, name, ""), width, name)
              for name, width, _ in _SIGNAL_FIELDS for sig in rec.signals]

    digitals = [sig.digital.astype("<i2", copy=False) for sig in rec.signals]
    records = []
    for r in range(rec.record_count):
        for sig, d in zip(rec.signals, digitals):
            n = sig.samples_per_record
            records.append(d[r * n:(r + 1) * n].tobytes())

    with open(path, "wb") as f:
        f.write(b"".join(parts))
        f.write(b"".join(records))


def recording_from_arrays(arrays, labels, rate_hz: float, patient_id: str = "X",
                          recording_id: str = "X",
                          physical_range: float = 1000.0) -> EdfRecording:
    """Package plain microvolt channel arrays as a 1-second-record EDF recording.

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
    signals = []
    for arr, label in zip(arrays, labels):
        sig = EdfSignal(label=label, physical_dimension="uV",
                        physical_min=-physical_range, physical_max=physical_range,
                        digital_min=-32767, digital_max=32767,
                        samples_per_record=spr, digital=None)
        d = arr - sig.physical_min  # round((x - physical_min) / scale) + digital_min
        d /= sig.scale
        np.rint(d, out=d)
        d += sig.digital_min
        np.clip(d, sig.digital_min, sig.digital_max, out=d)
        sig.digital = d.astype("<i2")
        signals.append(sig)
    return EdfRecording(patient_id=patient_id, recording_id=recording_id,
                        start_date="01.01.01", start_time="00.00.00",
                        record_count=n // spr, record_duration=1.0, signals=signals)
