"""Binary dataset container, normalization-stats sidecar, and manifest CSV.

Container layout (little-endian):

    "CNDS"  u32 version=1
    u64 sample count, u32 channels, u32 window length
    per sample: u16 label, raw float32 values (channels x length, row-major)

Stats sidecar shares the magic and version, then a u32 type flag (2),
u32 channels, and per-channel float64 mean then standard deviation.

Group ids (patient provenance for fold splitting) do not fit the fixed
record layout, so they ride in a plain-text sidecar `<path>.groups`, one id
per sample line; a dataset written without ids removes an earlier sidecar.
"""

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, FormatError

MAGIC = b"CNDS"
VERSION = 1
STATS_FLAG = 2
LABEL_MAX = 0xFFFF  # a record's label is a u16


def class_labels(labels, classes: int, error: str) -> np.ndarray:
    """``labels`` as int64, if each is a class index: an integer value, not NaN,
    in [0, classes); integer arrays take only the range test. Else a DataError,
    ``error`` formatted with the first fraction or NaN, else the extreme label."""
    y = np.asarray(labels)
    if y.dtype.kind not in "iu":
        y = np.asarray(y, dtype=np.float64)
        fractions = np.flatnonzero(y != np.floor(y))  # NaN included
        if fractions.size:
            raise DataError(error.format(y[fractions[0]]))
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise DataError(error.format(y.max() if y.max() >= classes else y.min()))
    return y.astype(np.int64, copy=False)


def check_group_id(gid: str, name: str) -> None:
    """Refuse an id the one-id-per-line groups sidecar cannot hold; errors begin with ``name``."""
    if not gid.strip():
        raise DataError(f"{name} must not be empty")
    if "\n" in gid or "\r" in gid:
        raise DataError(f"{name} {gid!r} has a line break")


@dataclass
class Dataset:
    samples: np.ndarray  # (n, channels, length) float32
    labels: np.ndarray  # (n,) int
    groups: list[str] | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        self.labels = class_labels(self.labels, LABEL_MAX + 1,
                                   f"label {{:g}} is not a class index in [0, {LABEL_MAX}]")
        if self.samples.ndim != 3:
            raise DataError(f"samples must be (n, channels, length), got {self.samples.shape}")
        if self.labels.shape != (self.samples.shape[0],):
            raise DataError(f"{self.samples.shape[0]} samples but {self.labels.shape} labels")
        if self.groups is not None and len(self.groups) != self.samples.shape[0]:
            raise DataError(f"{self.samples.shape[0]} samples but {len(self.groups)} group ids")

    def __len__(self) -> int:
        return self.samples.shape[0]


def atomic_write(path, *parts) -> None:
    """Write the parts (bytes or arrays) back to back, then rename into place.

    If anything fails, the temp file is removed and ``path`` is untouched.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def groups_path(path) -> str:
    return f"{path}.groups"


def _record_dtype(channels: int, length: int) -> np.dtype:
    """One packed sample record: u16 label, then the float32 payload."""
    return np.dtype([("label", "<u2"), ("x", "<f4", (channels, length))])


def export_dataset(path, dataset: Dataset) -> None:
    n, channels, length = dataset.samples.shape
    class_labels(dataset.labels, LABEL_MAX + 1, "labels must fit an unsigned 16-bit field")
    for i, gid in enumerate(dataset.groups or ()):
        check_group_id(gid, f"group id {i}")
    records = np.empty(n, dtype=_record_dtype(channels, length))
    records["label"] = dataset.labels
    records["x"] = dataset.samples
    header = MAGIC + struct.pack("<IQII", VERSION, n, channels, length)
    atomic_write(path, header, records)
    if dataset.groups is None:
        if os.path.exists(groups_path(path)):
            os.unlink(groups_path(path))   # an earlier dataset's ids
        return
    text = "".join(f"{g}\n" for g in dataset.groups)
    try:
        atomic_write(groups_path(path), text.encode())
    except BaseException:
        os.unlink(path)   # a dataset without its sidecar is not written
        raise


def import_dataset(path) -> Dataset:
    """Each record is read straight into its slot of the samples array, so
    the file's payload is held once."""
    header = 4 + struct.calcsize("<IQII")
    with open(path, "rb") as f:
        head = f.read(header)
        if len(head) < 4 or head[:4] != MAGIC:
            raise FormatError(f"bad magic {head[:4]!r}, expected {MAGIC!r}", offset=0)
        if len(head) < header:
            raise FormatError("truncated header", offset=len(head))
        version, n, channels, length = struct.unpack_from("<IQII", head, 4)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        size = os.fstat(f.fileno()).st_size
        expected = header + _record_dtype(channels, length).itemsize * n
        if size != expected:
            raise FormatError(f"expected {expected} bytes for {n} samples, file has {size}",
                              offset=min(size, expected))
        samples = np.empty((n, channels, length), dtype="<f4")
        labels = np.empty((n, 1), dtype="<u2")
        for label, x in zip(labels, samples):
            f.readinto(label)
            f.readinto(x)

    groups = None
    gpath = groups_path(path)
    if os.path.exists(gpath):
        with open(gpath, "r") as f:
            groups = [line.rstrip("\n") for line in f if line.strip()]
        if len(groups) != n:
            raise FormatError(f"groups sidecar lists {len(groups)} ids for {n} samples")
    return Dataset(samples, labels[:, 0], groups)


def save_stats(path, mean: np.ndarray, std: np.ndarray) -> None:
    mean = np.asarray(mean, dtype="<f8")
    std = np.asarray(std, dtype="<f8")
    if mean.shape != std.shape or mean.ndim != 1:
        raise DataError(f"stats must be matching vectors, got {mean.shape} and {std.shape}")
    header = MAGIC + struct.pack("<III", VERSION, STATS_FLAG, mean.shape[0])
    atomic_write(path, header, mean.tobytes(), std.tobytes())


# ---------------------------------------------------------------------------
# Manifest CSV

MANIFEST_HEADER = ["path", "label", "patient_id", "split"]
LABEL_NAMES = {"normal": 0, "abnormal": 1}


@dataclass
class ManifestEntry:
    path: str
    label: int
    patient_id: str
    split: str


def read_manifest(path, edf_dir) -> list[ManifestEntry]:
    """The manifest's sessions, each path relative to ``edf_dir`` unless
    absolute. Errors name the file line a row starts on; a recording listed
    twice, under any spelling or through a symlink, names both lines."""
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("manifest is empty") from None
        if [h.strip() for h in header] != MANIFEST_HEADER:
            raise FormatError(f"manifest header must be {','.join(MANIFEST_HEADER)!r}, "
                              f"got {','.join(header)!r}")
        entries = []
        listed = {}  # resolved path -> the line that lists it
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num  # a quoted field may span lines
            if not row or not any(field.strip() for field in row):
                continue
            if len(row) != 4:
                raise FormatError(f"manifest line {lineno}: expected 4 fields, got {len(row)}")
            file_path, label_text, patient, split = (field.strip() for field in row)
            check_group_id(patient, f"manifest line {lineno}: patient_id")
            real = os.path.realpath(os.path.join(edf_dir, file_path))
            first = listed.setdefault(real, lineno)
            if first != lineno:
                raise DataError(f"manifest line {lineno}: {file_path!r} is listed on line "
                                f"{first}, both {real!r}")
            label_text = label_text.lower()
            try:
                label = LABEL_NAMES[label_text] if label_text in LABEL_NAMES else int(label_text)
            except ValueError:
                raise DataError(f"manifest line {lineno}: label must be "
                                f"normal/abnormal or a class index, got {label_text!r}") from None
            class_labels(label, LABEL_MAX + 1, f"manifest line {lineno}: class index must be "
                                               f"in [0, {LABEL_MAX}], got {{}}")
            if split not in ("train", "test"):
                raise DataError(f"manifest line {lineno}: split must be train or test, "
                                f"got {split!r}")
            entries.append(ManifestEntry(file_path, label, patient, split))

    by_split: dict[str, set[str]] = {"train": set(), "test": set()}
    for e in entries:
        by_split[e.split].add(e.patient_id)
    shared = by_split["train"] & by_split["test"]
    if shared:
        raise DataError(f"patients appear in both splits: {sorted(shared)}")
    return entries
