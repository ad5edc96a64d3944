"""Bipolar montage: subtract electrode pairs to form derived channels.

The default pair list is the 22-channel temporal central parasagittal
(double banana) layout used for clinical EEG review, shipped as an editable
text file so site-specific variants can be swapped in. A montage is a plain
list of :class:`MontagePair`, in output channel order.
"""

import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ..errors import DataError, FormatError
from .edf import EdfRecording


@dataclass
class MontagePair:
    anode: str
    cathode: str
    name: str


@dataclass
class Recording:
    """Post-montage signal: channels x samples of microvolt values."""

    data: np.ndarray
    rate: float
    session_id: str

    @property
    def samples(self) -> int:
        return self.data.shape[1]


def parse_montage(text: str) -> list[MontagePair]:
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3 or not all(fields):
            raise FormatError(f"montage line {lineno}: expected 'anode,cathode,name', "
                              f"got {line!r}")
        pairs.append(MontagePair(*fields))
    if not pairs:
        raise FormatError("montage file defines no pairs")
    return pairs


def load_montage(path) -> list[MontagePair]:
    with open(path, "r", encoding="ascii") as f:
        return parse_montage(f.read())


def default_montage() -> list[MontagePair]:
    text = resources.files("chrononet.data").joinpath("tcp_montage.txt").read_text()
    return parse_montage(text)


def _find_signal(rec: EdfRecording, electrode: str) -> int:
    """Match an electrode token against recording labels like 'EEG FP1-REF'.

    The token must stand alone (no letter/digit on either side) so T3 does
    not match T31 and P1 does not match FP1.
    """
    pattern = re.compile(rf"(?<![A-Z0-9]){re.escape(electrode.upper())}(?![A-Z0-9])")
    hits = [i for i, sig in enumerate(rec.signals) if pattern.search(sig.label.upper())]
    if not hits:
        raise DataError(f"electrode {electrode!r} not found among recording labels")
    if len(hits) > 1:
        labels = [rec.signals[i].label for i in hits]
        raise DataError(f"electrode {electrode!r} is ambiguous: matches {labels}")
    return hits[0]


def apply_montage(rec: EdfRecording, pairs: list[MontagePair]) -> Recording:
    """Each output channel is anode minus cathode, in montage order.

    Every pair is checked before any sample is written; the differences then
    go straight into one (pairs, samples) array. Each electrode is converted
    to physical values when the first pair that reads it comes up and dropped
    after the last one, so only a few electrodes are held at a time.
    """
    operands = []
    rate = None
    for pair in pairs:
        ai = _find_signal(rec, pair.anode)
        ci = _find_signal(rec, pair.cathode)
        a, c = rec.signals[ai], rec.signals[ci]
        if a.samples_per_record != c.samples_per_record:
            raise DataError(
                f"channel {pair.name}: rate mismatch between {a.label!r} "
                f"({rec.rate(ai)} Hz) and {c.label!r} ({rec.rate(ci)} Hz)")
        pair_rate = rec.rate(ai)
        if rate is None:
            rate = pair_rate
        elif pair_rate != rate:
            raise DataError(
                f"channel {pair.name}: rate {pair_rate} Hz differs from montage rate {rate} Hz")
        operands.append((ai, ci))
    last_read = {i: row for row, pair in enumerate(operands) for i in pair}
    live = {}
    data = np.empty((len(operands), rec.signals[operands[0][0]].digital.shape[0]))
    for row, (ai, ci) in enumerate(operands):
        for i in (ai, ci):
            if i not in live:
                live[i] = rec.signals[i].samples
        np.subtract(live[ai], live[ci], out=data[row])
        for i in (ai, ci):
            if last_read[i] == row:
                live.pop(i, None)  # None: an electrode paired with itself
    return Recording(data=data, rate=float(rate), session_id=rec.recording_id)
