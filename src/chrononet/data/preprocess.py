"""Rate conversion, minute windowing, and z-score normalization."""

import math
from dataclasses import replace

import numpy as np

from ..errors import ConfigError, ContractError, DataError
from .edf import EdfRecording
from .montage import Recording

FIR_TAPS = 63
FIR_HALF = (FIR_TAPS - 1) // 2  # input samples the filter reads on each side
FIR_BLOCK = 64           # filter outputs per GEMM row, >= FIR_TAPS - 1 so each
                         # reads two input rows; 96 and 128 measured no faster
TARGET_HZ = 250.0        # the one rate every recording is windowed at
WINDOW_SECONDS = 60
WINDOW_SAMPLES = int(WINDOW_SECONDS * TARGET_HZ)
MAX_TRAIN_WINDOWS = 11   # per train session
TEST_WINDOWS = 1         # per test session: its first minute


def _lowpass_taps(cutoff_hz: float, rate_hz: float) -> np.ndarray:
    """Hamming-windowed sinc, normalized to unit gain at DC."""
    m = np.arange(FIR_TAPS) - (FIR_TAPS - 1) / 2
    fc = cutoff_hz / rate_hz  # cycles per input sample
    h = 2 * fc * np.sinc(2 * fc * m)
    h *= np.hamming(FIR_TAPS)
    return h / h.sum()


def _toeplitz_halves(taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two (FIR_BLOCK, FIR_BLOCK) halves of the banded matrix T with
    T[p + t, p] = taps[::-1][t], so that block b of the filtered row is
    X[b] @ T0 + X[b + 1] @ T1 on the left-padded row viewed as rows X."""
    t = np.zeros((2 * FIR_BLOCK, FIR_BLOCK))
    for p in range(FIR_BLOCK):
        t[p:p + FIR_TAPS, p] = taps[::-1]
    return t[:FIR_BLOCK], t[FIR_BLOCK:]


def resampled_length(n: int, from_hz: float, to_hz: float = TARGET_HZ) -> int:
    """Samples `resample` makes from n: floor(n*to_hz/from_hz), forgiving rounding."""
    return math.floor(n * to_hz / from_hz + 1e-9)


def resample(signal: np.ndarray, from_hz: float, to_hz: float = TARGET_HZ) -> np.ndarray:
    """Convert the last axis of `signal` onto a uniform to_hz grid.

    Downsampling low-passes at 0.45*to_hz first with a FIR_TAPS-tap filter
    (group delay compensated by trimming half the filter), then linearly
    interpolates; upsampling interpolates directly. Output length is
    floor(n*to_hz/from_hz). The low-pass runs as two GEMMs per row on one
    zero-padded buffer viewed as blocks of FIR_BLOCK samples; it equals
    np.convolve(row, taps)[half:half + n] up to rounding. The interpolation
    is np.interp's arithmetic on a unit grid, gathered at grids built once
    per call. Rows go one at a time through buffers reused across rows,
    each written straight into the one output array.
    """
    if from_hz <= 0 or to_hz <= 0:
        raise ContractError(f"rates must be positive, got {from_hz} -> {to_hz}")
    signal = np.asarray(signal, dtype=np.float64)
    n = signal.shape[-1]
    out_n = resampled_length(n, from_hz, to_hz)
    rows = signal.reshape(math.prod(signal.shape[:-1]), n)
    out = np.empty((rows.shape[0], out_n))
    if from_hz == to_hz:
        out[...] = rows
    elif out_n:  # none in, none out
        frac = np.arange(out_n) * (from_hz / to_hz)  # output positions in input samples
        j = frac.astype(np.intp)  # floor: positions are >= 0
        frac -= j
        j1 = np.minimum(j + 1, n - 1)  # past the last sample, np.interp holds its value
        a = np.empty(out_n)
        d = np.empty(out_n)
        lowpass = to_hz < from_hz
        if lowpass:
            t0, t1 = _toeplitz_halves(_lowpass_taps(0.45 * to_hz, from_hz))
            blocks = -(-n // FIR_BLOCK)
            padded = np.zeros((blocks + 1) * FIR_BLOCK)
            x = padded.reshape(blocks + 1, FIR_BLOCK)
            filtered = np.empty((blocks, FIR_BLOCK))
            spill = np.empty((blocks, FIR_BLOCK))
        for row, dst in zip(rows, out):
            if lowpass:
                padded[FIR_HALF:FIR_HALF + n] = row
                np.matmul(x[:-1], t0, out=filtered)
                filtered += np.matmul(x[1:], t1, out=spill)
                row = filtered.reshape(-1)
            np.take(row, j, out=a, mode="clip")  # in range; "raise" would buffer `out`
            np.take(row, j1, out=d, mode="clip")
            d -= a
            d *= frac
            np.add(a, d, out=dst)
    return out.reshape(signal.shape[:-1] + (out_n,))


def resample_recording(rec: Recording) -> Recording:
    """`rec` on the TARGET_HZ grid; `rec` itself when it is already there."""
    if rec.rate == TARGET_HZ:
        return rec
    return Recording(data=resample(rec.data, rec.rate), rate=TARGET_HZ,
                     session_id=rec.session_id)


def window_count(samples: int, split: str) -> int:
    """Windows a session of `samples` TARGET_HZ samples gives: up to
    MAX_TRAIN_WINDOWS for train, TEST_WINDOWS for test, and never more than
    the whole windows it holds."""
    if split not in ("train", "test"):
        raise ConfigError(f"split must be 'train' or 'test', got {split!r}")
    cap = MAX_TRAIN_WINDOWS if split == "train" else TEST_WINDOWS
    return min(cap, samples // WINDOW_SAMPLES)


def cut_to_windows(rec: EdfRecording, split: str) -> EdfRecording:
    """The leading data records that the session's windows read.

    Per signal, the last sample of the last window sits at input position
    p; `resample` reads up to sample floor(p) + 1 to interpolate, and the
    filter FIR_HALF samples past that. Enough samples are kept for both, and
    for the resampled length to hold every window, so the windows come out
    bit for bit as from the whole recording. The signals are views of the
    recording's. A session that gives no window is returned whole, so its
    error is the same as without the cut.
    """
    keep = 0
    for i, sig in enumerate(rec.signals):
        n = sig.digital.shape[0]
        rate = rec.rate(i)
        count = window_count(resampled_length(n, rate), split)
        if not count:
            return rec
        kept = count * WINDOW_SAMPLES
        last = int((kept - 1) * (rate / TARGET_HZ))  # as `resample` places it
        need = max(last + 2 + FIR_HALF, math.ceil(kept * rate / TARGET_HZ))
        keep = max(keep, -(-need // sig.samples_per_record))
    if keep >= rec.record_count:
        return rec
    return replace(rec, record_count=keep, signals=[
        replace(sig, digital=sig.digital[:keep * sig.samples_per_record])
        for sig in rec.signals])


def extract_windows(rec: Recording, split: str) -> list[np.ndarray]:
    """Cut consecutive non-overlapping windows starting at t=0.

    Train sessions contribute up to MAX_TRAIN_WINDOWS; test sessions exactly
    TEST_WINDOWS (the first minute) and must therefore be at least one window
    long.
    """
    count = window_count(rec.samples, split)
    if abs(rec.rate - TARGET_HZ) > 1e-6:
        raise DataError(f"session {rec.session_id!r}: sampled at {rec.rate} Hz, "
                        f"windowing requires {TARGET_HZ} Hz")
    if split == "test" and count < TEST_WINDOWS:
        raise DataError(f"session {rec.session_id!r}: {rec.samples / rec.rate:.1f} s is shorter "
                        f"than one {WINDOW_SECONDS} s test window")
    w = WINDOW_SAMPLES
    return [rec.data[:, i * w:(i + 1) * w].astype(np.float32) for i in range(count)]


def compute_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population standard deviation over (N, C, T).

    Accumulated one float64 window at a time, bitwise equal to the
    whole-array float64 formula without a float64 copy of the stack.
    """
    x = np.asarray(samples)
    if x.ndim != 3 or x.shape[0] == 0:
        raise ContractError(f"stats need a non-empty (samples, channels, time) array, "
                            f"got shape {x.shape}")
    count = x.shape[0] * x.shape[2]
    mean = sum(w.astype(np.float64).sum(axis=1) for w in x) / count
    var = sum(np.square(w.astype(np.float64) - mean[:, None]).sum(axis=1) for w in x) / count
    return mean, np.sqrt(var)


def normalize(samples: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Z-score per channel; zero-variance channels are centered only.

    Takes one (C, T) window or an (N, C, T) stack. Each window is computed in
    float64 on its own and written into the float32 result, so no whole-stack
    float64 temporary is made.
    """
    mean = np.asarray(mean, dtype=np.float64)[:, None]
    safe = np.asarray(np.where(std > 0, std, 1.0), dtype=np.float64)[:, None]
    samples = np.asarray(samples)
    out = np.empty(samples.shape, dtype=np.float32)
    windows = samples.reshape(-1, *samples.shape[-2:])
    for window, dst in zip(windows, out.reshape(windows.shape)):
        np.divide(window - mean, safe, out=dst)
    return out
