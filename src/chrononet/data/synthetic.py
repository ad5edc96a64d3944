"""Multi-timescale synthetic classification sets for desk-scale experiments.

Each sample mixes two independent cues: a repeating 4-sample motif (short
timescale) and a slow sinusoidal envelope (long timescale). The class is
(motif index + envelope index) mod num_classes, with the motif biased toward
the class by `marginal_leak`. Decoding either cue alone therefore tops out
near the leak probability, while combining both recovers the class almost
perfectly — separability that rewards models able to mix kernel scales.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..tensor import Prng
from .container import Dataset


MOTIF_WIDTH = 4
MOTIF_SPACING = 32
ENVELOPE_PERIOD = 64.0


@dataclass
class SyntheticSpec:
    num_classes: int = 2
    length: int = 512
    channels: int = 2
    noise: float = 0.5
    marginal_leak: float = 0.65
    n_groups: int = 10
    seed: int = 0

    def validate(self) -> "SyntheticSpec":
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.length < 2 * MOTIF_SPACING:
            raise ConfigError(f"length {self.length} too short for motif spacing "
                              f"{MOTIF_SPACING}")
        if self.channels < 1:
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if not 0.0 < self.marginal_leak <= 1.0:
            raise ConfigError(f"marginal_leak must be in (0, 1], got {self.marginal_leak}")
        if self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")
        if self.n_groups < 1:
            raise ConfigError(f"n_groups must be positive, got {self.n_groups}")
        return self


_BASE_PATTERNS = np.array([
    [1.0, 1.0, -1.0, -1.0],
    [1.0, -1.0, 1.0, -1.0],
    [1.0, -1.0, -1.0, 1.0],
    [1.0, 1.0, 1.0, -1.0],
])


def motif_patterns(spec: SyntheticSpec) -> np.ndarray:
    """One distinct sign pattern per class, width MOTIF_WIDTH.

    The first four are fixed; extra classes draw random sign rows, rejecting
    duplicates so every class keeps a unique fingerprint. 2^width patterns
    exist, so the class count is capped accordingly.
    """
    k = spec.num_classes
    if k <= len(_BASE_PATTERNS):
        return _BASE_PATTERNS[:k].copy()
    if k > 2 ** MOTIF_WIDTH:
        raise ConfigError(f"only {2 ** MOTIF_WIDTH} distinct width-{MOTIF_WIDTH} patterns exist, "
                          f"cannot label {k} classes")
    rng = Prng(Prng(spec.seed).derive(0xA11))
    rows = [tuple(row) for row in _BASE_PATTERNS]
    seen = set(rows)
    while len(rows) < k:
        draw = np.sign(rng.normal(0.0, 1.0, MOTIF_WIDTH))
        draw[draw == 0] = 1.0
        key = tuple(draw)
        if key not in seen:
            seen.add(key)
            rows.append(key)
    return np.array(rows)


def envelope_periods(spec: SyntheticSpec) -> np.ndarray:
    """Geometric spread of periods from ENVELOPE_PERIOD downward (64 -> 45 for 2)."""
    k = spec.num_classes
    ratio = 45.0 / 64.0
    exponents = np.arange(k) / max(1, k - 1)
    return ENVELOPE_PERIOD * ratio ** exponents


def generate_synthetic(spec: SyntheticSpec, n_per_class: int) -> Dataset:
    """Deterministic draw of n_per_class samples per class, labels interleaved."""
    spec.validate()
    if n_per_class < 1:
        raise ConfigError(f"per-class must be positive, got {n_per_class}")
    k = spec.num_classes
    total = k * n_per_class
    patterns = motif_patterns(spec)
    periods = envelope_periods(spec)
    t = np.arange(spec.length)
    root = Prng(spec.seed)

    samples = np.empty((total, spec.channels, spec.length), dtype=np.float32)
    labels = np.empty(total, dtype=np.int64)
    groups = [f"g{i % spec.n_groups}" for i in range(total)]

    for i in range(total):
        label = i % k
        rng = Prng(root.derive(i))
        if rng.uniform(0.0, 1.0, ()) < spec.marginal_leak:
            motif = label
        else:
            others = [c for c in range(k) if c != label]
            motif = others[int(rng.integers(0, len(others)))]
        env = (label - motif) % k

        x = rng.normal(0.0, spec.noise, (spec.channels, spec.length))
        phase = rng.uniform(0.0, 2 * np.pi, ())
        x += np.sin(2 * np.pi * t / periods[env] + phase)

        jitter_span = max(1, MOTIF_SPACING // 8)
        start = MOTIF_SPACING // 2
        while start + MOTIF_WIDTH <= spec.length:
            jitter = int(rng.integers(-jitter_span, jitter_span + 1))
            pos = min(max(0, start + jitter), spec.length - MOTIF_WIDTH)
            x[:, pos:pos + MOTIF_WIDTH] += patterns[motif]
            start += MOTIF_SPACING

        samples[i] = x.astype(np.float32)
        labels[i] = label
    return Dataset(samples, labels, groups)


@dataclass
class SelfCheck:
    joint_accuracy: float
    motif_accuracy: float
    envelope_accuracy: float


def _majority_map_accuracy(feature: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Best achievable accuracy from the feature alone (majority label per value)."""
    correct = 0
    for value in range(k):
        mask = feature == value
        if mask.any():
            counts = np.bincount(labels[mask], minlength=k)
            correct += int(counts.max())
    return correct / labels.size


def self_check(dataset: Dataset, spec: SyntheticSpec) -> SelfCheck:
    """Brute-force decode both cues and score joint vs single-cue accuracy."""
    patterns = motif_patterns(spec)
    periods = envelope_periods(spec)
    k = spec.num_classes
    t = np.arange(spec.length)
    phasors = np.exp(-2j * np.pi * t[None, :] / periods[:, None])

    n = len(dataset)
    motif_hat = np.empty(n, dtype=np.int64)
    env_hat = np.empty(n, dtype=np.int64)
    for i in range(n):
        x = dataset.samples[i].mean(axis=0).astype(np.float64)
        motif_scores = [float(np.sum(np.square(np.correlate(x, p, mode="valid"))))
                        for p in patterns]
        motif_hat[i] = int(np.argmax(motif_scores))
        env_hat[i] = int(np.argmax(np.abs(phasors @ x)))

    joint = (motif_hat + env_hat) % k
    labels = dataset.labels
    return SelfCheck(
        joint_accuracy=float((joint == labels).mean()),
        motif_accuracy=_majority_map_accuracy(motif_hat, labels, k),
        envelope_accuracy=_majority_map_accuracy(env_hat, labels, k),
    )
