import numpy as np
import pytest

from chrononet.data.synthetic import (SyntheticSpec, envelope_periods,
                                      generate_synthetic, motif_patterns,
                                      self_check)
from chrononet.errors import ConfigError


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(num_classes=1).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(length=0).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(marginal_leak=0.0).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(marginal_leak=1.1).validate()
    SyntheticSpec().validate()


def test_counts_and_interleaved_labels():
    spec = SyntheticSpec(num_classes=2, length=128, channels=2, seed=0)
    ds = generate_synthetic(spec, 32)
    assert len(ds) == 64
    assert ds.samples.shape == (64, 2, 128)
    assert ds.samples.dtype == np.float32
    assert np.array_equal(ds.labels, np.arange(64) % 2)
    assert np.sum(ds.labels == 0) == 32 and np.sum(ds.labels == 1) == 32


def test_determinism_and_seed_sensitivity():
    spec = SyntheticSpec(length=96, seed=123)
    a = generate_synthetic(spec, 8)
    b = generate_synthetic(spec, 8)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.groups == b.groups
    c = generate_synthetic(SyntheticSpec(length=96, seed=124), 8)
    assert a.samples.tobytes() != c.samples.tobytes()


def test_prefix_stability():
    # drawing more samples never changes the earlier ones
    spec = SyntheticSpec(length=64, seed=5)
    small = generate_synthetic(spec, 4)
    big = generate_synthetic(spec, 8)
    assert np.array_equal(big.samples[: len(small)], small.samples)


def test_groups_cycle():
    spec = SyntheticSpec(length=64, n_groups=5, seed=1)
    ds = generate_synthetic(spec, 10)
    assert set(ds.groups) == {f"g{i}" for i in range(5)}
    assert ds.groups[0] == "g0" and ds.groups[5] == "g0" and ds.groups[6] == "g1"


def test_motif_patterns_distinct():
    for k in (2, 3, 4, 7):
        pats = motif_patterns(SyntheticSpec(num_classes=k))
        assert pats.shape == (k, 4)
        assert len({tuple(p) for p in pats}) == k
        assert np.all(np.abs(pats) == 1.0)


def test_envelope_periods_geometric():
    p2 = envelope_periods(SyntheticSpec(num_classes=2))
    assert p2[0] == pytest.approx(64.0)
    assert p2[1] == pytest.approx(45.0)
    p4 = envelope_periods(SyntheticSpec(num_classes=4))
    ratios = p4[1:] / p4[:-1]
    assert np.allclose(ratios, ratios[0])
    assert p4[0] == pytest.approx(64.0) and p4[-1] == pytest.approx(45.0)


def test_self_check_separability_calibration():
    # both cues needed: joint decoding near-perfect, single cues near chance
    spec = SyntheticSpec(num_classes=2, length=256, channels=2, seed=42)
    ds = generate_synthetic(spec, 100)
    check = self_check(ds, spec)
    assert check.joint_accuracy >= 0.95
    assert check.motif_accuracy <= 0.70
    assert check.envelope_accuracy <= 0.70


def test_self_check_fully_leaked_motif():
    # leak 1.0 makes the motif deterministic: joint and motif both decode
    spec = SyntheticSpec(num_classes=2, length=256, channels=2,
                         marginal_leak=1.0, seed=7)
    ds = generate_synthetic(spec, 60)
    check = self_check(ds, spec)
    assert check.joint_accuracy >= 0.95
    assert check.motif_accuracy >= 0.95  # single-cue ceiling intentionally violated


def test_generate_rejects_non_positive_counts():
    for count in (0, -1):
        with pytest.raises(ConfigError, match="per-class must be positive"):
            generate_synthetic(SyntheticSpec(), count)


def test_many_class_generation_smoke():
    spec = SyntheticSpec(num_classes=6, length=200, channels=3, seed=9)
    ds = generate_synthetic(spec, 3)
    assert ds.samples.shape == (18, 3, 200)
    assert set(ds.labels.tolist()) == set(range(6))
    assert np.all(np.isfinite(ds.samples))
