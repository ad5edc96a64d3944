import numpy as np
import pytest

from chrononet.architectures import (ARCHITECTURES, ConvBlockSpec, ModelConfig,
                                     build, conv_stage_shapes, default_config,
                                     forward, parameter_count)
from chrononet.errors import ConfigError, ShapeError
from chrononet.layers import dense_gru_forward, last_time_step, linear_forward
from chrononet.tensor import Prng, Tensor
from test_layers import conv_reference


def test_default_presets():
    full = default_config("chrononet")
    assert [b.kernel_lengths for b in full.conv_blocks] == [(2, 4, 8)] * 3
    assert all(b.filters_per_kernel == 32 and b.stride == 2 for b in full.conv_blocks)
    assert full.gru_widths == [32, 32, 32, 32]
    assert full.input_channels == 22 and full.num_classes == 2
    assert full.dense_wiring

    plain = default_config("crnn")
    assert [b.kernel_lengths for b in plain.conv_blocks] == [(4,)] * 3
    assert not plain.dense_wiring

    assert default_config("icrnn").dense_wiring is False
    assert default_config("cdrnn").dense_wiring is True
    assert set(ARCHITECTURES) == {"crnn", "icrnn", "cdrnn", "chrononet"}


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="architecture"):
        default_config("resnet")
    with pytest.raises(ConfigError, match="kernel"):
        ModelConfig(architecture="chrononet", input_channels=2,
                    conv_blocks=[ConvBlockSpec((4,), 8, 2)],
                    gru_widths=[8], num_classes=2).validate()
    with pytest.raises(ConfigError, match="kernel"):
        ModelConfig(architecture="crnn", input_channels=2,
                    conv_blocks=[ConvBlockSpec((2, 4), 8, 2)],
                    gru_widths=[8], num_classes=2).validate()
    with pytest.raises(ConfigError, match="input_channels"):
        ModelConfig(architecture="crnn", input_channels=0,
                    conv_blocks=[ConvBlockSpec((4,), 8, 2)],
                    gru_widths=[8], num_classes=2).validate()
    with pytest.raises(ConfigError, match="num_classes"):
        ModelConfig(architecture="crnn", input_channels=2,
                    conv_blocks=[ConvBlockSpec((4,), 8, 2)],
                    gru_widths=[8], num_classes=1).validate()
    with pytest.raises(ConfigError, match="gru_widths"):
        ModelConfig(architecture="crnn", input_channels=2,
                    conv_blocks=[ConvBlockSpec((4,), 8, 2)],
                    gru_widths=[], num_classes=2).validate()
    with pytest.raises(ConfigError, match="precision"):
        ModelConfig(architecture="crnn", input_channels=2,
                    conv_blocks=[ConvBlockSpec((4,), 8, 2)],
                    gru_widths=[8], num_classes=2, precision="f16").validate()
    with pytest.raises(ConfigError, match="stride"):
        ModelConfig(architecture="crnn", input_channels=2,
                    conv_blocks=[ConvBlockSpec((4,), 8, 0)],
                    gru_widths=[8], num_classes=2).validate()


def test_conv_stage_shapes_default():
    cfg = default_config("chrononet")
    shapes = conv_stage_shapes(cfg, 15000)
    assert shapes == [(96, 7500), (96, 3750), (96, 1875)]


def test_build_shapes_and_determinism():
    cfg = default_config("chrononet")
    cfg.input_channels = 3
    m1 = build(cfg, Prng(9))
    m2 = build(cfg, Prng(9))
    names1 = [n for n, _ in m1.named_parameters()]
    names2 = [n for n, _ in m2.named_parameters()]
    assert names1 == names2
    for (_, t1), (_, t2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert np.array_equal(t1.data, t2.data)
    m3 = build(cfg, Prng(10))
    assert not all(np.array_equal(a.data, b.data)
                   for (_, a), (_, b) in zip(m1.named_parameters(), m3.named_parameters()))
    # dense wiring: layer k >= 2 consumes every earlier layer's output
    widths = cfg.gru_widths
    for k, layer in enumerate(m1.gru_stack.layers):
        if k == 0:
            assert layer.input_size == 96
        else:
            assert layer.input_size == sum(widths[:k])


def test_forward_output_shape_all_architectures():
    x = np.random.default_rng(0).normal(size=(3, 4, 40)).astype(np.float32)
    for arch in ARCHITECTURES:
        cfg = default_config(arch)
        cfg.input_channels = 4
        cfg.conv_blocks = [ConvBlockSpec(b.kernel_lengths, 4, b.stride)
                           for b in cfg.conv_blocks]
        cfg.gru_widths = [6, 6, 6, 6]
        model = build(cfg, Prng(1))
        out = forward(model, x)
        assert out.shape == (3, 2)
        assert out.data.dtype == np.float32


def test_forward_shape_errors():
    cfg = default_config("crnn")
    cfg.input_channels = 4
    model = build(cfg, Prng(2))
    with pytest.raises(ShapeError):
        forward(model, np.zeros((3, 5, 40), dtype=np.float32))
    with pytest.raises(ShapeError):
        forward(model, np.zeros((4, 40), dtype=np.float32))


def test_crnn_equals_manual_composition():
    cfg = ModelConfig(architecture="crnn", input_channels=2,
                      conv_blocks=[ConvBlockSpec((4,), 3, 2),
                                   ConvBlockSpec((4,), 3, 2)],
                      gru_widths=[5, 5], num_classes=2, precision="f64")
    model = build(cfg, Prng(3))
    x = np.random.default_rng(3).normal(size=(2, 2, 16))
    out = forward(model, x)

    h = x
    for block in model.conv_blocks:
        assert len(block.kernels) == 1
        h = conv_reference(block, h)
    h = dense_gru_forward(model.gru_stack, Tensor(h))
    expected = linear_forward(model.readout_W, model.readout_b, last_time_step(h))
    assert np.allclose(out.data, expected.data)


def test_batch_independence():
    cfg = default_config("chrononet")
    cfg.input_channels = 2
    cfg.conv_blocks = [ConvBlockSpec((2, 4, 8), 2, 2)] * 2
    cfg.gru_widths = [4, 4]
    model = build(cfg, Prng(4))
    rng = np.random.default_rng(4)
    a = rng.normal(size=(1, 2, 32)).astype(np.float32)
    b = rng.normal(size=(1, 2, 32)).astype(np.float32)
    joint = forward(model, np.concatenate([a, b], axis=0))
    assert np.allclose(joint.data[0], forward(model, a).data[0], atol=1e-6)
    assert np.allclose(joint.data[1], forward(model, b).data[0], atol=1e-6)


def test_zero_readout_gives_constant_logits():
    cfg = default_config("icrnn")
    cfg.input_channels = 2
    cfg.conv_blocks = [ConvBlockSpec((2, 4), 2, 2)]
    cfg.gru_widths = [3]
    model = build(cfg, Prng(5))
    model.readout_W.data[:] = 0.0
    model.readout_b.data[:] = 0.0
    out = forward(model, np.random.default_rng(5).normal(size=(2, 2, 8)).astype(np.float32))
    assert np.all(out.data == 0.0)


def test_parameter_count_closed_form():
    # single GRU layer 96 -> 2: 3*(2*96 + 2*2 + 2) = 594
    cfg = ModelConfig(architecture="crnn", input_channels=1,
                      conv_blocks=[ConvBlockSpec((1,), 1, 1)],
                      gru_widths=[2], num_classes=2)
    # conv: 1*1*1 + 1 = 2 ; gru: 3*(2*1 + 2*2 + 2) = 24 ; readout: 2*2 + 2 = 6
    assert parameter_count(build(cfg, Prng(6))) == 2 + 24 + 6

    full = build(default_config("chrononet"), Prng(6))
    total = 0
    # conv blocks: 3 kernels x (filters*in_ch*k + filters)
    in_ch = 22
    for _ in range(3):
        for k in (2, 4, 8):
            total += 32 * in_ch * k + 32
        in_ch = 96
    widths = [32, 32, 32, 32]
    prev = 96
    for i, w in enumerate(widths):
        total += 3 * (w * prev + w * w + w)
        prev = sum(widths[: i + 1])
    total += 2 * 32 + 2  # readout consumes only the last layer's output
    assert parameter_count(full) == total


def test_named_parameters_stable_names():
    cfg = default_config("chrononet")
    model = build(cfg, Prng(7))
    names = [n for n, _ in model.named_parameters()]
    assert "conv0.branch0.kernels" in names
    assert "conv2.branch2.bias" in names
    assert [n for n in names if n.startswith("gru3.")] == ["gru3.W", "gru3.U", "gru3.b"]
    assert names[-2:] == ["readout.W", "readout.b"]
    assert len(names) == len(set(names))


def test_precision_controls_dtype():
    cfg = default_config("crnn")
    cfg.precision = "f64"
    model = build(cfg, Prng(8))
    assert all(t.data.dtype == np.float64 for _, t in model.named_parameters())
    out = forward(model, np.random.default_rng(8).normal(size=(1, 22, 16)))
    assert out.data.dtype == np.float64
