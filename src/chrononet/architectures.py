"""Declarative builders for the four network variants.

All four share one schema and differ in two switches: how many kernel
lengths each conv block carries, and whether the GRU stack is densely
wired.

    crnn       one kernel length per block, chained GRU layers
    icrnn      several kernel lengths per block, chained GRU layers
    cdrnn      one kernel length per block, densely wired GRU layers
    chrononet  several kernel lengths per block, densely wired GRU layers
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import (
    DenseGruStack,
    InceptionConvBlock,
    Tensor,
    conv1d_output_length,
    dense_gru_forward,
    glorot_uniform,
    inception_conv1d_forward,
    last_time_step,
    linear_forward,
)
from .tensor import Prng

ARCHITECTURES = ("crnn", "icrnn", "cdrnn", "chrononet")
_MULTI_KERNEL = ("icrnn", "chrononet")
_DENSE = ("cdrnn", "chrononet")

_DTYPES = {"f32": np.float32, "f64": np.float64}


@dataclass
class ConvBlockSpec:
    kernel_lengths: tuple[int, ...]
    filters_per_kernel: int
    stride: int


@dataclass
class ModelConfig:
    """Everything needed to build one network."""

    architecture: str
    input_channels: int = 22
    conv_blocks: list[ConvBlockSpec] | None = None  # None: default_conv_blocks
    gru_widths: list[int] = field(default_factory=lambda: [32, 32, 32, 32])
    num_classes: int = 2
    precision: str = "f32"

    def __post_init__(self):
        if self.conv_blocks is None:
            self.conv_blocks = default_conv_blocks(self.architecture)

    @property
    def dense_wiring(self) -> bool:
        return self.architecture in _DENSE

    @property
    def dtype(self):
        return _DTYPES[self.precision]

    def validate(self) -> "ModelConfig":
        if self.architecture not in ARCHITECTURES:
            raise ConfigError(f"architecture must be one of {ARCHITECTURES}, "
                              f"got {self.architecture!r}")
        if self.precision not in _DTYPES:
            raise ConfigError(f"precision must be f32 or f64, got {self.precision!r}")
        if self.input_channels < 1:
            raise ConfigError(f"input_channels must be positive, got {self.input_channels}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not self.conv_blocks:
            raise ConfigError("conv_blocks must not be empty")
        if not self.gru_widths:
            raise ConfigError("gru_widths must not be empty")
        multi = self.architecture in _MULTI_KERNEL
        for i, blk in enumerate(self.conv_blocks):
            if blk.filters_per_kernel < 1:
                raise ConfigError(f"conv_blocks[{i}].filters_per_kernel must be positive")
            if blk.stride < 1:
                raise ConfigError(f"conv_blocks[{i}].stride must be positive")
            if any(k < 1 for k in blk.kernel_lengths):
                raise ConfigError(f"conv_blocks[{i}].kernel_lengths must be positive")
            if multi and len(blk.kernel_lengths) < 2:
                raise ConfigError(
                    f"conv_blocks[{i}]: {self.architecture} blocks need >= 2 kernel lengths")
            if not multi and len(blk.kernel_lengths) != 1:
                raise ConfigError(
                    f"conv_blocks[{i}]: {self.architecture} blocks take exactly one kernel length")
        if any(w < 1 for w in self.gru_widths):
            raise ConfigError("gru_widths must all be positive")
        return self


def default_conv_blocks(architecture: str) -> list[ConvBlockSpec]:
    """Three stride-2 blocks; multi-kernel variants use lengths 2, 4, 8."""
    if architecture in _MULTI_KERNEL:
        kernels: tuple[int, ...] = (2, 4, 8)
    else:
        kernels = (4,)
    return [ConvBlockSpec(kernels, 32, 2) for _ in range(3)]


def default_config(architecture: str, **overrides) -> ModelConfig:
    return ModelConfig(architecture=architecture, **overrides).validate()


@dataclass
class Model:
    config: ModelConfig
    conv_blocks: list[InceptionConvBlock]
    gru_stack: DenseGruStack
    readout_W: Tensor
    readout_b: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for i, blk in enumerate(self.conv_blocks):
            out.extend((f"conv{i}.{name}", t) for name, t in blk.tensors())
        out.extend(self.gru_stack.tensors())
        out.append(("readout.W", self.readout_W))
        out.append(("readout.b", self.readout_b))
        return out


def build(config: ModelConfig, prng: Prng) -> Model:
    """Instantiate and initialize every stage of the configured network.

    Parameters are drawn in a fixed order (conv blocks, GRU layers, readout)
    so one seed always yields one parameter set.
    """
    config.validate()
    dtype = config.dtype

    conv_blocks: list[InceptionConvBlock] = []
    in_ch = config.input_channels
    for spec in config.conv_blocks:
        conv_blocks.append(InceptionConvBlock.init(
            prng, in_ch, spec.filters_per_kernel, spec.kernel_lengths, spec.stride, dtype))
        in_ch = conv_blocks[-1].out_channels
    stack = DenseGruStack.init(prng, in_ch, config.gru_widths, config.dense_wiring, dtype)

    readout_in = config.gru_widths[-1]
    readout_W = Tensor(glorot_uniform(prng, (config.num_classes, readout_in),
                                      readout_in, config.num_classes, dtype),
                       requires_grad=True)
    readout_b = Tensor(np.zeros(config.num_classes, dtype=dtype), requires_grad=True)
    return Model(config, conv_blocks, stack, readout_W, readout_b)


def forward(model: Model, batch: Tensor) -> Tensor:
    """Conv stage, recurrent stage, then last-step linear readout to logits.

    Softmax is applied only inside the loss / predict paths so the returned
    logits stay usable for numerically stable cross-entropy.
    """
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch))
    if x.data.ndim != 3:
        raise ShapeError(f"model input must be (batch, channels, time), got {x.shape}")
    if x.shape[1] != model.config.input_channels:
        raise ShapeError(
            f"model expects {model.config.input_channels} input channels, got {x.shape[1]}")
    if x.data.dtype != model.config.dtype:
        x = Tensor(x.data.astype(model.config.dtype), requires_grad=x.requires_grad)
    for block in model.conv_blocks:
        x = inception_conv1d_forward(block, x)
    h = dense_gru_forward(model.gru_stack, x)
    return linear_forward(model.readout_W, model.readout_b, last_time_step(h))


def conv_stage_shapes(config: ModelConfig, length: int) -> list[tuple[int, int]]:
    """(channels, time) after each conv block for a given input length."""
    shapes = []
    t = length
    for spec in config.conv_blocks:
        t = conv1d_output_length(t, spec.stride)
        shapes.append((spec.filters_per_kernel * len(spec.kernel_lengths), t))
    return shapes


def parameter_count(model: Model) -> int:
    """Exact number of learnable scalars.

    Closed form per stage: a conv branch with c inputs, f filters and kernel
    length k holds f*c*k + f scalars; a GRU layer with input n and hidden m
    holds 3*(m*n + m*m + m); the readout from n to K holds K*n + K.
    """
    return sum(t.size for _, t in model.named_parameters())
