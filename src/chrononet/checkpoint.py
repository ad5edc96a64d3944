"""Binary model snapshots.

Layout (all integers little-endian):

    "CNCP"                       4-byte magic
    u32 version                  currently 3
    u32 config length, UTF-8     key=value lines describing the model + run
    u32 parameter entries
    per entry:
        u16 name length, UTF-8 name
        u8 rank, rank x u64 extents
        raw float32 values, row-major

Nothing follows the last entry, and files of any other version are
rejected.

Values are stored as 32-bit floats, which is exactly what training mode
uses, so a save/load round trip is bit-identical.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .architectures import ConvBlockSpec, Model, ModelConfig, build
from .data.container import atomic_write
from .errors import ConfigError, ContractError, FormatError
from .tensor import Prng

MAGIC = b"CNCP"
VERSION = 3


def _config_text(config: ModelConfig, seed: int, epoch: int) -> str:
    lines = [
        f"architecture={config.architecture}",
        f"input_channels={config.input_channels}",
        "conv_kernels=" + ";".join(
            ",".join(str(k) for k in blk.kernel_lengths) for blk in config.conv_blocks),
        "conv_filters=" + ";".join(str(blk.filters_per_kernel) for blk in config.conv_blocks),
        "conv_strides=" + ";".join(str(blk.stride) for blk in config.conv_blocks),
        "gru_widths=" + ",".join(str(w) for w in config.gru_widths),
        f"num_classes={config.num_classes}",
        f"precision={config.precision}",
        f"seed={seed}",
        f"epoch={epoch}",
    ]
    return "\n".join(lines) + "\n"


def _parse_config_text(text: str, offset: int) -> tuple[ModelConfig, int, int]:
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"malformed config line {line!r}", offset=offset)
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    required = {"architecture", "input_channels", "conv_kernels", "conv_filters",
                "conv_strides", "gru_widths", "num_classes", "precision",
                "seed", "epoch"}
    missing = required - fields.keys()
    if missing:
        raise FormatError(f"config text missing keys {sorted(missing)}", offset=offset)
    unknown = fields.keys() - required
    if unknown:
        raise FormatError(f"config text has unknown keys {sorted(unknown)}", offset=offset)
    try:
        kernel_groups = [
            tuple(int(k) for k in group.split(","))
            for group in fields["conv_kernels"].split(";")
        ]
        filters = [int(v) for v in fields["conv_filters"].split(";")]
        strides = [int(v) for v in fields["conv_strides"].split(";")]
        widths = [int(v) for v in fields["gru_widths"].split(",")]
        config = ModelConfig(
            architecture=fields["architecture"],
            input_channels=int(fields["input_channels"]),
            conv_blocks=[ConvBlockSpec(k, f, s)
                         for k, f, s in zip(kernel_groups, filters, strides, strict=True)],
            gru_widths=widths,
            num_classes=int(fields["num_classes"]),
            precision=fields["precision"],
        ).validate()
        seed = int(fields["seed"])
        epoch = int(fields["epoch"])
    except (ValueError, KeyError, ConfigError) as exc:
        raise FormatError(f"config text: {exc}", offset=offset) from None
    return config, seed, epoch


@dataclass
class Checkpoint:
    config: ModelConfig
    params: list[tuple[str, np.ndarray]]
    seed: int = 0
    epoch: int = 0

    @classmethod
    def from_model(cls, model: Model, seed: int = 0, epoch: int = 0) -> "Checkpoint":
        params = []
        for name, tensor in model.named_parameters():
            if tensor.data.dtype != np.float32:
                raise ContractError(
                    f"parameter {name} is {tensor.data.dtype}; only float32 models "
                    "can be checkpointed losslessly")
            params.append((name, tensor.data.copy()))
        return cls(model.config, params, seed, epoch)


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    text = _config_text(checkpoint.config, checkpoint.seed, checkpoint.epoch).encode()
    parts = [MAGIC + struct.pack("<II", VERSION, len(text)) + text
             + struct.pack("<I", len(checkpoint.params))]
    for name, arr in checkpoint.params:
        encoded = name.encode()
        parts.append(struct.pack(f"<H{len(encoded)}sB{arr.ndim}Q",
                                 len(encoded), encoded, arr.ndim, *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4"))
    atomic_write(path, *parts)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"truncated while reading {what}", offset=self.pos)
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.pos


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        r = _Reader(f.read())
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    version = r.unpack("<I", "version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    text_len = r.unpack("<I", "config length")
    config_offset = r.pos
    try:
        text = r.take(text_len, "config text").decode()
    except UnicodeDecodeError:
        raise FormatError("config text is not UTF-8", offset=config_offset) from None
    config, seed, epoch = _parse_config_text(text, config_offset)

    n_params = r.unpack("<I", "parameter count")
    params: list[tuple[str, np.ndarray]] = []
    for i in range(n_params):
        name_len = r.unpack("<H", f"name length of parameter {i}")
        name_offset = r.pos
        try:
            name = r.take(name_len, f"name of parameter {i}").decode()
        except UnicodeDecodeError:
            raise FormatError(f"name of parameter {i} is not UTF-8",
                              offset=name_offset) from None
        rank = r.unpack("<B", f"rank of {name}")
        shape = tuple(r.unpack("<Q", f"extent of {name}") for _ in range(rank))
        count = 1
        for extent in shape:
            count *= extent
        raw = r.take(4 * count, f"values of {name}")
        params.append((name, np.frombuffer(raw, dtype="<f4").reshape(shape).copy()))

    if r.remaining:
        raise FormatError(f"{r.remaining} trailing bytes", offset=r.pos)
    return Checkpoint(config, params, seed, epoch)


def model_from_checkpoint(checkpoint: Checkpoint) -> Model:
    """Rebuild the model and overwrite its freshly drawn values in place."""
    model = build(checkpoint.config, Prng(checkpoint.seed))
    stored = dict(checkpoint.params)
    for name, tensor in model.named_parameters():
        if name not in stored:
            raise FormatError(f"checkpoint is missing parameter {name}")
        arr = stored.pop(name)
        if arr.shape != tensor.data.shape:
            raise FormatError(
                f"parameter {name} has shape {arr.shape}, model expects {tensor.data.shape}")
        tensor.data = arr.astype(tensor.data.dtype, copy=True)
    if stored:
        raise FormatError(f"checkpoint has unexpected parameters {sorted(stored)}")
    return model
