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
rejected. Each parameter of the model the config describes is stored once,
with its shape, and no other name is stored.

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


_CONFIG_KEYS = ("architecture", "input_channels", "conv_kernels", "conv_filters",
                "conv_strides", "gru_widths", "num_classes", "precision", "seed", "epoch")


def _config_text(config: ModelConfig, seed: int, epoch: int) -> str:
    values = {
        "architecture": config.architecture,
        "input_channels": config.input_channels,
        "conv_kernels": ";".join(
            ",".join(str(k) for k in blk.kernel_lengths) for blk in config.conv_blocks),
        "conv_filters": ";".join(str(blk.filters_per_kernel) for blk in config.conv_blocks),
        "conv_strides": ";".join(str(blk.stride) for blk in config.conv_blocks),
        "gru_widths": ",".join(str(w) for w in config.gru_widths),
        "num_classes": config.num_classes,
        "precision": config.precision,
        "seed": seed,
        "epoch": epoch,
    }
    return "".join(f"{key}={values[key]}\n" for key in _CONFIG_KEYS)


def _parse_config_text(text: str, offset: int) -> tuple[ModelConfig, int, int]:
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"malformed config line {line!r}", offset=offset)
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    missing = set(_CONFIG_KEYS) - fields.keys()
    if missing:
        raise FormatError(f"config text missing keys {sorted(missing)}", offset=offset)
    unknown = fields.keys() - set(_CONFIG_KEYS)
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
    model: Model
    seed: int = 0
    epoch: int = 0


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Write the model's parameters as they are; nothing is written for a
    model that is not float32."""
    model = checkpoint.model
    params = model.named_parameters()
    text = _config_text(model.config, checkpoint.seed, checkpoint.epoch).encode()
    parts = [MAGIC + struct.pack("<II", VERSION, len(text)) + text
             + struct.pack("<I", len(params))]
    for name, tensor in params:
        arr = tensor.data
        if arr.dtype != np.float32:
            raise ContractError(
                f"parameter {name} is {arr.dtype}; only float32 models "
                "can be checkpointed losslessly")
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


def load_checkpoint(path) -> Checkpoint:
    """Build the model the config section describes, then read each stored
    entry into the parameter of the same name."""
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
    model = build(config, Prng(seed))
    tensors = dict(model.named_parameters())
    unread = dict(tensors)

    n_params = r.unpack("<I", "parameter count")
    for i in range(n_params):
        name_len = r.unpack("<H", f"name length of parameter {i}")
        name_offset = r.pos
        try:
            name = r.take(name_len, f"name of parameter {i}").decode()
        except UnicodeDecodeError:
            raise FormatError(f"name of parameter {i} is not UTF-8",
                              offset=name_offset) from None
        if name not in tensors:
            raise FormatError(f"parameter {name} is not in the model", offset=name_offset)
        if name not in unread:
            raise FormatError(f"parameter {name} is stored twice", offset=name_offset)
        tensor = unread.pop(name)
        rank = r.unpack("<B", f"rank of {name}")
        extents_offset = r.pos
        shape = tuple(r.unpack("<Q", f"extent of {name}") for _ in range(rank))
        if shape != tensor.data.shape:
            raise FormatError(f"parameter {name} has shape {shape}, "
                              f"model expects {tensor.data.shape}", offset=extents_offset)
        raw = r.take(4 * tensor.data.size, f"values of {name}")
        tensor.data = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(tensor.data.dtype)

    if r.pos < len(r.buf):
        raise FormatError(f"{len(r.buf) - r.pos} trailing bytes", offset=r.pos)
    if unread:
        raise FormatError(f"checkpoint is missing parameters {list(unread)}", offset=r.pos)
    return Checkpoint(model, seed, epoch)
