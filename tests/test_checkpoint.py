import os
import struct

import numpy as np
import pytest

from chrononet.architectures import (ConvBlockSpec, ModelConfig, build,
                                     forward, parameter_count)
from chrononet.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from chrononet.errors import ContractError, FormatError
from chrononet.tensor import Prng, Tensor


def small_config():
    return ModelConfig(architecture="chrononet", input_channels=3,
                       conv_blocks=[ConvBlockSpec((2, 4), 2, 2),
                                    ConvBlockSpec((2, 4), 2, 2)],
                       gru_widths=[4, 4], num_classes=3)


def test_round_trip_bit_exact(tmp_path):
    model = build(small_config(), Prng(11))
    path = tmp_path / "m.cncp"
    save_checkpoint(path, Checkpoint(model, seed=11, epoch=7))
    loaded = load_checkpoint(path)
    assert loaded.seed == 11 and loaded.epoch == 7
    restored = loaded.model
    assert restored.config == model.config
    assert parameter_count(restored) == parameter_count(model)
    for (n1, t1), (n2, t2) in zip(model.named_parameters(),
                                  restored.named_parameters(), strict=True):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()
        # Adam updates loaded arrays in place
        assert t2.data.flags.writeable and t2.data.flags.c_contiguous
        assert t2.data.dtype == np.float32
    x = np.random.default_rng(0).normal(size=(2, 3, 20)).astype(np.float32)
    assert forward(model, x).data.tobytes() == forward(restored, x).data.tobytes()


def test_double_save_is_byte_identical(tmp_path):
    model = build(small_config(), Prng(3))
    a, b = tmp_path / "a.cncp", tmp_path / "b.cncp"
    save_checkpoint(a, Checkpoint(model))
    save_checkpoint(b, Checkpoint(model))
    assert a.read_bytes() == b.read_bytes()


def test_f64_model_is_rejected(tmp_path):
    cfg = small_config()
    cfg.precision = "f64"
    model = build(cfg, Prng(6))
    with pytest.raises(ContractError, match="float32"):
        save_checkpoint(tmp_path / "m.cncp", Checkpoint(model))
    assert list(tmp_path.iterdir()) == []


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.cncp"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 0
    assert "magic" in str(err.value)


def test_bad_version_reports_offset(tmp_path):
    path = tmp_path / "v9.cncp"
    path.write_bytes(b"CNCP" + struct.pack("<I", 9) + b"\x00" * 16)
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 4


def test_version_1_rejected_at_offset_4(tmp_path):
    # version 1 carried an Adam trailer, version 2 per-gate GRU arrays
    model = build(small_config(), Prng(5))
    path = tmp_path / "old.cncp"
    save_checkpoint(path, Checkpoint(model))
    blob = bytearray(path.read_bytes())
    assert struct.unpack_from("<I", blob, 4)[0] == 3
    for version in (1, 2):
        struct.pack_into("<I", blob, 4, version)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"unsupported version {version}") as err:
            load_checkpoint(path)
        assert err.value.offset == 4


def test_truncation_reports_offset(tmp_path):
    model = build(small_config(), Prng(7))
    path = tmp_path / "full.cncp"
    save_checkpoint(path, Checkpoint(model))
    blob = path.read_bytes()
    cut = tmp_path / "cut.cncp"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError) as err:
        load_checkpoint(cut)
    assert err.value.offset is not None
    assert err.value.offset <= len(blob) // 2


def test_trailing_garbage_rejected(tmp_path):
    model = build(small_config(), Prng(8))
    path = tmp_path / "g.cncp"
    save_checkpoint(path, Checkpoint(model))
    end = len(path.read_bytes())
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="2 trailing bytes") as err:
        load_checkpoint(path)
    assert err.value.offset == end


def test_unknown_config_key_rejected(tmp_path):
    model = build(small_config(), Prng(9))
    path = tmp_path / "k.cncp"
    save_checkpoint(path, Checkpoint(model))
    blob = bytearray(path.read_bytes())
    text_len = struct.unpack_from("<I", blob, 8)[0]
    text = blob[12:12 + text_len].decode()
    mutated = text.replace("seed=0", "sead=0")
    blob[12:12 + text_len] = mutated.encode()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "sead" in str(err.value) or "seed" in str(err.value)
    assert err.value.offset == 12


def test_corrupt_config_section_reported_at_its_offset(tmp_path):
    model = build(small_config(), Prng(9))
    path = tmp_path / "c.cncp"
    save_checkpoint(path, Checkpoint(model))
    blob = path.read_bytes()
    for old, new, what in ((b"architecture=c", b"architecture=\xff", "not UTF-8"),
                           (b"num_classes=3", b"num_classes=1", "num_classes")):
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(FormatError, match=what) as err:
            load_checkpoint(path)
        assert err.value.offset == 12


def test_corrupt_name_byte_reports_offset(tmp_path):
    model = build(small_config(), Prng(9))
    path = tmp_path / "n.cncp"
    save_checkpoint(path, Checkpoint(model))
    blob = bytearray(path.read_bytes())
    text_len = struct.unpack_from("<I", blob, 8)[0]
    name_offset = 12 + text_len + 4 + 2  # after the parameter count and name length
    blob[name_offset + 1] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "name of parameter 0" in str(err.value)
    assert err.value.offset == name_offset


def save_with(path, model, params):
    """Save ``model`` as if its parameter list were ``params``; return the byte
    offset of each entry's name and the end of the file, as the layout
    places them."""
    model.named_parameters = lambda: params
    save_checkpoint(path, Checkpoint(model))
    pos = 12 + struct.unpack_from("<I", path.read_bytes(), 8)[0] + 4
    name_offsets = []
    for name, tensor in params:
        name_offsets.append(pos + 2)
        pos += 2 + len(name.encode()) + 1 + 8 * tensor.data.ndim + 4 * tensor.data.size
    assert pos == len(path.read_bytes())
    return name_offsets, pos


def test_missing_parameter_detected(tmp_path):
    model = build(small_config(), Prng(10))
    path = tmp_path / "short.cncp"
    _, end = save_with(path, model, model.named_parameters()[:-1])
    with pytest.raises(FormatError, match=r"missing parameters \['readout.b'\]") as err:
        load_checkpoint(path)
    assert err.value.offset == end


def test_shape_mismatch_detected(tmp_path):
    model = build(small_config(), Prng(12))
    params = model.named_parameters()
    name, tensor = params[2]
    tensor.data = tensor.data.reshape(-1)
    path = tmp_path / "warp.cncp"
    name_offsets, _ = save_with(path, model, params)
    with pytest.raises(FormatError, match=f"parameter {name} has shape") as err:
        load_checkpoint(path)
    assert err.value.offset == name_offsets[2] + len(name) + 1  # its extents


def test_duplicated_parameter_rejected(tmp_path):
    # a second copy must not silently overwrite the first
    model = build(small_config(), Prng(15))
    params = model.named_parameters()
    name, tensor = params[0]
    sevens = Tensor(np.full_like(tensor.data, 7.0))
    path = tmp_path / "twice.cncp"
    name_offsets, _ = save_with(path, model, [*params, (name, sevens)])
    with pytest.raises(FormatError, match=f"parameter {name} is stored twice") as err:
        load_checkpoint(path)
    assert err.value.offset == name_offsets[-1]


def test_unknown_parameter_rejected(tmp_path):
    model = build(small_config(), Prng(16))
    params = model.named_parameters()
    params[3] = ("conv9.bias", params[3][1])
    path = tmp_path / "alien.cncp"
    name_offsets, _ = save_with(path, model, params)
    with pytest.raises(FormatError, match="parameter conv9.bias is not in the model") as err:
        load_checkpoint(path)
    assert err.value.offset == name_offsets[3]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    model = build(small_config(), Prng(13))
    save_checkpoint(tmp_path / "a.cncp", Checkpoint(model))
    leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert leftovers == []


def test_failed_save_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "a.cncp"
    save_checkpoint(path, Checkpoint(build(small_config(), Prng(13))))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(path, Checkpoint(build(small_config(), Prng(14))))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.cncp"]
