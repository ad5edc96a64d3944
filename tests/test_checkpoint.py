import os
import struct

import numpy as np
import pytest

from chrononet.architectures import (ConvBlockSpec, ModelConfig, build,
                                     forward, parameter_count)
from chrononet.checkpoint import (Checkpoint, load_checkpoint,
                                  model_from_checkpoint, save_checkpoint)
from chrononet.errors import ContractError, FormatError
from chrononet.tensor import Prng


def small_config():
    return ModelConfig(architecture="chrononet", input_channels=3,
                       conv_blocks=[ConvBlockSpec((2, 4), 2, 2),
                                    ConvBlockSpec((2, 4), 2, 2)],
                       gru_widths=[4, 4], num_classes=3)


def test_round_trip_bit_exact(tmp_path):
    model = build(small_config(), Prng(11))
    path = tmp_path / "m.cncp"
    save_checkpoint(path, Checkpoint.from_model(model, seed=11, epoch=7))
    loaded = load_checkpoint(path)
    assert loaded.seed == 11 and loaded.epoch == 7
    assert loaded.config == model.config
    assert sum(arr.size for _, arr in loaded.params) == parameter_count(model)
    restored = model_from_checkpoint(loaded)
    for (n1, t1), (n2, t2) in zip(model.named_parameters(),
                                  restored.named_parameters()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()
    x = np.random.default_rng(0).normal(size=(2, 3, 20)).astype(np.float32)
    assert forward(model, x).data.tobytes() == forward(restored, x).data.tobytes()


def test_double_save_is_byte_identical(tmp_path):
    model = build(small_config(), Prng(3))
    a, b = tmp_path / "a.cncp", tmp_path / "b.cncp"
    save_checkpoint(a, Checkpoint.from_model(model))
    save_checkpoint(b, Checkpoint.from_model(model))
    assert a.read_bytes() == b.read_bytes()


def test_f64_model_is_rejected():
    cfg = small_config()
    cfg.precision = "f64"
    model = build(cfg, Prng(6))
    with pytest.raises(ContractError, match="float32"):
        Checkpoint.from_model(model)


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
    save_checkpoint(path, Checkpoint.from_model(model))
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
    save_checkpoint(path, Checkpoint.from_model(model))
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
    save_checkpoint(path, Checkpoint.from_model(model))
    end = len(path.read_bytes())
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(FormatError, match="2 trailing bytes") as err:
        load_checkpoint(path)
    assert err.value.offset == end


def test_unknown_config_key_rejected(tmp_path):
    model = build(small_config(), Prng(9))
    path = tmp_path / "k.cncp"
    save_checkpoint(path, Checkpoint.from_model(model))
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
    save_checkpoint(path, Checkpoint.from_model(model))
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
    save_checkpoint(path, Checkpoint.from_model(model))
    blob = bytearray(path.read_bytes())
    text_len = struct.unpack_from("<I", blob, 8)[0]
    name_offset = 12 + text_len + 4 + 2  # after the parameter count and name length
    blob[name_offset + 1] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert "name of parameter 0" in str(err.value)
    assert err.value.offset == name_offset


def test_missing_parameter_detected(tmp_path):
    model = build(small_config(), Prng(10))
    checkpoint = Checkpoint.from_model(model)
    checkpoint.params = checkpoint.params[:-1]
    path = tmp_path / "short.cncp"
    save_checkpoint(path, checkpoint)
    with pytest.raises(FormatError, match="missing parameter"):
        model_from_checkpoint(load_checkpoint(path))


def test_shape_mismatch_detected(tmp_path):
    model = build(small_config(), Prng(12))
    checkpoint = Checkpoint.from_model(model)
    name, arr = checkpoint.params[0]
    checkpoint.params[0] = (name, arr.reshape(-1))
    path = tmp_path / "warp.cncp"
    save_checkpoint(path, checkpoint)
    with pytest.raises(FormatError, match="shape"):
        model_from_checkpoint(load_checkpoint(path))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    model = build(small_config(), Prng(13))
    save_checkpoint(tmp_path / "a.cncp", Checkpoint.from_model(model))
    leftovers = [p.name for p in tmp_path.iterdir() if ".tmp." in p.name]
    assert leftovers == []


def test_failed_save_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "a.cncp"
    save_checkpoint(path, Checkpoint.from_model(build(small_config(), Prng(13))))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(path, Checkpoint.from_model(build(small_config(), Prng(14))))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.cncp"]
