import os
import struct
import tracemalloc

import numpy as np
import pytest

from chrononet.data.container import (Dataset, atomic_write, export_dataset, groups_path,
                                      import_dataset, read_manifest, save_stats)
from chrononet.errors import DataError, FormatError


def sample_dataset(n=6, channels=2, length=16, groups=True, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, channels, length)).astype(np.float32)
    y = rng.integers(0, 3, size=n)
    g = [f"p{i % 3}" for i in range(n)] if groups else None
    return Dataset(x, y, g)


def test_round_trip_bitwise(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "d.cnds"
    export_dataset(path, ds)
    loaded = import_dataset(path)
    assert loaded.samples.tobytes() == ds.samples.tobytes()
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.groups == ds.groups

    # exporting the loaded copy reproduces the same bytes
    again = tmp_path / "d2.cnds"
    export_dataset(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_bytes_follow_documented_layout(tmp_path):
    x = np.arange(24, dtype=np.float32).reshape(3, 2, 4) / 7
    labels = np.array([0, 1, 65535])
    path = tmp_path / "layout.cnds"
    export_dataset(path, Dataset(x, labels))
    expected = b"CNDS" + struct.pack("<IQII", 1, 3, 2, 4)
    for i in range(3):
        expected += struct.pack("<H", labels[i]) + struct.pack("<8f", *x[i].ravel())
    assert path.read_bytes() == expected

    loaded = import_dataset(path)
    assert loaded.samples.tobytes() == x.tobytes()
    assert np.array_equal(loaded.labels, labels)
    for arr in (loaded.samples, loaded.labels):
        assert arr.flags.writeable and arr.flags.c_contiguous


def test_round_trip_without_groups(tmp_path):
    ds = sample_dataset(groups=False)
    path = tmp_path / "ng.cnds"
    export_dataset(path, ds)
    assert not (tmp_path / "ng.cnds.groups").exists()
    loaded = import_dataset(path)
    assert loaded.groups is None


def test_export_without_groups_removes_stale_sidecar(tmp_path):
    path = tmp_path / "d.cnds"
    export_dataset(path, sample_dataset(groups=True))
    export_dataset(path, sample_dataset(groups=False, seed=1))
    assert not os.path.exists(groups_path(path))
    assert import_dataset(path).groups is None


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 4), dtype=np.float32), np.zeros(3))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2, 4), dtype=np.float32), np.zeros(2))
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2, 4), dtype=np.float32), np.zeros(3), ["a"])


def test_label_range_enforced(tmp_path):
    ds = sample_dataset(groups=False)
    ds.labels[0] = 70000
    with pytest.raises(DataError, match="16-bit"):
        export_dataset(tmp_path / "x.cnds", ds)


@pytest.mark.parametrize("gid", ["a\nb", "", " "], ids=["line-break", "empty", "blank"])
def test_export_refuses_group_ids_the_sidecar_cannot_hold(tmp_path, gid):
    ds = sample_dataset(n=2)
    ds.groups = [gid, "c"]
    with pytest.raises(DataError, match="group id 0 "):
        export_dataset(tmp_path / "x.cnds", ds)
    assert os.listdir(tmp_path) == []


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.cnds"
    path.write_bytes(b"WHAT" + b"\x00" * 40)
    with pytest.raises(FormatError) as err:
        import_dataset(path)
    assert err.value.offset == 0


def test_truncated_and_padded_rejected(tmp_path):
    ds = sample_dataset(groups=False)
    path = tmp_path / "t.cnds"
    export_dataset(path, ds)
    blob = path.read_bytes()
    short = tmp_path / "short.cnds"
    short.write_bytes(blob[:-7])
    with pytest.raises(FormatError, match="bytes"):
        import_dataset(short)
    fat = tmp_path / "fat.cnds"
    fat.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="bytes"):
        import_dataset(fat)


def test_wrong_version(tmp_path):
    ds = sample_dataset(groups=False)
    path = tmp_path / "v.cnds"
    export_dataset(path, ds)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 3)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        import_dataset(path)
    assert err.value.offset == 4


def test_groups_sidecar_count_mismatch(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "g.cnds"
    export_dataset(path, ds)
    with open(groups_path(path), "a") as f:
        f.write("extra\n")
    with pytest.raises(FormatError, match="groups"):
        import_dataset(path)


def test_empty_dataset_round_trip(tmp_path):
    ds = Dataset(np.zeros((0, 3, 8), dtype=np.float32), np.zeros(0, dtype=np.int64))
    path = tmp_path / "empty.cnds"
    export_dataset(path, ds)
    loaded = import_dataset(path)
    assert len(loaded) == 0
    assert loaded.samples.shape == (0, 3, 8)


def test_import_holds_one_copy_of_the_payload(tmp_path):
    ds = sample_dataset(n=40, channels=22, length=1500)
    path = tmp_path / "big.cnds"
    export_dataset(path, ds)
    tracemalloc.start()
    try:
        loaded = import_dataset(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.samples.tobytes() == ds.samples.tobytes()
    assert peak < 1.1 * ds.samples.nbytes


# ---------------------------------------------------------------------------
# stats sidecar


def test_stats_round_trip_bit_exact(tmp_path):
    mean = np.array([0.1, -2.5, 1e-17])
    std = np.array([1.0, 0.333333333333333, 42.0])
    path = tmp_path / "s.stats.cnds"
    save_stats(path, mean, std)
    expected = b"CNDS" + struct.pack("<III", 1, 2, 3) + struct.pack("<3d", *mean) \
        + struct.pack("<3d", *std)
    assert path.read_bytes() == expected


def test_stats_flag_distinguishes_files(tmp_path):
    spath = tmp_path / "s.cnds"
    save_stats(spath, np.zeros(2), np.ones(2))
    with pytest.raises(FormatError):
        import_dataset(spath)


def test_failed_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    data, stats = tmp_path / "d.cnds", tmp_path / "s.cnds"
    export_dataset(data, sample_dataset(groups=False))
    save_stats(stats, np.zeros(2), np.ones(2))
    before = {p: p.read_bytes() for p in (data, stats)}
    with pytest.raises(TypeError):
        atomic_write(data, b"CNDS", object())

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        export_dataset(data, sample_dataset(seed=1, groups=False))
    with pytest.raises(OSError, match="rename refused"):
        save_stats(stats, np.ones(2), np.ones(2))
    assert {p: p.read_bytes() for p in (data, stats)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.cnds", "s.cnds"]


def test_stats_validation(tmp_path):
    with pytest.raises(DataError):
        save_stats(tmp_path / "bad.cnds", np.zeros(2), np.ones(3))


# ---------------------------------------------------------------------------
# manifest


def write_manifest(tmp_path, body, name="m.csv"):
    path = tmp_path / name
    path.write_text("path,label,patient_id,split\n" + body)
    return path


def test_manifest_parses_names_and_indices(tmp_path):
    path = write_manifest(tmp_path, (
        "a.edf,normal,p1,train\n"
        "b.edf,abnormal,p2,train\n"
        "c.edf,ABNORMAL,p3,test\n"
        "d.edf,2,p4,test\n"
        "\n"
    ))
    entries = read_manifest(path, tmp_path)
    assert [e.label for e in entries] == [0, 1, 1, 2]
    assert entries[0].path == "a.edf"
    assert entries[2].split == "test"


def test_manifest_header_required(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("file,label,patient,fold\na.edf,0,p1,train\n")
    with pytest.raises(FormatError, match="header"):
        read_manifest(path, tmp_path)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="empty"):
        read_manifest(empty, tmp_path)


def test_manifest_bad_label(tmp_path):
    path = write_manifest(tmp_path, "a.edf,maybe,p1,train\n")
    with pytest.raises(DataError, match="label"):
        read_manifest(path, tmp_path)
    path = write_manifest(tmp_path, "a.edf,-2,p1,train\n", name="neg.csv")
    with pytest.raises(DataError, match="class index"):
        read_manifest(path, tmp_path)
    # a record's label is a u16: a larger index fails at its line, not after
    # every session has been prepared
    path = write_manifest(tmp_path, "a.edf,65535,p1,train\nb.edf,70000,p2,train\n",
                          name="wide.csv")
    with pytest.raises(DataError, match="manifest line 3: class index .* 70000"):
        read_manifest(path, tmp_path)


def test_manifest_bad_split(tmp_path):
    path = write_manifest(tmp_path, "a.edf,0,p1,validation\n")
    with pytest.raises(DataError, match="split"):
        read_manifest(path, tmp_path)


def test_manifest_patient_overlap_rejected(tmp_path):
    path = write_manifest(tmp_path, (
        "a.edf,0,p1,train\n"
        "b.edf,1,p2,test\n"
        "c.edf,1,p1,test\n"
    ))
    with pytest.raises(DataError, match="p1"):
        read_manifest(path, tmp_path)


def test_manifest_field_count(tmp_path):
    path = write_manifest(tmp_path, "a.edf,0,p1\n")
    with pytest.raises(FormatError, match="4 fields"):
        read_manifest(path, tmp_path)


def test_manifest_empty_patient_id_names_line(tmp_path):
    path = write_manifest(tmp_path, (
        "a.edf,0,p1,train\n"
        "b.edf,1, ,train\n"
    ))
    with pytest.raises(DataError, match="line 3: patient_id"):
        read_manifest(path, tmp_path)


def test_manifest_path_listed_twice_names_both_lines(tmp_path):
    # Different patients, so the split-overlap check alone would pass it, and
    # the same recording would be a train and a test window.
    path = write_manifest(tmp_path, (
        "a.edf,normal,p1,train\n"
        "b.edf,normal,p2,train\n"
        "./a.edf,normal,p3,test\n"
    ))
    with pytest.raises(DataError, match=r"line 4: './a.edf' is listed on line 2"):
        read_manifest(path, tmp_path)


def test_manifest_patient_id_with_line_break_names_line(tmp_path):
    # the groups sidecar holds one id per line
    for body in ('a.edf,0,"p\n1",train\n', 'a.edf,0,"p\r1",train\n'):
        path = write_manifest(tmp_path, body)
        with pytest.raises(DataError, match="line 2: patient_id .* line break"):
            read_manifest(path, tmp_path)


def test_manifest_same_file_under_another_spelling_names_both_lines(tmp_path):
    # cli.cmd_prepare joins each path to the EDF directory, where an absolute
    # path wins: both rows would read the same recording
    path = write_manifest(tmp_path, (
        "a.edf,normal,p1,train\n"
        f"{tmp_path / 'a.edf'},normal,p3,test\n"
    ))
    with pytest.raises(DataError, match=r"line 3: .* is listed on line 2"):
        read_manifest(path, tmp_path)


def test_manifest_symlink_to_a_listed_file_names_both_lines(tmp_path):
    (tmp_path / "a.edf").write_bytes(b"")
    os.symlink(tmp_path / "a.edf", tmp_path / "b.edf")
    path = write_manifest(tmp_path, "a.edf,normal,p1,train\nb.edf,normal,p3,test\n")
    with pytest.raises(DataError, match=r"line 3: 'b.edf' is listed on line 2"):
        read_manifest(path, tmp_path)


def test_manifest_lines_counted_through_a_quoted_line_break(tmp_path):
    path = write_manifest(tmp_path, '"a\n.edf",0,p1,train\nb.edf,maybe,p2,train\n')
    with pytest.raises(DataError, match="manifest line 4: label"):
        read_manifest(path, tmp_path)
    path = write_manifest(tmp_path, '"a\n.edf",0,p1,train\n"a\n.edf",1,p2,train\n')
    with pytest.raises(DataError, match="line 4: .* is listed on line 2"):
        read_manifest(path, tmp_path)
