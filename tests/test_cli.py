import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import chrononet
from chrononet import checkpoint as ckpt
from chrononet import cli, training
from chrononet.architectures import ARCHITECTURES, build, default_config
from chrononet.cli import class_rates, main
from chrononet.data import container
from chrononet.data.edf import recording_from_arrays, write_edf
from chrononet.tensor import Prng
from chrononet.training import Metrics, TrainConfig

ELECTRODES = ["FP1", "FP2", "F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6",
              "C3", "C4", "CZ", "P3", "P4", "O1", "O2", "A1", "A2"]


def write_session(path, seconds, rate=250.0, seed=0):
    rng = np.random.default_rng(seed)
    n = int(seconds * rate)
    arrays = [rng.normal(scale=40.0, size=n) for _ in ELECTRODES]
    labels = [f"EEG {e}-REF" for e in ELECTRODES]
    rec = recording_from_arrays(arrays, labels, rate)
    write_edf(path, rec)


def synth_container(tmp_path, name="data.cnds", per_class=8, length=64,
                    extra=()):
    out = tmp_path / name
    code = main(["synth", "--out", str(out), "--per-class", str(per_class),
                 "--length", str(length), "--channels", "2", *extra])
    assert code == 0
    return out


def metrics_without_seconds(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_missing_required(capsys):
    assert main(["train"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_usage_error_unknown_command(capsys):
    assert main(["transmogrify"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_usage_error_bad_flag_value(capsys):
    assert main(["train", "--data", "x.cnds", "--epochs", "three"]) == 1


def test_config_error_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nwarp_speed=9\n")
    data = synth_container(tmp_path)
    code = main(["train", "--data", str(data), "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "warp_speed" in err and "run.cfg:2" in err


def test_config_values_cast_by_the_flag_type(tmp_path, capsys):
    # each value goes through its flag's argparse type; a rejected one names
    # the file and line and exits 1 before any data is read
    cfg = tmp_path / "run.cfg"
    for text, line in (("epochs=abc\n", 1), ("seed=3\nlr=fast\n", 2),
                       ("kernels=2,x\n", 1), ("gru-widths=,\n", 1)):
        cfg.write_text(text)
        assert main(["train", "--data", str(tmp_path / "none.cnds"),
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"run.cfg:{line}:" in err
    cfg.write_text("per-class=0\n")
    assert main(["synth", "--out", str(tmp_path / "x.cnds"), "--config", str(cfg)]) == 1
    assert "per-class must be positive" in capsys.readouterr().err


def test_data_error_bad_container(tmp_path, capsys):
    bad = tmp_path / "bad.cnds"
    bad.write_bytes(b"garbage here")
    assert main(["train", "--data", str(bad), "--epochs", "1"]) == 2
    assert "data error" in capsys.readouterr().err


def test_data_error_missing_file(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope.cnds")]) == 2
    assert "data error" in capsys.readouterr().err


def test_numeric_error_exit_code(tmp_path, capsys):
    samples = np.random.default_rng(0).normal(size=(8, 2, 32)).astype(np.float32)
    samples[3, 1, 7] = np.nan  # one corrupt reading poisons its batch
    ds = container.Dataset(samples, np.arange(8, dtype=np.int64) % 2)
    path = tmp_path / "hot.cnds"
    container.export_dataset(path, ds)
    code = main(["train", "--data", str(path), "--epochs", "1", "--batch", "8",
                 "--blocks", "1", "--filters", "2", "--gru-widths", "4",
                 "--checkpoint", str(tmp_path / "m.cncp"),
                 "--metrics", str(tmp_path / "m.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numeric error" in err
    assert "epoch 0 batch 0" in err
    assert "op 'conv1d'" in err


def test_non_finite_gradient_stops_before_update(tmp_path, monkeypatch, capsys):
    data = synth_container(tmp_path)
    built = {}
    real_build = cli.build
    monkeypatch.setattr(cli, "build", lambda cfg, rng: built.setdefault(
        "model", real_build(cfg, rng)))
    real_backward = training.backward

    def poisoned(loss, graph):
        grads = real_backward(loss, graph)
        weight = dict(built["model"].named_parameters())["readout.W"]
        grads[weight].flat[0] = np.nan
        return grads

    monkeypatch.setattr(training, "backward", poisoned)
    capsys.readouterr()
    assert run_train(tmp_path, data) == 3
    err = capsys.readouterr().err
    assert "epoch 0 batch 0" in err and "non-finite gradient for readout.W" in err
    assert not (tmp_path / "model.cncp").exists()


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    import chrononet.layers as layers_mod
    from chrononet.tensor import make_op
    real = layers_mod.inception_conv1d_forward

    def corrupted(block, seq):
        out = real(block, seq)
        return make_op("corrupt", (out,), out.data.copy(), lambda g: (1.01 * g,))

    monkeypatch.setattr(layers_mod, "inception_conv1d_forward", corrupted)
    assert main(["gradcheck"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_rejects_f32(capsys):
    # gradcheck always runs in float64; no subcommand takes a precision
    for argv in (["gradcheck"], ["train", "--data", "x.cnds"], ["cv", "--data", "x.cnds"]):
        assert main([*argv, "--precision", "f32"]) == 1
        assert "usage error" in capsys.readouterr().err
    assert main(["train", "--data", "x.cnds", "--jobs", "2"]) == 1
    assert "usage error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_container_and_self_check(tmp_path, capsys):
    out = synth_container(tmp_path, per_class=16, length=128)
    text = capsys.readouterr().out
    assert "wrote 32 samples" in text
    assert "self-check joint=" in text
    ds = container.import_dataset(out)
    assert len(ds) == 32
    assert ds.samples.shape == (32, 2, 128)
    assert ds.groups is not None and len(ds.groups) == 32


def test_synth_deterministic(tmp_path):
    a = synth_container(tmp_path, name="a.cnds")
    b = synth_container(tmp_path, name="b.cnds")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.cnds.groups").read_bytes() == \
        (tmp_path / "b.cnds.groups").read_bytes()


def test_synth_rejects_non_positive_per_class(tmp_path, capsys):
    out = tmp_path / "x.cnds"
    for count in ("0", "-1"):
        assert main(["synth", "--out", str(out), "--per-class", count]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_synth_groups_write_failure_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "x.cnds"
    (tmp_path / "x.cnds.groups").mkdir()   # the sidecar cannot be written
    assert main(["synth", "--out", str(out), "--per-class", "2", "--length", "64"]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_synth_rejects_bad_spec(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x.cnds"), "--classes", "1"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


TRAIN_FLAGS = ["--blocks", "2", "--filters", "2", "--gru-widths", "4,4",
               "--batch", "8", "--epochs", "2"]


def run_train(tmp_path, data, extra=()):
    return main(["train", "--data", str(data),
                 "--checkpoint", str(tmp_path / "model.cncp"),
                 "--metrics", str(tmp_path / "metrics.csv"),
                 *TRAIN_FLAGS, *extra])


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    data = synth_container(tmp_path)
    capsys.readouterr()
    assert run_train(tmp_path, data) == 0
    out = capsys.readouterr().out
    assert out.startswith("epoch,train_loss,train_acc,test_acc,seconds")
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc,seconds"
    assert len(lines) == 3
    snapshot = ckpt.load_checkpoint(tmp_path / "model.cncp")
    assert snapshot.epoch == 1
    assert snapshot.model.config.input_channels == 2


@pytest.mark.parametrize("arch,channels,per_class,batch", [("crnn", 2, 32, 64),
                                                          ("chrononet", 22, 8, 8)])
def test_train_bits_equal_under_one_and_two_blas_threads(tmp_path, arch, channels,
                                                         per_class, batch):
    # README: at these shapes the checkpoint does not depend on the BLAS thread count
    data = synth_container(tmp_path, per_class=per_class, length=256,
                           extra=["--channels", str(channels)])
    src = os.path.dirname(os.path.dirname(chrononet.__file__))
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.cncp"
        subprocess.run([sys.executable, "-m", "chrononet.cli", "train", "--data", str(data),
                        "--arch", arch, "--batch", str(batch), "--epochs", "2", "--seed", "7",
                        "--checkpoint", str(out), "--metrics", str(tmp_path / "m.csv")],
                       env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_train_metrics_deterministic(tmp_path):
    data = synth_container(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run_train(a, data) == 0
    assert run_train(b, data) == 0
    assert metrics_without_seconds(a / "metrics.csv") == \
        metrics_without_seconds(b / "metrics.csv")
    assert (a / "model.cncp").read_bytes() == (b / "model.cncp").read_bytes()


def test_train_lr_zero_leaves_parameters_at_init(tmp_path):
    data = synth_container(tmp_path)
    assert run_train(tmp_path, data, ["--lr", "0"]) == 0
    snapshot = ckpt.load_checkpoint(tmp_path / "model.cncp")
    trained = snapshot.model
    fresh = build(trained.config, Prng(snapshot.seed))
    for (name, a), (_, b) in zip(trained.named_parameters(),
                                 fresh.named_parameters()):
        assert np.array_equal(a.data, b.data), name


def test_train_grad_clip_caps_every_step(tmp_path, monkeypatch):
    data = synth_container(tmp_path)
    clip = training.clip_gradients
    norms = []

    def spy(grads, max_norm):
        assert max_norm == 0.01
        norms.append(clip(grads, max_norm))
        assert sum(training._squared_sums(grads).values()) ** 0.5 <= 0.01 * (1 + 1e-6)
        return norms[-1]

    monkeypatch.setattr(training, "clip_gradients", spy)
    assert run_train(tmp_path, data, ["--grad-clip", "0.01"]) == 0
    assert len(norms) == 4  # 2 epochs of 16 samples in batches of 8
    assert all(norm > 0.01 for norm in norms)
    rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(np.isfinite(float(row.split(",")[1])) for row in rows)


def test_train_repeats_reports_spread(tmp_path, capsys):
    data = synth_container(tmp_path)
    test = synth_container(tmp_path, name="test.cnds", extra=["--seed", "9"])
    code = run_train(tmp_path, data, ["--test", str(test), "--repeats", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "repeats 2: mean test_acc=" in out
    assert (tmp_path / "metrics.csv.r0").exists()
    assert (tmp_path / "metrics.csv.r1").exists()
    assert (tmp_path / "model.cncp.r0").exists()
    # derived seeds differ, so the two runs are genuinely different
    assert metrics_without_seconds(tmp_path / "metrics.csv.r0") != \
        metrics_without_seconds(tmp_path / "metrics.csv.r1")


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_train_takes_library_defaults(tmp_path, monkeypatch, arch):
    data = synth_container(tmp_path, per_class=4)
    seen = {}

    def fake_train(model, train_data, cfg, **kwargs):
        seen["model"], seen["train"] = model.config, cfg
        return [Metrics(0, 0.0, 0.0, float("nan"), 0.0)]

    monkeypatch.setattr(cli, "train", fake_train)
    argv = ["train", "--data", str(data), "--arch", arch,
            "--checkpoint", str(tmp_path / "m.cncp"), "--metrics", str(tmp_path / "m.csv")]
    assert main(argv) == 0
    assert seen["model"] == default_config(arch, input_channels=2, num_classes=2)
    assert seen["train"] == TrainConfig()
    # an explicit zero is a value, not "unset": it must reach validation
    for flag in ("--filters", "--blocks", "--epochs"):
        seen.clear()
        assert main([*argv, flag, "0"]) == 1
        assert not seen


def test_config_file_fills_flags_and_flags_win(tmp_path, capsys):
    data = synth_container(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "blocks = 2\nfilters = 2\ngru-widths = 4,4\n"
        "batch = 8\nepochs = 5\n# comment line\n")
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "--epochs", "1",
                 "--checkpoint", str(tmp_path / "m.cncp"),
                 "--metrics", str(tmp_path / "m.csv")])
    assert code == 0
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert len(lines) == 2  # header + exactly one epoch: the flag outranks the file


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_accuracy_and_confusion(tmp_path, capsys):
    data = synth_container(tmp_path)
    assert run_train(tmp_path, data) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(tmp_path / "model.cncp"),
                 "--data", str(data)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("accuracy ")
    assert out[1].startswith("true 0:") and out[2].startswith("true 1:")
    counts = [int(v) for line in out[1:3] for v in line.split(":")[1].split()]
    assert sum(counts) == 16


def test_eval_prints_sensitivity_and_specificity_per_class(tmp_path, capsys):
    data = synth_container(tmp_path)
    assert run_train(tmp_path, data) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "model.cncp"), "--data", str(data)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5 and sum(line.startswith("true ") for line in out) == 2
    (a, b), (c, d) = ([int(v) for v in line.split(":")[1].split()] for line in out[1:3])
    rates = [f"{x:.4f}" if y else "n/a" for x, y in
             ((a / max(a + b, 1), a + b), (d / max(c + d, 1), c + d))]
    assert out[3] == f"class 0: sensitivity {rates[0]} specificity {rates[1]}"
    assert out[4] == f"class 1: sensitivity {rates[1]} specificity {rates[0]}"


def test_eval_keeps_freed_heap_before_predict(tmp_path, monkeypatch):
    data = synth_container(tmp_path)
    assert run_train(tmp_path, data) == 0
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append("heap"))
    monkeypatch.setattr(cli, "predict", lambda model, x: calls.append("predict") or
                        training.predict(model, x))
    assert main(["eval", "--checkpoint", str(tmp_path / "model.cncp"), "--data", str(data)]) == 0
    assert calls == ["heap", "predict"]


def test_class_rates_take_each_class_as_positive():
    confusion = np.array([[5, 1, 0], [2, 6, 2], [0, 0, 0]])
    assert class_rates(confusion) == [
        "class 0: sensitivity 0.8333 specificity 0.8000",   # 5/6; (6+2)/10
        "class 1: sensitivity 0.6000 specificity 0.8333",   # 6/10; 5/6
        "class 2: sensitivity n/a specificity 0.8750",      # no positives; 14/16
    ]


def test_eval_channel_mismatch_names_both(tmp_path, capsys):
    data = synth_container(tmp_path)
    assert run_train(tmp_path, data) == 0
    wide = tmp_path / "wide.cnds"
    assert main(["synth", "--out", str(wide), "--per-class", "4",
                 "--length", "64", "--channels", "3"]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(tmp_path / "model.cncp"),
                 "--data", str(wide)])
    assert code == 1
    err = capsys.readouterr().err
    assert "2" in err and "3" in err


def test_eval_rejects_labels_beyond_checkpoint_classes(tmp_path, capsys):
    data = synth_container(tmp_path)
    assert run_train(tmp_path, data) == 0
    ds = container.import_dataset(data)
    ds.labels[3] = 5
    bad = tmp_path / "bad_labels.cnds"
    container.export_dataset(bad, ds)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(tmp_path / "model.cncp"), "--data", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "data error" in err and "label 5" in err


def test_eval_empty_dataset_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "m.cncp"
    model = build(default_config("crnn", input_channels=2), Prng(0))
    ckpt.save_checkpoint(path, ckpt.Checkpoint(model))
    empty = tmp_path / "empty.cnds"
    container.export_dataset(empty, container.Dataset(np.zeros((0, 2, 64), np.float32),
                                                      np.zeros(0, np.int64)))
    assert main(["eval", "--checkpoint", str(path), "--data", str(empty)]) == 2
    assert f"data error: {empty} is empty" in capsys.readouterr().err


def test_eval_corrupt_checkpoint_config_is_a_format_error(tmp_path, capsys):
    data = synth_container(tmp_path, per_class=2)
    path = tmp_path / "m.cncp"
    model = build(default_config("crnn", input_channels=2), Prng(0))
    ckpt.save_checkpoint(path, ckpt.Checkpoint(model))
    path.write_bytes(path.read_bytes().replace(b"num_classes=2", b"num_classes=1"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
    assert "byte offset 12" in capsys.readouterr().err


def test_train_test_channel_mismatch_fails_before_training(tmp_path, capsys):
    data = synth_container(tmp_path)
    wide = tmp_path / "wide.cnds"
    assert main(["synth", "--out", str(wide), "--per-class", "4",
                 "--length", "64", "--channels", "3"]) == 0
    capsys.readouterr()
    assert run_train(tmp_path, data, ["--test", str(wide)]) == 1
    captured = capsys.readouterr()
    assert "model expects 2 channels" in captured.err and "has 3" in captured.err
    assert "epoch" not in captured.out
    assert not (tmp_path / "metrics.csv").exists()
    assert not (tmp_path / "model.cncp").exists()


def test_train_empty_test_set_fails_before_training(tmp_path, capsys):
    # an empty --test set is an error, not a run without test accuracy
    data = synth_container(tmp_path)
    empty = tmp_path / "empty.cnds"
    container.export_dataset(empty, container.Dataset(np.zeros((0, 2, 64), np.float32),
                                                      np.zeros(0, np.int64)))
    for extra in ([], ["--best-checkpoint", str(tmp_path / "best.cncp")]):
        capsys.readouterr()
        assert run_train(tmp_path, data, ["--test", str(empty), *extra]) == 2
        captured = capsys.readouterr()
        assert "test set is empty" in captured.err
        assert "epoch" not in captured.out
        assert not any(tmp_path.glob("*.csv")) and not any(tmp_path.glob("*.cncp"))


def test_train_test_labels_beyond_model_classes_fail_before_training(tmp_path, capsys):
    data = synth_container(tmp_path)
    wide = synth_container(tmp_path, name="four.cnds", per_class=4,
                           extra=["--classes", "4"])
    capsys.readouterr()
    assert run_train(tmp_path, data, ["--test", str(wide)]) == 2
    captured = capsys.readouterr()
    assert "data error" in captured.err and "label 3" in captured.err
    assert "epoch" not in captured.out
    assert not (tmp_path / "metrics.csv").exists()
    assert not (tmp_path / "model.cncp").exists()


def test_train_best_checkpoint_without_test_fails_before_training(tmp_path, capsys):
    data = synth_container(tmp_path)
    best = tmp_path / "best.cncp"
    assert run_train(tmp_path, data, ["--best-checkpoint", str(best)]) == 1
    assert "needs test data" in capsys.readouterr().err
    assert not best.exists()
    assert not (tmp_path / "model.cncp").exists()
    assert not (tmp_path / "metrics.csv").exists()


# with today's trained bits, seed 0 ties every epoch and seed 1 peaks at epoch 0
@pytest.mark.parametrize("seed", ["0", "1"])
def test_train_best_checkpoint_is_last_epoch_of_max_test_acc(tmp_path, seed):
    data = synth_container(tmp_path)
    test_path = synth_container(tmp_path, name="test.cnds", extra=["--seed", "9"])
    best = tmp_path / "best.cncp"
    assert run_train(tmp_path, data, ["--test", str(test_path), "--best-checkpoint", str(best),
                                      "--epochs", "3", "--seed", seed]) == 0
    rows = [row.split(",") for row in (tmp_path / "metrics.csv").read_text().splitlines()[1:]]
    accs = [float(row[3]) for row in rows]
    epoch = max(e for e, acc in enumerate(accs) if acc == max(accs))  # ties go to the later
    snapshot = ckpt.load_checkpoint(best)
    assert snapshot.epoch == epoch
    test_set = container.import_dataset(test_path)
    acc = training.evaluate(snapshot.model, (test_set.samples, test_set.labels))
    assert repr(acc) == rows[epoch][3]


def test_train_failing_before_first_step_prints_nothing(tmp_path, capsys):
    data = synth_container(tmp_path)
    capsys.readouterr()
    assert run_train(tmp_path, data, ["--best-checkpoint", str(tmp_path / "b.cncp")]) == 1
    captured = capsys.readouterr()
    assert "needs test data" in captured.err
    assert captured.out == ""


def test_train_rejects_zero_repeats_before_reading_data(tmp_path, monkeypatch, capsys):
    data = synth_container(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["train", "--data", str(data), "--repeats", "0"]) == 1
    assert "repeats" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    # the check runs before the data is read: a missing file is not reached
    assert main(["train", "--data", "missing.cnds", "--repeats", "0"]) == 1


def test_unwritable_output_paths_fail_before_reading_input(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    before = sorted(p.name for p in tmp_path.iterdir())
    # every input named here is missing: an error about the output path
    # shows that no input was read first
    train = ["train", "--data", "missing.cnds"]
    cases = [
        (train + ["--checkpoint", "nodir/m.cncp"], "--checkpoint nodir/m.cncp"),
        (train + ["--best-checkpoint", "nodir/b.cncp"], "--best-checkpoint nodir/b.cncp"),
        (train + ["--metrics", "nodir/m.csv"], "--metrics nodir/m.csv"),
        (train + ["--checkpoint", "afile/m.cncp"], "--checkpoint afile/m.cncp"),
        (["cv", "--data", "missing.cnds", "--out", "nodir/f.csv"], "--out nodir/f.csv"),
        (["prepare", "--edf-dir", "edf", "--manifest", "missing.csv", "--out", "nodir/p"],
         "--out nodir/p"),
        (["synth", "--out", "nodir/s.cnds"], "--out nodir/s.cnds"),
    ]
    for argv, named in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {named}: directory "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


# ---------------------------------------------------------------------------
# cv


def test_cv_emits_fold_table(tmp_path, capsys):
    data = synth_container(tmp_path, per_class=10)
    out_csv = tmp_path / "folds.csv"
    capsys.readouterr()
    code = main(["cv", "--data", str(data), "--k", "5", "--out", str(out_csv),
                 *TRAIN_FLAGS])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("fold,accuracy")
    assert "mean accuracy" in printed
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "fold,accuracy"
    assert [line.split(",")[0] for line in lines[1:6]] == ["0", "1", "2", "3", "4"]
    assert lines[6].startswith("mean,")


def test_cv_parallel_folds_write_the_same_table(tmp_path):
    data = synth_container(tmp_path, per_class=10)
    tables = []
    for jobs in ("1", "2"):
        out_csv = tmp_path / f"folds{jobs}.csv"
        assert main(["cv", "--data", str(data), "--k", "3", "--jobs", jobs,
                     "--out", str(out_csv), "--epochs", "2", "--blocks", "1",
                     "--filters", "2", "--gru-widths", "4"]) == 0
        tables.append(out_csv.read_text())
    assert tables[0] == tables[1]


def test_cv_requires_groups_sidecar(tmp_path, capsys):
    data = synth_container(tmp_path)
    (tmp_path / "data.cnds.groups").unlink()
    assert main(["cv", "--data", str(data), *TRAIN_FLAGS]) == 2
    assert "groups" in capsys.readouterr().err


def test_cv_rejects_non_positive_jobs_before_reading(tmp_path, capsys):
    for jobs in ("0", "-3"):
        assert main(["cv", "--data", str(tmp_path / "none.cnds"), "--jobs", jobs]) == 1
        assert "jobs must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# prepare


def write_fixture(tmp_path, train_seconds=720, test_seconds=60):
    edf_dir = tmp_path / "edf"
    edf_dir.mkdir()
    write_session(edf_dir / "train.edf", train_seconds, seed=1)
    write_session(edf_dir / "test.edf", test_seconds, seed=2)
    manifest = tmp_path / "sessions.csv"
    manifest.write_text(
        "path,label,patient_id,split\n"
        "train.edf,normal,pa,train\n"
        "test.edf,abnormal,pb,test\n")
    return edf_dir, manifest


def test_prepare_window_counts(tmp_path, capsys):
    edf_dir, manifest = write_fixture(tmp_path)
    out_base = tmp_path / "set"
    code = main(["prepare", "--edf-dir", str(edf_dir),
                 "--manifest", str(manifest), "--out", str(out_base)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "train windows: 11" in printed
    assert "test windows: 1" in printed

    train = container.import_dataset(f"{out_base}.train.cnds")
    test = container.import_dataset(f"{out_base}.test.cnds")
    assert train.samples.shape == (11, 22, 15000)
    assert test.samples.shape == (1, 22, 15000)
    assert np.array_equal(train.labels, np.zeros(11))
    assert np.array_equal(test.labels, np.ones(1))
    assert set(train.groups) == {"pa"} and set(test.groups) == {"pb"}

    stats = (tmp_path / "set.stats.cnds").read_bytes()
    assert len(stats) == 16 + 2 * 22 * 8
    mean = np.frombuffer(stats, "<f8", 22, offset=16)
    std = np.frombuffer(stats, "<f8", 22, offset=16 + 22 * 8)
    assert np.all(np.isfinite(mean)) and np.all(std > 0)
    # training windows are z-scored by their own stats
    assert np.allclose(train.samples.mean(axis=(0, 2)), 0.0, atol=1e-4)
    assert np.allclose(train.samples.std(axis=(0, 2)), 1.0, atol=1e-3)


def test_prepare_montage_file_selects_pairs(tmp_path, capsys):
    edf_dir, manifest = write_fixture(tmp_path, train_seconds=120)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("T4,T6,T4-T6\nFP1,F7,FP1-F7\n")
    for out, extra in (("full", []), ("two", ["--montage", str(pairs)])):
        assert main(["prepare", "--edf-dir", str(edf_dir), "--manifest", str(manifest),
                     "--out", str(tmp_path / out), *extra]) == 0
    for split in ("train", "test"):
        full = container.import_dataset(tmp_path / f"full.{split}.cnds").samples
        two = container.import_dataset(tmp_path / f"two.{split}.cnds").samples
        assert two.shape == (len(full), 2, 15000)
        # rows 6 and 0 of the default montage; stats are per channel
        assert two[:, 0].tobytes() == full[:, 6].tobytes()
        assert two[:, 1].tobytes() == full[:, 0].tobytes()


def traced_prepare(tmp_path, capsys, b_seconds=240):
    """Traced peak of prepare over a 256 Hz 240 s train session, a 512 Hz
    train session of b_seconds and a 512 Hz 90 s test session."""
    edf_dir = tmp_path / "edf"
    edf_dir.mkdir(parents=True)
    for seed, (name, seconds, rate) in enumerate((("a", 240, 256.0), ("b", b_seconds, 512.0),
                                                  ("c", 90, 512.0))):
        write_session(edf_dir / f"{name}.edf", seconds, rate=rate, seed=seed)
    manifest = tmp_path / "sessions.csv"
    manifest.write_text("path,label,patient_id,split\n"
                        "a.edf,normal,pa,train\n"
                        "b.edf,abnormal,pb,train\n"
                        "c.edf,abnormal,pc,test\n")
    tracemalloc.start()
    try:
        code = main(["prepare", "--edf-dir", str(edf_dir),
                     "--manifest", str(manifest), "--out", str(tmp_path / "set")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    windows = 4 + min(11, b_seconds // 60)
    assert f"train windows: {windows}" in capsys.readouterr().out
    return peak


def test_prepare_holds_one_session_at_a_time(tmp_path, capsys):
    peak = traced_prepare(tmp_path, capsys)
    # The 512 Hz train session's montage and resampled rows, next to the
    # windows kept so far: the previous session's arrays and any list of
    # rows are gone by then.
    recording = len(ELECTRODES) * 512 * 240 * 8
    assert peak < 2.5 * recording


def test_prepare_peak_is_flat_in_recording_length(tmp_path, capsys):
    # Past its eleventh window a train session adds only its EDF bytes: the
    # records no window reads are never converted, montaged or resampled.
    short = traced_prepare(tmp_path / "short", capsys, b_seconds=720)
    long = traced_prepare(tmp_path / "long", capsys, b_seconds=1440)
    extra_edf_bytes = len(ELECTRODES) * 512 * (1440 - 720) * 2
    assert long - short <= extra_edf_bytes


def test_prepare_without_test_windows_removes_stale_test_split(tmp_path, capsys):
    edf_dir, manifest = write_fixture(tmp_path, train_seconds=120)
    out_base = tmp_path / "set"
    args = ["prepare", "--edf-dir", str(edf_dir), "--manifest", str(manifest),
            "--out", str(out_base)]
    assert main(args) == 0
    assert (tmp_path / "set.test.cnds").exists()
    assert (tmp_path / "set.test.cnds.groups").exists()
    manifest.write_text("path,label,patient_id,split\ntrain.edf,normal,pa,train\n")
    capsys.readouterr()
    assert main(args) == 0
    assert "test windows: 0" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["edf", "sessions.csv", "set.stats.cnds", "set.train.cnds", "set.train.cnds.groups"]


def test_prepare_patient_overlap_refused_before_work(tmp_path, capsys):
    edf_dir, manifest = write_fixture(tmp_path)
    manifest.write_text(
        "path,label,patient_id,split\n"
        "train.edf,normal,pa,train\n"
        "test.edf,abnormal,pa,test\n")
    code = main(["prepare", "--edf-dir", str(edf_dir),
                 "--manifest", str(manifest), "--out", str(tmp_path / "set")])
    assert code == 2
    assert "pa" in capsys.readouterr().err
    assert not (tmp_path / "set.train.cnds").exists()
    assert not (tmp_path / "set.stats.cnds").exists()


def test_prepare_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("path,label,patient_id,split\n")
    code = main(["prepare", "--edf-dir", str(tmp_path),
                 "--manifest", str(manifest), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "no sessions" in capsys.readouterr().err


def test_prepare_missing_edf_names_stage(tmp_path, capsys):
    edf_dir = tmp_path / "edf"
    edf_dir.mkdir()
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,patient_id,split\nghost.edf,0,pa,train\n")
    code = main(["prepare", "--edf-dir", str(edf_dir),
                 "--manifest", str(manifest), "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "ghost.edf" in err and "read_edf" in err


def test_prepare_short_test_session_names_stage(tmp_path, capsys):
    edf_dir = tmp_path / "edf"
    edf_dir.mkdir()
    write_session(edf_dir / "train.edf", 120, seed=1)
    # 30 s, and no data records at all at a rate that is resampled
    for name, seconds, rate in (("short.edf", 30, 250.0), ("empty.edf", 0, 512.0)):
        write_session(edf_dir / name, seconds, rate=rate, seed=2)
        manifest = tmp_path / "m.csv"
        manifest.write_text(
            "path,label,patient_id,split\n"
            "train.edf,0,pa,train\n"
            f"{name},1,pb,test\n")
        code = main(["prepare", "--edf-dir", str(edf_dir),
                     "--manifest", str(manifest), "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "extract_windows" in err


def test_prepare_groups_write_failure_leaves_no_output(tmp_path, capsys):
    edf_dir, manifest = write_fixture(tmp_path, train_seconds=120)
    (tmp_path / "set.train.cnds.groups").mkdir()   # the sidecar cannot be written
    code = main(["prepare", "--edf-dir", str(edf_dir),
                 "--manifest", str(manifest), "--out", str(tmp_path / "set")])
    assert code == 2
    assert "data error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["edf", "sessions.csv", "set.train.cnds.groups"]


def test_prepare_cleans_partial_outputs(tmp_path, monkeypatch, capsys):
    edf_dir, manifest = write_fixture(tmp_path, train_seconds=120)
    calls = {"n": 0}
    real = container.export_dataset

    def explode_on_second(path, dataset):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("disk full")
        return real(path, dataset)

    monkeypatch.setattr(container, "export_dataset", explode_on_second)
    out_base = tmp_path / "set"
    code = main(["prepare", "--edf-dir", str(edf_dir),
                 "--manifest", str(manifest), "--out", str(out_base)])
    assert code == 2
    assert "disk full" in capsys.readouterr().err
    assert not (tmp_path / "set.stats.cnds").exists()
    assert not (tmp_path / "set.train.cnds").exists()
    assert not (tmp_path / "set.train.cnds.groups").exists()
