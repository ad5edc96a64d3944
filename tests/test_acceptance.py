"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line with the measured numbers; `pytest -v`
adds the pass/fail verdict per criterion. The training-based criteria use
scaled-down synthetic benchmarks sized for a single CPU core.
"""

import time

import numpy as np

from chrononet import checkpoint as ckpt
from chrononet import gradcheck as gc
from chrononet.architectures import (ConvBlockSpec, ModelConfig, build,
                                     conv_stage_shapes, default_config, forward)
from chrononet.cli import main
from chrononet.data import container
from chrononet.data.edf import (digital_to_physical, read_edf,
                                recording_from_arrays, write_edf)
from chrononet.data.preprocess import resample
from chrononet.data.synthetic import SyntheticSpec, generate_synthetic
from chrononet.layers import GruParams, connection_count, gru_step
from chrononet.tensor import Prng, Tensor
from chrononet.training import (AdamState, TrainConfig, adam_step,
                                cross_validate, evaluate, kfold,
                                summarize_folds, train)

ELECTRODES = ["FP1", "FP2", "F3", "F4", "F7", "F8", "T3", "T4", "T5", "T6",
              "C3", "C4", "CZ", "P3", "P4", "O1", "O2", "A1", "A2"]


def report(n, detail):
    print(f"criterion {n}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite_under_two_minutes():
    t0 = time.time()
    results = gc.run_suite(seed=0, tol=1e-4)
    elapsed = time.time() - t0
    worst = max(results, key=lambda r: r.max_error)
    names = {r.name for r in results}
    assert {"conv1d", "inception_k2_4_8", "gru_layer", "dense_gru_stack_L3",
            "linear", "chrononet_end_to_end"} <= names
    report(1, f"{len(results)} blocks, max rel error {worst.max_error:.2e} "
              f"({worst.name}), {elapsed:.1f}s")
    assert all(r.passed for r in results), gc.format_report(results)
    assert worst.max_error <= 1e-4
    assert elapsed < 120


def test_criterion_02_gru_scalar_oracle():
    p = GruParams.zeros(1, 1)
    for name, t in p.tensors():
        if name[0] in "WU":
            t.data[:] = 1.0
    h, z, r, cand = gru_step(p, Tensor([[1.0]]), Tensor([[0.5]]))
    # independent 64-bit evaluation of the gate equations
    ze = re = 1.0 / (1.0 + np.exp(-1.5))
    ce = np.tanh(1.0 + re * 0.5)
    he = (1.0 - ze) * 0.5 + ze * ce
    errs = [abs(z.item() - ze), abs(r.item() - re),
            abs(cand.item() - ce), abs(h.item() - he)]
    zero_h, zero_z, _, zero_c = gru_step(GruParams.zeros(1, 1),
                                         Tensor([[3.0]]), Tensor([[0.0]]))
    report(2, f"scalar max err {max(errs):.2e}, zero-param h={zero_h.item()!r}")
    assert max(errs) <= 1e-12
    assert zero_h.item() == 0.0 and zero_c.item() == 0.0
    assert zero_z.item() == 0.5


def test_criterion_03_conv_stage_shape_laws():
    cfg = default_config("chrononet")
    shapes = conv_stage_shapes(cfg, 15000)
    model = build(cfg, Prng(0))
    layer4_in = model.gru_stack.layers[3].input_size
    report(3, f"stages {shapes}, gru layer-4 input {layer4_in}")
    assert shapes == [(96, 7500), (96, 3750), (96, 1875)]
    assert layer4_in == 96


def test_criterion_04_dense_wiring_count():
    count = connection_count(4, dense=True)
    report(4, f"L=4 dense edge count {count}")
    assert count == 10
    assert count == 4 * 5 // 2


def test_criterion_05_overfit_sanity():
    spec = SyntheticSpec(num_classes=2, length=512, channels=2, seed=0)
    data = generate_synthetic(spec, 32)
    assert len(data) == 64
    cfg = default_config("chrononet")
    cfg.input_channels = 2
    cfg.conv_blocks = cfg.conv_blocks[:2]

    class _Reached(Exception):
        pass

    t0 = time.time()
    outcomes = []
    for seed in range(5):
        model = build(cfg, Prng(seed))
        best = 0.0
        epochs_used = 0

        def watch(row):
            nonlocal best, epochs_used
            best = max(best, row.train_acc)
            epochs_used = row.epoch + 1
            if best >= 0.95:
                raise _Reached

        try:
            train(model, (data.samples, data.labels),
                  TrainConfig(learning_rate=0.001, batch_size=16,
                              epochs=200, seed=seed), log=watch)
        except _Reached:
            pass
        outcomes.append((seed, best, epochs_used))

    elapsed = time.time() - t0
    hits = sum(1 for _, best, _ in outcomes if best >= 0.95)
    detail = ", ".join(f"s{seed}:{best:.2f}@{ep}" for seed, best, ep in outcomes)
    report(5, f"{hits}/5 seeds reached 95% [{detail}], {elapsed:.0f}s")
    assert hits >= 4
    assert elapsed < 600


def test_criterion_06_architecture_ordering():
    spec = SyntheticSpec(num_classes=2, length=256, channels=2, noise=0.2, seed=0)
    ds = generate_synthetic(spec, 700)  # 500/class train + 200/class test
    train_x, train_y = ds.samples[:1000], ds.labels[:1000]
    test_x, test_y = ds.samples[1000:], ds.labels[1000:]

    def run(arch, seed):
        kernels = (2, 4, 8) if arch in ("icrnn", "chrononet") else (4,)
        cfg = ModelConfig(architecture=arch, input_channels=2,
                          conv_blocks=[ConvBlockSpec(kernels, 8, 2)] * 3,
                          gru_widths=[16, 16, 16], num_classes=2)
        model = build(cfg, Prng(seed))
        train(model, (train_x, train_y),
              TrainConfig(learning_rate=0.001, batch_size=64, epochs=24, seed=seed))
        return evaluate(model, (test_x, test_y))

    t0 = time.time()
    means = {}
    for arch in ("crnn", "icrnn", "chrononet"):
        accs = [run(arch, seed) for seed in range(5)]
        means[arch] = float(np.mean(accs))
    elapsed = time.time() - t0

    slack = 0.01  # inversions up to one point are reported, not failed
    inversions = []
    if means["chrononet"] < means["crnn"]:
        inversions.append(f"chrononet {means['chrononet']:.3f} < crnn {means['crnn']:.3f}")
    if means["icrnn"] < means["crnn"]:
        inversions.append(f"icrnn {means['icrnn']:.3f} < crnn {means['crnn']:.3f}")
    note = f" inversions: {'; '.join(inversions)}" if inversions else ""
    report(6, f"mean test acc over 5 seeds: crnn {means['crnn']:.3f}, "
              f"icrnn {means['icrnn']:.3f}, chrononet {means['chrononet']:.3f}, "
              f"{elapsed:.0f}s{note}")
    assert means["chrononet"] >= means["crnn"] - slack
    assert means["icrnn"] >= means["crnn"] - slack


def test_criterion_07_adam_first_step_oracle():
    params = [("w", Tensor(np.zeros(1), requires_grad=True))]
    state = AdamState(params)
    adam_step(params, {"w": np.array([0.5])}, state, 0.001)
    got = params[0][1].data[0]
    expected = -0.001 * 0.5 / (0.5 + 1e-8)
    report(7, f"first step {got!r}, |err| {abs(got + 0.000999999980):.2e}")
    assert abs(got - expected) <= 1e-12
    assert abs(got - (-0.000999999980)) <= 1e-12


def test_criterion_08_edf_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    arrays = [rng.uniform(-999, 999, size=750) for _ in range(3)]
    arrays[0][0] = -1000.0  # exact lower endpoint
    rec = recording_from_arrays(arrays, ["EEG A-REF", "EEG B-REF", "EEG C-REF"],
                                250.0, physical_range=1000.0)
    path = tmp_path / "rt.edf"
    write_edf(path, rec)
    loaded = read_edf(path)
    quantum = loaded.signals[0].scale
    worst = max(float(np.max(np.abs(sig.samples - orig)))
                for sig, orig in zip(loaded.signals, arrays))
    endpoint = loaded.signals[0].samples[0]
    mapped = digital_to_physical(loaded.signals[0].digital_min, -1000.0, 1000.0,
                                 loaded.signals[0].digital_min,
                                 loaded.signals[0].digital_max)
    report(8, f"max round-trip err {worst:.3e} (quantum {quantum:.3e}), "
              f"endpoint {endpoint!r}")
    assert worst <= quantum
    assert endpoint == -1000.0
    assert mapped == -1000.0


def test_criterion_09_resampler():
    t = np.arange(500) / 500.0
    sine = np.sin(2 * np.pi * 10.0 * t)
    down = resample(sine, 500.0, 250.0)
    signs = np.sign(down)
    signs[signs == 0] = 1
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    amp_err = max(abs(down.max() - 1.0), abs(down.min() + 1.0))

    same = resample(sine, 250.0, 250.0)
    identity = np.array_equal(same, sine)

    dc = resample(np.full(1000, 2.5), 500.0, 250.0)
    dc_err = float(np.max(np.abs(dc[40:-40] - 2.5)))

    report(9, f"crossings {crossings}, amp err {amp_err:.4f}, "
              f"identity {identity}, DC err {dc_err:.2e}")
    assert 19 <= crossings <= 21
    assert amp_err < 0.02
    assert identity
    assert dc_err < 1e-6


def test_criterion_10_pipeline_fixture(tmp_path, capsys):
    rng = np.random.default_rng(10)
    edf_dir = tmp_path / "edf"
    edf_dir.mkdir()
    for name, seconds in (("a.edf", 720), ("b.edf", 60)):
        n = int(seconds * 250)
        arrays = [rng.normal(scale=40.0, size=n) for _ in ELECTRODES]
        rec = recording_from_arrays(arrays, [f"EEG {e}-REF" for e in ELECTRODES],
                                    250.0)
        write_edf(edf_dir / name, rec)
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label,patient_id,split\n"
                        "a.edf,normal,pa,train\n"
                        "b.edf,abnormal,pb,test\n")
    out = tmp_path / "set"
    code = main(["prepare", "--edf-dir", str(edf_dir),
                 "--manifest", str(manifest), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    train_ds = container.import_dataset(f"{out}.train.cnds")
    test_ds = container.import_dataset(f"{out}.test.cnds")
    report(10, f"train windows {train_ds.samples.shape}, "
               f"test windows {test_ds.samples.shape}")
    assert train_ds.samples.shape == (11, 22, 15000)
    assert test_ds.samples.shape == (1, 22, 15000)


def test_criterion_11_determinism_and_persistence(tmp_path, capsys):
    # (a) fixed-seed training: identical metrics (timing column excluded,
    #     wall-clock cannot be deterministic) and bit-identical checkpoints
    data = tmp_path / "d.cnds"
    assert main(["synth", "--out", str(data), "--per-class", "8",
                 "--length", "64", "--channels", "2"]) == 0
    flags = ["--blocks", "2", "--filters", "2", "--gru-widths", "4,4",
             "--batch", "8", "--epochs", "3"]
    for run_dir in ("r1", "r2"):
        d = tmp_path / run_dir
        d.mkdir()
        assert main(["train", "--data", str(data),
                     "--checkpoint", str(d / "model.cncp"),
                     "--metrics", str(d / "metrics.csv"), *flags]) == 0
    capsys.readouterr()

    strip = lambda p: [",".join(line.split(",")[:-1])
                       for line in p.read_text().splitlines()]
    rows1 = strip(tmp_path / "r1" / "metrics.csv")
    rows2 = strip(tmp_path / "r2" / "metrics.csv")
    metrics_same = rows1 == rows2
    ckpt_same = (tmp_path / "r1" / "model.cncp").read_bytes() == \
        (tmp_path / "r2" / "model.cncp").read_bytes()

    # (b) checkpoint round trip is bit-exact under forward
    snapshot = ckpt.load_checkpoint(tmp_path / "r1" / "model.cncp")
    model = snapshot.model
    again = tmp_path / "again.cncp"
    ckpt.save_checkpoint(again, snapshot)
    reloaded = ckpt.load_checkpoint(again).model
    x = np.random.default_rng(11).normal(size=(4, 2, 64)).astype(np.float32)
    forward_same = forward(model, x).data.tobytes() == \
        forward(reloaded, x).data.tobytes()

    # (c) container export -> import -> export is bitwise identity
    ds = container.import_dataset(data)
    copy = tmp_path / "copy.cnds"
    container.export_dataset(copy, ds)
    container_same = copy.read_bytes() == data.read_bytes()

    report(11, f"metrics identical {metrics_same} (seconds column excluded), "
               f"checkpoint identical {ckpt_same}, forward bit-exact "
               f"{forward_same}, container bitwise {container_same}")
    assert metrics_same and ckpt_same and forward_same and container_same


def test_criterion_12_cross_validation_harness():
    spec = SyntheticSpec(num_classes=2, length=256, channels=2, noise=0.3,
                         marginal_leak=1.0, n_groups=10, seed=7)
    data = generate_synthetic(spec, 400)
    groups = np.asarray(data.groups)

    folds = kfold(groups, 5, seed=0)
    test_groups = [set(groups[te].tolist()) for _, te in folds]
    all_test = set().union(*test_groups)
    disjoint = all(not (a & b) for i, a in enumerate(test_groups)
                   for b in test_groups[i + 1:])
    covers = all_test == set(groups.tolist())
    no_leak = all(not (set(groups[tr].tolist()) & set(groups[te].tolist()))
                  for tr, te in folds)

    mcfg = ModelConfig(architecture="chrononet", input_channels=2,
                       conv_blocks=[ConvBlockSpec((2, 4, 8), 8, 2)] * 3,
                       gru_widths=[16, 16, 16], num_classes=2)
    tcfg = TrainConfig(learning_rate=0.001, batch_size=64, epochs=20, seed=0)
    t0 = time.time()
    results = cross_validate(mcfg, tcfg, (data.samples, data.labels),
                             data.groups, k=5)
    mean, lo, hi = summarize_folds(results)
    elapsed = time.time() - t0
    report(12, f"partition disjoint {disjoint}, covers {covers}, no leakage "
               f"{no_leak}, mean acc {mean:.3f} [{lo:.3f},{hi:.3f}], {elapsed:.0f}s")
    assert disjoint and covers and no_leak
    assert mean >= 0.9
