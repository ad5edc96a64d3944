"""The workloads: seeded inputs, one iteration through the CLI, checks.

Every workload drives ``chrononet.cli.main`` exactly as a user's shell would,
with stdout captured. Inputs come from the benchmark's seed only; the program
sees nothing but the generated files.
"""

import contextlib
import hashlib
import io
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import steady

# The 19 electrodes the default 22-pair bipolar montage reads.
ELECTRODES = ("FP1", "F7", "T3", "T5", "O1", "FP2", "F8", "T4", "T6", "O2",
              "A1", "A2", "C3", "CZ", "C4", "F3", "P3", "F4", "P4")
MONTAGE_CHANNELS = 22
WINDOW_SAMPLES = 15000          # 60 s at 250 Hz, fixed by `chrononet prepare`
MAX_TRAIN_WINDOWS = 11
NORM_TOL = 1e-4                 # f32 z-scores: |mean| and |std - 1| per channel
EDF_RANGE_UV = 500.0            # physical range of the synthetic recordings, +-uV


@dataclass
class Outcome:
    """What one iteration did and whether it was right."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""            # determinism digest: losses + checkpoint, or outputs
    windows: int = 0            # windows written by prepare

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_cnds(path) -> tuple[np.ndarray, np.ndarray]:
    """Independent reader for the `.cnds` layout: 24-byte header, then per
    sample a u16 label and a (channels, length) f32 payload."""
    with open(path, "rb") as f:
        magic, _version, n, channels, length = struct.unpack("<4sIQII", f.read(24))
    if magic != b"CNDS":
        raise ValueError(f"{path}: bad magic {magic!r}")
    record = np.dtype([("label", "<u2"), ("x", "<f4", (channels, length))])
    table = np.fromfile(path, dtype=record, offset=24)
    if table.shape != (n,):
        raise ValueError(f"{path}: header says {n} samples, file holds {table.shape[0]}")
    return table["x"], table["label"].astype(np.int64)


# ---------------------------------------------------------------------------
# training workloads


@dataclass
class TrainSpec:
    arch: str
    channels: int
    length: int
    train_per_class: int
    test_per_class: int
    batch: int
    epochs: int
    lr: float


def program_call(cli_main, argv: list) -> float:
    """One CLI command that must succeed; returns its wall time."""
    t = time.perf_counter()
    code, _, err = run_cli(cli_main, argv)
    elapsed = time.perf_counter() - t
    if code != 0:
        raise RuntimeError(f"chrononet {argv[0]} failed ({code}): {err.strip()}")
    return elapsed


def make_train_inputs(mods, workdir: str, seed: int, spec: TrainSpec) -> tuple[dict, float]:
    """Train and test sets from `chrononet synth`; returns (paths, program seconds)."""
    paths = {"train": os.path.join(workdir, "train.cnds"),
             "test": os.path.join(workdir, "test.cnds")}
    program_s = 0.0
    for part, per_class, part_seed in (("train", spec.train_per_class, 2 * seed),
                                       ("test", spec.test_per_class, 2 * seed + 1)):
        program_s += program_call(mods["cli"].main, [
            "synth", "--out", paths[part], "--per-class", per_class,
            "--length", spec.length, "--channels", spec.channels, "--seed", part_seed])
    return paths, program_s


def train_iteration(cli_main, probes, workdir: str, inputs: dict, seed: int,
                    spec: TrainSpec) -> Outcome:
    """One `chrononet train` with a held-out test set; every epoch evaluates."""
    n_train = 2 * spec.train_per_class
    n_test = 2 * spec.test_per_class
    expected_steps = spec.epochs * math.ceil(n_train / spec.batch)
    expected_windows = spec.epochs * n_test
    result = Outcome(attempted=expected_steps + expected_windows)
    ckpt = os.path.join(workdir, "model.cncp")
    csv = os.path.join(workdir, "metrics.csv")
    first_step = len(probes.counters.steps)
    code, _, err = run_cli(cli_main, [
        "train", "--data", inputs["train"], "--test", inputs["test"],
        "--arch", spec.arch, "--epochs", spec.epochs, "--batch", spec.batch,
        "--lr", spec.lr, "--seed", seed, "--checkpoint", ckpt, "--metrics", csv])
    if code != 0:
        result.fail(result.attempted, f"chrononet train exited {code}: {err.strip()}")
        return result

    losses = [st.loss for st in probes.counters.steps[first_step:]]
    if len(losses) != expected_steps:
        result.fail(abs(expected_steps - len(losses)),
                    f"{len(losses)} steps ran, expected {expected_steps}")
    bad = sum(1 for v in losses if not math.isfinite(v))
    if bad:
        result.fail(bad, f"{bad} steps have a non-finite loss")
    with open(csv) as f:
        rows = [line.strip().split(",") for line in f.readlines()[1:] if line.strip()]
    epoch_loss = [float(r[1]) for r in rows]
    test_acc = [float(r[3]) for r in rows]
    if len(rows) != spec.epochs:
        result.fail(1, f"metrics CSV has {len(rows)} epochs, expected {spec.epochs}")
    elif not epoch_loss[-1] < epoch_loss[0]:
        result.fail(1, f"last-epoch loss {epoch_loss[-1]!r} not below first {epoch_loss[0]!r}")
    wrong = sum(n_test for acc in test_acc if not 0.0 <= acc <= 1.0)
    if wrong:
        result.fail(wrong, f"test accuracy outside [0, 1]: {test_acc}")
    trace = ",".join(repr(v) for v in losses)
    result.digest = hashlib.sha256(trace.encode()).hexdigest()[:16] + ":" + sha256_file(ckpt)[:16]
    return result


# ---------------------------------------------------------------------------
# ingest + eval workload


@dataclass
class IngestSpec:
    train_rates: tuple[int, ...]     # one train recording per entry, in Hz
    test_rates: tuple[int, ...]
    train_seconds: int
    test_seconds: int


def _eeg(rng, rate: int, seconds: int, abnormal: bool) -> np.ndarray:
    """Background noise plus a 10 Hz rhythm; abnormal sessions add 2 Hz slowing."""
    t = np.arange(rate * seconds, dtype=np.float32) / rate
    phase = np.float32(rng.uniform(0.0, 2 * np.pi))
    x = rng.standard_normal((len(ELECTRODES), t.size), dtype=np.float32)
    x *= 15.0
    x += 20.0 * np.sin(2 * np.pi * 10.0 * t + phase)
    if abnormal:
        x += 40.0 * np.sin(2 * np.pi * 2.0 * t + phase)
    return x


def make_ingest_inputs(mods, workdir: str, seed: int, spec: IngestSpec) -> tuple[dict, float]:
    """EDF corpus, manifest, and a seeded chrononet checkpoint for 22 channels;
    returns (inputs, program seconds).

    The rates, their order and the durations are fixed, so every seed carries
    the same work and the same memory high-water mark (the order decides
    which windows are held while a 512 Hz recording is resampled); the seed
    draws the signals and the labels. The recordings are written by the
    program's own EDF writer; only the program's calls count as set-up time,
    not the benchmark's signal synthesis.
    """
    edf = mods["edf"]
    rng = np.random.default_rng(seed)
    edf_dir = os.path.join(workdir, "edf")
    os.makedirs(edf_dir)
    entries = []
    program_s = 0.0
    for split, rates, seconds in (("train", spec.train_rates, spec.train_seconds),
                                  ("test", spec.test_rates, spec.test_seconds)):
        for i, rate in enumerate(rates):
            patient = f"{split}{i:03d}"
            label = (i + seed) % 2
            name = f"{patient}.edf"
            signals = _eeg(rng, rate, seconds, bool(label))
            t = time.perf_counter()
            recording = edf.recording_from_arrays(
                signals, [f"EEG {e}-REF" for e in ELECTRODES], rate, patient_id=patient,
                recording_id=f"rec-{patient}", physical_range=EDF_RANGE_UV)
            edf.write_edf(os.path.join(edf_dir, name), recording)
            program_s += time.perf_counter() - t
            entries.append((name, label, patient, split))
    manifest = os.path.join(workdir, "manifest.csv")
    with open(manifest, "w") as f:
        f.write("path,label,patient_id,split\n")
        f.writelines(f"{n},{lab},{p},{s}\n" for n, lab, p, s in entries)

    # The checkpoint: chrononet trained for one epoch on short 22-channel
    # windows; conv and GRU layers accept any window length.
    tiny = os.path.join(workdir, "ckpt-data.cnds")
    ckpt = os.path.join(workdir, "model.cncp")
    for argv in (["synth", "--out", tiny, "--per-class", 4, "--length", 64,
                  "--channels", MONTAGE_CHANNELS, "--seed", seed],
                 ["train", "--data", tiny, "--arch", "chrononet", "--epochs", 1,
                  "--batch", 8, "--seed", seed, "--checkpoint", ckpt,
                  "--metrics", os.path.join(workdir, "ckpt-metrics.csv")]):
        program_s += program_call(mods["cli"].main, argv)
    inputs = {"edf_dir": edf_dir, "manifest": manifest, "checkpoint": ckpt, "entries": entries}
    return inputs, program_s


def _check_split(result: Outcome, path: str, entries: list, per_recording: int) -> np.ndarray:
    """Window count, shape, labels and group ids of one prepared split."""
    x, labels = read_cnds(path)
    with open(path + ".groups") as f:
        groups = [line.rstrip("\n") for line in f if line.strip()]
    expected_labels = [lab for _, lab, _, _ in entries for _ in range(per_recording)]
    expected_groups = [p for _, _, p, _ in entries for _ in range(per_recording)]
    if x.shape[1:] != (MONTAGE_CHANNELS, WINDOW_SAMPLES):
        result.fail(len(entries), f"{path}: windows are {x.shape[1:]}")
    elif x.shape[0] != len(expected_labels):
        result.fail(len(entries), f"{path}: {x.shape[0]} windows, "
                                  f"expected {len(expected_labels)}")
    else:
        for k, (_, lab, patient, _) in enumerate(entries):
            rows = slice(k * per_recording, (k + 1) * per_recording)
            if (list(labels[rows]) != expected_labels[rows]
                    or groups[rows] != expected_groups[rows]):
                result.fail(1, f"{path}: recording {patient} has wrong labels or groups")
    return x


def ingest_iteration(cli_main, probes, workdir: str, inputs: dict, seed: int,
                     spec: IngestSpec) -> Outcome:
    """`chrononet prepare` of the corpus, then `chrononet eval` of the test split."""
    entries = {s: [e for e in inputs["entries"] if e[3] == s] for s in ("train", "test")}
    per_recording = {"train": min(MAX_TRAIN_WINDOWS, spec.train_seconds // 60), "test": 1}
    n_test = len(entries["test"])
    result = Outcome(attempted=len(inputs["entries"]) + n_test)
    out = os.path.join(workdir, "corpus")
    code, _, err = run_cli(cli_main, ["prepare", "--edf-dir", inputs["edf_dir"],
                                      "--manifest", inputs["manifest"], "--out", out])
    if code != 0:
        result.fail(result.attempted, f"chrononet prepare exited {code}: {err.strip()}")
        return result

    digest = hashlib.sha256()
    for split in ("train", "test"):
        path = f"{out}.{split}.cnds"
        x = _check_split(result, path, entries[split], per_recording[split])
        result.windows += x.shape[0]
        if split == "train":
            mean = x.mean(axis=(0, 2), dtype=np.float64)
            std = x.std(axis=(0, 2), dtype=np.float64)
            if np.abs(mean).max() > NORM_TOL or np.abs(std - 1.0).max() > NORM_TOL:
                result.fail(len(entries["train"]), "train split is not z-scored per channel: "
                            f"max |mean| {np.abs(mean).max():.2e}, "
                            f"max |std-1| {np.abs(std - 1.0).max():.2e}")
        del x
        digest.update(sha256_file(path).encode())
        digest.update(sha256_file(path + ".groups").encode())
    digest.update(sha256_file(f"{out}.stats.cnds").encode())

    code, text, err = run_cli(cli_main, ["eval", "--checkpoint", inputs["checkpoint"],
                                         "--data", f"{out}.test.cnds"])
    if code != 0:
        result.fail(n_test, f"chrononet eval exited {code}: {err.strip()}")
        return result
    counts = [int(v) for line in text.splitlines() if line.startswith("true ")
              for v in line.split(":", 1)[1].split()]
    if sum(counts) != n_test:
        result.fail(abs(n_test - sum(counts)),
                    f"eval confusion counts sum to {sum(counts)}, expected {n_test}")
    digest.update(text.encode())
    result.digest = digest.hexdigest()[:32]
    return result


# ---------------------------------------------------------------------------
# catalogue: full size, and a tiny size for the smoke test


# Spans a traced iteration must record. One that is missing means the program
# no longer calls through the name the probes wrap, so the layer figures
# would silently read 0: the run is then not correct.
MODEL_SPANS = tuple(f"layers.conv{i}" for i in range(3)) + \
    tuple(f"layers.gru{i}" for i in range(4)) + \
    ("layers.readout", "architectures.forward", "training.predict")
TRAIN_SPANS = MODEL_SPANS + tuple(f"layers.conv{i}.bwd" for i in range(3)) + \
    tuple(f"layers.gru{i}.bwd" for i in range(4)) + \
    ("layers.readout.bwd", "tensor.backward", "training.loss", "training.adam_step",
     "cli.train", "data.container.import", "checkpoint.save")
INGEST_SPANS = MODEL_SPANS + (
    "layers.concat", "cli.prepare", "cli.eval", "data.edf.read", "data.montage.apply",
    "data.preprocess.resample", "data.preprocess.windows", "data.preprocess.stats",
    "data.preprocess.normalize", "data.container.export", "data.container.import",
    "checkpoint.load")


@dataclass
class Workload:
    name: str
    trains: bool
    full: object
    tiny: object
    spans: tuple[str, ...]
    # Parts of the host-speed reference kernel for the main command; predict
    # calls are divided by the compute parts alone (steady.CPU_PARTS).
    reference: tuple = steady.CPU_PARTS

    def make_inputs(self, mods, workdir, seed, tiny) -> tuple[dict, float]:
        spec = self.tiny if tiny else self.full
        if self.trains:
            return make_train_inputs(mods, workdir, seed, spec)
        return make_ingest_inputs(mods, workdir, seed, spec)

    def iterate(self, cli_main, probes, workdir, inputs, seed, tiny) -> Outcome:
        spec = self.tiny if tiny else self.full
        if self.trains:
            return train_iteration(cli_main, probes, workdir, inputs, seed, spec)
        return ingest_iteration(cli_main, probes, workdir, inputs, seed, spec)


WORKLOADS = {w.name: w for w in (
    # crnn at the acceptance shape: GRU-bound, cache-resident, one kernel per
    # block and chain wiring, so no concat node exists.
    Workload("desk_train", True,
             TrainSpec("crnn", 2, 256, 256, 64, 64, 3, 0.001),
             TrainSpec("crnn", 2, 64, 16, 8, 16, 2, 0.001), TRAIN_SPANS),
    # chrononet (inception blocks, densely connected GRUs) trained on short
    # 22-channel windows: the only workload where inception and dense-GRU
    # concat run a backward pass. Conv is the largest share of a ~50 ms step.
    # The paper's 22 x 15000 shape takes ~4 s a step, too few per run to be
    # steady; ingest_eval runs that shape forward only.
    Workload("dense_train", True,
             TrainSpec("chrononet", 22, 256, 32, 8, 8, 3, 0.001),
             TrainSpec("chrononet", 22, 64, 8, 4, 8, 2, 0.001),
             TRAIN_SPANS + ("layers.concat", "layers.concat.bwd")),
    # EDF -> montage -> resample -> windows -> z-score, then tape-free eval of
    # chrononet at the paper shape (22 x 15000): conv-heavy, with concat.
    Workload("ingest_eval", False,
             IngestSpec((256, 512), (250, 256, 250, 512), 720, 90),
             IngestSpec((256,), (250,), 120, 60), INGEST_SPANS, steady.MEMORY_PARTS),
)}
