"""Command-line harness: prepare, synth, train, eval, cv, gradcheck.

Exit codes: 0 success, 1 usage/configuration, 2 data/format, 3 numeric
failure, 4 gradient-check failure.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import checkpoint as ckpt
from . import gradcheck as gc
from .architectures import ARCHITECTURES, ModelConfig, build, default_conv_blocks
from .data import container, montage, preprocess, synthetic
from .data.edf import read_edf
from .errors import (ConfigError, ContractError, DataError, FormatError,
                     NumericError, ShapeError)
from .tensor import Prng
from .training import (TrainConfig, format_metrics_row, check_data, cross_validate,
                       predict, summarize_folds, train, write_metrics_csv,
                       METRICS_HEADER)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(x) for x in text.split(",") if x.strip())
    if not values:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")
    return values


def _apply_config_file(args) -> None:
    path = args.config
    if not path:
        return
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = args.flags.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if getattr(args, action.dest) is None:  # explicit flags win over the file
            try:
                setattr(args, action.dest, (action.type or str)(value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None


def _fill_defaults(args, defaults: dict) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _given(args, **fields) -> dict:
    """Keyword arguments for the flags the user set, keyed by field name.

    Unset flags are left out, so the library's own defaults apply.
    """
    return {field: getattr(args, dest) for field, dest in fields.items()
            if getattr(args, dest) is not None}


def _model_args(parser) -> None:
    parser.add_argument("--arch", choices=ARCHITECTURES)
    parser.add_argument("--kernels", type=_int_list,
                        help="comma-separated kernel lengths per conv block")
    parser.add_argument("--filters", type=int, help="filters per kernel length")
    parser.add_argument("--stride", type=int)
    parser.add_argument("--blocks", type=int, help="number of conv blocks")
    parser.add_argument("--gru-widths", type=_int_list, dest="gru_widths")
    parser.add_argument("--classes", type=int)


def _train_args(parser) -> None:
    parser.add_argument("--lr", type=float)
    parser.add_argument("--batch", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--grad-clip", type=float, dest="grad_clip")


def _model_config(args, input_channels: int, num_classes: int) -> ModelConfig:
    arch = "chrononet" if args.arch is None else args.arch
    blocks = default_conv_blocks(arch)
    count = len(blocks) if args.blocks is None else args.blocks
    overrides = _given(args, kernel_lengths="kernels", filters_per_kernel="filters",
                       stride="stride")
    widths = {} if args.gru_widths is None else {"gru_widths": list(args.gru_widths)}
    return ModelConfig(
        architecture=arch,
        input_channels=input_channels,
        conv_blocks=[replace(blocks[0], **overrides) for _ in range(count)],
        num_classes=num_classes,
        **widths,
    ).validate()


def _train_config(args) -> TrainConfig:
    return TrainConfig(**_given(
        args, learning_rate="lr", batch_size="batch", epochs="epochs", seed="seed",
        grad_clip="grad_clip")).validate()


def _infer_classes(args, labels: np.ndarray) -> int:
    if args.classes is not None:
        return args.classes
    return max(2, int(labels.max()) + 1) if labels.size else 2


# ---------------------------------------------------------------------------
# Commands


def _print_metrics_row(row) -> None:
    # the header comes with the first row, so a run that fails before its
    # first step prints nothing on stdout
    if row.epoch == 0:
        print(METRICS_HEADER)
    print(format_metrics_row(row))


def cmd_train(args) -> int:
    _fill_defaults(args, {"repeats": 1, "checkpoint": "model.cncp",
                          "metrics": "metrics.csv"})
    if args.repeats < 1:
        raise ConfigError(f"repeats must be positive, got {args.repeats}")
    dataset = container.import_dataset(args.data)
    num_classes = _infer_classes(args, dataset.labels)
    model_cfg = _model_config(args, dataset.samples.shape[1], num_classes)
    test_set = container.import_dataset(args.test) if args.test else None
    base_cfg = _train_config(args)

    final_test_accs = []
    for rep in range(args.repeats):
        if args.repeats == 1:
            seed, suffix = base_cfg.seed, ""
        else:
            seed, suffix = Prng(base_cfg.seed).derive(rep), f".r{rep}"
        cfg = replace(base_cfg, seed=seed)
        model = build(model_cfg, Prng(seed))
        history = train(
            model, (dataset.samples, dataset.labels), cfg,
            test_data=(test_set.samples, test_set.labels) if test_set is not None else None,
            checkpoint_path=args.checkpoint + suffix,
            best_checkpoint_path=(args.best_checkpoint + suffix
                                  if args.best_checkpoint else None),
            log=_print_metrics_row,
        )
        write_metrics_csv(args.metrics + suffix, history)
        final = history[-1]
        final_test_accs.append(final.test_acc)
        print(f"run {rep}: final train_acc={final.train_acc:.4f} "
              f"test_acc={final.test_acc:.4f}")

    if args.repeats > 1 and test_set is not None:
        accs = np.array(final_test_accs)
        print(f"repeats {args.repeats}: mean test_acc={accs.mean():.4f} "
              f"min={accs.min():.4f} max={accs.max():.4f}")
    return 0


def cmd_eval(args) -> int:
    model = ckpt.load_checkpoint(args.checkpoint).model
    dataset = container.import_dataset(args.data)
    check_data(model.config, (dataset.samples, dataset.labels), args.data)
    if len(dataset) == 0:
        raise ContractError("cannot evaluate an empty dataset")
    k = model.config.num_classes
    preds = predict(model, dataset.samples)
    accuracy = float((preds == dataset.labels).mean())
    print(f"accuracy {accuracy:.4f}")
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(dataset.labels, preds):
        confusion[t, p] += 1
    for t in range(k):
        counts = " ".join(str(confusion[t, p]) for p in range(k))
        print(f"true {t}: {counts}")
    return 0


def cmd_cv(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"jobs must be positive, got {args.jobs}")
    dataset = container.import_dataset(args.data)
    if dataset.groups is None:
        raise DataError(f"{args.data} has no groups sidecar; cross-validation needs "
                        "per-sample group ids")
    num_classes = _infer_classes(args, dataset.labels)
    model_cfg = _model_config(args, dataset.samples.shape[1], num_classes)
    train_cfg = _train_config(args)
    results = cross_validate(model_cfg, train_cfg, (dataset.samples, dataset.labels),
                             dataset.groups, **_given(args, k="k", jobs="jobs"))
    lines = ["fold,accuracy"]
    lines += [f"{r.fold},{r.test_acc!r}" for r in results]
    mean, lo, hi = summarize_folds(results)
    lines.append(f"mean,{mean!r}")
    text = "\n".join(lines)
    print(text)
    print(f"mean accuracy {mean:.4f} (min {lo:.4f}, max {hi:.4f})")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    results = gc.run_suite(**_given(args, seed="seed", tol="tol"))
    print(gc.format_report(results))
    return 0 if all(r.passed for r in results) else 4


def cmd_synth(args) -> int:
    _fill_defaults(args, {"per_class": 32})
    spec = synthetic.SyntheticSpec(**_given(
        args, num_classes="classes", length="length", channels="channels",
        noise="noise", marginal_leak="leak", n_groups="groups", seed="seed",
    )).validate()
    dataset = synthetic.generate_synthetic(spec, args.per_class)
    report = synthetic.self_check(dataset, spec)
    container.export_dataset(args.out, dataset)
    print(f"wrote {len(dataset)} samples x {spec.channels} channels x "
          f"{spec.length} to {args.out}")
    print(f"self-check joint={report.joint_accuracy:.3f} "
          f"motif={report.motif_accuracy:.3f} "
          f"envelope={report.envelope_accuracy:.3f}")
    return 0


def _prepare_stage(stage: str, path, fn):
    try:
        return fn()
    except (DataError, FormatError, ContractError, ConfigError) as exc:
        raise type(exc)(f"{path}: {stage}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: {stage}: {exc}") from exc


def _prepare_session(path, split: str, pairs) -> list[np.ndarray]:
    """One session's windows. The recording is cut to the records its
    windows read before anything is converted. Each stage's input dies as
    soon as its output exists, so at most two stages' data are alive at
    once, and nothing but the windows outlives the call."""
    session = _prepare_stage("read_edf", path, lambda: read_edf(path))
    session = preprocess.cut_to_windows(session, split)
    session = _prepare_stage("apply_montage", path,
                             lambda: montage.apply_montage(session, pairs))
    session = _prepare_stage("resample", path, lambda: preprocess.resample_recording(session))
    return _prepare_stage("extract_windows", path,
                          lambda: preprocess.extract_windows(session, split))


def cmd_prepare(args) -> int:
    entries = container.read_manifest(args.manifest)
    if not entries:
        raise DataError(f"{args.manifest}: manifest lists no sessions")
    pairs = montage.load_montage(args.montage) if args.montage else montage.default_montage()

    windows = {"train": [], "test": []}
    labels = {"train": [], "test": []}
    patients = {"train": [], "test": []}
    for entry in entries:
        path = os.path.join(args.edf_dir, entry.path)  # an absolute entry.path wins
        cut = _prepare_session(path, entry.split, pairs)
        windows[entry.split].extend(cut)
        labels[entry.split].extend([entry.label] * len(cut))
        patients[entry.split].extend([entry.patient_id] * len(cut))

    if not windows["train"]:
        raise DataError("no train windows; cannot compute normalization stats")
    stacks = {split: np.stack(windows.pop(split)) for split in ("train", "test")
              if windows[split]}
    mean, std = preprocess.compute_stats(stacks["train"])

    written = []
    try:
        stats_path = f"{args.out}.stats.cnds"
        container.save_stats(stats_path, mean, std)
        written.append(stats_path)
        for split in ("train", "test"):
            out_path = f"{args.out}.{split}.cnds"
            if split not in stacks:
                # a split left by an earlier run was normalised with other stats
                for stale in (out_path, container.groups_path(out_path)):
                    if os.path.exists(stale):
                        os.unlink(stale)
                print(f"{split} windows: 0")
                continue
            normalized = preprocess.normalize(stacks.pop(split), mean, std)
            container.export_dataset(out_path, container.Dataset(
                normalized, np.asarray(labels[split]), patients[split]))
            written.append(out_path)
            written.append(container.groups_path(out_path))
            print(f"{split} windows: {len(normalized)}")
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.unlink(path)
        raise
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="chrononet",
                     description="Multi-scale convolutional recurrent EEG classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a dataset container")
    p.add_argument("--data")
    p.add_argument("--test")
    p.add_argument("--checkpoint")
    p.add_argument("--best-checkpoint", dest="best_checkpoint")
    p.add_argument("--metrics")
    p.add_argument("--repeats", type=int)
    _model_args(p)
    _train_args(p)
    p.set_defaults(func=cmd_train, required_args=("data",))

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset container")
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.set_defaults(func=cmd_eval, required_args=("checkpoint", "data"))

    p = sub.add_parser("cv", help="grouped k-fold cross-validation")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--k", type=int)
    p.add_argument("--jobs", type=int)
    _model_args(p)
    _train_args(p)
    p.set_defaults(func=cmd_cv, required_args=("data",))

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_gradcheck, required_args=())

    p = sub.add_parser("synth", help="generate a synthetic dataset container")
    p.add_argument("--out")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int, dest="per_class")
    p.add_argument("--length", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--leak", type=float)
    p.add_argument("--groups", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth, required_args=("out",))

    p = sub.add_parser("prepare", help="EDF sessions to normalized window containers")
    p.add_argument("--edf-dir", dest="edf_dir")
    p.add_argument("--manifest")
    p.add_argument("--montage")
    p.add_argument("--out")
    p.set_defaults(func=cmd_prepare, required_args=("edf_dir", "manifest", "out"))

    for p in sub.choices.values():  # the keys a --config file may set, then --config
        p.set_defaults(flags={a.dest: a for a in p._actions if a.dest != "help"})
        p.add_argument("--config", help="key=value config file; flags override it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        for name in args.required_args:
            if getattr(args, name, None) is None:
                raise _UsageError(f"--{name.replace('_', '-')} is required "
                                  "(flag or config file)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ShapeError, ContractError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
