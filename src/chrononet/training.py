"""Loss, Adam, the training loop, evaluation, and grouped k-fold splitting."""

import ctypes
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import checkpoint as ckpt
from .architectures import Model, ModelConfig, build, forward
from .data.container import class_labels
from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError
from .tensor import Graph, Prng, Tensor, backward, make_op

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
PREDICT_BATCH = 256  # windows per forward in `predict`


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 500
    seed: int = 0
    grad_clip: float | None = None  # optional global-norm cap; off by default

    def validate(self) -> "TrainConfig":
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be > 0 when set, got {self.grad_clip}")
        return self


@dataclass
class Metrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    seconds: float


METRICS_HEADER = "epoch,train_loss,train_acc,test_acc,seconds"


def format_metrics_row(m: Metrics) -> str:
    return (f"{m.epoch},{m.train_loss!r},{m.train_acc!r},"
            f"{m.test_acc!r},{m.seconds:.3f}")


def write_metrics_csv(path, metrics: list[Metrics]) -> None:
    with open(path, "w") as f:
        f.write(METRICS_HEADER + "\n")
        for m in metrics:
            f.write(format_metrics_row(m) + "\n")


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    The max is subtracted per row before exponentiation, so huge logits do
    not overflow. A single fused node carries the backward pass:
    d(loss)/d(logits) = (softmax - onehot) / batch.
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ContractError(f"logits must be (batch, classes), got {logits.shape}")
    b, k = logits.shape
    if labels.shape != (b,):
        raise ContractError(f"labels must have shape ({b},), got {labels.shape}")
    labels = class_labels(labels, k, f"label {{:g}} outside [0, {k})")

    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    denom = ez.sum(axis=1, keepdims=True)
    log_p = shifted - np.log(denom)
    rows = np.arange(b)
    out = np.asarray(-log_p[rows, labels].mean(), dtype=z.dtype)

    def bwd(g):
        probs = ez / denom
        probs[rows, labels] -= 1.0
        return (g * probs / b,)

    return make_op("softmax_xent", (logits,), out, bwd)


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """Adam's first and second moments for the whole model, as flat arrays of
    the parameters' dtype, one slice per parameter in the order given, plus
    the shared step counter.  Parameters stay separate arrays.

    ``gather`` copies a step's gradients into ``grad``, a new flat array in
    the same layout, and ``adam_step`` spends it and drops it: the step's
    work arrays exist only between the two, after the tape has died."""

    def __init__(self, named_params):
        self.slots, size = {}, 0   # name -> (its slice of the flat arrays, its shape)
        for name, t in named_params:
            self.slots[name] = (slice(size, size + t.data.size), t.data.shape)
            size += t.data.size
        dtype = np.result_type(*{t.data.dtype for _, t in named_params})
        self.m, self.v = np.zeros(size, dtype), np.zeros(size, dtype)
        self.grad = self.grads = None
        self.t = 0

    def gather(self, grads: dict) -> dict:
        """Copy each parameter's gradient into a new ``grad``; returns its
        views keyed by name, kept as ``grads``, which gather to themselves."""
        if grads is self.grads:
            return grads
        flat, views = np.empty_like(self.m), {}
        for name, (where, shape) in self.slots.items():
            g = grads.get(name)
            if g is None:
                raise ContractError(f"no gradient for {name}")
            if g.shape != shape:
                raise ContractError(f"gradient for {name} has shape {g.shape}, parameter is {shape}")
            views[name] = view = flat[where].reshape(shape)
            view[...] = g
        self.grad, self.grads = flat, views
        return views


def adam_step(named_params, grads: dict, state: AdamState, lr: float) -> None:
    """One in-place update; bias correction uses the post-increment counter.

    Every parameter needs a gradient of its shape (``AdamState.gather``).
    Each op below is one pass over the whole model, in the order and dtype
    of the per-parameter formula
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps),
    with the gradient array as the second work array."""
    state.gather(grads)
    m, v, g, tmp = state.m, state.v, state.grad, np.empty_like(state.grad)
    state.grad = state.grads = None
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=tmp)
    v *= BETA2
    v += np.multiply(1.0 - BETA2, np.square(g, out=g), out=g)   # g is spent from here
    np.divide(m, bc1, out=tmp)
    np.multiply(lr, tmp, out=tmp)
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += EPSILON
    tmp /= g
    for name, param in named_params:
        where, shape = state.slots[name]
        param.data -= tmp[where].reshape(shape)


def _squared_sums(grads: dict) -> dict:
    """Float64 sum of squares of each gradient, keyed like ``grads``."""
    return {name: float(np.sum(np.square(g, dtype=np.float64)))
            for name, g in grads.items()}


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    norm = sum(_squared_sums(grads).values()) ** 0.5
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


# ---------------------------------------------------------------------------
# Training / evaluation


def check_data(config: ModelConfig, data, name: str) -> tuple[np.ndarray, np.ndarray]:
    """``data`` as (samples, int64 labels), if a ``config`` model accepts it:
    at least one (channels, length) sample with the model's channels, one
    label per sample, each one of the model's classes. Errors name the data
    ``name`` and a bad label (``class_labels``)."""
    x, y = np.asarray(data[0]), np.asarray(data[1])
    if x.ndim != 3:
        raise ShapeError(f"{name}: samples must be (N, channels, length), got {x.shape}")
    if x.shape[0] == 0:
        raise DataError(f"{name} is empty")
    if y.shape != x.shape[:1]:
        raise DataError(f"{name}: {x.shape[0]} samples but labels of shape {y.shape}")
    if x.shape[1] != config.input_channels:
        raise ConfigError(f"model expects {config.input_channels} channels, "
                          f"{name} has {x.shape[1]}")
    k = config.num_classes
    return x, class_labels(y, k, f"{name}: label {{:g}} outside the model's {k} classes")


def _keep_freed_heap() -> None:
    """Keep the heap a finished step frees (glibc only): by default glibc
    trims it, and each step faulted ~3,600 pages in again (crnn, B=64,
    2x256). The values are what glibc's own rule sets once 16 MiB is freed."""
    if sys.platform == "linux":
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


def _step(model: Model, params, state: AdamState, cfg: TrainConfig,
          xb: np.ndarray, yb: np.ndarray, where: str) -> tuple[float, int]:
    """One update on one batch; returns its loss and its count of correct
    argmaxes. Its tape and inner gradients die before the update, its logits
    and parameter gradients when it returns."""
    with Graph() as g:
        logits = forward(model, Tensor(xb))
        loss = softmax_cross_entropy(logits, yb)
    loss_val = loss.item()
    if not np.isfinite(loss_val):
        # The loss node is on the tape, so some node is always found.
        tag = next(node.tag for node in g.nodes
                   if not np.all(np.isfinite(node.out.data)))
        raise NumericError(f"{where}: non-finite values produced by op '{tag}'")
    grad_map = backward(loss, g)
    grads = {name: grad_map.get(t) for name, t in params}
    del g, grad_map   # the tape and the inner gradients die before Adam's work arrays exist
    grads = state.gather(grads)
    # The dot product is finite when every value is, unless float32 overflows;
    # only then do the float64 sums run, to decide and to name the parameter.
    with np.errstate(over="ignore"):
        sum_of_squares = np.dot(state.grad, state.grad)
    if not np.isfinite(sum_of_squares):
        for name, s in _squared_sums(grads).items():
            if not np.isfinite(s):
                raise NumericError(f"{where}: non-finite gradient for {name}")
    if cfg.grad_clip is not None:
        clip_gradients(grads, cfg.grad_clip)
    adam_step(params, grads, state, cfg.learning_rate)
    return loss_val, int((np.argmax(logits.data, axis=1) == yb).sum())


def train(model: Model, train_data, cfg: TrainConfig, test_data=None,
          checkpoint_path=None, best_checkpoint_path=None,
          log=None) -> list[Metrics]:
    """Run the full loop and return one Metrics row per epoch.

    Shuffling, batching, and updates are all driven by cfg.seed, so two runs
    with the same inputs produce the same loss trajectory. Training sets the
    process's glibc heap thresholds (``_keep_freed_heap``).
    """
    cfg.validate()
    if best_checkpoint_path is not None and test_data is None:
        raise ConfigError("a best checkpoint is chosen by test accuracy and needs test data")
    x, y = check_data(model.config, train_data, "training set")
    if test_data is not None:
        test_data = check_data(model.config, test_data, "test set")
    n = x.shape[0]
    x = x.astype(model.config.dtype, copy=False)
    _keep_freed_heap()

    params = model.named_parameters()
    state = AdamState(params)
    rng = Prng(cfg.seed)
    history: list[Metrics] = []
    best_acc = -1.0

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss_val, hits = _step(model, params, state, cfg, x[idx], y[idx],
                                   f"epoch {epoch} batch {start // cfg.batch_size}")
            loss_sum += loss_val * len(idx)
            correct += hits

        train_loss = loss_sum / n
        train_acc = correct / n
        test_acc = evaluate(model, test_data) if test_data is not None else float("nan")
        seconds = time.perf_counter() - t0
        row = Metrics(epoch, train_loss, train_acc, test_acc, seconds)
        history.append(row)
        if log is not None:
            log(row)
        if best_checkpoint_path is not None and test_acc >= best_acc:
            best_acc = test_acc
            ckpt.save_checkpoint(best_checkpoint_path, ckpt.Checkpoint(model, cfg.seed, epoch))

    if checkpoint_path is not None:
        ckpt.save_checkpoint(checkpoint_path, ckpt.Checkpoint(model, cfg.seed, cfg.epochs - 1))
    return history


def predict(model: Model, x: np.ndarray) -> np.ndarray:
    """Argmax class per sample; ties resolve to the lowest index."""
    x = np.asarray(x, dtype=model.config.dtype)
    out = np.empty(x.shape[0], dtype=np.int64)
    for start in range(0, x.shape[0], PREDICT_BATCH):
        chunk = Tensor(x[start:start + PREDICT_BATCH])
        logits = forward(model, chunk)
        out[start:start + PREDICT_BATCH] = np.argmax(logits.data, axis=1)
    return out


def evaluate(model: Model, data) -> float:
    x, y = check_data(model.config, data, "evaluation set")
    return float((predict(model, x) == y).mean())


# ---------------------------------------------------------------------------
# Grouped k-fold


def kfold(groups, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split sample indices into k folds that never divide a group.

    Groups (e.g. patient ids) are shuffled by seed and dealt into k nearly
    equal chunks; fold i tests on chunk i and trains on the rest.
    """
    groups = np.asarray(groups)
    uniq = np.unique(groups)
    if uniq.size < k:
        raise DataError(f"need at least {k} distinct groups for {k}-fold, have {uniq.size}")
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    order = Prng(seed).permutation(uniq.size)
    chunks = np.array_split(uniq[order], k)
    folds = []
    for chunk in chunks:
        mask = np.isin(groups, chunk)
        folds.append((np.flatnonzero(~mask), np.flatnonzero(mask)))
    return folds


@dataclass
class FoldResult:
    fold: int
    test_acc: float


def _run_fold(payload) -> FoldResult:
    (fold_idx, model_cfg, train_cfg, x, y, train_idx, test_idx) = payload
    model = build(model_cfg, Prng(Prng(train_cfg.seed).derive(fold_idx)))
    fold_cfg = replace(train_cfg, seed=Prng(train_cfg.seed).derive(fold_idx))
    train(model, (x[train_idx], y[train_idx]), fold_cfg)
    acc = evaluate(model, (x[test_idx], y[test_idx]))
    return FoldResult(fold_idx, acc)


def cross_validate(model_cfg: ModelConfig, train_cfg: TrainConfig, data, groups,
                   k: int = 5, jobs: int = 1) -> list[FoldResult]:
    """Grouped k-fold training; fold workers are independent, so results do
    not depend on scheduling order."""
    if jobs < 1:
        raise ConfigError(f"jobs must be positive, got {jobs}")
    x, y = check_data(model_cfg, data, "dataset")
    if len(groups) != x.shape[0]:
        raise DataError(f"{x.shape[0]} samples but {len(groups)} group ids")
    folds = kfold(groups, k, train_cfg.seed)
    payloads = [(i, model_cfg, train_cfg, x, y, tr, te)
                for i, (tr, te) in enumerate(folds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, k)) as pool:
            results = list(pool.map(_run_fold, payloads))
    else:
        results = [_run_fold(p) for p in payloads]
    return sorted(results, key=lambda r: r.fold)


def summarize_folds(results: list[FoldResult]) -> tuple[float, float, float]:
    accs = [r.test_acc for r in results]
    return float(np.mean(accs)), float(min(accs)), float(max(accs))
