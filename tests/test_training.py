import os
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

import chrononet
from chrononet import training
from chrononet.architectures import ConvBlockSpec, ModelConfig, build, forward
from chrononet.errors import ConfigError, ContractError, DataError
from chrononet.tensor import Graph, Prng, Tensor, backward
from chrononet.training import (METRICS_HEADER, AdamState, TrainConfig,
                                adam_step, clip_gradients, cross_validate,
                                evaluate, format_metrics_row, kfold, predict,
                                softmax_cross_entropy,
                                summarize_folds, train)


def small_config(channels=2, classes=2, precision="f32"):
    return ModelConfig(architecture="chrononet", input_channels=channels,
                       conv_blocks=[ConvBlockSpec((2, 4), 2, 2)],
                       gru_widths=[4, 4], num_classes=classes,
                       precision=precision)


def tiny_dataset(n=16, channels=2, length=32, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, channels, length)).astype(np.float32)
    y = (np.arange(n) % classes).astype(np.int64)
    # plant an unmistakable class cue so accuracy can actually reach 1
    for i in range(n):
        x[i, 0, :8] += 3.0 * y[i]
    return x, y


# ---------------------------------------------------------------------------
# loss


def test_xent_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((4, 3), dtype=np.float64))
    loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)


def test_xent_matches_direct_formula_f64():
    rng = np.random.default_rng(0)
    logits_data = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    loss = softmax_cross_entropy(Tensor(logits_data), labels)
    shifted = logits_data - logits_data.max(axis=1, keepdims=True)
    p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(p[np.arange(5), labels]))
    assert abs(loss.item() - expected) < 1e-10


def test_xent_extreme_logits_stay_finite():
    logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
    loss = softmax_cross_entropy(logits, np.array([0, 1]))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)
    loss_bad = softmax_cross_entropy(logits, np.array([1, 0]))
    assert np.isfinite(loss_bad.item()) and loss_bad.item() == pytest.approx(2000.0)


def test_xent_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    labels = np.array([2, 0, 3])
    with Graph() as g:
        loss = softmax_cross_entropy(logits, labels)
    grads = backward(loss, g)
    ez = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p = ez / ez.sum(axis=1, keepdims=True)
    onehot = np.eye(4)[labels]
    assert np.allclose(grads[logits], (p - onehot) / 3.0, atol=1e-12)


def test_xent_rejects_bad_labels_and_shapes():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DataError):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(DataError):
        softmax_cross_entropy(logits, np.array([-1, 0]))
    with pytest.raises(ContractError):
        softmax_cross_entropy(logits, np.array([0, 1, 2]))
    with pytest.raises(ContractError):
        softmax_cross_entropy(Tensor(np.zeros(3)), np.array([0]))


# ---------------------------------------------------------------------------
# Adam


def _single_param(value, dtype=np.float64):
    return [("w", Tensor(np.array([value], dtype=dtype), requires_grad=True))]


def test_adam_first_step_oracle():
    params = _single_param(0.0)
    state = AdamState(params)
    adam_step(params, {"w": np.array([0.5])}, state, 0.001)
    # m=0.05, v=0.00025, m̂=0.5, v̂=0.25 -> θ = −lr·0.5/(√0.25+1e−8)
    assert params[0][1].data[0] == pytest.approx(-0.000999999980, abs=1e-12)
    assert state.t == 1


def test_adam_zero_gradient_is_identity():
    params = _single_param(1.25)
    state = AdamState(params)
    for _ in range(3):
        adam_step(params, {"w": np.zeros(1)}, state, 0.01)
    assert params[0][1].data[0] == 1.25


def test_adam_lr_zero_is_identity():
    params = _single_param(0.75)
    state = AdamState(params)
    adam_step(params, {"w": np.array([2.0])}, state, 0.0)
    assert params[0][1].data[0] == 0.75
    assert state.t == 1  # moments still advance


def test_adam_parameters_update_independently():
    params = [("a", Tensor(np.zeros(2), requires_grad=True)),
              ("b", Tensor(np.zeros(3), requires_grad=True))]
    state = AdamState(params)
    adam_step(params, {"a": np.array([0.5, 0.0]), "b": np.zeros(3)}, state, 0.001)
    assert params[0][1].data[0] != 0.0
    assert params[0][1].data[1] == 0.0
    assert np.all(params[1][1].data == 0.0)


def test_adam_step_direction_scale_free():
    # after the first step the update magnitude is ~lr regardless of grad scale
    for scale in (1e-4, 1.0, 1e4):
        params = _single_param(0.0)
        state = AdamState(params)
        adam_step(params, {"w": np.array([scale])}, state, 0.001)
        assert params[0][1].data[0] == pytest.approx(-0.001, rel=1e-4)


def test_adam_two_steps_match_reference():
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    theta, m, v = 0.0, 0.0, 0.0
    grads = [0.5, -0.25]
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        theta -= 0.001 * mh / (np.sqrt(vh) + eps)

    params = _single_param(0.0)
    state = AdamState(params)
    for g in grads:
        adam_step(params, {"w": np.array([g])}, state, 0.001)
    assert params[0][1].data[0] == pytest.approx(theta, abs=1e-15)


def test_adam_rejects_shape_mismatch():
    params = _single_param(0.0)
    state = AdamState(params)
    with pytest.raises(ContractError):
        adam_step(params, {"w": np.zeros(2)}, state, 0.001)


def test_clip_gradients():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(grads["a"], 0.6)
    assert np.allclose(grads["b"], 0.8)
    small = {"a": np.array([0.1])}
    clip_gradients(small, 1.0)
    assert small["a"][0] == 0.1  # under the threshold, untouched


# ---------------------------------------------------------------------------
# train / evaluate / predict


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    TrainConfig(learning_rate=0.0).validate()  # explicit no-op runs are allowed


def test_train_loss_decreases_and_metrics_shape():
    x, y = tiny_dataset()
    model = build(small_config(), Prng(0))
    cfg = TrainConfig(learning_rate=0.003, batch_size=8, epochs=12, seed=1)
    history = train(model, (x, y), cfg)
    assert len(history) == 12
    assert history[0].epoch == 0 and history[-1].epoch == 11
    assert history[-1].train_loss < history[0].train_loss
    assert 0.0 <= history[-1].train_acc <= 1.0
    assert np.isnan(history[0].test_acc)


def test_train_deterministic_given_seed():
    x, y = tiny_dataset()
    cfg = TrainConfig(learning_rate=0.003, batch_size=8, epochs=4, seed=3)
    m1 = build(small_config(), Prng(5))
    h1 = train(m1, (x, y), cfg)
    m2 = build(small_config(), Prng(5))
    h2 = train(m2, (x, y), cfg)
    for a, b in zip(h1, h2):
        assert a.train_loss == b.train_loss and a.train_acc == b.train_acc
    for (_, t1), (_, t2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert np.array_equal(t1.data, t2.data)


def test_train_reports_test_accuracy():
    x, y = tiny_dataset(24)
    model = build(small_config(), Prng(1))
    cfg = TrainConfig(learning_rate=0.003, batch_size=8, epochs=2, seed=0)
    history = train(model, (x[:16], y[:16]), cfg, test_data=(x[16:], y[16:]))
    assert all(not np.isnan(m.test_acc) for m in history)


def test_format_metrics_row_roundtrip():
    from chrononet.training import Metrics
    m = Metrics(epoch=3, train_loss=0.6931471805599453, train_acc=0.5,
                test_acc=float("nan"), seconds=1.23456)
    row = format_metrics_row(m)
    fields = row.split(",")
    assert fields[0] == "3"
    assert float(fields[1]) == m.train_loss  # repr round-trips exactly
    assert fields[3] == "nan"
    assert fields[4] == "1.235"
    assert METRICS_HEADER.split(",") == ["epoch", "train_loss", "train_acc",
                                         "test_acc", "seconds"]


def test_predict_and_evaluate(monkeypatch):
    x, y = tiny_dataset(10)
    model = build(small_config(), Prng(2))
    monkeypatch.setattr(training, "PREDICT_BATCH", 4)
    preds = predict(model, x)
    assert preds.shape == (10,)
    assert preds.dtype == np.int64
    acc = evaluate(model, (x, y))
    assert acc == np.mean(preds == y)
    with pytest.raises(ContractError):
        evaluate(model, (x[:0], y[:0]))


def test_predict_batch_size_invariance(monkeypatch):
    x, y = tiny_dataset(9)
    model = build(small_config(), Prng(3))
    preds = []
    for size in (3, 9, 4):  # 4: a ragged final chunk
        monkeypatch.setattr(training, "PREDICT_BATCH", size)
        preds.append(predict(model, x))
    p1, p2, p3 = preds
    assert np.array_equal(p1, p2) and np.array_equal(p1, p3)


def _parameters(model):
    return [t.data.copy() for _, t in model.named_parameters()]


def _unchanged(model, before):
    return all(np.array_equal(b, t.data) for b, (_, t) in zip(before, model.named_parameters()))


def test_train_rejects_test_set_of_other_channel_count_before_any_update():
    x, y = tiny_dataset()
    model = build(small_config(), Prng(0))
    before = _parameters(model)
    with pytest.raises(ConfigError, match="model expects 2 channels, test set has 1"):
        train(model, (x, y), TrainConfig(batch_size=8, epochs=1),
              test_data=(x[:4, :1], y[:4]))
    assert _unchanged(model, before)


def test_labels_outside_model_classes_are_errors():
    x, y = tiny_dataset()
    model = build(small_config(), Prng(0))
    before = _parameters(model)
    bad = y[:4].copy()
    bad[1] = 3
    with pytest.raises(DataError, match="test set: label 3 outside the model's 2 classes"):
        train(model, (x, y), TrainConfig(batch_size=8, epochs=1), test_data=(x[:4], bad))
    assert _unchanged(model, before)
    bad[1] = 2
    with pytest.raises(DataError, match="label 2 outside"):
        evaluate(model, (x[:4], bad))
    with pytest.raises(DataError, match="training set: label -1 outside"):
        train(model, (x[:4], np.array([0, 1, -1, 0])), TrainConfig(epochs=1))


def test_label_count_must_match_sample_count():
    x, y = tiny_dataset(32)
    model = build(small_config(), Prng(0))
    before = _parameters(model)
    for labels in (np.tile(y, 2), y[:20]):
        with pytest.raises(DataError, match=f"32 samples but labels of shape \\({len(labels)},\\)"):
            train(model, (x, labels), TrainConfig(batch_size=8, epochs=1))
        with pytest.raises(DataError, match=f"32 samples but labels of shape \\({len(labels)},\\)"):
            evaluate(model, (x, labels))
    assert _unchanged(model, before)


def test_finished_step_is_freed_before_the_next_and_before_evaluation(monkeypatch):
    graphs, alive_at_new_step, alive_at_evaluate = [], [], []

    class RecordingGraph(Graph):
        def __init__(self):
            super().__init__()
            alive_at_new_step.append(sum(r() is not None for r in graphs))
            graphs.append(weakref.ref(self))

    real_evaluate = training.evaluate

    def checking_evaluate(model, data):
        alive_at_evaluate.append(sum(r() is not None for r in graphs))
        return real_evaluate(model, data)

    monkeypatch.setattr(training, "Graph", RecordingGraph)
    monkeypatch.setattr(training, "evaluate", checking_evaluate)
    x, y = tiny_dataset(24)
    model = build(small_config(), Prng(0))
    train(model, (x[:16], y[:16]), TrainConfig(batch_size=8, epochs=2),
          test_data=(x[16:], y[16:]))
    assert len(graphs) == 4
    assert alive_at_new_step == [0, 0, 0, 0]
    assert alive_at_evaluate == [0, 0]


@pytest.mark.skipif(sys.platform != "linux", reason="sets glibc's heap thresholds")
def test_steps_after_the_first_fault_no_pages(tmp_path):
    # A finished step frees its tape and gradients. Unless the heap keeps
    # those pages, every step faults them in again. A fresh process, so that
    # no earlier test has set the allocator's state.
    code = textwrap.dedent(f"""
        import resource, statistics
        import numpy as np
        from chrononet import cli, training
        faults, real_adam_step = [], training.adam_step
        def adam_step(*args):
            real_adam_step(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        training.adam_step = adam_step
        data = "{tmp_path / 'train.cnds'}"
        cli.main(["synth", "--out", data, "--per-class", "256", "--length", "256"])
        cli.main(["train", "--data", data, "--arch", "crnn", "--epochs", "1", "--batch", "64",
                  "--checkpoint", "{tmp_path / 'm.cncp'}", "--metrics", "{tmp_path / 'm.csv'}"])
        print(statistics.median(np.diff(faults[1:])))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(chrononet.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert float(out.splitlines()[-1]) == 0


# ---------------------------------------------------------------------------
# cross-validation


def test_kfold_partitions_groups_exactly():
    groups = np.array([f"g{i % 7}" for i in range(35)])
    folds = kfold(groups, 5, seed=0)
    assert len(folds) == 5
    all_test = np.concatenate([te for _, te in folds])
    assert sorted(all_test.tolist()) == list(range(35))
    for tr, te in folds:
        tr_groups = set(groups[tr].tolist())
        te_groups = set(groups[te].tolist())
        assert not (tr_groups & te_groups)
        assert tr_groups | te_groups == set(groups.tolist())
        assert len(tr) + len(te) == 35


def test_kfold_leave_one_group_out():
    groups = np.array(["a", "a", "b", "c", "c", "c"])
    folds = kfold(groups, 3, seed=1)
    test_group_sets = [set(groups[te].tolist()) for _, te in folds]
    assert all(len(s) == 1 for s in test_group_sets)
    assert set.union(*test_group_sets) == {"a", "b", "c"}


def test_kfold_errors():
    groups = np.array(["a", "b", "c"])
    with pytest.raises(DataError):
        kfold(groups, 4, seed=0)
    with pytest.raises(ConfigError):
        kfold(groups, 1, seed=0)


def test_kfold_seeded_shuffle_changes_assignment():
    groups = np.array([f"g{i}" for i in range(10)])
    f0 = kfold(groups, 5, seed=0)
    f1 = kfold(groups, 5, seed=1)
    assert any(not np.array_equal(a[1], b[1]) for a, b in zip(f0, f1))
    f0b = kfold(groups, 5, seed=0)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(f0, f0b))


def test_cross_validate_smoke():
    x, y = tiny_dataset(20, seed=4)
    groups = np.array([f"p{i % 5}" for i in range(20)])
    mcfg = small_config()
    tcfg = TrainConfig(learning_rate=0.003, batch_size=8, epochs=2, seed=0)
    folds = cross_validate(mcfg, tcfg, (x, y), groups, k=5)
    assert [f.fold for f in folds] == [0, 1, 2, 3, 4]
    assert all(0.0 <= f.test_acc <= 1.0 for f in folds)
    assert sum(f.test_size for f in folds) == 20
    mean, lo, hi = summarize_folds(folds)
    assert lo <= mean <= hi


def test_cross_validate_rejects_non_positive_jobs(monkeypatch):
    x, y = tiny_dataset(20, seed=4)
    groups = np.array([f"p{i % 5}" for i in range(20)])
    monkeypatch.setattr("chrononet.training._run_fold", lambda payload: pytest.fail("ran"))
    for jobs in (0, -3):
        with pytest.raises(ConfigError, match="jobs must be positive"):
            cross_validate(small_config(), TrainConfig(epochs=1), (x, y), groups,
                           k=5, jobs=jobs)


def test_train_best_checkpoint_needs_test_data(tmp_path):
    model = build(small_config(), Prng(0))
    before = [t.data.copy() for _, t in model.named_parameters()]
    with pytest.raises(ConfigError, match="needs test data"):
        train(model, tiny_dataset(), TrainConfig(epochs=1),
              best_checkpoint_path=tmp_path / "best.cncp")
    assert not (tmp_path / "best.cncp").exists()
    for b, (_, t) in zip(before, model.named_parameters()):
        assert np.array_equal(b, t.data)
