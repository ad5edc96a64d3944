import numpy as np

from chrononet.architectures import build, default_config, forward
from chrononet.gradcheck import (BlockResult, check_block, finite_diff,
                                 format_report, max_rel_error)
from chrononet.tensor import Graph, Prng, Tensor, backward, make_op, mul, tsum
from chrononet.training import softmax_cross_entropy


def test_finite_diff_quadratic():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    loss_fn = lambda: tsum(mul(x, x))
    grad = finite_diff(loss_fn, x)
    assert np.allclose(grad, 2 * x.data, atol=1e-8)
    # probing restores the tensor exactly
    assert np.array_equal(x.data, [1.0, -2.0, 0.5])


def test_max_rel_error_scales():
    a = np.array([1.0, 100.0])
    assert max_rel_error(a, a) == 0.0
    assert max_rel_error(np.array([1.0]), np.array([1.001])) < 1.1e-3
    # tiny values compare against the 1e-4 floor, not against zero
    assert max_rel_error(np.array([0.0]), np.array([1e-9])) <= 1e-5


def test_block_result_threshold():
    assert BlockResult("b", 9e-5, "w").passed
    assert not BlockResult("b", 2e-4, "w").passed
    assert BlockResult("b", 0.5, "w", tolerance=1.0).passed


def test_check_block_flags_wrong_backward():
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)

    def honest():
        return tsum(mul(x, x))

    def dishonest():
        prod = mul(x, x)
        lie = make_op("lie", (prod,), prod.data.copy(), lambda g: (1.05 * g,))
        return tsum(lie)

    good = check_block("square", honest, [("x", x)])
    assert good.passed and good.max_error < 1e-8

    bad = check_block("square_lie", dishonest, [("x", x)])
    assert not bad.passed
    assert bad.max_error > 1e-3
    assert bad.worst_param == "x"


def test_format_report_layout():
    rows = [BlockResult("alpha", 1e-7, "W"), BlockResult("beta", 0.2, "seq")]
    text = format_report(rows)
    lines = text.splitlines()
    assert len(lines) == 3
    assert "alpha" in lines[1] and lines[1].rstrip().endswith("ok")
    assert "beta" in lines[2] and lines[2].rstrip().endswith("FAIL")


def test_paper_length_float32_gradients_match_float64():
    # At 22 x 15000 each GRU runs 1875 steps back from the readout, which no
    # other test reaches. Bounds: the worst float32 array measured 1.8e-6 off
    # float64 (max-norm relative), so 1e-5 leaves 5x for a change of
    # summation order. Both precisions share every kernel, so the float64
    # gradient is also held to a central difference of the loss along a
    # random unit direction: it measured 4e-11 off, and 9e-3 or more when the
    # BPTT loop skipped its 1st, 2nd, 4th, 11th or 31st iteration. Skipping
    # the 101st moved it by 2e-10: that far back from the readout the
    # gradient has decayed below what any check at this length can see.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 22, 15000)).astype(np.float32)
    y = np.array([0, 1])
    f32 = build(default_config("chrononet", input_channels=22), Prng(0))
    f64 = build(default_config("chrononet", input_channels=22, precision="f64"), Prng(0))
    for (_, a), (_, b) in zip(f32.named_parameters(), f64.named_parameters(), strict=True):
        b.data = a.data.astype(np.float64)

    def gradients(model):
        with Graph() as g:
            loss = softmax_cross_entropy(forward(model, Tensor(x)), y)
        grads = backward(loss, g)
        return [grads[t] for _, t in model.named_parameters()]

    exact = gradients(f64)
    for (name, _), a, b in zip(f32.named_parameters(), gradients(f32), exact, strict=True):
        assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max(), name

    tensors = [t for _, t in f64.named_parameters()]
    direction = [rng.normal(size=t.shape) for t in tensors]
    norm = np.sqrt(sum(np.square(d).sum() for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(np.vdot(g, d) for g, d in zip(exact, direction))
    start = [t.data for t in tensors]

    def loss_at(eps):
        for t, s, d in zip(tensors, start, direction):
            t.data = s + eps * d
        return softmax_cross_entropy(forward(f64, Tensor(x)), y).item()

    eps = 1e-5
    numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
    assert abs(numeric - analytic) <= 1e-6 * abs(analytic)
