import re

import numpy as np
import pytest

from chrononet.errors import ContractError, ShapeError
from chrononet.tensor import (Graph, Prng, Tensor, add, backward, concat,
                              matmul, mul, reshape, sigmoid,
                              slice_axis, sub, tanh, tsum)


def fd_grad(loss_fn, tensor, step=1e-6):
    g = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        plus = loss_fn()
        flat[i] = saved - step
        minus = loss_fn()
        flat[i] = saved
        out[i] = (plus - minus) / (2 * step)
    return g


def test_tensor_wraps_float_arrays():
    t = Tensor([1, 2, 3])
    assert t.dtype == np.float64  # integers are promoted
    assert t.shape == (3,)
    assert Tensor(np.zeros((2, 2), dtype=np.float32)).dtype == np.float32


def test_item_requires_scalar():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ContractError):
        Tensor([1.0, 2.0]).item()


def test_add_sub_mul_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    assert np.array_equal(add(a, b).data, [[11, 22], [13, 24]])
    assert np.array_equal(sub(a, b).data, [[-9, -18], [-7, -16]])
    assert np.array_equal(mul(a, b).data, [[10, 40], [30, 80]])


def test_broadcast_is_one_sided():
    small = Tensor([1.0, 2.0])
    big = Tensor(np.ones((3, 2)))
    assert add(big, small).shape == (3, 2)
    with pytest.raises(ShapeError):
        add(small, big)  # left operand may not grow
    with pytest.raises(ShapeError):
        add(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_broadcast_is_by_suffix_only():
    big = Tensor(np.ones((3, 2)))
    for shape in ((3, 1), (1, 2)):  # numpy would stretch the size-1 axis
        for op in (add, sub, mul):
            with pytest.raises(ShapeError, match=re.escape(str(shape)) + r".*\(3, 2\)"):
                op(big, Tensor(np.ones(shape)))
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    bias = Tensor([2.0, -1.0], requires_grad=True)
    with Graph() as g:
        loss = tsum(mul(add(x, bias), x))  # (x + b) * x
    grads = backward(loss, g)
    assert grads[bias].shape == (2,)
    assert np.array_equal(grads[bias], x.data.sum(axis=0))
    assert np.array_equal(grads[x], 2 * x.data + bias.data)


def test_activation_values():
    x = Tensor([-1.0, 0.0, 0.5])
    assert np.allclose(sigmoid(x).data, [0.26894142, 0.5, 0.62245933])
    assert np.allclose(tanh(x).data, np.tanh([-1.0, 0.0, 0.5]))
    # tanh(0.5) spot value
    assert abs(tanh(Tensor(0.5)).item() - 0.46211715726000974) < 1e-12


def test_sigmoid_is_stable_at_extremes():
    y = sigmoid(Tensor([1000.0, -1000.0])).data
    assert y[0] == 1.0 and y[1] == 0.0
    assert np.all(np.isfinite(y))
    for dtype in (np.float32, np.float64):
        with np.errstate(over="raise", invalid="raise"):
            y = sigmoid(Tensor(np.array([1e4, -1e4, np.inf, -np.inf], dtype=dtype))).data
        assert y.dtype == dtype
        assert y.tolist() == [1.0, 0.0, 1.0, 0.0]
        # bitwise equal to the two-branch formula on a spread of values
        x = np.concatenate([np.linspace(-100.0, 100.0, 2001), [0.0, -0.0, 1e-30, -1e-30],
                            np.random.default_rng(7).normal(scale=8.0, size=(500,))]
                           ).astype(dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
        assert sigmoid(Tensor(x)).data.tobytes() == expected.tobytes()


def test_matmul_values_and_errors():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).data, a.data @ b.data.T)
    with pytest.raises(ShapeError):
        matmul(a, Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        matmul(a, Tensor(np.ones(2)))


def test_concat_split_roundtrip():
    rng = np.random.default_rng(0)
    parts = [Tensor(rng.normal(size=(2, n)), requires_grad=True) for n in (1, 3, 2)]
    weights = Tensor(rng.normal(size=(2, 6)))
    with Graph() as g:
        joined = concat(parts, axis=1)
        loss = tsum(mul(joined, weights))
    assert joined.shape == (2, 6)
    assert np.array_equal(joined.data, np.concatenate([p.data for p in parts], axis=1))
    # backward splits the gradient back into one block per part
    grads = backward(loss, g)
    for orig, (start, stop) in zip(parts, [(0, 1), (1, 4), (4, 6)]):
        assert np.array_equal(grads[orig], weights.data[:, start:stop])
    single = concat(parts[:1], axis=1)
    assert np.array_equal(single.data, parts[0].data)
    assert not np.shares_memory(single.data, parts[0].data)
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))], axis=1)


def test_concat_keeps_the_first_input_memory_order():
    # GRU outputs are transposed views of (T, k, B) memory; their concat is
    # one too, so the next layer reads it in place
    rng = np.random.default_rng(1)
    for first_order in ("time-major", "C"):
        parts = [rng.normal(size=(7, k, 3)).transpose(2, 1, 0) for k in (2, 4, 1)]
        if first_order == "C":
            parts[0] = np.ascontiguousarray(parts[0])
        tensors = [Tensor(p, requires_grad=True) for p in parts]
        weights = Tensor(rng.normal(size=(3, 7, 7)))
        with Graph() as g:
            joined = concat(tensors, axis=1)
            loss = tsum(mul(joined, weights))
        assert np.array_equal(joined.data, np.concatenate(parts, axis=1))
        if first_order == "C":
            assert joined.data.flags.c_contiguous
        else:
            assert joined.data.transpose(2, 1, 0).flags.c_contiguous
        grads = backward(loss, g)
        for t, (start, stop) in zip(tensors, [(0, 2), (2, 6), (6, 7)]):
            assert np.array_equal(grads[t], weights.data[:, start:stop])
    mixed = concat([Tensor(np.ones((2, 1), np.float32)), Tensor(np.ones((2, 1)))], axis=1)
    assert mixed.dtype == np.float64


def test_slice_and_reshape():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    s = slice_axis(t, 1, 1, 3)
    assert np.array_equal(s.data, t.data[:, 1:3])
    r = reshape(t, (4, 3))
    assert np.array_equal(r.data, t.data.reshape(4, 3))


def test_backward_simple_chain():
    x = Tensor(2.0, requires_grad=True)
    y = Tensor(3.0, requires_grad=True)
    with Graph() as g:
        loss = mul(add(x, y), y)  # (x + y) * y
    grads = backward(loss, g)
    assert grads[x] == pytest.approx(3.0)
    assert grads[y] == pytest.approx(2.0 + 2 * 3.0)


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Graph() as g:
        y = mul(x, x)
    with pytest.raises(ContractError):
        backward(y, g)


def test_backward_accumulates_fanout():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Graph() as g:
        loss = tsum(add(mul(x, x), x))  # x^2 + x -> grad 2x + 1
    grads = backward(loss, g)
    assert np.allclose(grads[x], [3.0, 5.0])


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    def forward():
        h = tanh(add(a, b))
        return tsum(sigmoid(matmul(h, w)))

    with Graph() as g:
        loss = forward()
    grads = backward(loss, g)
    for t in (a, b, w):
        numeric = fd_grad(lambda: forward().item(), t)
        assert np.allclose(grads[t], numeric, atol=1e-8)


def test_mean_and_sum_grads():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Graph() as g:
        loss = tsum(mul(x, Tensor(np.full((2, 3), 1 / 6))))  # mean of 6 elements
    grads = backward(loss, g)
    assert np.allclose(grads[x], np.full((2, 3), 1 / 6))
    x2 = Tensor(np.ones(4), requires_grad=True)
    with Graph() as g2:
        loss2 = tsum(x2)
    assert np.allclose(backward(loss2, g2)[x2], np.ones(4))


def test_no_recording_without_graph():
    x = Tensor([1.0], requires_grad=True)
    y = mul(x, x)
    assert not y.requires_grad  # nothing tracked outside a graph


def test_no_recording_without_requires_grad():
    x = Tensor([1.0])
    with Graph() as g:
        mul(x, x)
    assert len(g) == 0


def test_graph_nesting_restores_stack():
    x = Tensor([1.0], requires_grad=True)
    with Graph() as outer:
        add(x, x)
        with Graph() as inner:
            mul(x, x)
        add(x, x)
    assert len(inner) == 1
    assert len(outer) == 2


def test_prng_reproducibility():
    a = Prng(42).normal(0.0, 1.0, (5,))
    b = Prng(42).normal(0.0, 1.0, (5,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Prng(43).normal(0.0, 1.0, (5,)))


def test_prng_derive_children_differ():
    root = Prng(7)
    seeds = {root.derive(i) for i in range(100)}
    assert len(seeds) == 100
    # derive is a pure function of (seed, index)
    assert Prng(7).derive(3) == root.derive(3)


def test_prng_uniform_bounds_and_dtype():
    draws = Prng(0).uniform(-0.5, 0.5, (1000,), dtype=np.float32)
    assert draws.dtype == np.float32
    assert draws.min() >= -0.5 and draws.max() <= 0.5


def test_prng_permutation_is_a_permutation():
    perm = Prng(3).permutation(20)
    assert sorted(perm.tolist()) == list(range(20))
