import tracemalloc
import warnings

import numpy as np
import pytest

from chrononet.errors import DataError, ShapeError
from chrononet.layers import (DenseGruStack, GruParams,
                              InceptionConvBlock, connection_count,
                              conv1d_output_length,
                              dense_gru_forward, glorot_uniform,
                              gru_layer_forward, gru_step,
                              inception_conv1d_forward, last_time_step,
                              linear_forward)
from chrononet.tensor import (Graph, Prng, Tensor, add, backward, mul, reshape,
                              slice_axis, tsum)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# initialization


def test_glorot_bound_32x32():
    draws = glorot_uniform(Prng(0), (32, 32), 32, 32, dtype=np.float64)
    bound = np.sqrt(6.0 / 64.0)
    assert bound == pytest.approx(0.3061862178478973)
    assert np.abs(draws).max() <= bound
    # fills a decent part of the interval, i.e. not degenerate
    assert np.abs(draws).max() > 0.9 * bound


def test_init_biases_zero_and_reproducible():
    p1 = GruParams.init(Prng(5), 3, 4)
    p2 = GruParams.init(Prng(5), 3, 4)
    for (n1, t1), (n2, t2) in zip(p1.tensors(), p2.tensors()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    assert np.all(p1.b.data == 0)
    conv = InceptionConvBlock.init(Prng(5), 2, 4, (3,), 1)
    assert np.all(conv.biases[0].data == 0)


def test_gru_init_draws_like_per_gate_glorot():
    p = GruParams.init(Prng(9), 3, 4)
    prng = Prng(9)
    W = [glorot_uniform(prng, (4, 3), 3, 4, np.float32) for _ in range(3)]
    U = [glorot_uniform(prng, (4, 4), 4, 4, np.float32) for _ in range(3)]
    assert p.W.data.tobytes() == np.concatenate(W).tobytes()
    assert p.U.data.tobytes() == np.concatenate(U).tobytes()
    assert p.b.data.shape == (12,) and np.all(p.b.data == 0)


# ---------------------------------------------------------------------------
# recurrent cells


def test_gru_step_zero_params_returns_zero():
    p = GruParams.zeros(2, 3)
    x = Tensor(np.random.default_rng(0).normal(size=(4, 2)))
    h0 = Tensor(np.zeros((4, 3)))
    h, z, r, cand = gru_step(p, x, h0)
    assert np.all(h.data == 0.0)
    assert np.allclose(z.data, 0.5) and np.allclose(r.data, 0.5)
    assert np.all(cand.data == 0.0)


def test_gru_step_scalar_oracle():
    # all weights 1, biases 0, x=1, h_prev=0.5, evaluated independently
    p = GruParams.zeros(1, 1)
    for name, t in p.tensors():
        if name.startswith(("W", "U")):
            t.data[:] = 1.0
    h, z, r, cand = gru_step(p, Tensor([[1.0]]), Tensor([[0.5]]))
    ze = sigmoid(1.0 + 0.5)
    re = sigmoid(1.0 + 0.5)
    ce = np.tanh(1.0 + re * 0.5)
    he = (1 - ze) * 0.5 + ze * ce
    assert ze == pytest.approx(0.8175744761936437, abs=1e-15)
    assert ce == pytest.approx(0.8872363204513926, abs=1e-12)
    assert he == pytest.approx(0.8165945318562012, abs=1e-12)
    assert abs(z.item() - ze) < 1e-12
    assert abs(r.item() - re) < 1e-12
    assert abs(cand.item() - ce) < 1e-12
    assert abs(h.item() - he) < 1e-12


def test_gru_step_gate_ranges_and_interpolation():
    rng = np.random.default_rng(2)
    p = GruParams.init(Prng(2), 5, 4, dtype=np.float64)
    x = Tensor(rng.normal(size=(6, 5)) * 3)
    h_prev = Tensor(rng.normal(size=(6, 4)))
    h, z, r, cand = gru_step(p, x, h_prev)
    assert np.all((z.data > 0) & (z.data < 1))
    assert np.all((r.data > 0) & (r.data < 1))
    assert np.all((cand.data > -1) & (cand.data < 1))
    lo = np.minimum(h_prev.data, cand.data)
    hi = np.maximum(h_prev.data, cand.data)
    assert np.all(h.data >= lo - 1e-12) and np.all(h.data <= hi + 1e-12)


def test_gru_step_huge_negative_update_bias_keeps_state():
    p = GruParams.init(Prng(3), 2, 3, dtype=np.float64)
    p.b.data[:p.hidden_size] = -1e3  # z rows: z -> 0 so h_t -> h_prev
    x = Tensor(np.random.default_rng(3).normal(size=(2, 2)))
    h_prev = Tensor(np.random.default_rng(4).normal(size=(2, 3)))
    h, z, _, _ = gru_step(p, x, h_prev)
    assert np.allclose(h.data, h_prev.data)
    assert np.all(z.data < 1e-10)


def test_gru_layer_matches_step_composition():
    p = GruParams.init(Prng(4), 3, 4, dtype=np.float64)
    seq = Tensor(np.random.default_rng(5).normal(size=(2, 3, 5)))
    fused = gru_layer_forward(p, seq)
    h = Tensor(np.zeros((2, 4)))
    outs = []
    for t in range(5):
        x_t = Tensor(np.ascontiguousarray(seq.data[:, :, t]))
        h, _, _, _ = gru_step(p, x_t, h)
        outs.append(h.data)
    composed = np.stack(outs, axis=2)
    assert np.allclose(fused.data, composed, atol=1e-12)


def test_gru_layer_single_step_equals_gru_step():
    p = GruParams.init(Prng(6), 2, 3, dtype=np.float64)
    seq = Tensor(np.random.default_rng(6).normal(size=(4, 2, 1)))
    fused = gru_layer_forward(p, seq)
    h, _, _, _ = gru_step(p, Tensor(seq.data[:, :, 0]), Tensor(np.zeros((4, 3))))
    assert np.allclose(fused.data[:, :, 0], h.data)


def test_gru_layer_batch_independence():
    p = GruParams.init(Prng(7), 2, 3, dtype=np.float64)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(1, 2, 6))
    b = rng.normal(size=(1, 2, 6))
    both = gru_layer_forward(p, Tensor(np.concatenate([a, b], axis=0)))
    one = gru_layer_forward(p, Tensor(a))
    two = gru_layer_forward(p, Tensor(b))
    assert np.allclose(both.data[0], one.data[0])
    assert np.allclose(both.data[1], two.data[0])


def test_gru_layer_errors():
    p = GruParams.init(Prng(8), 2, 3)
    with pytest.raises(DataError):
        gru_layer_forward(p, Tensor(np.zeros((1, 2, 0), dtype=np.float32)))
    with pytest.raises(ShapeError):
        gru_layer_forward(p, Tensor(np.zeros((1, 5, 4), dtype=np.float32)))
    with pytest.raises(ShapeError):
        gru_layer_forward(p, Tensor(np.zeros((2, 2), dtype=np.float32)))


def test_gru_layer_keeps_input_copy_and_two_state_arrays():
    # under a graph the backward closure holds the (T, n, B) input copy, the
    # (T+1, m, B) hidden buffer and the (T, 3m, B) gate slab, nothing more;
    # the output is a view of the hidden buffer
    batch, n, steps, m = 8, 16, 200, 32
    p = GruParams.init(Prng(26), n, m)
    seq = Tensor(np.random.default_rng(26).normal(size=(batch, n, steps)).astype(np.float32),
                 requires_grad=True)
    tracemalloc.start()
    try:
        with Graph() as g:
            out = gru_layer_forward(p, seq)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 1
    states = 4 * ((steps + 1) * batch * m + 3 * steps * batch * m)
    assert kept < seq.data.nbytes + states + 64 * 1024


def test_gru_layer_extreme_gate_biases_stay_finite_without_warnings():
    # the sigmoid's exp overflows to inf by design at -1e3; that gives the
    # exact limit 0 and must raise no warning
    rng = np.random.default_rng(27)
    seq = Tensor(rng.normal(size=(3, 2, 6)).astype(np.float32))
    for z_bias in (-1e3, 1e3):
        for r_bias in (-1e3, 1e3):
            p = GruParams.init(Prng(27), 2, 4)
            p.b.data[:4] = z_bias
            p.b.data[4:8] = r_bias
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = gru_layer_forward(p, seq).data
            assert np.all(np.isfinite(out))
            if z_bias < 0:   # z -> 0 keeps h_0 = 0 throughout
                assert np.all(out == 0.0)
            else:
                assert np.all(out != 0.0)


def test_gru_layer_ignores_input_memory_layout():
    # the GRU's real inputs are a conv block's output, a transposed view of
    # (B, T, C) memory, and another layer's output, a transposed view of
    # (T, C, B) memory: both give the same bits as a C-contiguous (B, C, T)
    # array, and the input gradient is a transposed view of (T, C, B) memory
    rng = np.random.default_rng(28)
    for dtype in (np.float64, np.float32):
        p = GruParams.init(Prng(28), 5, 4, dtype)
        values = rng.normal(size=(3, 5, 7)).astype(dtype)
        layouts = (values, np.ascontiguousarray(values.transpose(0, 2, 1)).transpose(0, 2, 1),
                   np.ascontiguousarray(values.transpose(2, 1, 0)).transpose(2, 1, 0))
        gout = rng.normal(size=(3, 4, 7)).astype(dtype)
        runs = []
        for x in layouts:
            with Graph() as g:
                out = gru_layer_forward(p, Tensor(x, requires_grad=True))
            grads = g.nodes[0].backward_fn(gout)
            assert grads[0].transpose(2, 1, 0).flags.c_contiguous
            runs.append([out.data, *grads])
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert a.dtype == b.dtype == dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def closure_arrays(fn):
    """The arrays a backward closure keeps, by name."""
    cells = zip(fn.__code__.co_freevars, fn.__closure__)
    return {name: c.cell_contents for name, c in cells if isinstance(c.cell_contents, np.ndarray)}


def test_gru_stack_keeps_no_copy_of_a_layer_input():
    # with dense wiring each layer reads the previous output, or the concat
    # of the previous outputs, in place, and returns a view of its hidden
    # buffer: only the first layer, fed (B, C, T) memory, copies its input
    rng = np.random.default_rng(32)
    stack = DenseGruStack.init(Prng(32), 6, [4, 3, 5], dense=True, dtype=np.float64)
    seq = Tensor(rng.normal(size=(2, 6, 9)), requires_grad=True)
    with Graph() as g:
        out = dense_gru_forward(stack, seq)
    assert [n.tag for n in g.nodes] == ["gru_layer", "gru_layer", "concat", "gru_layer"]
    grus = [n for n in g.nodes if n.tag == "gru_layer"]
    for node in grus:
        kept = closure_arrays(node.backward_fn)
        assert np.shares_memory(node.out.data, kept["H"])
        assert np.shares_memory(kept["xt"], node.inputs[0].data) == (node is not grus[0])
    assert out is grus[-1].out


def test_gru_layer_backward_leaves_output_gradient_unchanged():
    # the backward loop works in place on a (T, m, B) copy of the gradient;
    # when the transpose is already contiguous it must still be a copy
    for batch, m, order in ((1, 1, "C"), (3, 4, "F")):
        p = GruParams.init(Prng(29), 2, m, np.float64)
        seq = Tensor(np.random.default_rng(29).normal(size=(batch, 2, 6)), requires_grad=True)
        with Graph() as g:
            out = gru_layer_forward(p, seq)
        gout = np.asarray(np.random.default_rng(30).normal(size=out.shape), order=order)
        before = gout.copy()
        g.nodes[0].backward_fn(gout)
        assert np.array_equal(gout, before)


def operator_form_gru(p, x, gout):
    """The GRU layer node's forward and backward written with in-place
    operators and keyword ``out``: the node's ops in the node's order, so it
    must match this byte for byte.  Returns (out, dx, dW, dU, db)."""
    W, U = p.W.data, p.U.data
    batch, n, steps = x.shape
    m, dtype = p.hidden_size, x.dtype
    xt = np.ascontiguousarray(x.transpose(2, 1, 0))
    neg_W, neg_b = W.copy(), p.b.data.copy()
    neg_W[:2 * m] *= -1
    neg_b[:2 * m] *= -1
    A = np.matmul(neg_W, xt)
    A += neg_b[:, None]
    H = np.zeros((steps + 1, m, batch), dtype)
    neg_U_zr = -U[:2 * m]
    zr_u, h_u, rh = (np.empty((k, batch), dtype) for k in (2 * m, m, m))
    one = np.ones((), dtype)
    with np.errstate(over="ignore"):
        for t in range(steps):
            z, r, zr, cand, h, h_next = (A[t, :m], A[t, m:2 * m], A[t, :2 * m], A[t, 2 * m:],
                                         H[t], H[t + 1])
            zr += np.dot(neg_U_zr, h, out=zr_u)
            np.exp(zr, out=zr)
            zr += one
            np.reciprocal(zr, out=zr)
            np.multiply(r, h, out=rh)
            cand += np.dot(U[2 * m:], rh, out=h_u)
            np.tanh(cand, out=cand)
            np.subtract(cand, h, out=h_next)
            h_next *= z
            h_next += h
    Z, R, C, Hp = A[:, :m], A[:, m:2 * m], A[:, 2 * m:], H[:-1]
    dA = np.empty_like(A)
    dZ, dR, dC = dA[:, :m], dA[:, m:2 * m], dA[:, 2 * m:]
    one_minus_z = np.subtract(1.0, Z)
    np.subtract(C, Hp, out=dZ)
    dZ *= Z
    dZ *= one_minus_z
    np.subtract(1.0, R, out=dR)
    dR *= R
    dR *= Hp
    np.multiply(C, C, out=dC)
    np.subtract(1.0, dC, out=dC)
    dC *= Z
    dH = gout.transpose(2, 1, 0).copy()
    U_zr_t, U_h_t = np.ascontiguousarray(U[:2 * m].T), np.ascontiguousarray(U[2 * m:].T)
    carry, drh = np.zeros((m, batch), dtype), np.empty((m, batch), dtype)
    for t in reversed(range(steps)):
        dh, dc, dr, dz = dH[t], dC[t], dR[t], dZ[t]
        dh += carry
        dc *= dh
        np.dot(U_h_t, dc, out=drh)
        dr *= drh
        dz *= dh
        np.dot(U_zr_t, dA[t, :2 * m], out=carry)
        dh *= one_minus_z[t]
        carry += dh
        drh *= R[t]
        carry += drh
    dx = np.matmul(W.T, dA).transpose(2, 1, 0)
    dA2 = np.ascontiguousarray(dA.transpose(0, 2, 1)).reshape(steps * batch, 3 * m)
    x2 = np.ascontiguousarray(xt.transpose(0, 2, 1)).reshape(steps * batch, n)
    hp2 = np.ascontiguousarray(Hp.transpose(0, 2, 1)).reshape(steps * batch, m)
    rh2 = np.ascontiguousarray((R * Hp).transpose(0, 2, 1)).reshape(steps * batch, m)
    dz2, dr2, dh2 = dA2[:, :m], dA2[:, m:2 * m], dA2[:, 2 * m:]
    dW = np.concatenate([dz2.T @ x2, dr2.T @ x2, dh2.T @ x2])
    dU = np.concatenate([dz2.T @ hp2, dr2.T @ hp2, dh2.T @ rh2])
    return H[1:].transpose(2, 1, 0), dx, dW, dU, dA2.sum(axis=0)


def assert_bytes_equal(got, want, case):
    for a, r in zip(got, want, strict=True):
        assert a.dtype == r.dtype and a.shape == r.shape, case
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(r).tobytes(), case


def test_gru_layer_matches_operator_form_byte_for_byte():
    # the node calls its step ops positionally through local names and its
    # products through bound ndarray.dot; the bits must be those of the
    # same ops written as operators
    rng = np.random.default_rng(44)
    for dtype in (np.float32, np.float64):
        for batch in (1, 3, 8):
            for steps in (1, 5, 40):
                p = GruParams.init(Prng(44), 5, 6, dtype)
                p.b.data[:] = rng.normal(0.0, 0.5, p.b.shape)
                x = rng.normal(size=(batch, 5, steps)).astype(dtype)
                gout = rng.normal(size=(batch, 6, steps)).astype(dtype)
                with Graph() as g:
                    out = gru_layer_forward(p, Tensor(x, requires_grad=True))
                assert_bytes_equal([out.data, *g.nodes[0].backward_fn(gout)],
                                   operator_form_gru(p, x, gout), (dtype, batch, steps))


def test_dense_gru_stack_layers_match_operator_form_byte_for_byte():
    # inside a dense stack each layer reads the previous output or a concat
    # of them in place; every layer node still gives the operator form's bits
    rng = np.random.default_rng(45)
    for dtype in (np.float32, np.float64):
        stack = DenseGruStack.init(Prng(45), 6, [4, 3, 5], dense=True, dtype=dtype)
        seq = Tensor(rng.normal(size=(3, 6, 12)).astype(dtype), requires_grad=True)
        with Graph() as g:
            dense_gru_forward(stack, seq)
        nodes = [node for node in g.nodes if node.tag == "gru_layer"]
        assert len(nodes) == 3
        for k, (node, p) in enumerate(zip(nodes, stack.layers)):
            x = node.inputs[0].data
            gout = rng.normal(size=node.out.shape).astype(dtype)
            assert_bytes_equal([node.out.data, *node.backward_fn(gout)],
                               operator_form_gru(p, x, gout), (dtype, k))


def test_gru_layer_zero_params_zero_output():
    p = GruParams.zeros(2, 3)
    seq = Tensor(np.random.default_rng(8).normal(size=(2, 2, 4)))
    assert np.all(gru_layer_forward(p, seq).data == 0.0)


# ---------------------------------------------------------------------------
# convolution


def test_conv_output_length_law():
    assert conv1d_output_length(15000, 2) == 7500
    assert conv1d_output_length(7, 2) == 4
    assert conv1d_output_length(1, 3) == 1
    for length in range(1, 40):
        for stride in range(1, 5):
            assert conv1d_output_length(length, stride) == int(np.ceil(length / stride))


def conv_reference(block, seq):
    """Brute-force "same" cross-correlation, bias and ReLU of every branch,
    each padded for its own kernel length, concatenated on channels."""
    batch, in_ch, length = seq.shape
    outs = []
    stride = block.stride
    for kernels, bias in zip(block.kernels, block.biases):
        w, b = kernels.data, bias.data
        out_ch, _, k = w.shape
        pad_left = (k - 1) // 2
        t_out = -(-length // stride)
        out = np.zeros((batch, out_ch, t_out))
        for bi in range(batch):
            for oc in range(out_ch):
                for t in range(t_out):
                    acc = 0.0
                    for ic in range(in_ch):
                        for j in range(k):
                            src = t * stride + j - pad_left
                            if 0 <= src < length:
                                acc += seq[bi, ic, src] * w[oc, ic, j]
                    out[bi, oc, t] = max(acc + b[oc], 0.0)
        outs.append(out)
    return np.concatenate(outs, axis=1)


def _plain(kernels, bias, stride=1):
    return InceptionConvBlock([Tensor(kernels)], [Tensor(bias)], stride)


def test_conv_identity_kernel():
    seq = Tensor(np.abs(np.random.default_rng(9).normal(size=(2, 1, 6))))
    out = inception_conv1d_forward(_plain(np.ones((1, 1, 1)), np.zeros(1)), seq)
    assert np.allclose(out.data, seq.data)  # positive input passes ReLU untouched


def test_conv_hand_case_k2():
    # [1,2,3,4] with kernel [1,1], stride 1, same padding -> [3,5,7,4]
    out = inception_conv1d_forward(_plain(np.ones((1, 1, 2)), np.zeros(1)),
                                   Tensor([[[1.0, 2.0, 3.0, 4.0]]]))
    assert np.allclose(out.data, [[[3.0, 5.0, 7.0, 4.0]]])


def test_conv_matches_brute_force():
    # every branch of blocks whose kernels are listed out of order, at strides
    # that do and do not divide the length
    rng = np.random.default_rng(10)
    for kernels in ((8, 2, 3), (2, 4, 8)):
        for stride in (1, 2, 3):
            prng = Prng(11 + stride)
            block = InceptionConvBlock.init(prng, 3, 2, kernels, stride, dtype=np.float64)
            for b in block.biases:
                b.data[:] = prng.normal(0.0, 0.1, b.shape)
            seq = rng.normal(size=(2, 3, 13))
            out = inception_conv1d_forward(block, Tensor(seq))
            assert out.shape == (2, 6, conv1d_output_length(13, stride))
            assert np.allclose(out.data, conv_reference(block, seq), rtol=0, atol=1e-12)


def test_conv_channel_mismatch():
    block = InceptionConvBlock.init(Prng(12), 3, 4, (3,), 1)
    with pytest.raises(ShapeError):
        inception_conv1d_forward(block, Tensor(np.zeros((1, 2, 8), dtype=np.float32)))
    with pytest.raises(DataError):
        inception_conv1d_forward(block, Tensor(np.zeros((1, 3, 0), dtype=np.float32)))


def test_inception_concatenates_branches():
    block = InceptionConvBlock.init(Prng(13), 2, 3, (2, 4, 8), 2, dtype=np.float64)
    seq = Tensor(np.random.default_rng(13).normal(size=(2, 2, 12)))
    out = inception_conv1d_forward(block, seq)
    assert out.shape == (2, 9, 6)
    for j, (w, b) in enumerate(zip(block.kernels, block.biases)):
        alone = inception_conv1d_forward(InceptionConvBlock([w], [b], block.stride), seq)
        assert np.array_equal(out.data[:, 3 * j:3 * j + 3], alone.data)


def test_inception_single_branch_is_plain_conv():
    block = InceptionConvBlock.init(Prng(14), 2, 3, (4,), 2, dtype=np.float64)
    seq = np.random.default_rng(14).normal(size=(1, 2, 10))
    with Graph() as g:
        out = inception_conv1d_forward(block, Tensor(seq, requires_grad=True))
    assert len(g) == 1
    assert np.allclose(out.data, conv_reference(block, seq), rtol=0, atol=1e-12)


def test_inception_block_is_one_tape_node():
    block = InceptionConvBlock.init(Prng(27), 2, 3, (2, 4, 8), 2)
    with Graph() as g:
        out = inception_conv1d_forward(block, Tensor(np.ones((2, 2, 12), dtype=np.float32),
                                                     requires_grad=True))
    assert len(g) == 1 and g.nodes[0].tag == "conv1d" and g.nodes[0].out is out


def test_inception_block_keeps_columns_and_output():
    # under a graph the node holds each branch's window columns and the
    # output, not the padded input or per-branch copies of the output
    batch, ch, length, stride, filters = 8, 22, 256, 2, 32
    kernels = (2, 4, 8)
    block = InceptionConvBlock.init(Prng(28), ch, filters, kernels, stride)
    seq = Tensor(np.random.default_rng(28).normal(size=(batch, ch, length)).astype(np.float32),
                 requires_grad=True)
    tracemalloc.start()
    try:
        with Graph() as g:
            out = inception_conv1d_forward(block, seq)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 1
    t_out = conv1d_output_length(length, stride)
    cols = 4 * batch * t_out * ch * sum(kernels)
    assert kept < cols + out.data.nbytes + 64 * 1024


def test_conv_block_ignores_input_memory_layout():
    # the same values as a C-contiguous (B, C, L) array and as a transposed
    # view of (B, L, C) memory give the same bits everywhere, and the input
    # gradient is a transposed view of channel-last memory
    rng = np.random.default_rng(30)
    for dtype in (np.float64, np.float32):
        for stride in (1, 2):
            block = InceptionConvBlock.init(Prng(30 + stride), 5, 3, (2, 4, 8), stride, dtype)
            values = rng.normal(size=(3, 5, 23)).astype(dtype)
            layouts = (values, np.ascontiguousarray(values.transpose(0, 2, 1)).transpose(0, 2, 1))
            gout = rng.normal(size=(3, 9, conv1d_output_length(23, stride))).astype(dtype)
            runs = []
            for x in layouts:
                with Graph() as g:
                    out = inception_conv1d_forward(block, Tensor(x, requires_grad=True))
                grads = g.nodes[0].backward_fn(gout)
                assert all(rows.flags.c_contiguous for rows in grads[0].transpose(0, 2, 1))
                runs.append([out.data, *grads])
            for a, b in zip(*runs):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def copying(fn):
    """A backward rule that hands on a C-contiguous copy of fn's input gradient."""
    def bwd(g):
        dseq, *rest = fn(g)
        return (np.ascontiguousarray(dseq), *rest)
    return bwd


def test_conv_stack_gradients_do_not_follow_the_input_gradient_layout():
    # the upper blocks hand the block below a view as its input gradient;
    # handing on a C-contiguous copy instead gives the same bits everywhere
    rng = np.random.default_rng(33)
    for dtype in (np.float64, np.float32):
        for kernels, stride in (((4,), 2), ((2, 4, 8), 2), ((2, 4, 8), 1)):
            prng, blocks, ch = Prng(33), [], 3
            for _ in range(3):
                blocks.append(InceptionConvBlock.init(prng, ch, 4, kernels, stride, dtype))
                ch = blocks[-1].out_channels
            seq = Tensor(rng.normal(size=(4, 3, 37)).astype(dtype), requires_grad=True)
            with Graph() as g:
                hidden = [seq]
                for block in blocks:
                    hidden.append(inception_conv1d_forward(block, hidden[-1]))
                loss = tsum(mul(hidden[-1], Tensor(rng.normal(size=hidden[-1].shape).astype(dtype))))
            views = backward(loss, g)
            assert not views[hidden[1]].flags.c_contiguous
            for node in g.nodes[1:3]:
                node.backward_fn = copying(node.backward_fn)
            copies = backward(loss, g)
            assert copies[hidden[1]].flags.c_contiguous
            assert views.keys() == copies.keys()
            for t, grad in views.items():
                assert grad.dtype == copies[t].dtype == dtype
                assert grad.tobytes() == copies[t].tobytes()


def test_conv_backward_holds_no_tap_major_copy():
    # the col2im scatter reads the GEMM result in place: the backward pass
    # peaks below two of the largest branch's columns
    batch, ch, length, stride, filters = 8, 96, 128, 2, 32
    kernels = (2, 4, 8)
    block = InceptionConvBlock.init(Prng(31), ch, filters, kernels, stride)
    rng = np.random.default_rng(31)
    seq = Tensor(rng.normal(size=(batch, ch, length)).astype(np.float32), requires_grad=True)
    with Graph() as g:
        out = inception_conv1d_forward(block, seq)
    gout = rng.normal(size=out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        g.nodes[0].backward_fn(gout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cols = 4 * batch * conv1d_output_length(length, stride) * ch * max(kernels)
    assert peak < 2 * cols + 256 * 1024


def test_conv_input_gradient_only_when_required():
    block = InceptionConvBlock.init(Prng(29), 2, 3, (2, 3), 2, dtype=np.float64)
    seq = np.random.default_rng(29).normal(size=(2, 2, 9))
    grads = {}
    for req in (False, True):
        x = Tensor(seq, requires_grad=req)
        with Graph() as g:
            loss = tsum(inception_conv1d_forward(block, x))
        grads[req] = backward(loss, g)
        assert (x in grads[req]) == req
    for _, t in block.tensors():
        assert np.array_equal(grads[False][t], grads[True][t])


def test_inception_init_draws_like_per_branch_glorot():
    block = InceptionConvBlock.init(Prng(30), 3, 4, (2, 4, 8), 2, dtype=np.float64)
    prng = Prng(30)
    for w, b, k in zip(block.kernels, block.biases, (2, 4, 8)):
        expected = glorot_uniform(prng, (4, 3, k), 3 * k, 4 * k, dtype=np.float64)
        assert np.array_equal(w.data, expected) and w.data.dtype == np.float64
        assert np.array_equal(b.data, np.zeros(4)) and b.data.dtype == np.float64
        assert w.requires_grad and b.requires_grad
    assert (block.stride, block.in_channels, block.out_channels) == (2, 3, 12)
    assert [n for n, _ in block.tensors()] == [
        f"branch{j}.{name}" for j in range(3) for name in ("kernels", "bias")]


def conv_grad_reference(block, seq, gout):
    """Brute-force kernel, bias and input gradients of ``conv_reference``
    for the output gradient ``gout``: [(dW, db) per branch], dseq."""
    batch, in_ch, length = seq.shape
    mask = conv_reference(block, seq) > 0
    dseq, grads, lo = np.zeros_like(seq), [], 0
    for kernels in block.kernels:
        w = kernels.data
        out_ch, _, k = w.shape
        pad_left = (k - 1) // 2
        gp = np.where(mask[:, lo:lo + out_ch], gout[:, lo:lo + out_ch], 0.0)
        dw = np.zeros_like(w)
        for bi in range(batch):
            for oc in range(out_ch):
                for t in range(gp.shape[2]):
                    for ic in range(in_ch):
                        for j in range(k):
                            src = t * block.stride + j - pad_left
                            if 0 <= src < length:
                                dw[oc, ic, j] += gp[bi, oc, t] * seq[bi, ic, src]
                                dseq[bi, ic, src] += gp[bi, oc, t] * w[oc, ic, j]
        grads.append((dw, gp.sum(axis=(0, 2))))
        lo += out_ch
    return grads, dseq


def _lowering_cases():
    # every kernel alone and all of them in one block, at strides up to 4
    # (so above some kernels and above the shortest lengths) and lengths 1-13:
    # every phase offset of a branch's windows, and partial last tap chunks
    for kernels in ((1,), (2,), (3,), (5,), (8,), (1, 2, 3, 5, 8)):
        for stride in (1, 2, 3, 4):
            for length in range(1, 14):
                yield kernels, stride, length


def test_conv_lowering_matches_brute_force_at_every_phase():
    rng = np.random.default_rng(40)
    for kernels, stride, length in _lowering_cases():
        prng = Prng(40 + stride)
        block = InceptionConvBlock.init(prng, 2, 2, kernels, stride, dtype=np.float64)
        for b in block.biases:
            b.data[:] = prng.normal(0.0, 0.1, b.shape)
        seq = rng.normal(size=(2, 2, length))
        out = inception_conv1d_forward(block, Tensor(seq))
        assert out.shape == (2, 2 * len(kernels), conv1d_output_length(length, stride))
        assert np.allclose(out.data, conv_reference(block, seq), rtol=0, atol=1e-12), \
            (kernels, stride, length)


def test_conv_lowering_gradients_match_brute_force():
    rng = np.random.default_rng(41)
    for kernels, stride, length in _lowering_cases():
        prng = Prng(41 + stride)
        block = InceptionConvBlock.init(prng, 2, 2, kernels, stride, dtype=np.float64)
        for b in block.biases:
            b.data[:] = prng.normal(0.0, 0.1, b.shape)
        seq = rng.normal(size=(2, 2, length))
        with Graph() as g:
            out = inception_conv1d_forward(block, Tensor(seq, requires_grad=True))
        gout = rng.normal(size=out.shape)
        dseq, *grads = g.nodes[0].backward_fn(gout)
        ref, ref_dseq = conv_grad_reference(block, seq, gout)
        case = (kernels, stride, length)
        assert np.allclose(dseq, ref_dseq, rtol=0, atol=1e-12), case
        for j, (dw, db) in enumerate(ref):
            assert grads[2 * j].shape == dw.shape, case
            assert np.allclose(grads[2 * j], dw, rtol=0, atol=1e-12), case
            assert np.allclose(grads[2 * j + 1], db, rtol=0, atol=1e-12), case


def test_conv_block_keeps_padded_rows_and_output():
    # under a graph the node keeps the padded input and the output, and no
    # window columns: each element's L+K-1 rows rounded up to whole strides,
    # plus fewer than K+stride spare rows
    batch, ch, length, stride, filters = 8, 22, 256, 2, 32
    kernels = (2, 4, 8)
    block = InceptionConvBlock.init(Prng(42), ch, filters, kernels, stride)
    seq = Tensor(np.random.default_rng(42).normal(size=(batch, ch, length)).astype(np.float32),
                 requires_grad=True)
    tracemalloc.start()
    try:
        with Graph() as g:
            out = inception_conv1d_forward(block, seq)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g) == 1
    K = max(kernels)
    padded = 4 * ch * (batch * (length + K - 1 + stride - 1) + K + stride)
    assert kept < padded + out.data.nbytes + 64 * 1024


def per_branch_conv(block, x, gout):
    """The conv block as one pass per branch: each branch's GEMMs, bias and
    ReLU write its own output channels, and its backward fills, masks and
    sums its own gradient.  Same GEMMs in the same order as the block, so the
    block must match it byte for byte.  Returns (out, dx or None, [dW, db]...)."""
    batch, in_ch, length = x.shape
    s, K = block.stride, max(w.shape[2] for w in block.kernels)
    pad_left, t_out = (K - 1) // 2, conv1d_output_length(length, s)
    rows_per = conv1d_output_length(length + K - 1, s)
    n = batch * rows_per
    padded = np.zeros((n * s + K + s, in_ch), x.dtype)
    padded[:n * s].reshape(batch, rows_per * s, in_ch)[:, pad_left:pad_left + length] = \
        x.transpose(0, 2, 1)

    def chunks(buf, off, k):
        rows = buf.reshape(-1)[(off % s) * in_ch:].reshape(-1)
        rows = rows[:rows.size // (s * in_ch) * s * in_ch].reshape(-1, s * in_ch)
        for u in range(-(-k // s)):
            c0, c1 = u * s * in_ch, min(u * s + s, k) * in_ch
            yield rows[off // s + u:off // s + u + n, :c1 - c0], c0, c1

    out = np.empty((batch, block.out_channels, t_out), x.dtype)
    dpad = np.zeros_like(padded)
    grads, lo = [], 0
    for w, b in zip(block.kernels, block.biases):
        out_ch, _, k = w.shape
        off = pad_left - (k - 1) // 2
        wt = w.data.transpose(0, 2, 1).reshape(out_ch, k * in_ch)
        pre = None
        for v, c0, c1 in chunks(padded, off, k):
            pre = v @ wt[:, c0:c1].T if pre is None else pre + v @ wt[:, c0:c1].T
        pre = pre.reshape(batch, rows_per, out_ch)[:, :t_out]
        o = out[:, lo:lo + out_ch]
        np.maximum(np.add(pre.transpose(0, 2, 1), b.data[:, None], out=o), 0.0, out=o)
        g2 = np.zeros((batch, rows_per, out_ch), x.dtype)
        g2[:, :t_out] = gout[:, lo:lo + out_ch].transpose(0, 2, 1)
        g2[:, :t_out] *= o.transpose(0, 2, 1) > 0
        g2 = g2.reshape(n, out_ch)
        dwt = np.empty_like(wt)
        for v, c0, c1 in chunks(padded, off, k):
            dwt[:, c0:c1] = g2.T @ v
        for dv, c0, c1 in chunks(dpad, off, k):
            dv += g2 @ wt[:, c0:c1]
        grads += [dwt.reshape(out_ch, k, in_ch).transpose(0, 2, 1), g2.sum(axis=0)]
        lo += out_ch
    dx = dpad[:n * s].reshape(batch, rows_per * s, in_ch)[:, pad_left:pad_left + length]
    return out, dx.transpose(0, 2, 1), grads


def check_conv_block_against_per_branch(block, x, gout, case):
    """The block's output and gradients, with the input gradient on and off,
    byte-equal to ``per_branch_conv``'s, in the input's dtype."""
    ref_out, ref_dx, ref_grads = per_branch_conv(block, x, gout)
    assert ref_out.dtype == x.dtype, case
    for req in (False, True):
        with Graph() as g:
            out = inception_conv1d_forward(block, Tensor(x, requires_grad=req))
        dx, *grads = g.nodes[0].backward_fn(gout)
        assert (dx is None) == (not req), case
        assert_bytes_equal([out.data, *([dx] if req else []), *grads],
                           [ref_out, *([ref_dx] if req else []), *ref_grads], (*case, req))


def test_conv_block_matches_per_branch_passes_byte_for_byte():
    # one bias/ReLU pass and one mask/bias-sum pass over the block's buffer
    # give the bits of one pass per branch
    rng = np.random.default_rng(43)
    for dtype in (np.float32, np.float64):
        for kernels in ((4,), (3,), (2, 4, 8), (1, 2, 3, 5)):
            for stride in (1, 2, 3):
                for length in (1, 7, 25):
                    block = InceptionConvBlock.init(Prng(43 + stride), 3, 4, kernels, stride,
                                                    dtype)
                    for b in block.biases:
                        b.data[:] = rng.normal(0.0, 0.1, b.shape)
                    x = rng.normal(size=(2, 3, length)).astype(dtype)
                    gout = rng.normal(size=(2, block.out_channels,
                                            conv1d_output_length(length, stride))).astype(dtype)
                    check_conv_block_against_per_branch(block, x, gout,
                                                        (dtype, kernels, stride, length))


def test_conv_block_row_tiles_match_per_branch_passes_byte_for_byte(monkeypatch):
    # tiles of a few rows over buffers that span many tiles: 32 channels at
    # stride 2 make chunks of K = 64, where a 1-row product (numpy's gemv
    # path) differs in bits from the same row of a GEMM.  A kernel of 2 at
    # stride 2 and an odd length puts the buffer's last row in the output.
    # Each reference product stays under ~1200 outputs, the size OpenBLAS's
    # small-matrix kernels serve on AVX-512, so it takes a tile's path.
    from chrononet import layers
    rng = np.random.default_rng(46)
    remainders = set()
    for tile in (2, 3, 5):
        monkeypatch.setattr(layers, "CONV_TILE_ROWS", tile)
        for dtype in (np.float32, np.float64):
            for kernels in ((2,), (4,), (2, 4, 8)):
                for stride in (1, 2, 3):
                    for length in (9, 16, 23):
                        block = InceptionConvBlock.init(Prng(46 + stride), 32, 4, kernels,
                                                        stride, dtype)
                        for b in block.biases:
                            b.data[:] = rng.normal(0.0, 0.1, b.shape)
                        x = rng.normal(size=(2, 32, length)).astype(dtype)
                        gout = rng.normal(size=(2, block.out_channels, conv1d_output_length(
                            length, stride))).astype(dtype)
                        n = 2 * conv1d_output_length(length + max(kernels) - 1, stride)
                        remainders.add(n % tile)
                        check_conv_block_against_per_branch(
                            block, x, gout, (tile, dtype, kernels, stride, length))
    assert {1, 2} <= remainders


def test_conv_block_default_tiles_match_per_branch_passes_byte_for_byte():
    # 4101 rows: two 2048-row tiles would leave a 5-row remainder, whose
    # product takes OpenBLAS's small-matrix path on AVX-512 and gives other
    # bits than the same rows of one 4101-row GEMM
    rng = np.random.default_rng(47)
    for dtype in (np.float32, np.float64):
        block = InceptionConvBlock.init(Prng(47), 32, 32, (2, 4, 8), 2, dtype)
        for b in block.biases:
            b.data[:] = rng.normal(0.0, 0.1, b.shape)
        x = rng.normal(size=(1, 32, 8194)).astype(dtype)
        gout = rng.normal(size=(1, block.out_channels, 4097)).astype(dtype)
        check_conv_block_against_per_branch(block, x, gout, (dtype,))


# ---------------------------------------------------------------------------
# stacks and readout


def test_stack_init_sizes_layers_for_each_wiring():
    for dense, sizes in ((True, [2, 3, 7, 12]), (False, [2, 3, 4, 5])):
        stack = DenseGruStack.init(Prng(31), 2, [3, 4, 5, 6], dense, dtype=np.float64)
        assert stack.dense is dense
        assert [p.input_size for p in stack.layers] == sizes
        assert [p.hidden_size for p in stack.layers] == [3, 4, 5, 6]
        prng = Prng(31)   # drawn layer by layer, in GruParams.init's order
        for p, n, m in zip(stack.layers, sizes, [3, 4, 5, 6]):
            ref = GruParams.init(prng, n, m, np.float64)
            for (_, t), (_, r) in zip(p.tensors(), ref.tensors()):
                assert np.array_equal(t.data, r.data)


def test_dense_stack_output_and_widths():
    stack = DenseGruStack.init(Prng(16), 2, [3, 4, 5], dense=True, dtype=np.float64)
    assert stack.layers[2].input_size == 7
    seq = Tensor(np.random.default_rng(16).normal(size=(2, 2, 6)))
    out = dense_gru_forward(stack, seq)
    assert out.shape == (2, 5, 6)


def test_chain_stack_matches_manual_composition():
    stack = DenseGruStack.init(Prng(17), 2, [3, 4], dense=False, dtype=np.float64)
    seq = Tensor(np.random.default_rng(17).normal(size=(2, 2, 5)))
    out = dense_gru_forward(stack, seq)
    manual = gru_layer_forward(stack.layers[1], gru_layer_forward(stack.layers[0], seq))
    assert np.allclose(out.data, manual.data)


def test_single_layer_stack_is_gru_layer():
    stack = DenseGruStack.init(Prng(18), 3, [4], dense=True, dtype=np.float64)
    seq = Tensor(np.random.default_rng(18).normal(size=(1, 3, 4)))
    assert np.allclose(dense_gru_forward(stack, seq).data,
                       gru_layer_forward(stack.layers[0], seq).data)


def test_zero_param_stack_outputs_zero_any_wiring():
    for dense in (False, True):
        widths = [3, 3, 6] if dense else [3, 3, 3]
        stack = DenseGruStack.init(Prng(20), 2, widths, dense, dtype=np.float64)
        for _, t in stack.tensors():
            t.data[:] = 0.0
        seq = Tensor(np.random.default_rng(20).normal(size=(2, 2, 4)))
        assert np.all(dense_gru_forward(stack, seq).data == 0.0)


def test_connection_count():
    assert connection_count(4, dense=True) == 10  # L(L+1)/2 with the input counted
    assert connection_count(3, dense=True) == 6
    assert connection_count(1, dense=True) == 1
    assert connection_count(4, dense=False) == 4
    for L in range(1, 8):
        assert connection_count(L, dense=True) == L * (L + 1) // 2


def test_linear_forward_identity_and_oracle():
    x = Tensor(np.random.default_rng(21).normal(size=(3, 4)))
    eye = Tensor(np.eye(4))
    zero = Tensor(np.zeros(4))
    assert np.allclose(linear_forward(eye, zero, x).data, x.data)

    w = Tensor(np.random.default_rng(22).normal(size=(2, 4)))
    b = Tensor(np.random.default_rng(23).normal(size=(2,)))
    out = linear_forward(w, b, x)
    expected = np.zeros((3, 2))
    for i in range(3):
        for o in range(2):
            expected[i, o] = b.data[o] + sum(x.data[i, j] * w.data[o, j] for j in range(4))
    assert np.allclose(out.data, expected)
    with pytest.raises(ShapeError):
        linear_forward(w, b, Tensor(np.zeros((3, 5))))


def test_last_time_step():
    seq = Tensor(np.random.default_rng(24).normal(size=(2, 3, 5)))
    out = last_time_step(seq)
    assert out.shape == (2, 3)
    assert np.array_equal(out.data, seq.data[:, :, -1])


def test_fused_gru_gradient_matches_composed_path():
    # same loss through the fused layer and through per-step composition
    p = GruParams.init(Prng(25), 2, 3, dtype=np.float64)
    seq_data = np.random.default_rng(25).normal(size=(2, 2, 4))

    seq_fused = Tensor(seq_data.copy(), requires_grad=True)
    with Graph() as g1:
        loss1 = tsum(gru_layer_forward(p, seq_fused))
    g1_map = backward(loss1, g1)

    seq_steps = Tensor(seq_data.copy(), requires_grad=True)
    with Graph() as g2:
        h = Tensor(np.zeros((2, 3)))
        total = None
        for t in range(4):
            x_t = reshape(slice_axis(seq_steps, 2, t, t + 1), (2, 2))
            h, _, _, _ = gru_step(p, x_t, h)
            total = tsum(h) if total is None else add(total, tsum(h))
        loss2 = total
    g2_map = backward(loss2, g2)

    assert np.allclose(g1_map[seq_fused], g2_map[seq_steps], atol=1e-10)
    for name, t in p.tensors():
        assert np.allclose(g1_map[t], g2_map[t], atol=1e-10), name
