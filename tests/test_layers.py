import tracemalloc
import warnings

import numpy as np
import pytest

from chrononet.errors import ConfigError, DataError, ShapeError
from chrononet.layers import (DenseGruStack, GruParams,
                              InceptionConvBlock, connection_count,
                              conv1d_output_length,
                              dense_gru_forward, glorot_uniform,
                              gru_layer_forward, gru_step,
                              inception_conv1d_forward, last_time_step,
                              linear_forward)
from chrononet.tensor import Graph, Prng, Tensor, backward, tsum


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


def test_param_bundle_validation():
    good = dict(GruParams.zeros(3, 4).tensors())
    for name, shape in (("W", (11, 3)), ("U", (12, 3)), ("b", (4,))):
        with pytest.raises(ConfigError):
            GruParams(**{**good, name: Tensor(np.zeros(shape))})
    with pytest.raises(ConfigError):
        InceptionConvBlock([Tensor(np.zeros((2, 3)))], [Tensor(np.zeros(2))], 1)
    with pytest.raises(ConfigError):
        InceptionConvBlock([Tensor(np.zeros((2, 3, 4)))], [Tensor(np.zeros(2))], 0)


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
    # under a graph the backward closure holds the (T, B, n) input copy, the
    # (T+1, m, B) hidden buffer and the (T, 3m, B) gate slab, nothing more
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
    assert kept < out.data.nbytes + seq.data.nbytes + states + 64 * 1024


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
    # the GRU's real input, a conv block's output, is a transposed view of
    # (B, T, C) memory: it gives the same bits as a C-contiguous (B, C, T)
    # array, and the input gradient comes back C-contiguous
    rng = np.random.default_rng(28)
    for dtype in (np.float64, np.float32):
        p = GruParams.init(Prng(28), 5, 4, dtype)
        values = rng.normal(size=(3, 5, 7)).astype(dtype)
        layouts = (values, np.ascontiguousarray(values.transpose(0, 2, 1)).transpose(0, 2, 1))
        gout = rng.normal(size=(3, 4, 7)).astype(dtype)
        runs = []
        for x in layouts:
            with Graph() as g:
                out = gru_layer_forward(p, Tensor(x, requires_grad=True))
            grads = g.nodes[0].backward_fn(gout)
            assert grads[0].flags.c_contiguous
            runs.append([out.data, *grads])
        for a, b in zip(*runs):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


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
    # gradient comes back C-contiguous: a transposed view would reorder the
    # bias sum of the block below
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
                assert grads[0].flags.c_contiguous
                runs.append([out.data, *grads])
            for a, b in zip(*runs):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


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


def test_inception_rejects_mismatched_branches():
    a = InceptionConvBlock.init(Prng(15), 2, 3, (2,), 1)
    b = InceptionConvBlock.init(Prng(15), 3, 3, (4,), 1)
    with pytest.raises(ConfigError, match="in_channels"):
        InceptionConvBlock(a.kernels + b.kernels, a.biases + b.biases, 1)
    with pytest.raises(ConfigError, match="2 kernels but 1 biases"):
        InceptionConvBlock(a.kernels * 2, a.biases, 1)
    with pytest.raises(ConfigError, match="1 kernels but 2 biases"):
        InceptionConvBlock(a.kernels, a.biases * 2, 1)


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
                    ref_out, ref_dx, ref_grads = per_branch_conv(block, x, gout)
                    for req in (False, True):
                        with Graph() as g:
                            out = inception_conv1d_forward(block, Tensor(x, requires_grad=req))
                        dx, *grads = g.nodes[0].backward_fn(gout)
                        case = (dtype, kernels, stride, length, req)
                        assert out.data.dtype == dtype and out.shape == ref_out.shape, case
                        assert np.ascontiguousarray(out.data).tobytes() == ref_out.tobytes(), case
                        assert (dx is None) == (not req), case
                        if req:
                            assert dx.tobytes() == np.ascontiguousarray(ref_dx).tobytes(), case
                        for a, r in zip(grads, ref_grads, strict=True):
                            assert a.dtype == dtype and a.shape == r.shape, case
                            assert a.tobytes() == np.ascontiguousarray(r).tobytes(), case


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


def test_stack_rejects_bad_wiring():
    prng = Prng(19)
    with pytest.raises(ConfigError):
        DenseGruStack([GruParams.init(prng, 2, 3), GruParams.init(prng, 5, 3)], dense=False)
    with pytest.raises(ConfigError):
        DenseGruStack([], dense=True)


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
            from chrononet.tensor import slice_axis, reshape
            x_t = reshape(slice_axis(seq_steps, 2, t, t + 1), (2, 2))
            h, _, _, _ = gru_step(p, x_t, h)
            total = tsum(h) if total is None else __import__(
                "chrononet.tensor", fromlist=["add"]).add(total, tsum(h))
        loss2 = total
    g2_map = backward(loss2, g2)

    assert np.allclose(g1_map[seq_fused], g2_map[seq_steps], atol=1e-10)
    for name, t in p.tensors():
        assert np.allclose(g1_map[t], g2_map[t], atol=1e-10), name
