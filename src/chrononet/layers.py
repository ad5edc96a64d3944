"""Network building blocks: GRU cells, strided 1-D convolution, inception
blocks with several kernel lengths, densely wired GRU stacks, linear readout.

Sequence tensors are laid out (batch, channels, time).  Weight matrices are
(hidden, input) so a batched step computes ``x @ W.T``.  The GRU cell:

    z = sigmoid(W_z x + U_z h_prev + b_z)
    r = sigmoid(W_r x + U_r h_prev + b_r)
    h~ = tanh(W_h x + U_h (r * h_prev) + b_h)
    h  = (1 - z) * h_prev + z * h~

A layer stores its parameters in the layout of the gate slab below: ``W``
(3m, n) stacks W_z, W_r, W_h along the first axis, and ``U`` (3m, m) and
``b`` (3m,) stack theirs in the same z | r | h~ order.

``gru_step`` composes these from taped primitives; ``gru_layer_forward`` runs
the whole sequence as one fused tape node with a hand-written
backpropagation-through-time rule (checked against finite differences and
against the step-composed path in the tests).  The node works in (T, k, B)
memory: the gate slab ``A`` (T, 3m, B), its rows laid out z | r | h~ like
the parameters, and the hidden buffer ``H`` (T+1, m, B) with ``H[0] = 0``,
so ``H[:-1]`` holds each step's previous state.  Each step's gate blocks and
state are then contiguous rows, and every per-step op runs in place on them.
The (B, m, T) output is a transposed view of ``H[1:]``, and the input is
read as its (T, n, B) transpose: in place when it is another layer's output
or a ``concat`` of them, copied when it is a conv block's output.  For its
backward pass the node keeps that input, ``A`` and ``H``.  Its input
gradient is a transposed view of a (T, n, B) array.

A conv block, plain or inception, owns one kernel and one bias per branch
and a single stride.  It runs as one tape node tagged ``conv1d`` that pads
its input once, along time in channel-last memory, and runs each branch as a
few GEMMs on overlapping row views of the padded rows, building no window
columns (Cho & Brand 2017, MEC).  Each branch writes its pre-activation plus
bias into its columns of one channel-last block buffer, and a ReLU runs over
it; the (B, F, T_out) output is a view of it.  The buffer is filled in row
tiles of ``CONV_TILE_ROWS`` to ``2 * CONV_TILE_ROWS`` rows, each run through
GEMMs, bias and ReLU while it is in cache, through one contiguous scratch
allocated once per call.  No tile is shorter than that unless the buffer is:
a short product can take another BLAS path, with other bits.  For
backward the node keeps the padded rows, the kernels in (tap, channel)
column order and the block buffer with its straddle rows, whose sign gates
the ReLU: one gradient buffer is filled and masked, and one column sum gives
every branch's bias gradient.  The input gradient is a transposed view of
the padded gradient rows; the block below copies it into its own buffer.

Each parameter bundle has an ``init`` that draws Glorot weights in a fixed
order and zero biases; ``DenseGruStack`` alone owns the wiring rule.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import (
    Prng,
    Tensor,
    add,
    concat,
    make_op,
    matmul,
    mul,
    reshape,
    sigmoid,
    slice_axis,
    sub,
    tanh,
)

# Rows per tile of a conv block's forward: one tile's buffer rows and
# scratch stay in L2 from the GEMMs through bias and ReLU.
CONV_TILE_ROWS = 2048


def glorot_uniform(prng: Prng, shape, fan_in: int, fan_out: int, dtype=np.float32) -> np.ndarray:
    """Uniform draw in +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return prng.uniform(-bound, bound, shape, dtype=dtype)


# ---------------------------------------------------------------------------
# parameter bundles


@dataclass
class GruParams:
    """One GRU layer's learnable arrays, the gates stacked z | r | h~ along
    the first axis as in the gate slab: W (3m, n), U (3m, m) and b (3m,)."""

    W: Tensor
    U: Tensor
    b: Tensor

    def __post_init__(self):
        if self.W.data.ndim != 2 or self.W.shape[0] % 3:
            raise ConfigError(f"gru input matrix must be (3m, n), got {self.W.shape}")
        m = self.hidden_size
        if self.U.shape != (3 * m, m):
            raise ConfigError(f"gru recurrent matrix must be {(3 * m, m)}, got {self.U.shape}")
        if self.b.shape != (3 * m,):
            raise ConfigError(f"gru bias must have length {3 * m}, got {self.b.shape}")

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // 3

    @property
    def input_size(self) -> int:
        return self.W.shape[1]

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("W", self.W), ("U", self.U), ("b", self.b)]

    @classmethod
    def init(cls, prng: Prng, input_size: int, hidden_size: int, dtype=np.float32) -> "GruParams":
        # Draw order is part of the determinism contract: W, then U.  One
        # (3m, k) draw gives the values of three per-gate (m, k) draws.
        n, m = input_size, hidden_size
        return cls(Tensor(glorot_uniform(prng, (3 * m, n), n, m, dtype), requires_grad=True),
                   Tensor(glorot_uniform(prng, (3 * m, m), m, m, dtype), requires_grad=True),
                   Tensor(np.zeros(3 * m, dtype=dtype), requires_grad=True))

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int, dtype=np.float64) -> "GruParams":
        def z(shape):
            return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

        m = hidden_size
        return cls(z((3 * m, input_size)), z((3 * m, m)), z(3 * m))


@dataclass
class InceptionConvBlock:
    """Parallel strided convolutions over the same input, concatenated on
    channels: branch j holds kernels[j] (out_ch, in_ch, k_j) and biases[j].
    A plain block is the one-branch case; every branch shares one stride."""

    kernels: list[Tensor]
    biases: list[Tensor]
    stride: int

    def __post_init__(self):
        if not self.kernels:
            raise ConfigError("inception block needs at least one branch")
        if len(self.biases) != len(self.kernels):
            raise ConfigError(f"{len(self.kernels)} kernels but {len(self.biases)} biases")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        for w, b in zip(self.kernels, self.biases):
            if w.data.ndim != 3:
                raise ConfigError(f"conv kernels must be 3-axis, got shape {w.shape}")
            out_ch, in_ch, k = w.shape
            if b.shape != (out_ch,):
                raise ConfigError(f"conv bias must have length {out_ch}, got {b.shape}")
            if k < 1:
                raise ConfigError(f"kernel length must be >= 1, got {k}")
            if in_ch != self.in_channels:
                raise ConfigError(
                    f"inception branches must share in_channels: {self.in_channels} vs {in_ch}")

    @property
    def in_channels(self) -> int:
        return self.kernels[0].shape[1]

    @property
    def out_channels(self) -> int:
        return sum(w.shape[0] for w in self.kernels)

    def tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for j, (w, b) in enumerate(zip(self.kernels, self.biases)):
            out.extend(((f"branch{j}.kernels", w), (f"branch{j}.bias", b)))
        return out

    @classmethod
    def init(cls, prng: Prng, in_channels: int, filters: int, kernel_lengths,
             stride: int, dtype=np.float32) -> "InceptionConvBlock":
        # Draw order is part of the determinism contract: kernels in branch order.
        kernels = [Tensor(glorot_uniform(prng, (filters, in_channels, k), in_channels * k,
                                         filters * k, dtype), requires_grad=True)
                   for k in kernel_lengths]
        biases = [Tensor(np.zeros(filters, dtype=dtype), requires_grad=True)
                  for _ in kernel_lengths]
        return cls(kernels, biases, stride)


@dataclass
class DenseGruStack:
    """Ordered GRU layers, optionally with dense feed-forward wiring.

    Dense wiring feeds layer k (k >= 2) the channel-wise concatenation of
    the hidden sequences of layers 1..k-1; the stack's external input feeds
    layer 1 only.  Plain wiring chains each layer to its predecessor.
    """

    layers: list[GruParams]
    dense: bool = False

    @staticmethod
    def _input_widths(input_size: int, widths, dense: bool) -> list[int]:
        """The input width the wiring gives each layer of the given widths."""
        return [input_size] + [sum(widths[:k]) if dense else widths[k - 1]
                               for k in range(1, len(widths))]

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("gru stack needs at least one layer")
        expected = self._input_widths(self.layers[0].input_size,
                                      [p.hidden_size for p in self.layers], self.dense)
        for k, (p, n) in enumerate(zip(self.layers, expected)):
            if p.input_size != n:
                raise ConfigError(
                    f"gru layer {k} declares input width {p.input_size}, wiring provides {n}")

    def tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for k, p in enumerate(self.layers):
            out.extend((f"gru{k}.{name}", t) for name, t in p.tensors())
        return out

    @classmethod
    def init(cls, prng: Prng, input_size: int, widths, dense: bool,
             dtype=np.float32) -> "DenseGruStack":
        # Draws layer by layer, each in GruParams.init's order.
        sizes = cls._input_widths(input_size, widths, dense)
        return cls([GruParams.init(prng, n, m, dtype) for n, m in zip(sizes, widths)], dense)


def connection_count(num_layers: int, dense: bool) -> int:
    """Direct feed-forward links in the wiring diagram, the external input
    counted as a source node.

    Enumerates (source, layer) pairs over the node chain [input, layer 1, ...,
    layer L]: dense wiring links every source to every later node, giving
    L(L+1)/2; chain wiring links each node to its successor, giving L.
    """
    nodes = num_layers + 1
    if dense:
        return sum(range(1, nodes)) # == C(nodes, 2)
    return num_layers


# ---------------------------------------------------------------------------
# recurrent steps (tape-composed)


def _gate_affine(p: GruParams, gate: int, x: Tensor, h: Tensor) -> Tensor:
    """W_g x + U_g h + b_g for gate 0 (z), 1 (r) or 2 (h~), each array's
    rows of that gate sliced on the tape."""
    lo, hi = gate * p.hidden_size, (gate + 1) * p.hidden_size
    W, U, b = (slice_axis(t, 0, lo, hi) for t in (p.W, p.U, p.b))
    return add(add(matmul(x, W, transpose_b=True), matmul(h, U, transpose_b=True)), b)


def gru_step(p: GruParams, x: Tensor, h_prev: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """One GRU update; returns (h, z, r, h_candidate) so gates are testable."""
    z = sigmoid(_gate_affine(p, 0, x, h_prev))
    r = sigmoid(_gate_affine(p, 1, x, h_prev))
    h_cand = tanh(_gate_affine(p, 2, x, mul(r, h_prev)))
    one = Tensor(np.ones_like(z.data))
    h = add(mul(sub(one, z), h_prev), mul(z, h_cand))
    return h, z, r, h_cand


# ---------------------------------------------------------------------------
# fused sequence ops


def _gru_bptt(A: np.ndarray, H: np.ndarray, U: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backpropagation through time over one GRU layer's gates ``A``
    (T, 3m, B) and states ``H`` (T+1, m, B), given the output gradient ``g``
    (B, m, T); returns the pre-activation gradient (T, 3m, B).  Its other
    whole-sequence arrays are freed on return, before the weight GEMMs."""
    m = H.shape[1]
    U_zr_t, U_h_t = np.ascontiguousarray(U[:2 * m].T), np.ascontiguousarray(U[2 * m:].T)
    Z, R, C, Hp = A[:, :m], A[:, m:2 * m], A[:, 2 * m:], H[:-1]
    # dA first holds the factors that do not depend on the carry:
    # (h~ - h) z (1 - z), h r (1 - r) and z (1 - h~^2)
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
    dH = g.transpose(2, 1, 0).copy()       # (T, m, B); a copy, as the loop writes to it
    carry, drh = np.zeros_like(H[0]), np.empty_like(H[0])
    # call forms as in the forward loop
    dot_h, dot_zr, add, multiply = U_h_t.dot, U_zr_t.dot, np.add, np.multiply
    for dz, dr, dzr, dc, dh, omz, r in zip(dZ[::-1], dR[::-1], dA[::-1, :2 * m], dC[::-1],
                                           dH[::-1], one_minus_z[::-1], R[::-1]):
        add(dh, carry, dh)
        multiply(dc, dh, dc)
        dot_h(dc, drh)
        multiply(dr, drh, dr)
        multiply(dz, dh, dz)
        dot_zr(dzr, carry)                            # U_zr' dzr + dh (1 - z) + drh r
        multiply(dh, omz, dh)
        add(carry, dh, carry)
        multiply(drh, r, drh)
        add(carry, drh, carry)
    return dA


def gru_layer_forward(p: GruParams, seq: Tensor) -> Tensor:
    """Run a GRU over (batch, channels, time); returns the full hidden
    sequence (batch, hidden, time) starting from h_0 = 0.

    One fused tape node: the forward loop stores gate activations and the
    backward rule replays them in reverse (full backpropagation through
    time, no truncation).  The kernel works in (T, k, B) memory.  The input
    is read as its (T, n, B) transpose, copied only when that is not
    contiguous: another layer's output, or a ``concat`` of such outputs, is
    read in place.  The output is a transposed view of the hidden buffer,
    and the input gradient one of a (T, n, B) array.
    """
    if seq.data.ndim != 3:
        raise ShapeError(f"gru input must be (batch, channels, time), got {seq.shape}")
    batch, in_ch, steps = seq.shape
    if steps == 0:
        raise DataError("gru_layer_forward: empty sequence (time extent 0)")
    if in_ch != p.input_size:
        raise ShapeError(f"gru expects {p.input_size} input channels, got {in_ch}")
    m = p.hidden_size
    W, U = p.W.data, p.U.data
    dtype = np.result_type(seq.data, W, U, p.b.data)   # the in-place ops write in this type

    xt = np.ascontiguousarray(seq.data.transpose(2, 1, 0))                 # (T, n, B)
    flat = steps * batch
    # Pre-activations plus bias, then gates, hidden-major so that a step's
    # gate blocks are contiguous rows.  Until its step the z | r rows hold
    # -(W x + b), made from negated z | r rows of W and b, and the recurrent
    # term adds -U h: negation is exact, so the sigmoid 1 / (1 + exp(-a))
    # starts at exp.
    neg_W, neg_b = W.astype(dtype), p.b.data.astype(dtype)
    neg_W[:2 * m] *= -1
    neg_b[:2 * m] *= -1
    A = np.matmul(neg_W, xt)                                               # (T, 3m, B)
    A += neg_b[:, None]
    H = np.zeros((steps + 1, m, batch), dtype)
    neg_U_zr, U_h = -U[:2 * m], U[2 * m:]
    zr_u, h_u, rh = (np.empty((k, batch), dtype) for k in (2 * m, m, m))
    one = np.ones((), dtype)   # a 0-d operand dispatches faster than a Python float
    # The step is bound by call overhead on small blocks.  The cheapest call
    # forms, with the same ops: ufuncs through local names with a positional
    # out, products through bound ``ndarray.dot``, which skips np.dot's
    # dispatch layer.
    dot_zr, dot_h = neg_U_zr.dot, U_h.dot
    add, multiply, subtract = np.add, np.multiply, np.subtract
    exp, reciprocal, tanh_ = np.exp, np.reciprocal, np.tanh
    # exp overflows to inf for a pre-activation below about -88 (f32); that
    # gives 0, the exact limit
    with np.errstate(over="ignore"):
        for z, r, zr, cand, h, h_next in zip(A[:, :m], A[:, m:2 * m], A[:, :2 * m],
                                             A[:, 2 * m:], H, H[1:]):
            add(zr, dot_zr(h, zr_u), zr)
            exp(zr, zr)
            add(zr, one, zr)
            reciprocal(zr, zr)
            multiply(r, h, rh)
            add(cand, dot_h(rh, h_u), cand)
            tanh_(cand, cand)
            subtract(cand, h, h_next)                       # h + z (h~ - h)
            multiply(h_next, z, h_next)
            add(h_next, h, h_next)

    def bwd(g):
        dA = _gru_bptt(A, H, U, g)                                         # (T, 3m, B)
        dseq = np.matmul(W.T, dA).transpose(2, 1, 0)                       # (B, n, T) view
        # row-major (T*B, k) copies for the weight GEMMs
        dA2 = np.ascontiguousarray(dA.transpose(0, 2, 1)).reshape(flat, 3 * m)
        del dA
        x2 = np.ascontiguousarray(xt.transpose(0, 2, 1)).reshape(flat, in_ch)
        hp2 = np.ascontiguousarray(H[:-1].transpose(0, 2, 1)).reshape(flat, m)
        rh2 = np.empty((flat, m), dtype)
        np.multiply(A[:, m:2 * m].transpose(0, 2, 1), hp2.reshape(steps, batch, m),
                    out=rh2.reshape(steps, batch, m))
        # One GEMM per gate: a fused (3m, n) product sums in another order.
        dz2, dr2, dh2 = dA2[:, :m], dA2[:, m:2 * m], dA2[:, 2 * m:]
        dW = np.concatenate([dz2.T @ x2, dr2.T @ x2, dh2.T @ x2])
        dU = np.concatenate([dz2.T @ hp2, dr2.T @ hp2, dh2.T @ rh2])
        return dseq, dW, dU, dA2.sum(axis=0)

    return make_op("gru_layer", (seq, p.W, p.U, p.b), H[1:].transpose(2, 1, 0), bwd)


def conv1d_output_length(length: int, stride: int) -> int:
    """Output time extent under "same" padding: ceil(length / stride)."""
    return -(-length // stride)


def inception_conv1d_forward(block: InceptionConvBlock, seq: Tensor) -> Tensor:
    """Strided cross-correlation of every branch with "same" zero padding,
    bias, then ReLU; the branches fill consecutive output channels.

    A kernel of length k pads floor((k-1)/2) on the left and ceil((k-1)/2) on
    the right, so the output length is ceil(T / stride) for every k.  The
    input is padded once, for the longest kernel K, and a branch of length k
    reads its windows at offset (K-1)//2 - (k-1)//2.

    No window columns are built.  Every batch element's padded rows sit back
    to back in one channel-last buffer, each rounded up to a whole number of
    strides, followed by spare zero rows.  Viewed as rows of stride*C values
    from the branch's phase ``off % stride``, taps [u*s, u*s + s) of every
    window form one row, and window t of element b starts in row
    b*rows_per + off//s + t.  So a branch is ceil(k/s) GEMMs on contiguous
    row blocks, summed.  Each branch adds its bias into its columns of one
    (B*rows_per, F) buffer, and a ReLU runs over the buffer.  The rows that
    straddle two elements are computed and kept there, out of the
    (B, F, T_out) view that is the output.

    The buffer's n rows are filled in max(1, n // CONV_TILE_ROWS) tiles of
    near-equal size.  Per tile, each branch runs its GEMMs on the tile's rows
    into a contiguous scratch, sums them in chunk order and adds its bias
    into its columns of the tile; one ReLU then runs over the tile while it
    is still in L2.  The scratch pair, tile by widest branch, is allocated
    once per call.  So every tile holds at least min(n, CONV_TILE_ROWS)
    rows: a row's bits follow the BLAS path of its product, and a short
    product takes another one, gemv for 1 row, and on AVX-512 OpenBLAS's
    small-matrix kernels up to about 1200 outputs.  The bits are then those
    of one GEMM over all n rows.

    Under a graph the node keeps the padded rows and that buffer.  Its
    backward fills one (B, rows_per, F) gradient from the output gradient,
    masks it once with the buffer's sign, takes every bias gradient from one
    column sum, and runs each branch's kernel and input-gradient GEMMs on
    that branch's columns.
    """
    if seq.data.ndim != 3:
        raise ShapeError(f"conv input must be (batch, channels, time), got {seq.shape}")
    batch, in_ch, length = seq.shape
    if length == 0:
        raise DataError("inception_conv1d_forward: empty sequence (time extent 0)")
    if in_ch != block.in_channels:
        raise ShapeError(f"conv expects {block.in_channels} input channels, got {in_ch}")
    s, K = block.stride, max(w.shape[2] for w in block.kernels)
    pad_left = (K - 1) // 2
    t_out = conv1d_output_length(length, s)
    rows_per = conv1d_output_length(length + K - 1, s)   # rows of s taps per element
    n = batch * rows_per                                  # rows each GEMM computes
    # per branch: kernels, first output channel, tap offset, and the kernel
    # as (F, k*C) in (tap, channel) columns
    branches, lo, spare = [], 0, 0
    for w in block.kernels:
        out_ch, _, k = w.shape
        off = pad_left - (k - 1) // 2
        branches.append((w, lo, off, w.data.transpose(0, 2, 1).reshape(out_ch, k * in_ch)))
        lo += out_ch
        spare = max(spare, off + (k - 1) // s * s)   # taps the last row block reads past
    # channel-last; the transpose is free for a conv block's output, which
    # is (B, T, F) rows of its block buffer in memory
    padded = np.zeros((batch * rows_per * s + spare, in_ch), seq.dtype)
    padded[:batch * rows_per * s].reshape(batch, rows_per * s, in_ch)[
        :, pad_left:pad_left + length] = seq.data.transpose(0, 2, 1)

    def chunks(buf, off, k):
        """(row block, c0, c1) for each of the ceil(k/s) GEMMs of a branch:
        a view into ``buf`` and the kernel's columns [c0, c1)."""
        flat = buf.reshape(-1)
        r0, phase, nu = off // s, off % s, -(-k // s)
        rows = flat[phase * in_ch:(phase + (r0 + nu - 1 + n) * s) * in_ch].reshape(-1, s * in_ch)
        for u in range(nu):
            c0, c1 = u * s * in_ch, min(u * s + s, k) * in_ch
            yield rows[r0 + u:r0 + u + n, :c1 - c0], c0, c1

    # every branch's pre-activation plus bias in its columns of one
    # channel-last buffer, straddle rows included, then ReLU, a row tile at
    # a time; no tile is shorter than min(n, CONV_TILE_ROWS) rows
    F = block.out_channels
    act = np.empty((n, F), seq.dtype)
    tiles = max(1, n // CONV_TILE_ROWS)
    edges = [n * i // tiles for i in range(tiles + 1)]
    products = []   # per branch: first channel, width, bias, (row block, kernel columns)s
    for (w, lo, off, wt), b in zip(branches, block.biases):
        out_ch, _, k = w.shape
        products.append((lo, out_ch, b.data,
                         [(v, wt[:, c0:c1].T) for v, c0, c1 in chunks(padded, off, k)]))
    # one contiguous scratch pair per call; a branch's tile is a prefix of it
    size = -(-n // tiles) * max(w.shape[0] for w in block.kernels)
    dtype = np.result_type(padded, *(wt for *_, wt in branches))
    pre_buf, tmp_buf = np.empty(size, dtype), np.empty(size, dtype)
    for r0, r1 in zip(edges, edges[1:]):
        tile = act[r0:r1]
        for lo, out_ch, b, gemms in products:
            pre = pre_buf[:(r1 - r0) * out_ch].reshape(r1 - r0, out_ch)
            tmp = tmp_buf[:(r1 - r0) * out_ch].reshape(r1 - r0, out_ch)
            np.matmul(gemms[0][0][r0:r1], gemms[0][1], out=pre)
            for v, wc in gemms[1:]:
                np.matmul(v[r0:r1], wc, out=tmp)
                pre += tmp
            np.add(pre, b, out=tile[:, lo:lo + out_ch])
        np.maximum(tile, 0.0, out=tile)
    out_data = act.reshape(batch, rows_per, F)[:, :t_out].transpose(0, 2, 1)

    def bwd(g):
        # the output gradient times the ReLU's 0/1 derivative, on the rows
        # of the GEMMs: zero on the straddle rows, so they add nothing.  A
        # multiply, because numpy's masked copy and np.where ran about 4x
        # slower here; a non-finite gradient at an inactive unit therefore
        # stays non-finite.
        g2 = np.zeros((batch, rows_per, F), seq.dtype)
        g2[:, :t_out] = g.transpose(0, 2, 1)
        g2 *= act.reshape(batch, rows_per, F) > 0
        g2 = g2.reshape(n, F)
        db = g2.sum(axis=0)
        grads, dpad = [], None
        if seq.requires_grad:   # false for conv0, whose input is the data
            dpad = np.zeros_like(padded)
        for w, lo, off, wt in branches:
            out_ch, _, k = w.shape
            gb = g2[:, lo:lo + out_ch]
            dwt = np.empty_like(wt)
            for v, c0, c1 in chunks(padded, off, k):
                np.matmul(gb.T, v, out=dwt[:, c0:c1])
            if dpad is not None:
                for dv, c0, c1 in chunks(dpad, off, k):
                    dv += gb @ wt[:, c0:c1]
            grads += [np.ascontiguousarray(dwt.reshape(out_ch, k, in_ch).transpose(0, 2, 1)),
                      db[lo:lo + out_ch]]
        dseq = None
        if dpad is not None:
            d = dpad[:batch * rows_per * s].reshape(batch, rows_per * s, in_ch)
            # a view; the block below copies it into its own gradient buffer
            dseq = d[:, pad_left:pad_left + length].transpose(0, 2, 1)
        return (dseq, *grads)

    return make_op("conv1d", (seq, *(t for _, t in block.tensors())), out_data, bwd)


def dense_gru_forward(stack: DenseGruStack, seq: Tensor) -> Tensor:
    """Run the GRU stack; returns the last layer's hidden sequence."""
    hidden: list[Tensor] = []
    for k, p in enumerate(stack.layers):
        if k == 0:
            inp = seq
        elif stack.dense:
            inp = concat(hidden, axis=1) if len(hidden) > 1 else hidden[0]
        else:
            inp = hidden[-1]
        hidden.append(gru_layer_forward(p, inp))
    return hidden[-1]


def linear_forward(W: Tensor, b: Tensor, x: Tensor) -> Tensor:
    """Affine map x @ W.T + b for x of shape (batch, in_features)."""
    if x.data.ndim != 2 or x.shape[1] != W.shape[1]:
        raise ShapeError(f"linear expects (batch, {W.shape[1]}) input, got {x.shape}")
    out_data = x.data @ W.data.T + b.data

    def bwd(g):
        return g @ W.data, g.T @ x.data, g.sum(axis=0)

    return make_op("linear", (x, W, b), out_data, bwd)


def last_time_step(seq: Tensor) -> Tensor:
    """Slice the final time index from (batch, channels, time)."""
    batch, ch, length = seq.shape
    tail = slice_axis(seq, 2, length - 1, length)
    return reshape(tail, (batch, ch))
