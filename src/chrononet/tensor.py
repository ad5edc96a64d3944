"""Dense tensors with taped reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy float array (float32 for training, float64
for gradient checking) in the layout of the op that made it: a conv block's
(B, F, T) output is a transposed view of the first T rows per element of a
(B, T', F) buffer, and a GRU layer's (B, m, T) output and input gradient are
transposed views of (T, k, B) arrays.  :func:`concat` keeps its first
input's memory order, so the concat of GRU outputs is one too.  While a :class:`Graph` is active, every operation appends
one node to it; :func:`backward` replays the tape in reverse insertion order,
which is a valid topological order by construction.

Broadcasting is one-sided and by suffix only: the right operand of a binary
op must have the shape of the left operand's trailing axes (a bias row onto a
batch), and is repeated over its leading axes. No size-1 axis is stretched.
"""

import numpy as np

from .errors import ContractError, ShapeError

FLOAT_DTYPES = (np.float32, np.float64)

_graph_stack: list["Graph"] = []


class Tensor:
    """Dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Node:
    """One taped operation: how its output was made and how to undo it."""

    __slots__ = ("tag", "inputs", "out", "backward_fn")

    def __init__(self, tag, inputs, out, backward_fn):
        self.tag = tag
        self.inputs = inputs
        self.out = out
        self.backward_fn = backward_fn


class Graph:
    """Append-only operation tape; insertion order is topological order."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _graph_stack.append(self)
        return self

    def __exit__(self, *exc):
        popped = _graph_stack.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self.nodes)


def _active_graph() -> Graph | None:
    return _graph_stack[-1] if _graph_stack else None


def make_op(tag: str, inputs: tuple, out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op result as a Tensor, recording it when a graph is active.

    ``backward_fn(grad_out)`` must return one gradient array (or None) per
    input, in order.  Recording only happens when some input requires grad,
    so inference runs tape-free.
    """
    graph = _active_graph()
    track = graph is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        graph.nodes.append(Node(tag, inputs, out, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the leading axes a suffix-shaped operand was repeated on."""
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra))) if extra else grad


def _check_broadcast(a: Tensor, b: Tensor, tag: str) -> None:
    if b.data.ndim > a.data.ndim or a.shape[a.data.ndim - b.data.ndim:] != b.shape:
        raise ShapeError(
            f"{tag}: right operand {b.shape} is not the trailing shape of left operand {a.shape}"
        )


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def bwd(g):
        return g, _unbroadcast(g, b.shape)

    return make_op("add", (a, b), a.data + b.data, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")

    def bwd(g):
        return g, -_unbroadcast(g, b.shape)

    return make_op("sub", (a, b), a.data - b.data, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")

    def bwd(g):
        return g * b.data, _unbroadcast(g * a.data, b.shape)

    return make_op("mul", (a, b), a.data * b.data, bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; it is exp(-x) for x >= 0 and exp(x) below.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return make_op("sigmoid", (a,), y, bwd)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return make_op("tanh", (a,), y, bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product ``a @ b.T``."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}.T")

    def bwd(g):
        return g @ b.data, g.T @ a.data

    return make_op("matmul", (a, b), a.data @ b.data.T, bwd)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Join tensors along ``axis``; all other extents must match.  The
    output has the first input's memory order."""
    if not tensors:
        raise ContractError("concat of zero tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if len(t.shape) != len(ref) or any(
            t.shape[i] != ref[i] for i in range(len(ref)) if i != axis
        ):
            raise ShapeError(f"concat axis={axis}: off-axis shapes differ: {ref} vs {t.shape}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]
    datas = [t.data for t in tensors]
    shape = list(ref)
    shape[axis] = sum(sizes)
    # in the first input's memory order: GRU outputs join into (T, k, B) memory
    out_data = np.empty_like(datas[0], dtype=np.result_type(*datas), shape=shape)
    np.concatenate(datas, axis=axis, out=out_data)

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return make_op("concat", tuple(tensors), out_data, bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice ``[start:stop)`` along one axis."""
    key = [slice(None)] * a.data.ndim
    key[axis] = slice(start, stop)
    key = tuple(key)
    out_data = a.data[key].copy()

    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return make_op("slice", (a,), out_data, bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return make_op("reshape", (a,), out_data, bwd)


def tsum(a: Tensor) -> Tensor:
    """Sum every element down to a scalar tensor."""
    out_data = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bwd(g):
        return (np.full(a.shape, g, dtype=a.data.dtype),)

    return make_op("sum", (a,), out_data, bwd)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor, graph: Graph) -> dict[Tensor, np.ndarray]:
    """Propagate d(loss)/d(tensor) through the tape.

    Returns the gradient map for every requires_grad tensor reachable from
    ``loss``.  Fan-out sums: a tensor consumed by several nodes receives the
    sum of its branch gradients.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for node in reversed(graph.nodes):
        g_out = grads.get(node.out)
        if g_out is None:
            continue
        in_grads = node.backward_fn(g_out)
        for t, g in zip(node.inputs, in_grads):
            if g is None:
                continue
            grads[t] = grads[t] + g if t in grads else g
    return {t: g for t, g in grads.items() if t.requires_grad}


# ---------------------------------------------------------------------------
# seeded randomness


class Prng:
    """Deterministic random stream used for every draw in the package.

    Backed by numpy's PCG64 bit generator, whose value stream for a fixed
    seed is stable across platforms and numpy releases.  Derived streams
    (fold workers, repeat runs) come from :meth:`derive`, which mixes the
    child index into the seed with a splitmix-style odd constant.
    """

    _MIX = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, index: int) -> int:
        """Seed for the index-th child stream; feed it to a fresh Prng."""
        return (self.seed + (index + 1) * self._MIX) & 0xFFFFFFFFFFFFFFFF

    def uniform(self, low: float, high: float, shape, dtype=np.float64) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(dtype)

    def normal(self, loc: float, scale: float, shape, dtype=np.float64) -> np.ndarray:
        return self._gen.normal(loc, scale, size=shape).astype(dtype)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
