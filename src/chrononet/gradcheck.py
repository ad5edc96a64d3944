"""Finite-difference verification of every backward pass.

Each block builds a tiny 64-bit problem, reduces the output to a scalar via
a fixed random projection (so every output element influences the loss),
and compares analytic gradients against central differences.
"""

from dataclasses import dataclass

import numpy as np

from . import layers as L
from .architectures import ConvBlockSpec, ModelConfig, build, forward
from .tensor import Graph, Prng, Tensor, backward, mul, tsum
from .training import softmax_cross_entropy

DEFAULT_TOL = 1e-4
STEP = 1e-5


def finite_diff(loss_fn, tensor: Tensor) -> np.ndarray:
    """Central-difference gradient of loss_fn with respect to one tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + STEP
        plus = loss_fn().item()
        flat[i] = saved - STEP
        minus = loss_fn().item()
        flat[i] = saved
        out[i] = (plus - minus) / (2 * STEP)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float((np.abs(analytic - numeric) / scale).max())


@dataclass
class BlockResult:
    name: str
    max_error: float
    worst_param: str
    tolerance: float = DEFAULT_TOL

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def check_block(name: str, loss_fn, named_tensors, tol: float = DEFAULT_TOL) -> BlockResult:
    with Graph() as g:
        loss = loss_fn()
    analytic = backward(loss, g)
    worst_err = 0.0
    worst_name = "-"
    for pname, tensor in named_tensors:
        numeric = finite_diff(loss_fn, tensor)
        a = analytic.get(tensor)
        if a is None:
            a = np.zeros_like(tensor.data)
        err = max_rel_error(a, numeric)
        if err > worst_err:
            worst_err, worst_name = err, pname
    return BlockResult(name, worst_err, worst_name, tol)


def _projection(prng: Prng, loss_fn_raw):
    """A scalar loss: the raw output projected on a frozen random tensor of its shape."""
    shape = loss_fn_raw().shape
    r = Tensor(prng.normal(0.0, 1.0, shape))
    return lambda: tsum(mul(loss_fn_raw(), r))


def _block_linear(prng: Prng):
    w = Tensor(prng.normal(0.0, 1.0, (3, 5)), requires_grad=True)
    b = Tensor(prng.normal(0.0, 1.0, (3,)), requires_grad=True)
    x = Tensor(prng.normal(0.0, 1.0, (2, 5)), requires_grad=True)
    loss_fn = _projection(prng, lambda: L.linear_forward(w, b, x))
    return loss_fn, [("W", w), ("b", b), ("x", x)]


def _sequence_block(init, op: str, channels: int, length: int):
    """A block builder for the ``layers`` function named ``op``, applied to
    ``init(prng)``'s parameters and a (2, channels, length) sequence. The
    function is looked up when the loss runs, so a patched one is checked."""
    def make(prng: Prng):
        params = init(prng)
        seq = Tensor(prng.normal(0.0, 1.0, (2, channels, length)), requires_grad=True)
        loss_fn = _projection(prng, lambda: getattr(L, op)(params, seq))
        return loss_fn, params.tensors() + [("seq", seq)]
    return make


def _block_end_to_end(prng: Prng):
    config = ModelConfig(
        architecture="chrononet",
        input_channels=2,
        conv_blocks=[ConvBlockSpec((2, 4, 8), 2, 2), ConvBlockSpec((2, 4, 8), 2, 2)],
        gru_widths=[3, 3, 3],
        num_classes=2,
        precision="f64",
    )
    model = build(config, prng)
    x = Tensor(prng.normal(0.0, 1.0, (2, 2, 12)), requires_grad=True)
    labels = np.array([0, 1])
    loss_fn = lambda: softmax_cross_entropy(forward(model, x), labels)
    named = model.named_parameters() + [("input", x)]
    return loss_fn, named


BLOCKS = [
    ("linear", _block_linear),
    ("conv1d", _sequence_block(lambda prng: L.InceptionConvBlock.init(
        prng, 3, 4, (3,), 2, dtype=np.float64), "inception_conv1d_forward", 3, 12)),
    ("inception_k2_4_8", _sequence_block(lambda prng: L.InceptionConvBlock.init(
        prng, 2, 2, (2, 4, 8), 2, dtype=np.float64), "inception_conv1d_forward", 2, 12)),
    ("gru_layer", _sequence_block(lambda prng: L.GruParams.init(
        prng, 3, 4, dtype=np.float64), "gru_layer_forward", 3, 6)),
    ("dense_gru_stack_L3", _sequence_block(lambda prng: L.DenseGruStack.init(
        prng, 2, [3, 4, 5], dense=True, dtype=np.float64), "dense_gru_forward", 2, 6)),
    ("chrononet_end_to_end", _block_end_to_end),
    # last, so the draws above stay as they were; stride 3 splits the length-5
    # kernel into a full and a partial chunk of taps, and puts the length-2
    # kernel's windows at an odd phase
    ("inception_k5_2_s3", _sequence_block(lambda prng: L.InceptionConvBlock.init(
        prng, 2, 2, (5, 2), 3, dtype=np.float64), "inception_conv1d_forward", 2, 11)),
]


def run_suite(seed: int = 0, tol: float = DEFAULT_TOL) -> list[BlockResult]:
    results = []
    for index, (name, make) in enumerate(BLOCKS):
        prng = Prng(Prng(seed).derive(index))
        loss_fn, named = make(prng)
        results.append(check_block(name, loss_fn, named, tol))
    return results


def format_report(results: list[BlockResult]) -> str:
    lines = [f"{'block':<24} {'max_rel_error':>14} {'worst':<22} status"]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<24} {r.max_error:>14.3e} {r.worst_param:<22} {status}")
    return "\n".join(lines)
