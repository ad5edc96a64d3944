"""Host-speed guard: a fixed reference kernel timed between measured units.

The benchmark shares its host with other tenants, whose load slows the same
code by up to 1.5x in phases of seconds to many minutes. Each measured unit
(a workload iteration or a set-up) is bracketed by two timings of the
reference kernel, which depends on nothing in the program. A unit is steady
when both of its brackets ran within ``STEADY_TOL`` of the run's fast decile
of reference times; the end-to-end figures use steady units only, so slow
bursts shorter than a run are dropped rather than averaged in. A phase that
covers a whole run slows the reference too, so the gated timings are given
in units of the run's median reference time.

The kernel mixes the program's kinds of work: dispatch-bound small gate
ops (about half of its ~10 ms), a cache-resident gather and product, and a
sweep past the per-core caches. Slow phases hit dispatch-bound code
hardest; with the gate ops at an eighth of the kernel instead, the gated
timings of the training workloads spread about half as much again across
seeds. The EDF pipeline is slowed most by phases in which page faults and
memory writes are slow, so its workload adds a part that pays for both;
predict calls, which do the model's work on every workload, are divided
by the compute parts alone.
"""

import math
import statistics
from time import perf_counter

import numpy as np

STEADY_TOL = 1.5
# When fewer units than this share are steady, keep this share of the units
# with the fastest brackets, so that every run reports from some units.
MIN_KEPT_SHARE = 0.25

REPEATS = 3
# ~5 ms of gate steps, about half the reference time (see the module doc).
GATE_STEPS = 640
PAGES_BYTES = 40 << 20
_rng = np.random.default_rng(0)
_GATE_IN = np.full((64, 32), 0.5, dtype=np.float32)
_GATE_W = np.full((32, 32), 0.01, dtype=np.float32)
_GATE_H = np.zeros((64, 32), dtype=np.float32)
_GATE_T = np.zeros((64, 32), dtype=np.float32)
_COLS = _rng.standard_normal((1024, 704)).astype(np.float32)     # ~2.8 MiB
_COLS_ORDER = _rng.permutation(1024)
_COLS_G = np.empty_like(_COLS)
_FILTERS = _rng.standard_normal((704, 32)).astype(np.float32)
_CONV_OUT = np.empty((1024, 32), dtype=np.float32)
_SWEEP = np.ones(1 << 21, dtype=np.float32)                       # 8 MiB
del _rng


def _gates() -> None:
    """Small recurrent-gate array ops: bound by per-call dispatch, like the
    GRU loops, and the part of the host's speed that swings most."""
    h, t = _GATE_H, _GATE_T
    h.fill(0.0)
    for _ in range(GATE_STEPS):
        np.matmul(h, _GATE_W, out=t)
        np.add(t, _GATE_IN, out=t)
        np.tanh(t, out=h)


def _conv() -> None:
    """An im2col-like gather and product on a cache-sized working set."""
    for _ in range(2):
        np.take(_COLS, _COLS_ORDER, axis=0, out=_COLS_G)
        np.matmul(_COLS_G, _FILTERS, out=_CONV_OUT)
        np.maximum(_CONV_OUT, 0.0, out=_CONV_OUT)


def _sweep() -> None:
    """One pass over a buffer larger than the per-core caches."""
    np.multiply(_SWEEP, np.float32(1.0), out=_SWEEP)


def _pages() -> None:
    """Allocate, fill and free a fresh array: page faults and write
    bandwidth, which the data pipeline's large arrays pay on every call. An
    array above the C library's largest mmap threshold (32 MiB) is always a
    fresh mapping, so the program's heap state cannot change its time."""
    np.ones(PAGES_BYTES // 4, dtype=np.float32)


# The kernel for compute-bound workloads, and the one for a workload that
# streams large fresh arrays (~22 ms). The pages part stays out of the first
# because its 40 MiB would set the peak RSS of a small workload.
CPU_PARTS = (_gates, _conv, _sweep)
MEMORY_PARTS = CPU_PARTS + (_pages,)


def part_times(parts=CPU_PARTS) -> list[float]:
    """Each part's fastest of a few timings; the reference time is their
    sum. One timing alone is often hit by a single interruption, which is
    not a slow phase. No part takes memory from the heap, so the program's
    heap state cannot change their time."""
    best = [math.inf] * len(parts)
    for _ in range(REPEATS):
        for i, part in enumerate(parts):
            t = perf_counter()
            part()
            best[i] = min(best[i], perf_counter() - t)
    return best


def low_decile(values: list[float]) -> float:
    """10th percentile (inclusive interpolation): the host's fast state."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def select(units: list[tuple[str, int, float, float]], refs: list[float]) -> tuple[dict, float]:
    """units: (kind, index, reference before, reference after). Returns
    ({kind: indices of the units kept}, the reference fast decile)."""
    floor = low_decile(refs)

    def slowness(unit) -> float:
        return max(unit[2], unit[3]) / floor

    kept = {}
    for kind in sorted({u[0] for u in units}):
        mine = [u for u in units if u[0] == kind]
        keep = [u for u in mine if slowness(u) <= STEADY_TOL]
        least = max(1, math.ceil(MIN_KEPT_SHARE * len(mine)))
        if len(keep) < least:
            keep = sorted(mine, key=slowness)[:least]
        kept[kind] = {u[1] for u in keep}
    return kept, floor
