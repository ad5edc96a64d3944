"""chrononet benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ./src, never from
an installed copy. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. The full
result, stamped with the environment, goes to perfbench/results/.
"""

import os

# One thread everywhere: BLAS pools would make timings depend on machine load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import importlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
TRACE_CYCLE = ("off", "time", "memory")
# Set-ups repeat through the run, after an iteration whenever they have so
# far taken less than this share of the run's time.
SETUP_SHARE = 0.1

import metrics  # noqa: E402  (needs HERE on sys.path, which running the script gives)
import steady  # noqa: E402
from probes import Probes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHRONONET_MODULES = {
    "cli": "chrononet.cli", "training": "chrononet.training",
    "architectures": "chrononet.architectures", "layers": "chrononet.layers",
    "tensor": "chrononet.tensor", "checkpoint": "chrononet.checkpoint",
    "container": "chrononet.data.container", "montage": "chrononet.data.montage",
    "preprocess": "chrononet.data.preprocess", "edf": "chrononet.data.edf",
}


def import_program() -> dict:
    if not os.path.isfile(os.path.join(SRC, "chrononet", "__init__.py")):
        raise SystemExit(f"run.py: no program at {SRC}/chrononet; run from a checkout root")
    sys.path.insert(0, SRC)
    mods = {key: importlib.import_module(name) for key, name in CHRONONET_MODULES.items()}
    where = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if where != os.path.join(SRC, "chrononet"):
        raise SystemExit(f"run.py: imported chrononet from {where}, not from {SRC}")
    return mods


# ---------------------------------------------------------------------------
# environment stamp


def _tree_digest(top: str, suffixes: tuple) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames[:] = sorted(d for d in dirnames if d not in ("results", "work", "__pycache__"))
        for name in sorted(filenames):
            if name.endswith(suffixes):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas() -> tuple[str, int]:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    name = f"{info.get('name', '?')} {info.get('version', '?')}"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, int(os.environ["OPENBLAS_NUM_THREADS"])


def stamp(workload: str, seed: int, tiny: bool) -> dict:
    """Everything two results must share to be compared, plus the commit."""
    blas, threads = _blas()
    return {
        "commit": _git_commit(),
        "source": _tree_digest(SRC, (".py", ".txt")),
        "benchmark": _tree_digest(HERE, (".py",)),
        "workload": workload, "seed": seed, "tiny": tiny,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": threads,
    }


# ---------------------------------------------------------------------------


def check_digests(record: dict, digest: str) -> str | None:
    """Compare this run's determinism digest with earlier runs of the same
    source, benchmark, environment, workload and seed; remember it if new."""
    path = os.path.join(RESULTS, "digests.json")
    key = "|".join(str(record[k]) for k in ("source", "benchmark", "workload", "seed",
                                             "tiny", "python", "numpy", "blas", "machine"))
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known and known[key] != digest:
        return f"determinism: digest {digest} differs from earlier run's {known[key]}"
    known[key] = digest
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


def run(args) -> dict:
    t0 = time.perf_counter()
    mods = import_program()
    import_s = time.perf_counter() - t0
    cli_main = mods["cli"].main
    workload = WORKLOADS[args.workload]
    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(RESULTS, exist_ok=True)
    problems: list[str] = []
    # Every measured unit, an iteration or a set-up, lies between two timings
    # of the reference kernel: (kind, index, reference before, after).
    brackets: list[list[float]] = []   # per-part times of each reference timing
    refs: list[float] = []

    def bracket() -> None:
        brackets.append(steady.part_times(workload.reference))
        refs.append(sum(brackets[-1]))

    bracket()
    units: list[tuple[str, int, float, float]] = []
    setups, input_digests = [], set()
    setup_wall = 0.0

    def set_up(rep: int) -> dict:
        """Make the inputs once more; only the program's calls are timed, and
        every copy must be byte-identical. The first copy is the one used."""
        nonlocal setup_wall
        t = time.perf_counter()
        d = os.path.join(work, f"setup{rep}")
        os.makedirs(d)
        made, program_s = workload.make_inputs(mods, d, args.seed, args.tiny)
        input_digests.add(_tree_digest(d, (".cnds", ".groups", ".edf", ".cncp")))
        if rep:
            shutil.rmtree(d)
        bracket()
        units.append(("setup", len(setups), refs[-2], refs[-1]))
        setups.append(program_s)
        setup_wall += time.perf_counter() - t
        return made

    try:
        inputs = set_up(0)
        # Measure: whole iterations, with set-ups between them, until the
        # next would overrun --seconds. A traced run cycles untraced,
        # span-timed and memory-traced iterations, so that its overhead is
        # measured in the same process.
        probes = Probes(mods)
        modes = TRACE_CYCLE if args.trace else ("off",)
        attempted = failed = 0
        digests, walls = set(), {mode: [] for mode in TRACE_CYCLE}
        windows = 0
        start = time.perf_counter()
        n = 0
        while True:
            mode = modes[n % len(modes)]
            probes.run = n
            probes.install(mode)
            t = time.perf_counter()
            try:
                outcome = workload.iterate(cli_main, probes, os.path.join(work, "setup0"),
                                           inputs, args.seed, args.tiny)
            finally:
                probes.uninstall()
            walls[mode].append(time.perf_counter() - t)
            bracket()
            units.append(("iteration", n, refs[-2], refs[-1]))
            n += 1
            attempted += outcome.attempted
            failed += outcome.failed
            problems += outcome.problems
            digests.add(outcome.digest)
            windows = outcome.windows
            if setup_wall < SETUP_SHARE * (time.perf_counter() - start):
                set_up(n)
            if n >= len(modes) and \
                    time.perf_counter() - start + (time.perf_counter() - t) > args.seconds:
                break
        if len(digests) != 1:
            failed += len(digests) - 1
            problems.append(f"iterations disagree: digests {sorted(digests)}")
        if len(input_digests) != 1:
            problems.append(f"inputs differ between set-ups: {sorted(input_digests)}")
        if probes.missing:
            problems.append(f"probes: the program has no {sorted(probes.missing)}")
        # The end-to-end timings come from these counters; empty ones would
        # read 0, so the program has stopped calling through a wrapped name.
        c = probes.counters
        if not c.predicts or (not workload.trains and not c.prepares):
            problems.append("probes: no predict or prepare call was seen through the "
                            "wrapped names")
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kept, ref_floor = steady.select(units, refs)

    record = stamp(args.workload, args.seed, args.tiny)
    digest = next(iter(digests)) if len(digests) == 1 else "inconsistent"
    mismatch = check_digests(record, digest) if len(digests) == 1 else None
    if mismatch:
        failed += 1
        problems.append(mismatch)

    if args.trace:
        runs = {mode: {i for i in range(n) if modes[i % len(modes)] == mode} for mode in modes}
        overhead = metrics.median(walls["time"]) / metrics.median(walls["off"])
        layer, trace_problems = metrics.per_layer(probes.spans, c, runs["time"],
                                                  runs["memory"], overhead)
        problems += trace_problems
        seen = {s.name for s in probes.spans if s.run in runs["time"]}
        absent = [name for name in workload.spans if name not in seen]
        if absent:
            problems.append(f"trace: no span recorded for {absent}")
        printed = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        extra = {}
    else:
        steady_c = c.only(kept["iteration"])
        e2e, measured = metrics.end_to_end(steady_c, workload.trains,
                                           [setups[i] for i in sorted(kept["setup"])],
                                           peak_rss_mib, windows, metrics.median(refs),
                                           metrics.median([sum(b[:len(steady.CPU_PARTS)])
                                                           for b in brackets]))
        printed = {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()}
        extra = {"samples": {name: k for name, (_, _, k) in e2e.items()}, "measured": measured,
                 **metrics.issue_named(steady_c, workload.trains, attempted, failed)}

    correct = not problems and failed == 0
    record.update({
        "trace": args.trace, "seconds": args.seconds, "iterations": n,
        "iteration_walls": walls, "setup_times": setups, "import_s": import_s,
        "reference_s": refs, "reference_parts_s": brackets, "reference_floor_s": ref_floor,
        "steady": {kind: sorted(v) for kind, v in kept.items()}, "digest": digest,
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": printed, **extra,
    })
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    with open(os.path.join(RESULTS, name + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        with open(os.path.join(RESULTS, name + ".spans.json"), "w") as f:
            json.dump([dataclasses.asdict(s) for s in probes.spans], f)
    for why in problems:
        print(f"problem: {why}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": printed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; results are not comparable to full runs")
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
