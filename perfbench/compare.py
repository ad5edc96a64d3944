"""Summarize one set of benchmark results, or compare two sets, refusing
when they are not comparable.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

With one directory: per workload, each metric's median, quartiles and
quartile spread (IQR over median) across seeds, and for traced results the
share of model time (forward + backward) in conv, GRU and the rest, and the
share of `prepare` time spent in the data stages.

Each directory holds result files written by run.py (perfbench/results/*.json
or a copy such as perfbench/baseline/). Results are paired by workload, seed
and trace flag. Two results are comparable only when their stamps agree in
everything but the commit and the program's source digest: same benchmark
code, machine, Python, numpy, BLAS and thread count. For every metric the
script prints each side's median and quartiles over the seeds, and the share
of pairs the second side wins.
"""

import glob
import json
import os
import statistics
import sys

# Stamp fields that may differ between the two sides.
MAY_DIFFER = {"commit", "source"}
STAMP = ("commit", "source", "benchmark", "workload", "seed", "tiny", "nproc", "affinity",
         "machine", "python", "numpy", "blas", "blas_threads")
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def directions() -> dict:
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def load(directory: str) -> dict:
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json") or os.path.basename(path) == "digests.json":
            continue
        with open(path) as f:
            record = json.load(f)
        if not isinstance(record, dict) or "workload" not in record:
            continue  # not a result file
        out[(record["workload"], record["seed"], record["trace"])] = record
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def shares(m: dict) -> dict:
    """Layer groups' share of model time, and data stages' share of prepare."""
    v = {name: meta["value"] for name, meta in m.items()}
    model = v["architectures.forward.s"] + v["tensor.backward.s"]
    out = {}
    if model > 0:
        conv = sum(v[f"layers.conv{i}.{d}_s"] for i in range(3) for d in ("fwd", "bwd"))
        gru = sum(v[f"layers.gru{i}.{d}_s"] for i in range(4) for d in ("fwd", "bwd"))
        out.update(conv=conv / model, gru=gru / model, rest=1 - (conv + gru) / model)
    if v.get("cli.prepare.s", 0) > 0:
        data = sum(v[n] for n in v if n.startswith("data.") and n.endswith("_s")
                   and not n.startswith("data.container.import"))
        out["data_of_prepare"] = data / v["cli.prepare.s"]
    return out


def summarize(results: dict) -> int:
    groups: dict[tuple, list] = {}
    for key, record in results.items():
        groups.setdefault((key[0], key[2]), []).append(record)
    for (workload, trace), records in sorted(groups.items()):
        seeds = sorted(r["seed"] for r in records)
        ok = sum(r["correct"] for r in records)
        print(f"{workload} trace={trace} seeds={seeds} correct={ok}/{len(records)}")
        for name, meta in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:40s} {meta['unit']:6s} median {med:.5g} [{q1:.5g}, {q3:.5g}]"
                  f"  spread {spread:.3f}")
        if trace:
            for r in records:
                print(f"  seed {r['seed']} shares " + ", ".join(
                    f"{k} {x:.2f}" for k, x in shares(r["metrics"]).items()))
    return 0


def main(argv) -> int:
    if len(argv) == 1:
        return summarize(load(argv[0]))
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    before, after = load(argv[0]), load(argv[1])
    pairs = sorted(set(before) & set(after))
    if not pairs:
        print("no (workload, seed, trace) result appears on both sides", file=sys.stderr)
        return 1
    for key in pairs:
        differ = [f for f in STAMP if f not in MAY_DIFFER and before[key].get(f) != after[key].get(f)]
        if differ:
            print(f"refusing: {key} stamps differ in {differ}", file=sys.stderr)
            return 2

    better = directions()
    groups: dict[tuple, list] = {}
    for key in pairs:
        groups.setdefault((key[0], key[2]), []).append(key)
    for (workload, trace), keys in sorted(groups.items()):
        print(f"{workload} trace={trace} seeds={[k[1] for k in keys]}")
        for name, meta in before[keys[0]]["metrics"].items():
            a = [before[k]["metrics"][name]["value"] for k in keys]
            b = [after[k]["metrics"].get(name, {}).get("value", float("nan")) for k in keys]
            lower = better.get(name, "lower") == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:40s} {meta['unit']:6s} before {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                  f"  after {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  after wins {wins}/{len(keys)}")
        bad = [k for k in keys if not after[k]["correct"]] + \
              [k for k in keys if not before[k]["correct"]]
        if bad:
            print(f"  incorrect runs: {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
