"""Turn probe counters and spans into the benchmark's named metrics."""

import bisect
import math
import statistics

from probes import MIB, Counters, Span

LAYERS = ("conv0", "conv1", "conv2", "gru0", "gru1", "gru2", "gru3")
DATA_STAGES = {
    "data.edf.read": "data.edf.read_s",
    "data.montage.apply": "data.montage.apply_s",
    "data.preprocess.resample": "data.preprocess.resample_s",
    "data.preprocess.windows": "data.preprocess.windows_s",
    "data.preprocess.stats": "data.preprocess.stats_s",
    "data.preprocess.normalize": "data.preprocess.normalize_s",
    "data.container.export": "data.container.export_s",
    "data.container.import": "data.container.import_s",
}
# A span's self time may read slightly negative from timer granularity alone.
CLOCK_SLACK_S = 2e-6


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile_with_tail(values, q: float, tail: int = 10):
    """The q-quantile, or None unless at least ``tail`` samples lie beyond it."""
    if len(values) * (1.0 - q) < tail:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# end to end (untraced iterations only)


def end_to_end(c: Counters, trains: bool, setups: list, peak_rss_mib: float,
               windows_per_prepare: int, work_ref: float,
               predict_ref: float) -> tuple[dict, dict]:
    """From the steady iterations' counters: (metrics, as measured), where
    metrics maps name -> (value, unit, sample count).

    The main command's unit of work is a training step on training
    workloads and one `chrononet prepare` of the corpus on ingest_eval.
    Times are medians. The gated timings are given in reference-kernel
    times: the run's median reference time for the workload's kernel
    (``work_ref``), and for its compute parts alone (``predict_ref``). The
    host's speed swings by up to 1.5x for minutes at a time, which moves the
    program and the reference kernel together, so the ratio holds far
    steadier than either. The same medians in seconds are returned as
    measured."""
    if trains:
        walls = [st.end - st.start for st in c.steps]
        per_unit = median([st.samples for st in c.steps])
    else:
        walls = [s for s, _ in c.prepares]
        per_unit = windows_per_prepare
    work = median(walls)
    predict = median([s / n for s, n, _ in c.predicts])
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mib": (peak_rss_mib, "MiB", 1),
        "work_p50_refs": (work / work_ref, "refs", len(walls)),
        "predict_sample_refs": (predict / predict_ref, "refs", len(c.predicts)),
    }
    measured = {"reference_s": work_ref, "predict_reference_s": predict_ref,
                "work_p50_ms": 1e3 * work,
                "work_samples_per_s": per_unit / work if work else 0.0,
                "predict_samples_per_s": 1.0 / predict if predict else 0.0}
    return metrics, measured


def issue_named(c: Counters, trains: bool, attempted: int, failed: int) -> dict:
    """Measurements under the names the README's metric table uses, where they
    apply; the train-step tail only with at least ten samples beyond it."""
    out = {"error_rate": failed / attempted if attempted else 1.0,
           "predict_ms": [1e3 * s for s, _, _ in c.predicts]}
    if trains:
        walls = [1e3 * (st.end - st.start) for st in c.steps]
        out["train_samples_per_s"] = sum(st.samples for st in c.steps) / sum(walls) * 1e3
        out["train_step_p50_ms"] = median(walls)
        p90 = percentile_with_tail(walls, 0.9)
        if p90 is not None:
            out["train_step_p90_ms"] = p90
        out["train_steps"] = len(walls)
        out["train_step_ms"] = walls
    else:
        out["ingest_mb_per_s"] = c.edf_bytes / 1e6 / sum(s for s, _ in c.prepares)
        out["prepare_ms"] = [1e3 * s for s, _ in c.prepares]
    return out


# ---------------------------------------------------------------------------
# per layer (traced iterations only)


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - cov for s, cov in zip(spans, covered)]


def _inside(spans, starts, lo: float, hi: float) -> range:
    """Indices of spans that start at or after lo and end by hi (spans are in
    start order, so they form one contiguous run)."""
    first = bisect.bisect_left(starts, lo)
    last = first
    while last < len(spans) and spans[last].start < hi:
        last += 1
    return range(first, last)


def _unit_sums(spans, starts, selfs, units) -> list[dict]:
    """Per unit interval, the sums of each span name's duration, self time,
    retained bytes and count, and the largest peak, over the spans inside."""
    out = []
    for lo, hi in units:
        acc: dict[str, float] = {"|wall": hi - lo, "|self": 0.0}
        for i in _inside(spans, starts, lo, hi):
            s = spans[i]
            if s.end > hi:
                continue
            acc["|self"] += selfs[i]
            for key, value in ((f"{s.name}|dur", s.end - s.start), (f"{s.name}|self", selfs[i]),
                               (f"{s.name}|mem", s.retained), (f"{s.name}|n", s.count)):
                acc[key] = acc.get(key, 0.0) + value
            acc[f"{s.name}|peak"] = max(acc.get(f"{s.name}|peak", 0.0), s.peak)
        acc["|other"] = acc["|wall"] - acc["|self"]
        out.append(acc)
    return out


def per_layer(spans: list[Span], c: Counters, time_runs: set, memory_runs: set,
              overhead: float) -> tuple:
    """Returns (metrics, problems): metrics maps name -> (value, unit); problems
    lists trace-integrity failures (negative self time, self times exceeding
    the step's wall time). Times come from ``time_runs``, bytes from
    ``memory_runs``; each is a median over units: training steps when the
    workload trains, else predict calls."""
    selfs = self_times(spans)
    starts = [s.start for s in spans]
    problems = [f"span {s.name} has self time {t:.2e} s"
                for s, t in zip(spans, selfs) if t < -CLOCK_SLACK_S]

    def units(runs):
        steps = [(st.start, st.end) for st in c.steps if st.run in runs]
        return steps or [(s.start, s.end) for s in spans
                         if s.name == "training.predict" and s.run in runs]

    timed = _unit_sums(spans, starts, selfs, units(time_runs))
    sized = _unit_sums(spans, starts, selfs, units(memory_runs))
    for u in timed:
        if u["|self"] > u["|wall"] + CLOCK_SLACK_S:
            problems.append(f"self times {u['|self']:.6f} s exceed step wall {u['|wall']:.6f} s")

    def t(key: str) -> float:
        return median([u.get(key, 0.0) for u in timed])

    def mib(key: str) -> float:
        return median([u.get(key, 0.0) for u in sized]) / MIB

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS + ("concat", "readout"):
        out[f"layers.{layer}.fwd_s"] = (t(f"layers.{layer}|self"), "s")
        out[f"layers.{layer}.bwd_s"] = (t(f"layers.{layer}.bwd|dur"), "s")
        if layer in LAYERS:
            out[f"layers.{layer}.retained_mib"] = (mib(f"layers.{layer}|mem"), "MiB")
    out["tensor.backward.s"] = (t("tensor.backward|dur"), "s")
    out["tensor.backward.self_s"] = (t("tensor.backward|self"), "s")
    out["tensor.backward.peak_mib"] = (mib("tensor.backward|peak"), "MiB")
    out["tensor.tape.nodes_per_step"] = (t("tensor.backward|n"), "count")
    out["architectures.forward.s"] = (t("architectures.forward|dur"), "s")
    out["architectures.forward.retained_mib"] = (mib("architectures.forward|mem"), "MiB")
    out["training.adam_step.s"] = (t("training.adam_step|dur"), "s")
    trains = any(st.run in time_runs for st in c.steps)
    out["training.step_other_s"] = (t("|other") if trains else 0.0, "s")

    predicts = [s for s in spans if s.name == "training.predict" and s.run in time_runs]
    out["training.predict.s"] = (median([s.end - s.start for s in predicts]), "s")
    out["training.predict.samples"] = (median([s.count for s in predicts]), "count")

    # Data stages and checkpoints: per CLI invocation that runs them.
    stage: dict[str, list[list]] = {}
    for inv in spans:
        if inv.run not in time_runs or inv.name not in ("cli.train", "cli.eval", "cli.prepare"):
            continue
        acc: dict[str, list] = {}
        for i in _inside(spans, starts, inv.start, inv.end):
            s = spans[i]
            if s.name in DATA_STAGES:
                entry = acc.setdefault(s.name, [0.0, 0, 0])
                entry[0] += s.end - s.start
                entry[1] += s.count
                entry[2] += 1
        for name, entry in acc.items():
            stage.setdefault(name, []).append(entry)

    def stage_median(name: str, field: int) -> float:
        return median([e[field] for e in stage.get(name, [])])

    for name, metric in DATA_STAGES.items():
        out[metric] = (stage_median(name, 0), "s")
    out["data.edf.bytes"] = (stage_median("data.edf.read", 1), "bytes")
    out["data.preprocess.resampled_share"] = (
        median([e[1] / e[2] for e in stage.get("data.preprocess.resample", [])]), "ratio")
    out["data.container.export_bytes"] = (stage_median("data.container.export", 1), "bytes")
    out["data.container.import_bytes"] = (stage_median("data.container.import", 1), "bytes")
    out["cli.prepare.s"] = (median([s.end - s.start for s in spans if s.name == "cli.prepare"
                                    and s.run in time_runs]), "s")
    out["cli.prepare.peak_mib"] = (median([s.peak for s in spans if s.name == "cli.prepare"
                                           and s.run in memory_runs]) / MIB, "MiB")
    for name in ("save", "load"):
        calls = [s.end - s.start for s in spans
                 if s.name == f"checkpoint.{name}" and s.run in time_runs]
        out[f"checkpoint.{name}_s"] = (median(calls), "s")
    out["trace.step_self_share"] = (
        median([u["|self"] / u["|wall"] for u in timed]) if trains else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out, problems
