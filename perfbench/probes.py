"""Outside-in probes on chrononet's public module-level names.

The benchmark never edits the program. It replaces, for the duration of one
workload iteration, the module attributes through which each layer is
called (``chrononet.training.forward``, ``chrononet.layers.conv1d_forward``,
``chrononet.cli.read_edf``, ...) with wrappers, and restores them afterwards.
A name that a later version of the program no longer has is listed in
``Probes.missing``, and the run that finds it is not correct: its figures
would otherwise read 0 and look like a gain.

Two modes share the wrappers:

* counters (always): one timestamp per ``adam_step`` return, the loss and
  batch size of each step, predict time and sample count, ``prepare`` wall
  time and EDF bytes read. They cost a few Python calls per step.
* spans (mode ``time`` or ``memory``): every wrapped call records a span
  (name, start, end, parent, run id). Each tape node's backward closure is
  wrapped through ``make_op`` and timed under the layer span that created it.
  In ``memory`` mode tracemalloc also runs and each span records the bytes it
  leaves alive; tracemalloc doubles the cost of the GRU loops, so times are
  taken from ``time`` iterations and bytes from ``memory`` iterations.
"""

import os
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run: int = 0
    retained: int = 0   # bytes allocated inside the span and still alive at its end
    peak: int = 0       # peak traced bytes above the level at the span's start
    count: int = 0      # work counted at the boundary: samples, bytes or tape nodes


@dataclass
class Step:
    start: float
    end: float
    samples: int
    loss: float
    run: int


@dataclass
class Counters:
    steps: list[Step] = field(default_factory=list)
    predicts: list[tuple[float, int, int]] = field(default_factory=list)  # (s, samples, run)
    prepares: list[tuple[float, int]] = field(default_factory=list)       # (s, run)
    edf_bytes: int = 0

    def only(self, runs: set) -> "Counters":
        """The counts of the iterations in ``runs``. Every prepare reads the
        same corpus, so EDF bytes scale with the prepares kept."""
        prepares = [p for p in self.prepares if p[1] in runs]
        share = len(prepares) / len(self.prepares) if self.prepares else 0.0
        return Counters([st for st in self.steps if st.run in runs],
                        [p for p in self.predicts if p[2] in runs], prepares,
                        round(self.edf_bytes * share))


class Probes:
    """Installs the wrappers for one iteration at a time."""

    def __init__(self, chrononet_modules: dict):
        self.mods = chrononet_modules
        self.counters = Counters()
        self.spans: list[Span] = []
        self.run = 0
        self._tracing = False
        self._memory = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        self._mark = 0.0
        self._loss = (float("nan"), 0)

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str, peak: bool = False) -> int:
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1, run=self.run)
        if self._memory:
            if peak:
                tracemalloc.reset_peak()
            span.retained = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        index = len(self.spans) - 1
        self._stack.append(index)
        span.start = perf_counter()
        return index

    def _close(self, index: int, peak: bool = False) -> float:
        end = perf_counter()
        span = self.spans[index]
        span.end = end
        if self._memory:
            current, high = tracemalloc.get_traced_memory()
            if peak:
                span.peak = high - span.retained
            span.retained = current - span.retained
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span nesting broken at {span.name}")
        return end

    def _owner(self) -> str:
        """Name of the innermost open layer span: who owns a new tape node."""
        for index in reversed(self._stack):
            name = self.spans[index].name
            if name.startswith("layers.") or name == "training.loss":
                return name
        return "tape.other"

    # -- wrapping --------------------------------------------------------

    def _wrap(self, module, attr: str, name, before=None, after=None, peak=False):
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        probes = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = -1
            if probes._tracing:
                index = probes._open(name(args) if callable(name) else name, peak)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                # The span's own end, so that a step ending here contains it.
                t1 = probes._close(index, peak) if index >= 0 else perf_counter()
            if after is not None:
                after(args, out, t0, t1, index)
            return out

        self._patched.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def _wrap_make_op(self, module) -> None:
        orig = getattr(module, "make_op", None)
        if orig is None:
            self.missing.add(f"{module.__name__}.make_op")
            return
        probes = self

        def make_op(tag, inputs, out_data, backward_fn):
            label = probes._owner() + ".bwd"
            inner = backward_fn

            def timed_backward(g):
                index = probes._open(label)
                try:
                    return inner(g)
                finally:
                    probes._close(index)

            return orig(tag, inputs, out_data, timed_backward)

        self._patched.append((module, "make_op", orig))
        module.make_op = make_op

    def install(self, mode: str) -> None:
        """mode: "off" (counters only), "time" (spans) or "memory" (spans
        with tracemalloc)."""
        m = self.mods
        cli, training, arch, layers = m["cli"], m["training"], m["architectures"], m["layers"]
        c = self.counters
        trace = mode != "off"
        self._tracing = trace
        self._memory = mode == "memory"
        if self._memory:
            tracemalloc.start()

        def set_mark(*_):
            self._mark = perf_counter()

        def on_loss(args, out, t0, t1, index):
            self._loss = (float(out.item()), len(args[1]))

        def on_adam(args, out, t0, t1, index):
            loss, samples = self._loss
            c.steps.append(Step(self._mark, t1, samples, loss, self.run))
            self._mark = t1

        def on_predict(args, out, t0, t1, index):
            c.predicts.append((t1 - t0, len(args[1]), self.run))
            if index >= 0:
                self.spans[index].count = len(args[1])

        def on_prepare(args, out, t0, t1, index):
            c.prepares.append((t1 - t0, self.run))

        def on_read_edf(args, out, t0, t1, index):
            size = os.path.getsize(args[0])
            c.edf_bytes += size
            if index >= 0:
                self.spans[index].count = size

        self._wrap(cli, "cmd_train", "cli.train")
        self._wrap(cli, "cmd_eval", "cli.eval")
        self._wrap(cli, "cmd_prepare", "cli.prepare", after=on_prepare, peak=True)
        self._wrap(cli, "train", "training.train", before=set_mark)
        self._wrap(training, "evaluate", "training.evaluate", after=set_mark)
        self._wrap(training, "softmax_cross_entropy", "training.loss", after=on_loss)
        self._wrap(training, "adam_step", "training.adam_step", after=on_adam)
        for module in (training, cli):
            self._wrap(module, "predict", "training.predict", after=on_predict)
        self._wrap(cli, "read_edf", "data.edf.read", after=on_read_edf)
        if not trace:
            return

        def on_backward(args, out, t0, t1, index):
            self.spans[index].count = len(args[1])

        def on_resample(args, out, t0, t1, index):
            self.spans[index].count = int(out is not args[0])

        def on_file(args, out, t0, t1, index):
            self.spans[index].count = os.path.getsize(args[0])

        def block_name(kind, blocks_of):
            def name(args):
                model = self._model
                blocks = blocks_of(model) if model is not None else []
                for i, blk in enumerate(blocks):
                    if blk is args[0]:
                        return f"layers.{kind}{i}"
                return f"layers.{kind}"
            return name

        def remember_model(args):
            self._model = args[0]

        self._model = None
        self._wrap(training, "forward", "architectures.forward", before=remember_model)
        self._wrap(training, "backward", "tensor.backward", after=on_backward, peak=True)
        self._wrap(arch, "inception_conv1d_forward",
                   block_name("conv", lambda model: model.conv_blocks))
        self._wrap(layers, "gru_layer_forward",
                   block_name("gru", lambda model: model.gru_stack.layers))
        self._wrap(layers, "concat", "layers.concat")
        self._wrap(arch, "last_time_step", "layers.readout")
        self._wrap(arch, "linear_forward", "layers.readout")
        for module in (m["tensor"], layers, training):
            self._wrap_make_op(module)
        self._wrap(m["montage"], "apply_montage", "data.montage.apply")
        pre = m["preprocess"]
        self._wrap(pre, "resample_recording", "data.preprocess.resample", after=on_resample)
        self._wrap(pre, "extract_windows", "data.preprocess.windows")
        self._wrap(pre, "compute_stats", "data.preprocess.stats")
        self._wrap(pre, "normalize", "data.preprocess.normalize")
        container = m["container"]
        self._wrap(container, "import_dataset", "data.container.import", after=on_file)
        for attr in ("export_dataset", "save_stats"):
            self._wrap(container, attr, "data.container.export", after=on_file)
        ckpt = m["checkpoint"]
        self._wrap(ckpt, "save_checkpoint", "checkpoint.save")
        self._wrap(ckpt, "load_checkpoint", "checkpoint.load")

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()
        if self._memory:
            tracemalloc.stop()
        self._tracing = self._memory = False
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")
