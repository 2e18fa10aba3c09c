"""Span recorder, layer wrappers and per-layer metrics for the traced run.

A span is one call across a layer boundary: name, start, end, the span
that caused it and the thread it ran on.  Spans are kept in memory and
written out once, when the traced run ends.  Parents are tracked per
thread; work handed to the dependence row pool inherits the span of the
thread that submitted it, so pool work is attributed to the experiment
that started it.

The wrappers sit on the public functions of the package and on the FFT
entry points of numpy.fft and scipy.fft.  The package source is never
edited: `Tracer.install` swaps attributes on the loaded modules and
`Tracer.uninstall` puts the originals back.
"""

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "fracnls"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread; parent 0 means a root span."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Innermost open span of this thread, or the span it adopted."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", 0)

    @contextmanager
    def adopt(self, parent: int):
        """Run the block as if called from inside span `parent`."""
        before = getattr(self._local, "adopted", 0)
        self._local.adopted = parent
        try:
            yield
        finally:
            self._local.adopted = before

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its attribute dict."""
        with self._lock:
            span_id = next(self._ids)
        parent = self.current()
        attrs = {}
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), attrs))


# ------------------------------------------------------------- wrappers


def _picard_result(out, attrs, args, kwargs):
    attrs["sweeps"] = out[1].iterations


def _picard_error(exc, attrs):
    report = getattr(exc, "report", None)
    if report is not None:
        attrs["sweeps"] = report.iterations
        attrs["nonconverged"] = 1


def _rows_result(out, attrs, args, kwargs):
    attrs["rows"] = len(getattr(out, "rows", out))


# (span name, defining module, attribute path, on_result, on_error);
# on_result(out, attrs, args, kwargs) and on_error(exc, attrs) fill in
# span attributes.  Dotted paths are methods, patched on their class;
# plain names are patched on every package module that imported them.
LAYER_TARGETS = (
    ("grid.field", "fracnls.grid", "Field.__post_init__", None, None),
    ("grid.lebesgue_norm", "fracnls.grid", "lebesgue_norm", None, None),
    ("spaces.spacetime_norm", "fracnls.spaces", "spacetime_norm", None, None),
    ("spaces.besov_lp", "fracnls.spaces", "besov_norm_lp", None, None),
    ("spaces.sobolev", "fracnls.spaces", "sobolev_norm", None, None),
    ("solver.picard", "fracnls.solver", "picard_duhamel",
     _picard_result, _picard_error),
    ("solver.split_step", "fracnls.solver", "split_step", None, None),
    ("solver.smallness", "fracnls.solver", "smallness_check", None, None),
    ("nonlinearity.remainder_K", "fracnls.nonlinearity", "remainder_K",
     None, None),
    ("nonlinearity.g", "fracnls.nonlinearity", "PowerNonlinearity.g",
     None, None),
    ("nonlinearity.dz", "fracnls.nonlinearity", "PowerNonlinearity.dz",
     None, None),
    ("nonlinearity.dzbar", "fracnls.nonlinearity", "PowerNonlinearity.dzbar",
     None, None),
    ("dependence.run", "fracnls.dependence", "run_dependence",
     _rows_result, None),
    ("dependence.run", "fracnls.dependence", "remainder_decay_experiment",
     _rows_result, None),
    ("dependence.run", "fracnls.dependence", "static_remainder_decay",
     _rows_result, None),
    ("cli.main", "fracnls.cli", "main", None, None),
)

FFT_BACKENDS = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fftn", "ifftn", "fft", "ifft")


def _transform_axes(bound, ndim: int) -> tuple:
    """Axes an fft/fftn call transforms, from its bound arguments."""
    args = bound.arguments
    if "axis" in args:
        return (args["axis"] % ndim,)
    axes = args.get("axes")
    if axes is None:
        s = args.get("s")
        count = ndim if s is None else len(s)
        return tuple(range(ndim - count, ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(a % ndim for a in axes)


def _fft_counter(fn, backend: str):
    """Result hook: points, bytes and flops of one transform call.

    Bytes are input plus output array sizes and flops are 5 n log2 n
    per transform of length n, both computed from the shapes, so cache
    behaviour is not part of either.
    """
    signature = inspect.signature(fn)

    def count(out, attrs, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        data = bound.arguments[next(iter(bound.arguments))]
        length = math.prod(out.shape[a]
                           for a in _transform_axes(bound, out.ndim))
        attrs["backend"] = backend
        attrs["points"] = int(out.size)
        attrs["bytes"] = int(getattr(data, "nbytes", 0) + out.nbytes)
        attrs["flops"] = (5.0 * out.size * math.log2(length)
                          if length > 1 else 0.0)
        attrs["largest"] = int(max(getattr(data, "nbytes", 0), out.nbytes))

    return count


class _PoolWithParent(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks inherit the submitting span."""

    recorder = None

    def submit(self, fn, /, *args, **kwargs):
        recorder = self.recorder
        parent = recorder.current()

        def task():
            with recorder.adopt(parent):
                return fn(*args, **kwargs)

        return super().submit(task)


class Tracer:
    """Installs span wrappers on the package and the FFT backends.

    A target that does not exist in the loaded code is skipped with a
    note, so the tracer keeps working when a later version renames or
    deletes a public name.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.notes = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, on_result=None, on_error=None):
        recorder = self.recorder

        def hook(callback, *args):
            try:
                callback(*args)
            except Exception as exc:  # a changed API must not stop the run
                note = f"{name}: {callback.__name__} failed: {exc!r}"
                if note not in self.notes:
                    self.notes.append(note)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name) as attrs:
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        hook(on_error, exc, attrs)
                    raise
                if on_result is not None:
                    hook(on_result, out, attrs, args, kwargs)
                return out

        return traced

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement, home):
        """Replace `original` in `home` and every package module holding it."""
        modules = [home] + [m for n, m in sorted(sys.modules.items())
                            if (n == PACKAGE or n.startswith(PACKAGE + "."))
                            and m is not None and m is not home]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def install(self) -> "Tracer":
        # load every target module first, so that names imported across
        # modules are all in place before any of them is patched
        for module_name in sorted({target[1] for target in LAYER_TARGETS}):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for name, module_name, path, on_result, on_error in LAYER_TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attribute = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.notes.append(f"{module_name}.{path} not found: "
                                  f"{name} records 0 calls")
                continue
            wrapped = self._wrap(name, original, on_result, on_error)
            if outer:
                self._patch(owner, attribute, wrapped)
            else:
                self._patch_everywhere(original, wrapped, module)
        self._install_fft()
        self._install_pool()
        return self

    def _install_fft(self):
        for backend in FFT_BACKENDS:
            try:
                module = importlib.import_module(backend)
            except ImportError:
                self.notes.append(f"{backend} not importable")
                continue
            for fname in FFT_FUNCTIONS:
                original = getattr(module, fname, None)
                if original is None:
                    self.notes.append(f"{backend}.{fname} not found")
                    continue
                wrapped = self._wrap("grid.fft", original,
                                     _fft_counter(original, backend))
                self._patch_everywhere(original, wrapped, module)

    def _install_pool(self):
        dependence = sys.modules.get("fracnls.dependence")
        if getattr(dependence, "ThreadPoolExecutor", None) is None:
            self.notes.append("fracnls.dependence.ThreadPoolExecutor not "
                              "found: pool work is attributed per thread")
            return
        pool = type("TracedPool", (_PoolWithParent,),
                    {"recorder": self.recorder})
        self._patch(dependence, "ThreadPoolExecutor", pool)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


# ------------------------------------------------------------- metrics


def covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover.

    Children on other threads overlap one another; the union counts
    each covered instant once, so self time never goes negative.
    """
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def _outermost(spans, name: str) -> list:
    """Spans called `name` with no ancestor of the same name."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer metrics from one traced run, keyed as in BENCHMARK.json.

    `threads` is the run's thread count; busy_ratio is the time covered
    by child spans of the dependence experiments over threads x run time.
    """
    own = self_times(spans)
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def calls(name):
        return len(named.get(name, ()))

    def total(name):
        return sum(s.duration for s in _outermost(spans, name))

    def self_total(name):
        return sum(own[s.id] for s in named.get(name, ()))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named.get(name, ()))

    runs = named.get("dependence.run", ())
    run_s = total("dependence.run")
    child_s = sum(s.duration for s in spans
                  if s.parent in {r.id for r in runs})
    return {
        "grid.fft_calls": calls("grid.fft"),
        "grid.fft_s": total("grid.fft"),
        "grid.fft_points": attr("grid.fft", "points"),
        "grid.fft_bytes_computed": attr("grid.fft", "bytes"),
        "grid.fft_flops_computed": attr("grid.fft", "flops"),
        "grid.field_calls": calls("grid.field"),
        "grid.field_s": total("grid.field"),
        "grid.lebesgue_norm_calls": calls("grid.lebesgue_norm"),
        "grid.lebesgue_norm_s": total("grid.lebesgue_norm"),
        "spaces.spacetime_norm_calls": calls("spaces.spacetime_norm"),
        "spaces.spacetime_norm_s": total("spaces.spacetime_norm"),
        "spaces.spacetime_norm_self_s": self_total("spaces.spacetime_norm"),
        "spaces.besov_lp_calls": calls("spaces.besov_lp"),
        "spaces.besov_lp_s": total("spaces.besov_lp"),
        "spaces.sobolev_calls": calls("spaces.sobolev"),
        "spaces.sobolev_s": total("spaces.sobolev"),
        "solver.picard_calls": calls("solver.picard"),
        "solver.picard_s": total("solver.picard"),
        "solver.picard_self_s": self_total("solver.picard"),
        "solver.picard_sweeps": attr("solver.picard", "sweeps"),
        "solver.picard_nonconverged": attr("solver.picard", "nonconverged"),
        "solver.split_step_calls": calls("solver.split_step"),
        "solver.split_step_s": total("solver.split_step"),
        "solver.smallness_calls": calls("solver.smallness"),
        "solver.smallness_s": total("solver.smallness"),
        "nonlinearity.remainder_K_calls": calls("nonlinearity.remainder_K"),
        "nonlinearity.remainder_K_s": total("nonlinearity.remainder_K"),
        "nonlinearity.remainder_K_self_s":
            self_total("nonlinearity.remainder_K"),
        "nonlinearity.g_calls": calls("nonlinearity.g"),
        "nonlinearity.g_s": total("nonlinearity.g"),
        "nonlinearity.dz_s": total("nonlinearity.dz"),
        "nonlinearity.dzbar_s": total("nonlinearity.dzbar"),
        "dependence.rows": attr("dependence.run", "rows"),
        "dependence.run_s": run_s,
        "dependence.self_s": self_total("dependence.run"),
        "dependence.busy_ratio": (child_s / (threads * run_s)
                                  if run_s > 0 else 0.0),
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
    }


def fft_backends(spans) -> dict:
    """FFT calls per backend module, as actually called."""
    out = {}
    for s in spans:
        if s.name == "grid.fft":
            backend = s.attrs.get("backend", "unknown")
            out[backend] = out.get(backend, 0) + 1
    return out


def largest_fft_operand(spans) -> int:
    """Bytes of the largest array that went into or out of one FFT."""
    return max((s.attrs.get("largest", 0) for s in spans
                if s.name == "grid.fft"), default=0)


def spans_to_json(spans) -> list:
    return [[s.id, s.name, s.start, s.end, s.parent, s.thread, s.attrs]
            for s in spans]


def spans_from_json(rows) -> list:
    return [Span(*row) for row in rows]
