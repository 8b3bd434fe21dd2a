"""Span tracing of rgsv from the outside, and the per-module metrics.

``Tracer.wrapped()`` replaces public functions at the module attribute
each caller looks them up from (``rgsv.engine.extract_basis`` is the name
the engine calls, ``rgsv.cli.compute_gsv`` the one the CLI calls) with a
wrapper that records a span: name, start, end, parent, arguments and
result. Spans stay in memory. After each traced operation the benchmark
calls one of the ``*_summary`` functions, which turn the operation's
spans into per-module seconds and counters, and then ``release`` to drop
the arrays the spans hold. ``per_layer`` combines the summaries. A target
that no longer exists is listed in ``Tracer.missing``, and every metric
built from it is reported as unmeasured (None), never as zero.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import rgsv

# (dotted attribute, span name). Each entry is the attribute a caller
# looks the function up from, so the wrapper sees exactly that caller's
# calls. GmpPair validation runs in __post_init__, which the dataclass
# __init__ looks up on the class.
TARGETS = (
    ("rgsv.GmpPair.__post_init__", "pair_init"),
    ("rgsv.compare", "compare"),                        # the benchmark's solve
    ("rgsv.cli.compare", "compare"),                    # `rgsv compare`
    ("rgsv.analysis.compute_gsv", "compute_gsv"),       # inside compare
    ("rgsv.cli.compute_gsv", "compute_gsv"),            # `rgsv bounds`, direct path
    ("rgsv.engine.extract_basis", "extract_basis"),     # one call per side
    ("rgsv.core.reduced_qr", "reduced_qr"),             # block QR and stacked QR
    ("rgsv.core.svd", "svd"),                           # block SVDs
    ("rgsv.cli.perturbation_bound", "perturbation_bound"),
    ("rgsv.cli.quantity_error_bounds", "quantity_error_bounds"),
    ("rgsv.io.read_matrix", "read_matrix"),
    ("rgsv.io.write_report", "write_report"),
    ("rgsv.io.write_matrix", "write_matrix"),
    ("rgsv.synth_gmp", "synth_gmp"),
)

# Every traced run enters each of these spans. One that never opens means
# the library no longer calls the wrapped name, so its metrics are
# unmeasured, not zero. (lowrank_tall has its own generator.)
ALWAYS_CALLED = {name for _, name in TARGETS} - {"synth_gmp"}

SIDES = ("g1", "g2")

# name, unit, better, the span names the metric is built from.
PER_LAYER = [
    ("engine.pair_init_s", "s", "lower", {"pair_init"}),
    *[(f"rangefinder.{key}.{side}", "s", "lower", {"compute_gsv", "extract_basis", "reduced_qr"})
      for key in ("extract_s", "qr_s", "self_s") for side in SIDES],
    ("engine.stack_qr_s", "s", "lower", {"compute_gsv", "extract_basis", "reduced_qr"}),
    ("engine.block_svd_s", "s", "lower", {"compute_gsv", "svd"}),
    ("engine.self_s", "s", "lower", {"compute_gsv", "extract_basis", "reduced_qr", "svd"}),
    ("analysis.self_s", "s", "lower", {"compare", "compute_gsv"}),
    ("bounds.perturbation_s", "s", "lower", {"perturbation_bound"}),
    ("bounds.quantity_s", "s", "lower", {"quantity_error_bounds"}),
    ("io.read_csv_s", "s", "lower", {"read_matrix"}),
    ("io.read_mtx_s", "s", "lower", {"read_matrix"}),
    ("io.read_mb_per_s", "MB/s", "higher", {"read_matrix"}),
    ("io.write_report_s", "s", "lower", {"write_report"}),
    ("io.write_matrix_s", "s", "lower", {"write_matrix"}),
    ("synthetic.synth_s", "s", "lower", {"synth_gmp"}),
    ("cli.import_s", "s", "lower", set()),
    ("cli.import_scipy_s", "s", "lower", set()),
    *[(f"rangefinder.{key}.{side}", unit, better, {"compute_gsv", "extract_basis", "reduced_qr"})
      for key, unit, better in (
          ("iterations", "count", "lower"),
          ("cols_kept", "count", "lower"),
          ("cols_sampled", "count", "lower"),
          ("keep_ratio", "ratio", "higher"),
          ("resid_reported", "fro", "lower"),
          ("resid_explicit", "fro", "lower"),
      ) for side in SIDES],
    ("rangefinder.sketch_gflop", "GFLOP", "lower", {"compute_gsv", "extract_basis", "reduced_qr"}),
    ("engine.l1", "count", "lower", {"compute_gsv", "extract_basis"}),
    ("engine.l2", "count", "lower", {"compute_gsv", "extract_basis"}),
    ("engine.r", "count", "higher", {"compute_gsv"}),
    ("engine.s", "count", "higher", {"compute_gsv"}),
    ("io.bytes_read", "bytes", "lower", {"read_matrix"}),
    ("io.bytes_written", "bytes", "lower", {"write_report"}),
    ("trace.overhead_frac", "ratio", "lower", set()),
    ("trace.accounted_frac", "ratio", "higher", set()),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans, -1 for a root
    end: float = math.nan
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def arg(self, pos: int, name: str):
        return self.args[pos] if len(self.args) > pos else self.kwargs.get(name)


class Tracer:
    """Spans of the traced operations, and the wrappers that record them."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.called: set[str] = set()
        self._stack: list[int] = []
        self.last_root = -1

    @contextmanager
    def span(self, name: str, args: tuple = (), kwargs: dict | None = None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), parent, args=args, kwargs=kwargs or {})
        self.spans.append(sp)
        self.called.add(name)
        if parent >= 0:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Trace one operation: install the wrappers, then open its root
        span, whose index is left in ``last_root``."""
        with self.wrapped(), self.span(name) as idx:
            self.last_root = idx
            yield idx

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, args, kwargs) as idx:
                result = fn(*args, **kwargs)
            self.spans[idx].result = result
            return result

        return traced

    @contextmanager
    def wrapped(self):
        """Install every wrapper for the duration of the block."""
        undo = []
        try:
            for dotted, name in self.targets:
                owner, attr = _resolve(dotted)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.add(name)
                    continue
                setattr(owner, attr, self._wrap(fn, name))
                undo.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def own_seconds(self, idx: int) -> float:
        """Self time: the span's duration minus its children's."""
        sp = self.spans[idx]
        return sp.seconds - sum(self.spans[c].seconds for c in sp.children)

    def descendants(self, idx: int):
        for c in self.spans[idx].children:
            yield c
            yield from self.descendants(c)

    def release(self, root: int) -> None:
        """Drop the arrays an operation's spans hold."""
        for idx in (root, *self.descendants(root)):
            sp = self.spans[idx]
            sp.args, sp.kwargs, sp.result = (), {}, None


def _resolve(dotted: str):
    """(owner, attribute) for a dotted name; owner is None when a module
    or attribute on the way no longer exists."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            obj = getattr(obj, part, None)
        return obj, parts[-1]
    return None, parts[-1]


def solve_summary(tr: Tracer, root: int, explicit: bool) -> dict[str, float]:
    """Per-module seconds and counters of one traced solve, a root span
    around ``compare(GmpPair(g1, g2), opts)``.

    The self times of all spans under the root plus the root's own sum to
    the root's duration, so ``trace.accounted_frac`` (1 minus the root's
    own share) shows how much of the solve the named modules explain.
    ``explicit`` also evaluates each side's residual with the public
    ``residual_norm``; it runs after the solve, outside every span.
    """
    out = dict.fromkeys(
        ["engine.pair_init_s", "analysis.self_s", "engine.self_s",
         "engine.stack_qr_s", "engine.block_svd_s", "rangefinder.sketch_gflop"]
        + [f"rangefinder.{k}.{s}" for k in ("extract_s", "qr_s", "self_s") for s in SIDES],
        0.0,
    )
    out.update(dict.fromkeys([f"rangefinder.cols_sampled.{s}" for s in SIDES], 0))
    sides: dict[int, tuple[str, float]] = {}  # extract span -> (side, sketch flop per column)
    for idx in tr.descendants(root):
        sp = tr.spans[idx]
        parent = tr.spans[sp.parent]
        own = tr.own_seconds(idx)
        if sp.name == "pair_init":
            out["engine.pair_init_s"] += sp.seconds
        elif sp.name == "compare":
            out["analysis.self_s"] += own
        elif sp.name == "compute_gsv":
            out["engine.self_s"] += own
            out["engine.r"], out["engine.s"] = sp.result.r, sp.result.s
        elif sp.name == "extract_basis" and parent.name == "compute_gsv":
            side = SIDES[len(sides)]  # the engine extracts g1, then g2
            g, basis = sp.arg(0, "g"), sp.result
            # computed, not measured: the sketch GEMM G @ Omega costs
            # 2*m*n*w real flops per block of width w, 4x that if complex
            sides[idx] = side, 2.0 * g.shape[0] * g.shape[1] * (4 if g.dtype.kind == "c" else 1)
            kept = basis.q.shape[1]
            out[f"rangefinder.extract_s.{side}"] += sp.seconds
            out[f"rangefinder.self_s.{side}"] += own
            out[f"rangefinder.iterations.{side}"] = basis.iterations
            out[f"rangefinder.cols_kept.{side}"] = kept
            out[f"engine.l{side[1]}"] = kept
            out[f"rangefinder.resid_reported.{side}"] = basis.residual_history[-1]
            if explicit:
                out[f"rangefinder.resid_explicit.{side}"] = rgsv.residual_norm(g, basis.q)
        elif sp.name == "reduced_qr" and parent.name == "extract_basis":
            side, flop_per_col = sides[sp.parent]
            width = sp.arg(0, "m").shape[1]
            out[f"rangefinder.qr_s.{side}"] += sp.seconds
            out[f"rangefinder.cols_sampled.{side}"] += width
            out["rangefinder.sketch_gflop"] += flop_per_col * width / 1e9
        elif sp.name == "reduced_qr" and parent.name == "compute_gsv":
            out["engine.stack_qr_s"] += sp.seconds
        elif sp.name == "svd" and parent.name == "compute_gsv":
            out["engine.block_svd_s"] += sp.seconds
    for side in SIDES:
        sampled = out[f"rangefinder.cols_sampled.{side}"]
        if sampled:
            out[f"rangefinder.keep_ratio.{side}"] = out[f"rangefinder.cols_kept.{side}"] / sampled
    out["trace.accounted_frac"] = 1.0 - tr.own_seconds(root) / tr.spans[root].seconds
    out["solve_s"] = tr.spans[root].seconds
    return out


def cli_summary(tr: Tracer, root: int) -> dict[str, float]:
    """Per-module seconds and bytes of one traced in-process CLI command.
    A key is present only when the command called that module."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for idx in tr.descendants(root):
        sp = tr.spans[idx]
        if sp.name == "perturbation_bound":
            add("bounds.perturbation_s", sp.seconds)
        elif sp.name == "quantity_error_bounds":
            add("bounds.quantity_s", sp.seconds)
        elif sp.name == "read_matrix":
            path = str(sp.arg(0, "path"))
            add("io.read_csv_s" if path.endswith(".csv") else "io.read_mtx_s", sp.seconds)
            add("io.read_seconds", sp.seconds)
            add("io.bytes_read", os.path.getsize(path))
        elif sp.name == "write_report":
            add("io.write_report_s", sp.seconds)
            path = sp.arg(1, "path")
            if path is not None:
                add("io.bytes_written", os.path.getsize(path))
    return out


def setup_summary(tr: Tracer, root: int) -> dict[str, float]:
    """Generator and matrix-writer seconds of one traced set-up."""
    out = {"synthetic.synth_s": 0.0, "io.write_matrix_s": 0.0}
    for idx in tr.descendants(root):
        sp = tr.spans[idx]
        if sp.name == "synth_gmp":
            out["synthetic.synth_s"] += sp.seconds
        elif sp.name == "write_matrix":
            out["io.write_matrix_s"] += sp.seconds
    return out


def per_layer(tr: Tracer, summaries: dict[str, list[dict]], extra: dict[str, float]):
    """Combine per-operation summaries into the per-layer metrics.

    A metric built from a span that is missing, or that never opened
    although every run should open it, is unmeasured (None). Times are medians over the operations that called the module (0.0
    when no operation did). Counters are exact and are taken from the
    first operation of each kind, summed over kinds: ``io.bytes_read`` is
    what one `rgsv compare` plus one `rgsv bounds` read. Throughput is
    total bytes over total read time. ``extra`` holds metrics measured
    outside the spans. Returns {name: (value or None, unit)}.
    """
    everything = [s for kind in summaries.values() for s in kind]
    unmeasured = tr.missing | (ALWAYS_CALLED - tr.called)
    metrics = {}
    for name, unit, _, deps in PER_LAYER:
        if deps & unmeasured:
            value = None
        elif name in extra:
            value = extra[name]
        elif name == "io.read_mb_per_s":
            secs = sum(s.get("io.read_seconds", 0.0) for s in everything)
            nbytes = sum(s.get("io.bytes_read", 0.0) for s in everything)
            value = nbytes / 1e6 / secs if secs else 0.0
        elif unit == "s":
            values = [s[name] for s in everything if name in s]
            value = statistics.median(values) if values else 0.0
        else:
            value = sum(kind[0].get(name, 0) for kind in summaries.values() if kind)
        metrics[name] = (value, unit)
    return metrics
