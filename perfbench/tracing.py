"""Span recorder and the wrappers that the traced run installs around each layer.

Everything here is installed from the benchmark's side: the program under
test is not modified.  A wrapper records one span per call (name, start,
end, parent span) plus counts, in memory; the worker writes them out once
the round ends and ``per_layer_metrics`` reduces them to the per-layer
metrics named in BENCHMARK.json.

Only the standard library is imported at module level, so the parent
process (run.py) can reduce spans without importing numpy.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2", "hfft2", "ihfft2")
FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn", "hfftn", "ihfftn")
# transforms whose output lives on the physical (real) lattice: the physical
# length of the last transformed axis defaults to 2 (m - 1)
_REAL_OUTPUT = ("irfft", "irfft2", "irfftn", "hfft", "hfft2", "hfftn")


class Recorder:
    """In-memory spans and counters; thread-safe, one parent stack per thread."""

    def __init__(self) -> None:
        self.active = True
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, *, count=None, memory: str | None = None):
        """Wrap fn in a span.

        name is a string or a callable (args, kwargs) -> str; count, when
        given, is called as count(counters, args, kwargs, result) under the
        lock; memory names a peak (MB, tracemalloc) recorded around the call.
        """

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, parent, label, start, end))
                    if memory:
                        self.peaks[memory] = max(self.peaks.get(memory, 0.0), peak)
            if count is not None:
                with self._lock:
                    count(self.counters, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def dump(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
            "peaks": dict(self.peaks),
        }


# ---------------------------------------------------------------------------
# numerical-library wrappers (installed before frequalize is imported)


def _fft_extent(kind: str, shape: tuple, args: tuple, kwargs: dict) -> tuple[int, int]:
    """(component transforms, lattice points) of one FFT call, computed from shapes."""
    ndim = len(shape)
    if kind in FFT_1D:
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        axes, sizes = [axis % ndim], None if n is None else [n]
    else:
        s = kwargs.get("s", args[1] if len(args) > 1 else None)
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            if s is not None:
                axes = range(ndim - len(s), ndim)
            else:
                axes = (ndim - 2, ndim - 1) if kind in FFT_2D else range(ndim)
        axes = [a % ndim for a in axes]
        sizes = None if s is None else list(s)
    if sizes is None:
        sizes = [shape[a] for a in axes]
        if kind in _REAL_OUTPUT:
            sizes[-1] = 2 * (sizes[-1] - 1)
    batch = math.prod(shape[a] for a in range(ndim) if a not in axes)
    return batch, batch * math.prod(sizes)


def _count_fft(kind: str):
    def count(counters, args, kwargs, result):
        shape = tuple(getattr(args[0] if args else kwargs.get("x", kwargs.get("a")), "shape", ()))
        batch, points = _fft_extent(kind, shape, args, kwargs)
        counters["fft.calls"] += 1
        counters["fft.component_transforms"] += batch
        counters["fft.points"] += points

    return count


def _count_eig(counters, args, kwargs, result):
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    counters["linalg.eig.calls"] += 1
    counters["linalg.eig.matrices"] += math.prod(shape[:-2])


def install_library_wrappers(rec: Recorder) -> None:
    """FFT entry points of numpy.fft and scipy.fft, numpy.linalg.eig, scipy.linalg.expm.

    Installed on the package namespaces before frequalize is imported, so
    a module that switches FFT library is still counted.  Library-internal
    calls go through private modules and are not counted twice.
    """
    import numpy.fft
    import numpy.linalg
    import scipy.fft
    import scipy.linalg

    for module in (numpy.fft, scipy.fft):
        for kind in FFT_1D + FFT_2D + FFT_ND:
            fn = getattr(module, kind, None)
            if fn is not None:
                setattr(module, kind, rec.wrap("fft", fn, count=_count_fft(kind)))
    numpy.linalg.eig = rec.wrap("linalg.eig", numpy.linalg.eig, count=_count_eig)
    scipy.linalg.expm = rec.wrap("linalg.expm", scipy.linalg.expm)


# ---------------------------------------------------------------------------
# frequalize layer wrappers (installed after import, on every module binding)


def _rebind(original, wrapper) -> None:
    """Replace every frequalize module attribute bound to original."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "frequalize" or mod_name.startswith("frequalize."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _besov_label(args, kwargs) -> str:
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return "besov.besov_norm.p2" if spec.p == 2.0 else "besov.besov_norm.lp"


def _count_samples(counters, args, kwargs, result) -> None:
    counters["solver.integrate.samples_kept"] += len(result.states)


def install_layer_wrappers(rec: Recorder) -> None:
    import frequalize.besov as besov
    import frequalize.decay_kernel as decay_kernel
    import frequalize.grid as grid
    import frequalize.harness as harness
    import frequalize.io as fio
    import frequalize.linear_modes as linear_modes
    import frequalize.littlewood_paley as littlewood_paley
    import frequalize.solver as solver

    plain = {
        "solver.rhs_eval": solver.rhs_eval,
        "solver.nonlinear_fluxes": solver.nonlinear_fluxes,
        "solver.step": solver.step,
        "solver.initial_data_gen": solver.initial_data_gen,
        "solver.constraint_monitor": solver.constraint_monitor,
        "solver.duhamel_check": solver.duhamel_check,
        "besov.energy_functionals": besov.energy_functionals,
        "grid.spectral_l2_norm": grid.spectral_l2_norm,
        "grid.inverse_transform": grid.inverse_transform,
        "grid.lp_norm": grid.lp_norm,
        "littlewood_paley.block_multiplier": littlewood_paley.block_multiplier,
        "littlewood_paley.bernstein_extremes": littlewood_paley.bernstein_extremes,
        "decay_kernel.verify_inequality": decay_kernel.verify_inequality,
        "decay_kernel.tail_divergence_scan": decay_kernel.tail_divergence_scan,
        "linear_modes.gap_sweep": linear_modes.gap_sweep,
        "linear_modes.pointwise_decay_check": linear_modes.pointwise_decay_check,
        "harness.artifacts": harness.write_csv,
        "io.dump_field": fio.dump_field,
        "io.load_field": fio.load_field,
    }
    for name, fn in plain.items():
        _rebind(fn, rec.wrap(name, fn))
    _rebind(harness.write_json, rec.wrap("harness.artifacts", harness.write_json))
    _rebind(besov.besov_norm, rec.wrap(_besov_label, besov.besov_norm))
    _rebind(
        solver.integrate,
        rec.wrap("solver.integrate", solver.integrate, count=_count_samples,
                 memory="solver.integrate.peak_mb"),
    )

    cev, gmp = linear_modes.ContinuumEvolver, linear_modes.GridModePropagator
    cev.__init__ = rec.wrap("linear_modes.ContinuumEvolver.build", cev.__init__)
    cev.norms = rec.wrap("linear_modes.ContinuumEvolver.norms", cev.norms)
    gmp.__init__ = rec.wrap("linear_modes.GridModePropagator.build", gmp.__init__,
                            memory="linear_modes.GridModePropagator.build_peak_mb")
    gmp.apply = rec.wrap("linear_modes.GridModePropagator.apply", gmp.apply)


# ---------------------------------------------------------------------------
# reduction of spans to per-layer metrics


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children = defaultdict(list)
    for span_id, parent, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


COUNTERS = (
    "fft.calls", "fft.component_transforms", "fft.points",
    "linalg.eig.calls", "linalg.eig.matrices", "solver.integrate.samples_kept",
)
PEAKS = ("solver.integrate.peak_mb", "linear_modes.GridModePropagator.build_peak_mb")


def per_layer_metrics(trace: dict, names) -> dict[str, float]:
    """Reduce one round's spans and counters to the requested metric names.

    Counters and memory peaks are read as recorded.  Otherwise
    ``<span>.calls`` counts spans, ``<span>.self_s`` sums their self times,
    ``<span>.s`` sums their durations and ``<span>_s`` (as in
    ``besov.besov_norm.p2_s``) sums the durations of span ``<span>``.
    Layers a workload never enters read 0.
    """
    spans = [tuple(s) for s in trace["spans"]]
    selfs = _self_times(spans)
    calls, total, self_total = Counter(), defaultdict(float), defaultdict(float)
    for span_id, _, name, start, end in spans:
        labels = {name, name.rsplit(".", 1)[0]} if name.startswith("besov.besov_norm.") else {name}
        for label in labels:
            calls[label] += 1
            total[label] += end - start
            self_total[label] += selfs[span_id]
    out = {}
    for metric in names:
        if metric in COUNTERS:
            out[metric] = trace["counters"].get(metric, 0)
        elif metric in PEAKS:
            out[metric] = trace["peaks"].get(metric, 0.0)
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[: -len(".calls")]]
        elif metric.endswith(".self_s"):
            out[metric] = self_total[metric[: -len(".self_s")]]
        elif metric.endswith(".s"):
            out[metric] = total[metric[: -len(".s")]]
        elif metric.endswith("_s"):
            out[metric] = total[metric[: -len("_s")]]
        else:
            raise KeyError(f"no reduction for per-layer metric {metric!r}")
    return out
