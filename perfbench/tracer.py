"""Span tracer that wraps semidtn's public functions from outside the package,
and the speed gauge that turns its CPU times into steady figures.

A layer is named ``<module>.<function>`` after the module that defines the
function (``sparse_linalg.solve_spd``). Installing a tracer replaces the
function at every ``semidtn.*`` module attribute that refers to it, because
callers resolve imported names through their own module
(``semidtn.forward_solver.solve_spd``, ``semidtn.cli.dtn_apply``, ...).
Uninstalling puts the originals back.

Each call records a span (name, start, end, parent, request). Spans stay in
memory; ``layer_stats`` turns them into per-layer counts, busy time
(inclusive) and self time (busy minus the time covered by child spans).
A few layers also record counts where the work happens: CG iterations
through the ``callback`` that ``solve_spd`` accepts, Newton iterations from
the returned ``SolveReport``, moment-system rows, and the heads of the
divided differences behind each moment.

Timing. Span times are CPU time of the benchmark's one-threaded process. On
a shared virtual machine even CPU time is not steady: identical ``dtn_apply``
calls took anywhere from 6 to 32 ms within a few minutes, as the host moved
the core's speed. So before every ``dtn_apply`` call, and around each setup
repetition, the tracer times a gauge: 16 conjugate-gradient steps on the
five-point Laplacian of the workload's own interior grid, the same work and
working set as the program's linear solves. Over those minutes the ratio of
the calls' time to the gauge's stayed within 3%. Every reported time is the
CPU time of its interval, less the gauge samples inside it, times the
gauge's reference time over the mean gauge time measured with it: seconds
on the machine the benchmark was defined on, at the speed it ran most of
the time (2 cores, Python 3.11, numpy 2.4, scipy 1.17).
"""

from __future__ import annotations

import bisect
import inspect
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import process_time as cpu_time

import numpy as np
import scipy.sparse as sp

ALL_LAYERS = (
    "sparse_linalg.solve_spd",
    "sparse_linalg.assemble",
    "forward_solver.harmonic_extension",
    "forward_solver.solve_linear",
    "forward_solver.solve_semilinear",
    "dtn.dtn_apply",
    "linearization.measured_linearized_flux",
    "linearization.run_cascade",
    "harmonic.arc_supported_family",
    "reconstruction.measured_moment",
    "reconstruction.assemble_system",
    "reconstruction.solve_coefficients",
    "reconstruction.solution_operator_norm",
    "cli.run",
)
# The probe used with tracing off: only the unit of cost is timed.
PROBE_LAYERS = ("dtn.dtn_apply",)
# Entry points whose self time is glue and artifact writing, not a layer's work.
ENTRY_LAYERS = ("cli.run",)
GAUGE = "bench.gauge"
GAUGE_ITERATIONS = 16
# Gauge time on the reference machine, by interior nodes per side (n - 1).
GAUGE_REFERENCE_S = {15: 3.5e-4, 31: 4.6e-4, 63: 9.0e-4, 127: 3.5e-3}
GAUGE_WINDOW = 8  # samples on each side averaged for one call's speed

_EXTRA_COUNTS = {
    "sparse_linalg.solve_spd": ("cg_iterations",),
    "forward_solver.solve_semilinear": ("newton_iterations",),
    "dtn.dtn_apply": ("failed", "cg_iterations"),
    "reconstruction.assemble_system": ("rows",),
}


def stat_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for layer in ALL_LAYERS:
        for stat in ("calls", "busy_s", "self_s") + _EXTRA_COUNTS.get(layer, ()):
            units[f"{layer}.{stat}"] = "s" if stat.endswith("_s") else "count"
    units["reconstruction.distinct_head_ratio"] = "ratio"
    units["trace.cpu_s"] = "s"  # the traced run's cpu_s, filled in by the workload
    units["trace.attributed_share"] = "ratio"
    units["trace.spans"] = "count"
    return units


class _Gauge:
    """The fixed reference computation: unpreconditioned CG steps."""

    def __init__(self, m: int):
        ones = np.ones(m)
        second = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
        eye = sp.identity(m)
        self.matrix = (sp.kron(eye, second) + sp.kron(second, eye)).tocsr()
        self.rhs = np.linspace(0.0, 1.0, m * m)

    def __call__(self) -> None:
        x = np.zeros_like(self.rhs)
        r = self.rhs.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(GAUGE_ITERATIONS):
            ap = self.matrix @ p
            alpha = rr / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            rr_new = r @ r
            p = r + (rr_new / rr) * p
            rr = rr_new


class Tracer:
    """Records spans for the given layers while installed (a context manager)."""

    def __init__(self, layers, gauge_nodes: int):
        self.layers = tuple(layers)
        self.names: list[str] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.heads: list[tuple[int, tuple]] = []  # (m, head key) per moment
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple[object, str, object]] = []
        self._gauge = _Gauge(gauge_nodes)
        self._reference_s = GAUGE_REFERENCE_S[gauge_nodes]
        for _ in range(GAUGE_WINDOW):  # the first calls pay one-time costs
            self._gauge()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import semidtn  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "semidtn" or name.startswith("semidtn."))]
        for layer in self.layers:
            mod_name, func_name = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"semidtn.{mod_name}"], func_name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(cpu_time())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = cpu_time()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, request_id: int | None = None):
        """A span of the benchmark's own; with ``request_id``, the root span
        of one work item, whose nested spans carry that id."""
        previous = self._request
        if request_id is not None:
            self._request = request_id
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)
            self._request = previous

    def sample_speed(self, samples: int = 1) -> None:
        for _ in range(samples):
            sid = self._open(GAUGE)
            self._gauge()
            self._close(sid)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, func):
        tracer = self
        signature = inspect.signature(func)
        counts = self.counts
        # the SolverError family lives in sparse_linalg; NewtonError subclasses it
        solver_error = sys.modules["semidtn.sparse_linalg"].SolverError

        def wrapper(*args, **kwargs):
            if layer == "dtn.dtn_apply":
                tracer.sample_speed()
            sid = tracer._open(layer)
            try:
                if layer == "sparse_linalg.solve_spd":
                    bound = signature.bind(*args, **kwargs)
                    user_callback = bound.arguments.get("callback")
                    iterations = 0

                    def callback(x):
                        nonlocal iterations
                        iterations += 1
                        if user_callback is not None:
                            user_callback(x)

                    bound.arguments["callback"] = callback
                    try:
                        return func(*bound.args, **bound.kwargs)
                    finally:
                        counts[f"{layer}.cg_iterations"] += iterations
                        if tracer._inside("dtn.dtn_apply"):
                            counts["dtn.dtn_apply.cg_iterations"] += iterations
                if layer == "reconstruction.measured_moment":
                    bound = signature.bind(*args, **kwargs)
                    members = bound.arguments["members"] = tuple(bound.arguments["members"])
                    tracer.heads.append((len(members) - 1,
                                         tuple(mem.provenance for mem in members[:-1])))
                    args, kwargs = bound.args, bound.kwargs
                result = func(*args, **kwargs)
                if layer == "forward_solver.solve_semilinear":
                    counts[f"{layer}.newton_iterations"] += result[1].iterations
                elif layer == "reconstruction.assemble_system":
                    counts[f"{layer}.rows"] += result.rows
                return result
            except solver_error:
                if layer == "dtn.dtn_apply":
                    counts[f"{layer}.failed"] += 1
                raise
            finally:
                tracer._close(sid)

        wrapper.__wrapped__ = func
        return wrapper

    def _inside(self, layer: str) -> bool:
        return any(self.names[sid] == layer for sid in self._stack)

    # -- scaled times -------------------------------------------------------

    def _gauge_samples(self) -> tuple[list[float], list[float]]:
        starts, lengths = [], []
        for name, start, end in zip(self.names, self.starts, self.ends):
            if name == GAUGE:
                starts.append(start)
                lengths.append(end - start)
        return starts, lengths

    def scaled(self, start: float, end: float) -> float:
        """CPU time from ``start`` to ``end`` without the gauge samples inside
        it, scaled by those samples (or, with none inside, the nearest)."""
        starts, lengths = self._gauge_samples()
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        inside = lengths[lo:hi]
        near = inside or lengths[max(0, lo - GAUGE_WINDOW):lo + GAUGE_WINDOW]
        return (end - start - sum(inside)) * self._reference_s / statistics.fmean(near)

    def scaled_spans(self, name: str) -> list[float]:
        return [self.scaled(self.starts[sid], self.ends[sid])
                for sid, n in enumerate(self.names) if n == name]

    def scaled_latencies(self, layer: str = "dtn.dtn_apply") -> list[float]:
        """Each call's time, scaled by the gauge samples taken next to it."""
        starts, lengths = self._gauge_samples()
        out = []
        for sid in (sid for sid, n in enumerate(self.names) if n == layer):
            i = bisect.bisect_left(starts, self.starts[sid])
            near = lengths[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW]
            out.append((self.ends[sid] - self.starts[sid]) * self._reference_s
                       / statistics.fmean(near))
        return out

    # -- reports ------------------------------------------------------------

    def layer_stats(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded.

        Times are scaled by the mean gauge sample of the whole run. The
        attributed share is the self time of program layers (entry points
        excluded) spent inside work items, over the time of the work items;
        gauge samples are left out of both.
        """
        child_time = [0.0] * len(self.names)
        gauge_time = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[sid] - self.starts[sid]
            if self.names[sid] == GAUGE:
                length = self.ends[sid] - self.starts[sid]
                while parent >= 0:
                    gauge_time[parent] += length
                    parent = self.parents[parent]
        factor = self._reference_s / statistics.fmean(self._gauge_samples()[1])
        stats: dict[str, float] = {}
        for layer in self.layers:
            stats[f"{layer}.calls"] = 0
            stats[f"{layer}.busy_s"] = 0.0
            stats[f"{layer}.self_s"] = 0.0
            for extra in _EXTRA_COUNTS.get(layer, ()):
                stats[f"{layer}.{extra}"] = self.counts.get(f"{layer}.{extra}", 0)
        attributed = work = 0.0
        for sid, name in enumerate(self.names):
            duration = self.ends[sid] - self.starts[sid]
            if self.parents[sid] < 0 and self.requests[sid] >= 0:
                work += duration - gauge_time[sid]
            if name not in self.layers:
                continue
            own = duration - child_time[sid]
            stats[f"{name}.calls"] += 1
            stats[f"{name}.busy_s"] += (duration - gauge_time[sid]) * factor
            stats[f"{name}.self_s"] += own * factor
            if self.requests[sid] >= 0 and name not in ENTRY_LAYERS:
                attributed += own
        stats["reconstruction.distinct_head_ratio"] = self.distinct_head_ratio()
        stats["trace.attributed_share"] = attributed / work if work > 0 else 0.0
        stats["trace.spans"] = len(self.names)
        return stats

    def distinct_head_ratio(self) -> float:
        """Measurements a compute-each-flux-once design needs over those made.

        A moment of order m takes one mixed divided difference (2^m
        measurements) of its first m members, its head. Weighting each head
        by 2^m gives the share of measurements that belong to distinct heads;
        0 when no moment was computed.
        """
        made = sum(2 ** m for m, _ in self.heads)
        distinct = sum(2 ** m for m, _ in set(self.heads))
        return distinct / made if made else 0.0

    def write_spans(self, path) -> None:
        """Write every span as [name, start, end, parent, request]."""
        rows = [[n, s, e, p, r] for n, s, e, p, r in
                zip(self.names, self.starts, self.ends, self.parents, self.requests)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
