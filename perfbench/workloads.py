"""The benchmark's workloads and their correctness gates.

Every workload is a closed loop with one client in one process: the next
work item starts when the previous one has finished. A work item is a whole
``reconstruction`` scenario run through ``semidtn.cli.run`` on the recon
workloads, and one m=3 mixed divided difference's eight ``dtn_apply`` calls
on ``forward_n128``. Items run until the next one would end after
``seconds``; at least one always runs. A traced run does a fixed number of
items instead, so that its counts repeat exactly.

The program receives only generated inputs: a config written from a template
in ``configs/`` with the workload seed, or boundary traces drawn with it.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

import semidtn.cli as cli
from semidtn import (dtn, forward_solver, geometry, harmonic, linearization, potential,
                     reconstruction)

from tracer import ALL_LAYERS, GAUGE_WINDOW, PROBE_LAYERS, Tracer

CONFIGS = Path(__file__).resolve().parent / "configs"
ITEM, SETUP = "bench.item", "bench.setup"
SETUP_REPS = 3
# The forward workload's grid, family size, divided-difference step, and the
# number of divided differences a traced run does.
FORWARD_N, FORWARD_FAMILY, FORWARD_EPS, FORWARD_TRACE_ITEMS = 128, 12, 0.01, 4
# Tiny sizes for the harness's smoke test: every code path runs in seconds.
SMOKE_RECON = {"grid": {"n": "16"},
               "reconstruction": {"family_size": "6", "basis_per_side": "3",
                                  "rows_factor": "1"}}
SMOKE_FORWARD_N, SMOKE_FORWARD_FAMILY = 16, 6
# Acceptance criterion 3's tolerance for the m=3 divided difference against
# the cascade flux; the harness's own eps is half of that test's, so its gap
# is smaller still.
DD_GAP_TOL = 1e-2
RESIDUAL_TOL = 1e-11

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "measurements": "count",
    "measurements_per_s": "1/s",
    "measure_p50_ms": "ms",
    "measure_p90_ms": "ms",
    "rel_err_max": "ratio",
    "rel_err_mean": "ratio",
    "peak_rss_mb": "MB",
    "success_fraction": "ratio",
}



@dataclass
class RunResult:
    """What one run measured, before it is turned into metrics."""

    setup_s: list[float] = field(default_factory=list)
    item_s: list[float] = field(default_factory=list)
    item_measurements: list[int] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    errors: dict[str, list[float]] = field(default_factory=dict)  # accuracy figures
    gaps: list[float] = field(default_factory=list)  # forward: every item's dd gap
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layer_stats: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def all_errors(self) -> list[float]:
        return [v for values in self.errors.values() for v in values]


def _run_items(tracer: Tracer, seconds: float, fixed_items: int | None, work) -> int:
    """Closed loop: ``work(item)`` in a root span per item, until the next item
    would end after ``seconds`` of wall time, or ``fixed_items`` times."""
    start = time.perf_counter()
    lengths: list[float] = []
    while (len(lengths) < fixed_items if fixed_items is not None else
           not lengths or time.perf_counter() - start + statistics.fmean(lengths) <= seconds):
        t0 = time.perf_counter()
        with tracer.span(ITEM, len(lengths)):
            work(len(lengths))
        lengths.append(time.perf_counter() - t0)
    return len(lengths)


def _measurements_per_item(tracer: Tracer, items: int) -> list[int]:
    calls = Counter(tracer.requests[sid] for sid, name in enumerate(tracer.names)
                    if name == "dtn.dtn_apply")
    return [calls[item] for item in range(items)]


def _write_config(template: str, seed: int, smoke: bool, out: Path) -> Path:
    parser = configparser.ConfigParser()
    parser.read(CONFIGS / template)
    parser["experiment"]["seed"] = str(seed)
    parser["experiment"]["output_dir"] = str(out / "unused")
    if smoke:
        for section, values in SMOKE_RECON.items():
            parser[section].update(values)
    path = out / template
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def _setup(exprs: dict[int, str], n: int, s0: float, s1: float, family_size: int,
           basis_per_side: int | None):
    """Grid, arc, truth fields, harmonic family and (recon) coefficient basis."""
    grid = geometry.make_grid(n)
    mask = geometry.arc_mask(grid, s0, s1)
    truth = potential.PotentialSeries.from_coefficients(
        grid, {k: potential.sample_expression(e, grid) for k, e in exprs.items()})
    family = harmonic.arc_supported_family(mask, family_size, grid)
    if basis_per_side is not None:
        reconstruction.make_basis(basis_per_side, grid)
    return grid, mask, truth, family


def _timed_setups(tracer: Tracer, *args):
    """SETUP_REPS setups, each with gauge samples on both sides."""
    for _ in range(SETUP_REPS):
        tracer.sample_speed(GAUGE_WINDOW)
        with tracer.span(SETUP):
            built = _setup(*args)
    tracer.sample_speed(GAUGE_WINDOW)
    return built


# -- reconstruction workloads -------------------------------------------------

def _check_recon_outputs(out: Path, cfg, rc: int, measured: int, result: RunResult,
                         item: int) -> None:
    """Gate one scenario: exit 0, finite artifacts, and between one and
    (rows x 2^m summed over stages) measurements, which is exactly the count
    when every row takes its own divided difference."""
    if rc != 0:
        result.fail(f"item {item}: semidtn run exited {rc}")
        return
    try:
        with open(out / "stages.json") as fh:
            stages = json.load(fh)
    except (OSError, ValueError) as exc:
        result.fail(f"item {item}: stages.json unreadable: {exc}")
        return
    problems = []
    if [s.get("m") for s in stages] != list(range(2, cfg.kmax + 1)):
        problems.append(f"stages {[s.get('m') for s in stages]} for kmax {cfg.kmax}")
    most_measurements = 0  # one divided difference per row at most
    for stage in stages:
        m, rows = stage.get("m"), stage.get("rows")
        for key in ("lambda", "residual", "rel_error_vs_truth"):
            value = stage.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"stage {m}: {key} = {value!r}")
        if not isinstance(rows, int) or rows < 1:
            problems.append(f"stage {m}: rows = {rows!r}")
        elif isinstance(m, int):
            most_measurements += rows * 2 ** m
    if not 1 <= measured <= most_measurements:
        problems.append(f"{measured} measurements, expected 1..{most_measurements}")
    nodes = (cfg.n + 1) ** 2
    for m in range(2, cfg.kmax + 1):
        path = out / f"coefficient_k{m}.csv"
        try:
            with open(path, newline="") as fh:
                lines = list(csv.reader(fh))
        except OSError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        try:
            values = np.array(lines[1:], dtype=float).reshape(len(lines) - 1, -1)
        except ValueError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if values.shape != (nodes, 4) or not np.all(np.isfinite(values)):
            problems.append(f"{path.name}: shape {values.shape} or non-finite values")
    if problems:
        result.fail(f"item {item}: " + "; ".join(problems))
        return
    for stage in stages:
        result.errors.setdefault(f"v{stage['m']}_rel_err", []).append(
            stage["rel_error_vs_truth"])


def run_recon(template: str, seed: int, seconds: float, trace: bool, smoke: bool,
              scratch: Path) -> tuple[RunResult, Tracer]:
    """Run the scenario of a configs/ template through ``semidtn.cli.run``."""
    result = RunResult()
    config_path = _write_config(template, seed, smoke, scratch)
    cfg = cli.load_config(config_path)
    tracer = Tracer(ALL_LAYERS if trace else PROBE_LAYERS, cfg.n - 1)
    exit_codes = []

    def scenario(item: int) -> None:
        previous = os.environ.get(cli.OUTPUT_DIR_ENV)
        os.environ[cli.OUTPUT_DIR_ENV] = str(scratch / f"item{item}")
        try:
            exit_codes.append(cli.run(config_path))
        finally:
            if previous is None:
                del os.environ[cli.OUTPUT_DIR_ENV]
            else:
                os.environ[cli.OUTPUT_DIR_ENV] = previous

    with tracer:
        _timed_setups(tracer, cfg.potential_exprs, cfg.n, cfg.s0, cfg.s1,
                      cfg.family_size, cfg.basis_per_side)
        items = _run_items(tracer, seconds, 1 if trace else None, scenario)
    result.item_measurements = _measurements_per_item(tracer, items)
    for item, (rc, measured) in enumerate(zip(exit_codes, result.item_measurements)):
        result.attempted += 1
        _check_recon_outputs(scratch / f"item{item}", cfg, rc, measured, result, item)
    return result, tracer


# -- forward workload ----------------------------------------------------------

def _forward_inputs(family_size: int, seed: int):
    """Triples of distinct family members, in the order they are used.

    The first is always members (0, 1, 2): its divided-difference gap is the
    run's accuracy figure, which therefore does not move with the seed (the
    gap of a drawn triple varies fivefold between triples). The rest are
    drawn with the seed.
    """
    yield [0, 1, 2]
    rng = np.random.default_rng(seed)
    while True:
        yield sorted(rng.choice(family_size, size=3, replace=False).tolist())


def run_forward(seed: int, seconds: float, trace: bool, smoke: bool,
                scratch: Path) -> tuple[RunResult, Tracer]:
    """Repeated ``dtn_apply`` on the half arc with recon_half_k3's V2 and V3."""
    result = RunResult()
    exprs = cli.load_config(CONFIGS / "recon_half_k3.cfg").potential_exprs
    n, family_size = ((SMOKE_FORWARD_N, SMOKE_FORWARD_FAMILY) if smoke
                      else (FORWARD_N, FORWARD_FAMILY))
    tracer = Tracer(ALL_LAYERS if trace else PROBE_LAYERS, n - 1)
    done = []  # (item, traces, outputs, reports) of every item whose 8 solves ran

    def divided_difference(item: int) -> None:
        fs = [family[i].trace for i in next(triples)]
        outputs, reports = [], []
        try:
            for signs in product((-1.0, 1.0), repeat=3):
                trace_in = FORWARD_EPS * sum(s * f for s, f in zip(signs, fs))
                sample = dtn.dtn_apply(truth, trace_in, mask, grid)
                outputs.append(sample.output)
                reports.append(sample.report)
        except forward_solver.SolverError as exc:
            result.fail(f"item {item}: {type(exc).__name__}: {exc}")
            return
        done.append((item, fs, outputs, reports))

    with tracer:
        grid, mask, truth, family = _timed_setups(tracer, exprs, n, 0.0, 2.0,
                                                  family_size, None)
        triples = _forward_inputs(len(family), seed)
        items = _run_items(tracer, seconds, FORWARD_TRACE_ITEMS if trace else None,
                           divided_difference)
    result.attempted = items
    result.item_measurements = _measurements_per_item(tracer, items)
    # correctness gate, outside the timed and traced region
    for item, fs, outputs, reports in done:
        _check_forward_item(item, truth, fs, outputs, reports, mask, grid, result)
    return result, tracer


def _check_forward_item(item, truth, fs, outputs, reports, mask, grid,
                        result: RunResult) -> None:
    bad = [r for r in reports if not (r.converged and r.final_residual <= RESIDUAL_TOL)]
    dd = np.zeros(grid.num_boundary)
    for signs, out in zip(product((-1.0, 1.0), repeat=3), outputs):
        dd += np.prod(signs) * out
    dd /= (2.0 * FORWARD_EPS) ** 3
    state = linearization.run_cascade(truth, fs, grid)
    flux = dtn.normal_derivative(state.field(range(3)), grid)
    on_arc = mask.flags
    scale = float(np.max(np.abs(flux[on_arc])))
    gap = float(np.max(np.abs((dd - flux)[on_arc]))) / scale if scale > 0 else math.inf
    problems = []
    if bad:
        problems.append(f"{len(bad)} solves unconverged or residual > {RESIDUAL_TOL}")
    if not math.isfinite(gap) or gap > DD_GAP_TOL:
        problems.append(f"dd_rel_gap {gap!r} not finite or > {DD_GAP_TOL}")
    if problems:
        result.fail(f"item {item}: " + "; ".join(problems))
    else:
        result.gaps.append(gap)
        if item == 0:
            result.errors["dd_rel_gap"] = [gap]


WORKLOADS = {
    "forward_n128": run_forward,
    "recon_half_k3": partial(run_recon, "recon_half_k3.cfg"),
    "recon_full_k4_n32": partial(run_recon, "recon_full_k4_n32.cfg"),
}


# -- metrics -------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 scratch: Path, import_s: float) -> tuple[dict, RunResult]:
    """Run one workload; ``import_s`` is the CPU time the import took."""
    result, tracer = WORKLOADS[name](seed, seconds, trace, smoke, scratch)
    result.setup_s = tracer.scaled_spans(SETUP)
    result.item_s = tracer.scaled_spans(ITEM)
    result.latencies_s = tracer.scaled_latencies()
    if trace:
        result.layer_stats = tracer.layer_stats()
        result.layer_stats["trace.cpu_s"] = statistics.median(result.item_s)
        tracer.write_spans(scratch.parent / f"spans-{name}-seed{seed}.json")
    return end_to_end(result, import_s), result


def end_to_end(result: RunResult, import_s: float) -> dict[str, float]:
    latencies_ms = np.array(result.latencies_s) * 1e3
    errors = result.all_errors()
    measured_s = sum(result.item_s)
    return {
        "cpu_s": statistics.median(result.item_s),
        "setup_s": import_s + statistics.median(result.setup_s),
        "measurements": statistics.median(result.item_measurements),
        "measurements_per_s": sum(result.item_measurements) / measured_s,
        "measure_p50_ms": float(np.percentile(latencies_ms, 50)) if latencies_ms.size else 0.0,
        "measure_p90_ms": float(np.percentile(latencies_ms, 90)) if latencies_ms.size else 0.0,
        # with no accuracy figure every item failed, and the run reports so
        "rel_err_max": max(errors) if errors else 0.0,
        "rel_err_mean": statistics.fmean(errors) if errors else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_fraction": 1.0 - result.failed / result.attempted,
    }
