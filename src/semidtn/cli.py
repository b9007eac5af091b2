"""Config-driven experiment runner.

Configs are flat key = value text files with sections (INI style, parsed by
configparser); see README for the full key reference. A config may set only
keys its scenario reads (READS), and the run's manifest holds their resolved
values. Same config + same seed gives byte-identical outputs.

Exit codes: 0 success, 1 scenario failure, 2 config parse/validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dtn import bump_trace, measurement, normal_derivative
from .forward_solver import DEFAULT_SMALLNESS_RADIUS, solve_semilinear
from .geometry import ArcMask, Grid2D, arc_mask, interior_integral, make_grid
from .harmonic import HarmonicMember, arc_supported_family
from .linearization import (MAX_ORDER, check_difference_gate, measured_linearized_flux,
                            run_cascade)
from .potential import PotentialSeries, sample_expression
from .reconstruction import ReconstructionConfig, measured_moment, reconstruct_all

OUTPUT_DIR_ENV = "SEMIDTN_OUTPUT_DIR"

# The coefficient orders a [potential] key may name (the forward model
# solves any order; kmax, the highest order differentiated, stops at MAX_ORDER).
POTENTIAL_ORDERS = range(2, 9)
REQUIRED = object()

# Every config key, in the order load_config reads them (the README key
# table): (section, key) -> (cast, default, check, rule). A REQUIRED key
# has no default; a callable default is computed from the values read
# before it. A check is a predicate on the value and the values read before
# it (None accepts any), and rule says what it accepts. The caps keep a
# config from making a run allocate or measure without limit (the shipped
# configs use family_size 12, basis_per_side 6 and rows_factor 3), and every
# sample a scenario takes stays within the smallness radius.
KEYS = {
    ("experiment", "scenario"): (str, REQUIRED, lambda s, _: s in SCENARIOS,
                                 "a name that `semidtn list-scenarios` prints"),
    ("experiment", "output_dir"): (str, REQUIRED, None, "a directory"),
    ("experiment", "seed"): (int, 0, lambda s, _: s >= 0, "an integer >= 0"),
    ("grid", "n"): (int, 64, lambda n, v: 8 <= n <= (
        64 if v["scenario"] == "forward_convergence" else 256),
        "an integer in [8, 256], and at most 64 for forward_convergence, "
        "which also solves on 2n and 4n"),
    ("arc", "s0"): (float, 0.0, lambda s, _: 0.0 <= s < 4.0, "in [0, 4)"),
    ("arc", "s1"): (float, 4.0, lambda s, v: 0.0 < s - v["s0"] <= 4.0, "above s0 by at most 4"),
    **{("potential", f"k{k}"): (str, None, None, "a coefficient expression")
       for k in POTENTIAL_ORDERS},
    ("reconstruction", "kmax"): (
        int, lambda v: min(max((k for k in POTENTIAL_ORDERS if v[f"k{k}"] is not None),
                               default=2), MAX_ORDER),
        lambda k, _: 2 <= k <= MAX_ORDER, f"an integer in [2, {MAX_ORDER}]"),
    # identity_check may repeat a member kmax times, so an order-kmax
    # difference (a bump of peak 1) reaches kmax eps; the reconstruction
    # measures along mean directions up to t = 3 eps
    ("measurement", "eps"): (
        float, 0.01, lambda e, v: 0.0 < e <= 0.05 and DEFAULT_SMALLNESS_RADIUS >= e * {
            "identity_check": v["kmax"], "reconstruction": 3}.get(v["scenario"], 1),
        f"in (0, 0.05], with kmax eps (identity_check) and 3 eps (reconstruction) "
        f"at most the smallness radius {DEFAULT_SMALLNESS_RADIUS}"),
    ("measurement", "noise_sigma"): (float, 0.0, lambda s, _: 0.0 <= s < math.inf,
                                     "finite and >= 0"),
    ("reconstruction", "family_size"): (int, 12, lambda k, _: 1 <= k <= 32,
                                        "an integer in [1, 32]"),
    ("reconstruction", "basis_per_side"): (int, 6, lambda k, _: 2 <= k <= 12,
                                           "an integer in [2, 12]"),
    ("reconstruction", "rows_factor"): (int, 3, lambda k, _: 1 <= k <= 10,
                                        "an integer in [1, 10]"),
    ("reconstruction", "lambda"): (lambda raw: None if raw in ("auto", "") else float(raw),
                                   None, lambda w, _: w is None or 0.0 <= w < math.inf,
                                   "'auto' or a finite number >= 0"),
    ("extras", "tuples"): (int, 20, lambda t, _: 1 <= t <= 1000, "an integer in [1, 1000]"),
    ("extras", "bump_amplitude"): (
        float, 0.05, lambda a, _: 0.0 < abs(a) <= DEFAULT_SMALLNESS_RADIUS,
        f"nonzero with magnitude at most the smallness radius {DEFAULT_SMALLNESS_RADIUS}"),
    # 0.3 of the arc keeps the bump shoulders resolved on the coarsest grid;
    # the width is capped at half the boundary walk
    ("extras", "bump_width"): (float, lambda v: min(0.3 * (v["s1"] - v["s0"]), 0.45),
                               lambda w, _: 0.0 < w <= 2.0, "in (0, 2]"),
}

# Printed by run and validate for a reconstruction config with noise_sigma > 0;
# the noise gains are pinned by test_polarized_flux_noise_gain.
NOISE_WARNING = ("the reconstruction stages polarize directional Taylor coefficients, "
                 "which carry about 3.5x (order 2), 7x (order 3) and 60x (order 4) "
                 "the measurement noise of a 2^m-point divided difference; at "
                 "noise_sigma 1e-9 the half-arc order-3 error exceeds 1 (see the ROADMAP "
                 "item 'Make every stage honest under noise')")


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """The values of the KEYS table, and as ``manifest`` those of the keys
    the scenario reads, under their KEYS names."""

    scenario: str
    output_dir: str
    seed: int
    n: int
    s0: float
    s1: float
    potential_exprs: dict[int, str]
    kmax: int
    eps: float
    noise_sigma: float
    family_size: int
    basis_per_side: int
    rows_factor: int
    lam: float | None
    tuples: int
    bump_amplitude: float
    bump_width: float
    manifest: dict[str, object]


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config against KEYS and READS; raises ConfigError."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        given = {(section, key): parser[section][key]
                 for section in parser.sections() for key in parser[section]}
    except configparser.InterpolationError as exc:  # a stray '%' in a value
        raise ConfigError(f"[{exc.section}] {exc.option}: {exc.message}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = dict.fromkeys(section for section, _ in KEYS)
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]; choose from {', '.join(sections)}")
    for section, key in given:
        if (section, key) not in KEYS:
            raise ConfigError(f"unknown key [{section}] {key}; choose from "
                              f"{', '.join(k for s, k in KEYS if s == section)}")
    if env_dir := os.environ.get(OUTPUT_DIR_ENV):
        given["experiment", "output_dir"] = env_dir

    values: dict[str, object] = {}
    for (section, key), (cast, default, check, rule) in KEYS.items():
        raw = given.get((section, key))
        if raw is None and default is REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        try:
            value = cast(raw) if raw is not None else \
                default(values) if callable(default) else default
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {raw!r}: must be {rule}") from None
        if check is not None and not check(value, values):
            raise ConfigError(f"[{section}] {key} = {value if raw is None else raw!r}: "
                              f"must be {rule}")
        values[key] = value
        if key == "scenario":  # a key the scenario ignores would be a silent no-op
            if ignored := [f"[{s}] {k}" for s, k in given if k not in READS[value]]:
                raise ConfigError(f"{ignored[0]} is not read by scenario {value}")
    manifest = {key: value for key, value in values.items() if key in READS[values["scenario"]]}
    exprs = {k: values.pop(f"k{k}") for k in POTENTIAL_ORDERS}
    return ExperimentConfig(
        potential_exprs={k: expr for k, expr in exprs.items() if expr is not None},
        lam=values.pop("lambda"), manifest=manifest, **values)


def _truth_series(cfg: ExperimentConfig, grid: Grid2D) -> PotentialSeries:
    fields = {}
    for k, expr in cfg.potential_exprs.items():
        try:
            fields[k] = sample_expression(expr, grid)
        except ValueError as exc:
            raise ConfigError(f"[potential] k{k} = {expr!r}: {exc}") from None
    return PotentialSeries.from_coefficients(grid, fields)


@dataclass(frozen=True)
class _Setup:
    """The grid, arc, truth and harmonic family (None for forward_convergence,
    which uses none) that a scenario runs on."""

    grid: Grid2D
    mask: ArcMask
    truth: PotentialSeries
    family: tuple[HarmonicMember, ...] | None


def _prepare(config_path: str | Path) -> tuple[ExperimentConfig, _Setup]:
    """Parse the config and build what its scenario runs on, so that every
    input the run would reject fails here, before anything is written.
    Raises ConfigError, naming the keys behind each check made here: the
    expression, arc and family builders' own checks, and the smallness gate
    of every linearization_check difference. A noisy reconstruction config
    passes with ``NOISE_WARNING`` on stderr."""
    cfg = load_config(config_path)
    grid = make_grid(cfg.n)
    truth = _truth_series(cfg, grid)
    try:
        mask = arc_mask(grid, cfg.s0, cfg.s1)
        if cfg.scenario == "forward_convergence":
            family = None
        else:
            size = cfg.kmax if cfg.scenario == "linearization_check" else cfg.family_size
            family = arc_supported_family(mask, size, grid)
    except ValueError as exc:
        raise ConfigError(f"[arc] s0 = {cfg.s0!r}, s1 = {cfg.s1!r} with [grid] n = {cfg.n}: "
                          f"{exc}") from None
    if cfg.scenario == "linearization_check":
        for m, fs, eps in _linearization_differences(cfg, family):
            try:
                check_difference_gate(fs, eps)
            except ValueError as exc:
                raise ConfigError(f"[measurement] eps = {cfg.eps!r}: order-{m} difference: "
                                  f"{exc}") from None
    if cfg.scenario == "reconstruction" and cfg.noise_sigma > 0.0:
        print(json.dumps({"warning": NOISE_WARNING, "noise_sigma": cfg.noise_sigma}),
              file=sys.stderr)
    return cfg, _Setup(grid, mask, truth, family)


def _write_json(path: Path, value) -> None:
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field_csv(path: Path, grid: Grid2D, value: np.ndarray, truth: np.ndarray) -> None:
    """Write x, y, value and truth_value per node, as csv.writer would."""
    axis = [f"{a:.12g}" for a in np.linspace(0.0, 1.0, grid.n + 1)]
    coords = [f"{x},{y}" for y in axis for x in axis]  # node order, x fastest
    lines = ["x,y,value,truth_value"] + [
        f"{c},{v:.17g},{t:.17g}" for c, v, t in zip(coords, value.tolist(), truth.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _scenario_forward_convergence(cfg: ExperimentConfig, setup: _Setup, out: Path) -> None:
    sizes = [cfg.n, 2 * cfg.n, 4 * cfg.n]
    center = (cfg.s0 + cfg.s1) / 2.0
    grids = [setup.grid] + [make_grid(n) for n in sizes[1:]]
    truths = [setup.truth] + [_truth_series(cfg, grid) for grid in grids[1:]]
    solutions = {}
    for n, grid, truth in zip(sizes, grids, truths):
        f = bump_trace(grid, center % 4.0, cfg.bump_width, cfg.bump_amplitude)
        u, _ = solve_semilinear(truth, f, grid)
        solutions[n] = u
    errors = []
    for coarse, fine in zip(sizes[:-1], sizes[1:]):
        uc = solutions[coarse].reshape(coarse + 1, coarse + 1)
        uf = solutions[fine].reshape(fine + 1, fine + 1)
        ratio = fine // coarse
        err = float(np.max(np.abs(uc - uf[::ratio, ::ratio])))
        errors.append((coarse, fine, err))
    with open(out / "forward_convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coarse_n", "fine_n", "sup_error", "observed_order"])
        prev = None
        for coarse, fine, err in errors:
            order = "" if prev is None else f"{math.log2(prev / err):.6g}"
            writer.writerow([coarse, fine, f"{err:.12g}", order])
            prev = err


def _linearization_differences(cfg: ExperimentConfig, family: tuple[HarmonicMember, ...]):
    """(m, traces, step) of each order-m difference linearization_check takes:
    over the first m members, at eps for m = 2 and 2 eps above."""
    for m in range(2, cfg.kmax + 1):
        yield m, [family[i].trace for i in range(m)], cfg.eps if m == 2 else 2 * cfg.eps


def _scenario_linearization_check(cfg: ExperimentConfig, setup: _Setup, out: Path) -> None:
    grid, mask, truth = setup.grid, setup.mask, setup.truth
    measure = measurement(truth, mask, grid)  # noise-free: the check reads truncation
    summary = {}
    rows = []
    for m, fs, eps in _linearization_differences(cfg, setup.family):
        dd = measured_linearized_flux(measure, fs, eps, mask, grid)
        state = run_cascade(truth, fs, grid)
        flux = normal_derivative(state.field(range(m)), grid)
        flux[~mask.flags] = 0.0
        scale = float(np.max(np.abs(flux[mask.flags]))) or 1.0
        gap = float(np.max(np.abs((dd - flux)[mask.flags]))) / scale
        summary[f"m{m}_rel_sup_gap"] = gap
        for k in range(grid.num_boundary):
            rows.append([m, f"{grid.boundary_s[k]:.12g}", int(mask.flags[k]),
                         f"{dd[k]:.17g}", f"{flux[k]:.17g}"])
    with open(out / "linearization_check.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "s", "in_gamma", "divided_difference", "cascade_flux"])
        writer.writerows(rows)
    _write_json(out / "linearization_summary.json", summary)


def _scenario_identity_check(cfg: ExperimentConfig, setup: _Setup, out: Path) -> None:
    grid, mask, truth, family = setup.grid, setup.mask, setup.truth, setup.family
    measure = measurement(truth, mask, grid, cfg.noise_sigma, cfg.seed + 10_000)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    max_gap = 0.0
    rel_gaps = {}
    for m in range(2, cfg.kmax + 1):
        known = truth if m > 2 else None
        order_gap = scale = 0.0
        for t in range(cfg.tuples):
            idx = rng.integers(0, len(family), size=m + 1)
            members = [family[i] for i in idx]
            value = measured_moment(measure, members, cfg.eps, mask, grid, known)
            prod = truth.coefficient(m).copy()
            for mem in members:
                prod *= mem.field
            expected = interior_integral(prod, grid)
            gap = abs(value - expected)
            max_gap = max(max_gap, gap)
            order_gap, scale = max(order_gap, gap), max(scale, abs(expected))
            rows.append([m, t, "-".join(str(i) for i in idx),
                         f"{value:.17g}", f"{expected:.17g}", f"{gap:.17g}"])
        # each order's largest gap relative to its largest moment, which the
        # absolute max_abs_gap of the lower orders would hide
        rel_gaps[f"m{m}_rel_max_gap"] = order_gap / (scale or 1.0)
    with open(out / "identity_check.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "tuple_id", "members", "measured_moment",
                         "direct_integral", "abs_gap"])
        writer.writerows(rows)
    _write_json(out / "identity_summary.json",
                {"max_abs_gap": max_gap, "tuples_per_order": cfg.tuples, **rel_gaps})


def _scenario_reconstruction(cfg: ExperimentConfig, setup: _Setup, out: Path) -> None:
    grid, mask, truth = setup.grid, setup.mask, setup.truth
    measure = measurement(truth, mask, grid, cfg.noise_sigma, cfg.seed + 10_000)
    rconf = ReconstructionConfig(grid, mask, eps=cfg.eps, family_size=cfg.family_size,
                                 basis_per_side=cfg.basis_per_side,
                                 rows_factor=cfg.rows_factor, lam=cfg.lam,
                                 seed=cfg.seed)
    result = reconstruct_all(measure, cfg.kmax, rconf, truth=truth, family=setup.family)
    _write_json(out / "stages.json", [s.to_dict() for s in result.stages])
    for m in range(2, cfg.kmax + 1):
        _field_csv(out / f"coefficient_k{m}.csv", grid,
                   result.series.coefficient(m), truth.coefficient(m))


SCENARIOS = {
    "forward_convergence": _scenario_forward_convergence,
    "linearization_check": _scenario_linearization_check,
    "identity_check": _scenario_identity_check,
    "reconstruction": _scenario_reconstruction,
}

# The KEYS names each scenario reads: every one reads the grid, the arc, the
# coefficient expressions and its own name and output directory
READ_BY_ALL = ("scenario", "output_dir", "n", "s0", "s1", *(f"k{k}" for k in POTENTIAL_ORDERS))
READS = {
    "forward_convergence": {*READ_BY_ALL, "bump_amplitude", "bump_width"},
    "linearization_check": {*READ_BY_ALL, "kmax", "eps"},
    "identity_check": {*READ_BY_ALL, "seed", "kmax", "eps", "noise_sigma", "family_size",
                       "tuples"},
    "reconstruction": {*READ_BY_ALL, "seed", "kmax", "eps", "noise_sigma", "family_size",
                       "basis_per_side", "rows_factor", "lambda"},
}


def run(config_path: str | Path) -> int:
    """Execute the configured scenario; returns the process exit code."""
    try:
        cfg, setup = _prepare(config_path)
    except ValueError as exc:  # ConfigError included
        print(json.dumps({"error": str(exc), "phase": "validate"}), file=sys.stderr)
        return 2
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "manifest.json", cfg.manifest)
        SCENARIOS[cfg.scenario](cfg, setup, out)
    except Exception as exc:
        print(json.dumps({"error": str(exc), "phase": "run",
                          "scenario": cfg.scenario}), file=sys.stderr)
        return 1
    return 0


def validate(config_path: str | Path) -> int:
    """Run's validation phase alone: exit 2 on any input run would reject."""
    try:
        _prepare(config_path)
    except ValueError as exc:  # ConfigError included
        print(json.dumps({"error": str(exc), "phase": "validate"}), file=sys.stderr)
        return 2
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="semidtn",
                                     description="semilinear boundary-measurement experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="check a config file without running")
    p_val.add_argument("config")
    sub.add_parser("list-scenarios", help="print available scenario names")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "validate":
        return validate(args.config)
    for name in SCENARIOS:
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
