"""Config-driven experiment runner.

Configs are flat key = value text files with sections (INI style, parsed by
configparser); see README for the full key reference. Every scenario writes
a manifest echoing the resolved config, then its own CSV/JSON artifacts.
Same config + same seed gives byte-identical outputs.

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
from dataclasses import dataclass, field as dc_field
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

# Upper bounds of the reconstruction knobs, so that no config value makes a
# run allocate or measure without limit (the shipped configs use 12, 6, 3).
MAX_FAMILY_SIZE = 32
MAX_BASIS_PER_SIDE = 12
MAX_ROWS_FACTOR = 10
# Highest coefficient order a [potential] key may name (the forward model
# solves any order; kmax, the highest order differentiated, stops at
# MAX_ORDER), the identity_check tuple count per order, and the half-width
# of the forward_convergence bump (half the boundary walk).
MAX_POTENTIAL_ORDER = 8
MAX_TUPLES = 1000
MAX_BUMP_WIDTH = 2.0

# The sections a config may hold and the keys of each (the README key
# table); anything else is a typo that would otherwise fall back to a default.
CONFIG_KEYS = {
    "experiment": {"scenario", "output_dir", "seed"},
    "grid": {"n"},
    "arc": {"s0", "s1"},
    "potential": {f"k{k}" for k in range(2, MAX_POTENTIAL_ORDER + 1)},
    "measurement": {"eps", "noise_sigma"},
    "reconstruction": {"kmax", "family_size", "basis_per_side", "rows_factor", "lambda"},
    "extras": {"tuples", "bump_amplitude", "bump_width"},
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
    scenario: str
    output_dir: str
    seed: int
    n: int
    s0: float
    s1: float
    potential_exprs: dict[int, str]
    kmax: int
    eps: float
    family_size: int
    basis_per_side: int
    rows_factor: int
    lam: float | None
    noise_sigma: float
    extras: dict[str, str] = dc_field(default_factory=dict)

    def resolved(self) -> dict:
        out = {
            "scenario": self.scenario, "output_dir": self.output_dir,
            "seed": self.seed, "n": self.n, "arc_s0": self.s0, "arc_s1": self.s1,
            "potential": {str(k): v for k, v in sorted(self.potential_exprs.items())},
            "kmax": self.kmax, "eps": self.eps, "family_size": self.family_size,
            "basis_per_side": self.basis_per_side, "rows_factor": self.rows_factor,
            "lambda": self.lam, "noise_sigma": self.noise_sigma,
        }
        out.update({f"extra_{k}": v for k, v in sorted(self.extras.items())})
        return out


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment config; raises ConfigError."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]; choose from "
                              f"{', '.join(CONFIG_KEYS)}")
        unknown = sorted(set(parser[section]) - CONFIG_KEYS[section])
        if unknown:
            raise ConfigError(f"unknown key [{section}] {unknown[0]}; choose from "
                              f"{', '.join(sorted(CONFIG_KEYS[section]))}")

    def get(section: str, key: str, default=None, cast=str):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                return cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
        if default is None:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default

    scenario = get("experiment", "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    output_dir = os.environ.get(OUTPUT_DIR_ENV) or get("experiment", "output_dir")
    seed = get("experiment", "seed", 0, int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    n = get("grid", "n", 64, int)
    if not 8 <= n <= 256:
        raise ConfigError(f"grid n must be in [8, 256], got {n}")
    if scenario == "forward_convergence" and 4 * n > 256:
        raise ConfigError(f"forward_convergence solves on n, 2n and 4n <= 256, got n = {n}")
    s0 = get("arc", "s0", 0.0, float)
    s1 = get("arc", "s1", 4.0, float)
    if not 0.0 <= s0 < 4.0 or not 0.0 < s1 - s0 <= 4.0:
        raise ConfigError(f"arc [{s0}, {s1}) invalid: need 0 <= s0 < 4, 0 < s1-s0 <= 4")

    exprs = {int(key[1:]): value for key, value in parser.items("potential")} \
        if parser.has_section("potential") else {}

    kmax = get("reconstruction", "kmax", min(max(exprs), MAX_ORDER) if exprs else 2, int)
    if not 2 <= kmax <= MAX_ORDER:
        raise ConfigError(f"kmax must be in [2, {MAX_ORDER}], got {kmax}")
    eps = get("measurement", "eps", 1e-2, float)
    if not 0.0 < eps <= 0.05:
        raise ConfigError(f"eps must be in (0, 0.05], got {eps}")
    # the reconstruction measures along mean directions up to t = 3 eps
    if scenario == "reconstruction" and 3.0 * eps > DEFAULT_SMALLNESS_RADIUS:
        raise ConfigError(f"reconstruction samples reach 3 eps, so eps must be at most "
                          f"{DEFAULT_SMALLNESS_RADIUS} / 3; got {eps}")
    # identity_check draws members with replacement, so an order-kmax
    # difference of one repeated member (a bump of peak 1) reaches kmax eps
    if scenario == "identity_check" and kmax * eps > DEFAULT_SMALLNESS_RADIUS:
        raise ConfigError(f"identity_check samples reach kmax eps = {kmax * eps:.4g}, "
                          f"above the smallness radius {DEFAULT_SMALLNESS_RADIUS}")
    noise_sigma = get("measurement", "noise_sigma", 0.0, float)
    if not 0.0 <= noise_sigma < math.inf:
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")

    family_size = get("reconstruction", "family_size", 12, int)
    if not 1 <= family_size <= MAX_FAMILY_SIZE:
        raise ConfigError(f"family_size must be in [1, {MAX_FAMILY_SIZE}], got {family_size}")
    basis_per_side = get("reconstruction", "basis_per_side", 6, int)
    if not 2 <= basis_per_side <= MAX_BASIS_PER_SIDE:
        raise ConfigError(f"basis_per_side must be in [2, {MAX_BASIS_PER_SIDE}], "
                          f"got {basis_per_side}")
    rows_factor = get("reconstruction", "rows_factor", 3, int)
    if not 1 <= rows_factor <= MAX_ROWS_FACTOR:
        raise ConfigError(f"rows_factor must be in [1, {MAX_ROWS_FACTOR}], got {rows_factor}")
    lam_raw = get("reconstruction", "lambda", "auto")
    try:
        lam = None if lam_raw in ("auto", "") else float(lam_raw)
    except ValueError as exc:
        raise ConfigError(f"lambda must be a number or 'auto', got {lam_raw!r}") from exc
    if lam is not None and not 0.0 <= lam < math.inf:
        raise ConfigError(f"lambda must be finite and >= 0, or 'auto', got {lam_raw!r}")

    extras = dict(parser.items("extras")) if parser.has_section("extras") else {}
    if "tuples" in extras and not 1 <= get("extras", "tuples", cast=int) <= MAX_TUPLES:
        raise ConfigError(f"[extras] tuples must be in [1, {MAX_TUPLES}], "
                          f"got {extras['tuples']!r}")
    if "bump_amplitude" in extras and \
            not 0.0 < abs(get("extras", "bump_amplitude", cast=float)) <= DEFAULT_SMALLNESS_RADIUS:
        raise ConfigError(f"[extras] bump_amplitude must be nonzero with magnitude at most "
                          f"{DEFAULT_SMALLNESS_RADIUS}, got {extras['bump_amplitude']!r}")
    if "bump_width" in extras and \
            not 0.0 < get("extras", "bump_width", cast=float) <= MAX_BUMP_WIDTH:
        raise ConfigError(f"[extras] bump_width must be in (0, {MAX_BUMP_WIDTH}], "
                          f"got {extras['bump_width']!r}")
    return ExperimentConfig(scenario, output_dir, seed, n, s0, s1, exprs, kmax,
                            eps, family_size, basis_per_side, rows_factor, lam,
                            noise_sigma, extras)


def _truth_series(cfg: ExperimentConfig, grid: Grid2D) -> PotentialSeries:
    fields = {k: sample_expression(expr, grid) for k, expr in cfg.potential_exprs.items()}
    return PotentialSeries.from_coefficients(grid, fields) if fields \
        else PotentialSeries.zero(grid)


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
    Raises ConfigError or ValueError (the grid, arc, expression and family
    builders' own checks, and the smallness gate of every linearization_check
    difference). A noisy reconstruction config passes with ``NOISE_WARNING``
    on stderr."""
    cfg = load_config(config_path)
    grid = make_grid(cfg.n)
    mask = arc_mask(grid, cfg.s0, cfg.s1)
    truth = _truth_series(cfg, grid)
    if cfg.scenario == "forward_convergence":
        family = None
    else:
        size = cfg.kmax if cfg.scenario == "linearization_check" else cfg.family_size
        family = arc_supported_family(mask, size, grid)
    if cfg.scenario == "linearization_check":
        for _, fs, eps in _linearization_differences(cfg, family):
            check_difference_gate(fs, eps)
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
    amp = float(cfg.extras.get("bump_amplitude", "0.05"))
    # 0.3 of the arc keeps the bump shoulders resolved on the coarsest grid
    width = float(cfg.extras.get("bump_width", min(0.3 * (cfg.s1 - cfg.s0), 0.45)))
    center = (cfg.s0 + cfg.s1) / 2.0
    grids = [setup.grid] + [make_grid(n) for n in sizes[1:]]
    truths = [setup.truth] + [_truth_series(cfg, grid) for grid in grids[1:]]
    solutions = {}
    for n, grid, truth in zip(sizes, grids, truths):
        f = bump_trace(grid, center % 4.0, width, amp)
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
    n_tuples = int(cfg.extras.get("tuples", "20"))
    rng = np.random.default_rng(cfg.seed)
    rows = []
    max_gap = 0.0
    rel_gaps = {}
    for m in range(2, cfg.kmax + 1):
        known = truth if m > 2 else None
        order_gap = scale = 0.0
        for t in range(n_tuples):
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
                {"max_abs_gap": max_gap, "tuples_per_order": n_tuples, **rel_gaps})


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
        _write_json(out / "manifest.json", cfg.resolved())
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
