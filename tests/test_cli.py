import configparser
import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from semidtn import cli
from semidtn.cli import ConfigError, _field_csv, load_config, main, run, validate
from semidtn.dtn import measurement
from semidtn.forward_solver import DEFAULT_SMALLNESS_RADIUS
from semidtn.geometry import arc_mask, make_grid
from semidtn.harmonic import arc_supported_family
from semidtn.linearization import STEP_PER_EPS, DirectionStore
from semidtn.potential import PotentialSeries
from semidtn.reconstruction import reconstruct_all, rel_l2_error

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))

GOOD_CONFIG = """\
[experiment]
scenario = identity_check
output_dir = {out}
seed = 11

[grid]
n = 16

[arc]
s0 = 0.0
s1 = 2.0

[potential]
k2 = 1 + x

[measurement]
eps = 0.01

[reconstruction]
kmax = 2
family_size = 6

[extras]
tuples = 3
"""

# one valid config per other scenario, each setting only keys it reads
FORWARD_CONFIG = """\
[experiment]
scenario = forward_convergence
output_dir = {out}

[grid]
n = 8

[arc]
s0 = 0.0
s1 = 2.0

[potential]
k2 = 1 + x

[extras]
bump_amplitude = 0.05
"""

LIN_CONFIG = """\
[experiment]
scenario = linearization_check
output_dir = {out}

[grid]
n = 16

[arc]
s0 = 0.0
s1 = 2.0

[potential]
k2 = 1 + x

[measurement]
eps = 0.01

[reconstruction]
kmax = 2
"""

RECON_CONFIG = """\
[experiment]
scenario = reconstruction
output_dir = {out}
seed = 0

[grid]
n = 16

[arc]
s0 = 0.0
s1 = 4.0

[potential]
k2 = exp(-4*((x-0.5)**2 + (y-0.5)**2))

[measurement]
eps = 0.01

[reconstruction]
kmax = 2
family_size = 6
basis_per_side = 3
"""

CONFIGS = {"identity_check": GOOD_CONFIG, "forward_convergence": FORWARD_CONFIG,
           "linearization_check": LIN_CONFIG, "reconstruction": RECON_CONFIG}


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def edited(text, *edits):
    """text with each (old, new) edit made; every old line must be in it, so
    that no edit silently leaves the config as it was."""
    for old, new in edits:
        assert old in text, old
        text = text.replace(old, new)
    return text


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    assert cfg.scenario == "identity_check"
    assert cfg.n == 16
    assert cfg.s1 == 2.0
    assert cfg.potential_exprs == {2: "1 + x"}
    assert cfg.kmax == 2
    assert cfg.lam is None
    # the extras typed, bump_width defaulting to min(0.3 (s1 - s0), 0.45)
    assert (cfg.tuples, cfg.bump_amplitude, cfg.bump_width) == (3, 0.05, 0.45)


def test_manifest_is_pinned():
    # the manifest is the resolved value of each key the scenario reads,
    # under its KEYS name, with null for an order the file does not give
    unset = {f"k{k}": None for k in range(4, 9)}
    expected = {
        "reconstruction_half_boundary": {
            **unset, "scenario": "reconstruction", "n": 64, "s0": 0.0, "s1": 2.0,
            "k2": "exp(-4*((x-0.4)**2 + (y-0.6)**2))", "k3": "0.5*sin(pi*x)*sin(pi*y)",
            "seed": 0, "kmax": 3, "eps": 0.01, "noise_sigma": 0.0, "family_size": 12,
            "basis_per_side": 6, "rows_factor": 3, "lambda": None},
        "forward_convergence": {
            **unset, "scenario": "forward_convergence", "n": 16, "s0": 0.0, "s1": 1.0,
            "k2": "1 + x", "k3": "sin(pi*x)*sin(pi*y)", "bump_amplitude": 0.05,
            "bump_width": 0.3},
    }
    for name, manifest in expected.items():
        resolved = dict(load_config(ROOT / "configs" / f"{name}.cfg").manifest)
        resolved.pop("output_dir")
        assert resolved == manifest, name
    for path in SHIPPED_CONFIGS:
        cfg = load_config(path)
        assert set(cfg.manifest) == cli.READS[cfg.scenario], path.name


def test_readme_key_table_matches_keys():
    # every `[section] key` row of README's config table is a key of
    # cli.KEYS and the other way round; `k2, k3, ..., k8` spans its ends;
    # its "Read by" column names the scenarios whose cli.READS holds the key
    rows = re.findall(r"^\| `\[(\w+)\] ([^`]+)` \|.*\| ([^|]+) \|$",
                      (ROOT / "README.md").read_text(), re.MULTILINE)
    documented = set()
    for section, names, read_by in rows:
        names = [name.strip() for name in names.split(",")]
        if "..." in names:
            first, last = int(names[0][1:]), int(names[-1][1:])
            names = [f"k{k}" for k in range(first, last + 1)]
        documented.update((section, name) for name in names)
        readers = set(cli.SCENARIOS) if read_by == "all" else set(re.findall(r"`(\w+)`",
                                                                             read_by))
        for name in names:
            assert readers == {s for s, keys in cli.READS.items() if name in keys}, name
    assert documented == set(cli.KEYS)


def test_every_reader_is_a_scenario():
    # a misspelt reader would make its key exit 2 in every config that sets
    # it; the grid, the arc, the orders and the scenario's own name and
    # output directory are read by every scenario
    for name, (*_, readers) in cli.KEYS.items():
        if readers is not cli.EVERY_SCENARIO:
            assert readers and set(readers) <= set(cli.SCENARIOS), name
    every = {"scenario", "output_dir", "n", "s0", "s1", *(f"k{k}" for k in range(2, 9))}
    assert set.intersection(*cli.READS.values()) == every
    assert {key for (_, key), (*_, readers) in cli.KEYS.items()
            if readers is cli.EVERY_SCENARIO} == every


def test_experiment_config_fields_are_the_keys():
    # ExperimentConfig has a field per KEYS name but for its two renames:
    # k2..k8 are gathered as potential_exprs and lambda is read as lam
    names = {key for _, key in cli.KEYS} - {f"k{k}" for k in cli.POTENTIAL_ORDERS} - {"lambda"}
    assert ({f.name for f in dataclasses.fields(cli.ExperimentConfig)}
            == names | {"potential_exprs", "lam", "manifest"})


def test_reconstruct_all_has_no_defaults():
    # KEYS holds every default: reconstruct_all takes each value it reads,
    # the family included, from its caller
    params = inspect.signature(reconstruct_all).parameters
    assert list(params) == ["measure", "K", "family", "mask", "grid", "eps", "basis_per_side",
                            "rows_factor", "lam", "seed"]
    assert all(p.default is inspect.Parameter.empty for p in params.values())


def _rejected(tmp_path, text, named):
    """load_config raises ConfigError on text, naming `named`."""
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(write_config(tmp_path, text))


def test_validate_ranges(tmp_path):
    good, forward, lin, recon = (CONFIGS[name].format(out=tmp_path) for name in (
        "identity_check", "forward_convergence", "linearization_check", "reconstruction"))
    _rejected(tmp_path, edited(good, ("n = 16", "n = 4")), "[grid] n")
    _rejected(tmp_path, edited(good, ("eps = 0.01", "eps = 0.2")), "[measurement] eps")
    _rejected(tmp_path, edited(good, ("scenario = identity_check", "scenario = nonsense")),
              "[experiment] scenario = 'nonsense': must be a name that `semidtn "
              "list-scenarios` prints")
    # the reconstruction's samples reach 3 eps, which the smallness radius
    # 0.1 caps at eps <= 1/30, at K = 3 and at K = 2 alike; the other
    # scenarios keep (0, 0.05]
    for kmax, eps in (("3", "0.035"), ("3", "0.04"), ("3", "0.05"), ("2", "0.034"),
                      ("2", "0.05")):
        _rejected(tmp_path, edited(recon, ("kmax = 2", f"kmax = {kmax}"),
                                   ("eps = 0.01", f"eps = {eps}")), "[measurement] eps")
    for text in (edited(recon, ("eps = 0.01", "eps = 0.0333")),
                 edited(good, ("eps = 0.01", "eps = 0.05"))):
        load_config(write_config(tmp_path, text))
    # the floor (1.5 eps)^kmax >= 1e-8: 6.7e-5, 1.4e-3 and 6.7e-3 at K = 2, 3, 4
    for kmax, eps in (("2", "7e-5"), ("3", "1.5e-3"), ("4", "6.7e-3")):
        load_config(write_config(tmp_path, edited(recon, ("kmax = 2", f"kmax = {kmax}"),
                                                  ("eps = 0.01", f"eps = {eps}"))))
    for kmax, eps in (("2", "6.6e-5"), ("3", "1.3e-3"), ("4", "6.6e-3")):
        _rejected(tmp_path, edited(recon, ("kmax = 2", f"kmax = {kmax}"),
                                   ("eps = 0.01", f"eps = {eps}")), "[measurement] eps")
    # the Tikhonov weight: negative or not finite
    for value in ("-1", "inf", "nan"):
        _rejected(tmp_path, edited(recon, ("basis_per_side = 3",
                                           f"basis_per_side = 3\nlambda = {value}")),
                  "[reconstruction] lambda")
    # the noise level: negative, not finite, or above 1, which buries the flux
    for value in ("-0.1", "nan", "inf", "1.5", "1e100"):
        _rejected(tmp_path, edited(good, ("eps = 0.01", f"eps = 0.01\nnoise_sigma = {value}")),
                  "[measurement] noise_sigma")
    load_config(write_config(tmp_path, edited(recon, ("eps = 0.01",
                                                      "eps = 0.01\nnoise_sigma = 1"))))
    # reconstruction knobs: below the useful range, and above the caps
    for text, named in ((edited(good, ("family_size = 6", "family_size = 0")), "family_size"),
                        (edited(good, ("family_size = 6", "family_size = 33")), "family_size"),
                        (edited(recon, ("basis_per_side = 3", "basis_per_side = 1")),
                         "basis_per_side"),
                        (edited(recon, ("basis_per_side = 3", "basis_per_side = 13")),
                         "basis_per_side")):
        _rejected(tmp_path, text, f"[reconstruction] {named}")
    for value in ("0", "-2", "11"):
        _rejected(tmp_path, edited(recon, ("basis_per_side = 3",
                                           f"basis_per_side = 3\nrows_factor = {value}")),
                  "[reconstruction] rows_factor")
    # orders, kmax outside 2..4 (the checks used to accept up to 8 and check
    # only orders 2 and 3), the scenario extras, and sections or keys outside
    # the README table, which would otherwise fall back to their defaults
    for base, old_line, new_line, named in (
            (good, "k2 = 1 + x", "k2 = 1 + x\nk9 = x", "[potential] k9"),
            (good, "k2 = 1 + x", "k1000000 = x", "[potential] k1000000"),
            (good, "k2 = 1 + x", "k² = x", "[potential] k²"),
            (good, "kmax = 2", "kmax = 1", "[reconstruction] kmax"),
            (good, "kmax = 2", "kmax = 8", "[reconstruction] kmax"),
            (good, "kmax = 2", "kmax = 9", "[reconstruction] kmax"),
            (good, "kmax = 2", "kmax = 1000000", "[reconstruction] kmax"),
            (good, "tuples = 3", "tuples = abc", "[extras] tuples"),
            (good, "tuples = 3", "tuples = 0", "[extras] tuples"),
            (good, "tuples = 3", "tuples = 1001", "[extras] tuples"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = -5", "[extras] bump_amplitude"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = 0", "[extras] bump_amplitude"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = 0.11",
             "[extras] bump_amplitude"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = nan",
             "[extras] bump_amplitude"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = 0.05\nbump_width = 0",
             "[extras] bump_width"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = 0.05\nbump_width = -0.2",
             "[extras] bump_width"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = 0.05\nbump_width = inf",
             "[extras] bump_width"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = 0.05\nbump_width = 2.5",
             "[extras] bump_width"),
            (good, "[potential]", "[potental]", "[potental]"),
            (good, "[extras]", "[extra]", "[extra]"),
            (good, "[extras]", "[solver]\nnewton_tol = 1e-9\n\n[extras]", "[solver]"),
            (good, "seed = 11", "seed = 11\nsed = 3", "[experiment] sed"),
            (good, "n = 16", "n = 16\ncells = 16", "[grid] cells"),
            (good, "s1 = 2.0", "s1 = 2.0\ns2 = 3.0", "[arc] s2"),
            (good, "k2 = 1 + x", "k02 = 1 + x", "[potential] k02"),
            (good, "eps = 0.01", "eps = 0.01\nnoise = 0.1", "[measurement] noise"),
            (good, "family_size = 6", "family_size = 6\nrows_facter = 9",
             "[reconstruction] rows_facter"),
            (good, "tuples = 3", "tuples = 3\nbump_hight = 0.05", "[extras] bump_hight")):
        _rejected(tmp_path, edited(base, (old_line, new_line)), named)
    for base, old_line, new_line in (
            (good, "family_size = 6", "family_size = 12"),
            (recon, "basis_per_side = 3", "basis_per_side = 6\nrows_factor = 1"),
            (recon, "basis_per_side = 3", "basis_per_side = 3\nrows_factor = 3"),
            (good, "k2 = 1 + x", "k2 = 1 + x\nk8 = x"),
            (good, "kmax = 2", "kmax = 4"),
            (good, "tuples = 3", "tuples = 1"),
            (good, "tuples = 3", "tuples = 1000"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = -0.1"),
            (forward, "bump_amplitude = 0.05", "bump_amplitude = 0.05\nbump_width = 2")):
        load_config(write_config(tmp_path, edited(base, (old_line, new_line))))
    # the two scenarios that measure without noise do not read noise_sigma,
    # so even noise_sigma = 0 exits 2 there
    for text, scenario in (
            (edited(lin, ("eps = 0.01", "eps = 0.01\nnoise_sigma = 0")), "linearization_check"),
            (edited(forward, ("[potential]", "[measurement]\nnoise_sigma = 0\n\n[potential]")),
             "forward_convergence")):
        _rejected(tmp_path, text, f"[measurement] noise_sigma is not read by scenario {scenario}")


@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_a_key_the_scenario_does_not_read_exits_2(tmp_path, capsys, scenario):
    # a key the scenario ignores would be a silent no-op, like a misspelt
    # one, so validate and run reject it, whatever its value, before
    # writing anything
    out = tmp_path / "out"
    text = CONFIGS[scenario].format(out=out)
    ignored = [(section, key) for section, key in cli.KEYS if key not in cli.READS[scenario]]
    assert ignored
    for section, key in ignored:
        added = edited(text, (f"[{section}]", f"[{section}]\n{key} = 1")) \
            if f"[{section}]" in text else f"{text}\n[{section}]\n{key} = 1\n"
        path = write_config(tmp_path, added)
        for command in (validate, run):
            assert command(path) == 2, key
            error = json.loads(capsys.readouterr().err)["error"]
            assert error == f"[{section}] {key} is not read by scenario {scenario}"
            assert not out.exists()


@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_every_key_the_scenario_reads_loads(tmp_path, scenario):
    # the scenario's valid config with every key it reads given, an order
    # it does not give as 0 and lambda as auto, validates
    resolved = load_config(write_config(tmp_path, CONFIGS[scenario].format(
        out=tmp_path / "out"))).manifest
    sections = {}
    for section, key in cli.KEYS:
        if key in resolved:
            value = resolved[key]
            sections.setdefault(section, {})[key] = \
                str(value) if value is not None else "auto" if key == "lambda" else "0"
    full = configparser.ConfigParser()
    full.read_dict(sections)
    path = tmp_path / "full.cfg"
    with open(path, "w") as fh:
        full.write(fh)
    assert validate(path) == 0
    assert set(load_config(path).manifest) == cli.READS[scenario]


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def _exits_2_without_outputs(capsys, path, out, named):
    """validate and run both exit 2 on path, write nothing under out and
    report an error that names `named`."""
    for command in (validate, run):
        assert command(path) == 2
        assert named in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()


def test_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, edited(GOOD_CONFIG.format(out=out), ("n = 16", "n = 999")))
    _exits_2_without_outputs(capsys, path, out, "[grid] n")


def test_bad_reconstruction_knob_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, edited(RECON_CONFIG.format(out=out), (
        "basis_per_side = 3", "basis_per_side = 3\nrows_factor = 0")))
    _exits_2_without_outputs(capsys, path, out, "[reconstruction] rows_factor")


def test_unbounded_inputs_exit_2_without_outputs(tmp_path, capsys):
    # each of these used to hang, allocate without limit or fail after
    # writing the manifest; the last three used to pass validate, and so did
    # the non-finite noise levels and weight after them (a NaN noise level
    # ran without noise and wrote NaN into manifest.json), the
    # reconstruction steps beyond 1/30 (at K = 3, eps = 0.035 ran past the
    # smallness radius after writing the manifest), and the check steps and
    # negative seeds after them (they failed after writing the manifest);
    # the noise levels of the two noise-free scenarios were ignored, and a
    # '%' in a value raised configparser's interpolation error uncaught.
    # The steps below the Newton floor (1.5 eps)^kmax >= 1e-8 after them
    # also passed validate: on a full-arc n = 32 run at K = 4, eps 1e-4
    # exited 0 with a V4 error of 53 and eps 1e-100 failed with a numpy
    # warning after writing the manifest; eps 1e-6 at K = 2 returned
    # all-zero fields. Each error names the key it comes from, the checks
    # made after parsing (the expression, the arc, the linearization_check
    # gate) included
    for scenario, edits, named in (
            ("identity_check", [("k2 = 1 + x", "k2 = 9**9**9")], "[potential] k2 = '9**9**9'"),
            ("identity_check", [("tuples = 3", "tuples = abc")], "[extras] tuples"),
            ("forward_convergence", [("bump_amplitude = 0.05", "bump_amplitude = -5")],
             "[extras] bump_amplitude"),
            ("identity_check", [("kmax = 2", "kmax = 1000000")], "[reconstruction] kmax"),
            ("identity_check", [("k2 = 1 + x", "k1000000 = x")], "[potential] k1000000"),
            ("identity_check", [("k2 = 1 + x", "k2 = zebra")], "[potential] k2 = 'zebra'"),
            ("forward_convergence", [("n = 8", "n = 128")], "[grid] n"),
            ("reconstruction", [("n = 16", "n = 64"), ("s1 = 4.0", "s1 = 0.1")],
             "[arc] s0 = 0.0, s1 = 0.1 with [grid] n = 64"),
            ("identity_check", [("eps = 0.01", "eps = 0.01\nnoise_sigma = nan")],
             "[measurement] noise_sigma"),
            ("identity_check", [("eps = 0.01", "eps = 0.01\nnoise_sigma = inf")],
             "[measurement] noise_sigma"),
            ("reconstruction", [("eps = 0.01", "eps = 0.01\nnoise_sigma = nan")],
             "[measurement] noise_sigma"),
            ("reconstruction", [("basis_per_side = 3", "basis_per_side = 3\nlambda = inf")],
             "[reconstruction] lambda"),
            ("reconstruction", [("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.035")],
             "[measurement] eps"),
            ("reconstruction", [("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.05")],
             "[measurement] eps"),
            ("reconstruction", [("eps = 0.01", "eps = 0.04")], "[measurement] eps"),
            ("linearization_check", [("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.03")],
             "[measurement] eps = 0.03:"),
            ("identity_check", [("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.05")],
             "[measurement] eps"),
            ("identity_check", [("seed = 11", "seed = -5")], "[experiment] seed"),
            ("reconstruction", [("seed = 0", "seed = -5")], "[experiment] seed"),
            ("linearization_check", [("eps = 0.01", "eps = 0.01\nnoise_sigma = 1e-6")],
             "[measurement] noise_sigma is not read by scenario linearization_check"),
            ("forward_convergence", [("[potential]",
                                      "[measurement]\nnoise_sigma = 1e-6\n\n[potential]")],
             "[measurement] noise_sigma is not read by scenario forward_convergence"),
            ("identity_check", [("k2 = 1 + x", "k2 = 50%")],
             "[potential] k2: '%' must be followed by"),
            ("reconstruction", [("kmax = 2", "kmax = 4"), ("eps = 0.01", "eps = 1e-100")],
             "[measurement] eps"),
            ("reconstruction", [("kmax = 2", "kmax = 4"), ("eps = 0.01", "eps = 1e-4")],
             "[measurement] eps"),
            ("reconstruction", [("eps = 0.01", "eps = 1e-6")], "[measurement] eps"),
            ("linearization_check", [("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 1e-3")],
             "[measurement] eps"),
            ("identity_check", [("eps = 0.01", "eps = 5e-5")], "[measurement] eps")):
        out = tmp_path / "out"
        path = write_config(tmp_path, edited(CONFIGS[scenario].format(out=out), *edits))
        _exits_2_without_outputs(capsys, path, out, named)


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, semidtn.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_validate_command(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "o"))
    assert validate(path) == 0
    assert main(["validate", str(path)]) == 0


def test_shipped_configs_validate(capsys):
    assert len(SHIPPED_CONFIGS) >= 4
    for path in SHIPPED_CONFIGS:
        assert main(["validate", str(path)]) == 0, path.name
        assert capsys.readouterr().out.strip() == "ok", path.name


def test_field_csv_matches_csv_writer(tmp_path):
    # the coefficient files are written with one join; they must keep the
    # bytes that csv.writer gives, \r\n line endings included
    g = make_grid(8)
    x, y = g.node_coords()
    rng = np.random.default_rng(0)
    value = rng.normal(size=g.num_nodes) * 10.0 ** rng.integers(-20, 20, g.num_nodes)
    truth = rng.normal(size=g.num_nodes)
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value", "truth_value"])
        for j in range(g.num_nodes):
            writer.writerow([f"{x[j]:.12g}", f"{y[j]:.12g}", f"{value[j]:.17g}",
                             f"{truth[j]:.17g}"])
    _field_csv(tmp_path / "field.csv", g, value, truth)
    assert (tmp_path / "field.csv").read_bytes() == expected.read_bytes()


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    listed = capsys.readouterr().out.split()
    assert "reconstruction" in listed
    assert "forward_convergence" in listed


def test_identity_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, GOOD_CONFIG.format(out=out))
    assert run(path) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "identity_check"
    assert manifest["n"] == 16
    summary = json.loads((out / "identity_summary.json").read_text())
    with open(out / "identity_check.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    gaps = [float(row["abs_gap"]) for row in rows]
    moments = [abs(float(row["direct_integral"])) for row in rows]
    assert set(summary) == {"max_abs_gap", "tuples_per_order", "m2_rel_max_gap"}
    assert summary["max_abs_gap"] == max(gaps)
    # the order's largest gap over its largest moment (0.35 on this n = 16 grid)
    assert summary["m2_rel_max_gap"] == max(gaps) / max(moments)
    assert 0.0 < summary["m2_rel_max_gap"] < 1.0


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-3])
def test_seeded_runs_byte_identical(tmp_path, noise_sigma):
    text = edited(GOOD_CONFIG, ("eps = 0.01", f"eps = 0.01\nnoise_sigma = {noise_sigma}"))
    outs = [tmp_path / "a", tmp_path / "b", tmp_path / "clean"]
    for out, cfg in zip(outs, (text, text, GOOD_CONFIG)):
        assert run(write_config(tmp_path, cfg.format(out=out), f"{out.name}.cfg")) == 0
    for name in ("identity_check.csv", "identity_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # the noise reaches the artifacts
    noisy = (outs[0] / "identity_check.csv").read_bytes()
    assert (noisy != (outs[2] / "identity_check.csv").read_bytes()) == (noise_sigma > 0.0)


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("SEMIDTN_OUTPUT_DIR", str(override))
    path = write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "ignored"))
    assert run(path) == 0
    assert (override / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_forward_convergence_scenario(tmp_path):
    out = tmp_path / "out"
    cfg = FORWARD_CONFIG.format(out=out)
    assert run(write_config(tmp_path, cfg)) == 0
    lines = (out / "forward_convergence.csv").read_text().splitlines()
    assert lines[0] == "coarse_n,fine_n,sup_error,observed_order"
    assert len(lines) == 3
    order = float(lines[2].split(",")[3])
    assert 1.0 <= order <= 3.0


def test_forward_convergence_on_folded_grids_is_second_order_and_repeats(tmp_path):
    # n = 64 solves on 64, 128 and 256, so the Newton steps of the two finer
    # grids run the folded transforms, which no shipped or benchmark config
    # reaches; two runs write byte-identical artifacts, and the observed
    # order meets criterion 1's 2 +- 0.3 (on 32/64/128 it reads 1.17 before
    # the asymptotic range, with the dense products too)
    cfg = """\
[experiment]
scenario = forward_convergence
output_dir = {out}

[grid]
n = 64

[arc]
s0 = 0.0
s1 = 1.0

[potential]
k2 = 1 + x
k3 = sin(pi*x)*sin(pi*y)

[extras]
bump_amplitude = 0.05
"""
    outs = [tmp_path / name for name in ("first", "second")]
    for i, out in enumerate(outs):
        assert run(write_config(tmp_path, cfg.format(out=out), name=f"run{i}.cfg")) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != "manifest.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    manifests = [json.loads((out / "manifest.json").read_text()) for out in outs]
    assert [m.pop("output_dir") for m in manifests] == [str(out) for out in outs]
    assert manifests[0] == manifests[1]
    lines = (outs[0] / "forward_convergence.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["64", "128"], ["128", "256"]]
    assert 1.7 <= float(lines[2].split(",")[3]) <= 2.3


def test_linearization_scenario(tmp_path):
    out = tmp_path / "out"
    cfg = LIN_CONFIG.format(out=out)
    assert run(write_config(tmp_path, cfg)) == 0
    summary = json.loads((out / "linearization_summary.json").read_text())
    assert summary["m2_rel_sup_gap"] <= 1e-2


def test_linearization_check_builds_kmax_members(tmp_path, monkeypatch):
    # an order-m difference reads members 0..m-1, so a kmax = 2 run builds
    # two members and harmonically extends no third one it would never read
    sizes = []

    def recording_family(mask, size, grid):
        sizes.append(size)
        return arc_supported_family(mask, size, grid)

    monkeypatch.setattr(cli, "arc_supported_family", recording_family)
    out = tmp_path / "out"
    assert run(write_config(tmp_path, LIN_CONFIG.format(out=out))) == 0
    assert sizes == [2]
    summary = json.loads((out / "linearization_summary.json").read_text())
    assert set(summary) == {"m2_rel_sup_gap"}
    assert summary["m2_rel_sup_gap"] <= 1e-2


def test_check_scenarios_check_every_order(tmp_path, monkeypatch):
    # both checks used to stop at order 3 whatever kmax said; the shipped
    # configs with an order-4 term and kmax = 4 gave an order-4 relative sup
    # gap of 2.4e-4 and an order-4 moment gap of at most 2.6e-5, 0.011 of the
    # largest order-4 moment (the order-2 gap sets max_abs_gap, 1.4e-3)
    for name in ("linearization_check", "identity_check"):
        out = tmp_path / name
        monkeypatch.setenv("SEMIDTN_OUTPUT_DIR", str(out))
        text = next(p for p in SHIPPED_CONFIGS if p.stem == name).read_text()
        text = edited(text, ("kmax = 3", "kmax = 4"),
                      ("\n\n[measurement]", "\nk4 = 1 + x*y\n\n[measurement]"))
        assert run(write_config(tmp_path, text)) == 0
        assert json.loads((out / "manifest.json").read_text())["kmax"] == 4
        with open(out / f"{name}.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["m"] == "4"]
        assert rows
        if name == "linearization_check":
            summary = json.loads((out / "linearization_summary.json").read_text())
            assert summary["m4_rel_sup_gap"] <= 1e-3
        else:
            assert len(rows) == 20
            assert max(float(row["abs_gap"]) for row in rows) <= 1e-4
            summary = json.loads((out / "identity_summary.json").read_text())
            assert summary["m4_rel_max_gap"] <= 0.05


def test_reconstruction_scenario_cheap(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = edited(RECON_CONFIG.format(out=out), ("kmax = 2", "kmax = 3"),
                 ("\n\n[measurement]", "\nk3 = sin(pi*x)*sin(pi*y)\n\n[measurement]"))
    assert run(write_config(tmp_path, cfg)) == 0
    assert capsys.readouterr().err == ""  # no noise, no warning
    stages = json.loads((out / "stages.json").read_text())
    assert sorted(stages[0]) == ["basis_size", "cond_estimate", "heads", "lambda", "m",
                                 "measurements", "noise_ceiling_per_unit_gap",
                                 "rel_error_vs_truth", "residual", "rows"]
    assert [stage["m"] for stage in stages] == [2, 3]
    field_lines = (out / "coefficient_k2.csv").read_text().splitlines()
    assert field_lines[0] == "x,y,value,truth_value"
    assert len(field_lines) == 1 + 17 * 17
    # the scenario is the one place a reconstruction meets its truth: each
    # stage's rel_error_vs_truth is rel_l2_error of its coefficient file's
    # value and truth_value columns, bit for bit (%.17g round-trips a float64)
    for stage in stages:
        with open(out / f"coefficient_k{stage['m']}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        value, truth = (np.array([float(row[key]) for row in rows])
                        for key in ("value", "truth_value"))
        assert truth.any()
        assert stage["rel_error_vs_truth"] == rel_l2_error(value, truth, make_grid(16))


def test_reconstruction_on_an_arc_that_wraps_the_walk_origin(tmp_path, monkeypatch, capsys):
    # [3.5, 5.5) runs from the middle of the left side through the corner
    # (0,0) to the middle of the right side; at n = 16, seeds 0-2 read V2
    # 0.124 and V3 0.202-0.208
    out = tmp_path / "out"
    monkeypatch.setenv("SEMIDTN_OUTPUT_DIR", str(out))
    cfg = edited((ROOT / "configs" / "reconstruction_half_boundary.cfg").read_text(),
                 ("n = 64", "n = 16"), ("s0 = 0.0", "s0 = 3.5"), ("s1 = 2.0", "s1 = 5.5"))
    assert run(write_config(tmp_path, cfg)) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "manifest.json").read_text())["s1"] == 5.5
    errors = [stage["rel_error_vs_truth"]
              for stage in json.loads((out / "stages.json").read_text())]
    assert len(errors) == 2 and errors[0] <= 0.14 and errors[1] <= 0.23


def test_reconstruction_with_noise_stays_finite(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = edited(RECON_CONFIG.format(out=out), ("eps = 0.01", "eps = 0.01\nnoise_sigma = 0.001"))
    # run and validate say on stderr that the polarized stage fluxes
    # amplify the noise; a noisy config of another scenario passes silently
    path = write_config(tmp_path, cfg)
    for command in (validate, run):
        assert command(path) == 0
        warning = json.loads(capsys.readouterr().err)
        assert warning["noise_sigma"] == 0.001
        assert "measurement noise" in warning["warning"]
    stages = json.loads((out / "stages.json").read_text())
    assert np.isfinite(stages[0]["rel_error_vs_truth"])
    other = edited(GOOD_CONFIG.format(out=out), ("eps = 0.01", "eps = 0.01\nnoise_sigma = 0.001"))
    assert validate(write_config(tmp_path, other, "other.cfg")) == 0
    assert capsys.readouterr().err == ""


def test_overflowing_newton_step_exits_1_with_one_error_line(tmp_path):
    # k2 = 1e150 overflows the Newton step's curvature p.Ap, and CG stops at
    # it; stderr holds the JSON error line alone, no numpy warning before it.
    # A fresh interpreter shows warnings as a shipped run does, where pytest
    # would turn them into errors
    cfg = edited((ROOT / "configs" / "reconstruction_half_boundary.cfg").read_text(),
                 ("n = 64", "n = 32"),
                 ("k2 = exp(-4*((x-0.4)**2 + (y-0.6)**2))", "k2 = 1e150"))
    env = dict(os.environ, SEMIDTN_OUTPUT_DIR=str(tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-m", "semidtn.cli", "run", str(write_config(tmp_path, cfg))],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "CG breakdown" in json.loads(lines[0])["error"]


def test_unsampleable_expression_exits_2_with_one_error_line(tmp_path, capsys):
    # an expression that overflows, divides by zero or leaves the reals, or
    # holds a literal beyond float64, fails validation with one JSON line
    # naming its key, also where a later step would hide the fault; a fresh
    # interpreter under PYTHONWARNINGS=error, as the shipped configs run in
    # CI, shows no numpy warning or traceback first
    exprs = ("exp(1000*x)", "1/exp(1000*x)", "(-1)**0.5", "x*(-1)**0.5", "1/(x-x)",
             "(x-2)**0.5", "1/1e400")
    for expr in exprs:
        cfg = edited(FORWARD_CONFIG.format(out=tmp_path / "out"), ("k2 = 1 + x", f"k2 = {expr}"))
        assert validate(write_config(tmp_path, cfg)) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"].startswith(f"[potential] k2 = {expr!r}: cannot evaluate")
    cfg = edited(FORWARD_CONFIG.format(out=tmp_path / "out"), ("k2 = 1 + x", "k2 = exp(1000*x)"))
    env = dict(os.environ, PYTHONWARNINGS="error")
    proc = subprocess.run(
        [sys.executable, "-m", "semidtn.cli", "validate", str(write_config(tmp_path, cfg))],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "[potential] k2" in json.loads(lines[0])["error"]


def test_small_family_warns_as_one_json_line(tmp_path, capsys):
    # a family below a third of the order-2 basis size is known from the
    # config alone, so validate and run say so as one JSON line naming both
    # keys; a fresh interpreter under PYTHONWARNINGS=error, as the shipped
    # configs run in CI, still runs to exit 0 and writes the artifacts
    out = tmp_path / "out"
    cfg = edited(RECON_CONFIG.format(out=out), ("family_size = 6", "family_size = 2"),
                 ("basis_per_side = 3", "basis_per_side = 4"))
    env = dict(os.environ, SEMIDTN_OUTPUT_DIR=str(out), PYTHONWARNINGS="error")
    for command in ("validate", "run"):
        proc = subprocess.run(
            [sys.executable, "-m", "semidtn.cli", command, str(write_config(tmp_path, cfg))],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        warning = json.loads(lines[0])
        assert (warning["family_size"], warning["basis_per_side"]) == (2, 4)
    assert json.loads((out / "stages.json").read_text())[0]["m"] == 2
    assert (out / "coefficient_k2.csv").exists()
    # the bound is a third of the basis size: 3 of 9 passes silently, 2 warns
    for size, warnings in (("3", 0), ("2", 1)):
        edit = ("family_size = 6", f"family_size = {size}")
        assert validate(write_config(tmp_path, edited(RECON_CONFIG.format(out=out), edit))) == 0
        assert len(capsys.readouterr().err.splitlines()) == warnings


def test_console_entry_point(tmp_path):
    env = dict(os.environ)
    env.pop("SEMIDTN_OUTPUT_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "semidtn.cli", "list-scenarios"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "identity_check" in proc.stdout


def test_largest_reconstruction_eps_keeps_every_sample_in_the_smallness_gate(tmp_path):
    # the eps row takes the reconstruction's reach from the store's step,
    # 2 STEP_PER_EPS eps: at the largest eps it accepts, every trace the
    # store passes to the measurement stays within the smallness radius,
    # and one part in 1e6 more is rejected
    recon = CONFIGS["reconstruction"].format(out=tmp_path)
    eps = DEFAULT_SMALLNESS_RADIUS / (2 * STEP_PER_EPS)
    for kmax in ("2", "4"):
        cfg = load_config(write_config(tmp_path, edited(
            recon, ("kmax = 2", f"kmax = {kmax}"), ("eps = 0.01", f"eps = {eps!r}"))))
        assert cfg.eps == eps
        _rejected(tmp_path, edited(recon, ("kmax = 2", f"kmax = {kmax}"),
                                   ("eps = 0.01", f"eps = {eps * 1.000001!r}")),
                  "[measurement] eps")
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 4.0)
    fam = arc_supported_family(mask, 6, g)
    device = measurement(PotentialSeries.zero(g), mask, g)
    reach = []
    directions = DirectionStore(lambda trace: reach.append(np.max(np.abs(trace)))
                                or device(trace), fam, eps, mask, g)
    for m in (2, 3, 4):
        for head in combinations_with_replacement(range(len(fam)), m):
            directions.flux(head)
    assert directions.calls == len(reach) > 0
    assert 0.9 * DEFAULT_SMALLNESS_RADIUS <= max(reach) <= DEFAULT_SMALLNESS_RADIUS
