import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semidtn.cli import ConfigError, _field_csv, add_noise, load_config, main, run, validate
from semidtn.geometry import make_grid

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

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
basis_per_side = 3

[extras]
tuples = 3
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "out"))
    cfg = load_config(path)
    assert cfg.scenario == "identity_check"
    assert cfg.n == 16
    assert cfg.s1 == 2.0
    assert cfg.potential_exprs == {2: "1 + x"}
    assert cfg.kmax == 2
    assert cfg.lam is None


def test_validate_ranges(tmp_path):
    bad = GOOD_CONFIG.format(out=tmp_path).replace("n = 16", "n = 4")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))
    bad = GOOD_CONFIG.format(out=tmp_path).replace("eps = 0.01", "eps = 0.2")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))
    bad = GOOD_CONFIG.format(out=tmp_path).replace("scenario = identity_check",
                                                   "scenario = nonsense")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad))
    # the reconstruction's samples reach 3 eps, which the smallness radius
    # 0.1 caps at eps <= 1/30, at K = 3 and at K = 2 alike; the other
    # scenarios keep (0, 0.05]
    recon = GOOD_CONFIG.format(out=tmp_path).replace("scenario = identity_check",
                                                     "scenario = reconstruction")
    for kmax, eps in (("3", "0.035"), ("3", "0.04"), ("3", "0.05"), ("2", "0.034"),
                      ("2", "0.05")):
        bad = recon.replace("kmax = 2", f"kmax = {kmax}").replace("eps = 0.01", f"eps = {eps}")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))
    for text in (recon.replace("eps = 0.01", "eps = 0.0333"),
                 GOOD_CONFIG.format(out=tmp_path).replace("eps = 0.01", "eps = 0.05")):
        load_config(write_config(tmp_path, text))
    # the Tikhonov weight and the noise level: negative or not finite
    for old_line, new_line in (("basis_per_side = 3", "basis_per_side = 3\nlambda = -1"),
                               ("basis_per_side = 3", "basis_per_side = 3\nlambda = inf"),
                               ("basis_per_side = 3", "basis_per_side = 3\nlambda = nan"),
                               ("eps = 0.01", "eps = 0.01\nnoise_sigma = -0.1"),
                               ("eps = 0.01", "eps = 0.01\nnoise_sigma = nan"),
                               ("eps = 0.01", "eps = 0.01\nnoise_sigma = inf")):
        bad = GOOD_CONFIG.format(out=tmp_path).replace(old_line, new_line)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))
    # reconstruction knobs: below the useful range, and above the caps
    for old_line, new_line in (("family_size = 6", "family_size = 0"),
                               ("family_size = 6", "family_size = 33"),
                               ("basis_per_side = 3", "basis_per_side = 1"),
                               ("basis_per_side = 3", "basis_per_side = 13"),
                               ("basis_per_side = 3", "basis_per_side = 3\nrows_factor = 0"),
                               ("basis_per_side = 3", "basis_per_side = 3\nrows_factor = -2"),
                               ("basis_per_side = 3", "basis_per_side = 3\nrows_factor = 11")):
        bad = GOOD_CONFIG.format(out=tmp_path).replace(old_line, new_line)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))
    # orders, kmax outside 2..4 (the checks used to accept up to 8 and check
    # only orders 2 and 3), the scenario extras, and sections or keys outside
    # the README table, which would otherwise fall back to their defaults
    for old_line, new_line in (("k2 = 1 + x", "k2 = 1 + x\nk9 = x"),
                               ("k2 = 1 + x", "k1000000 = x"),
                               ("k2 = 1 + x", "k\u00b2 = x"),
                               ("kmax = 2", "kmax = 1"),
                               ("kmax = 2", "kmax = 8"),
                               ("kmax = 2", "kmax = 9"),
                               ("kmax = 2", "kmax = 1000000"),
                               ("tuples = 3", "tuples = abc"),
                               ("tuples = 3", "tuples = 0"),
                               ("tuples = 3", "tuples = 1001"),
                               ("tuples = 3", "tuples = 3\nbump_amplitude = -5"),
                               ("tuples = 3", "tuples = 3\nbump_amplitude = 0"),
                               ("tuples = 3", "tuples = 3\nbump_amplitude = 0.11"),
                               ("tuples = 3", "tuples = 3\nbump_amplitude = nan"),
                               ("tuples = 3", "tuples = 3\nbump_width = 0"),
                               ("tuples = 3", "tuples = 3\nbump_width = -0.2"),
                               ("tuples = 3", "tuples = 3\nbump_width = inf"),
                               ("tuples = 3", "tuples = 3\nbump_width = 2.5"),
                               ("[potential]", "[potental]"),
                               ("[extras]", "[extra]"),
                               ("[extras]", "[solver]\nnewton_tol = 1e-9\n\n[extras]"),
                               ("seed = 11", "seed = 11\nsed = 3"),
                               ("n = 16", "n = 16\ncells = 16"),
                               ("s1 = 2.0", "s1 = 2.0\ns2 = 3.0"),
                               ("k2 = 1 + x", "k02 = 1 + x"),
                               ("eps = 0.01", "eps = 0.01\nnoise = 0.1"),
                               ("family_size = 6", "family_size = 6\nrows_facter = 9"),
                               ("tuples = 3", "tuples = 3\nbump_hight = 0.05")):
        bad = GOOD_CONFIG.format(out=tmp_path).replace(old_line, new_line)
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))
    for old_line, new_line in (("family_size = 6", "family_size = 12"),
                               ("basis_per_side = 3", "basis_per_side = 6\nrows_factor = 1"),
                               ("basis_per_side = 3", "basis_per_side = 3\nrows_factor = 3"),
                               ("k2 = 1 + x", "k2 = 1 + x\nk8 = x"),
                               ("kmax = 2", "kmax = 4"),
                               ("tuples = 3", "tuples = 1000"),
                               ("tuples = 3", "tuples = 1\nbump_amplitude = -0.1"),
                               ("tuples = 3", "tuples = 3\nbump_width = 2")):
        load_config(write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path)
                                 .replace(old_line, new_line)))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_malformed_config_exits_2_without_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, GOOD_CONFIG.format(out=out).replace("n = 16", "n = 999"))
    assert run(path) == 2
    assert not out.exists()


def test_bad_reconstruction_knob_exits_2_without_outputs(tmp_path):
    out = tmp_path / "out"
    text = GOOD_CONFIG.format(out=out).replace("scenario = identity_check",
                                               "scenario = reconstruction")
    path = write_config(tmp_path, text.replace("basis_per_side = 3",
                                               "basis_per_side = 3\nrows_factor = 0"))
    assert run(path) == 2
    assert not out.exists()


def test_unbounded_inputs_exit_2_without_outputs(tmp_path):
    # each of these used to hang, allocate without limit or fail after
    # writing the manifest; the last three used to pass validate, and so did
    # the non-finite noise levels and weight after them (a NaN noise level
    # ran without noise and wrote NaN into manifest.json), the
    # reconstruction steps beyond 1/30 (at K = 3, eps = 0.035 ran past the
    # smallness radius after writing the manifest), and the check steps and
    # negative seeds at the end (they failed after writing the manifest)
    forward = ("scenario = identity_check", "scenario = forward_convergence")
    recon = ("scenario = identity_check", "scenario = reconstruction")
    lin = ("scenario = identity_check", "scenario = linearization_check")
    for edits in ((("k2 = 1 + x", "k2 = 9**9**9"),),
                  (("tuples = 3", "tuples = abc"),),
                  (("tuples = 3", "tuples = 3\nbump_amplitude = -5"),),
                  (("kmax = 2", "kmax = 1000000"),),
                  (("k2 = 1 + x", "k1000000 = x"),),
                  (("k2 = 1 + x", "k2 = zebra"),),
                  (forward, ("n = 16", "n = 128")),
                  (recon, ("n = 16", "n = 64"), ("s1 = 2.0", "s1 = 0.1")),
                  (("eps = 0.01", "eps = 0.01\nnoise_sigma = nan"),),
                  (("eps = 0.01", "eps = 0.01\nnoise_sigma = inf"),),
                  (recon, ("eps = 0.01", "eps = 0.01\nnoise_sigma = nan")),
                  (recon, ("basis_per_side = 3", "basis_per_side = 3\nlambda = inf")),
                  (recon, ("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.035")),
                  (recon, ("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.05")),
                  (recon, ("eps = 0.01", "eps = 0.04")),
                  (lin, ("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.03")),
                  (("kmax = 2", "kmax = 3"), ("eps = 0.01", "eps = 0.05")),
                  (("seed = 11", "seed = -5"),),
                  (recon, ("seed = 11", "seed = -5"))):
        out = tmp_path / "out"
        text = GOOD_CONFIG.format(out=out)
        for old_line, new_line in edits:
            text = text.replace(old_line, new_line)
        path = write_config(tmp_path, text)
        assert validate(path) == 2
        assert run(path) == 2
        assert not out.exists()


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
    assert summary["max_abs_gap"] >= 0.0
    assert (out / "identity_check.csv").exists()


def test_seeded_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(write_config(tmp_path, GOOD_CONFIG.format(out=out1), "a.cfg"))
    run(write_config(tmp_path, GOOD_CONFIG.format(out=out2), "b.cfg"))
    for name in ("identity_check.csv", "identity_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("SEMIDTN_OUTPUT_DIR", str(override))
    path = write_config(tmp_path, GOOD_CONFIG.format(out=tmp_path / "ignored"))
    assert run(path) == 0
    assert (override / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_forward_convergence_scenario(tmp_path):
    out = tmp_path / "out"
    cfg = """\
[experiment]
scenario = forward_convergence
output_dir = {out}
seed = 0

[grid]
n = 8

[arc]
s0 = 0.0
s1 = 2.0

[potential]
k2 = 1 + x
""".format(out=out)
    assert run(write_config(tmp_path, cfg)) == 0
    lines = (out / "forward_convergence.csv").read_text().splitlines()
    assert lines[0] == "coarse_n,fine_n,sup_error,observed_order"
    assert len(lines) == 3
    order = float(lines[2].split(",")[3])
    assert 1.0 <= order <= 3.0


def test_linearization_scenario(tmp_path):
    out = tmp_path / "out"
    cfg = """\
[experiment]
scenario = linearization_check
output_dir = {out}
seed = 0

[grid]
n = 16

[arc]
s0 = 0.0
s1 = 2.0

[potential]
k2 = 1 + x

[measurement]
eps = 0.01
""".format(out=out)
    assert run(write_config(tmp_path, cfg)) == 0
    summary = json.loads((out / "linearization_summary.json").read_text())
    assert summary["m2_rel_sup_gap"] <= 1e-2


def test_check_scenarios_check_every_order(tmp_path, monkeypatch):
    # both checks used to stop at order 3 whatever kmax said; the shipped
    # configs with an order-4 term and kmax = 4 gave an order-4 relative sup
    # gap of 2.4e-4 and an order-4 moment gap of at most 2.6e-5
    for name in ("linearization_check", "identity_check"):
        out = tmp_path / name
        monkeypatch.setenv("SEMIDTN_OUTPUT_DIR", str(out))
        text = next(p for p in SHIPPED_CONFIGS if p.stem == name).read_text()
        text = text.replace("kmax = 3", "kmax = 4").replace(
            "\n\n[measurement]", "\nk4 = 1 + x*y\n\n[measurement]")
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


def test_reconstruction_scenario_cheap(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = """\
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
""".format(out=out)
    assert run(write_config(tmp_path, cfg)) == 0
    assert capsys.readouterr().err == ""  # no noise, no warning
    stages = json.loads((out / "stages.json").read_text())
    assert stages[0]["m"] == 2
    assert np.isfinite(stages[0]["rel_error_vs_truth"])
    field_lines = (out / "coefficient_k2.csv").read_text().splitlines()
    assert field_lines[0] == "x,y,value,truth_value"
    assert len(field_lines) == 1 + 17 * 17


def test_reconstruction_with_noise_stays_finite(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = """\
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
noise_sigma = 0.001

[reconstruction]
kmax = 2
family_size = 6
basis_per_side = 3
""".format(out=out)
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
    other = GOOD_CONFIG.format(out=out).replace("eps = 0.01", "eps = 0.01\nnoise_sigma = 0.001")
    assert validate(write_config(tmp_path, other, "other.cfg")) == 0
    assert capsys.readouterr().err == ""


def test_add_noise_contract():
    rng_trace = np.linspace(-1.0, 1.0, 32)
    assert np.array_equal(add_noise(rng_trace, 0.0, 5), rng_trace)
    a = add_noise(rng_trace, 1e-3, 7)
    b = add_noise(rng_trace, 1e-3, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng_trace)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            add_noise(rng_trace, sigma, 0)


def test_console_entry_point(tmp_path):
    env = dict(os.environ)
    env.pop("SEMIDTN_OUTPUT_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "semidtn.cli", "list-scenarios"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "identity_check" in proc.stdout
