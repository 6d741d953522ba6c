import copy
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import coulomb_chain
from coulomb_chain import CollisionError, ConfigError, StiffnessError, cli
from coulomb_chain.cli import main

SINE_CONFIG = {
    "ring": {"N": 8, "L": 1.0, "J_max": 12, "scale": "auto"},
    "force": {"L": 1.0, "a0": 0.0, "harmonics": [{"k": 1, "a": 0.0, "b": 0.5}]},
    "ode": {"t_end": 0.02, "rel_tol": 1e-10, "abs_tol": 1e-12, "sample_count": 5},
    "analysis": {"tail_fraction": 0.5},
    "output": {"directory": "out", "formats": ["csv", "json"]},
}


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def run(cmd, tmp_path, obj):
    cfg = write_config(tmp_path, obj)
    out = tmp_path / "out"
    code = main([cmd, "--config", str(cfg), "--out", str(out)])
    return code, out


def test_coeffs_deterministic(tmp_path):
    cfg = write_config(tmp_path, SINE_CONFIG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["coeffs", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert main(["coeffs", "--config", str(cfg), "--out", str(out_a)]) == 0  # overwrite
    for name in ("coeffs_N8.csv", "coeffs_N8.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_coeffs_constant_force_zero_columns(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["force"] = {"L": 1.0, "a0": 2.0, "harmonics": []}
    code, out = run("coeffs", tmp_path, obj)
    assert code == 0
    rows = (out / "coeffs_N8.csv").read_text().strip().splitlines()
    assert rows[0] == "i,j,c_scaled,scale,N,L,J_max"
    for row in rows[1:]:
        i, j, c = row.split(",")[:3]
        if int(j) >= 2:
            assert float(c) == 0.0


def test_coeffs_grid_writes_one_file_per_n(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [8, 16], "L": 1.0, "J_max": 10, "scale": "auto"}
    code, out = run("coeffs", tmp_path, obj)
    assert code == 0
    for n in (8, 16):
        assert (out / f"coeffs_N{n}.csv").exists()
        payload = json.loads((out / f"coeffs_N{n}.json").read_text())
        assert payload["config"]["N"] == n
        assert len(payload["coefficients"]) == n * 10


def test_csv_round_trip_against_library(tmp_path):
    code, out = run("coeffs", tmp_path, SINE_CONFIG)
    assert code == 0
    from coulomb_chain import ForceSpec, Harmonic, RingConfig, compute_coefficients

    table = compute_coefficients(
        RingConfig(
            N=8, L=1.0, force=ForceSpec(L=1.0, harmonics=(Harmonic(1, 0.0, 0.5),)), j_max=12
        )
    )
    rows = (out / "coeffs_N8.csv").read_text().strip().splitlines()[1:]
    parsed = np.zeros((8, 13))
    for row in rows:
        fields = row.split(",")
        parsed[int(fields[0]), int(fields[1])] = float(fields[2])
    np.testing.assert_array_equal(parsed[:, 1:], table.data[:, 1:])


def test_schema_rejection_names_field(tmp_path, capsys):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": "eight", "L": 1.0, "J_max": 12}
    code, _ = run("coeffs", tmp_path, obj)
    assert code == 2
    assert "ring.N" in capsys.readouterr().err

    # the removed second grid knob fails loudly instead of being ignored
    obj = dict(SINE_CONFIG)
    obj["analysis"] = {"tail_fraction": 0.5, "n_grid": [8, 16]}
    code, _ = run("coeffs", tmp_path, obj)
    assert code == 2
    err = capsys.readouterr().err
    assert "analysis.n_grid" in err and "ring.N" in err


def test_schema_rejects_bad_harmonic(tmp_path, capsys):
    bad = [
        ({"k": 0, "a": 1.0}, "k"),
        ({"k": 1.7}, "k"),
        ({"k": True}, "k"),
        ({"k": 1, "b": "0.5"}, "b"),
        ({"k": 1, "b": math.nan}, "b"),  # written as the JSON literal NaN
        ({"k": 1, "b": math.inf}, "b"),  # Infinity
    ]
    for harmonic, key in bad:
        obj = dict(SINE_CONFIG)
        obj["force"] = {"L": 1.0, "harmonics": [harmonic]}
        code, _ = run("coeffs", tmp_path, obj)
        assert code == 2, harmonic
        assert f"force.harmonics[0].{key}" in capsys.readouterr().err, harmonic


@pytest.mark.parametrize(
    "section, key, value, path",
    [
        ("ring", "N", 1, "ring.N"),
        ("ring", "N", [8, 1], "ring.N[1]"),
        ("ring", "L", -1.0, "ring.L"),
        ("ring", "L", math.nan, "ring.L"),
        ("ring", "J_max", 0, "ring.J_max"),
        ("ring", "J_max", True, "ring.J_max"),
        ("ring", "scale", -1.0, "ring.scale"),
        ("ring", "scale", math.inf, "ring.scale"),
        ("ring", "scale", None, "ring.scale"),
        ("force", "L", 0.0, "force.L"),
        ("force", "L", 2.0, "force.L"),  # differs from ring.L
        ("force", "a0", math.inf, "force.a0"),
        pytest.param("force", "a0", 10**400, "force.a0", id="force-a0-int-beyond-double"),
        ("ode", "rel_tol", 0.5, "ode.rel_tol"),
        ("analysis", "tail_fraction", 1.5, "analysis.tail_fraction"),
    ],
)
def test_config_error_names_field(tmp_path, capsys, section, key, value, path):
    obj = copy.deepcopy(SINE_CONFIG)
    obj[section][key] = value
    code, out = run("coeffs", tmp_path, obj)
    assert code == 2
    assert f"error: {path}:" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def test_schema_rejects_decreasing_grid(tmp_path, capsys):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [16, 8], "L": 1.0, "J_max": 12}
    code, _ = run("coeffs", tmp_path, obj)
    assert code == 2
    assert "ring.N" in capsys.readouterr().err


def test_overflow_exit_code(tmp_path, capsys):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": 16, "L": 1.0, "J_max": 24, "scale": 1e40}
    code, _ = run("coeffs", tmp_path, obj)
    assert code == 3
    assert "overflow" in capsys.readouterr().err.lower()


def test_radius_degenerate_for_constant_force(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["force"] = {"L": 1.0, "a0": 2.0, "harmonics": []}
    code, out = run("radius", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "radius.json").read_text())
    assert payload["radius"][0]["degenerate"] is True
    assert payload["radius"][0]["R_hat"] is None


def test_radius_report_shape(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [8, 16, 32], "L": 1.0, "J_max": 12, "scale": "auto"}
    code, out = run("radius", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "radius.json").read_text())
    assert [e["N"] for e in payload["radius"]] == [8, 16, 32]
    assert all(e["R_hat"] > 0 for e in payload["radius"])
    assert payload["trend"]["monotone_ok"] is True


def test_compare_constant_force(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["force"] = {"L": 1.0, "a0": 1.5, "harmonics": []}
    code, out = run("compare", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["max_rel_velocity_error"] <= 1e-12


def test_compare_zero_force(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["force"] = {"L": 1.0, "a0": 0.0, "harmonics": []}
    code, out = run("compare", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["max_rel_velocity_error"] == 0.0


def test_compare_sine_force(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": 8, "L": 1.0, "J_max": 24, "scale": "auto"}
    code, out = run("compare", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["max_rel_velocity_error"] <= 1e-6
    assert payload["per_N"][0]["horizon"] <= 0.5 * payload["per_N"][0]["R_hat"] + 1e-15


def test_verify_passes(tmp_path, capsys):
    code, out = run("verify", tmp_path, SINE_CONFIG)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in lines] == [
        ["PASS", "order-3 magnitude bound"],
        ["PASS", "order-4 magnitude bound"],
        ["PASS", "composition-sum cross-check"],
        ["PASS", "majorant self-domination"],
    ]
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True


def test_sweep_report(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [16, 32, 64, 128], "L": 1.0, "J_max": 9, "scale": "auto"}
    code, out = run("sweep", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert {e["j"] for e in payload["exponents"]} == {1, 3, 5, 7, 9}
    assert payload["bounds"]["hard_c3_ok"] is True
    assert payload["radius"] and payload["trend"]["monotone_ok"] is True
    assert payload["majorant"]["g"][0] == 1.0
    # flattened CSV companions for plotting
    exp_rows = (out / "exponents.csv").read_text().strip().splitlines()
    assert exp_rows[0] == "j,slope,half_width,cap_half,cap_five_sixths"
    assert len(exp_rows) == 6
    rad_rows = (out / "radius.csv").read_text().strip().splitlines()
    assert len(rad_rows) == 5


def test_simulate_writes_trajectory(tmp_path):
    code, out = run("simulate", tmp_path, SINE_CONFIG)
    assert code == 0
    rows = (out / "trajectory_N8.csv").read_text().strip().splitlines()
    assert rows[0] == "t,i,x,v"
    assert len(rows) == 1 + 8 * 6  # sample_count+1 times, N particles
    payload = json.loads((out / "simulate.json").read_text())
    run_info = payload["runs"][0]
    assert run_info["N"] == 8
    assert run_info["max_energy_drift"] <= 1e-7


def test_format_override(tmp_path):
    cfg = write_config(tmp_path, SINE_CONFIG)
    out = tmp_path / "csvonly"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    assert (out / "coeffs_N8.csv").exists()
    assert not (out / "coeffs_N8.json").exists()


@pytest.mark.parametrize(
    "exc, code",
    [
        (ConfigError("bad value"), 2),
        (OverflowError("too large"), 3),
        (CollisionError("gap at the floor"), 4),
        (StiffnessError("step underflow"), 1),
    ],
)
def test_exit_codes(tmp_path, monkeypatch, capsys, exc, code):
    def failing(cfg):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "coeffs", failing)
    assert run("coeffs", tmp_path, SINE_CONFIG)[0] == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_missing_config_file(tmp_path, capsys):
    assert main(["coeffs", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cold_start_defers_scipy(tmp_path):
    # coeffs, radius and verify never need scipy; importing it costs most of a
    # fresh process's start-up, so only simulate may load scipy.integrate.
    cfg = write_config(tmp_path, SINE_CONFIG)
    script = textwrap.dedent(
        """
        import sys
        import coulomb_chain.cli as cli

        cfg, out = sys.argv[1:]
        heavy = ("scipy.integrate", "scipy.special")
        for cmd in ("coeffs", "radius", "verify"):
            assert cli.main([cmd, "--config", cfg, "--out", out]) == 0, cmd
            loaded = [m for m in heavy if m in sys.modules]
            assert not loaded, f"{cmd} loaded {loaded}"
        assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
        assert "scipy.integrate" in sys.modules, "simulate did not load scipy.integrate"
        """
    )
    src = str(Path(coulomb_chain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
