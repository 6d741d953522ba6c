import collections
import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import coulomb_chain
from conftest import SEED7_THREE, SEED7_TWO
from coulomb_chain import CollisionError, ConfigError, ForceSpec, Harmonic, StiffnessError, cli
from coulomb_chain import _floattext
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


# sha256 of every file each command writes on one small config, and verify's
# stdout.  The determinism tests compare two runs of the same code; these pins
# catch a change of any byte in any artifact.  Like the table pins in
# test_series.py they hold for one numpy build and CPU family.
PINNED_CONFIG = {
    **SINE_CONFIG,
    "ring": {"N": [8, 16, 32, 64], "L": 1.0, "J_max": 12, "scale": "auto"},
    "ode": {**SINE_CONFIG["ode"], "t_end": 1e-3},
}
PINNED_ARTIFACTS = {
    "coeffs": {
        "coeffs_N8.csv": "41deaaeb0f77f3e7b8e883b112fcd8626f355dc350e17740917084e132fa4326",
        "coeffs_N8.json": "8969c9391cdb21c2ba8ee062ccfd1e3f3777a834bb3115216f9662797eb6d051",
        "coeffs_N16.csv": "bc322ac284012232d72f0975d67d9cc96f18a2e9f95c7e086ae80d9c037b9e36",
        "coeffs_N16.json": "891e853f714b0c86353604379309696898a02603011a04684ac19f628eccbfd0",
        "coeffs_N32.csv": "2dbb9fe8bbce84a9436552321b37b2cf161b17a492047c81ebdaa7ce51df497a",
        "coeffs_N32.json": "67d9e9af9e262a7c3c44c7c704ca0844b9cb58c1ed4eefd9e10ea8aace4641ff",
        "coeffs_N64.csv": "edbc6fdb9cf1f8a6b35f8085dc3c85085aa0331d0f05b0d61b713c4737de32cc",
        "coeffs_N64.json": "ae5dde1d88b6ccd81f66710c9944460b21c25649e2322c91a375e7964c78359d",
    },
    "simulate": {
        "simulate.json": "1a9f003f3e4ae19090b4fe156b4e5b06183cfc530d57a37d380e93872756d77a",
        "trajectory_N8.csv": "78ca6510833242fcaa2a48b17aea471d0a0b3d43cb804e62d61f75c08609ce8a",
        "trajectory_N16.csv": "bfa804e10203afc7c39a7c9a1fbb8ed6f61fdfd9c1c06d2d37cb31678a8e078e",
        "trajectory_N32.csv": "dbb6ef6fdbdc3bed42ded32d05d5b7334c3cb8abf468c0bcac310c712bc943ea",
        "trajectory_N64.csv": "b35cd23bc4ae7ac601ac34144f65ae9e2a758ba580ad4300d93d79309ae3890e",
    },
    "compare": {
        "compare.json": "06b9d66ff32d30955c6d8b03916c9aab7273ac04507841e1e8726baff95daba8",
    },
    "radius": {
        "radius.csv": "4023a5687807d90add062e6e92c62a902232b477fd5b202d4d09e03f2b5d43bf",
        "radius.json": "10aef21662d573ec3d79c09c440aaf62b1f3ac074cf323dd27042c1f0c297d68",
    },
    "verify": {
        "verify.json": "2e340feb44e1ed2ce70a28323abf002b06944132b7b885dd395396e66eaaa8e3",
    },
    "sweep": {
        "exponents.csv": "137072f659ebf4af854bce59a0848b016773ad3057d9b65ea4f9b967712652bd",
        "radius.csv": "4023a5687807d90add062e6e92c62a902232b477fd5b202d4d09e03f2b5d43bf",
        "sweep.json": "ae0a21a8425521d159499ed4567d1eb59c232e6e015d521b63be4184df37c176",
    },
}
PINNED_VERIFY_STDOUT = (
    "PASS  order-3 magnitude bound\n"
    "PASS  composition-sum cross-check  (max rel err 5.20e-14)\n"
)


def test_every_command_artifact_is_pinned(tmp_path, capsys):
    cfg = write_config(tmp_path, PINNED_CONFIG)
    digests, stdout = {}, {}
    for command in PINNED_ARTIFACTS:
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
        stdout[command] = capsys.readouterr().out
        digests[command] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
        }
    assert digests == PINNED_ARTIFACTS
    assert stdout == {**dict.fromkeys(PINNED_ARTIFACTS, ""), "verify": PINNED_VERIFY_STDOUT}


# The pins above use a pure sine, whose force values keep the same bits in
# either form of a harmonic; these pin the integrator's path for a general
# harmonic (a and b both nonzero), where one sine per harmonic rounds
# differently from a*cos + b*sin.
TWO_HARMONIC_CONFIG = {**PINNED_CONFIG, "force": SEED7_TWO.to_json()}
TWO_HARMONIC_ARTIFACTS = {
    "simulate": {
        "simulate.json": "02d7573286b8312f00e2e57aff0c0f6c20a504882bfe479b57f8e5ece0696101",
        "trajectory_N8.csv": "3d831dece95e4057df18aee4a4a8ef8a76cb2f014edbf1b1e318d8eccbf3430f",
        "trajectory_N16.csv": "614ac92a07140741655ea519758ea449f2499ab2ee255265669da549705ccf51",
        "trajectory_N32.csv": "e010eaeb99802ef00be8b6a1114129177c87a29e9a62e93a5bcaf0c980ee29fa",
        "trajectory_N64.csv": "b839ad8da6541644ed9398f07748d54b6bb1bcfd1441be0a7546f36927423a7e",
    },
    "compare": {
        "compare.json": "e6acfc7e048bc8e54d9782b544957550148f31ff72eeb465383e5025d751b1c5",
    },
}


def test_two_harmonic_integration_is_pinned(tmp_path):
    cfg = write_config(tmp_path, TWO_HARMONIC_CONFIG)
    digests = {}
    for command in TWO_HARMONIC_ARTIFACTS:
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
        digests[command] = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
        }
    assert digests == TWO_HARMONIC_ARTIFACTS


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


def test_coeffs_writes_each_table_before_computing_the_next(tmp_path, capsys):
    # scale 3e12 keeps N=8 in double range at J_max=24 but overflows N=64
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [8, 64], "L": 1.0, "J_max": 24, "scale": 3e12}
    code, out = run("coeffs", tmp_path, obj)
    assert code == 3
    assert "N=64" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["coeffs_N8.csv", "coeffs_N8.json"]


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
    assert "analysis.n_grid" in err


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
        ("ring", "N", [], "ring.N"),
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
        ("ode", "abs_tol", 0.5, "ode.abs_tol"),
        ("ode", "t_end", 0, "ode.t_end"),
        ("analysis", "tail_fraction", 1.5, "analysis.tail_fraction"),
        ("analysis", "tail_fraction", 0.0, "analysis.tail_fraction"),
        ("output", "directory", 3, "output.directory"),
        ("output", "formats", "csv", "output.formats"),  # a list, not a bare string
        ("output", "formats", [], "output.formats"),
        ("output", "formats", ["xml"], "output.formats"),
    ],
)
def test_config_error_names_field(tmp_path, capsys, section, key, value, path):
    obj = copy.deepcopy(SINE_CONFIG)
    obj[section][key] = value
    code, out = run("coeffs", tmp_path, obj)
    assert code == 2
    assert f"error: {path}:" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


NO_FORCE_L = {**SINE_CONFIG, "force": {k: v for k, v in SINE_CONFIG["force"].items() if k != "L"}}


@pytest.mark.parametrize(
    "value, message",
    [
        (-1, "must be positive and finite, got -1"),
        ("x", "expected a number, got 'x'"),
        (0, "must be positive and finite, got 0"),
        (True, "expected a number, got True"),
        (1e400, "must be positive and finite, got inf"),  # written as Infinity
    ],
)
def test_bad_ring_L_is_named_when_the_force_inherits_it(tmp_path, capsys, value, message):
    # force.L defaults to ring.L, so a bad period the force would inherit is
    # ring.L's fault.
    obj = copy.deepcopy(NO_FORCE_L)
    obj["ring"]["L"] = value
    code, out = run("coeffs", tmp_path, obj)
    assert code == 2
    assert capsys.readouterr().err == f"error: ring.L: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("L", [1, 1.0, 2.5])
def test_inherited_force_period_writes_the_same_table(tmp_path, L):
    tables = {}
    for name, force in (("explicit", {**NO_FORCE_L["force"], "L": float(L)}),
                        ("inherited", NO_FORCE_L["force"])):
        obj = {**NO_FORCE_L, "ring": {**NO_FORCE_L["ring"], "L": L}, "force": force}
        (tmp_path / name).mkdir()
        code, out = run("coeffs", tmp_path / name, obj)
        assert code == 0
        tables[name] = [(out / f"coeffs_N8.{fmt}").read_bytes() for fmt in ("csv", "json")]
    assert tables["inherited"] == tables["explicit"]
    assert json.loads(tables["inherited"][1])["config"]["force"]["L"] == L


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(b"[1, 2]", "config: top level must be a JSON object", id="top-level-list"),
        *(
            pytest.param(json.dumps({**SINE_CONFIG, section: value}).encode(),
                         f"{section}: expected an object", id=f"{section}-not-an-object")
            for section, value in [("ring", 3), ("ode", []), ("analysis", "x"), ("output", None)]
        ),
        pytest.param(json.dumps({k: v for k, v in SINE_CONFIG.items() if k != "force"}).encode(),
                     "config.force: missing required field", id="no-force"),
        pytest.param(json.dumps({**SINE_CONFIG, "ring": {"N": 8, "L": 1.0}}).encode(),
                     "ring.J_max: missing required field", id="no-J_max"),
        pytest.param(b'{"ring": ', "config: invalid JSON in ", id="invalid-json"),
        pytest.param(b'{"ring": \xff}', "config: cannot read ", id="not-utf-8"),
    ],
)
def test_malformed_config_document_is_a_config_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, path",
    [
        ((), "odes", "odes"),
        (("ring",), "n", "ring.n"),
        (("force",), "b1", "force.b1"),
        (("force", "harmonics", 0), "amp", "force.harmonics[0].amp"),
        (("ode",), "rtol", "ode.rtol"),
        (("analysis",), "tail", "analysis.tail"),
        (("output",), "dir", "output.dir"),
    ],
)
def test_unknown_key_is_a_config_error(tmp_path, capsys, section, key, path):
    # a misspelled setting must not run silently at its default
    obj = copy.deepcopy(SINE_CONFIG)
    target = obj
    for step in section:
        target = target[step]
    target[key] = 1e-13
    code, out = run("coeffs", tmp_path, obj)
    assert code == 2
    assert f"error: {path}: unknown key" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def test_large_amplitude_forces(tmp_path, capsys):
    # Valid configs whose raw coefficients or bounds leave double range
    # although the rescaled table is fine: the bound checks stay in the log
    # domain, and the oracle carries the rescale through its prefactors, so
    # verify cross-checks them like any other force.
    ring = {"N": [16, 32], "L": 1, "J_max": 9}
    huge_amplitude = {
        "ring": {**ring, "scale": 1e-100},
        "force": {"harmonics": [{"k": 1, "a": 0.0, "b": 1e120}]},
    }
    huge_frequency = {
        "ring": {**ring, "scale": 1e-20},
        "force": {"harmonics": [{"k": 16 * 10**35, "a": 0.0, "b": 1e50}]},
    }
    for obj in (huge_amplitude, huge_frequency):
        for command in ("coeffs", "radius", "sweep", "verify"):
            code, out = run(command, tmp_path, obj)
            assert code == 0, (command, capsys.readouterr().err)
        checks = [line.split("  ")[:2] for line in capsys.readouterr().out.splitlines()]
        assert ["PASS", "composition-sum cross-check"] in checks
        assert json.loads((out / "verify.json").read_text())["passed"] is True
    code, out = run("sweep", tmp_path, huge_amplitude)
    assert json.loads((out / "sweep.json").read_text())["bounds"]["hard_c3_ok"] is True


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


@pytest.mark.parametrize("command", ["coeffs", "radius", "sweep", "verify", "compare"])
def test_amplitude_near_the_top_of_double_range_reports_the_overflow_order(
        tmp_path, capsys, command):
    # hypot(a, b) >= 2**1023 once took the power-of-two seed out of range.
    obj = {"ring": {"N": [8, 16], "L": 1.0, "J_max": 9},
           "force": {"harmonics": [{"k": 1, "b": 1e308}]}}
    code, _ = run(command, tmp_path, obj)
    assert code == 3
    assert capsys.readouterr().err.strip() == (
        "error: coefficient overflow at order 3: rescale 0.17677669529663687"
        " too large for N=8, j_max=9")


@pytest.mark.parametrize("amplitude", [1e150, 1e200])
def test_overflowing_integration_is_a_stiffness_error(tmp_path, amplitude):
    # The squared norm of the starting right-hand side overflows in scipy's
    # step-size control, which must not warn: here warnings are errors, and
    # in a plain run they would reach stderr before the one error line.
    obj = copy.deepcopy(SINE_CONFIG)
    obj["force"]["harmonics"][0]["b"] = amplitude
    ring = coulomb_chain.RingConfig(N=8, L=1.0, force=ForceSpec.from_json(obj["force"]), j_max=12)
    with pytest.raises(StiffnessError):
        coulomb_chain.integrate(ring, obj["ode"]["t_end"])
    cfg = write_config(tmp_path, obj)
    env = dict(os.environ)
    src = str(Path(coulomb_chain.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coulomb_chain.cli as c; sys.exit(c.main(sys.argv[1:]))",
         "simulate", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


def test_radius_degenerate_for_constant_force(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["force"] = {"L": 1.0, "a0": 2.0, "harmonics": []}
    code, out = run("radius", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "radius.json").read_text())
    assert payload["radius"][0]["degenerate"] is True
    assert payload["radius"][0]["R_hat"] is None


def test_radius_and_compare_at_the_smallest_truncation(tmp_path):
    # At J_max = 8 the fit window takes orders 3..8, three odd ones: the sine
    # series does not end, and compare stops at half its radius.
    obj = copy.deepcopy(SINE_CONFIG)
    obj["ring"].update(N=[16, 32], J_max=8)
    obj["ode"]["t_end"] = 0.1
    code, out = run("radius", tmp_path, obj)
    assert code == 0
    radius = json.loads((out / "radius.json").read_text())["radius"]
    assert [(r["window"], r["degenerate"]) for r in radius] == [([3, 8], False)] * 2
    assert all(0.1 < r["R_hat"] < 0.2 for r in radius)
    code, out = run("compare", tmp_path, obj)
    assert code == 0
    for r, c in zip(radius, json.loads((out / "compare.json").read_text())["per_N"]):
        assert c["R_hat"] == r["R_hat"] and c["horizon"] == 0.5 * r["R_hat"]


def test_radius_rejects_shallow_truncation_before_any_table(tmp_path, capsys, monkeypatch):
    calls = []
    for engine in ("coefficient_profiles", "coefficient_tables"):
        monkeypatch.setattr(cli.series, engine, lambda rings: calls.append(rings))
    obj = copy.deepcopy(SINE_CONFIG)
    obj["ring"]["J_max"] = 5
    code, out = run("radius", tmp_path, obj)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ring.J_max: ")
    assert calls == [] and not out.exists()


def test_sweep_peak_memory_on_the_wide_grid(tmp_path):
    # sweep reads one magnitude profile per N and keeps no table; holding the
    # tables of N = 2**8..2**18 at J_max = 9 alone would take 40 MiB.
    obj = {**SINE_CONFIG, "force": SEED7_TWO.to_json(),
           "ring": {"N": [2**p for p in range(8, 19)], "L": 1.0, "J_max": 9, "scale": "auto"}}
    cfg = replace(cli.parse_config(obj), out_dir=tmp_path / "out")
    tracemalloc.start()
    try:
        cli.cmd_sweep(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sweep_on_a_million_particles_takes_under_a_second(tmp_path):
    # The loop runs on a 32-point proxy grid; each ring adds one matrix
    # product of about 2 (B_j + 1) N multiply-adds per odd order.
    obj = {**SINE_CONFIG, "force": SEED7_TWO.to_json(),
           "ring": {"N": [2**p for p in range(8, 21)], "L": 1.0, "J_max": 9, "scale": "auto"}}
    cfg = replace(cli.parse_config(obj), out_dir=tmp_path / "out")
    seconds = []
    for _ in range(2):
        start = time.perf_counter()
        cli.cmd_sweep(cfg)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1.0


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
    # at least one step per sample interval
    assert payload["per_N"][0]["ode_steps"] >= obj["ode"]["sample_count"]
    assert payload["per_N"][0]["ode_rhs_evals"] > payload["per_N"][0]["ode_steps"]


def compare_seed7(tmp_path, n, j_max):
    obj = {**SINE_CONFIG, "force": SEED7_TWO.to_json(),
           "ring": {"N": n, "L": 1.0, "J_max": j_max, "scale": "auto"},
           "ode": {**SINE_CONFIG["ode"], "t_end": 1.0}}
    code, out = run("compare", tmp_path, obj)
    assert code == 0
    (entry,) = json.loads((out / "compare.json").read_text())["per_N"]
    return entry


def test_compare_tail_is_in_the_units_of_the_error(tmp_path):
    # Both are relative to the largest velocity, so the tail of a series cut
    # at J_max = 9 bounds its error without overstating it tenfold.
    entry = compare_seed7(tmp_path, 64, 9)
    error, tail = entry["max_rel_velocity_error"], entry["truncation_tail_estimate"]
    assert error <= tail <= 10 * error


def test_compare_tail_ignores_the_vanishing_even_order(tmp_path):
    # At scale 2e-29 the horizon is about 1e27 rescaled time units: its 11th
    # power is finite but its 12th overflows a float.  Order 12 is zero, so
    # the tail is order 11's term, the same number as on the automatic scale.
    tails = {}
    for scale in (2e-29, "auto"):
        obj = copy.deepcopy(SINE_CONFIG)
        obj["ring"]["scale"] = scale
        (tmp_path / str(scale)).mkdir()
        code, out = run("compare", tmp_path / str(scale), obj)
        assert code == 0
        tails[scale] = json.loads((out / "compare.json").read_text())["per_N"][0]
    assert tails[2e-29]["horizon"] == tails["auto"]["horizon"]
    assert tails[2e-29]["truncation_tail_estimate"] == pytest.approx(
        tails["auto"]["truncation_tail_estimate"], rel=1e-9)


def test_compare_tail_when_the_rescaled_horizon_power_overflows(tmp_path):
    # At scale 1e-31 the horizon is about 2e29 rescaled time units and its
    # 11th power overflows a float, which made compare exit 3; the tail is
    # then taken in logs, where the scale cancels.  On the sine force the
    # order-11 column itself underflows at that scale, so only the exit is
    # checked there.  At amplitude 1e20 the column stays normal at scale 3e-39
    # while (horizon/scale)**11 overflows, and the tail is that of scale 1e-38,
    # where nothing overflows.
    def compare(obj, name):
        (tmp_path / name).mkdir()
        code, out = run("compare", tmp_path / name, obj)
        assert code == 0
        return json.loads((out / "compare.json").read_text())["per_N"][0]

    obj = copy.deepcopy(SINE_CONFIG)
    obj["ring"]["scale"] = 1e-31
    assert math.isfinite(compare(obj, "sine")["truncation_tail_estimate"])
    tails = {}
    for scale in (3e-39, 1e-38):
        obj = copy.deepcopy(SINE_CONFIG)
        obj["force"]["harmonics"][0]["b"] = 1e20
        obj["ring"]["scale"] = scale
        obj["ode"]["t_end"] = 1.0
        tails[scale] = compare(obj, str(scale))["truncation_tail_estimate"]
    assert tails[3e-39] == pytest.approx(tails[1e-38], rel=1e-12)


def test_compare_horizon_is_not_cut_by_noise(tmp_path):
    # Rounding noise in deep orders used to shrink R_hat to 0.0094 here, and
    # the horizon to 0.0047.
    assert compare_seed7(tmp_path, 256, 13)["horizon"] >= 0.01


def test_verify_passes(tmp_path, capsys):
    code, out = run("verify", tmp_path, SINE_CONFIG)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in lines] == [
        ["PASS", "order-3 magnitude bound"],
        ["PASS", "composition-sum cross-check"],
    ]
    payload = json.loads((out / "verify.json").read_text())
    assert set(payload) == {"bounds", "oracle_max_rel_err", "passed"}
    assert payload["passed"] is True and payload["oracle_max_rel_err"] <= 1e-10


@pytest.mark.parametrize("j_max", [3, 5, 6])
def test_verify_cross_check_reaches_the_proxy_grid(tmp_path, capsys, sine_force, j_max):
    # With one harmonic k = 1, 2 B_J is 4 or 6, so the cross-check ring N = 8
    # runs on the P = 8 proxy grid rather than on its own points.
    assert 8 > 2 * cli.series._band(sine_force, j_max)
    obj = dict(SINE_CONFIG)
    obj["ring"] = {**SINE_CONFIG["ring"], "J_max": j_max}
    code, out = run("verify", tmp_path, obj)
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "verify.json").read_text())["oracle_max_rel_err"] <= 1e-10


def test_sweep_report(tmp_path):
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [16, 32, 64, 128], "L": 1.0, "J_max": 9, "scale": "auto"}
    code, out = run("sweep", tmp_path, obj)
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert set(payload) == {"bounds", "exponents", "radius", "trend"}
    assert {e["j"] for e in payload["exponents"]} == {1, 3, 5, 7, 9}
    assert payload["bounds"]["hard_c3_ok"] is True
    assert payload["bounds"]["orders"] == [3, 5, 7, 9]  # even orders vanish from rest
    assert payload["radius"] and payload["trend"]["monotone_ok"] is True
    # flattened CSV companions for plotting
    exp_rows = (out / "exponents.csv").read_text().strip().splitlines()
    assert exp_rows[0] == "j,slope,half_width,cap_half,cap_five_sixths"
    assert len(exp_rows) == 6
    rad_rows = (out / "radius.csv").read_text().strip().splitlines()
    assert len(rad_rows) == 5


def test_sweep_skips_columns_that_vanish(tmp_path):
    # A constant force moves the ring rigidly, so only order 1 is nonzero:
    # the fits of the zero columns 3..9 are skipped, not failed.
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [16, 32, 64, 128], "L": 1.0, "J_max": 9, "scale": "auto"}
    obj["force"] = {"L": 1.0, "a0": 2.0, "harmonics": []}
    code, out = run("sweep", tmp_path, obj)
    assert code == 0
    assert [e["j"] for e in json.loads((out / "sweep.json").read_text())["exponents"]] == [1]


@pytest.mark.parametrize("j_max", [1, 2])
def test_sweep_and_verify_below_order_three(tmp_path, capsys, monkeypatch, j_max):
    # Without an order-3 column there is no order-3 bound to check, and the
    # cross-check would compare only order 1, which the oracle and the engine
    # compute by the same formula: both read as skipped, and neither fails.
    obj = dict(SINE_CONFIG)
    obj["ring"] = {"N": [16, 32, 64, 128], "L": 1.0, "J_max": j_max, "scale": "auto"}
    code, out = run("sweep", tmp_path, obj)
    assert code == 0, capsys.readouterr().err
    bounds = json.loads((out / "sweep.json").read_text())["bounds"]
    assert bounds["hard_c3_ok"] is None and bounds["orders"] == []
    capsys.readouterr()
    monkeypatch.setattr(cli.series, "oracle_coefficients", None)  # never run
    code, out = run("verify", tmp_path, obj)
    assert code == 0, capsys.readouterr().err
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in lines] == [
        ["SKIP", "order-3 magnitude bound"],
        ["SKIP", "composition-sum cross-check"],
    ]
    payload = json.loads((out / "verify.json").read_text())
    assert payload["bounds"]["hard_c3_ok"] is None and payload["oracle_max_rel_err"] is None
    assert payload["passed"] is True


# One harmonic whose index is a multiple of a default cross-check ring (3):
# that ring would move rigidly, with orders 3 and 7 exactly zero.
ALIASING_CONFIG = {
    "ring": {"N": [4, 8], "L": 1.0, "J_max": 12},
    "force": {"harmonics": [{"k": 3, "a": 0.2}]},
}


def test_cross_check_rings_divide_no_harmonic_index(sine_force):
    assert cli._cross_check_sizes(sine_force) == (3, 4, 8)
    assert cli._cross_check_sizes(SEED7_TWO) == (3, 4, 8)
    assert cli._cross_check_sizes(SEED7_THREE) == (4, 5, 8)
    assert cli._cross_check_sizes(ForceSpec(L=1.0, a0=2.0)) == (3, 4, 8)
    huge = ForceSpec(L=1.0, harmonics=(Harmonic(16 * 10**35, 0.0, 1e50),))
    assert cli._cross_check_sizes(huge) == (3, 6, 9)


def test_verify_passes_when_a_harmonic_is_uniform_on_a_default_ring(tmp_path, capsys):
    code, out = run("verify", tmp_path, ALIASING_CONFIG)
    assert code == 0, capsys.readouterr().err
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in lines][1] == ["PASS", "composition-sum cross-check"]
    assert json.loads((out / "verify.json").read_text())["oracle_max_rel_err"] <= 1e-10


@pytest.mark.parametrize("ring", [0, 1, 2])
def test_cross_check_fails_on_a_perturbed_entry(tmp_path, capsys, monkeypatch, ring):
    # One entry of the order-3 column, off by 1e-9 relative on one of the
    # rings (4, 5, 8): the check must still see it.
    tables = cli.series.coefficient_tables

    def perturbed(rings):
        for r, table in enumerate(tables(rings)):
            if r == ring:
                i = int(np.argmax(np.abs(table.data[:, 3])))
                assert table.data[i, 3] != 0.0
                table.data[i, 3] *= 1.0 + 1e-9
            yield table

    monkeypatch.setattr(cli.series, "coefficient_tables", perturbed)
    code, out = run("verify", tmp_path, ALIASING_CONFIG)
    assert code == cli.EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[:2] for line in lines][1] == ["FAIL", "composition-sum cross-check"]
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is False and payload["oracle_max_rel_err"] > 1e-10


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
    assert run_info["n_steps"] >= 5 and run_info["n_rejected_steps"] == 0


def test_trajectory_csv_matches_reference_rendering(tmp_path):
    code, out = run("simulate", tmp_path, SINE_CONFIG)
    assert code == 0
    cfg = cli.load_config(write_config(tmp_path, SINE_CONFIG))
    t_eval = np.linspace(0.0, cfg.t_end, cfg.sample_count + 1)
    sol = coulomb_chain.integrate(cfg.rings[0], cfg.t_end, cfg.rel_tol, cfg.abs_tol, t_eval=t_eval)
    lines = ["t,i,x,v"]  # one f-string per line
    for st in sol.states:
        lines.extend(
            f"{st.t:.17g},{i},{x:.17g},{v:.17g}"
            for i, (x, v) in enumerate(zip(st.x.tolist(), st.v.tolist()))
        )
    assert (out / "trajectory_N8.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


# The files each command writes besides its <command>.json report, only with csv.
CSV_SIDE_FILES = {
    "coeffs": set(),
    "simulate": {"trajectory_N8.csv", "trajectory_N16.csv"},
    "compare": set(),
    "radius": {"radius.csv"},
    "verify": set(),
    "sweep": {"radius.csv", "exponents.csv"},
}


@pytest.mark.parametrize("formats", [["csv"], ["json"], ["csv", "json"]], ids="-".join)
@pytest.mark.parametrize("command", CSV_SIDE_FILES)
def test_format_override(tmp_path, command, formats):
    # The report <command>.json is always written (coeffs has none);
    # output.formats chooses the coefficient tables and the CSV side files.
    obj = copy.deepcopy(SINE_CONFIG)
    obj["ring"]["N"] = [8, 16]
    obj["output"]["formats"] = formats
    code, out = run(command, tmp_path, obj)
    assert code == 0
    if command == "coeffs":
        expected = {f"coeffs_N{n}.{f}" for n in (8, 16) for f in formats}
    else:
        expected = {f"{command}.json"} | (CSV_SIDE_FILES[command] if "csv" in formats else set())
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)


def test_each_table_format_alone_writes_the_same_bytes_and_only_its_work(tmp_path, monkeypatch):
    # Both formats come from one formatting pass; the CSV alone, like the
    # trajectories, runs no shortest-digit search, and the JSON alone lays
    # each chunk out once.
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_shortest", "_layout"):
        monkeypatch.setattr(_floattext, name, counted(name, getattr(_floattext, name)))
    obj = copy.deepcopy(SINE_CONFIG)
    obj["ring"]["N"] = [8, 16]  # one chunk per table
    files, work = {}, {}
    for formats in (["csv", "json"], ["csv"], ["json"]):
        obj["output"]["formats"] = formats
        key = "-".join(formats)
        (tmp_path / key).mkdir()
        calls.clear()
        code, out = run("coeffs", tmp_path / key, obj)
        assert code == 0
        files[key] = {p.name: p.read_bytes() for p in out.iterdir()}
        work[key] = dict(calls)
    for fmt in ("csv", "json"):
        assert files[fmt] == {k: v for k, v in files["csv-json"].items() if k.endswith(fmt)}
    assert work == {"csv-json": {"_shortest": 2, "_layout": 4}, "csv": {"_layout": 2},
                    "json": {"_shortest": 2, "_layout": 2}}
    calls.clear()
    obj["output"]["formats"] = ["csv", "json"]
    assert run("simulate", tmp_path / "csv", obj)[0] == 0
    assert calls["_layout"] > 0 and calls["_shortest"] == 0


def test_radius_sweep_and_compare_report_one_radius(tmp_path):
    obj = copy.deepcopy(SINE_CONFIG)
    obj["ring"] = {"N": [8, 16, 32, 64], "L": 1.0, "J_max": 9, "scale": "auto"}
    cfg = write_config(tmp_path, obj)
    for cmd in ("radius", "sweep", "compare"):
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)]) == 0
    radius = json.loads((tmp_path / "radius" / "radius.json").read_text())
    sweep = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    compare = json.loads((tmp_path / "compare" / "compare.json").read_text())
    csv_bytes = (tmp_path / "radius" / "radius.csv").read_bytes()
    assert csv_bytes == (tmp_path / "sweep" / "radius.csv").read_bytes()
    assert {key: sweep[key] for key in ("radius", "trend")} == radius
    r_hats = [e["R_hat"] for e in radius["radius"]]
    assert all(r > 0 for r in r_hats)
    assert [e["R_hat"] for e in compare["per_N"]] == r_hats


@pytest.mark.parametrize("blocker, out", [
    ("taken", "taken"),  # --out names an existing file
    ("taken", "taken/sub"),  # --out lies below a file
    ("out/coeffs_N8.csv/", "out"),  # a directory stands where a table goes
])
def test_unwritable_output_directory_is_a_config_error(tmp_path, capsys, blocker, out):
    if blocker.endswith("/"):
        (tmp_path / blocker).mkdir(parents=True)
    else:
        (tmp_path / blocker).write_text("")
    cfg = write_config(tmp_path, SINE_CONFIG)
    assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output.directory: cannot write ") and str(tmp_path / out) in err
    assert not list(tmp_path.rglob("*.tmp"))


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


def nan_acceleration(config, x0, g0, dg0, u, out, work):
    out.fill(np.nan)  # every step fails its error test


@pytest.mark.parametrize(
    "attr, value, message",
    [
        # the first accepted step is below the floor
        pytest.param("MIN_STEP_FRACTION", 1.0, "accepted step ", id="step-below-floor"),
        pytest.param("_acceleration", nan_acceleration, "step-size control failed: ",
                     id="nan-right-hand-side"),
    ],
)
def test_step_underflow_exits_1(tmp_path, monkeypatch, capsys, attr, value, message):
    monkeypatch.setattr(cli.ode, attr, value)
    code, out = run("simulate", tmp_path, SINE_CONFIG)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (out / "simulate.json").exists()


@pytest.mark.parametrize("options_first", [False, True])
def test_options_come_before_or_after_the_command(tmp_path, options_first):
    cfg = write_config(tmp_path, SINE_CONFIG)
    options = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(options + ["radius"] if options_first else ["radius"] + options) == 0
    assert (tmp_path / "out" / "radius.json").exists()


@pytest.mark.parametrize("command", [["bogus"], [], ["coeffs", "radius"]])
def test_a_bad_command_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, SINE_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "usage: coulomb-chain" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_names_every_command_with_its_summary(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("coeffs", "simulate", "compare", "radius", "verify", "sweep"):
        summary = getattr(cli, f"cmd_{name}").__doc__.splitlines()[0]
        assert [name, summary] in [line.split(maxsplit=1) for line in lines], name


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
