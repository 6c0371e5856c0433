import hashlib
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import srx
from srx.cli import _resolve_run, main
from srx.io import write_csv, write_json
from srx.scenario import (BUNDLED, ScenarioError, bundled_scenario_path,
                          load_scenario, parse_scenario)


def _load_bundled_dict(name):
    return json.loads(bundled_scenario_path(name).read_text())


def _write_scenario(tmp_path, data, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- scenario loading -----------------------------------------------------------

def test_bundled_scenarios_load():
    for name in ("euclidean_line", "heisenberg_line", "heisenberg_arc",
                 "jump_control", "martinet_arc", "cartan_arc"):
        scenario = load_scenario(name)
        assert scenario.name == name
        assert len(scenario.sha256) == 64


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError):
        load_scenario("no_such_scenario")


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_missing_required_key(tmp_path):
    data = _load_bundled_dict("euclidean_line")
    del data["domain"]
    with pytest.raises(ScenarioError):
        load_scenario(_write_scenario(tmp_path, data))


def test_unknown_key_rejected(tmp_path):
    data = _load_bundled_dict("euclidean_line")
    data["frobnicate"] = 1
    with pytest.raises(ScenarioError):
        load_scenario(_write_scenario(tmp_path, data))


def test_q0_outside_domain_rejected(tmp_path):
    data = _load_bundled_dict("euclidean_line")
    data["q0"] = [10.0, 0.0]
    with pytest.raises(ScenarioError):
        load_scenario(_write_scenario(tmp_path, data))


def test_control_and_hamiltonian_exclusive(tmp_path):
    data = _load_bundled_dict("euclidean_line")
    data["hamiltonian"] = {"p0": [1.0, 0.0], "T": 1.0, "N_t": 10}
    with pytest.raises(ScenarioError):
        load_scenario(_write_scenario(tmp_path, data))


def test_segments_expansion():
    scenario = load_scenario("jump_control")
    u = scenario.control
    assert u.n_cells == 1000
    assert np.array_equal(u.samples[0], [1.0, 0.0])
    assert np.array_equal(u.samples[499], [1.0, 0.0])
    assert np.array_equal(u.samples[500], [0.0, 1.0])
    assert np.array_equal(u.samples[-1], [0.0, 1.0])


def test_delta_u_inherits_grid():
    scenario = load_scenario("heisenberg_line")
    assert scenario.delta_u is not None
    assert scenario.delta_u.n_cells == scenario.control.n_cells
    assert scenario.delta_u.horizon == scenario.control.horizon


def test_dependent_frame_rejected(tmp_path):
    data = _load_bundled_dict("euclidean_line")
    data["frame"]["fields"][1] = data["frame"]["fields"][0]
    with pytest.raises(ScenarioError):
        load_scenario(_write_scenario(tmp_path, data))


def test_parse_requires_object():
    with pytest.raises(ScenarioError):
        parse_scenario([1, 2, 3], "0" * 64)


# -- CLI ------------------------------------------------------------------------

def test_cli_integrate_euclidean(tmp_path):
    code = main(["integrate", "--config", "euclidean_line", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# srx ")
    assert lines[1] == "t,q1,q2"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 1.0
    assert abs(last[1] - 1.0) < 1e-12 and abs(last[2]) < 1e-12


def test_cli_integrate_heisenberg(tmp_path):
    code = main(["integrate", "--config", "heisenberg_line", "--out", str(tmp_path)])
    assert code == 0
    last = [float(x)
            for x in (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")]
    assert np.allclose(last, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_cli_integrate_domain_exit(tmp_path):
    data = _load_bundled_dict("euclidean_line")
    data["control"]["T"] = 4.0  # runs past x = 2
    code = main(["integrate", "--config", _write_scenario(tmp_path, data),
                 "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("key, value", [("n_trials", 0), ("N_s", 0),
                                        ("margin_factor", 1.5)],
                         ids=["n_trials", "N_s", "margin_factor"])
def test_certify_counts_below_one_rejected(tmp_path, key, value):
    # zero trials used to certify after verifying nothing, and a margin
    # factor of 1.5 certified a radius that breaks the angle condition
    data = _load_bundled_dict("heisenberg_line")
    data.setdefault("certify", {})[key] = value
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match=key):
        load_scenario(path)
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "certificate.json").exists()


@pytest.mark.parametrize("scenario, section", [
    ("heisenberg_line", "control"), ("heisenberg_arc", "hamiltonian")])
def test_t_prime_below_one_cell_rejected(tmp_path, scenario, section):
    # a T_prime shorter than one cell used to reach verification and end in
    # "certified radius is below one control cell" (exit 3), although the
    # certified radius spans many cells
    data = _load_bundled_dict(scenario)
    cell = data[section]["T"] / data[section]["N_t"]
    data.setdefault("certify", {})["T_prime"] = 0.5 * cell
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match="T_prime"):
        load_scenario(path)
    run = _run_cli("certify", "--config", path, "--out", str(tmp_path / "out"))
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1 and "T_prime" in run.stderr
    assert not (tmp_path / "out").exists()
    data["certify"]["T_prime"] = cell
    assert load_scenario(_write_scenario(tmp_path, data)).certify["T_prime"] == cell


@pytest.mark.parametrize("section, key, value", [
    ("certify", "n_trails", 4),
    ("certify", "margin", "1.1"),
    ("certify", "grid_resolution", 7.5),
    ("tolerances", "sigma_tol", -1),
    ("tolerances", "sigma_tol", 1.0),
    ("tolerances", "theta_min", -0.1),
    ("tolerances", "theta_min", "0.001"),
    ("tolerances", "acb_bound", 0),
    ("integrator", "substep", 2),
    ("integrator", "emit_tangent_flow", "yes"),
    ("homotopy", "n_s", 4),
])
def test_nested_section_errors_rejected(tmp_path, section, key, value):
    # typos and bad values inside a section used to be ignored or run on
    data = _load_bundled_dict("heisenberg_line")
    data.setdefault(section, {})[key] = value
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match=key):
        load_scenario(path)
    assert main(["nsre-check", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "nsre_report.json").exists()


@pytest.mark.parametrize("scenario, section, key, value", [
    ("heisenberg_arc", "hamiltonian", "T", "one"),
    ("heisenberg_arc", "hamiltonian", "T", True),
    ("heisenberg_arc", "hamiltonian", "N_t", "many"),
    ("heisenberg_arc", "hamiltonian", "N_t", 400.0),
    ("heisenberg_arc", "hamiltonian", "p0", ["1", 0.0, 2.0]),
    ("heisenberg_arc", "hamiltonian", "q_0", [0.0, 0.0, 0.0]),
    ("heisenberg_line", "control", "T", "one"),
    ("heisenberg_line", "control", "N_t", "many"),
    ("heisenberg_line", "control", "N_t", True),
    ("heisenberg_line", "control", "constant", [1.0, False]),
    ("heisenberg_line", "control", "constnt", [1.0, 0.0]),
])
def test_control_and_hamiltonian_errors_rejected(tmp_path, scenario, section,
                                                 key, value):
    # bare float()/int() conversions used to end in a ValueError traceback
    # (exit 1) or accept a bool or a fractional count
    data = _load_bundled_dict(scenario)
    data[section][key] = value
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match=key):
        load_scenario(path)
    assert main(["nsre-check", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "nsre_report.json").exists()


@pytest.mark.parametrize("edit", [
    lambda d: d["frame"]["fields"][0].update(scale=2.0),
    lambda d: d["frame"].update(dim=3),
    lambda d: d["frame"].update(n=3.0),
    lambda d: d["frame"]["fields"][0]["coeffs"]["0"].update({"0,0,0": "1.0"}),
    lambda d: d["domain"].update(lowr=[-2.0, -2.0, -2.0]),
    lambda d: d["control"]["segments"][0].update(valu=[1.0, 0.0]),
    lambda d: d["control"]["segments"][0].update(value=["1.0", "0.0"]),
    lambda d: d.update(q0=["0", 0.0, 0.0]),
    lambda d: d.update(seed="7"),
    lambda d: d["domain"].update(upper=[True, 2.0, 2.0]),
    lambda d: d.update(name=7),
    lambda d: d.update(name="line\nq1,q2"),
], ids=["field_key", "frame_key", "frame_n_float", "coef_string", "domain_key",
        "segment_key", "segment_value_strings", "q0_strings", "seed_string",
        "domain_bool", "name_number", "name_newline"])
def test_frame_and_top_level_errors_rejected(tmp_path, edit):
    # a typo inside frame.fields (here "scale") used to run to exit 0
    data = _load_bundled_dict("jump_control")
    edit(data)
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError):
        load_scenario(path)
    assert main(["integrate", "--config", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("old, new, key", [
    ('"2": {"0,1,0": -0.5}', '"2": {"0,1,0": -0.5, "0,01,0": 7.0}', "'0,01,0'"),
    ('"2": {"0,1,0": -0.5}', '"2": {"0,1,0": -0.5, "0,1,0": 7.0}', "'0,1,0'"),
    ('"seed": 0,', '"seed": 0, "seed": 3,', "'seed'"),
    ('"2": {"0,1,0": -0.5}', '"2": {"0,1,0": -0.5}, "02": {"0,1,0": -0.5}', "'02'"),
], ids=["exponent_spelled_twice", "exponent_repeated", "seed_repeated",
        "coordinate_spelled_twice"])
def test_repeated_scenario_key_rejected(tmp_path, old, new, key):
    # json keeps the last of a repeated key, and "0,01,0" and "02" parse to
    # an exponent and a coordinate already given: each used to load, with a
    # term dropped or the seed replaced
    text = bundled_scenario_path("heisenberg_line").read_text()
    assert text.count(old) == 1
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new))
    with pytest.raises(ScenarioError, match=key):
        load_scenario(str(path))
    assert main(["integrate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "trajectory.csv").exists()


def test_segment_off_grid_rejected(tmp_path):
    # an off-grid boundary used to be snapped to the nearest node
    data = _load_bundled_dict("jump_control")
    data["control"]["segments"][0]["t_end"] = 0.5004
    path = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match="grid node"):
        load_scenario(path)
    assert main(["integrate", "--config", path, "--out", str(tmp_path)]) == 2


def _child_env():
    """The environment of a fresh interpreter that imports this srx."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(srx.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}


def _run_python(code):
    """stdout of `code` run in a fresh interpreter.

    Footprint checks need their own process: pytest's may already hold the
    modules they look for.
    """
    return subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True).stdout


def test_cli_imports_only_stdlib_and_numpy(tmp_path):
    # numpy is the only runtime dependency.  Site hooks may import more into
    # any interpreter, so a bare one is the baseline, not a fixed list.
    listing = "import sys; print(*sorted({m.split('.')[0] for m in sys.modules}))"

    def top_level_modules(code):
        return set(_run_python(f"{code}; {listing}").split())

    bare = top_level_modules("pass")
    run = top_level_modules(
        "from srx.cli import main; main(['nsre-check', '--config', "
        f"'heisenberg_arc', '--out', {str(tmp_path)!r}])")
    assert (tmp_path / "nsre_report.json").exists()
    assert "numpy" in run
    assert run - bare - set(sys.stdlib_module_names) - {"srx", "numpy"} == set()


@pytest.mark.parametrize("command, name", [("integrate", "heisenberg_arc"),
                                           ("nsre-check", "heisenberg_arc"),
                                           ("homotopy", "heisenberg_line"),
                                           ("certify", "heisenberg_line")])
def test_commands_load_neither_openssl_nor_numpy_random(tmp_path, command,
                                                        name):
    # hashlib would load OpenSSL's _hashlib (about 3.5 MB of resident memory)
    # only to hash the scenario file, and numpy.random (6 MB with it) only to
    # draw verification trials, which come from the standard library's
    # random instead
    loaded = _run_python(
        f"import sys; from srx.cli import main; code = main([{command!r}, "
        f"'--config', {name!r}, '--out', {str(tmp_path)!r}]); "
        "print(code, '_hashlib' in sys.modules, 'numpy.random' in sys.modules)")
    assert loaded.split() == ["0", "False", "False"]


@pytest.mark.parametrize("command", ["integrate", "nsre-check"])
def test_commands_load_only_the_modules_they_use(tmp_path, command):
    # integrate and nsre-check build no homotopy and no certificate, so they
    # import neither module; certify's NotCertifiableError lives in core
    loaded = _run_python(
        f"import sys; from srx.cli import main; code = main([{command!r}, "
        f"'--config', 'heisenberg_arc', '--out', {str(tmp_path)!r}]); "
        "print(code, 'srx.homotopy' in sys.modules, 'srx.certify' in sys.modules)")
    assert loaded.split() == ["0", "False", "False"]


def test_homotopy_memory_is_one_family(tmp_path):
    # the command holds one stored family plus bounded blocks: homotopy.csv
    # is written member by member, and the family is reduced to its maxima
    # and member 0's profiles, and freed, before the NSRE test and the
    # constants allocate.  Concatenating the rows copied the family, and the
    # family outlived the NSRE test (3.1x the family's bytes).
    data = _load_bundled_dict("heisenberg_line")
    data["control"]["N_t"] = nodes = 5000
    path = _write_scenario(tmp_path, data)
    main(["homotopy", "--config", "heisenberg_line", "--out",
          str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        code = main(["homotopy", "--config", path, "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    members, n = data["homotopy"]["N_s"] + 1, data["frame"]["n"]
    family = members * (nodes + 1) * 2 * n * 8
    assert peak <= 1.5 * family


def test_scenario_import_loads_only_core():
    loaded = _run_python(
        "import sys; import srx.scenario; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'srx')); "
        "from srx import nsre_check; import srx.extremals; "
        "print(nsre_check is srx.extremals.nsre_check)")
    assert loaded.splitlines() == ["srx srx.core srx.scenario", "True"]


def _hashlib_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_scenario_hash_is_the_sha256_of_the_file(tmp_path):
    for name in BUNDLED:
        assert load_scenario(name).sha256 == \
            _hashlib_sha256(bundled_scenario_path(name))
    data = _load_bundled_dict("heisenberg_line")
    data["seed"] = 7
    path = _write_scenario(tmp_path, data)
    assert load_scenario(path).sha256 == _hashlib_sha256(path)
    out = tmp_path / "out"
    assert main(["integrate", "--config", path, "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == (f"# srx {srx.__version__} scenario=heisenberg_line "
                      f"sha256={_hashlib_sha256(path)}")


def test_scenario_hash_falls_back_to_hashlib(tmp_path):
    # an interpreter without CPython's built-in SHA-256 modules hashes
    # through hashlib, to the same digest
    path = _write_scenario(tmp_path, _load_bundled_dict("martinet_arc"))
    digest, loaded = _run_python(
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "from srx.scenario import load_scenario; "
        f"print(load_scenario({path!r}).sha256, '_hashlib' in sys.modules)"
    ).split()
    assert (digest, loaded) == (_hashlib_sha256(path), "True")


def test_cli_malformed_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["integrate", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_cli_nsre_exit_codes(tmp_path):
    assert main(["nsre-check", "--config", "heisenberg_line",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "nsre_report.json").read_text())
    assert report["c"] == pytest.approx(1.0, abs=1e-9)
    assert report["meta"]["tool"] == "srx"

    assert main(["nsre-check", "--config", "jump_control",
                 "--out", str(tmp_path)]) == 3

    data = _load_bundled_dict("heisenberg_line")
    data["tolerances"] = {"theta_min": 4.0}  # above pi/2: forced inconclusive
    code = main(["nsre-check", "--config", _write_scenario(tmp_path, data),
                 "--out", str(tmp_path)])
    assert code == 4


def _non_unit_heisenberg(tmp_path):
    # |u| = 1.5 on every cell, so the worst | |u| - 1 | is 0.5
    data = _load_bundled_dict("heisenberg_line")
    data["control"] = {"T": 1.0, "N_t": 100, "constant": [0.9, 1.2]}
    return _write_scenario(tmp_path, data)


@pytest.mark.parametrize("command, output", [
    ("nsre-check", "nsre_report.json"), ("certify", "certificate.json")],
    ids=["nsre-check", "certify"])
def test_cli_rejects_a_non_unit_control(tmp_path, capsys, command, output):
    # these used to exit 5, "numerical failure", for unusable input
    cfg = _non_unit_heisenberg(tmp_path)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not (out / output).exists()
    assert "worst | |u| - 1 | is 5.000e-01" in capsys.readouterr().err


def test_cli_homotopy_reports_a_non_unit_control(tmp_path):
    cfg = _non_unit_heisenberg(tmp_path)
    assert main(["homotopy", "--config", cfg, "--out", str(tmp_path)]) == 0
    slacks = json.loads((tmp_path / "lemma_slacks.json").read_text())
    assert slacks["nsre_status"] == "not_normalized"


def test_cli_rank_one_frame(tmp_path, capsys):
    # X_1 = d/dx has no orthogonal part to span: nsre-check and certify
    # reject the frame as input, homotopy skips the NSRE test
    cfg = _write_scenario(tmp_path, {
        "frame": {"n": 2, "k": 1, "fields": [{"coeffs": {"0": {"0,0": 1.0}}}]},
        "domain": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
        "q0": [0.0, 0.0], "control": {"T": 1.0, "N_t": 50, "constant": [1.0]},
        "homotopy": {"delta_u": {"constant": [-0.3]}}})
    for command in ("nsre-check", "certify"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not any(out.iterdir())
        assert capsys.readouterr().err == ("unusable frame: rank-1 distributions "
                                           "have an empty orthogonal part\n")
    out = tmp_path / "homotopy"
    assert main(["homotopy", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "endpoints.csv", "homotopy.csv", "lemma_slacks.json"]
    slacks = json.loads((out / "lemma_slacks.json").read_text())
    assert slacks["nsre_status"] == "rank_one"
    assert slacks["bounds"]["b0_lower"] == {"min_slack": 0.0, "c": 0.0,
                                            "applicable": False}


def test_cli_homotopy_euclidean(tmp_path):
    code = main(["homotopy", "--config", "euclidean_line", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "endpoints.csv").read_text().splitlines()[2:]
    curve = np.array([[float(x) for x in line.split(",")] for line in lines])
    # endpoint curve is the segment s -> (1, s)
    assert np.allclose(curve[:, 1], 1.0, atol=1e-12)
    assert np.allclose(curve[:, 2], curve[:, 0], atol=1e-12)
    slacks = json.loads((tmp_path / "lemma_slacks.json").read_text())
    assert slacks["bounds"]["spread"]["slack"] >= 0.0
    # du = (0,1) raises the energy: drift/variation bounds not applicable
    assert not slacks["energy_comparison"]["applicable"]
    assert not slacks["bounds"]["drift"]["applicable"]


def test_cli_homotopy_members_leave_the_domain(tmp_path):
    # the endpoint curve s -> (1, s) crosses the face y = 0.5 at s = 1/2,
    # while the base member stays on y = 0
    data = _load_bundled_dict("euclidean_line")
    data["domain"]["upper"] = [2.0, 0.5]
    code = main(["homotopy", "--config", _write_scenario(tmp_path, data),
                 "--out", str(tmp_path)])
    assert code == 3
    slacks = json.loads((tmp_path / "lemma_slacks.json").read_text())
    assert slacks["in_domain"] is False
    assert not slacks["bounds"]["spread"]["applicable"]
    rows = (tmp_path / "homotopy.csv").read_text().splitlines()[2:]
    assert len(rows) == 17 * 1001


def test_cli_homotopy_zero_du(tmp_path):
    data = _load_bundled_dict("heisenberg_line")
    data["homotopy"]["delta_u"] = {"constant": [0.0, 0.0]}
    data["control"]["N_t"] = 200
    code = main(["homotopy", "--config", _write_scenario(tmp_path, data),
                 "--out", str(tmp_path)])
    assert code == 0
    slacks = json.loads((tmp_path / "lemma_slacks.json").read_text())
    assert slacks["separation"] == 0.0


def test_cli_homotopy_admissible_heisenberg(tmp_path):
    data = _load_bundled_dict("heisenberg_line")
    data["control"]["N_t"] = 200
    code = main(["homotopy", "--config", _write_scenario(tmp_path, data),
                 "--out", str(tmp_path)])
    assert code == 0
    slacks = json.loads((tmp_path / "lemma_slacks.json").read_text())
    assert slacks["energy_comparison"]["applicable"]
    assert slacks["energy_comparison"]["slack"] >= -1e-12
    for entry in slacks["bounds"].values():
        if entry["applicable"] and "slack" in entry:
            assert entry["slack"] >= -1e-9
    assert slacks["bounds"]["b0_lower"]["min_slack"] >= -1e-9


def _overflow_copy(tmp_path, coefficient, **control):
    """heisenberg_line with its two z coefficients set to -+coefficient, so
    that the growth bounds' exponentials overflow."""
    data = _load_bundled_dict("heisenberg_line")
    fields = data["frame"]["fields"]
    fields[0]["coeffs"]["2"]["0,1,0"] = -coefficient
    fields[1]["coeffs"]["2"]["1,0,0"] = coefficient
    data["control"].update(control)
    return _write_scenario(tmp_path, data)


def test_cli_certify_with_overflowing_growth_bounds_exits_3(tmp_path, capsys):
    # used to exit 1 with an OverflowError traceback from zeta
    cfg = _overflow_copy(tmp_path, 1000.0, N_t=10**4)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("not certifiable: certified radius is "
                                       "below one control cell; refine the grid\n")
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["certified"] is False and cert["epsilon"] > 0.0


def test_cli_homotopy_with_overflowing_growth_bounds_exits_0(tmp_path):
    # used to exit 1 with an OverflowError traceback from psi
    cfg = _overflow_copy(tmp_path, 100.0)
    assert main(["homotopy", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "lemma_slacks.json").read_text()
    assert '"limit": Infinity' in text
    bounds = json.loads(text)["bounds"]
    for name in ("variation", "drift"):
        assert bounds[name]["limit"] == math.inf
        assert bounds[name]["slack"] == math.inf


@pytest.mark.parametrize("command, file", [("homotopy", "lemma_slacks.json"),
                                           ("certify", "certificate.json")])
def test_cli_with_overflowing_frame_constants_exits_3(tmp_path, capsys,
                                                      command, file):
    # the squared norms of the +-1e300 fields overflow: under the
    # RuntimeWarning filter both commands used to exit 1 with a traceback,
    # and certify otherwise blamed the grid for the tube radius -inf
    cfg = _overflow_copy(tmp_path, 1e300)
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
    data = json.loads((tmp_path / file).read_text())
    if command == "homotopy":
        assert data["in_domain"] is False
        return
    reason = ("frame constants not finite (C0=inf, C1=inf); the fields "
              "overflow on the domain")
    assert capsys.readouterr().err == f"not certifiable: {reason}\n"
    assert data["certified"] is False and data["reason"] == reason


@pytest.mark.parametrize("case, point", [
    ("coefficients", "[-2.0, -2.0, -2.0]"),
    ("box", "[-1e+160, -1e+160, -1e+160]")])
def test_frame_that_overflows_on_the_check_grid_exits_2(tmp_path, capsys,
                                                        case, point):
    # heisenberg_line with z coefficients -+1.5e308, whose field matrices
    # overflow on the grid, loaded with sigma_min = inf and then failed
    # deep in the run (exit 5); martinet_arc on the box [-1e160, 1e160]^3
    # ended every command in an uncaught "SVD did not converge"
    if case == "coefficients":
        cfg = _overflow_copy(tmp_path, 1.5e308)
    else:
        data = _load_bundled_dict("martinet_arc")
        data["domain"] = {"lower": [-1e160] * 3, "upper": [1e160] * 3}
        cfg = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError) as err:
        load_scenario(cfg)
    assert isinstance(err.value.__cause__, srx.FrameRankError)
    message = f"scenario error: frame fields not finite at {point}\n"
    for command in ("integrate", "nsre-check", "homotopy", "certify"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_cli_certify_with_a_t_prime_far_beyond_the_radius(tmp_path):
    # verification lowered m = T_prime / dt one cell at a time down to the
    # radius, which never ended for T_prime = 1e300; epsilon < 0.05 here,
    # so both runs verify up to the last cell inside the radius
    t_primes = []
    for t_prime in (None, 1e300):
        data = _load_bundled_dict("heisenberg_line")
        data["certify"].update(n_trials=2, T_prime=t_prime)
        out = tmp_path / str(t_prime)
        cfg = _write_scenario(tmp_path, data)
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["verification"]["t_prime"] <= cert["epsilon"] < 0.05
        t_primes.append(cert["verification"]["t_prime"])
    assert t_primes[0] == t_primes[1]


def _quick_certify_scenario(tmp_path, n_trials=6, n_cells=500):
    data = _load_bundled_dict("heisenberg_line")
    data["control"]["N_t"] = n_cells
    data["certify"]["n_trials"] = n_trials
    data["certify"]["grid_resolution"] = 7
    return _write_scenario(tmp_path, data)


def test_cli_certify_heisenberg(tmp_path):
    cfg = _quick_certify_scenario(tmp_path)
    code = main(["certify", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["certified"] is True
    assert cert["epsilon"] > 0.0
    assert cert["conditions"]["domain"] and cert["conditions"]["angle"]
    assert cert["verification"]["violations"] == 0
    lines = (tmp_path / "verification.csv").read_text().splitlines()
    assert lines[1] == "trial,norm_du,separation,bound,slack"
    assert len(lines) == 2 + cert["verification"]["n_trials"]


def test_cli_certified_certificate_carries_the_nsre_summary(tmp_path):
    cfg = _quick_certify_scenario(tmp_path, n_trials=2, n_cells=200)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["nsre-check", "--config", cfg, "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    report = json.loads((tmp_path / "nsre_report.json").read_text())
    assert cert["certified"] is True
    summary = {key: value for key, value in report.items()
               if key not in ("angles", "span_rank", "meta")}
    assert cert["nsre"] == summary
    assert {"status", "c", "min_angle_node", "rank_cut",
            "tangent_flow"} <= set(summary)
    assert cert["nsre"]["c"] == cert["c"]


def test_cli_certified_requires_conditions(tmp_path, monkeypatch):
    # a radius that breaks the angle condition used to be certified as long
    # as every verification trial passed
    # certify is imported by the command that uses it, so patch it there
    import srx.certify
    from dataclasses import replace
    build = srx.certify.build_certificate

    def broken_angle(*args, **kwargs):
        cert, report = build(*args, **kwargs)
        return replace(cert, angle_lhs=cert.c), report    # twice c/2

    monkeypatch.setattr(srx.certify, "build_certificate", broken_angle)
    cfg = _quick_certify_scenario(tmp_path, n_trials=2, n_cells=200)
    assert main(["certify", "--config", cfg, "--out", str(tmp_path)]) == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["conditions"]["angle"] is False
    assert cert["verification"]["violations"] == 0
    assert cert["certified"] is False


def test_cli_certify_not_certifiable(tmp_path):
    code = main(["certify", "--config", "jump_control", "--out", str(tmp_path)])
    assert code == 3
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["certified"] is False
    assert cert["nsre"]["status"] == "failed"


def test_cli_certify_deterministic_across_threads(tmp_path):
    cfg = _quick_certify_scenario(tmp_path)
    outputs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = main(["certify", "--config", cfg, "--out", str(out),
                     "--seed", "5", "--threads", str(threads)])
        assert code == 0
        outputs.append(((out / "certificate.json").read_bytes(),
                        (out / "verification.csv").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_outputs_byte_stable(tmp_path):
    data = _load_bundled_dict("heisenberg_line")
    data["control"]["N_t"] = 100
    cfg = _write_scenario(tmp_path, data)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["nsre-check", "--config", cfg, "--out", str(out)]) == 0
        assert main(["homotopy", "--config", cfg, "--out", str(out)]) == 0
        blobs.append(tuple((out / f).read_bytes() for f in
                           ("trajectory.csv", "nsre_report.json",
                            "homotopy.csv", "endpoints.csv", "lemma_slacks.json")))
    assert blobs[0] == blobs[1]


# exit codes of every bundled scenario under integrate, nsre-check, homotopy
# and certify; homotopy needs a delta_u, which only two of them set
BUNDLED_EXIT_CODES = {
    "euclidean_line": (0, 0, 0, 0),
    "heisenberg_line": (0, 0, 0, 0),
    "heisenberg_arc": (0, 0, 2, 0),
    "jump_control": (0, 3, 2, 3),
    "martinet_arc": (0, 0, 2, 0),
    "cartan_arc": (0, 0, 2, 0),
}
COMMANDS = ("integrate", "nsre-check", "homotopy", "certify")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", list(BUNDLED_EXIT_CODES))
def test_bundled_scenario_exit_codes_and_bytes(tmp_path, name, command):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main([command, "--config", name, "--out", str(out)])
        assert code == BUNDLED_EXIT_CODES[name][COMMANDS.index(command)]
        outputs.append({path.name: path.read_bytes()
                        for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


def test_cli_output_header_carries_version_and_hash(tmp_path):
    import srx
    from srx.scenario import load_scenario
    scenario = load_scenario("euclidean_line")
    assert main(["integrate", "--config", "euclidean_line",
                 "--out", str(tmp_path)]) == 0
    first = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert srx.__version__ in first
    assert scenario.sha256 in first


def test_write_json_streams_the_json_dumps_text(tmp_path):
    payload = {"floats": [0.1, -0.0, 1e-300, 5e-324],
               "specials": [float("inf"), float("-inf"), float("nan")],
               "ints": [-3, 7, 255], "flags": [True, False], "empty": [],
               "nested": {"pair": [1e16, [2]], "none": None, "text": "é"}}
    path = tmp_path / "report.json"
    write_json(path, payload, "0" * 64, "case")
    body = {"meta": {"tool": "srx", "version": srx.__version__,
                     "scenario": "case", "scenario_hash": "0" * 64}, **payload}
    assert path.read_text(encoding="utf-8") == json.dumps(body, indent=2) + "\n"
    # payloads hold Python values only; numpy values are not converted
    with pytest.raises(TypeError, match="object"):
        write_json(tmp_path / "bad.json", {"x": object()}, "0" * 64, "case")


def test_write_csv_writes_each_value_by_repr(tmp_path):
    # blocks around CSV_ROWS end on full and short string operations
    specials = [-0.0, 5e-324, 1e-300, 1e16, float("inf"), float("nan")]
    rng = np.random.default_rng(3)
    blocks = []
    for rows in (1, 63, 64, 65, 301, 0):
        block = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
        block.ravel()[:len(specials)] = specials[:block.size]
        blocks.append(block)
    blocks.append(np.array([[i, value] for i, value in enumerate(specials + [0.1, -2.5])],
                           dtype=object)[:, [0, 1, 1]])
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b", "c"], iter(blocks), "0" * 64, "case")
    lines = [",".join(map(repr, row)) for block in blocks for row in block.tolist()]
    assert "0,-0.0,-0.0" in lines and "3,1e+16,1e+16" in lines
    assert path.read_text(encoding="utf-8") == (
        f"# srx {srx.__version__} scenario=case sha256={'0' * 64}\na,b,c\n"
        + "".join(line + "\n" for line in lines))


def test_write_csv_holds_one_block_at_a_time(tmp_path):
    # neither the loop variable nor its last row view may keep a written
    # block alive while the generator builds the next one
    shape = (10_000, 16)
    blocks = (np.full(shape, float(i)) for i in range(4))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "blocks.csv", [f"c{i}" for i in range(shape[1])],
                  blocks, "0" * 64, "case")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (shape[0] * shape[1] * 8) < 1.5


def test_cli_seed_override_changes_provenance(tmp_path):
    cfg = _quick_certify_scenario(tmp_path, n_trials=2, n_cells=200)
    out = tmp_path / "s"
    assert main(["certify", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["provenance"]["seed"] == 9


def test_scenario_out_dir_used_when_no_flag(tmp_path):
    data = _load_bundled_dict("euclidean_line")
    data["control"]["N_t"] = 50
    data["out_dir"] = str(tmp_path / "from_scenario")
    cfg = _write_scenario(tmp_path, data)
    assert main(["integrate", "--config", cfg]) == 0
    assert (tmp_path / "from_scenario" / "trajectory.csv").exists()


# -- unusable input exits 2 before any work -------------------------------------

def test_negative_scenario_seed_rejected(tmp_path):
    # used to build the whole certificate, then crash in np.random.default_rng
    data = _load_bundled_dict("heisenberg_line")
    data["seed"] = -5
    cfg = _write_scenario(tmp_path, data)
    with pytest.raises(ScenarioError, match="seed must be a non-negative"):
        load_scenario(cfg)
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_negative_seed_flag_exits_2_before_loading(tmp_path, capsys,
                                                       monkeypatch):
    loads = []
    monkeypatch.setattr("srx.cli.load_scenario", loads.append)
    out = tmp_path / "out"
    assert main(["certify", "--config", "heisenberg_line", "--out", str(out),
                 "--seed", "-5"]) == 2
    assert loads == [] and not out.exists()
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "srx.cli", *args], env=_child_env(),
                          capture_output=True, text=True)


def test_cli_config_that_is_a_directory_exits_2(tmp_path):
    # used to exit 1 with an IsADirectoryError traceback
    run = _run_cli("integrate", "--config", str(tmp_path),
                   "--out", str(tmp_path / "out"))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("scenario error: cannot read scenario file")


def test_cli_out_that_is_a_file_exits_2(tmp_path):
    # used to exit 1 with a FileExistsError traceback from mkdir
    out = tmp_path / "taken"
    out.write_text("keep me")
    run = _run_cli("integrate", "--config", "euclidean_line", "--out", str(out))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr == f"cannot create output directory {out}: File exists\n"
    assert out.read_text() == "keep me"


@pytest.mark.parametrize("command, name", [("integrate", "trajectory.csv"),
                                            ("certify", "certificate.json")])
def test_cli_output_file_that_is_a_directory_exits_2(tmp_path, command, name):
    # used to exit 1 with an IsADirectoryError traceback from the writer
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    run = _run_cli(command, "--config", "heisenberg_line", "--out", str(out))
    assert run.returncode == 2
    assert run.stderr == f"cannot write output file {out / name}: Is a directory\n"


def test_cli_deeply_nested_json_exits_2(tmp_path):
    # used to exit 1 with a RecursionError traceback from the JSON decoder
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    run = _run_cli("integrate", "--config", str(path),
                   "--out", str(tmp_path / "out"))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("scenario error: scenario JSON is nested "
                                 "too deeply: maximum recursion depth")


@pytest.mark.parametrize("scenario, section, shape", [
    ("heisenberg_line", "control", "(10000000000000, 2)"),
    ("heisenberg_arc", "hamiltonian", "(10000000000001, 6)")])
def test_cli_grid_too_large_for_memory_exits_2(tmp_path, scenario, section,
                                               shape):
    # N_t = 10^13 used to exit 1 with numpy's _ArrayMemoryError traceback,
    # from the loader's control samples or from the oracle's states; numpy
    # refuses both sizes (146 and 437 TiB) at once, so nothing is allocated
    data = _load_bundled_dict(scenario)
    data[section]["N_t"] = 10 ** 13
    run = _run_cli("integrate", "--config", _write_scenario(tmp_path, data),
                   "--out", str(tmp_path / "out"))
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("scenario too large for memory: "
                                 "Unable to allocate ")
    assert f"with shape {shape} and data type float64\n" in run.stderr
    assert run.stderr.count("\n") == 1


def test_cli_certify_control_leaving_the_domain_writes_the_reason(tmp_path):
    # used to exit 3 without writing any file
    data = _load_bundled_dict("heisenberg_line")
    data["domain"]["upper"][0] = 0.5
    out = tmp_path / "out"
    assert main(["certify", "--config", _write_scenario(tmp_path, data),
                 "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["certificate.json"]
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["certified"] is False
    assert cert["reason"] == "trajectory leaves the domain at t=0.5"


@pytest.mark.parametrize("scenario, upper, at", [
    ("heisenberg_line", 0.5, "0.5"), ("heisenberg_arc", 0.2, "0.206")],
    ids=["control", "hamiltonian"])
@pytest.mark.parametrize("command, written", [
    ("integrate", "trajectory.csv"), ("nsre-check", "nsre_report.json"),
    ("certify", "certificate.json")])
def test_cli_trajectory_leaving_the_domain_writes_its_file(
        tmp_path, capsys, scenario, upper, at, command, written):
    # the Hamiltonian oracle used to raise on a domain exit, so each command
    # exited 3 with no file; nsre-check named no exit time on stderr
    data = _load_bundled_dict(scenario)
    data["domain"]["upper"][0] = upper
    out = tmp_path / "out"
    assert main([command, "--config", _write_scenario(tmp_path, data),
                 "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == [written]
    err = capsys.readouterr().err
    if command == "certify":
        cert = json.loads((out / written).read_text())
        assert cert["certified"] is False
        assert cert["reason"] == f"trajectory leaves the domain at t={at}"
        assert ("hamiltonian" in cert) == (scenario == "heisenberg_arc")
        assert err == f"not certifiable: {cert['reason']}\n"
    else:
        assert err == f"trajectory left the domain at t={at}\n"


# -- tangent_flow.csv -----------------------------------------------------------

def test_cli_integrate_emits_the_tangent_flow(tmp_path):
    data = _load_bundled_dict("cartan_arc")
    data.setdefault("integrator", {})["emit_tangent_flow"] = True
    cfg = _write_scenario(tmp_path, data)
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
        blobs.append((out / "tangent_flow.csv").read_bytes())
    assert blobs[0] == blobs[1]

    scenario = load_scenario(cfg)
    u, traj, _ = _resolve_run(scenario)
    tf = srx.tangent_flow(scenario.frame, u, traj,
                          substeps=scenario.substeps)
    lines = blobs[0].decode().splitlines()
    n = scenario.frame.n
    assert lines[1] == ",".join(["t"] + [f"m{a}{b}" for a in range(1, n + 1)
                                         for b in range(1, n + 1)])
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert rows.shape == (u.n_cells + 1, 1 + n * n)
    assert np.array_equal(rows[:, 0], tf.grid)
    assert np.array_equal(rows[:, 1:].reshape(-1, n, n), tf.matrices)


# -- every CSV reads back to the arrays it was written from ------------------------

def _same_bits(a, b):
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_cli_csv_outputs_read_back_bitwise(tmp_path, monkeypatch):
    import srx.certify
    import srx.homotopy
    made = {}

    def keep(module, name):
        # the commands import these when they run, so they see the wrapper
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            made[name] = fn(*args, **kwargs)
            return made[name]
        monkeypatch.setattr(module, name, wrapper)

    keep(srx.homotopy, "natural_homotopy")
    keep(srx.certify, "verify_certificate")
    cfg = _quick_certify_scenario(tmp_path, n_trials=3, n_cells=200)
    for command in ("integrate", "homotopy", "certify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0

    def read(name, header):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1] == header
        return [line.split(",") for line in lines[2:]]

    def floats(name, header):
        return np.array([[float(x) for x in row] for row in read(name, header)])

    u, traj, _ = _resolve_run(load_scenario(cfg))
    assert _same_bits(floats("trajectory.csv", "t,q1,q2,q3"),
                      np.column_stack([traj.grid, traj.states]))

    hom = made["natural_homotopy"]
    members, nodes, n = hom.trajectories.shape
    rows = floats("homotopy.csv", "s,t,q1,q2,q3,b1,b2,b3").reshape(members, nodes, -1)
    assert _same_bits(rows[:, :, 0], np.repeat(hom.s_grid[:, None], nodes, axis=1))
    assert _same_bits(rows[:, :, 1], np.broadcast_to(hom.grid, (members, nodes)))
    assert _same_bits(rows[:, :, 2:2 + n], hom.trajectories)
    assert _same_bits(rows[:, :, 2 + n:], hom.variations)
    assert _same_bits(floats("endpoints.csv", "s,q1,q2,q3"),
                      np.column_stack([hom.s_grid, hom.endpoints]))

    trials = made["verify_certificate"].trials
    rows = read("verification.csv", "trial,norm_du,separation,bound,slack")
    assert [int(row[0]) for row in rows] == [t.trial for t in trials] == [0, 1, 2]
    assert _same_bits([[float(x) for x in row[1:]] for row in rows],
                      [[t.norm_du, t.separation, t.bound, t.slack] for t in trials])


# -- the library surface the benchmark tracer binds ------------------------------

# perfbench/trace_run.py wraps every public function of the pipeline modules,
# sums spans by these names and binds these parameters of a traced call by
# name; tier-1 does not run the traced benchmark, so they are pinned here
TRACED_PARAMETERS = {
    "cli.main": (),
    "scenario.load_scenario": (),
    "flows.integrate_trajectory": ("u", "substeps"),
    "flows.tangent_flow": ("u", "substeps"),
    "homotopy.natural_homotopy": (),
    "extremals.nsre_check": ("frame", "traj", "tau_range", "sample_stride"),
    "extremals.hamiltonian_extremal": (),
    "certify.verify_certificate": (),
    "certify.estimate_constants": (),
    "certify.compute_eta": (),
    "certify.compute_epsilon": (),
    "io.write_csv": ("path",),
    "io.write_json": ("path",),
}


@pytest.mark.parametrize("name", list(TRACED_PARAMETERS))
def test_traced_functions_keep_their_names_and_parameters(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"srx.{layer}")
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__
    assert set(TRACED_PARAMETERS[name]) <= set(inspect.signature(fn).parameters)


def test_traced_results_keep_their_attributes(tmp_path):
    # natural_homotopy's trajectories and the verification report's counts
    # are read from the results of traced calls
    scenario = load_scenario("heisenberg_line")
    u, traj, _ = _resolve_run(scenario)
    hom = srx.natural_homotopy(scenario.frame, u, scenario.delta_u,
                               scenario.q0, 2)
    assert len(hom.trajectories) == 3
    cert, _ = srx.build_certificate(scenario.frame, scenario.domain, u, traj,
                                    grid_resolution=5)
    report = srx.verify_certificate(scenario.frame, scenario.domain, u, traj,
                                    cert, n_trials=2, n_s=2)
    assert (report.n_trials, report.total_rejected,
            report.violation_count) == (2, 0, 0)


def test_every_exported_name_resolves_once():
    assert len(srx.__all__) == len(set(srx.__all__))
    for name in srx.__all__:
        assert hasattr(srx, name), name
