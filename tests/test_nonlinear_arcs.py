"""The bundled nonlinear Hamiltonian arcs: Martinet (n = 3), Cartan (n = 5).

Their Jacobians depend on the state and their Hessians do not vanish, so
they exercise what the Heisenberg scenarios cannot: a state-dependent
tangent flow and a nonzero C3.
"""
import json

import numpy as np
import pytest

from srx import (estimate_constants, hamiltonian_extremal, integrate_trajectory,
                 natural_homotopy, nsre_check, tangent_flow, variation_direct,
                 variation_integral)
from srx.cli import main
from srx.scenario import bundled_scenario_path, load_scenario

from conftest import smooth_perturbation


def _arc(name):
    scenario = load_scenario(name)
    ham = scenario.hamiltonian
    ext = hamiltonian_extremal(scenario.frame, scenario.q0, ham["p0"], ham["T"],
                               ham["N_t"], domain=scenario.domain)
    return scenario, ext


@pytest.mark.parametrize("name, c", [("martinet_arc", 0.5497),
                                     ("cartan_arc", 0.5976)])
def test_arc_certifies_under_nsre_check(tmp_path, name, c):
    assert main(["nsre-check", "--config", name, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "nsre_report.json").read_text())
    assert report["status"] == "certified"
    assert report["c"] == pytest.approx(c, abs=1e-4)


def test_martinet_arc_rk4_order():
    # no closed form: the errors are taken against a 64-substep run
    scenario = load_scenario("martinet_arc")
    ham = scenario.hamiltonian

    def endpoint(substeps):
        ext = hamiltonian_extremal(scenario.frame, scenario.q0, ham["p0"],
                                   ham["T"], 20, substeps=substeps)
        return ext.trajectory.endpoint

    reference = endpoint(64)
    errs = [np.linalg.norm(endpoint(sub) - reference) for sub in (1, 2, 4)]
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_martinet_c3_is_positive():
    # the Hessian of y^2 / 2 is 1, so C3 is the margin itself
    scenario = load_scenario("martinet_arc")
    constants = estimate_constants(scenario.frame, scenario.domain, 11, 1.1)
    assert constants.C3 > 0.0
    assert constants.C3 == pytest.approx(1.1, rel=1e-12)


def test_martinet_variation_routes_agree():
    scenario, ext = _arc("martinet_arc")
    frame, u, traj = scenario.frame, ext.control, ext.trajectory
    tf = tangent_flow(frame, u, traj)
    rng = np.random.default_rng(11)
    du = smooth_perturbation(rng, n_cells=u.n_cells, amplitude=0.5)
    hom = natural_homotopy(frame, u, du, scenario.q0, n_s=2)
    direct = variation_direct(frame, u, du, hom, 0.0)
    integral = variation_integral(frame, u, du, traj, tf)
    scale = np.linalg.norm(direct.vectors, axis=1).max()
    err = np.linalg.norm(direct.vectors - integral.vectors, axis=1).max()
    assert err / scale < 1e-5


def test_tangent_flow_linearizes_around_the_oracle_states():
    # tangent_flow reads the base states: the oracle's states and those of
    # the sampled control differ by O(dt^2), and so do the two flows, while
    # the span ranks and c do not move
    scenario, ext = _arc("martinet_arc")
    frame, u = scenario.frame, ext.control
    staircase = integrate_trajectory(frame, u, scenario.q0)
    oracle_tf = tangent_flow(frame, u, ext.trajectory)
    staircase_tf = tangent_flow(frame, u, staircase)
    gap = (np.abs(oracle_tf.matrices - staircase_tf.matrices).max()
           / np.abs(staircase_tf.matrices).max())
    assert 1e-10 < gap < 1e-6
    reports = [nsre_check(frame, u, ext.trajectory, tf, sigma_tol=1e-3)
               for tf in (oracle_tf, staircase_tf)]
    assert np.array_equal(reports[0].span_ranks, reports[1].span_ranks)
    assert reports[0].c == pytest.approx(reports[1].c, rel=1e-6)


@pytest.mark.parametrize("name", ["martinet_arc", "cartan_arc"])
def test_arc_certify_is_byte_deterministic(tmp_path, name):
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        assert main(["certify", "--config", name, "--out", str(out)]) == 0
        outputs.append(tuple((out / file).read_bytes()
                             for file in ("certificate.json", "verification.csv")))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["certified"] is True


def _half_cell_controls(frame, q0, p0, horizon, n_cells):
    """Reference route: two RK4 half steps per cell, one row at a time.

    Each cell midpoint is then a step end, and the control is sampled
    there and scaled to unit norm.
    """
    n, k = frame.n, frame.k

    def rhs(y):
        q, p = y[:n], y[n:]
        f, jac = frame.jet(q)
        u = f @ p
        a = (u @ jac.reshape(k, n * n)).reshape(n, n)
        return np.concatenate([u @ f, -(p @ a)])

    h = horizon / n_cells / 2.0
    y = np.concatenate([q0, p0])
    mids = []
    for step in range(2 * n_cells):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % 2 == 0:
            mids.append(y)
    mids = np.array(mids)
    raw = np.einsum("jnk,jn->jk", frame.field_matrix_many(mids[:, :n]),
                    mids[:, n:])
    return raw / np.linalg.norm(raw, axis=1)[:, None]


@pytest.mark.parametrize("name", ["martinet_arc", "cartan_arc"])
def test_arc_control_matches_half_cell_route(name):
    # one step per cell with Hermite midpoints against two half steps per
    # cell: both O(dt^4), and far below that at N_t = 1000
    scenario, ext = _arc(name)
    ham = scenario.hamiltonian
    reference = _half_cell_controls(scenario.frame, scenario.q0,
                                    np.asarray(ham["p0"]), ham["T"], ham["N_t"])
    assert np.abs(ext.control.samples - reference).max() <= 1e-12


def test_arc_reports_record_the_hamiltonian_level(tmp_path):
    assert main(["nsre-check", "--config", "martinet_arc",
                 "--out", str(tmp_path / "arc")]) == 0
    record = json.loads((tmp_path / "arc" / "nsre_report.json").read_text())
    assert record["hamiltonian"]["conservation_tol"] == 1e-6
    assert 0.0 <= record["hamiltonian"]["norm_drift"] < 1e-12
    # control-driven scenarios have no oracle and no record
    assert main(["nsre-check", "--config", "heisenberg_line",
                 "--out", str(tmp_path / "line")]) == 0
    line = json.loads((tmp_path / "line" / "nsre_report.json").read_text())
    assert "hamiltonian" not in line


def test_certify_radius_below_one_cell_writes_certificate(tmp_path):
    # at N_t = 200 the certified radius (about 1.2e-3) is below dt = 5e-3,
    # so verification cannot run; the CLI used to exit 3 with no file
    data = json.loads(bundled_scenario_path("cartan_arc").read_text())
    data["hamiltonian"]["N_t"] = 200
    path = tmp_path / "cartan_200.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["certify", "--config", str(path), "--out", str(out)]) == 3
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["certified"] is False
    assert "below one control cell" in cert["reason"]
    assert 0.0 < cert["epsilon"] < 5e-3
    assert cert["nsre"]["status"] == "certified"
    assert cert["hamiltonian"]["norm_drift"] < cert["hamiltonian"]["conservation_tol"]
