import dataclasses
import json

import numpy as np
import pytest

from srx import (ControlSignal, Domain, GridMismatchError,
                 control_inner, energy_comparison_check, estimate_constants,
                 hamiltonian_extremal, integrate_trajectory, natural_homotopy,
                 span_profile, tangent_flow, variation_direct,
                 variation_integral)
from srx import cli, io
from srx.certify import _fold_extremes, bound_slacks, family_extremes
from srx.core import _StackedPolys
from srx.extremals import ACB_BOUND, nsre_check
from srx.homotopy import (_homotopy_cells, decomposition_residual_profile,
                          node_velocity)
from srx.scenario import bundled_scenario_path, load_scenario

from conftest import (constant_control, jet_variation_rhs, make_quartic_frame,
                      sampled_control, smooth_perturbation)


def _heisenberg_line(heisenberg, n_cells=500):
    u = constant_control([1.0, 0.0], n_cells=n_cells)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    return u, traj, tf


# -- natural homotopy ---------------------------------------------------------

def test_homotopy_zero_perturbation(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=50)
    du = constant_control([0.0, 0.0], n_cells=50)
    hom = natural_homotopy(euclidean2, u, du, [0.0, 0.0], n_s=4)
    for member in hom.trajectories:
        assert np.array_equal(member, hom.trajectories[0])
    assert family_extremes(hom, u, None).separation == 0.0


def test_homotopy_euclidean_endpoints(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=50)
    du = constant_control([0.0, 1.0], n_cells=50)
    hom = natural_homotopy(euclidean2, u, du, [0.0, 0.0], n_s=8)
    expected = np.column_stack([np.ones(9), hom.s_grid])
    assert np.allclose(hom.endpoints, expected, atol=1e-12)
    separation = family_extremes(hom, u, None).separation
    assert separation == pytest.approx(1.0, abs=1e-12)


def test_homotopy_endpoint_expansion(heisenberg):
    # gamma_s(T) = gamma_0(T) + s b_0(T) + O(s^2) for a small perturbation
    u, traj, tf = _heisenberg_line(heisenberg)
    rng = np.random.default_rng(2)
    du = smooth_perturbation(rng, n_cells=500, amplitude=0.05)
    hom = natural_homotopy(heisenberg, u, du, [0.0, 0.0, 0.0], n_s=8)
    b0 = variation_integral(heisenberg, u, du, traj, tf)
    for idx, s in enumerate(hom.s_grid):
        predicted = traj.endpoint + s * b0.vectors[-1]
        actual = hom.endpoints[idx]
        assert np.linalg.norm(actual - predicted) < 2.0 * s ** 2 * 0.05 ** 2 + 1e-12


def test_homotopy_grid_mismatch(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=50)
    du = constant_control([0.0, 1.0], n_cells=60)
    with pytest.raises(GridMismatchError):
        natural_homotopy(euclidean2, u, du, [0.0, 0.0])


def _member_loop(frame, controls, increments, q0, dt, substeps):
    """Reference: one member and its variation by a plain per-point RK4 loop."""
    def rhs(q, b, u_cell, du_cell):
        f = frame.field_matrix_many(q)
        a = np.einsum("i,iab->ab", u_cell, frame.derivatives(1, q))
        return np.concatenate([f @ u_cell, f @ du_cell + a @ b])

    n = frame.n
    h = dt / substeps
    y = np.concatenate([q0, np.zeros(n)])
    out = [y]
    for u_cell, du_cell in zip(controls, increments):
        for _ in range(substeps):
            k1 = rhs(y[:n], y[n:], u_cell, du_cell)
            k2 = rhs(*np.split(y + 0.5 * h * k1, 2), u_cell, du_cell)
            k3 = rhs(*np.split(y + 0.5 * h * k2, 2), u_cell, du_cell)
            k4 = rhs(*np.split(y + h * k3, 2), u_cell, du_cell)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(y)
    out = np.array(out)
    return out[:, :n], out[:, n:]


def test_batched_members_match_per_member_loop():
    # quartic field: RK4 is not exact there, so stage states matter
    frame = make_quartic_frame()
    u = constant_control([1.0], horizon=0.5, n_cells=40)
    du = sampled_control(lambda t: [0.4 * np.sin(6.0 * t) - 0.2],
                         horizon=0.5, n_cells=40)
    q0 = np.array([0.3, -0.1])
    hom = natural_homotopy(frame, u, du, q0, n_s=5, substeps=2)
    for idx, s in enumerate(hom.s_grid):
        us = u.perturbed(du, s)
        states, variations = _member_loop(frame, us.samples, du.samples, q0,
                                          u.dt, 2)
        lone = integrate_trajectory(frame, us, q0, substeps=2)
        direct = variation_direct(frame, u, du, hom, s)
        for got in (hom.trajectories[idx], lone.states):
            assert np.abs(got - states).max() <= 1e-13 * np.abs(states).max()
        for got in (hom.variations[idx], direct.vectors):
            assert np.abs(got - variations).max() <= \
                1e-13 * np.abs(variations).max()


@pytest.mark.parametrize("name", ["martinet_arc", "cartan_arc"])
def test_natural_homotopy_matches_the_jet_route(monkeypatch, name):
    # state-dependent Jacobians: the b stages see every term of the stack;
    # the reference runs the same batch on the jet-plus-matmul right-hand side
    scenario = load_scenario(name)
    frame, q0, ham = scenario.frame, scenario.q0, scenario.hamiltonian
    u = hamiltonian_extremal(frame, q0, ham["p0"], ham["T"], ham["N_t"]).control
    du = smooth_perturbation(np.random.default_rng(11), horizon=u.horizon,
                             n_cells=u.n_cells, k=u.k, amplitude=0.2)
    hom = natural_homotopy(frame, u, du, q0, n_s=4, substeps=2)
    monkeypatch.setattr(frame._stack("variation"), "eval",
                        lambda rows: jet_variation_rhs(frame, rows))
    ref = natural_homotopy(frame, u, du, q0, n_s=4, substeps=2)
    for got, want in ((hom.trajectories, ref.trajectories),
                      (hom.variations, ref.variations)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n_cells, substeps", [(7, 1), (5, 3)])
def test_members_take_one_stack_evaluation_per_stage(monkeypatch, n_cells,
                                                     substeps):
    frame = load_scenario("cartan_arc").frame
    evals = []
    evaluate = _StackedPolys.eval
    monkeypatch.setattr(_StackedPolys, "eval",
                        lambda self, pts: evals.append(self) or
                        evaluate(self, pts))
    rng = np.random.default_rng(n_cells)
    u = ControlSignal(0.01 * n_cells, rng.normal(size=(n_cells, frame.k)))
    deltas = rng.normal(size=(3, n_cells, frame.k))
    _, cells = _homotopy_cells(frame, u, deltas, np.zeros(frame.n), 2, None,
                               substeps)
    ys = np.stack(tuple(cells))
    assert ys.shape == (n_cells + 1, 3, 3, 2 * frame.n)
    assert len(evals) == 4 * n_cells * substeps
    assert all(stack is frame._stack("variation") for stack in evals)


# -- variation fields: two routes + finite differences -------------------------

def test_variation_zero_perturbation(heisenberg):
    u, traj, tf = _heisenberg_line(heisenberg, n_cells=100)
    du = constant_control([0.0, 0.0], n_cells=100)
    hom = natural_homotopy(heisenberg, u, du, [0.0, 0.0, 0.0], n_s=2)
    direct = variation_direct(heisenberg, u, du, hom, 0.0)
    assert np.array_equal(direct.vectors, np.zeros((101, 3)))
    integral = variation_integral(heisenberg, u, du, traj, tf)
    assert np.allclose(integral.vectors, 0.0, atol=1e-15)


def test_variation_euclidean_linear(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=80)
    du = constant_control([0.0, 1.0], n_cells=80)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    tf = tangent_flow(euclidean2, u, traj)
    hom = natural_homotopy(euclidean2, u, du, [0.0, 0.0], n_s=4)
    expected = np.column_stack([np.zeros(81), traj.grid])
    for s in (0.0, 0.5, 1.0):
        direct = variation_direct(euclidean2, u, du, hom, s)
        assert np.allclose(direct.vectors, expected, atol=1e-12)
    integral = variation_integral(euclidean2, u, du, traj, tf)
    assert np.allclose(integral.vectors, expected, atol=1e-12)


def test_route_equivalence_heisenberg(heisenberg):
    u, traj, tf = _heisenberg_line(heisenberg)
    du = constant_control([0.0, 1.0], n_cells=500)
    hom = natural_homotopy(heisenberg, u, du, [0.0, 0.0, 0.0], n_s=2)
    direct = variation_direct(heisenberg, u, du, hom, 0.0)
    integral = variation_integral(heisenberg, u, du, traj, tf)
    assert np.max(np.abs(direct.vectors - integral.vectors)) < 1e-8


def test_variation_matches_finite_differences(heisenberg):
    u, traj, tf = _heisenberg_line(heisenberg)
    rng = np.random.default_rng(9)
    du = smooth_perturbation(rng, n_cells=500, amplitude=0.5)
    hom = natural_homotopy(heisenberg, u, du, [0.0, 0.0, 0.0], n_s=4)
    h = 1e-4
    for s in (0.0, 0.5):
        field = variation_direct(heisenberg, u, du, hom, s)
        plus = integrate_trajectory(heisenberg, u.perturbed(du, s + h), [0.0, 0.0, 0.0])
        minus = integrate_trajectory(heisenberg, u.perturbed(du, s - h), [0.0, 0.0, 0.0])
        fd = (plus.states - minus.states) / (2.0 * h)
        scale = np.abs(field.vectors).max()
        assert np.max(np.abs(field.vectors - fd)) < 1e-4 * scale


# -- decomposition --------------------------------------------------------------

IN_SPAN_RTOL = 1e-6


def _split(frame, u, du, traj, tf, m):
    """b_0(t) = coefficient * velocity + residual at node m: the
    coefficient, b_0(t), the residual and its relative span residual."""
    coefficient = control_inner(u, du)[m]
    b0 = variation_integral(frame, u, du, traj, tf).vectors[m]
    residual = b0 - coefficient * node_velocity(frame, u, traj, m)
    relative = decomposition_residual_profile(frame, u, du, traj, tf)[m]
    return coefficient, b0, residual, relative


def test_decompose_parallel_perturbation(euclidean2):
    alpha = -0.3
    u = constant_control([1.0, 0.0], n_cells=100)
    du = constant_control([alpha, 0.0], n_cells=100)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    tf = tangent_flow(euclidean2, u, traj)
    for m in (25, 100):
        coefficient, _, residual, relative = _split(euclidean2, u, du, traj, tf, m)
        assert coefficient == pytest.approx(alpha * traj.grid[m], abs=1e-12)
        assert np.allclose(residual, 0.0, atol=1e-12)
        assert relative <= IN_SPAN_RTOL
    assert nsre_check(euclidean2, u, traj).max_velocity_derivative <= ACB_BOUND


def test_decompose_orthogonal_perturbation(heisenberg):
    u, traj, tf = _heisenberg_line(heisenberg)
    du = constant_control([0.0, 0.7], n_cells=500)
    coefficient, b0, residual, relative = _split(heisenberg, u, du, traj, tf, 500)
    assert coefficient == 0.0
    assert relative <= IN_SPAN_RTOL
    assert np.allclose(residual, b0, atol=1e-15)


def test_decompose_mixed_perturbation_in_span(heisenberg):
    u, traj, tf = _heisenberg_line(heisenberg)
    rng = np.random.default_rng(17)
    du = smooth_perturbation(rng, n_cells=500, amplitude=0.8)
    for m in (150, 350, 500):             # t = 0.3, 0.7 and 1
        *_, relative = _split(heisenberg, u, du, traj, tf, m)
        assert relative < IN_SPAN_RTOL


def test_decompose_zero_variation_counts_in_span(heisenberg):
    u, traj, tf = _heisenberg_line(heisenberg, n_cells=100)
    du = constant_control([0.0, 0.0], n_cells=100)
    *_, relative = _split(heisenberg, u, du, traj, tf, 50)
    assert relative == 0.0


def test_decompose_flags_unverified_regularity(heisenberg):
    n_cells = 100
    samples = np.zeros((n_cells, 2))
    samples[: n_cells // 2, 0] = 1.0
    samples[n_cells // 2 :, 1] = 1.0
    u = ControlSignal(1.0, samples)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    assert not nsre_check(heisenberg, u, traj).max_velocity_derivative <= \
        ACB_BOUND


def test_residual_profile_matches_the_per_node_split():
    # Martinet arc: state-dependent spans, and a control that turns, so
    # the two-cell node average differs from either cell
    from srx.cli import _resolve_run
    from srx.scenario import load_scenario
    sc = load_scenario("martinet_arc")
    u, traj, _ = _resolve_run(sc)
    frame = sc.frame
    tf = tangent_flow(frame, u, traj)
    du = smooth_perturbation(np.random.default_rng(5), n_cells=u.n_cells,
                             amplitude=0.3)
    profile = decomposition_residual_profile(frame, u, du, traj, tf,
                                             sigma_tol=1e-3)
    velocities = node_velocity(frame, u, traj, np.arange(traj.grid.size))
    b0 = variation_integral(frame, u, du, traj, tf).vectors
    phi_cum = control_inner(u, du)
    assert profile[0] == 0.0
    for m in (0, 1, 137, 500, 999, 1000):
        velocity = node_velocity(frame, u, traj, m)
        assert np.allclose(velocities[m], velocity, rtol=0.0, atol=1e-15)
        norm = np.linalg.norm(b0[m])
        span = span_profile(frame, traj, tf, m, sigma_tol=1e-3)
        expected = 0.0 if norm == 0.0 else \
            float(span.residual(b0[m] - phi_cum[m] * velocity)) / norm
        assert profile[m] == pytest.approx(expected, rel=1e-12)


def test_variation_direct_rejects_off_grid_s(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=20)
    du = constant_control([0.0, 1.0], n_cells=20)
    hom = natural_homotopy(euclidean2, u, du, [0.0, 0.0], n_s=4)
    for s in (0.3, float("nan")):
        with pytest.raises(ValueError):
            variation_direct(euclidean2, u, du, hom, s)


def test_variation_direct_rejects_another_increment(euclidean2):
    # the stored variations belong to the family's own du
    u = constant_control([1.0, 0.0], n_cells=20)
    du = constant_control([0.0, 1.0], n_cells=20)
    hom = natural_homotopy(euclidean2, u, du, [0.0, 0.0], n_s=4)
    other = constant_control([0.0, 0.5], n_cells=20)
    with pytest.raises(ValueError, match="increment"):
        variation_direct(euclidean2, u, other, hom, 0.5)
    field = variation_direct(euclidean2, u, ControlSignal(
        u.horizon, du.samples.copy()), hom, 0.5)
    assert np.array_equal(field.vectors, hom.variations[2])


# -- energy comparison ------------------------------------------------------------

def test_energy_comparison_reversal_equality():
    u = constant_control([1.0, 0.0], n_cells=100)
    du = constant_control([-2.0, 0.0], n_cells=100)
    result = energy_comparison_check(u, du)
    assert result.applicable
    assert result.lhs == pytest.approx(2.0, abs=1e-13)
    assert result.rhs == pytest.approx(2.0, abs=1e-13)
    assert result.holds
    assert result.bound2  # |du| = 2 = 2 sqrt(T)


def test_energy_comparison_zero_perturbation():
    u = constant_control([1.0, 0.0], n_cells=10)
    du = constant_control([0.0, 0.0], n_cells=10)
    result = energy_comparison_check(u, du)
    assert result.applicable and result.holds and result.bound2
    assert result.lhs == 0.0 and result.rhs == 0.0


def test_energy_comparison_not_applicable():
    u = constant_control([1.0, 0.0], n_cells=10)
    du = constant_control([1.0, 0.0], n_cells=10)  # raises the energy
    result = energy_comparison_check(u, du)
    assert not result.applicable
    assert not result.holds


def test_energy_comparison_verdict_follows_its_sides():
    u = constant_control([1.0, 0.0], n_cells=10)
    result = energy_comparison_check(u, constant_control([-0.5, 0.0], n_cells=10))
    assert result.holds and result.slack == result.lhs - result.rhs
    swapped = dataclasses.replace(result, lhs=result.rhs, rhs=result.lhs)
    assert swapped.slack == -result.slack and not swapped.holds


def test_energy_comparison_random_admissible(heisenberg):
    from srx import sample_admissible_perturbation
    u = constant_control([1.0, 0.0], n_cells=50)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        du, _ = sample_admissible_perturbation(rng, u)
        result = energy_comparison_check(u, du)
        assert result.applicable
        assert result.holds and result.slack >= -1e-12
        assert result.bound2


# -- bound arrays -------------------------------------------------------------------

def test_spread_and_drift_matrices(heisenberg, box3):
    u, traj, tf = _heisenberg_line(heisenberg, n_cells=100)
    rng = np.random.default_rng(23)
    du = smooth_perturbation(rng, n_cells=100, amplitude=0.3)
    hom = natural_homotopy(heisenberg, u, du, [0.0, 0.0, 0.0], n_s=4)
    spread = np.linalg.norm(hom.trajectories - hom.trajectories[0], axis=-1)
    assert spread.shape == (5, 101)
    assert np.all(spread[0] == 0.0)
    drift = np.linalg.norm(hom.variations - hom.variations[0], axis=-1)
    assert drift.shape == (5, 101)
    assert np.all(drift[0] == 0.0)
    assert np.all(spread[:, 0] == 0.0) and np.all(drift[:, 0] == 0.0)
    # bound_slacks reports the maxima of these arrays
    constants = estimate_constants(heisenberg, box3, 5)
    bounds, _ = bound_slacks(family_extremes(hom, u, None), constants, 1.0,
                             u.horizon)
    assert bounds["spread"][0] == spread.max()
    assert bounds["drift"][0] == drift.max()
    assert bounds["variation"][0] == np.linalg.norm(hom.variations, axis=-1).max()


# -- domain exit of homotopy members -------------------------------------------------

def test_homotopies_mark_domain_exit_per_family(heisenberg):
    # the base line stays at y = 0; members of the second family reach y = 1
    box = Domain([-2.0, -0.5, -2.0], [2.0, 0.5, 2.0])
    u = constant_control([1.0, 0.0], n_cells=80)
    rng = np.random.default_rng(4)
    inside = smooth_perturbation(rng, n_cells=80, amplitude=0.05)
    leaving = constant_control([0.0, 1.0], n_cells=80)
    homs = [natural_homotopy(heisenberg, u, du, [0.0, 0.0, 0.0], n_s=4,
                             domain=box) for du in (inside, leaving)]
    assert [family_extremes(hom, u, box).in_domain for hom in homs] == \
        [True, False]
    # both families in one batch give each family's members exactly, and
    # the fold of the batch marks each family as its own fold does
    s_grid, cells = _homotopy_cells(
        heisenberg, u, np.stack([inside.samples, leaving.samples]),
        [0.0, 0.0, 0.0], 4, box, 1)
    batch = np.stack(tuple(cells), axis=2)
    for hom, ys in zip(homs, batch.swapaxes(0, 1)):
        assert np.array_equal(hom.s_grid, s_grid)
        assert np.array_equal(hom.trajectories, ys[..., :3])
        assert np.array_equal(hom.variations, ys[..., 3:])
    folded = _fold_extremes([batch.swapaxes(1, 2)], u, [inside, leaving], box)
    assert [family.in_domain for family in folded] == [True, False]
    # without a domain every family counts as inside
    assert all(family_extremes(hom, u, None).in_domain for hom in homs)


def test_in_domain_equals_boundary_distances_at_every_node(heisenberg):
    # family_extremes' in_domain tests the members' per-axis range against
    # the box, which for
    # finite states is exactly boundary_distances > 0 at every node.  The
    # boxes are set from the computed states, so some put a member's
    # maximum or minimum exactly on a face.
    u = constant_control([1.0, 0.0], n_cells=80)
    du = smooth_perturbation(np.random.default_rng(0), n_cells=80, amplitude=0.3)
    q0 = [0.0, 0.0, 0.0]
    states = natural_homotopy(heisenberg, u, du, q0, n_s=4).trajectories
    low, high = states.min(axis=(0, 1)), states.max(axis=(0, 1))
    assert low[2] < 0.0 < high[1]   # q0 stays interior to every box below
    padded = (low - 1.0, high + 1.0)

    def face(bounds, side, axis, value):
        out = [bounds[0].copy(), bounds[1].copy()]
        out[side][axis] = value
        return Domain(*out)

    boxes = [Domain(*padded),
             face(padded, 1, 1, high[1]),
             face(padded, 1, 1, np.nextafter(high[1], np.inf)),
             face(padded, 0, 2, low[2]),
             face(padded, 0, 2, np.nextafter(low[2], -np.inf))]
    expected = [bool((box.boundary_distances(states) > 0.0).all())
                for box in boxes]
    assert expected == [True, False, True, False, True]
    hom = natural_homotopy(heisenberg, u, du, q0, n_s=4)
    assert [family_extremes(hom, u, box).in_domain for box in boxes] == expected


# -- homotopy.csv ---------------------------------------------------------------------

def _concatenated_rows(hom):
    """The homotopy CSV rows laid out as one (members * nodes, 2 + 2n) array
    that concatenates s, t, the states and the variations of every member."""
    members, nodes, n = hom.trajectories.shape
    s = np.broadcast_to(hom.s_grid[:, None, None], (members, nodes, 1))
    t = np.broadcast_to(hom.grid[None, :, None], (members, nodes, 1))
    data = np.concatenate([s, t, hom.trajectories, hom.variations], axis=2)
    return data.reshape(members * nodes, 2 + 2 * n)


@pytest.mark.parametrize("row_block", [8, io.CSV_ROWS])
def test_homotopy_rows_equal_the_concatenated_layout(tmp_path, monkeypatch,
                                                      row_block):
    # srx homotopy hands io.write_csv one member's rows at a time, which it
    # formats row_block rows at a time; 301 nodes end on a short block for
    # either block size
    monkeypatch.setattr(io, "CSV_ROWS", row_block)
    du = smooth_perturbation(np.random.default_rng(9), n_cells=300, amplitude=0.2)
    data = json.loads(bundled_scenario_path("heisenberg_line").read_text())
    data["control"]["N_t"] = 300
    data["homotopy"] = {"N_s": 3, "delta_u": {"samples": du.samples.tolist()}}
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(data))
    cli.main(["homotopy", "--config", str(cfg), "--out", str(tmp_path)])

    scenario = load_scenario(str(cfg))
    u, _, _ = cli._resolve_run(scenario)
    hom = natural_homotopy(scenario.frame, u, scenario.delta_u, scenario.q0,
                           scenario.homotopy_n_s, scenario.domain,
                           scenario.substeps)
    lines = (tmp_path / "homotopy.csv").read_text().splitlines()
    assert lines[1] == "s,t,q1,q2,q3,b1,b2,b3"
    # the CSV writer prints each value's repr, so equal lines mean equal files
    assert lines[2:] == [",".join(map(repr, row))
                         for row in _concatenated_rows(hom).tolist()]
