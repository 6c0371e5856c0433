import numpy as np
import pytest

from srx import (ControlSignal, Domain, DomainExitError, GridMismatchError,
                 IntegrationError, hamiltonian_extremal, integrate_trajectory,
                 tangent_flow)
from srx.cli import _resolve_run
from srx.core import _StackedPolys
from srx.flows import COND_LIMIT, FLOW_BATCH, _rk4
from srx.scenario import BUNDLED, load_scenario

from conftest import (batched_oracle_stepper, batched_trajectory_states,
                      constant_control, make_quartic_frame,
                      make_random_poly_frame, sampled_control,
                      smooth_perturbation, two_point_map)


def test_euclidean_straight_line(euclidean2):
    u = constant_control([1.0, 0.0])
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    assert np.allclose(traj.endpoint, [1.0, 0.0], atol=1e-13)


def test_heisenberg_axis_lines(heisenberg):
    # with y == 0 the z-drift vanishes, so the x-line is exact; same for y
    u = constant_control([1.0, 0.0])
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    assert np.allclose(traj.endpoint, [1.0, 0.0, 0.0], atol=1e-13)

    v = constant_control([0.0, 1.0])
    traj = integrate_trajectory(heisenberg, v, [0.0, 0.0, 0.0])
    assert np.allclose(traj.endpoint, [0.0, 1.0, 0.0], atol=1e-13)


def test_heisenberg_constant_control_is_integrated_exactly(heisenberg):
    # nilpotent Jacobian: each RK4 cell reproduces the exact flow, so the
    # result is independent of the substep count to rounding
    u = constant_control([0.6, 0.8], n_cells=20)
    q0 = [0.3, -0.2, 0.1]
    a = integrate_trajectory(heisenberg, u, q0, substeps=1)
    b = integrate_trajectory(heisenberg, u, q0, substeps=8)
    assert np.allclose(a.endpoint, b.endpoint, atol=1e-14)


def test_rk4_order_on_quartic_field():
    frame = make_quartic_frame()
    u = constant_control([1.0], horizon=1.0, n_cells=8)
    x0 = 0.2
    exact = np.array([x0 + 1.0, ((x0 + 1.0) ** 5 - x0 ** 5) / 5.0])
    errs = []
    for sub in (1, 2, 4):
        traj = integrate_trajectory(frame, u, [x0, 0.0], substeps=sub)
        errs.append(np.linalg.norm(traj.endpoint - exact))
    assert 12.0 < errs[0] / errs[1] < 20.0
    assert 12.0 < errs[1] / errs[2] < 20.0


def test_tangent_flow_euclidean_identity(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=50)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    tf = tangent_flow(euclidean2, u, traj)
    assert np.allclose(tf.matrices, np.eye(2), atol=1e-14)


def test_tangent_flow_heisenberg_closed_form(heisenberg):
    u = constant_control([1.0, 0.0], n_cells=100)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    assert np.array_equal(tf.matrices[0], np.eye(3))
    for t in (0.25, 0.5, 1.0):
        expected = np.eye(3)
        expected[2, 1] = -t / 2.0
        assert np.allclose(tf.matrices[traj.node_index(t)], expected, atol=1e-12)


def _joint_tangent_flow(frame, u, q0, substeps):
    """Reference: RK4 of the state and its tangent map as one n + n^2 state."""
    n, h = frame.n, u.dt / substeps

    def rhs(j, y):
        q, m = y[:n], y[n:].reshape(n, n)
        a = np.einsum("i,iab->ab", u.samples[j], frame.derivatives(1, q))
        return np.concatenate([frame.field_matrix_many(q) @ u.samples[j],
                               (a @ m).ravel()])

    y = np.concatenate([q0, np.eye(n).ravel()])
    mats = [np.eye(n)]
    for j in range(u.n_cells):
        for _ in range(substeps):
            k1 = rhs(j, y)
            k2 = rhs(j, y + 0.5 * h * k1)
            k3 = rhs(j, y + 0.5 * h * k2)
            k4 = rhs(j, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        mats.append(y[n:].reshape(n, n))
    return np.array(mats)


@pytest.mark.parametrize("substeps", [1, 2])
def test_tangent_flow_matches_joint_integration(substeps):
    # cubic frame: every stage Jacobian of the cell propagators is state
    # dependent Jacobians, and the maps end about 0.65 away from I
    frame = make_random_poly_frame(np.random.default_rng(0))
    u = sampled_control(lambda t: [np.cos(3.0 * t), np.sin(3.0 * t)],
                        n_cells=400)
    q0 = np.array([0.5, -0.4, 0.3])
    traj = integrate_trajectory(frame, u, q0, substeps=substeps)
    reference = _joint_tangent_flow(frame, u, q0, substeps)
    scale = np.abs(reference).max()

    tf = tangent_flow(frame, u, traj, substeps=substeps)
    assert np.abs(tf.matrices - reference).max() <= 1e-13 * scale


def _jet_tangent_maps(frame, u, base, substeps):
    """The tangent maps from the propagators the variational system
    replaced: row j of an RK4 batch is (q_j, I), stepped on the field values
    and Jacobians with two stacked matmuls per stage, so one cell later it
    holds P_j; the chain M_{j+1} = P_j M_j is tangent_flow's."""
    n, k = frame.n, frame.k
    mats = [np.eye(n)]
    for lo in range(0, u.n_cells, FLOW_BATCH):
        cells = u.samples[lo:lo + FLOW_BATCH, None, :]

        def rhs(y):
            q = y[:, :n]
            values, jacobians = frame.derivatives(0, q), frame.derivatives(1, q)
            a = (cells @ jacobians.reshape(-1, k, n * n)).reshape(-1, n, n)
            return np.concatenate(
                [(cells @ values)[:, 0],
                 (a @ y[:, n:].reshape(-1, n, n)).reshape(-1, n * n)], axis=1)

        q = base.states[lo:lo + cells.shape[0]]
        y0 = np.concatenate([q, np.tile(np.eye(n).ravel(), (q.shape[0], 1))],
                            axis=1)
        *_, ends = _rk4(lambda _: rhs, y0, u.dt / substeps, substeps, 1)
        props = ends[:, n:]
        for prop in props.reshape(-1, n, n):
            mats.append(prop @ mats[-1])
    return np.array(mats)


@pytest.mark.parametrize("name", BUNDLED)
def test_tangent_flow_equals_the_jet_propagators_on_bundled_scenarios(name):
    scenario = load_scenario(name)
    u, traj, _ = _resolve_run(scenario)
    tf = tangent_flow(scenario.frame, u, traj, substeps=scenario.substeps)
    assert np.array_equal(tf.matrices, _jet_tangent_maps(
        scenario.frame, u, traj, scenario.substeps))


@pytest.mark.parametrize("name, substeps", [("random_n3", 1), ("random_n4", 2),
                                            ("quartic", 1), ("quartic", 3)])
def test_tangent_flow_matches_the_jet_propagators(name, substeps):
    # state-dependent Jacobians: both routes sum the same terms in other
    # orders, so they agree to rounding; 600 cells span three batches, and
    # the maps end 0.58 to 2.0 away from I
    rng = np.random.default_rng(len(name) + substeps)
    if name == "quartic":
        frame = make_quartic_frame()
        du = smooth_perturbation(rng, n_cells=600, k=1)
        u = ControlSignal(du.horizon, du.samples + 1.0)
        q0 = rng.uniform(-0.5, 0.5, size=frame.n)
    else:
        frame = make_random_poly_frame(rng, n=int(name[-1]))
        u = sampled_control(lambda t: [np.cos(3.0 * t), np.sin(3.0 * t)],
                            n_cells=600)
        q0 = rng.choice([-1.0, 1.0], size=frame.n) * \
            rng.uniform(0.4, 0.7, size=frame.n)
    traj = integrate_trajectory(frame, u, q0, substeps=substeps)
    reference = _jet_tangent_maps(frame, u, traj, substeps)
    tf = tangent_flow(frame, u, traj, substeps=substeps)
    assert np.abs(tf.matrices - reference).max() <= \
        1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("n_cells, substeps", [(600, 1), (256, 2), (257, 3)])
def test_tangent_flow_takes_one_stack_evaluation_per_stage(monkeypatch,
                                                           n_cells, substeps):
    # each RK4 stage of a batch of FLOW_BATCH cells is one evaluation of
    # the variation stack, whatever n
    scenario = load_scenario("cartan_arc")
    frame = scenario.frame
    u = smooth_perturbation(np.random.default_rng(n_cells), n_cells=n_cells,
                            k=frame.k, amplitude=0.5)
    traj = integrate_trajectory(frame, u, scenario.q0, substeps=substeps)
    evals = []
    evaluate = _StackedPolys.eval
    monkeypatch.setattr(_StackedPolys, "eval",
                        lambda self, pts: evals.append(self) or
                        evaluate(self, pts))
    tangent_flow(frame, u, traj, substeps=substeps)
    batches = -(-n_cells // FLOW_BATCH)
    assert len(evals) == 4 * substeps * batches
    assert all(stack is frame._stack("variation") for stack in evals)


def test_tangent_flow_rejects_base_on_another_grid(heisenberg):
    u = constant_control([1.0, 0.0], horizon=1.0, n_cells=20)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    longer = constant_control([1.0, 0.0], horizon=2.0, n_cells=20)
    with pytest.raises(GridMismatchError):
        tangent_flow(heisenberg, longer, traj)


def _tangent_flow_with(frame, substeps):
    u = constant_control([1.0, 0.0], n_cells=10)
    traj = integrate_trajectory(frame, u, [0.0, 0.0, 0.0])
    return tangent_flow(frame, u, traj, substeps=substeps)


def _hamiltonian_with(frame, substeps):
    return hamiltonian_extremal(frame, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1.0,
                                10, substeps=substeps)


@pytest.mark.parametrize("run", [_tangent_flow_with, _hamiltonian_with],
                         ids=["tangent_flow", "hamiltonian_extremal"])
@pytest.mark.parametrize("substeps", [0, -1])
def test_nonpositive_substeps_rejected(heisenberg, run, substeps):
    # tangent_flow used to return identity maps for -1 and divide by zero
    # for 0; the Hamiltonian oracle clamped both to 1
    with pytest.raises(ValueError, match="substeps must be >= 1"):
        run(heisenberg, substeps)


def test_two_point_tangent_map_examples(heisenberg):
    u = constant_control([1.0, 0.0], n_cells=100)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    assert np.array_equal(two_point_map(tf, 10, 90, np.zeros(3)), np.zeros(3))
    tau, t = 0.3, 0.8
    out = two_point_map(tf, traj.node_index(tau), traj.node_index(t),
                        [0.0, 1.0, tau / 2.0])
    assert np.allclose(out, [0.0, 1.0, tau - t / 2.0], atol=1e-12)


def test_flow_composition(heisenberg):
    u = sampled_control(lambda t: [np.cos(t), np.sin(t)], n_cells=200)
    traj = integrate_trajectory(heisenberg, u, [0.1, 0.2, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    rng = np.random.default_rng(5)
    for _ in range(10):
        tau, sigma, t = sorted(rng.integers(0, 201, size=3))
        v = rng.normal(size=3)
        once = two_point_map(tf, tau, t, v)
        twice = two_point_map(tf, sigma, t, two_point_map(tf, tau, sigma, v))
        assert np.allclose(once, twice, rtol=1e-9, atol=1e-12)


def test_tangent_flow_matches_initial_point_differences(heisenberg):
    u = sampled_control(lambda t: [np.cos(t), np.sin(t)], n_cells=200)
    q0 = np.array([0.1, -0.3, 0.2])
    traj = integrate_trajectory(heisenberg, u, q0)
    tf = tangent_flow(heisenberg, u, traj)
    h = 1e-6
    fd = np.empty((3, 3))
    for b in range(3):
        e = np.zeros(3)
        e[b] = h
        plus = integrate_trajectory(heisenberg, u, q0 + e)
        minus = integrate_trajectory(heisenberg, u, q0 - e)
        fd[:, b] = (plus.endpoint - minus.endpoint) / (2.0 * h)
    assert np.allclose(tf.matrices[-1], fd, rtol=1e-5, atol=1e-8)


def test_velocity_transport_identity(heisenberg):
    # gamma'(t) = M(t,tau) gamma'(tau) + int_tau^t M(t,s) f_{u'(s)}(gamma(s)) ds
    # for a smoothly sampled control, u' by differencing adjacent midpoints
    n_cells = 1000
    u = sampled_control(lambda t: [np.cos(t), np.sin(t)], n_cells=n_cells)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    dt = u.dt
    mats = tf.matrices
    inv = np.linalg.inv(tf.matrices)

    def velocity(m):
        # midpoint samples: average interior nodes, extrapolate the ends
        if m == 0:
            uc = 1.5 * u.samples[0] - 0.5 * u.samples[1]
        elif m == n_cells:
            uc = 1.5 * u.samples[-1] - 0.5 * u.samples[-2]
        else:
            uc = 0.5 * (u.samples[m - 1] + u.samples[m])
        return heisenberg.field_matrix_many(traj.states[m]) @ uc

    udot = np.diff(u.samples, axis=0) / dt          # value at interior nodes
    for j_tau, j_t, tol in ((0, 700, 5e-5), (100, 700, 1e-12), (250, 500, 1e-12)):
        pulled = np.empty((j_t - j_tau + 1, 3))
        for idx, m in enumerate(range(j_tau, j_t + 1)):
            du_node = udot[min(max(m - 1, 0), n_cells - 2)]
            pulled[idx] = inv[m] @ (
                heisenberg.field_matrix_many(traj.states[m]) @ du_node)
        integral = mats[j_t] @ (np.trapezoid(pulled, dx=dt, axis=0))
        transported = mats[j_t] @ (inv[j_tau] @ velocity(j_tau))
        residual = velocity(j_t) - transported - integral
        assert np.linalg.norm(residual) < tol


def test_domain_exit_marking(euclidean2):
    box = Domain([-1.0, -1.0], [1.0, 1.0])
    u = constant_control([1.0, 0.0], horizon=2.0, n_cells=100)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0], domain=box)
    assert traj.left_domain
    assert traj.first_exit_time == pytest.approx(1.0, abs=0.03)
    with pytest.raises(DomainExitError):
        integrate_trajectory(euclidean2, u, [5.0, 0.0], domain=box)


def test_blow_up_raises():
    # dx/dt = x^2 from x=1 blows up at t=1
    from srx import PolyVectorField, SRFrame
    f = PolyVectorField(({(2,): 1.0},), 1)
    frame = SRFrame((f,), 1, 1)
    u = constant_control([1.0], horizon=2.0, n_cells=50)
    with pytest.raises(IntegrationError):
        integrate_trajectory(frame, u, [1.0])


def test_blow_up_raises_the_same_error_on_both_steppers():
    # dy/dt = x^4 = 1e304 from x = 1e76: y overflows to inf at about
    # t = 1.8e4, in the middle of the run; on the oracle x^8 = inf times
    # p2 = 0 is already nan in the first stage
    from srx import hamiltonian_extremal
    frame = make_quartic_frame()
    u = constant_control([1.0], horizon=2e4, n_cells=100)
    runs = [
        ("t=18000", lambda: integrate_trajectory(frame, u, [1e76, 0.0])),
        ("t=18000", lambda: batched_trajectory_states(frame, u, [1e76, 0.0])),
        ("t=200", lambda: hamiltonian_extremal(frame, [1e76, 0.0], [1.0, 0.0],
                                               2e4, 100)),
        ("t=200", lambda: batched_oracle_stepper(frame)(
            None, np.array([1e76, 0.0, 1.0, 0.0]), 200.0, 1, 100)),
    ]
    for at, run in runs:
        with pytest.raises(IntegrationError) as err:
            run()
        assert str(err.value) == f"state became non-finite at {at}"


def test_tangent_flow_non_finite_raises():
    from srx import PolyVectorField, SRFrame, Trajectory
    u = constant_control([1.0], horizon=1.0, n_cells=1000)
    # x = 0 is a rest point of dx/dt = 1000 x, so the base stays finite
    # while M = exp(1000 t) overflows in the chain of propagators
    linear = SRFrame((PolyVectorField(({(1,): 1000.0},), 1),), 1, 1)
    traj = integrate_trajectory(linear, u, [0.0])
    with pytest.raises(IntegrationError, match="tangent map"):
        tangent_flow(linear, u, traj)
    # a finite base whose first RK4 stage overflows inside the propagators
    square = SRFrame((PolyVectorField(({(2,): 1.0},), 1),), 1, 1)
    huge = Trajectory(np.full((1001, 1), 1e160), u)
    with pytest.raises(IntegrationError, match="propagator"):
        tangent_flow(square, u, huge)


def test_tangent_flow_flags_ill_conditioning():
    # strongly expanding/contracting linear flow: cond(M) passes 1e12
    from srx import PolyVectorField, SRFrame
    f = PolyVectorField(({(1, 0): -1.0}, {(0, 1): 100.0}), 2)
    frame = SRFrame((f,), 2, 1)
    u = constant_control([1.0], horizon=0.3, n_cells=30)
    traj = integrate_trajectory(frame, u, [0.5, 1e-8])
    tf = tangent_flow(frame, u, traj)
    assert tf.max_condition > COND_LIMIT
    assert tf.max_condition > 1e12

