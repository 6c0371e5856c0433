import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from srx import (ControlSignal, Domain, NotCertifiableError, PolyVectorField,
                 SRFrame, SRXError, Trajectory, build_certificate, control_inner,
                 compute_epsilon, compute_eta, estimate_constants,
                 hamiltonian_extremal, integrate_trajectory, natural_homotopy, psi,
                 sample_admissible_perturbation, verify_certificate, xi, zeta)
from srx import certify, extremals
from srx.certify import (FrameConstants, TrialDraws, bound_slacks,
                          family_extremes)
from srx.homotopy import _homotopy_cells
from srx.scenario import BUNDLED, load_scenario

from conftest import (constant_control, make_random_poly_frame,
                      make_rank_one_frame, sampled_control)


# -- constants ------------------------------------------------------------------

def test_constants_euclidean(euclidean2, box2):
    c = estimate_constants(euclidean2, box2, grid_resolution=5, margin=1.0)
    assert c.C0 == pytest.approx(1.0, abs=1e-14)
    assert c.C1 == 0.0 and c.C2 == 0.0 and c.C3 == 0.0


def _grid_maxima(frame, domain, resolution):
    """Unmargined C0..C3 as maxima over the inclusive grid: the sampled reference."""
    n, maxima = frame.n, []
    for pts in domain.grid_chunks(resolution, 4096):
        fvals = frame.field_matrix_many(pts)                  # (P, n, k)
        jacs = frame.derivatives(1, pts)                      # (P, k, n, n)
        hess = frame.derivatives(2, pts)                      # (P, k, a, b, c)
        slices = np.swapaxes(hess, 2, 3).reshape(-1, n, n)
        maxima.append([
            np.linalg.norm(fvals, axis=1).max(),
            np.linalg.norm(jacs, axis=2).max(),
            np.linalg.svd(jacs.reshape(-1, n, n), compute_uv=False)[:, 0].max(),
            np.linalg.svd(slices, compute_uv=False)[:, 0].max()])
    return np.max(maxima, axis=0)


@pytest.mark.parametrize("seed", [3, 9])
@pytest.mark.parametrize("box", [
    Domain([-1.0, -0.5, -1.5], [1.0, 1.5, 0.5]),     # off-centre
    Domain([0.5, 1.0, -2.0], [1.5, 2.0, -1.0]),      # excludes 0
])
def test_constants_enclose_grid_maxima(seed, box):
    frame = make_random_poly_frame(np.random.default_rng(seed))
    bounds = estimate_constants(frame, box, margin=1.0)
    sampled = _grid_maxima(frame, box, 21)
    assert np.all(np.array([bounds.C0, bounds.C1, bounds.C2, bounds.C3])
                  >= sampled)


@pytest.mark.parametrize("name", BUNDLED)
def test_constants_equal_grid_maxima_on_bundled_scenarios(name):
    # their maxima lie at box vertices, where the monomials do not cancel
    scenario = load_scenario(name)
    res, margin = scenario.certify["grid_resolution"], scenario.certify["margin"]
    c = estimate_constants(scenario.frame, scenario.domain, res, margin)
    sampled = (margin * _grid_maxima(scenario.frame, scenario.domain, res)).tolist()
    assert [c.C0, c.C1, c.C2, c.C3] == sampled


def test_constants_are_loose_where_monomials_cancel():
    # |x - x^3| <= 0.385 on [-1, 1], but the bound adds |x| + |x|^3
    frame = SRFrame((PolyVectorField(({(1,): 1.0, (3,): -1.0},), 1),), 1, 1)
    c = estimate_constants(frame, Domain([-1.0], [1.0]), margin=1.0)
    assert (c.C0, c.C1, c.C2, c.C3) == (2.0, 4.0, 4.0, 6.0)


def test_constants_memory_does_not_grow_with_the_grid():
    # the sampled grid at n = 4, resolution 21 traced 170 MiB
    frame = make_random_poly_frame(np.random.default_rng(4), n=4, degree=2)
    box = Domain([-2.0] * 4, [2.0] * 4)
    tracemalloc.start()
    try:
        estimate_constants(frame, box, grid_resolution=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("margin", [math.nan, math.inf, 0.5])
def test_constants_reject_bad_margin(heisenberg, box3, margin):
    with pytest.raises(ValueError, match="margin"):
        estimate_constants(heisenberg, box3, margin=margin)


def test_constants_heisenberg(heisenberg, box3):
    c = estimate_constants(heisenberg, box3, grid_resolution=9, margin=1.0)
    assert c.C0 == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert c.C1 == pytest.approx(0.5, abs=1e-14)
    assert c.C2 == pytest.approx(0.5, abs=1e-14)
    assert c.C3 == 0.0


def test_constants_margin_scales_exactly(heisenberg, box3):
    plain = estimate_constants(heisenberg, box3, grid_resolution=5, margin=1.0)
    fat = estimate_constants(heisenberg, box3, grid_resolution=5, margin=1.1)
    for name in ("C0", "C1", "C2", "C3"):
        assert getattr(fat, name) == pytest.approx(1.1 * getattr(plain, name),
                                                   abs=1e-15)


def test_constants_monotone_under_refinement(heisenberg, box3):
    coarse = estimate_constants(heisenberg, box3, grid_resolution=5, margin=1.1)
    fine = estimate_constants(heisenberg, box3, grid_resolution=10, margin=1.0)
    assert fine.C0 <= coarse.C0
    assert fine.C1 <= coarse.C1
    assert fine.C2 <= coarse.C2
    assert fine.C3 <= coarse.C3


# -- growth functions -------------------------------------------------------------

def _euclid_constants():
    return FrameConstants(1.0, 0.0, 0.0, 0.0, 5, 1.0)


def test_growth_functions_euclidean_closed_form():
    c = _euclid_constants()
    for t in (0.0, 0.3, 2.0):
        assert zeta(t, c, 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert psi(t, c, 2, 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert xi(t, c, 2, 2) == 0.0


def test_growth_functions_at_zero(heisenberg, box3):
    c = estimate_constants(heisenberg, box3, grid_resolution=5, margin=1.0)
    assert zeta(0.0, c, 2) == pytest.approx(math.sqrt(2.0) * c.C0, abs=1e-14)
    assert psi(0.0, c, 2, 3) == pytest.approx(math.sqrt(2.0) * c.C0, abs=1e-14)


def test_growth_functions_monotone(heisenberg, box3):
    c = estimate_constants(heisenberg, box3, grid_resolution=5, margin=1.1)
    ts = np.linspace(0.0, 2.0, 100)
    z = [zeta(t, c, 2) for t in ts]
    p = [psi(t, c, 2, 3) for t in ts]
    x = [xi(t, c, 2, 3) for t in ts]
    tx = [t * xi(t, c, 2, 3) for t in ts]
    for seq in (z, p, x, tx):
        assert all(b >= a - 1e-12 for a, b in zip(seq[:-1], seq[1:]))


@pytest.mark.parametrize("c1, c2, c3, zeta_inf, psi_inf", [
    (1e3, 1e3, 0.0, True, True), (1e3, 1e3, 5.0, True, True),
    (200.0, 1.0, 0.0, False, True), (1.0, 600.0, 0.0, True, False)])
def test_growth_functions_are_inf_where_an_exponential_overflows(
        c1, c2, c3, zeta_inf, psi_inf):
    # these used to raise OverflowError from math.exp; with C3 = 0, xi's
    # C3 t zeta psi term is 0, not 0 * inf = nan
    c = FrameConstants(1.0, c1, c2, c3, 5, 1.0)
    assert (zeta(1.0, c, 2) == math.inf) is zeta_inf
    assert (psi(1.0, c, 2, 3) == math.inf) is psi_inf
    assert xi(1.0, c, 2, 3) == math.inf


def test_growth_functions_reject_negative_horizon():
    c = _euclid_constants()
    with pytest.raises(ValueError):
        zeta(-0.1, c, 2)
    with pytest.raises(ValueError):
        psi(-0.1, c, 2, 2)
    with pytest.raises(ValueError):
        xi(-0.1, c, 2, 2)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("growth, dims", [(zeta, (2,)), (psi, (2, 3)),
                                          (xi, (2, 3))],
                         ids=["zeta", "psi", "xi"])
def test_growth_functions_reject_a_horizon_that_is_not_finite(growth, dims, t):
    # a t < 0 check alone lets nan through, and with C2 = 0 zeta(inf) and
    # xi(inf) would be nan (0 * inf inside the exponent)
    for c in (_euclid_constants(), FrameConstants(1.0, 1.0, 1.0, 1.0, 5, 1.0)):
        with pytest.raises(ValueError, match=repr(t)):
            growth(t, c, *dims)


# -- tube radius -------------------------------------------------------------------

def test_eta_center_of_unit_box(euclidean2):
    box = Domain([-1.0, -1.0], [1.0, 1.0])
    u = constant_control([0.0, 0.0], n_cells=100)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    c = estimate_constants(euclidean2, box, 5, 1.0)
    allowance = u.dt * c.C0 * math.sqrt(2.0)
    assert compute_eta(traj, box, c) == pytest.approx(1.0 - allowance, abs=1e-12)


def test_eta_straight_line(euclidean2):
    box = Domain([-1.0, -1.0], [1.0, 1.0])
    u = constant_control([1.0, 0.0], horizon=0.5, n_cells=100)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    c = estimate_constants(euclidean2, box, 5, 1.0)
    allowance = u.dt * c.C0 * math.sqrt(2.0)
    assert compute_eta(traj, box, c) == pytest.approx(0.5 - allowance, abs=1e-12)


def test_eta_rejects_boundary_touch(euclidean2):
    box = Domain([-1.0, -1.0], [1.0, 1.0])
    u = constant_control([1.0, 0.0], horizon=2.0, n_cells=100)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0], domain=box)
    assert traj.left_domain
    c = estimate_constants(euclidean2, box, 5, 1.0)
    with pytest.raises(NotCertifiableError):
        compute_eta(traj, box, c)
    # same verdict when only the endpoint sits exactly on the boundary
    u_touch = constant_control([1.0, 0.0], horizon=1.0, n_cells=100)
    traj_touch = integrate_trajectory(euclidean2, u_touch, [0.0, 0.0])
    with pytest.raises(NotCertifiableError):
        compute_eta(traj_touch, box, c)


# -- radius search -----------------------------------------------------------------

def test_epsilon_euclidean_closed_form():
    c = _euclid_constants()
    result = compute_epsilon(c, 1.0, 1.0, 2, 2, 1.0)
    assert result.epsilon == pytest.approx(0.999 / (4.0 * math.sqrt(2.0)), abs=1e-6)
    assert result.domain_ok and result.angle_ok
    # compute_epsilon raises unless the left-hand sides are monotone, so a
    # result needs no monotonicity flag; the JSON key is covered below
    assert result.holds and not result.capped


@pytest.mark.parametrize("bad", [-0.1, math.nan])
def test_epsilon_rejects_negative_or_nan_constants(bad):
    for name in ("C0", "C1", "C2", "C3"):
        constants = dataclasses.replace(_euclid_constants(), **{name: bad})
        with pytest.raises(SRXError, match="constants are inconsistent"):
            compute_epsilon(constants, 1.0, 1.0, 2, 2, 1.0)


def test_epsilon_rejects_nonpositive_inputs():
    c = _euclid_constants()
    with pytest.raises(NotCertifiableError):
        compute_epsilon(c, 0.0, 1.0, 2, 2, 1.0)
    with pytest.raises(NotCertifiableError):
        compute_epsilon(c, 1.0, 0.0, 2, 2, 1.0)


@pytest.mark.parametrize("factor", [0.0, 1.0, 1.5, -0.5])
def test_epsilon_rejects_margin_factor_outside_unit_interval(factor):
    # a factor of 1.5 used to return a radius that breaks the angle condition
    with pytest.raises(ValueError, match="margin_factor"):
        compute_epsilon(_euclid_constants(), 1.0, 1.0, 2, 2, 1.0,
                        margin_factor=factor)


def test_epsilon_monotone_in_eta_and_c(heisenberg, box3):
    c = estimate_constants(heisenberg, box3, grid_resolution=5, margin=1.1)
    eps = [compute_epsilon(c, 1.0, eta, 2, 3, 1.0).epsilon
           for eta in (0.25, 0.5, 1.0)]
    assert eps[0] <= eps[1] <= eps[2]
    eps = [compute_epsilon(c, cc, 0.5, 2, 3, 1.0).epsilon
           for cc in (0.25, 0.5, 1.0)]
    assert eps[0] <= eps[1] <= eps[2]


def test_epsilon_caps_at_t_max():
    c = _euclid_constants()
    result = compute_epsilon(c, 1.0, 1.0, 2, 2, 0.05)
    assert result.capped
    assert result.epsilon == 0.05


def test_epsilon_proportional_to_eta_without_curvature():
    # with C2 = C3 = 0 the angle condition is vacuous and zeta is constant,
    # so the radius is exactly linear in the tube radius
    c = _euclid_constants()
    eps = {eta: compute_epsilon(c, 1.0, eta, 2, 2, 10.0).epsilon
           for eta in (0.25, 0.5, 1.0)}
    assert eps[0.5] / eps[1.0] == pytest.approx(0.5, rel=1e-5)
    assert eps[0.25] / eps[1.0] == pytest.approx(0.25, rel=1e-5)


# -- certificates end to end ---------------------------------------------------------

@pytest.fixture(scope="module")
def line_certificate(heisenberg):
    box = Domain([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    u = constant_control([1.0, 0.0], horizon=0.5, n_cells=500)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0], domain=box)
    cert, report = build_certificate(heisenberg, box, u, traj,
                                     grid_resolution=11, seed=42)
    return box, u, traj, cert, report


def test_certificate_heisenberg_line(heisenberg, line_certificate):
    box, u, traj, cert, report = line_certificate
    assert report.status == "certified"
    assert cert.c == pytest.approx(1.0, abs=1e-9)
    assert cert.epsilon > 0.0
    assert cert.domain_ok and cert.angle_ok
    data = cert.to_json_dict()
    assert set(data) >= {"C0", "C1", "C2", "C3", "margin", "c", "eta",
                         "epsilon", "conditions", "provenance"}
    assert data["provenance"]["seed"] == 42
    assert data["conditions"]["monotone_ok"] is True


def test_certificate_reads_its_values_from_its_conditions(line_certificate):
    _, _, _, cert, report = line_certificate
    moved = dataclasses.replace(cert, c=0.5, eta=0.25, epsilon=0.01)
    assert (moved.c, moved.eta, moved.epsilon) == (0.5, 0.25, 0.01)
    assert moved.angle_ok == (moved.angle_lhs < moved.c / 2)
    assert moved.domain_ok == (moved.domain_lhs < moved.eta)
    assert moved.xi_eps == xi(0.01, cert.constants, 2, 3)
    data = moved.to_json_dict()
    assert (data["c"], data["eta"], data["epsilon"]) == (0.5, 0.25, 0.01)
    assert data["zeta_eps"] == zeta(0.01, cert.constants, 2)
    assert data["psi_eps"] == psi(0.01, cert.constants, 2, 3)
    # the NSRE verdict and c follow the threshold they are judged against
    assert report.status == "certified" and report.c > 0.0
    raised = dataclasses.replace(report, theta_min=math.pi)
    assert raised.status == "inconclusive" and raised.c == 0.0
    assert raised.regularity_ok and not raised.b2_ok
    assert dataclasses.replace(report, acb_bound=-1.0).status == "failed"


def test_compute_epsilon_returns_the_certificate(heisenberg, line_certificate):
    # build_certificate adds only the seed to compute_epsilon's record
    box, u, traj, cert, report = line_certificate
    constants = estimate_constants(heisenberg, box, grid_resolution=11)
    eta = compute_eta(traj, box, constants)
    found = compute_epsilon(constants, report.c, eta, 2, 3, traj.horizon)
    assert (found.seed, cert.seed) == (0, 42)
    assert found == dataclasses.replace(cert, seed=0)


def test_certificate_restriction_invariance(heisenberg, line_certificate):
    box, u, traj, cert, _ = line_certificate
    sub_u = ControlSignal(300 * u.dt, u.samples[100:400])
    sub_traj = Trajectory(traj.states[100:401], sub_u)
    sub_cert, _ = build_certificate(heisenberg, box, sub_u, sub_traj,
                                    grid_resolution=11, seed=42)
    assert sub_cert.eta >= cert.eta - 1e-12
    assert sub_cert.c >= cert.c - 1e-12
    assert sub_cert.epsilon >= cert.epsilon - 1e-9
    # condition slacks evaluated at the full-run radius are at least as wide
    assert (sub_cert.eta - cert.domain_lhs) >= (cert.eta - cert.domain_lhs) - 1e-12
    assert (0.5 * sub_cert.c - cert.angle_lhs) >= \
        (0.5 * cert.c - cert.angle_lhs) - 1e-12


def test_verification_zero_violations(heisenberg, line_certificate):
    box, u, traj, cert, _ = line_certificate
    report = verify_certificate(heisenberg, box, u, traj, cert,
                                n_trials=25, base_seed=0)
    assert report.ok
    assert report.n_trials == 25
    assert report.t_prime <= cert.epsilon
    assert report.worst_slack() > 0.0
    assert all(t.slack == t.separation - t.bound for t in report.trials)


def test_verification_threads_reproducible(heisenberg, line_certificate):
    # verification runs in one thread; two identical calls agree exactly
    box, u, traj, cert, _ = line_certificate
    reports = [verify_certificate(heisenberg, box, u, traj, cert,
                                  n_trials=8, base_seed=3) for _ in range(2)]
    assert reports[0].trials == reports[1].trials


def test_verification_rejects_zero_trials(heisenberg, line_certificate):
    box, u, traj, cert, _ = line_certificate
    with pytest.raises(ValueError):
        verify_certificate(heisenberg, box, u, traj, cert, n_trials=0)


def test_verification_independent_of_batch_layout(heisenberg, line_certificate,
                                                  monkeypatch):
    box, u, traj, cert, _ = line_certificate
    reports = []
    for budget in (1, 1 << 40):     # one trial per batch vs a single batch
        monkeypatch.setattr(certify, "VERIFY_BATCH_BYTES", budget)
        reports.append(verify_certificate(heisenberg, box, u, traj, cert,
                                          n_trials=7, base_seed=5))
    assert reports[0].trials == reports[1].trials


def test_batch_holds_at_least_one_trial(monkeypatch):
    # a trial takes its du draw (50 cells x 2) and one cell's rows
    # (q, b, u, du) of its 17 members, 17 x 10 floats: no member history
    assert certify._trials_per_batch(17, 10 ** 9, 5, 2) == 1
    monkeypatch.setattr(certify, "VERIFY_BATCH_BYTES", (50 * 2 + 17 * 10) * 8 * 3)
    assert certify._trials_per_batch(17, 50, 3, 2) == 3


def test_verification_catches_inflated_constant(heisenberg, line_certificate):
    # a certificate claiming a much larger angle constant must be caught
    box, u, traj, cert, _ = line_certificate
    from dataclasses import replace
    bogus = replace(cert, c=250.0)
    report = verify_certificate(heisenberg, box, u, traj, bogus,
                                n_trials=10, base_seed=0)
    assert not report.ok
    assert report.failing_seeds  # reproducing seeds are reported


def test_verification_records_members_leaving_the_domain(heisenberg,
                                                          line_certificate):
    # the base line runs along y = 0, just below the face y = 1e-9 of a thin
    # box; the perturbed members of a trial leave it when one crosses y = 1e-9
    box, u, traj, cert, _ = line_certificate
    thin = Domain([-1.0, -1.0, -1.0], [1.0, 1e-9, 1.0])
    report = verify_certificate(heisenberg, thin, u, traj, cert, n_trials=10,
                                base_seed=0)
    u_r = u.restrict(round(report.t_prime / u.dt))
    expected = []
    for trial in report.trials:
        # the recorded seed and |du| reproduce the trial's draw exactly
        du, _ = sample_admissible_perturbation(TrialDraws(trial.seed), u_r)
        assert math.sqrt(du.l2_norm_sq()) == trial.norm_du
        hom = natural_homotopy(heisenberg, u_r, du, traj.q0, report.n_s)
        expected.append(bool((thin.boundary_distances(hom.trajectories)
                              <= 0.0).any()))
    recorded = ["homotopy_left_domain" in t.violations for t in report.trials]
    assert recorded == expected
    assert any(recorded) and not report.ok


def _stream_case(case, heisenberg):
    """frame, domain, restricted control, q0 and substeps of one case."""
    if case == "martinet_arc":
        scenario = load_scenario(case)
        ham = scenario.hamiltonian
        u = hamiltonian_extremal(scenario.frame, scenario.q0, ham["p0"],
                                 ham["T"], ham["N_t"]).control
        return scenario.frame, scenario.domain, u.restrict(20), scenario.q0, 2
    u = constant_control([1.0, 0.0], horizon=0.5, n_cells=500).restrict(24)
    # the base line runs along y = 0; the members of some draws cross
    # y = 5e-4 and some do not
    upper = 5e-4 if case == "members_leave" else 1.0
    box = Domain([-1.0, -1.0, -1.0], [1.0, upper, 1.0])
    return heisenberg, box, u, np.zeros(3), 1


@pytest.mark.parametrize("case", ["heisenberg_line", "martinet_arc",
                                  "members_leave"])
def test_streamed_reductions_equal_the_stored_homotopy(heisenberg, case):
    # verification keeps no member history: the cell-by-cell fold of a batch
    # must give exactly the FamilyExtremes, and so the bound_slacks,
    # in_domain and separation, of the stored homotopy of each of its draws,
    # reduced by node blocks
    frame, domain, u_r, q0, substeps = _stream_case(case, heisenberg)
    draws = [sample_admissible_perturbation(np.random.default_rng(seed), u_r)[0]
             for seed in range(6)]
    constants = estimate_constants(frame, domain, 5)
    c = 0.8
    _, cells = _homotopy_cells(frame, u_r, np.stack([du.samples for du in draws]),
                               q0, 8, domain, substeps)
    streamed = certify._fold_extremes((y[:, None] for y in cells), u_r, draws,
                                      domain)
    inside = []
    for du, family in zip(draws, streamed):
        hom = natural_homotopy(frame, u_r, du, q0, 8, domain, substeps)
        stored = family_extremes(hom, u_r, domain)
        assert bound_slacks(family, constants, c, u_r.horizon) == \
            bound_slacks(stored, constants, c, u_r.horizon)
        assert (family.in_domain, family.separation) == (stored.in_domain,
                                                          stored.separation)
        for name in ("extremes", "b0", "phi"):
            assert np.array_equal(getattr(family, name), getattr(stored, name))
        inside.append(stored.in_domain)
    if case == "members_leave":
        assert True in inside and False in inside
    else:
        assert all(inside)


@pytest.mark.parametrize("node_block", [7, certify.NODE_BLOCK])
def test_family_extremes_fold_node_blocks_exactly(heisenberg, monkeypatch,
                                                  node_block):
    # the stored family is reduced block by block of nodes; the fold must
    # give exactly _extremes over the whole family, and the b_0 slack from
    # member 0's profiles exactly its slack at any c.  This du puts the
    # largest spread, variation and drift at the last node, in the last
    # block, and gives every member its own |b_s(t)|.
    monkeypatch.setattr(certify, "NODE_BLOCK", node_block)
    u = constant_control([1.0, 0.0], n_cells=300)
    du = sampled_control(lambda t: [-0.3, 0.9 * t], n_cells=300)
    hom = natural_homotopy(heisenberg, u, du, np.zeros(3), 8)
    family = family_extremes(hom, u, None)
    phi = np.abs(control_inner(u, du))
    q, b = hom.trajectories[:, :, None], hom.variations[:, :, None]
    whole = certify._extremes(q, b)[0]
    assert np.array_equal(family.extremes, whole)
    spread = np.linalg.norm(hom.trajectories - hom.trajectories[0], axis=-1)
    assert spread.argmax() % spread.shape[1] == 300
    b0 = np.sqrt(certify._squares(hom.variations[0]))
    assert np.array_equal(family.b0, b0) and np.array_equal(family.phi, phi)
    constants = estimate_constants(heisenberg, Domain([-2.0] * 3, [2.0] * 3), 5)
    for c in (0.0, 0.3, 5.0):
        _, b0_slack = bound_slacks(family, constants, c, u.horizon)
        assert b0_slack == (b0 - c * phi).min()
    # at c = 5 the slack is negative, so it is not the 0 of t = 0
    assert b0_slack < 0.0
    ends = hom.endpoints
    assert family.in_domain
    assert family.separation == float(np.linalg.norm(ends[-1] - ends[0]))


def test_verification_memory_does_not_grow_with_the_horizon(heisenberg,
                                                             line_certificate):
    # the stored member histories grew by 17 members x 6 floats per trial
    # and added cell; streamed, only the du draws and |integral phi| grow,
    # by 2 + 1 floats per trial and cell (4x leaves room for the sampler's
    # temporaries of one draw)
    box, u, traj, cert, _ = line_certificate
    n_trials = 8

    def peak(t_prime):
        verify_certificate(heisenberg, box, u, traj, cert, n_trials=n_trials,
                           t_prime=t_prime)
        tracemalloc.start()
        try:
            report = verify_certificate(heisenberg, box, u, traj, cert,
                                        n_trials=n_trials, t_prime=t_prime)
            return round(report.t_prime / u.dt), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (short, short_peak), (long, long_peak) = peak(0.012), peak(0.048)
    assert (short, long) == (12, 48)
    draw_growth = n_trials * (long - short) * (2 + 1) * 8
    assert long_peak - short_peak <= 4 * draw_growth


@pytest.mark.parametrize("t_prime", [-1.0, 0.0, math.nan, math.inf])
def test_verification_rejects_a_t_prime_that_is_not_finite_and_positive(
        heisenberg, line_certificate, t_prime):
    # -1 and 0 were refused as a radius below one control cell, NaN failed
    # converting to an integer and inf overflowed
    box, u, traj, cert, _ = line_certificate
    with pytest.raises(ValueError, match="t_prime must be a finite number > 0"):
        verify_certificate(heisenberg, box, u, traj, cert, n_trials=1,
                           t_prime=t_prime)


def test_certificate_refuses_jump_control(heisenberg, box3):
    n_cells = 200
    samples = np.zeros((n_cells, 2))
    samples[: n_cells // 2, 0] = 1.0
    samples[n_cells // 2 :, 1] = 1.0
    from srx import ControlSignal
    u = ControlSignal(1.0, samples)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0], domain=box3)
    with pytest.raises(NotCertifiableError) as err:
        build_certificate(heisenberg, box3, u, traj, grid_resolution=5)
    assert err.value.report is not None
    assert err.value.report.status == "failed"


def test_certificate_rejects_a_non_unit_control_first(heisenberg, box3,
                                                      monkeypatch):
    # the unit-speed check comes before the constants and the tangent flow
    from srx.extremals import NotNormalizedError

    def never(*args, **kwargs):
        raise AssertionError("called before the unit-speed check")

    u = constant_control([0.9, 1.2], n_cells=100)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0], domain=box3)
    monkeypatch.setattr(extremals, "tangent_flow", never)
    monkeypatch.setattr(certify, "estimate_constants", never)
    with pytest.raises(NotNormalizedError, match=r"is 5\.000e-01"):
        build_certificate(heisenberg, box3, u, traj, grid_resolution=5)


def test_certificate_rejects_a_rank_one_frame_first(monkeypatch):
    # the rank check comes before the constants and the tangent flow
    from srx.extremals import DegenerateSpanError

    def never(*args, **kwargs):
        raise AssertionError("called before the rank check")

    frame = make_rank_one_frame()
    u = constant_control([1.0], n_cells=10)
    traj = integrate_trajectory(frame, u, [0.0, 0.0])
    monkeypatch.setattr(extremals, "tangent_flow", never)
    monkeypatch.setattr(certify, "estimate_constants", never)
    with pytest.raises(DegenerateSpanError, match="empty orthogonal part"):
        build_certificate(frame, Domain([-2.0, -2.0], [2.0, 2.0]), u, traj,
                          grid_resolution=5)


# -- perturbation sampler --------------------------------------------------------------

def test_sampler_always_admissible():
    # from verification's draw source and from a numpy Generator alike
    u = constant_control([1.0, 0.0], horizon=0.05, n_cells=50)
    limit = 2.0 * math.sqrt(u.horizon)
    for draws, seed in itertools.product((TrialDraws, np.random.default_rng),
                                         range(300)):
        du, _ = sample_admissible_perturbation(draws(seed), u)
        assert u.perturbed(du).energy() <= u.energy()
        assert math.sqrt(du.l2_norm_sq()) <= limit
        assert math.sqrt(du.l2_norm_sq()) > 0.0


def test_sampler_deterministic():
    u = constant_control([1.0, 0.0], n_cells=20)
    a, ra = sample_admissible_perturbation(TrialDraws(7), u)
    b, rb = sample_admissible_perturbation(TrialDraws(7), u)
    assert np.array_equal(a.samples, b.samples)
    assert ra == rb


def test_trial_draws_stream_is_pinned():
    # verification.csv depends on these exact values: a change in CPython's
    # Mersenne Twister, uniform or gauss would show here first
    draws = TrialDraws(0)
    assert draws.uniform(*certify.AMP_RANGE) == 0.5988742034912813
    normal = draws.standard_normal((2, 2))
    assert normal.shape == (2, 2) and normal.dtype == np.float64
    assert normal.tolist() == [[0.05219198828260849, -1.0434089742005737],
                               [-0.06700651572905797, 1.1947466787499987]]


def test_trial_draws_reject_a_negative_seed():
    # random.Random(-1) would silently draw the stream of seed 1
    with pytest.raises(ValueError, match="non-negative"):
        TrialDraws(-1)
