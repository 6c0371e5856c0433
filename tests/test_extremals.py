import numpy as np
import pytest

from srx import (GridMismatchError, angle_to_subspace, hamiltonian_extremal,
                 integrate_trajectory, nsre_check, orthogonal_control_complement,
                 span_profile, tangent_flow)
from srx import extremals
from srx.extremals import DegenerateSpanError, NotNormalizedError, OrthoDistribution
from srx.flows import COND_LIMIT
from srx.scenario import load_scenario

from conftest import (constant_control, make_euclidean_frame,
                      make_heisenberg_frame, make_rank_one_frame,
                      sampled_control, two_point_map)


def _line_setup(heisenberg, n_cells=200):
    u = constant_control([1.0, 0.0], n_cells=n_cells)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    return u, traj, tf


# -- control-space complement -------------------------------------------------

def test_complement_k2():
    w = orthogonal_control_complement([1.0, 0.0])
    assert w.shape == (2, 1)
    assert np.allclose(np.abs(w[:, 0]), [0.0, 1.0])
    w = orthogonal_control_complement([0.0, 1.0])
    assert np.allclose(np.abs(w[:, 0]), [1.0, 0.0])


def test_complement_k3():
    w = orthogonal_control_complement([1.0, 0.0, 0.0])
    assert w.shape == (3, 2)
    assert np.allclose(w[0], 0.0, atol=1e-15)
    assert np.allclose(w.T @ w, np.eye(2), atol=1e-14)


def test_complement_random_orthonormal():
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        u = rng.normal(size=k)
        w = orthogonal_control_complement(u)
        assert np.allclose(w.T @ w, np.eye(k - 1), atol=1e-12)
        assert np.allclose(w.T @ u, 0.0, atol=1e-12 * np.linalg.norm(u))


def test_complement_zero_rejected():
    with pytest.raises(ValueError):
        orthogonal_control_complement([0.0, 0.0])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_complement_batched_matches_rows(k):
    rng = np.random.default_rng(k)
    u = rng.normal(size=(4, 6, k))
    u[0, 0] = np.eye(k)[0]
    u[1, 2] = -np.eye(k)[0]
    w = orthogonal_control_complement(u)
    assert w.shape == (4, 6, k, k - 1)
    for idx in np.ndindex(4, 6):
        assert np.allclose(w[idx], orthogonal_control_complement(u[idx]),
                           rtol=0.0, atol=1e-15)
    for row in (0, 13, 23):
        bad = u.reshape(24, k).copy()
        bad[row] = 0.0
        with pytest.raises(ValueError):
            orthogonal_control_complement(bad)


# -- flow-pushed orthogonal span ----------------------------------------------

def test_f_perp_heisenberg_line(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    span = span_profile(heisenberg, traj, tf, 200)
    assert span.rank == 2
    # span is the y-z plane: e2 and e3 project onto it with no residual
    assert span.residual(np.array([0.0, 1.0, 0.0])) < 1e-10
    assert span.residual(np.array([0.0, 0.0, 1.0])) < 1e-10
    assert span.residual(np.array([1.0, 0.0, 0.0])) > 0.999


def test_f_perp_euclidean_line(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=100)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    tf = tangent_flow(euclidean2, u, traj)
    for node in (25, 100):                # t = 0.25 and 1
        span = span_profile(euclidean2, traj, tf, node)
        assert span.rank == 1
        assert np.allclose(np.abs(span.basis[:, 0]), [0.0, 1.0], atol=1e-12)


def test_f_perp_at_time_zero(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    span = span_profile(heisenberg, traj, tf, 0)
    assert span.rank == heisenberg.k - 1


def test_f_perp_monotone_span_growth(heisenberg):
    # columns collected on [0, t1] pushed to a common time stay inside the
    # span collected on [0, t2], t1 <= t2
    u = sampled_control(lambda t: [np.cos(0.8 * t), np.sin(0.8 * t)], n_cells=200)
    traj = integrate_trajectory(heisenberg, u, [0.2, -0.1, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    j1, j2 = 80, 180                      # t1 = 0.4, t2 = 0.9
    small = span_profile(heisenberg, traj, tf, j1)
    big = span_profile(heisenberg, traj, tf, j2)
    assert small.rank <= big.rank
    for col in range(small.rank):
        moved = two_point_map(tf, j1, j2,
                              small.basis[:, col])
        assert big.residual(moved) < 1e-8 * np.linalg.norm(moved)


def test_f_perp_flow_invariance(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    # (tau, t) = (0.25, 0.75), (0, 1) and (0.5, 0.6)
    for j_tau, j_t in ((50, 150), (0, 200), (100, 120)):
        earlier = span_profile(heisenberg, traj, tf, j_tau)
        later = span_profile(heisenberg, traj, tf, j_t)
        for col in range(earlier.rank):
            moved = two_point_map(tf, j_tau, j_t,
                                  earlier.basis[:, col])
            assert later.residual(moved) < 1e-6 * np.linalg.norm(moved)


def test_angle_examples(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    span = span_profile(heisenberg, traj, tf, 200)
    assert angle_to_subspace([0.0, 0.3, -0.2], span) == pytest.approx(0.0, abs=1e-7)
    assert angle_to_subspace([1.0, 0.0, 0.0], span) == pytest.approx(np.pi / 2, abs=1e-7)
    with pytest.raises(ValueError):
        angle_to_subspace([0.0, 0.0, 0.0], span)


def test_angle_is_exact_near_a_right_angle():
    # arcsin(|residual| / |v|) was off by 1.0e-8 rad here: the ratio rounds
    # next to 1, where arcsin amplifies the error by 1 / cos(theta)
    theta = np.pi / 2 - 1e-8
    span = OrthoDistribution(np.array(0.0), np.diag([1.0, 0.0, 0.0]),
                             np.array([1.0, 0.0, 0.0]), np.array(1))
    angle = angle_to_subspace([np.cos(theta), np.sin(theta), 0.0], span)
    assert abs(angle - theta) <= 1e-15


# -- NSRE test ----------------------------------------------------------------

def test_nsre_heisenberg_line(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    report = nsre_check(heisenberg, u, traj, tf)
    assert report.status == "certified"
    assert report.regularity_ok and report.b2_ok
    assert np.allclose(report.angles, np.pi / 2, atol=1e-9)
    assert report.c == pytest.approx(1.0, abs=1e-9)
    assert report.min_speed == pytest.approx(1.0, abs=1e-12)


def test_nsre_euclidean_line(euclidean2):
    u = constant_control([1.0, 0.0], n_cells=100)
    traj = integrate_trajectory(euclidean2, u, [0.0, 0.0])
    report = nsre_check(euclidean2, u, traj)
    assert report.c == pytest.approx(1.0, abs=1e-12)


def test_nsre_jump_control_fails_regularity(heisenberg):
    n_cells = 200
    samples = np.zeros((n_cells, 2))
    samples[: n_cells // 2, 0] = 1.0
    samples[n_cells // 2 :, 1] = 1.0
    from srx import ControlSignal
    u = ControlSignal(1.0, samples)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    report = nsre_check(heisenberg, u, traj)
    assert not report.regularity_ok
    assert report.status == "failed"
    assert report.c == 0.0
    assert report.max_velocity_derivative > 100.0


def test_nsre_forced_inconclusive(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    report = nsre_check(heisenberg, u, traj, tf, theta_min=np.pi)
    assert report.status == "inconclusive"
    assert report.regularity_ok and not report.b2_ok
    assert report.c == 0.0


def test_nsre_requires_normalized_control(heisenberg):
    u = constant_control([2.0, 0.0], n_cells=50)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    with pytest.raises(NotNormalizedError):
        nsre_check(heisenberg, u, traj)


def test_nsre_report_json(heisenberg):
    u, traj, tf = _line_setup(heisenberg, n_cells=20)
    data = nsre_check(heisenberg, u, traj, tf).to_json_dict()
    assert data["c"] == pytest.approx(1.0, abs=1e-9)
    assert data["tau_range"] == "0..t"
    assert len(data["angles"]) == 21
    assert data["status"] == "certified"


@pytest.mark.parametrize("kwargs", [{"sample_stride": -1}, {"sample_stride": 0},
                                    {"tau_range": "bogus"}])
def test_nsre_rejects_bad_sampling(heisenberg, kwargs):
    # a negative stride used to sample nothing and certify with every angle
    # at pi/2; a zero stride divided by zero; an unknown range was echoed
    u, traj, tf = _line_setup(heisenberg, n_cells=20)
    with pytest.raises(ValueError):
        nsre_check(heisenberg, u, traj, tf, **kwargs)


def test_span_profile_rejects_a_tangent_flow_of_another_grid(heisenberg):
    # used to fail inside numpy with "operands could not be broadcast"
    u, traj, _ = _line_setup(heisenberg, n_cells=20)
    _, _, other = _line_setup(heisenberg, n_cells=30)
    with pytest.raises(GridMismatchError, match="tangent flow has 31 nodes, "
                                                "the trajectory 21"):
        span_profile(heisenberg, traj, other)
    with pytest.raises(GridMismatchError, match="31 nodes"):
        nsre_check(heisenberg, u, traj, other)


def test_span_profile_node_subset(heisenberg):
    ext = hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1.0, 40)
    traj = ext.trajectory
    tf = tangent_flow(heisenberg, ext.control, traj)
    for tau_range in ("0..t", "0..T"):
        kwargs = {"tau_range": tau_range, "sample_stride": 3, "sigma_tol": 1e-3}
        full = span_profile(heisenberg, traj, tf, **kwargs)
        assert full.rank.shape == full.t.shape == (41,)
        assert full.basis.shape == (41, 3, 3)
        assert np.array_equal(full.t, traj.grid)
        for nodes in ([0, 17, 40], [40, 0, 17], [[0, 17], [40, 17]]):
            subset = span_profile(heisenberg, traj, tf, nodes, **kwargs)
            assert subset.rank.shape == np.shape(nodes)
            assert np.array_equal(subset.t, traj.grid[nodes])
            assert np.array_equal(subset.rank, full.rank[nodes])
            assert np.array_equal(subset.basis, full.basis[nodes])
            assert np.array_equal(subset.singular_values,
                                  full.singular_values[nodes])
        one = span_profile(heisenberg, traj, tf, 17, **kwargs)
        assert one.basis.shape == (3, 3) and one.rank.shape == ()
        assert np.array_equal(one.basis, full.basis[17])
    empty = span_profile(heisenberg, traj, tf, [])
    assert empty.t.shape == empty.rank.shape == (0,)
    assert empty.basis.shape == (0, 3, 3)
    assert empty.singular_values.shape == (0, 3)
    assert [a.shape for a in empty.cut_ratios] == [(0,), (0,)]
    for off_grid in ([41], [0, -1]):
        with pytest.raises(ValueError):
            span_profile(heisenberg, traj, tf, off_grid)


def test_rank_zero_cut_ratios():
    # every direction vanished at the first node, and the last keeps all n
    n = 3
    svals = np.array([[0.0, 0.0, 0.0], [2.0, 1.0, 1e-9], [2.0, 1.0, 0.5]])
    dist = OrthoDistribution(np.zeros(3), np.zeros((3, n, n)), svals,
                             np.array([0, 2, 3]))
    with np.errstate(all="raise"):
        kept, dropped = dist.cut_ratios
    assert kept.tolist() == [0.0, 0.5, 0.25]
    assert dropped.tolist() == [0.0, 5e-10, 0.0]
    single = OrthoDistribution(0.0, np.zeros((n, n)), np.zeros(n), np.array(0))
    assert single.cut_ratios == (0.0, 0.0)


def test_rank_zero_node_from_a_vanishing_field():
    # X2 = x d/dy vanishes at the start, so node 0 samples one zero direction
    from srx import PolyVectorField, SRFrame
    frame = SRFrame((PolyVectorField(({(0, 0): 1.0}, {}), 2),
                     PolyVectorField(({}, {(1, 0): 1.0}), 2)), 2, 2)
    u = constant_control([1.0, 0.0], n_cells=20)
    traj = integrate_trajectory(frame, u, [0.0, 0.0])
    spans = span_profile(frame, traj, tangent_flow(frame, u, traj))
    assert spans.rank[0] == 0 and np.all(spans.rank[1:] == 1)
    assert np.all(spans.singular_values[0] == 0.0)
    kept, dropped = spans.cut_ratios
    assert (kept[0], dropped[0]) == (0.0, 0.0)
    assert np.all(kept[1:] == 1.0)


def _stacked_span_reference(frame, traj, tf, *, tau_range, sample_stride,
                            sigma_tol):
    """Stack every sampled pulled-back column and SVD the stack at each node.

    The O(N_t^2) construction the streaming square-root factor replaced,
    kept here as the reference: (rank, basis, singular values) per node.
    """
    mats = frame.field_matrix_many(traj.states)
    controls = np.vstack([traj.control.samples, traj.control.samples[-1:]])
    perp = np.array([f @ orthogonal_control_complement(c)
                     for f, c in zip(mats, controls)])
    pulled = np.linalg.inv(tf.matrices) @ perp
    n_nodes = traj.grid.shape[0]
    for m in range(n_nodes):
        last = n_nodes - 1 if tau_range == "0..T" else m
        cols = np.concatenate(pulled[0:last + 1:sample_stride], axis=1)
        u_svd, svals, _ = np.linalg.svd(tf.matrices[m] @ cols,
                                        full_matrices=False)
        r = int(np.count_nonzero(svals > sigma_tol * svals[0]))
        yield r, u_svd[:, :r], svals


def _arc_case():
    frame = make_heisenberg_frame()
    ext = hamiltonian_extremal(frame, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1.0, 60)
    return frame, ext.trajectory, 1e-3


def _k3_case():
    # k = 3: every sampled node adds two orthogonal directions
    frame = make_euclidean_frame(3)
    u = sampled_control(lambda t: [np.cos(t), np.sin(t) * np.cos(2 * t),
                                   np.sin(t) * np.sin(2 * t)], n_cells=60)
    return frame, integrate_trajectory(frame, u, [0.0, 0.0, 0.0]), 1e-3


def _check_span_against_stacked_svd(case, tau_range, sample_stride):
    frame, traj, sigma_tol = case()
    tf = tangent_flow(frame, traj.control, traj)
    kwargs = {"tau_range": tau_range, "sample_stride": sample_stride,
              "sigma_tol": sigma_tol}
    velocities = np.einsum("jnk,jk->jn", frame.field_matrix_many(traj.states),
                           np.vstack([traj.control.samples,
                                      traj.control.samples[-1:]]))
    reference = _stacked_span_reference(frame, traj, tf, **kwargs)
    spans = span_profile(frame, traj, tf, **kwargs)
    angles = angle_to_subspace(velocities, spans)
    # always n singular values: the stack's, then exact zeros
    assert spans.singular_values.shape == (traj.grid.size, frame.n)
    for m, (v, (r, basis, svals)) in enumerate(zip(velocities, reference)):
        assert spans.rank[m] == r
        ref_angle = np.arcsin(min(np.linalg.norm(v - basis @ (basis.T @ v))
                                  / np.linalg.norm(v), 1.0))
        assert abs(angles[m] - ref_angle) <= 1e-12
        assert np.allclose(spans.singular_values[m, :svals.size], svals,
                           rtol=0.0, atol=1e-12 * svals[0])
        assert np.all(spans.singular_values[m, svals.size:] == 0.0)
        # the kept columns span the reference; the padding is zero
        assert np.allclose(spans.basis[m, :, :r] @ spans.basis[m, :, :r].T,
                           basis @ basis.T, rtol=0.0, atol=1e-9)
        assert np.all(spans.basis[m, :, r:] == 0.0)


@pytest.mark.parametrize("case", [_arc_case, _k3_case], ids=["arc", "k3"])
@pytest.mark.parametrize("tau_range", ["0..t", "0..T"])
@pytest.mark.parametrize("sample_stride", [1, 3])
def test_streaming_span_matches_stacked_svd(case, tau_range, sample_stride):
    _check_span_against_stacked_svd(case, tau_range, sample_stride)


@pytest.mark.parametrize("case", [_arc_case, _k3_case], ids=["arc", "k3"])
@pytest.mark.parametrize("sample_stride", [1, 3])
@pytest.mark.parametrize("batch", [1, 2, 3, 5, 7, 8])
def test_span_scan_blocks_match_stacked_svd(monkeypatch, case, sample_stride,
                                            batch):
    # 61 nodes in scan blocks of `batch` sampled nodes: every block after
    # the first starts from the carried factor, with stride 3 a block ends
    # inside the stride of its last sampled node, and the one-entry, odd
    # and power-of-two blocks (and the shorter last block) exercise the
    # bounds of the Brent-Kung sweeps
    import srx.extremals as extremals
    monkeypatch.setattr(extremals, "SPAN_BATCH", batch)
    _check_span_against_stacked_svd(case, "0..t", sample_stride)


def test_nsre_long_line_streams(heisenberg):
    # 10^4 nodes: the stacked SVD would push ~10^8 columns through SVDs
    u, traj, tf = _line_setup(heisenberg, n_cells=10_000)
    report = nsre_check(heisenberg, u, traj, tf)
    assert report.status == "certified"
    assert np.all(report.span_ranks[1:] == 2) and report.span_ranks[0] == 1
    assert np.allclose(report.angles, np.pi / 2, atol=1e-9)


def test_nsre_report_span_diagnostics(heisenberg):
    ext = hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1.0, 200)
    tf = tangent_flow(heisenberg, ext.control, ext.trajectory)
    report = nsre_check(heisenberg, ext.control, ext.trajectory, tf,
                        sigma_tol=1e-3)
    spans = span_profile(heisenberg, ext.trajectory, tf, sigma_tol=1e-3)
    assert np.array_equal(report.span_ranks, spans.rank)
    kept, dropped = spans.cut_ratios
    assert report.kept_ratio_min == kept.min()
    assert report.dropped_ratio_max == dropped.max()
    assert report.min_angle_node == int(np.argmin(report.angles))
    # the cut separates what it keeps from the O(dt) sliver it drops
    assert report.dropped_ratio_max <= 1e-3 < report.kept_ratio_min
    assert report.max_condition == tf.max_condition
    data = report.to_json_dict()
    assert data["span_rank"] == report.span_ranks.tolist()
    assert data["min_angle_node"] == report.min_angle_node
    assert data["rank_cut"] == {"sigma_tol": 1e-3,
                                "kept_ratio_min": report.kept_ratio_min,
                                "dropped_ratio_max": report.dropped_ratio_max}
    assert data["tangent_flow"] == {"max_condition": tf.max_condition,
                                    "ill_conditioned":
                                        tf.max_condition > COND_LIMIT}


def test_node_velocity_conventions_on_jump_control():
    # the bundled control jumps from [1, 0] to [0, 1] at node 500
    from srx.homotopy import node_velocity
    from srx.scenario import load_scenario
    sc = load_scenario("jump_control")
    u, frame = sc.control, sc.frame
    traj = integrate_trajectory(frame, u, sc.q0, sc.domain)
    tf = tangent_flow(frame, u, traj)
    f = frame.field_matrix_many(traj.states)

    # NSRE: the cell to the right of each node (the last node keeps the last
    # cell), the same value its orthogonal directions come from
    right = np.vstack([u.samples, u.samples[-1:]])
    assert right[500].tolist() == [0.0, 1.0]
    report = nsre_check(frame, u, traj, tf)
    spans = span_profile(frame, traj, tf)
    assert np.array_equal(report.angles,
                          angle_to_subspace((f @ right[:, :, None])[:, :, 0],
                                            spans))
    # and node by node, through the single-node span and velocity
    for m in (0, 499, 500, 1000):
        one = angle_to_subspace(f[m] @ right[m], span_profile(frame, traj, tf, m))
        assert abs(one - report.angles[m]) <= 1e-15
    # the two-cell average (X_1 + X_2) / 2 at the jump would have speed ~0.72
    assert report.min_speed == pytest.approx(1.0, abs=1e-12)

    # decomposition: the two-cell average inside, one-sided at the ends
    assert np.allclose(node_velocity(frame, u, traj, 500), f[500] @ [0.5, 0.5],
                       rtol=0.0, atol=1e-15)
    assert np.array_equal(node_velocity(frame, u, traj, 499), f[499] @ [1.0, 0.0])
    assert np.array_equal(node_velocity(frame, u, traj, 0), f[0] @ [1.0, 0.0])
    assert np.array_equal(node_velocity(frame, u, traj, 1000),
                          f[1000] @ [0.0, 1.0])


def test_tau_range_variant(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    full = nsre_check(heisenberg, u, traj, tf, tau_range="0..T")
    assert full.status == "certified"
    assert full.c == pytest.approx(1.0, abs=1e-9)


# -- Hamiltonian oracle ---------------------------------------------------------

def test_hamiltonian_euclidean_line(euclidean2):
    ext = hamiltonian_extremal(euclidean2, [0.0, 0.0], [1.0, 0.0], 1.0, 100)
    assert np.allclose(ext.control.samples, [1.0, 0.0], atol=1e-14)
    assert np.allclose(ext.trajectory.endpoint, [1.0, 0.0], atol=1e-12)


def test_hamiltonian_heisenberg_line(heisenberg):
    ext = hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0, 100)
    assert np.allclose(ext.control.samples, [1.0, 0.0], atol=1e-13)
    assert np.allclose(ext.trajectory.endpoint, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(ext.costates, [1.0, 0.0, 0.0], atol=1e-13)


def test_hamiltonian_heisenberg_arc_closed_form(heisenberg):
    lam = 2.0
    ext = hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, lam], 1.0, 400)
    assert ext.norm_drift < 1e-6  # level conservation before renormalizing
    t = ext.trajectory.grid
    expected = np.column_stack([
        np.sin(lam * t) / lam,
        (1.0 - np.cos(lam * t)) / lam,
        (t - np.sin(lam * t) / lam) / (2.0 * lam),
    ])
    assert np.max(np.abs(ext.trajectory.states - expected)) < 1e-8
    mids = (np.arange(400) + 0.5) * ext.trajectory.control.dt
    expected_u = np.column_stack([np.cos(lam * mids), np.sin(lam * mids)])
    assert np.max(np.abs(ext.control.samples - expected_u)) < 1e-8


def _heisenberg_arc_errors(frame, n_cells, lam=2.0):
    ext = hamiltonian_extremal(frame, [0.0, 0.0, 0.0], [1.0, 0.0, lam], 1.0,
                               n_cells)
    t = ext.trajectory.grid
    states = np.column_stack([np.sin(lam * t) / lam,
                              (1.0 - np.cos(lam * t)) / lam,
                              (t - np.sin(lam * t) / lam) / (2.0 * lam)])
    mids = (np.arange(n_cells) + 0.5) / n_cells
    controls = np.column_stack([np.cos(lam * mids), np.sin(lam * mids)])
    return (np.abs(ext.control.samples - controls).max(),
            np.abs(ext.trajectory.states - states).max())


def test_hamiltonian_oracle_is_fourth_order(heisenberg):
    # one RK4 step per cell and Hermite midpoints: both errors fall by about
    # 16 per doubling of N_t
    errs = np.array([_heisenberg_arc_errors(heisenberg, n) for n in (50, 100, 200)])
    assert np.all(errs[:-1] / errs[1:] >= 12.0)


class _Captured(Exception):
    pass


def _oracle_step(monkeypatch, frame, q0, p0):
    """The step and cell constants the oracle hands to the stored loop."""
    import srx.extremals as extremals

    def capture(step, c, *args):
        raise _Captured(step, c)

    monkeypatch.setattr(extremals, "_rk4_states", capture)
    with pytest.raises(_Captured) as caught:
        hamiltonian_extremal(frame, q0, p0, 1.0, 10)
    return caught.value.args


def test_hamiltonian_batched_rhs_matches_rows(monkeypatch):
    scenario = load_scenario("martinet_arc")
    frame, n, k = scenario.frame, scenario.frame.n, scenario.frame.k
    step, c = _oracle_step(monkeypatch, frame, scenario.q0,
                           scenario.hamiltonian["p0"])
    assert c(0) == ()
    rows = np.random.default_rng(4).uniform(-1.5, 1.5, size=(7, 2 * n))
    batched = frame._stack("hamiltonian").eval(rows)
    assert batched.shape == rows.shape
    for y, out in zip(rows, batched):
        # dq = sum u^i X_i, dp = -sum u^i (dX_i/dq)^T p, one row at a time
        q, p = y[:n], y[n:]
        f, jac = frame.derivatives(0, q), frame.derivatives(1, q)
        u = f @ p
        a = (u @ jac.reshape(k, n * n)).reshape(n, n)
        expected = np.concatenate([u @ f, -(p @ a)])
        assert np.abs(out - expected).max() <= 1e-15 * np.abs(expected).max()
    # one generated step per row against one batch_step of the same stack
    h = 0.01
    ends = frame._stack("hamiltonian").batch_step(rows, rows.copy(), h, 0.5 * h,
                                                  h / 6.0)
    for y, end in zip(rows, ends):
        single = np.array(step(y.tolist(), c(0), h, 0.5 * h, h / 6.0))
        assert np.abs(single - end).max() <= 1e-15 * np.abs(end).max()


@pytest.mark.parametrize("n_cells, substeps", [(300, 1), (100, 2)])
def test_hamiltonian_field_calls(heisenberg, monkeypatch, n_cells, substeps):
    # one generated-step call per RK4 step, `substeps` steps per cell, plus
    # the node slopes: one evaluation of the Hamiltonian stack per
    # FLOW_BATCH nodes
    from srx.flows import FLOW_BATCH
    calls, step_calls = [], []
    stack = heisenberg._stack("hamiltonian")
    real_eval, real_step = stack.eval, stack.step
    monkeypatch.setattr(stack, "eval",
                        lambda states: calls.append(states) or real_eval(states))
    monkeypatch.setattr(stack, "step",
                        lambda *args: step_calls.append(args) or real_step(*args))
    hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1.0,
                         n_cells, substeps=substeps)
    batches = -(-(n_cells + 1) // FLOW_BATCH)
    assert len(step_calls) == n_cells * substeps
    assert len(calls) == batches


def test_hamiltonian_level_conservation(heisenberg):
    def level(q, p):
        f = heisenberg.field_matrix_many(q)
        return float(np.sum((f.T @ p) ** 2))

    # covector solving F(q0)^T p0 = (0.8, 0.6): exactly on the unit level
    q0 = [0.1, -0.2, 0.0]
    p0 = [0.75, 0.575, 0.5]
    assert level(np.asarray(q0), np.asarray(p0)) == pytest.approx(1.0, abs=1e-15)
    ext = hamiltonian_extremal(heisenberg, q0, p0, 1.0, 200)
    levels = [level(q, p) for q, p in zip(ext.trajectory.states, ext.costates)]
    assert max(levels) - min(levels) < 1e-6 * max(levels)


def test_hamiltonian_rejects_off_level_start(heisenberg):
    with pytest.raises(ValueError):
        hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], 1.0, 10)


@pytest.mark.parametrize("q0, p0", [
    ([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([0.0, 0.0, np.inf], [1.0, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]),
    ([0.0, 0.0, 0.0], [1.0, -np.inf, 0.0]),
], ids=["nan-q0", "inf-q0", "nan-p0", "inf-p0", "neg-inf-p0"])
def test_hamiltonian_rejects_nonfinite_start(heisenberg, q0, p0):
    # a non-finite start must fail here, not inside the integration
    with pytest.raises(ValueError, match="finite"):
        hamiltonian_extremal(heisenberg, q0, p0, 1.0, 10)


def test_hamiltonian_rejects_a_start_outside_the_domain(heisenberg):
    # the oracle used to accept it and mark an exit at t = 0, where
    # integrate_trajectory raises
    from srx import Domain
    box = Domain([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="outside the domain"):
        hamiltonian_extremal(heisenberg, [1.5, 0.0, 0.0], [1.0, 0.0, 0.0], 1.0,
                             10, domain=box)


@pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0, -1.0])
def test_hamiltonian_rejects_a_bad_horizon_before_integrating(
        heisenberg, monkeypatch, horizon):
    # NaN and inf used to end in IntegrationError, 0 and -1 in
    # ControlSignal's ValueError, each after the whole integration
    def never(*args):
        raise AssertionError("integrated before the horizon check")

    monkeypatch.setattr(extremals, "_rk4_states", never)
    with pytest.raises(ValueError, match="horizon must be a finite number > 0"):
        hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0],
                             horizon, 10)


def test_hamiltonian_domain_exit_is_marked(heisenberg):
    # the oracle marks its trajectory as integrate_trajectory does, where
    # it used to raise an error and leave no trajectory to write
    from srx import Domain
    args = (heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1.0, 100)
    tight = Domain([-0.1, -0.1, -0.1], [0.1, 0.1, 0.1])
    ext = hamiltonian_extremal(*args, domain=tight)
    assert ext.trajectory.left_domain
    inside = tight.boundary_distances(ext.trajectory.states) > 0.0
    first = int(np.argmin(inside))
    assert inside[:first].all() and first > 0
    assert ext.trajectory.first_exit_time == ext.trajectory.grid[first]
    free = hamiltonian_extremal(*args)
    assert not free.trajectory.left_domain
    assert np.array_equal(ext.trajectory.states, free.trajectory.states)
    assert ext.control is ext.trajectory.control


def _rank_one_run():
    """The rank-1 frame driven along x: frame, control and trajectory."""
    frame = make_rank_one_frame()
    u = constant_control([1.0], n_cells=10)
    return frame, u, integrate_trajectory(frame, u, [0.0, 0.0])


def test_f_perp_rejects_rank_one_frame():
    frame, u, traj = _rank_one_run()
    tf = tangent_flow(frame, u, traj)
    with pytest.raises(DegenerateSpanError):
        span_profile(frame, traj, tf, 10)


def test_nsre_check_rejects_a_rank_one_frame_first(monkeypatch):
    # the rank check comes before the tangent flow is integrated
    def never(*args, **kwargs):
        raise AssertionError("called before the rank check")

    frame, u, traj = _rank_one_run()
    monkeypatch.setattr(extremals, "tangent_flow", never)
    with pytest.raises(DegenerateSpanError, match="empty orthogonal part"):
        nsre_check(frame, u, traj)


def test_f_perp_rejects_vanishing_control(heisenberg):
    from srx import ControlSignal
    samples = np.tile([1.0, 0.0], (10, 1))
    samples[4] = 0.0
    u = ControlSignal(1.0, samples)
    traj = integrate_trajectory(heisenberg, u, [0.0, 0.0, 0.0])
    tf = tangent_flow(heisenberg, u, traj)
    with pytest.raises(ValueError):
        span_profile(heisenberg, traj, tf, 10)


def test_f_perp_basis_is_orthonormal(heisenberg):
    u, traj, tf = _line_setup(heisenberg)
    span = span_profile(heisenberg, traj, tf, 140)
    # the first rank columns are orthonormal, the zero padding is zero
    gram = span.basis.T @ span.basis
    expected = np.diag((np.arange(heisenberg.n) < span.rank).astype(float))
    assert span.rank == 2
    assert np.max(np.abs(gram - expected)) < 1e-10


def test_oracle_extremal_passes_nsre(heisenberg):
    # a piecewise-constant sampling of a smooth extremal carries a spurious
    # span direction of relative size O(dt), so the rank cut must sit above
    # it (the constant-control cases are exact at any tolerance)
    ext = hamiltonian_extremal(heisenberg, [0.0, 0.0, 0.0], [1.0, 0.0, 2.0], 1.0, 500)
    report = nsre_check(heisenberg, ext.control, ext.trajectory, sigma_tol=1e-3)
    assert report.status == "certified"
    assert report.c > 0.3
    assert report.angles.min() > 0.3
