"""Flow-invariant orthogonal spans, the NSRE test, and a Hamiltonian oracle.

The geometric test asks whether the smallest flow-invariant distribution
containing the part of D orthogonal to the velocity ever swallows the
velocity itself.  Spans are built numerically by pushing orthogonal
directions through the tangent flow and rank-truncating an SVD.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import ControlSignal, Domain, SRFrame, SRXError, Trajectory
from .flows import (DomainExitError, IntegrationError, TangentFlow,
                    _marked_trajectory, _rk4, tangent_flow)

SIGMA_TOL = 1e-8
THETA_MIN = 1e-3
ACB_BOUND = 50.0
TAU_RANGES = ("0..t", "0..T")
SPAN_BATCH = 256            # nodes per batched SVD, bounds the temporaries


class DegenerateSpanError(SRXError):
    """Span construction has no columns to work with."""


class NotNormalizedError(SRXError):
    """An operation requires a unit-speed (normalized) control."""


def orthogonal_control_complement(u_cell) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of u_cell in R^k.

    Returns a (k, k-1) matrix built from the Householder reflector that maps
    u/|u| onto +-e1; the remaining reflector columns span the complement.
    """
    u = np.asarray(u_cell, dtype=float)
    if u.ndim != 1:
        raise ValueError("u_cell must be a vector")
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("zero control vector has no orthogonal complement")
    k = u.shape[0]
    v = u / nrm
    w = v.copy()
    w[0] += 1.0 if v[0] >= 0.0 else -1.0
    h = np.eye(k) - 2.0 * np.outer(w, w) / np.dot(w, w)
    return h[:, 1:]


@dataclass(frozen=True, eq=False)
class OrthoDistribution:
    """Numerical span of flow-pushed orthogonal directions at one time."""

    t: float
    basis: np.ndarray            # (n, r), orthonormal columns
    # full spectrum before truncation, always n entries in decreasing order;
    # trailing exact zeros mean exact rank deficiency (at early nodes fewer
    # than n directions have been sampled)
    singular_values: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def cut_ratios(self) -> tuple[float, float]:
        """sigma_r / sigma_1 (last kept) and sigma_{r+1} / sigma_1 (first dropped).

        A missing singular value counts as 0: rank n drops nothing, and
        rank 0 means every sampled direction vanished.
        """
        s, r = self.singular_values, self.rank
        if r == 0:
            return 0.0, 0.0
        dropped = s[r] / s[0] if r < s.shape[0] else 0.0
        return float(s[r - 1] / s[0]), float(dropped)

    def project(self, v: np.ndarray) -> np.ndarray:
        if self.rank == 0:
            return np.zeros_like(v)
        return self.basis @ (self.basis.T @ v)

    def residual(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v - self.project(v)))


def angle_to_subspace(v, dist: OrthoDistribution) -> float:
    """Angle in [0, pi/2] between a nonzero vector and the span."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("angle of the zero vector is undefined")
    ratio = dist.residual(v) / nrm
    return float(np.arcsin(min(max(ratio, 0.0), 1.0)))


def _node_controls(u: ControlSignal) -> np.ndarray:
    """Control value attached to each grid node: the cell to its right.

    The last node uses the last cell.  The NSRE test takes both the node's
    orthogonal directions and its velocity from this one value, so the
    velocity is exactly orthogonal to the directions sampled at its own node
    even where the control jumps; a two-cell average there would tilt the
    velocity into the span and report a spurious small angle.  The
    variation decomposition uses homotopy.node_velocity instead.
    """
    return np.vstack([u.samples, u.samples[-1:]])


def span_profile(frame: SRFrame, traj: Trajectory, tf: TangentFlow,
                 nodes=None, *, tau_range: str = "0..t", sample_stride: int = 1,
                 sigma_tol: float = SIGMA_TOL) -> Iterator[OrthoDistribution]:
    """Numerical flow-invariant orthogonal span at each of `nodes`.

    Orthogonal directions are sampled at grid nodes tau (every sample_stride-th
    node from 0), pushed to the node through the tangent flow and
    rank-truncated at sigma_tol * sigma_max.  tau_range "0..t" samples tau up
    to the node itself (the range the variation decomposition consumes);
    "0..T" samples the whole horizon.  nodes defaults to every grid node and
    may come in any order.

    The directions are pulled back to the flow anchor once, and the stack C
    of pulled-back columns is never re-formed: an n x n square-root factor L
    with L L^T = C C^T stands in for it (Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 2012).  For "0..t" the factor is updated at each
    sampled node by a QR of [L^T; new columns^T]; for "0..T" one QR of the
    whole stack gives it.  M L and M C share their singular values and left
    singular vectors, so each node costs one n x n SVD, taken in batches of
    SPAN_BATCH nodes.
    """
    if not isinstance(sample_stride, (int, np.integer)) or sample_stride < 1:
        raise ValueError("sample_stride must be an integer >= 1")
    if tau_range not in TAU_RANGES:
        raise ValueError(f"tau_range must be one of {TAU_RANGES}")
    if frame.k < 2:
        raise DegenerateSpanError("rank-1 distributions have an empty orthogonal part")
    n_nodes = traj.grid.shape[0]
    nodes = np.arange(n_nodes) if nodes is None else np.asarray(list(nodes), dtype=int)
    if nodes.size == 0:
        return
    if nodes.min() < 0 or nodes.max() >= n_nodes:
        raise ValueError(f"nodes must lie in [0, {n_nodes - 1}]")
    n = frame.n
    mats = frame.field_matrix_many(traj.states)          # (N+1, n, k)
    perp = np.empty((n_nodes, n, frame.k - 1))
    for j, u_node in enumerate(_node_controls(traj.control)):
        perp[j] = mats[j] @ orthogonal_control_complement(u_node)
    pulled = np.einsum("jab,jbc->jac", tf.inverses(), perp)

    # factors[j] is L at node j, zero-padded to n columns while C has fewer
    # than n columns; those columns give the trailing zero singular values
    if tau_range == "0..T":
        r = np.linalg.qr(np.concatenate(pulled[::sample_stride], axis=1).T,
                         mode="r")
        factor = np.zeros((n, n))
        factor[:, :r.shape[0]] = r.T
        factors = np.broadcast_to(factor, (n_nodes, n, n))
    else:
        factors = np.zeros((n_nodes, n, n))
        r = np.empty((0, n))
        for j in range(0, int(nodes.max()) + 1, sample_stride):
            r = np.linalg.qr(np.vstack([r, pulled[j].T]), mode="r")
            factors[j:j + sample_stride, :, :r.shape[0]] = r.T
    for start in range(0, nodes.size, SPAN_BATCH):
        batch = nodes[start:start + SPAN_BATCH]
        u_svd, svals, _ = np.linalg.svd(tf.matrices[batch] @ factors[batch])
        ranks = np.count_nonzero(svals > sigma_tol * svals[:, :1], axis=1)
        for m, basis, s, rank in zip(batch, u_svd, svals, ranks):
            yield OrthoDistribution(float(tf.grid[m]), basis[:, :rank].copy(), s)


def build_f_perp(frame: SRFrame, traj: Trajectory, tf: TangentFlow, t: float,
                 sample_stride: int = 1, tau_range: str = "0..t",
                 sigma_tol: float = SIGMA_TOL) -> OrthoDistribution:
    """Numerical flow-invariant orthogonal span at time t (see span_profile)."""
    return next(span_profile(frame, traj, tf, [traj.node_index(t)],
                             tau_range=tau_range, sample_stride=sample_stride,
                             sigma_tol=sigma_tol))


def max_velocity_derivative(frame: SRFrame, u: ControlSignal,
                            traj: Trajectory) -> float:
    """Largest difference quotient of cellwise velocities (ACB proxy)."""
    if u.n_cells < 2:
        return 0.0
    mats = frame.field_matrix_many(traj.states[:-1])
    vel = np.einsum("jnk,jk->jn", mats, u.samples)
    return float(np.linalg.norm(np.diff(vel, axis=0) / u.dt, axis=1).max())


@dataclass(frozen=True, eq=False)
class NSREReport:
    """Outcome of the geometric normal-extremal test on one trajectory."""

    angles: np.ndarray
    c: float
    regularity_ok: bool
    b2_ok: bool
    min_speed: float
    max_velocity_derivative: float
    acb_bound: float
    theta_min: float
    tau_range: str
    span_ranks: np.ndarray       # rank of the orthogonal span at each node
    sigma_tol: float
    kept_ratio_min: float        # smallest sigma_r / sigma_1 over the nodes
    dropped_ratio_max: float     # largest sigma_{r+1} / sigma_1 over the nodes
    max_condition: float         # of the tangent flow
    ill_conditioned: bool

    @property
    def min_angle_node(self) -> int:
        return int(np.argmin(self.angles))

    @property
    def status(self) -> str:
        if not self.regularity_ok:
            return "failed"
        if not self.b2_ok:
            return "inconclusive"
        return "certified"

    def to_json_dict(self) -> dict:
        return {
            "angles": self.angles.tolist(),
            "c": self.c,
            "regularity_ok": self.regularity_ok,
            "b2_ok": self.b2_ok,
            "min_speed": self.min_speed,
            "max_velocity_derivative": self.max_velocity_derivative,
            "acb_bound": self.acb_bound,
            "theta_min": self.theta_min,
            "tau_range": self.tau_range,
            "status": self.status,
            "min_angle_node": self.min_angle_node,
            "span_rank": self.span_ranks.tolist(),
            "rank_cut": {
                "sigma_tol": self.sigma_tol,
                "kept_ratio_min": self.kept_ratio_min,
                "dropped_ratio_max": self.dropped_ratio_max,
            },
            "tangent_flow": {
                "max_condition": self.max_condition,
                "ill_conditioned": self.ill_conditioned,
            },
        }


def nsre_check(frame: SRFrame, u: ControlSignal, traj: Trajectory,
               tf: TangentFlow | None = None, *,
               acb_bound: float = ACB_BOUND, theta_min: float = THETA_MIN,
               sigma_tol: float = SIGMA_TOL, tau_range: str = "0..t",
               sample_stride: int = 1, substeps: int = 1) -> NSREReport:
    """Run the two-condition normal-extremal test.

    Regularity is a bounded-discrete-derivative proxy for an ACB velocity:
    the difference quotient of cellwise velocities must stay under acb_bound.
    The angle condition asks the velocity to keep an angle above theta_min to
    the flow-pushed orthogonal span at every grid node; angles at or below
    theta_min cannot be distinguished from integrator noise, so the report is
    inconclusive rather than false there.  The constant c is
    min |sin theta| * min speed when both conditions hold, else 0.
    The report also records the span rank at each node, the singular-value
    gap around the sigma_tol cut and the tangent flow's conditioning.
    """
    if not u.is_normalized():
        raise NotNormalizedError("nsre_check requires a normalized control")
    if tf is None:
        tf = tangent_flow(frame, u, traj, 0.0, substeps=substeps)

    mats = frame.field_matrix_many(traj.states)           # (N+1, n, k)
    node_velocities = np.einsum("jnk,jk->jn", mats, _node_controls(u))
    min_speed = float(np.linalg.norm(node_velocities, axis=1).min())
    max_dv = max_velocity_derivative(frame, u, traj)
    regularity_ok = max_dv <= acb_bound

    spans = span_profile(frame, traj, tf, tau_range=tau_range,
                         sample_stride=sample_stride, sigma_tol=sigma_tol)
    angles = np.empty(len(node_velocities))
    ranks = np.empty(len(node_velocities), dtype=int)
    cut_ratios = np.empty((len(node_velocities), 2))
    for j, (v, span) in enumerate(zip(node_velocities, spans)):
        angles[j] = angle_to_subspace(v, span)
        ranks[j] = span.rank
        cut_ratios[j] = span.cut_ratios

    b2_ok = bool(angles.min() > theta_min)
    c = float(np.abs(np.sin(angles)).min() * min_speed) \
        if (regularity_ok and b2_ok) else 0.0
    return NSREReport(angles, c, regularity_ok, b2_ok, min_speed, max_dv,
                      acb_bound, theta_min, tau_range, ranks, sigma_tol,
                      float(cut_ratios[:, 0].min()),
                      float(cut_ratios[:, 1].max()), tf.max_condition,
                      tf.ill_conditioned)


@dataclass(frozen=True, eq=False)
class HamiltonianExtremal:
    """Normal extremal generated by the standard Hamiltonian construction."""

    trajectory: Trajectory
    control: ControlSignal
    costates: np.ndarray       # (N_t + 1, n)
    norm_drift: float          # worst |raw control norm - 1| before renormalizing


def hamiltonian_extremal(frame: SRFrame, q0, p0, horizon: float, n_cells: int,
                         substeps: int = 1, domain: Domain | None = None,
                         level_tol: float = 1e-9,
                         conservation_tol: float = 1e-6) -> HamiltonianExtremal:
    """Integrate the normal Hamiltonian system and sample its control.

    Solves dq/dt = sum u^i X_i(q), dp/dt = -sum u^i (dX_i/dq)^T p with
    u^i = <p, X_i(q)>, starting on the unit level sum_i <p0, X_i(q0)>^2 = 1.
    The control is sampled at cell midpoints; level conservation keeps raw
    cell norms within conservation_tol of 1 and the rows are then scaled to
    exactly unit norm, so downstream normalized-control checks hold.
    """
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if q0.shape != (frame.n,) or p0.shape != (frame.n,):
        raise ValueError(f"q0 and p0 must have shape ({frame.n},)")
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")

    u0 = frame.field_matrix(q0).T @ p0
    level = float(np.dot(u0, u0))
    if abs(level - 1.0) > level_tol:
        raise ValueError(f"initial covector is off the unit level: 2H = {level!r}")

    n, k = frame.n, frame.k

    def rhs(_, y):
        q, p = y[0, :n], y[0, n:]                     # one row: no batch axis
        f, jac = frame.jet(q)                         # (k, n), (k, n, n)
        u = f @ p
        a = (u @ jac.reshape(k, n * n)).reshape(n, n)
        return np.concatenate([u @ f, -(p @ a)])[None]

    # two half cells per cell, so the cell-midpoint state that samples the
    # control is a cell end of the stepper
    half = max(1, substeps)
    ys = _rk4(rhs, np.concatenate([q0, p0])[None], horizon / n_cells / (2 * half),
              half, 2 * n_cells)[:, 0]
    states, costates = ys[::2, :n], ys[::2, n:]
    mids = ys[1::2]
    raw = np.einsum("jnk,jn->jk", frame.field_matrix_many(mids[:, :n]),
                    mids[:, n:])

    norms = np.linalg.norm(raw, axis=1)
    drift = float(np.abs(norms - 1.0).max())
    if drift > conservation_tol:
        raise IntegrationError(
            f"Hamiltonian level drifted by {drift:.3e} (> {conservation_tol:.1e}); "
            "refine the grid or substeps")
    control = ControlSignal(horizon, raw / norms[:, None])

    traj = _marked_trajectory(control.grid, states, control, domain)
    if traj.left_domain:
        raise DomainExitError(
            f"extremal left the domain at t={traj.first_exit_time:.6g}")
    return HamiltonianExtremal(traj, control, costates, drift)
