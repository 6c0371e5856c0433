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
from .flows import (DomainExitError, IntegrationError, TangentFlow, _apply,
                    _marked_trajectory, _rk4, tangent_flow)

SIGMA_TOL = 1e-8
THETA_MIN = 1e-3
ACB_BOUND = 50.0
TAU_RANGES = ("0..t", "0..T")


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
    singular_values: np.ndarray  # full spectrum before truncation

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

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
    """Control value attached to each grid node (last node uses the last cell)."""
    return np.vstack([u.samples, u.samples[-1:]])


def span_profile(frame: SRFrame, traj: Trajectory, tf: TangentFlow,
                 nodes=None, *, tau_range: str = "0..t", sample_stride: int = 1,
                 sigma_tol: float = SIGMA_TOL) -> Iterator[OrthoDistribution]:
    """Numerical flow-invariant orthogonal span at each of `nodes`.

    Orthogonal directions are sampled at grid nodes tau (every sample_stride-th
    node from 0), pushed to the node through the tangent flow, stacked and
    rank-truncated at sigma_tol * sigma_max.  tau_range "0..t" samples tau up
    to the node itself (the range the variation decomposition consumes);
    "0..T" samples the whole horizon.  nodes defaults to every grid node.
    The directions are pulled back to the flow anchor once, so each node
    pushes the whole stack with a single matrix product.
    """
    if not isinstance(sample_stride, (int, np.integer)) or sample_stride < 1:
        raise ValueError("sample_stride must be an integer >= 1")
    if tau_range not in TAU_RANGES:
        raise ValueError(f"tau_range must be one of {TAU_RANGES}")
    if frame.k < 2:
        raise DegenerateSpanError("rank-1 distributions have an empty orthogonal part")
    n_nodes = traj.grid.shape[0]
    mats = frame.field_matrix_many(traj.states)          # (N+1, n, k)
    perp = np.empty((n_nodes, frame.n, frame.k - 1))
    for j, u_node in enumerate(_node_controls(traj.control)):
        perp[j] = mats[j] @ orthogonal_control_complement(u_node)
    pulled = np.einsum("jab,jbc->jac", tf.inverses(), perp)
    for m in range(n_nodes) if nodes is None else nodes:
        last = n_nodes - 1 if tau_range == "0..T" else m
        cols = np.concatenate(pulled[0:last + 1:sample_stride], axis=1)
        u_svd, svals, _ = np.linalg.svd(tf.matrices[m] @ cols,
                                        full_matrices=False)
        r = int(np.count_nonzero(svals > sigma_tol * svals[0])) \
            if svals[0] > 0.0 else 0
        yield OrthoDistribution(float(tf.grid[m]), u_svd[:, :r].copy(), svals)


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
    angles = np.array([angle_to_subspace(v, span)
                       for v, span in zip(node_velocities, spans)])

    b2_ok = bool(angles.min() > theta_min)
    c = float(np.abs(np.sin(angles)).min() * min_speed) \
        if (regularity_ok and b2_ok) else 0.0
    return NSREReport(angles, c, regularity_ok, b2_ok, min_speed, max_dv,
                      acb_bound, theta_min, tau_range)


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

    n = frame.n

    def rhs(_, y):
        q, p = y[:, :n], y[:, n:]
        f = frame._field_matrix_fast(q)
        u = np.einsum("xnk,xn->xk", f, p)
        a = frame._control_jacobian_fast(q, u)
        return np.concatenate([_apply(f, u), -np.einsum("xab,xa->xb", a, p)],
                              axis=1)

    # two half cells per cell, so the cell-midpoint state that samples the
    # control is a cell end of the stepper
    half = max(1, substeps)
    ys = _rk4(rhs, np.concatenate([q0, p0])[None], horizon / n_cells / (2 * half),
              half, 2 * n_cells)[:, 0]
    states, costates = ys[::2, :n], ys[::2, n:]
    mids = ys[1::2]
    raw = np.einsum("jnk,jn->jk", frame._field_matrix_fast(mids[:, :n]),
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
