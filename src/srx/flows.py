"""Fixed-step RK4 integration of controlled trajectories and tangent flows.

One RK4 step per control cell (optionally substepped): within a cell the
control is constant, so the vector field is autonomous and smooth there and
the classical order-4 error bound applies cell by cell.  Adaptive steppers
are deliberately avoided to keep every run bit-deterministic.  Every
integrator in srx, here and in the homotopy and Hamiltonian modules, runs
through the one batched stepper `_rk4`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ControlSignal, Domain, SRFrame, SRXError, Trajectory, node_index


class IntegrationError(SRXError):
    """State blew up (non-finite) during integration."""


class DomainExitError(SRXError):
    """A required domain-containment condition failed."""


class SingularFlowError(SRXError):
    """A tangent-flow matrix is numerically singular."""


COND_LIMIT = 1e12


def _rk4(rhs, y0: np.ndarray, h: float, substeps: int,
         n_cells: int) -> np.ndarray:
    """Classical RK4 over n_cells control cells of `substeps` steps each.

    The single stepper behind every integrator in srx.  y0 is a (B, d)
    batch of states and rhs(j, y) the (B, d) right-hand side in cell j;
    rows advance independently, so a batch integrates B systems at the
    cost of one Python loop.  Returns the (n_cells + 1, B, d) states at the
    cell ends, or raises IntegrationError naming the first cell end with a
    non-finite value.
    """
    ys = np.empty((n_cells + 1,) + y0.shape)
    ys[0] = y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_cells):
            for _ in range(substeps):
                k1 = rhs(j, y)
                k2 = rhs(j, y + 0.5 * h * k1)
                k3 = rhs(j, y + 0.5 * h * k2)
                k4 = rhs(j, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            ys[j + 1] = y
    finite = np.isfinite(ys).all(axis=(1, 2))
    if not finite.all():
        j = int(np.argmin(finite))
        raise IntegrationError(f"state became non-finite at t={j * substeps * h:.6g}")
    return ys


def _apply(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product: (B, a, b) x (B, b) -> (B, a)."""
    return np.einsum("xab,xb->xa", mats, vecs)


def _checked_start(frame: SRFrame, q0, domain: Domain | None,
                   substeps: int) -> np.ndarray:
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (frame.n,) or not np.all(np.isfinite(q0)):
        raise ValueError(f"q0 must be a finite vector of length {frame.n}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if domain is not None and not domain.contains(q0):
        raise DomainExitError("initial point lies outside the domain interior")
    return q0


def _marked_trajectory(grid: np.ndarray, states: np.ndarray, u: ControlSignal,
                       domain: Domain | None) -> Trajectory:
    """Trajectory of integrated states, marked with its first domain exit."""
    first_exit = None
    if domain is not None:
        outside = domain.boundary_distances(states) <= 0.0
        if outside.any():
            first_exit = float(grid[np.argmax(outside)])
    return Trajectory(grid, states, u, states[0],
                      left_domain=first_exit is not None,
                      first_exit_time=first_exit)


def integrate_trajectory(frame: SRFrame, u: ControlSignal, q0,
                         domain: Domain | None = None,
                         substeps: int = 1) -> Trajectory:
    """Integrate dq/dt = sum_i u^i(t) X_i(q) from q0 over the control grid.

    Domain exits do not stop the run: the trajectory is marked `left_domain`
    with the first exit time, and downstream certification treats it as
    invalid.  A non-finite state raises IntegrationError.
    """
    q0 = _checked_start(frame, q0, domain, substeps)
    cells = u.samples[:, None, :]
    states = _rk4(lambda j, q: _apply(frame.field_matrix_many(q), cells[j]),
                  q0[None], u.dt / substeps, substeps, u.n_cells)
    return _marked_trajectory(u.grid, states[:, 0], u, domain)


@dataclass(eq=False)
class TangentFlow:
    """Tangent maps of the time-dependent flow along a base trajectory.

    matrices[j] is the tangent map from the anchor time `base_tau` to grid
    node j.  Two-point maps are obtained by composition, which is exact for
    the discrete flow because each RK4 step of the linear variational
    equation is itself a linear map.
    """

    grid: np.ndarray          # (N_t + 1,)
    matrices: np.ndarray      # (N_t + 1, n, n)
    base_tau: float
    max_condition: float
    ill_conditioned: bool
    _inverses: np.ndarray | None = field(default=None, repr=False)

    def node_index(self, t: float) -> int:
        return node_index(self.grid, t)

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            self._inverses = np.linalg.inv(self.matrices)
        return self._inverses


def tangent_flow(frame: SRFrame, u: ControlSignal, base: Trajectory,
                 base_tau: float = 0.0, substeps: int = 1,
                 cond_limit: float = COND_LIMIT) -> TangentFlow:
    """Integrate the matrix variational equation dM/dt = Df_u(gamma(t)) M.

    The base state is integrated alongside with the same RK4 scheme and
    step.  The maps are anchored first at t=0 and then re-based to
    `base_tau` by composition.
    Condition numbers above cond_limit only set `ill_conditioned`; they do
    not abort, since the flag is advisory for downstream rank decisions.
    """
    if u.n_cells != base.control.n_cells:
        raise ValueError("control and base trajectory grids differ")
    n = frame.n
    cells = u.samples[:, None, :]

    def rhs(j, y):
        q, m = y[:, :n], y[:, n:].reshape(-1, n, n)
        a = frame.control_jacobian(q, cells[j])
        return np.concatenate([_apply(frame.field_matrix_many(q), cells[j]),
                               (a @ m).reshape(-1, n * n)], axis=1)

    y0 = np.concatenate([base.q0, np.eye(n).ravel()])[None]
    ys = _rk4(rhs, y0, u.dt / substeps, substeps, u.n_cells)
    mats = ys[:, 0, n:].reshape(-1, n, n)

    conds = np.linalg.cond(mats)
    max_cond = float(np.max(conds))
    flow = TangentFlow(base.grid, mats, 0.0, max_cond, max_cond > cond_limit)

    j0 = node_index(base.grid, base_tau)
    if j0 != 0:
        inv0 = np.linalg.inv(mats[j0])
        rebased = mats @ inv0
        rebased[j0] = np.eye(n)
        flow = TangentFlow(base.grid, rebased, float(base.grid[j0]),
                           max_cond, max_cond > cond_limit)
    return flow


def push_forward(tf: TangentFlow, tau: float, t: float, v) -> np.ndarray:
    """Apply the two-point tangent map from time tau to time t to a vector."""
    v = np.asarray(v, dtype=float)
    jt = tf.node_index(t)
    jtau = tf.node_index(tau)
    if jt == jtau:
        return v.copy()
    m_tau = tf.matrices[jtau]
    if 1.0 / np.linalg.cond(m_tau) < 1e-15:
        raise SingularFlowError(f"tangent map at tau={tau:.6g} is singular")
    return tf.matrices[jt] @ np.linalg.solve(m_tau, v)


def write_trajectory_rows(traj: Trajectory) -> tuple[list[str], np.ndarray]:
    """Header and row data for the trajectory CSV layout t,q1,...,qn."""
    header = ["t"] + [f"q{a + 1}" for a in range(traj.n)]
    data = np.column_stack([traj.grid, traj.states])
    return header, data


def write_tangent_flow_rows(tf: TangentFlow) -> tuple[list[str], np.ndarray]:
    """Header and row data for the tangent-flow CSV layout t,m11,...,mnn (row-major)."""
    n = tf.matrices.shape[1]
    header = ["t"] + [f"m{a + 1}{b + 1}" for a in range(n) for b in range(n)]
    data = np.column_stack([tf.grid, tf.matrices.reshape(tf.matrices.shape[0], n * n)])
    return header, data
