"""Fixed-step RK4 integration of controlled trajectories and tangent flows.

One RK4 step per control cell (optionally substepped): within a cell the
control is constant, so the vector field is autonomous and smooth there and
the classical order-4 error bound applies cell by cell.  Adaptive steppers
are deliberately avoided to keep every run bit-deterministic.  Every
integrator in srx, here and in the homotopy and Hamiltonian modules, runs
through the one batched stepper `_rk4`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (ControlSignal, Domain, SRFrame, SRXError, Trajectory,
                   node_index, require_same_grid)


class IntegrationError(SRXError):
    """State blew up (non-finite) during integration."""


class DomainExitError(SRXError):
    """A required domain-containment condition failed."""


class SingularFlowError(SRXError):
    """A tangent-flow matrix is numerically singular."""


COND_LIMIT = 1e12
FLOW_BATCH = 256           # cells per batch of propagators, bounds the temporaries


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
    cells = u.samples[:, None, None, :]
    states = _rk4(lambda j, q: (cells[j] @ frame.derivatives(0, q))[:, 0],
                  q0[None], u.dt / substeps, substeps, u.n_cells)
    return _marked_trajectory(u.grid, states[:, 0], u, domain)


@dataclass(frozen=True, eq=False)
class TangentFlow:
    """Tangent maps of the time-dependent flow along a base trajectory.

    matrices[j] is the tangent map from t = 0 to grid node j.  Each RK4
    step of the linear variational equation is a linear map, the cell
    propagator P_j of `tangent_flow`, so matrices[j + 1] = P_j matrices[j]
    and every two-point map is an exact composition for the discrete flow
    (push_forward).
    """

    grid: np.ndarray          # (N_t + 1,)
    matrices: np.ndarray      # (N_t + 1, n, n)
    max_condition: float
    ill_conditioned: bool

    def node_index(self, t: float) -> int:
        return node_index(self.grid, t)


def _cell_propagators(frame: SRFrame, q: np.ndarray, cells: np.ndarray,
                      h: float, substeps: int) -> np.ndarray:
    """Cell propagators P_j (see tangent_flow) of a batch of cells.

    q is (B, n), the base states at the cell starts, and cells is (B, 1, k).
    Row j of the RK4 batch is cell j's state together with its tangent map,
    started from (q_j, I), so its `substeps` steps return P_j.
    """
    n, k = frame.n, frame.k

    def rhs(_, y):
        values, jacobians = frame.jet(y[:, :n])
        a = (cells @ jacobians.reshape(-1, k, n * n)).reshape(-1, n, n)
        return np.concatenate([(cells @ values)[:, 0],
                               (a @ y[:, n:].reshape(-1, n, n)).reshape(-1, n * n)],
                              axis=1)

    y0 = np.concatenate([q, np.tile(np.eye(n).ravel(), (q.shape[0], 1))], axis=1)
    return _rk4(rhs, y0, h, substeps, 1)[1, :, n:].reshape(-1, n, n)


def tangent_flow(frame: SRFrame, u: ControlSignal, base: Trajectory,
                 substeps: int = 1, cond_limit: float = COND_LIMIT) -> TangentFlow:
    """RK4 solution of the matrix variational equation dM/dt = Df_u(gamma(t)) M.

    gamma is the base trajectory, read from base.states: the RK4 stages of
    cell j start from base.states[j], and no trajectory is integrated here.
    For a control run these are the states integrate_trajectory computed.
    For a Hamiltonian arc they are the oracle's states, so the flow
    linearizes around the curve whose spans are tested, not around the
    one the sampled control would give (the two differ by O(dt^2)).

    One RK4 step with stage Jacobians A1..A4 maps M to P M, with
    P = I + h/6 (A1 + 2 A2 B2 + 2 A3 B3 + A4 B4), B2 = I + h/2 A1,
    B3 = I + h/2 A2 B2 and B4 = I + h A3 B3: the same linear map as
    integrating M alongside the state.  The cell propagators P_j (the
    products of a cell's substep maps) are evaluated FLOW_BATCH cells at a
    time, and M_{j+1} = P_j M_j, anchored at t = 0.
    Condition numbers above cond_limit only set `ill_conditioned`; they do
    not abort, since the flag is advisory for downstream rank decisions.
    """
    require_same_grid(u, base.control)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n = frame.n
    cells = u.samples[:, None, :]
    mats = np.empty((u.n_cells + 1, n, n))
    mats[0] = np.eye(n)
    for lo in range(0, u.n_cells, FLOW_BATCH):
        hi = min(lo + FLOW_BATCH, u.n_cells)
        try:
            props = _cell_propagators(frame, base.states[lo:hi], cells[lo:hi],
                                      u.dt / substeps, substeps)
        except IntegrationError:
            raise IntegrationError("a cell propagator became non-finite after "
                                   f"t={lo * u.dt:.6g}") from None
        with np.errstate(over="ignore", invalid="ignore"):
            for j, prop in enumerate(props, start=lo):
                mats[j + 1] = prop @ mats[j]
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        j = int(np.argmin(finite))
        raise IntegrationError(f"tangent map became non-finite at t={j * u.dt:.6g}")

    conds = np.linalg.cond(mats)
    max_cond = float(np.max(conds))
    return TangentFlow(base.grid, mats, max_cond, max_cond > cond_limit)


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
