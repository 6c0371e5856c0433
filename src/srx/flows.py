"""Fixed-step RK4 integration of controlled trajectories and tangent flows.

One RK4 step per control cell (optionally substepped): within a cell the
control is constant, so the vector field is autonomous and smooth there and
the classical order-4 error bound applies cell by cell.  Adaptive steppers
are deliberately avoided to keep every run bit-deterministic.  Batches of
systems step on numpy arrays through `_rk4`, a generator of the cell-end
states, whose one right-hand side is the variational system of
`_variational_flow`: a state with one variation of it, which gives both the
homotopy members with their variation fields and the columns of the
tangent-flow cell propagators.  A single system (the base trajectory, the
Hamiltonian oracle) steps on Python floats through `_rk4_row`, which does
the same arithmetic without a numpy call per stage.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (ControlSignal, Domain, SRFrame, SRXError, Trajectory,
                   require_same_grid)


class IntegrationError(SRXError):
    """State blew up (non-finite) during integration."""


class DomainExitError(SRXError):
    """A required domain-containment condition failed."""


COND_LIMIT = 1e12
FLOW_BATCH = 256           # cells per batch of propagators, bounds the temporaries


def _rk4(f, y0: np.ndarray, h: float, substeps: int,
         n_cells: int) -> Iterator[np.ndarray]:
    """Classical RK4 over n_cells control cells of `substeps` steps each.

    y0 is a (B, d) batch of states.  f(j) is called when cell j's first
    step starts and returns the cell's right-hand side, (B, d) states ->
    (B, d) derivatives; rows advance independently, so a batch integrates B
    systems at the cost of one Python loop.  Yields the states at cell ends
    0..n_cells (y0, then a new array per cell), so a caller stores or
    reduces them, and raises IntegrationError at the first non-finite one.
    """
    y = y0
    yield y
    for j in range(n_cells):
        rhs = f(j)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(substeps):
                k1 = rhs(y)
                k2 = rhs(y + 0.5 * h * k1)
                k3 = rhs(y + 0.5 * h * k2)
                k4 = rhs(y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.isfinite(y).all():
            raise _non_finite(j + 1, h, substeps)
        yield y


def _rk4_row(f, y0: np.ndarray, h: float, substeps: int,
             n_cells: int) -> np.ndarray:
    """_rk4 for one system of d equations, on Python floats.

    f(j) is called once, when cell j's first step starts, and returns the
    cell's right-hand side: a function of one state (a list of d floats)
    that returns d floats.  Each operation is _rk4's, rounded the same way.
    Returns the (n_cells + 1, d) states at the cell ends, or raises
    _rk4's IntegrationError.
    """
    ys = np.empty((n_cells + 1, y0.shape[0]))
    ys[0] = y0
    y = y0.tolist()
    half, sixth = 0.5 * h, h / 6.0
    for j in range(n_cells):
        rhs = f(j)
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs([a + half * b for a, b in zip(y, k1)])
            k3 = rhs([a + half * b for a, b in zip(y, k2)])
            k4 = rhs([a + h * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        ys[j + 1] = y
    finite = np.isfinite(ys).all(axis=1)
    if not finite.all():
        raise _non_finite(int(np.argmin(finite)), h, substeps)
    return ys


def _non_finite(j: int, h: float, substeps: int) -> IntegrationError:
    """The error of a state that is not finite at cell end j."""
    return IntegrationError(f"state became non-finite at t={j * substeps * h:.6g}")


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


def _marked_trajectory(states: np.ndarray, u: ControlSignal,
                       domain: Domain | None) -> Trajectory:
    """Trajectory of integrated states, marked with its first domain exit."""
    first_exit = None
    if domain is not None:
        outside = domain.boundary_distances(states) <= 0.0
        if outside.any():
            first_exit = float(u.grid[np.argmax(outside)])
    return Trajectory(states, u, first_exit)


def integrate_trajectory(frame: SRFrame, u: ControlSignal, q0,
                         domain: Domain | None = None,
                         substeps: int = 1) -> Trajectory:
    """Integrate dq/dt = sum_i u^i(t) X_i(q) from q0 over the control grid.

    Domain exits do not stop the run: the trajectory is marked with its
    first exit time, and downstream certification treats it as invalid.
    A non-finite state raises IntegrationError.
    """
    q0 = _checked_start(frame, q0, domain, substeps)
    n, row = frame.n, frame._stack(0).row

    def cell_rhs(j):
        # sum_i u_i X_i(q), summed from 0.0 over i as the matmul sums it
        u_j = u.samples[j].tolist()

        def rhs(q):
            values, out = row(q), [0.0] * n
            for i, c in enumerate(u_j):
                out = [o + c * v for o, v in zip(out, values[i * n:])]
            return out
        return rhs

    states = _rk4_row(cell_rhs, q0, u.dt / substeps, substeps, u.n_cells)
    return _marked_trajectory(states, u, domain)


def _variational_flow(frame: SRFrame, y0: np.ndarray, cell_rows, h: float,
                      substeps: int, n_cells: int) -> Iterator[np.ndarray]:
    """RK4 states of a batch of states, each with one variation of it.

    Row r integrates dq/dt = f_u(q) jointly with db/dt = f_du(q) + Df_u(q) b,
    so the b stages use the row's own RK4 stage states.  That right-hand
    side is one polynomial in (q, b, u, du), so each RK4 stage is one
    SRFrame.variation_field call.  y0 is (B, 2n), the start rows (q, b), and
    cell_rows(j), called when cell j starts, returns the (B, 2k) rows
    (u, du) of that cell, the last stack variables.  Yields _rk4's (B, 2n)
    states at cell ends 0..n_cells.
    """
    # one (q, b, u, du) buffer serves every stage: the stack evaluation
    # copies its input, so nothing keeps the buffer between stages
    d = y0.shape[1]
    stage = np.empty((y0.shape[0], d + 2 * frame.k))

    def f(j):
        stage[:, d:] = cell_rows(j)

        def rhs(y):
            stage[:, :d] = y
            return frame.variation_field(stage)
        return rhs

    return _rk4(f, y0, h, substeps, n_cells)


@dataclass(frozen=True, eq=False)
class TangentFlow:
    """Tangent maps of the time-dependent flow along a base trajectory.

    matrices[j] is the tangent map from t = 0 to grid node j.  Each RK4
    step of the linear variational equation is a linear map, the cell
    propagator P_j of `tangent_flow`, so matrices[j + 1] = P_j matrices[j]
    and every two-point map matrices[j] @ inv(matrices[i]) is an exact
    composition for the discrete flow.
    """

    grid: np.ndarray          # (N_t + 1,)
    matrices: np.ndarray      # (N_t + 1, n, n)
    max_condition: float


def tangent_flow(frame: SRFrame, u: ControlSignal, base: Trajectory,
                 substeps: int = 1) -> TangentFlow:
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
    time, column by column: column c of P_j is the variation of
    _variational_flow started from (q_j, e_c) with du = 0.  Then
    M_{j+1} = P_j M_j, anchored at t = 0.
    Condition numbers above COND_LIMIT do not abort: the NSRE report flags
    them as `ill_conditioned`, advisory for downstream rank decisions.
    """
    require_same_grid(u, base.control)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n = frame.n
    # row (j, c) of a batch starts at (q_j, e_c) with (u_j, 0): one cell
    # later its b holds column c of P_j
    cells = np.repeat(np.concatenate([u.samples, np.zeros_like(u.samples)],
                                     axis=1), n, axis=0)
    mats = np.empty((u.n_cells + 1, n, n))
    mats[0] = np.eye(n)
    for lo in range(0, u.n_cells, FLOW_BATCH):
        hi = min(lo + FLOW_BATCH, u.n_cells)
        y0 = np.concatenate([np.repeat(base.states[lo:hi], n, axis=0),
                             np.tile(np.eye(n), (hi - lo, 1))], axis=1)
        rows = cells[lo * n:hi * n]
        try:
            *_, ends = _variational_flow(frame, y0, lambda _: rows,
                                         u.dt / substeps, substeps, 1)
            columns = ends[:, n:]
        except IntegrationError:
            raise IntegrationError("a cell propagator became non-finite after "
                                   f"t={lo * u.dt:.6g}") from None
        props = columns.reshape(-1, n, n).swapaxes(1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, prop in enumerate(props, start=lo):
                mats[j + 1] = prop @ mats[j]
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        j = int(np.argmin(finite))
        raise IntegrationError(f"tangent map became non-finite at t={j * u.dt:.6g}")

    return TangentFlow(base.grid, mats, float(np.max(np.linalg.cond(mats))))

