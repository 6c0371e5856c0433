"""Fixed-step RK4 integration of controlled trajectories and tangent flows.

One RK4 step per control cell (optionally substepped): within a cell the
control is constant, so the vector field is autonomous and smooth there and
the classical order-4 error bound applies cell by cell.  Adaptive steppers
are deliberately avoided to keep every run bit-deterministic.  Every
integration is one loop, `_rk4`, a generator of the cell-end states, over
one polynomial stack whose RK4 step (core._StackedPolys) holds the stage
arithmetic.  One system (the base trajectory on the "drift" stack, the
Hamiltonian oracle on "hamiltonian") takes the stack's generated step on
Python floats and is stored by `_rk4_states`.  Batches take its batch_step:
on the "variation" stack, a state with one variation of it, they give both
the homotopy members with their variation fields and the columns of the
tangent-flow cell propagators.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (ControlSignal, Domain, SRFrame, SRXError, Trajectory,
                   require_same_grid)


class IntegrationError(SRXError):
    """State blew up (non-finite) during integration."""


COND_LIMIT = 1e12
FLOW_BATCH = 256           # cells per batch of propagators, bounds the temporaries


def _rk4(step, c, y0, h: float, substeps: int, n_cells: int) -> Iterator:
    """Classical RK4 over n_cells control cells of `substeps` steps each.

    step is a stack's RK4 step, its generated step on Python floats for
    one system or its batch_step for a (B, d) batch, whose first d
    variables are the state.  c(j) is called once, when cell j's first step
    starts, and returns what step takes for the stack's other variables,
    fixed over the cell: their values, or the batch's rows buffer with them
    in its trailing columns.  Yields the states at cell ends 0..n_cells (y0,
    then a new state per cell), unchecked: one system is stored and checked
    by _rk4_states, a batch is checked per cell where it is consumed.
    """
    half, sixth = 0.5 * h, h / 6.0
    y = y0
    yield y
    for j in range(n_cells):
        cell = c(j)
        for _ in range(substeps):
            y = step(y, cell, h, half, sixth)
        yield y


def _rk4_states(step, c, y0: np.ndarray, h: float, substeps: int,
                n_cells: int) -> np.ndarray:
    """_rk4's states of one system of d equations on Python floats, stored
    in an (n_cells + 1, d) array allocated before the first step.  Returns
    them, or raises IntegrationError at the first non-finite one."""
    ys = np.empty((n_cells + 1, y0.shape[0]))
    for j, y in enumerate(_rk4(step, c, y0.tolist(), h, substeps, n_cells)):
        ys[j] = y
    finite = np.isfinite(ys).all(axis=1)
    if not finite.all():
        raise _non_finite(int(np.argmin(finite)), h, substeps)
    return ys


def _non_finite(j: int, h: float, substeps: int) -> IntegrationError:
    """The error of a state that is not finite at cell end j."""
    return IntegrationError(f"state became non-finite at t={j * substeps * h:.6g}")


def _checked_start(frame: SRFrame, q0, domain: Domain | None,
                   substeps: int) -> np.ndarray:
    """q0 as a float vector; ValueError unless it is a finite start of
    length frame.n inside domain (when one is given) and substeps >= 1."""
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (frame.n,) or not np.all(np.isfinite(q0)):
        raise ValueError(f"q0 must be a finite vector of length {frame.n}")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if domain is not None and not domain.contains(q0):
        raise ValueError("initial point lies outside the domain interior")
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
    states = _rk4_states(frame._stack("drift").step,
                         lambda j: u.samples[j].tolist(), q0, u.dt / substeps,
                         substeps, u.n_cells)
    return _marked_trajectory(states, u, domain)


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
    time, column by column: column c of P_j is the variation b of one
    batched RK4 cell on the "variation" stack started from (q_j, e_c) with
    du = 0.  Then
    M_{j+1} = P_j M_j, anchored at t = 0.
    Condition numbers above COND_LIMIT do not abort: the NSRE report flags
    them as `ill_conditioned`, advisory for downstream rank decisions.
    """
    require_same_grid(u, base.control)
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n, stack = frame.n, frame._stack("variation")
    mats = np.empty((u.n_cells + 1, n, n))
    mats[0] = np.eye(n)
    for lo in range(0, u.n_cells, FLOW_BATCH):
        hi = min(lo + FLOW_BATCH, u.n_cells)
        # row (j, c) of a batch starts at (q_j, e_c) with (u_j, 0): one cell
        # later its b holds column c of P_j
        y0 = np.concatenate([np.repeat(base.states[lo:hi], n, axis=0),
                             np.tile(np.eye(n), (hi - lo, 1))], axis=1)
        rows = np.zeros((y0.shape[0], stack.n))
        rows[:, 2 * n:2 * n + frame.k] = np.repeat(u.samples[lo:hi], n, axis=0)
        *_, ends = _rk4(stack.batch_step, lambda _: rows, y0, u.dt / substeps,
                        substeps, 1)
        if not np.isfinite(ends).all():
            raise IntegrationError("a cell propagator became non-finite after "
                                   f"t={lo * u.dt:.6g}")
        props = ends[:, n:].reshape(-1, n, n).swapaxes(1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, prop in enumerate(props, start=lo):
                mats[j + 1] = prop @ mats[j]
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        j = int(np.argmin(finite))
        raise IntegrationError(f"tangent map became non-finite at t={j * u.dt:.6g}")

    return TangentFlow(base.grid, mats, float(np.max(np.linalg.cond(mats))))

