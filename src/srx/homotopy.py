"""Natural homotopies between trajectories and their variation fields.

The homotopy member at parameter s follows the control u + s*du from the
shared initial point.  Its s-derivative (the variation field) is computed by
two independent routes: the inhomogeneous linear ODE along the member, and a
flow-pushforward quadrature along the base member; agreement of both is a
core consistency check of the whole pipeline.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import (N_S, SIGMA_TOL, ControlSignal, Domain, SRFrame, Trajectory,
                   control_inner, require_same_grid)
from .extremals import span_profile
from .flows import TangentFlow, _checked_start, _non_finite, _rk4

COMPARISON_TOL = 1e-12      # slack allowed in the energy-comparison checks


@dataclass(frozen=True, eq=False)
class Homotopy:
    """Family of trajectories gamma_s driven by u + s*du, s on a uniform grid.

    trajectories[i] holds the states of member i and variations[i] its
    variation field b_s, the solution of db/dt = f_du(gamma_s) +
    Df_{u+s du}(gamma_s) b with b(0) = 0, integrated together with it.
    certify.family_extremes reduces it to its endpoint separation, domain
    check and bound extremes.
    """

    s_grid: np.ndarray        # (n_s + 1,)
    grid: np.ndarray          # (N_t + 1,)
    trajectories: np.ndarray  # (n_s + 1, N_t + 1, n)
    variations: np.ndarray    # (n_s + 1, N_t + 1, n)
    delta_u: ControlSignal

    @property
    def endpoints(self) -> np.ndarray:
        """(n_s + 1, n) member endpoints, the endpoint curve s -> gamma_s(T)."""
        return self.trajectories[:, -1]


@dataclass(frozen=True, eq=False)
class VariationField:
    """s-derivative of the homotopy along one member, b_s(t) on the time grid."""

    s: float
    grid: np.ndarray
    vectors: np.ndarray  # (N_t + 1, n)


def _homotopy_cells(frame: SRFrame, u: ControlSignal, deltas: np.ndarray, q0,
                    n_s: int, domain: Domain | None, substeps: int
                    ) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """s grid and member states of the natural homotopies of several increments.

    deltas is a (B, N, k) stack of increments du on u's grid.  Member i of
    homotopy f follows u + s_i du_f from q0 together with its variation
    field.  The iterator yields the (n_s + 1, B, 2n) states (q, b) at cell
    ends 0..N and raises IntegrationError at the first non-finite one; cell
    j's (u + s du, du) are written into the rows buffer when that cell
    starts.  Rows do not interact, so B changes no result.
    """
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    q0 = _checked_start(frame, q0, domain, substeps)
    s_grid = np.linspace(0.0, 1.0, n_s + 1)
    members, families, k = s_grid.shape[0], deltas.shape[0], u.k
    s = s_grid[:, None, None]
    stack, h = frame._stack("variation"), u.dt / substeps
    rows = np.empty((members * families, stack.n))
    cell = rows.reshape(members, families, -1)[..., 2 * frame.n:]

    def cell_rows(j):
        du = deltas[:, j]
        cell[..., :k] = u.samples[j] + s * du
        cell[..., k:] = du
        return rows

    y0 = np.tile(np.concatenate([q0, np.zeros(frame.n)]), (rows.shape[0], 1))

    def cells():
        for j, y in enumerate(_rk4(stack.batch_step, cell_rows, y0, h,
                                   substeps, u.n_cells)):
            if not np.isfinite(y).all():
                raise _non_finite(j, h, substeps)
            yield y.reshape(members, families, -1)
    return s_grid, cells()


def natural_homotopy(frame: SRFrame, u: ControlSignal, du: ControlSignal, q0,
                     n_s: int = N_S, domain: Domain | None = None,
                     substeps: int = 1) -> Homotopy:
    """Integrate the n_s + 1 members of the natural homotopy and their variations.

    domain, if given, is checked at q0; whether the members stay inside it
    is certify.family_extremes' in_domain.
    """
    require_same_grid(u, du)
    s_grid, cells = _homotopy_cells(frame, u, du.samples[None], q0, n_s,
                                    domain, substeps)
    ys = np.empty((s_grid.shape[0], u.n_cells + 1, 2 * frame.n))
    for j, y in enumerate(cells):
        ys[:, j] = y[:, 0]
    return Homotopy(s_grid, u.grid, ys[..., :frame.n], ys[..., frame.n:], du)


def variation_direct(frame: SRFrame, u: ControlSignal, du: ControlSignal,
                     homotopy: Homotopy, s: float) -> VariationField:
    """Variation field at parameter s from its inhomogeneous linear ODE.

    This is the homotopy.variations row of member s, which natural_homotopy
    integrated jointly with the member (see Homotopy for the ODE).  du must
    be the family's increment and s a point of its s grid; otherwise
    ValueError.
    """
    require_same_grid(u, du)
    if not np.array_equal(du.samples, homotopy.delta_u.samples):
        raise ValueError("du is not the increment of this homotopy")
    idx = int(np.argmin(np.abs(homotopy.s_grid - s)))
    if not abs(homotopy.s_grid[idx] - s) <= 1e-12:
        raise ValueError(f"s={s} is not on the homotopy grid")
    return VariationField(float(homotopy.s_grid[idx]), homotopy.grid,
                          homotopy.variations[idx])


def variation_integral(frame: SRFrame, u: ControlSignal, du: ControlSignal,
                       traj0: Trajectory, tf: TangentFlow) -> VariationField:
    """Variation field at s = 0 by flow pushforward of the control increment.

    b(t) = integral over [0, t] of the two-point tangent map applied to
    f_du(gamma(tau)), evaluated with the trapezoid rule per control cell
    (du is frozen within a cell, so the integrand is smooth cellwise).
    Shares no integration code with variation_direct.
    """
    require_same_grid(u, du)
    mats = frame.field_matrix_many(traj0.states)            # (N+1, n, k)
    # f_du at node j from the cell right of it (column 0, zero at the last
    # node) and from the cell left of it (column 1, zero at the first node)
    zero = np.zeros((1, u.k))
    cells = np.stack([np.vstack([du.samples, zero]),
                      np.vstack([zero, du.samples])], axis=2)  # (N+1, k, 2)
    # pulled back to t = 0 by one solve per node
    y = np.linalg.solve(tf.matrices, mats @ cells)           # (N+1, n, 2)

    increments = 0.5 * u.dt * (y[:-1, :, 0] + y[1:, :, 1])
    pulled = np.zeros((u.n_cells + 1, frame.n))
    np.cumsum(increments, axis=0, out=pulled[1:])
    vectors = np.einsum("jab,jb->ja", tf.matrices, pulled)
    return VariationField(0.0, traj0.grid, vectors)


def node_velocity(frame: SRFrame, u: ControlSignal, traj: Trajectory,
                  m) -> np.ndarray:
    """Velocity of the trajectory at grid node m (an index or an array of them).

    Interior nodes average the two adjacent cell controls; the end nodes use
    their one cell.  The split compares b_0(t) with a multiple of the
    velocity of the smooth curve the staircase control samples, and the
    average is exact for constant controls and second-order accurate for
    smooth sampled ones, where either one-sided cell is first order.  The
    NSRE test uses the right cell instead (see extremals._node_controls).
    """
    # cells[m] and cells[m + 1] are the cells left and right of node m; the
    # end nodes see their one cell twice, and 0.5 * (x + x) == x exactly
    cells = np.vstack([u.samples[:1], u.samples, u.samples[-1:]])
    m = np.asarray(m)
    u_node = 0.5 * (cells[m] + cells[m + 1])
    return (frame.field_matrix_many(traj.states[m]) @ u_node[..., None])[..., 0]


def decomposition_residual_profile(frame: SRFrame, u: ControlSignal,
                                   du: ControlSignal, traj0: Trajectory,
                                   tf: TangentFlow, *,
                                   sigma_tol: float = SIGMA_TOL) -> np.ndarray:
    """Relative span residual of the decomposition at every grid node.

    b_0(t) is written as (running integral of phi) * velocity plus a
    residual, whose norm outside the flow-pushed orthogonal span is divided
    by |b_0(t)|.  One span_profile call, with tau sampled at every node of
    0..t, spans every node with a nonzero variation.  Nodes with a zero
    variation report 0 (degenerate case counts as in-span).
    """
    b_field = variation_integral(frame, u, du, traj0, tf)
    phi_cum = control_inner(u, du)
    norms = np.linalg.norm(b_field.vectors, axis=1)
    nodes = np.flatnonzero(norms)
    spans = span_profile(frame, traj0, tf, nodes, sigma_tol=sigma_tol)
    residuals = b_field.vectors[nodes] - phi_cum[nodes, None] * node_velocity(
        frame, u, traj0, nodes)
    out = np.zeros(norms.shape[0])
    out[nodes] = spans.residual(residuals) / norms[nodes]
    return out


@dataclass(frozen=True, eq=False)
class EnergyComparison:
    """Quantities of the energy-comparison inequality for one perturbation.

    For energy-nonincreasing perturbations of a normalized control,
    -integral(phi) must dominate half the squared L2 norm of du, and the L2
    norm of du cannot exceed 2*sqrt(T).  The comparison's slack is reported
    so callers can assert a quantitative margin.
    """

    applicable: bool
    lhs: float
    rhs: float
    du_l2: float
    bound2: bool

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def holds(self) -> bool:
        return self.slack >= -COMPARISON_TOL


def energy_comparison_check(u: ControlSignal, du: ControlSignal
                            ) -> EnergyComparison:
    require_same_grid(u, du)
    lhs = -float(control_inner(u, du)[-1])
    du2 = du.l2_norm_sq()
    e_old = u.energy()
    e_new = u.perturbed(du).energy()
    applicable = e_new <= e_old + COMPARISON_TOL * max(1.0, e_old)
    du_l2 = math.sqrt(du2)
    return EnergyComparison(applicable, lhs, 0.5 * du2, du_l2,
                            du_l2 <= 2.0 * math.sqrt(u.horizon) + COMPARISON_TOL)
