"""Natural homotopies between trajectories and their variation fields.

The homotopy member at parameter s follows the control u + s*du from the
shared initial point.  Its s-derivative (the variation field) is computed by
two independent routes: the inhomogeneous linear ODE along the member, and a
flow-pushforward quadrature along the base member; agreement of both is a
core consistency check of the whole pipeline.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (ControlSignal, Domain, SRFrame, Trajectory, control_inner,
                   require_same_grid)
from .extremals import (ACB_BOUND, SIGMA_TOL, OrthoDistribution, build_f_perp,
                        max_velocity_derivative, require_normalized,
                        span_profile)
from .flows import TangentFlow, _checked_start, _rk4


@dataclass(frozen=True, eq=False)
class Homotopy:
    """Family of trajectories gamma_s driven by u + s*du, s on a uniform grid.

    trajectories[i] holds the states of member i and variations[i] its
    variation field b_s, integrated together with it (see variation_direct
    for the ODE).  in_domain is False if any member state leaves the domain.
    """

    s_grid: np.ndarray        # (n_s + 1,)
    grid: np.ndarray          # (N_t + 1,)
    trajectories: np.ndarray  # (n_s + 1, N_t + 1, n)
    variations: np.ndarray    # (n_s + 1, N_t + 1, n)
    delta_u: ControlSignal
    in_domain: bool

    @property
    def endpoints(self) -> np.ndarray:
        """(n_s + 1, n) member endpoints, the endpoint curve s -> gamma_s(T)."""
        return self.trajectories[:, -1]

    @property
    def separation(self) -> float:
        """Endpoint gap |gamma_1(T) - gamma_0(T)|."""
        return float(np.linalg.norm(self.endpoints[-1] - self.endpoints[0]))

    def s_index(self, s: float) -> int:
        idx = int(np.argmin(np.abs(self.s_grid - s)))
        if abs(self.s_grid[idx] - s) > 1e-12:
            raise ValueError(f"s={s} is not on the homotopy grid")
        return idx


@dataclass(frozen=True, eq=False)
class VariationField:
    """s-derivative of the homotopy along one member, b_s(t) on the time grid."""

    s: float
    grid: np.ndarray
    vectors: np.ndarray  # (N_t + 1, n)


def _members_and_variations(frame: SRFrame, controls: np.ndarray,
                            increments: np.ndarray, q0: np.ndarray, dt: float,
                            substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Members and their variation fields for a batch of (control, du) pairs.

    Integrates the member dq/dt = f_u(q) jointly with its variation
    db/dt = f_du(q) + Df_u(q) b, b(0) = 0, so the b stages use the member's
    own RK4 stage states.  That right-hand side is one polynomial in
    (q, b, u, du), so each RK4 stage is one SRFrame.variation_field call.
    controls and increments are (B, N_t, k); returns states and variations,
    each (B, N_t + 1, n).
    """
    n = frame.n
    # (B, N_t, 2k): each row's (u, du) per cell, the last stack variables
    cells = np.concatenate([controls, increments], axis=2)

    def rhs(j, y):
        return frame.variation_field(np.concatenate([y, cells[:, j]], axis=1))

    y0 = np.tile(np.concatenate([q0, np.zeros(n)]), (controls.shape[0], 1))
    ys = _rk4(rhs, y0, dt / substeps, substeps, controls.shape[1]).swapaxes(0, 1)
    return ys[..., :n], ys[..., n:]


def natural_homotopies(frame: SRFrame, u: ControlSignal,
                       deltas: Sequence[ControlSignal], q0, n_s: int = 16,
                       domain: Domain | None = None,
                       substeps: int = 1) -> tuple[Homotopy, ...]:
    """Natural homotopies of several perturbations of u as one RK4 batch.

    All len(deltas) * (n_s + 1) members and their variation fields advance
    together.  Rows do not interact, so the batch layout changes no result.
    """
    for du in deltas:
        require_same_grid(u, du)
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    q0 = _checked_start(frame, q0, domain, substeps)
    s_grid = np.linspace(0.0, 1.0, n_s + 1)
    n_members = s_grid.shape[0]
    incs = np.repeat(np.stack([du.samples for du in deltas]), n_members, axis=0)
    controls = u.samples + np.tile(s_grid, len(deltas))[:, None, None] * incs
    states, variations = _members_and_variations(frame, controls, incs, q0,
                                                 u.dt, substeps)
    shape = (len(deltas), n_members) + states.shape[1:]
    states, variations = states.reshape(shape), variations.reshape(shape)
    in_domain = ([True] * len(deltas) if domain is None else
                 (domain.boundary_distances(states) > 0.0).all(axis=(1, 2)).tolist())
    return tuple(Homotopy(s_grid, u.grid, x, b, du, inside) for x, b, du, inside
                 in zip(states, variations, deltas, in_domain))


def natural_homotopy(frame: SRFrame, u: ControlSignal, du: ControlSignal, q0,
                     n_s: int = 16, domain: Domain | None = None,
                     substeps: int = 1) -> Homotopy:
    """Integrate the n_s + 1 members of the natural homotopy and their variations."""
    return natural_homotopies(frame, u, [du], q0, n_s, domain, substeps)[0]


def variation_direct(frame: SRFrame, u: ControlSignal, du: ControlSignal,
                     homotopy: Homotopy, s: float,
                     substeps: int = 1) -> VariationField:
    """Variation field at parameter s from its inhomogeneous linear ODE.

    Integrates db/dt = f_du(gamma_s) + Df_{u+s du}(gamma_s) b with b(0) = 0,
    re-running the member state alongside so the RK4 stages match the member
    integration exactly.
    """
    require_same_grid(u, du)
    idx = homotopy.s_index(s)
    s_val = float(homotopy.s_grid[idx])
    controls = u.perturbed(du, s_val).samples[None]
    _, variations = _members_and_variations(frame, controls, du.samples[None],
                                            homotopy.trajectories[0, 0], u.dt,
                                            substeps)
    return VariationField(s_val, homotopy.grid, variations[0])


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


def write_homotopy_rows(homotopy: Homotopy) -> tuple[list[str], np.ndarray]:
    """Header and row data for the homotopy CSV layout s,t,q1..qn,b1..bn."""
    members, nodes, n = homotopy.trajectories.shape
    header = ["s", "t"] + [f"q{a + 1}" for a in range(n)] + \
             [f"b{a + 1}" for a in range(n)]
    s = np.broadcast_to(homotopy.s_grid[:, None, None], (members, nodes, 1))
    t = np.broadcast_to(homotopy.grid[None, :, None], (members, nodes, 1))
    data = np.concatenate([s, t, homotopy.trajectories, homotopy.variations],
                          axis=2)
    return header, data.reshape(members * nodes, 2 + 2 * n)


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


@dataclass(frozen=True, eq=False)
class VariationSplit:
    """Split of the s=0 variation into a velocity multiple plus a span part."""

    t: float
    coefficient: float
    residual: np.ndarray
    residual_in_span: bool
    relative_residual: float
    b0_t: np.ndarray
    velocity: np.ndarray
    hypothesis_verified: bool


def decompose_variation(frame: SRFrame, u: ControlSignal, du: ControlSignal,
                        traj0: Trajectory, tf: TangentFlow, t: float, *,
                        b_field: VariationField | None = None,
                        f_perp: OrthoDistribution | None = None,
                        in_span_rtol: float = 1e-6,
                        acb_bound: float = ACB_BOUND,
                        sigma_tol: float = SIGMA_TOL,
                        tau_range: str = "0..t",
                        sample_stride: int = 1) -> VariationSplit:
    """Write b_0(t) as (running integral of phi) * velocity + span residual.

    The coefficient is the exact running integral of the control inner
    product; the residual is tested for membership in the flow-pushed
    orthogonal span at relative tolerance in_span_rtol (a zero b_0 counts as
    in-span).  When the ACB regularity proxy fails the split is still
    returned but flagged hypothesis_verified=False.
    """
    require_normalized(u, "the decomposition")
    m = traj0.node_index(t)
    if b_field is None:
        b_field = variation_integral(frame, u, du, traj0, tf)
    b0_t = b_field.vectors[m]
    coefficient = float(control_inner(u, du).cumulative[m])
    velocity = node_velocity(frame, u, traj0, m)
    residual = b0_t - coefficient * velocity

    if f_perp is None:
        f_perp = build_f_perp(frame, traj0, tf, t, sample_stride, tau_range,
                              sigma_tol)
    b0_norm = float(np.linalg.norm(b0_t))
    if b0_norm == 0.0:
        in_span, rel = True, 0.0
    else:
        rel = float(f_perp.residual(residual)) / b0_norm
        in_span = rel <= in_span_rtol

    hypothesis = max_velocity_derivative(frame, u, traj0) <= acb_bound
    return VariationSplit(float(traj0.grid[m]), coefficient, residual, in_span,
                          float(rel), b0_t, velocity, hypothesis)


def decomposition_residual_profile(frame: SRFrame, u: ControlSignal,
                                   du: ControlSignal, traj0: Trajectory,
                                   tf: TangentFlow, *,
                                   sigma_tol: float = SIGMA_TOL,
                                   tau_range: str = "0..t",
                                   sample_stride: int = 1) -> np.ndarray:
    """Relative span residual of the decomposition at every grid node.

    Same computation as decompose_variation, batched over the nodes: one
    span_profile call spans every node with a nonzero variation.  Nodes with
    a zero variation report 0 (degenerate case counts as in-span).
    """
    b_field = variation_integral(frame, u, du, traj0, tf)
    phi_cum = control_inner(u, du).cumulative
    norms = np.linalg.norm(b_field.vectors, axis=1)
    nodes = np.flatnonzero(norms)
    spans = span_profile(frame, traj0, tf, nodes, tau_range=tau_range,
                         sample_stride=sample_stride, sigma_tol=sigma_tol)
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
    norm of du cannot exceed 2*sqrt(T).  Slacks are reported so callers can
    assert quantitative margins.
    """

    applicable: bool
    lhs: float
    rhs: float
    slack: float
    holds: bool
    du_l2: float
    du_l2_limit: float
    bound2: bool
    bound2_slack: float


def energy_comparison_check(u: ControlSignal, du: ControlSignal,
                            slack_tol: float = 1e-12) -> EnergyComparison:
    require_same_grid(u, du)
    phi = control_inner(u, du)
    lhs = -phi.total
    rhs = 0.5 * du.l2_norm_sq()
    slack = lhs - rhs
    e_old = u.energy()
    e_new = u.perturbed(du).energy()
    applicable = e_new <= e_old + slack_tol * max(1.0, e_old)
    du_l2 = du.l2_norm()
    limit = 2.0 * math.sqrt(u.horizon)
    return EnergyComparison(applicable, lhs, rhs, slack,
                            slack >= -slack_tol, du_l2, limit,
                            du_l2 <= limit + slack_tol, limit - du_l2)
