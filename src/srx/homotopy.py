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

from .core import (ControlSignal, Domain, InnerProduct, SRFrame, Trajectory,
                   control_inner, require_same_grid)
from .extremals import (ACB_BOUND, SIGMA_TOL, NotNormalizedError,
                        OrthoDistribution, build_f_perp,
                        max_velocity_derivative, span_profile)
from .flows import TangentFlow, _checked_start, _marked_trajectory, _rk4


@dataclass(frozen=True, eq=False)
class Homotopy:
    """Family of trajectories gamma_s driven by u + s*du, s on a uniform grid.

    variations[i] is the variation field b_s of member i, integrated together
    with the members (see variation_direct for the ODE).
    """

    s_grid: np.ndarray
    trajectories: tuple[Trajectory, ...]
    delta_u: ControlSignal
    variations: np.ndarray  # (n_s + 1, N_t + 1, n)

    @property
    def base(self) -> Trajectory:
        return self.trajectories[0]

    @property
    def in_domain(self) -> bool:
        return not any(t.left_domain for t in self.trajectories)

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

    def max_norm(self) -> float:
        return float(np.linalg.norm(self.vectors, axis=1).max())


def _members_and_variations(frame: SRFrame, controls: np.ndarray,
                            increments: np.ndarray, q0: np.ndarray, dt: float,
                            substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Members and their variation fields for a batch of (control, du) pairs.

    Integrates the member dq/dt = f_u(q) jointly with its variation
    db/dt = f_du(q) + Df_u(q) b, b(0) = 0, so the b stages use the member's
    own RK4 stage states.  controls and increments are (B, N_t, k); returns
    states and variations, each (B, N_t + 1, n).
    """
    n, k = frame.n, frame.k
    # (N_t, B, 1, k): row controls and increments as (1, k) matrices
    cells = np.ascontiguousarray(controls.swapaxes(0, 1))[:, :, None]
    incs = np.ascontiguousarray(increments.swapaxes(0, 1))[:, :, None]

    def rhs(j, y):
        q, b = y[:, :n], y[:, n:]
        f, jac = frame.jet(q)                         # (B, k, n), (B, k, n, n)
        a = (cells[j] @ jac.reshape(-1, k, n * n)).reshape(-1, n, n)
        db = (incs[j] @ f)[:, 0] + (a @ b[:, :, None])[:, :, 0]
        return np.concatenate([(cells[j] @ f)[:, 0], db], axis=1)

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
    members = [_marked_trajectory(u.grid, x, ControlSignal(u.horizon, c), domain)
               for x, c in zip(states, controls)]
    return tuple(
        Homotopy(s_grid, tuple(members[lo:lo + n_members]), du,
                 variations[lo:lo + n_members])
        for lo, du in zip(range(0, len(members), n_members), deltas))


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
                                            homotopy.base.q0, u.dt, substeps)
    return VariationField(s_val, homotopy.base.grid, variations[0])


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
    inv = tf.inverses()
    n_cells = u.n_cells

    f_left = np.einsum("jnk,jk->jn", mats[:-1], du.samples)
    f_right = np.einsum("jnk,jk->jn", mats[1:], du.samples)
    y_left = np.einsum("jab,jb->ja", inv[:-1], f_left)
    y_right = np.einsum("jab,jb->ja", inv[1:], f_right)

    increments = 0.5 * u.dt * (y_left + y_right)
    pulled = np.zeros((n_cells + 1, frame.n))
    np.cumsum(increments, axis=0, out=pulled[1:])
    vectors = np.einsum("jab,jb->ja", tf.matrices, pulled)
    return VariationField(0.0, traj0.grid, vectors)


def variation_fields(homotopy: Homotopy) -> tuple[VariationField, ...]:
    """Variation fields at every node of the homotopy's s-grid.

    They were integrated with the members, so this integrates nothing.
    """
    return tuple(VariationField(float(s), homotopy.base.grid, vectors)
                 for s, vectors in zip(homotopy.s_grid, homotopy.variations))


def write_homotopy_rows(homotopy: Homotopy) -> tuple[list[str], np.ndarray]:
    """Header and row data for the homotopy CSV layout s,t,q1..qn,b1..bn."""
    n = homotopy.base.n
    header = ["s", "t"] + [f"q{a + 1}" for a in range(n)] + \
             [f"b{a + 1}" for a in range(n)]
    data = np.vstack([
        np.column_stack([np.full(member.grid.shape, s), member.grid,
                         member.states, b])
        for s, member, b in zip(homotopy.s_grid, homotopy.trajectories,
                                homotopy.variations)])
    return header, data


def node_velocity(frame: SRFrame, u: ControlSignal, traj: Trajectory,
                  m: int) -> np.ndarray:
    """Velocity of the trajectory at grid node m, for the variation split.

    Interior nodes average the two adjacent cell controls; the end nodes use
    their one cell.  The split compares b_0(t) with a multiple of the
    velocity of the smooth curve the staircase control samples, and the
    average is exact for constant controls and second-order accurate for
    smooth sampled ones, where either one-sided cell is first order.  The
    NSRE test uses the right cell instead (see extremals._node_controls).
    """
    if m == 0:
        u_node = u.samples[0]
    elif m == u.n_cells:
        u_node = u.samples[-1]
    else:
        u_node = 0.5 * (u.samples[m - 1] + u.samples[m])
    return frame.field_matrix(traj.states[m]) @ u_node


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
    if not u.is_normalized():
        raise NotNormalizedError("decomposition requires a normalized control")
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
        rel = f_perp.residual(residual) / b0_norm
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

    Same computation as decompose_variation, batched: the orthogonal
    directions are pulled back once and re-spanned per node.  Nodes with a
    zero variation report 0 (degenerate case counts as in-span).
    """
    b_field = variation_integral(frame, u, du, traj0, tf)
    phi_cum = control_inner(u, du).cumulative
    norms = [float(np.linalg.norm(b0)) for b0 in b_field.vectors]
    nodes = [m for m, norm in enumerate(norms) if norm != 0.0]
    out = np.zeros(len(norms))
    spans = span_profile(frame, traj0, tf, nodes, tau_range=tau_range,
                         sample_stride=sample_stride, sigma_tol=sigma_tol)
    for m, span in zip(nodes, spans):
        residual = b_field.vectors[m] - float(phi_cum[m]) * node_velocity(
            frame, u, traj0, m)
        out[m] = span.residual(residual) / norms[m]
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
    phi: InnerProduct


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
                            du_l2 <= limit + slack_tol, limit - du_l2, phi)


@dataclass(frozen=True, eq=False)
class Separation:
    """Endpoint gap of a homotopy and the endpoint curve behind it."""

    separation: float
    endpoints: np.ndarray  # (n_s + 1, n)


def endpoint_separation(homotopy: Homotopy) -> Separation:
    endpoints = np.vstack([t.endpoint for t in homotopy.trajectories])
    sep = float(np.linalg.norm(endpoints[-1] - endpoints[0]))
    return Separation(sep, endpoints)


def spread_matrix(homotopy: Homotopy) -> np.ndarray:
    """Norms |gamma_s(t) - gamma_0(t)| over the full (s, t) grid."""
    base = homotopy.base.states
    return np.stack([
        np.linalg.norm(member.states - base, axis=1)
        for member in homotopy.trajectories])


def drift_matrix(fields: tuple[VariationField, ...]) -> np.ndarray:
    """Norms |b_s(t) - b_0(t)| over the full (s, t) grid."""
    base = fields[0].vectors
    return np.stack([
        np.linalg.norm(f.vectors - base, axis=1) for f in fields])
