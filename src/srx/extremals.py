"""Flow-invariant orthogonal spans, the NSRE test, and a Hamiltonian oracle.

The geometric test asks whether the smallest flow-invariant distribution
containing the part of D orthogonal to the velocity ever swallows the
velocity itself.  Spans are built numerically by pushing orthogonal
directions through the tangent flow and rank-truncating an SVD.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ACB_BOUND, NORMALIZED_TOL, SIGMA_TOL, TAU_RANGE, TAU_RANGES,
                   THETA_MIN, ControlSignal, Domain, GridMismatchError, SRFrame,
                   SRXError, Trajectory)
from .flows import (COND_LIMIT, FLOW_BATCH, IntegrationError, TangentFlow,
                    _checked_start, _marked_trajectory, _rk4_states, tangent_flow)

SPAN_BATCH = 256            # nodes per batched SVD, bounds the temporaries
_CONSERVATION_TOL = 1e-6    # bound on the oracle's level drift
_LEVEL_TOL = 1e-9           # bound on |2H - 1| at the initial covector


class DegenerateSpanError(SRXError):
    """Span construction has no columns to work with."""


class NotNormalizedError(SRXError):
    """An operation requires a unit-speed (normalized) control."""


def require_normalized(u: ControlSignal, what: str) -> None:
    """Raise NotNormalizedError, naming the worst | |u| - 1 |, unless u is unit speed."""
    if not u.is_normalized():
        raise NotNormalizedError(
            f"{what} requires a unit-speed control; its worst | |u| - 1 | is "
            f"{u.speed_deviation():.3e} (tolerance {NORMALIZED_TOL:.0e})")


def require_orthogonal_part(frame: SRFrame) -> None:
    """Raise DegenerateSpanError unless the frame has rank k >= 2, so that
    the control's orthogonal complement has a column."""
    if frame.k < 2:
        raise DegenerateSpanError("rank-1 distributions have an empty orthogonal part")


def _dots(x: np.ndarray) -> np.ndarray:
    """x . x over the last axis, rounded as np.dot rounds one vector."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def orthogonal_control_complement(u_cell) -> np.ndarray:
    """Orthonormal bases of the orthogonal complements of controls in R^k.

    u_cell is a (..., k) array of controls; returns the (..., k, k-1) stack
    built from the Householder reflector that maps u/|u| onto +-e1, whose
    remaining columns span the complement.
    """
    u = np.asarray(u_cell, dtype=float)
    if u.ndim < 1:
        raise ValueError("u_cell must have a trailing control axis")
    nrm = np.sqrt(_dots(u))[..., None]
    if np.any(nrm == 0.0):
        raise ValueError("zero control vector has no orthogonal complement")
    w = u / nrm
    w[..., 0] += np.where(w[..., 0] >= 0.0, 1.0, -1.0)
    # columns 2..k of the reflector I - 2 w w^T / (w . w)
    outer = w[..., :, None] * w[..., None, 1:]
    return np.eye(u.shape[-1])[:, 1:] - 2.0 * outer / _dots(w)[..., None, None]


@dataclass(frozen=True, eq=False)
class OrthoDistribution:
    """Numerical spans of flow-pushed orthogonal directions at grid nodes.

    Leading axes index nodes (span_profile); a single node index gives no
    node axis.  basis always has n columns: the first `rank` are
    orthonormal and span the distribution, the rest are zero, so
    basis @ basis^T projects onto it at every node.
    """

    t: np.ndarray                # (...,) node times
    basis: np.ndarray            # (..., n, n), zero-padded past the rank
    # full spectrum before truncation, always n entries in decreasing order;
    # trailing exact zeros mean exact rank deficiency (at early nodes fewer
    # than n directions have been sampled)
    singular_values: np.ndarray  # (..., n)
    rank: np.ndarray             # (...,) int

    @property
    def cut_ratios(self) -> tuple[np.ndarray, np.ndarray]:
        """sigma_r / sigma_1 (last kept) and sigma_{r+1} / sigma_1 (first dropped).

        A missing singular value counts as 0: rank n drops nothing, and
        rank 0 keeps nothing (every sampled direction vanished).
        """
        s, r = self.singular_values, self.rank[..., None]
        s1 = s[..., :1]
        # the appended 0 is sigma_{n+1}, and index -1 reads it at rank 0
        ratios = np.concatenate([s / np.where(s1 > 0.0, s1, 1.0),
                                 np.zeros_like(s1)], axis=-1)
        return (np.take_along_axis(ratios, r - 1, axis=-1)[..., 0],
                np.take_along_axis(ratios, r, axis=-1)[..., 0])

    def _projection(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of v (..., n) onto the span, per node."""
        coords = v[..., None, :] @ self.basis              # (..., 1, n)
        return (self.basis @ coords[..., 0, :, None])[..., 0]

    def residual(self, v: np.ndarray) -> np.ndarray:
        """Norm of the part of v (..., n) outside the span, per node."""
        return np.sqrt(_dots(v - self._projection(v)))


def angle_to_subspace(v, dist: OrthoDistribution) -> np.ndarray:
    """Angles in [0, pi/2] between nonzero vectors (..., n) and the spans.

    atan2 of the residual and projection norms, well-conditioned at every
    angle (arcsin of residual / |v| amplifies rounding by 1 / cos near pi/2).
    """
    v = np.asarray(v, dtype=float)
    if np.any(_dots(v) == 0.0):
        raise ValueError("angle of the zero vector is undefined")
    proj = dist._projection(v)
    return np.arctan2(np.sqrt(_dots(v - proj)), np.sqrt(_dots(proj)))


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


def _prefix_factors(rows: np.ndarray) -> np.ndarray:
    """Running QR factors of a stack of (m, n, n) row blocks, in place.

    Entry i becomes an upper-triangular R with R^T R = sum_{l <= i}
    rows_l^T rows_l.  The scan runs over blocks of SPAN_BATCH entries, each
    block's first entry first absorbing the previous block's last factor,
    so the batched QRs' temporaries are bounded by SPAN_BATCH whatever m
    is.  Within a block, Brent-Kung rounds (Brent & Kung, IEEE Trans.
    Comput. C-31, 1982) each take one batched QR of [entry i - d; entry i]
    over a strided view: an up-sweep for d = 1, 2, 4, ... over i = 2d - 1,
    4d - 1, ..., then a down-sweep for d = ..., 2, 1 over i = 3d - 1,
    5d - 1, ....  That is 2 SPAN_BATCH - 2 - log2(SPAN_BATCH) QRs per full
    block (502 for 256 entries), against SPAN_BATCH log2(SPAN_BATCH) -
    SPAN_BATCH + 1 (1793) for Hillis-Steele rounds.
    """
    for lo in range(0, rows.shape[0], SPAN_BATCH):
        block = rows[lo:lo + SPAN_BATCH]
        if lo:
            block[0] = np.linalg.qr(np.concatenate([rows[lo - 1], block[0]]),
                                    mode="r")
        d = 1
        while 2 * d <= block.shape[0]:
            _absorb(block[d - 1::2 * d], block[2 * d - 1::2 * d])
            d *= 2
        while d > 1:
            d //= 2
            _absorb(block[2 * d - 1::2 * d], block[3 * d - 1::2 * d])
    return rows


def _absorb(left: np.ndarray, right: np.ndarray) -> None:
    """right[i] = R of the QR of [left[i]; right[i]], for every entry of
    the (possibly shorter) view right, in one batched QR."""
    if right.shape[0]:
        right[:] = np.linalg.qr(np.concatenate([left[:right.shape[0]], right],
                                               axis=1), mode="r")


def span_profile(frame: SRFrame, traj: Trajectory, tf: TangentFlow,
                 nodes=None, *, tau_range: str = TAU_RANGE, sample_stride: int = 1,
                 sigma_tol: float = SIGMA_TOL) -> OrthoDistribution:
    """Numerical flow-invariant orthogonal spans at the grid nodes `nodes`.

    Orthogonal directions are sampled at grid nodes tau (every sample_stride-th
    node from 0), pushed to the node through the tangent flow and
    rank-truncated at sigma_tol * sigma_max.  tau_range "0..t" samples tau up
    to the node itself (the range the variation decomposition consumes);
    "0..T" samples the whole horizon.  nodes is a node index or an array of
    them in any order, every grid node by default; the returned
    OrthoDistribution has the shape of nodes as its leading axes.

    The directions are pulled back to the flow anchor once, by one batched
    solve with the tangent maps, and the stack C
    of pulled-back columns is never re-formed: an n x n square-root factor L
    with L L^T = C C^T stands in for it (Demmel, Grigori, Hoemmen & Langou,
    SIAM J. Sci. Comput. 2012).  For "0..t" the factors of every sampled
    node come from one blocked prefix scan of batched QRs over the
    sampled nodes' columns (_prefix_factors), except while C has at most n
    columns, where C itself is the factor; for "0..T" one QR of the whole
    stack gives it.  M L and M C share their singular values and left
    singular vectors, so each node costs one n x n SVD, taken in batches of
    SPAN_BATCH nodes.
    """
    if not isinstance(sample_stride, (int, np.integer)) or sample_stride < 1:
        raise ValueError("sample_stride must be an integer >= 1")
    if tau_range not in TAU_RANGES:
        raise ValueError(f"tau_range must be one of {TAU_RANGES}")
    require_orthogonal_part(frame)
    n_nodes = traj.grid.shape[0]
    if tf.grid.shape[0] != n_nodes:
        raise GridMismatchError(f"tangent flow has {tf.grid.shape[0]} nodes, "
                                f"the trajectory {n_nodes}")
    nodes = np.arange(n_nodes) if nodes is None else np.asarray(nodes, dtype=int)
    if np.any((nodes < 0) | (nodes >= n_nodes)):
        raise ValueError(f"nodes must lie in [0, {n_nodes - 1}]")
    n = frame.n
    perp = orthogonal_control_complement(_node_controls(traj.control))
    pulled = np.linalg.solve(tf.matrices, frame.field_matrix_many(traj.states) @ perp)

    # factors[slot[i]] is L at node flat[i], zero-padded to n columns while
    # C has fewer than n columns; those give the trailing zero singular values
    flat = nodes.ravel()
    if tau_range == "0..T":
        r = np.linalg.qr(np.concatenate(pulled[::sample_stride], axis=1).T,
                         mode="r")
        factors = np.zeros((1, n, n))
        factors[0, :, :r.shape[0]] = r.T
        slot = np.zeros_like(flat)
    else:
        sampled = pulled[:int(nodes.max(initial=-1)) + 1:sample_stride]
        width = frame.k - 1
        rows = np.zeros((sampled.shape[0], n, n))
        rows[:, :width] = sampled.swapaxes(1, 2)
        factors = _prefix_factors(rows).swapaxes(1, 2)
        # while C has at most n columns it is its own factor: a padded QR
        # would leave rounding where the exact zero columns belong
        for i in range(min(n // width, sampled.shape[0])):
            factors[i] = 0.0
            factors[i, :, :(i + 1) * width] = np.concatenate(sampled[:i + 1],
                                                             axis=1)
        slot = flat // sample_stride
    basis = np.empty((flat.size, n, n))
    svals = np.empty((flat.size, n))
    for start in range(0, flat.size, SPAN_BATCH):
        batch = slice(start, start + SPAN_BATCH)
        basis[batch], svals[batch], _ = np.linalg.svd(
            tf.matrices[flat[batch]] @ factors[slot[batch]])
    ranks = np.count_nonzero(svals > sigma_tol * svals[:, :1], axis=1)
    np.copyto(basis, 0.0, where=np.arange(n) >= ranks[:, None, None])
    return OrthoDistribution(tf.grid[nodes], basis.reshape(nodes.shape + (n, n)),
                             svals.reshape(nodes.shape + (n,)),
                             ranks.reshape(nodes.shape))


def max_velocity_derivative(node_velocities: np.ndarray, dt: float) -> float:
    """Largest difference quotient of cellwise velocities (ACB proxy): all
    but the last of nsre_check's node velocities, one per cell."""
    if node_velocities.shape[0] < 3:
        return 0.0
    return float(np.linalg.norm(np.diff(node_velocities[:-1], axis=0) / dt,
                                axis=1).max())


@dataclass(frozen=True, eq=False)
class NSREReport:
    """Outcome of the geometric normal-extremal test on one trajectory: the
    measurements and their tolerances, from which every verdict and c follow."""

    angles: np.ndarray
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

    @property
    def regularity_ok(self) -> bool:
        return self.max_velocity_derivative <= self.acb_bound

    @property
    def b2_ok(self) -> bool:
        return bool(self.angles.min() > self.theta_min)

    @property
    def c(self) -> float:
        if not (self.regularity_ok and self.b2_ok):
            return 0.0
        return float(np.abs(np.sin(self.angles)).min() * self.min_speed)

    @property
    def ill_conditioned(self) -> bool:
        return self.max_condition > COND_LIMIT

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

    def to_json_dict(self, per_node: bool = True) -> dict:
        """The report as JSON; per_node=False leaves out the per-node
        `angles` and `span_rank` arrays and keeps every summary field."""
        payload = {
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
        if not per_node:
            del payload["angles"], payload["span_rank"]
        return payload


def nsre_check(frame: SRFrame, u: ControlSignal, traj: Trajectory,
               tf: TangentFlow | None = None, *,
               acb_bound: float = ACB_BOUND, theta_min: float = THETA_MIN,
               sigma_tol: float = SIGMA_TOL, tau_range: str = TAU_RANGE,
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
    require_normalized(u, "nsre_check")
    require_orthogonal_part(frame)
    if tf is None:
        tf = tangent_flow(frame, u, traj, substeps=substeps)

    node_velocities = np.einsum("jnk,jk->jn", frame.field_matrix_many(traj.states),
                                _node_controls(u))
    min_speed = float(np.linalg.norm(node_velocities, axis=1).min())
    spans = span_profile(frame, traj, tf, tau_range=tau_range,
                         sample_stride=sample_stride, sigma_tol=sigma_tol)
    kept, dropped = spans.cut_ratios
    return NSREReport(angle_to_subspace(node_velocities, spans), min_speed,
                      max_velocity_derivative(node_velocities, u.dt), acb_bound,
                      theta_min, tau_range, spans.rank, sigma_tol,
                      float(kept.min()), float(dropped.max()), tf.max_condition)


@dataclass(frozen=True, eq=False)
class HamiltonianExtremal:
    """Normal extremal generated by the standard Hamiltonian construction."""

    trajectory: Trajectory
    costates: np.ndarray       # (N_t + 1, n)
    norm_drift: float          # worst |raw control norm - 1| before renormalizing

    @property
    def control(self) -> ControlSignal:
        return self.trajectory.control


def hamiltonian_extremal(frame: SRFrame, q0, p0, horizon: float, n_cells: int,
                         substeps: int = 1, domain: Domain | None = None
                         ) -> HamiltonianExtremal:
    """Integrate the normal Hamiltonian system and sample its control.

    Solves dq/dt = sum u^i X_i(q), dp/dt = -sum u^i (dX_i/dq)^T p with
    u^i = <p, X_i(q)>, starting on the unit level sum_i <p0, X_i(q0)>^2 = 1.
    That right-hand side is (dH/dp, -dH/dq) for the polynomial
    H = 1/2 sum_i <p, X_i(q)>^2: the cached "hamiltonian" stack, whose
    generated RK4 step on Python floats flows._rk4_states runs.  Each
    control cell of width h = horizon / n_cells takes `substeps` RK4 steps,
    as in integrate_trajectory and tangent_flow.  The control is sampled at cell
    midpoints, read from the cubic Hermite interpolant of
    the cell's end values y and slopes f (dense output, Hairer, Norsett &
    Wanner, Solving ODEs I, II.6): (y_j + y_{j+1}) / 2 + h/8 (f_j - f_{j+1}),
    which is O(h^4) like the stepper; the slopes take one batched
    right-hand side per FLOW_BATCH nodes.  Level conservation keeps raw
    midpoint norms within _CONSERVATION_TOL of 1 and the rows are then
    scaled to exactly unit norm, so downstream normalized-control checks
    hold.  At a given n_cells the error is that of two half steps per cell
    at n_cells / 2; substeps=2 halves the step at twice the cost.
    The start is checked as in integrate_trajectory, and a domain exit does
    not stop the run: as there, the trajectory is marked with its first
    exit time.
    """
    q0 = _checked_start(frame, q0, domain, substeps)
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (frame.n,) or not np.all(np.isfinite(p0)):
        raise ValueError(f"p0 must be a finite vector of length {frame.n}")
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be a finite number > 0, got {horizon!r}")

    u0 = frame.field_matrix_many(q0).T @ p0
    level = float(np.dot(u0, u0))
    if not abs(level - 1.0) <= _LEVEL_TOL:
        raise ValueError(f"initial covector is off the unit level: 2H = {level!r}")

    n = frame.n
    h = horizon / n_cells
    stack = frame._stack("hamiltonian")
    ys = _rk4_states(stack.step, lambda _: (), np.concatenate([q0, p0]),
                     h / substeps, substeps, n_cells)
    slopes = np.concatenate([stack.eval(ys[lo:lo + FLOW_BATCH])
                             for lo in range(0, n_cells + 1, FLOW_BATCH)])
    mids = 0.5 * (ys[:-1] + ys[1:]) + (h / 8.0) * (slopes[:-1] - slopes[1:])
    states, costates = ys[:, :n], ys[:, n:]
    raw = np.einsum("jnk,jn->jk", frame.field_matrix_many(mids[:, :n]),
                    mids[:, n:])

    norms = np.linalg.norm(raw, axis=1)
    drift = float(np.abs(norms - 1.0).max())
    if not drift <= _CONSERVATION_TOL:
        raise IntegrationError(
            f"Hamiltonian level drifted by {drift:.3e} (> {_CONSERVATION_TOL:.1e}); "
            "refine the grid or substeps")
    control = ControlSignal(horizon, raw / norms[:, None])
    return HamiltonianExtremal(_marked_trajectory(states, control, domain),
                               costates, drift)
