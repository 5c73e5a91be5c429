"""Full-multiplexing analysis: Rayleigh distances, orientation solvers,
the cascaded two-hop multiplexing region, and Gram-matrix verification.

A uniform line array talking to the surface supports orthogonal equal-gain
streams only up to a distance threshold (per surface axis) that scales with
the array span, the surface span and the direction amplitude.  For the
cascaded Tx-surface-Rx link the feasible (D_t, D_r) pairs form a region
bounded by those thresholds and a coupling curve between them; this module
computes the region, solves for the array orientations that realize any
interior point, and verifies the resulting channels numerically.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .channel import ComplexMatrix, side_anchors
from .geometry import ArrayPose, IrsLayout
from .response import WaveConfig

TWO_PI = 2.0 * math.pi


class RayleighResult(NamedTuple):
    """Per-axis multiplexing distance limits of one array side.

    d_r is the overall limit max(d_rx_axis, d_ry_axis); it is only
    meaningful when the surface outcounts the array on both axes, recorded
    by the two applicability flags (d_r is None otherwise).
    """

    d_rx_axis: float
    d_ry_axis: float
    x_applicable: bool
    y_applicable: bool
    d_r: float | None


class OrientationSetting(NamedTuple):
    """One array orientation (psi, gamma) plus the solver branch that chose it."""

    psi: float
    gamma: float
    branch: str


class AxisRegion(NamedTuple):
    """Closed-form description of the x- or y-region of the cascade.

    The region is the union of a rectangle (D_t up to d_t_star, D_r up to
    d_r_rayleigh) and a curved lobe for D_t in (d_t_star, d_t_rayleigh]
    capped by the boundary curve (boundary_cap), which runs from the corner
    (d_t_star, d_r_rayleigh) to (d_t_rayleigh, d_r_star).  The direction
    amplitudes a_t / a_r and anchor angles gbar_t / gbar_r of each side are
    (this axis, other axis) pairs.
    """

    d_t_star: float
    d_t_rayleigh: float
    d_r_star: float
    d_r_rayleigh: float
    gamma_star: float
    gamma_star_r: float
    a_t: tuple[float, float]
    gbar_t: tuple[float, float]
    a_r: tuple[float, float]
    gbar_r: tuple[float, float]


class FmrBound(NamedTuple):
    """The cascaded multiplexing region: one AxisRegion per surface axis."""

    x: AxisRegion
    y: AxisRegion

    def axis(self, name: str) -> AxisRegion:
        """The region of surface axis 'x' or 'y'; any other name is an error."""
        if name == "x":
            return self.x
        if name == "y":
            return self.y
        raise ValueError("region must be 'x' or 'y'")


class GramReport(NamedTuple):
    """Outcome of an orthogonality/equal-gain check of a channel matrix."""

    max_offdiag: float
    diag_values: np.ndarray
    passed: bool


def rayleigh_distances(pose: ArrayPose, layout: IrsLayout, wave: WaveConfig) -> RayleighResult:
    """Per-axis multiplexing distance limits d*S*Q*A/lambda for one side."""
    a_x, _, a_y, _ = side_anchors(pose)
    lam = wave.wavelength
    drx = pose.spacing * layout.spacing_x * layout.q_x * a_x / lam
    dry = pose.spacing * layout.spacing_y * layout.q_y * a_y / lam
    xa = layout.q_x >= pose.n_antennas
    ya = layout.q_y >= pose.n_antennas
    return RayleighResult(
        d_rx_axis=drx,
        d_ry_axis=dry,
        x_applicable=xa,
        y_applicable=ya,
        d_r=max(drx, dry) if (xa and ya) else None,
    )


def single_hop_orientation(
    pose: ArrayPose, layout: IrsLayout, wave: WaveConfig, axis: str
) -> OrientationSetting:
    """Orientation giving orthogonal equal-gain single-hop streams via one axis.

    Default branch: point the array at the axis anchor angle and open the
    tilt so that sin(psi) = D / D_axis; requires D within the axis limit and
    enough surface elements along that axis.
    """
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    rr = rayleigh_distances(pose, layout, wave)
    _, gbar_x, _, gbar_y = side_anchors(pose)
    d_axis, anchor, count = {
        "x": (rr.d_rx_axis, gbar_x, layout.q_x),
        "y": (rr.d_ry_axis, gbar_y, layout.q_y),
    }[axis]
    if count < pose.n_antennas:
        raise ValueError(
            f"axis '{axis}' has {count} elements for {pose.n_antennas} antennas; "
            "full multiplexing needs at least as many elements as antennas"
        )
    if pose.distance > d_axis:
        raise ValueError(
            f"distance {pose.distance:g} m exceeds the axis limit {d_axis:g} m"
        )
    psi = math.asin(min(1.0, pose.distance / d_axis))
    return OrientationSetting(psi=psi, gamma=anchor % TWO_PI, branch=f"{axis}-default")


def _gamma_star(a_t, g_t, a_r, g_r) -> float:
    """Apex orientation angle of one side on the region axis.

    a_t / g_t are that side's (region axis, other axis) anchors, a_r / g_r
    the far side's; swapping the two sides gives the far side's apex.
    """
    (a_t1, a_t2), (g_t1, g_t2), (a_r1, a_r2), (g_r1, g_r2) = a_t, g_t, a_r, g_r
    num = a_t2 * a_r1 * math.cos(g_t2) - a_t1 * a_r2 * math.cos(g_r1 - g_r2) * math.cos(g_t1)
    den = a_t1 * a_r2 * math.cos(g_r1 - g_r2) * math.sin(g_t1) - a_t2 * a_r1 * math.sin(g_t2)
    return math.atan2(num, den)


def _axis_region(a_t, g_t, a_r, g_r, d_t_rayleigh, d_r_rayleigh) -> AxisRegion:
    """One axis's region from both sides' (this axis, other axis) anchors."""
    gamma_star = _gamma_star(a_t, g_t, a_r, g_r)
    gamma_star_r = _gamma_star(a_r, g_r, a_t, g_t)
    return AxisRegion(
        d_t_star=d_t_rayleigh * abs(math.cos(gamma_star - g_t[0])),
        d_t_rayleigh=d_t_rayleigh,
        d_r_star=d_r_rayleigh * abs(math.cos(gamma_star_r - g_r[0])),
        d_r_rayleigh=d_r_rayleigh,
        gamma_star=gamma_star,
        gamma_star_r=gamma_star_r,
        a_t=a_t,
        gbar_t=g_t,
        a_r=a_r,
        gbar_r=g_r,
    )


def fmr_inner_bound(
    tx: ArrayPose, rx: ArrayPose, layout: IrsLayout, wave: WaveConfig
) -> FmrBound:
    """Closed-form inner bound of the cascaded full-multiplexing region.

    Only the directions, spacings and counts of the poses matter here; the
    pose distance fields are ignored (the region lives on the (D_t, D_r)
    plane).
    """
    n_sum = tx.n_antennas + rx.n_antennas - 2
    if not n_sum < 2 * layout.q_x:
        raise ValueError(
            f"needs N_t + N_r - 2 < 2*Q_x ({n_sum} >= {2 * layout.q_x})"
        )
    if not n_sum < 2 * layout.q_y:
        raise ValueError(
            f"needs N_t + N_r - 2 < 2*Q_y ({n_sum} >= {2 * layout.q_y})"
        )
    a_tx, g_tx, a_ty, g_ty = side_anchors(tx)
    a_rx, g_rx, a_ry, g_ry = side_anchors(rx)
    rt = rayleigh_distances(tx, layout, wave)
    rr = rayleigh_distances(rx, layout, wave)
    return FmrBound(
        x=_axis_region((a_tx, a_ty), (g_tx, g_ty), (a_rx, a_ry), (g_rx, g_ry),
                       rt.d_rx_axis, rr.d_rx_axis),
        y=_axis_region((a_ty, a_tx), (g_ty, g_tx), (a_ry, a_rx), (g_ry, g_rx),
                       rt.d_ry_axis, rr.d_ry_axis),
    )


def _boundary_cap(reg: AxisRegion, d_t: float):
    """Boundary D_r cap at one D_t and the (Rx, Tx) angles achieving it.

    The two Tx tilt branches tan(gamma_t - gbar_t) = s * ratio, with ratio
    = sqrt((d_t_rayleigh/D_t)^2 - 1), each induce one Rx angle; the branch
    with the larger cap wins and sets the Tx angle.
    """
    (a_t1, a_t2), (g_t1, g_t2) = reg.a_t, reg.gbar_t
    (a_r1, a_r2), (g_r1, g_r2) = reg.a_r, reg.gbar_r
    ratio = math.sqrt(max(0.0, (reg.d_t_rayleigh / d_t) ** 2 - 1.0))
    delta = g_t1 - g_t2
    best_cap, best_gamma, best_branch = -1.0, 0.0, 1.0
    for s in (+1.0, -1.0):
        mix = math.cos(delta) - s * math.sin(delta) * ratio
        num = a_t1 * a_r2 * math.cos(g_r2) - a_t2 * a_r1 * math.cos(g_r1) * mix
        den = a_t2 * a_r1 * math.sin(g_r1) * mix - a_t1 * a_r2 * math.sin(g_r2)
        gamma = math.atan2(num, den)
        cap = reg.d_r_rayleigh * abs(math.cos(gamma - g_r1))
        if cap > best_cap:
            best_cap, best_gamma, best_branch = cap, gamma, s
    return best_cap, best_gamma, g_t1 + math.atan(best_branch * ratio)


def boundary_cap(bound: FmrBound, axis: str, d_t: float) -> float:
    """Exact boundary D_r cap at one D_t (not interpolated from samples)."""
    return _boundary_cap(bound.axis(axis), d_t)[0]


def _column(reg: AxisRegion, d_t: float):
    """(part, D_r cap, gamma_t, psi_t, gamma_r) of the region at one D_t >= 0,
    or None beyond the axis limit.

    The region holds every D_r up to the cap.  On the rectangle (D_t up to
    d_t_star) the cap is the Rx axis limit, reached with the Rx at its axis
    anchor and the Tx at its apex angle, tilted to sin(psi_t) =
    D_t/d_t_star; on the lobe it is the boundary curve, with the Tx fully
    open.  Turning an azimuth by pi negates both of that side's axis
    couplings, which keeps their sign match, so each is taken modulo pi.
    """
    if d_t <= reg.d_t_star:
        psi_t = math.asin(min(1.0, d_t / reg.d_t_star))
        return "rect", reg.d_r_rayleigh, reg.gamma_star % math.pi, psi_t, reg.gbar_r[0] % math.pi
    if d_t <= reg.d_t_rayleigh:
        cap, gamma_r, gamma_t = _boundary_cap(reg, d_t)
        return "lobe", cap, gamma_t % math.pi, math.pi / 2, gamma_r % math.pi
    return None


def region_grid(bound: FmrBound, d_t, d_r, regions=("x", "y"), probe="x"):
    """(inside, served, poses, columns) of the (D_t, D_r) grid.

    columns[i] holds the K + 1 columns at D_t i: one _column per region
    (None past its axis limit) and the probe, the rectangle of region probe
    at D_t = 0 (None if probe is None); all are None at D_t <= 0.
    inside (T, R, K) flags each region's points (0 < D_r <= cap), and
    served (T, R) picks a point's column: the first region holding it, else
    the probe (K), whose clamped settings fail the Gram check outside, which
    is the point.  poses (T, R, 6) holds each point's Tx (D_t, gamma, psi)
    and Rx (D_r, gamma, psi) from its column, NaN where none serves; the Rx
    tilt asin(min(1, D_r/cap)) is the only per-point angle.
    """
    regs = [bound.axis(name) for name in regions]
    d_t, d_r = np.asarray(d_t, dtype=float), np.asarray(d_r, dtype=float)
    if probe is not None:
        reg_p = bound.axis(probe)
        if d_t.size and d_r.size and not (np.all(d_t > 0.0) and np.all(d_r > 0.0)):
            raise ValueError("distances must be positive")
        # D_t = 0 always lies on the rectangle
        _, cap_p, gamma_t_p, _, gamma_r_p = _column(reg_p, 0.0)
    columns = [[None] * (len(regs) + 1) for _ in range(len(d_t))]
    for row, t in zip(columns, d_t.tolist()):
        if t > 0.0:
            row[:-1] = [_column(reg, t) for reg in regs]
            if probe is not None:  # the rectangle's settings, Tx tilt clamped
                psi_t = math.asin(min(1.0, t / reg_p.d_t_star))
                row[-1] = ("probe", cap_p, gamma_t_p, psi_t, gamma_r_p)
    # per column: cap, gamma_t, psi_t, gamma_r
    table = np.array([[(math.nan,) * 4 if c is None else c[1:] for c in row] for row in columns])
    table = table.reshape(len(columns), len(regs) + 1, 4)
    inside = (0.0 < d_r)[:, None] & (d_r[:, None] <= table[:, None, :-1, 0])
    served = np.argmax(np.dstack([inside, np.ones(inside.shape[:2], dtype=bool)]), axis=-1)
    picked = table[np.arange(len(table))[:, None], served]
    cap, gamma_t, psi_t, gamma_r = picked.transpose(2, 0, 1)
    ratio = np.minimum(1.0, d_r / cap)
    psi_r = np.reshape([math.asin(v) for v in ratio.ravel().tolist()], ratio.shape)
    d_t, d_r = np.broadcast_arrays(d_t[:, None], d_r)
    return inside, served, np.stack([d_t, gamma_t, psi_t, d_r, gamma_r, psi_r], -1), columns


def _point_settings(grid, region: str):
    """The (Tx, Rx) orientations serving the one point of a region_grid."""
    _, served, poses, columns = grid
    _, gamma_t, psi_t, _, gamma_r, psi_r = poses[0, 0].tolist()
    branch = f"{region}-{columns[0][served[0, 0]][0]}"
    tx = OrientationSetting(psi=psi_t, gamma=gamma_t, branch=branch)
    return tx, OrientationSetting(psi=psi_r, gamma=gamma_r, branch=branch)


def region_contains(bound: FmrBound, d_t: float, d_r: float, axis: str) -> bool:
    """Closed-form membership of (d_t, d_r) in the x- or y-region."""
    return bool(region_grid(bound, [d_t], [d_r], (axis,), None)[0])


def fmr_orientations(
    bound: FmrBound, d_t: float, d_r: float, region: str
) -> tuple[OrientationSetting, OrientationSetting]:
    """Array orientations realizing full multiplexing at an in-region point.

    Rectangle part: the Tx points at its apex angle with sin(psi_t) =
    D_t/D_t_star, the Rx at its axis anchor with sin(psi_r) = D_r/D_r_axis.
    Lobe part: the Tx opens fully (psi_t = pi/2) with the angle offset
    tan(gamma_t - gbar) = ratio, and the Rx follows the boundary-curve
    angle with sin(psi_r) = D_r/cap.
    """
    reg = bound.axis(region)
    if not (d_t > 0.0 and d_r > 0.0):
        raise ValueError("distances must be positive")
    grid = region_grid(bound, [d_t], [d_r], (region,), None)
    column = grid[3][0][0]
    if column is None:
        raise ValueError(f"D_t = {d_t:g} m exceeds the axis limit {reg.d_t_rayleigh:g} m")
    part, cap = column[:2]
    if d_r > cap:
        if part == "rect":
            raise ValueError(f"D_r = {d_r:g} m exceeds the rectangle cap {cap:g} m")
        raise ValueError(
            f"D_r = {d_r:g} m exceeds the boundary cap {cap:g} m at D_t = {d_t:g} m"
        )
    return _point_settings(grid, region)


def fmr_probe_orientation(
    bound: FmrBound, d_t: float, d_r: float, region: str
) -> tuple[OrientationSetting, OrientationSetting]:
    """Best-effort orientations at any point: region_grid's clamped probe."""
    return _point_settings(region_grid(bound, [d_t], [d_r], (), region), region)


def check_orthogonality(
    matrix: ComplexMatrix,
    mode: str,
    target_gain,
    tol_off: float = 1e-6,
    tol_diag: float = 1e-8,
) -> GramReport:
    """Gram-matrix test: off-diagonals near zero, diagonals near target_gain.

    mode 'columns' checks pairwise column inner products (M^H M), 'rows'
    checks row inner products (M M^H).  Passing requires the largest
    off-diagonal magnitude to stay below tol_off * target_gain and every
    diagonal to stay within tol_diag relative of target_gain.

    matrix may be a (..., n, m) stack, with target_gain a scalar or one
    value per matrix; the report's fields then carry the leading axes.
    """
    m = np.asarray(matrix)
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    m_h = np.swapaxes(m.conj(), -1, -2)
    if mode == "columns":
        gram = m_h @ m
    elif mode == "rows":
        gram = m @ m_h
    else:
        raise ValueError("mode must be 'columns' or 'rows'")
    n = gram.shape[-1]
    diag_c = np.diagonal(gram, axis1=-2, axis2=-1)
    diag = np.real(diag_c).copy()
    off = np.where(np.eye(n, dtype=bool), gram - diag_c[..., None], gram)
    max_off = np.max(np.abs(off), axis=(-2, -1)) if n > 1 else np.zeros(gram.shape[:-2])
    target = np.asarray(target_gain)[..., None]
    passed = (max_off <= tol_off * target[..., 0]) & np.all(
        np.abs(diag - target) <= tol_diag * target, axis=-1
    )
    if m.ndim == 2:
        max_off, passed = float(max_off), bool(passed)
    return GramReport(max_offdiag=max_off, diag_values=diag, passed=passed)
