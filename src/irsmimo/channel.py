"""Cascaded two-hop channel matrices and their closed form.

Every Tx-antenna/element and element/Rx-antenna link contributes a unit
phasor exp(-j*2*pi*d/lambda) with d the second-order expanded distance from
the geometry module.  The surface applies one programmable phase per
element; the end-to-end N_r x N_t channel is the phased double sum scaled
by the common gain.  For reflective focusing the double sum collapses to a
product of a per-antenna quadratic phase factor and two Dirichlet ratios,
which this module also evaluates directly.

One function builds link phases: pose_side takes the orientation-free terms
of one side (link_side) and synthesizes that side at every (distance, gamma,
psi) row of a (B, 3) stack in one numpy pass.  A scenario's own array is the
stack of one, which feeds tx_irs_channel, irs_rx_channel, propagation_phases,
orientation_phase_jacobian, reflective_focusing and build_channels.
build_channels, the one scenario-level builder, evaluates each side once
and takes the surface phases from the scenario's focusing mode.
pose_link poses both sides of a resolved link at a (B, 4) stack of tilt
vectors, one per trial of the optimizer's line search.  reflective_cascades
builds focused cascades by brute force at the (B, 6) poses and (B,) gains
that closed_form_cascades takes, which gives the same cascades at
O(N_r*N_t) per link.  Each row of a stack is computed apart from the
others, so a pose's hops do not depend on the stack around it.

Element-to-matrix ordering: elements are laid out row-major with the x
index k slow and the y index l fast, i.e. element (k, l) occupies row
(k + (Q_x-1)/2)*Q_y + (Q_y-1)/2 + l.  Antenna p maps to column
p + (N-1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import response
from .geometry import (
    ArrayPose,
    IrsLayout,
    centered_indices,
    check_distance,
    check_orientation,
    fold_orientation,
    local_frame,
    re_local_components,
)
from .scenario import Scenario

ComplexMatrix = np.ndarray

# A-factors below this are treated as a degenerate pose (array edge-on in
# the surface plane); the anchor angles are undefined there.
DEGENERATE_A = 1e-15


@dataclass(frozen=True)
class CouplingConstants:
    """Dimensionless spatial-frequency couplings of both hops along both
    surface axes; side_anchors gives the direction amplitudes and anchor
    angles they are formed from."""

    c_tx: float
    c_ty: float
    c_rx: float
    c_ry: float


@dataclass(frozen=True)
class ChannelSet:
    """Both hop matrices, the surface phases, common gain and the cascade."""

    h_t: ComplexMatrix
    h_r: ComplexMatrix
    theta: np.ndarray
    eta0: float
    h: ComplexMatrix


@dataclass(frozen=True)
class LinkSide:
    """The orientation-free terms of one side: its element components
    (re_local_components), its antennas as a (1, N) row and its distance."""

    v: tuple
    r: np.ndarray
    distance: float


def link_side(layout: IrsLayout, pose: ArrayPose) -> LinkSide:
    """The LinkSide of pose against the surface, for pose_side to move and tilt."""
    r = (centered_indices(pose.n_antennas) * pose.spacing)[None, :]
    return LinkSide(re_local_components(layout, pose), r, pose.distance)


def _link_offsets(v, r, trig):
    """Offsets a, b, ax per (element, antenna) of one side.

    v holds the side's element components, r its antenna positions as a
    (1, N) row and trig the (sin psi, cos psi, cos gamma, sin gamma) of its
    tilts as (B, 1, 1) arrays, which broadcasts every result to (B, Q, N).
    """
    v1, v2, v3 = v
    sin_psi, cos_psi, cos_g, sin_g = trig
    a = r * sin_psi * cos_g - v1[:, None]
    b = r * sin_psi * sin_g - v2[:, None]
    ax = r * cos_psi - v3[:, None]
    return a, b, ax


def _phase_parts(lam: float, offsets, d):
    """(small, big) with small + big = 2*pi*d_approx/lambda per (element, antenna).

    d is the pose distance, broadcast like the trig of _link_offsets.  The
    distance-dominated term big = 2*pi*D/lambda is kept separate so callers
    that only need phase differences can cancel it exactly; the remaining
    polynomial stays on the order of the array/surface spans.
    """
    a, b, ax = offsets
    k0 = 2.0 * math.pi / lam
    small = math.pi * (a * a) / (lam * d) + math.pi * (b * b) / (lam * d) + k0 * ax
    return small, k0 * d


def pose_side(lam: float, side: LinkSide, keys):
    """(offsets, trig, parts) of side moved and tilted to each (distance,
    gamma, psi) row of the (B, 3) sequence keys; each row must make a valid
    pose.

    trig holds the rows' (sin psi, cos psi, cos gamma, sin gamma) as four
    (B, 1, 1) arrays, each taken with libm as for a single pose; offsets
    (_link_offsets) and the (small, big) phase parts (_phase_parts)
    broadcast to (B, Q, N).  All rows are synthesized in one numpy pass, so
    a caller bounds its temporaries by the rows it passes.
    """
    for d, gamma, psi in keys:
        check_distance(d)
        check_orientation(gamma, psi)
    trig = np.array([(math.sin(p), math.cos(p), math.cos(g), math.sin(g)) for _, g, p in keys])
    trig = tuple(trig.reshape(-1, 4).T[:, :, None, None])
    d = np.array([row[0] for row in keys], dtype=float)[:, None, None]
    offsets = _link_offsets(side.v, side.r, trig)
    return offsets, trig, _phase_parts(lam, offsets, d)


def _own_pose(pose: ArrayPose) -> list[float]:
    """The (distance, gamma, psi) a pose stands at."""
    return [pose.distance, pose.orient_azimuth, pose.orient_elevation]


def _own_parts(wave, layout: IrsLayout, pose: ArrayPose):
    """(small, big) phase parts of one array at its own pose, a stack of one."""
    return pose_side(wave.wavelength, link_side(layout, pose), [_own_pose(pose)])[2]


def _phase_jacobian(lam: float, side: LinkSide, offsets, trig):
    """(d_phase/d_gamma, d_phase/d_psi) of one side at its own distance,
    from the offsets and trig pose_side gave it."""
    a, b, _ = offsets
    r = side.r
    sin_psi, cos_psi, cos_g, sin_g = trig
    k0 = 2.0 * math.pi / lam
    pref = k0 / side.distance
    d_gamma = pref * (a * (-r * sin_psi * sin_g) + b * (r * sin_psi * cos_g))
    d_psi = pref * (a * (r * cos_psi * cos_g) + b * (r * cos_psi * sin_g)) + k0 * (-r * sin_psi)
    return d_gamma, d_psi


def propagation_phases(wave, layout: IrsLayout, pose: ArrayPose) -> np.ndarray:
    """Full link phases 2*pi*d_approx/lambda, shape (q_x*q_y, n_antennas)."""
    small, big = _own_parts(wave, layout, pose)
    return (small + big)[0]


def orientation_phase_jacobian(wave, layout: IrsLayout, pose: ArrayPose):
    """Partial derivatives of the link phases in the pose's orientation angles.

    Returns (d_phase/d_gamma, d_phase/d_psi), both shaped like
    propagation_phases.  The transverse offsets contribute through the
    quadratic terms; the tilt additionally moves the axial coordinate.
    """
    side = link_side(layout, pose)
    offsets, trig, _ = pose_side(wave.wavelength, side, [_own_pose(pose)])
    return tuple(x[0] for x in _phase_jacobian(wave.wavelength, side, offsets, trig))


def side_hops(parts) -> ComplexMatrix:
    """Unit-modulus link phasors of one side's (small, big) phases, elements along rows."""
    small, big = parts
    return np.exp(-1j * (small + big))


def tx_irs_channel(scn: Scenario) -> ComplexMatrix:
    """Unit-modulus Tx-to-surface matrix, elements along rows."""
    return side_hops(_own_parts(scn.wave, scn.irs, scn.tx))[0]


def irs_rx_channel(scn: Scenario) -> ComplexMatrix:
    """Unit-modulus surface-to-Rx matrix, antennas along rows."""
    return side_hops(_own_parts(scn.wave, scn.irs, scn.rx))[0].T.copy()


@dataclass(frozen=True)
class ResolvedLink:
    """A scenario's link with everything but the two array tilts resolved:
    both sides, the wavelength and the common gain eta0."""

    tx: LinkSide
    rx: LinkSide
    wavelength: float
    eta0: float


def resolve_link(scn: Scenario) -> ResolvedLink:
    """The orientation-free terms of scn, for evaluating many tilts of one link."""
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    return ResolvedLink(
        link_side(scn.irs, scn.tx), link_side(scn.irs, scn.rx), scn.wave.wavelength, gain
    )


@dataclass(frozen=True)
class PosedLink:
    """Both hops of a resolved link at one tilt of each side, with the
    per-side (offsets, trig) their phase Jacobians are taken from.

    A stacked PosedLink holds B tilts: h_t (B, Q, N_t), h_r (B, N_r, Q) and
    (B, ...) offsets and trig; its [i] is the link posed at tilt i alone.
    """

    link: ResolvedLink
    h_t: ComplexMatrix
    h_r: ComplexMatrix
    terms: tuple

    @property
    def eta0(self) -> float:
        return self.link.eta0

    def __getitem__(self, i) -> PosedLink:
        # lists, not generator expressions: with generators, 2000 one-vector
        # pose_link calls grew the anonymous RSS by 0.4 MB (CPython 3.11)
        terms = tuple([
            (tuple([x[i] for x in offsets]), tuple([t[i] for t in trig]))
            for offsets, trig in self.terms
        ])
        return PosedLink(self.link, self.h_t[i], self.h_r[i], terms)

    def jacobians(self):
        """(jac_t, jac_r): each side's (d_phase/d_gamma, d_phase/d_psi), as
        orientation_phase_jacobian gives them for the posed scenario."""
        sides = (self.link.tx, self.link.rx)
        return tuple(
            _phase_jacobian(self.link.wavelength, side, offsets, trig)
            for side, (offsets, trig) in zip(sides, self.terms)
        )


def pose_link(link: ResolvedLink, m) -> PosedLink:
    """Both hops at the orientation vector m = [gamma_t, psi_t, gamma_r,
    psi_r], or at each row of a (B, 4) stack of them.

    Each (gamma, psi) is folded into a pose's domain and then posed at the
    side's own distance by pose_side, so every hop equals that of
    build_channels at its posed scenario bit for bit.  A stack gives a
    stacked PosedLink; a vector is posed as the stack of one and gives its
    [0].
    """
    vec = np.asarray(m, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != 4:
        raise ValueError("orientation vectors must have four components")
    rows = vec.reshape(-1, 4).tolist()
    hops, terms = [], []
    for side, at in ((link.tx, 0), (link.rx, 2)):
        keys = [(side.distance, *fold_orientation(row[at], row[at + 1])) for row in rows]
        offsets, trig, parts = pose_side(link.wavelength, side, keys)
        hops.append(side_hops(parts))
        terms.append((offsets, trig))
    posed = PosedLink(link, hops[0], np.swapaxes(hops[1], -1, -2).copy(), tuple(terms))
    return posed if vec.ndim == 2 else posed[0]


def _reflective_betas(parts_t, parts_r):
    """Reflective focusing phases: the summed center-antenna phases of both
    sides per element; leading batch axes carry through."""
    (small_t, big_t), (small_r, big_r) = parts_t, parts_r
    c_t, c_r = small_t.shape[-1] // 2, small_r.shape[-1] // 2
    return (small_t[..., c_t] + small_r[..., c_r]) + (big_t + big_r)[..., 0]


def reflective_focusing(scn: Scenario) -> np.ndarray:
    """Phases beta that make all element paths from Tx center add in phase at Rx center.

    beta equals the summed center-link phases 2*pi*(d_t0 + d_0r)/lambda, so
    the compensated center-to-center entry carries zero residual phase.
    """
    parts_t, parts_r = (_own_parts(scn.wave, scn.irs, pose) for pose in (scn.tx, scn.rx))
    return _reflective_betas(parts_t, parts_r)[0]


def _cascade(betas, h_t, h_r, gain) -> ChannelSet:
    theta = np.exp(1j * betas)
    h = gain * ((h_r * theta[..., None, :]) @ h_t)
    return ChannelSet(h_t=h_t, h_r=h_r, theta=theta, eta0=gain, h=h)


def build_channels(scn: Scenario) -> ChannelSet:
    """Both hops, the surface phases of the scenario's focusing mode and
    the cascade h = eta0 * H_r diag(theta) H_t; each side is evaluated once."""
    parts_t, parts_r = (_own_parts(scn.wave, scn.irs, pose) for pose in (scn.tx, scn.rx))
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    if scn.focusing_mode == "reflective":
        betas = _reflective_betas(parts_t, parts_r)[0]
    elif scn.focusing_mode == "zero":
        betas = np.zeros(scn.irs.n_elements)
    else:
        betas = np.asarray(scn.focusing_betas, dtype=float)
    return _cascade(betas, side_hops(parts_t)[0], side_hops(parts_r)[0].T.copy(), gain)


def reflective_cascades(scn: Scenario, poses, gain) -> ComplexMatrix:
    """Reflectively focused cascades (B, N_r, N_t) of B posed links by brute
    force: both hops synthesized and the phased double sum assembled.

    poses (B, 6) and gain (B,) are what closed_form_cascades takes, and
    every row must make valid poses.  Each cascade equals build_channels of
    its posed scenario bit for bit.
    """
    rows = np.asarray(poses, dtype=float).reshape(-1, 6).tolist()
    lam = scn.wave.wavelength
    parts_t, parts_r = (
        pose_side(lam, link_side(scn.irs, pose), [row[at : at + 3] for row in rows])[2]
        for pose, at in ((scn.tx, 0), (scn.rx, 3))
    )
    hops_r = np.swapaxes(side_hops(parts_r), -1, -2)
    gain = np.asarray(gain, dtype=float)[:, None, None]
    return _cascade(_reflective_betas(parts_t, parts_r), side_hops(parts_t), hops_r, gain).h


def side_anchors(pose: ArrayPose) -> tuple[float, float, float, float]:
    """(a_x, gbar_x, a_y, gbar_y) for one array side.

    The a-factors measure how much of the surface's x / y axis survives
    projection transverse to the link; the gbar angles are where an array
    axis must point (in orientation-azimuth terms) to couple purely to that
    surface axis.  Both are read off the surface axes resolved in the
    pose's local_frame, the frame the hops are built in, so they follow its
    fixed convention at elevation 0 too.
    """
    n_x, n_y, _ = local_frame(pose)
    a_x, a_y = math.hypot(n_x[0], n_y[0]), math.hypot(n_x[1], n_y[1])
    if a_x < DEGENERATE_A or a_y < DEGENERATE_A:
        raise ValueError(
            "degenerate geometry: array direction lies in the surface plane "
            "along a surface axis, coupling anchors are undefined"
        )
    return a_x, math.atan2(n_y[0], n_x[0]), a_y, math.atan2(n_y[1], n_x[1])


def _side_terms(scn: Scenario, pose: ArrayPose, rows):
    """(c_x, c_y, sq, lin), each (B, 1, 1), of one side at the B poses
    (distance, gamma, psi) of rows (B, 3).

    c_x, c_y are the side's couplings to the surface axes, and sq = (s sin
    psi)**2 and lin = s cos psi, with s the antenna spacing, the
    coefficients of its antennas' quadratic and linear phase.  Each distinct
    pose gets them as Python floats in one fixed association: numpy's x*x
    and libm's pow(x, 2) differ in the last bit for about 1 in 1000 values.
    """
    a_x, g_x, a_y, g_y = side_anchors(pose)
    lam, irs, s = scn.wave.wavelength, scn.irs, pose.spacing
    k_x = s * irs.spacing_x * irs.q_x * a_x
    k_y = s * irs.spacing_y * irs.q_y * a_y
    keys: dict = {}  # a map repeats each side's poses across the other side's distances
    at = [keys.setdefault(tuple(row), len(keys)) for row in np.asarray(rows).tolist()]
    terms = [
        (
            k_x * sin_psi * math.cos(gamma - g_x) / (lam * d),
            k_y * sin_psi * math.cos(gamma - g_y) / (lam * d),
            (s * sin_psi) ** 2,
            s * math.cos(psi),
        )
        for d, gamma, psi in keys
        for sin_psi in (math.sin(psi),)
    ]
    return np.array(terms, dtype=float).reshape(-1, 4)[at].T[..., None, None]


def coupling_constants(scn: Scenario) -> CouplingConstants:
    """The four couplings of the cascade at the scenario's own poses."""
    (c_tx, c_ty, _, _), (c_rx, c_ry, _, _) = (
        _side_terms(scn, pose, [_own_pose(pose)]).ravel().tolist() for pose in (scn.tx, scn.rx)
    )
    return CouplingConstants(c_tx, c_ty, c_rx, c_ry)


def dirichlet_ratio(u, q: int):
    """sin(pi*u)/sin(pi*u/q), continuous across its removable singularities.

    u is first reduced to r = u - m*q with m = round(u/q), where the ratio is
    (-1)^(m*(q-1)) sin(pi*r)/sin(pi*r/q).  r is exact, so nothing cancels
    next to the singular points u = m*q, and at r = 0 the limit is q.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    m = np.round(u / q)
    r = u - q * m
    den = np.sin(np.pi * r / q)
    # below 1e-300 the quotient would be of subnormals; the limit q is exact there
    ratio = np.divide(np.sin(np.pi * r), den, out=np.full_like(r, q), where=np.abs(den) > 1e-300)
    out = np.where((m * (q - 1)) % 2 == 0, ratio, -ratio)
    return float(out[0]) if scalar else out


def closed_form_cascades(scn: Scenario, poses, gain) -> ComplexMatrix:
    """Reflectively focused cascades (B, N_r, N_t) of B posed links, without
    the double sum.

    Row i of poses (B, 6) holds link i's Tx (D_t, gamma, psi) and Rx (D_r,
    gamma, psi), as multiplexing.region_grid gives them, and gain (B,) its
    common gains from response.cascade_gains.  Entry (q, p) is the gain
    times a per-antenna quadratic/linear phase factor times the two
    Dirichlet ratios of the coupled spatial frequencies.  The coupling
    anchors depend only on where each array sits, so they are read once per
    side, and no array has a surface-sized axis.  Every operation is
    elementwise, so a link's cascade does not depend on the batch around it.
    """
    poses = np.asarray(poses, dtype=float).reshape(-1, 6)
    p = centered_indices(scn.tx.n_antennas).astype(float)
    q = centered_indices(scn.rx.n_antennas).astype(float)[:, None]
    c_tx, c_ty, sq_t, lin_t = _side_terms(scn, scn.tx, poses[:, :3])
    c_rx, c_ry, sq_r, lin_r = _side_terms(scn, scn.rx, poses[:, 3:])
    d_t, d_r = poses[:, 0, None, None], poses[:, 3, None, None]
    quad_t = sq_t * p**2 / (2.0 * d_t) + lin_t * p
    quad_r = sq_r * q**2 / (2.0 * d_r) + lin_r * q
    phase = (2.0 * math.pi / scn.wave.wavelength) * (quad_t + quad_r)
    ux = c_tx * p + c_rx * q
    uy = c_ty * p + c_ry * q
    return (
        np.asarray(gain, dtype=float)[:, None, None]
        * np.exp(-1j * phase)
        * dirichlet_ratio(ux, scn.irs.q_x)
        * dirichlet_ratio(uy, scn.irs.q_y)
    )


def closed_form_channel(scn: Scenario) -> ComplexMatrix:
    """Cascade under reflective focusing without the double sum:
    closed_form_cascades at the scenario's own poses."""
    if scn.focusing_mode != "reflective":
        raise ValueError("closed form assumes reflective focusing on the center pair")
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    return closed_form_cascades(scn, [_own_pose(scn.tx) + _own_pose(scn.rx)], [gain])[0]
