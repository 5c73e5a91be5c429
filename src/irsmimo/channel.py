"""Cascaded two-hop channel matrices and their closed form.

Every Tx-antenna/element and element/Rx-antenna link contributes a unit
phasor exp(-j*2*pi*(d - D)/lambda) with d the second-order expanded
distance from the geometry module and D the side's center distance.  The
phase 2*pi*D/lambda is common to every entry of a hop, so it is left out:
it changes no MI, singular value, Gram verdict or bound, and kept in each
entry it would cost about D/lambda * 1e-16 rad of phase there.  The
surface applies one programmable phase per element; the end-to-end
N_r x N_t channel is the phased double sum scaled by the common gain.  For
reflective focusing the double sum collapses to a product of a
per-antenna quadratic phase factor and two Dirichlet ratios, which this
module also evaluates directly (closed_form_cascades) from each side's
pose terms, one numpy pass per stack of poses: numpy's float64 sin and cos
give libm's bits, which a test of the scalar formula holds them to, and
only the squares of s sin psi keep libm's pow, as numpy's x*x may differ.
The phase factors are unit-modulus and diagonal on each side, so they
change no Gram entry's magnitude: focused_kernels gives the real kernel
gain * D_x * D_y alone, on which fmr-map --verify judges its points.

The phase is separable in the tilt.  With v1, v2, v3 the element's
local-frame components, r_p the antenna position and (gamma, psi) the
tilt, the expanded path phase pi*(a^2 + b^2)/(lambda*D) + k0*a_z splits
exactly into an element term pi*(v1^2 + v2^2)/(lambda*D) - k0*v3, an
antenna term k0*(r_p^2 sin^2 psi/(2D) + r_p cos psi) and one rank-one
coupling r_p * k0/D * sin psi * (v1 cos gamma + v2 sin gamma).

One function builds link phases: pose_side takes the orientation-free terms
of one side (link_side) and synthesizes that side at every (distance, gamma,
psi) row of a (B, 3) stack in one numpy pass.  A scenario's own array is the
stack of one, which feeds tx_irs_channel, irs_rx_channel, propagation_phases,
reflective_focusing and build_channels.
build_channels, the one scenario-level builder, evaluates each side once
and takes the surface phases from the scenario's focusing mode.
The antenna term is a unit-modulus factor per antenna, which leaves every
singular value of the cascade as it is, so at fixed surface phases the MI
depends on the tilts only through each side's coupling E[q, p] =
exp(j r_p t_q).  The optimizer (optimize._LinkKernel) scores its points
on the reduced cascade eta0 E_r^T diag(theta * elements) E_t of a
resolved link at any real angles, built from the LinkSide terms here.
reflective_cascades builds focused cascades by brute force at the
(B, 6) poses and (B,) gains that closed_form_cascades takes, which gives
the same cascades at O(N_r*N_t) per link.  Each row of a stack is computed
apart from the others, so a pose's hops do not depend on the stack around
it.

Element-to-matrix ordering: elements are laid out row-major with the x
index k slow and the y index l fast, i.e. element (k, l) occupies row
(k + (Q_x-1)/2)*Q_y + (Q_y-1)/2 + l.  Antenna p maps to column
p + (N-1)/2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import response
from .geometry import (
    ArrayPose,
    IrsLayout,
    centered_indices,
    check_distance,
    check_orientation,
    local_frame,
    re_local_components,
)
from .scenario import Scenario

ComplexMatrix = np.ndarray

# A-factors below this are treated as a degenerate pose (array edge-on in
# the surface plane); the anchor angles are undefined there.
DEGENERATE_A = 1e-15


class CouplingConstants(NamedTuple):
    """Dimensionless spatial-frequency couplings of both hops along both
    surface axes; side_anchors gives the direction amplitudes and anchor
    angles they are formed from."""

    c_tx: float
    c_ty: float
    c_rx: float
    c_ry: float


class ChannelSet(NamedTuple):
    """Both hop matrices, the surface phases, common gain and the cascade."""

    h_t: ComplexMatrix
    h_r: ComplexMatrix
    theta: np.ndarray
    eta0: float
    h: ComplexMatrix


class LinkSide(NamedTuple):
    """The orientation-free terms of one side at one wavelength.

    v1, v2 are the element components along the side's local n_x and n_y
    (re_local_components), fresnel = pi*(v1^2 + v2^2)/lambda and axial =
    k0*v3 the numerator and the axial part of the element term
    fresnel/D - axial, each (Q,); r holds the antenna positions (N,).
    """

    v1: np.ndarray
    v2: np.ndarray
    fresnel: np.ndarray
    axial: np.ndarray
    r: np.ndarray
    distance: float
    k0: float


def link_side(lam: float, layout: IrsLayout, pose: ArrayPose) -> LinkSide:
    """The LinkSide of pose against the surface, for pose_side to move and tilt."""
    v1, v2, v3 = re_local_components(layout, pose)
    k0 = 2.0 * math.pi / lam
    r = centered_indices(pose.n_antennas) * pose.spacing
    fresnel = (math.pi / lam) * (v1 * v1 + v2 * v2)
    return LinkSide(v1, v2, fresnel, k0 * v3, r, pose.distance, k0)


def pose_side(side: LinkSide, keys):
    """Phases (B, Q, N) of side moved and tilted to each (distance, gamma,
    psi) row of the (B, 3) sequence keys; each row must make a valid pose.

    The phase is the separable elem_q + k0*(r_p^2 sin^2 psi/(2D) + r_p cos
    psi) - r_p*t_q, with the tilt coupling t = k0/D * sin psi * (v1 cos
    gamma + v2 sin gamma) (B, Q) and each row's trig taken with libm.  Only
    elementwise broadcasts form it, so a row is computed apart from the
    rest of its stack, and a caller bounds its temporaries by the rows it
    passes.
    """
    rows = []
    for d, gamma, psi in keys:
        check_distance(d)
        check_orientation(gamma, psi)
        s = math.sin(psi)
        kappa = side.k0 / d
        rows.append((kappa * s * math.cos(gamma), kappa * s * math.sin(gamma),
                     0.5 * kappa * s * s, side.k0 * math.cos(psi), d))
    along_x, along_y, quad, lin, d = np.array(rows, dtype=float).reshape(-1, 5).T[..., None]
    coupling = side.v1 * along_x + side.v2 * along_y
    antenna = (side.r * side.r) * quad + side.r * lin
    elem = side.fresnel / d - side.axial
    return (elem[..., None] + antenna[:, None, :]) - side.r * coupling[..., None]


def _own_pose(pose: ArrayPose) -> list[float]:
    """The (distance, gamma, psi) a pose stands at."""
    return [pose.distance, pose.orient_azimuth, pose.orient_elevation]


def _own_phases(wave, layout: IrsLayout, pose: ArrayPose):
    """Link phases of one array at its own pose, a stack of one."""
    return pose_side(link_side(wave.wavelength, layout, pose), [_own_pose(pose)])


def propagation_phases(wave, layout: IrsLayout, pose: ArrayPose) -> np.ndarray:
    """Link phases 2*pi*(d_approx - D)/lambda, shape (q_x*q_y, n_antennas)."""
    return _own_phases(wave, layout, pose)[0]


def orientation_phase_jacobian(wave, layout: IrsLayout, pose: ArrayPose):
    """Partial derivatives of the link phases in the pose's orientation angles.

    Returns (d_phase/d_gamma, d_phase/d_psi), both shaped like
    propagation_phases.  The tilt moves each antenna's transverse offsets,
    which enter the phase quadratically, and its axial coordinate.
    """
    side = link_side(wave.wavelength, layout, pose)
    gamma, psi = pose.orient_azimuth, pose.orient_elevation
    s, c, cg, sg = math.sin(psi), math.cos(psi), math.cos(gamma), math.sin(gamma)
    kappa = side.k0 / side.distance
    d_gamma = np.multiply.outer(kappa * s * (side.v1 * sg - side.v2 * cg), side.r)
    d_psi = ((side.r * side.r) * (kappa * s * c) - side.r * (side.k0 * s)) - np.multiply.outer(
        kappa * c * (side.v1 * cg + side.v2 * sg), side.r
    )
    return d_gamma, d_psi


def side_hops(phases) -> ComplexMatrix:
    """Unit-modulus link phasors of one side's phases, elements along rows."""
    return np.exp(-1j * phases)


def tx_irs_channel(scn: Scenario) -> ComplexMatrix:
    """Unit-modulus Tx-to-surface matrix, elements along rows."""
    return side_hops(_own_phases(scn.wave, scn.irs, scn.tx))[0]


def irs_rx_channel(scn: Scenario) -> ComplexMatrix:
    """Unit-modulus surface-to-Rx matrix, antennas along rows."""
    return side_hops(_own_phases(scn.wave, scn.irs, scn.rx))[0].T.copy()


class ResolvedLink(NamedTuple):
    """A scenario's link with everything but the two array tilts resolved:
    both sides, the common gain eta0 and the element phasors
    exp(-j(elem_t + elem_r)) (Q,) of both sides' element terms."""

    tx: LinkSide
    rx: LinkSide
    eta0: float
    elements: np.ndarray


def resolve_link(scn: Scenario) -> ResolvedLink:
    """The orientation-free terms of scn, for evaluating many tilts of one link."""
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    lam = scn.wave.wavelength
    tx, rx = (link_side(lam, scn.irs, pose) for pose in (scn.tx, scn.rx))
    elem = (tx.fresnel / tx.distance - tx.axial) + (rx.fresnel / rx.distance - rx.axial)
    return ResolvedLink(tx, rx, gain, np.exp(-1j * elem))


def _reflective_betas(phases_t, phases_r):
    """Reflective focusing phases: the summed center-antenna phases of both
    sides per element; leading batch axes carry through."""
    return phases_t[..., phases_t.shape[-1] // 2] + phases_r[..., phases_r.shape[-1] // 2]


def reflective_focusing(scn: Scenario) -> np.ndarray:
    """Phases beta that make all element paths from Tx center add in phase at Rx center.

    beta equals the summed center-link phases 2*pi*(d_t0 - D_t + d_0r -
    D_r)/lambda, so the compensated center-to-center entry carries zero
    residual phase.
    """
    phases_t, phases_r = (_own_phases(scn.wave, scn.irs, pose) for pose in (scn.tx, scn.rx))
    return _reflective_betas(phases_t, phases_r)[0]


def _cascade(betas, h_t, h_r, gain) -> ChannelSet:
    theta = np.exp(1j * betas)
    h = gain * ((h_r * theta[..., None, :]) @ h_t)
    return ChannelSet(h_t=h_t, h_r=h_r, theta=theta, eta0=gain, h=h)


def build_channels(scn: Scenario) -> ChannelSet:
    """Both hops, the surface phases of the scenario's focusing mode and
    the cascade h = eta0 * H_r diag(theta) H_t; each side is evaluated once."""
    phases_t, phases_r = (_own_phases(scn.wave, scn.irs, pose) for pose in (scn.tx, scn.rx))
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    if scn.focusing_mode == "reflective":
        betas = _reflective_betas(phases_t, phases_r)[0]
    elif scn.focusing_mode == "zero":
        betas = np.zeros(scn.irs.n_elements)
    else:
        betas = np.asarray(scn.focusing_betas, dtype=float)
    return _cascade(betas, side_hops(phases_t)[0], side_hops(phases_r)[0].T.copy(), gain)


def reflective_cascades(scn: Scenario, poses, gain) -> ComplexMatrix:
    """Reflectively focused cascades (B, N_r, N_t) of B posed links by brute
    force: both hops synthesized and the phased double sum assembled.

    poses (B, 6) and gain (B,) are what closed_form_cascades takes, and
    every row must make valid poses.  Each cascade equals build_channels of
    its posed scenario bit for bit.
    """
    rows = np.asarray(poses, dtype=float).reshape(-1, 6).tolist()
    lam = scn.wave.wavelength
    phases_t, phases_r = (
        pose_side(link_side(lam, scn.irs, pose), [row[at : at + 3] for row in rows])
        for pose, at in ((scn.tx, 0), (scn.rx, 3))
    )
    hops_r = np.swapaxes(side_hops(phases_r), -1, -2)
    gain = np.asarray(gain, dtype=float)[:, None, None]
    return _cascade(_reflective_betas(phases_t, phases_r), side_hops(phases_t), hops_r, gain).h


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
    """(c_x, c_y, w, lin), each (B, 1, 1), of one side at the B poses
    (distance, gamma, psi) of rows (B, 3): its couplings to the surface
    axes, and w = s sin psi and lin = s cos psi, with s the antenna spacing,
    whose w**2 and lin weigh its antennas' quadratic and linear phase.  One
    numpy pass forms them: numpy's float64 sin and cos return libm's bits
    (a test holds them to the scalar formula), but its w*w is not libm's
    pow(w, 2), so closed_form_cascades squares w per row.  An infinite tilt,
    which libm refuses, and a zero lambda * distance are refused."""
    a_x, g_x, a_y, g_y = side_anchors(pose)
    lam, irs, s = scn.wave.wavelength, scn.irs, pose.spacing
    k_x = s * irs.spacing_x * irs.q_x * a_x
    k_y = s * irs.spacing_y * irs.q_y * a_y
    d, gamma, psi = np.asarray(rows, dtype=float).reshape(-1, 3).T
    if np.isinf(gamma).any() or np.isinf(psi).any() or not (lam * d).all():
        raise ValueError("a side pose needs finite tilts and a nonzero lambda * distance")
    # rows fill the result in turn; stacking four finished rows raised a map's peak RSS
    terms, sin_psi = np.empty((4, len(d))), np.sin(psi)
    terms[0] = k_x * sin_psi * np.cos(gamma - g_x) / (lam * d)
    terms[1] = k_y * sin_psi * np.cos(gamma - g_y) / (lam * d)
    terms[2] = s * sin_psi
    terms[3] = s * np.cos(psi)
    return terms[..., None, None]


def pose_terms(scn: Scenario, poses):
    """The Tx and Rx _side_terms (4, B, 1, 1) of the B links at poses (B, 6)."""
    poses = np.asarray(poses, dtype=float).reshape(-1, 6)
    return _side_terms(scn, scn.tx, poses[:, :3]), _side_terms(scn, scn.rx, poses[:, 3:])


def coupling_constants(scn: Scenario) -> CouplingConstants:
    """The four couplings of the cascade at the scenario's own poses."""
    own = pose_terms(scn, [_own_pose(scn.tx) + _own_pose(scn.rx)])
    return CouplingConstants(*(c for terms in own for c in terms[:2].ravel().tolist()))


def dirichlet_ratio(u, q: int):
    """sin(pi*u)/sin(pi*u/q), continuous across its removable singularities.

    u is first reduced to r = u - m*q with m = round(u/q), where the ratio is
    (-1)^(m*(q-1)) sin(pi*r)/sin(pi*r/q).  r is exact, so nothing cancels
    next to the singular points u = m*q, and at r = 0 the limit is q; where
    |u| >= 2^52 u is first reduced exactly modulo 2q, so r stays exact.  The
    sign is exact at every m: it is 1 for an odd q and (-1)^m for an even
    one, where m is even exactly when the exact half m/2 is an integer, so no
    product m*(q-1) is rounded.  A NaN or infinite u gives NaN.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    # an infinite u leaves r NaN, and so the ratio; at r = 0, or where
    # sin(pi*r/q) underflows, the division is by 0 and the limit replaces it below
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.round(u / q)
        # from 2^52 up every u is an integer and q*m is no longer exact, or
        # overflows; the ratio has period 2q, to which fmod reduces exactly.
        # Every |u| is below 2^52 when the squares of m sum below (2^51/q)^2.
        if not np.vdot(m, m) < (2.0**51 / q) ** 2:
            u = np.where(np.abs(u) < 2.0**52, u, np.fmod(u, 2 * q))
            m = np.round(u / q)
        pi_r = np.pi * (u - q * m)
        den = np.sin(pi_r / q)
        ratio = np.sin(pi_r, out=pi_r)
        ratio /= den
    # below 1e-300 the quotient would be of subnormals; the limit q is exact there
    ratio[np.abs(den) <= 1e-300] = q
    if q % 2 == 0:
        half = m / 2
        ratio *= np.where(half == np.round(half), 1.0, -1.0)
    return float(ratio[0]) if scalar else ratio


def _dirichlet_factors(scn: Scenario, terms):
    """(p, q, d_x, d_y) of the B reflectively focused links whose sides have
    the pose_terms terms: the centered antenna indices p, q and the two
    Dirichlet ratios (B, N_r, N_t) of the coupled spatial frequencies
    u_x = c_tx*p + c_rx*q and u_y = c_ty*p + c_ry*q."""
    p = centered_indices(scn.tx.n_antennas).astype(float)
    q = centered_indices(scn.rx.n_antennas).astype(float)[:, None]
    (c_tx, c_ty, _, _), (c_rx, c_ry, _, _) = terms
    d_x = _mirrored_ratio(c_tx * p + c_rx * q, scn.irs.q_x)
    d_y = _mirrored_ratio(c_ty * p + c_ry * q, scn.irs.q_y)
    return p, q, d_x, d_y


def focused_kernels(scn: Scenario, terms, gain) -> np.ndarray:
    """Real kernels gain * D_x * D_y (B, N_r, N_t) of B links from their
    pose_terms and gains (B,): closed_form_cascades without its phase factors.

    The cascade is diag(a_r) K diag(a_t) with unit-modulus a_r, a_t, so its
    Gram matrices are K K^T and K^T K conjugated by a diagonal unitary:
    every diagonal entry and off-diagonal magnitude, and so every Gram
    verdict, is the kernel's.
    """
    _, _, kernel, d_y = _dirichlet_factors(scn, terms)
    kernel *= np.asarray(gain, dtype=float)[:, None, None]
    kernel *= d_y
    return kernel


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
    (_, _, w_t, lin_t), (_, _, w_r, lin_r) = terms = pose_terms(scn, poses)
    p, q, d_x, d_y = _dirichlet_factors(scn, terms)
    # libm's pow(w, 2) per row: numpy's w*w differs from it in about 8 of 10^4 values
    sq_t, sq_r = (np.array([v**2 for v in w.ravel().tolist()]).reshape(w.shape) for w in (w_t, w_r))
    d_t, d_r = poses[:, 0, None, None], poses[:, 3, None, None]
    quad_t = sq_t * p**2 / (2.0 * d_t) + lin_t * p
    quad_r = sq_r * q**2 / (2.0 * d_r) + lin_r * q
    phase = (2.0 * math.pi / scn.wave.wavelength) * (quad_t + quad_r)
    return np.asarray(gain, dtype=float)[:, None, None] * np.exp(-1j * phase) * d_x * d_y


def _mirrored_ratio(u, q: int):
    """dirichlet_ratio of the spatial frequencies u (B, N_r, N_t) of B
    links, evaluated on the first ceil(N_r*N_t/2) entries of each link.

    The antenna indices are centered, so flipping both axes negates u
    exactly, and the ratio is even bit for bit wherever sin is odd bit for
    bit, as numpy's is: each link's flattened second half is its first half
    reversed.  The closed-form tests hold every link to a full evaluation.
    """
    b, n_r, n_t = u.shape
    n = n_r * n_t
    half = (n + 1) // 2
    flat = np.empty((b, n))
    flat[:, :half] = dirichlet_ratio(u.reshape(b, n)[:, :half], q)
    flat[:, half:] = flat[:, : n - half][:, ::-1]
    return flat.reshape(u.shape)


def closed_form_channel(scn: Scenario) -> ComplexMatrix:
    """Cascade under reflective focusing without the double sum:
    closed_form_cascades at the scenario's own poses."""
    if scn.focusing_mode != "reflective":
        raise ValueError("closed form assumes reflective focusing on the center pair")
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    return closed_form_cascades(scn, [_own_pose(scn.tx) + _own_pose(scn.rx)], [gain])[0]
