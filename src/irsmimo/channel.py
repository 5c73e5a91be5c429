"""Cascaded two-hop channel matrices and their closed form.

Every Tx-antenna/element and element/Rx-antenna link contributes a unit
phasor exp(-j*2*pi*d/lambda) with d the second-order expanded distance from
the geometry module.  The surface applies one programmable phase per
element; the end-to-end N_r x N_t channel is the phased double sum scaled
by the common gain.  For reflective focusing the double sum collapses to a
product of a per-antenna quadratic phase factor and two Dirichlet ratios,
which this module also evaluates directly.

The hop synthesis broadcasts over a leading batch of side poses.
synthesize_side builds one side at a list of poses, and posed_cascades
assembles reflectively focused cascades from two such sides, pose by pose,
bit for bit equal to building each cascade alone.  reflective_cascades is the two in one call, and eigensweep builds
its Tx hops through synthesize_side too.  closed_form_cascades gives the
same cascades at O(N_r*N_t) per link; fmr-map --verify checks its grid on
them and builds only its spot-check points by brute force.
resolve_link takes the terms of a link that do not depend on the array
tilts once, and pose_link evaluates both hops from them at a tilt vector or
at a (B, 4) stack of tilt vectors in one numpy pass per side, each bit for
bit equal to hop_matrices of its posed scenario; a vector is posed as the
stack of one.  The optimizer's orientation descent runs on these two: each
line search poses its trial tilts as one stack.

Element-to-matrix ordering: elements are laid out row-major with the x
index k slow and the y index l fast, i.e. element (k, l) occupies row
(k + (Q_x-1)/2)*Q_y + (Q_y-1)/2 + l.  Antenna p maps to column
p + (N-1)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import response
from .geometry import (
    ArrayPose,
    IrsLayout,
    centered_indices,
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
class FocusingState:
    """Per-element programmed phases, in the module's element row order."""

    betas: np.ndarray

    @property
    def phasor(self) -> np.ndarray:
        return np.exp(1j * self.betas)


@dataclass(frozen=True)
class CouplingConstants:
    """Geometry couplings of both hops along both surface axes.

    c_* are the dimensionless spatial-frequency couplings; a_* the direction
    amplitudes in [0, 1]; gbar_* the anchor angles the array orientation is
    measured against.
    """

    c_tx: float
    c_ty: float
    c_rx: float
    c_ry: float
    a_tx: float
    a_ty: float
    a_rx: float
    a_ry: float
    gbar_tx: float
    gbar_ty: float
    gbar_rx: float
    gbar_ry: float


@dataclass(frozen=True)
class ChannelSet:
    """Both hop matrices, the surface phases, common gain and the cascade."""

    h_t: ComplexMatrix
    h_r: ComplexMatrix
    theta: np.ndarray
    eta0: float
    h: ComplexMatrix


def _tilt_trig(gamma: float, psi: float):
    """(sin psi, cos psi, cos gamma, sin gamma) of one array tilt."""
    return math.sin(psi), math.cos(psi), math.cos(gamma), math.sin(gamma)


def _tilt_stack(tilts):
    """The _tilt_trig of each (gamma, psi) of tilts, as four (B, 1, 1) arrays."""
    trig = np.array([_tilt_trig(g, p) for g, p in tilts]).reshape(-1, 4)
    return tuple(trig.T[:, :, None, None])


def _link_offsets(v, r, trig):
    """Offsets a, b, ax per (element, antenna) of one side.

    v holds the side's element components (re_local_components), r its
    antenna positions as a (1, N) row and trig its tilt as from _tilt_trig:
    floats for one pose, or (B, 1, 1) arrays for a batch of poses, which
    broadcasts every result to (B, Q, N).
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


def _phase_jacobian(lam: float, offsets, r, trig, d):
    """(d_phase/d_gamma, d_phase/d_psi) from one side's _link_offsets."""
    a, b, _ = offsets
    sin_psi, cos_psi, cos_g, sin_g = trig
    k0 = 2.0 * math.pi / lam
    pref = k0 / d
    d_gamma = pref * (a * (-r * sin_psi * sin_g) + b * (r * sin_psi * cos_g))
    d_psi = pref * (a * (r * cos_psi * cos_g) + b * (r * cos_psi * sin_g)) + k0 * (-r * sin_psi)
    return d_gamma, d_psi


def _antenna_row(pose: ArrayPose) -> np.ndarray:
    return (centered_indices(pose.n_antennas) * pose.spacing)[None, :]


def _pose_terms(layout: IrsLayout, pose: ArrayPose):
    """(offsets, r, trig) of one posed side: the pose resolved against the surface once."""
    r = _antenna_row(pose)
    trig = _tilt_trig(pose.orient_azimuth, pose.orient_elevation)
    return _link_offsets(re_local_components(layout, pose), r, trig), r, trig


def _pose_parts(wave, layout: IrsLayout, pose: ArrayPose):
    """(small, big) phase parts of one posed side."""
    return _phase_parts(wave.wavelength, _pose_terms(layout, pose)[0], pose.distance)


def propagation_phases(wave, layout: IrsLayout, pose: ArrayPose) -> np.ndarray:
    """Full link phases 2*pi*d_approx/lambda, shape (q_x*q_y, n_antennas)."""
    small, big = _pose_parts(wave, layout, pose)
    return small + big


def orientation_phase_jacobian(wave, layout: IrsLayout, pose: ArrayPose):
    """Partial derivatives of the link phases in the pose's orientation angles.

    Returns (d_phase/d_gamma, d_phase/d_psi), both shaped like
    propagation_phases.  The transverse offsets contribute through the
    quadratic terms; the tilt additionally moves the axial coordinate.
    """
    offsets, r, trig = _pose_terms(layout, pose)
    return _phase_jacobian(wave.wavelength, offsets, r, trig, pose.distance)


def _hop(parts) -> ComplexMatrix:
    """Unit-modulus link phasors of one side's (small, big) phases, elements along rows."""
    small, big = parts
    return np.exp(-1j * (small + big))


def tx_irs_channel(scn: Scenario) -> ComplexMatrix:
    """Unit-modulus Tx-to-surface matrix, elements along rows."""
    return _hop(_pose_parts(scn.wave, scn.irs, scn.tx))


def irs_rx_channel(scn: Scenario) -> ComplexMatrix:
    """Unit-modulus surface-to-Rx matrix, antennas along rows."""
    return _hop(_pose_parts(scn.wave, scn.irs, scn.rx)).T.copy()


def hop_matrices(scn: Scenario) -> tuple[ComplexMatrix, ComplexMatrix, float]:
    """(h_t, h_r, eta0): both hops and the common gain at the scenario's poses."""
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    return tx_irs_channel(scn), irs_rx_channel(scn), gain


@dataclass(frozen=True)
class LinkSide:
    """The orientation-free terms of one side: its element components
    (re_local_components), its antennas as a (1, N) row and its distance."""

    v: tuple
    r: np.ndarray
    distance: float


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

    def side(pose: ArrayPose) -> LinkSide:
        return LinkSide(re_local_components(scn.irs, pose), _antenna_row(pose), pose.distance)

    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    return ResolvedLink(side(scn.tx), side(scn.rx), scn.wave.wavelength, gain)


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
            _phase_jacobian(self.link.wavelength, offsets, side.r, trig, side.distance)
            for side, (offsets, trig) in zip(sides, self.terms)
        )


def pose_link(link: ResolvedLink, m) -> PosedLink:
    """Both hops at the orientation vector m = [gamma_t, psi_t, gamma_r,
    psi_r], or at each row of a (B, 4) stack of them.

    Each (gamma, psi) is folded and range-checked as a posed ArrayPose
    would be, so every hop equals hop_matrices of its posed scenario bit
    for bit.  A stack gives a stacked PosedLink, each side synthesized in
    one numpy pass; a vector is posed as the stack of one and gives its [0].
    """
    vec = np.asarray(m, dtype=float)
    if vec.ndim not in (1, 2) or vec.shape[-1] != 4:
        raise ValueError("orientation vectors must have four components")
    rows = vec.reshape(-1, 4).tolist()
    hops, terms = [], []
    for side, at in ((link.tx, 0), (link.rx, 2)):
        tilts = [fold_orientation(row[at], row[at + 1]) for row in rows]
        for gamma, psi in tilts:
            check_orientation(gamma, psi)
        trig = _tilt_stack(tilts)
        offsets = _link_offsets(side.v, side.r, trig)
        hops.append(_hop(_phase_parts(link.wavelength, offsets, side.distance)))
        terms.append((offsets, trig))
    posed = PosedLink(link, hops[0], np.swapaxes(hops[1], -1, -2).copy(), tuple(terms))
    return posed if vec.ndim == 2 else posed[0]


def _center_parts(parts):
    """(small, big) of one side's center antenna, small kept as a (..., Q, 1) column."""
    small, big = parts
    c = small.shape[-1] // 2
    return small[..., c : c + 1], big


def _reflective_betas(center_t, center_r):
    """Reflective focusing phases: the summed center-link phases of both
    sides per element; leading batch axes carry through."""
    (small_t, big_t), (small_r, big_r) = center_t, center_r
    return ((small_t + small_r) + (big_t + big_r))[..., 0]


def reflective_focusing(scn: Scenario) -> FocusingState:
    """Phases that make all element paths from Tx center add in phase at Rx center.

    beta equals the summed center-link phases 2*pi*(d_t0 + d_0r)/lambda, so
    the compensated center-to-center entry carries zero residual phase.
    """
    center_t = _center_parts(_pose_parts(scn.wave, scn.irs, scn.tx))
    center_r = _center_parts(_pose_parts(scn.wave, scn.irs, scn.rx))
    return FocusingState(_reflective_betas(center_t, center_r))


def scenario_focusing(scn: Scenario) -> FocusingState:
    """The FocusingState declared by the scenario's focusing mode."""
    if scn.focusing_mode == "reflective":
        return reflective_focusing(scn)
    if scn.focusing_mode == "zero":
        return FocusingState(np.zeros(scn.irs.n_elements))
    return FocusingState(np.asarray(scn.focusing_betas, dtype=float))


def _cascade(betas, h_t, h_r, gain) -> ChannelSet:
    theta = np.exp(1j * betas)
    h = gain * ((h_r * theta[..., None, :]) @ h_t)
    return ChannelSet(h_t=h_t, h_r=h_r, theta=theta, eta0=gain, h=h)


def assemble(scn: Scenario, focusing: FocusingState) -> ChannelSet:
    """Build both hops and the cascade h = eta0 * H_r diag(theta) H_t."""
    betas = np.asarray(focusing.betas, dtype=float)
    if betas.shape != (scn.irs.n_elements,):
        raise ValueError(
            f"focusing needs {scn.irs.n_elements} phases, got shape {betas.shape}"
        )
    return _cascade(betas, *hop_matrices(scn))


def build_channels(scn: Scenario) -> ChannelSet:
    """Assemble with the scenario's own focusing declaration; reflective
    focusing phases and both hops come from one evaluation of each side."""
    if scn.focusing_mode != "reflective":
        return assemble(scn, scenario_focusing(scn))
    parts_t = _pose_parts(scn.wave, scn.irs, scn.tx)
    parts_r = _pose_parts(scn.wave, scn.irs, scn.rx)
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    betas = _reflective_betas(_center_parts(parts_t), _center_parts(parts_r))
    return _cascade(betas, _hop(parts_t), _hop(parts_r).T.copy(), gain)


def synthesize_side(wave, layout: IrsLayout, pose: ArrayPose, keys):
    """(center, hops) of pose moved and tilted to each (distance, gamma,
    psi) of keys, each of which must make a valid pose.

    center holds the center-antenna phase parts (small (U, Q, 1), big
    (U, 1, 1)) and hops the (U, Q, N) hops, elements along rows.  All poses
    are synthesized in one numpy pass, so a caller bounds its (U, Q, N)
    temporaries by the keys it passes; every hop equals the one-pose hop of
    its posed scenario bit for bit.
    """
    for d, g, p in keys:  # ArrayPose refuses a key that makes no valid pose
        replace(pose, distance=d, orient_azimuth=g, orient_elevation=p)
    v, r = re_local_components(layout, pose), _antenna_row(pose)
    trig = _tilt_stack([(g, p) for _, g, p in keys])
    d = np.array([d for d, _, _ in keys], dtype=float)[:, None, None]
    parts = _phase_parts(wave.wavelength, _link_offsets(v, r, trig), d)
    return _center_parts(parts), _hop(parts)


def posed_cascades(side_t, side_r, gain):
    """Reflectively focused cascades (B, N_r, N_t) of the B links with the Tx
    at pose i of side_t and the Rx at pose i of side_r (each from
    synthesize_side), scaled by their common gains (B,) from
    response.cascade_gains."""
    (center_t, hops_t), (center_r, hops_r) = side_t, side_r
    betas = _reflective_betas(center_t, center_r)
    return _cascade(betas, hops_t, np.swapaxes(hops_r, -1, -2), gain[:, None, None]).h


def reflective_cascades(scn: Scenario, d_t, d_r, tx_settings, rx_settings):
    """(h, eta0): reflectively focused cascades of B posed links, h shaped
    (B, N_r, N_t) and eta0 (B,).

    Point i moves the Tx to distance d_t[i] tilted by tx_settings[i] (an
    orientation with gamma and psi) and the Rx likewise.  The gains are
    formed, and refused, before any hop, and every cascade equals
    build_channels of the posed scenario bit for bit.
    """
    gain = response.cascade_gains(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx, d_t, d_r)
    sides = [
        synthesize_side(scn.wave, scn.irs, pose, [(d, s.gamma, s.psi) for d, s in zip(ds, tilts)])
        for pose, ds, tilts in ((scn.tx, d_t, tx_settings), (scn.rx, d_r, rx_settings))
    ]
    return posed_cascades(*sides, gain), gain


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


def _own_pose(pose: ArrayPose) -> list[float]:
    """The (distance, gamma, psi) a pose stands at."""
    return [pose.distance, pose.orient_azimuth, pose.orient_elevation]


def coupling_constants(scn: Scenario) -> CouplingConstants:
    """All twelve coupling quantities of the cascade."""
    (c_tx, c_ty, _, _), (c_rx, c_ry, _, _) = (
        _side_terms(scn, pose, [_own_pose(pose)]).ravel().tolist() for pose in (scn.tx, scn.rx)
    )
    a_tx, g_tx, a_ty, g_ty = side_anchors(scn.tx)
    a_rx, g_rx, a_ry, g_ry = side_anchors(scn.rx)
    return CouplingConstants(
        c_tx=c_tx,
        c_ty=c_ty,
        c_rx=c_rx,
        c_ry=c_ry,
        a_tx=a_tx,
        a_ty=a_ty,
        a_rx=a_rx,
        a_ry=a_ry,
        gbar_tx=g_tx,
        gbar_ty=g_ty,
        gbar_rx=g_rx,
        gbar_ry=g_ry,
    )


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
