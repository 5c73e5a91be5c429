"""Reflecting-element power response, far-field boundaries and common gain.

Each element of the surface scatters an incident plane-ish wave with an
amplitude pattern that peaks when the incident/reflected direction pair
matches the pair the element was programmed for, and rolls off as a
separable product of sinc factors in the two direction cosines.  The
polarization mismatch enters through ``tilde_g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayPose, IrsLayout, antenna_position, centered_indices

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class WaveConfig:
    """Carrier wavelength (meters) and molecular absorption rate (1/m)."""

    wavelength: float
    absorption: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be > 0 and finite")
        if not 0.0 <= self.absorption < math.inf:
            raise ValueError("absorption must be >= 0 and finite")

    @classmethod
    def from_carrier(cls, carrier_hz: float, absorption: float = 0.0) -> "WaveConfig":
        if carrier_hz <= 0.0:
            raise ValueError("carrier frequency must be > 0")
        return cls(SPEED_OF_LIGHT / carrier_hz, absorption)


@dataclass(frozen=True)
class ReflectionConfig:
    """Element reflection magnitude and the polarization angle of the surface."""

    amplitude: float = 1.0
    polarization: float = math.pi / 3

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError("reflection amplitude must lie in (0, 1]")
        if not math.isfinite(self.polarization):
            raise ValueError("polarization must be finite")


def far_field_boundary_re(layout: IrsLayout, wavelength: float) -> float:
    """Fraunhofer distance of a single element: 2 (Lx^2 + Ly^2) / lambda."""
    return 2.0 * (layout.re_len_x**2 + layout.re_len_y**2) / wavelength


def far_field_boundary_irs(layout: IrsLayout, wavelength: float) -> float:
    """Fraunhofer distance of the whole surface aperture."""
    lx, ly = layout.total_len_x, layout.total_len_y
    return 2.0 * (lx**2 + ly**2) / wavelength


def sinc_ratio(x):
    """sin(x)/x, with its limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    zero = x == 0.0
    safe = np.where(zero, 1.0, x)
    out = np.where(zero, 1.0, np.sin(safe) / safe)
    if out.ndim == 0:
        return float(out)
    return out


def tilde_g(incident, reflect, polarization):
    """Polarization-dependent reflection factor for a direction pair.

    incident and reflect are (polar, azimuth) pairs, polar measured from
    the surface normal; the angles may be arrays, and the result
    broadcasts over all of them.
    """
    (d_in, a_in), (d_out, a_out) = incident, reflect
    a_z = np.cos(d_in)
    a_xy = np.sin(d_in) * (np.cos(polarization) * np.cos(a_in) + np.sin(polarization) * np.sin(a_in))
    c = a_z / np.sqrt(a_xy**2 + a_z**2)
    rel = a_out - polarization
    return c * np.sqrt(np.cos(d_out) ** 2 * np.sin(rel) ** 2 + np.cos(rel) ** 2)


def _cosine_sums(incident, reflect):
    (d_in, a_in), (d_out, a_out) = incident, reflect
    ax = np.sin(d_in) * np.cos(a_in) + np.sin(d_out) * np.cos(a_out)
    ay = np.sin(d_in) * np.sin(a_in) + np.sin(d_out) * np.sin(a_out)
    return ax, ay


def re_response_amplitude(
    wave: WaveConfig,
    reflection: ReflectionConfig,
    layout: IrsLayout,
    incident,
    reflect,
    programmed_incident,
    programmed_reflect,
):
    """Magnitude of one element's response for an actual direction pair.

    The element is configured for the ``programmed_*`` pair; mismatch in the
    summed direction cosines is penalized by sinc rolloff along each side of
    the element.  Every direction is a (polar, azimuth) pair as tilde_g
    takes it; the angles may be arrays, and the result broadcasts over all
    of them.
    """
    lam = wave.wavelength
    ax, ay = _cosine_sums(incident, reflect)
    px, py = _cosine_sums(programmed_incident, programmed_reflect)
    pre = math.sqrt(4.0 * math.pi) * reflection.amplitude * layout.re_len_x * layout.re_len_y / lam
    return (
        pre
        * tilde_g(incident, reflect, reflection.polarization)
        * sinc_ratio(math.pi * layout.re_len_x * (ax - px) / lam)
        * sinc_ratio(math.pi * layout.re_len_y * (ay - py) / lam)
    )


def cascade_gains(wave: WaveConfig, reflection: ReflectionConfig, layout: IrsLayout,
                  tx: ArrayPose, rx: ArrayPose, d_t, d_r) -> np.ndarray:
    """Common cascade gains (element area, spreading over both hops,
    absorption) with the arrays moved to distances d_t and d_r, broadcast
    against each other.  The polarization factor g0 is the reflection factor
    for the directions of the two array centers as seen from the surface
    origin, which the move keeps, so it is formed once.  Raises ValueError
    at the first pair so close that the squared gain would overflow a float.
    """
    g0 = tilde_g((tx.elevation, tx.azimuth), (rx.elevation, rx.azimuth), reflection.polarization)
    d_t, d_r = np.asarray(d_t, dtype=float), np.asarray(d_r, dtype=float)
    # tiny distances underflow the denominator to 0 or overflow the power gain
    with np.errstate(divide="ignore", over="ignore"):
        den = 4.0 * math.pi * d_t * d_r
        spread = reflection.amplitude * layout.re_len_x * layout.re_len_y / den
        refused = spread * spread == math.inf
    if refused.any():
        k = np.argmax(refused)
        raise ValueError(
            f"distances D_t = {np.broadcast_to(d_t, den.shape).flat[k]:g} m and "
            f"D_r = {np.broadcast_to(d_r, den.shape).flat[k]:g} m are too small: "
            "the power gain of 1/(4*pi*D_t*D_r) overflows a float"
        )
    # libm's exp per pair: numpy's may differ from it in the last bit
    damp = [math.exp(x) for x in np.ravel(-wave.absorption * (d_t + d_r) / 2.0).tolist()]
    return spread * g0 * np.reshape(damp, np.shape(den))


def eta0(wave: WaveConfig, reflection: ReflectionConfig, layout: IrsLayout,
         tx: ArrayPose, rx: ArrayPose) -> float:
    """cascade_gains at the two poses' own distances."""
    return cascade_gains(wave, reflection, layout, tx, rx, tx.distance, rx.distance)


def path_loss(wave: WaveConfig, distance: float) -> float:
    """Free-space power loss with molecular absorption over one hop."""
    return (wave.wavelength / (4.0 * math.pi * distance)) ** 2 * math.exp(
        -wave.absorption * distance
    )


def link_directions(layout: IrsLayout, pose: ArrayPose):
    """Directions from every element center to every antenna of a posed array.

    Returns (polar, azimuth), each shaped (n_antennas, q_x*q_y): row
    p + (N-1)/2 holds antenna p, columns run in row-major element order;
    polar is measured from the surface normal.
    """
    w = antenna_position(pose, centered_indices(pose.n_antennas))
    ex, ey = layout.element_grid
    vx, vy, vz = w[:, :1] - ex, w[:, 1:2] - ey, w[:, 2:]
    r = np.sqrt(vx**2 + vy**2 + vz**2)
    return np.arccos(vz / r), np.arctan2(vy, vx)


def amplitude_variation(
    wave: WaveConfig,
    reflection: ReflectionConfig,
    layout: IrsLayout,
    tx: ArrayPose,
    rx: ArrayPose,
) -> float:
    """Worst relative deviation of element responses from the central one.

    Every element is programmed for the center antennas; the deviation is
    then scanned over all antenna pairs and all elements, as one
    (N_t, N_r, Q) broadcast.  The central response g0 is the pattern at
    the directions of the two array centers.  Small values mean a single
    common gain describes the whole surface well.
    """
    incident, reflect = link_directions(layout, tx), link_directions(layout, rx)
    center = ((tx.elevation, tx.azimuth), (rx.elevation, rx.azimuth))
    g0 = re_response_amplitude(wave, reflection, layout, *center, *center)
    programmed = (
        [d[tx.n_antennas // 2] for d in incident],
        [d[rx.n_antennas // 2] for d in reflect],
    )
    # Tx antennas along a new middle axis: (N_t, 1, Q) against (N_r, Q)
    amp = re_response_amplitude(
        wave, reflection, layout, [d[:, None] for d in incident], reflect, *programmed
    )
    return float(np.max(np.abs(amp - g0) / abs(g0)))
