"""Frames and positions for two-hop reflected MIMO geometry.

The global frame sits at the center of the reflecting surface: x and y run
along the surface sides, z is the surface normal.  A terminal (Tx or Rx line
array) is placed by the direction of its center as seen from the origin
(azimuth ``omega``, elevation ``phi`` measured from +z) plus the center
distance, and oriented by two more angles (``gamma``, ``psi``) expressed in a
local frame attached to that direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArrayPose:
    """Placement and orientation of a uniform line array.

    ``n_antennas`` must be odd so the array has a center element.  ``azimuth``
    and ``elevation`` locate the array center (elevation is measured from the
    +z axis, so 0 means straight above the surface); ``orient_azimuth`` and
    ``orient_elevation`` describe the array axis in the local frame returned
    by :func:`local_frame`.
    """

    n_antennas: int
    spacing: float
    distance: float
    azimuth: float
    elevation: float
    orient_azimuth: float = 0.0
    orient_elevation: float = math.pi / 2

    def __post_init__(self) -> None:
        if self.n_antennas < 1 or self.n_antennas % 2 == 0:
            raise ValueError(f"n_antennas must be a positive odd integer, got {self.n_antennas}")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError("antenna spacing must be > 0 and finite")
        check_distance(self.distance)
        if not 0.0 <= self.azimuth < TWO_PI:
            raise ValueError("azimuth must lie in [0, 2*pi)")
        if not 0.0 <= self.elevation <= math.pi / 2:
            raise ValueError("elevation must lie in [0, pi/2]")
        check_orientation(self.orient_azimuth, self.orient_elevation)


def check_distance(distance: float) -> None:
    """Raise ValueError unless distance is a valid pose center distance."""
    if not 0.0 < distance < math.inf:
        raise ValueError("center distance must be > 0 and finite")


def check_orientation(gamma: float, psi: float) -> None:
    """Raise ValueError unless (gamma, psi) lies in a pose's orientation domain."""
    if not 0.0 <= gamma < TWO_PI:
        raise ValueError("orient_azimuth must lie in [0, 2*pi)")
    if not 0.0 <= psi <= math.pi:
        raise ValueError("orient_elevation must lie in [0, pi]")


def orientation_vector(m) -> np.ndarray:
    """The tilts m = [gamma_t, psi_t, gamma_r, psi_r] as a float array,
    refused unless m has exactly four components, each finite."""
    vec = np.asarray(m, dtype=float)
    if vec.shape != (4,):
        raise ValueError("orientation vector must have four components")
    if not np.isfinite(vec).all():
        raise ValueError("orientation angles must be finite")
    return vec


def fold_orientation(gamma: float, psi: float) -> tuple[float, float]:
    """(gamma, psi) folded into a pose's orientation domain, axis preserved.

    (gamma, psi) and (gamma + pi, -psi) describe the same physical axis, so
    a tilt outside [0, pi] is mirrored rather than rejected, and gamma wraps
    into [0, 2*pi).  A tilt beyond the mirror, psi < -pi or psi > 2*pi, is
    left for check_orientation to reject.
    """
    if psi < 0.0:
        psi, gamma = -psi, gamma + math.pi
    if psi > math.pi:
        psi, gamma = TWO_PI - psi, gamma + math.pi
    gamma = float(gamma % TWO_PI)
    # a tiny negative gamma rounds up to exactly 2*pi, which is the angle 0
    return (0.0 if gamma == TWO_PI else gamma), float(psi)


@dataclass(frozen=True)
class IrsLayout:
    """Grid of reflecting elements: odd counts, spacings and element sizes."""

    q_x: int
    q_y: int
    spacing_x: float
    spacing_y: float
    re_len_x: float
    re_len_y: float

    def __post_init__(self) -> None:
        for name, q in (("q_x", self.q_x), ("q_y", self.q_y)):
            if q < 1 or q % 2 == 0:
                raise ValueError(f"{name} must be a positive odd integer, got {q}")
        for name, spacing in (("spacing_x", self.spacing_x), ("spacing_y", self.spacing_y)):
            if not 0.0 < spacing < math.inf:
                raise ValueError(f"{name} must be > 0 and finite")
        if not 0.0 < self.re_len_x <= self.spacing_x:
            raise ValueError("re_len_x must satisfy 0 < re_len_x <= spacing_x")
        if not 0.0 < self.re_len_y <= self.spacing_y:
            raise ValueError("re_len_y must satisfy 0 < re_len_y <= spacing_y")

    @property
    def n_elements(self) -> int:
        return self.q_x * self.q_y

    @property
    def total_len_x(self) -> float:
        return (self.q_x - 1) * self.spacing_x + self.re_len_x

    @property
    def total_len_y(self) -> float:
        return (self.q_y - 1) * self.spacing_y + self.re_len_y

    @cached_property
    def element_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Global x and y of every element center, row-major (k slow, l
        fast); built once per layout and read-only."""
        x = np.repeat(centered_indices(self.q_x), self.q_y) * self.spacing_x
        y = np.tile(centered_indices(self.q_y), self.q_x) * self.spacing_y
        x.flags.writeable = y.flags.writeable = False
        return x, y


def centered_indices(n: int) -> np.ndarray:
    """Index set {-(n-1)/2, ..., (n-1)/2} for odd n."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"centered index sets exist for positive odd sizes only, got {n}")
    half = (n - 1) // 2
    return np.arange(-half, half + 1)


def check_centered(value, n: int, what: str = "index") -> None:
    """Validate a centered index, or an array of them, against its declared odd size."""
    if np.any(np.abs(value) > (n - 1) // 2):
        raise IndexError(f"{what} {value} outside centered range for size {n}")


def local_frame(pose: ArrayPose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit vectors (n_x, n_y, n_z) of the local frame of a pose.

    n_z points from the origin toward the array center.  n_y lies in the
    plane spanned by +z and n_z, perpendicular to n_z, tilted so that the
    angle between +z and n_y is elevation + pi/2.  n_x = n_y x n_z completes
    a right-handed triple.

    At elevation exactly 0 the z/n_z plane collapses; the frame is pinned to
    n_y = (0, -1, 0) there so the result is deterministic.
    """
    phi, omega = pose.elevation, pose.azimuth
    if phi == 0.0:
        n_y = np.array([0.0, -1.0, 0.0])
        n_z = np.array([0.0, 0.0, 1.0])
        return np.cross(n_y, n_z), n_y, n_z
    sp, cp = math.sin(phi), math.cos(phi)
    so, co = math.sin(omega), math.cos(omega)
    n_z = np.array([sp * co, sp * so, cp])
    n_y = np.array([cp * co, cp * so, -sp])
    n_x = np.array([so, -co, 0.0])
    return n_x, n_y, n_z


def antenna_local_components(pose: ArrayPose, p):
    """Local-frame coordinates of antenna p: transverse pair plus axial.

    p is an index or an array of them; each coordinate takes its shape.
    """
    r = p * pose.spacing
    sin_psi = math.sin(pose.orient_elevation)
    u1 = r * sin_psi * math.cos(pose.orient_azimuth)
    u2 = r * sin_psi * math.sin(pose.orient_azimuth)
    u3 = pose.distance + r * math.cos(pose.orient_elevation)
    return u1, u2, u3


def antenna_position(pose: ArrayPose, p) -> np.ndarray:
    """Global position of antenna p of the array described by ``pose``.

    p is an index or an array of them; the result is shaped p.shape + (3,).
    """
    check_centered(p, pose.n_antennas, "antenna")
    n_x, n_y, n_z = local_frame(pose)
    u1, u2, u3 = (np.asarray(u)[..., None] for u in antenna_local_components(pose, np.asarray(p)))
    return u1 * n_x + u2 * n_y + u3 * n_z


def re_local_components(
    layout: IrsLayout, pose: ArrayPose
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element centers resolved in the local frame of ``pose``.

    Returns three arrays of length q_x*q_y in row-major element order
    (k slow, l fast), giving the n_x / n_y / n_z coordinates of every
    element center.  Because the elements sit in the z=0 plane only the
    first two global coordinates contribute.
    """
    n_x, n_y, n_z = local_frame(pose)
    k, l = layout.element_grid
    v1 = k * n_x[0] + l * n_x[1]
    v2 = k * n_y[0] + l * n_y[1]
    v3 = k * n_z[0] + l * n_z[1]
    return v1, v2, v3
