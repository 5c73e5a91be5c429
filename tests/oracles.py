"""Independent oracles for the link phase, its gradient and the MI, and the
tests' random-scenario generator.

The exact link phase is taken from the distance between each element
center and each antenna position, which the channel expands to second
order.  The expanded link phase is computed here the long way, from the
per-entry offsets a = r sin(psi) cos(gamma) - v1, b = r sin(psi)
sin(gamma) - v2 and a_z = r cos(psi) - v3, as pi*(a^2 + b^2)/(lambda*D) +
k0*a_z, and its tilt derivatives as full (Q, N) matrices.  These are the
forms the channel module used before it split the phase into element,
antenna and coupling terms.  The MI is taken exactly from the float entries of a cascade.  The reduced
cascade of the optimizer's tilt kernel is checked against each side's
coupling factor formed alone, the weights of d MI/d phase solved on it,
and their contraction against the coupling's tilt derivatives: the forms
the optimizer used before it fused both sides into one tilt basis.  The
Dirichlet ratio is kept in the form it had before its sign came from the
parity of m, and each side's pose terms in the scalar libm form they had
before they became one numpy pass.  The closed form is kept in the batched
form it had before it became one link per call, as the complex cascades
the map's real kernels are judged against.
"""

import itertools
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from irsmimo import optimize as opt
from irsmimo import response
from irsmimo.channel import _dirichlet_factors, pose_terms, resolve_link, side_anchors
from irsmimo.geometry import (
    ArrayPose,
    IrsLayout,
    antenna_position,
    centered_indices,
    re_local_components,
)
from irsmimo.optimize import LOG2, oriented_scenario
from irsmimo.scenario import Scenario, parse_scenario

SCENARIO_FILES = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.txt"))
LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def random_scenario(rng, n_max=7, q_max=15, high_snr=False) -> Scenario:
    """Draw a well-separated random scenario; either array may be the larger."""
    n_t = int(rng.choice([n for n in (3, 5, 7) if n <= n_max]))
    n_r = int(rng.choice([n for n in (1, 3, 5, 7) if n <= n_max]))
    q_x = int(rng.choice([q for q in (5, 9, 15) if q <= q_max]))
    q_y = int(rng.choice([q for q in (5, 9, 15) if q <= q_max]))

    def pose(count):
        return ArrayPose(
            n_antennas=count,
            spacing=float(rng.uniform(0.02, 0.12)),
            distance=float(rng.uniform(4.0, 16.0)),
            azimuth=float(rng.uniform(0.0, 2 * math.pi)),
            elevation=float(rng.uniform(0.05, math.pi / 2 - 0.05)),
            orient_azimuth=float(rng.uniform(0.0, 2 * math.pi)),
            orient_elevation=float(rng.uniform(0.2, math.pi - 0.2)),
        )

    spacing = float(rng.uniform(0.02, 0.08))
    return Scenario(
        wave=response.WaveConfig(float(rng.uniform(0.004, 0.012))),
        tx=pose(n_t),
        rx=pose(n_r),
        irs=IrsLayout(q_x, q_y, spacing, spacing, spacing, spacing),
        power=opt.PowerConfig(1.0, 1e-12) if high_snr else opt.PowerConfig(),
    )


def exact_phases(scn, pose):
    """2*pi*(d - D)/lambda (Q, N) of pose's hop, with d the exact distance
    from each element center to each antenna: the phases the channel
    expands to second order in the offsets."""
    x, y = scn.irs.element_grid
    elements = np.stack([x, y, np.zeros_like(x)], axis=1)
    antennas = antenna_position(pose, centered_indices(pose.n_antennas))
    d = np.linalg.norm(elements[:, None, :] - antennas[None, :, :], axis=-1)
    return (2.0 * math.pi / scn.wave.wavelength) * (d - pose.distance)


def _offsets(scn, pose, dtype):
    v1, v2, v3 = (np.asarray(c, dtype=dtype) for c in re_local_components(scn.irs, pose))
    r = np.asarray(centered_indices(pose.n_antennas) * pose.spacing, dtype=dtype)[None, :]
    gamma, psi = pose.orient_azimuth, pose.orient_elevation
    sin_psi, cos_psi = dtype(math.sin(psi)), dtype(math.cos(psi))
    cos_g, sin_g = dtype(math.cos(gamma)), dtype(math.sin(gamma))
    a = r * sin_psi * cos_g - v1[:, None]
    b = r * sin_psi * sin_g - v2[:, None]
    return a, b, r * cos_psi - v3[:, None], (r, sin_psi, cos_psi, cos_g, sin_g)


def offset_phases(scn, pose, dtype=float):
    """(small, big) per (element, antenna) of pose's hop in the given float
    type: small = pi*(a^2 + b^2)/(lambda*D) + k0*a_z and big = k0*D, so
    that small + big = 2*pi*d/lambda."""
    a, b, a_z, _ = _offsets(scn, pose, dtype)
    pi = LONG_PI if dtype is np.longdouble else math.pi
    lam, d = dtype(scn.wave.wavelength), dtype(pose.distance)
    k0 = 2 * pi / lam
    return pi * (a * a) / (lam * d) + pi * (b * b) / (lam * d) + k0 * a_z, k0 * d


def offset_jacobian(scn, pose):
    """(d_phase/d_gamma, d_phase/d_psi) (Q, N) of pose's hop, from the offsets."""
    a, b, _, (r, sin_psi, cos_psi, cos_g, sin_g) = _offsets(scn, pose, float)
    k0 = 2.0 * math.pi / scn.wave.wavelength
    pref = k0 / pose.distance
    d_gamma = pref * (a * (-r * sin_psi * sin_g) + b * (r * sin_psi * cos_g))
    d_psi = pref * (a * (r * cos_psi * cos_g) + b * (r * cos_psi * sin_g)) + k0 * (-r * sin_psi)
    return d_gamma, d_psi


def full_jacobian_gradient(scn, m, weights, rho_eff):
    """(gradient, scale): the gradient of the negated MI in [gamma_t, psi_t,
    gamma_r, psi_r] as the sum over every link of its weight of d MI/d
    phase times its full offset_jacobian entry, antenna terms included, and
    per component the sum of the magnitudes of those products, the scale
    its rounding is relative to.  weights holds the Tx- and Rx-side (Q, N)
    weights at effective SNR rho_eff."""
    sc = oriented_scenario(scn, m)
    jacobians = offset_jacobian(sc, sc.tx) + offset_jacobian(sc, sc.rx)
    e_t, e_r = weights
    coef = -(2.0 * rho_eff / math.log(2.0))
    sums = [e * dz for e, dz in zip((e_t, e_t, e_r, e_r), jacobians)]
    grad = [coef * float(np.sum(s)) for s in sums]
    return np.array(grad), np.array([abs(coef) * float(np.sum(np.abs(s))) for s in sums])


def edge_setups(rng):
    """The scenario files and 12 random_scenario draws, among them N_r > N_t,
    one-antenna sides and zenith arrays."""
    setups = [parse_scenario(str(path)) for path in SCENARIO_FILES]
    for i in range(12):
        scn = random_scenario(rng)
        if i % 4 == 3:
            scn = replace(scn, tx=replace(scn.tx, n_antennas=1))
        if i % 4 == 1:
            scn = replace(scn, rx=replace(scn.rx, n_antennas=1))
        side = ("tx", "rx", None)[i % 3]
        if side:
            scn = replace(scn, **{side: replace(getattr(scn, side), elevation=0.0)})
        setups.append(scn)
    assert any(scn.rx.n_antennas > scn.tx.n_antennas for scn in setups)
    assert any(scn.tx.n_antennas == 1 for scn in setups)
    assert any(scn.rx.n_antennas == 1 for scn in setups)
    return setups


def edge_tilts(rng):
    """Tilt vectors inside the optimizer box and on each of its faces."""
    low, high = [-math.pi / 2, 0.0, -math.pi / 2, 0.0], [math.pi / 2, math.pi] * 2
    tilts = rng.uniform(low, high, (8, 4))
    for i in range(4):
        tilts[2 * i, i] = low[i]
        tilts[2 * i + 1, i] = high[i]
    return tilts


def exact_mutual_information(h, snr: float) -> float:
    """log2 det(I + snr H^H H) of the float entries of h, with the
    determinant taken exactly in rationals and the logarithm to 60 digits."""
    h = np.asarray(h)
    entries = [[(Fraction(float(z.real)), Fraction(float(z.imag))) for z in row] for row in h]
    rho = Fraction(snr)

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    n_r, n_t = h.shape
    gram = [[(Fraction(i == j), Fraction(0)) for j in range(n_t)] for i in range(n_t)]
    for i, j, k in itertools.product(range(n_t), range(n_t), range(n_r)):
        re, im = mul((entries[k][i][0], -entries[k][i][1]), entries[k][j])
        gram[i][j] = (gram[i][j][0] + rho * re, gram[i][j][1] + rho * im)

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = (Fraction(0), Fraction(0))
        for j, entry in enumerate(mat[0]):
            re, im = mul(entry, det([row[:j] + row[j + 1 :] for row in mat[1:]]))
            sign = -1 if j % 2 else 1
            total = (total[0] + sign * re, total[1] + sign * im)
        return total

    value = det(gram)[0]
    with localcontext() as ctx:
        ctx.prec = 60
        log = Decimal(value.numerator).ln() - Decimal(value.denominator).ln()
        return float(log / Decimal(2).ln())



def coupling_factor(side, gamma, psi):
    """E[q, p] = exp(j r_p t_q) (Q, N) of one LinkSide at any real (gamma,
    psi), t = k0/D sin psi (v1 cos gamma + v2 sin gamma): the factor of the
    side's hop that the tilt couples."""
    kappa_s = side.k0 / side.distance * math.sin(psi)
    t = side.v1 * (kappa_s * math.cos(gamma)) + side.v2 * (kappa_s * math.sin(gamma))
    return np.exp(1j * np.multiply.outer(t, side.r))


def tilt_gradient(side, gamma, psi, weights):
    """(sum of weights * d_phase/d_gamma, sum of weights * d_phase/d_psi)
    over one side's (Q, N) weights of d MI/d phase, through the moments
    v1^T W r and v2^T W r of the coupling -r_p t_q alone."""
    moment = weights @ side.r
    v1_r, v2_r = float(side.v1 @ moment), float(side.v2 @ moment)
    s, c, cg, sg = math.sin(psi), math.cos(psi), math.cos(gamma), math.sin(gamma)
    kappa = side.k0 / side.distance
    return kappa * s * (sg * v1_r - cg * v2_r), -kappa * c * (cg * v1_r + sg * v2_r)


def mi_weights(h_t, h_r, theta, rho_eff):
    """(X, Tx-side weights, Rx-side weights) of the cascade G = H_r
    diag(theta) H_t at effective SNR rho_eff: X = (I + rho_eff G^H G)^-1
    G^H = V diag(sigma / (1 + rho_eff sigma^2)) U^H from the thin SVD of G,
    e_t[q, p] = Im(theta_q H_t[q, p] (X H_r)[p, q]) and e_r[q, k] =
    Im(theta_q (H_t X)[q, k] H_r[k, q]); row q of either sums to
    Im(theta_q (H_t X H_r)_qq)."""
    w = h_r * theta[None, :]
    u, sigma, vh = np.linalg.svd(w @ h_t, full_matrices=False)
    x = (vh.conj().T * (sigma / (1.0 + rho_eff * (sigma * sigma)))) @ u.conj().T
    return x, ((x @ w).T * h_t).imag, (theta[:, None] * (h_t @ x) * h_r.T).imag


def reference_slopes(scn, theta, m):
    """(MI in bits, d MI/d phase of each element, d MI/d m) of the reduced
    cascade eta0 E_r^T diag(theta * elements) E_t at the tilts m, each
    side's coupling factor formed apart and the weights solved with
    mi_weights."""
    link = resolve_link(scn)
    rho_eff = scn.power.snr * link.eta0**2
    w = theta * link.elements
    e_t, e_r = coupling_factor(link.tx, m[0], m[1]), coupling_factor(link.rx, m[2], m[3])
    sigma = np.linalg.svd((e_r.T * w) @ e_t, compute_uv=False)
    mi = float(np.sum(np.log1p(rho_eff * sigma * sigma)) / LOG2)
    _, wt_t, wt_r = mi_weights(e_t, e_r.T, w, rho_eff)
    tilt = (*tilt_gradient(link.tx, m[0], m[1], wt_t), *tilt_gradient(link.rx, m[2], m[3], wt_r))
    coef = 2.0 * rho_eff / LOG2
    return mi, -coef * wt_t.sum(axis=1), coef * np.array(tilt)


def reference_dirichlet_ratio(u, q):
    """dirichlet_ratio as the sign of (m*(q-1)) % 2 and a division masked
    into a full array of the limit q formed it.  It returns -q at a NaN u,
    and for an even q the wrong sign once |m*(q-1)| >= 2**53, where the
    product rounds to an even float; elsewhere the kernel keeps its bits."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    m = np.round(u / q)
    r = u - q * m
    den = np.sin(np.pi * r / q)
    ratio = np.divide(np.sin(np.pi * r), den, out=np.full_like(r, q), where=np.abs(den) > 1e-300)
    out = np.where((m * (q - 1)) % 2 == 0, ratio, -ratio)
    return float(out[0]) if scalar else out


def reference_side_terms(scn, pose, rows):
    """(c_x, c_y) (2, B) of one side at the poses (distance, gamma, psi) of
    rows (B, 3), each from scalar libm calls.  An infinite tilt raises
    libm's ValueError and a zero lambda * distance ZeroDivisionError."""
    a_x, g_x, a_y, g_y = side_anchors(pose)
    lam, irs, s = scn.wave.wavelength, scn.irs, pose.spacing
    k_x = s * irs.spacing_x * irs.q_x * a_x
    k_y = s * irs.spacing_y * irs.q_y * a_y
    terms = [
        (
            k_x * math.sin(psi) * math.cos(gamma - g_x) / (lam * d),
            k_y * math.sin(psi) * math.cos(gamma - g_y) / (lam * d),
        )
        for d, gamma, psi in np.asarray(rows, dtype=float).reshape(-1, 3).tolist()
    ]
    return np.array(terms, dtype=float).reshape(-1, 2).T


def batched_closed_form(scn, poses, gain):
    """Reflectively focused cascades (B, N_r, N_t) of the B links at poses
    (B, 6), (D_t, gamma, psi, D_r, gamma, psi) rows as region_grid gives
    them, with common gains gain (B,), in one numpy pass; only the squares
    of s sin psi are libm's pow, per row."""
    poses = np.asarray(poses, dtype=float).reshape(-1, 6)
    p, q, d_x, d_y = _dirichlet_factors(scn, pose_terms(scn, poses))
    columns, quad = poses.T[..., None, None], []
    for pose, (d, _, psi), idx in ((scn.tx, columns[:3], p), (scn.rx, columns[3:], q)):
        w, lin = pose.spacing * np.sin(psi), pose.spacing * np.cos(psi)
        sq = np.array([v**2 for v in w.ravel().tolist()]).reshape(w.shape)
        quad.append(sq * idx**2 / (2.0 * d) + lin * idx)
    phase = (2.0 * math.pi / scn.wave.wavelength) * (quad[0] + quad[1])
    return np.asarray(gain, dtype=float)[:, None, None] * np.exp(-1j * phase) * d_x * d_y
