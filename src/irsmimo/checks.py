"""Verification setups shared by `irsmimo verify`, `fmr-map --verify` and the
tests: the golden scenario, the random-scenario generator, the Gram check of
a link posed at solver orientations, and the named `verify` checks.

Channels and Gram reports are looked up through the `channel` and
`multiplexing` module attributes, so wrappers installed there see every call.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import channel as chan
from . import multiplexing as mux
from . import optimize as opt
from . import response
from .geometry import ArrayPose, IrsLayout
from .scenario import Scenario


def golden_scenario() -> Scenario:
    """The 5x5-antenna, 15x15-element, 5 mm wavelength reference setup."""
    return Scenario(
        wave=response.WaveConfig(0.005),
        tx=ArrayPose(
            n_antennas=5,
            spacing=0.1,
            distance=10.0,
            azimuth=7 * math.pi / 6,
            elevation=math.pi / 6,
        ),
        rx=ArrayPose(
            n_antennas=5,
            spacing=0.1,
            distance=10.0,
            azimuth=math.pi / 3,
            elevation=3 * math.pi / 7,
        ),
        irs=IrsLayout(15, 15, 0.1, 0.1, 0.1, 0.1),
    )


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


def posed_scenario(scn: Scenario, d_t: float, d_r: float, settings) -> Scenario:
    """scn with the arrays moved to (d_t, d_r), tilted by the (Tx, Rx)
    orientation settings of a region solver, and reflective focusing."""
    ot, orx = settings
    return replace(
        scn,
        tx=replace(scn.tx, distance=d_t, orient_azimuth=ot.gamma, orient_elevation=ot.psi),
        rx=replace(scn.rx, distance=d_r, orient_azimuth=orx.gamma, orient_elevation=orx.psi),
        focusing_mode="reflective",
        focusing_betas=None,
    )


def gram_verdicts(scn: Scenario, h, gain) -> np.ndarray:
    """Gram check of each cascade of a (B, N_r, N_t) batch h with common
    gains gain (B,); only the shorter side of a cascade can be orthogonal."""
    # squared as Python floats: libm's pow and numpy's x*x differ in the
    # last bit for about 1 in 1000 values, which would move the tolerances
    target = np.array([g**2 for g in gain.tolist()]) * scn.irs.n_elements**2
    mode = "rows" if scn.rx.n_antennas <= scn.tx.n_antennas else "columns"
    return mux.check_orthogonality(h, mode, target).passed


def gram_passes(scn: Scenario, d_t: float, d_r: float, settings) -> bool:
    """gram_verdicts of the brute-force cascade (channel.reflective_cascades)
    at the one point (d_t, d_r) with the (Tx, Rx) orientation settings."""
    ot, orx = settings
    gain = response.cascade_gains(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx, [d_t], [d_r])
    h = chan.reflective_cascades(scn, [d_t, ot.gamma, ot.psi, d_r, orx.gamma, orx.psi], gain)
    return bool(gram_verdicts(scn, h, gain)[0])


# ---------------------------------------------------------------------------
# the `verify` checks: each takes a scenario and returns (ok, detail)


def _check_rayleigh_golden(scn: Scenario):
    rr = mux.rayleigh_distances(scn.tx, scn.irs, scn.wave)
    ok = abs(rr.d_rx_axis - 27.0416) <= 1e-3 and abs(rr.d_ry_axis - 29.0474) <= 1e-3
    return ok, f"d_rx={rr.d_rx_axis:.6f} m, d_ry={rr.d_ry_axis:.6f} m (want 27.0416, 29.0474)"


def _check_far_field_golden(_scn: Scenario):
    goldens = [(75e9, 0.4, 160.0), (140e9, 0.75, 298.7), (338e9, 1.8, 721.0)]
    layout = IrsLayout(19, 19, 0.38 / 18, 0.38 / 18, 0.02, 0.02)
    details = []
    ok = True
    for freq, want_re, want_irs in goldens:
        wave = response.WaveConfig.from_carrier(freq)
        b_re = response.far_field_boundary_re(layout, wave.wavelength)
        b_irs = response.far_field_boundary_irs(layout, wave.wavelength)
        ok = ok and abs(b_re - want_re) <= 0.01 * want_re
        ok = ok and abs(b_irs - want_irs) <= 0.01 * want_irs
        details.append(f"{freq / 1e9:g}GHz:({b_re:.4f},{b_irs:.1f})")
    return ok, " ".join(details)


def _response_scenario(distance: float) -> Scenario:
    pose = dict(n_antennas=5, spacing=0.01, distance=distance)
    return Scenario(
        wave=response.WaveConfig.from_carrier(140e9),
        tx=ArrayPose(azimuth=3 * math.pi / 2, elevation=math.pi / 4, **pose),
        rx=ArrayPose(azimuth=math.pi / 2, elevation=math.pi / 6, **pose),
        irs=IrsLayout(15, 15, 0.02, 0.02, 0.02, 0.02),
    )


def _check_response_flatness(_scn: Scenario):
    def xi(distance):
        sc = _response_scenario(distance)
        return response.amplitude_variation(sc.wave, sc.reflection, sc.irs, sc.tx, sc.rx)

    lo, hi = 0.5, 20.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if xi(mid) > 0.1:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = abs(crossing - 2.5) <= 0.2
    return ok, f"0.1-crossing at {crossing:.3f} m (want 2.5 +/- 0.2)"


def _check_closed_form(scn: Scenario):
    worst = 0.0
    if scn.focusing_mode == "reflective":
        # symmetric user geometries can put exact Dirichlet zeros in the
        # matrix, where a plain entrywise ratio is meaningless; judge small
        # entries on absolute agreement instead
        cs = chan.build_channels(scn)
        cf = chan.closed_form_channel(scn)
        scale = float(np.max(np.abs(cs.h)))
        err = np.abs(cf - cs.h)
        big = np.abs(cs.h) > 1e-6 * scale
        worst = float(np.max(np.where(big, err / np.abs(cs.h), err / scale)))
    rng = np.random.default_rng(20260826)
    for _ in range(5):
        sc = random_scenario(rng)
        cs = chan.build_channels(sc)
        cf = chan.closed_form_channel(sc)
        worst = max(worst, float(np.max(np.abs(cf - cs.h) / np.abs(cs.h))))
    return worst < 1e-8, f"max entrywise relative error {worst:.3e} (< 1e-8)"


def _check_gradient(_scn: Scenario):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(3):
        sc = random_scenario(rng, high_snr=True)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, sc.irs.n_elements))
        m = np.array(
            [
                rng.uniform(-1.2, 1.2),
                rng.uniform(0.4, math.pi - 0.4),
                rng.uniform(-1.2, 1.2),
                rng.uniform(0.4, math.pi - 0.4),
            ]
        )
        an = opt.mi_gradient(sc, theta, m)
        fd = opt.finite_difference_gradient(sc, theta, m, step=1e-6)
        worst = max(worst, float(np.linalg.norm(an - fd) / np.linalg.norm(fd)))
    return worst < 1e-5, f"worst relative gradient error {worst:.3e} (< 1e-5)"


def _check_mm_monotone(_scn: Scenario):
    rng = np.random.default_rng(7)
    sc = replace(random_scenario(rng), power=opt.PowerConfig(1.0, 1e-10))
    cs = chan.build_channels(sc)
    theta = np.exp(1j * rng.uniform(0, 2 * math.pi, sc.irs.n_elements))
    aux = opt.mm_auxiliaries(cs.h_t, cs.h_r, theta, cs.eta0, sc.power)
    lam_max = opt.largest_eigenvalue(aux.w.conj().T @ aux.w)
    obj = opt.qcqp_objective(aux.w, aux.alpha, theta)
    worst_rise = 0.0
    for _ in range(20):
        theta = opt.mm_step(aux.w, aux.alpha, theta, lam_max=lam_max)
        new = opt.qcqp_objective(aux.w, aux.alpha, theta)
        worst_rise = max(worst_rise, new - obj)
        obj = new
    scale = max(1.0, abs(obj))
    return worst_rise <= 1e-9 * scale, f"largest surrogate rise {worst_rise:.3e}"


def _check_gram_fmr(scn: Scenario):
    bound = mux.fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
    d_t, d_r = 0.8 * bound.x.d_t_star, 0.8 * bound.x.d_r_rayleigh
    inside = gram_passes(scn, d_t, d_r, mux.fmr_orientations(bound, d_t, d_r, "x"))
    # past both sides' limits, so a one-antenna side, which has none, still
    # leaves the other side unable to separate its streams
    far_t = 1.2 * bound.x.d_t_rayleigh
    far_r = 1.2 * max(bound.x.d_r_rayleigh, bound.y.d_r_rayleigh)
    outside = gram_passes(scn, far_t, far_r, mux.fmr_probe_orientation(bound, far_t, far_r, "x"))
    ok = inside and not outside
    return ok, (
        f"in-region (D_t={d_t:.3f} m, D_r={d_r:.3f} m) pass={inside}, "
        f"outside (D_t={far_t:.3f} m, D_r={far_r:.3f} m) pass={outside} (want True/False)"
    )


CHECKS = [
    ("rayleigh_golden", _check_rayleigh_golden),
    ("far_field_golden", _check_far_field_golden),
    ("response_flatness", _check_response_flatness),
    ("closed_form", _check_closed_form),
    ("gradient", _check_gradient),
    ("mm_monotone", _check_mm_monotone),
    ("gram_fmr", _check_gram_fmr),
]
