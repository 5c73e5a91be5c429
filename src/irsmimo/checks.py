"""Verification setups shared by `irsmimo verify`, `fmr-map --verify` and the
tests: the golden scenario, the random-scenario generator, the Gram check of
a link posed at solver orientations, and the `verify` checks, each of which
reads only the scenario it is given; the paper's golden values live in the
tests.  Channels, Gram reports and solvers are looked up through the
`channel`, `multiplexing` and `optimize` module attributes, so wrappers
installed there see every call.
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
    """Gram check of each cascade of a (B, N_r, N_t) batch h, complex or
    real (channel.focused_kernels), with common gains gain (B,); only the
    shorter side of a cascade can be orthogonal."""
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
# the `verify` checks: each reads only the scenario it is given and returns
# (ok, detail), with ok None when the scenario does not admit the check

# a phase solver's largest MI drop per step and excess over its bound, in bits
MI_TOL_BITS = 1e-9


def _check_closed_form(scn: Scenario):
    if scn.focusing_mode != "reflective":
        return None, f"the closed form needs reflective focusing, not {scn.focusing_mode}"
    try:  # the closed form's Dirichlet ratios need both sides' coupling anchors
        chan.side_anchors(scn.tx), chan.side_anchors(scn.rx)
    except ValueError as exc:
        return None, f"no closed form: {exc}"
    # each entry above 1e-6 of the largest is judged against itself, the rest
    # against the largest: symmetric user geometries can put exact Dirichlet
    # zeros in the matrix, where a plain entrywise ratio is meaningless
    cs = chan.build_channels(scn)
    cf = chan.closed_form_channel(scn)
    scale = float(np.max(np.abs(cs.h)))
    err = np.abs(cf - cs.h)
    big = np.abs(cs.h) > 1e-6 * scale
    worst = float(np.max(np.where(big, err / np.abs(cs.h), err / scale)))
    return worst < 1e-8, f"max entrywise relative error {worst:.3e} (< 1e-8)"


def _check_gram_fmr(scn: Scenario):
    if scn.tx.n_antennas == scn.rx.n_antennas == 1:
        return None, (
            "one antenna on each side carries one stream, which passes the Gram check everywhere"
        )
    try:
        bound = mux.fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
    except ValueError as exc:
        return None, f"no multiplexing region: {exc}"
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


# a central difference of step h carries a rounding error of about
# eps |MI| / h; below this many times that, its norm is noise and cannot
# judge a relative error of 1e-5 (measured: 1.5-112 at end-fire tilts and
# at 1e6 m, 1.7e8 and more on the golden setup and the shipped scenarios)
_FD_NOISE_MULTIPLE = 1e6


def _scenario_tilts(scn: Scenario) -> list:
    tx, rx = scn.tx, scn.rx
    return [tx.orient_azimuth, tx.orient_elevation, rx.orient_azimuth, rx.orient_elevation]


def _check_gradient(scn: Scenario):
    # random phases: the focusing phases can be a stationary point, where the
    # finite difference is rounding noise
    m = _scenario_tilts(scn)
    cs = chan.build_channels(scn)
    step = 1e-6
    rng = np.random.default_rng(42)
    errors, noisy = [], []
    for _ in range(3):
        theta = np.exp(1j * rng.uniform(0.0, opt.TWO_PI, scn.irs.n_elements))
        an = opt.mi_gradient(scn, theta, m)
        fd = opt.finite_difference_gradient(scn, theta, m, step=step)
        # a link with one antenna per side is orientation-blind: both are 0
        norm = float(np.linalg.norm(fd))
        scale = max(norm, np.finfo(float).tiny)
        errors.append(float(np.linalg.norm(an - fd)) / scale)
        mi = opt.mutual_information(cs.eta0 * ((cs.h_r * theta) @ cs.h_t), scn.power)
        noisy.append(norm < _FD_NOISE_MULTIPLE * np.finfo(float).eps * abs(mi) / step)
    ok = all(err < 1e-5 for err in errors)  # false on a NaN
    detail = f"worst relative gradient error {max(errors):.3e} at 3 random phase draws (< 1e-5)"
    if not ok and all(noise for err, noise in zip(errors, noisy) if not err < 1e-5):
        return None, (
            f"where it fails, the central difference is rounding noise (|fd| < "
            f"{_FD_NOISE_MULTIPLE:.0e} eps |MI| / step): stationary tilts or a vanishing MI; "
            + detail
        )
    return ok, detail


def _check_phase_solvers(scn: Scenario):
    # the joint run moves the tilts, so each run's MI is judged against the
    # bound at the tilts it ends at
    theta = opt.random_init(scn, 42)[0]
    _, m, joint = opt.alternating_optimize(scn, (theta, _scenario_tilts(scn)), eps_oa=0.0,
                                           max_rounds=3)
    mm = opt.optimize_theta(scn, theta, eps_theta=0.0, max_outer=3)[1]
    ok, details = True, []
    for name, trace, end_pose in (("joint", joint, opt.oriented_scenario(scn, m)),
                                  ("mm", mm, scn)):
        cs = chan.build_channels(end_pose)
        bound = opt.mi_upper_bound(cs.h_t, cs.h_r, cs.eta0, scn.power)
        mi = trace.mi_values
        # a run that takes no step has gained nothing
        gain = min((after - before for before, after in zip(mi, mi[1:])), default=0.0)
        ok = ok and gain >= -MI_TOL_BITS and mi[-1] <= bound + MI_TOL_BITS  # false on a NaN
        details.append(f"{name} {mi[0]:.6g} -> {mi[-1]:.6g} bits ({trace.stop_reason}), "
                       f"smallest step gain {gain:.3e}, bound {bound:.6g} bits")
    return ok, "; ".join(details)


CHECKS = [
    ("closed_form", _check_closed_form),
    ("gram_fmr", _check_gram_fmr),
    ("gradient", _check_gradient),
    ("phase_solvers", _check_phase_solvers),
]
