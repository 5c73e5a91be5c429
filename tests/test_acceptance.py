"""Acceptance checklist: nine end-to-end checks with runtime budgets.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
summarizing the measured quantity and the time budget it must meet, then
asserts both.  Tolerances are deliberately frozen here rather than shared
with the unit suites.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from irsmimo.channel import build_channels, closed_form_channel, tx_irs_channel
from irsmimo.checks import golden_scenario, gram_passes, random_scenario
from irsmimo.multiplexing import (
    fmr_inner_bound,
    fmr_orientations,
    fmr_probe_orientation,
    rayleigh_distances,
    region_contains,
    single_hop_orientation,
)
from irsmimo.optimize import (
    allocation_rate,
    alternating_optimize,
    finite_difference_gradient,
    focusing_init,
    mi_gradient,
    mi_upper_bound,
    mutual_information,
    oriented_scenario,
    relaxed_optimum,
)
from irsmimo.response import WaveConfig, far_field_boundary_irs, far_field_boundary_re
from irsmimo.scenario import IrsLayout, Scenario, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = golden_scenario()
WAVE, IRS, TX, RX = GOLDEN.wave, GOLDEN.irs, GOLDEN.tx, GOLDEN.rx
RIGHT_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


def _verdict(index, name, ok, detail, elapsed, budget):
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    print(f"[{index}/9] {status} {name}: {detail} [{elapsed * 1e3:.2f} ms of {budget * 1e3:g} ms]")
    assert ok, f"{name}: {detail}"
    assert elapsed <= budget, f"{name} ran {elapsed:.4f} s against a {budget:g} s budget"


def _best_of(fn, repeats=5):
    """Time fn after a warmup call; returns (result, fastest seconds)."""
    fn()
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_rayleigh_reference_distances():
    rr, elapsed = _best_of(lambda: rayleigh_distances(TX, IRS, WAVE))
    ok = abs(rr.d_rx_axis - 27.0416) <= 1e-3 and abs(rr.d_ry_axis - 29.0474) <= 1e-3
    _verdict(
        1, "rayleigh reference distances", ok,
        f"x={rr.d_rx_axis:.4f} m, y={rr.d_ry_axis:.4f} m (want 27.0416, 29.0474 +/- 1e-3)",
        elapsed, 1e-3,
    )


def test_far_field_boundary_table():
    table = [(75e9, 0.4, 160.0), (140e9, 0.75, 298.7), (338e9, 1.8, 721.0)]
    layout = IrsLayout(19, 19, 0.38 / 18, 0.38 / 18, 0.02, 0.02)

    def compute():
        out = []
        for freq, _, _ in table:
            lam = WaveConfig.from_carrier(freq).wavelength
            out.append((far_field_boundary_re(layout, lam), far_field_boundary_irs(layout, lam)))
        return out

    values, elapsed = _best_of(compute)
    ok = all(
        abs(b_re - want_re) <= 0.01 * want_re and abs(b_irs - want_irs) <= 0.01 * want_irs
        for (b_re, b_irs), (_, want_re, want_irs) in zip(values, table)
    )
    shown = " ".join(f"({b_re:.2f},{b_irs:.1f})" for b_re, b_irs in values)
    _verdict(2, "far-field boundary table", ok, f"{shown} m, all within 1%", elapsed, 1e-3)


def test_closed_form_channel_equivalence():
    rng = np.random.default_rng(20260826)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        sc = random_scenario(rng)
        assembled = build_channels(sc).h
        gap = np.max(np.abs(closed_form_channel(sc) - assembled))
        worst = max(worst, float(gap / np.max(np.abs(assembled))))
    elapsed = time.perf_counter() - t0
    _verdict(
        3, "closed-form channel equivalence", worst < 1e-8,
        f"max relative error {worst:.3e} over 50 draws (< 1e-8)", elapsed, 5.0,
    )


def test_multiplexing_region_soundness():
    bound = fmr_inner_bound(TX, RX, IRS, WAVE)
    t0 = time.perf_counter()
    grid = np.linspace(2.0, 32.0, 20)
    checked = failures = 0
    for d_t in grid:
        for d_r in grid:
            if region_contains(bound, d_t, d_r, "x"):
                region = "x"
            elif region_contains(bound, d_t, d_r, "y"):
                region = "y"
            else:
                continue
            checked += 1
            if not gram_passes(GOLDEN, d_t, d_r, fmr_orientations(bound, d_t, d_r, region)):
                failures += 1
    far = (1.2 * bound.x.d_t_rayleigh, 1.2 * max(bound.x.d_r_rayleigh, bound.y.d_r_rayleigh))
    probe_rejected = not gram_passes(GOLDEN, *far, fmr_probe_orientation(bound, *far, "x"))
    elapsed = time.perf_counter() - t0
    ok = checked > 0 and failures == 0 and probe_rejected
    _verdict(
        4, "multiplexing-region soundness", ok,
        f"{checked}/400 grid points in-region, {failures} Gram failures, outside probe rejected",
        elapsed, 30.0,
    )


def test_right_angle_region_collapse():
    t0 = time.perf_counter()
    worst = 0.0
    for w_t in RIGHT_ANGLES:
        for w_r in RIGHT_ANGLES:
            b = fmr_inner_bound(replace(TX, azimuth=w_t), replace(RX, azimuth=w_r), IRS, WAVE)
            for star, ray in (
                (b.x.d_t_star, b.x.d_t_rayleigh),
                (b.y.d_t_star, b.y.d_t_rayleigh),
                (b.x.d_r_star, b.x.d_r_rayleigh),
                (b.y.d_r_star, b.y.d_r_rayleigh),
            ):
                worst = max(worst, abs(star - ray) / ray)
    elapsed = time.perf_counter() - t0
    _verdict(
        5, "right-angle region collapse", worst <= 1e-9,
        f"max |D* - D_rayleigh| / D_rayleigh = {worst:.3e} over 16 angle pairs", elapsed, 1.0,
    )


def test_single_hop_equal_gain_spectrum():
    d_limit = rayleigh_distances(TX, IRS, WAVE).d_rx_axis

    def spread(distance, setting):
        pose = replace(TX, distance=distance, orient_azimuth=setting.gamma,
                       orient_elevation=setting.psi)
        sc = Scenario(wave=WAVE, tx=pose, rx=RX, irs=IRS)
        h_t = tx_irs_channel(sc)
        ev = np.linalg.eigvalsh(h_t.conj().T @ h_t / IRS.n_elements)
        return float(ev[-1] / ev[0])

    t0 = time.perf_counter()
    inside = []
    for frac in np.linspace(0.1, 1.0, 10):
        d = frac * d_limit
        inside.append(spread(d, single_hop_orientation(replace(TX, distance=d), IRS, WAVE, "x")))
    at_limit = single_hop_orientation(replace(TX, distance=d_limit), IRS, WAVE, "x")
    beyond = spread(2.0 * d_limit, at_limit)
    elapsed = time.perf_counter() - t0
    ok = max(inside) < 1.0 + 1e-6 and beyond > 10.0
    _verdict(
        6, "single-hop equal-gain spectrum", ok,
        f"spread <= {max(inside) - 1.0:.2e} above 1 at 10 distances; {beyond:.1f} at 2x the limit",
        elapsed, 10.0,
    )


def test_gradient_matches_differences():
    rng = np.random.default_rng(20260826)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        sc = random_scenario(rng)
        theta = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, sc.irs.n_elements))
        m = [sc.tx.orient_azimuth, sc.tx.orient_elevation,
             sc.rx.orient_azimuth, sc.rx.orient_elevation]
        g = mi_gradient(sc, theta, m)
        fd = finite_difference_gradient(sc, theta, m, step=1e-6)
        worst = max(worst, float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30)))
    elapsed = time.perf_counter() - t0
    _verdict(
        7, "orientation gradient", worst < 1e-5,
        f"max relative error vs central differences {worst:.3e} over 20 draws", elapsed, 10.0,
    )


def test_optimizer_monotone_and_bounded():
    scn = parse_scenario(str(SCENARIO_DIR / "optimize_small.txt"))
    t0 = time.perf_counter()
    focus_mi = mutual_information(build_channels(scn).h, scn.power)
    stops = dict(theta_stop={"max_outer": 40}, orient_stop={"max_iters": 40}, max_rounds=5)
    runs = [(focusing_init(scn), None)] + [(None, seed) for seed in range(5)]
    monotone = True
    bounded = True
    best = -math.inf
    for init, seed in runs:
        theta, m, trace = alternating_optimize(scn, init, seed=seed, **stops)
        mis = trace.mi_values
        monotone = monotone and all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
        cs = build_channels(oriented_scenario(scn, m))
        bound = mi_upper_bound(cs.h_t, cs.h_r, cs.eta0, scn.power)
        bounded = bounded and mis[-1] <= bound + 1e-9
        best = max(best, mis[-1])
    elapsed = time.perf_counter() - t0
    ok = monotone and bounded and best >= focus_mi - 1e-9
    _verdict(
        8, "optimizer monotonicity and bounds", ok,
        f"6 traces monotone={monotone}, under bound={bounded}, "
        f"best {best:.6f} >= focusing {focus_mi:.6f} bits",
        elapsed, 60.0,
    )


def test_asymptotic_allocations_beat_grid():
    t0 = time.perf_counter()
    n_t, n_r, q_x, q_y = 3, 2, 5, 5
    tot_t, tot_r = n_t * q_x * q_y, n_r * q_x * q_y
    margins = []
    for regime, rho in (("high", 1e6), ("low", 1e-6)):
        alloc = relaxed_optimum(regime, n_t, n_r, q_x, q_y)
        grid_best = -1.0
        for f_t in np.linspace(0.5, 1.0, 50):
            for f_r in np.linspace(0.5, 1.0, 50):
                mu_t = np.array([f_t * tot_t, (1.0 - f_t) * tot_t])
                mu_r = np.array([f_r * tot_r, (1.0 - f_r) * tot_r])
                grid_best = max(grid_best, float(np.sum(np.log1p(rho * mu_r * mu_t)) / math.log(2)))
        margins.append(allocation_rate(alloc, rho) - grid_best)
    elapsed = time.perf_counter() - t0
    ok = all(margin >= -1e-12 for margin in margins)
    _verdict(
        9, "asymptotic split vs grid search", ok,
        f"margins over a 50x50 grid: high {margins[0]:.2e}, low {margins[1]:.2e} bits",
        elapsed, 5.0,
    )
