"""Optimizer tests: MI evaluation, the pairing bound, MM phase updates,
analytic orientation gradients and the alternating driver.

Oracles: plain determinant evaluation for the MI, central finite
differences for the gradient, exhaustive grid search for the relaxed
singular-value split, and the monotonicity contracts of the MM and
line-search loops.
"""

import logging
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from irsmimo import channel as chan
from irsmimo import checks
from irsmimo import optimize as opt
from irsmimo.channel import build_channels
from irsmimo.checks import golden_scenario, posed_scenario, random_scenario
from irsmimo.geometry import ArrayPose, IrsLayout
from irsmimo.multiplexing import fmr_inner_bound, fmr_orientations
from irsmimo.optimize import (
    GAMMA_BOX,
    PSI_BOX,
    allocation_rate,
    alternating_optimize,
    finite_difference_gradient,
    focusing_init,
    largest_eigenvalue,
    mi_gradient,
    mi_upper_bound,
    mm_auxiliaries,
    mm_step,
    mutual_information,
    normalize_orientation,
    optimize_orientation,
    optimize_theta,
    oriented_scenario,
    qcqp_objective,
    random_init,
    relaxed_optimum,
)
from irsmimo.response import WaveConfig
from irsmimo.scenario import PowerConfig, Scenario, parse_scenario
from oracles import (
    coupling_factor,
    edge_setups,
    edge_tilts,
    exact_mutual_information,
    full_jacobian_gradient,
    reference_slopes,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SMALL = str(SCENARIO_DIR / "optimize_small.txt")
BASELINE = str(SCENARIO_DIR / "cascade_baseline.txt")
BOX_LOW, BOX_HIGH = np.array([GAMMA_BOX, PSI_BOX, GAMMA_BOX, PSI_BOX]).T
# tilt vectors with every angle outside the box, each psi off its faces
OUTSIDE_TILTS = [[-5.0, -0.3, 9.0, math.pi + 0.2], [9.0, 7.0, -5.0, -0.3],
                 [-5.0, math.pi + 0.2, 9.0, 7.0]]


def fmr_anchor_scenario(power=None):
    """Reference-direction link placed at an interior feasible point."""
    gold = golden_scenario()
    b = fmr_inner_bound(gold.tx, gold.rx, gold.irs, gold.wave)
    d_t, d_r = 0.6 * b.x.d_t_star, 0.6 * b.x.d_r_rayleigh
    posed = posed_scenario(gold, d_t, d_r, fmr_orientations(b, d_t, d_r, "x"))
    return replace(posed, power=power or PowerConfig(per_antenna_power=1e9, noise_power=1.0))


def cascade(chans, theta):
    return chans.eta0 * ((chans.h_r * np.asarray(theta)[None, :]) @ chans.h_t)


def end_pose_bound(scn, m):
    """mi_upper_bound of the hops build_channels poses at the tilts m."""
    posed = build_channels(oriented_scenario(scn, m))
    return mi_upper_bound(posed.h_t, posed.h_r, posed.eta0, scn.power)


def pose_orientation(scn):
    return [
        scn.tx.orient_azimuth,
        scn.tx.orient_elevation,
        scn.rx.orient_azimuth,
        scn.rx.orient_elevation,
    ]


def reduced_weights(scn, theta, m):
    """(Tx-side, Rx-side) (Q, N) weights of d MI/d phase and the effective
    SNR, those the optimizer's kernel forms on the reduced cascade at the
    tilts m."""
    kernel = opt._LinkKernel(scn)
    state = kernel.point(theta * kernel.link.elements, np.asarray(m, dtype=float))[1]
    weights = kernel.weights(state)
    return (weights[:, : kernel.n_t], weights[:, kernel.n_t :]), kernel.rho_eff


def reduced_mi(scn, theta, m, link=None):
    """MI of the reduced cascade eta0 E_r^T diag(theta * elements) E_t at
    the tilts m, any real angles, each side's coupling factor formed apart
    (the reference form in oracles)."""
    link = link or chan.resolve_link(scn)
    e_t = coupling_factor(link.tx, m[0], m[1])
    e_r = coupling_factor(link.rx, m[2], m[3])
    return mutual_information(link.eta0 * ((e_r.T * (theta * link.elements)) @ e_t), scn.power)


class TestMutualInformation:
    def test_zero_channel_carries_nothing(self):
        assert mutual_information(np.zeros((3, 4), dtype=complex), PowerConfig(2.0, 1.0)) == 0.0

    def test_diagonal_channel(self):
        g, rho = 0.7, 5.0
        h = g * np.exp(1j * np.linspace(0, 5, 4)) * np.eye(4)
        got = mutual_information(h, PowerConfig(rho, 1.0))
        assert got == pytest.approx(4 * math.log2(1 + rho * g * g), rel=1e-12)

    def test_matches_direct_determinant(self, rng):
        for _ in range(10):
            n_r, n_t = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            h = rng.normal(size=(n_r, n_t)) + 1j * rng.normal(size=(n_r, n_t))
            power = PowerConfig(float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0)))
            _, logdet = np.linalg.slogdet(
                np.eye(n_t) + power.snr * h.conj().T @ h
            )
            assert mutual_information(h, power) == pytest.approx(
                logdet / math.log(2), rel=1e-10, abs=1e-12
            )

    def test_only_the_power_ratio_matters(self, rng):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert mutual_information(h, PowerConfig(4.0, 2.0)) == pytest.approx(
            mutual_information(h, PowerConfig(2.0, 1.0)), rel=1e-12
        )

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            mutual_information(np.ones(5, dtype=complex), PowerConfig(1.0, 1.0))

    def test_stack_gives_each_matrix_its_own_bits(self, rng):
        # one MI per matrix of a (..., N_r, N_t) stack, equal to the MI of
        # that matrix alone, also with 8 or more modes, where numpy's sum
        # goes pairwise
        power = PowerConfig(3.0, 0.7)
        for n_r, n_t in ((3, 3), (2, 5), (5, 2), (1, 4), (4, 1), (9, 9), (12, 10)):
            h = rng.normal(size=(2, 4, n_r, n_t)) + 1j * rng.normal(size=(2, 4, n_r, n_t))
            got = mutual_information(h, power)
            assert got.shape == (2, 4)
            for idx in np.ndindex(2, 4):
                assert got[idx] == mutual_information(h[idx], power)
            assert isinstance(mutual_information(h[0, 0], power), float)

    def test_rejects_a_scalar(self):
        with pytest.raises(ValueError, match="matrix"):
            mutual_information(np.complex128(1.0), PowerConfig(1.0, 1.0))

    def test_weak_modes_keep_their_bits(self, rng):
        # H = U diag(sigma) V^H with rho sigma^2 from 1e-6 to 1e7: the
        # eigenvalues of the Gram lost the weak modes to rounding on the
        # scale of the strongest (2e-9 bits off here)
        power = PowerConfig(1.0, 1e-13)
        for n_r, n_t in ((5, 5), (5, 7), (7, 5)):
            n = min(n_r, n_t)
            gains = np.logspace(-6.0, 7.0, n)
            sigma = np.sqrt(gains / power.snr)
            u = np.linalg.qr(rng.normal(size=(n_r, n_r)) + 1j * rng.normal(size=(n_r, n_r)))[0]
            v = np.linalg.qr(rng.normal(size=(n_t, n_t)) + 1j * rng.normal(size=(n_t, n_t)))[0]
            h = (u[:, :n] * sigma) @ v[:, :n].conj().T
            want = sum(math.log1p(g) for g in gains.tolist()) / math.log(2.0)
            assert abs(mutual_information(h, power) - want) <= 1e-12

    def test_matches_an_exact_reference_at_a_reachable_pose(self):
        # the focusing phases at the tilts of one benchmark start, where
        # rho * eig spans 1e-6 to 7e6: the Gram spectrum was 2.95e-9 bits off
        scn = parse_scenario(SMALL)
        _, m = random_init(scn, 8127014756763608238)
        posed = build_channels(oriented_scenario(scn, m))
        h = posed.eta0 * ((posed.h_r * focusing_init(scn)[0]) @ posed.h_t)
        want = exact_mutual_information(h, scn.power.snr)
        assert abs(mutual_information(h, scn.power) - want) <= 1e-12


class TestUpperBound:
    def test_dominates_every_phase_profile(self, rng):
        worst = -np.inf
        for _ in range(100):
            scn = random_scenario(rng)
            betas = rng.uniform(0.0, 2 * math.pi, scn.irs.n_elements)
            chans = build_channels(
                replace(scn, focusing_mode="explicit", focusing_betas=tuple(betas))
            )
            mi = mutual_information(chans.h, scn.power)
            ub = mi_upper_bound(chans.h_t, chans.h_r, chans.eta0, scn.power)
            assert mi <= ub + 1e-9
            worst = max(worst, mi - ub)
        assert worst <= 1e-9

    def test_rank_one_hops_reach_equality(self):
        # all-ones hops have a single singular value; the identity surface
        # keeps every term coherent, so the bound is met exactly
        q, n_t, n_r, gain, rho = 6, 3, 2, 0.3, 2.0
        h_t = np.ones((q, n_t), dtype=complex)
        h_r = np.ones((n_r, q), dtype=complex)
        h = gain * h_r @ h_t
        power = PowerConfig(rho, 1.0)
        expect = math.log2(1 + rho * gain**2 * q**2 * n_t * n_r)
        assert mi_upper_bound(h_t, h_r, gain, power) == pytest.approx(expect, rel=1e-12)
        assert mutual_information(h, power) == pytest.approx(expect, rel=1e-12)

    def test_holds_with_more_receivers_than_transmitters(self, rng):
        # tx and rx swapped, so N_r >= N_t: the bound pairs min(N_t, N_r) modes
        worst = -np.inf
        for _ in range(200):
            scn = random_scenario(rng)
            scn = replace(scn, tx=scn.rx, rx=scn.tx)
            betas = rng.uniform(0.0, 2 * math.pi, scn.irs.n_elements)
            chans = build_channels(
                replace(scn, focusing_mode="explicit", focusing_betas=tuple(betas))
            )
            mi = mutual_information(chans.h, scn.power)
            worst = max(worst, mi - mi_upper_bound(chans.h_t, chans.h_r, chans.eta0, scn.power))
        assert worst <= 1e-9


class TestRelaxedAllocation:
    def test_high_snr_splits_evenly(self):
        alloc = relaxed_optimum("high", 2, 2, 3, 3)
        assert alloc.mu_t_sq == pytest.approx([9.0, 9.0])
        assert alloc.mu_r_sq == pytest.approx([9.0, 9.0])
        assert alloc.regime == "high"
        wide = relaxed_optimum("high", 4, 2, 3, 3)
        assert wide.mu_t_sq == pytest.approx([18.0, 18.0, 0.0, 0.0])

    def test_low_snr_concentrates(self):
        alloc = relaxed_optimum("low", 2, 2, 3, 3)
        assert alloc.mu_t_sq == pytest.approx([18.0, 0.0])
        assert alloc.mu_r_sq == pytest.approx([18.0, 0.0])

    @pytest.mark.parametrize("regime,n_t", [("high", 3), ("low", 3), ("high", 5), ("low", 5)])
    def test_budgets_and_ordering(self, regime, n_t):
        alloc = relaxed_optimum(regime, n_t, 2, 5, 7)
        assert np.sum(alloc.mu_t_sq) == pytest.approx(n_t * 35)
        assert np.sum(alloc.mu_r_sq) == pytest.approx(2 * 35)
        assert np.all(alloc.mu_t_sq >= 0) and np.all(np.diff(alloc.mu_t_sq) <= 0)
        assert np.all(alloc.mu_r_sq >= 0) and np.all(np.diff(alloc.mu_r_sq) <= 0)

    @pytest.mark.parametrize("regime,rho", [("high", 1e6), ("low", 1e-6)])
    def test_beats_exhaustive_grid(self, regime, rho):
        n_t, n_r, q_x, q_y = 3, 2, 5, 5
        alloc = relaxed_optimum(regime, n_t, n_r, q_x, q_y)
        tot_t, tot_r = n_t * q_x * q_y, n_r * q_x * q_y
        best = -1.0
        for f_t in np.linspace(0.5, 1.0, 50):
            for f_r in np.linspace(0.5, 1.0, 50):
                mu_t = np.array([f_t * tot_t, (1.0 - f_t) * tot_t])
                mu_r = np.array([f_r * tot_r, (1.0 - f_r) * tot_r])
                best = max(best, float(np.sum(np.log1p(rho * mu_r * mu_t)) / math.log(2)))
        assert allocation_rate(alloc, rho) >= best - 1e-12

    def test_rejections(self):
        with pytest.raises(ValueError, match="power_regime"):
            relaxed_optimum("medium", 2, 2, 3, 3)

    @pytest.mark.parametrize("regime", ["high", "low"])
    def test_more_receivers_mirror_more_transmitters(self, regime):
        wide = relaxed_optimum(regime, 4, 2, 3, 3)
        tall = relaxed_optimum(regime, 2, 4, 3, 3)
        assert np.array_equal(tall.mu_t_sq, wide.mu_r_sq)
        assert np.array_equal(tall.mu_r_sq, wide.mu_t_sq)
        assert allocation_rate(tall, 1e3) == allocation_rate(wide, 1e3)


class TestMmMachinery:
    def seeded_parts(self, rng):
        scn = random_scenario(rng, high_snr=True)
        chans = build_channels(scn)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
        return scn, chans, theta

    def test_auxiliaries_are_wellformed(self, rng):
        for _ in range(5):
            scn, chans, theta = self.seeded_parts(rng)
            aux = mm_auxiliaries(chans.h_t, chans.h_r, theta, chans.eta0, scn.power)
            lam = aux.w @ aux.w.conj().T
            n_t, q = chans.h_t.shape[1], scn.irs.n_elements
            assert aux.phi.shape == (n_t, chans.h_r.shape[0])
            assert aux.sigma.shape == (n_t, n_t)
            assert lam.shape == (q, q)
            assert aux.alpha.shape == (q,)
            assert np.allclose(aux.sigma, aux.sigma.conj().T)
            assert np.allclose(lam, lam.conj().T)
            ev_s = np.linalg.eigvalsh(aux.sigma)
            ev_l = np.linalg.eigvalsh(lam)
            assert ev_s[0] >= -1e-10 * max(ev_s[-1], 1e-300)
            assert ev_l[0] >= -1e-10 * max(ev_l[-1], 1e-300)

    def test_factor_reproduces_the_dense_surrogate(self, rng):
        for _ in range(5):
            scn, chans, theta = self.seeded_parts(rng)
            h_t, h_r, eta0, p = chans.h_t, chans.h_r, chans.eta0, scn.power.per_antenna_power
            aux = mm_auxiliaries(h_t, h_r, theta, eta0, scn.power)
            n_t, q = h_t.shape[1], scn.irs.n_elements
            assert aux.w.shape == (q, n_t * n_t)
            core = aux.phi.conj().T @ np.linalg.solve(aux.sigma, aux.phi)
            lam = p * eta0**2 * np.conj(h_t @ h_t.conj().T) * (h_r.conj().T @ core @ h_r)
            err = np.linalg.norm(aux.w @ aux.w.conj().T - lam)
            assert err <= 1e-12 * np.linalg.norm(lam)
            top = float(np.linalg.eigvalsh(0.5 * (lam + lam.conj().T))[-1])
            assert largest_eigenvalue(aux.w.conj().T @ aux.w) == pytest.approx(top, rel=1e-12)
            quad = float(np.real(np.vdot(theta, lam @ theta)))
            no_linear = np.zeros_like(aux.alpha)
            assert qcqp_objective(aux.w, no_linear, theta) == pytest.approx(quad, rel=1e-12)

    def test_noise_dominated_limit(self, rng):
        scn, chans, theta = self.seeded_parts(rng)
        power = PowerConfig(per_antenna_power=3.0, noise_power=1e18)
        aux = mm_auxiliaries(chans.h_t, chans.h_r, theta, chans.eta0, power)
        assert np.linalg.norm(aux.phi) < 1e-9
        assert np.allclose(aux.sigma, 3.0 * np.eye(aux.sigma.shape[0]), atol=1e-9)
        assert np.linalg.norm(aux.w @ aux.w.conj().T) < 1e-9
        assert np.linalg.norm(aux.alpha) < 1e-9

    def test_a_negative_error_covariance_eigenvalue_is_floored(self, caplog):
        # at 1e-30 W of noise the error covariance is rounding noise with a
        # negative eigenvalue; the floor lifts it so its Cholesky factor exists
        scn = replace(parse_scenario(SMALL), power=PowerConfig(1.0, 1e-30))
        chans = build_channels(scn)
        with caplog.at_level(logging.WARNING, logger="irsmimo.optimize"):
            aux = mm_auxiliaries(chans.h_t, chans.h_r, chans.theta, chans.eta0, scn.power)
        assert "error covariance regularized: min eigenvalue -" in caplog.text
        assert np.isfinite(aux.w).all() and np.isfinite(aux.alpha).all()
        theta = mm_step(aux.w, aux.alpha, chans.theta)
        assert np.abs(theta) == pytest.approx(np.ones(scn.irs.n_elements), abs=1e-12)

    def test_step_solves_the_pure_linear_case(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, 6))
        out = mm_step(np.zeros((6, 6), dtype=complex), -v, theta)
        assert np.allclose(out, np.exp(1j * np.angle(v)))

    def test_step_never_worsens_the_surrogate(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 24))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            w = a / math.sqrt(n)
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            theta = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
            before = qcqp_objective(w, alpha, theta)
            after = qcqp_objective(w, alpha, mm_step(w, alpha, theta))
            assert after <= before + 1e-9 * max(1.0, abs(before))

    def test_step_is_the_normalized_update_bit_for_bit(self, rng):
        # mm_step builds q in place and skips the masked divide when no
        # entry is zero; both must give the plain formula's bits
        for zero in (False, True):
            n = 12
            w = (rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))) / math.sqrt(n)
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            theta = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
            lam_max = largest_eigenvalue(w.conj().T @ w)
            if zero:  # make entry 4 of the update direction exactly zero
                alpha[4] = (lam_max * theta - w @ (w.conj().T @ theta))[4]
            q = lam_max * theta - w @ (w.conj().T @ theta) - alpha
            mag = np.abs(q)
            assert (mag[4] == 0) == zero
            want = np.divide(q, mag, out=theta.astype(complex), where=mag > 0)
            assert np.array_equal(mm_step(w, alpha, theta, lam_max=lam_max), want)
            z = w.conj().T @ theta
            assert np.array_equal(mm_step(w, alpha, theta, lam_max=lam_max, z=z), want)

    def test_step_normalizes_a_subnormal_update(self):
        # numpy's complex division by a subnormal magnitude overflows
        alpha = np.array([3e-310 + 4e-310j, -5e-311j, 1.0 + 0j, 0j])
        theta = np.exp(1j * np.arange(4.0))
        with np.errstate(all="raise", under="ignore"):
            out = mm_step(np.zeros((4, 1)), alpha, theta, lam_max=0.0)
        assert np.allclose(out[:3], np.exp(1j * np.angle(-alpha[:3])), rtol=0, atol=1e-12)
        assert out[3] == theta[3]

    def test_optimal_point_is_fixed(self, rng):
        n = 8
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = a / math.sqrt(n)
        lam = a @ a.conj().T / n
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
        lam_max = float(np.linalg.eigvalsh(lam)[-1])
        # choose the linear term so the update direction is theta itself
        alpha = (lam_max * theta - lam @ theta) - theta
        assert np.allclose(mm_step(w, alpha, theta, lam_max=lam_max), theta)

    @pytest.mark.parametrize("n", [12, 80])
    def test_top_eigenvalue_both_paths(self, rng, n):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        psd = a @ a.conj().T
        assert largest_eigenvalue(psd) == pytest.approx(
            float(np.linalg.eigvalsh(psd)[-1]), rel=1e-8
        )
        assert largest_eigenvalue(psd) >= float(np.linalg.eigvalsh(psd)[-1]) * (1 - 1e-12)


def reference_optimize_theta(scn, theta0, *, eps_theta=1e-6, eps_mm=1e-8, max_outer, max_inner=500):
    """optimize_theta spelled out with mm_step and qcqp_objective."""
    theta = np.asarray(theta0, dtype=complex)
    theta = theta / np.abs(theta)
    cs = build_channels(scn)
    h_t, h_r, gain = cs.h_t, cs.h_r, cs.eta0

    def mi(th):
        return mutual_information(gain * ((h_r * th[None, :]) @ h_t), scn.power)

    mis = [mi(theta)]
    for _ in range(max_outer):
        aux = mm_auxiliaries(h_t, h_r, theta, gain, scn.power)
        lam_max = largest_eigenvalue(aux.w.conj().T @ aux.w)
        obj = qcqp_objective(aux.w, aux.alpha, theta)
        for _ in range(max_inner):
            theta = mm_step(aux.w, aux.alpha, theta, lam_max=lam_max)
            new_obj = qcqp_objective(aux.w, aux.alpha, theta)
            if obj - new_obj < eps_mm:
                break
            obj = new_obj
        mis.append(mi(theta))
        if mis[-1] - mis[-2] < eps_theta:
            break
    return theta, mis


class TestThetaOptimizer:
    def test_single_stream_goes_coherent(self):
        # with one antenna a side the best the surface can do is add all
        # elements in phase; the MM loop should find that configuration
        scn = Scenario(
            wave=WaveConfig(0.005),
            tx=ArrayPose(1, 0.05, 4.0, 5.0, 0.7, 1.2, 0.9),
            rx=ArrayPose(1, 0.05, 3.0, 1.0, 0.4, 0.3, 1.8),
            irs=IrsLayout(7, 7, 0.03, 0.03, 0.02, 0.02),
            power=PowerConfig(1e6, 1.0),
        )
        theta0, _ = random_init(scn, 5)
        theta, _ = optimize_theta(scn, theta0)
        chans = build_channels(scn)
        top = abs(cascade(chans, theta)[0, 0])
        assert top == pytest.approx(chans.eta0 * scn.irs.n_elements, rel=1e-3)

    def test_trace_is_monotone(self, rng):
        scn = random_scenario(rng, high_snr=True)
        theta0, _ = random_init(scn, 31)
        theta, trace = optimize_theta(scn, theta0, max_outer=8)
        mis = trace.mi_values
        assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
        assert all(row[2] == "theta" for row in trace.iterations)
        chans = build_channels(scn)
        assert mutual_information(cascade(chans, theta), scn.power) >= mis[0] - 1e-9

    @pytest.mark.parametrize("per_antenna, noise", [(1.0, 1e-300), (1e200, 1e100), (1e300, 1e10)])
    def test_a_step_that_lowers_the_mi_is_not_taken(self, per_antenna, noise):
        # verify's phase_solvers draw: the second MM step lowers the MI by
        # 9.5e-6 to 3.6e-4 bits; the block keeps the phases from before it
        base = parse_scenario(SMALL)
        scn = replace(base, power=PowerConfig(per_antenna, noise))
        theta, trace = optimize_theta(scn, random_init(scn, 42)[0], eps_theta=0.0, max_outer=3)
        mis = trace.mi_values
        assert trace.stop_reason == "no_ascent"
        assert len(mis) == 2 and mis[1] > mis[0]
        assert mutual_information(cascade(build_channels(scn), theta), scn.power) == mis[-1]

    def test_a_rounding_dip_is_taken(self):
        # the benchmark's Q = 961 focusing start: the first MM step lowers
        # the MI by 1.1e-13 of 80.54 bits, which is rounding, so it is taken
        base = parse_scenario(BASELINE)
        scn = replace(base, irs=replace(base.irs, q_x=31, q_y=31), power=PowerConfig(1.0, 1e-13))
        _, trace = optimize_theta(scn, build_channels(scn).theta, max_outer=3)
        mis = trace.mi_values
        assert trace.stop_reason == "threshold"
        assert len(mis) == 2 and 0.0 < mis[0] - mis[1] < 1e-13 * mis[0]

    def test_focusing_start_is_already_converged(self):
        scn = fmr_anchor_scenario()
        theta0 = build_channels(scn).theta
        chans = build_channels(scn)
        before = mutual_information(cascade(chans, theta0), scn.power)
        theta, trace = optimize_theta(scn, theta0, max_outer=20)
        after = mutual_information(cascade(chans, theta), scn.power)
        assert abs(after - before) < 1e-6
        assert trace.stop_reason == "threshold"

    def test_large_surface_never_forms_a_q_by_q_matrix(self):
        base = parse_scenario(SMALL)
        scn = replace(base, irs=replace(base.irs, q_x=31, q_y=31))
        theta0, _ = random_init(scn, 3)
        q = scn.irs.n_elements
        tracemalloc.start()
        try:
            optimize_theta(scn, theta0, max_outer=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * q * q / 4  # a quarter of one complex Q x Q array

    def test_matches_the_reference_mm_loop_bit_for_bit(self, rng):
        # optimize_theta carries z = w^H theta from step to step; its phases
        # and trace must be those of plain mm_step / qcqp_objective calls
        draws = [random_scenario(rng, high_snr=True) for _ in range(4)]
        while draws[-1].rx.n_antennas <= draws[-1].tx.n_antennas:
            draws[-1] = random_scenario(rng, high_snr=True)
        draws.insert(0, random_scenario(rng, high_snr=True))
        for scn in draws:
            theta0, _ = random_init(scn, 17)
            theta, trace = optimize_theta(scn, theta0, max_outer=6)
            want_theta, want_mis = reference_optimize_theta(scn, theta0, max_outer=6)
            assert np.array_equal(theta, want_theta)
            assert trace.mi_values == want_mis

    def test_rejects_zero_entries(self):
        scn = fmr_anchor_scenario()
        bad = np.ones(scn.irs.n_elements, dtype=complex)
        bad[3] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            optimize_theta(scn, bad)


def exactness_draws(rng):
    """random_scenario draws covering N_r > N_t, a one-antenna Rx and Tx
    side, and a noise-dominated link (1e-3 W)."""
    draws, wanted = [], {"tall": None, "rx_single": None, "tx_single": None}
    while any(v is None for v in wanted.values()):
        scn = random_scenario(rng, high_snr=True)
        n_t, n_r = scn.tx.n_antennas, scn.rx.n_antennas
        if n_r == 1 and wanted["rx_single"] is None:
            wanted["rx_single"] = scn
            wanted["tx_single"] = replace(scn, tx=scn.rx, rx=scn.tx)
        elif n_r > n_t and wanted["tall"] is None:
            wanted["tall"] = scn
        elif len(draws) < 2:
            draws.append(scn)
    noisy = replace(random_scenario(rng), power=PowerConfig(1.0, 1e-3))
    return draws + list(wanted.values()) + [noisy]


class TestElementwiseSolver:
    def test_one_update_beats_a_phase_grid(self, rng):
        # the joint rounds' end, from focusing and from a seed, at its own
        # hops: no element's phase moved alone to any point of a 720-point
        # grid raises the MI by eps_oa = 1e-6 bits, so the exact
        # one-element update of the phase sweep the rounds no longer run
        # would not gain that much (at most 7.1e-9 bits, on the
        # noise-dominated draw)
        grid = np.exp(2j * math.pi * np.arange(720) / 720)
        for scn in exactness_draws(rng):
            for start in (focusing_init(scn), random_init(scn, 5)):
                theta, m, _ = alternating_optimize(scn, start)
                chans = build_channels(oriented_scenario(scn, m))
                end = mutual_information(cascade(chans, theta), scn.power)
                for k in range(len(theta)):
                    trials = np.repeat(theta[None, :], len(grid), axis=0)
                    trials[:, k] = grid
                    stack = chans.eta0 * ((chans.h_r[None] * trials[:, None, :]) @ chans.h_t)
                    assert float(np.max(mutual_information(stack, scn.power))) < end + 1e-6

    def test_the_focusing_start_climbs_as_far_as_a_seed_at_every_snr(self, rng):
        # the stops are relative below 1 bit: on the noise-dominated draw
        # (MI about 1.3e-5 bits) the focusing start ends within 0.1% of the
        # MI random_init(scn, 5) reaches, as on the high-SNR draws; with
        # stops of 1e-6 bits at any MI it stopped after one round at
        # 1.23e-5 bits, 5.6% short
        for scn in exactness_draws(rng):
            ends = [alternating_optimize(scn, start)[2].mi_values[-1]
                    for start in (focusing_init(scn), random_init(scn, 5))]
            assert ends[0] >= ends[1] - 1e-3 * abs(ends[1])

    def test_starts_on_a_half_wavelength_surface_end_at_one_mi(self):
        # the baseline with a 31 x 31 surface at half-wavelength pitch, the
        # joint optimizer run to convergence from focusing and from seeds
        # 0-2: every trace is monotone and bounded at its end pose, and all
        # four end within 1e-6 bits of each other (at 18.098680 bits)
        base = parse_scenario(BASELINE)
        pitch = base.wave.wavelength / 2
        scn = replace(base, irs=IrsLayout(31, 31, pitch, pitch, pitch, pitch),
                      power=PowerConfig(1.0, 1e-13))
        ends = []
        for start in [focusing_init(scn)] + [random_init(scn, seed) for seed in range(3)]:
            _, m, trace = alternating_optimize(scn, start)
            mis = trace.mi_values
            assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
            assert mis[-1] <= end_pose_bound(scn, m) + 1e-9
            assert trace.stop_reason == "threshold"
            ends.append(mis[-1])
        assert max(ends) - min(ends) < 1e-6

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.txt")), ids=lambda p: p.stem)
    def test_sweeps_are_monotone_and_bounded_on_the_shipped_scenarios(self, path):
        # the joint optimizer from the focusing phases and from random ones,
        # at the scenario's tilts; its bound is taken at the tilts it ends at
        scn = parse_scenario(str(path))
        chans = build_channels(scn)
        for theta0 in (chans.theta, random_init(scn, 4)[0]):
            _, m, trace = alternating_optimize(scn, (theta0, pose_orientation(scn)),
                                               max_rounds=15)
            mis = trace.mi_values
            assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
            assert mis[-1] <= end_pose_bound(scn, m) + 1e-9
            rounds = trace.iterations[-1][0]
            assert [row[2] for row in trace.iterations[1:]] == ["joint"] * rounds

    def test_sweeps_are_monotone_and_bounded_on_random_draws(self, rng):
        for scn in exactness_draws(rng):
            theta, m, trace = alternating_optimize(scn, random_init(scn, 8), max_rounds=30)
            mis = trace.mi_values
            assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
            assert mis[-1] <= end_pose_bound(scn, m) + 1e-9
            assert trace.iterations[-1][0] == 30 or trace.stop_reason == "threshold"
            posed = build_channels(oriented_scenario(scn, m))
            assert abs(mutual_information(cascade(posed, theta), scn.power) - mis[-1]) <= 1e-9

    def test_rejects_zero_entries(self):
        scn = fmr_anchor_scenario()
        bad = np.ones(scn.irs.n_elements, dtype=complex)
        bad[3] = 0.0
        with pytest.raises(ValueError, match="^theta entries must be nonzero unit phasors$"):
            alternating_optimize(scn, (bad, pose_orientation(scn)))

    def test_large_surface_never_forms_a_q_by_q_matrix(self):
        base = parse_scenario(SMALL)
        scn = replace(base, irs=replace(base.irs, q_x=31, q_y=31))
        theta0, _ = random_init(scn, 3)
        q = scn.irs.n_elements
        tracemalloc.start()
        try:
            alternating_optimize(scn, random_init(scn, 3), max_rounds=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * q * q / 4  # a quarter of one complex Q x Q array

    @pytest.mark.parametrize("solver", ["joint", "mm"])
    @pytest.mark.parametrize("name", ["cascade_baseline", "response_variation"])
    def test_both_solvers_run_at_a_subnormal_snr(self, name, solver):
        # at 1e-300 W the ascent's weights and the MM update are subnormal;
        # underflow stays ignored because the weak modes' MI terms are themselves subnormal
        base = parse_scenario(str(SCENARIO_DIR / f"{name}.txt"))
        scn = replace(base, power=PowerConfig(per_antenna_power=1e-300))
        theta0, m0 = random_init(scn, 1)
        with np.errstate(all="raise", under="ignore"):
            if solver == "joint":
                theta, _, trace = alternating_optimize(scn, (theta0, m0), max_rounds=3)
            else:
                theta, trace = optimize_theta(scn, theta0, max_outer=3)
        assert np.allclose(np.abs(theta), 1.0)
        assert np.all(np.isfinite(trace.mi_values))


def quadratic_ascent(curv, peak, x0, *, eps=0.0, patience=1, max_steps=2):
    """opt._lbfgs_ascent on f(x) = -sum(curv (x - peak)^2) / 2 from x0, with
    a phase-like block of three coordinates (first move 1) and a tilt-like
    block of two (first move 0.1); returns ((its end point, the end point's
    f, its stop reason), every trial it scored, in order)."""
    curv, peak, x0 = (np.asarray(v, dtype=float) for v in (curv, peak, x0))
    trials = []

    def f(x):
        return float(-0.5 * np.sum(curv * (x - peak) ** 2))

    def evaluate(x):
        trials.append(x)
        return f(x), x

    blocks = ((slice(0, 3), 1.0), (slice(3, None), 0.1))
    x, mis, reason = opt._lbfgs_ascent(evaluate, lambda x: -curv * (x - peak), x0, f(x0), x0,
                                       blocks, eps, patience, max_steps)
    return (x, mis[-1], reason), trials


def bfgs_direction(grad, s, y, scales):
    """H grad for the BFGS update (N&W eq. 6.17) of H0 = diag(scales) by
    the pair (s, y), in matrix form."""
    rho = 1.0 / float(s @ y)
    v = np.eye(len(s)) - rho * np.outer(y, s)
    return (v.T @ np.diag(scales) @ v + rho * np.outer(s, s)) @ grad


class TestLbfgsAscent:
    def test_each_block_first_moves_its_own_largest_step(self):
        # the first direction is the gradient, scaled so the phase block's
        # largest move is 1 and the tilt block's 0.1
        (_, _, _), trials = quadratic_ascent([1, 1, 1, 100, 100], [3, -2, 1, 0.5, -0.25],
                                             np.zeros(5), max_steps=1)
        assert np.allclose(trials[0], [1.0, -2 / 3, 1 / 3, 0.1, -0.05], rtol=1e-15, atol=0)

    def test_each_block_is_scaled_by_its_own_curvature(self):
        # curvature 1 on the phases and 100 on the tilts: after one pair,
        # s^T y / y^T y of each block is the inverse of its curvature, so the
        # second direction is the Newton step and lands on the peak (one
        # common scale, 0.022 here, would not)
        curv, peak = np.array([1, 1, 1, 100, 100.0]), np.array([3, -2, 1, 0.5, -0.25])
        (x, mi, _), trials = quadratic_ascent(curv, peak, np.zeros(5), max_steps=2)
        s, grad = trials[0], -curv * (trials[0] - peak)
        want = trials[0] + bfgs_direction(grad, s, curv * s, 1.0 / curv)
        assert np.allclose(trials[1], want, rtol=1e-12, atol=1e-12)
        assert np.allclose(x, peak, rtol=0, atol=1e-12)
        assert abs(mi) <= 1e-20
        common = float(s @ (curv * s)) / float((curv * s) @ (curv * s))
        assert not np.allclose(trials[0] + bfgs_direction(grad, s, curv * s, [common] * 5), peak,
                               atol=1e-3)

    def test_a_block_without_positive_curvature_takes_the_pairs_scale(self):
        # the tilt block is convex (curvature -1), so its own s^T y is
        # negative; the pair's s^T y is positive, and it scales that block by
        # the whole pair's s^T y / y^T y, the phase block by its own (1)
        curv, peak = np.array([1, 1, 1, -1, -1.0]), np.array([3, -2, 1, 0, 0.0])
        x0 = np.array([0, 0, 0, 0.3, -0.2])
        (_, _, _), trials = quadratic_ascent(curv, peak, x0, max_steps=2)
        s, grad = trials[0] - x0, -curv * (trials[0] - peak)
        y = curv * s
        assert s[3:] @ y[3:] < 0 < s @ y
        pair = float(s @ y) / float(y @ y)
        want = trials[0] + bfgs_direction(grad, s, y, [1, 1, 1, pair, pair])
        assert np.allclose(trials[1], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("patience, steps", [(1, 1), (3, 8)])
    def test_stops_after_patience_small_steps_in_a_row(self, patience, steps):
        # scripted MI rises with a constant tiny slope, so every first trial
        # is taken: a big rise resets the count of small steps (< eps, from
        # 1 bit up) in a row, and the ascent stops when that count reaches
        # patience
        rises = [1e-8, 1.0, 1e-8, 1e-8, 1.0, 1e-8, 1e-8, 1e-8, 1.0, 1.0]
        mis, trials = 1.0 + np.cumsum(rises), []

        def evaluate(x):
            trials.append(x)
            return float(mis[len(trials) - 1]), None

        _, trace, reason = opt._lbfgs_ascent(evaluate, lambda state: np.array([1e-9]),
                                             np.zeros(1), 1.0, None, ((slice(None), 1.0),),
                                             1e-6, patience, 50)
        mi = trace[-1]
        assert reason == "threshold"
        assert len(trials) == steps
        assert mi == mis[steps - 1]

    @pytest.mark.parametrize("start, rises, steps", [
        (1e-5, [1e-9, 1e-9, 1e-12, 1.0], 3), (0.5, [1e-6, 3e-7, 1.0], 2), (2.0, [1e-9, 1.0], 1),
    ])
    def test_a_small_step_is_relative_below_one_bit(self, start, rises, steps):
        # a step is small when it gains less than eps min(1, |MI|) of the
        # point it leaves from: from 1e-5 bits a rise of 1e-9 is not small
        # and one of 1e-12 is; from 0.5 bits 3e-7 is small and 1e-6 is not;
        # from 2 bits 1e-9 is small, as eps is the floor from 1 bit up
        mis, trials = start + np.cumsum(rises), []

        def evaluate(x):
            trials.append(x)
            return float(mis[len(trials) - 1]), None

        _, trace, reason = opt._lbfgs_ascent(evaluate, lambda state: np.array([1e-9]),
                                             np.zeros(1), start, None, ((slice(None), 1.0),),
                                             1e-6, 1, 50)
        assert reason == "threshold"
        assert len(trials) == steps
        assert trace[-1] == mis[steps - 1]

    def test_stops_after_max_steps(self):
        (_, _, reason), trials = quadratic_ascent([1, 4, 9, 100, 400], [3, -2, 1, 0.5, -0.25],
                                                  np.zeros(5), eps=math.inf, patience=3,
                                                  max_steps=2)
        assert reason == "max_iters"
        assert len(trials) == 2

    @pytest.mark.parametrize("rises, reason, calls", [
        ([1.0, 1e-8], "threshold", 2),
        ([1.0, 1.0, 1.0], "max_iters", 3),
        ([1.0, 1.0], "no_ascent", 3),
    ], ids=["threshold", "max_iters", "no_ascent"])
    def test_slopes_are_formed_only_where_another_step_follows(self, rises, reason, calls):
        # the gradient at the start and at each point taken feeds the next
        # direction; the point a "threshold" or "max_iters" stop ends on
        # feeds none, so its gradient is not formed, while a "no_ascent"
        # stop formed it for the direction whose trials all fail
        mis, trials, points = np.cumsum(rises).tolist(), [], []

        def evaluate(x):
            trials.append(x)
            return (mis[len(trials) - 1] if len(trials) <= len(mis) else -1.0), len(trials)

        def slopes(state):
            points.append(state)
            return np.array([1e-9])

        _, trace, got = opt._lbfgs_ascent(evaluate, slopes, np.zeros(1), 0.0, 0,
                                          ((slice(None), 1.0),), 1e-6, 1, 3)
        assert got == reason
        assert trace == [0.0, *mis]
        assert points == list(range(calls))

    def test_directions_match_dense_bfgs_updates(self):
        # each direction after k >= 2 pairs, against H grad with H built
        # densely: the block-diagonal s^T y / y^T y of the newest pair, then
        # the BFGS update (N&W eq. 6.17) by each of the last
        # opt._LBFGS_MEMORY pairs, oldest first; 12 steps, so the memory
        # fills and the oldest pairs drop out
        curv, peak = np.array([1, 4, 9, 100, 400.0]), np.array([3, -2, 1, 0.5, -0.25])
        log = []

        def f(x):
            return float(-0.5 * np.sum(curv * (x - peak) ** 2))

        def evaluate(x):
            log.append(("trial", x))
            return f(x), x

        def slopes(x):
            log.append(("point", x))
            return -curv * (x - peak)

        blocks = ((slice(0, 3), 1.0), (slice(3, None), 0.1))
        _, mis, reason = opt._lbfgs_ascent(evaluate, slopes, np.zeros(5), f(np.zeros(5)),
                                           np.zeros(5), blocks, 0.0, 1, 12)
        assert (reason, len(mis)) == ("max_iters", 13)
        # each point taken, and its direction: the first trial after it
        # (step 1) less the point
        steps = [(x, log[i + 1][1] - x) for i, (kind, x) in enumerate(log[:-1])
                 if kind == "point"]
        pairs, checked = [], 0
        for k, (x, d) in enumerate(steps):
            if k:
                s = x - steps[k - 1][0]
                pairs.append((s, curv * s))  # y = grad - grad_new = curv s
            kept = pairs[-opt._LBFGS_MEMORY:]
            if len(kept) < 2:
                continue
            s, y = kept[-1]
            scales = np.empty(5)
            for block, _ in blocks:
                scales[block] = (s[block] @ y[block]) / (y[block] @ y[block])
            h = np.diag(scales)
            for s, y in kept:
                rho = 1.0 / float(s @ y)
                v = np.eye(5) - rho * np.outer(y, s)
                h = v.T @ h @ v + rho * np.outer(s, s)
            want = h @ (-curv * (x - peak))
            assert np.linalg.norm(d - want) <= 1e-10 * np.linalg.norm(want)
            checked += 1
        assert checked >= 8

    def test_a_zero_gradient_is_no_ascent(self):
        # from the peak no direction points uphill: no trial is scored and
        # the trace is the start's MI alone
        peak = np.array([3, -2, 1, 0.5, -0.25])
        (x, mi, reason), trials = quadratic_ascent([1, 4, 9, 100, 400], peak, peak)
        assert reason == "no_ascent"
        assert trials == []
        assert np.array_equal(x, peak) and mi == 0.0

    def test_exhausted_backtracking_is_no_ascent(self):
        # a slope of the wrong sign: every trial along the "uphill" direction
        # lowers the MI, so after opt._BACKTRACKS trials no step is taken
        curv, peak = np.array([1.0, 4.0]), np.array([3.0, -2.0])
        trials = []

        def evaluate(x):
            trials.append(x)
            return float(-0.5 * np.sum(curv * (x - peak) ** 2)), x

        x0 = np.zeros(2)
        mi0 = evaluate(x0)[0]
        trials.clear()
        state, mis, reason = opt._lbfgs_ascent(evaluate, lambda x: curv * (x - peak), x0, mi0,
                                               x0, ((slice(None), 1.0),), 0.0, 1, 5)
        assert reason == "no_ascent"
        assert len(trials) == opt._BACKTRACKS
        assert mis == [mi0]
        assert state is x0


class TestPhaseRefinement:
    @staticmethod
    def phase_gradients(scn, theta):
        """d MI/d phi of theta = exp(j phi) at the scenario's tilts, from the
        row sums of the Tx-side weights of the kernel and from those of its
        Rx-side weights."""
        (e_t, e_r), rho_eff = reduced_weights(scn, theta, pose_orientation(scn))
        coef = -2.0 * rho_eff / math.log(2.0)
        return coef * e_t.sum(axis=1), coef * e_r.sum(axis=1)

    def test_phase_gradient_matches_central_differences(self, rng):
        step = 1e-5
        for scn in edge_setups(rng):
            chans = build_channels(scn)
            theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
            tx_side, rx_side = self.phase_gradients(scn, theta)
            fd = np.zeros(len(theta))
            for q in range(len(theta)):
                hi, lo = theta.copy(), theta.copy()
                hi[q] *= np.exp(1j * step)
                lo[q] *= np.exp(-1j * step)
                fd[q] = (opt._cascade_mi(chans.h_t, chans.h_r, chans.eta0, hi, scn.power)
                         - opt._cascade_mi(chans.h_t, chans.h_r, chans.eta0, lo, scn.power))
            fd /= 2.0 * step
            assert np.linalg.norm(tx_side - fd) <= 1e-6 * np.linalg.norm(fd)
            assert np.allclose(tx_side, rx_side, rtol=0.0,
                               atol=1e-12 * float(np.max(np.abs(tx_side))))


class TestGradients:
    def test_matches_central_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            scn = random_scenario(rng)
            theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
            m = pose_orientation(scn)
            g = mi_gradient(scn, theta, m)
            fd = finite_difference_gradient(scn, theta, m, step=1e-6)
            worst = max(worst, np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30))
        assert worst < 1e-5

    def test_difference_shrinks_quadratically(self, rng):
        # central differences are second-order: doubling the step should
        # multiply the truncation error by about four
        for _ in range(3):
            scn = random_scenario(rng, high_snr=True)
            theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
            m = pose_orientation(scn)
            g = mi_gradient(scn, theta, m)
            coarse = np.linalg.norm(finite_difference_gradient(scn, theta, m, 2e-3) - g)
            fine = np.linalg.norm(finite_difference_gradient(scn, theta, m, 1e-3) - g)
            assert 3.0 < coarse / fine < 5.0

    def test_fully_open_tilt_is_stationary(self, rng):
        # psi -> pi - psi relabels the antennas (a column/row permutation),
        # so the MI is even around psi = pi/2 and its derivative vanishes
        for _ in range(3):
            scn = random_scenario(rng, high_snr=True)
            theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
            m = [scn.tx.orient_azimuth, math.pi / 2, scn.rx.orient_azimuth, math.pi / 2]
            g = mi_gradient(scn, theta, m)
            assert abs(g[1]) < 1e-8
            assert abs(g[3]) < 1e-8

    def test_scalar_link_is_orientation_blind(self):
        # one antenna, one element: the channel magnitude cannot depend on
        # where the (single-element) arrays point
        scn = Scenario(
            wave=WaveConfig(0.01),
            tx=ArrayPose(1, 0.05, 2.0, 1.0, 0.5, 0.2, 0.8),
            rx=ArrayPose(1, 0.05, 3.0, 4.0, 0.9, 1.0, 1.1),
            irs=IrsLayout(1, 1, 0.1, 0.1, 0.05, 0.05),
            power=PowerConfig(100.0, 1.0),
        )
        theta = np.array([np.exp(0.4j)])
        m = pose_orientation(scn)
        assert np.all(np.abs(mi_gradient(scn, theta, m)) < 1e-9)
        assert np.all(np.abs(finite_difference_gradient(scn, theta, m)) < 1e-9)

    def test_contracted_gradient_matches_the_full_jacobian_sum(self, rng):
        # the contraction of each side's coupling derivatives against the
        # sum over every link of its weight times its full offset Jacobian,
        # antenna terms included, on the same weights (those of the reduced
        # cascade), at tilts inside the box and on its faces, relative to
        # the summed magnitudes of the links' terms: on a face a component
        # can itself be rounding noise of those terms.  Two different
        # roundings of the weights differ by far more than 1e-12 of that
        # scale on a face, where I + rho G^H G is ill-conditioned
        for scn in edge_setups(rng):
            for m in edge_tilts(rng):
                theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
                want, scale = full_jacobian_gradient(scn, m, *reduced_weights(scn, theta, m))
                assert np.all(np.abs(mi_gradient(scn, theta, m) - want) <= 1e-12 * scale)

    def test_matches_central_differences_on_edge_setups(self, rng):
        # at unit phases and at phases off the unit circle, which mi_gradient
        # accepts: each probe of the differences poses its hops
        for scn in edge_setups(rng):
            theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
            m = normalize_orientation(rng.uniform(BOX_LOW, BOX_HIGH) * [1, 0.8, 1, 0.8] + [0, 0.3, 0, 0.3])
            for phases in (theta, theta * rng.uniform(0.5, 2.0, len(theta))):
                g = mi_gradient(scn, phases, m)
                fd = finite_difference_gradient(scn, phases, m, step=1e-6)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-9)

    def test_resolves_each_pose_once(self, monkeypatch):
        # the hops and the phase jacobians of one side share one resolution
        # of the pose against the surface
        scn = parse_scenario(SMALL)
        theta, m = random_init(scn, 1)
        calls = []
        real = chan.re_local_components
        monkeypatch.setattr(chan, "re_local_components", lambda *a: calls.append(a) or real(*a))
        mi_gradient(scn, theta, m)
        assert len(calls) == 2

    def test_rejects_bad_step(self):
        scn = fmr_anchor_scenario()
        theta = np.ones(scn.irs.n_elements, dtype=complex)
        with pytest.raises(ValueError, match="step"):
            finite_difference_gradient(scn, theta, pose_orientation(scn), step=0.0)

    def test_non_finite_phases_are_refused(self):
        # refused by name: before, mi_gradient returned NaNs and the finite
        # difference raised numpy's LinAlgError
        scn = parse_scenario(SMALL)
        theta, m = focusing_init(scn)
        theta = theta.copy()
        theta[3] = math.nan
        for gradient in (mi_gradient, finite_difference_gradient):
            with pytest.raises(ValueError, match="^theta entries must be finite$"):
                gradient(scn, theta, m)


class TestReducedCascade:
    """The descent's cascade eta0 E_r^T diag(theta * elements) E_t on the
    shipped files and edge_setups (N_r > N_t, one-antenna sides, zenith
    arrays), at tilts inside the box and outside it; its MI against the
    posed scenario's hops is test_channel's
    test_posed_link_matches_the_posed_scenario."""

    @staticmethod
    def draws(rng):
        for scn in edge_setups(rng):
            inside = list(rng.uniform(BOX_LOW, BOX_HIGH, (3, 4)))
            for m in [np.array(m) for m in OUTSIDE_TILTS] + inside:
                yield scn, np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements)), m

    def test_mi_is_blind_to_the_antenna_factor(self, rng):
        # psi -> pi - psi keeps every coupling, (gamma - pi, pi - psi)
        # reverses the antenna order, and a unit phasor per antenna column
        # is a unitary factor: none of them moves the MI
        worst = 0.0
        for scn, theta, m in self.draws(rng):
            mi = reduced_mi(scn, theta, m)
            for side in (0, 2):
                gamma, psi = m[side : side + 2]
                for flip in ([gamma, math.pi - psi], [gamma - math.pi, math.pi - psi]):
                    moved = m.copy()
                    moved[side : side + 2] = flip
                    worst = max(worst, abs(reduced_mi(scn, theta, moved) - mi))
            link = chan.resolve_link(scn)
            e_t, e_r = (coupling_factor(side, *m[at : at + 2])
                        for side, at in ((link.tx, 0), (link.rx, 2)))
            spun = e_t * np.exp(1j * rng.uniform(0, 2 * math.pi, e_t.shape[1]))
            h = link.eta0 * ((e_r.T * (theta * link.elements)) @ spun)
            worst = max(worst, abs(mutual_information(h, scn.power) - mi))
        assert worst <= 1e-12

    def test_antenna_weights_sum_to_zero(self, rng):
        # the MI is blind to each antenna's phase, so each antenna's column
        # of weights sums to zero: under 1e-13 of the largest weight, also
        # where I + rho G^H G is ill-conditioned and on the faces of the
        # box, because the weights come from the SVD of G and no system
        # with that matrix is solved (solved from it, they summed to
        # 8.9e-12 at cond 1.7e5 on optimize_small at OUTSIDE_TILTS[1], and
        # to 1.9e-11 on the psi faces; the SVD gives at most 4.3e-14)
        draws = list(self.draws(rng))
        draws += [(scn, np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements)), m)
                  for scn in edge_setups(rng) for m in edge_tilts(rng)]
        for scn, theta, m in draws:
            for e in reduced_weights(scn, theta, m)[0]:
                largest = float(np.max(np.abs(e)))
                assert np.max(np.abs(e.sum(axis=0))) <= 1e-13 * largest

    def test_gradient_matches_central_differences(self, rng):
        # at any real angles, against central differences of the reduced
        # MI itself with step 1e-6
        for scn, theta, m in self.draws(rng):
            fd = np.zeros(4)
            for i in range(4):
                probe = np.zeros(4)
                probe[i] = 1e-6
                lo, hi = (reduced_mi(scn, theta, m + sign * probe) for sign in (-1.0, 1.0))
                fd[i] = (lo - hi) / 2e-6
            err = np.linalg.norm(mi_gradient(scn, theta, m) - fd)
            assert err <= 1e-6 * max(float(np.linalg.norm(fd)), np.finfo(float).tiny)


class TestLinkKernel:
    """opt._LinkKernel, the one point kernel of the optimizer, against the
    forms it replaced (oracles.reference_slopes: each side's coupling
    factor formed apart, the weights of d MI/d phase from the SVD of that
    cascade, and their contraction against each side's coupling
    derivatives) and against the hops build_channels poses, on the shipped
    files and edge_setups (N_r > N_t, one-antenna sides, zenith arrays), at
    unit and non-unit theta; against central differences of the posed hops
    it is TestGradients' test_matches_central_differences_on_edge_setups."""

    @staticmethod
    def draws(rng, tilts):
        for scn in edge_setups(rng):
            for m in tilts(rng):
                theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
                yield scn, theta, m
                yield scn, theta * rng.uniform(0.5, 2.0, scn.irs.n_elements), m

    @staticmethod
    def scored(scn, theta, m):
        kernel = opt._LinkKernel(scn)
        mi, state = kernel.point(theta * kernel.link.elements, np.asarray(m, dtype=float))
        return mi, *kernel.slopes(state), kernel.weights(state), kernel

    def test_mi_and_phase_slopes_match_the_reference_forms(self, rng):
        # inside the box, on its faces and outside it, to 1e-12 of the MI
        # and of the phase slopes' norm
        def tilts(rng):
            return [np.array(m) for m in OUTSIDE_TILTS] + list(edge_tilts(rng))

        for scn, theta, m in self.draws(rng, tilts):
            mi, phase, _, _, _ = self.scored(scn, theta, m)
            mi_ref, phase_ref, _ = reference_slopes(scn, theta, m)
            assert abs(mi - mi_ref) <= 1e-12 * abs(mi_ref)
            assert np.linalg.norm(phase - phase_ref) <= 1e-12 * np.linalg.norm(phase_ref)

    def test_tilt_slopes_match_the_reference_forms(self, rng):
        # at tilts inside the box, to 1e-12 of the summed magnitudes of the
        # links' terms (oracles.full_jacobian_gradient's scale): a slope of
        # a one-antenna side is rounding noise of those terms.  On a face
        # of the box two roundings of the cascade differ by more than that
        # (see test_contracted_gradient_matches_the_full_jacobian_sum)
        def tilts(rng):
            return list(rng.uniform(BOX_LOW, BOX_HIGH, (4, 4)))

        for scn, theta, m in self.draws(rng, tilts):
            _, _, tilt, weights, kernel = self.scored(scn, theta, m)
            _, _, tilt_ref = reference_slopes(scn, theta, m)
            sides = (weights[:, : kernel.n_t], weights[:, kernel.n_t :])
            _, scale = full_jacobian_gradient(scn, m, sides, kernel.rho_eff)
            assert np.all(np.abs(tilt - tilt_ref) <= 1e-12 * scale)

    def test_mi_is_that_of_the_posed_scenario(self, rng):
        # the hops build_channels poses at the folded tilts, inside the box
        # and outside it, to 1e-12 of the MI
        def tilts(rng):
            return [np.array(m) for m in OUTSIDE_TILTS] + list(rng.uniform(BOX_LOW, BOX_HIGH, (3, 4)))

        for scn, theta, m in self.draws(rng, tilts):
            mi = self.scored(scn, theta, m)[0]
            posed = build_channels(oriented_scenario(scn, normalize_orientation(m)))
            want = mutual_information(cascade(posed, theta), scn.power)
            assert abs(mi - want) <= 1e-12 * abs(want)


def replay_joint_rounds(scn, start, *, max_rounds, eps_oa=1e-6, eps_orient=1e-6,
                        max_iters=200):
    """alternating_optimize's rounds replayed one ascent call at a time on
    the link kernel: each round is opt._lbfgs_ascent on (phi, m) from the
    point the last one took, with each point scored by
    opt._LinkKernel.point at w = exp(j phi) and its gradient from
    opt._LinkKernel.slopes, first moves of 1 rad (phases) and 0.1 rad
    (tilts), and a stop after 3 small steps in a row; the rounds stop on a
    gain under eps_oa min(1, |MI|).  Returns (theta, m folded into the box,
    trace rows, stop reason)."""
    kernel = opt._LinkKernel(scn)
    link, q = kernel.link, scn.irs.n_elements
    theta = np.asarray(start[0], dtype=complex)
    x = np.concatenate((np.angle(theta / np.abs(theta) * link.elements),
                        normalize_orientation(start[1])))

    def evaluate(x):
        w = np.exp(1j * x[:q])
        mi, state = kernel.point(w, x[q:])
        return mi, (x, w, state)

    def slopes(state):
        return np.concatenate(kernel.slopes(state[2]))

    mi, state = evaluate(x)
    rows, reason = [(0, mi, "init")], "max_iters"
    for rnd in range(1, max_rounds + 1):
        state, mis, _ = opt._lbfgs_ascent(
            evaluate, slopes, state[0], mi, state,
            ((slice(0, q), 1.0), (slice(q, None), 0.1)), eps_orient, 3, max_iters,
        )
        mi = mis[-1]
        rows.append((rnd, mi, "joint"))
        theta = state[1] * link.elements.conj()
        if mi - mis[0] < eps_oa * min(1.0, abs(mis[0])):
            reason = "threshold"
            break
    return theta, normalize_orientation(state[0][q:]), rows, reason


def assert_joint_replay(scn, how, start, *, max_iters, max_rounds):
    """alternating_optimize with the keywords how and these stops agrees
    bit for bit with replay_joint_rounds from start; returns its rows."""
    theta, m, trace = alternating_optimize(
        scn, **how, max_rounds=max_rounds, orient_stop={"max_iters": max_iters},
    )
    want_theta, want_m, rows, reason = replay_joint_rounds(
        scn, start, max_iters=max_iters, max_rounds=max_rounds
    )
    assert trace.iterations == rows
    assert trace.stop_reason == reason
    assert np.array_equal(theta, want_theta)
    assert np.array_equal(m, want_m)
    return rows


class KernelSpy:
    """Records what opt._LinkKernel does while installed: each point it
    scores as (kernel, w, m, MI, state) and the numpy exponentials and
    SVDs taken inside it, and the state of each slopes call."""

    def __init__(self, monkeypatch):
        self.points, self.sloped, self.inside = [], [], []
        counts = Counter()
        for module, name in ((np, "exp"), (np.linalg, "svd")):
            real_fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real_fn, _name=name, **k:
                                counts.update([_name]) or _real(*a, **k))
        real_point, real_slopes = opt._LinkKernel.point, opt._LinkKernel.slopes

        def point(kernel, w, m):
            before = counts.copy()
            mi, state = real_point(kernel, w, m)
            self.inside.append(counts - before)
            self.points.append((kernel, w, m.copy(), mi, state))
            return mi, state

        def slopes(kernel, state):
            self.sloped.append(state)
            return real_slopes(kernel, state)

        monkeypatch.setattr(opt._LinkKernel, "point", point)
        monkeypatch.setattr(opt._LinkKernel, "slopes", slopes)
        self.counts = counts


def spied_ascent(scn, theta, m0, **stops):
    """optimize_orientation with what it calls recorded: (its result, the
    tilt vectors it scored, in order, from its kernel's point calls, and
    the tilt of each of its kernel's slopes calls: two at the start, one
    for the first move and one for the first direction, then one per
    point taken that another step leaves from)."""
    with pytest.MonkeyPatch.context() as mp:
        spy = KernelSpy(mp)
        result = optimize_orientation(scn, theta, m0, **stops)
    return (result, np.array([m for _, _, m, _, _ in spy.points], dtype=float).reshape(-1, 4),
            [state[0] for state in spy.sloped])


class TestOrientationDescent:
    def test_descent_properties_on_random_draws(self, rng):
        # N_r > N_t, one-antenna sides and zenith arrays, each start with
        # one angle on a face of the box (gamma = pi/2 folds onto -pi/2):
        # every trace is monotone, the ascent leaves the box on some draws,
        # it returns its last accepted tilt folded into the box, with the MI
        # of its trace on the posed scenario's hops, and the stop reason is
        # one of the three; a "threshold" stop comes on the first step that
        # gains less than eps_orient min(1, |MI|), the MI it leaves from
        # (some starts are under 1 bit)
        faces = [(i, edge) for i in range(4) for edge in (BOX_LOW[i], BOX_HIGH[i])]
        setups = []
        for k, (i, edge) in enumerate(faces * 2):
            scn = random_scenario(rng, high_snr=k % 2 == 0)
            if k % 4 == 1:
                scn = replace(scn, tx=replace(scn.tx, n_antennas=1))
            if k % 4 == 3:
                scn = replace(scn, rx=replace(scn.rx, n_antennas=1))
            side = ("tx", "rx", None)[k % 3]
            if side:
                scn = replace(scn, **{side: replace(getattr(scn, side), elevation=0.0)})
            theta, m0 = random_init(scn, k)
            m0[i] = edge
            setups.append((scn, theta, m0))
        assert any(scn.rx.n_antennas > scn.tx.n_antennas for scn, _, _ in setups)
        assert any(scn.tx.n_antennas == 1 for scn, _, _ in setups)
        assert any(scn.rx.n_antennas == 1 for scn, _, _ in setups)
        reasons, outside, low = set(), 0, 0
        for scn, theta, m0 in setups:
            (m, trace), scored, points = spied_ascent(scn, theta, m0, max_iters=12)
            # a "no_ascent" stop leaves from its last point taken, and its
            # last trial is refused; any other stop ends on the trial taken
            refused = trace.stop_reason == "no_ascent"
            assert len(points) == len(trace.iterations) + refused
            assert np.array_equal(scored[0], normalize_orientation(m0))
            mis = trace.mi_values
            assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
            assert np.array_equal(m, normalize_orientation(points[-1] if refused else scored[-1]))
            assert np.array_equal(m, np.clip(m, BOX_LOW, BOX_HIGH))
            posed = build_channels(oriented_scenario(scn, m))
            assert abs(mutual_information(cascade(posed, theta), scn.power) - mis[-1]) <= 1e-10
            outside += not np.array_equal(scored, np.clip(scored, BOX_LOW, BOX_HIGH))
            assert trace.stop_reason in ("threshold", "no_ascent", "max_iters")
            gains, floors = np.diff(mis), 1e-6 * np.minimum(1.0, np.abs(mis[:-1]))
            if trace.stop_reason == "threshold":
                assert gains[-1] < floors[-1] and np.all(gains[:-1] >= floors[:-1])
            low += mis[0] < 1.0
            reasons.add(trace.stop_reason)
        assert outside >= 1
        assert len(reasons) >= 2
        assert low >= 1

    def test_feasible_point_is_a_fixed_point(self):
        scn = fmr_anchor_scenario()
        theta = build_channels(scn).theta
        m0 = pose_orientation(scn)
        m, trace = optimize_orientation(scn, theta, m0, max_iters=30)
        sc = oriented_scenario(scn, m)
        chans = build_channels(sc)
        mi = mutual_information(cascade(chans, theta), scn.power)
        bound = mi_upper_bound(chans.h_t, chans.h_r, chans.eta0, scn.power)
        assert mi <= bound + 1e-9
        assert mi >= bound - 1e-4
        mis = trace.mi_values
        assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))

    def test_descent_is_monotone_from_random_starts(self, rng):
        for seed in (1, 2):
            scn = random_scenario(rng, high_snr=True)
            theta, m0 = random_init(scn, seed)
            m, trace = optimize_orientation(scn, theta, m0, max_iters=15)
            mis = trace.mi_values
            assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
            assert GAMMA_BOX[0] <= m[0] <= GAMMA_BOX[1]
            assert PSI_BOX[0] <= m[1] <= PSI_BOX[1]
            assert GAMMA_BOX[0] <= m[2] <= GAMMA_BOX[1]
            assert PSI_BOX[0] <= m[3] <= PSI_BOX[1]

    def test_normalization_keeps_the_physics(self, rng):
        # gamma outside the box, psi < 0 and psi > pi: each lands in the box
        # on the same antenna line
        scn = random_scenario(rng, high_snr=True)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
        for raw in ([2.5, 2.9, -2.0, 0.4], [0.1, -0.5, 0.2, 1.0], [-1.0, 4.0, 2.0, -2.5]):
            folded = normalize_orientation(raw)
            assert np.array_equal(folded, np.clip(folded, BOX_LOW, BOX_HIGH))
            mi_raw = mutual_information(
                cascade(build_channels(oriented_scenario(scn, raw)), theta), scn.power
            )
            mi_fold = mutual_information(
                cascade(build_channels(oriented_scenario(scn, folded)), theta), scn.power
            )
            assert mi_fold == pytest.approx(mi_raw, rel=1e-12, abs=1e-12)

    def test_any_finite_tilt_is_folded_onto_its_antenna_line(self):
        # psi = 7 and -4 and gamma = 1e3 land in the box on the same antenna
        # line u = (sin psi cos gamma, sin psi sin gamma, cos psi), up to
        # its sign, with the same MI; NaN and inf are refused by name
        scn = parse_scenario(SMALL)
        theta = focusing_init(scn)[0]

        def line(gamma, psi):
            return np.array([math.sin(psi) * math.cos(gamma), math.sin(psi) * math.sin(gamma),
                             math.cos(psi)])

        for raw in ([0.0, 7.0, 0.0, 1.0], [1e3, -4.0, -1e3, 7.0], [0.3, -4.0, 1e3, -7.0]):
            folded = normalize_orientation(raw)
            assert np.array_equal(folded, np.clip(folded, BOX_LOW, BOX_HIGH))
            assert folded[0] < math.pi / 2 and folded[2] < math.pi / 2
            for at in (0, 2):
                u, v = line(*raw[at : at + 2]), line(*folded[at : at + 2])
                assert min(np.linalg.norm(u - v), np.linalg.norm(u + v)) <= 1e-12
            assert abs(reduced_mi(scn, theta, folded) - reduced_mi(scn, theta, raw)) <= 1e-10
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^orientation angles must be finite$"):
                normalize_orientation([0.0, bad, 0.0, 1.0])

    def test_failed_backtracking_has_its_own_stop_reason(self, monkeypatch):
        scn = parse_scenario(SMALL)
        theta, m0 = random_init(scn, 1)
        start = normalize_orientation(m0)

        def mi_at(m):
            return mutual_information(
                cascade(build_channels(oriented_scenario(scn, m)), theta), scn.power
            )

        # the first trial, start + grad, lowers the MI here; with one trial
        # per step the ascent takes no step
        grad = -mi_gradient(scn, theta, start)
        assert mi_at(normalize_orientation(start + grad)) < mi_at(start)
        monkeypatch.setattr(opt, "_BACKTRACKS", 1)
        (m, trace), scored, _ = spied_ascent(scn, theta, m0)
        assert trace.stop_reason == "no_ascent"
        assert len(trace.iterations) == 1
        assert np.array_equal(m, start)
        assert np.array_equal(scored, [start, start + grad])

    def test_an_orientation_blind_link_takes_no_step(self):
        # one antenna on each side: the MI does not depend on the tilts, the
        # gradient is zero, and the ascent stops at its start
        scn = parse_scenario(SMALL)
        scn = replace(scn, tx=replace(scn.tx, n_antennas=1), rx=replace(scn.rx, n_antennas=1))
        theta, m0 = random_init(scn, 0)
        m, trace = optimize_orientation(scn, theta, m0)
        assert trace.stop_reason == "no_ascent"
        assert len(trace.iterations) == 1
        assert np.array_equal(m, normalize_orientation(m0))

    def test_coupling_factors_formed_once_per_evaluation(self, monkeypatch):
        # the link is resolved once per ascent and no hop is posed; each
        # evaluation forms both sides' coupling factors with one exponential
        # and the reduced cascade's SVD once, and takes its MI from that
        # SVD, and the gradient at a point taken reuses them: one slope
        # contraction at the start for the first move, then one per point
        # that another step leaves from; the point a max_iters stop ends
        # on gets none
        scn = parse_scenario(SMALL)
        theta, m0 = random_init(scn, 1)
        calls = Counter()

        def count(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.update([name]) or real(*a, **k))

        for owner, name in ((chan, "pose_side"), (chan, "re_local_components"),
                            (opt, "mutual_information"), (opt, "mi_gradient"),
                            (opt._LinkKernel, "weights")):
            count(owner, name)
        spy = KernelSpy(monkeypatch)
        _, trace = optimize_orientation(scn, theta, m0, max_iters=5)
        assert len(trace.iterations) >= 3 and trace.stop_reason == "max_iters"
        assert len(spy.sloped) == calls["weights"] == len(trace.iterations)
        assert len(spy.points) >= len(trace.iterations)
        assert calls["mi_gradient"] == calls["pose_side"] == calls["mutual_information"] == 0
        assert spy.inside == [Counter({"exp": 1, "svd": 1})] * len(spy.points)
        # the one exponential outside the points forms the element phasors
        assert spy.counts == Counter({"exp": len(spy.points) + 1, "svd": len(spy.points)})
        assert calls["re_local_components"] == 2

    def test_tiny_negative_azimuth_folds_to_zero(self):
        # -1e-17 % (2*pi) rounds to exactly 2*pi, the same angle as 0
        scn = golden_scenario()
        m = [-1e-17, 1.0, 0.3, 1.0]
        assert oriented_scenario(scn, m).tx.orient_azimuth == 0.0
        assert normalize_orientation(m)[0] == 0.0

    def test_rejects_a_vector_without_four_components(self):
        with pytest.raises(ValueError, match="four components"):
            optimize_orientation(fmr_anchor_scenario(), np.ones(225, dtype=complex), [1.0, 2.0])

    def test_a_malformed_vector_is_refused_with_one_message(self):
        scn = parse_scenario(SMALL)
        theta = focusing_init(scn)[0]
        for m in ([1.0, 2.0], np.ones(5), np.ones((1, 4)), 1.0):
            for call in (lambda: mi_gradient(scn, theta, m), lambda: oriented_scenario(scn, m),
                         lambda: normalize_orientation(m),
                         lambda: finite_difference_gradient(scn, theta, m)):
                with pytest.raises(ValueError,
                                   match="^orientation vector must have four components$"):
                    call()


class TestAlternatingDriver:
    def test_bench_portfolio_starts_match_the_serial_replay(self):
        # the benchmark's stops on optimize_small.txt, from focusing and two
        # seeds: the joint driver replayed one ascent call at a time gives the
        # same rows, phases and orientation bit for bit
        scn = parse_scenario(SMALL)
        for start in (focusing_init(scn), random_init(scn, 1), random_init(scn, 2)):
            assert_joint_replay(scn, {"init": start}, start, max_iters=40, max_rounds=5)

    def test_anchored_run_never_loses_to_focusing(self):
        scn = fmr_anchor_scenario()
        chans = build_channels(scn)
        mi_focus = mutual_information(chans.h, scn.power)
        theta, m, trace = alternating_optimize(
            scn,
            init=focusing_init(scn),
            max_rounds=3,
            theta_stop={"max_outer": 10},
            orient_stop={"max_iters": 10},
        )
        mis = trace.mi_values
        assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
        assert mis[-1] >= mi_focus - 1e-9
        sc = oriented_scenario(scn, m)
        final = build_channels(sc)
        assert mis[-1] <= mi_upper_bound(final.h_t, final.h_r, final.eta0, scn.power) + 1e-9

    def test_rows_are_the_final_rows_of_each_block(self, rng):
        # the joint trace equals the ascents replayed one call at a time, bit
        # for bit: from a seed, from focusing, from phases
        # off the unit circle, which the driver scales back, and on random
        # draws with N_r > N_t
        small = parse_scenario(SMALL)
        theta, m = random_init(small, 5)
        runs = [(small, {"seed": 2}, random_init(small, 2))]
        runs += [(small, {"init": start}, start) for start in (
            focusing_init(small), (1.5 * theta, m + [-1.0, 0.0, 0.5, 0.0])
        )]
        draws = [random_scenario(rng, n_max=5, q_max=9, high_snr=True) for _ in range(4)]
        draws[0] = replace(draws[0], tx=replace(draws[0].tx, n_antennas=3),
                           rx=replace(draws[0].rx, n_antennas=5))
        runs += [(scn, {"seed": 7}, random_init(scn, 7)) for scn in draws]
        for scn, how, start in runs:
            rows = assert_joint_replay(scn, how, start, max_iters=8, max_rounds=4)
            assert [block for _, _, block in rows[1:]] == ["joint"] * rows[-1][0]

    def test_focusing_start_reaches_its_pose_bound(self):
        # the default stops from focusing_init on optimize_small.txt end
        # within 1e-9 bits of the bound at the final pose (projected
        # steepest descent in the box ended 2.06e-6 bits short, BFGS in the
        # box 4.3e-8, rounds of a phase sweep and a joint ascent 1.0e-8; the
        # sweep-free rounds end 9e-13 short, and 1.0e-11 once each point is
        # scored on the fused tilt basis)
        scn = parse_scenario(SMALL)
        _, m, trace = alternating_optimize(scn, focusing_init(scn))
        posed = build_channels(oriented_scenario(scn, m))
        bound = mi_upper_bound(posed.h_t, posed.h_r, posed.eta0, scn.power)
        assert bound - 1e-9 <= trace.mi_values[-1] <= bound + 1e-9

    def test_an_ascent_point_scores_the_mi_of_its_cascade(self, rng, monkeypatch):
        # every point the joint rounds score, from focusing and from a seed,
        # on optimize_small.txt and on random draws with N_r > N_t (high
        # SNR) and N_r < N_t (low SNR): the MI the kernel sums from one SVD
        # of the reduced cascade equals opt._cascade_mi (the MM solver's
        # MI) of the cascade of both sides' coupling factors formed apart
        # to 1e-12 of it, each point takes one exponential and one SVD,
        # no point's slopes are contracted twice, and the trace's MIs are
        # MIs of points scored
        small = parse_scenario(SMALL)
        draws = [random_scenario(rng, high_snr=high) for high in (True, False)]
        draws[0] = replace(draws[0], tx=replace(draws[0].tx, n_antennas=3),
                           rx=replace(draws[0].rx, n_antennas=5))
        draws[1] = replace(draws[1], tx=replace(draws[1].tx, n_antennas=5),
                           rx=replace(draws[1].rx, n_antennas=3))
        spy = KernelSpy(monkeypatch)
        for scn, start in [(small, focusing_init(small)), (small, random_init(small, 1))] + [
            (scn, random_init(scn, 2)) for scn in draws
        ]:
            spy.points.clear()
            spy.sloped.clear()
            spy.inside.clear()
            _, _, trace = alternating_optimize(scn, start, max_rounds=3)
            link = chan.resolve_link(scn)
            for _, w, m, mi, _ in spy.points:
                e_t, e_r = coupling_factor(link.tx, m[0], m[1]), coupling_factor(link.rx, m[2], m[3])
                want = opt._cascade_mi(e_t, e_r.T, link.eta0, w, scn.power)
                assert abs(mi - want) <= 1e-12 * abs(want)
            assert spy.inside == [Counter({"exp": 1, "svd": 1})] * len(spy.points)
            assert len({id(state) for state in spy.sloped}) == len(spy.sloped)
            assert {id(state) for state in spy.sloped} <= {id(p[4]) for p in spy.points}
            assert set(trace.mi_values) <= {p[3] for p in spy.points}
            assert len(spy.points) > len(trace.iterations)

    def test_seed_zero_ends_at_its_optimum(self):
        # irsmimo optimize --seed 0 on optimize_small.txt: the random start
        # ends 2.78e-8 bits above where the alternation of a phase block and
        # an orientation descent ended (59.06421808672166)
        scn = parse_scenario(SMALL)
        _, _, trace = alternating_optimize(scn, seed=0)
        assert abs(trace.mi_values[-1] - 59.06421811449846) <= 1e-9

    def test_joint_gradient_matches_central_differences(self, rng):
        # the ascent's (Q + 4)-vector d MI/d (phi, m) on the reduced cascade,
        # against central differences of the reduced MI with step 1e-6, at
        # seeded phases and tilts; where the difference is rounding noise
        # (verify's gradient SKIP floor) it cannot judge the error
        step, judged = 1e-6, 0
        setups = edge_setups(rng)
        for scn in setups:
            kernel = opt._LinkKernel(scn)
            link, q = kernel.link, scn.irs.n_elements
            phi = rng.uniform(0.0, 2.0 * math.pi, q)
            m = rng.uniform(BOX_LOW, BOX_HIGH)
            theta = np.exp(1j * phi)
            grad = np.concatenate(kernel.slopes(kernel.point(theta * link.elements, m)[1]))
            x = np.concatenate((phi, m))
            fd = np.zeros(q + 4)
            for i in range(q + 4):
                hi, lo = x.copy(), x.copy()
                hi[i] += step
                lo[i] -= step
                fd[i] = (reduced_mi(scn, np.exp(1j * hi[:q]), hi[q:], link)
                         - reduced_mi(scn, np.exp(1j * lo[:q]), lo[q:], link)) / (2.0 * step)
            norm = float(np.linalg.norm(fd))
            mi = reduced_mi(scn, theta, m, link)
            if norm < checks._FD_NOISE_MULTIPLE * np.finfo(float).eps * abs(mi) / step:
                continue
            judged += 1
            assert np.linalg.norm(grad - fd) <= 1e-6 * norm
        assert judged >= len(setups) - 2

    def test_reduced_cascade_agrees_with_the_full_hops(self, rng):
        # the driver scores every point on the reduced cascade; on 6 random
        # draws, one with N_r > N_t, its trace is monotone, and its last MI
        # is the MI of the hops build_channels poses at the returned tilts
        # and at most their pose bound, each to 1e-9 bits
        draws = [random_scenario(rng, high_snr=i % 2 == 0) for i in range(6)]
        draws[0] = replace(draws[0], tx=replace(draws[0].tx, n_antennas=3),
                           rx=replace(draws[0].rx, n_antennas=7))
        for i, scn in enumerate(draws):
            theta, m, trace = alternating_optimize(
                scn, seed=i, max_rounds=5, theta_stop={"max_outer": 10},
                orient_stop={"max_iters": 40},
            )
            mis = trace.mi_values
            assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))
            posed = build_channels(oriented_scenario(scn, m))
            assert abs(mis[-1] - opt._cascade_mi(posed.h_t, posed.h_r, posed.eta0, theta,
                                                  scn.power)) <= 1e-9
            assert mis[-1] <= mi_upper_bound(posed.h_t, posed.h_r, posed.eta0, scn.power) + 1e-9

    @pytest.mark.parametrize("stop, key", [
        ("theta_stop", "max_inner"), ("theta_stop", "eps_orient"), ("theta_stop", "eps_theta"),
        ("orient_stop", "max_outer"), ("orient_stop", "eps_mm"),
    ])
    def test_an_unknown_stop_key_is_refused(self, stop, key):
        # each dict may hold only its own keys: max_outer, accepted and
        # unused (theta_stop), eps_orient and max_iters (orient_stop)
        scn = parse_scenario(SMALL)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'$"):
            alternating_optimize(scn, seed=0, max_rounds=0, **{stop: {key: 5}})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_start_phases_are_refused(self, bad):
        # refused up front by name, before any numpy warning or LinAlgError
        scn = parse_scenario(SMALL)
        theta, m = focusing_init(scn)
        theta = theta.copy()
        theta[3] = bad
        calls = [
            lambda: optimize_theta(scn, theta, max_outer=2),
            lambda: optimize_orientation(scn, theta, m, max_iters=2),
            lambda: alternating_optimize(scn, (theta, m), max_rounds=1),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="^theta entries must be finite$"):
                    call()

    def test_zero_rounds_returns_the_start(self):
        scn = fmr_anchor_scenario()
        init = focusing_init(scn)
        theta, m, trace = alternating_optimize(scn, init=init, max_rounds=0)
        assert np.array_equal(theta, np.asarray(init[0], dtype=complex))
        assert np.allclose(m, normalize_orientation(init[1]))
        assert len(trace.iterations) == 1
        assert trace.iterations[0][2] == "init"

    def test_seeded_runs_are_reproducible(self, rng):
        scn = random_scenario(rng, high_snr=True)
        kwargs = dict(seed=9, max_rounds=2, theta_stop={"max_outer": 5},
                      orient_stop={"max_iters": 5})
        a = alternating_optimize(scn, **kwargs)
        b = alternating_optimize(scn, **kwargs)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[2].iterations == b[2].iterations

    def test_random_start_is_deterministic_and_feasible(self):
        scn = fmr_anchor_scenario()
        t1, m1 = random_init(scn, 123)
        t2, m2 = random_init(scn, 123)
        assert np.array_equal(t1, t2) and np.array_equal(m1, m2)
        assert np.allclose(np.abs(t1), 1.0)
        assert GAMMA_BOX[0] <= m1[0] <= GAMMA_BOX[1]
        assert PSI_BOX[0] <= m1[1] <= PSI_BOX[1]
