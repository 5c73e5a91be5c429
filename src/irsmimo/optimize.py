"""Mutual information and its maximization over surface phases and array tilts.

The joint optimizer, alternating_optimize, repeats rounds of one L-BFGS
ascent on the phases and the four tilt angles together until a round
gains less than eps_oa min(1, |MI|) bits; the ascent scales its initial
inverse Hessian on the phases and on the tilts apart.  It scores every
point on the reduced cascade of one resolved link (_LinkKernel), which is
analytic in every real angle, so the tilts step in all of R^4 and no hop
is posed: one exponential of a fixed real tilt basis gives both sides'
coupling factors, and one SVD of the cascade a point's MI and its
gradient.
The one phase-only solver is the paper's majorization-minimization (MM)
loop, optimize_theta, at the scenario's hops.  optimize_orientation is the
same L-BFGS ascent on the tilts alone, at fixed phases.  MI is reported in
bits; mi_gradient and finite_difference_gradient give the gradient of the
negated MI.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import channel as chan
from .geometry import fold_orientation, orientation_vector
from .scenario import PowerConfig, Scenario  # noqa: F401  (PowerConfig re-exported)

LOG2 = math.log(2.0)
TWO_PI = 2.0 * math.pi

GAMMA_BOX = (-math.pi / 2, math.pi / 2)
PSI_BOX = (0.0, math.pi)

SIGMA_FLOOR_SCALE = 1e-12

# numpy's complex division forms 1/|divisor|, which overflows when the
# divisor is subnormal; the phase updates first scale such a value by this
# power of two, which moves no bit of its phase
_NORMAL_MIN = np.finfo(float).tiny
_UNSUBNORMAL = 2.0**600

# s^T y must exceed this share of |s| |y| for an L-BFGS pair to be kept
_CURVATURE_FLOOR = 1e-8

# the L-BFGS ascents (tilt and joint ascents): (step, gradient
# change) pairs kept, trials per step, and the share of its slope's
# predicted gain a trial must reach
_LBFGS_MEMORY = 5
_BACKTRACKS = 30
_ARMIJO = 1e-4

# the joint ascent stops after this many steps in a row that each gain
# less than eps_orient min(1, |MI|); stopping on the first such step left the best start
# of 56 of the benchmark's 80 seed 1-4 portfolios up to 4e-8 bits lower
# than the alternation of a phase block and a tilt descent reached
_JOINT_PATIENCE = 3

# optimize_theta's inner MM loop: least surrogate gain, most majorized updates
_EPS_MM = 1e-8
_MAX_INNER = 500

# a phase step may lower the MI by rounding only, at most this share of it:
# some 450 ulps, and under 1e-9 bits for an MI under 1e4 bits
_ROUNDING = 1e-13


@dataclass(frozen=True)
class MmAuxiliaries:
    """Fixed-point matrices of one MM outer step.

    phi is the MMSE receive filter in transmit coordinates, sigma the error
    covariance and alpha the linear term of the surrogate.  w is the Q x N_t^2
    factor of the quadratic surface-phase coupling Lambda = w w^H, which is
    never formed: Lambda is the Hadamard product of two PSD matrices of rank
    at most N_t, so w is the row-wise Kronecker (Khatri-Rao) product of their
    Q x N_t factors.
    """

    phi: np.ndarray
    sigma: np.ndarray
    w: np.ndarray
    alpha: np.ndarray


class OptTrace(NamedTuple):
    """Progress log: (outer step, MI in bits, which block moved)."""

    iterations: list
    stop_reason: str

    @property
    def mi_values(self) -> list:
        return [row[1] for row in self.iterations]


class SingularAllocation(NamedTuple):
    """Squared singular values assigned to each hop under the gain budgets."""

    mu_t_sq: np.ndarray
    mu_r_sq: np.ndarray
    regime: str


def mutual_information(h, power: PowerConfig):
    """log2 det(rho H^H H + I) in bits, as the sum of log2(1 + rho sigma^2)
    over the singular values sigma of H.

    The singular values keep the weak modes' relative accuracy, which the
    eigenvalues of the Gram H^H H lose to rounding on the scale of the
    strongest.  H is one matrix; the MI is a float.
    """
    h = np.asarray(h)
    if h.ndim != 2:
        raise ValueError("expected a matrix")
    sigma = np.linalg.svd(h, compute_uv=False)
    return float(np.sum(np.log1p(power.snr * (sigma * sigma))) / LOG2)


def mi_upper_bound(h_t, h_r, eta0: float, power: PowerConfig) -> float:
    """Best MI any unit-modulus surface configuration could reach.

    Pairs the descending singular values of the two hops, min(N_t, N_r)
    pairs; independent of the surface phases.
    """
    h_t, h_r = np.asarray(h_t), np.asarray(h_r)
    n = min(h_t.shape[1], h_r.shape[0])
    mu_t = np.linalg.svd(h_t, compute_uv=False)
    mu_r = np.linalg.svd(h_r, compute_uv=False)
    pair = (mu_r[:n] ** 2) * (mu_t[:n] ** 2)
    return float(np.sum(np.log1p(power.snr * eta0**2 * pair)) / LOG2)


def relaxed_optimum(power_regime: str, n_t: int, n_r: int, q_x: int, q_y: int) -> SingularAllocation:
    """Optimal singular-value split of the relaxed MI bound per SNR regime.

    High SNR spreads both budgets evenly over the first min(n_t, n_r)
    modes; low SNR concentrates everything on the first mode.
    """
    if power_regime not in ("high", "low"):
        raise ValueError("power_regime must be 'high' or 'low'")
    area = q_x * q_y
    n = min(n_t, n_r)
    mu_t = np.zeros(n_t)
    mu_r = np.zeros(n_r)
    if power_regime == "high":
        mu_t[:n] = n_t * area / n
        mu_r[:n] = n_r * area / n
    else:
        mu_t[0] = n_t * area
        mu_r[0] = n_r * area
    return SingularAllocation(mu_t_sq=mu_t, mu_r_sq=mu_r, regime=power_regime)


def allocation_rate(alloc: SingularAllocation, rho_eta_sq: float) -> float:
    """MI bound value of an allocation at effective SNR rho*eta0^2."""
    n = min(len(alloc.mu_t_sq), len(alloc.mu_r_sq))
    pair = alloc.mu_r_sq[:n] * alloc.mu_t_sq[:n]
    return float(np.sum(np.log1p(rho_eta_sq * pair)) / LOG2)


def mm_auxiliaries(h_t, h_r, theta, eta0: float, power: PowerConfig) -> MmAuxiliaries:
    """Auxiliary matrices for one MM round at the current surface phases.

    Lambda = p eta0^2 conj(H_t H_t^H) o (H_r^H C H_r) with C = phi^H sigma^-1
    phi.  With sigma = L L^H and R = L^-1 phi, H_r^H C H_r = B B^H for
    B = H_r^H R^H, and row q of w is sqrt(p) eta0 (conj(H_t[q]) kron B[q]).
    The factor goes through the floored, positive definite sigma rather than
    through C, which is singular when noise dominates.
    """
    h_t, h_r = np.asarray(h_t), np.asarray(h_r)
    theta = np.asarray(theta)
    n_t, n_r = h_t.shape[1], h_r.shape[0]
    p_pow, noise = power.per_antenna_power, power.noise_power

    g = (h_r * theta[None, :]) @ h_t
    c_xy = p_pow * eta0 * g.conj().T
    c_yy = p_pow * eta0**2 * (g @ g.conj().T) + noise * np.eye(n_r)
    phi = np.linalg.solve(c_yy, c_xy.conj().T).conj().T
    sigma = p_pow * np.eye(n_t) - phi @ c_xy.conj().T
    sigma = 0.5 * (sigma + sigma.conj().T)

    # |trace|: when sigma is rounding noise its trace can be negative, and a
    # negative floor would leave it indefinite
    floor = SIGMA_FLOOR_SCALE * abs(float(np.real(np.trace(sigma)))) / n_t
    ev_min = float(np.linalg.eigvalsh(sigma)[0])
    if ev_min < floor:
        import logging  # only this rare branch logs; keeps it out of the package's import

        logging.getLogger(__name__).warning(
            "error covariance regularized: min eigenvalue %.3e lifted to %.3e", ev_min, floor
        )
        sigma = sigma + (floor - ev_min) * np.eye(n_t)

    s_inv_phi = np.linalg.solve(sigma, phi)
    r = np.linalg.solve(np.linalg.cholesky(sigma), phi)
    b = h_r.conj().T @ r.conj().T
    w = (math.sqrt(p_pow) * eta0) * (h_t.conj()[:, :, None] * b[:, None, :]).reshape(len(b), -1)

    left = h_r.conj().T @ s_inv_phi.conj().T
    alpha = -p_pow * eta0 * np.einsum("ij,ij->i", left, h_t.conj())
    return MmAuxiliaries(phi=phi, sigma=sigma, w=w, alpha=alpha)


def qcqp_objective(w, alpha, theta) -> float:
    """Quadratic surrogate theta^H Lambda theta + 2 Re(alpha^H theta), Lambda = w w^H."""
    theta = np.asarray(theta)
    return _surrogate(w.conj().T @ theta, alpha, theta)


def _surrogate(z, alpha, theta) -> float:
    """qcqp_objective from z = w^H theta."""
    return float(np.vdot(z, z).real + 2.0 * np.vdot(alpha, theta).real)


def largest_eigenvalue(a) -> float:
    """Top eigenvalue of a Hermitian PSD matrix, by full eigendecomposition.

    The MM loop passes the small K x K Gram w^H w, whose nonzero spectrum is
    that of Lambda = w w^H, so the majorizer gets the exact lambda_max.
    """
    return float(np.linalg.eigvalsh(a)[-1])


def mm_step(w, alpha, theta, lam_max: float, z) -> np.ndarray:
    """One majorized phase update for Lambda = w w^H, with lam_max the
    largest eigenvalue of w^H w and z = w^H theta; entries with a zero
    update direction keep their current phase."""
    theta = np.asarray(theta, dtype=complex)
    q = lam_max * theta
    q -= w @ z
    q -= alpha
    mag = np.abs(q)
    if np.minimum.reduce(mag) >= _NORMAL_MIN:  # false on a zero, a subnormal or a NaN
        return np.divide(q, mag, out=q)
    q[mag < _NORMAL_MIN] *= _UNSUBNORMAL
    mag = np.abs(q)
    return np.divide(q, mag, out=theta.copy(), where=mag > 0)


def _cascade_mi(h_t, h_r, gain, theta, power) -> float:
    h = gain * ((h_r * theta[None, :]) @ h_t)
    return mutual_information(h, power)


def _finite_phases(theta) -> np.ndarray:
    """theta as an array, refused when an entry is NaN or infinite."""
    theta = np.asarray(theta)
    if not np.isfinite(theta).all():
        raise ValueError("theta entries must be finite")
    return theta


def _unit_phases(theta) -> np.ndarray:
    """theta scaled onto the unit circle, refused when an entry is zero,
    NaN or infinite."""
    theta = _finite_phases(np.asarray(theta, dtype=complex))
    mags = np.abs(theta)
    if np.any(mags == 0):
        raise ValueError("theta entries must be nonzero unit phasors")
    return theta / mags


def optimize_theta(
    scn: Scenario, theta_init, *, eps_theta: float = 1e-6, max_outer: int = 200
) -> tuple[np.ndarray, OptTrace]:
    """The paper's MM maximization of MI over the phases at the scenario's hops.

    Each outer step refreshes the auxiliaries, then repeats the majorized
    update until the surrogate objective improves by less than _EPS_MM, at
    most _MAX_INNER times.  One trace row per outer step taken; stops with
    "threshold" when a step gains less than eps_theta bits, with
    "no_ascent" when a step would lower the MI by more than rounding
    (_ROUNDING of it), which is not taken, else with "max_iters" after
    max_outer steps.
    """
    theta = _unit_phases(theta_init)
    cs = chan.build_channels(scn)
    h_t, h_r, gain = cs.h_t, cs.h_r, cs.eta0
    mi_prev = _cascade_mi(h_t, h_r, gain, theta, scn.power)
    rows = [(0, mi_prev, "theta")]
    reason = "max_iters"
    for outer in range(1, max_outer + 1):
        aux = mm_auxiliaries(h_t, h_r, theta, gain, scn.power)
        wh = aux.w.conj().T
        lam_max = largest_eigenvalue(wh @ aux.w)
        # z = w^H theta serves both the surrogate of theta and its next update
        stepped, z = theta, wh @ theta
        obj = _surrogate(z, aux.alpha, stepped)
        for _ in range(_MAX_INNER):
            stepped = mm_step(aux.w, aux.alpha, stepped, lam_max=lam_max, z=z)
            z = wh @ stepped
            new_obj = _surrogate(z, aux.alpha, stepped)
            if obj - new_obj < _EPS_MM:
                break
            obj = new_obj
        mi_now = _cascade_mi(h_t, h_r, gain, stepped, scn.power)
        if mi_now < mi_prev - _ROUNDING * abs(mi_prev):
            reason = "no_ascent"
            break
        theta = stepped
        rows.append((outer, mi_now, "theta"))
        if mi_now - mi_prev < eps_theta:
            reason = "threshold"
            break
        mi_prev = mi_now
    return theta, OptTrace(iterations=rows, stop_reason=reason)


class _LinkKernel:
    """The reduced cascade of one resolved link at any real tilts: every
    point's MI and, where a step leaves from it, its gradient.

    The tilts reach the MI only through each side's coupling E[q, p] =
    exp(j r_p t_q), t_q = (k0/D) sin psi (v1_q cos gamma + v2_q sin
    gamma), so with the real basis rows v1 (x) r and v2 (x) r of each side,
    held on that side's columns of one (Q, N_t + N_r) grid and zero on the
    other's, four coefficients and one exponential give [E_t | E_r] at
    once.  G = (diag(w) E_r)^T E_t has the singular values of the posed
    cascade over eta0.
    """

    def __init__(self, scn: Scenario):
        self.link = link = chan.resolve_link(scn)
        self.rho_eff = scn.power.snr * link.eta0**2
        self.n_t = len(link.tx.r)
        basis = np.zeros((4, len(link.elements), self.n_t + len(link.rx.r)))
        for rows, side, cols in ((basis[:2], link.tx, slice(0, self.n_t)),
                                 (basis[2:], link.rx, slice(self.n_t, None))):
            rows[0][:, cols] = np.multiply.outer(side.v1, side.r)
            rows[1][:, cols] = np.multiply.outer(side.v2, side.r)
        self.basis = basis.reshape(4, -1)
        self.kappas = (link.tx.k0 / link.tx.distance, link.rx.k0 / link.rx.distance)

    def point(self, w, m):
        """(MI in bits, state) at the element weights w (theta times the
        element phasors, any nonzero moduli) and the tilts m: one
        exponential forms the grid [E_t | diag(w) E_r], one SVD of G its
        MI, the sum of log2(1 + rho_eff sigma^2)."""
        angles, coefs = m.tolist(), []
        for kappa, gamma, psi in zip(self.kappas, angles[::2], angles[1::2]):
            kappa_s = kappa * math.sin(psi)
            coefs += [kappa_s * math.cos(gamma), kappa_s * math.sin(gamma)]
        grid = np.exp(1j * (np.array(coefs) @ self.basis)).reshape(len(w), -1)
        grid[:, self.n_t:] *= w[:, None]
        svd = np.linalg.svd(grid[:, self.n_t:].T @ grid[:, :self.n_t], full_matrices=False)
        return float(np.log1p(self.rho_eff * (svd[1] * svd[1])).sum() / LOG2), (m, grid, svd)

    def weights(self, state):
        """The real (Q, N_t + N_r) weights of d MI/d phase at a point's
        state, Tx columns first.

        From its SVD, X = (I + rho_eff G^H G)^-1 G^H = V diag(sigma / (1 +
        rho_eff sigma^2)) U^H; no system with I + rho_eff G^H G is solved,
        so its condition number does not scale the weights' rounding.  The
        Tx weights are Im((diag(w) E_r X^T) o E_t), the Rx ones Im((E_t X)
        o diag(w) E_r); row q of either sums to Im(w_q (E_t X E_r^T)_qq).
        """
        _, grid, (u, sigma, vh) = state
        n_t = self.n_t
        x = (vh.conj().T * (sigma / (1.0 + self.rho_eff * (sigma * sigma)))) @ u.conj().T
        out = np.empty_like(grid)
        np.matmul(grid[:, n_t:], x.T, out=out[:, :n_t])
        np.matmul(grid[:, :n_t], x, out=out[:, n_t:])
        return np.multiply(out, grid, out=out).imag

    def slopes(self, state):
        """(d MI/d phase of each w_q, d MI/d m) at a point's state: the
        phase slopes from the weights' Tx row sums, the tilt slopes from
        the moments v1^T W r and v2^T W r of both sides, one product with
        the basis.  The MI is blind to the antenna factor, so each
        antenna's column of weights sums to zero and only the coupling
        -r_p t_q moves it: no (Q, N) Jacobian is formed."""
        weights = self.weights(state)
        moments = (self.basis @ weights.ravel()).tolist()
        angles, tilt = state[0].tolist(), []
        for kappa, gamma, psi, v1_r, v2_r in zip(self.kappas, angles[::2], angles[1::2],
                                                 moments[::2], moments[1::2]):
            s, c, cg, sg = math.sin(psi), math.cos(psi), math.cos(gamma), math.sin(gamma)
            tilt += [kappa * s * (sg * v1_r - cg * v2_r), -kappa * c * (cg * v1_r + sg * v2_r)]
        coef = 2.0 * self.rho_eff / LOG2
        return -coef * weights[:, : self.n_t].sum(axis=1), coef * np.array(tilt)


def _lbfgs_ascent(evaluate, slopes, x, mi, state, blocks, eps, patience, max_steps):
    """L-BFGS ascent of an MI in the real coordinates x, from x, of MI mi
    and evaluate(x) state state.

    evaluate(x) returns (MI, state), slopes(state) the MI's gradient in x,
    and blocks is a tuple of (slice of x, first move) pairs.  Directions
    come from the two-loop recursion over the last _LBFGS_MEMORY (step,
    gradient change) pairs (Nocedal & Wright, Numerical Optimization, Alg.
    7.4), the initial inverse Hessian scaled by s^T y / y^T y of the newest
    pair on each block apart (eq. 7.20; the whole pair's where a block's
    own s^T y is not positive).  The first direction is steepest ascent
    scaled so each block's largest move is its first move.  Of at most
    _BACKTRACKS trials along a direction, the first that raises the MI by
    at least _ARMIJO of the gain its slope predicts is taken.  Stops with
    "threshold" after patience steps in a row that each gain less than
    eps min(1, |MI|), the MI of the point the step leaves from,
    with "no_ascent" when the direction does not point uphill (a zero
    gradient included) or no trial is taken, else with "max_iters" after
    max_steps steps.  slopes is called at the start and at each point
    taken that another step leaves from.  Returns (state of the last point
    taken, its MI trace: mi, then one MI per step, stop reason).  Forms no
    square matrix.
    """
    grad = slopes(state)
    pairs = deque(maxlen=_LBFGS_MEMORY)
    mis, small, reason = [mi], 0, "max_iters"
    for _ in range(max_steps):
        d = grad.copy()
        coefs = []
        for s, y, sy in reversed(pairs):
            coef = float(s @ d) / sy
            d -= coef * y
            coefs.append(coef)
        if pairs:
            s, y, sy = pairs[-1]
            for block, _ in blocks:
                sy_block = float(s[block] @ y[block])
                d[block] *= (sy_block / float(y[block] @ y[block]) if sy_block > 0.0
                             else sy / float(y @ y))
        else:
            for block, move in blocks:
                d[block] /= max(float(np.max(np.abs(d[block]))), _NORMAL_MIN) / move
        for (s, y, sy), coef in zip(pairs, reversed(coefs)):
            d += (coef - float(y @ d) / sy) * s
        slope = float(grad @ d)
        if not slope > 0.0:  # false on a NaN
            reason = "no_ascent"
            break
        step = 1.0
        for _ in range(_BACKTRACKS):
            trial = x + step * d
            mi_trial, trial_state = evaluate(trial)
            rise = mi_trial - mi
            if rise > 0.0 and rise >= _ARMIJO * step * slope:
                break
            # the peak of the quadratic through the MI, its slope and the
            # trial, kept within [0.1, 0.5] of the step (N&W eq. 3.57)
            excess = slope * step - rise
            peak = 0.5 * slope * step * step / excess if excess > 0.0 else 0.5 * step
            step = min(max(peak, 0.1 * step), 0.5 * step)
        else:
            reason = "no_ascent"
            break
        small = small + 1 if rise < eps * min(1.0, abs(mi)) else 0
        x, mi, state = trial, mi_trial, trial_state
        mis.append(mi)
        if small == patience:
            reason = "threshold"
            break
        if len(mis) > max_steps:  # no direction follows the last step
            break
        s = step * d
        grad_new = slopes(state)
        y = grad - grad_new
        sy, yy = float(s @ y), float(y @ y)
        if yy > 0.0 and sy > _CURVATURE_FLOOR * math.sqrt(float(s @ s) * yy):
            pairs.append((s, y, sy))
        grad = grad_new
    return state, mis, reason


def oriented_scenario(scn: Scenario, m) -> Scenario:
    """Scenario with both array orientations replaced by the vector m.

    Out-of-domain tilts are mirrored rather than rejected
    (geometry.fold_orientation); this keeps finite-difference probes valid
    near the tilt limits.
    """
    vec = orientation_vector(m)
    (g_t, p_t), (g_r, p_r) = fold_orientation(*vec[:2]), fold_orientation(*vec[2:])
    return replace(
        scn,
        tx=replace(scn.tx, orient_azimuth=g_t, orient_elevation=p_t),
        rx=replace(scn.rx, orient_azimuth=g_r, orient_elevation=p_r),
    )


def _posed_mi(scn: Scenario, theta, m) -> float:
    """MI at the phases theta of the hops build_channels gives at the tilts m."""
    cs = chan.build_channels(oriented_scenario(scn, m))
    return _cascade_mi(cs.h_t, cs.h_r, cs.eta0, theta, scn.power)


def mi_gradient(scn: Scenario, theta, m) -> np.ndarray:
    """Analytic gradient of the negated MI in the four orientation angles,
    at any finite angles.

    The MI is that of the reduced cascade eta0 E_r^T diag(w) E_t, E the
    sides' coupling factors and w = theta times the link's element phasors,
    whose singular values are those of the full one; _LinkKernel.slopes
    contracts the weights of d MI/d phase against the couplings' tilt
    derivatives.
    """
    theta = _finite_phases(theta)
    vec = orientation_vector(m)
    kernel = _LinkKernel(scn)
    return -kernel.slopes(kernel.point(theta * kernel.link.elements, vec)[1])[1]


def finite_difference_gradient(scn: Scenario, theta, m, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the negated MI (oracle for
    mi_gradient), each probe on the hops of its posed scenario."""
    if step <= 0.0:
        raise ValueError("step must be > 0")
    theta = _finite_phases(theta)
    vec = orientation_vector(m)
    out = np.zeros(4)
    for i in range(4):
        probe = np.zeros(4)
        probe[i] = step
        hi, lo = _posed_mi(scn, theta, vec + probe), _posed_mi(scn, theta, vec - probe)
        out[i] = (lo - hi) / (2.0 * step)
    return out


def normalize_orientation(m) -> np.ndarray:
    """Fold an orientation vector of any finite tilts into the box gamma in
    [-pi/2, pi/2), psi in [0, pi], axis preserved.

    Each psi is reduced mod 2*pi into [-pi, pi] (exactly, by
    math.remainder), and each (gamma, psi) is folded into a pose's domain
    (geometry.fold_orientation); then (gamma - pi, pi - psi), which
    relabels the same antenna line, brings gamma into [-pi/2, pi/2).  The
    fold never changes the physical configuration.  A NaN or infinite
    angle is refused (geometry.orientation_vector).
    """
    vec = orientation_vector(m)
    out = []
    for gamma, psi in (vec[:2], vec[2:]):
        gamma, psi = fold_orientation(gamma, math.remainder(psi, TWO_PI))
        if math.pi / 2 <= gamma < 3 * math.pi / 2:
            gamma, psi = gamma - math.pi, math.pi - psi
        elif gamma >= 3 * math.pi / 2:
            gamma -= TWO_PI
        out += [gamma, psi]
    return np.array(out)


def optimize_orientation(
    scn: Scenario, theta, m_init, *, eps_orient: float = 1e-6, max_iters: int = 200
) -> tuple[np.ndarray, OptTrace]:
    """L-BFGS ascent (_lbfgs_ascent) of the MI in the four orientation
    angles at fixed phases.

    No hop is posed: each point is scored on the reduced cascade
    (_LinkKernel), as in alternating_optimize's rounds, which is analytic
    in every real angle, so the ascent steps on the raw angles in all of
    R^4.  Its one block first moves as far as the largest entry of the
    gradient, so its first trial is m + grad.  The end point is returned
    through normalize_orientation.  The trace's stop_reason is "threshold"
    when a step gains less than eps_orient min(1, |MI|), the MI of the
    point it leaves from, "no_ascent" when no trial of a step raises the
    MI or the gradient is zero, and "max_iters" after max_iters steps.
    """
    theta = _finite_phases(theta)
    kernel = _LinkKernel(scn)
    w = theta * kernel.link.elements

    def evaluate(m):
        return kernel.point(w, m)

    def slopes(state):
        return kernel.slopes(state)[1]

    m = normalize_orientation(m_init)
    mi, state = evaluate(m)
    # a zero gradient's first move is floored like a direction's largest
    # move, which leaves the first direction the gradient itself
    first = max(float(np.max(np.abs(slopes(state)))), _NORMAL_MIN)
    (m, *_), mis, reason = _lbfgs_ascent(evaluate, slopes, m, mi, state,
                                         ((slice(None), first),), eps_orient, 1, max_iters)
    rows = [(step, value, "orientation") for step, value in enumerate(mis)]
    return normalize_orientation(m), OptTrace(iterations=rows, stop_reason=reason)


def random_init(scn: Scenario, seed) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random start: uniform phases, orientations uniform in the box."""
    rng = np.random.default_rng(seed)
    theta = np.exp(1j * rng.uniform(0.0, TWO_PI, scn.irs.n_elements))
    m = np.array([rng.uniform(*box) for box in (GAMMA_BOX, PSI_BOX, GAMMA_BOX, PSI_BOX)])
    return theta, m


def focusing_init(scn: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Start from the scenario's declared focusing phases and orientations.

    Because the joint rounds are monotone, a run launched here can only end
    at or above the plain focusing MI, which makes it the natural anchor of
    a multi-start portfolio.
    """
    tx, rx = scn.tx, scn.rx
    m = [tx.orient_azimuth, tx.orient_elevation, rx.orient_azimuth, rx.orient_elevation]
    return chan.build_channels(scn).theta, normalize_orientation(m)


def _theta_stop(*, max_outer: int | None = None) -> None:
    """theta_stop's one key, max_outer, which the rounds accept and do not use."""


def _ascent_stops(*, eps_orient: float = 1e-6, max_iters: int = 200) -> tuple:
    """orient_stop's small-step threshold and steps per round."""
    return eps_orient, max_iters


def alternating_optimize(
    scn: Scenario,
    init=None,
    *,
    seed=None,
    eps_oa: float = 1e-6,
    max_rounds: int = 50,
    theta_stop: dict | None = None,
    orient_stop: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, OptTrace]:
    """Maximize MI over the surface phases and the array tilts together.

    init is a (theta, orientation) pair; when omitted a seeded random start
    is drawn.  Each point is scored on the reduced cascade eta0 E_r^T
    diag(w) E_t of one resolved link, w = theta times the element phasors,
    so no hop is posed: _LinkKernel.point gives the point's MI from one SVD
    and, where a step leaves from it, _LinkKernel.slopes its gradient.  A
    round is one L-BFGS ascent (_lbfgs_ascent) on (phi, m), w = exp(j phi),
    whose phase and tilt blocks first move 1 and 0.1 rad; it stops after
    _JOINT_PATIENCE steps in a row that each gain less than eps_orient
    min(1, |MI|) bits, the MI of the point the step leaves from, or after
    max_iters steps, and the next round restarts it from the point it took
    last.  theta_stop holds max_outer, which the rounds accept and do not
    use; orient_stop holds eps_orient and max_iters; any other key raises
    TypeError.
    The rounds stop with "threshold" when one gains less than eps_oa
    min(1, |MI|) bits, the MI it starts from, else with "max_iters" after
    max_rounds.  The trace has an "init" row, then a "joint" row per round.
    Returns the final phases (the start's when no round runs), the tilts
    through normalize_orientation, and the trace.
    """
    _theta_stop(**(theta_stop or {}))
    eps_orient, max_iters = _ascent_stops(**(orient_stop or {}))
    theta, m = random_init(scn, seed) if init is None else init
    theta = np.asarray(theta, dtype=complex)
    kernel = _LinkKernel(scn)
    link = kernel.link
    q = len(link.elements)
    blocks = ((slice(0, q), 1.0), (slice(q, None), 0.1))

    def evaluate(x):
        w = np.exp(1j * x[:q])
        mi, state = kernel.point(w, x[q:])
        return mi, (x, w, state)

    def slopes(state):
        return np.concatenate(kernel.slopes(state[2]))

    w = _unit_phases(theta) * link.elements
    x = np.concatenate((np.angle(w), normalize_orientation(m)))
    mi, state = evaluate(x)
    rows = [(0, mi, "init")]
    reason = "max_iters"
    for rnd in range(1, max_rounds + 1):
        state, mis, _ = _lbfgs_ascent(evaluate, slopes, state[0], mi, state, blocks,
                                      eps_orient, _JOINT_PATIENCE, max_iters)
        mi = mis[-1]
        rows.append((rnd, mi, "joint"))
        theta = state[1] * link.elements.conj()
        if mi - mis[0] < eps_oa * min(1.0, abs(mis[0])):
            reason = "threshold"
            break
    m = normalize_orientation(state[0][q:])
    return theta, m, OptTrace(iterations=rows, stop_reason=reason)
