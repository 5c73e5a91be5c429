"""Hop matrices, focusing phases, assembly and the product closed form."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irsmimo import cli, response
from irsmimo.channel import (
    _side_terms,
    build_channels,
    closed_form_channel,
    coupling_constants,
    dirichlet_ratio,
    focused_kernels,
    irs_rx_channel,
    link_side,
    orientation_phase_jacobian,
    pose_side,
    pose_terms,
    propagation_phases,
    reflective_focusing,
    resolve_link,
    side_anchors,
    tx_irs_channel,
)
from irsmimo.checks import gram_verdicts, posed_scenario
from irsmimo.geometry import ArrayPose, IrsLayout, centered_indices
from irsmimo.multiplexing import check_orthogonality, fmr_inner_bound, region_grid
from irsmimo.optimize import (
    mi_gradient,
    mutual_information,
    normalize_orientation,
    oriented_scenario,
)
from irsmimo.scenario import PowerConfig, Scenario, WaveConfig, parse_scenario
from oracles import (
    LONG_PI,
    batched_closed_form,
    coupling_factor,
    edge_setups,
    edge_tilts,
    offset_jacobian,
    offset_phases,
    random_scenario,
    reference_dirichlet_ratio,
    reference_side_terms,
)


def tiny_scenario(d_t=10.0, d_r=12.0, lam=0.005):
    """Single antenna on each side, single element: everything is scalar."""
    return Scenario(
        wave=WaveConfig(lam),
        tx=ArrayPose(1, 0.1, d_t, 0.3, 0.4),
        rx=ArrayPose(1, 0.1, d_r, 1.3, 0.2),
        irs=IrsLayout(1, 1, 0.1, 0.1, 0.1, 0.1),
    )


def element_row(layout, k, l):
    return (k + (layout.q_x - 1) // 2) * layout.q_y + (layout.q_y - 1) // 2 + l


class TestHopMatrices:
    def test_every_entry_has_unit_modulus(self, golden_scenario):
        for mat in (tx_irs_channel(golden_scenario), irs_rx_channel(golden_scenario)):
            assert np.max(np.abs(np.abs(mat) - 1.0)) < 1e-12

    def test_scalar_case_is_a_pure_center_phasor(self):
        # the one link runs center to center, exactly the distance D its
        # hop's phase is measured from; at D = 10.3 m, D/lambda is no integer
        scn = tiny_scenario(d_t=10.3, d_r=12.0)
        assert tx_irs_channel(scn)[0, 0] == 1.0
        assert irs_rx_channel(scn)[0, 0] == 1.0

    def test_entries_match_a_longhand_exponent(self, golden_scenario):
        # scalar re-derivation of the phase polynomial, including the
        # row/column placement of (k, l) and p; a hop's phase is measured
        # from its center distance D, so 2*pi*D/lambda is not in it
        scn = golden_scenario
        h_t = tx_irs_channel(scn)
        pose, layout, lam = scn.tx, scn.irs, scn.wave.wavelength
        so, co = math.sin(pose.azimuth), math.cos(pose.azimuth)
        sp, cp = math.sin(pose.elevation), math.cos(pose.elevation)
        sg, cg = math.sin(pose.orient_azimuth), math.cos(pose.orient_azimuth)
        spsi, cpsi = math.sin(pose.orient_elevation), math.cos(pose.orient_elevation)
        for k, l, p in [(-7, -7, -2), (3, -5, 1), (0, 7, 2), (6, 2, 0)]:
            r = p * pose.spacing
            gx, gy = k * layout.spacing_x, l * layout.spacing_y
            a = r * spsi * cg - (gx * so - gy * co)
            b = r * spsi * sg - (gx * cp * co + gy * cp * so)
            ax = r * cpsi - (gx * sp * co + gy * sp * so)
            zeta = (
                math.pi * a * a / (lam * pose.distance)
                + math.pi * b * b / (lam * pose.distance)
                + (2 * math.pi / lam) * ax
            )
            got = h_t[element_row(layout, k, l), p + (pose.n_antennas - 1) // 2]
            assert got == pytest.approx(np.exp(-1j * zeta), abs=1e-12)

    def test_rx_matrix_is_antennas_by_elements(self, golden_scenario):
        h_r = irs_rx_channel(golden_scenario)
        assert h_r.shape == (5, 225)
        phases = propagation_phases(
            golden_scenario.wave, golden_scenario.irs, golden_scenario.rx
        )
        assert np.allclose(h_r, np.exp(-1j * phases).T, atol=1e-15)


class TestFocusing:
    def test_center_pair_sums_fully_coherently(self, golden_scenario):
        chans = build_channels(golden_scenario)
        want = chans.eta0 * golden_scenario.irs.n_elements
        assert abs(chans.h[2, 2]) == pytest.approx(want, rel=1e-9)

    def test_scalar_case_beta_is_the_summed_center_phase(self):
        scn = tiny_scenario(d_t=10.0, d_r=12.0, lam=0.005)
        betas = reflective_focusing(scn)
        assert betas.shape == (1,)
        # the one element sits at the origin, so each center link is exactly
        # its hop's center distance, from which the hop's phase is measured
        assert betas[0] == 0.0

    def test_any_antenna_pair_can_be_focused(self, rng):
        # programming each element for a non-center pair maxes that entry instead
        scn = random_scenario(rng)
        p = (scn.tx.n_antennas - 1) // 2  # rightmost antenna, index +max
        q = -((scn.rx.n_antennas - 1) // 2)
        pcol = p + (scn.tx.n_antennas - 1) // 2
        qrow = q + (scn.rx.n_antennas - 1) // 2
        prop_t = propagation_phases(scn.wave, scn.irs, scn.tx)
        prop_r = propagation_phases(scn.wave, scn.irs, scn.rx)
        betas = tuple(prop_t[:, pcol] + prop_r[:, qrow])
        chans = build_channels(replace(scn, focusing_mode="explicit", focusing_betas=betas))
        assert abs(chans.h[qrow, pcol]) == pytest.approx(
            chans.eta0 * scn.irs.n_elements, rel=1e-9
        )

    def test_focusing_mode_dispatch(self, golden_scenario):
        zeroed = replace(golden_scenario, focusing_mode="zero")
        assert np.all(build_channels(zeroed).theta == 1.0)
        listed = replace(
            tiny_scenario(), focusing_mode="explicit", focusing_betas=(0.25,)
        )
        assert build_channels(listed).theta[0] == np.exp(0.25j)
        reflective = build_channels(golden_scenario).theta
        assert np.array_equal(reflective, np.exp(1j * reflective_focusing(golden_scenario)))


class TestAssembly:
    def test_cascade_equals_the_three_factor_product(self, golden_scenario):
        chans = build_channels(golden_scenario)
        product = chans.eta0 * (chans.h_r * chans.theta[None, :]) @ chans.h_t
        assert np.linalg.norm(chans.h - product) <= 1e-10 * np.linalg.norm(chans.h)

    def test_reflective_build_is_the_single_hop_path(self, golden_scenario, rng):
        # build_channels evaluates each side once for every focusing mode; it
        # must agree bit for bit with eta0 * (h_r * e^{j beta}) @ h_t built by
        # hand from the hops and the focusing evaluated separately, also for
        # N_r > N_t and a one-antenna side
        setups = [golden_scenario] + [random_scenario(rng) for _ in range(6)]
        setups[-2] = replace(setups[-2], tx=replace(setups[-2].tx, n_antennas=1))
        setups[-1] = replace(setups[-1], rx=replace(setups[-1].rx, n_antennas=1))
        assert any(scn.rx.n_antennas > scn.tx.n_antennas for scn in setups)
        for base in setups:
            q = base.irs.n_elements
            listed = rng.uniform(-10.0, 10.0, q)
            for scn, betas in (
                (base, reflective_focusing(base)),
                (replace(base, focusing_mode="zero"), np.zeros(q)),
                (replace(base, focusing_mode="explicit", focusing_betas=tuple(listed)), listed),
            ):
                chans = build_channels(scn)
                h_t, h_r = tx_irs_channel(scn), irs_rx_channel(scn)
                gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
                theta = np.exp(1j * betas)
                assert np.array_equal(chans.h_t, h_t) and np.array_equal(chans.h_r, h_r)
                assert np.array_equal(chans.theta, theta)
                assert chans.eta0 == gain
                assert np.array_equal(chans.h, gain * ((h_r * theta) @ h_t))

    def test_posed_link_matches_the_posed_scenario(self, golden_scenario, rng):
        # a resolved link posed by its coupling factors alone, eta0 E_r^T
        # diag(theta * elements) E_t, has the singular values and the MI of
        # build_channels' cascade at the normalized tilts, also for tilts
        # outside the box, on one-antenna sides, zenith arrays and N_r > N_t
        outside = [[-5.0, -0.3, 9.0, math.pi + 0.2], [9.0, 7.0, -5.0, -0.3],
                   [-5.0, math.pi + 0.2, 9.0, 7.0]]
        worst_mi = worst_sv = 0.0
        for scn in [golden_scenario] + edge_setups(rng):
            link = resolve_link(scn)
            vectors = [np.array(m) for m in outside] + list(rng.uniform(-1.6, 3.2, (3, 4)))
            for m in vectors:
                theta = np.exp(1j * rng.uniform(0, 2 * math.pi, scn.irs.n_elements))
                e_t, e_r = (coupling_factor(side, *m[at : at + 2])
                            for side, at in ((link.tx, 0), (link.rx, 2)))
                reduced = link.eta0 * ((e_r.T * (theta * link.elements)) @ e_t)
                ref = build_channels(oriented_scenario(scn, normalize_orientation(m)))
                assert ref.eta0 == link.eta0
                full = ref.eta0 * ((ref.h_r * theta) @ ref.h_t)
                sv, sv_ref = (np.linalg.svd(h, compute_uv=False) for h in (reduced, full))
                worst_sv = max(worst_sv, float(np.max(np.abs(sv - sv_ref)) / sv_ref[0]))
                worst_mi = max(worst_mi, abs(mutual_information(reduced, scn.power)
                                             - mutual_information(full, scn.power)))
        assert worst_sv <= 1e-12
        assert worst_mi <= 1e-10

    def test_posed_scenario_rejects_what_a_pose_rejects(self, golden_scenario):
        # a posed scenario keeps the pose's domain; a NaN or infinite tilt is
        # refused by name by the scenario, the gradient and the normalization
        with pytest.raises(ValueError, match="orient_elevation"):
            oriented_scenario(golden_scenario, [0.1, 7.0, 0.1, 1.0])
        theta = build_channels(golden_scenario).theta
        for bad in (math.nan, math.inf, -math.inf):
            m = [0.1, 1.0, bad, 1.0]
            for call in (lambda: oriented_scenario(golden_scenario, m),
                         lambda: mi_gradient(golden_scenario, theta, m),
                         lambda: normalize_orientation(m)):
                with pytest.raises(ValueError, match="^orientation angles must be finite$"):
                    call()

    def test_frobenius_energy_of_the_hops(self, golden_scenario):
        chans = build_channels(golden_scenario)
        n_elems = golden_scenario.irs.n_elements
        assert np.linalg.norm(chans.h_t) ** 2 == pytest.approx(5 * n_elems, rel=1e-12)
        assert np.linalg.norm(chans.h_r) ** 2 == pytest.approx(5 * n_elems, rel=1e-12)

    def test_frobenius_bound_with_equality_when_fully_coherent(self, golden_scenario):
        chans = build_channels(golden_scenario)
        cap = chans.eta0 * golden_scenario.irs.n_elements * math.sqrt(5 * 5)
        assert np.linalg.norm(chans.h) <= cap * (1 + 1e-12)
        # a scalar link focused on its only antenna pair saturates the bound
        tiny = build_channels(tiny_scenario())
        assert np.linalg.norm(tiny.h) == pytest.approx(
            tiny.eta0 * 1 * 1.0, rel=1e-12
        )

    def test_zero_phases_single_element_cascade(self):
        scn = replace(tiny_scenario(), focusing_mode="zero")
        chans = build_channels(scn)
        zeta_t = propagation_phases(scn.wave, scn.irs, scn.tx)[0, 0]
        zeta_r = propagation_phases(scn.wave, scn.irs, scn.rx)[0, 0]
        assert chans.h[0, 0] == pytest.approx(
            chans.eta0 * np.exp(-1j * (zeta_t + zeta_r)), rel=1e-12
        )

    def test_surface_phases_leave_hop_singular_values_alone(self, golden_scenario, rng):
        h_r = irs_rx_channel(golden_scenario)
        base = np.linalg.svd(h_r, compute_uv=False)
        theta = np.exp(1j * rng.uniform(0, 2 * math.pi, size=h_r.shape[1]))
        twisted = np.linalg.svd(h_r * theta[None, :], compute_uv=False)
        assert np.max(np.abs(twisted - base)) < 1e-9

    def test_wrong_length_phase_vector_rejected(self, golden_scenario):
        with pytest.raises(ValueError, match="225"):
            replace(golden_scenario, focusing_mode="explicit", focusing_betas=(0.0,) * 16)


class TestSeparablePhase:
    """The element + antenna + coupling split of the link phase against the
    per-entry offset form it replaced (tests/oracles.py)."""

    def test_hops_are_no_less_accurate_than_the_summed_exponent(self, rng):
        # against a long-double oracle of the same float inputs: the split
        # hops (center distance left out) and the old exp(-j(small + big))
        # (center distance in every entry), each against its own phase
        def error(hop, phase):
            ref = np.exp(-1j * np.mod(phase, 2 * LONG_PI).astype(np.clongdouble))
            return float(np.max(np.abs(hop - ref)))

        for scn in edge_setups(rng):
            for m in edge_tilts(rng):
                sc = oriented_scenario(scn, m)
                posed = build_channels(sc)
                for pose, hop in ((sc.tx, posed.h_t), (sc.rx, posed.h_r.T)):
                    small, big = offset_phases(sc, pose)
                    small_ld, big_ld = offset_phases(sc, pose, np.longdouble)
                    old = error(np.exp(-1j * (small + big)), small_ld + big_ld)
                    assert error(hop, small_ld) <= old

    def test_phase_jacobian_matches_the_offset_form(self, rng):
        for scn in edge_setups(rng):
            for m in edge_tilts(rng)[:3]:
                sc = oriented_scenario(scn, m)
                for pose in (sc.tx, sc.rx):
                    got = orientation_phase_jacobian(sc.wave, sc.irs, pose)
                    for a, b in zip(got, offset_jacobian(sc, pose)):
                        scale = max(float(np.max(np.abs(b))), np.finfo(float).tiny)
                        assert np.max(np.abs(a - b)) <= 1e-12 * scale


SCENARIO_FILES = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.txt"))


def own_rows(pose):
    """A pool of three (distance, gamma, psi) rows of one side, its own first."""
    return [[pose.distance, pose.orient_azimuth, pose.orient_elevation],
            [3.5, 0.7, 2.9], [17.0, 5.1, 0.4]]


class TestPosedLinks:
    """fmr-map's spot checks and verify's gram_fmr take their brute force
    from build_channels of the scenario posed at a grid pose; the map's
    batched gains must be that scenario's, and its closed form the
    reference's, bit for bit."""

    @staticmethod
    def agree_on_the_grid(scn, d_t, d_r):
        bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        poses = region_grid(bound, d_t, d_r)[2].reshape(-1, 6)
        gain = response.cascade_gains(
            scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx, poses[:, 0], poses[:, 3]
        )
        for i, row in enumerate(poses.tolist()):
            posed = posed_scenario(scn, row)
            assert gain[i] == build_channels(posed).eta0
            assert closed_form_channel(posed).tobytes() == reference_closed_form(posed)[0].tobytes()

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_bit_identical_on_a_solved_grid(self, path):
        # 9 x 9 points at the fmr-map settings: region and probe poses
        axis = np.linspace(2.0, 32.0, 9)
        self.agree_on_the_grid(parse_scenario(str(path)), axis, axis)

    def test_bit_identical_on_random_scenarios(self, rng):
        # 12 draws with a region on a 5 x 6 grid straddling it, one in
        # three with the Tx and one in three with the Rx at the zenith
        draws, seen_tall = 0, False
        while draws < 12:
            scn = random_scenario(rng)
            side = ("tx", "rx", None)[draws % 3]
            if side:
                scn = replace(scn, **{side: replace(getattr(scn, side), elevation=0.0)})
            try:
                bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
            except ValueError:
                continue
            draws += 1
            seen_tall = seen_tall or scn.rx.n_antennas > scn.tx.n_antennas
            t_max = max(bound.x.d_t_rayleigh, bound.y.d_t_rayleigh)
            r_max = max(bound.x.d_r_rayleigh, bound.y.d_r_rayleigh)
            self.agree_on_the_grid(
                scn, np.linspace(0.1, 1.2, 5) * t_max, np.linspace(0.1, 1.2, 6) * r_max
            )
        assert seen_tall

    def test_a_resolved_side_posed_anywhere_is_the_moved_pose(self, rng):
        # eigensweep resolves its Tx once and poses it at every distance:
        # the side at its own row, and at two others, is propagation_phases
        # of the pose standing there
        for _ in range(6):
            scn = random_scenario(rng)
            for pose in (scn.tx, scn.rx):
                side = link_side(scn.wave.wavelength, scn.irs, pose)
                for d, gamma, psi in own_rows(pose):
                    moved = replace(pose, distance=d, orient_azimuth=gamma, orient_elevation=psi)
                    phases = pose_side(side, d, gamma, psi)
                    assert phases.shape == (scn.irs.n_elements, pose.n_antennas)
                    want = propagation_phases(scn.wave, scn.irs, moved)
                    assert phases.tobytes() == want.tobytes()

    def test_invalid_tilt_is_rejected(self, golden_scenario):
        scn = golden_scenario
        side = link_side(scn.wave.wavelength, scn.irs, scn.tx)
        with pytest.raises(ValueError, match="orient_elevation"):
            pose_side(side, 5.0, 0.0, 4.0)


class TestCouplingConstants:
    def test_direction_amplitude_reference_value(self, golden_scenario):
        a_tx = side_anchors(golden_scenario.tx)[0]
        assert a_tx == pytest.approx(math.sqrt(0.8125), rel=1e-12)
        assert a_tx == pytest.approx(0.901388, abs=1e-6)

    def test_overhead_arrays_have_unit_amplitudes(self):
        for omega in (0.0, 1.0, 2.5, 5.0):
            a_x, g_x, a_y, g_y = side_anchors(ArrayPose(3, 0.1, 5.0, omega, 0.0))
            assert a_x == pytest.approx(1.0, rel=1e-12)
            assert a_y == pytest.approx(1.0, rel=1e-12)
            # the anchors follow the pinned zenith frame, not omega
            assert (g_x, g_y) == (math.pi, -math.pi / 2)

    def test_anchor_angles_decompose_the_amplitudes(self, rng):
        for _ in range(20):
            pose = ArrayPose(
                3,
                0.1,
                5.0,
                float(rng.uniform(0, 2 * math.pi)),
                float(rng.uniform(0.05, math.pi / 2 - 0.05)),
            )
            a_x, g_x, a_y, g_y = side_anchors(pose)
            so, co = math.sin(pose.azimuth), math.cos(pose.azimuth)
            cp = math.cos(pose.elevation)
            assert a_x * math.cos(g_x) == pytest.approx(so, abs=1e-12)
            assert a_x * math.sin(g_x) == pytest.approx(cp * co, abs=1e-12)
            assert a_y * math.cos(g_y) == pytest.approx(-co, abs=1e-12)
            assert a_y * math.sin(g_y) == pytest.approx(cp * so, abs=1e-12)

    def test_coupling_is_one_at_its_own_rayleigh_distance(self, golden_scenario):
        scn = golden_scenario
        a_tx, gbar_tx, _, _ = side_anchors(scn.tx)
        d_star = (
            scn.tx.spacing * scn.irs.spacing_x * scn.irs.q_x * a_tx / scn.wave.wavelength
        )
        aligned = replace(
            scn,
            tx=replace(
                scn.tx,
                distance=d_star,
                orient_azimuth=gbar_tx % (2 * math.pi),
                orient_elevation=math.pi / 2,
            ),
        )
        assert coupling_constants(aligned).c_tx == pytest.approx(1.0, rel=1e-12)

    def test_inplane_axis_aligned_pose_is_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            side_anchors(ArrayPose(3, 0.1, 5.0, 0.0, math.pi / 2))


class TestDirichletRatio:
    def test_limits_at_zero_and_multiples_of_the_period(self):
        assert dirichlet_ratio(0.0, 15) == pytest.approx(15.0, rel=1e-12)
        assert dirichlet_ratio(15.0, 15) == pytest.approx(15.0, rel=1e-12)
        assert dirichlet_ratio(-15.0, 15) == pytest.approx(15.0, rel=1e-12)

    def test_zero_at_interior_integers(self):
        for u in (1.0, 2.0, 7.0, -3.0, 14.0):
            assert abs(dirichlet_ratio(u, 15)) < 1e-12

    def test_matches_the_explicit_cosine_sum(self, rng):
        for u in rng.uniform(-20, 20, size=25):
            want = float(np.cos(2 * math.pi * u * centered_indices(9) / 9).sum())
            assert dirichlet_ratio(float(u), 9) == pytest.approx(want, abs=1e-9)

    def test_continuous_across_the_singular_branch(self):
        just_off = dirichlet_ratio(15.0 + 1e-8, 15)
        assert just_off == pytest.approx(15.0, abs=1e-5)

    @given(
        q=st.sampled_from([2, 3, 4, 5, 7, 9, 15, 16, 31, 64]),
        m=st.integers(-6, 6).filter(lambda v: v != 0),
        mantissa=st.floats(1.0, 10.0),
        exponent=st.integers(6, 12),
        negative=st.booleans(),
    )
    def test_accurate_next_to_the_aliased_points(self, q, m, mantissa, exponent, negative):
        # the cosine sum runs over q indices centered on 0, half-integers for an even q
        delta = (-1.0 if negative else 1.0) * mantissa * 10.0**-exponent
        u = m * q + delta
        want = float(np.cos(2 * math.pi * u * (np.arange(q) - (q - 1) / 2) / q).sum())
        assert dirichlet_ratio(u, q) == pytest.approx(want, rel=1e-12)

    def test_nonfinite_arguments_give_nan(self):
        for q in (15, 16):
            for u in (math.nan, math.inf, -math.inf):
                assert math.isnan(dirichlet_ratio(u, q))
            vec = dirichlet_ratio(np.array([0.3, math.nan, math.inf, -math.inf, q]), q)
            assert np.isnan(vec[1:4]).all()
            assert vec[[0, 4]].tolist() == [dirichlet_ratio(0.3, q), dirichlet_ratio(float(q), q)]

    def test_sign_is_exact_past_two_to_the_53(self):
        # at u = m*q with m odd the limit is -q for an even q, however
        # large m*(q-1) grows; the product rounds to an even float past 2**53
        assert dirichlet_ratio(float((2**50 + 1) * 16), 16) == -16.0
        for q, m in ((2, 2**52 + 1), (4, 2**51 - 1), (64, 2**46 + 3), (64, -(2**47) - 1)):
            assert dirichlet_ratio(float(m * q), q) == -q
            assert dirichlet_ratio(float((m + 1) * q), q) == q

    def test_exact_past_two_to_the_52(self):
        # every double from 2**52 up is an integer n, where the ratio is 0
        # unless q divides n, and then q for an odd q and (-1)**(n/q)*q for
        # an even one; q*round(u/q) is inexact there, or overflows
        huge = [sys.float_info.max, 2.0**1023, 1e308, 3.0 * 2**60, 2.0**54, 2.0**53, 2.0**52]
        for q in (1, 2, 3, 4, 15, 16, 31, 64):
            picked = huge + [float(q * m) for m in (2**52 // q + 1, 2**53 // q - 1, 2**60 + 1)]
            picked += [-u for u in picked]
            got = dirichlet_ratio(np.array(picked), q)
            for u, value in zip(picked, got):
                n = int(u)
                assert value == dirichlet_ratio(u, q)
                if n % q:
                    assert abs(value) < 1e-13, (u, q)
                else:
                    assert value == (q if q % 2 else q * (-1) ** (n // q)), (u, q)

    def test_keeps_the_bits_of_the_modulo_form(self, rng, monkeypatch, capsys):
        # every input but the two the parity sign mends: random u, the
        # aliased points and their 1e-12 neighbours, quotients below 1e-300,
        # signed zeros, and the 60 x 60 map the fmr_map benchmark runs at
        # seed 1, each frequency array it feeds the kernel and its negation
        inputs = []
        for q in (1, 2, 3, 4, 15, 16, 31, 64):
            aliased = np.arange(-20, 21) * float(q)
            tiny = np.array([5e-324, 1e-310, 1e-301, 1e-300, 3e-300, 1e-299, 1e-290])
            inputs.append((np.concatenate([
                rng.uniform(-50, 50, 500), rng.uniform(-1e6, 1e6, 100),
                aliased, aliased + 1e-12, aliased - 1e-12, tiny, -tiny, [0.0, -0.0],
            ]), q))
        seen = []

        def recording(u, q):
            seen.append((np.array(u), q))
            return dirichlet_ratio(u, q)

        monkeypatch.setattr("irsmimo.channel.dirichlet_ratio", recording)
        baseline = next(str(path) for path in SCENARIO_FILES if path.stem == "cascade_baseline")
        argv = ["fmr-map", "--scenario", baseline, "--verify",
                "--dt-start", "2.0792880199862047", "--dt-stop", "32.07928801998621",
                "--dt-count", "60", "--dr-start", "2.006527818289214",
                "--dr-stop", "32.006527818289214", "--dr-count", "60"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert sum(u.size for u, _ in seen) >= 3600
        inputs += seen + [(-u, q) for u, q in seen]
        for u, q in inputs:
            assert np.array_equal(
                dirichlet_ratio(u, q).view(np.int64), reference_dirichlet_ratio(u, q).view(np.int64)
            )

    def test_array_and_scalar_forms_agree(self):
        grid = np.array([0.0, 0.3, 1.0, 15.0])
        vec = dirichlet_ratio(grid, 15)
        assert vec.shape == (4,)
        for u, v in zip(grid, vec):
            assert dirichlet_ratio(float(u), 15) == v


def side_couplings(scn, pose, rows):
    """_side_terms' (c_x, c_y) as a (2, B) array, reference_side_terms' layout."""
    return _side_terms(scn, pose, rows)[..., 0, 0]


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # and so the sign of every zero


class TestSideTerms:
    """channel._side_terms forms every pose's terms in one numpy pass; the
    scalar libm formula it replaced is the reference for each bit.  This is
    the guard on numpy's float64 sin and cos returning libm's bits."""

    @staticmethod
    def rows(rng, n):
        return np.column_stack([
            rng.uniform(0.5, 50.0, n), rng.uniform(-10.0, 10.0, n), rng.uniform(-4.0, 4.0, n),
        ])

    def test_random_and_repeated_rows_keep_the_libm_bits(self, rng):
        for _ in range(10):
            scn = random_scenario(rng)
            rows = self.rows(rng, 2000)
            repeated = rows[rng.integers(0, 50, 500)]
            for pose in (scn.tx, scn.rx):
                for batch in (rows, repeated):
                    assert_same_bits(
                        side_couplings(scn, pose, batch), reference_side_terms(scn, pose, batch)
                    )

    def test_signed_zero_and_axis_tilts_keep_the_libm_bits(self, golden_scenario):
        scn = golden_scenario
        angles = [0.0, -0.0, math.pi / 2, math.pi, -math.pi / 2, -math.pi]
        rows = [[d, g, p] for d in (0.3, 7.0) for g in angles for p in angles]
        for pose in (scn.tx, scn.rx):
            got = side_couplings(scn, pose, rows)
            assert_same_bits(got, reference_side_terms(scn, pose, rows))
            assert np.signbit(got).any() and not np.signbit(got).all()

    def test_an_empty_batch_has_no_terms(self, golden_scenario):
        terms = _side_terms(golden_scenario, golden_scenario.tx, np.empty((0, 3)))
        assert terms.shape == (2, 0, 1, 1)

    def test_strided_rows_are_the_contiguous_rows(self, rng, golden_scenario):
        scn = golden_scenario
        poses = np.column_stack([self.rows(rng, 301), self.rows(rng, 301)])
        for strided in (poses[:, 3:], poses[::-2, :3], np.asfortranarray(poses)[:, 3:]):
            assert not strided.flags.c_contiguous
            want = reference_side_terms(scn, scn.rx, np.ascontiguousarray(strided))
            assert_same_bits(side_couplings(scn, scn.rx, strided), want)

    def test_a_row_does_not_depend_on_its_batch(self, rng, golden_scenario):
        scn = golden_scenario
        rows = self.rows(rng, 64)
        batch = _side_terms(scn, scn.tx, rows)
        for i in range(len(rows)):
            assert_same_bits(_side_terms(scn, scn.tx, rows[i : i + 1]), batch[:, i : i + 1])

    def test_a_nan_tilt_gives_nan_terms_as_libm_does(self, golden_scenario):
        scn = golden_scenario
        rows = [[5.0, math.nan, 0.3], [5.0, 0.3, math.nan]]
        want = reference_side_terms(scn, scn.tx, rows)
        assert np.array_equal(side_couplings(scn, scn.tx, rows), want, equal_nan=True)

    @pytest.mark.parametrize("row", [
        [5.0, math.inf, 0.3], [5.0, -math.inf, 0.3], [5.0, 0.3, math.inf], [5.0, 0.3, -math.inf],
        [0.0, 0.3, 0.3], [1e-323, 0.3, 0.3],
    ])
    def test_an_infinite_tilt_or_a_zero_distance_is_refused(self, golden_scenario, row):
        # libm refuses the first four (ValueError) and the last two
        # (ZeroDivisionError); a numpy warning or a silent NaN would not do
        scn = golden_scenario
        with pytest.raises((ValueError, ZeroDivisionError)):
            reference_side_terms(scn, scn.tx, [row])
        with pytest.raises(ValueError, match="finite tilts and a nonzero lambda"):
            _side_terms(scn, scn.tx, [[5.0, 0.1, 0.2], row])


class TestClosedForm:
    def test_matches_assembly_on_the_reference_setup(self, golden_scenario):
        # also with either array at the zenith, where the local frame is
        # pinned and the azimuth must not steer the coupling anchors
        setups = [golden_scenario] + [
            replace(golden_scenario, **{side: replace(pose, elevation=0.0, azimuth=az)})
            for side, pose in (("tx", golden_scenario.tx), ("rx", golden_scenario.rx))
            for az in (0.0, 1.0, 3 * math.pi / 2, 4.0)
        ]
        for scn in setups:
            assembled = build_channels(scn).h
            closed = closed_form_channel(scn)
            scale = np.max(np.abs(assembled))
            err = np.abs(closed - assembled)
            big = np.abs(assembled) > 1e-6 * scale
            # plain relative error away from the Dirichlet zeros; entries sitting
            # on a zero are compared against the matrix scale instead
            assert np.max(err[big] / np.abs(assembled)[big]) < 1e-9
            assert np.max(err[~big] / scale) < 1e-9 if np.any(~big) else True

    def test_matches_assembly_on_seeded_setups(self, rng):
        worst = 0.0
        for _ in range(10):
            scn = random_scenario(rng)
            assembled = build_channels(scn).h
            closed = closed_form_channel(scn)
            worst = max(worst, float(np.max(np.abs(closed - assembled) / np.abs(assembled))))
        assert worst < 1e-8

    def test_center_entry_is_the_coherent_sum(self, golden_scenario):
        closed = closed_form_channel(golden_scenario)
        gain = response.eta0(
            golden_scenario.wave,
            golden_scenario.reflection,
            golden_scenario.irs,
            golden_scenario.tx,
            golden_scenario.rx,
        )
        assert abs(closed[2, 2]) == pytest.approx(gain * 225, rel=1e-12)

    def test_requires_reflective_focusing(self, golden_scenario):
        with pytest.raises(ValueError, match="reflective"):
            closed_form_channel(replace(golden_scenario, focusing_mode="zero"))

    def test_antenna_count_must_not_exceed_aliasing_limit(self, rng):
        # the product form or the sum: both are exact, so this is not a
        # precondition; a deliberately large array still matches
        scn = random_scenario(rng, n_max=7, q_max=5)
        assembled = build_channels(scn).h
        closed = closed_form_channel(scn)
        assert np.max(np.abs(closed - assembled) / np.abs(assembled)) < 1e-8


def reference_closed_form(scn):
    """The closed form from scalar libm couplings, each entry's Dirichlet
    ratios unmirrored; the reference for closed_form_channel's bits."""
    lam = scn.wave.wavelength

    def c(pose, spacing, count, amp, anchor):
        return (
            pose.spacing
            * spacing
            * count
            * amp
            * math.sin(pose.orient_elevation)
            * math.cos(pose.orient_azimuth - anchor)
            / (lam * pose.distance)
        )

    def quad(pose, idx):
        sin_psi = math.sin(pose.orient_elevation)
        cos_psi = math.cos(pose.orient_elevation)
        return (pose.spacing * sin_psi) ** 2 * idx**2 / (2.0 * pose.distance) + (
            pose.spacing * cos_psi
        ) * idx

    a_tx, g_tx, a_ty, g_ty = side_anchors(scn.tx)
    a_rx, g_rx, a_ry, g_ry = side_anchors(scn.rx)
    irs = scn.irs
    c_tx = c(scn.tx, irs.spacing_x, irs.q_x, a_tx, g_tx)
    c_ty = c(scn.tx, irs.spacing_y, irs.q_y, a_ty, g_ty)
    c_rx = c(scn.rx, irs.spacing_x, irs.q_x, a_rx, g_rx)
    c_ry = c(scn.rx, irs.spacing_y, irs.q_y, a_ry, g_ry)
    p = centered_indices(scn.tx.n_antennas).astype(float)
    q = centered_indices(scn.rx.n_antennas).astype(float)
    phase = (2.0 * math.pi / lam) * (quad(scn.tx, p)[None, :] + quad(scn.rx, q)[:, None])
    ux = c_tx * p[None, :] + c_rx * q[:, None]
    uy = c_ty * p[None, :] + c_ry * q[:, None]
    gain = response.eta0(scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx)
    h = gain * np.exp(-1j * phase) * dirichlet_ratio(ux, irs.q_x) * dirichlet_ratio(uy, irs.q_y)
    return h, (c_tx, c_ty, c_rx, c_ry)


def pow_slips(x):
    """Whether libm's pow(x, 2) and x*x differ in the last bit."""
    return x**2 != x * x


def random_poses(rng, n):
    """n random (D_t, gamma, psi, D_r, gamma, psi) rows."""
    return np.column_stack([
        rng.uniform(2.0, 20.0, n), rng.uniform(0, 2 * math.pi, n), rng.uniform(0, math.pi, n),
        rng.uniform(2.0, 20.0, n), rng.uniform(0, 2 * math.pi, n), rng.uniform(0, math.pi, n),
    ])


class TestClosedFormCascades:
    def test_one_point_keeps_the_bits_of_the_closed_form(self, rng):
        # the three scenario files and 20 draws, among them N_r > N_t and
        # either array at the zenith, where the local frame is pinned
        setups = [parse_scenario(str(path)) for path in SCENARIO_FILES]
        for i in range(20):
            scn = random_scenario(rng)
            side = ("tx", "rx", None)[i % 3]
            if side:
                scn = replace(scn, **{side: replace(getattr(scn, side), elevation=0.0)})
            setups.append(scn)
        assert any(scn.rx.n_antennas > scn.tx.n_antennas for scn in setups)
        for scn in setups:
            want, couplings = reference_closed_form(scn)
            assert closed_form_channel(scn).tobytes() == want.tobytes()
            cc = coupling_constants(scn)
            assert (cc.c_tx, cc.c_ty, cc.c_rx, cc.c_ry) == couplings
            # 40 more poses, each against the reference of its posed
            # scenario; the first pose's tilts are ones where libm's
            # pow(x, 2) and x*x differ for x = s sin psi, so a slip shows
            poses = random_poses(rng, 40)
            for col, pose in ((2, scn.tx), (5, scn.rx)):
                poses[0, col] = next(
                    psi for psi in rng.uniform(0, math.pi, 100000).tolist()
                    if pow_slips(pose.spacing * math.sin(psi))
                )
            for row in poses.tolist():
                posed = posed_scenario(scn, row)
                want = reference_closed_form(posed)[0]
                assert closed_form_channel(posed).tobytes() == want.tobytes()

    def test_a_link_does_not_depend_on_its_batch(self, rng):
        # the batched reference the map's kernels are judged against: with
        # repeated side poses, every link is closed_form_channel of its
        # posed scenario bit for bit, and the brute-force cascade to 1e-8
        for _ in range(6):
            scn = random_scenario(rng)
            dists = rng.uniform(2.0, 20.0, 3)
            tilts = np.column_stack([rng.uniform(0, 2 * math.pi, 3), rng.uniform(0, math.pi, 3)])
            pick = rng.integers(0, 3, (4, 12))
            poses = np.column_stack([dists[pick[0]], tilts[pick[2]], dists[pick[1]], tilts[pick[3]]])
            gain = response.cascade_gains(
                scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx, poses[:, 0], poses[:, 3]
            )
            h = batched_closed_form(scn, poses, gain)
            for i, row in enumerate(poses.tolist()):
                posed = posed_scenario(scn, row)
                assert closed_form_channel(posed).tobytes() == h[i].tobytes()
                brute = build_channels(posed).h
                assert np.max(np.abs(h[i] - brute)) <= 1e-8 * np.max(np.abs(brute))

    def test_an_empty_batch_has_no_links(self, golden_scenario):
        scn, poses, gain = golden_scenario, np.empty((0, 6)), np.empty(0)
        for h in (batched_closed_form(scn, poses, gain),
                  focused_kernels(scn, pose_terms(scn, poses), gain)):
            assert h.shape == (0, 5, 5)


class TestFocusedKernels:
    def test_the_phase_factors_leave_every_gram_entry(self):
        # 12 draws with a region, in rows and in columns mode (N_r > N_t),
        # one in three with the Tx and one in three with the Rx at the
        # zenith; at the region and probe poses of a 5 x 6 grid straddling
        # the regions, the real kernel's Gram is the complex cascade's
        rng = np.random.default_rng(39)
        draws, modes, served_kinds, verdicts = 0, set(), set(), set()
        while draws < 12 or modes != {"rows", "columns"}:
            scn = random_scenario(rng)
            side = ("tx", "rx", None)[draws % 3]
            if side:
                scn = replace(scn, **{side: replace(getattr(scn, side), elevation=0.0)})
            try:
                bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
            except ValueError:
                continue
            draws += 1
            mode = "rows" if scn.rx.n_antennas <= scn.tx.n_antennas else "columns"
            modes.add(mode)
            t_max = max(bound.x.d_t_rayleigh, bound.y.d_t_rayleigh)
            r_max = max(bound.x.d_r_rayleigh, bound.y.d_r_rayleigh)
            _, served, poses, _ = region_grid(
                bound, np.linspace(0.1, 1.2, 5) * t_max, np.linspace(0.1, 1.2, 6) * r_max
            )
            served_kinds.update(np.where(served.ravel() < 2, "region", "probe").tolist())
            poses = poses.reshape(-1, 6)
            gain = response.cascade_gains(
                scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx, poses[:, 0], poses[:, 3]
            )
            kernels = focused_kernels(scn, pose_terms(scn, poses), gain)
            h = np.array([closed_form_channel(posed_scenario(scn, row)) for row in poses.tolist()])
            assert kernels.dtype == np.float64 and kernels.shape == h.shape
            target = gain**2 * scn.irs.n_elements**2
            real, cplx = (check_orthogonality(m, mode, target) for m in (kernels, h))
            assert np.all(np.abs(real.max_offdiag - cplx.max_offdiag) <= 1e-12 * target)
            assert np.all(np.abs(real.diag_values - cplx.diag_values) <= 1e-12 * target[:, None])
            assert np.array_equal(real.passed, cplx.passed)
            passed = gram_verdicts(scn, kernels, gain)
            assert np.array_equal(passed, gram_verdicts(scn, h, gain))
            verdicts.update(passed.tolist())
        assert served_kinds == {"region", "probe"} and verdicts == {True, False}

    def test_the_cascade_is_the_kernel_times_unit_phases(self, rng):
        # at random poses every entry of the closed form has the kernel's
        # magnitude, and a link's kernel does not depend on its batch
        for _ in range(6):
            scn = random_scenario(rng)
            poses = random_poses(rng, 8)
            gain = response.cascade_gains(
                scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx, poses[:, 0], poses[:, 3]
            )
            kernels = focused_kernels(scn, pose_terms(scn, poses), gain)
            for i, row in enumerate(poses.tolist()):
                h = closed_form_channel(posed_scenario(scn, row))
                scale = np.max(np.abs(kernels[i]))
                assert np.max(np.abs(np.abs(h) - np.abs(kernels[i]))) <= 1e-14 * scale
                one = focused_kernels(scn, pose_terms(scn, poses[i : i + 1]), gain[i : i + 1])
                assert one[0].tobytes() == kernels[i].tobytes()
