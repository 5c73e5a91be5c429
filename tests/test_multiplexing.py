"""Multiplexing-region tests: distance limits, orientation solvers, Gram checks.

The load-bearing oracle throughout is constructive: whenever the solver
claims a (D_t, D_r) point supports full multiplexing, we assemble the
actual cascaded channel at the returned orientations and require the Gram
matrix to be (numerically) a scaled identity.
"""

import math
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from irsmimo.channel import (
    build_channels,
    coupling_constants,
    irs_rx_channel,
    side_anchors,
    tx_irs_channel,
)
from irsmimo.checks import golden_scenario, posed_scenario, random_scenario
from irsmimo.geometry import ArrayPose, IrsLayout
from irsmimo.multiplexing import (
    _boundary_cap,
    boundary_cap,
    check_orthogonality,
    fmr_inner_bound,
    fmr_orientations,
    fmr_probe_orientation,
    rayleigh_distances,
    region_contains,
    region_grid,
    single_hop_orientation,
)
from irsmimo.response import WaveConfig
from irsmimo.scenario import Scenario, parse_scenario

TWO_PI = 2.0 * math.pi

GOLD = golden_scenario()
GOLD_WAVE, GOLD_LAYOUT, GOLD_TX, GOLD_RX = GOLD.wave, GOLD.irs, GOLD.tx, GOLD.rx

RIGHT_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
BASELINE = Path(__file__).resolve().parents[1] / "scenarios" / "cascade_baseline.txt"


@lru_cache(maxsize=None)
def golden_bound():
    return fmr_inner_bound(GOLD_TX, GOLD_RX, GOLD_LAYOUT, GOLD_WAVE)


def solved_scenario(bound, d_t, d_r, region, probe=False):
    """Scenario with the reference directions placed at solver orientations."""
    solver = fmr_probe_orientation if probe else fmr_orientations
    return posed_scenario(GOLD, d_t, d_r, solver(bound, d_t, d_r, region))


def region_limits(bound, region):
    reg = bound.axis(region)
    return reg.d_t_star, reg.d_t_rayleigh, reg.d_r_rayleigh


def angle_in(value, candidates, tol=1e-9):
    return any(abs((value - c + math.pi) % TWO_PI - math.pi) < tol for c in candidates)


class TestRayleighDistances:
    def test_reference_geometry_limits(self):
        rr = rayleigh_distances(GOLD_TX, GOLD_LAYOUT, GOLD_WAVE)
        assert rr.d_rx_axis == pytest.approx(27.0416, abs=1e-3)
        assert rr.d_ry_axis == pytest.approx(29.0474, abs=1e-3)
        assert rr.x_applicable and rr.y_applicable
        assert rr.d_r == pytest.approx(rr.d_ry_axis)

    def test_normal_direction_hits_plain_product(self):
        # looking straight down the surface normal both direction amplitudes
        # are 1, so the limit is just d*S*Q/lambda = 30 m here
        pose = ArrayPose(5, 0.1, 10.0, 1.0, 0.0)
        rr = rayleigh_distances(pose, GOLD_LAYOUT, GOLD_WAVE)
        assert rr.d_rx_axis == pytest.approx(30.0, rel=1e-12)
        assert rr.d_ry_axis == pytest.approx(30.0, rel=1e-12)

    @given(factor=st.floats(0.25, 4.0))
    def test_limits_scale_linearly(self, factor):
        base = rayleigh_distances(GOLD_TX, GOLD_LAYOUT, GOLD_WAVE)
        wider = ArrayPose(5, GOLD_TX.spacing * factor, 10.0, GOLD_TX.azimuth, GOLD_TX.elevation)
        assert rayleigh_distances(wider, GOLD_LAYOUT, GOLD_WAVE).d_rx_axis == pytest.approx(
            factor * base.d_rx_axis, rel=1e-12
        )
        shorter = WaveConfig(GOLD_WAVE.wavelength / factor)
        assert rayleigh_distances(GOLD_TX, GOLD_LAYOUT, shorter).d_ry_axis == pytest.approx(
            factor * base.d_ry_axis, rel=1e-12
        )

    def test_outcounted_axis_clears_overall_limit(self):
        pose = ArrayPose(7, 0.1, 1.0, 0.0, 0.3)
        rr = rayleigh_distances(pose, IrsLayout(5, 15, 0.1, 0.1, 0.1, 0.1), GOLD_WAVE)
        assert not rr.x_applicable
        assert rr.y_applicable
        assert rr.d_r is None
        # the per-axis figures themselves are still reported
        assert rr.d_rx_axis > 0.0


class TestSingleHopOrientation:
    """One array against the surface: orthogonal equal-gain streams."""

    def test_at_the_limit_opens_fully(self):
        rr = rayleigh_distances(GOLD_TX, GOLD_LAYOUT, GOLD_WAVE)
        pose = ArrayPose(5, 0.1, rr.d_rx_axis, GOLD_TX.azimuth, GOLD_TX.elevation)
        o = single_hop_orientation(pose, GOLD_LAYOUT, GOLD_WAVE, "x")
        assert o.psi == pytest.approx(math.pi / 2, abs=1e-12)
        assert o.branch == "x-default"
        # the azimuth lands on the x anchor of this direction
        _, gbar_x, _, _ = side_anchors(GOLD_TX)
        assert o.gamma == pytest.approx(gbar_x % TWO_PI, abs=1e-12)
        cc_pose = ArrayPose(5, 0.1, rr.d_rx_axis, GOLD_TX.azimuth, GOLD_TX.elevation, o.gamma, o.psi)
        scn = Scenario(wave=GOLD_WAVE, tx=cc_pose, rx=GOLD_RX, irs=GOLD_LAYOUT)
        cc = coupling_constants(scn)
        assert abs(cc.c_tx) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("frac", [1.0, 0.5, 0.1])
    def test_eigenvalues_are_flat(self, frac):
        rr = rayleigh_distances(GOLD_TX, GOLD_LAYOUT, GOLD_WAVE)
        d = frac * rr.d_rx_axis
        o = single_hop_orientation(
            ArrayPose(5, 0.1, d, GOLD_TX.azimuth, GOLD_TX.elevation), GOLD_LAYOUT, GOLD_WAVE, "x"
        )
        assert math.sin(o.psi) == pytest.approx(frac, rel=1e-12)
        posed = ArrayPose(5, 0.1, d, GOLD_TX.azimuth, GOLD_TX.elevation, o.gamma, o.psi)
        scn = Scenario(wave=GOLD_WAVE, tx=posed, rx=GOLD_RX, irs=GOLD_LAYOUT)
        h_t = tx_irs_channel(scn)
        ev = np.linalg.eigvalsh(h_t.conj().T @ h_t / GOLD_LAYOUT.n_elements)
        assert ev.max() / ev.min() < 1.0 + 1e-6
        assert check_orthogonality(h_t, "columns", float(GOLD_LAYOUT.n_elements)).passed

    def test_receive_side_rows(self):
        base = ArrayPose(5, 0.1, 10.0, GOLD_RX.azimuth, GOLD_RX.elevation)
        rr = rayleigh_distances(base, GOLD_LAYOUT, GOLD_WAVE)
        d = 0.8 * rr.d_ry_axis
        o = single_hop_orientation(
            ArrayPose(5, 0.1, d, base.azimuth, base.elevation), GOLD_LAYOUT, GOLD_WAVE, "y"
        )
        assert o.branch == "y-default"
        rx = ArrayPose(5, 0.1, d, base.azimuth, base.elevation, o.gamma, o.psi)
        scn = Scenario(wave=GOLD_WAVE, tx=GOLD_TX, rx=rx, irs=GOLD_LAYOUT)
        assert check_orthogonality(irs_rx_channel(scn), "rows", float(GOLD_LAYOUT.n_elements)).passed

    def test_rejects_distance_beyond_limit(self):
        pose = ArrayPose(5, 0.1, 40.0, GOLD_TX.azimuth, GOLD_TX.elevation)
        with pytest.raises(ValueError, match="exceeds the axis limit"):
            single_hop_orientation(pose, GOLD_LAYOUT, GOLD_WAVE, "x")

    def test_rejects_outcounted_surface(self):
        pose = ArrayPose(7, 0.1, 1.0, 0.0, 0.3)
        with pytest.raises(ValueError, match="5 elements for 7 antennas"):
            single_hop_orientation(pose, IrsLayout(5, 15, 0.1, 0.1, 0.1, 0.1), GOLD_WAVE, "x")

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis must be"):
            single_hop_orientation(GOLD_TX, GOLD_LAYOUT, GOLD_WAVE, "z")


class TestInnerBound:
    def test_reference_geometry_apexes(self):
        b = golden_bound()
        # regression figures cross-validated by the Gram checks below
        assert b.x.d_t_star == pytest.approx(25.265587, abs=1e-4)
        assert b.y.d_t_star == pytest.approx(16.672515, abs=1e-4)
        assert b.x.d_t_star <= b.x.d_t_rayleigh
        assert b.y.d_t_star <= b.y.d_t_rayleigh
        assert b.x.d_t_star == pytest.approx(
            b.x.d_t_rayleigh * abs(math.cos(b.x.gamma_star - b.x.gbar_t[0])), rel=1e-12
        )
        assert b.y.d_r_star == pytest.approx(
            b.y.d_r_rayleigh * abs(math.cos(b.y.gamma_star_r - b.y.gbar_r[0])), rel=1e-12
        )

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_boundary_endpoint_identities(self, axis):
        b = golden_bound()
        d_star, d_ray_t, d_ray_r = region_limits(b, axis)
        d_star_r = b.axis(axis).d_r_star
        assert boundary_cap(b, axis, d_star) == pytest.approx(d_ray_r, rel=1e-9)
        assert boundary_cap(b, axis, d_ray_t) == pytest.approx(d_star_r, rel=1e-9)

    def test_sampled_curves_span_the_lobe(self):
        b = golden_bound()

        def sampled(axis):
            """200 (D_t, cap) rows of the axis's boundary curve over its lobe."""
            reg = b.axis(axis)
            d_vals = np.linspace(reg.d_t_star, reg.d_t_rayleigh, 200)
            return np.array([(float(d), boundary_cap(b, axis, float(d))) for d in d_vals])

        curve_x, curve_y = sampled("x"), sampled("y")
        assert curve_x.shape == (200, 2)
        assert curve_x[0, 0] == pytest.approx(b.x.d_t_star, rel=1e-12)
        assert curve_x[-1, 0] == pytest.approx(b.x.d_t_rayleigh, rel=1e-12)
        assert curve_x[0, 1] == pytest.approx(b.x.d_r_rayleigh, rel=1e-9)
        assert curve_x[-1, 1] == pytest.approx(b.x.d_r_star, rel=1e-9)
        assert curve_y[0, 1] == pytest.approx(b.y.d_r_rayleigh, rel=1e-9)

    def test_right_angle_directions_make_rectangles(self):
        # with both azimuths on a quadrant boundary the apex reaches the
        # axis limit exactly, on all four distance limits
        for w_t in RIGHT_ANGLES:
            for w_r in RIGHT_ANGLES:
                b = fmr_inner_bound(
                    ArrayPose(5, 0.1, 10.0, w_t, math.pi / 6),
                    ArrayPose(5, 0.1, 10.0, w_r, 3 * math.pi / 7),
                    GOLD_LAYOUT,
                    GOLD_WAVE,
                )
                assert b.x.d_t_star == pytest.approx(b.x.d_t_rayleigh, rel=1e-9)
                assert b.y.d_t_star == pytest.approx(b.y.d_t_rayleigh, rel=1e-9)
                assert b.x.d_r_star == pytest.approx(b.x.d_r_rayleigh, rel=1e-9)
                assert b.y.d_r_star == pytest.approx(b.y.d_r_rayleigh, rel=1e-9)

    def test_x_region_can_swallow_y_region(self):
        # both arrays sideways on: the x rectangle is the full Rayleigh
        # rectangle and the y region fits inside it
        b = fmr_inner_bound(
            ArrayPose(5, 0.1, 10.0, 3 * math.pi / 2, math.pi / 6),
            ArrayPose(5, 0.1, 10.0, math.pi / 2, 3 * math.pi / 7),
            GOLD_LAYOUT,
            GOLD_WAVE,
        )
        assert b.x.d_t_star == pytest.approx(b.x.d_t_rayleigh, rel=1e-12)
        assert b.x.d_r_star == pytest.approx(b.x.d_r_rayleigh, rel=1e-12)
        assert b.y.d_t_rayleigh < b.x.d_t_rayleigh
        assert b.y.d_r_rayleigh < b.x.d_r_rayleigh
        assert region_contains(b, b.y.d_t_rayleigh, b.y.d_r_rayleigh, "x")

    def test_precondition_names_the_failing_inequality(self):
        squeezed = IrsLayout(11, 15, 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match=r"N_t \+ N_r - 2 < 2\*Q_x"):
            fmr_inner_bound(
                ArrayPose(13, 0.1, 10.0, 0.0, 0.3), ArrayPose(11, 0.1, 10.0, 0.0, 0.3),
                squeezed, GOLD_WAVE,
            )
        squeezed_y = IrsLayout(15, 11, 0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match=r"N_t \+ N_r - 2 < 2\*Q_y"):
            fmr_inner_bound(
                ArrayPose(13, 0.1, 10.0, 0.0, 0.3), ArrayPose(11, 0.1, 10.0, 0.0, 0.3),
                squeezed_y, GOLD_WAVE,
            )


class TestRegionMembership:
    def test_rectangle_and_lobe_points(self):
        b = golden_bound()
        assert region_contains(b, 0.5 * b.x.d_t_star, 0.5 * b.x.d_r_rayleigh, "x")
        mid = 0.5 * (b.x.d_t_star + b.x.d_t_rayleigh)
        assert region_contains(b, mid, 0.9 * boundary_cap(b, "x", mid), "x")
        assert not region_contains(b, mid, 1.01 * boundary_cap(b, "x", mid), "x")
        assert not region_contains(b, 1.01 * b.x.d_t_rayleigh, 1.0, "x")
        assert not region_contains(b, 0.5 * b.x.d_t_star, 1.01 * b.x.d_r_rayleigh, "x")
        assert not region_contains(b, -1.0, 5.0, "x")
        assert not region_contains(b, 5.0, 0.0, "y")

    @given(
        frac_t=st.floats(0.02, 0.999),
        frac_r=st.floats(0.02, 0.98),
        axis=st.sampled_from(["x", "y"]),
    )
    def test_membership_is_consistent_with_the_cap(self, frac_t, frac_r, axis):
        b = golden_bound()
        _, d_ray_t, _ = region_limits(b, axis)
        d_t = frac_t * d_ray_t
        cap = boundary_cap(b, axis, d_t) if d_t > region_limits(b, axis)[0] else region_limits(b, axis)[2]
        assert region_contains(b, d_t, frac_r * cap, axis)
        assert not region_contains(b, d_t, cap * 1.02 / max(frac_r, 0.5), axis)


class TestOrientationSolver:
    def test_sideways_corner_lies_flat_along_x(self):
        # both azimuths sideways on: at the (limit, limit) corner both
        # arrays end up parallel to the surface's first axis
        b = fmr_inner_bound(
            ArrayPose(5, 0.1, 10.0, 3 * math.pi / 2, math.pi / 6),
            ArrayPose(5, 0.1, 10.0, math.pi / 2, 3 * math.pi / 7),
            GOLD_LAYOUT, GOLD_WAVE,
        )
        o_t, o_r = fmr_orientations(b, b.x.d_t_rayleigh, b.x.d_r_rayleigh, "x")
        assert o_t.psi == pytest.approx(math.pi / 2, abs=1e-9)
        assert o_r.psi == pytest.approx(math.pi / 2, abs=1e-9)
        assert angle_in(o_t.gamma, (0.0, math.pi))
        assert angle_in(o_r.gamma, (0.0, math.pi))

    def test_facing_corner_splits_the_orientations(self):
        # transmit azimuth 0, receive azimuth pi/2.  At the corner the tilt
        # is fully open on both sides, so unit coupling on the first surface
        # axis pins each azimuth to its anchor: pi/2 for the transmitter
        # (axis in the x-z plane, square to the boresight), 0 for the
        # receiver (axis along x).
        b = fmr_inner_bound(
            ArrayPose(5, 0.1, 10.0, 0.0, math.pi / 6),
            ArrayPose(5, 0.1, 10.0, math.pi / 2, 3 * math.pi / 7),
            GOLD_LAYOUT, GOLD_WAVE,
        )
        o_t, o_r = fmr_orientations(b, b.x.d_t_rayleigh, b.x.d_r_rayleigh, "x")
        assert o_t.psi == pytest.approx(math.pi / 2, abs=1e-9)
        assert o_r.psi == pytest.approx(math.pi / 2, abs=1e-9)
        assert angle_in(o_t.gamma, (math.pi / 2, 3 * math.pi / 2))
        assert angle_in(o_r.gamma, (0.0, math.pi))
        scn = Scenario(
            wave=GOLD_WAVE,
            tx=ArrayPose(5, 0.1, b.x.d_t_rayleigh, 0.0, math.pi / 6, o_t.gamma, o_t.psi),
            rx=ArrayPose(5, 0.1, b.x.d_r_rayleigh, math.pi / 2, 3 * math.pi / 7, o_r.gamma, o_r.psi),
            irs=GOLD_LAYOUT,
        )
        cc = coupling_constants(scn)
        assert abs(cc.c_tx) == pytest.approx(1.0, abs=1e-9)
        assert abs(cc.c_rx) == pytest.approx(1.0, abs=1e-9)

    def test_rectangle_branch_fields(self):
        b = golden_bound()
        d_t, d_r = 0.6 * b.x.d_t_star, 0.7 * b.x.d_r_rayleigh
        o_t, o_r = fmr_orientations(b, d_t, d_r, "x")
        assert o_t.branch == "x-rect" and o_r.branch == "x-rect"
        assert math.sin(o_t.psi) == pytest.approx(d_t / b.x.d_t_star, rel=1e-12)
        assert math.sin(o_r.psi) == pytest.approx(d_r / b.x.d_r_rayleigh, rel=1e-12)
        assert angle_in(o_t.gamma, (b.x.gamma_star % math.pi, b.x.gamma_star % math.pi + math.pi))
        assert angle_in(o_r.gamma, (b.x.gbar_r[0] % math.pi, b.x.gbar_r[0] % math.pi + math.pi))

    def test_lobe_branch_fields(self):
        b = golden_bound()
        d_t = 0.5 * (b.y.d_t_star + b.y.d_t_rayleigh)
        cap = boundary_cap(b, "y", d_t)
        d_r = 0.8 * cap
        o_t, o_r = fmr_orientations(b, d_t, d_r, "y")
        assert o_t.branch == "y-lobe"
        assert o_t.psi == pytest.approx(math.pi / 2, abs=1e-12)
        ratio = math.sqrt((b.y.d_t_rayleigh / d_t) ** 2 - 1.0)
        assert abs(math.tan(o_t.gamma - b.y.gbar_t[0])) == pytest.approx(ratio, rel=1e-9)
        assert math.sin(o_r.psi) * cap == pytest.approx(d_r, rel=1e-9)

    def test_couplings_lock_at_sampled_points(self, rng):
        # the defining conditions at any feasible point: unit coupling on
        # the region axis at both ends, and matched magnitude on the other
        for i in range(10):
            region = "x" if i % 2 == 0 else "y"
            b = golden_bound()
            d_star, d_ray_t, d_ray_r = region_limits(b, region)
            if i % 4 < 2:
                d_t = float(rng.uniform(0.3, 1.0)) * d_star
                d_r = float(rng.uniform(0.3, 1.0)) * d_ray_r
            else:
                d_t = d_star + float(rng.uniform(0.05, 0.95)) * (d_ray_t - d_star)
                d_r = float(rng.uniform(0.3, 0.999)) * boundary_cap(b, region, d_t)
            cc = coupling_constants(solved_scenario(b, d_t, d_r, region))
            if region == "x":
                main_t, main_r, side_t, side_r = cc.c_tx, cc.c_rx, cc.c_ty, cc.c_ry
            else:
                main_t, main_r, side_t, side_r = cc.c_ty, cc.c_ry, cc.c_tx, cc.c_rx
            assert abs(main_t) == pytest.approx(1.0, abs=1e-9)
            assert abs(main_r) == pytest.approx(1.0, abs=1e-9)
            assert abs(side_t) == pytest.approx(abs(side_r), abs=1e-9)
            if abs(side_t) > 1e-9:
                assert np.sign(main_t * main_r) == np.sign(side_t * side_r)

    def test_probe_matches_solver_inside_the_rectangle(self):
        b = golden_bound()
        d_t, d_r = 0.4 * b.x.d_t_star, 0.6 * b.x.d_r_rayleigh
        o = fmr_orientations(b, d_t, d_r, "x")
        p = fmr_probe_orientation(b, d_t, d_r, "x")
        assert p[0].branch == "x-probe"
        assert (p[0].psi, p[0].gamma) == (o[0].psi, o[0].gamma)
        assert (p[1].psi, p[1].gamma) == (o[1].psi, o[1].gamma)

    def test_rejections(self):
        b = golden_bound()
        with pytest.raises(ValueError, match="rectangle cap"):
            fmr_orientations(b, 0.5 * b.x.d_t_star, 1.01 * b.x.d_r_rayleigh, "x")
        mid = 0.5 * (b.x.d_t_star + b.x.d_t_rayleigh)
        with pytest.raises(ValueError, match="boundary cap"):
            fmr_orientations(b, mid, 1.01 * boundary_cap(b, "x", mid), "x")
        with pytest.raises(ValueError, match="axis limit"):
            fmr_orientations(b, 1.01 * b.x.d_t_rayleigh, 1.0, "x")
        with pytest.raises(ValueError, match="region must be"):
            fmr_orientations(b, 1.0, 1.0, "diag")
        for d_t, d_r in [(-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="distances must be positive"):
                fmr_orientations(b, d_t, d_r, "x")

    @pytest.mark.parametrize(
        "d_t, d_r",
        [(-40.0, 5.0), (0.0, 5.0), (5.0, -1.0), (math.nan, 5.0), (5.0, math.nan)],
    )
    def test_probe_rejects_nonpositive_distances(self, d_t, d_r):
        with pytest.raises(ValueError, match="distances must be positive"):
            fmr_probe_orientation(golden_bound(), d_t, d_r, "x")

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: region_contains(b, 1.0, 1.0, "z"),
            lambda b: boundary_cap(b, "z", 1.0),
            lambda b: fmr_orientations(b, 1.0, 1.0, "z"),
            lambda b: fmr_probe_orientation(b, 1.0, 1.0, "z"),
        ],
        ids=["region_contains", "boundary_cap", "fmr_orientations", "fmr_probe_orientation"],
    )
    def test_unknown_axis_is_rejected(self, call):
        with pytest.raises(ValueError, match="region must be 'x' or 'y'"):
            call(golden_bound())


class TestGramCheck:
    def test_trivial_single_entry(self):
        rep = check_orthogonality(np.array([[1.0 + 0j]]), "columns", 1.0)
        assert rep.passed
        assert rep.max_offdiag == 0.0
        assert rep.diag_values == pytest.approx([1.0])

    def test_crafted_failure_modes(self):
        good = np.diag([1.0 + 0j, 1.0])
        assert check_orthogonality(good, "columns", 1.0).passed
        assert not check_orthogonality(good, "columns", 1.1).passed  # diagonals off target
        leaky = np.array([[1.0, 1e-5], [0.0, 1.0]], dtype=complex)
        assert not check_orthogonality(leaky, "columns", 1.0).passed
        assert check_orthogonality(leaky, "columns", 1.0, tol_off=1e-2, tol_diag=1e-3).passed

    def test_full_link_at_sampled_feasible_points(self, rng):
        b = golden_bound()
        for i in range(10):
            region = "x" if i % 2 == 0 else "y"
            d_star, d_ray_t, d_ray_r = region_limits(b, region)
            if i % 4 < 2:
                d_t = float(rng.uniform(0.3, 1.0)) * d_star
                d_r = float(rng.uniform(0.3, 1.0)) * d_ray_r
            else:
                d_t = d_star + float(rng.uniform(0.05, 0.95)) * (d_ray_t - d_star)
                d_r = float(rng.uniform(0.3, 0.999)) * boundary_cap(b, region, d_t)
            chans = build_channels(solved_scenario(b, d_t, d_r, region))
            target = chans.eta0**2 * GOLD_LAYOUT.n_elements**2
            assert check_orthogonality(chans.h, "columns", target).passed
            assert check_orthogonality(chans.h, "rows", target).passed

    def test_focused_link_is_a_scaled_permutation(self):
        b = golden_bound()
        chans = build_channels(solved_scenario(b, 0.5 * b.x.d_t_star, 0.5 * b.x.d_r_rayleigh, "x"))
        mag = np.abs(chans.h) / (chans.eta0 * GOLD_LAYOUT.n_elements)
        big = mag > 0.5
        assert np.all(big.sum(axis=0) == 1)
        assert np.all(big.sum(axis=1) == 1)
        assert mag[big] == pytest.approx(np.ones(5), rel=1e-9)
        assert np.all(mag[~big] < 1e-6)

    def test_point_beyond_both_regions_fails(self):
        b = golden_bound()
        d_t = 1.05 * b.x.d_t_rayleigh
        d_r = 0.5 * b.x.d_r_rayleigh
        assert not region_contains(b, d_t, d_r, "x")
        assert not region_contains(b, d_t, d_r, "y")
        chans = build_channels(solved_scenario(b, d_t, d_r, "x", probe=True))
        target = chans.eta0**2 * GOLD_LAYOUT.n_elements**2
        assert not check_orthogonality(chans.h, "columns", target).passed

    @pytest.mark.parametrize("mode", ["rows", "columns"])
    def test_stack_matches_the_per_matrix_reports(self, rng, mode):
        unitary, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        leaky = unitary.copy()
        leaky[0, 1] += 1e-5
        noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        stack = np.stack([2.0 * unitary, 2.0 * leaky, noise, unitary, 2.0 * unitary])
        targets = np.array([4.0, 4.0, 4.0, 1.0, 4.4])
        report = check_orthogonality(stack, mode, targets)
        singles = [check_orthogonality(m, mode, t) for m, t in zip(stack, targets)]
        assert [s.passed for s in singles] == [True, False, False, True, False]
        assert report.passed.tolist() == [s.passed for s in singles]
        assert report.max_offdiag.tolist() == [s.max_offdiag for s in singles]
        assert np.array_equal(report.diag_values, np.stack([s.diag_values for s in singles]))
        # one target for the whole stack broadcasts like a per-matrix one
        shared = check_orthogonality(stack, mode, 4.0)
        assert shared.passed.tolist() == [True, False, False, False, True]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_orthogonality(np.zeros((0, 3), dtype=complex), "columns", 1.0)
        with pytest.raises(ValueError, match="mode must be"):
            check_orthogonality(np.eye(2, dtype=complex), "diagonal", 1.0)


def test_solver_agrees_with_membership_on_random_draws(rng):
    # over (D_t, D_r) up to 1.3x each axis limit: the solver returns exactly
    # where the point is a member, its azimuths lie in [0, pi), and its Rx
    # tilt reaches D_r on the cap of that column
    draws = 0
    while draws < 120:
        scn = random_scenario(rng)
        try:
            b = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        except ValueError:
            continue
        draws += 1
        for axis in ("x", "y"):
            reg = b.axis(axis)
            for d_t, d_r in rng.uniform(0.0, 1.3, (6, 2)) * (reg.d_t_rayleigh, reg.d_r_rayleigh):
                d_t, d_r = float(d_t), float(d_r)
                try:
                    settings = fmr_orientations(b, d_t, d_r, axis)
                except ValueError:
                    assert not region_contains(b, d_t, d_r, axis)
                    continue
                assert region_contains(b, d_t, d_r, axis)
                assert all(0.0 <= s.gamma < math.pi for s in settings)
                rect = settings[1].branch == f"{axis}-rect"
                cap = reg.d_r_rayleigh if rect else boundary_cap(b, axis, d_t)
                assert math.sin(settings[1].psi) * cap == pytest.approx(d_r, rel=1e-12)


# The per-point region solver that region_grid replaced, kept as the oracle
# of the grid solve: one column per call, settings from its own asin.


def _oracle_column(reg, d_t):
    if d_t <= reg.d_t_star:
        return "rect", reg.d_r_rayleigh, reg.gbar_r[0], reg.gamma_star
    if d_t <= reg.d_t_rayleigh:
        return ("lobe", *_boundary_cap(reg, d_t))
    return None


def _oracle_settings(reg, column, d_t, d_r, branch):
    part, cap, gamma_r, gamma_t = column
    psi_t = math.pi / 2 if part == "lobe" else math.asin(min(1.0, d_t / reg.d_t_star))
    return (
        (gamma_t % math.pi, psi_t, branch),
        (gamma_r % math.pi, math.asin(min(1.0, d_r / cap)), branch),
    )


def oracle_contains(bound, d_t, d_r, axis):
    column = _oracle_column(bound.axis(axis), d_t)
    return d_t > 0.0 and column is not None and 0.0 < d_r <= column[1]


def oracle_orientations(bound, d_t, d_r, region):
    """((gamma, psi, branch) of Tx, of Rx), or the ValueError message."""
    reg = bound.axis(region)
    if not (d_t > 0.0 and d_r > 0.0):
        return "distances must be positive"
    column = _oracle_column(reg, d_t)
    if column is None:
        return f"D_t = {d_t:g} m exceeds the axis limit {reg.d_t_rayleigh:g} m"
    part, cap = column[:2]
    if d_r > cap:
        if part == "rect":
            return f"D_r = {d_r:g} m exceeds the rectangle cap {cap:g} m"
        return f"D_r = {d_r:g} m exceeds the boundary cap {cap:g} m at D_t = {d_t:g} m"
    return _oracle_settings(reg, column, d_t, d_r, f"{region}-{part}")


def oracle_probe(bound, d_t, d_r, region):
    reg = bound.axis(region)
    return _oracle_settings(reg, _oracle_column(reg, 0.0), d_t, d_r, f"{region}-probe")


def bits(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


def as_tuples(settings):
    return tuple((s.gamma, s.psi, s.branch) for s in settings)


def straddling_grid(bound):
    """D_t and D_r values on, just inside and just past every edge of both
    regions: the rectangle corner, D_t = d_t_star exactly, the lobe and its
    boundary caps, and the axis limits."""
    d_t, d_r = [], []
    for reg in (bound.x, bound.y):
        mid = 0.5 * (reg.d_t_star + reg.d_t_rayleigh)
        d_t += [0.3 * reg.d_t_star, reg.d_t_star, mid, reg.d_t_rayleigh, 1.05 * reg.d_t_rayleigh]
        d_t += [float(np.nextafter(reg.d_t_star, math.inf))]
        cap = _boundary_cap(reg, mid)[0]
        d_r += [0.5 * reg.d_r_star, reg.d_r_star, cap, float(np.nextafter(cap, math.inf))]
        d_r += [reg.d_r_rayleigh, float(np.nextafter(reg.d_r_rayleigh, math.inf))]
    return sorted(d_t), sorted(d_r)


def assert_grid_matches_oracle(bound, d_t, d_r, one_point=lambda i, j: True):
    """region_grid against the oracle at every point, and the one-point
    calls against it where one_point(i, j) holds."""
    inside, served, poses, _ = region_grid(bound, d_t, d_r)
    assert inside.shape == (len(d_t), len(d_r), 2) and poses.shape == inside.shape[:2] + (6,)
    for i, t in enumerate(d_t):
        for j, r in enumerate(d_r):
            member = [oracle_contains(bound, t, r, axis) for axis in ("x", "y")]
            assert inside[i, j].tolist() == member
            # the map's pick: the first region holding the point, else the probe
            probe = oracle_probe(bound, t, r, "x")
            region = next((a for a, m in zip(("x", "y"), member) if m), None)
            (g_t, p_t, _), (g_r, p_r, _) = (
                probe if region is None else oracle_orientations(bound, t, r, region)
            )
            assert served[i, j] == (2 if region is None else "xy".index(region))
            assert bits(*poses[i, j]) == bits(t, g_t, p_t, r, g_r, p_r)
            if not one_point(i, j):
                continue
            assert [region_contains(bound, t, r, axis) for axis in ("x", "y")] == member
            assert as_tuples(fmr_probe_orientation(bound, t, r, "x")) == probe
            for axis in ("x", "y"):
                want = oracle_orientations(bound, t, r, axis)
                if isinstance(want, str):
                    with pytest.raises(ValueError) as err:
                        fmr_orientations(bound, t, r, axis)
                    assert str(err.value) == want
                else:
                    got = as_tuples(fmr_orientations(bound, t, r, axis))
                    assert got == want and bits(*got[0][:2], *got[1][:2]) == bits(
                        *want[0][:2], *want[1][:2]
                    )


class TestRegionGrid:
    def test_matches_the_per_point_solver_on_random_scenarios(self, rng):
        draws, tall = 0, False
        while draws < 110:
            scn = random_scenario(rng)
            try:
                b = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
            except ValueError:
                continue
            draws += 1
            tall = tall or scn.rx.n_antennas > scn.tx.n_antennas
            d_t, d_r = straddling_grid(b)
            picks = rng.choice(len(d_t), 4, replace=False), rng.choice(len(d_r), 4, replace=False)
            extra = rng.uniform(0.0, 1.3, (2, 3)) * [[b.x.d_t_rayleigh], [b.x.d_r_rayleigh]]
            assert_grid_matches_oracle(
                b,
                sorted([d_t[k] for k in picks[0]] + extra[0].tolist()),
                sorted([d_r[k] for k in picks[1]] + extra[1].tolist()),
                one_point=lambda i, j: i == j,
            )
        assert tall

    @pytest.mark.parametrize("side", ["tx", "rx"])
    def test_matches_the_per_point_solver_at_the_zenith(self, side):
        base = parse_scenario(str(BASELINE))
        scn = replace(base, **{side: replace(getattr(base, side), elevation=0.0)})
        b = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        assert_grid_matches_oracle(b, *straddling_grid(b))

    def test_matches_the_per_point_solver_on_the_baseline(self):
        scn = parse_scenario(str(BASELINE))
        b = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        d_t, d_r = straddling_grid(b)
        assert_grid_matches_oracle(b, d_t + [20.0, 26.0], d_r + [10.0, 20.0])

    def test_probe_refuses_nonpositive_distances_only_when_it_serves(self):
        b = golden_bound()
        inside, served, poses, _ = region_grid(b, [-1.0, 0.0, 5.0], [0.0, 3.0], probe=None)
        assert not inside[:2].any() and (served[:2] == 2).all()
        assert np.isnan(poses[:2, :, 1:3]).all() and np.isnan(poses[:2, :, 4:]).all()
        with pytest.raises(ValueError, match="distances must be positive"):
            region_grid(b, [-1.0, 5.0], [3.0])
        # an empty grid serves no point, so nothing is refused
        assert region_grid(b, [-1.0, 5.0], [])[2].shape == (2, 0, 6)

    def test_one_solve_per_column(self, monkeypatch):
        import irsmimo.multiplexing as mux

        calls = []
        real = mux._column
        monkeypatch.setattr(mux, "_column", lambda reg, d_t: calls.append(d_t) or real(reg, d_t))
        b = golden_bound()
        region_grid(b, np.linspace(1.0, 40.0, 13), np.linspace(1.0, 40.0, 17))
        assert len(calls) == 2 * 13 + 1
