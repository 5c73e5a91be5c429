"""Element power response, polarization factor and far-field boundaries."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irsmimo.response import (
    IrsLayout,
    ReflectionConfig,
    WaveConfig,
    amplitude_variation,
    cascade_gains,
    eta0,
    far_field_boundary_irs,
    far_field_boundary_re,
    link_directions,
    path_loss,
    re_response_amplitude,
    sinc_ratio,
    tilde_g,
)
from irsmimo.geometry import ArrayPose

NORMAL = NORMAL_OUT = (0.0, 0.0)


def square_tiles(count, tile):
    return IrsLayout(count, count, tile, tile, tile, tile)


class TestFarFieldBoundaries:
    def test_element_boundary_reference_points(self):
        tiles = square_tiles(15, 0.02)
        assert far_field_boundary_re(tiles, WaveConfig(0.004).wavelength) == pytest.approx(0.4)
        lam = WaveConfig.from_carrier(338e9).wavelength
        assert far_field_boundary_re(tiles, lam) == pytest.approx(1.8, abs=0.01)

    def test_element_boundary_vanishes_with_tile_size(self):
        tiny = IrsLayout(15, 15, 0.02, 0.02, 1e-9, 1e-9)
        assert far_field_boundary_re(tiny, 0.004) < 1e-12

    def test_surface_boundary_reference_points(self):
        # 0.4 m square aperture: 19 tiles of 0.02 m at 0.38/18 m pitch
        aperture_04 = IrsLayout(19, 19, 0.38 / 18, 0.38 / 18, 0.02, 0.02)
        assert aperture_04.total_len_x == pytest.approx(0.4)
        lam75 = WaveConfig.from_carrier(75e9).wavelength
        assert far_field_boundary_irs(aperture_04, lam75) == pytest.approx(160.0, rel=0.01)
        lam338 = WaveConfig.from_carrier(338e9).wavelength
        assert far_field_boundary_irs(aperture_04, lam338) == pytest.approx(721.0, abs=1.0)

        aperture_03 = IrsLayout(15, 15, 0.28 / 14, 0.28 / 14, 0.02, 0.02)
        assert aperture_03.total_len_x == pytest.approx(0.3)
        lam140 = WaveConfig.from_carrier(140e9).wavelength
        assert far_field_boundary_irs(aperture_03, lam140) == pytest.approx(168.1, abs=0.5)

    def test_boundaries_scale_inversely_with_wavelength(self):
        tiles = square_tiles(9, 0.03)
        assert far_field_boundary_re(tiles, 0.002) == pytest.approx(
            2.0 * far_field_boundary_re(tiles, 0.004)
        )
        assert far_field_boundary_irs(tiles, 0.002) == pytest.approx(
            2.0 * far_field_boundary_irs(tiles, 0.004)
        )


class TestSincRatio:
    def test_matches_sine_over_argument(self):
        for x in (0.3, -1.7, 2.0, math.pi / 2):
            assert sinc_ratio(x) == pytest.approx(math.sin(x) / x, rel=1e-14)

    def test_series_branch_is_continuous_at_cutoff(self):
        lo, hi = 0.999e-8, 1.001e-8
        assert abs(sinc_ratio(lo) - sinc_ratio(hi)) < 1e-15
        assert sinc_ratio(0.0) == 1.0

    def test_zeros_at_nonzero_multiples_of_pi(self):
        assert abs(sinc_ratio(math.pi)) < 1e-15
        assert abs(sinc_ratio(-2 * math.pi)) < 1e-15

    def test_array_input_returns_array(self):
        out = sinc_ratio(np.array([0.0, math.pi / 2, math.pi]))
        assert out.shape == (3,)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(2.0 / math.pi)


class TestPolarizationFactor:
    @given(pol=st.floats(0.0, 2 * math.pi))
    def test_normal_in_normal_out_gives_unity(self, pol):
        assert tilde_g(NORMAL, NORMAL_OUT, pol) == pytest.approx(1.0, abs=1e-12)

    def test_full_turn_of_reflect_azimuth_changes_nothing(self):
        inc = (0.7, 1.1)
        a = tilde_g(inc, (0.4, 0.9), 1.0)
        b = tilde_g(inc, (0.4, 0.9 + 2 * math.pi), 1.0)
        assert a == pytest.approx(b, rel=1e-14)

    @given(
        d_in=st.floats(0.0, math.pi / 2 - 1e-3),
        a_in=st.floats(0.0, 2 * math.pi),
        d_out=st.floats(0.0, math.pi / 2 - 1e-3),
        a_out=st.floats(0.0, 2 * math.pi),
        pol=st.floats(0.0, 2 * math.pi),
    )
    def test_bounded_by_sqrt_two(self, d_in, a_in, d_out, a_out, pol):
        value = tilde_g((d_in, a_in), (d_out, a_out), pol)
        assert 0.0 <= value <= math.sqrt(2.0) + 1e-12

    def test_mild_variation_across_the_surface_near_crossover(self):
        # direction-dependence of the polarization factor stays within 10%
        # of the central value for the 2.5 m, 140 GHz reference geometry
        wave = WaveConfig.from_carrier(140e9)
        layout = square_tiles(15, 0.02)
        tx = ArrayPose(5, 0.01, 2.5, 3 * math.pi / 2, math.pi / 4)
        rx = ArrayPose(5, 0.01, 2.5, math.pi / 2, math.pi / 6)
        pol = ReflectionConfig().polarization
        # row 2 of each 5-antenna array is its center antenna
        d_in, a_in = (d[2] for d in link_directions(layout, tx))
        d_out, a_out = (d[2] for d in link_directions(layout, rx))
        center = tilde_g(
            (tx.elevation, tx.azimuth),
            (rx.elevation, rx.azimuth),
            pol,
        )
        values = [
            tilde_g((di, ai), (do, ao), pol)
            for di, ai, do, ao in zip(d_in, a_in, d_out, a_out)
        ]
        assert max(abs(v - center) / center for v in values) < 0.1
        assert wave.wavelength == pytest.approx(0.00214, abs=1e-5)


class TestElementResponse:
    WAVE = WaveConfig(0.005)
    CFG = ReflectionConfig(amplitude=0.9, polarization=math.pi / 3)
    TILES = square_tiles(11, 0.05)

    def test_matched_directions_hit_the_peak_value(self):
        inc = (0.5, 1.2)
        out = (0.3, -0.4)
        got = re_response_amplitude(self.WAVE, self.CFG, self.TILES, inc, out, inc, out)
        prefactor = math.sqrt(4 * math.pi) * 0.9 * 0.05 * 0.05 / 0.005
        assert got == pytest.approx(prefactor * tilde_g(inc, out, math.pi / 3), rel=1e-12)

    def test_detuned_by_one_grating_period_gives_zero(self):
        # sin(d_in) = lambda / L_x puts the first sinc factor exactly on a zero
        inc = (math.asin(0.005 / 0.05), 0.0)
        got = re_response_amplitude(
            self.WAVE, self.CFG, self.TILES, inc, NORMAL_OUT, NORMAL, NORMAL_OUT
        )
        assert abs(got) < 1e-12

    @given(
        d_in=st.floats(0.0, 1.2),
        a_in=st.floats(0.0, 2 * math.pi),
        d_out=st.floats(0.0, 1.2),
        a_out=st.floats(0.0, 2 * math.pi),
    )
    def test_never_exceeds_the_matched_response(self, d_in, a_in, d_out, a_out):
        inc = (d_in, a_in)
        out = (d_out, a_out)
        prog_inc = (0.4, 0.1)
        prog_out = (0.2, 2.5)
        detuned = re_response_amplitude(
            self.WAVE, self.CFG, self.TILES, inc, out, prog_inc, prog_out
        )
        matched = re_response_amplitude(self.WAVE, self.CFG, self.TILES, inc, out, inc, out)
        assert abs(detuned) <= abs(matched) + 1e-12


class TestCommonGain:
    def test_plugin_value_with_unit_everything(self):
        lam = 0.005
        wave = WaveConfig(lam)
        layout = IrsLayout(3, 3, lam, lam, lam, lam)
        overhead = ArrayPose(1, 0.01, 1.0, 0.0, 0.0)
        got = eta0(wave, ReflectionConfig(amplitude=1.0), layout, overhead, overhead)
        assert got == pytest.approx(lam**2 / (4 * math.pi), rel=1e-12)

    def test_matches_per_hop_loss_composition(self, rng):
        for _ in range(20):
            wave = WaveConfig(float(rng.uniform(0.002, 0.01)), float(rng.uniform(0.0, 0.05)))
            cfg = ReflectionConfig(float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 2 * math.pi)))
            tile = float(rng.uniform(0.02, 0.08))
            layout = square_tiles(5, tile)
            tx = ArrayPose(3, 0.05, float(rng.uniform(2.0, 20.0)), float(rng.uniform(0.0, 2 * math.pi)), float(rng.uniform(0.0, 1.4)))
            rx = ArrayPose(3, 0.05, float(rng.uniform(2.0, 20.0)), float(rng.uniform(0.0, 2 * math.pi)), float(rng.uniform(0.0, 1.4)))
            inc = (tx.elevation, tx.azimuth)
            out = (rx.elevation, rx.azimuth)
            g0 = re_response_amplitude(wave, cfg, layout, inc, out, inc, out)
            composed = math.sqrt(
                4.0 * math.pi * g0**2 / wave.wavelength**2
                * path_loss(wave, tx.distance)
                * path_loss(wave, rx.distance)
            )
            assert eta0(wave, cfg, layout, tx, rx) == pytest.approx(composed, rel=1e-12)

    @pytest.mark.parametrize("d_t, d_r", [(1e-200, 1e-200), (1e-300, 1.0), (1e-320, 30.0)])
    def test_too_small_distances_are_refused(self, d_t, d_r):
        layout = square_tiles(5, 0.04)
        tx, rx = ArrayPose(3, 0.05, d_t, 1.0, 0.7), ArrayPose(3, 0.05, d_r, 2.0, 0.4)
        with pytest.raises(ValueError, match="are too small"):
            eta0(WaveConfig(0.005), ReflectionConfig(), layout, tx, rx)

    def test_guard_keeps_the_gain_expression(self, rng):
        # the guard tests before dividing, so every accepted pair keeps the
        # bits of the one unguarded expression
        wave, cfg = WaveConfig(0.005, 0.01), ReflectionConfig(0.8, 0.3)
        layout = square_tiles(5, 0.04)
        for d_t, d_r in [(1e-70, 1e-70), (1e-3, 2e-3)] + rng.uniform(0.1, 60.0, (50, 2)).tolist():
            tx, rx = ArrayPose(3, 0.05, d_t, 1.0, 0.7), ArrayPose(3, 0.05, d_r, 2.0, 0.4)
            g0 = tilde_g((tx.elevation, tx.azimuth), (rx.elevation, rx.azimuth), cfg.polarization)
            spread = (cfg.amplitude * layout.re_len_x * layout.re_len_y) / (
                4.0 * math.pi * tx.distance * rx.distance
            )
            damp = math.exp(-wave.absorption * (tx.distance + rx.distance) / 2.0)
            assert eta0(wave, cfg, layout, tx, rx) == spread * g0 * damp

    def test_batched_gains_keep_the_per_pair_expression(self, rng):
        # the per-pair gain as eta0 formed it before the batch, in Python
        # floats with libm's exp; the batch must keep its bits everywhere,
        # next to the overflow edge and with absorption too
        cfg = ReflectionConfig(0.8, 0.3)
        layout = square_tiles(5, 0.04)
        tx, rx = ArrayPose(3, 0.05, 5.0, 1.0, 0.7), ArrayPose(3, 0.05, 8.0, 2.0, 0.4)
        g0 = tilde_g((tx.elevation, tx.azimuth), (rx.elevation, rx.azimuth), cfg.polarization)
        area = cfg.amplitude * layout.re_len_x * layout.re_len_y

        def squared(d_t):
            spread = area / (4.0 * math.pi * d_t * 1.0)
            return spread * spread

        # the smallest D_t at D_r = 1 whose squared gain stays finite
        edge = area / (4.0 * math.pi * math.sqrt(np.finfo(float).max))
        while squared(edge) != math.inf:
            edge = float(np.nextafter(edge, 0.0))
        while squared(edge) == math.inf:
            edge = float(np.nextafter(edge, math.inf))
        near = [edge, float(np.nextafter(edge, math.inf)), 2.0 * edge]
        with pytest.raises(ValueError, match="are too small"):
            cascade_gains(WaveConfig(0.005), cfg, layout, tx, rx, np.nextafter(edge, 0.0), 1.0)
        for absorption in (0.0, 0.01, 3.7):
            wave = WaveConfig(0.005, absorption)
            d_t = np.array(near + rng.uniform(0.05, 80.0, 40).tolist())
            d_r = np.array([1.0] * len(near) + rng.uniform(0.05, 80.0, 40).tolist())

            def per_pair(dt, dr):
                den = 4.0 * math.pi * dt * dr
                damp = math.exp(-wave.absorption * (dt + dr) / 2.0)
                return area / den * g0 * damp

            want = [per_pair(dt, dr) for dt, dr in zip(d_t.tolist(), d_r.tolist())]
            got = cascade_gains(wave, cfg, layout, tx, rx, d_t, d_r)
            assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
            outer = cascade_gains(wave, cfg, layout, tx, rx, d_t[:, None], d_r[:7])
            assert outer.shape == (len(d_t), 7)
            assert outer[5, 3] == per_pair(d_t[5], d_r[3])
            one = eta0(wave, cfg, layout, replace(tx, distance=edge), replace(rx, distance=1.0))
            assert one == want[0]

    def test_batch_refuses_its_first_overflowing_pair(self):
        layout = square_tiles(5, 0.04)
        tx, rx = ArrayPose(3, 0.05, 5.0, 1.0, 0.7), ArrayPose(3, 0.05, 8.0, 2.0, 0.4)
        args = (WaveConfig(0.005), ReflectionConfig(), layout, tx, rx)
        with pytest.raises(ValueError, match=r"D_t = 3 m and D_r = 0 m are too small"):
            cascade_gains(*args, [1.0, 3.0, 1e-300], [2.0, 0.0, 1e-300])
        with pytest.raises(ValueError, match=r"D_t = 1e-300 m and D_r = 1e-08 m are too small"):
            cascade_gains(*args, np.array([[2.0], [1e-300]]), [1e-8, 1.0])

    def test_doubling_both_distances_quarters_the_gain(self):
        wave = WaveConfig(0.005)
        layout = square_tiles(5, 0.04)
        near_t = ArrayPose(3, 0.05, 5.0, 1.0, 0.7)
        near_r = ArrayPose(3, 0.05, 8.0, 2.0, 0.4)
        far_t = ArrayPose(3, 0.05, 10.0, 1.0, 0.7)
        far_r = ArrayPose(3, 0.05, 16.0, 2.0, 0.4)
        cfg = ReflectionConfig()
        near = eta0(wave, cfg, layout, near_t, near_r)
        far = eta0(wave, cfg, layout, far_t, far_r)
        assert far == pytest.approx(near / 4.0, rel=1e-12)

    def test_decreasing_in_absorption(self):
        layout = square_tiles(5, 0.04)
        tx = ArrayPose(3, 0.05, 5.0, 1.0, 0.7)
        rx = ArrayPose(3, 0.05, 8.0, 2.0, 0.4)
        gains = [
            eta0(WaveConfig(0.005, k), ReflectionConfig(), layout, tx, rx)
            for k in (0.0, 0.01, 0.05)
        ]
        assert gains[0] > gains[1] > gains[2]


class TestResponseFlatness:
    def variation_at(self, distance):
        wave = WaveConfig.from_carrier(140e9)
        layout = square_tiles(15, 0.02)
        tx = ArrayPose(5, 0.01, distance, 3 * math.pi / 2, math.pi / 4)
        rx = ArrayPose(5, 0.01, distance, math.pi / 2, math.pi / 6)
        return amplitude_variation(wave, ReflectionConfig(), layout, tx, rx)

    def test_crossing_of_ten_percent_sits_near_the_reference_distance(self):
        # the worst-case deviation falls below 0.1 somewhere in (2.3, 2.5),
        # i.e. within the documented 2.5 +/- 0.2 window
        assert self.variation_at(2.5) < 0.1
        assert self.variation_at(2.3) > 0.1

    def test_flattens_out_with_distance(self):
        assert self.variation_at(8.0) < self.variation_at(4.0) < self.variation_at(2.0)
