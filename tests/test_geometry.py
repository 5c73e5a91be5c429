"""Array/surface geometry: frames, positions, and hop phases against exact distances."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from irsmimo.channel import propagation_phases
from irsmimo.checks import golden_scenario
from irsmimo.geometry import (
    ArrayPose,
    IrsLayout,
    antenna_local_components,
    antenna_position,
    centered_indices,
    check_centered,
    local_frame,
    re_local_components,
)
from oracles import exact_phases, random_scenario


def pose_at(omega, phi, gamma=0.0, psi=math.pi / 2, distance=10.0, spacing=0.1, n=5):
    return ArrayPose(
        n_antennas=n,
        spacing=spacing,
        distance=distance,
        azimuth=omega,
        elevation=phi,
        orient_azimuth=gamma,
        orient_elevation=psi,
    )


class TestIndexing:
    def test_centered_indices_are_symmetric(self):
        assert centered_indices(5).tolist() == [-2, -1, 0, 1, 2]
        assert centered_indices(1).tolist() == [0]

    def test_check_centered_rejects_out_of_range(self):
        check_centered(2, 5, "antenna")
        with pytest.raises(IndexError):
            check_centered(3, 5, "antenna")
        with pytest.raises(IndexError):
            check_centered(-3, 5, "antenna")

    def test_even_counts_rejected(self):
        with pytest.raises(ValueError):
            pose_at(0.0, 0.0, n=4)
        with pytest.raises(ValueError):
            IrsLayout(4, 5, 0.1, 0.1, 0.1, 0.1)


class TestFrames:
    @given(
        omega=st.floats(0.0, 2 * math.pi, exclude_max=True),
        phi=st.floats(1e-6, math.pi / 2),
    )
    def test_frame_is_orthonormal_and_right_handed(self, omega, phi):
        n_x, n_y, n_z = local_frame(pose_at(omega, phi))
        basis = np.stack([n_x, n_y, n_z])
        assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)
        assert np.allclose(np.cross(n_x, n_y), n_z, atol=1e-12)

    def test_zenith_direction_uses_fixed_frame(self):
        # when the array sits on the z axis the azimuth is meaningless; the
        # frame snaps to a fixed convention instead of following omega
        for omega in (0.0, 1.0, 5.0):
            n_x, n_y, n_z = local_frame(pose_at(omega, 0.0))
            assert np.allclose(n_y, [0.0, -1.0, 0.0])
            assert np.allclose(n_z, [0.0, 0.0, 1.0])
            assert np.allclose(n_x, np.cross(n_y, n_z))

    def test_quarter_turn_frame(self):
        n_x, n_y, n_z = local_frame(pose_at(math.pi / 2, math.pi / 2))
        assert np.allclose(n_z, [0.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(n_y, [0.0, 0.0, -1.0], atol=1e-15)
        assert np.allclose(n_x, [1.0, 0.0, 0.0], atol=1e-15)

    def test_antenna_position_matches_rotation_composition(self):
        # independent oracle: canonical frame rotated by R_z(omega) R_y(phi)
        omega, phi = 7 * math.pi / 6, math.pi / 6
        pose = pose_at(omega, phi, gamma=0.0, psi=math.pi / 2, distance=10.0, spacing=0.1)
        cw, sw = math.cos(omega), math.sin(omega)
        cp, sp = math.cos(phi), math.sin(phi)
        r_z = np.array([[cw, -sw, 0], [sw, cw, 0], [0, 0, 1]])
        r_y = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        rot = r_z @ r_y
        n_x = -rot @ np.array([0.0, 1.0, 0.0])
        n_y = rot @ np.array([1.0, 0.0, 0.0])
        n_z = rot @ np.array([0.0, 0.0, 1.0])
        p = 2
        u1, u2, u3 = antenna_local_components(pose, p)
        want = u1 * n_x + u2 * n_y + u3 * n_z
        got = antenna_position(pose, p)
        assert np.allclose(got, want, atol=1e-12)


class TestPositions:
    def test_element_positions_live_in_the_surface_plane(self):
        # element (k, l) sits at (k s_x, l s_y, 0); the grid holds x and y
        x, y = golden_scenario().irs.element_grid
        row = (1 + 7) * 15 + (-1 + 7)
        assert (x[row], y[row]) == pytest.approx((0.1, -0.1))

    def test_row_major_order_is_k_slow_l_fast(self):
        layout = IrsLayout(3, 5, 0.2, 0.1, 0.1, 0.1)
        pose = pose_at(0.3, 0.4)
        v1, v2, v3 = re_local_components(layout, pose)
        n_x, n_y, _ = local_frame(pose)
        idx = 0
        for k in (-1, 0, 1):
            for ell in (-2, -1, 0, 1, 2):
                want = k * 0.2 * n_x[0] + ell * 0.1 * n_x[1]
                assert v1[idx] == pytest.approx(want, abs=1e-15)
                want2 = k * 0.2 * n_y[0] + ell * 0.1 * n_y[1]
                assert v2[idx] == pytest.approx(want2, abs=1e-15)
                idx += 1
        assert v3.shape == (15,)

    def test_element_grid_is_built_once_per_layout_and_read_only(self):
        layout = IrsLayout(3, 5, 0.2, 0.1, 0.1, 0.1)
        x, y = layout.element_grid
        assert layout.element_grid[0] is x
        want = [(k * 0.2, ell * 0.1) for k in (-1, 0, 1) for ell in range(-2, 3)]
        assert np.array_equal(np.stack([x, y], axis=1), np.array(want))
        with pytest.raises(ValueError):
            x[0] = 1.0
        # the cached grid takes no part in equality or hashing
        twin = IrsLayout(3, 5, 0.2, 0.1, 0.1, 0.1)
        assert twin == layout and hash(twin) == hash(layout)


class TestDistances:
    # propagation_phases expands each element-to-antenna distance d to
    # second order; exact_phases takes d from the positions themselves

    def test_expansion_close_to_exact_at_range(self):
        layout = IrsLayout(15, 15, 0.01, 0.01, 0.01, 0.01)
        pose = pose_at(1.0, 0.7, gamma=0.5, psi=1.2, distance=25.0, spacing=0.01)
        scn = replace(golden_scenario(), tx=pose, irs=layout)
        error = propagation_phases(scn.wave, layout, pose) - exact_phases(scn, pose)
        assert np.max(np.abs(error)) * scn.wave.wavelength / (2 * math.pi) < 1e-6

    def test_axis_half_turn_relabels_antennas(self, rng):
        # reversing the array axis (gamma + pi, pi - psi) while negating the
        # antenna index describes the identical physical point, so the
        # phases with their antenna columns reversed must not move
        for _ in range(25):
            scn = random_scenario(rng)
            pose = scn.tx
            flipped = replace(
                pose,
                orient_azimuth=(pose.orient_azimuth + math.pi) % (2 * math.pi),
                orient_elevation=math.pi - pose.orient_elevation,
            )
            phases = propagation_phases(scn.wave, scn.irs, pose)
            turned = propagation_phases(scn.wave, scn.irs, flipped)[:, ::-1]
            assert np.max(np.abs(turned - phases)) <= 1e-12 * np.max(np.abs(phases))

    def test_index_negation_flips_only_the_axial_term(self, rng):
        # negating every index flips the sign of each transverse offset, so
        # the quadratic part of the expansion is even; the phases change
        # only through the linear along-boresight term k0 (r_p cos psi - v3)
        for _ in range(25):
            scn = random_scenario(rng)
            pose = scn.tx
            phases = propagation_phases(scn.wave, scn.irs, pose)
            v3 = re_local_components(scn.irs, pose)[2]
            r = centered_indices(pose.n_antennas) * pose.spacing
            k0 = 2 * math.pi / scn.wave.wavelength
            axial = 2 * k0 * (r * math.cos(pose.orient_elevation) - v3[:, None])
            odd = phases - phases[::-1, ::-1]
            assert np.max(np.abs(odd - axial)) <= 1e-12 * np.max(np.abs(phases))
