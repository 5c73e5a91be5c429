"""End-to-end command-line tests.

Commands run in-process through main(argv) for speed.  One test runs the
entry point declared under [project.scripts] in pyproject.toml the way the
generated console-script wrapper does, in a fresh interpreter, to prove the
packaging wiring on a plain checkout; a second runs the `irsmimo` executable
found on PATH and runs only where the package is installed.  File outputs
land in tmp_path, and determinism is asserted on raw bytes.
"""

import argparse
import hashlib
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from irsmimo import channel as chan
from irsmimo import cli
from irsmimo import multiplexing as mux
from irsmimo import optimize as opt
from irsmimo import response
from irsmimo.channel import build_channels, pose_side
from irsmimo.checks import gram_passes, posed_scenario, random_scenario
from irsmimo.cli import main
from irsmimo.geometry import IrsLayout
from irsmimo.multiplexing import (
    check_orthogonality,
    fmr_inner_bound,
    fmr_orientations,
    fmr_probe_orientation,
    region_contains,
)
from irsmimo.optimize import mutual_information
from irsmimo.scenario import parse_scenario, serialize_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
BASELINE = str(SCENARIO_DIR / "cascade_baseline.txt")
SMALL = str(SCENARIO_DIR / "optimize_small.txt")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def read_csv(path_or_text, from_file=True):
    text = Path(path_or_text).read_text() if from_file else path_or_text
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[0].startswith("# scenario=")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return header, rows


# one array at the zenith, each side at four azimuths: the local frame is
# pinned there, so the azimuth must steer nothing
ZENITH_VARIANTS = [
    {f"{side}.elevation_rad": "0", f"{side}.azimuth_rad": repr(az)}
    for side in ("tx", "rx")
    for az in (0.0, 1.0, 3 * math.pi / 2, 4.0)
]


def write_variant(tmp_path, name, replacements, base=BASELINE):
    text = Path(base).read_text()
    for key, value in replacements.items():
        pattern = rf"(?m)^{re.escape(key)} = .*$"
        assert re.search(pattern, text), key
        text = re.sub(pattern, f"{key} = {value}", text)
    target = tmp_path / name
    target.write_text(text)
    return str(target)


class TestRayleighCommand:
    def test_reports_reference_limits(self, capsys):
        code, out, _ = run_cli(capsys, "rayleigh", "--scenario", BASELINE)
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["tx.d_rayleigh_x_m"]) == pytest.approx(27.0416, abs=1e-3)
        assert float(kv["tx.d_rayleigh_y_m"]) == pytest.approx(29.0474, abs=1e-3)
        assert float(kv["rx.d_rayleigh_m"]) > 0.0

    def test_csv_export(self, capsys, tmp_path):
        out_file = tmp_path / "ray.csv"
        code, _, _ = run_cli(capsys, "rayleigh", "--scenario", BASELINE, "--out", str(out_file))
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == ["side", "axis", "rayleigh_m", "applicable"]
        assert len(rows) == 4
        assert {row[0] for row in rows} == {"tx", "rx"}

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rayleigh", "--scenario", "/nonexistent/scn.txt")
        assert code == 1
        assert "error" in err

    def test_invalid_scenario_is_reported_with_its_line(self, capsys, tmp_path):
        bad = write_variant(tmp_path, "bad.txt", {"tx.count": "4"})
        code, _, err = run_cli(capsys, "rayleigh", "--scenario", bad)
        assert code == 1
        assert "scenario error" in err and "odd" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["does-not-exist"]) == 1


class TestChannelCommand:
    def test_matrix_round_trips_exactly(self, capsys, tmp_path):
        out_file = tmp_path / "h.csv"
        code, _, _ = run_cli(capsys, "channel", "--scenario", BASELINE, "--out", str(out_file))
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == ["row", "col", "re", "im"]
        assert len(rows) == 25
        rebuilt = np.zeros((5, 5), dtype=complex)
        for r, c, re_part, im_part in rows:
            rebuilt[int(r), int(c)] = float(re_part) + 1j * float(im_part)
        want = build_channels(parse_scenario(BASELINE)).h
        # 17 significant digits reproduce the doubles bit for bit
        assert np.array_equal(rebuilt, want)

    def test_phase_vector_export(self, capsys, tmp_path):
        out_file = tmp_path / "theta.csv"
        code, _, _ = run_cli(
            capsys, "channel", "--scenario", BASELINE, "--matrix", "theta", "--out", str(out_file)
        )
        assert code == 0
        _, rows = read_csv(out_file)
        assert len(rows) == 225
        mags = [abs(float(r[2]) + 1j * float(r[3])) for r in rows]
        assert mags == pytest.approx([1.0] * 225, rel=1e-12)

    def test_gnuplot_hints_follow_the_csv(self, capsys, tmp_path):
        out_file = tmp_path / "h.csv"
        code, out, _ = run_cli(
            capsys,
            "channel", "--scenario", BASELINE, "--out", str(out_file), "--gnuplot-hints",
        )
        assert code == 0
        assert out.startswith("# gnuplot")
        assert str(out_file) in out


class TestEigensweepCommand:
    def test_flat_spectrum_inside_the_limit(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        for i, replacements in enumerate([{}] + ZENITH_VARIANTS):
            # 27.0416 m is the baseline Tx limit; at the zenith it is 30 m
            code, _, _ = run_cli(
                capsys,
                "eigensweep", "--scenario", write_variant(tmp_path, f"v{i}.txt", replacements),
                "--orient", "auto-x",
                "--start", "5.0", "--stop", "27.0416", "--count", "4",
                "--out", str(out_file),
            )
            assert code == 0
            header, rows = read_csv(out_file)
            assert header == ["d_t", "eig_1", "eig_2", "eig_3", "eig_4", "eig_5"]
            assert len(rows) == 4
            for row in rows:
                eigs = [float(x) for x in row[1:]]
                assert max(eigs) / min(eigs) < 1.0 + 1e-6, replacements

    def test_spectrum_collapses_far_out(self, capsys, tmp_path):
        out_file = tmp_path / "far.csv"
        code, _, _ = run_cli(
            capsys,
            "eigensweep", "--scenario", BASELINE, "--orient", "auto-x",
            "--start", "54.0", "--stop", "54.0", "--count", "1",
            "--out", str(out_file),
        )
        assert code == 0
        _, rows = read_csv(out_file)
        eigs = [float(x) for x in rows[0][1:]]
        assert max(eigs) / min(eigs) > 10.0

    def test_single_antenna_is_always_flat(self, capsys, tmp_path):
        solo = write_variant(tmp_path, "solo.txt", {"tx.count": "1"})
        out_file = tmp_path / "solo.csv"
        code, _, _ = run_cli(
            capsys,
            "eigensweep", "--scenario", solo,
            "--start", "2.0", "--stop", "60.0", "--count", "5",
            "--out", str(out_file),
        )
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == ["d_t", "eig_1"]
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0, rel=1e-9)


def write_scenario(tmp_path, name, scn):
    target = tmp_path / name
    target.write_text(serialize_scenario(scn))
    return str(target)


def tall_scenario_with_mixed_rows():
    """(scn, bound) of the first random_scenario draw of a fixed stream with
    N_r > N_t and a region, whose 7 x 9 grid over the region has a D_t row
    that mixes x, y and probe settings."""
    rng = np.random.default_rng(11)
    while True:
        scn = random_scenario(rng)
        if scn.rx.n_antennas <= scn.tx.n_antennas:
            continue
        try:
            bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        except ValueError:
            continue
        t_max = max(bound.x.d_t_rayleigh, bound.y.d_t_rayleigh)
        r_max = max(bound.x.d_r_rayleigh, bound.y.d_r_rayleigh)
        for d_t in np.linspace(0.1 * t_max, 1.2 * t_max, 7).tolist():
            members = [
                (region_contains(bound, d_t, d_r, "x"), region_contains(bound, d_t, d_r, "y"))
                for d_r in np.linspace(0.1 * r_max, 1.2 * r_max, 9).tolist()
            ]
            kinds = {"x" if in_x else "y" if in_y else "probe" for in_x, in_y in members}
            if len(kinds) == 3:
                return scn, bound


class TestFmrMapCommand:
    def test_sideways_grid_shows_nested_rectangles(self, capsys, tmp_path):
        sideways = write_variant(
            tmp_path, "sideways.txt",
            {"tx.azimuth_rad": f"{3 * math.pi / 2!r}", "rx.azimuth_rad": f"{math.pi / 2!r}"},
        )
        out_file = tmp_path / "map.csv"
        code, _, _ = run_cli(
            capsys,
            "fmr-map", "--scenario", sideways,
            "--dt-start", "3.0", "--dt-stop", "33.0", "--dt-count", "6",
            "--dr-start", "3.0", "--dr-stop", "33.0", "--dr-count", "6",
            "--out", str(out_file),
        )
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == ["d_t", "d_r", "in_region_x", "in_region_y", "gram_pass"]
        assert len(rows) == 36
        scn = parse_scenario(sideways)
        bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        seen_x_only = False
        for d_t, d_r, in_x, in_y, gram in rows:
            d_t, d_r = float(d_t), float(d_r)
            assert in_x == ("1" if region_contains(bound, d_t, d_r, "x") else "0")
            if in_y == "1":
                assert in_x == "1"  # the y region nests inside the x one here
            seen_x_only = seen_x_only or (in_x == "1" and in_y == "0")
            assert gram == ""  # no --verify: empirical column left blank
        assert seen_x_only

    def test_verified_grid_matches_membership(self, capsys, tmp_path):
        out_file = tmp_path / "verified.csv"
        for i, replacements in enumerate([{}] + ZENITH_VARIANTS):
            code, _, _ = run_cli(
                capsys,
                "fmr-map", "--scenario", write_variant(tmp_path, f"v{i}.txt", replacements),
                "--dt-start", "8.0", "--dt-stop", "30.0", "--dt-count", "4",
                "--dr-start", "8.0", "--dr-stop", "30.0", "--dr-count", "4",
                "--verify", "--out", str(out_file),
            )
            assert code == 0
            _, rows = read_csv(out_file)
            in_count = out_count = 0
            for _, _, in_x, in_y, gram in rows:
                if in_x == "1" or in_y == "1":
                    assert gram == "1", replacements
                    in_count += 1
                else:
                    out_count += 1
            assert in_count > 0 and out_count > 0

    def test_more_receivers_than_transmitters_checks_columns(self, capsys, tmp_path):
        # the 5 x 3 cascade cannot have orthogonal rows; its columns must be
        tall = write_variant(tmp_path, "tall.txt", {"rx.count": "5"}, base=SMALL)
        out_file = tmp_path / "tall.csv"
        code, _, _ = run_cli(
            capsys,
            "fmr-map", "--scenario", tall,
            "--dt-start", "2.0", "--dt-stop", "12.0", "--dt-count", "6",
            "--dr-start", "2.0", "--dr-stop", "12.0", "--dr-count", "6",
            "--verify", "--out", str(out_file),
        )
        assert code == 0
        _, rows = read_csv(out_file)
        verdicts = {"in": set(), "out": set()}
        for _, _, in_x, in_y, gram in rows:
            verdicts["in" if "1" in (in_x, in_y) else "out"].add(gram)
        assert verdicts == {"in": {"1"}, "out": {"0"}}

    def test_tiled_verdicts_match_the_per_point_check(self, capsys, tmp_path):
        # grids whose counts leave partial tiles on both axes; every verdict
        # must equal a Gram check of the one posed cascade at that point.
        # The baseline checks rows; the tall draw (N_r > N_t) checks columns
        # and has D_t rows that mix x, y and probe settings
        tall, tall_bound = tall_scenario_with_mixed_rows()
        t_max = max(tall_bound.x.d_t_rayleigh, tall_bound.y.d_t_rayleigh)
        r_max = max(tall_bound.x.d_r_rayleigh, tall_bound.y.d_r_rayleigh)
        cases = [
            (BASELINE, (3.0, 40.0, 6), (2.5, 36.0, 7), "rows"),
            (write_scenario(tmp_path, "tall.txt", tall),
             (0.1 * t_max, 1.2 * t_max, 7), (0.1 * r_max, 1.2 * r_max, 9), "columns"),
        ]
        out_file = tmp_path / "tiled.csv"
        for path, (dt0, dt1, n_dt), (dr0, dr1, n_dr), mode in cases:
            code, _, err = run_cli(
                capsys,
                "fmr-map", "--scenario", path,
                "--dt-start", repr(dt0), "--dt-stop", repr(dt1), "--dt-count", str(n_dt),
                "--dr-start", repr(dr0), "--dr-stop", repr(dr1), "--dr-count", str(n_dr),
                "--verify", "--out", str(out_file),
            )
            assert code == 0, err
            _, rows = read_csv(out_file)
            assert len(rows) == n_dt * n_dr
            scn = parse_scenario(path)
            bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
            kinds = {}
            for d_t, d_r, in_x, in_y, gram in rows:
                d_t, d_r = float(d_t), float(d_r)
                kind = "x" if in_x == "1" else "y" if in_y == "1" else "probe"
                kinds.setdefault(d_t, set()).add(kind)
                if kind == "probe":
                    settings = fmr_probe_orientation(bound, d_t, d_r, "x")
                else:
                    settings = fmr_orientations(bound, d_t, d_r, kind)
                cs = build_channels(posed_scenario(scn, d_t, d_r, settings))
                target = cs.eta0**2 * scn.irs.n_elements**2
                assert gram == ("1" if check_orthogonality(cs.h, mode, target).passed else "0")
            assert {row[4] for row in rows} == {"0", "1"}
        assert {"x", "y", "probe"} in kinds.values()  # of the tall draw, run last

    def test_only_the_spot_points_are_synthesized(self, capsys, monkeypatch):
        # the closed form builds no hop: pose_side runs only for the
        # brute-force spot check, once per side at the first in-region and
        # the first out-of-region point, one pose each
        scn = parse_scenario(BASELINE)
        tx_v1 = chan.link_side(scn.wave.wavelength, scn.irs, scn.tx).v1
        calls = []

        def counted(side, keys):
            is_tx = np.array_equal(side.v1, tx_v1)
            calls.append(("tx" if is_tx else "rx", np.asarray(keys).tolist()))
            return pose_side(side, keys)

        monkeypatch.setattr(chan, "pose_side", counted)
        bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        for (dt0, dt1, n_dt), (dr0, dr1, n_dr) in [
            ((3.0, 40.0, 9), (2.5, 36.0, 10)),
            ((2.1, 32.1, 60), (2.05, 32.05, 60)),
            ((3.0, 6.0, 3), (2.5, 5.0, 4)),  # every point in the region
        ]:
            calls.clear()
            code, _, err = run_cli(
                capsys,
                "fmr-map", "--scenario", BASELINE, "--verify",
                "--dt-start", repr(dt0), "--dt-stop", repr(dt1), "--dt-count", str(n_dt),
                "--dr-start", repr(dr0), "--dr-stop", repr(dr1), "--dr-count", str(n_dr),
            )
            assert code == 0, err
            spots = {}  # in region or not -> keys of the first such point, row-major
            grid = itertools.product(np.linspace(dt0, dt1, n_dt).tolist(),
                                     np.linspace(dr0, dr1, n_dr).tolist())
            for d_t, d_r in grid:
                region = next((r for r in ("x", "y") if region_contains(bound, d_t, d_r, r)), None)
                if (region is not None) in spots:
                    continue
                if region is None:
                    ot, orx = fmr_probe_orientation(bound, d_t, d_r, "x")
                else:
                    ot, orx = fmr_orientations(bound, d_t, d_r, region)
                spots[region is not None] = [
                    ("tx", [[d_t, ot.gamma, ot.psi]]), ("rx", [[d_r, orx.gamma, orx.psi]])
                ]
                if len(spots) == 2:
                    break
            assert len(calls) <= 4
            assert sorted(calls) == sorted(call for pair in spots.values() for call in pair)
        assert len(spots) == 1  # the last grid lies in the region

    def test_one_column_per_distance_and_one_gain_pass_per_map(self, capsys, monkeypatch):
        # a 60 x 60 map solves one region column per (D_t, axis) plus one
        # probe column, and forms g0 once for all its gains
        scn = parse_scenario(BASELINE)
        monkeypatch.setattr(cli, "parse_scenario", lambda path: scn)
        calls = {"_column": 0, "tilde_g": 0}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        count(mux, "_column")
        count(response, "tilde_g")
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", BASELINE, "--verify",
            "--dt-start", "2.1", "--dt-stop", "32.1", "--dt-count", "60",
            "--dr-start", "2.05", "--dr-stop", "32.05", "--dr-count", "60",
        )
        assert code == 0, err
        assert len(out.splitlines()) == 2 + 60 * 60
        assert 0 < calls["_column"] <= 2 * 60 + 1
        assert calls["tilde_g"] == 1

    @pytest.mark.parametrize("spot", ["in", "out"])
    def test_a_wrong_closed_form_at_a_spot_point_refuses_the_map(self, capsys, monkeypatch, spot):
        # one entry of the first in-region (or out-of-region) point is off by
        # 1e-6 relative: below what the Gram check sees, above the 1e-8 bound
        scn = parse_scenario(BASELINE)
        bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        d_t_vals, d_r_vals = np.linspace(3.0, 40.0, 9).tolist(), np.linspace(2.5, 36.0, 10).tolist()
        target = next(
            (d_t, d_r)
            for d_t in d_t_vals
            for d_r in d_r_vals
            if any(region_contains(bound, d_t, d_r, r) for r in ("x", "y")) == (spot == "in")
        )
        real = chan.closed_form_cascades

        def perturbed(scn, poses, gain):
            h = real(scn, poses, gain)
            hit = (poses[:, 0] == target[0]) & (poses[:, 3] == target[1])
            h[hit, 0, 0] *= 1.0 + 1e-6
            return h

        monkeypatch.setattr(chan, "closed_form_cascades", perturbed)
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", BASELINE, "--verify",
            "--dt-start", "3.0", "--dt-stop", "40.0", "--dt-count", "9",
            "--dr-start", "2.5", "--dr-stop", "36.0", "--dr-count", "10",
        )
        assert code == 1
        assert out == ""
        d_t, d_r = ("%.17g" % v for v in target)
        assert err == f"error: closed form and brute force disagree at (D_t={d_t}, D_r={d_r})\n"

    def test_verdicts_match_the_per_point_check_on_random_scenarios(self, capsys, tmp_path):
        # 12 draws with a region, one in three with the Tx and one in three
        # with the Rx at the zenith, on a 5 x 6 grid straddling the regions
        rng = np.random.default_rng(31)
        draws, seen = 0, {"tall": False, "1": False, "0": False}
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
            seen["tall"] = seen["tall"] or scn.rx.n_antennas > scn.tx.n_antennas
            mode = "rows" if scn.rx.n_antennas <= scn.tx.n_antennas else "columns"
            t_max = max(bound.x.d_t_rayleigh, bound.y.d_t_rayleigh)
            r_max = max(bound.x.d_r_rayleigh, bound.y.d_r_rayleigh)
            code, out, err = run_cli(
                capsys,
                "fmr-map", "--scenario", write_scenario(tmp_path, f"d{draws}.txt", scn),
                "--dt-start", repr(0.1 * t_max), "--dt-stop", repr(1.2 * t_max), "--dt-count", "5",
                "--dr-start", repr(0.1 * r_max), "--dr-stop", repr(1.2 * r_max), "--dr-count", "6",
                "--verify",
            )
            assert code == 0, err
            _, rows = read_csv(out, from_file=False)
            for d_t, d_r, in_x, in_y, gram in rows:
                d_t, d_r = float(d_t), float(d_r)
                region = "x" if in_x == "1" else "y" if in_y == "1" else None
                if region is None:
                    settings = fmr_probe_orientation(bound, d_t, d_r, "x")
                else:
                    settings = fmr_orientations(bound, d_t, d_r, region)
                cs = build_channels(posed_scenario(scn, d_t, d_r, settings))
                target = cs.eta0**2 * scn.irs.n_elements**2
                assert gram == ("1" if check_orthogonality(cs.h, mode, target).passed else "0")
                seen[gram] = True
        assert all(seen.values())

    def test_holographic_surface_matches_brute_force(self, capsys, tmp_path):
        # the baseline with a 201 x 201 surface at half-wavelength pitch
        # (Q = 40401), built here rather than shipped: the tests brute-force
        # every file under scenarios/
        scn = parse_scenario(BASELINE)
        pitch = scn.wave.wavelength / 2
        holo = replace(scn, irs=IrsLayout(201, 201, pitch, pitch, pitch, pitch))
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", write_scenario(tmp_path, "holo.txt", holo),
            "--dt-start", "1.0", "--dt-stop", "16.0", "--dt-count", "6",
            "--dr-start", "1.0", "--dr-stop", "16.0", "--dr-count", "6",
            "--verify",
        )
        assert code == 0, err
        _, rows = read_csv(out, from_file=False)
        bound = fmr_inner_bound(holo.tx, holo.rx, holo.irs, holo.wave)
        checked = {"in": 0, "out": 0}
        for d_t, d_r, in_x, in_y, gram in rows[::7]:  # a diagonal of the grid
            d_t, d_r = float(d_t), float(d_r)
            region = "x" if in_x == "1" else "y" if in_y == "1" else None
            if region is None:
                settings = fmr_probe_orientation(bound, d_t, d_r, "x")
            else:
                settings = fmr_orientations(bound, d_t, d_r, region)
            assert gram == ("1" if gram_passes(holo, d_t, d_r, settings) else "0")
            checked["out" if region is None else "in"] += 1
        assert sum(checked.values()) >= 4 and min(checked.values()) >= 1

    @pytest.mark.parametrize("verify", [True, False], ids=["verify", "plain"])
    def test_nonpositive_swept_distances_are_refused(self, capsys, verify):
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", BASELINE,
            "--dt-start", "-3", "--dt-stop", "10", "--dt-count", "4",
            "--dr-start", "-1", "--dr-stop", "5", "--dr-count", "3",
            *["--verify"] * verify,
        )
        assert code == 1
        assert out == ""
        assert err == "error: distances must be positive\n"

    def test_a_spot_check_past_double_precision_refuses_the_map(self, capsys, tmp_path):
        # at lambda = 1e-9 m and 5 m Tx spacing the in-region point (2, 2) m
        # has a Tx antenna phase of 6.3e10 rad, whose ulp is 7.6e-6 rad: the
        # closed form and brute force differ by 4.2e-6 of the largest entry,
        # and no double-precision evaluation can meet the 1e-8 bound there
        fine = write_variant(
            tmp_path, "fine.txt", {"wave.wavelength_m": "1e-9", "tx.spacing_m": "5.0"}
        )
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", fine, "--verify",
            "--dt-start", "2", "--dt-stop", "20", "--dt-count", "4",
            "--dr-start", "2", "--dr-stop", "20", "--dr-count", "4",
        )
        assert code == 1
        assert out == ""
        assert err == "error: closed form and brute force disagree at (D_t=2, D_r=2)\n"

    def test_nonpositive_distances_are_rejected(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", BASELINE, "--verify",
            "--dt-start", "-40", "--dt-stop", "10", "--dt-count", "2",
            "--dr-start", "5", "--dr-stop", "6", "--dr-count", "2",
        )
        assert code == 1
        assert out == ""
        assert err.strip() == "error: distances must be positive"

    def test_a_single_distance_is_its_start_whatever_the_stop(self, capsys):
        # stop - start overflows here; one value must still be the start
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "fmr-map", "--scenario", BASELINE,
                "--dt-start", "1e308", "--dt-stop=-1e308", "--dt-count", "1",
                "--dr-start", "5", "--dr-stop", "6", "--dr-count", "2",
            )
        assert code == 0, err
        _, rows = read_csv(out, from_file=False)
        assert [row[:2] for row in rows] == [["1e+308", "5"], ["1e+308", "6"]]

    def test_empty_grid_emits_header_only(self, capsys, tmp_path):
        out_file = tmp_path / "empty.csv"
        code, _, _ = run_cli(
            capsys,
            "fmr-map", "--scenario", BASELINE,
            "--dt-start", "1.0", "--dt-stop", "2.0", "--dt-count", "0",
            "--dr-start", "1.0", "--dr-stop", "2.0", "--dr-count", "3",
            "--out", str(out_file),
        )
        assert code == 0
        header, rows = read_csv(out_file)
        assert header == ["d_t", "d_r", "in_region_x", "in_region_y", "gram_pass"]
        assert rows == []

    def test_empty_verified_grid_prints_only_the_header(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", BASELINE, "--verify",
            "--dt-start", "1.0", "--dt-stop", "2.0", "--dt-count", "0",
            "--dr-start", "1.0", "--dr-stop", "2.0", "--dr-count", "3",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("# scenario=")
        assert lines[1] == "d_t,d_r,in_region_x,in_region_y,gram_pass"


class TestFmrOrientCommand:
    def test_interior_point_reports_couplings(self, capsys):
        code, out, _ = run_cli(
            capsys, "fmr-orient", "--scenario", BASELINE, "--dt", "20.0", "--dr", "20.0"
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["region"] == "x"
        assert kv["branch"] == "x-rect"
        assert abs(float(kv["coupling.c_tx"])) == pytest.approx(1.0, abs=1e-9)
        assert abs(float(kv["coupling.c_rx"])) == pytest.approx(1.0, abs=1e-9)

    def test_stdout_and_csv_agree(self, capsys, tmp_path):
        out_file = tmp_path / "orient.csv"
        code, out, _ = run_cli(
            capsys,
            "fmr-orient", "--scenario", BASELINE,
            "--dt", "26.0", "--dr", "10.0", "--region", "x",
            "--out", str(out_file),
        )
        assert code == 0
        kv = parse_kv(out)
        assert kv["branch"] == "x-lobe"
        header, rows = read_csv(out_file)
        assert header == ["d_t", "d_r", "region", "gamma_t", "psi_t", "gamma_r", "psi_r"]
        assert rows[0][3] == kv["tx.orient_azimuth_rad"]
        assert rows[0][6] == kv["rx.orient_elevation_rad"]

    def test_outside_point_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "fmr-orient", "--scenario", BASELINE, "--dt", "50.0", "--dr", "50.0"
        )
        assert code == 1
        assert "outside both regions" in err

    def test_infeasible_explicit_region(self, capsys):
        code, _, err = run_cli(
            capsys,
            "fmr-orient", "--scenario", BASELINE,
            "--dt", "20.0", "--dr", "40.0", "--region", "x",
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "dt, dr, region",
        [
            pytest.param("20", "nan", "x", id="20-nan"),
            pytest.param("nan", "20", "x", id="nan-20"),
            # the default region refuses a zero or NaN distance as x does
            pytest.param("0", "5", "auto", id="0-5-auto"),
            pytest.param("20", "nan", "auto", id="20-nan-auto"),
            pytest.param("nan", "20", "auto", id="nan-20-auto"),
        ],
    )
    def test_nan_distance_is_refused(self, capsys, dt, dr, region):
        code, out, err = run_cli(
            capsys,
            "fmr-orient", "--scenario", BASELINE, "--dt", dt, "--dr", dr, "--region", region,
        )
        assert code == 1
        assert out == ""
        assert err.strip() == "error: distances must be positive"


class TestOptimizeCommand:
    FAST = ("--max-rounds", "1", "--max-orient-iters", "5")

    def test_zero_seeds_scores_the_declared_focusing(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "optimize", "--scenario", SMALL, "--seeds", "0", "--out", str(out_file)
        )
        assert code == 0
        match = re.search(r"seed=none mi_bits=(\S+) upper_bound_bits=(\S+)", out)
        assert match
        scn = parse_scenario(SMALL)
        want = mutual_information(build_channels(scn).h, scn.power)
        assert float(match.group(1)) == want  # 17-digit round trip is exact
        assert float(match.group(2)) >= float(match.group(1)) - 1e-9
        _, rows = read_csv(out_file)
        assert rows == [["0", "init", "%.17g" % want]]

    def test_portfolio_beats_plain_focusing(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys,
            "optimize", "--scenario", SMALL, "--seeds", "1", "--seed", "3",
            *self.FAST, "--out", str(out_file),
        )
        assert code == 0
        labels = re.findall(r"^seed=(\S+) mi_bits=(\S+) upper_bound_bits=(\S+) gap_bits=(\S+)$",
                            out, re.M)
        assert [lab for lab, *_ in labels] == ["focus", "3"]
        for _, mi, ub, gap in labels:
            assert float(gap) >= -1e-9
            assert float(ub) >= float(mi) - 1e-9
        scn = parse_scenario(SMALL)
        focus_mi = mutual_information(build_channels(scn).h, scn.power)
        best = float(re.search(r"best_seed=\S+ mi_bits=(\S+)", out).group(1))
        assert best >= focus_mi - 1e-9
        _, rows = read_csv(out_file)
        mis = [float(row[2]) for row in rows]
        assert all(b >= a - 1e-9 for a, b in zip(mis, mis[1:]))

    def test_more_receivers_than_transmitters(self, capsys, tmp_path):
        tall = write_variant(tmp_path, "tall.txt", {"rx.count": "5"}, base=SMALL)
        code, out, _ = run_cli(
            capsys, "optimize", "--scenario", tall, "--seeds", "1", "--seed", "3", *self.FAST
        )
        assert code == 0
        labels = re.findall(r"^seed=(\S+) mi_bits=(\S+) upper_bound_bits=(\S+)", out, re.M)
        assert [lab for lab, *_ in labels] == ["focus", "3"]
        for _, mi, ub in labels:
            assert float(ub) >= float(mi) - 1e-9

    def test_runs_are_byte_reproducible(self, capsys, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out_file = tmp_path / f"{tag}.csv"
            code, _, _ = run_cli(
                capsys,
                "optimize", "--scenario", SMALL, "--seeds", "2", "--seed", "11",
                *self.FAST, "--out", str(out_file),
            )
            assert code == 0
            blobs.append(out_file.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "option, value", [("--phase-solver", "mm"), ("--eps-mm", "1e-6"), ("--max-inner", "5")]
    )
    def test_the_mm_options_are_gone(self, capsys, option, value):
        # the joint optimizer has one phase block; the paper's MM loop is the
        # phase-only optimize_theta, which verify's phase_solvers check runs
        code, out, err = run_cli(capsys, "optimize", "--scenario", SMALL, option, value)
        assert (code, out) == (1, "")
        assert err.startswith("usage: irsmimo")
        assert f"unrecognized arguments: {option} {value}" in err

    def test_the_max_outer_option_is_gone(self, capsys):
        # every round of the joint optimizer runs one sweep, so there is no
        # count of sweeps to cap
        code, out, err = run_cli(capsys, "optimize", "--scenario", SMALL, "--max-outer", "5")
        assert (code, out) == (1, "")
        assert err.startswith("usage: irsmimo")
        assert "unrecognized arguments: --max-outer 5" in err

    def test_overlay_without_a_run_is_refused(self, capsys, tmp_path):
        overlay = tmp_path / "converged.txt"
        code, out, err = run_cli(
            capsys, "optimize", "--scenario", SMALL, "--seeds", "0", "--overlay", str(overlay)
        )
        assert code == 1
        assert out == ""
        assert "--overlay" in err
        assert not overlay.exists()

    def test_overlay_reproduces_the_reported_mi(self, capsys, tmp_path):
        out_file = tmp_path / "trace.csv"
        overlay = tmp_path / "converged.txt"
        code, out, _ = run_cli(
            capsys,
            "optimize", "--scenario", SMALL, "--seeds", "1", "--seed", "5",
            *self.FAST, "--out", str(out_file), "--overlay", str(overlay),
        )
        assert code == 0
        reported = float(re.search(r"best_seed=\S+ mi_bits=(\S+)", out).group(1))
        scn = parse_scenario(str(overlay))
        assert scn.focusing_mode == "explicit"
        assert len(scn.focusing_betas) == scn.irs.n_elements
        replayed = mutual_information(build_channels(scn).h, scn.power)
        assert replayed == pytest.approx(reported, abs=1e-12)
        assert scn.metadata["converged_mi_bits"] == "%.17g" % reported


# variants of optimize_small.txt the parser accepts, each with the verdict
# of the gradient check: at end-fire tilts the MI is stationary in psi, and
# at 1e6 m it is about 1e-16 bits, so both leave central differences that
# are rounding noise
VERIFY_EDGE_VARIANTS = {
    "end-fire": ({"tx.orient_elevation_rad": "0", "rx.orient_elevation_rad": "0"}, "SKIP"),
    "far": ({"tx.distance_m": "1e6", "rx.distance_m": "1e6"}, "SKIP"),
    "both-single": ({"tx.count": "1", "rx.count": "1"}, "PASS"),
    "more-receivers": ({"tx.count": "1", "rx.count": "5"}, "PASS"),
    "zenith": ({"tx.elevation_rad": "0", "rx.elevation_rad": "0"}, "PASS"),
    "tx-flipped": ({"tx.orient_elevation_rad": repr(math.pi)}, "PASS"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_EDGE_VARIANTS))
def test_verify_fails_nothing_on_accepted_edge_variants(capsys, tmp_path, case):
    replacements, gradient = VERIFY_EDGE_VARIANTS[case]
    path = write_variant(tmp_path, "edge.txt", replacements, base=SMALL)
    code, out, _ = run_cli(capsys, "verify", "--scenario", path)
    assert code == 0, out
    assert "FAIL" not in out
    assert f"{gradient} gradient: " in out


class TestVerifyCommand:
    def test_shipped_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()[:-1]] == [
            "PASS closed_form", "PASS gram_fmr", "PASS gradient", "PASS phase_solvers"
        ]
        assert "4/4 checks passed" in out

    @pytest.mark.parametrize("distance", ["1000", "1e5"])
    def test_closed_form_holds_far_from_the_surface(self, capsys, tmp_path, distance):
        # the brute force once carried 2*pi*D/lambda in every entry's phase
        # and failed here (2.1e-8 at 1 km, 1.4e-4 at 100 km)
        far = write_variant(tmp_path, "far.txt", {"rx.distance_m": distance})
        code, out, _ = run_cli(capsys, "verify", "--scenario", far, "--checks", "closed_form")
        assert code == 0, out
        assert "PASS closed_form" in out

    def test_gram_check_reads_the_given_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scenario", SMALL, "--checks", "gram_fmr")
        assert code == 0
        scn = parse_scenario(SMALL)
        bound = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
        d_t = 0.8 * bound.x.d_t_star
        assert d_t == pytest.approx(4.716, abs=1e-3)
        assert f"in-region (D_t={d_t:.3f} m, D_r={0.8 * bound.x.d_r_rayleigh:.3f} m)" in out
        assert "PASS gram_fmr" in out

    def test_gram_check_with_more_receivers_than_transmitters(self, capsys, tmp_path):
        tall = write_variant(tmp_path, "tall.txt", {"rx.count": "5"}, base=SMALL)
        code, out, _ = run_cli(capsys, "verify", "--scenario", tall, "--checks", "gram_fmr")
        assert code == 0
        assert "pass=True, outside" in out and "PASS gram_fmr" in out

    def test_a_check_that_raises_fails_and_the_rest_still_run(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise ValueError("no gradient today")

        monkeypatch.setattr(opt, "mi_gradient", refuse)
        code, out, _ = run_cli(
            capsys, "verify", "--scenario", SMALL, "--checks", "gradient,closed_form"
        )
        assert code == 2
        assert "FAIL gradient: no gradient today" in out
        assert "PASS closed_form" in out
        assert "1/2 checks passed" in out

    def test_a_surface_without_a_region_skips_the_gram_check(self, capsys, tmp_path):
        small_surface = write_variant(tmp_path, "q3.txt", {"irs.count_x": "3", "irs.count_y": "3"})
        code, out, _ = run_cli(capsys, "verify", "--scenario", small_surface)
        assert code == 0, out
        assert "SKIP gram_fmr: no multiplexing region: needs N_t + N_r - 2 < 2*Q_x (8 >= 6)" in out
        assert "FAIL" not in out
        assert "3/3 checks passed, 1 skipped" in out

    def test_focusing_that_is_not_reflective_skips_the_closed_form(self, capsys, tmp_path):
        unfocused = tmp_path / "zero.txt"
        unfocused.write_text(Path(SMALL).read_text() + "focusing = zero\n")
        code, out, _ = run_cli(capsys, "verify", "--scenario", str(unfocused))
        assert code == 0, out
        assert "SKIP closed_form: the closed form needs reflective focusing, not zero" in out
        assert "3/3 checks passed, 1 skipped" in out

    def test_an_orientation_blind_link_passes_the_gradient_check(self, capsys, tmp_path):
        scalar = write_variant(tmp_path, "one.txt", {"tx.count": "1", "rx.count": "1"}, base=SMALL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "verify", "--scenario", scalar, "--checks", "gradient")
        assert code == 0, out
        assert "worst relative gradient error 0.000e+00" in out

    def test_a_wrong_gradient_fails(self, capsys, monkeypatch):
        right = opt.mi_gradient
        monkeypatch.setattr(opt, "mi_gradient", lambda *args, **kwargs: -right(*args, **kwargs))
        code, out, _ = run_cli(capsys, "verify", "--scenario", SMALL)
        assert code == 2
        assert "FAIL gradient" in out
        assert "3/4 checks passed" in out

    def test_a_phase_block_that_lowers_the_mi_fails(self, capsys, monkeypatch):
        # every sweep after the first returns the phases the first one
        # started from, which lowers the MI the ascent after it reached
        right = opt.phase_sweep
        starts = []

        def undoing_sweep(h_t, h_r, theta, eta0, power, *, min_gain):
            starts.append(theta)
            if len(starts) == 1:
                return right(h_t, h_r, theta, eta0, power, min_gain=min_gain)
            return starts[0]

        monkeypatch.setattr(opt, "phase_sweep", undoing_sweep)
        # with the guard against lowering steps off, the round takes that sweep
        monkeypatch.setattr(opt, "_ROUNDING", math.inf)
        code, out, _ = run_cli(capsys, "verify", "--scenario", SMALL)
        assert code == 2
        assert "FAIL phase_solvers: joint" in out
        assert "3/4 checks passed" in out

    def test_a_phase_block_that_takes_no_step_passes(self, capsys, monkeypatch):
        # with every sweep and MM step refused and no trial of the ascent,
        # each trace keeps its start MI: MM stops on its first step, and the
        # joint rounds, which gain 0 >= eps_oa = 0 bits each, run out
        monkeypatch.setattr(opt, "_ROUNDING", -math.inf)
        monkeypatch.setattr(opt, "_BACKTRACKS", 0)
        code, out, _ = run_cli(capsys, "verify", "--scenario", SMALL, "--checks", "phase_solvers")
        assert code == 0, out
        assert "joint 42.7619 -> 42.7619 bits (max_iters), smallest step gain 0.000e+00" in out
        assert "mm 42.7619 -> 42.7619 bits (no_ascent), smallest step gain 0.000e+00" in out

    def test_empty_selection_warns_and_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", "")
        assert code == 0
        assert "PASS (0 checks)" in out
        assert "nothing verified" in err

    def test_unknown_check_name(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--checks", "nope")
        assert code == 1
        assert "unknown check" in err

    def test_repeated_check_name(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", "gradient,gradient")
        assert code == 1
        assert out == ""
        assert "error: check 'gradient' given twice" in err

    def test_subset_runs_only_named_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--checks", "closed_form,gram_fmr")
        assert code == 0
        assert "gradient" not in out and "phase_solvers" not in out
        assert "2/2 checks passed" in out

    def test_spaces_around_check_names_are_ignored(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", "closed_form, gram_fmr")
        assert code == 0, err
        assert "PASS gram_fmr" in out
        assert "2/2 checks passed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--tol-off", "1e-3"),
        ("fmr-map", "--scenario", BASELINE, "--dt-start", "2", "--dt-stop", "3", "--dt-count",
         "2", "--dr-start", "2", "--dr-stop", "3", "--dr-count", "2", "--tol-off", "1e-3"),
        ("verify", "--out", "x.csv"),
        ("rayleigh", "--scenario", BASELINE, "--seed", "3"),
        ("fmr-orient", "--scenario", BASELINE, "--dt", "20", "--dr", "20", "--gnuplot-hints"),
        ("eigensweep", "--scenario", BASELINE, "--start", "2", "--stop", "3", "--count", "2",
         "--threads", "2"),
    ],
    ids=["verify-tol-off", "fmr-map-tol-off", "verify-out", "rayleigh-seed",
         "fmr-orient-gnuplot-hints", "eigensweep-threads"],
)
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "option, value",
    [
        pytest.param(option, "-3", id=option)
        for option in (
            "--seed", "--seeds", "--max-orient-iters", "--max-rounds",
        )
    ]
    + [
        pytest.param(option, value, id=f"{option}={value}")
        for option in ("--eps-theta", "--eps-orient", "--eps-oa")
        for value in ("-1", "nan")
    ],
)
def test_negative_counts_are_rejected(capsys, option, value):
    # a negative tolerance never fires on a monotone climb, so it is refused
    # at parse time like a negative count
    code, out, err = run_cli(capsys, "optimize", "--scenario", SMALL, option, value)
    assert code == 1
    assert out == ""
    assert f"argument {option}: must be >= 0" in err


TINY_PAIR = {"tx.distance_m": "1e-200", "rx.distance_m": "1e-200"}


@pytest.mark.parametrize(
    "argv",
    [("channel", "--matrix", "h"), ("channel", "--matrix", "closed"), ("optimize", "--seeds", "0")],
    ids=["channel-h", "channel-closed", "optimize-seeds-0"],
)
def test_too_small_distance_pair_is_a_scenario_error(capsys, tmp_path, argv):
    # 4*pi*D_t*D_r underflows to 0, so the common gain cannot be formed
    path = write_variant(tmp_path, "tiny.txt", TINY_PAIR)
    line = Path(path).read_text().splitlines().index("rx.distance_m = 1e-200") + 1
    code, out, err = run_cli(capsys, argv[0], "--scenario", path, *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith(f"scenario error: line {line}: distances D_t = 1e-200 m")


def test_too_small_swept_distances_are_an_error(capsys):
    code, out, err = run_cli(
        capsys,
        "fmr-map", "--scenario", BASELINE, "--verify",
        "--dt-start", "1e-300", "--dt-stop", "2", "--dt-count", "2",
        "--dr-start", "1e-300", "--dr-stop", "2", "--dr-count", "2",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: distances D_t = 1e-300 m and D_r = 1e-300 m are too small")


def test_too_small_distances_are_refused_before_any_hop(capsys):
    # the gains are formed, and refused, before either side is synthesized,
    # so no overflow in the hop phases is ever computed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            "fmr-map", "--scenario", BASELINE, "--verify",
            "--dt-start", "1e-320", "--dt-stop", "2", "--dt-count", "2",
            "--dr-start", "1e-10", "--dr-stop", "2", "--dr-count", "3",
        )
    assert code == 1
    assert out == ""
    assert err.startswith("error: distances D_t = 9.99989e-321 m and D_r = 1e-10 m are too small")


# SHA-256 of the fmr-map CSV of a seed-shifted 20 x 20 grid on the baseline,
# with and without --verify, as written at commit e2a786049de2 (the per-point
# region solve); the grid solve and the batched gains must keep every byte
SHIFTED_GRID = (
    "--dt-start", "2.224710039281368", "--dt-stop", "32.22471003928137", "--dt-count", "20",
    "--dr-start", "2.71633665959316", "--dr-stop", "32.71633665959316", "--dr-count", "20",
)
SHIFTED_GRID_SHA256 = {
    True: "d0ea790b10a808b276f46330f536bb9af52d730bb22f5eb5cfa863d1efa36555",
    False: "498a7090c3f7bb10e82e4a80e7682eb56de01ddc868fe097f72d6f3ff17513d2",
}


@pytest.mark.parametrize("verify", [True, False], ids=["verify", "plain"])
def test_shifted_grid_csv_is_byte_identical(capsys, verify):
    argv = ["fmr-map", "--scenario", BASELINE, *SHIFTED_GRID] + ["--verify"] * verify
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SHIFTED_GRID_SHA256[verify]


# SHA-256 of the stdout of commands that synthesize hops, pinned when the
# hops became separable in the tilt with the center distance left out of
# their phase; "channel-closed" is the closed form, which has been
# byte-identical since commit 759e47b9fdab.  "optimize-elementwise" runs the
# joint optimizer; it was pinned again when the orientation descent left the
# tilt box for the reduced cascade, again when the phase sweep began to skip
# the elements whose own update would gain less than eps_theta / Q bits, and
# again when each round became one sweep and one joint ascent on the phases
# and the tilts
HOP_OUTPUT_SHA256 = {
    "channel-h": "46a70a555ae8f421afe2f2cde3285d45edc4bac1b9f361f7ed12eecb218b6305",
    "channel-ht": "d8784f923f6c6d7b6a71fbb86e783fe7772ff390678dc2550cb0d2ba6bfdb914",
    "channel-hr": "108fc9ecdb21408ecb7c3a4f1e0ec1d982caee30dbf07203eca8f0740a4de960",
    "channel-theta": "b21f5996ebad0a65e03c519e11f5c1f15464cd79f3b0907d25eccdfee2e7f6b5",
    "channel-closed": "28f2346902d01953d292f92c18923db740915765873ade512672d26de81629fa",
    "eigensweep-fixed": "b106c2d207f23f8745a1d802c1e523348feefac9da53d72cab75e298d66a0e95",
    "eigensweep-auto-x": "ff82bf5b622b17295412646dc3899cc19d7faef9ece8fb6c611c81dfa061e425",
    "eigensweep-auto-y": "0dea5aac9670d8a9fd5e41b264a4ff38aa0b1aa802e6e824972a2a2664838ccc",
    "optimize-elementwise": "a52664d1cc64126891044d349087d46aadc80266735b3a5b3beed6feb47cd283",
}
OPTIMIZE_ARGV = ("optimize", "--scenario", SMALL, "--seeds", "1", "--max-rounds", "1",
                 "--max-orient-iters", "3")
HOP_OUTPUT_ARGV = {
    **{
        f"channel-{m}": ("channel", "--scenario", BASELINE, "--matrix", m)
        for m in ("h", "ht", "hr", "theta", "closed")
    },
    **{
        f"eigensweep-{o}": ("eigensweep", "--scenario", BASELINE, "--orient", o,
                            "--start", "1", "--stop", "60", "--count", "37")
        for o in ("fixed", "auto-x", "auto-y")
    },
    "optimize-elementwise": OPTIMIZE_ARGV,
}


@pytest.mark.parametrize("name", sorted(HOP_OUTPUT_SHA256))
def test_hop_outputs_are_byte_identical(capsys, name):
    code, out, err = run_cli(capsys, *HOP_OUTPUT_ARGV[name])
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HOP_OUTPUT_SHA256[name]


class TestEigensweepEdges:
    """A surface axis with 3 elements for the baseline's 5 Tx antennas."""

    @pytest.fixture
    def narrow(self, tmp_path):
        return write_variant(tmp_path, "narrow.txt", {"irs.count_x": "3"})

    def sweep(self, capsys, path, orient, start, count):
        return run_cli(
            capsys, "eigensweep", "--scenario", path, "--orient", orient,
            "--start", start, "--stop", "2", "--count", count,
        )

    def test_an_empty_sweep_solves_no_tilt(self, capsys, narrow):
        code, out, err = self.sweep(capsys, narrow, "auto-x", "1", "0")
        assert code == 0, err
        assert out.splitlines()[1:] == ["d_t,eig_1,eig_2,eig_3,eig_4,eig_5"]

    def test_a_short_axis_is_refused(self, capsys, narrow):
        code, out, err = self.sweep(capsys, narrow, "auto-x", "1", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: axis 'x' has 3 elements for 5 antennas; ")

    @pytest.mark.parametrize("orient", ["fixed", "auto-x"])
    @pytest.mark.parametrize("start", ["0", "-1"])
    def test_a_nonpositive_distance_is_refused_first(self, capsys, narrow, orient, start):
        code, out, err = self.sweep(capsys, narrow, orient, start, "2")
        assert (code, out) == (1, "")
        assert err == "error: center distance must be > 0 and finite\n"


SWEEPS = {
    "eigensweep": ("--start", "2", "--stop", "30", "--count", "3"),
    "fmr-map": ("--dt-start", "2", "--dt-stop", "30", "--dt-count", "3",
                "--dr-start", "2", "--dr-stop", "30", "--dr-count", "3"),
}


@pytest.mark.parametrize(
    "command, option, value",
    [
        pytest.param(command, option, "-inf" if option.endswith("start") else "inf",
                     id=f"{command}{option}")
        for command, argv in SWEEPS.items()
        for option in argv[::2]
        if not option.endswith("count")
    ],
)
def test_non_finite_sweep_bounds_are_rejected(capsys, command, option, value):
    argv = list(SWEEPS[command])
    i = argv.index(option)
    argv[i : i + 2] = [f"{option}={value}"]  # "-inf" alone would parse as an option
    code, out, err = run_cli(capsys, command, "--scenario", BASELINE, *argv)
    assert code == 1
    assert out == ""
    assert err.strip() == "error: start and stop must be finite"


@pytest.mark.parametrize(
    "command, count", [("eigensweep", "1"), ("eigensweep", "5"), ("fmr-map", "5")]
)
def test_gnuplot_hints_read_the_csv_written(capsys, tmp_path, command, count):
    # the hint plots the --out file as comma-separated columns, one curve
    # per eigenvalue, with no dangling separator for a one-antenna array
    path = write_variant(tmp_path, "scenario.txt", {"tx.count": count})
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(
        capsys, command, "--scenario", path, *SWEEPS[command], "--out", str(out_file),
        "--gnuplot-hints",
    )
    assert code == 0, err
    assert out.startswith("# gnuplot\n")
    assert "set datafile separator ','\n" in out
    assert f"plot '{out_file}' using 1:" in out
    assert not any(line.rstrip().endswith(",") for line in out.splitlines())
    if command == "eigensweep":
        assert out.count("with lines") == int(count)


# refusals of the sweep ranges and of the scenario parser: (command, scenario
# replacements, appended lines, key naming the reported line, message)
REFUSALS = {
    "sweep-count": (("eigensweep", "--start", "2", "--stop", "30", "--count", "-1"), {}, "",
                    None, "count must be >= 0"),
    "sweep-order": (("eigensweep", "--start", "30", "--stop", "2", "--count", "3"), {}, "",
                    None, "start must be < stop"),
    "empty-key": (("rayleigh",), {}, "= 5\n", "= 5", "empty key"),
    "betas-not-numbers": (("rayleigh",), {}, "focusing = explicit\nfocusing.betas_rad = 0.5, x\n",
                          "focusing.betas_rad",
                          "'focusing.betas_rad' expects comma-separated finite numbers"),
    "explicit-without-betas": (("rayleigh",), {}, "focusing = explicit\n", "focusing =",
                               "focusing: explicit focusing requires a beta list"),
    "azimuth-full-turn": (("rayleigh",), {"tx.azimuth_rad": repr(2 * math.pi)}, "", "tx.count",
                          "tx array: azimuth must lie in [0, 2*pi)"),
    "tile-x-above-pitch": (("rayleigh",), {"irs.element_len_x_m": "0.2"}, "", "irs.count_x",
                           "surface layout: re_len_x must satisfy 0 < re_len_x <= spacing_x"),
    "tile-y-above-pitch": (("rayleigh",), {"irs.element_len_y_m": "0.2"}, "", "irs.count_x",
                           "surface layout: re_len_y must satisfy 0 < re_len_y <= spacing_y"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_input_is_refused_with_its_message(capsys, tmp_path, case):
    argv, replacements, appended, key, message = REFUSALS[case]
    path = write_variant(tmp_path, "scenario.txt", replacements)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(appended)
    code, out, err = run_cli(capsys, argv[0], "--scenario", path, *argv[1:])
    assert code == 1
    assert out == ""
    if key is None:
        assert err == f"error: {message}\n"
    else:
        lines = Path(path).read_text().splitlines()
        line = next(i for i, text in enumerate(lines, 1) if text.startswith(key))
        assert err == f"scenario error: line {line}: {message}\n"


SMOKE_SCENARIOS = [
    pytest.param(str(path), {}, id=path.stem) for path in sorted(SCENARIO_DIR.glob("*.txt"))
] + [
    pytest.param(BASELINE, replacements, id=name)
    for name, replacements in (
        ("tx-zenith", {"tx.elevation_rad": "0"}),
        ("rx-zenith", {"rx.elevation_rad": "0"}),
        ("tx-single", {"tx.count": "1"}),
        ("rx-single", {"rx.count": "1"}),
        ("both-single", {"tx.count": "1", "rx.count": "1"}),
    )
]


@pytest.mark.parametrize("base, replacements", SMOKE_SCENARIOS)
def test_every_command_runs_on_the_scenario(capsys, tmp_path, base, replacements):
    path = write_variant(tmp_path, "scenario.txt", replacements, base=base)
    scn = parse_scenario(path)
    x = fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave).x
    runs = [
        ("rayleigh",),
        ("channel", "--matrix", "h"),
        ("channel", "--matrix", "closed"),
        ("fmr-map", "--dt-start", "2", "--dt-stop", "30", "--dt-count", "5",
         "--dr-start", "2", "--dr-stop", "30", "--dr-count", "5", "--verify"),
        ("fmr-orient", "--dt", repr(0.5 * x.d_t_star), "--dr", repr(0.5 * x.d_r_rayleigh)),
        ("optimize", "--seeds", "1", "--max-rounds", "1", "--max-orient-iters", "2"),
    ] + [
        ("eigensweep", "--orient", orient, "--start", "2", "--stop", "30", "--count", "3")
        for orient in ("fixed", "auto-x", "auto-y")
    ]
    for command, *argv in runs:
        code, _, err = run_cli(capsys, command, "--scenario", path, *argv)
        assert code == 0, (command, err)
    code, out, _ = run_cli(capsys, "verify", "--scenario", path)
    assert code == 0, out
    if scn.tx.n_antennas == scn.rx.n_antennas == 1:  # one stream: no region to check
        assert "SKIP gram_fmr: one antenna on each side" in out
        assert "3/3 checks passed, 1 skipped" in out
    else:
        assert "4/4 checks passed" in out


def test_commands_run_at_a_subnormal_snr(capsys, tmp_path):
    # at 1e-300 W of signal the phase updates divide by subnormal magnitudes;
    # underflow stays ignored because the weak modes' MI terms are themselves
    # subnormal.  At 1e-300 W of noise an MM step can lower the MI; its block
    # stops before that step
    runs = [
        ("optimize", "--seeds", "1", "--max-rounds", "2", "--max-orient-iters", "3"),
        ("verify", "--checks", "phase_solvers"),
    ]
    for base, key, value in ((BASELINE, "power.per_antenna_w", "1e-300"),
                             (SMALL, "power.noise_w", "1e-300")):
        text = "".join(line for line in Path(base).read_text().splitlines(True)
                       if not line.startswith(key))
        path = tmp_path / "scenario.txt"
        path.write_text(f"{text}{key} = {value}\n")
        for command, *argv in runs:
            with np.errstate(all="raise", under="ignore"):
                code, out, err = run_cli(capsys, command, "--scenario", str(path), *argv)
            assert code == 0, (base, command, argv, err)
        assert "PASS phase_solvers" in out


def test_readme_names_every_option():
    """The README's Command line section names exactly the options the
    subcommands accept, -h/--help aside."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        for option in action.option_strings
    } - {"-h", "--help"}
    assert sorted(accepted - named) == [], "options the README does not name"
    assert sorted(named - accepted) == [], "options the README names that no command accepts"


def declared_console_script(name):
    """The `module:attr` target of `name` under [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return project["scripts"][name]


# What the console-script wrapper generated at install time does: import the
# target, name the program after the script, and exit with its return value.
ENTRY_POINT_WRAPPER = """
import importlib, sys
module_name, attr, *argv = sys.argv[1:]
target = getattr(importlib.import_module(module_name), attr)
sys.argv = ["irsmimo", *argv]
sys.exit(target())
"""


def run_declared_script(cwd, *argv):
    module_name, _, attr = declared_console_script("irsmimo").partition(":")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_WRAPPER, module_name, attr, *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )


def test_console_script_is_wired(tmp_path):
    proc = run_declared_script(tmp_path, "rayleigh", "--scenario", BASELINE)
    assert proc.returncode == 0, proc.stderr
    assert "tx.d_rayleigh_x_m" in proc.stdout

    missing = str(tmp_path / "missing.txt")
    proc = run_declared_script(tmp_path, "rayleigh", "--scenario", missing)
    assert proc.returncode != 0
    assert "No such file or directory" in proc.stderr


@pytest.mark.skipif(shutil.which("irsmimo") is None, reason="no irsmimo console script on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["irsmimo", "rayleigh", "--scenario", BASELINE],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "tx.d_rayleigh_x_m" in proc.stdout
