#!/usr/bin/env python3
"""Dump the full-multiplexing region of a scenario: corners, boundary curves,
and a spot-check of the realizing orientations at a few sample points."""

import argparse
import sys
from dataclasses import replace

import numpy as np

import irsmimo as im

ap = argparse.ArgumentParser(description=__doc__)
ap.add_argument("--scenario", default="scenarios/cascade_baseline.txt")
ap.add_argument("--out", default="out/region_boundary.csv")
ap.add_argument("--spot-checks", type=int, default=6, help="gram checks per region")
args = ap.parse_args()

scn = im.parse_scenario(args.scenario)
bound = im.fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
regions = (("x", bound.x), ("y", bound.y))

for axis, reg in regions:
    print("%s-region: D_t* = %.4f m, axis limits D_t <= %.4f, D_r <= %.4f"
          % (axis, reg.d_t_star, reg.d_t_rayleigh, reg.d_r_rayleigh))
print("corners: " + " ".join("R_t%s=%s R_r%s=%s" % (axis, reg.r_t, axis, reg.r_r)
                             for axis, reg in regions))

import os
os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
with open(args.out, "w") as fh:
    fh.write("axis,d_t,d_r_cap\n")
    for axis, reg in regions:
        for d_t, cap in reg.boundary:
            fh.write("%s,%.17g,%.17g\n" % (axis, d_t, cap))
print("boundary samples ->", args.out)

rng = np.random.default_rng(11)
for axis, reg in regions:
    failures = 0
    for _ in range(args.spot_checks):
        d_t = float(rng.uniform(0.2, 0.98)) * reg.d_t_star
        d_r = float(rng.uniform(0.2, 0.98)) * reg.d_r_rayleigh
        o_t, o_r = im.fmr_orientations(bound, d_t, d_r, axis)
        sc = replace(
            scn,
            tx=replace(scn.tx, distance=d_t, orient_azimuth=o_t.gamma, orient_elevation=o_t.psi),
            rx=replace(scn.rx, distance=d_r, orient_azimuth=o_r.gamma, orient_elevation=o_r.psi),
        )
        cs = im.build_channels(sc)
        rep = im.check_orthogonality(cs.h, "rows", cs.eta0**2 * scn.irs.n_elements**2)
        failures += 0 if rep.passed else 1
    print(f"{axis}-region spot checks: {args.spot_checks - failures}/{args.spot_checks} pass")
    if failures:
        sys.exit(1)
