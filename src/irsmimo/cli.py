"""Command-line front end: scenario-driven experiments emitting CSV.

Every command reads one scenario file, computes, and writes CSV (or a small
key=value report) either to --out or stdout.  CSVs start with a comment
line carrying the scenario content hash, then a header row; floats are
printed with 17 significant digits so files are bit-reproducible and
round-trip exact.

Exit codes: 0 success, 1 usage or scenario errors, 2 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import channel as chan
from . import checks
from . import multiplexing as mux
from . import optimize as opt
from . import response
from .scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)

# eigensweep synthesizes this many distances per numpy pass: enough to
# amortize the per-pass overhead, few enough that the (chunk, Q, N) phase
# temporaries stay small
SWEEP_CHUNK = 4

# fmr-map --verify evaluates its closed-form cascades this many points at a
# time, so the (block, N_r, N_t) temporaries stay small at any grid size
MAP_BLOCK = 240


@dataclass(frozen=True)
class SweepSpec:
    """One swept range of a scenario field."""

    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.count >= 2 and not self.start < self.stop:
            raise ValueError("start must be < stop")

    def values(self) -> np.ndarray:
        # fewer than two values never reach stop, and stop - start can overflow
        return np.linspace(self.start, self.stop if self.count >= 2 else self.start, self.count)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _emit(args, header, rows, scn: Scenario) -> None:
    lines = [f"# scenario={scenario_hash(scn)}", ",".join(header)]
    lines += [row if isinstance(row, str) else ",".join(_fmt(cell) for cell in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_kv(key: str, value) -> None:
    print(f"{key} = {_fmt(value)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_rayleigh(args) -> int:
    scn = parse_scenario(args.scenario)
    rows = []
    for side, pose in (("tx", scn.tx), ("rx", scn.rx)):
        rr = mux.rayleigh_distances(pose, scn.irs, scn.wave)
        _print_kv(f"{side}.d_rayleigh_x_m", rr.d_rx_axis)
        _print_kv(f"{side}.d_rayleigh_y_m", rr.d_ry_axis)
        _print_kv(f"{side}.d_rayleigh_m", rr.d_r)
        rows.append((side, "x", rr.d_rx_axis, rr.x_applicable))
        rows.append((side, "y", rr.d_ry_axis, rr.y_applicable))
    if args.out:
        _emit(args, ["side", "axis", "rayleigh_m", "applicable"], rows, scn)
    return 0


def cmd_channel(args) -> int:
    scn = parse_scenario(args.scenario)
    if args.matrix == "closed":
        matrix = chan.closed_form_channel(scn)
    else:
        cs = chan.build_channels(scn)
        matrix = {"h": cs.h, "ht": cs.h_t, "hr": cs.h_r, "theta": cs.theta}[args.matrix]
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    rows = [
        (r, c, matrix[r, c].real, matrix[r, c].imag)
        for r in range(matrix.shape[0])
        for c in range(matrix.shape[1])
    ]
    _emit(args, ["row", "col", "re", "im"], rows, scn)
    if args.gnuplot_hints:
        _hint_matrix(args)
    return 0


def cmd_eigensweep(args) -> int:
    scn = parse_scenario(args.scenario)
    sweep = SweepSpec(args.start, args.stop, args.count)
    rr = mux.rayleigh_distances(scn.tx, scn.irs, scn.wave)
    axis = {"auto-x": "x", "auto-y": "y"}.get(args.orient)
    d_axis = rr.d_rx_axis if axis == "x" else rr.d_ry_axis
    distances = sweep.values().tolist()
    gamma, psi = scn.tx.orient_azimuth, scn.tx.orient_elevation
    if axis is not None and distances:
        # the anchor gamma does not depend on distance: one solve, at the
        # first distance, refuses what a solve at every distance would
        gamma = mux.single_hop_orientation(
            replace(scn.tx, distance=min(distances[0], d_axis)), scn.irs, scn.wave, axis
        ).gamma
    # the solver's tilt asin(D/D_axis), held at its value at the limit beyond it
    keys = [(d, gamma, psi if axis is None else math.asin(min(1.0, d / d_axis))) for d in distances]
    side = chan.link_side(scn.wave.wavelength, scn.irs, scn.tx)
    rows = []
    for i in range(0, len(keys), SWEEP_CHUNK):
        chunk = keys[i : i + SWEEP_CHUNK]
        hops = chan.side_hops(chan.pose_side(side, chunk))
        for (d_t, _, _), h_t in zip(chunk, hops):
            ev = np.linalg.eigvalsh(h_t.conj().T @ h_t) / scn.irs.n_elements
            rows.append((d_t, *np.sort(ev)[::-1]))
    header = ["d_t"] + [f"eig_{i + 1}" for i in range(scn.tx.n_antennas)]
    _emit(args, header, rows, scn)
    if args.gnuplot_hints:
        _hint_eigensweep(args, scn.tx.n_antennas)
    return 0


def _map_verdicts(scn, grid) -> np.ndarray:
    """Gram verdicts of a (D_t, D_r) grid at the poses region_grid serves.

    The map's gains are formed, and refused, before any cascade.  The
    cascades come from the closed form, MAP_BLOCK points at a time.  The
    first in-region and the first out-of-region point in row-major order
    are also built by brute force, and the map is refused unless the two
    agree there.
    """
    inside, served, poses, _ = grid
    poses = poses.reshape(-1, 6)
    gain = response.cascade_gains(
        scn.wave, scn.reflection, scn.irs, scn.tx, scn.rx, poses[:, 0], poses[:, 3]
    )
    in_region = (served < inside.shape[-1]).ravel()
    spots = {int(np.argmax(in_region == flag)) for flag in (True, False) if flag in in_region}
    verdicts = np.empty(len(poses), dtype=bool)
    for s in range(0, len(poses), MAP_BLOCK):
        block = slice(s, s + MAP_BLOCK)
        h = chan.closed_form_cascades(scn, poses[block], gain[block])
        verdicts[block] = checks.gram_verdicts(scn, h, gain[block])
        for i in sorted(spots & set(range(s, s + len(h)))):
            _spot_check(scn, poses[i], gain[i : i + 1], h[i - s], verdicts[i])
    return verdicts.reshape(served.shape)


def _spot_check(scn, pose, gain, h, passed) -> None:
    """Refuse a map unless the brute-force cascade at one of its points,
    with the map's gain, gives the closed form's Gram verdict and max|h -
    brute| is at most 1e-8 of brute's largest entry.  One bound for every
    entry, unlike verify's closed_form check, which judges each entry above
    1e-6 of the largest against itself."""
    d_t, _, _, d_r, _, _ = pose.tolist()
    brute = chan.reflective_cascades(scn, pose, gain)
    scale = float(np.max(np.abs(brute)))
    if checks.gram_verdicts(scn, brute, gain)[0] != passed or not (
        np.max(np.abs(h - brute[0])) <= 1e-8 * scale
    ):
        raise ValueError(
            f"closed form and brute force disagree at (D_t={_fmt(d_t)}, D_r={_fmt(d_r)})"
        )


def cmd_fmr_map(args) -> int:
    scn = parse_scenario(args.scenario)
    bound = mux.fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
    d_t = SweepSpec(args.dt_start, args.dt_stop, args.dt_count).values()
    d_r = SweepSpec(args.dr_start, args.dr_stop, args.dr_count).values()
    # the probe columns refuse nonpositive distances, with --verify or without
    grid = mux.region_grid(bound, d_t, d_r)
    # a point's last three cells as one code: x member 4, y member 2, Gram pass 1
    codes = grid[0] @ [4, 2]
    if args.verify:
        codes += _map_verdicts(scn, grid)
    tails = [f"{c >> 2},{c >> 1 & 1},{c & 1 if args.verify else ''}" for c in range(8)]
    d_r_cells = [_fmt(v) for v in d_r.tolist()]
    rows = [
        f"{t},{r},{tails[c]}"
        for t, row in zip(map(_fmt, d_t.tolist()), codes.tolist())
        for r, c in zip(d_r_cells, row)
    ]
    _emit(args, ["d_t", "d_r", "in_region_x", "in_region_y", "gram_pass"], rows, scn)
    if args.gnuplot_hints:
        _hint_fmr_map(args)
    return 0


def cmd_fmr_orient(args) -> int:
    scn = parse_scenario(args.scenario)
    bound = mux.fmr_inner_bound(scn.tx, scn.rx, scn.irs, scn.wave)
    region = args.region
    if region == "auto":
        # the first region holding the point, as fmr-map --verify picks it;
        # the probe column refuses a nonpositive or NaN distance as fmr-map does
        served = mux.region_grid(bound, [args.dt], [args.dr])[1].item()
        region = ("x", "y", None)[served]
        if region is None:
            print(
                f"point (D_t={_fmt(args.dt)}, D_r={_fmt(args.dr)}) is outside both regions",
                file=sys.stderr,
            )
            return 1
    try:
        ot, orx = mux.fmr_orientations(bound, args.dt, args.dr, region)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cc = chan.coupling_constants(checks.posed_scenario(scn, args.dt, args.dr, (ot, orx)))
    _print_kv("region", region)
    _print_kv("branch", ot.branch)
    _print_kv("tx.orient_azimuth_rad", ot.gamma)
    _print_kv("tx.orient_elevation_rad", ot.psi)
    _print_kv("rx.orient_azimuth_rad", orx.gamma)
    _print_kv("rx.orient_elevation_rad", orx.psi)
    _print_kv("coupling.c_tx", cc.c_tx)
    _print_kv("coupling.c_ty", cc.c_ty)
    _print_kv("coupling.c_rx", cc.c_rx)
    _print_kv("coupling.c_ry", cc.c_ry)
    if args.out:
        _emit(
            args,
            ["d_t", "d_r", "region", "gamma_t", "psi_t", "gamma_r", "psi_r"],
            [(args.dt, args.dr, region, ot.gamma, ot.psi, orx.gamma, orx.psi)],
            scn,
        )
    return 0


def cmd_optimize(args) -> int:
    """Focusing start plus --seeds random starts of alternating_optimize."""
    if args.seeds == 0 and args.overlay:
        print("error: --overlay needs a converged run; --seeds 0 runs none", file=sys.stderr)
        return 1
    scn = parse_scenario(args.scenario)
    theta_stop = {"eps_theta": args.eps_theta, "max_outer": args.max_outer}
    orient_stop = {"eps_orient": args.eps_orient, "max_iters": args.max_orient_iters}

    if args.seeds == 0:
        cs = chan.build_channels(scn)
        mi = opt.mutual_information(cs.h, scn.power)
        bound = opt.mi_upper_bound(cs.h_t, cs.h_r, cs.eta0, scn.power)
        print(
            f"seed=none mi_bits={_fmt(mi)} upper_bound_bits={_fmt(bound)} "
            f"gap_bits={_fmt(bound - mi)}"
        )
        _emit(args, ["round", "block", "mi_bits"], [(0, "init", mi)], scn)
        return 0

    def run(label):
        init = opt.focusing_init(scn) if label == "focus" else None
        seed = None if label == "focus" else label
        theta, m, trace = opt.alternating_optimize(
            scn,
            init,
            seed=seed,
            eps_oa=args.eps_oa,
            max_rounds=args.max_rounds,
            theta_stop=theta_stop,
            orient_stop=orient_stop,
        )
        mi = trace.iterations[-1][1]
        cs = chan.build_channels(opt.oriented_scenario(scn, m))
        bound = opt.mi_upper_bound(cs.h_t, cs.h_r, cs.eta0, scn.power)
        return label, theta, m, trace, mi, bound

    # the declared-focusing start anchors the portfolio: being monotone, it
    # cannot end below the plain focusing MI, so the best over all starts
    # always dominates it
    base = args.seed if args.seed is not None else 0
    labels = ["focus"] + list(range(base, base + args.seeds))
    results = [run(label) for label in labels]
    for label, _, _, _, mi, bound in results:
        print(
            f"seed={label} mi_bits={_fmt(mi)} upper_bound_bits={_fmt(bound)} "
            f"gap_bits={_fmt(bound - mi)}"
        )
    best = max(results, key=lambda item: item[4])
    label, theta, m, trace, mi, bound = best
    print(f"best_seed={label} mi_bits={_fmt(mi)}")
    _emit(
        args,
        ["round", "block", "mi_bits"],
        [(step, block, value) for step, value, block in trace.iterations],
        scn,
    )
    if args.overlay:
        betas = tuple(float(b) for b in np.angle(theta))
        converged = replace(
            opt.oriented_scenario(scn, m),
            focusing_mode="explicit",
            focusing_betas=betas,
            metadata={**scn.metadata, "converged_seed": str(label), "converged_mi_bits": _fmt(mi)},
        )
        with open(args.overlay, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(serialize_scenario(converged))
    return 0


# ---------------------------------------------------------------------------
# verification suite


def cmd_verify(args) -> int:
    scn = parse_scenario(args.scenario) if args.scenario else checks.golden_scenario()
    known = dict(checks.CHECKS)
    names = args.checks.split(",") if args.checks is not None else known
    wanted = [name.strip() for name in names if name.strip()]
    for i, name in enumerate(wanted):
        if name not in known:
            print(f"error: unknown check '{name}'", file=sys.stderr)
            return 1
        if name in wanted[:i]:
            print(f"error: check '{name}' given twice", file=sys.stderr)
            return 1
    selected = [(name, known[name]) for name in wanted]
    if not selected:
        print("warning: no checks selected; nothing verified", file=sys.stderr)
        print("PASS (0 checks)")
        return 0
    failures = skips = 0
    for name, fn in selected:
        try:
            ok, detail = fn(scn)
        except ValueError as exc:  # a refusal other than a named precondition
            ok, detail = False, str(exc)
        line = "SKIP" if ok is None else "PASS" if ok else "FAIL"
        print(f"{line} {name}: {detail}")
        skips += ok is None
        failures += line == "FAIL"
    ran = len(selected) - skips
    print(f"{ran - failures}/{ran} checks passed" + (f", {skips} skipped" if skips else ""))
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# gnuplot hints


def _hint_eigensweep(args, n: int) -> None:
    src = args.out or "eigensweep.csv"
    curves = ", ".join(
        f"'{src if i == 0 else ''}' using 1:{i + 2} with lines title 'eig {i + 1}'" for i in range(n)
    )
    print(f"# gnuplot\nset datafile separator ','\nset datafile commentschars '#'\n"
          f"set logscale y\nplot {curves}")


def _hint_fmr_map(args) -> None:
    src = args.out or "fmr_map.csv"
    print(f"# gnuplot\nset datafile separator ','\n"
          f"plot '{src}' using 1:($3 > 0 ? $2 : 1/0) with points pt 5 title 'region x',\\\n"
          f"     '{src}' using 1:($4 > 0 ? $2 : 1/0) with points pt 7 title 'region y'")


def _hint_matrix(args) -> None:
    src = args.out or "matrix.csv"
    print(f"# gnuplot\nset datafile separator ','\n"
          f"plot '{src}' using 2:1:(sqrt($3**2+$4**2)) with image title '|entry|'")


# ---------------------------------------------------------------------------
# argument wiring


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(sub, hints=False):
    sub.add_argument("--scenario", required=True, help="scenario file path")
    sub.add_argument("--out", help="output CSV path (default stdout)")
    if hints:
        sub.add_argument(
            "--gnuplot-hints", action="store_true", help="print a matching gnuplot script"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsmimo",
        description="Cascaded reflected-path MIMO toolkit: channels, "
        "multiplexing regions, phase/orientation optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rayleigh", help="per-axis multiplexing distance limits")
    _add_common(p)
    p.set_defaults(fn=cmd_rayleigh)

    p = sub.add_parser("channel", help="dump a channel matrix as CSV")
    _add_common(p, hints=True)
    p.add_argument(
        "--matrix",
        choices=["h", "ht", "hr", "theta", "closed"],
        default="h",
        help="which matrix to export",
    )
    p.set_defaults(fn=cmd_channel)

    p = sub.add_parser("eigensweep", help="hop-Gram eigenvalues against Tx distance")
    _add_common(p, hints=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--orient",
        choices=["fixed", "auto-x", "auto-y"],
        default="fixed",
        help="keep scenario orientation or re-solve it per distance",
    )
    p.set_defaults(fn=cmd_eigensweep)

    p = sub.add_parser("fmr-map", help="region membership over a (D_t, D_r) grid")
    _add_common(p, hints=True)
    p.add_argument("--dt-start", type=float, required=True)
    p.add_argument("--dt-stop", type=float, required=True)
    p.add_argument("--dt-count", type=int, required=True)
    p.add_argument("--dr-start", type=float, required=True)
    p.add_argument("--dr-stop", type=float, required=True)
    p.add_argument("--dr-count", type=int, required=True)
    p.add_argument(
        "--verify", action="store_true", help="also run the Gram check at every grid point"
    )
    p.set_defaults(fn=cmd_fmr_map)

    p = sub.add_parser("fmr-orient", help="orientations realizing an in-region point")
    _add_common(p)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--dr", type=float, required=True)
    p.add_argument("--region", choices=["x", "y", "auto"], default="auto")
    p.set_defaults(fn=cmd_fmr_orient)

    p = sub.add_parser("optimize", help="joint phase/orientation optimization")
    _add_common(p)
    p.add_argument("--seed", type=_nonnegative_int, default=None, help="base RNG seed")
    p.add_argument("--seeds", type=_nonnegative_int, default=1, help="number of random restarts")
    p.add_argument("--overlay", help="write the converged configuration as a scenario file")
    p.add_argument("--eps-theta", type=_nonnegative_float, default=1e-6,
                   help="a sweep visits the elements that can gain this / Q bits")
    p.add_argument("--eps-orient", type=_nonnegative_float, default=1e-6,
                   help="the joint ascent stops after 3 steps in a row gaining less (bits)")
    p.add_argument("--eps-oa", type=_nonnegative_float, default=1e-6)
    p.add_argument("--max-outer", type=_nonnegative_int, default=200,
                   help="accepted and unused: every round starts with one exact phase sweep")
    p.add_argument("--max-orient-iters", type=_nonnegative_int, default=200,
                   help="joint L-BFGS steps on the phases and tilts per round")
    p.add_argument("--max-rounds", type=_nonnegative_int, default=50)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("verify", help="run named verification checks")
    p.add_argument(
        "--scenario",
        help="scenario file every check reads (default: golden setup); a check the scenario "
        "does not admit prints SKIP and does not fail the run",
    )
    p.add_argument(
        "--checks",
        default=None,
        help="comma-separated check names (default: all); empty string runs none",
    )
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
