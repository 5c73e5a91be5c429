"""The three benchmark workloads: inputs, one pass, and its correctness check.

Each workload builds its inputs from the seed in ``__init__`` (that time
counts as set-up), runs one pass over its input ``i`` in ``run_pass``, and
judges a pass's raw output in ``check``, which returns one verdict per
operation.  Only ``opt_portfolio`` has more than one input; input 0 is the
one whose output quality is reported.  ``reference`` names the kernel in
reference.py whose kind of work a pass resembles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import replace

import numpy as np

from irsmimo import channel as chan
from irsmimo import cli
from irsmimo import optimize as opt
from irsmimo import response, scenario

MI_TOL = 1e-9  # bits; the acceptance test's tolerance for monotone and bounded traces

FULL = {
    # 60 x 60 is the ROADMAP's reference map.
    "fmr_map": {"count": 60},
    # The acceptance test's stops except max_outer: at 40, one start's work
    # varies 3x with its seed and a 25 s run sees too few starts to average
    # that out; at 10 a start costs a third as much and the random starts end
    # at the same MI, since MM stalls well before 10 outer steps.  The CLI
    # defaults take over 100 s per portfolio.
    "opt_portfolio": {"randoms": 5, "max_outer": 10, "max_iters": 40, "max_rounds": 5},
    # Q = 961 is above EIGH_CUTOVER, so Lambda is dense and the top
    # eigenvalue comes from power iteration; Q = 2601 takes ~10 s per call.
    "mm_large": {"q": 31, "randoms": 2, "max_outer": 3},
}
SMOKE = {
    "fmr_map": {"count": 6},
    "opt_portfolio": {"randoms": 1, "max_outer": 3, "max_iters": 3, "max_rounds": 1},
    "mm_large": {"q": 9, "randoms": 1, "max_outer": 2},
}


def sub_seed(*key) -> int:
    """A stable integer seed derived from the benchmark seed and a position."""
    entropy = [k % 2**64 for k in key]  # SeedSequence takes non-negative integers only
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trace_digest(mis) -> str:
    return _digest(",".join("%.17g" % v for v in mis))


def _monotone(mis) -> bool:
    return all(b >= a - MI_TOL for a, b in zip(mis, mis[1:]))


class FmrMap:
    """``irsmimo fmr-map --verify`` over a (D_t, D_r) grid on 2-32 m.

    One operation is one grid point.  It fails when the pass raises, an
    in-region point fails the Gram check, or an out-of-region point passes it.
    """

    name = "fmr_map"
    reference = "interp"

    def __init__(self, seed: int, size: dict):
        self.scenario_path = "scenarios/cascade_baseline.txt"
        scn = scenario.parse_scenario(self.scenario_path)
        count = size["count"]
        cell = 30.0 / (count - 1)
        shift_t, shift_r = (float(s) for s in
                            np.random.default_rng(sub_seed(seed)).uniform(0.0, 0.5 * cell, 2))
        self.points = count * count
        self.argv = [
            "fmr-map", "--scenario", self.scenario_path,
            "--dt-start", repr(2.0 + shift_t), "--dt-stop", repr(32.0 + shift_t),
            "--dt-count", str(count),
            "--dr-start", repr(2.0 + shift_r), "--dr-stop", repr(32.0 + shift_r),
            "--dr-count", str(count),
            "--verify",
        ]
        self.provenance = {"scenario_hash": scenario.scenario_hash(scn), "argv": self.argv}

    def run_pass(self, i: int):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(self.argv)
        except Exception as exc:  # the whole map failed; check() counts every point
            rc = repr(exc)
        return rc, out.getvalue()

    def check(self, raw) -> dict:
        rc, text = raw
        rows = [line.split(",") for line in text.splitlines()[2:]]
        if rc != 0 or len(rows) != self.points:
            return {"attempted": self.points, "failed": self.points, "pass_in": 0,
                    "fail_out": 0, "digests": [_digest(text)]}
        pass_in = fail_out = 0
        for _, _, in_x, in_y, gram in rows:
            if in_x == "1" or in_y == "1":
                pass_in += gram == "1"
            else:
                fail_out += gram == "0"
        failed = self.points - pass_in - fail_out
        return {"attempted": self.points, "failed": failed, "pass_in": pass_in,
                "fail_out": fail_out, "digests": [_digest(text)]}


def _start_record(label, mis, bound):
    return {"label": label, "mi": mis[-1], "bound": bound, "monotone": _monotone(mis),
            "digest": _trace_digest(mis), "error": None}


class _Optimizer:
    """Shared checks of the two optimizer workloads; one operation is one start."""

    def _run_start(self, label, fn):
        try:
            return fn()
        except Exception as exc:  # a failing start is a failed operation, not a crash
            return {"label": label, "error": repr(exc)}

    def _anchor_ok(self, starts) -> bool:
        """Workload-specific condition on the focusing start (``starts[0]``)."""
        return True

    def check(self, starts) -> dict:
        for rec in starts:
            rec["ok"] = rec["error"] is None and rec["monotone"] and (
                rec["mi"] <= rec["bound"] + MI_TOL
            )
        starts[0]["ok"] = starts[0]["ok"] and self._anchor_ok(starts)
        failed = sum(not rec["ok"] for rec in starts)
        return {"attempted": len(starts), "failed": failed,
                "digests": [rec.get("digest") for rec in starts],
                "starts": [{key: rec.get(key) for key in ("label", "mi", "bound", "ok", "error")}
                           for rec in starts]}

    def quality(self, starts) -> dict:
        done = [rec for rec in starts if rec["error"] is None]
        randoms = [rec["mi"] for rec in done if rec["label"] != "focus"]
        if not randoms:
            return {"best_mi_bits": 0.0, "mean_mi_bits": 0.0, "gap_bits": 0.0}
        best = max(done, key=lambda rec: rec["mi"])
        return {
            "best_mi_bits": best["mi"],
            "mean_mi_bits": float(np.mean(randoms)),
            "gap_bits": best["bound"] - best["mi"],
        }


class OptPortfolio(_Optimizer):
    """Focusing start plus seeded random starts on optimize_small.txt.

    Input ``i`` is one portfolio: its random starts are seeded by
    (seed, i, j).

    Each start runs ``alternating_optimize`` and then ``mi_upper_bound`` at
    its converged orientation, as ``irsmimo optimize`` does.  A start fails
    when it raises, its MI trace falls by more than 1e-9 bits, or it ends
    above the bound; the focusing start also fails when the best start ends
    below the plain focusing MI.
    """

    name = "opt_portfolio"
    reference = "interp"

    def __init__(self, seed: int, size: dict):
        self.scn = scenario.parse_scenario("scenarios/optimize_small.txt")
        self.seed = seed
        self.randoms = size["randoms"]
        self.stops = {
            "theta_stop": {"max_outer": size["max_outer"]},
            "orient_stop": {"max_iters": size["max_iters"]},
            "max_rounds": size["max_rounds"],
        }
        self.provenance = {"scenario_hash": scenario.scenario_hash(self.scn)}
        self.focus_mi = None

    def start_seeds(self, i: int) -> list:
        return [sub_seed(self.seed, i, j) for j in range(self.randoms)]

    def _start(self, label, seed):
        scn = self.scn
        init = opt.focusing_init(scn) if seed is None else None
        _, m, trace = opt.alternating_optimize(scn, init, seed=seed, **self.stops)
        sc = opt.oriented_scenario(scn, m)
        gain = response.eta0(sc.wave, sc.reflection, sc.irs, sc.tx, sc.rx)
        bound = opt.mi_upper_bound(chan.tx_irs_channel(sc), chan.irs_rx_channel(sc), gain,
                                   scn.power)
        return _start_record(label, trace.mi_values, bound)

    def run_pass(self, i: int):
        labels = [("focus", None)] + [(f"seed-{s}", s) for s in self.start_seeds(i)]
        return [self._run_start(label, lambda: self._start(label, s)) for label, s in labels]

    def _anchor_ok(self, starts) -> bool:
        if self.focus_mi is None:
            self.focus_mi = opt.mutual_information(chan.build_channels(self.scn).h,
                                                   self.scn.power)
        best = max((rec["mi"] for rec in starts if rec["error"] is None), default=-np.inf)
        return best >= self.focus_mi - MI_TOL


class MmLarge(_Optimizer):
    """Phase-only MM on the baseline geometry with a 31 x 31 surface.

    Runs ``optimize_theta`` from the focusing phases and seeded random
    phases at high SNR with a fixed ``max_outer``, as
    ``scripts/pb_convergence.py`` does.  Failures as in OptPortfolio.
    """

    name = "mm_large"
    reference = "blas"

    def __init__(self, seed: int, size: dict):
        base = scenario.parse_scenario("scenarios/cascade_baseline.txt")
        q = size["q"]
        self.scn = replace(base, irs=replace(base.irs, q_x=q, q_y=q),
                           power=opt.PowerConfig(1.0, 1e-13))
        rng = np.random.default_rng(sub_seed(seed))
        self.thetas = [np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, q * q))
                       for _ in range(size["randoms"])]
        self.max_outer = size["max_outer"]
        self.provenance = {"scenario_hash": scenario.scenario_hash(self.scn)}

    def _start(self, label, theta0, bound):
        _, trace = opt.optimize_theta(self.scn, theta0, max_outer=self.max_outer)
        return _start_record(label, trace.mi_values, bound)

    def run_pass(self, i: int):
        cs = chan.build_channels(self.scn)
        bound = opt.mi_upper_bound(cs.h_t, cs.h_r, cs.eta0, self.scn.power)
        starts = [("focus", cs.theta)] + [(f"random-{j}", t) for j, t in enumerate(self.thetas)]
        return [self._run_start(label, lambda: self._start(label, t, bound))
                for label, t in starts]


WORKLOADS = {cls.name: cls for cls in (FmrMap, OptPortfolio, MmLarge)}
