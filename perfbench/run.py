#!/usr/bin/env python3
"""irsmimo benchmark runner.

    python3 perfbench/run.py --workload fmr_map --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20   # table of all three
    python3 perfbench/run.py --smoke

Run from the repository root.  Each measurement runs in a fresh worker
process (perfbench/worker.py) whose BLAS thread count is pinned through the
environment, with one caller in a closed loop and no concurrency: irsmimo
is a batch tool.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (every metric with its unit, timing percentiles and sample
counts, per-operation verdicts, output digests and provenance).

--trace 0 reports the end-to-end metrics, measured untraced, with each time
scaled by a reference kernel timed beside it (reference.py).  --trace 1
reports the per-layer metrics: spans around each module's public
functions, the tracing overhead, and one pass repeated at one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import monotonic

from spans import LAYER_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0
# Untraced passes are split over this many fresh worker processes: a
# process's speed varies with more than the passes it runs (run medians of
# single processes spread about twice as wide as 15 s windows of one long
# process), and each process also gives one set-up sample.
WORKER_PROCESSES = 5
# Set-up is mostly the numpy import, which varies by process; extra
# processes that only set up give setup_s 10 samples, not 5.
SETUP_ONLY_PER_WORKER = 1

# Q = 49 and the 5 x 5 map matrices gain nothing from a second BLAS thread
# and time more steadily on one; the dense Q = 961 products do gain.
BLAS_THREADS = {"fmr_map": 1, "opt_portfolio": 1, "mm_large": 2}
# Inputs each workload draws from the seed.  One opt_portfolio portfolio's
# run time varies by 2x with its starts, so a run times a pool of them and
# reports the mean over the pool; each worker runs its share of the pool
# at least once, so every run at a seed times and checks the same inputs.
POOL = {"fmr_map": 1, "opt_portfolio": 20, "mm_large": 1}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in LAYER_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "bench.harness.self_s": "s",
    "multiplexing.gram_pass_in": "count",
    "multiplexing.gram_fail_out": "count",
    "optimize.mm_inner_per_outer": "ratio",
    "optimize.orient_evals_per_step": "ratio",
    "optimize.mm_auxiliaries.out_bytes": "B",
    "optimize.best_mi_bits": "bits",
    "optimize.mean_mi_bits": "bits",
    "optimize.gap_bits": "bits",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "blas1.wall_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def timing(values) -> dict:
    """Median, the highest percentile with ten or more samples above it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "min": ordered[0], "n": n}
    for pct in (99.9, 99.0, 90.0):
        rank = int(n * pct / 100.0)
        if n - rank >= 10:
            out[f"p{pct:g}"] = ordered[max(rank - 1, 0)]
            break
    return out


class Runner:
    """Starts worker processes for one workload and collects their JSON."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.t_end = monotonic() + DEADLINE_S
        self.threads = min(BLAS_THREADS[workload], len(os.sched_getaffinity(0)))

    def worker(self, *flags, threads=None) -> dict:
        n = str(threads or self.threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *(["--smoke"] if self.smoke else []), *flags]
        remaining = self.t_end - monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=remaining,
                                  text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
        return json.loads(lines[-1])


def _quality(res) -> dict:
    return res.get("quality") or {"best_mi_bits": 0.0, "mean_mi_bits": 0.0, "gap_bits": 0.0}


def digest_report(parts) -> dict:
    """Output digests per input, and whether every pass of an input repeated them."""
    seen, repeat = {}, True
    for part in parts:
        for i, digests in zip(part["inputs"], part["digests"]):
            repeat = repeat and seen.setdefault(i, digests) == digests
    return {"digests": seen, "digests_repeat": repeat}


def end_to_end(runner: Runner, seconds: float):
    pool = POOL[runner.workload]
    parts, setups = [], []
    for w in range(WORKER_PROCESSES):
        setups += [runner.worker("--setup-only") for _ in range(SETUP_ONLY_PER_WORKER)]
        share = [i % pool for i in range(w, max(pool, WORKER_PROCESSES), WORKER_PROCESSES)]
        parts.append(runner.worker("--seconds", str(seconds / WORKER_PROCESSES),
                                   "--inputs", ",".join(map(str, share))))
    main = parts[0]
    by_input = {}
    for p in parts:
        for i, wall in zip(p["inputs"], p["scaled"]):
            by_input.setdefault(i, []).append(wall)
    setups += parts
    main.update(
        attempted=sum(p["attempted"] for p in parts),
        failed=sum(p["failed"] for p in parts),
    )
    # The mean over inputs, not their median: opt_portfolio's inputs differ
    # in cost by 2x, and the mean is the pool's total work per portfolio.
    values = {
        "wall_s": statistics.mean(statistics.median(w) for w in by_input.values()),
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    report = {
        "timings": {
            "wall_s": timing([w for p in parts for w in p["scaled"]]),
            "setup_s": timing([s["setup_scaled_s"] for s in setups]),
            "raw_wall_s": timing([w for p in parts for w in p["walls"]]),
            "raw_setup_s": timing([s["setup_s"] for s in setups]),
            "reference_s": timing([r for p in parts for r in p["refs"]]),
        },
        "reference": {"kernel": parts[0]["reference"], "nominal_s": parts[0]["nominal_s"]},
        "worker_processes": WORKER_PROCESSES,
        "inputs": pool,
        **digest_report(parts),
    }
    if "quality" in main:
        report["quality"] = {k: {"value": v, "unit": "bits"} for k, v in main["quality"].items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return main, metrics, report


def per_layer(runner: Runner, seconds: float):
    main = runner.worker("--trace", "--seconds", str(seconds))
    blas1 = runner.worker("--seconds", "0", threads=1)
    setup, pas = main["setup_trace"], main["pass_trace"]
    calls = {k: setup["calls"].get(k, 0) + pas["calls"].get(k, 0)
             for k in set(setup["calls"]) | set(pas["calls"])}
    self_s = {k: setup["self_s"].get(k, 0.0) + pas["self_s"].get(k, 0.0)
              for k in set(setup["self_s"]) | set(pas["self_s"])}

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in LAYER_NAMES:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    verdict = pas["verdict"]
    untraced = statistics.median(main["untraced_walls"])
    traced = statistics.median(main["traced_walls"])
    values.update({
        "bench.harness.self_s": self_s["bench.harness"],
        "multiplexing.gram_pass_in": verdict.get("pass_in", 0),
        "multiplexing.gram_fail_out": verdict.get("fail_out", 0),
        "optimize.mm_inner_per_outer": ratio(calls.get("optimize.mm_step", 0),
                                             calls.get("optimize.mm_auxiliaries", 0)),
        "optimize.orient_evals_per_step": ratio(pas["orient_synth"],
                                                calls.get("optimize.mi_gradient", 0)),
        "optimize.mm_auxiliaries.out_bytes": pas["aux_bytes"],
        **{f"optimize.{k}": v for k, v in _quality(main).items()},
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "blas1.wall_s": blas1["walls"][0],
    })
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    report = {
        "timings": {"trace.wall_s": timing(main["traced_walls"]),
                    "trace.untraced_wall_s": timing(main["untraced_walls"])},
        "accounting": {
            # Self times of all spans, harness included, add up to the traced
            # set-up plus the traced pass whose layers are reported.
            "self_sum_s": sum(self_s.values()),
            "traced_setup_s": setup["wall_s"],
            "traced_pass_s": pas["wall_s"],
        },
        "counts_repeat": main["counts_repeat"],
        **digest_report([main]),
        "mm_auxiliaries_out_bytes": "computed from the returned arrays' nbytes",
    }
    return main, metrics, report, blas1


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    runner = Runner(workload, seed, smoke)
    extra = {"attempted": 0, "failed": 0}
    if trace:
        main, metrics, report, extra = per_layer(runner, seconds)
    else:
        main, metrics, report = end_to_end(runner, seconds)
    report.update(
        workload=workload,
        trace=int(trace),
        provenance={**main["provenance"], "blas_threads": runner.threads},
        first_pass=main["verdict0"],
    )
    attempted = main["attempted"] + extra["attempted"]
    failed = main["failed"] + extra["failed"]
    report["fail_frac"] = {"value": failed / attempted, "unit": "ratio"}
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def smoke() -> int:
    """Run every workload once at a tiny size in both modes and check the output."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run(w["name"], seed=1, seconds=0.0, trace=bool(trace), smoke=True)
            got = {k: v["unit"] for k, v in res["result"]["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json")
            if res["result"]["failed"]:
                problems.append(f"{w['name']} trace={trace}: failed operations")
            print(f"{w['name']} trace={trace}: {len(got)} metrics, "
                  f"{res['result']['attempted']} operations, {res['result']['failed']} failed")
    for line in problems:
        print("SMOKE FAIL", line, file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then one table of the end-to-end metrics."""
    rows, correct = [], True
    for workload in BLAS_THREADS:
        res = run(workload, seed, seconds, trace=False)
        print(json.dumps(res["report"]))
        correct = correct and res["result"]["correct"]
        shown = {**res["result"]["metrics"], "fail_frac": res["report"]["fail_frac"],
                 **res["report"].get("quality", {})}
        rows += [(workload, name, m["value"], m["unit"]) for name, m in shown.items()]
    for row in rows:
        print("%-14s %-13s %.10g %s" % row)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*BLAS_THREADS, "all"],
                    help="'all' runs every workload untraced and prints one table")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = ap.parse_args(argv)
    for needed in ("src/irsmimo/__init__.py", "scenarios/cascade_baseline.txt",
                   "scenarios/optimize_small.txt"):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(res["report"]))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
