"""One benchmark process: set up a workload, run passes, print one JSON line.

Started by run.py with the BLAS thread count already pinned in the
environment and ``src`` on PYTHONPATH.  Modes:

* default: untraced passes over the workload's ``--inputs`` in turn, until
  ``--seconds`` have elapsed and every input has run once, with the
  workload's reference kernel timed before the first pass and after each.
  Reports pass times raw and scaled to the kernel's nominal speed, set-up
  time likewise, peak RSS, verdicts, each pass's input and output digests
  and, when it ran input 0, output quality.
* ``--trace``: alternates an untraced and a traced pass on input 0 for
  ``--seconds``, and reports per-layer counts and self times from the
  traced set-up plus the traced pass of median duration.
* ``--setup-only``: set-up time alone, raw and scaled, an extra set-up sample.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter


def _import_program():
    """Import irsmimo from this checkout's src/ and never from elsewhere."""
    import irsmimo

    src = os.path.realpath("src")
    if not os.path.realpath(irsmimo.__file__).startswith(src + os.sep):
        raise SystemExit(f"irsmimo imported from {irsmimo.__file__}, not from {src}")
    return irsmimo


def _provenance(irsmimo) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "irsmimo_version": irsmimo.__version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _untraced(wl, i):
    t0 = perf_counter()
    raw = wl.run_pass(i)
    return raw, perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inputs", default="0", help="comma-separated input numbers")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs for the smoke check")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    irsmimo = _import_program()
    import workloads

    size = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, size)
    setup_s = perf_counter() - t0
    import reference

    # Set-up is interpreted import and parsing work, so it is scaled by the
    # interp kernel timed right after it, whatever the workload's passes use.
    reference.warm_up("interp")
    setup_ref = reference.kernel_s("interp")
    out = {"setup_s": setup_s,
           "setup_scaled_s": setup_s * reference.NOMINAL_S["interp"] / setup_ref}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    out["provenance"] = {**_provenance(irsmimo), **wl.provenance, "seed": args.seed}
    verdicts, inputs = [], []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        _, setup_summary = tracer.run("setup", lambda: cls(args.seed, size))
        plain, traced = [], []
        start = perf_counter()
        while not traced or perf_counter() - start < args.seconds:
            raw, wall = _untraced(wl, 0)
            plain.append(wall)
            verdicts.append(wl.check(raw))
            raw, summary = tracer.run(len(traced), lambda: wl.run_pass(0))
            verdicts.append(wl.check(raw))
            inputs += [0, 0]
            summary["verdict"] = verdicts[-1]
            if not traced:
                first_raw = raw
            traced.append(summary)
        ranked = sorted(traced, key=lambda s: s["wall_s"])
        median = ranked[(len(ranked) - 1) // 2]
        out.update(
            untraced_walls=plain,
            traced_walls=[s["wall_s"] for s in traced],
            counts_repeat=all(s["calls"] == traced[0]["calls"] for s in traced),
            setup_trace=setup_summary,
            pass_trace={key: median[key] for key in
                        ("wall_s", "calls", "self_s", "orient_synth", "aux_bytes", "verdict")},
        )
    else:
        walls = []
        kind = wl.reference
        reference.warm_up(kind)
        refs = [reference.kernel_s(kind)]
        start = perf_counter()
        share = [int(i) for i in args.inputs.split(",")]
        while len(walls) < len(share) or perf_counter() - start < args.seconds:
            i = share[len(walls) % len(share)]
            raw, wall = _untraced(wl, i)
            walls.append(wall)
            refs.append(reference.kernel_s(kind))
            verdicts.append(wl.check(raw))
            if i == 0 and 0 not in inputs:
                first_raw = raw
            inputs.append(i)
        out["walls"] = walls
        out["refs"] = refs
        out["reference"], out["nominal_s"] = kind, reference.NOMINAL_S[kind]
        # Each pass against the mean of the kernel times on either side of it.
        out["scaled"] = [wall * reference.NOMINAL_S[kind] * 2.0 / (before + after)
                         for wall, before, after in zip(walls, refs, refs[1:])]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    out["attempted"] = sum(v["attempted"] for v in verdicts)
    out["failed"] = sum(v["failed"] for v in verdicts)
    out["verdict0"] = verdicts[0]
    out["inputs"] = inputs
    out["digests"] = [v["digests"] for v in verdicts]
    if hasattr(wl, "quality") and 0 in inputs:
        out["quality"] = wl.quality(first_raw)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
