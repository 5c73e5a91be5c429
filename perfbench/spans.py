"""Spans around the public functions of each irsmimo module.

The tracer patches a function at the module attribute its callers look it
up through (for example ``channel.re_local_components``, which channel
imported from geometry), so the program itself is never edited.  Each span
is ``[name, start, end, parent_index, pass_id]``; spans stay in memory and
are summarised per pass into call counts and self times, where a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute callers use, metric name).  Ordered by module so the
# per-layer listing reads top-down.
TRACED = (
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("cli", "parse_scenario", "scenario.parse_scenario"),
    ("channel", "re_local_components", "geometry.re_local_components"),
    ("response", "eta0", "response.eta0"),
    ("channel", "tx_irs_channel", "channel.tx_irs_channel"),
    ("channel", "irs_rx_channel", "channel.irs_rx_channel"),
    ("channel", "reflective_focusing", "channel.reflective_focusing"),
    ("channel", "build_channels", "channel.build_channels"),
    ("channel", "orientation_phase_jacobian", "channel.orientation_phase_jacobian"),
    ("multiplexing", "fmr_inner_bound", "multiplexing.fmr_inner_bound"),
    ("multiplexing", "region_contains", "multiplexing.region_contains"),
    ("multiplexing", "fmr_orientations", "multiplexing.fmr_orientations"),
    ("multiplexing", "fmr_probe_orientation", "multiplexing.fmr_probe_orientation"),
    ("multiplexing", "check_orthogonality", "multiplexing.check_orthogonality"),
    ("optimize", "focusing_init", "optimize.focusing_init"),
    ("optimize", "alternating_optimize", "optimize.alternating_optimize"),
    ("optimize", "optimize_theta", "optimize.optimize_theta"),
    ("optimize", "optimize_orientation", "optimize.optimize_orientation"),
    ("optimize", "mm_auxiliaries", "optimize.mm_auxiliaries"),
    ("optimize", "largest_eigenvalue", "optimize.largest_eigenvalue"),
    ("optimize", "mm_step", "optimize.mm_step"),
    ("optimize", "qcqp_objective", "optimize.qcqp_objective"),
    ("optimize", "mutual_information", "optimize.mutual_information"),
    ("optimize", "mi_gradient", "optimize.mi_gradient"),
    ("optimize", "mi_upper_bound", "optimize.mi_upper_bound"),
    ("cli", "main", "cli.main"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))
ROOT = "bench.harness"


def _out_bytes(result) -> int:
    """Computed bytes of the arrays a dataclass result holds."""
    return sum(
        getattr(getattr(result, f.name), "nbytes", 0) for f in dataclasses.fields(result)
    )


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self.modules = {mod: importlib.import_module(f"irsmimo.{mod}") for mod, _, _ in TRACED}
        self.spans: list = []
        self.stack: list = []
        self.pass_id = None
        self.aux_bytes = 0
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        record_bytes = name == "optimize.mm_auxiliaries"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if record_bytes:
                self.aux_bytes = max(self.aux_bytes, _out_bytes(result))
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name in TRACED:
            mod = self.modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def run(self, pass_id, fn):
        """Call fn under one root span; returns (result, summary)."""
        self.spans.clear()
        self.aux_bytes = 0
        self.pass_id = pass_id
        self.install()
        try:
            root = [ROOT, perf_counter(), 0.0, None, pass_id]
            self.spans.append(root)
            self.stack.append(0)
            try:
                result = fn()
            finally:
                root[2] = perf_counter()
                self.stack.pop()
        finally:
            self.uninstall()
        return result, self.summary()

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the derived ratios."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]

        def under(i, ancestor):
            parent = spans[i][3]
            while parent is not None:
                if spans[parent][0] == ancestor:
                    return True
                parent = spans[parent][3]
            return False

        orient_synth = sum(
            1
            for i, span in enumerate(spans)
            if span[0] == "channel.tx_irs_channel" and under(i, "optimize.optimize_orientation")
        )
        root = spans[0]
        return {
            "wall_s": root[2] - root[1],
            "calls": dict(calls),
            "self_s": dict(self_s),
            "orient_synth": orient_synth,
            "aux_bytes": self.aux_bytes,
        }
