"""The names the benchmark uses must exist on the package.

perfbench/spans.py wraps each (module, attribute) pair of its TRACED table
with getattr/setattr at run time, and perfbench/workloads.py calls irsmimo
functions by module attribute and keyword, so a renamed or deleted function
or keyword breaks every benchmark run without failing any other test.  The
table, the attributes and the keywords are read from the files themselves,
so they are never copied here.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import irsmimo
from irsmimo import build_channels, mm_auxiliaries, parse_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def traced_pairs():
    tree = ast.parse((REPO_ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TRACED table")


@pytest.mark.parametrize("module, attr", traced_pairs())
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"irsmimo.{module}"), attr))


def workload_uses():
    """({(module, attribute)}, {(module, function, keyword)}, {(module,
    function, keyword, key)}) of workloads.py, the last for each key of a
    dict literal passed as a keyword (the stops handed to a block).

    Modules are found through the file's `from irsmimo import x as y`
    aliases.  A `**name` argument is resolved to the dict literal assigned
    to that name (or self attribute) in the file.
    """
    tree = ast.parse((REPO_ROOT / "perfbench" / "workloads.py").read_text())
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "irsmimo"
        for alias in node.names
    }
    dicts = {
        ast.unparse(target): node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        for target in node.targets
    }

    def module_attr(node):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            return aliases[node.value.id], node.attr
        return None

    def passed(kw):
        """(keyword, value node) of each keyword the argument kw passes."""
        if kw.arg:
            return [(kw.arg, kw.value)]
        literal = dicts[ast.unparse(kw.value)]
        return [(k.value, v) for k, v in zip(literal.keys, literal.values)
                if isinstance(k, ast.Constant)]

    attrs, keywords, keys = set(), set(), set()
    for node in ast.walk(tree):
        if module_attr(node):
            attrs.add(module_attr(node))
        if isinstance(node, ast.Call) and module_attr(node.func):
            for kw in node.keywords:
                for name, value in passed(kw):
                    keywords.add((*module_attr(node.func), name))
                    if isinstance(value, ast.Dict):
                        keys.update((*module_attr(node.func), name, k.value)
                                    for k in value.keys if isinstance(k, ast.Constant))
    return attrs, keywords, keys


WORKLOAD_ATTRS, WORKLOAD_KEYWORDS, WORKLOAD_STOP_KEYS = (sorted(uses) for uses in workload_uses())

# what consumes each stop dict: alternating_optimize reads both itself, the
# first's one key, max_outer, accepted and unused, and the second for its
# joint ascent, and refuses any other key
STOP_SOLVERS = {
    "theta_stop": "alternating_optimize",
    "orient_stop": "alternating_optimize",
}


def test_workload_uses_are_found():
    # the parse must see the workloads' calls, or the tests below check nothing
    assert ("optimize", "alternating_optimize") in WORKLOAD_ATTRS
    assert {kw for _, _, kw in WORKLOAD_KEYWORDS} >= {
        "theta_stop", "orient_stop", "max_rounds", "max_outer", "seed"
    }
    assert {(kw, key) for _, _, kw, key in WORKLOAD_STOP_KEYS} >= {
        ("theta_stop", "max_outer"), ("orient_stop", "max_iters")
    }


def accepts_keyword(fn, keyword):
    params = inspect.signature(fn).parameters
    return keyword in params and params[keyword].kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY
    )


@pytest.mark.parametrize("module, attr", WORKLOAD_ATTRS)
def test_workload_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module(f"irsmimo.{module}"), attr)


@pytest.mark.parametrize("module, func, keyword", WORKLOAD_KEYWORDS)
def test_workload_keyword_is_accepted(module, func, keyword):
    assert accepts_keyword(getattr(importlib.import_module(f"irsmimo.{module}"), func), keyword)


@pytest.mark.parametrize("module, func, keyword, key", WORKLOAD_STOP_KEYS)
def test_workload_stop_key_is_accepted(module, func, keyword, key):
    # each key of a stop dict is accepted by what consumes the dict, which
    # refuses an unknown key before it runs a round
    mod = importlib.import_module(f"irsmimo.{module}")
    assert (module, func) == ("optimize", "alternating_optimize")
    consumer = getattr(mod, STOP_SOLVERS[keyword])
    scn = parse_scenario(str(REPO_ROOT / "scenarios" / "optimize_small.txt"))
    consumer(scn, seed=0, max_rounds=0, **{keyword: {key: 1}})
    with pytest.raises(TypeError):
        consumer(scn, seed=0, max_rounds=0, **{keyword: {key: 1, "no_such_stop": 1}})


def test_an_opt_portfolio_pass_fails_no_start(monkeypatch):
    # perfbench/test_smoke.py lies outside testpaths; this is the benchmark's
    # own failure gate on one opt_portfolio pass, run in process from the
    # repository root as perfbench/run.py runs it
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    bench = workloads.OptPortfolio(1, workloads.FULL["opt_portfolio"])
    assert bench.check(bench.run_pass(0))["failed"] == 0


@pytest.mark.parametrize("workload, entry", [
    ("fmr_map", "cli.main"),
    ("opt_portfolio", "optimize.alternating_optimize"),
    ("mm_large", "optimize.optimize_theta"),
])
def test_a_traced_smoke_pass_fails_nothing(monkeypatch, workload, entry):
    # perfbench/run.py --trace 1 runs input 0 with every TRACED name wrapped;
    # here one such pass of each workload at smoke size, in process, passes
    # the workload's own check and books calls to the function it times
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    bench = workloads.WORKLOADS[workload](1, workloads.SMOKE[workload])
    raw, summary = spans.Tracer().run(0, lambda: bench.run_pass(0))
    assert bench.check(raw)["failed"] == 0
    assert summary["calls"].get(entry, 0) >= 1


def test_mm_auxiliaries_returns_a_dataclass_of_arrays():
    # the tracer sums the nbytes of the returned record's fields
    scn = parse_scenario(str(REPO_ROOT / "scenarios" / "optimize_small.txt"))
    cs = build_channels(scn)
    aux = mm_auxiliaries(cs.h_t, cs.h_r, cs.theta, cs.eta0, scn.power)
    assert dataclasses.is_dataclass(aux) and not isinstance(aux, type)
    fields = dataclasses.fields(aux)
    assert fields
    assert all(isinstance(getattr(aux, f.name), np.ndarray) for f in fields)


@pytest.mark.parametrize(
    "workload", [w["name"] for w in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]
)
def test_a_worker_sets_up_each_workload(workload):
    # the benchmark's set-up, in a fresh process from the repository root as
    # perfbench/run.py starts it; perfbench/test_smoke.py covers the rest
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "1", "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=REPO_ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0


def test_every_bench_record_names_a_workload_and_its_run():
    # each root BENCH_*.json records one workload's measured change; the
    # entries it replaced stay in its `earlier` list
    workloads = {w["name"] for w in json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]}
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        assert record["workload"] in workloads, path.name
        missing = {"commands", "machine", "nproc", "parent", "change", "pairs"} - record.keys()
        assert not missing, (path.name, missing)
        assert isinstance(record.get("earlier", []), list), path.name


# exports that nothing in src/ or the benchmark reads, each with why it
# stays: paper results that wait for a command, or for the pose-free
# capacity bound, to read them
UNREAD_EXPORTS = {
    "allocation_rate": "the paper's MI bound at a singular-value allocation",
    "amplitude_variation": "the paper's element amplitude variation, with no command yet",
    "far_field_boundary_irs": "the paper's far-field boundary of the surface, with no command yet",
    "far_field_boundary_re": "the paper's far-field boundary of one element, with no command yet",
    "path_loss": "the paper's per-hop path loss with absorption, with no command yet",
    "relaxed_optimum": "the paper's singular-value split of the relaxed MI bound",
}


def src_public_reads():
    """({(module, name)} of the package's module-level public functions and
    classes, {(module, name)} of those read by src/ code outside their own
    definition).

    A read is a bare name in its own module, a name imported with `from .m
    import name`, or an attribute of a module imported with `from . import
    m`; the package's __init__ re-exports are __all__'s, not reads.
    """
    src = REPO_ROOT / "src" / "irsmimo"
    defined, reads = set(), set()
    for path in sorted(src.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = (module, top.name)
                if not top.name.startswith("_") and module != "__init__":
                    defined.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read = names.get(node.id, (module, node.id))
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    read = (modules[node.value.id], node.attr)
                else:
                    continue
                if read != own:
                    reads.add(read)
    return defined, reads


def unread_public_names():
    """{(module, name)} of the public functions and classes that neither
    src/ nor the benchmark's tracer or workloads read."""
    defined, reads = src_public_reads()
    assert ("channel", "build_channels") in defined and ("channel", "pose_side") in reads
    return defined - reads - set(traced_pairs()) - set(WORKLOAD_ATTRS)


def test_every_public_name_is_exported_or_read():
    # a helper whose last caller went away stays behind as an orphan; each
    # public function or class is in irsmimo.__all__, read by src/, or named
    # by the benchmark's tracer or workloads
    orphans = sorted(
        (module, name) for module, name in unread_public_names()
        if name not in irsmimo.__all__
    )
    assert orphans == []


def test_unread_exports_are_the_listed_paper_results():
    # a ratchet: an export that loses its last reader, or a listed one that
    # gains one, has to move UNREAD_EXPORTS with it
    unread = {name for _, name in unread_public_names() if name in irsmimo.__all__}
    assert unread == set(UNREAD_EXPORTS)
