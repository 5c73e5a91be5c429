"""The package's public names."""

import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import irsmimo

REPO_ROOT = Path(__file__).resolve().parents[1]
README = REPO_ROOT / "README.md"

# the classes that need __post_init__ checks, dataclasses.replace/fields or
# cached_property, and MmAuxiliaries, whose fields the benchmark's tracer reads
DATACLASSES = ["ArrayPose", "IrsLayout", "MmAuxiliaries", "PowerConfig", "ReflectionConfig",
               "Scenario", "WaveConfig"]

# the result records, immutable NamedTuples
RECORDS = ["AxisRegion", "ChannelSet", "CouplingConstants", "FmrBound", "GramReport", "LinkSide",
           "OptTrace", "OrientationSetting", "RayleighResult", "ResolvedLink", "SingularAllocation"]

# what a fresh interpreter has loaded once the command line is imported
IMPORT_PROBE = """
import sys
import irsmimo.cli
logging = "logging" in sys.modules
import dataclasses, inspect, json
classes = {(c.__module__, c.__name__) for name, m in list(sys.modules.items())
           if name.split(".")[0] == "irsmimo" for c in vars(m).values()
           if inspect.isclass(c) and c.__module__.split(".")[0] == "irsmimo"}
kinds = {"dataclass": [], "record": []}
for module, name in sorted(classes):
    cls = getattr(sys.modules[module], name)
    if dataclasses.is_dataclass(cls):
        kinds["dataclass"].append(name)
    elif issubclass(cls, tuple):
        kinds["record"].append([module, name])
print(json.dumps({"logging": logging, **kinds}))
"""


def test_every_export_resolves_once():
    # a deleted or renamed function must not leave a stale name behind, or
    # `from irsmimo import *` breaks
    assert [name for name, n in Counter(irsmimo.__all__).items() if n > 1] == []
    assert [name for name in irsmimo.__all__ if not hasattr(irsmimo, name)] == []


def test_readme_sketch_names_exist():
    # every im.<name> of the README's library sketch must be on the package
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", README.read_text(), re.S)
    assert sketch, "README has no Library sketch code block"
    names = set(re.findall(r"\bim\.(\w+)", sketch.group(1)))
    assert "build_channels" in names
    assert sorted(name for name in names if not hasattr(irsmimo, name)) == []


@pytest.fixture(scope="module")
def fresh_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_command_line_import_leaves_logging_out(fresh_import):
    # only mm_auxiliaries' rare covariance floor logs, and imports it there
    assert fresh_import["logging"] is False


def test_the_package_defines_seven_dataclasses(fresh_import):
    # each @dataclass costs about five NamedTuples at import
    assert sorted(fresh_import["dataclass"]) == DATACLASSES


def test_every_result_record_refuses_assignment(fresh_import):
    assert sorted(name for _, name in fresh_import["record"]) == RECORDS
    for module, name in fresh_import["record"]:
        cls = getattr(importlib.import_module(module), name)
        record = cls(*range(len(cls._fields)))
        for field in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, field, None)
