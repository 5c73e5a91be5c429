"""The package's public names."""

import re
from collections import Counter
from pathlib import Path

import irsmimo

README = Path(__file__).resolve().parents[1] / "README.md"


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
