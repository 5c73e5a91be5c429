"""The package's public names."""

from collections import Counter

import irsmimo


def test_every_export_resolves_once():
    # a deleted or renamed function must not leave a stale name behind, or
    # `from irsmimo import *` breaks
    assert [name for name, n in Counter(irsmimo.__all__).items() if n > 1] == []
    assert [name for name in irsmimo.__all__ if not hasattr(irsmimo, name)] == []
