"""Each steen module's `__all__` is sorted and names only attributes it has.

The bench tracer wraps public functions by their `__all__` names and skips a
name the module no longer binds, so a stale entry would drop a traced layer
without an error.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import steen

MODULES = ["steen"] + sorted(f"steen.{info.name}" for info in pkgutil.iter_modules(steen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_is_sorted_and_bound(name):
    mod = importlib.import_module(name)
    names = list(mod.__all__)
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(mod, n)] == []
