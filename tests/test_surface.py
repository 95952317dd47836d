"""The names other code depends on: every ``tpalg.__all__`` entry, and every
function the benchmark's layer trace wraps, must resolve."""

import importlib
import sys
from pathlib import Path

import tpalg

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import layertrace  # noqa: E402


def test_public_names_resolve():
    missing = [name for name in tpalg.__all__ if not hasattr(tpalg, name)]
    assert not missing


def test_layertrace_targets_resolve():
    for layer, modname, path in layertrace.TARGETS:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), layer
