"""The names other code depends on: every ``tpalg.__all__`` entry, and every
function the benchmark's layer trace wraps, must resolve.  The package loads
them on first use, and a cold ``tpalg`` command imports only what it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tpalg

sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
import layertrace  # noqa: E402

SRC = Path(__file__).parent.parent / "src"


def test_public_names_resolve():
    missing = [name for name in tpalg.__all__ if not hasattr(tpalg, name)]
    assert not missing


def test_layertrace_targets_resolve():
    for layer, modname, path in layertrace.TARGETS:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), layer


def test_package_surface():
    assert set(tpalg.__all__) <= set(dir(tpalg))
    with pytest.raises(AttributeError, match="no_such_name"):
        tpalg.no_such_name
    namespace = {}
    exec("from tpalg import *", namespace)
    assert all(namespace[name] is getattr(tpalg, name) for name in tpalg.__all__)


def test_trace_round_trip_leaves_no_wrapper_in_package():
    original = tpalg.check_identity
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert tpalg.check_identity._perfbench_layer == "algebra.check_identity"
    finally:
        tracer.remove()
    assert tpalg.check_identity is original
    assert not [k for k, v in vars(tpalg).items() if getattr(v, "_perfbench_layer", None)]
    assert not tracer.leftover_wrappers()


def _modules_loaded_by(argv):
    """Modules that ``tpalg.cli.main(argv)`` loads in a fresh interpreter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tpalg.cli\n"
        f"code = tpalg.cli.main({argv!r})\n"
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_cold_family2d_loads_only_what_it_runs():
    loaded = _modules_loaded_by(["family2d", "--params", "a=h,b=0", "--order", "2"])
    assert "tpalg.deform" in loaded
    assert not loaded & {"dataclasses", "inspect", "tpalg.dim2", "tpalg.equiv"}


def test_cold_catalog_loads_dim2():
    loaded = _modules_loaded_by(["catalog", "--lam", "1"])
    assert {"tpalg.dim2", "tpalg.equiv"} <= loaded
