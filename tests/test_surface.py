"""The names other code depends on: every ``tpalg.__all__`` entry, and every
function the benchmark's layer trace wraps, must resolve.  The package loads
them on first use, and a cold ``tpalg`` command imports only what it runs.
No module keeps an import or a private alias it does not use, and no
private helper goes unused."""

import ast
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


def _module_level_names(tree):
    """The names a module binds at top level by an import, and by an
    assignment of another name to a private one (``_set = object.__setattr__``)."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.Name, ast.Attribute))
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.startswith("_")
        ):
            yield node.targets[0].id


@pytest.mark.parametrize("path", sorted((SRC / "tpalg").glob("*.py")), ids=lambda p: p.name)
def test_module_level_imports_and_aliases_are_used(path):
    tree = ast.parse(path.read_text())
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    dead = [name for name in _module_level_names(tree) if name not in used]
    assert not dead


def test_private_helpers_are_used():
    """Every private module-level function and class in ``src/tpalg`` is
    loaded by name somewhere in ``src/tpalg`` outside its own body."""
    defined, used = [], set()
    for path in sorted((SRC / "tpalg").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_"):
                defined.append(own)
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if name != own:
                        used.add(name)
    dead = [name for name in defined if not name.startswith("__") and name not in used]
    assert not dead


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
    assert "tpalg.dim2" in loaded
    assert "tpalg.equiv" not in loaded


def test_cold_operad_dims_skips_equiv():
    loaded = _modules_loaded_by(["operad-dims", "4"])
    assert "tpalg.dim2" in loaded
    assert "tpalg.equiv" not in loaded
