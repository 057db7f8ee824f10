import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import efdkit


def test_every_exported_name_resolves():
    """perfbench's tracer wraps the functions each module lists in __all__
    and skips a name that does not resolve, so a stale entry would hide."""
    names = [m.name for m in pkgutil.iter_modules(efdkit.__path__)]
    assert "canonical" in names
    for name in names:
        module = importlib.import_module(f"efdkit.{name}")
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not stale, f"efdkit.{name}.__all__ lists {stale}"


def test_every_package_name_resolves():
    """efdkit.__all__ comes from the table that resolves each public name
    on first access, so each entry names a value of its module."""
    for name in efdkit.__all__:
        module = efdkit._OWNERS[name]
        assert getattr(efdkit, name) is getattr(importlib.import_module(f"efdkit.{module}"), name)
    names = {}
    exec("from efdkit import *", names)
    assert set(efdkit.__all__) <= set(names)
    assert not hasattr(efdkit, "no_such_name")


def test_import_loads_no_on_demand_module():
    """onez, selftest and gen are imported where they run; a bare import
    of the package neither imports them nor executes any of its modules."""
    code = (
        "import sys, types, efdkit\n"
        "print(sorted({'efdkit.onez', 'efdkit.selftest', 'efdkit.gen'} & set(sys.modules)),\n"
        "      sorted(n for n, m in sys.modules.items()\n"
        "             if n.startswith('efdkit.') and type(m) is types.ModuleType))\n"
    )
    src = str(Path(efdkit.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert done.stdout == "[] []\n"
