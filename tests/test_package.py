import importlib
import pkgutil

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
