"""The package surface: each module's __all__ and the package re-exports agree."""
import importlib
import pkgutil
import types

import onticsim
from onticsim import errors

# the command-line runner is an entry point, not part of the library namespace
NOT_REEXPORTED = {"cli"}


def test_package_reexports_exactly_the_module_exports_and_errors():
    names = sorted(info.name for info in pkgutil.iter_modules(onticsim.__path__))
    exported = set()
    for name in names:
        module = importlib.import_module(f"onticsim.{name}")
        listed = getattr(module, "__all__", ())
        assert [n for n in listed if not hasattr(module, n)] == [], name
        if name not in NOT_REEXPORTED:
            exported.update(listed)
    error_classes = {
        n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)
    }
    public = {
        n
        for n, v in vars(onticsim).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == exported | error_classes
