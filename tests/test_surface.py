"""The package surface: each module's __all__ and the package re-exports agree,
no public callable grows an option without this file saying so, and no
removed name comes back."""
import importlib
import inspect
import pkgutil
import types

import onticsim
from onticsim import errors

# the command-line runner is an entry point, not part of the library namespace
NOT_REEXPORTED = {"cli"}

# module.name -> the parameters that have defaults, for every public callable that has any
PUBLIC_DEFAULTS = {
    "channels.QuantumChannel": ("validate",),
    "channels.channel_from_json": ("validate",),
    "cli.ScenarioConfig": ("params", "seed", "output_path", "format"),
    "cli.main": ("argv",),
    "cli.parse_config": ("scenario",),
    "ontic.ConditionalProbabilityTable": ("splits",),
}

# deleted with no shim: no module may define them again
REMOVED = (
    "table_to_json",
    "OnticDecomposition.reconstruct",
    "embed_operator",
    "density_matrix_to_json",
    "density_matrix_from_json",
    "projector_factorization_check",
    "FactorizationCheck",
    "FACTORIZATION_DEFECT",
    "table_to_csv",
    "correlational_entropy",
)

# parameters deleted with no shim: no public callable may take them again, with or without a
# default; a deleted dataclass field with no default is not a class attribute, so it is here
REMOVED_PARAMETERS = ("overlap_fn", "overlap_phases", "s_label", "e_label", "rho_w_pair")


def module_names():
    return sorted(info.name for info in pkgutil.iter_modules(onticsim.__path__))


def test_package_reexports_exactly_the_module_exports_and_errors():
    exported = set()
    for name in module_names():
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


def public_parameters():
    """module.name -> the signature parameters of every public callable but the error classes."""
    found = {}
    for name in module_names():
        module = importlib.import_module(f"onticsim.{name}")
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export)
            if not callable(value) or (isinstance(value, type) and issubclass(value, Exception)):
                continue
            found[f"{name}.{export}"] = tuple(inspect.signature(value).parameters.values())
    return found


def test_public_defaults_are_pinned():
    """A new option on a public function or dataclass is a visible edit here."""
    found = {}
    for dotted, params in public_parameters().items():
        defaults = tuple(p.name for p in params if p.default is not p.empty)
        if defaults:
            found[dotted] = defaults
    assert found == PUBLIC_DEFAULTS


def test_removed_parameters_stay_removed():
    found = [
        f"{dotted}({p.name})"
        for dotted, params in public_parameters().items()
        for p in params
        if p.name in REMOVED_PARAMETERS
    ]
    assert found == []


def test_removed_names_stay_removed():
    """No removed name is an attribute of the package or of any of its modules."""
    modules = [onticsim, *(importlib.import_module(f"onticsim.{n}") for n in module_names())]
    found = []
    for module in modules:
        for dotted in REMOVED:
            owner, _, name = dotted.rpartition(".")
            if hasattr(getattr(module, owner, None) if owner else module, name):
                found.append(f"{module.__name__}.{dotted}")
    assert found == []
