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
    "channels.entangling_cnot_family": ("s_label", "e_label"),
    "channels.factorized_family": ("s_label", "e_label"),
    "channels.swap_refactorizing_family": ("s_label", "e_label"),
    "cli.ScenarioConfig": ("params", "seed", "output_path", "format"),
    "cli.main": ("argv",),
    "cli.parse_config": ("scenario",),
    "measurement.MeasurementModel": ("overlap_fn",),
    "measurement.simulate_measurement": ("overlap_phases",),
    "ontic.ConditionalProbabilityTable": ("splits",),
    "opendyn.bell_state": ("s_label", "e_label"),
    "opendyn.werner_state": ("s_label", "e_label"),
    "opendyn.witness_pair_bell_vs_product": ("s_label", "e_label"),
    "opendyn.witness_pair_werner": ("s_label", "e_label"),
}

# deleted with no shim: no module may define them again
REMOVED = (
    "table_to_json",
    "OnticDecomposition.reconstruct",
    "embed_operator",
    "density_matrix_to_json",
    "density_matrix_from_json",
)


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


def test_public_defaults_are_pinned():
    """A new option on a public function or dataclass is a visible edit here."""
    found = {}
    for name in module_names():
        module = importlib.import_module(f"onticsim.{name}")
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export)
            if not callable(value) or (isinstance(value, type) and issubclass(value, Exception)):
                continue
            params = inspect.signature(value).parameters.values()
            defaults = tuple(p.name for p in params if p.default is not p.empty)
            if defaults:
                found[f"{name}.{export}"] = defaults
    assert found == PUBLIC_DEFAULTS


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
