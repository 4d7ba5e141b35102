"""Command-line scenario runner over flat key = value config files.

Subcommands name the scenario; a config file supplies parameters, and
the --seed / --out / --format flags override their config counterparts.
Sizes are capped at the config boundary, so no config can ask for an
unbounded allocation.

Each scenario runner returns its result as data: csv columns and rows, a
json document, a summary line and an exit code.  `run` is the only code
that encodes a result, in the requested format only, and `main` is the
only code that maps an error to an exit code: 0 success, 2 config parse
failure (with line and column diagnostics), 4 tolerance breach (including
a failed channel verification), and 3 for any other domain error raised
from a config, including an artifact that would hold a non-finite number
and an output path that cannot be written.

Output files are written atomically (temp file plus rename) and are
byte-identical for identical (config, seed) pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .channels import (
    CNOT,
    HADAMARD,
    SWAP,
    QuantumChannel,
    UnitaryOperator,
    channel_from_json,
    entangling_cnot_family,
    factorized_family,
    semigroup_defect,
    swap_refactorizing_family,
    unitary_channel,
    verify_cptp,
)
from .errors import OnticSimError, ToleranceBreach
from .measurement import MeasurementModel, born_conditional_check, decoherence_scaling_sweep
from .opendyn import (
    nonlinearity_witness,
    witness_pair_bell_vs_product,
    witness_pair_werner,
    witness_report_to_json,
)
from .qcore import DensityMatrix, HilbertSpace, PureState, _csv_text, basis_state, maximally_mixed
from .trajectories import (
    bloch_helix,
    enumerate_trajectory_measure,
    markov_chain_from_repeated_interaction,
    measure_to_json,
    sample_trajectory,
)

__all__ = ["ScenarioConfig", "ParseFailure", "ValidationFailure", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_TOLERANCE = 4


class ParseFailure(OnticSimError):
    """Config text is malformed; carries one message per violation."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class ValidationFailure(OnticSimError):
    """Config parsed but a parameter is out of its allowed range."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


# ---------------------------------------------------------------------------
# parameter schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # int | float | str | int_list | complex_list
    default: object  # None marks a required parameter
    choices: tuple[str, ...] | None = None
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False


# size caps: a config past one is refused before anything is allocated
_MAX_DIM = 1024
_MAX_POINTS = 10**6
_MAX_STEPS = 10**4
_MAX_LIST_LENGTH = 1024
_MAX_CHOI_DIM = 4096  # verify's d_in * d_out: past it the Choi matrix tops 256 MiB

_MEASURE_COMMON = [
    ParamSpec("psi", "complex_list", ()),
    ParamSpec("gamma_a", "float", 1.0, minimum=0.0),
    ParamSpec("gamma_e", "float", 1.0, minimum=0.0),
    ParamSpec("dt", "float", 0.5, minimum=0.0),
]

SCENARIOS: dict[str, list[ParamSpec]] = {
    "measure": [
        ParamSpec("subject_dim", "int", None, minimum=2, maximum=_MAX_DIM),
        ParamSpec("n_a", "int", 10, minimum=0),
        ParamSpec("n_e", "int", 10, minimum=0),
        *_MEASURE_COMMON,
    ],
    "sweep": [
        ParamSpec("subject_dim", "int", 2, minimum=2, maximum=_MAX_DIM),
        ParamSpec("n_values", "int_list", (4, 8, 16, 32), minimum=0),
        ParamSpec("n_a", "int", 1, minimum=0),
        ParamSpec("n_e", "int", 1, minimum=0),
        *_MEASURE_COMMON,
    ],
    "semigroup": [
        ParamSpec(
            "family",
            "str",
            "entangling_cnot",
            choices=("factorized", "swap_refactorizing", "entangling_cnot"),
        ),
        ParamSpec("t1", "float", 0.6, minimum=0.0, exclusive_min=True),
        ParamSpec("t2", "float", 1.3, minimum=0.0, exclusive_min=True),
        ParamSpec("probe", "str", "plus", choices=("plus", "zero", "mixed")),
    ],
    "trajectories": [
        ParamSpec("mode", "str", "enumerate", choices=("enumerate", "sample")),
        ParamSpec("steps", "int", 4, minimum=1, maximum=_MAX_STEPS),
        ParamSpec("step", "float", 0.4, minimum=0.0, exclusive_min=True),
        ParamSpec("rate", "float", 1.0, minimum=0.0, exclusive_min=True),
        ParamSpec("p0", "float", 0.7, minimum=0.0, maximum=1.0),
    ],
    "helix": [
        ParamSpec("omega", "float", 1.0),
        ParamSpec("points", "int", 100, minimum=2, maximum=_MAX_POINTS),
        ParamSpec("t_max", "float", 2.0 * math.pi, minimum=0.0, exclusive_min=True),
    ],
    "nonlinear": [
        ParamSpec("pair", "str", "bell_vs_product", choices=("bell_vs_product", "werner")),
        ParamSpec("channel", "str", "cnot", choices=("cnot", "factorized")),
        ParamSpec("lam1", "float", 1.0, minimum=0.0, maximum=1.0),
        ParamSpec("lam2", "float", 0.0, minimum=0.0, maximum=1.0),
    ],
    "verify": [
        ParamSpec("channel_path", "str", None),
    ],
}

DEFAULT_FORMATS = {
    "measure": "csv",
    "sweep": "csv",
    "semigroup": "json",
    "trajectories": "json",
    "helix": "csv",
    "nonlinear": "json",
    "verify": "json",
}

MAX_SEED = 2**64 - 1
_SEED = ParamSpec("seed", "int", 0, minimum=0, maximum=MAX_SEED)


@dataclass
class ScenarioConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str | None = None
    format: str | None = None

    def resolved_format(self) -> str:
        return self.format or DEFAULT_FORMATS[self.scenario]

    def resolved_output_path(self) -> str:
        return self.output_path or f"{self.scenario}.{self.resolved_format()}"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _scan_lines(text: str) -> tuple[dict[str, tuple[str, int, int]], list[str]]:
    """Key/value extraction with positions; returns entries and violations."""
    entries: dict[str, tuple[str, int, int]] = {}
    violations: list[str] = []
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            violations.append(f"line {lineno}, column 1: expected 'key = value', got {raw.strip()!r}")
            continue
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        if not key:
            violations.append(f"line {lineno}, column 1: empty key before '='")
            continue
        col = raw.index(key) + 1
        if key in first_line:
            violations.append(
                f"line {lineno}, column {col}: duplicate key {key!r}, first set on line {first_line[key]}"
            )
            continue
        first_line[key] = lineno
        entries[key] = (value_part.strip(), lineno, col)
    return entries, violations


def _convert(spec: ParamSpec, text: str, lineno: int, col: int, violations: list[str]):
    where = f"line {lineno}, column {col}"
    try:
        if spec.kind == "int":
            return int(text)
        if spec.kind == "float":
            return float(text)
        if spec.kind == "str":
            return text
        if spec.kind == "int_list":
            return tuple(int(part.strip()) for part in text.split(",") if part.strip())
        if spec.kind == "complex_list":
            return tuple(complex(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        violations.append(f"{where}: cannot parse {spec.name} value {text!r} as {spec.kind}")
        return None
    raise AssertionError(f"unhandled kind {spec.kind}")


def _range_check(spec: ParamSpec, value, problems: list[str]) -> None:
    scalars = value if isinstance(value, tuple) and spec.kind == "int_list" else (value,)
    if spec.kind == "int_list" and not 1 <= len(value) <= _MAX_LIST_LENGTH:
        problems.append(f"{spec.name} must hold 1 to {_MAX_LIST_LENGTH} values, got {len(value)}")
    if spec.kind in ("int", "float", "int_list"):
        for x in scalars:
            if spec.minimum is not None:
                if spec.exclusive_min and x <= spec.minimum:
                    problems.append(f"{spec.name} must be greater than {spec.minimum}, got {x}")
                elif not spec.exclusive_min and x < spec.minimum:
                    problems.append(f"{spec.name} must be at least {spec.minimum}, got {x}")
            if spec.maximum is not None and x > spec.maximum:
                problems.append(f"{spec.name} must be at most {spec.maximum}, got {x}")
    if spec.choices is not None and value not in spec.choices:
        problems.append(f"{spec.name} must be one of {list(spec.choices)}, got {value!r}")


def parse_config(text: str, scenario: str | None = None) -> ScenarioConfig:
    """Parse flat `key = value` config text into a resolved ScenarioConfig.

    Raises ParseFailure for structural problems (bad lines, duplicate or
    unknown keys, unparseable values, missing required keys) and
    ValidationFailure for out-of-range numbers.  `scenario`, when given,
    acts as the default and must match any scenario key in the text.
    """
    entries, violations = _scan_lines(text)

    declared = entries.pop("scenario", None)
    if declared is not None:
        name, lineno, col = declared
        if name not in SCENARIOS:
            violations.append(
                f"line {lineno}, column {col}: unknown scenario {name!r}, "
                f"expected one of {sorted(SCENARIOS)}"
            )
            name = None
        elif scenario is not None and name != scenario:
            violations.append(
                f"line {lineno}, column {col}: config names scenario {name!r} "
                f"but {scenario!r} was requested"
            )
    else:
        name = scenario
        if name is None:
            violations.append("line 1, column 1: missing required key 'scenario'")
    if violations and name is None:
        raise ParseFailure(violations)
    assert name is not None

    config = ScenarioConfig(scenario=name)
    range_problems: list[str] = []

    if "seed" in entries:
        seed = _convert(_SEED, *entries.pop("seed"), violations)
        if seed is not None:
            config.seed = seed
    if "out" in entries:
        config.output_path = entries.pop("out")[0]
    if "format" in entries:
        fmt, lineno, col = entries.pop("format")
        if fmt not in ("csv", "json"):
            range_problems.append(f"format must be csv or json, got {fmt!r}")
        else:
            config.format = fmt

    specs = {spec.name: spec for spec in SCENARIOS[name]}
    for key, (text_value, lineno, col) in entries.items():
        if key not in specs:
            violations.append(
                f"line {lineno}, column {col}: unknown key {key!r} for scenario {name!r}"
            )
            continue
        value = _convert(specs[key], text_value, lineno, col, violations)
        if value is not None:
            config.params[key] = value
            if specs[key].kind in ("float", "complex_list") and not np.isfinite(value).all():
                range_problems.append(f"line {lineno}, column {col}: {key} must be finite")

    for spec in specs.values():
        if spec.name not in config.params:
            if spec.default is None:
                violations.append(
                    f"scenario {name!r} is missing required key {spec.name!r}"
                )
            else:
                config.params[spec.name] = spec.default

    if violations:
        raise ParseFailure(violations)

    for spec in specs.values():
        _range_check(spec, config.params[spec.name], range_problems)
    _range_check(_SEED, config.seed, range_problems)
    if range_problems:
        raise ValidationFailure(range_problems)
    return config


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _atomic_write(path: str, data: bytes) -> None:
    """Temp file plus rename; an OSError is a ValidationFailure and leaves no temp file."""
    target = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=".onticsim-")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, target)
        tmp = None
    except OSError as err:
        raise ValidationFailure([f"cannot write {path!r}: {err.strerror or err}"]) from err
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _subject_state(dim: int, amplitudes: tuple[complex, ...]) -> PureState:
    space = HilbertSpace.of(("s", dim))
    if not amplitudes:
        vec = np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128)
        return PureState(space, vec)
    vec = np.array(amplitudes, dtype=np.complex128)
    if len(vec) != dim:
        raise ValidationFailure([f"psi has {len(vec)} amplitudes, subject_dim is {dim}"])
    with np.errstate(over="ignore"):  # huge finite amplitudes: an inf norm, refused below
        norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-6:
        raise ValidationFailure([f"psi norm is {norm}, must be 1 within 1e-6"])
    return PureState(space, vec / norm)


# what a runner returns: csv columns, csv rows, json document, summary line,
# exit code; rows may be a generator, so a json run never formats csv cells
_Result = tuple[Sequence[str], Iterable[Sequence], object, str, int]


def _one_record(record: dict, summary: str, code: int = EXIT_OK) -> _Result:
    """A one-row artifact whose json document is the record itself."""
    return list(record), [tuple(record.values())], record, summary, code


def _sweep(params: dict, n_values: list[int]) -> tuple[MeasurementModel, PureState, list[dict]]:
    """The template model, the subject state and one record per total count."""
    model = MeasurementModel(
        subject_dim=params["subject_dim"],
        n_a=params["n_a"],
        n_e=params["n_e"],
        gamma_a=params["gamma_a"],
        gamma_e=params["gamma_e"],
        dt=params["dt"],
    )
    psi = _subject_state(params["subject_dim"], params["psi"])
    records = [
        {
            "N": point.n,
            "overlap_A": float(point.overlap_a),
            "overlap_E": float(point.overlap_e),
            "max_offdiag": float(point.max_offdiag),
            "max_born_deviation": float(point.max_born_deviation),
            "S_max": float(point.s_max),
            "bound": float(point.bound),
        }
        for point in decoherence_scaling_sweep(model, psi, n_values)
    ]
    return model, psi, records


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _run_measure(config: ScenarioConfig) -> _Result:
    p = config.params
    # at the template's own total count the sweep keeps n_a and n_e exactly
    model, psi, (record,) = _sweep(p, [p["n_a"] + p["n_e"]])
    check = born_conditional_check(model, psi)
    summary = (
        f"measure: d={model.subject_dim} N_A={model.n_a} N_E={model.n_e} "
        f"max_offdiag={record['max_offdiag']:.6g} "
        f"max_born_deviation={record['max_born_deviation']:.6g} born_check={check:.6g}"
    )
    return _one_record(record, summary)


def _run_sweep(config: ScenarioConfig) -> _Result:
    p = config.params
    model, _, records = _sweep(p, list(p["n_values"]))
    summary = (
        f"sweep: d={model.subject_dim} N={list(p['n_values'])} "
        f"final_max_offdiag={records[-1]['max_offdiag']:.6g}"
    )
    return list(records[0]), (tuple(r.values()) for r in records), records, summary, EXIT_OK


_FAMILIES = {
    "factorized": factorized_family,
    "swap_refactorizing": swap_refactorizing_family,
    "entangling_cnot": entangling_cnot_family,
}


def _run_semigroup(config: ScenarioConfig) -> _Result:
    p = config.params
    family = _FAMILIES[p["family"]]()
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    s_space = HilbertSpace.of(("s", 2))
    probes = {
        "plus": PureState(s_space, np.array([1.0, 1.0]) / math.sqrt(2)).density_matrix(),
        "zero": basis_state(s_space, 0).density_matrix(),
        "mixed": maximally_mixed(s_space),
    }
    if p["t2"] <= p["t1"]:
        raise ValidationFailure([f"t2 must exceed t1, got t1={p['t1']}, t2={p['t2']}"])
    defect = semigroup_defect(
        family, env, (["s"], ["e"]), p["t1"], p["t2"], probes[p["probe"]]
    )
    record = {
        "family": p["family"],
        "t1": float(p["t1"]),
        "t2": float(p["t2"]),
        "probe": p["probe"],
        "defect": float(defect),
    }
    summary = f"semigroup: family={p['family']} t1={p['t1']:g} t2={p['t2']:g} defect={defect:.6g}"
    return _one_record(record, summary)


def _run_trajectories(config: ScenarioConfig) -> _Result:
    p = config.params
    rho_s0 = DensityMatrix(
        HilbertSpace.of(("s", 2)), np.diag([p["p0"], 1.0 - p["p0"]]).astype(np.complex128)
    )
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    chain = markov_chain_from_repeated_interaction(
        p["rate"] * SWAP, env, rho_s0, p["step"], p["steps"]
    )
    if p["mode"] == "enumerate":
        measure = enumerate_trajectory_measure(chain, 2, 0)
        document = measure_to_json(chain, measure)
        columns = [*(f"i{k}" for k in range(len(chain.kernels) + 1)), "p"]
        rows = ((*t["indices"], t["p"]) for t in document["trajectories"])
        summary = (
            f"trajectories: enumerated {len(measure)} paths over {len(chain.kernels)} steps, "
            f"mass={math.fsum(measure.values()):.12g}"
        )
    else:
        traj = sample_trajectory(chain, 0, (config.seed, 0))
        document = {"times": list(traj.times), "indices": list(traj.indices)}
        columns, rows = ("t", "index"), zip(traj.times, traj.indices)
        summary = f"trajectories: sampled {traj.indices} seed={config.seed}"
    return columns, rows, document, summary, EXIT_OK


def _run_helix(config: ScenarioConfig) -> _Result:
    p = config.params
    times = np.linspace(0.0, p["t_max"], p["points"])
    strand1, strand2 = bloch_helix(p["omega"], times)
    document = {"times": times.tolist(), "strand1": strand1.tolist(), "strand2": strand2.tolist()}
    columns = ("t", "index", "theta1", "phi1", "theta2", "phi2")
    rows = (
        (t, 0, *a, *b)
        for t, a, b in zip(document["times"], document["strand1"], document["strand2"])
    )
    summary = f"helix: omega={p['omega']:g} points={p['points']} t_max={p['t_max']:g}"
    return columns, rows, document, summary, EXIT_OK


def _run_nonlinear(config: ScenarioConfig) -> _Result:
    p = config.params
    if p["pair"] == "bell_vs_product":
        pair = witness_pair_bell_vs_product()
    else:
        pair = witness_pair_werner(p["lam1"], p["lam2"])
    space = pair.rho_1.space
    if p["channel"] == "cnot":
        channel = unitary_channel(UnitaryOperator(space, CNOT))
    else:
        dephase = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        channel = QuantumChannel(
            space, space, tuple(np.kron(HADAMARD, k).astype(np.complex128) for k in dephase)
        )
    report = nonlinearity_witness(channel, pair.rho_1, pair.rho_2, pair.split)
    record = witness_report_to_json(report, p["channel"], pair.pair_id)
    summary = (
        f"nonlinear: pair={pair.pair_id} channel={p['channel']} "
        f"before={record['distance_before']:.3g} after={record['distance_after']:.6g}"
    )
    return _one_record(record, summary)


def _run_verify(config: ScenarioConfig) -> _Result:
    path = config.params["channel_path"]
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValidationFailure([f"cannot read channel file {path!r}: {err}"])
    try:
        payload = json.loads(text)
        dims = math.prod(int(f["dim"]) for k in ("in_space", "out_space") for f in payload[k])
        if dims <= _MAX_CHOI_DIM:
            channel = channel_from_json(payload, validate=False)
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationFailure([f"malformed channel JSON in {path!r}: {err}"])
    if dims > _MAX_CHOI_DIM:
        raise ValidationFailure([f"{path!r}: d_in*d_out = {dims} > cap {_MAX_CHOI_DIM}"])
    report = verify_cptp(channel)
    record = {
        "trace_preserving": report.trace_preserving,
        "completely_positive": report.completely_positive,
        "min_choi_eigenvalue": float(report.min_choi_eigenvalue),
        "completeness_defect": float(report.completeness_defect),
    }
    ok = report.trace_preserving and report.completely_positive
    summary = (
        f"verify: {path} trace_preserving={report.trace_preserving} "
        f"completely_positive={report.completely_positive} "
        f"completeness_defect={report.completeness_defect:.6g}"
    )
    return _one_record(record, summary, EXIT_OK if ok else EXIT_TOLERANCE)


_RUNNERS = {
    "measure": _run_measure,
    "sweep": _run_sweep,
    "semigroup": _run_semigroup,
    "trajectories": _run_trajectories,
    "helix": _run_helix,
    "nonlinear": _run_nonlinear,
    "verify": _run_verify,
}


def _json_text(document) -> str:
    """json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\\n", byte for byte.

    Formats by column: a list of one leaf type in one map, a list of
    equal-length lists flattened once, a list of dicts with one key set
    one column per key; anything else item by item.
    """
    return _json_items([document], 0)[0] + "\n"


def _json_items(items: list, level: int) -> list[str]:
    """The json text of each item, for items nested `level` deep."""
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else object  # object: mixed types
    if kind is bool:
        return ["true" if x else "false" for x in items]
    if kind is type(None):
        return ["null"] * len(items)
    if issubclass(kind, float):
        if not all(map(math.isfinite, items)):
            bad = next(x for x in items if not math.isfinite(x))
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        return list(map(float.__repr__, items))
    if issubclass(kind, int):
        return list(map(int.__repr__, items))
    if issubclass(kind, str):
        return list(map(json.encoder.encode_basestring_ascii, items))
    inner, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    if issubclass(kind, (list, tuple)):
        sizes = set(map(len, items))
        if len(sizes) == 1:
            n = sizes.pop()
            if n == 0:
                return ["[]"] * len(items)
            flat = _json_items([x for row in items for x in row], level + 1)
            template = "[" + inner + ("," + inner).join(["%s"] * n) + close + "]"
            return [template % row for row in zip(*[iter(flat)] * n)]
    if issubclass(kind, dict):
        keys = items[0].keys()
        if all(d.keys() == keys for d in items):
            if not all(isinstance(k, str) for k in keys):
                raise TypeError("keys must be str")
            if not keys:
                return ["{}"] * len(items)
            names = sorted(keys)
            columns = [_json_items([d[k] for d in items], level + 1) for k in names]
            fields = (json.encoder.encode_basestring_ascii(k).replace("%", "%%") for k in names)
            template = "{" + inner + ("," + inner).join(f + ": %s" for f in fields) + close + "}"
            return [template % row for row in zip(*columns)]
    if len(items) > 1:
        return [_json_items([x], level)[0] for x in items]
    raise TypeError(f"Object of type {type(items[0]).__name__} is not JSON serializable")


def run(config: ScenarioConfig) -> int:
    """Execute a scenario, write its artifact, print the one-line summary.

    Only the requested format is encoded.  A result holding a non-finite
    number is refused as a ValidationFailure, and nothing is written.
    """
    columns, rows, document, summary, code = _RUNNERS[config.scenario](config)
    try:
        if config.resolved_format() == "csv":
            text = _csv_text(columns, rows)
        else:
            text = _json_text(document)
    except ValueError as err:
        raise ValidationFailure([f"{config.scenario} artifact refused: {err}"]) from err
    out = config.resolved_output_path()
    _atomic_write(out, text.encode())
    print(f"{summary} -> {out}")
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onticsim",
        description="Scenario runner for configuration-level quantum dynamics.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    helps = {
        "measure": "decoherence measurement of a subject state",
        "sweep": "off-diagonal suppression across environment sizes",
        "semigroup": "composability defect of a reduced evolution",
        "trajectories": "enumerate or sample configuration trajectories",
        "helix": "antipodal qubit configuration strands",
        "nonlinear": "evolved-marginal distance for a witness pair",
        "verify": "CPTP diagnostics for a stored channel",
    }
    for name in SCENARIOS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="seed for stochastic scenarios")
        p.add_argument("--out", metavar="PATH", help="output artifact path")
        p.add_argument("--format", choices=("csv", "json"), help="artifact format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as err:
                raise ParseFailure([f"cannot read config {args.config!r}: {err}"])
        config = parse_config(text, scenario=args.scenario)
        if args.seed is not None:
            problems: list[str] = []
            _range_check(_SEED, args.seed, problems)
            if problems:
                raise ValidationFailure(problems)
            config.seed = args.seed
        if args.out is not None:
            config.output_path = args.out
        if args.format is not None:
            config.format = args.format
        return run(config)
    except OnticSimError as err:
        if isinstance(err, ParseFailure):
            prefix, code = "config error", EXIT_PARSE
        elif isinstance(err, ToleranceBreach):
            prefix, code = "tolerance breach", EXIT_TOLERANCE
        else:
            prefix, code = "validation error", EXIT_VALIDATION
        for line in getattr(err, "violations", [f"{type(err).__name__}: {err}"]):
            print(f"{prefix}: {line}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
