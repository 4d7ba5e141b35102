"""Tests for the scenario runner: config parsing, artifacts, exit codes."""
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import onticsim
from onticsim import (
    CNOT,
    SWAP,
    DensityMatrix,
    HilbertSpace,
    UnitaryOperator,
    basis_state,
    channel_to_json,
    enumerate_trajectory_measure,
    markov_chain_from_repeated_interaction,
    measure_to_json,
    unitary_channel,
)
from onticsim import cli, errors
from onticsim.cli import (
    EXIT_PARSE,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    SCENARIOS,
    ParseFailure,
    ValidationFailure,
    main,
    parse_config,
)
from onticsim.errors import OnticSimError, ToleranceBreach

import test_golden  # the golden cases; pytest puts tests/ on sys.path

LOPSIDED = "0.8366600265340756, 0.5477225575051661"  # sqrt(0.7), sqrt(0.3)


def write_config(tmp_path, text: str):
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_minimal_helix_config_gets_defaults():
    config = parse_config("scenario = helix\n")
    assert config.scenario == "helix"
    assert config.params["omega"] == 1.0
    assert config.params["points"] == 100
    assert config.seed == 0
    assert config.resolved_format() == "csv"
    assert config.resolved_output_path() == "helix.csv"


def test_measure_requires_subject_dim():
    with pytest.raises(ParseFailure) as err:
        parse_config("scenario = measure\n")
    assert any("subject_dim" in v for v in err.value.violations)


def test_duplicate_key_names_both_lines():
    with pytest.raises(ParseFailure) as err:
        parse_config("scenario = helix\nomega = 1\nomega = 2\n")
    message = "\n".join(err.value.violations)
    assert "line 3" in message and "line 2" in message


def test_parse_reports_every_violation_with_position():
    text = "scenario = sweep\nnot a pair\nbogus = 1\nn_a = x\n"
    with pytest.raises(ParseFailure) as err:
        parse_config(text)
    joined = "\n".join(err.value.violations)
    assert "line 2" in joined  # malformed line
    assert "bogus" in joined  # unknown key
    assert "line 4" in joined and "n_a" in joined  # unparseable int


def test_comments_and_blank_lines_are_ignored():
    config = parse_config("# a comment\n\nscenario = helix  # trailing\npoints = 7\n")
    assert config.params["points"] == 7


def test_unknown_scenario_rejected():
    with pytest.raises(ParseFailure):
        parse_config("scenario = frobnicate\n")


def test_scenario_cross_check_against_requested():
    with pytest.raises(ParseFailure):
        parse_config("scenario = helix\n", scenario="sweep")
    config = parse_config("points = 7\n", scenario="helix")
    assert config.scenario == "helix"


def test_range_validation_is_exit_three_material():
    with pytest.raises(ValidationFailure):
        parse_config("scenario = measure\nsubject_dim = 2\ngamma_a = -1\n")
    with pytest.raises(ValidationFailure):
        parse_config("scenario = helix\npoints = 1\n")
    with pytest.raises(ValidationFailure):
        parse_config("scenario = semigroup\nprobe = sideways\n")
    with pytest.raises(ValidationFailure):
        parse_config(f"scenario = helix\nseed = {2**64}\n")


CAPPED = [
    (scenario, spec)
    for scenario, entry in SCENARIOS.items()
    for spec in entry.specs
    if spec.maximum is not None and spec.kind == "int"
]


@pytest.mark.parametrize(
    "scenario, spec", CAPPED, ids=[f"{scenario}-{spec.name}" for scenario, spec in CAPPED]
)
def test_size_caps_are_validation_failures(scenario, spec):
    at_cap = parse_config(f"{spec.name} = {spec.maximum}\n", scenario)
    assert at_cap.params[spec.name] == spec.maximum
    with pytest.raises(ValidationFailure) as err:
        parse_config(f"{spec.name} = {spec.maximum + 1}\n", scenario)
    assert err.value.violations == [
        f"{spec.name} must be at most {spec.maximum}, got {spec.maximum + 1}"
    ]


@pytest.mark.parametrize("count", [0, 1025])
def test_n_values_length_is_capped(count):
    def n_values(k):
        return "n_values = " + ", ".join(["4"] * k) + "\n"

    assert len(parse_config(n_values(1024), "sweep").params["n_values"]) == 1024
    with pytest.raises(ValidationFailure) as err:
        parse_config(n_values(count), "sweep")
    assert err.value.violations == [f"n_values must hold 1 to 1024 values, got {count}"]


# ---------------------------------------------------------------------------
# scenarios end to end
# ---------------------------------------------------------------------------

def test_measure_writes_frozen_csv_row(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, f"subject_dim = 2\npsi = {LOPSIDED}\n")
    assert main(["measure", "--config", cfg]) == 0
    lines = (tmp_path / "measure.csv").read_text().strip().split("\n")
    assert lines[0] == "N,overlap_A,overlap_E,max_offdiag,max_born_deviation,S_max,bound"
    cells = lines[1].split(",")
    assert cells[0] == "20"
    assert float(cells[3]) == 2.0804861468226533e-05
    assert "measure:" in capsys.readouterr().out


def test_helix_default_row_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["helix"]) == 0
    lines = (tmp_path / "helix.csv").read_text().strip().split("\n")
    assert len(lines) == 101
    assert lines[0] == "t,index,theta1,phi1,theta2,phi2"


def test_semigroup_json_defect(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["semigroup", "--format", "json"]) == 0
    payload = json.loads((tmp_path / "semigroup.json").read_text())
    assert payload["family"] == "entangling_cnot"
    assert abs(payload["defect"] - 0.1818763341633594) < 1e-12


def test_trajectories_enumerate_mass(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trajectories"]) == 0
    payload = json.loads((tmp_path / "trajectories.json").read_text())
    assert len(payload["trajectories"]) == 16
    mass = sum(t["p"] for t in payload["trajectories"])
    assert abs(mass - 1.0) < 1e-9


def test_trajectories_sample_prints_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "mode = sample\n")
    assert main(["trajectories", "--config", cfg, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed=7" in out


@pytest.mark.parametrize("p0", ["0.0", "0.5"])
def test_ten_thousand_step_trajectory_samples(tmp_path, monkeypatch, p0):
    """At p0 = 0.0 this config once exited 4 on a trace defect of 1.93e-12,
    rounding drift over the chain's 10**4 steps; at 0.5 on 1.03e-12."""
    monkeypatch.chdir(tmp_path)
    text = f"mode = sample\nsteps = 10000\nstep = 0.05\nrate = 0.3\np0 = {p0}\n"
    cfg = write_config(tmp_path, text)
    assert main(["trajectories", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "trajectories.json").read_text())
    assert len(payload["indices"]) == 10**4 + 1


def test_nonlinear_bell_pair(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["nonlinear"]) == 0
    payload = json.loads((tmp_path / "nonlinear.json").read_text())
    assert abs(payload["distance_after"] - 0.5) < 1e-10
    assert payload["pair_id"] == "bell_vs_product"


def test_verify_good_and_broken_channels(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    space = HilbertSpace.of(("s", 2), ("e", 2))
    payload = channel_to_json(unitary_channel(UnitaryOperator(space, CNOT)))
    (tmp_path / "good.json").write_text(json.dumps(payload))
    payload["kraus"][0]["re"][0][0] = 0.5
    (tmp_path / "bad.json").write_text(json.dumps(payload))

    cfg = write_config(tmp_path, "channel_path = good.json\n")
    assert main(["verify", "--config", cfg, "--out", "good_report.json"]) == 0

    (tmp_path / "scenario.cfg").write_text("channel_path = bad.json\n")
    assert main(["verify", "--config", cfg, "--out", "bad_report.json"]) == EXIT_TOLERANCE
    report = json.loads((tmp_path / "bad_report.json").read_text())
    assert report["trace_preserving"] is False
    assert report["completeness_defect"] > 0.1


def test_verify_rejects_non_finite_channel_entries(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    space = HilbertSpace.of(("s", 2), ("e", 2))
    payload = channel_to_json(unitary_channel(UnitaryOperator(space, CNOT)))
    payload["kraus"][0]["im"][1][2] = float("nan")
    (tmp_path / "nan.json").write_text(json.dumps(payload))
    cfg = write_config(tmp_path, "channel_path = nan.json\n")
    assert main(["verify", "--config", cfg, "--out", "report.json"]) == EXIT_VALIDATION
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "dim, message",
    [(2.7, "dimension 2.7 is not a positive integer"), (math.inf, "infinity to integer")],
)
def test_verify_refuses_non_integer_dimensions(tmp_path, capsys, monkeypatch, dim, message):
    """A space declaring "dim": 2.7 was read as dimension 2 and verified;
    "dim": Infinity, which json reads as a float, ended in a traceback."""
    monkeypatch.chdir(tmp_path)
    space = HilbertSpace.of(("s", 2), ("e", 2))
    payload = channel_to_json(unitary_channel(UnitaryOperator(space, CNOT)))
    for factor in payload["in_space"] + payload["out_space"]:
        factor["dim"] = dim
    (tmp_path / "fractional.json").write_text(json.dumps(payload))
    cfg = write_config(tmp_path, "channel_path = fractional.json\n")
    assert main(["verify", "--config", cfg, "--out", "report.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: malformed channel JSON")
    assert message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


VERIFY_CAP_CASES = [(128, "d_in*d_out = 16384 > cap 4096"), (64, "malformed")]


@pytest.mark.parametrize("dim, message", VERIFY_CAP_CASES)
def test_verify_caps_dimensions_before_reading_kraus_data(
    tmp_path, capsys, monkeypatch, dim, message
):
    """The cap runs first: a 128 x 128 file is refused on its size, not on its
    bad Kraus entry; at 64 x 64, the cap itself, the Kraus entry is read."""
    monkeypatch.chdir(tmp_path)
    space = [{"label": "s", "dim": dim}]
    payload = {"in_space": space, "out_space": space, "kraus": [{"re": [[1.0]]}]}
    (tmp_path / "big.json").write_text(json.dumps(payload))
    cfg = write_config(tmp_path, "channel_path = big.json\n")
    assert main(["verify", "--config", cfg, "--out", "report.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def test_verify_refuses_overflowing_channel_entries(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    space = HilbertSpace.of(("s", 2), ("e", 2))
    payload = channel_to_json(unitary_channel(UnitaryOperator(space, CNOT)))
    for i, j in [(0, 0), (1, 1), (2, 3)]:
        payload["kraus"][0]["re"][i][j] = 1e300
    (tmp_path / "huge.json").write_text(json.dumps(payload))
    cfg = write_config(tmp_path, "channel_path = huge.json\n")
    assert main(["verify", "--config", cfg, "--out", "report.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: OnticSimError: Choi eigensolve failed")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------

def test_exit_code_for_parse_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "bogus = 1\n")
    assert main(["helix", "--config", cfg]) == EXIT_PARSE
    assert "config error" in capsys.readouterr().err


def test_exit_code_for_validation_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "subject_dim = 2\ngamma_a = -1\n")
    assert main(["measure", "--config", cfg]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


def test_exit_code_for_missing_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["helix", "--config", str(tmp_path / "absent.cfg")]) == EXIT_PARSE


def test_bad_flag_seed_is_validation_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["helix", "--seed", "-3"]) == EXIT_VALIDATION


def test_the_parser_is_built_once_and_no_flag_outlives_its_call(tmp_path, capsys, monkeypatch):
    """main builds the argparse tree on its first call only, and each parse
    fills a fresh namespace: a --seed given to one call does not reach the
    next, which runs on the config's seed.  --help and a usage error exit as
    before, 0 and 2, off the shared parser."""
    monkeypatch.chdir(tmp_path)
    cli._build_parser.cache_clear()
    cfg = write_config(tmp_path, "mode = sample\nsteps = 4\n")
    assert main(["trajectories", "--config", cfg, "--seed", "7"]) == 0
    assert "seed=7" in capsys.readouterr().out
    assert main(["trajectories", "--config", cfg]) == 0
    assert "seed=0" in capsys.readouterr().out
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for argv, code in ([["--help"], 0], [["measure", "--help"], 0], [["bogus"], 2], [[], 2]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == code
    assert "usage: onticsim" in capsys.readouterr().err
    assert cli._build_parser.cache_info().misses == 1


DOMAIN_ERRORS = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, OnticSimError) and cls is not OnticSimError
] + [ParseFailure, ValidationFailure]


@pytest.mark.parametrize("error", DOMAIN_ERRORS, ids=lambda cls: cls.__name__)
def test_every_domain_error_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, error):
    monkeypatch.chdir(tmp_path)

    def runner(config):
        if error in (ParseFailure, ValidationFailure):
            raise error(["from the runner"])
        raise error("from the runner")

    monkeypatch.setitem(cli.SCENARIOS, "helix", replace(cli.SCENARIOS["helix"], runner=runner))
    expected = {ParseFailure: EXIT_PARSE, ToleranceBreach: EXIT_TOLERANCE}.get(error, EXIT_VALIDATION)
    assert main(["helix"]) == expected
    assert "from the runner" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["missing_dir/h.csv", "a_directory"])
def test_unwritable_output_path_exits_three(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    assert main(["helix", "--out", out]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write {out!r}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_directory"]


TRAJECTORY_ERRORS = [
    ("steps = 21\n", "TooManyTrajectories"),
    ("step = 1e308\n", "BadInterval"),
    ("step = 1e200\nrate = 1e200\n", "NotUnitary"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, error", TRAJECTORY_ERRORS, ids=[e for _, e in TRAJECTORY_ERRORS])
def test_trajectory_domain_errors_exit_three(tmp_path, capsys, monkeypatch, text, error):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, text)
    assert main(["trajectories", "--config", cfg, "--out", "artifact"]) == EXIT_VALIDATION
    assert f"validation error: {error}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_helix_refuses_non_finite_angles(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "omega = 1e308\npoints = 3\n")
    assert main(["helix", "--config", cfg, "--format", fmt]) == EXIT_VALIDATION
    assert "helix artifact refused" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]


NUMERIC_KEYS = [
    (scenario, spec.name)
    for scenario, entry in SCENARIOS.items()
    for spec in entry.specs
    if spec.kind in ("float", "complex_list")
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "scenario, key", NUMERIC_KEYS, ids=[f"{scenario}-{key}" for scenario, key in NUMERIC_KEYS]
)
def test_non_finite_values_are_validation_failures(
    tmp_path, capsys, monkeypatch, scenario, key, value
):
    monkeypatch.chdir(tmp_path)
    prefix = "subject_dim = 2\n" if scenario == "measure" else ""
    entry = f"{key} = {value}, 0" if key == "psi" else f"{key} = {value}"
    cfg = write_config(tmp_path, prefix + entry + "\n")
    assert main([scenario, "--config", cfg, "--out", "artifact"]) == EXIT_VALIDATION
    line = prefix.count("\n") + 1
    assert f"line {line}, column 1: {key} must be finite" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]


def test_unnormalized_psi_is_validation_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "subject_dim = 2\npsi = 0.7, 0.3\n")
    assert main(["measure", "--config", cfg]) == EXIT_VALIDATION


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scenario", ["measure", "sweep"])
def test_overflowing_psi_is_a_one_line_refusal(tmp_path, capsys, monkeypatch, scenario):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "subject_dim = 2\npsi = 1e200, 1e200\n")
    assert main([scenario, "--config", cfg, "--out", "artifact"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: psi norm is inf, ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]


@pytest.mark.parametrize(
    "scenario, entry", [("measure", "n_a ="), ("sweep", "n_values = 4,")], ids=["n_a", "n_values"]
)
def test_factor_counts_beyond_the_float_range_exit_three(
    tmp_path, capsys, monkeypatch, scenario, entry
):
    """A 401-digit factor count parses as an int, but no overlap can be taken
    to its power as a float: the model, or the sweep, refuses it."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, f"subject_dim = 2\n{entry} 1{'0' * 400}\n")
    assert main([scenario, "--config", cfg, "--out", "artifact"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: NotADistribution: "
        "factor counts above 1.798e+308, the largest float, are refused\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]


def test_outputs_are_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "mode = sample\nsteps = 6\n")
    assert main(["trajectories", "--config", cfg, "--seed", "42", "--out", "a.json"]) == 0
    assert main(["trajectories", "--config", cfg, "--seed", "42", "--out", "b.json"]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_console_script_entry_point(tmp_path):
    # the child process must import the same onticsim as this one, which
    # pytest may have found through its own pythonpath setting
    src = str(Path(onticsim.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-m", "onticsim.cli", "helix", "--out", str(tmp_path / "h.csv")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert (tmp_path / "h.csv").exists()
    assert "helix:" in result.stdout


def test_helix_csv_angles_match_library(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, f"points = 5\nt_max = {math.pi}\n")
    assert main(["helix", "--config", cfg]) == 0
    rows = (tmp_path / "helix.csv").read_text().strip().split("\n")[1:]
    thetas = [float(r.split(",")[2]) for r in rows]
    assert np.allclose(thetas, [math.pi / 2, math.pi / 4, 0.0, math.pi / 4, math.pi / 2])


# ---------------------------------------------------------------------------
# the json encoder
# ---------------------------------------------------------------------------

def reference_json(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


TEXT = st.text(st.sampled_from('a%"\\/\n\t\x00\x1f\x7f\u00e9\u2603\U0001d11e ') | st.characters())
LEAF_KINDS = [
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
]
# lists of one leaf kind and equal-length rows of one leaf kind: the encoder's fast paths
COLUMNS = st.sampled_from(LEAF_KINDS).flatmap(
    lambda leaf: st.lists(leaf, min_size=1)
    | st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(leaf, min_size=n, max_size=n), min_size=1)
    )
)


def containers(inner):
    rows = st.integers(0, 3).flatmap(lambda n: st.lists(st.lists(inner, min_size=n, max_size=n)))
    records = st.lists(TEXT, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: inner for k in keys}))
    )
    return st.lists(inner) | st.dictionaries(TEXT, inner) | rows | records


DOCUMENTS = st.recursive(st.one_of(*LEAF_KINDS) | COLUMNS, containers, max_leaves=30)


@given(DOCUMENTS)
def test_json_text_writes_the_bytes_of_json_dumps(document):
    assert cli._json_text(document) == reference_json(document)


EXPLICIT_DOCUMENTS = {
    "bools_in_int_list": [1, True, 2, False, 0],
    "bool_list": [True, False],
    "int_and_float": [1, 2.5, -3],
    "np_float64_leaves": [np.float64(0.1), np.float64(1 / 3)],
    "np_float64_mixed_with_float": {"x": [0.1, np.float64(0.2)], "y": np.float64(-2.5e-300)},
    "np_float64_rows": np.linspace(0.0, 1.0, 6).reshape(3, 2).tolist() + [[np.float64(2.0)] * 2],
    "ragged_rows": [[1, 2], [3], [4, 5, 6]],
    "ragged_float_rows": [[1.0], [], [2.0, 3.0]],
    "rows_of_empty_lists": [[[], []], [[], []]],
    "empty_rows": [[], [], []],
    "tuple_rows": [(1.0, 2.0), (3.0, 4.0)],
    "list_and_tuple_rows": [[1, 2], (3, 4)],
    "rows_of_records": [[{"a": 1}, {"a": 2}], [{"a": 3}, {"a": 4}]],
    "records_with_different_keys": [{"a": 1}, {"b": 2}, {"a": 3, "b": 4}],
    "records_with_different_value_kinds": [{"a": 1, "b": [1.5]}, {"a": "x", "b": [None, 2]}],
    "percent_in_record_keys": [{"%s": 1, "a%d": 2.5, "%%": "%s"}, {"%s": 3, "a%d": 4.5, "%%": "%"}],
    "percent_in_dict_key": {"%(x)s": [1, 2], "%": {"%": "%"}},
    "empty_records": [{}, {}],
    "nested_empty": {"a": {}, "b": [], "c": [{}], "d": [[]]},
    "escapes": ['quote " backslash \\', "\u00e9\u2603\U0001d11e", "\x00\x1f\x7f\n\t"],
    "leaves": {"n": None, "t": True, "f": False, "i": -(2**70), "x": 5e-324, "s": ""},
    "trajectory_measure": {
        "times": [0.0, 0.4, 0.8],
        "trajectories": [{"indices": [0, 1, 0], "p": 0.25}, {"indices": [1, 1, 0], "p": 0.75}],
    },
    "signed_zeros": [0.0, -0.0, 0.0, -0.0],
    "signed_zeros_in_rows": [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]],
    "signed_zeros_in_records": [{"a": -0.0, "b": [0.0]}, {"a": 0.0, "b": [-0.0]}],
    "float_and_np_float64_equal": [0.1, np.float64(0.1)],
    "int_bool_float_equal": {"a": [1, True, 1.0]},
    "repeated_records": [{"indices": [0, 1], "p": 0.5}] * 3,
    "records_of_ragged_rows": [{"a": [1, 2], "b": 0.5}, {"a": [3], "b": 0.5}, {"a": [], "b": -0.0}],
}


@pytest.mark.parametrize("name", list(EXPLICIT_DOCUMENTS))
def test_json_text_matches_json_dumps_on_edge_cases(name):
    document = EXPLICIT_DOCUMENTS[name]
    assert cli._json_text(document) == reference_json(document)


def plain(document):
    """`document` with each ndarray as its tolist(), a structured one as a list of records."""
    if isinstance(document, np.ndarray):
        if document.dtype.names:
            return [{k: plain(row[k]) for k in document.dtype.names} for row in document]
        return document.tolist()
    if isinstance(document, dict):
        return {k: plain(v) for k, v in document.items()}
    if isinstance(document, (list, tuple)):
        return [plain(x) for x in document]
    return document


def structured(indices, p):
    out = np.zeros(len(p), [("indices", np.int64, np.shape(indices)[1]), ("p", float)])
    out["indices"], out["p"] = indices, p
    return out


ARRAY_DOCUMENTS = {
    "floats": np.array([0.5, -0.0, 0.0, 5e-324, 1e16, 0.5]),
    "ints": np.array([3, -2, 3, 2**62, 0]),
    "bools": np.array([True, False, True]),
    "float_rows": np.arange(12.0).reshape(6, 2) / 7,
    "one_long_row": np.arange(10.0)[None] / 3,
    "cube": np.arange(24).reshape(2, 3, 4) % 5,
    "empty_rows": np.zeros((3, 0)),
    "empty": np.zeros(0),
    "records": structured([[0, 1, 1], [0, 0, 1], [0, 1, 1]], [0.25, -0.0, 0.25]),
    "in_a_document": {"times": [0.0, 0.5], "a": np.ones((2, 2)), "b": [np.zeros(2), np.ones(2)]},
    "ragged_arrays": [np.zeros(2), np.ones(3), np.arange(2)],
}


@pytest.mark.parametrize("name", list(ARRAY_DOCUMENTS))
def test_json_text_writes_an_array_as_its_tolist(name):
    document = ARRAY_DOCUMENTS[name]
    assert cli._json_text(document) == reference_json(plain(document))


def nest(value, depth: int):
    """`value` at `depth` levels down, through lists, rows and records in turn."""
    wrappers = [lambda v: [[1.0, v]], lambda v: {"a": 1.0, "b": v}, lambda v: [0.5, v]]
    for level in range(depth):
        value = wrappers[level % 3](value)
    return value


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_json_text_refuses_non_finite_floats(value, depth):
    for document in (nest(value, depth), nest(np.float64(value), depth)):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cli._json_text(document)
        with pytest.raises(ValueError):
            reference_json(document)


@pytest.mark.parametrize(
    "document",
    [
        {1: 2},
        [{"a": 1}, {"a": 2}, {3: 4}],
        [np.int64(1)],
        {"a": [np.int64(1), 2]},
        object(),
        [{1, 2}],
    ],
    ids=["int_key", "int_key_in_record", "np_int64", "np_int64_mixed", "object", "set"],
)
def test_json_text_refuses_non_str_keys_and_unknown_types(document):
    with pytest.raises(TypeError):
        cli._json_text(document)


@pytest.mark.parametrize("name,fmt", test_golden.ARTIFACTS)
def test_each_format_is_encoded_by_its_own_writer_only(tmp_path, monkeypatch, name, fmt):
    """A csv run never calls the json writer, and a json run never the csv writer."""
    other = {"csv": "_json_text", "json": "_csv_text"}[fmt]

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{other} called on a {fmt} run")

    monkeypatch.setattr(cli, other, forbidden)
    expected = (test_golden.GOLDEN / f"{name}.{fmt}").read_bytes()
    assert test_golden.run_case(name, fmt, tmp_path) == expected


@pytest.mark.parametrize("steps,p0", [(1, 0.7), (6, 0.0), (9, 0.35)])
def test_enumerated_artifacts_write_the_library_measure(tmp_path, steps, p0):
    """The runner's index columns, the base-2 digits of the row number, are
    the keys of enumerate_trajectory_measure, and its json is measure_to_json."""
    cfg = write_config(tmp_path, f"steps = {steps}\np0 = {p0}\nrate = 0.8\nstep = 0.3\n")
    rho_s0 = DensityMatrix(HilbertSpace.of(("s", 2)), np.diag([p0, 1 - p0]).astype(complex))
    env = basis_state(HilbertSpace.of(("e", 2)), 0).density_matrix()
    chain = markov_chain_from_repeated_interaction(0.8 * SWAP, env, rho_s0, 0.3, steps)
    measure = enumerate_trajectory_measure(chain, 2, 0)
    csv_lines = [",".join([*map(str, path), repr(p)]) for path, p in measure.items()]
    header = ",".join([*(f"i{k}" for k in range(steps + 1)), "p"])
    expected = {
        "csv": "\n".join([header, *csv_lines, ""]),
        "json": reference_json(measure_to_json(chain, measure)),
    }
    for fmt, text in expected.items():
        out = tmp_path / f"t.{fmt}"
        assert main(["trajectories", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == text


@pytest.mark.parametrize("name", list(test_golden.CASES))
def test_every_scenario_encodes_json_without_json_dumps(tmp_path, monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("json.dumps called on the artifact path")

    monkeypatch.setattr(cli.json, "dumps", forbidden)
    expected = (test_golden.GOLDEN / f"{name}.json").read_bytes()
    assert test_golden.run_case(name, "json", tmp_path) == expected
