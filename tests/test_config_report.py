"""Flat key-value configuration round-trips and the canonical JSON report."""

import json

import numpy as np
import pytest

from perifrac.config import (_NUMBER_KEYS, AUTO, ConfigError, RunConfig,
                             default_example_text, load_config, parse_config,
                             serialize_config)
from perifrac.report import (EXIT_CODES, dump_fields, empty_report,
                             estimate_dict, exit_code_for, solution_dict,
                             to_json)
from perifrac.spectral import FourierField, SpectrumParams


# -- parsing ---------------------------------------------------------------------


def test_default_example_round_trips():
    text = default_example_text()
    cfg = parse_config(text)
    assert serialize_config(cfg) == text
    # idempotence of the full loop
    assert serialize_config(parse_config(serialize_config(cfg))) == text


def test_parse_scalars_and_sentinels():
    cfg = parse_config(
        "problem.s = 0.6\n"
        "problem.lambda = auto\n"
        "problem.N = 2\n"
        "discretization.M = 4\n"
        "discretization.grid_points = 18\n"
        "solver.rho = auto\n"
        "solver.max_iter = 500\n"
        "solver.seed = 3\n"
        "verify.inject_theta_fault = 0.001\n"
    )
    assert cfg.s == 0.6 and cfg.lam == AUTO and cfg.modes == 4
    assert cfg.rho_raw == AUTO
    assert cfg.solver_values["max_iter"] == 500
    assert cfg.seed == 3
    assert cfg.inject_theta_fault == 0.001


def test_parse_comments_blanks_and_inline_comments():
    cfg = parse_config(
        "# full-line comment\n"
        "\n"
        "problem.s = 0.7   # inline comment\n"
        "   \n"
    )
    assert cfg.s == 0.7


@pytest.mark.parametrize("text,needle", [
    ("problem.s 0.6\n", "line 1"),
    ("problem.s = 0.6\nproblem.s = 0.7\n", "duplicate key"),
    ("problem.zeta = 1\n", "unknown configuration key"),
    ("mystery = 1\n", "unknown configuration key"),
    ("problem.N = 2.5\n", "integer"),
    ("problem.s = maybe\n", "number"),
    ("problem.s = true\n", "number"),
    ("command = solve\n", "unknown configuration key"),
    ("problem.s = 1.5\n", "0 < s < 1"),
    ("problem.s = 0.75\nproblem.N = 1\n", "N > 2s"),
    ("problem.gamma = 2.0\n", "m^(2s)"),
    ("problem.lambda = -0.1\n", "lambda > 0"),
    ("problem.T = 0\n", "T > 0"),
    ("discretization.M = -1\n", ">= 0"),
    ("discretization.M = 8\ndiscretization.grid_points = 9\n", "2M+1"),
    ("solver.rho = -1\n", "rho > 0"),
    ("solver.path_points = 2\n", "path_points"),
    ("solver.max_iter = 0\n", "max_iter must be at least 1"),
    ("solver.max_doublings = -1\n", "max_doublings must be non-negative"),
    ("solver.max_iter = 2.5\n", "integer"),
    ("problem.N = 3\nproblem.s = 0.9\nnonlinearity.q = 5.5\n",
     "critical exponent"),
    ("nonlinearity.key = sine_gordon\n", "nonlinearity block invalid"),
    ("nonlinearity.q = 1.5\n", "nonlinearity block invalid"),
])
def test_parse_rejects_with_diagnostic(text, needle):
    with pytest.raises(ConfigError) as exc_info:
        parse_config(text)
    assert needle in str(exc_info.value)


# every flat number key at a value other than its default
NUMBER_VALUES = {
    "problem.s": 0.9, "problem.m": 1.5, "problem.gamma": 0.25,
    "problem.T": 3.0, "problem.N": 3, "discretization.M": 4,
    "discretization.grid_points": 12, "verify.inject_theta_fault": 0.002,
    "solver.seed": 3,
}


def test_number_key_table_round_trips():
    assert set(NUMBER_VALUES) == set(_NUMBER_KEYS)
    text = "".join(f"{k} = {v!r}\n" for k, v in NUMBER_VALUES.items())
    cfg = parse_config(text)
    defaults = RunConfig()
    for key, name in _NUMBER_KEYS.items():
        value = getattr(cfg, name)
        assert value == NUMBER_VALUES[key] != getattr(defaults, name)
        assert type(value) is type(NUMBER_VALUES[key])
    assert {k: cfg.to_mapping()[k] for k in NUMBER_VALUES} == NUMBER_VALUES
    serialized = serialize_config(cfg)
    for key, value in NUMBER_VALUES.items():
        assert f"{key} = {value!r}\n" in serialized
    assert serialize_config(parse_config(serialized)) == serialized
    # the integer keys still reject a fraction
    for key, value in NUMBER_VALUES.items():
        if isinstance(value, int):
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                parse_config(f"{key} = 2.5\n")


def test_line_numbers_in_diagnostics():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("problem.s = 0.6\n\n# c\nbogus.key = 1\n")
    assert "line 4" in str(exc_info.value)


def test_gamma_threshold_message_carries_value():
    with pytest.raises(ConfigError) as exc_info:
        parse_config("problem.m = 0.5\nproblem.gamma = 0.4\nproblem.s = 0.75\n")
    # threshold 0.5^1.5 = 0.3535... must appear so the user can see the gap
    assert "0.353" in str(exc_info.value)


def test_auto_values_must_be_resolved():
    cfg = parse_config("problem.lambda = auto\nsolver.rho = auto\n")
    with pytest.raises(ConfigError):
        cfg.problem()
    assert cfg.problem(lam=0.05).lam == 0.05
    with pytest.raises(ConfigError):
        cfg.solver()
    assert cfg.solver(rho=2.0).rho == 2.0


def test_builders_realize_blocks():
    cfg = parse_config("problem.lambda = 0.05\n"
                       "nonlinearity.key = pure_cubic\n"
                       "nonlinearity.r0 = 1.5\n"
                       "solver.rho = 1.25\n")
    p = cfg.problem()
    assert (p.s, p.lam) == (0.75, 0.05)
    nl = cfg.nonlinearity()
    assert nl.name == "pure_cubic" and nl.r0 == 1.5
    assert cfg.solver().rho == 1.25
    assert cfg.params().modes == 8


def test_load_config_missing_file():
    with pytest.raises(ConfigError) as exc_info:
        load_config("/nonexistent/path.cfg")
    assert "cannot read config file" in str(exc_info.value)


def test_serialize_formats_floats_reversibly():
    cfg = RunConfig()
    cfg.T = 1.0 / 3.0
    text = serialize_config(cfg)
    assert f"problem.T = {1.0 / 3.0!r}" in text
    assert parse_config(text).T == cfg.T  # bit-exact through repr


# -- report ----------------------------------------------------------------------


def test_every_status_has_an_exit_code():
    assert {exit_code_for(s) for s in EXIT_CODES} == {0, 2, 3, 4, 5}
    assert exit_code_for("two-solutions") == 0
    assert exit_code_for("refused-inadmissible-lambda") == 2
    assert exit_code_for("one-solution-only") == 3
    assert exit_code_for("config-error") == 4
    assert exit_code_for("verification-failure") == 5


def test_empty_report_schema_is_command_independent():
    a = empty_report("constants", {"problem.s": 0.75}, 0)
    b = empty_report("verify", {}, 3)
    assert set(a) == set(b) == {
        "command", "config", "seed", "status", "constants", "solutions",
        "verification", "timings", "diagnostics",
    }
    assert a["constants"]["kappa"] is None
    assert a["verification"] == {"checks": [], "all_passed": None}


def test_to_json_is_canonical():
    rep = empty_report("solve", {"b": 1, "a": 2}, 0)
    text = to_json(rep)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["config"] == {"b": 1, "a": 2}
    # keys sorted at every level
    assert text == json.dumps(parsed, sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
    rep["diagnostics"]["bad"] = float("nan")
    with pytest.raises(ValueError):
        to_json(rep)


def test_to_json_identical_for_identical_reports():
    r1 = empty_report("solve", parse_config("").to_mapping(), 0)
    r2 = empty_report("solve", parse_config("").to_mapping(), 0)
    assert to_json(r1) == to_json(r2)


def test_dump_fields_csv_layout(tmp_path, example_problem):
    params = SpectrumParams(1, 4)
    field = FourierField.constant(example_problem, params, 2.0)

    class Sol:
        pass

    sol = Sol()
    sol.field = field
    sol.method = "ball_min"
    paths = dump_fields(str(tmp_path), [sol])
    assert len(paths) == 1
    assert paths[0].endswith("solution_00_ball_min.csv")
    lines = open(paths[0]).read().strip().splitlines()
    assert lines[0] == "x0,x1,u"
    assert len(lines) == 1 + 4 * 4
    # every sampled value is the constant, written via repr
    for line in lines[1:]:
        assert line.split(",")[2] == "2.0"
    # coordinates sweep the grid of the field's own params
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_solution_and_row_dicts():
    class FakeSol:
        method = "ball_min"
        energy = np.float64(-1.5)
        residual_dual_norm = 1e-9
        hs_norm = 0.5
        e_norm = 0.4
        in_ball = np.True_
        mean_value = 0.02
        iterations = 7

    d = solution_dict(FakeSol())
    assert d == {"method": "ball_min", "energy": -1.5,
                 "residual_dual_norm": 1e-9, "hs_norm": 0.5, "e_norm": 0.4,
                 "in_ball": True, "mean_value": 0.02, "iterations": 7}
    assert isinstance(d["energy"], float) and isinstance(d["in_ball"], bool)

    class FakeEst:
        r = 4.0
        value = 0.36
        status = "truncated-lower-bound"
        modes = 8
        starts = 16
        iterations = 123

    e = estimate_dict(FakeEst())
    assert e["status"] == "truncated-lower-bound" and e["iterations"] == 123
