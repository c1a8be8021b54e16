"""Flat key-value run configuration.

Format: UTF-8 text, one `section.key = value` per line, '#' comments, blank
lines ignored.  Values are ints, floats, the literal string "auto" (for
problem.lambda and solver.rho), or bare strings.
serialize(parse(text)) is idempotent.  The bounds on the values are stated
once, by the model types (ProblemSpec, SpectrumParams, SolverConfig, the
nonlinearity registry) and, for the seed, by _check_seed; parsing
realizes each block so that a bad value fails with that type's message.

The keys are those of _DEFAULTS, each of its default's type (an int
default makes an integer key, and a key that defaults to "auto" takes a
float too), plus the float overrides _OVERRIDES of the nonlinearity's
parameters, which have no default: the registry's apply when absent.
discretization.grid_points sets only the --dump-fields CSV grid, any
n >= 1; no reported number uses it, and below 2M+1 the CSV holds exact
point values, too few to recover the coefficients.  solver.seed seeds the
sigma ascent, and --seed overrides it; the other solver keys are the
SolverConfig fields.

Any other key, `command` among them, is an unknown-key error: the
subcommand is chosen on the command line only.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .solvers import SolverConfig
from .spectral import ProblemSpec, SpectrumParams
from .variational import (Nonlinearity, get_nonlinearity,
                          validate_growth_exponent)

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize_config",
           "load_config", "default_example_text", "AUTO"]

AUTO = "auto"

# every key with its default: the benchmark problem, lambda and rho
# resolved automatically
_DEFAULTS = {
    "problem.s": 0.75,
    "problem.m": 1.0,
    "problem.gamma": 0.5,
    "problem.lambda": AUTO,
    "problem.T": 2.0 * math.pi,
    "problem.N": 2,
    "discretization.M": 8,
    "discretization.grid_points": 32,
    "nonlinearity.key": "cubic_plus_one",
    **{f"solver.{f.name}": f.default for f in fields(SolverConfig)},
    "solver.rho": AUTO,
    "solver.seed": 0,
    "verify.inject_theta_fault": 0.0,
}
_OVERRIDES = {f"nonlinearity.{name}"
              for name in ("a1", "a2", "q", "alpha", "r0")}


class ConfigError(ValueError):
    """Malformed configuration; the message carries the offending line or
    field and the violated constraint."""


def _parse_value(raw: str):
    word = raw.strip()
    if word.lower() == AUTO:
        return AUTO
    try:
        return int(word)
    except ValueError:
        pass
    try:
        return float(word)
    except ValueError:
        pass
    return word


def _format_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


class RunConfig:
    """`values` maps every key of _DEFAULTS, and each override that was
    set, to its value; reports echo it as it is."""

    def __init__(self):
        self.values = dict(_DEFAULTS)

    # -- builders ---------------------------------------------------------

    def problem(self, lam: float | None = None) -> ProblemSpec:
        """Realize the ProblemSpec; an explicit lam resolves 'auto'."""
        v = self.values
        value = lam if lam is not None else v["problem.lambda"]
        if value == AUTO:
            raise ConfigError(
                "problem.lambda is 'auto' and no resolved value was supplied"
            )
        try:
            return ProblemSpec(s=v["problem.s"], m=v["problem.m"],
                               gamma=v["problem.gamma"], lam=float(value),
                               T=v["problem.T"], N=v["problem.N"])
        except ValueError as exc:
            raise ConfigError(f"problem block invalid: {exc}") from exc

    def lambda_free_problem(self) -> ProblemSpec:
        """The ProblemSpec of lambda-independent work (sigmas, tables,
        validation): 'auto' takes the placeholder lambda = 1.0."""
        return self.problem(
            lam=1.0 if self.values["problem.lambda"] == AUTO else None)

    def params(self) -> SpectrumParams:
        try:
            return SpectrumParams(self.values["discretization.M"],
                                  self.values["discretization.grid_points"])
        except ValueError as exc:
            raise ConfigError(f"discretization block invalid: {exc}") from exc

    def nonlinearity(self) -> Nonlinearity:
        v = self.values
        overrides = {key.split(".", 1)[1]: v[key] for key in v
                     if key in _OVERRIDES}
        try:
            return get_nonlinearity(v["nonlinearity.key"], **overrides)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"nonlinearity block invalid: {exc}") from exc

    def solver(self, rho: float | None = None) -> SolverConfig:
        """Realize the SolverConfig; an explicit rho resolves 'auto'."""
        values = {f.name: self.values[f"solver.{f.name}"]
                  for f in fields(SolverConfig)}
        if rho is not None:
            values["rho"] = float(rho)
        elif values["rho"] == AUTO:
            raise ConfigError("solver.rho is 'auto' and no resolved value "
                              "was supplied")
        try:
            return SolverConfig(**values)
        except ValueError as exc:
            raise ConfigError(f"solver block invalid: {exc}") from exc

    def override_seed(self, seed: int) -> None:
        """Apply --seed, checked like solver.seed."""
        _check_seed(seed)
        self.values["solver.seed"] = int(seed)


def _require_number(key: str, value, integer: bool = False):
    """Number-type rules of every numeric key: finite, integral for ints."""
    if isinstance(value, str):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{key} must be finite, got an integer literal "
                          f"beyond the float range") from None


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError with a line/field
    diagnostic on any violation (unknown key, bad type, bad constraint)."""
    cfg = RunConfig()
    seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{raw_line.strip()!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = _parse_value(raw_value)
        if key in seen:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line "
                f"{seen[key]})")
        seen[key] = lineno
        try:
            cfg.values[key] = _checked(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    _validate(cfg)
    return cfg


def _checked(key: str, value):
    """value as key's type takes it: the type of the key's default, a
    float for an override."""
    default = _DEFAULTS.get(key, 0.0 if key in _OVERRIDES else None)
    if default is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    if key == "nonlinearity.key":
        if not isinstance(value, str):
            raise ConfigError(f"nonlinearity.key must be a registry name, "
                              f"got {value!r}")
        return value
    if default == AUTO == value:
        return value
    return _require_number(key, value, integer=isinstance(default, int))


def _validate(cfg: RunConfig) -> None:
    """Realize every block ('auto' as 1.0), so a bad value fails at parse
    time with the constraint its model type states."""
    problem = cfg.lambda_free_problem()
    cfg.params()
    nl = cfg.nonlinearity()
    try:
        validate_growth_exponent(nl, problem)
    except ValueError as exc:
        raise ConfigError(f"nonlinearity block invalid: {exc}") from exc
    cfg.solver(rho=1.0 if cfg.values["solver.rho"] == AUTO else None)
    _check_seed(cfg.values["solver.seed"])


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(
            f"solver block invalid: seed = {seed!r} violates seed >= 0")


def serialize_config(cfg: RunConfig) -> str:
    return "".join(f"{k} = {_format_value(v)}\n"
                   for k, v in sorted(cfg.values.items()))


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def default_example_text() -> str:
    """The benchmark configuration: quartic forcing 1 + t^3 on the
    two-dimensional torus of period 2*pi, s = 3/4, unit mass, gamma at half
    the spectral gap, lambda and rho resolved automatically."""
    return serialize_config(RunConfig())
