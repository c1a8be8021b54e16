"""Flat key-value run configuration.

Format: UTF-8 text, one `section.key = value` per line, '#' comments, blank
lines ignored.  Values are ints, floats, the literal string "auto" (for
problem.lambda and solver.rho), or bare strings.
serialize(parse(text)) is idempotent.  The bounds on the values are stated
once, by the model types (ProblemSpec, SpectrumParams, SolverConfig, the
nonlinearity registry) and, for the seed, by _check_seed; parsing
realizes each block so that a bad value fails with that type's message.

Sections and keys:

    problem.s .m .gamma .lambda .T .N
    discretization.M .grid_points               (grid_points sets only the
                                                 --dump-fields CSV grid; no
                                                 reported number uses it)
    nonlinearity.key .a1 .a2 .q .alpha .r0      (params optional: registry
                                                 defaults apply when absent)
    solver.rho .grad_tol .max_iter .distinct_tol .max_doublings
                                                (the SolverConfig fields;
                                                 rho also accepts "auto")
    solver.seed                                 (RunConfig.seed, the sigma
                                                 ascent's; --seed overrides)
    verify.inject_theta_fault

Any other key, `command` among them, is an unknown-key error: the
subcommand is chosen on the command line only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields

from .solvers import SolverConfig
from .spectral import ProblemSpec, SpectrumParams
from .variational import (Nonlinearity, get_nonlinearity,
                          validate_growth_exponent)

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize_config",
           "load_config", "default_example_text", "AUTO"]

AUTO = "auto"

def _integer_fields(cls) -> dict:
    """Dataclass field name -> whether its declared type is int."""
    return {f.name: f.type in (int, "int") for f in dataclass_fields(cls)}


_SOLVER_FIELDS = _integer_fields(SolverConfig)


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


@dataclass
class RunConfig:
    # problem block
    s: float = 0.75
    m: float = 1.0
    gamma: float = 0.5
    lam: float | str = AUTO
    T: float = 2.0 * math.pi
    N: int = 2
    # discretization block
    modes: int = 8
    grid_points: int = 32
    # nonlinearity block
    nonlinearity_key: str = "cubic_plus_one"
    nl_overrides: dict = field(default_factory=dict)   # a1/a2/q/alpha/r0
    # solver block (raw values; rho may be "auto")
    solver_values: dict = field(default_factory=dict)
    # verification block
    inject_theta_fault: float = 0.0
    # the sigma ascent's master seed (key solver.seed, or --seed)
    seed: int = 0

    # -- builders ---------------------------------------------------------

    def problem(self, lam: float | None = None) -> ProblemSpec:
        """Realize the ProblemSpec; an explicit lam resolves 'auto'."""
        value = lam if lam is not None else self.lam
        if value == AUTO:
            raise ConfigError(
                "problem.lambda is 'auto' and no resolved value was supplied"
            )
        try:
            return ProblemSpec(s=self.s, m=self.m, gamma=self.gamma,
                               lam=float(value), T=self.T, N=self.N)
        except ValueError as exc:
            raise ConfigError(f"problem block invalid: {exc}") from exc

    def params(self) -> SpectrumParams:
        try:
            return SpectrumParams(self.modes, self.grid_points)
        except ValueError as exc:
            raise ConfigError(f"discretization block invalid: {exc}") from exc

    def nonlinearity(self) -> Nonlinearity:
        try:
            return get_nonlinearity(self.nonlinearity_key, **self.nl_overrides)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"nonlinearity block invalid: {exc}") from exc

    def solver(self, rho: float | None = None) -> SolverConfig:
        """Realize the SolverConfig; an explicit rho resolves 'auto'."""
        values = dict(self.solver_values)
        raw_rho = values.get("rho", AUTO)
        if rho is not None:
            values["rho"] = float(rho)
        elif raw_rho == AUTO:
            raise ConfigError("solver.rho is 'auto' and no resolved value "
                              "was supplied")
        try:
            return SolverConfig(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"solver block invalid: {exc}") from exc

    def override_seed(self, seed: int) -> None:
        """Apply --seed, checked like solver.seed."""
        _check_seed(seed)
        self.seed = int(seed)

    @property
    def rho_raw(self):
        return self.solver_values.get("rho", AUTO)

    # -- flat mapping ------------------------------------------------------

    def to_mapping(self) -> dict:
        out = {key: getattr(self, name) for key, name in _NUMBER_KEYS.items()}
        out["problem.lambda"] = self.lam
        out["nonlinearity.key"] = self.nonlinearity_key
        for k, v in self.nl_overrides.items():
            out[f"nonlinearity.{k}"] = v
        defaults = SolverConfig()
        for f in dataclass_fields(SolverConfig):
            out[f"solver.{f.name}"] = self.solver_values.get(
                f.name, AUTO if f.name == "rho" else getattr(defaults, f.name))
        return out


# flat key -> RunConfig field, for every key that holds one plain number
_NUMBER_KEYS = {
    "problem.s": "s",
    "problem.m": "m",
    "problem.gamma": "gamma",
    "problem.T": "T",
    "problem.N": "N",
    "discretization.M": "modes",
    "discretization.grid_points": "grid_points",
    "verify.inject_theta_fault": "inject_theta_fault",
    "solver.seed": "seed",
}
_RUN_FIELDS = _integer_fields(RunConfig)


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
            _apply(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    _validate(cfg)
    return cfg


def _apply(cfg: RunConfig, key: str, value) -> None:
    if key in _NUMBER_KEYS:
        name = _NUMBER_KEYS[key]
        setattr(cfg, name, _require_number(key, value,
                                                integer=_RUN_FIELDS[name]))
    elif key == "problem.lambda":
        cfg.lam = value if value == AUTO else _require_number(key, value)
    elif key == "nonlinearity.key":
        if not isinstance(value, str):
            raise ConfigError(f"nonlinearity.key must be a registry name, "
                              f"got {value!r}")
        cfg.nonlinearity_key = value
    elif key.startswith("nonlinearity."):
        name = key.split(".", 1)[1]
        if name not in ("a1", "a2", "q", "alpha", "r0"):
            raise ConfigError(f"unknown configuration key {key!r}")
        cfg.nl_overrides[name] = _require_number(key, value)
    elif key.startswith("solver."):
        name = key.split(".", 1)[1]
        if name not in _SOLVER_FIELDS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if name == "rho" and value == AUTO:
            cfg.solver_values["rho"] = AUTO
        else:
            cfg.solver_values[name] = _require_number(
                key, value, integer=_SOLVER_FIELDS[name])
    else:
        raise ConfigError(f"unknown configuration key {key!r}")


def _validate(cfg: RunConfig) -> None:
    """Realize every block ('auto' as 1.0), so a bad value fails at parse
    time with the constraint its model type states."""
    problem = cfg.problem(lam=1.0 if cfg.lam == AUTO else None)
    cfg.params()
    nl = cfg.nonlinearity()
    try:
        validate_growth_exponent(nl, problem)
    except ValueError as exc:
        raise ConfigError(f"nonlinearity block invalid: {exc}") from exc
    cfg.solver(rho=1.0 if cfg.rho_raw == AUTO else None)
    _check_seed(cfg.seed)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(
            f"solver block invalid: seed = {seed!r} violates seed >= 0")


def serialize_config(cfg: RunConfig) -> str:
    mapping = cfg.to_mapping()
    lines = [f"{k} = {_format_value(v)}" for k, v in sorted(mapping.items())]
    return "\n".join(lines) + "\n"


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
