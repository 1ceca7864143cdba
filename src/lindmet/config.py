"""Flat key = value run configuration with bracketed sections.

Every physical quantity is SI (seconds, 1/s, rad/s). One field table per
command names each key once, with its section, the attribute it sets, its
parser and its default; the table drives the unknown-key check, loading and
:func:`dump_run_config` / :func:`dump_nmr_config`, which render the fully
resolved form echoed into result files, so any output can be re-run verbatim.
Loading also builds the scenario model and the scheme configs a run will use,
so every invalid value fails here with :class:`ConfigError`.
"""
from __future__ import annotations

import configparser
import io
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import reduce
from typing import Any, Callable, ClassVar, NamedTuple

import numpy as np

from .channels import DEFAULT_RATES, SCENARIOS, t2_from_linewidth
from .optimizer import (CONTRACTION, EXPANSION, F_TOL, INITIAL_STEP, REFLECTION, SHRINK,
                        X_TOL, OptimizerOptions, _resolve)
from .schemes import SchemeConfig, default_u_max


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


# Per-scenario default grids spanning each operating point's interesting range.
DEFAULT_GRIDS = {
    "parallel-dephasing-1q": (0.01, 0.5, 30, "log"),
    "parallel-dephasing-2q": (0.01, 0.5, 30, "log"),
    "transverse-dephasing": (0.4, 40.0, 30, "log"),
    "amplitude-damping": (0.25, 20.0, 80, "linear"),
}

_FLOAT_FMT = ".17g"


def format_float(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


@dataclass(frozen=True)
class TimeGridSpec:
    start: float
    stop: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"time grid spacing must be linear or log, got {self.spacing!r}")
        if not 0 < self.start < self.stop:
            raise ConfigError("time grid requires 0 < start < stop")
        if self.points < 1:
            raise ConfigError("time grid needs at least one point")

    def times(self) -> tuple:
        if self.points == 1:
            return (self.start,)
        if self.spacing == "log":
            return tuple(np.geomspace(self.start, self.stop, self.points))
        return tuple(np.linspace(self.start, self.stop, self.points))


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one `run` invocation."""

    scenario: str
    schemes: tuple
    grid: TimeGridSpec
    omega0: float
    rates: tuple
    K: int
    probe: str
    u_max: float
    gamma_c: float
    warm_start: bool
    optimizer: OptimizerOptions
    out: str

    def scheme_config(self, scheme: str) -> SchemeConfig:
        return SchemeConfig(
            scheme=scheme,
            scenario=self.scenario,
            time_grid=self.grid.times(),
            omega0=self.omega0,
            rates=self.rates,
            K=self.K,
            probe=self.probe,
            u_max=self.u_max,
            gamma_c=self.gamma_c,
            warm_start=self.warm_start,
            optimizer=self.optimizer,
        )


@dataclass(frozen=True)
class NmrConfig:
    """Configuration of the NMR comparison protocol.

    The scenario is fixed: single-qubit parallel dephasing with the rate taken
    from the measured linewidth, probe |+> for the standard scheme and a
    seeded random state for the control-enhanced one, both QFI estimators
    reported per encoding time.
    """

    schemes: ClassVar[tuple] = ("standard", "control_enhanced")

    linewidth_hz: float
    omega0: float
    K: int
    delta_omega_fidelity: float
    t2_factor_max: float
    points: int
    u_max: float
    gamma_c: float
    optimizer: OptimizerOptions
    out: str

    def __post_init__(self):
        if self.points < 1:
            raise ConfigError(f"points must be at least 1, got {self.points}")
        # the fidelity estimator divides by delta^2, which must be a normal float
        delta = self.delta_omega_fidelity
        if not (delta > 0 and sys.float_info.min <= delta * delta < math.inf):
            raise ConfigError("delta_omega_fidelity must be positive with a finite, normal "
                              f"square (about 1.5e-154 to 1.3e154), got {delta}")

    def scheme_config(self, scheme: str) -> SchemeConfig:
        gamma = 1.0 / t2_from_linewidth(self.linewidth_hz)
        t2 = 1.0 / gamma  # the rate's own T2: may differ from the linewidth's in the last bit
        dt = t2 * self.t2_factor_max / self.points
        return SchemeConfig(
            scheme=scheme,
            scenario="parallel-dephasing-1q",
            time_grid=tuple((i + 1) * dt for i in range(self.points)),
            omega0=self.omega0,
            rates=(("gamma", gamma),),
            K=self.K,
            probe="random_seeded" if scheme == "control_enhanced" else "plus",
            u_max=self.u_max,
            gamma_c=self.gamma_c,
            optimizer=self.optimizer,
        )


# --- value parsers: raw config text -> value, ValueError when malformed ---

def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


def _optional(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    return lambda raw: None if raw.strip().lower() == "none" else parse(raw)


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"{raw!r} is neither true nor false") from None


def _scenario(raw: str) -> str:
    if raw not in SCENARIOS:
        raise ValueError(f"unknown scenario {raw!r}; valid scenarios: {', '.join(SCENARIOS)}")
    return raw


def _schemes(raw: str) -> tuple:
    schemes = tuple(s.strip() for s in raw.split(","))
    for s in schemes:
        if schemes.count(s) > 1:
            raise ValueError(f"scheme {s!r} is named twice")
    return schemes


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, tuple):
        return ", ".join(value)
    return str(value)


class _Field(NamedTuple):
    """One config key and the attribute it sets: ``attr`` (dotted for nested
    options, "optimizer.seed") or else an attribute named like the key.
    ``default`` may be a function of the attributes loaded by earlier rows. A
    ``key`` of None takes every key of the section as a (name, value) entry of
    ``attr``, on top of the default mapping. A ``retired`` key sets nothing
    and is not echoed; it is accepted only at its default, the value that
    result files written before its retirement echo, so they still rerun."""

    section: str
    key: str | None
    parse: Callable[[str], Any]
    default: Any
    attr: str | None = None
    retired: bool = False

    @property
    def target(self) -> str:
        return self.attr or self.key


_REQUIRED = object()
_OPT_DEFAULTS = OptimizerOptions()
_SCHEME_DEFAULTS = {f.name: f.default for f in fields(SchemeConfig)}

_OPTIMIZER_FIELDS = (
    _Field("optimizer", "restarts", int, _OPT_DEFAULTS.restarts, "optimizer.restarts"),
    _Field("optimizer", "max_evals", _optional(int), None, "optimizer.max_evals"),
    # the simplex's tolerances, initial step and coefficients, now constants
    _Field("optimizer", "x_tol", _optional(_float), lambda v: X_TOL * v["u_max"],
           retired=True),
    _Field("optimizer", "f_tol", _float, F_TOL, retired=True),
    _Field("optimizer", "reflection", _float, REFLECTION, retired=True),
    _Field("optimizer", "expansion", _float, EXPANSION, retired=True),
    _Field("optimizer", "contraction", _float, CONTRACTION, retired=True),
    _Field("optimizer", "shrink", _float, SHRINK, retired=True),
    _Field("optimizer", "initial_step", _optional(_float),
           lambda v: INITIAL_STEP * v["u_max"], retired=True),
)

RUN_FIELDS = (
    _Field("run", "scenario", _scenario, _REQUIRED),
    _Field("run", "schemes", _schemes, ("standard",)),
    _Field("run", "probe", str, _SCHEME_DEFAULTS["probe"]),
    _Field("run", "omega0", _float, _SCHEME_DEFAULTS["omega0"]),
    _Field("run", "gamma_c", _float, _SCHEME_DEFAULTS["gamma_c"]),
    # the frequency-derivative step of the retired central difference
    _Field("run", "delta_omega", _float, lambda v: 1e-4 * max(abs(v["omega0"]), 1.0),
           retired=True),
    _Field("run", "seed", int, _OPT_DEFAULTS.seed, "optimizer.seed"),
    _Field("run", "out", str, "results.csv"),
    _Field("channel", None, _float, lambda v: DEFAULT_RATES[v["scenario"]], "rates"),
    _Field("time_grid", "start", _float, lambda v: DEFAULT_GRIDS[v["scenario"]][0], "grid.start"),
    _Field("time_grid", "stop", _float, lambda v: DEFAULT_GRIDS[v["scenario"]][1], "grid.stop"),
    _Field("time_grid", "points", int, lambda v: DEFAULT_GRIDS[v["scenario"]][2], "grid.points"),
    _Field("time_grid", "spacing", str, lambda v: DEFAULT_GRIDS[v["scenario"]][3], "grid.spacing"),
    _Field("control", "K", int, _SCHEME_DEFAULTS["K"]),
    _Field("control", "u_max", _float, lambda v: default_u_max(v["omega0"])),
    _Field("control", "warm_start", _bool, _SCHEME_DEFAULTS["warm_start"]),
) + _OPTIMIZER_FIELDS

NMR_FIELDS = (
    _Field("nmr", "linewidth_hz", _float, 2.13),
    _Field("nmr", "omega0", _float, 120.0 * np.pi),
    _Field("nmr", "K", int, 5),
    _Field("nmr", "delta_omega_fidelity", _float, 2.0 * np.pi),
    _Field("nmr", "t2_factor_max", _float, 2.5),
    _Field("nmr", "points", int, 10),
    _Field("nmr", "u_max", _float, 100.0),
    _Field("nmr", "gamma_c", _float, 1.0),
    _Field("nmr", "seed", int, _OPT_DEFAULTS.seed, "optimizer.seed"),
    _Field("nmr", "out", str, "nmr_results.csv"),
) + _OPTIMIZER_FIELDS


def _read(text_or_path: str, is_path: bool) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # preserve key case (K vs k)
    try:
        if is_path:
            with open(text_or_path) as fh:
                parser.read_file(fh)
        else:
            parser.read_file(io.StringIO(text_or_path))
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return parser


def _check_keys(parser: configparser.ConfigParser, fields) -> None:
    allowed: dict[str, set] = {}
    for f in fields:
        allowed.setdefault(f.section, set()).add(f.key)
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"expected {sorted(allowed)}")
        if None in allowed[section]:
            continue
        for key in parser[section]:
            if key not in allowed[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]; "
                                  f"expected {sorted(allowed[section])}")


def _parse(f: _Field, key: str, raw: str):
    try:
        return f.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key} in [{f.section}]: {exc}") from exc


def _load_values(parser: configparser.ConfigParser, fields) -> dict:
    """Attribute -> value for every row, in table order; a dotted attribute
    goes into a keyword dict under its prefix."""
    values: dict[str, Any] = {}
    for f in fields:
        section = parser[f.section] if parser.has_section(f.section) else {}
        default = f.default(values) if callable(f.default) else f.default
        if f.retired:
            if f.key in section and _parse(f, f.key, section[f.key]) != default:
                raise ConfigError(f"{f.key} in [{f.section}] is retired; remove it "
                                  f"(only {_format(default)}, the value older "
                                  "result files echo, is accepted)")
            continue
        if f.key is None:
            entries = {**default, **{key: _parse(f, key, raw) for key, raw in section.items()}}
            value = tuple(sorted(entries.items()))
        elif f.key in section:
            value = _parse(f, f.key, section[f.key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {f.key!r} in [{f.section}]")
        else:
            value = default
        head, _, rest = f.target.partition(".")
        (values.setdefault(head, {}) if rest else values)[rest or head] = value
    return values


def _load(text_or_path: str, is_path: bool, fields, build):
    """Read, check and load ``fields``, then build everything a run uses.

    ``build`` turns the grouped values into the config; a ValueError raised
    by any constructor on the way becomes a ConfigError. The default
    evaluation budget is resolved against the search dimension.
    """
    parser = _read(text_or_path, is_path)
    _check_keys(parser, fields)
    values = _load_values(parser, fields)
    try:
        values["optimizer"] = OptimizerOptions(**values["optimizer"])
        cfg = build(values)
        scheme_configs = [cfg.scheme_config(s) for s in cfg.schemes]
        n_vars = cfg.K * scheme_configs[0].build_model().n_controls
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(cfg, optimizer=_resolve(cfg.optimizer, n_vars))


def load_run_config(text_or_path: str, is_path: bool = True) -> RunConfig:
    """Parse and resolve a `run` configuration."""
    return _load(text_or_path, is_path, RUN_FIELDS,
                 lambda v: RunConfig(**{**v, "grid": TimeGridSpec(**v["grid"])}))


def load_nmr_config(text_or_path: str, is_path: bool = True) -> NmrConfig:
    """Parse and resolve an `nmr` protocol configuration."""
    return _load(text_or_path, is_path, NMR_FIELDS, lambda v: NmrConfig(**v))


def _dump(cfg, fields) -> str:
    blocks: dict[str, list[str]] = {}
    for f in fields:
        if f.retired:
            continue
        value = reduce(getattr, f.target.split("."), cfg)
        lines = blocks.setdefault(f.section, [f"[{f.section}]"])
        if f.key is None:
            lines += [f"{k} = {_format(v)}" for k, v in value]
        else:
            lines.append(f"{f.key} = {_format(value)}")
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


def dump_run_config(cfg: RunConfig) -> str:
    """Serialize a resolved run config as reloadable text."""
    return _dump(cfg, RUN_FIELDS)


def dump_nmr_config(cfg: NmrConfig) -> str:
    """Serialize a resolved NMR protocol config as reloadable text."""
    return _dump(cfg, NMR_FIELDS)
