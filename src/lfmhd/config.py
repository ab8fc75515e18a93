"""Plain-text run configuration.

One ``namespace.key = value`` per line, ``#`` starts a comment, blank
lines ignored.  Unknown keys are a hard error so a misspelled override
can never fall back to a default silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

from .diagnostics import TRUNCATION_ORDER
from .grid import GridSpec
from .linear_step import step_count
from .state import PRESETS


class ConfigError(Exception):
    """Raised for unparseable text, unknown keys, or out-of-range values."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(_parse_float(p) for p in parts)


@dataclass
class PhysicsConfig:
    diffusivity: float = 1.0
    c0: float = 0.25


@dataclass
class SchemeConfig:
    kappa: float = 0.1
    kappa_list: tuple[float, ...] = ()
    dt: float = 0.0125
    T: float = 0.05
    picard_tol: float = 1e-8
    picard_max_iter: int = 12
    diffusion_tol: float = 1e-9


@dataclass
class DataConfig:
    preset: str = "quiescent"
    amplitude: float = 0.1
    seed: int = 0


@dataclass
class OutputConfig:
    directory: str = "out"
    checkpoint: bool = False


@dataclass
class DiagnosticsConfig:
    max_time_order: int = TRUNCATION_ORDER


@dataclass
class RunConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec(16, 16, 16))
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    data: DataConfig = field(default_factory=DataConfig)
    outputs: OutputConfig = field(default_factory=OutputConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)


# every key is a field of a section; its annotation picks the parser
_PARSERS = {int: int, float: _parse_float, bool: _parse_bool, str: str,
            tuple[float, ...]: _parse_float_list}
_CASTERS = {f"{section}.{key}": _PARSERS[hint]
            for section, cls in get_type_hints(RunConfig).items()
            for key, hint in get_type_hints(cls).items()}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    defaults = RunConfig()
    values: dict[str, dict] = {f.name: {} for f in fields(defaults)}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        caster = _CASTERS.get(key)
        if caster is None:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        section_name, _, attr = key.partition(".")
        try:
            value = caster(raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
        values[section_name][attr] = value
    try:
        cfg = RunConfig(**{name: replace(getattr(defaults, name), **section)
                           for name, section in values.items()})
    except ValueError as exc:  # the grid is a GridSpec, which checks itself
        raise ConfigError(f"{source}: grid.{exc}") from None
    _validate(cfg, source)
    return cfg


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))


def _require(cond: bool, source: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{source}: {message}")


def _validate(cfg: RunConfig, source: str) -> None:
    p, s, d = cfg.physics, cfg.scheme, cfg.data
    _require(p.diffusivity > 0.0, source, "physics.diffusivity must be positive")
    _require(p.c0 >= 0.0, source, "physics.c0 must be nonnegative")
    _require(s.kappa > 0.0, source, f"scheme.kappa must be positive, got {s.kappa}")
    for k in s.kappa_list:
        _require(k > 0.0, source, f"scheme.kappa_list entries must be positive, got {k}")
    if s.kappa_list:
        _require(all(a > b for a, b in zip(s.kappa_list, s.kappa_list[1:])), source,
                 f"scheme.kappa_list must be strictly decreasing, got {list(s.kappa_list)}")
    try:
        step_count(s.T, s.dt)
    except ValueError as exc:
        raise ConfigError(f"{source}: scheme.T = {s.T} must be a whole multiple of "
                          f"scheme.dt = {s.dt}, at least 2 steps: {exc}") from None
    _require(s.picard_tol > 0.0, source, "scheme.picard_tol must be positive")
    _require(s.picard_max_iter >= 1, source, "scheme.picard_max_iter must be >= 1")
    # the solve's true relative residual bottoms out near 2e-16 at 8^3, 2e-15 at 32^3
    _require(s.diffusion_tol >= 1e-14, source, "scheme.diffusion_tol must be >= 1e-14, the "
             f"rounding floor of the diffusion solve, got {s.diffusion_tol}")
    _require(d.preset in PRESETS, source,
             f"data.preset must be one of {list(PRESETS)}, got {d.preset!r}")
    _require(d.amplitude >= 0.0, source, "data.amplitude must be nonnegative")
    _require(d.seed >= 0, source, f"data.seed must be >= 0, got {d.seed}")
    # still parsed so that configs naming it keep working; the order is fixed
    _require(cfg.diagnostics.max_time_order == TRUNCATION_ORDER, source,
             f"diagnostics.max_time_order must be {TRUNCATION_ORDER}, "
             f"got {cfg.diagnostics.max_time_order}")
