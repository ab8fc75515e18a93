"""Plain-text run configuration.

One ``namespace.key = value`` per line, ``#`` starts a comment, blank
lines ignored.  Unknown keys are a hard error so a misspelled override
can never fall back to a default silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .grid import GridSpec
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
class GridConfig:
    n1: int = 16
    n2: int = 16
    n3: int = 16
    dealias_fraction: float = 2.0 / 3.0


@dataclass
class PhysicsConfig:
    diffusivity: float = 1.0
    c0: float = 0.25
    epsilon: float = 0.1


@dataclass
class SchemeConfig:
    kappa: float = 0.1
    kappa_list: tuple[float, ...] = ()
    dt: float = 0.0125
    T: float = 0.05
    cfl_safety: float = 0.4
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
    snapshot_stride: int = 1
    checkpoint: bool = False


@dataclass
class DiagnosticsConfig:
    max_time_order: int = 2


@dataclass
class RunConfig:
    grid: GridConfig = field(default_factory=GridConfig)
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
    cfg = RunConfig()
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
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
        setattr(sections[section_name], attr, value)
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
    g, p, s, d = cfg.grid, cfg.physics, cfg.scheme, cfg.data
    try:
        GridSpec(g.n1, g.n2, g.n3, dealias_fraction=g.dealias_fraction)
    except ValueError as exc:
        raise ConfigError(f"{source}: grid.{exc}") from None
    _require(p.diffusivity > 0.0, source, "physics.diffusivity must be positive")
    _require(p.c0 >= 0.0, source, "physics.c0 must be nonnegative")
    _require(p.epsilon > 0.0, source, "physics.epsilon must be positive")
    _require(s.kappa > 0.0, source, f"scheme.kappa must be positive, got {s.kappa}")
    for k in s.kappa_list:
        _require(k > 0.0, source, f"scheme.kappa_list entries must be positive, got {k}")
    if s.kappa_list:
        _require(all(a > b for a, b in zip(s.kappa_list, s.kappa_list[1:])), source,
                 f"scheme.kappa_list must be strictly decreasing, got {list(s.kappa_list)}")
    _require(s.dt > 0.0, source, "scheme.dt must be positive")
    _require(s.T > 0.0, source, "scheme.T must be positive")
    steps = s.T / s.dt
    _require(math.isfinite(steps) and round(steps) >= 1
             and abs(round(steps) * s.dt - s.T) <= 1e-9 * max(1.0, s.T), source,
             f"scheme.T = {s.T} must be a positive integer multiple of scheme.dt = {s.dt}")
    # the wave residual and the order-2 energies read three nodes
    _require(round(steps) >= 2, source,
             f"scheme.T = {s.T} at scheme.dt = {s.dt} gives {round(steps) + 1} nodes; "
             "at least 3 are needed (T >= 2 dt)")
    _require(0.0 < s.cfl_safety <= 1.0, source,
             f"scheme.cfl_safety must lie in (0, 1], got {s.cfl_safety}")
    _require(s.picard_tol > 0.0, source, "scheme.picard_tol must be positive")
    _require(s.picard_max_iter >= 1, source, "scheme.picard_max_iter must be >= 1")
    _require(s.diffusion_tol > 0.0, source, "scheme.diffusion_tol must be positive")
    _require(d.preset in PRESETS, source,
             f"data.preset must be one of {list(PRESETS)}, got {d.preset!r}")
    _require(d.amplitude >= 0.0, source, "data.amplitude must be nonnegative")
    _require(d.seed >= 0, source, f"data.seed must be >= 0, got {d.seed}")
    _require(cfg.outputs.snapshot_stride >= 1, source, "outputs.snapshot_stride must be >= 1")
    _require(cfg.diagnostics.max_time_order in (1, 2), source,
             f"diagnostics.max_time_order must be 1 or 2, got {cfg.diagnostics.max_time_order}")
