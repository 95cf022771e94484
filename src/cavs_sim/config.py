"""Configuration and scenario documents.

One JSON object configures everything: sections geometry / camera /
friction / controller / object plus an integer seed.  Every section is
optional (an empty document runs the built-in defaults), unknown keys are
rejected at every level, and all validation happens before any command
produces output.

Scenario files are JSON too: a list of steps with a target mode, duration,
and an optional per-finger disturbance, plus optional tick_dt_s and
initial_gap_mm settings.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .control import ControllerConfig
from .friction import ContactState, Direction, FrictionParams
from .kinematics import CavsGeometry, GeometryInfeasible
from .plant import Disturbance, ObjectModel, ScenarioStep
from .sensing import CameraModel


class ConfigError(ValueError):
    """Document failed parsing or validation."""


@dataclass(frozen=True)
class Config:
    geometry: CavsGeometry = field(default_factory=CavsGeometry)
    camera: CameraModel = field(default_factory=CameraModel)
    friction: FrictionParams = field(default_factory=FrictionParams)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    object: ObjectModel = field(default_factory=ObjectModel)
    seed: int = 0


# bound on the magnitude of every real number in a config document, of a
# disturbance's magnitude and the initial gap in a scenario, and of every
# float flag (mm, N, N/mm, px, ratios and percent alike): far beyond the
# fingertip's scale, and far from where the models' products overflow;
# scenario times are bounded by the tick cap instead
MAX_MAGNITUDE = 1e3
_MAX_IMAGE_PX = 4096  # per side; a 4096 x 4096 RGB frame is 48 MiB

_GEOMETRY_KEYS = ("l1", "l2", "l3", "l_r", "p_ax", "p_ay", "p_cx0", "p_ex0", "p_ey0", "d_sc")
_CAMERA_KEYS = ("focal_px", "image_width_px", "image_height_px", "noise_std_pct")
_FRICTION_KEYS = ("d_LC_end", "d_SC_start", "f_local_max", "f_local_min", "mu", "adhesion")
_CONTROLLER_KEYS = ("r_target_LC", "r_target_SC", "epsilon", "step_open", "step_close")
_OBJECT_KEYS = ("nominal_width", "stiffness", "required_hold_force", "slide_demand")


def _require_mapping(val, where: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(val).__name__}")
    return val


def _reject_unknown(data: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(unknown)} in {where}")


def _number(val, where: str, limit: float = math.inf) -> float:
    """A finite float no further than limit from 0; json.loads accepts NaN
    and Infinity, so they are rejected here."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:  # an integer beyond the float range
        num = math.inf
    if not math.isfinite(num):
        raise ConfigError(f"{where} must be finite, got {num!r}")
    if abs(num) > limit:
        raise ConfigError(f"{where} must lie within +/-{limit:g}, got {num:g}")
    return num


def _coeff_table(data, where: str) -> dict:
    data = _require_mapping(data, where)
    _reject_unknown(data, ("LC", "SC"), where)
    table = {}
    for state_name in ("LC", "SC"):
        if state_name not in data:
            raise ConfigError(f"{where} missing {state_name} row")
        row = _require_mapping(data[state_name], f"{where}.{state_name}")
        _reject_unknown(row, ("lateral", "longitudinal"), f"{where}.{state_name}")
        for dir_name in ("lateral", "longitudinal"):
            if dir_name not in row:
                raise ConfigError(f"{where}.{state_name} missing {dir_name}")
            table[(ContactState[state_name], Direction[dir_name])] = _number(
                row[dir_name], f"{where}.{state_name}.{dir_name}", MAX_MAGNITUDE)
    return table


def _build(section: dict, keys: tuple[str, ...], where: str, ctor, **extra):
    _reject_unknown(section, keys, where)
    kwargs = dict(extra)
    for key in keys:
        if key in section and key not in kwargs:
            kwargs[key] = _number(section[key], f"{where}.{key}")
    try:
        built = ctor(**kwargs)
    except (ValueError, GeometryInfeasible) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # after the model's own range checks, so theirs speak first
    for key, val in kwargs.items():
        if isinstance(val, float):
            _number(val, f"{where}.{key}", MAX_MAGNITUDE)
    return built


def parse_config(data: dict) -> Config:
    data = _require_mapping(data, "config")
    _reject_unknown(data, ("geometry", "camera", "friction", "controller", "object", "seed"),
                    "config")
    geometry = _build(_require_mapping(data.get("geometry", {}), "geometry"),
                      _GEOMETRY_KEYS, "geometry", CavsGeometry)

    cam_section = _require_mapping(data.get("camera", {}), "camera")
    _reject_unknown(cam_section, _CAMERA_KEYS, "camera")
    pixels = {}
    for key in ("image_width_px", "image_height_px"):
        if key in cam_section:
            val = cam_section[key]
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"camera.{key} must be an integer")
            if val > _MAX_IMAGE_PX:
                raise ConfigError(f"camera.{key} must be at most {_MAX_IMAGE_PX:,} px, "
                                  f"got {val:,}")
            pixels[key] = val
    camera = _build(cam_section, _CAMERA_KEYS, "camera", CameraModel, **pixels)

    fric_section = _require_mapping(data.get("friction", {}), "friction")
    _reject_unknown(fric_section, _FRICTION_KEYS, "friction")
    tables = {name: _coeff_table(fric_section[name], f"friction.{name}")
              for name in ("mu", "adhesion") if name in fric_section}
    friction = _build(fric_section, _FRICTION_KEYS, "friction", FrictionParams, **tables)

    controller = _build(_require_mapping(data.get("controller", {}), "controller"),
                        _CONTROLLER_KEYS, "controller", ControllerConfig)
    obj = _build(_require_mapping(data.get("object", {}), "object"),
                 _OBJECT_KEYS, "object", ObjectModel)

    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError("seed must be >= 0")

    if not geometry.d_sc > friction.d_SC_start:
        raise ConfigError(
            f"geometry.d_sc ({geometry.d_sc:g}) must exceed friction.d_SC_start "
            f"({friction.d_SC_start:g}) for the rising press-curve tail")

    return Config(geometry=geometry, camera=camera, friction=friction,
                  controller=controller, object=obj, seed=seed)


def load_config(path: str | Path | None) -> Config:
    """Config from a JSON file; None loads the built-in defaults."""
    if path is None:
        return Config()
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}") from exc
    return parse_config(data)


_SCENARIO_KEYS = ("steps", "tick_dt_s", "initial_gap_mm")
_MAX_SCENARIO_TICKS = 100_000
_STEP_KEYS = ("name", "target_mode", "duration_s", "disturbance")
_DISTURBANCE_KEYS = ("finger", "kind", "magnitude", "t_offset_s", "duration_s")


@dataclass(frozen=True)
class Scenario:
    steps: tuple[ScenarioStep, ...]
    tick_dt_s: float = 0.1
    initial_gap_mm: float | None = None  # None = object width + 2


def parse_scenario(data: dict) -> Scenario:
    data = _require_mapping(data, "scenario")
    _reject_unknown(data, _SCENARIO_KEYS, "scenario")
    raw_steps = data.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ConfigError("scenario.steps must be a non-empty list")
    steps = []
    for idx, raw in enumerate(raw_steps):
        where = f"scenario.steps[{idx}]"
        raw = _require_mapping(raw, where)
        _reject_unknown(raw, _STEP_KEYS, where)
        name = raw.get("name", f"step {idx + 1}")
        if not isinstance(name, str):
            raise ConfigError(f"{where}.name must be a string")
        mode_name = raw.get("target_mode")
        if mode_name not in ("LC", "SC"):
            raise ConfigError(f"{where}.target_mode must be LC or SC, got {mode_name!r}")
        duration = _number(raw.get("duration_s", 0), f"{where}.duration_s")
        disturbance = None
        if raw.get("disturbance") is not None:
            draw = _require_mapping(raw["disturbance"], f"{where}.disturbance")
            _reject_unknown(draw, _DISTURBANCE_KEYS, f"{where}.disturbance")
            magnitude = _number(draw.get("magnitude", 0), f"{where}.disturbance.magnitude",
                                MAX_MAGNITUDE)
            t_offset = _number(draw.get("t_offset_s", 0.0), f"{where}.disturbance.t_offset_s")
            length = (None if draw.get("duration_s") is None
                      else _number(draw["duration_s"], f"{where}.disturbance.duration_s"))
            try:
                disturbance = Disturbance(finger=draw.get("finger", ""), kind=draw.get("kind", ""),
                                          magnitude=magnitude, t_offset_s=t_offset,
                                          duration_s=length)
            except ValueError as exc:
                raise ConfigError(f"{where}.disturbance: {exc}") from exc
        try:
            steps.append(ScenarioStep(name=name, target_mode=ContactState[mode_name],
                                      duration_s=duration, disturbance=disturbance))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc

    tick_dt = _number(data.get("tick_dt_s", 0.1), "scenario.tick_dt_s")
    if not tick_dt > 0:
        raise ConfigError("scenario.tick_dt_s must be positive")
    # every step runs at least one tick; a quotient too large for a float is inf
    n_ticks = sum(max(1.0, step.duration_s / tick_dt) for step in steps)
    if not n_ticks <= _MAX_SCENARIO_TICKS:
        raise ConfigError(f"scenario runs {n_ticks:,.0f} ticks, more than the limit of "
                          f"{_MAX_SCENARIO_TICKS:,}")
    gap = data.get("initial_gap_mm")
    gap_val = None if gap is None else _number(gap, "scenario.initial_gap_mm", MAX_MAGNITUDE)
    if gap_val is not None and gap_val < 0:
        raise ConfigError("scenario.initial_gap_mm must be >= 0")
    return Scenario(steps=tuple(steps), tick_dt_s=tick_dt, initial_gap_mm=gap_val)


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path}: invalid JSON: {exc}") from exc
    return parse_scenario(data)
