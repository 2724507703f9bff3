"""Strict JSON scenario/experiment configuration.

One document with top-level keys ``bs``, ``trajectory``, ``clock``,
``schedule``, ``noise``, ``seed``, ``trials`` and ``experiment``; every
key is optional (defaults come from the selected experiment) and unknown
keys are rejected so sweep typos fail loudly.

Example::

    {
      "bs": {"positions": [[0, 0], [30, 0], [30, 30], [0, 30]]},
      "trajectory": {"kind": "random-placement", "center": [15, 15],
                     "half_side": 5.0, "speed": 5.0},
      "clock": {"offset_m": 30.0, "drift_ppm": 5.0},
      "schedule": {"slot_interval": 0.01, "bs_order": [0, 1, 2, 3],
                   "start_time": 0.0, "m_per_fix": 8},
      "noise": {"sigma": 0.1},
      "seed": 20260808,
      "trials": 1000,
      "experiment": {"name": "speed-sweep", "grid": [0.1, 1, 5, 10, 20],
                     "estimators": ["kvd", "d"], "prior_std": 2.0}
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np

from .errors import ConfigError
from .experiments import DEFAULT_SEED, default_scenario, default_spec
from .model import BsConstellation
from .simulate import (
    Circular,
    ClockModel,
    ConstantVelocity,
    RandomPlacement,
    Stationary,
    TdmaSchedule,
)

# Only place in the package where the propagation speed appears: converting
# an oscillator drift given in ppm into range-rate units.
SPEED_OF_LIGHT_M_S = 299792458.0

_TOP_KEYS = {"bs", "trajectory", "clock", "schedule", "noise", "seed",
             "trials", "experiment"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} section must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def load_config(path) -> dict:
    """Read and structurally validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "config")
    return raw


_REQUIRED = object()


def _value(section: dict, key: str, where: str, convert, default):
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"{where} needs {key!r}")
        return default
    try:
        return convert(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} {key!r} is not numeric: "
                          f"{section[key]!r}") from exc


def _number(section: dict, key: str, where: str, default=_REQUIRED):
    """``section[key]`` as a float; ConfigError when it is missing without
    a default, or not a number."""
    return _value(section, key, where, float, default)


def _vector(section: dict, key: str, where: str) -> np.ndarray:
    """Required ``section[key]`` as an array of floats."""
    return _value(section, key, where,
                  lambda v: np.asarray(v, dtype=float), _REQUIRED)


def _trajectory_from(section: dict):
    where = "trajectory"
    if not isinstance(section, dict):
        raise ConfigError("trajectory section must be an object")
    kind = section.get("kind")
    if kind == "stationary":
        _check_keys(section, {"kind", "position"}, where)
        return Stationary(p0=_vector(section, "position", where))
    if kind == "constant-velocity":
        _check_keys(section, {"kind", "position", "velocity", "t_ref"}, where)
        return ConstantVelocity(p0=_vector(section, "position", where),
                                v=_vector(section, "velocity", where),
                                t_ref=_number(section, "t_ref", where, 0.0))
    if kind == "circular":
        _check_keys(section, {"kind", "center", "radius", "angular_rate",
                              "speed", "phase"}, where)
        if ("angular_rate" in section) == ("speed" in section):
            raise ConfigError(
                "circular trajectory needs exactly one of angular_rate/speed")
        center = _vector(section, "center", where)
        radius = _number(section, "radius", where)
        if not radius > 0:
            raise ConfigError("circular trajectory radius must be positive")
        rate = (_number(section, "angular_rate", where)
                if "angular_rate" in section
                else _number(section, "speed", where) / radius)
        return Circular(center=center, radius=radius, angular_rate=rate,
                        phase=_number(section, "phase", where, 0.0))
    if kind == "random-placement":
        _check_keys(section, {"kind", "center", "half_side", "speed",
                              "t_ref"}, where)
        return RandomPlacement(center=_vector(section, "center", where),
                               half_side=_number(section, "half_side", where),
                               speed=_number(section, "speed", where),
                               t_ref=_number(section, "t_ref", where, 0.0))
    raise ConfigError(f"unknown trajectory kind {kind!r}")


def _clock_from(section: dict) -> ClockModel:
    _check_keys(section, {"offset_m", "drift_ppm", "drift_mps", "t_ref"},
                "clock")
    if ("drift_ppm" in section) and ("drift_mps" in section):
        raise ConfigError("give drift as ppm or m/s, not both")
    if "drift_ppm" in section:
        drift = _number(section, "drift_ppm", "clock") * 1e-6 \
            * SPEED_OF_LIGHT_M_S
    elif "drift_mps" in section:
        drift = _number(section, "drift_mps", "clock")
    else:
        raise ConfigError("clock section needs drift_ppm or drift_mps")
    return ClockModel(b0=_number(section, "offset_m", "clock", 0.0), d=drift,
                      t_ref=_number(section, "t_ref", "clock", 0.0))


def scenario_from_config(raw: dict, experiment: str | None = None,
                         seed: int | None = None,
                         trials: int | None = None):
    """Resolve a config document into (ScenarioConfig, ExperimentSpec).

    Precedence: experiment defaults, then config-file sections, then the
    explicit ``seed``/``trials`` arguments (the CLI flags).
    """
    name = experiment
    exp_section = raw.get("experiment", {})
    if not isinstance(exp_section, dict):
        raise ConfigError("experiment section must be an object")
    _check_keys(exp_section, {"name", "grid", "estimators", "prior_std",
                              "duration_s"}, "experiment")
    if name is None:
        name = exp_section.get("name")
    if name is not None and "name" in exp_section \
            and exp_section["name"] != name:
        raise ConfigError(
            f"config names experiment {exp_section['name']!r}, "
            f"got {name!r} on the command line")

    cfg = default_scenario(name, seed=DEFAULT_SEED if seed is None else seed)

    # One replace for all the sections, so the scenario is checked as a
    # whole (a 3-D constellation with a 3-D trajectory, a new BS count with
    # its order).
    changes = {}
    if "bs" in raw:
        _check_keys(raw["bs"], {"positions"}, "bs")
        changes["bs"] = BsConstellation(_vector(raw["bs"], "positions", "bs"))
    if "trajectory" in raw:
        changes["trajectory"] = _trajectory_from(raw["trajectory"])
    if "clock" in raw:
        changes["clock"] = _clock_from(raw["clock"])
    if "schedule" in raw:
        sched = raw["schedule"]
        _check_keys(sched, {"slot_interval", "bs_order", "start_time",
                            "m_per_fix", "epoch_slot_offset"}, "schedule")
        base = cfg.schedule
        changes["schedule"] = TdmaSchedule(
            bs_order=sched.get("bs_order", base.bs_order),
            slot_interval=_number(sched, "slot_interval", "schedule",
                                  base.slot_interval),
            start_time=_number(sched, "start_time", "schedule",
                               base.start_time))
        # ScenarioConfig checks the integer keys; int() would truncate 6.9.
        changes["m_per_fix"] = sched.get("m_per_fix", cfg.m_per_fix)
        changes["epoch_slot_offset"] = sched.get("epoch_slot_offset",
                                                 cfg.epoch_slot_offset)
    if "noise" in raw:
        _check_keys(raw["noise"], {"sigma"}, "noise")
        changes["sigma"] = raw["noise"].get("sigma", cfg.sigma)
    changes["seed"] = raw.get("seed", cfg.seed) if seed is None else seed
    changes["n_trials"] = raw.get("trials", cfg.n_trials)
    cfg = replace(cfg, **changes)
    if "duration_s" in exp_section:
        window = cfg.m_per_fix * cfg.schedule.slot_interval
        fixes = _number(exp_section, "duration_s", "experiment") / window
        if not math.isfinite(fixes):
            raise ConfigError("experiment duration_s must be finite")
        cfg = replace(cfg, n_trials=int(round(fixes)))
    if trials is not None:
        cfg = replace(cfg, n_trials=trials)

    spec = None
    if name is not None:
        overrides = {}
        if "grid" in exp_section:
            overrides["grid"] = _value(exp_section, "grid", "experiment",
                                       lambda v: tuple(float(g) for g in v),
                                       _REQUIRED)
        if "estimators" in exp_section:
            overrides["estimators"] = _value(exp_section, "estimators",
                                             "experiment", tuple, _REQUIRED)
        if "prior_std" in exp_section:
            overrides["prior_std"] = _number(exp_section, "prior_std",
                                             "experiment")
        spec = default_spec(name, **overrides)
    return cfg, spec
