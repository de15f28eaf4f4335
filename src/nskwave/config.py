"""Strict run configuration: flat sectioned key = value files.

The format is a TOML-compatible subset (bracketed sections, one key =
value per line, # comments).  Parsing is strict: unknown sections or
keys are rejected with their line number, and validation reports every
violated constraint at once, not just the first.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DomainError
from .riemann import (EndState, WavePattern, pattern_from_intermediate,
                      solve_intermediate_state)
from .solver import Grid, Perturbation, SchemeConfig
from .thermo import GasModel

_MISSING = object()

#: section -> key -> (python type, default or _MISSING for required)
SCHEMA = {
    "gas": {"gamma": (float, _MISSING), "alpha": (float, 0.0), "beta": (float, 0.0)},
    "states": {
        "v_plus": (float, _MISSING), "u_plus": (float, _MISSING),
        "v_minus": (float, None), "u_minus": (float, None), "v_m": (float, None),
        "strength_cap": (float, 0.25),
    },
    "grid": {"x_lo": (float, _MISSING), "x_hi": (float, _MISSING), "n": (int, _MISSING)},
    "scheme": {
        "cfl": (float, 0.4), "t_end": (float, _MISSING),
        "output_stride": (int, 50), "shift": (bool, True),
    },
    "perturbation": {
        "kind": (str, "none"), "amplitude": (float, 0.0), "center": (float, 0.0),
        "width": (float, 1.0), "field": (str, "both"),
    },
    "output": {"dir": (str, "out"), "formats": (str, "csv")},
}

_INT_RE = re.compile(r"^[+-]?\d+$")


def _parse_value(raw: str):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    if raw.lower() == "true":
        return True
    if raw.lower() == "false":
        return False
    if _INT_RE.match(raw):
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        return raw


@dataclass
class RunConfig:
    gas: GasModel
    states: dict
    grid: dict
    scheme: dict
    perturbation: dict
    output: dict

    def build_pattern(self) -> WavePattern:
        s = self.states
        right = EndState(v=s["v_plus"], u=s["u_plus"])
        cap = s["strength_cap"]
        if s["v_m"] is not None:
            return pattern_from_intermediate(s["v_m"], right, self.gas,
                                             v_minus=s["v_minus"], strength_cap=cap)
        left = EndState(v=s["v_minus"], u=s["u_minus"])
        return solve_intermediate_state(left, right, self.gas, strength_cap=cap)

    def make_grid(self) -> Grid:
        return Grid(**self.grid)

    def make_scheme(self) -> SchemeConfig:
        return _scheme(**self.scheme, perturbation=Perturbation(**self.perturbation))

    @property
    def formats(self):
        return [f.strip() for f in self.output["formats"].split(",") if f.strip()]


def _scheme(t_end, cfl, output_stride, shift, perturbation=Perturbation()) -> SchemeConfig:
    return SchemeConfig(t_end=t_end, cfl_parabolic=cfl, output_stride=output_stride,
                        perturbation=perturbation, shift_enabled=shift)


#: section -> constructor whose __post_init__ holds the section's rules
_BUILDERS = {"gas": GasModel, "grid": Grid, "scheme": _scheme, "perturbation": Perturbation}


def _validate(values: dict, errors: list):
    for section, build in _BUILDERS.items():
        if _MISSING not in values[section].values():
            try:
                build(**values[section])
            except (ConfigError, DomainError) as exc:
                errors.append(f"{section}: {exc}")
    st = values["states"]
    if st["v_plus"] is not _MISSING and not st["v_plus"] > 0.0:
        errors.append("states.v_plus must be positive")
    has_left = st["u_minus"] is not None
    has_vm = st["v_m"] is not None
    if has_left and has_vm:
        errors.append("states: give either (v_minus, u_minus) or v_m, not both")
    if not has_left and not has_vm:
        errors.append("states: one of (v_minus, u_minus) or v_m is required")
    if has_left and st["v_minus"] is None:
        errors.append("states.v_minus is required when u_minus is given")
    for fmt in values["output"]["formats"].split(","):
        if fmt.strip() not in ("csv", "ndjson"):
            errors.append(f"output.formats: unknown format {fmt.strip()!r}")


def parse_config(path) -> RunConfig:
    """Read, type-check and validate a configuration file."""
    text = Path(path).read_text()
    values = {sec: {k: spec[1] for k, spec in keys.items()} for sec, keys in SCHEMA.items()}
    errors: list[str] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {lineno}: malformed section header {line!r}")
                continue
            section = line[1:-1].strip()
            if section not in SCHEMA:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, _, rawval = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        want, _default = SCHEMA[section][key]
        val = _parse_value(rawval)
        if want is float and isinstance(val, (int, float)) and not isinstance(val, bool):
            val = float(val)
        if want is int and isinstance(val, float) and val.is_integer():
            val = int(val)
        if not isinstance(val, want) or (want is not bool and isinstance(val, bool)):
            errors.append(
                f"line {lineno}: key {key!r} expects {want.__name__}, got {val!r}")
            continue
        values[section][key] = val

    for sec, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            if default is _MISSING and values[sec][key] is _MISSING:
                errors.append(f"missing required key {sec}.{key}")
    _validate(values, errors)
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))

    return RunConfig(gas=GasModel(**values["gas"]), states=values["states"], grid=values["grid"],
                     scheme=values["scheme"], perturbation=values["perturbation"],
                     output=values["output"])
