"""Strict run configuration: flat sectioned key = value files.

The format is INI-like: bracketed sections, one key = value per line and
# comments.  Values are read as true/false, integers, floats or quoted
strings, and a bare word is read as a string.  Each section is a
dataclass whose fields are the section's keys, with their types and
defaults; its ``__post_init__`` holds the section's rules.  Parsing is
strict: unknown sections or keys, a key set twice and a float that is
not finite are rejected with their line number, and validation reports
every violated constraint at once, not just the first.
"""
from __future__ import annotations

import dataclasses
import math
import re
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DomainError, check
from .riemann import (DEFAULT_STRENGTH_CAP, EndState, WavePattern,
                      pattern_from_intermediate, solve_intermediate_state)
from .solver import Grid, Perturbation, SchemeConfig
from .thermo import GasModel

FORMATS = ("csv", "ndjson")


@dataclass(frozen=True)
class States:
    """The right far-field state, and either the left state, to be resolved
    into a pattern, or the intermediate volume ``v_m`` (with an optional
    ``v_minus`` on the expansion curve), to construct one."""

    v_plus: float
    u_plus: float
    v_minus: float | None = None
    u_minus: float | None = None
    v_m: float | None = None
    strength_cap: float = DEFAULT_STRENGTH_CAP

    def __post_init__(self):
        has_left, has_vm = self.u_minus is not None, self.v_m is not None
        check(ConfigError, [
            (self.v_plus > 0.0, "v_plus must be positive"),
            (not (has_left and has_vm), "give either (v_minus, u_minus) or v_m, not both"),
            (has_left or has_vm, "one of (v_minus, u_minus) or v_m is required"),
            (not has_left or self.v_minus is not None,
             "v_minus is required when u_minus is given")])


@dataclass(frozen=True)
class Output:
    """Where ``simulate`` writes, and in which formats."""

    dir: str = "out"
    #: comma list of FORMATS
    formats: str = "csv"

    def __post_init__(self):
        check(ConfigError, [(fmt.strip() in FORMATS, f"unknown format {fmt.strip()!r}")
                            for fmt in self.formats.split(",")])


#: section -> the dataclass whose fields are its keys
SECTIONS = {"gas": GasModel, "states": States, "grid": Grid, "scheme": SchemeConfig,
            "perturbation": Perturbation, "output": Output}


def _key_types(cls) -> dict:
    """key -> python type of each field of ``cls``, with Optional unwrapped."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in dataclasses.fields(cls):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        types[f.name] = args[0] if args else hints[f.name]
    return types


_KEY_TYPES = {section: _key_types(cls) for section, cls in SECTIONS.items()}

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
    """A parsed configuration: the built object of each section."""

    gas: GasModel
    states: States
    grid: Grid
    scheme: SchemeConfig
    perturbation: Perturbation
    output: Output

    def build_pattern(self) -> WavePattern:
        s = self.states
        right = EndState(v=s.v_plus, u=s.u_plus)
        if s.v_m is not None:
            return pattern_from_intermediate(s.v_m, right, self.gas,
                                             v_minus=s.v_minus, strength_cap=s.strength_cap)
        left = EndState(v=s.v_minus, u=s.u_minus)
        return solve_intermediate_state(left, right, self.gas, strength_cap=s.strength_cap)

    @property
    def formats(self):
        return [f.strip() for f in self.output.formats.split(",") if f.strip()]


def parse_config(path) -> RunConfig:
    """Read, type-check and validate a configuration file."""
    text = Path(path).read_text()
    values: dict[str, dict] = {section: {} for section in SECTIONS}
    set_at: dict[tuple, int] = {}    # (section, key) -> the line that set it
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
            if section not in SECTIONS:
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
        if key not in _KEY_TYPES[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if (section, key) in set_at:
            errors.append(f"line {lineno}: key {key!r} already set on line {set_at[section, key]}")
            continue
        set_at[section, key] = lineno
        want = _KEY_TYPES[section][key]
        val = _parse_value(rawval)
        if want is float and isinstance(val, (int, float)) and not isinstance(val, bool):
            val = float(val)
        if want is int and isinstance(val, float) and val.is_integer():
            val = int(val)
        if not isinstance(val, want) or (want is not bool and isinstance(val, bool)):
            errors.append(
                f"line {lineno}: key {key!r} expects {want.__name__}, got {val!r}")
            continue
        if isinstance(val, float) and not math.isfinite(val):
            errors.append(f"line {lineno}: key {key!r} must be finite, got {val!r}")
            continue
        values[section][key] = val

    built = {}
    for section, cls in SECTIONS.items():
        absent = [f.name for f in dataclasses.fields(cls)
                  if f.default is dataclasses.MISSING
                  and f.default_factory is dataclasses.MISSING
                  and f.name not in values[section]]
        # a key rejected on its line is present, and its line says why
        errors += [f"missing required key {section}.{key}" for key in absent
                   if (section, key) not in set_at]
        if not absent:
            try:
                built[section] = cls(**values[section])
            except (ConfigError, DomainError) as exc:
                errors.append(f"{section}: {exc}")
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))
    return RunConfig(**built)
