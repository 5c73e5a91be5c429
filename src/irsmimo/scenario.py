"""Scenario files: flat key-value text describing one simulation setup.

The grammar is deliberately small: one `key = value` pair per line, dotted
key prefixes for sections, `#` comments, SI units spelled in key suffixes
(`_m`, `_hz`, `_rad`, `_w`).  Example::

    wave.wavelength_m = 0.005
    tx.count = 5
    tx.spacing_m = 0.1
    tx.distance_m = 10.0
    tx.azimuth_rad = 3.6651914291880923
    tx.elevation_rad = 0.5235987755982988
    ...
    focusing = reflective
    meta.label = desk check

Unknown keys are rejected so typos fail loudly.  Syntax and conversion
errors carry the offending line; a value a section's dataclass rejects
carries the line of that section's first key in the file, a distance
pair too small for the common gain (response.eta0) the later of its two
lines, and a power ratio whose product with eta0^2 N_t N_r Q^2 overflows
the later power line (the later distance line when there is none).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from types import MappingProxyType

from .geometry import ArrayPose, IrsLayout
from .response import ReflectionConfig, WaveConfig, eta0

FOCUSING_MODES = ("reflective", "zero", "explicit")


class ScenarioError(Exception):
    """Raised for malformed or invalid scenario files."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class PowerConfig:
    """Per-antenna transmit power and receiver noise power, both in watts."""

    per_antenna_power: float = 1.0
    noise_power: float = 1.0

    def __post_init__(self) -> None:
        for name in ("per_antenna_power", "noise_power"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite")
        if self.snr == math.inf:
            raise ValueError("per_antenna_power / noise_power overflows")

    @property
    def snr(self) -> float:
        return self.per_antenna_power / self.noise_power


@dataclass(frozen=True)
class Scenario:
    """One complete simulation setup: wave, both arrays, surface, power."""

    wave: WaveConfig
    tx: ArrayPose
    rx: ArrayPose
    irs: IrsLayout
    reflection: ReflectionConfig = ReflectionConfig()
    power: PowerConfig = PowerConfig()
    focusing_mode: str = "reflective"
    focusing_betas: tuple[float, ...] | None = None
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a read-only copy, so the read-back check below cannot be bypassed
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))
        if self.focusing_mode not in FOCUSING_MODES:
            raise ValueError(
                f"focusing mode must be one of {FOCUSING_MODES}, got '{self.focusing_mode}'"
            )
        if self.focusing_mode == "explicit":
            if self.focusing_betas is None:
                raise ValueError("explicit focusing requires a beta list")
            if len(self.focusing_betas) != self.irs.n_elements:
                raise ValueError(
                    f"explicit focusing needs {self.irs.n_elements} phases, "
                    f"got {len(self.focusing_betas)}"
                )
            if not all(math.isfinite(b) for b in self.focusing_betas):
                raise ValueError("focusing_betas must be finite")
        elif self.focusing_betas is not None:
            raise ValueError("beta list is only allowed with focusing = explicit")
        for key, value in self.metadata.items():
            name, text = f"meta.{key}", str(value)
            try:
                readable = _parse_lines(f"{name} = {text}")[0] == {name: text}
            except ScenarioError:
                readable = False
            if not readable:
                raise ValueError(
                    f"metadata '{name}' = {text!r} would not read back from a scenario "
                    "file: keys and values must each be one line without '#' or surrounding "
                    "whitespace, values nonempty and keys without '='"
                )


# The file format: every key besides focusing and meta.*, with the dataclass
# field it sets and its type.  A key is required exactly when its field has
# no dataclass default; an absent optional key leaves the field at that
# default.  wave.carrier_hz sets no field of its own (it stands in for the
# wavelength) and is, like tile lengths defaulting to the pitch, focusing
# and meta.*, handled by hand in parse_scenario_text.
FORMAT = {
    "wave.wavelength_m": ("wavelength", float),
    "wave.carrier_hz": (None, float),
    "wave.absorption_inv_m": ("absorption", float),
    "tx.count": ("n_antennas", int),
    "tx.spacing_m": ("spacing", float),
    "tx.distance_m": ("distance", float),
    "tx.azimuth_rad": ("azimuth", float),
    "tx.elevation_rad": ("elevation", float),
    "tx.orient_azimuth_rad": ("orient_azimuth", float),
    "tx.orient_elevation_rad": ("orient_elevation", float),
    "rx.count": ("n_antennas", int),
    "rx.spacing_m": ("spacing", float),
    "rx.distance_m": ("distance", float),
    "rx.azimuth_rad": ("azimuth", float),
    "rx.elevation_rad": ("elevation", float),
    "rx.orient_azimuth_rad": ("orient_azimuth", float),
    "rx.orient_elevation_rad": ("orient_elevation", float),
    "irs.count_x": ("q_x", int),
    "irs.count_y": ("q_y", int),
    "irs.spacing_x_m": ("spacing_x", float),
    "irs.spacing_y_m": ("spacing_y", float),
    "irs.element_len_x_m": ("re_len_x", float),
    "irs.element_len_y_m": ("re_len_y", float),
    "reflection.amplitude": ("amplitude", float),
    "reflection.polarization_rad": ("polarization", float),
    "power.per_antenna_w": ("per_antenna_power", float),
    "power.noise_w": ("noise_power", float),
}

# Scenario parts built straight from their keys: dataclass and error label.
_PARTS = {
    "tx": (ArrayPose, "tx array"),
    "rx": (ArrayPose, "rx array"),
    "irs": (IrsLayout, "surface layout"),
    "reflection": (ReflectionConfig, "reflection"),
    "power": (PowerConfig, "power"),
}

_TILE_PITCH = {"irs.element_len_x_m": "irs.spacing_x_m", "irs.element_len_y_m": "irs.spacing_y_m"}

KEYS = (*FORMAT, "focusing", "focusing.betas_rad")
"""Every key the format accepts besides the free-form meta.* ones."""


def _parse_lines(text: str) -> tuple[dict, dict]:
    """Split scenario text into {key: raw value} plus {key: line number}."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ScenarioError("expected 'key = value'", lineno)
        key, value = (part.strip() for part in body.split("=", 1))
        if not key:
            raise ScenarioError("empty key", lineno)
        if key in values:
            raise ScenarioError(f"duplicate key '{key}'", lineno)
        if not value:
            raise ScenarioError(f"empty value for '{key}'", lineno)
        values[key] = value
        lines[key] = lineno
    return values, lines


def _part_keys(part: str) -> list[str]:
    return [key for key in KEYS if key.split(".")[0] == part]


def _value(values: dict, lines: dict, key: str):
    kind = FORMAT[key][1]
    try:
        value = kind(values[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise ScenarioError(f"'{key}' expects {what}, got '{values[key]}'", lines.get(key))
    return value


def _fields(values: dict, lines: dict, part: str) -> dict:
    """{field: value} for the keys of one part present in the file."""
    return {
        FORMAT[key][0]: _value(values, lines, key)
        for key in _part_keys(part)
        if key in values and FORMAT[key][0]
    }


def _build(make, kwargs: dict, lines: dict, part: str, label: str):
    """make(**kwargs), with a ValueError re-raised at the part's first key in the file."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        line = min((lines[key] for key in _part_keys(part) if key in lines), default=None)
        raise ScenarioError(f"{label}: {exc}", line) from None


def parse_scenario(path) -> Scenario:
    """Read and validate a scenario file; raise ScenarioError on any problem."""
    with open(path, encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def parse_scenario_text(text: str) -> Scenario:
    values, lines = _parse_lines(text)
    for tile, pitch in _TILE_PITCH.items():
        if pitch in values:
            values.setdefault(tile, values[pitch])
    for key, (name, _) in FORMAT.items():
        part = _PARTS.get(key.split(".")[0])
        if part and key not in values:
            if any(f.name == name and f.default is MISSING for f in fields(part[0])):
                raise ScenarioError(f"missing required key '{key}'")

    wave = _fields(values, lines, "wave")
    carrier = _value(values, lines, "wave.carrier_hz") if "wave.carrier_hz" in values else None
    if ("wavelength" in wave) == (carrier is not None):
        key = "wave.carrier_hz" if carrier is not None else "wave.wavelength_m"
        raise ScenarioError(
            "exactly one of wave.wavelength_m / wave.carrier_hz is required", lines.get(key)
        )
    make = WaveConfig if carrier is None else partial(WaveConfig.from_carrier, carrier)
    parts = {"wave": _build(make, wave, lines, "wave", "wave")}
    for part, (cls, label) in _PARTS.items():
        parts[part] = _build(cls, _fields(values, lines, part), lines, part, label)
    distance_line = max(lines["tx.distance_m"], lines["rx.distance_m"])
    try:
        gain = float(eta0(*(parts[part] for part in ("wave", "reflection", "irs", "tx", "rx"))))
    except ValueError as exc:
        raise ScenarioError(str(exc), distance_line) from None
    # every hop entry has unit modulus, so this bounds rho sigma^2 at any phases and tilts
    n_t, n_r, q = parts["tx"].n_antennas, parts["rx"].n_antennas, parts["irs"].n_elements
    if parts["power"].snr * gain * gain * n_t * n_r * q * q == math.inf:
        line = max((lines[k] for k in _part_keys("power") if k in lines), default=distance_line)
        raise ScenarioError("the power ratio times eta0^2 N_t N_r Q^2 overflows", line)

    if "focusing" in values:
        parts["focusing_mode"] = values["focusing"]
    if "focusing.betas_rad" in values:
        try:
            betas = tuple(float(tok) for tok in values["focusing.betas_rad"].split(","))
        except ValueError:
            betas = (math.nan,)
        if not all(math.isfinite(b) for b in betas):
            raise ScenarioError(
                "'focusing.betas_rad' expects comma-separated finite numbers",
                lines["focusing.betas_rad"],
            )
        parts["focusing_betas"] = betas
    parts["metadata"] = {
        key[len("meta.") :]: value for key, value in sorted(values.items()) if key.startswith("meta.")
    }
    scn = _build(Scenario, parts, lines, "focusing", "focusing")

    stray = [key for key in values if key not in KEYS and not key.startswith("meta.")]
    if stray:
        key = min(stray, key=lines.get)
        raise ScenarioError(f"unknown key '{key}'", lines[key])
    return scn


def serialize_scenario(scn: Scenario) -> str:
    """Canonical text form: sorted keys, exact float round trip via repr."""
    pairs = [
        (key, str(kind(getattr(getattr(scn, key.split(".")[0]), name))))
        for key, (name, kind) in FORMAT.items()
        if name
    ]
    pairs.append(("focusing", scn.focusing_mode))
    if scn.focusing_betas is not None:
        pairs.append(("focusing.betas_rad", ", ".join(str(float(b)) for b in scn.focusing_betas)))
    for key, value in scn.metadata.items():
        pairs.append((f"meta.{key}", str(value)))
    return "\n".join(f"{key} = {value}" for key, value in sorted(pairs)) + "\n"


def scenario_hash(scn: Scenario) -> str:
    """Stable content hash used to stamp CSV outputs."""
    return hashlib.sha256(serialize_scenario(scn).encode("utf-8")).hexdigest()
