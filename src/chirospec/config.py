"""Experiment configuration: YAML parsing, validation, canonical serialization.

One YAML document drives a whole experiment.  The drive section always
stores the right-handed coupling values; both enantiomers are derived
from it at run time, so left/right comparisons cannot drift apart.
A key left out takes the default of the value type its section builds:
the resonant strong-dissipation point (gamma = 1, all couplings 0.1, zero
detunings, uncorrelated probe of unit width).
"""

from __future__ import annotations

import io
import math
import os
import re
from dataclasses import dataclass
from typing import Collection, Optional

import yaml

from .biphoton import BiphotonAmplitude, JsaKind
from .errors import ValidationError
from .model import DriveConfig, NoiseParams

#: The probe kinds, each named in a config by its ``JsaKind`` value.
_PROBE_KINDS = {k.value: k for k in JsaKind}

#: Most idler frequencies one spectrum command may hold (the shipped configs use 20).
MAX_IDLER_COUNT = 1_000
#: Most (T0, idler) cells one sweep may hold (the shipped map uses 400).
MAX_SWEEP_CELLS = 40_000


@dataclass(frozen=True)
class SweepSpec:
    """Axes of a (T0, idler frequency) sweep."""

    t0_min: float
    t0_max: float
    t0_count: int
    omega_l_min: float
    omega_l_max: float
    omega_l_count: int

    def __post_init__(self):
        if not (self.t0_count >= 2 and self.omega_l_count >= 2):
            raise ValidationError("sweep axis counts must be >= 2")
        if self.t0_count * self.omega_l_count > MAX_SWEEP_CELLS:
            raise ValidationError(
                f"sweep of {self.t0_count} x {self.omega_l_count} cells exceeds "
                f"the limit of {MAX_SWEEP_CELLS} cells"
            )
        if not (self.t0_max > self.t0_min >= 0.0):
            raise ValidationError("sweep.t0: 0 <= min < max")
        if not (self.omega_l_max > self.omega_l_min):
            raise ValidationError("sweep.omega_l: min < max")
        if not math.isfinite(self.omega_l_max - self.omega_l_min):
            raise ValidationError("sweep.omega_l: max - min must be finite")

    def t0_values(self) -> list[float]:
        return _linspace(self.t0_min, self.t0_max, self.t0_count)

    def omega_l_values(self) -> list[float]:
        return _linspace(self.omega_l_min, self.omega_l_max, self.omega_l_count)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (drive values are right-handed)."""

    drive: DriveConfig
    noise: NoiseParams
    probe: BiphotonAmplitude
    scan_center: Optional[float] = None
    scan_half_width: Optional[float] = None
    scan_step: Optional[float] = None
    idler: Optional[tuple[float, ...]] = None
    sweep: Optional[SweepSpec] = None
    output_dir: str = "chirospec_out"


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _require_mapping(node, where: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ValidationError(f"section '{where}' must be a mapping")
    return node


def _reject_unknown(node: dict, allowed: Collection[str], where: str) -> None:
    for key in node:
        if key not in allowed:
            raise ValidationError(f"unknown key '{key}' in section '{where}'")


#: A number in exponent form: YAML reads it as a float only with a dot and a signed exponent.
_EXPONENT_FORM = re.compile(r"([-+]?)([0-9]*)\.?([0-9]*)[eE]([-+]?)([0-9]+)")


def _as_number(value, name: str) -> float:
    """A YAML scalar as a finite float; ranges are checked by the value types.

    Text that float() reads as a finite number, such as 1e6 or 1.0e6, which
    YAML reads as text, is still rejected, with the form YAML reads as a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        try:
            number = float(value) if isinstance(value, str) else math.nan
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise ValidationError(f"{name} must be a number")
        text = value.strip() if _EXPONENT_FORM.fullmatch(value.strip()) else repr(number)
        parts = _EXPONENT_FORM.fullmatch(text)
        if parts:  # 1e6 -> 1.0e+6
            sign, whole, fraction, exponent_sign, exponent = parts.groups()
            text = f"{sign}{whole or 0}.{fraction or 0}e{exponent_sign or '+'}{exponent}"
        raise ValidationError(f"{name} must be a number (YAML reads {value!r} as text; write {text})")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite")
    return value


def _number(node: dict, key: str, where: str) -> float:
    if key not in node:
        raise ValidationError(f"{where}.{key} is required")
    return _as_number(node[key], f"{where}.{key}")


def _integer(node: dict, key: str, where: str) -> int:
    value = node.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}.{key} must be an integer")
    return value


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


#: The numeric keys of each section, in read order, and the field each sets in the
#: value type the section builds (``ExperimentConfig`` for ``scan``).
_FIELDS = {
    "drive": _same("omega21", "omega31", "omega32", "delta21", "delta31"),
    "noise": _same("gamma"),
    "probe": {
        "omega_s_center": "omega_sc",
        "omega_l_center": "omega_lc",
        **_same("sigma", "sigma_p", "t_s", "t_l"),
        "omega_pump": "omega_p",
    },
    "scan": {"center": "scan_center", "half_width": "scan_half_width", "step": "scan_step"},
}
#: Fields whose key may be null, which means left out (their default is None).
_NULLABLE = {"omega_p", "scan_center", "scan_half_width", "scan_step"}
#: The axes of a sweep and the range keys of each axis with their readers, in read
#: order; key ``key`` of axis ``axis`` sets the ``SweepSpec`` field ``{axis}_{key}``.
_SWEEP_AXES = ("t0", "omega_l")
_RANGE_KEYS = {"min": _number, "max": _number, "count": _integer}


def _section(doc: dict, name: str, *other_keys: str) -> dict:
    """Section ``name`` of the document, with unknown keys rejected."""
    node = _require_mapping(doc.get(name), name)
    _reject_unknown(node, {*_FIELDS.get(name, ()), *other_keys}, name)
    return node


def _numbers(node: dict, name: str) -> dict[str, float]:
    """The numbers given in section ``name``, keyed by the field each sets."""
    return {
        field: _as_number(node[key], f"{name}.{key}")
        for key, field in _FIELDS[name].items()
        if key in node and not (node[key] is None and field in _NULLABLE)
    }


def _parse_idler(node) -> tuple[float, ...]:
    if isinstance(node, (int, float, str)):  # a scalar idler
        return (_as_number(node, "idler"),)
    node = _require_mapping(node, "idler")
    _reject_unknown(node, {"value", "values", "min", "max", "step"}, "idler")
    given = [k for k in ("value", "values", "min") if k in node]
    if len(given) != 1 or (given != ["min"] and {"max", "step"} & node.keys()):
        raise ValidationError(
            "idler needs exactly one of: value, values, or min/max/step"
        )
    if "value" in node:
        return (_number(node, "value", "idler"),)
    if "values" in node:
        values = node["values"]
        if not isinstance(values, list) or not values:
            raise ValidationError("idler.values must be a nonempty list")
        if len(values) > MAX_IDLER_COUNT:
            raise _too_many_idlers()
        return tuple(_as_number(v, f"idler.values[{k}]") for k, v in enumerate(values))
    lo = _number(node, "min", "idler")
    hi = _number(node, "max", "idler")
    step = _number(node, "step", "idler")
    if step <= 0:
        raise ValidationError("idler.step > 0")
    if hi < lo:
        raise ValidationError("idler.max >= idler.min")
    span = (hi - lo) / step + 1e-9
    # floor(span) + 1 values; checked on the float, which may be inf.
    if not span < MAX_IDLER_COUNT:
        raise _too_many_idlers()
    count = int(math.floor(span)) + 1
    return tuple(lo + k * step for k in range(count))


def _too_many_idlers() -> ValidationError:
    return ValidationError(f"idler list exceeds the limit of {MAX_IDLER_COUNT} values")


def _parse_sweep(node: dict) -> SweepSpec:
    _reject_unknown(node, _SWEEP_AXES, "sweep")
    axes = {axis: _require_mapping(node.get(axis), f"sweep.{axis}") for axis in _SWEEP_AXES}
    for axis, ranges in axes.items():
        _reject_unknown(ranges, _RANGE_KEYS, f"sweep.{axis}")
    if not all(axes.values()):
        raise ValidationError(f"sweep needs both {' and '.join(_SWEEP_AXES)} ranges")
    return SweepSpec(**{
        f"{axis}_{key}": read(ranges, key, f"sweep.{axis}")
        for axis, ranges in axes.items()
        for key, read in _RANGE_KEYS.items()
    })


def parse_config(text: str, name: str = "<file>") -> ExperimentConfig:
    """Parse and validate a YAML experiment description; YAML errors name it ``name``."""
    stream = io.StringIO(text)
    stream.name = name  # what PyYAML's messages call the stream
    try:
        doc = yaml.safe_load(stream)
    except yaml.YAMLError as exc:
        raise ValidationError(f"malformed config: {' '.join(str(exc).split())}") from exc
    except RecursionError:
        raise ValidationError("malformed config: nested too deeply") from None
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a mapping")
    _reject_unknown(doc, {*_FIELDS, "idler", "sweep", "output"}, "<top>")

    drive = DriveConfig(**_numbers(_section(doc, "drive"), "drive"))
    noise = NoiseParams(**_numbers(_section(doc, "noise"), "noise"))
    node = _section(doc, "probe", "kind")
    kind_name = node.get("kind", "uncorrelated")
    if not isinstance(kind_name, str) or kind_name not in _PROBE_KINDS:
        raise ValidationError(
            f"probe.kind must be one of {sorted(_PROBE_KINDS)}, got '{kind_name}'"
        )
    probe = BiphotonAmplitude(_PROBE_KINDS[kind_name], **_numbers(node, "probe"))
    scan = _numbers(_section(doc, "scan"), "scan")
    if scan.get("scan_half_width", 1.0) <= 0:
        raise ValidationError("scan.half_width > 0")
    if scan.get("scan_step", 1.0) <= 0:
        raise ValidationError("scan.step > 0")

    idler = None
    if doc.get("idler") is not None:
        idler = _parse_idler(doc["idler"])
    sweep = None
    if doc.get("sweep") is not None:
        sweep = _parse_sweep(_require_mapping(doc["sweep"], "sweep"))
    if idler is not None and sweep is not None:
        raise ValidationError("config must not declare both idler and sweep")

    output = _section(doc, "output", "directory")
    out_dir = output.get("directory", "chirospec_out")
    if not isinstance(out_dir, str) or not out_dir or "\0" in out_dir:
        raise ValidationError("output.directory must be a nonempty string without NUL")
    try:
        os.fsencode(out_dir)
    except UnicodeEncodeError:  # e.g. a lone surrogate that surrogateescape cannot map
        raise ValidationError("output.directory is not encodable as a file name") from None

    return ExperimentConfig(
        drive=drive,
        noise=noise,
        probe=probe,
        idler=idler,
        sweep=sweep,
        output_dir=out_dir,
        **scan,
    )


def config_mapping(cfg: ExperimentConfig) -> dict:
    """Canonical mapping of a config: nested dicts of YAML scalars and lists."""
    doc: dict = {}
    for name, fields in _FIELDS.items():
        owner = cfg if name == "scan" else getattr(cfg, name)
        node = {key: getattr(owner, field) for key, field in fields.items()}
        node = {key: value for key, value in node.items() if value is not None}
        if node:
            doc[name] = node
    doc["probe"]["kind"] = cfg.probe.kind.value
    doc["output"] = {"directory": cfg.output_dir}
    if cfg.idler is not None:
        doc["idler"] = {"values": list(cfg.idler)}
    if cfg.sweep is not None:
        doc["sweep"] = {
            axis: {key: getattr(cfg.sweep, f"{axis}_{key}") for key in _RANGE_KEYS}
            for axis in _SWEEP_AXES
        }
    return doc
