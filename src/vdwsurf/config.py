"""Run configuration: strict JSON schema and bundled example configs.

All frequencies in a config file are in units of the reference frequency
omega_ref the file itself is written against; nothing in the package
converts to absolute units.  Unknown keys anywhere are rejected before any
computation starts, and every diagnostic names the offending JSON path.

Each JSON object is read by one frozen dataclass, or by the ``Material``
constructor a material's "kind" picks.  Its keys are the parameters, a key
is required where the parameter has no default, a missing optional key takes
the default, and each value is read by the reader of the parameter's
annotation.  This module checks only the JSON shape of a value (its type, a
finite number, an ``[re, im]`` pair); the ranges are the rules of the model
types, and a ParameterError is reported against the entries it names.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, ParameterError, _check_number, _is_finite
from .interaction import Atom
from .materials import AtomPositions, HalfSpaceSystem, Material, preset
from .quadrature import QuadratureSpec
from .spectra import ScanSpec


@dataclass(frozen=True)
class OutputSpec:
    """The path a ``vdw`` command writes to, and the format of its table.

    ``format`` ("csv" or "json") applies to ``vdw spectrum`` and
    ``vdw enhancement`` only: ``vdw peaks`` always writes JSON and
    ``vdw validate`` always writes CSV, whatever the format or the path's suffix.
    """

    path: str
    format: str = "csv"

    def __post_init__(self):
        if not self.path:
            raise ParameterError("path must not be empty", "path")
        if self.format not in ("csv", "json"):
            raise ParameterError(f"format must be 'csv' or 'json', got {self.format!r}", "format")


@dataclass(frozen=True)
class ValidateSpec:
    """Frequency, geometry, scale ladder and pass tolerance of one
    :func:`~vdwsurf.greens.nonretarded_limit_check`, as ``vdw validate`` runs it.

    Atom A at ``r_a`` sits in the upper medium, atom B at ``r_b`` in the
    lower one.
    """

    omega: float = 0.5
    scales: tuple[float, ...] = (0.1, 0.01, 0.001)
    r_a: tuple[float, float, float] = (0.0, 0.0, 1.0)
    r_b: tuple[float, float, float] = (1.0, 0.0, -1.0)
    tolerance: float = 0.01

    def __post_init__(self):
        if not self.scales:
            raise ParameterError("scales must not be empty", "scales")
        positive = {"omega": self.omega, "tolerance": self.tolerance}
        positive.update((f"scales[{i}]", s) for i, s in enumerate(self.scales))
        for name, value in positive.items():
            _check_number(value, name, "positive")
        AtomPositions(self.r_a, self.r_b)  # the position rules, fields named alike


@dataclass(frozen=True)
class RunConfig:
    system: HalfSpaceSystem
    atom_a: Atom
    atom_b: Atom
    scan: ScanSpec
    quadrature: QuadratureSpec = QuadratureSpec()
    output: OutputSpec | None = None
    validate: ValidateSpec = ValidateSpec()


def _check_keys(obj, path: str, keys, required):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object", field=path)
    unknown = sorted(set(obj).difference(keys))
    if unknown:
        field = f"{path}.{unknown[0]}"
        raise ConfigError(f"{field} is not a known key (unknown in {path}: {unknown})", field=field)
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required key {path}.{key}", field=f"{path}.{key}")


def _config_error(exc: ParameterError, path: str) -> ConfigError:
    """``exc`` restated against the config entries of the fields it names."""
    entries = [f"{path}.{name}" for name in exc.fields] or [path]
    return ConfigError(f"{', '.join(entries)}: {exc}", field=entries[0])


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}", field=path)
    if not _is_finite(value):  # inf, NaN or an integer literal beyond the float range
        raise ConfigError(f"{path} must be finite, got {value!r}", field=path)
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}", field=path)
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be a boolean, got {value!r}", field=path)
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}", field=path)
    return value


def _complex(value, path: str) -> complex:
    """Number or [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))
    raise ConfigError(f"{path} must be a number or a [re, im] pair", field=path)


def _numbers(value, path: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path} must be a list of numbers", field=path)
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _vector3(value, path: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{path} must be a 3-vector [x, y, z]", field=path)
    return _numbers(value, path)


def _material(obj, path: str) -> Material:
    """A preset name, or a material object whose "kind" picks the constructor."""
    if isinstance(obj, str):
        try:
            return preset(obj)
        except ParameterError as exc:  # the entry is the name itself, not a "name" key
            raise ConfigError(f"{path}: {exc}", field=path) from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a preset name or a material object", field=path)
    obj = dict(obj)
    kind = obj.pop("kind", None)
    if kind == "lorentz":
        if ("omega_t" in obj) == ("omega_s" in obj):
            raise ConfigError(f"{path} needs exactly one of omega_t/omega_s", field=path)
        build = Material.lorentz if "omega_t" in obj else Material.lorentz_from_surface_mode
    elif kind in ("vacuum", "constant"):
        build = getattr(Material, kind)
    else:
        raise ConfigError(
            f"{path}.kind must be one of vacuum/constant/lorentz, got {kind!r}",
            field=f"{path}.kind",
        )
    return _section(build, obj, path)


_READERS = {
    float: _number,
    int: _integer,
    bool: _boolean,
    str: _string,
    complex: _complex,
    tuple[float, ...]: _numbers,
    tuple[float, float, float]: _vector3,
    Material: _material,
}


def _reader(hint):
    """The JSON value reader of a parameter annotation; a dataclass is a nested object."""
    if isinstance(hint, types.UnionType):  # ``X | None``: None is only ever the default
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    return _READERS.get(hint) or functools.partial(_section, hint)


@functools.cache
def _schema(build) -> tuple:
    """The value reader of each parameter of ``build``, by its annotation, and the required ones."""
    hints = typing.get_type_hints(build)
    params = inspect.signature(build).parameters
    readers = {name: _reader(hints[name]) for name in params}
    return readers, tuple(name for name, p in params.items() if p.default is p.empty)


def _section(build, obj, path: str):
    """Call ``build`` (a dataclass or a constructor) on the JSON object ``obj`` found at ``path``."""
    readers, required = _schema(build)
    _check_keys(obj, path, readers, required)
    kwargs = {key: readers[key](value, f"{path}.{key}") for key, value in obj.items()}
    try:
        return build(**kwargs)
    except ParameterError as exc:
        raise _config_error(exc, path) from None


def parse_config(obj: dict) -> RunConfig:
    """Build a RunConfig from decoded JSON, rejecting anything off-schema."""
    return _section(RunConfig, obj, "config")


def load_config(path) -> RunConfig:
    """Read and parse a JSON run configuration from disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}", field=str(path)) from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            field=str(path),
        ) from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ConfigError(f"invalid number in {path}: {exc}", field=str(path)) from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object", field=str(path))
    return parse_config(obj)


def bundled_config_names() -> tuple:
    """Names of example configs shipped with the package."""
    root = resources.files("vdwsurf").joinpath("data")
    return tuple(sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json")))


def resolve_config_path(arg: str) -> Path:
    """Resolve a --config argument to a readable file.

    An existing filesystem path wins; otherwise the argument (with or
    without a .json suffix) may name a bundled example config such as
    "fig2".
    """
    p = Path(arg)
    if p.exists():
        return p
    name = arg[: -len(".json")] if arg.endswith(".json") else arg
    candidate = resources.files("vdwsurf").joinpath("data", f"{name}.json")
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(
        f"config {arg!r} is neither a file nor a bundled config "
        f"(bundled: {', '.join(bundled_config_names())})",
        field=arg,
    )
