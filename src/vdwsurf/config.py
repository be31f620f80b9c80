"""Run configuration: strict JSON schema and bundled example configs.

All frequencies in a config file are in units of the reference frequency
omega_ref the file itself is written against; nothing in the package
converts to absolute units.  Unknown keys anywhere are rejected before any
computation starts, and every diagnostic names the offending JSON path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, ParameterError
from .interaction import Atom
from .materials import HalfSpaceSystem, Material, preset
from .quadrature import QuadratureSpec
from .spectra import MAX_SCAN_POINTS, ScanSpec


@dataclass(frozen=True)
class OutputSpec:
    path: str
    format: str  # "csv" | "json"


@dataclass(frozen=True)
class ValidateSpec:
    """Geometry and scale ladder for the nonretarded-limit check."""

    omega: float = 0.5
    scales: tuple = (0.1, 0.01, 0.001)
    r_a: tuple = (0.0, 0.0, 1.0)
    r_b: tuple = (1.0, 0.0, -1.0)
    tolerance: float = 0.01


@dataclass(frozen=True)
class RunConfig:
    system: HalfSpaceSystem
    atom_a: Atom
    atom_b: Atom
    scan: ScanSpec
    quadrature: QuadratureSpec
    output: OutputSpec | None
    validate: ValidateSpec


def _check_keys(obj: dict, path: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object", field=path)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        field = f"{path}.{unknown[0]}"
        raise ConfigError(f"{field} is not a known key (unknown in {path}: {unknown})", field=field)
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required key {path}.{key}", field=f"{path}.{key}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}", field=path)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {value!r}", field=path)
    return number


def _positive(value, path: str) -> float:
    value = _number(value, path)
    if not (value > 0.0):
        raise ConfigError(f"{path} must be positive, got {value!r}", field=path)
    return value


def _nonnegative(value, path: str) -> float:
    value = _number(value, path)
    if not (value >= 0.0):
        raise ConfigError(f"{path} must be >= 0, got {value!r}", field=path)
    return value


def _integer(value, path: str, least: int, most: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}", field=path)
    if value < least:
        raise ConfigError(f"{path} must be >= {least}, got {value!r}", field=path)
    if value > most:
        raise ConfigError(f"{path} must be <= {most}, got {value!r}", field=path)
    return value


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be a boolean, got {value!r}", field=path)
    return value


def _complex(value, path: str) -> complex:
    """Number or [re, im] pair."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))
    raise ConfigError(f"{path} must be a number or a [re, im] pair", field=path)


def _vector3(value, path: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 3):
        raise ConfigError(f"{path} must be a 3-vector [x, y, z]", field=path)
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _material(obj, path: str) -> Material:
    if isinstance(obj, str):
        try:
            return preset(obj)
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}", field=path) from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a preset name or a material object", field=path)
    kind = obj.get("kind")
    try:
        if kind == "vacuum":
            _check_keys(obj, path, required=("kind",))
            return Material.vacuum()
        if kind == "constant":
            _check_keys(obj, path, required=("kind", "eps"), optional=("mu",))
            return Material.constant(
                _complex(obj["eps"], f"{path}.eps"),
                _complex(obj.get("mu", 1.0), f"{path}.mu"),
            )
        if kind == "lorentz":
            _check_keys(
                obj,
                path,
                required=("kind", "eta", "eps0", "gamma"),
                optional=("omega_t", "omega_s", "mu"),
            )
            eta = _number(obj["eta"], f"{path}.eta")
            eps0 = _number(obj["eps0"], f"{path}.eps0")
            gamma = _nonnegative(obj["gamma"], f"{path}.gamma")
            mu = _complex(obj.get("mu", 1.0), f"{path}.mu")
            has_t = "omega_t" in obj
            has_s = "omega_s" in obj
            if has_t == has_s:
                raise ConfigError(
                    f"{path} needs exactly one of omega_t/omega_s", field=path
                )
            if has_t:
                return Material.lorentz(eta, eps0, _positive(obj["omega_t"], f"{path}.omega_t"), gamma, mu=mu)
            return Material.lorentz_from_surface_mode(
                eta, eps0, _positive(obj["omega_s"], f"{path}.omega_s"), gamma, mu=mu
            )
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}", field=path) from None
    raise ConfigError(
        f"{path}.kind must be one of vacuum/constant/lorentz, got {kind!r}",
        field=f"{path}.kind",
    )


def _system(obj, path: str) -> HalfSpaceSystem:
    _check_keys(obj, path, required=("upper", "lower"), optional=("omega_max",))
    return HalfSpaceSystem(
        upper=_material(obj["upper"], f"{path}.upper"),
        lower=_material(obj["lower"], f"{path}.lower"),
        omega_max=_positive(obj.get("omega_max", 10.0), f"{path}.omega_max"),
    )


def _atom(obj, path: str) -> Atom:
    _check_keys(
        obj,
        path,
        required=("omega0",),
        optional=("gamma", "alpha0", "dipole_weight", "offres_sign"),
    )
    return Atom(
        omega0=_positive(obj["omega0"], f"{path}.omega0"),
        gamma=_nonnegative(obj.get("gamma", 0.0), f"{path}.gamma"),
        alpha0=_positive(obj.get("alpha0", 1.0), f"{path}.alpha0"),
        dipole_weight=_positive(obj.get("dipole_weight", 1.0), f"{path}.dipole_weight"),
        offres_sign=_number(obj.get("offres_sign", 1.0), f"{path}.offres_sign"),
    )


def _scan(obj, path: str) -> ScanSpec:
    _check_keys(
        obj,
        path,
        required=("omega_min", "omega_max"),
        optional=("n_points", "include_offresonant", "include_no_lf_curve"),
    )
    omega_min = _positive(obj["omega_min"], f"{path}.omega_min")
    omega_max = _number(obj["omega_max"], f"{path}.omega_max")
    if not (omega_max > omega_min):
        raise ConfigError(
            f"{path}.omega_max must exceed {path}.omega_min, got [{omega_min}, {omega_max}]",
            field=f"{path}.omega_max",
        )
    return ScanSpec(
        omega_min=omega_min,
        omega_max=omega_max,
        n_points=_integer(obj.get("n_points", 2000), f"{path}.n_points", 2, MAX_SCAN_POINTS),
        include_offresonant=_boolean(obj.get("include_offresonant", False), f"{path}.include_offresonant"),
        include_no_lf_curve=_boolean(obj.get("include_no_lf_curve", True), f"{path}.include_no_lf_curve"),
    )


def _quadrature(obj, path: str) -> QuadratureSpec:
    _check_keys(obj, path, required=(), optional=("rel_tol", "abs_tol", "max_panels"))
    rel_tol = _nonnegative(obj.get("rel_tol", 1e-8), f"{path}.rel_tol")
    abs_tol = _nonnegative(obj.get("abs_tol", 0.0), f"{path}.abs_tol")
    if rel_tol == abs_tol == 0.0:
        raise ConfigError(f"{path}.rel_tol or {path}.abs_tol must be positive", field=f"{path}.rel_tol")
    return QuadratureSpec(
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        max_panels=_integer(obj.get("max_panels", 10_000), f"{path}.max_panels", 1),
    )


def _output(obj, path: str) -> OutputSpec:
    _check_keys(obj, path, required=("path",), optional=("format",))
    fmt = obj.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"{path}.format must be 'csv' or 'json', got {fmt!r}", field=f"{path}.format")
    if not isinstance(obj["path"], str) or not obj["path"]:
        raise ConfigError(f"{path}.path must be a non-empty string", field=f"{path}.path")
    return OutputSpec(path=obj["path"], format=fmt)


def _validate_spec(obj, path: str) -> ValidateSpec:
    _check_keys(obj, path, required=(), optional=("omega", "scales", "r_a", "r_b", "tolerance"))
    scales = obj.get("scales", (0.1, 0.01, 0.001))
    if not isinstance(scales, (list, tuple)) or not scales:
        raise ConfigError(f"{path}.scales must be a non-empty list", field=f"{path}.scales")
    r_a = _vector3(obj.get("r_a", [0.0, 0.0, 1.0]), f"{path}.r_a")
    r_b = _vector3(obj.get("r_b", [1.0, 0.0, -1.0]), f"{path}.r_b")
    # atom A sits in the upper medium, atom B in the lower one
    if not (r_a[2] > 0.0):
        raise ConfigError(f"{path}.r_a[2] must be > 0 (upper medium), got {r_a[2]!r}", field=f"{path}.r_a[2]")
    if not (r_b[2] < 0.0):
        raise ConfigError(f"{path}.r_b[2] must be < 0 (lower medium), got {r_b[2]!r}", field=f"{path}.r_b[2]")
    return ValidateSpec(
        omega=_positive(obj.get("omega", 0.5), f"{path}.omega"),
        scales=tuple(_positive(s, f"{path}.scales[{i}]") for i, s in enumerate(scales)),
        r_a=r_a,
        r_b=r_b,
        tolerance=_positive(obj.get("tolerance", 0.01), f"{path}.tolerance"),
    )


def parse_config(obj: dict) -> RunConfig:
    """Build a RunConfig from decoded JSON, rejecting anything off-schema."""
    _check_keys(
        obj,
        "config",
        required=("system", "atom_a", "atom_b", "scan"),
        optional=("quadrature", "output", "validate"),
    )
    return RunConfig(
        system=_system(obj["system"], "config.system"),
        atom_a=_atom(obj["atom_a"], "config.atom_a"),
        atom_b=_atom(obj["atom_b"], "config.atom_b"),
        scan=_scan(obj["scan"], "config.scan"),
        quadrature=_quadrature(obj.get("quadrature", {}), "config.quadrature"),
        output=_output(obj["output"], "config.output") if "output" in obj else None,
        validate=_validate_spec(obj.get("validate", {}), "config.validate"),
    )


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
