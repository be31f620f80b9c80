import json

import pytest

from vdwsurf import (
    Atom,
    AtomPositions,
    ConfigError,
    HalfSpaceSystem,
    Material,
    MaterialKind,
    ParameterError,
    QuadratureSpec,
    ScanSpec,
)
from vdwsurf.config import (
    ValidateSpec,
    bundled_config_names,
    load_config,
    parse_config,
    resolve_config_path,
)


def minimal_config(**overrides):
    cfg = {
        "system": {"upper": "vacuum", "lower": "sapphire-ir", "omega_max": 3.0},
        "atom_a": {"omega0": 1.0},
        "atom_b": {"omega0": 0.9, "gamma": 0.001},
        "scan": {"omega_min": 0.7, "omega_max": 1.3, "n_points": 100},
    }
    cfg.update(overrides)
    return cfg


def test_bundled_fig2_parses():
    path = resolve_config_path("fig2")
    cfg = load_config(path)
    assert cfg.system.lower.kind is MaterialKind.LORENTZ
    assert cfg.system.lower.gamma == 0.015
    assert cfg.atom_b.omega0 == 0.9 and cfg.atom_b.gamma == 1e-3
    assert cfg.scan.n_points == 2000
    assert cfg.output.format == "csv"
    assert "fig2" in bundled_config_names()


def test_resolve_prefers_existing_file(tmp_path):
    p = tmp_path / "fig2"
    p.write_text("{}")
    assert resolve_config_path(str(p)) == p


def test_resolve_unknown_name():
    with pytest.raises(ConfigError, match="bundled"):
        resolve_config_path("no_such_config")


def test_minimal_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.quadrature.rel_tol == 1e-8
    assert cfg.quadrature.max_panels == 10_000
    assert cfg.output is None
    assert cfg.validate.scales == (0.1, 0.01, 0.001)
    assert cfg.atom_a.alpha0 == 1.0 and cfg.atom_a.dipole_weight == 1.0


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="'extra'") as excinfo:
        parse_config(minimal_config(extra=1))
    assert excinfo.value.field == "config.extra"


def test_unknown_nested_key_rejected():
    bad = minimal_config()
    bad["scan"]["n_pts"] = 5
    with pytest.raises(ConfigError, match=r"config\.scan"):
        parse_config(bad)


def test_missing_required_key_names_field():
    bad = minimal_config()
    del bad["atom_b"]
    with pytest.raises(ConfigError, match="atom_b") as excinfo:
        parse_config(bad)
    assert excinfo.value.field == "config.atom_b"


def test_unknown_preset_names_field():
    bad = minimal_config()
    bad["system"]["lower"] = "sapphirr"
    with pytest.raises(ConfigError, match=r"config\.system\.lower") as excinfo:
        parse_config(bad)
    assert "sapphirr" in str(excinfo.value)
    # the entry is the name: the preset's "name" argument is not appended
    assert str(excinfo.value) == "config.system.lower: unknown material preset 'sapphirr' (known: sapphire-ir, vacuum)"
    assert excinfo.value.field == "config.system.lower"


def test_material_objects():
    cfg = parse_config(
        minimal_config(
            system={
                "upper": {"kind": "vacuum"},
                "lower": {"kind": "constant", "eps": [4.0, 0.5], "mu": 1.0},
            }
        )
    )
    assert cfg.system.lower.eps(1.0) == 4.0 + 0.5j

    cfg = parse_config(
        minimal_config(
            system={
                "upper": "vacuum",
                "lower": {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "omega_s": 1.0, "gamma": 0.015},
            }
        )
    )
    assert cfg.system.lower.gamma == 0.015


def test_lorentz_needs_exactly_one_frequency():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(
            minimal_config(
                system={
                    "upper": "vacuum",
                    "lower": {
                        "kind": "lorentz",
                        "eta": 2.71,
                        "eps0": 6.57,
                        "omega_s": 1.0,
                        "omega_t": 0.7,
                        "gamma": 0.015,
                    },
                }
            )
        )


def test_invalid_values_become_config_errors():
    bad = minimal_config()
    bad["atom_b"]["omega0"] = -1.0
    with pytest.raises(ConfigError, match="atom_b"):
        parse_config(bad)
    bad = minimal_config()
    bad["scan"]["n_points"] = 1
    with pytest.raises(ConfigError, match="scan"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="format"):
        parse_config(minimal_config(output={"path": "x.csv", "format": "yaml"}))


def test_json_syntax_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "system": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(p)


def test_validate_section(tmp_path):
    cfg = parse_config(
        minimal_config(validate={"omega": 0.4, "scales": [1.0], "tolerance": 0.05})
    )
    assert cfg.validate.omega == 0.4
    assert cfg.validate.scales == (1.0,)
    assert cfg.validate.tolerance == 0.05


def test_roundtrip_from_disk(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(minimal_config()))
    cfg = load_config(p)
    assert cfg.scan.n_points == 100


@pytest.mark.parametrize(
    "text, field",
    [
        ('"atom_b": {"omega0": Infinity}', "config.atom_b.omega0"),
        ('"atom_b": {"omega0": 0.9, "gamma": NaN}', "config.atom_b.gamma"),
        ('"atom_b": {"omega0": 0.9, "alpha0": 1e400}', "config.atom_b.alpha0"),
        ('"atom_b": {"omega0": 0.9, "offres_sign": -Infinity}', "config.atom_b.offres_sign"),
    ],
)
def test_non_finite_numbers_name_their_field(tmp_path, text, field):
    # json.loads accepts Infinity/NaN tokens and overflows 1e400 to inf
    p = tmp_path / "run.json"
    body = json.dumps(minimal_config()).replace('"atom_b": {"omega0": 0.9, "gamma": 0.001}', text)
    p.write_text(body)
    with pytest.raises(ConfigError, match="finite") as info:
        load_config(p)
    assert info.value.field == field


def test_non_finite_material_numbers_rejected():
    lorentz = {"kind": "lorentz", "eta": 2.71, "eps0": float("inf"), "omega_s": 1.0, "gamma": 0.015}
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(system={"upper": "vacuum", "lower": lorentz}))
    assert info.value.field == "config.system.lower.eps0"
    constant = {"kind": "constant", "eps": [4.0, float("nan")]}
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(system={"upper": "vacuum", "lower": constant}))
    assert info.value.field == "config.system.lower.eps[1]"
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(system={"upper": "vacuum", "lower": "vacuum", "omega_max": float("inf")}))
    assert info.value.field == "config.system.omega_max"


@pytest.mark.parametrize(
    "section, field",
    [
        ({"scales": [-0.1]}, "config.validate.scales[0]"),
        ({"scales": [0.1, 0.0]}, "config.validate.scales[1]"),
        ({"scales": []}, "config.validate.scales"),
        ({"omega": 0.0}, "config.validate.omega"),
        ({"tolerance": -0.01}, "config.validate.tolerance"),
        ({"tolerance": float("inf")}, "config.validate.tolerance"),
        ({"r_a": [0.0, 0.0, -1.0]}, "config.validate.r_a[2]"),
        ({"r_b": [1.0, 0.0, 0.0]}, "config.validate.r_b[2]"),
        ({"scales": 0.1}, "config.validate.scales"),  # not a list
        ({"r_a": [0.0, 1.0]}, "config.validate.r_a"),  # not a 3-vector
    ],
)
def test_validate_section_checked_at_load(section, field):
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(validate=section))
    assert info.value.field == field
    assert field in str(info.value)


@pytest.mark.parametrize("n_points", [10**9, 10**400], ids=["1e9", "1e400"])
def test_huge_scan_is_rejected_before_allocating(n_points):
    import tracemalloc

    from vdwsurf import ParameterError, ScanSpec

    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_config(scan={"omega_min": 0.7, "omega_max": 1.3, "n_points": n_points}))
        with pytest.raises(ParameterError, match="n_points"):
            ScanSpec(omega_min=0.7, omega_max=1.3, n_points=n_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.field == "config.scan.n_points"
    assert peak < 1_000_000  # bytes: no grid was built


def test_largest_scan_is_accepted():
    cfg = parse_config(minimal_config(scan={"omega_min": 0.7, "omega_max": 1.3, "n_points": 1_000_000}))
    assert cfg.scan.n_points == 1_000_000


SURFACE_MODE = {"eta": 2.71, "eps0": 6.57, "omega_s": 1.0, "gamma": 0.01}
VACUUM = Material.vacuum()


@pytest.mark.parametrize(
    "cls, kwargs, field",
    [
        (QuadratureSpec, {"rel_tol": float("nan")}, "rel_tol"),
        (QuadratureSpec, {"rel_tol": float("inf")}, "rel_tol"),
        (QuadratureSpec, {"max_panels": 2.5}, "max_panels"),
        (ScanSpec, {"omega_min": 0.7, "omega_max": float("inf")}, "omega_max"),
        (ScanSpec, {"omega_min": 0.7, "omega_max": 1.3, "n_points": 2.5}, "n_points"),
        (ValidateSpec, {"scales": ()}, "scales"),
        (ValidateSpec, {"omega": -1.0}, "omega"),
        # an integer beyond the float range is not finite, and one beyond
        # the digit limit of str() still gets a message
        (Atom, {"omega0": 10**400}, "omega0"),
        (Atom, {"omega0": 1.0, "offres_sign": 0.0}, "offres_sign"),
        (Atom, {"omega0": 1.0, "offres_sign": 7.0}, "offres_sign"),
        (ScanSpec, {"omega_min": 0.7, "omega_max": 10**400}, "omega_max"),
        (ValidateSpec, {"omega": 10**400}, "omega"),
        (QuadratureSpec, {"rel_tol": 10**400}, "rel_tol"),
        (ScanSpec, {"omega_min": 0.7, "omega_max": 1.3, "n_points": 10**5000}, "n_points"),
        (QuadratureSpec, {"max_panels": -(10**5000)}, "max_panels"),
        (ScanSpec, {"omega_min": -(10**5000), "omega_max": 1.0}, "omega_min"),
        (ValidateSpec, {"omega": -(10**5000)}, "omega"),
        (ValidateSpec, {"r_a": (10**400, 0.0, 1.0)}, "r_a[0]"),
        (Material.constant, {"eps": 10**400}, "eps_const"),
        (Material.lorentz, {"eta": 10**400, "eps0": 6.57, "omega_t": 0.7, "gamma": 0.0}, "eta"),
        (Material.lorentz_from_surface_mode, {**SURFACE_MODE, "omega_s": -(10**5000)}, "omega_s"),
        (Material.lorentz_from_surface_mode, {**SURFACE_MODE, "eta": 10**400, "eps0": 10**401}, "eta"),
        (HalfSpaceSystem, {"upper": VACUUM, "lower": VACUUM, "omega_max": 10**400}, "omega_max"),
        (AtomPositions, {"r_a": [0, 0, 10**400], "r_b": [0, 0, -1]}, "r_a[2]"),
        (AtomPositions, {"r_a": [0, 0, 1], "r_b": [-(10**5000), 0, -1]}, "r_b[0]"),
        (AtomPositions([0, 0, 1], [0, 0, -1]).scaled, {"s": 10**400}, "scale"),
        (AtomPositions([0, 0, 1], [0, 0, -1]).scaled, {"s": -(10**5000)}, "scale"),
    ],
)
def test_model_types_reject_what_the_config_rejects_naming_the_field(cls, kwargs, field):
    # the config loader reads these types' rules; the API path meets the same ones
    with pytest.raises(ParameterError) as info:
        cls(**kwargs)
    assert info.value.field == field


def test_huge_panel_budget_is_valid():
    assert QuadratureSpec(max_panels=10**5000).max_panels == 10**5000


LORENTZ_S = {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "omega_s": 1.0, "gamma": 0.015}
LOWER = "config.system.lower"


@pytest.mark.parametrize(
    "lower, message, field",
    [
        (
            {**LORENTZ_S, "eps0": 2.0},
            f"{LOWER}.eta, {LOWER}.eps0: oscillator model needs finite eps0 > eta >= 1, got eta=2.71, eps0=2.0",
            f"{LOWER}.eta",
        ),
        (
            {**LORENTZ_S, "omega_s": -1},
            f"{LOWER}.omega_s: surface-mode frequency must be positive and finite, got -1.0",
            f"{LOWER}.omega_s",
        ),
        (
            {"kind": "lorentz", "eta": 2.71, "eps0": 6.57, "omega_t": -1.0, "gamma": 0.015},
            f"{LOWER}.omega_t: oscillator resonance must be positive, got -1.0",
            f"{LOWER}.omega_t",
        ),
        (
            {"kind": "constant", "eps": 2.0, "eta": 1.0},
            f"{LOWER}.eta is not a known key (unknown in {LOWER}: ['eta'])",
            f"{LOWER}.eta",
        ),
        (
            {"kind": "vacuum", "eps": 1.0},
            f"{LOWER}.eps is not a known key (unknown in {LOWER}: ['eps'])",
            f"{LOWER}.eps",
        ),
        ({"kind": "constant", "mu": 1.0}, f"missing required key {LOWER}.eps", f"{LOWER}.eps"),
        (
            {key: value for key, value in LORENTZ_S.items() if key != "gamma"},
            f"missing required key {LOWER}.gamma",
            f"{LOWER}.gamma",
        ),
        (
            {"kind": "drude"},
            f"{LOWER}.kind must be one of vacuum/constant/lorentz, got 'drude'",
            f"{LOWER}.kind",
        ),
        (3.0, f"{LOWER} must be a preset name or a material object", LOWER),
        ({"kind": "constant", "eps": "x"}, f"{LOWER}.eps must be a number or a [re, im] pair", f"{LOWER}.eps"),
        ({"kind": "constant", "eps": [1, 2, 3]}, f"{LOWER}.eps must be a number or a [re, im] pair", f"{LOWER}.eps"),
        ({"kind": "constant", "eps": 2.0, "mu": "x"}, f"{LOWER}.mu must be a number or a [re, im] pair", f"{LOWER}.mu"),
        ({**LORENTZ_S, "gamma": True}, f"{LOWER}.gamma must be a number, got True", f"{LOWER}.gamma"),
    ],
    ids=[
        "eps0-below-eta",
        "negative-omega_s",
        "negative-omega_t",
        "unknown-key-on-constant",
        "unknown-key-on-vacuum",
        "constant-without-eps",
        "lorentz-without-gamma",
        "unknown-kind",
        "number",
        "eps-not-a-number",
        "eps-triple",
        "mu-not-a-number",
        "gamma-bool",
    ],
)
def test_material_errors_name_their_field(lower, message, field):
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(system={"upper": "vacuum", "lower": lower}))
    assert (str(info.value), info.value.field) == (message, field)


@pytest.mark.parametrize(
    "lower",
    [
        {**LORENTZ_S, "omega_t": 0.7, "foo": 1},  # an unknown key was reported first once
        {"kind": "lorentz", "eta": 2.71},  # a missing key was reported first once
    ],
    ids=["both-with-unknown-key", "neither-with-missing-key"],
)
def test_lorentz_frequency_choice_is_checked_before_the_keys(lower):
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(system={"upper": "vacuum", "lower": lower}))
    assert (str(info.value), info.value.field) == (f"{LOWER} needs exactly one of omega_t/omega_s", LOWER)


@pytest.mark.parametrize(
    "overrides, message, field",
    [
        ({"output": {"path": ""}}, "config.output.path: path must not be empty", "config.output.path"),
        ({"output": {"path": 3}}, "config.output.path must be a string, got 3", "config.output.path"),
        ({"scan": 3}, "config.scan must be an object", "config.scan"),
        (
            {"atom_a": {"omega0": 1.0, "offres_sign": 0.0}},
            "config.atom_a.offres_sign: offres_sign must be +1 or -1, got 0.0",
            "config.atom_a.offres_sign",
        ),
        (
            {"atom_a": {"omega0": 1.0, "offres_sign": 7.0}},
            "config.atom_a.offres_sign: offres_sign must be +1 or -1, got 7.0",
            "config.atom_a.offres_sign",
        ),
    ],
    ids=["empty-output-path", "output-path-number", "section-not-object", "offres-sign-0", "offres-sign-7"],
)
def test_shape_errors_name_their_field(overrides, message, field):
    with pytest.raises(ConfigError) as info:
        parse_config(minimal_config(**overrides))
    assert (str(info.value), info.value.field) == (message, field)


def test_config_path_that_is_a_directory(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config") as info:
        load_config(tmp_path)
    assert info.value.field == str(tmp_path)


def test_top_level_array_rejected(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level must be a JSON object") as info:
        load_config(p)
    assert info.value.field == str(p)
