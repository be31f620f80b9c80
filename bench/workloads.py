"""Seeded inputs, operations and correctness checks of the benchmark workloads.

An operation is one or more ``vdw`` command lines run in-process through
``vdwsurf.cli.main`` on a config that this module generated from the seed;
the program only ever sees those configs.  Operations come in rounds: a
workload whose cost depends strongly on one input (the lateral aspect ratio
of the Sommerfeld workloads) draws that input stratified within each round,
so every run covers the input distribution evenly and its medians hold
steady from seed to seed.

Correctness is checked against formulas written out here from the package's
documentation, never by calling the package itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("fig2-scan", "offres-scan", "sommerfeld-near", "sommerfeld-lateral")

# Every field is spelled out so the generated file needs no defaults.
FIG2_SYSTEM = {"upper": "vacuum", "lower": "sapphire-ir", "omega_max": 3.0}
ATOM_A = {"omega0": 1.0, "gamma": 0.0, "alpha0": 1.0, "dipole_weight": 1.0}
QUADRATURE = {"rel_tol": 1e-8, "abs_tol": 0.0, "max_panels": 10000}
SCAN_RANGE = (0.7, 1.3)

# The documented "sapphire-ir" preset: a Lorentz oscillator pinned to its
# vacuum surface mode omega_s = 1, so omega_t = sqrt((eta + 1)/(eps0 + 1)).
SAPPHIRE_ETA = 2.71
SAPPHIRE_EPS0 = 6.57
SAPPHIRE_GAMMA = 0.015
SAPPHIRE_OMEGA_T = math.sqrt((SAPPHIRE_ETA + 1.0) / (SAPPHIRE_EPS0 + 1.0))

# Scale ladder, tolerance and components (lab-frame tensor indices) of the
# validate table.
VALIDATE_SCALES = (0.1, 0.01, 0.001)
VALIDATE_TOL = 0.01
COMPONENTS = {"xx": (0, 0), "yy": (1, 1), "zz": (2, 2), "xz": (0, 2), "zx": (2, 0)}

# sommerfeld-near draws rho/dz log-uniformly over [0.5, 50] in this many
# strata per round; sommerfeld-lateral alternates between the two ROADMAP
# baseline aspect ratios, and the larger one exhausts the panel budget
# (exit code 3), which the benchmark counts as a failed operation.
NEAR_STRATA = 8
NEAR_RATIO = (0.5, 50.0)
LATERAL_RATIOS = (500.0, 5000.0)
LATERAL_KNOWN_FAILURE = 5000.0
LATERAL_SCALE = 0.001

RESONANT_RTOL = 1e-9  # CSV cells carry 12 significant digits
OFFRES_RTOL = 1e-7

GOLDEN_COMMANDS = ("spectrum", "enhancement", "peaks")


class CheckFailed(Exception):
    """An output does not match what the inputs imply."""


@dataclass
class Op:
    """One benchmark operation: the commands run on one generated config."""

    label: str
    config: dict
    commands: tuple
    samples: tuple = ()  # scan rows checked against the oracle
    exhausts_budget: bool = False  # the known rho/dz = 5000 exit 3
    outputs: dict = field(default_factory=dict)  # command -> output path
    offres_samples: list = field(default_factory=list)  # (row, omega, u_offresonant)


# -- input generation --------------------------------------------------------


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _atom_b(rng: random.Random) -> dict:
    return {
        "omega0": rng.uniform(0.85, 0.95),
        "gamma": _log_uniform(rng, 1e-4, 1e-2),
        "alpha0": 1.0,
        "dipole_weight": 1.0,
    }


def _scan(n_points: int, offresonant: bool) -> dict:
    return {
        "omega_min": SCAN_RANGE[0],
        "omega_max": SCAN_RANGE[1],
        "n_points": n_points,
        "include_offresonant": offresonant,
        "include_no_lf_curve": True,
    }


def _config(atom_b: dict, scan: dict, validate: dict | None = None) -> dict:
    cfg = {
        "system": dict(FIG2_SYSTEM),
        "atom_a": dict(ATOM_A),
        "atom_b": atom_b,
        "scan": scan,
        "quadrature": dict(QUADRATURE),
    }
    if validate is not None:
        cfg["validate"] = validate
    return cfg


def _validate_spec(rng: random.Random, ratio: float, omega: float, scales) -> dict:
    """Atom A above the axis, B at in-plane distance 1 in a seeded direction."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    half_dz = 0.5 / ratio
    return {
        "omega": omega,
        "scales": list(scales),
        "r_a": [0.0, 0.0, half_dz],
        "r_b": [math.cos(phi), math.sin(phi), -half_dz],
        "tolerance": VALIDATE_TOL,
    }


def _round(workload: str, rng: random.Random, index: int) -> list:
    if workload == "fig2-scan":
        samples = tuple(sorted(rng.sample(range(2000), 4)))
        cfg = _config(_atom_b(rng), _scan(2000, False))
        return [Op(f"{workload}#{index}", cfg, GOLDEN_COMMANDS, samples)]
    if workload == "offres-scan":
        samples = tuple(sorted(rng.sample(range(200), 3)))
        cfg = _config(_atom_b(rng), _scan(200, True))
        return [Op(f"{workload}#{index}", cfg, ("spectrum",), samples)]
    atom_b = {"omega0": 0.9, "gamma": 0.001, "alpha0": 1.0, "dipole_weight": 1.0}
    scan = _scan(2000, False)
    ops = []
    if workload == "sommerfeld-near":
        lo, hi = (math.log(r) for r in NEAR_RATIO)
        strata = list(range(NEAR_STRATA))
        rng.shuffle(strata)
        for k in strata:
            ratio = math.exp(lo + (hi - lo) * (k + rng.random()) / NEAR_STRATA)
            spec = _validate_spec(rng, ratio, rng.uniform(0.3, 1.5), VALIDATE_SCALES)
            label = f"{workload}#{index}.{k} rho/dz={ratio:.3g}"
            ops.append(Op(label, _config(atom_b, scan, spec), ("validate",)))
        return ops
    if workload == "sommerfeld-lateral":
        for ratio in LATERAL_RATIOS:
            spec = _validate_spec(rng, ratio, rng.uniform(0.4, 0.6), (LATERAL_SCALE,))
            label = f"{workload}#{index} rho/dz={ratio:g}"
            ops.append(
                Op(label, _config(atom_b, scan, spec), ("validate",),
                   exhausts_budget=ratio == LATERAL_KNOWN_FAILURE)
            )
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of operations) for one workload."""
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield _round(workload, rng, index)
        index += 1


def first_ops(workload: str, seed: int, n_rounds: int) -> list:
    stream = rounds(workload, seed)
    return [op for _ in range(n_rounds) for op in next(stream)]


def config_text(op: Op) -> str:
    return json.dumps(op.config, indent=2) + "\n"


# -- independent oracle --------------------------------------------------------


def _eps_sapphire(w: complex) -> complex:
    wt2 = SAPPHIRE_OMEGA_T**2
    return SAPPHIRE_ETA + (SAPPHIRE_EPS0 - SAPPHIRE_ETA) * wt2 / (wt2 - w * w - 1j * w * SAPPHIRE_GAMMA)


def resonant_oracle(omega: float, atom_b: dict) -> tuple:
    """(u, u_no_lf, g, g_no_lf) of one scan row, vacuum over sapphire.

    g = |18 e e_m/((e + e_m)(2e + 1)(2e_m + 1))|^2, g_no_lf = |2/(e + e_m)|^2
    and u = -Re[alpha_B(omega)]/alpha_B(0) * g.
    """
    e_u, e_l = 1.0, _eps_sapphire(omega)
    g = abs(18.0 * e_u * e_l / ((e_u + e_l) * (2.0 * e_u + 1.0) * (2.0 * e_l + 1.0))) ** 2
    g_no_lf = abs(2.0 / (e_u + e_l)) ** 2
    w02 = atom_b["omega0"] ** 2
    alpha_ratio = (w02 / (w02 - omega * omega - 1j * omega * atom_b["gamma"])).real
    return -alpha_ratio * g, -alpha_ratio * g_no_lf, g, g_no_lf


def offresonant_oracle(omega: float, atom_a: dict, atom_b: dict) -> float:
    """The documented imaginary-frequency integral, by scipy's QUADPACK.

    u = -3/(2 pi d_A alpha_B(0)) Int_0^inf alpha_A(i xi) alpha_B(i xi)
        [D D_m / avg_eps]^2(i xi) dxi,  D = 3 eps/(2 eps + 1)
    """
    from scipy.integrate import quad

    def alpha(alpha0, w0, gamma, xi):
        return alpha0 * w0 * w0 / (w0 * w0 + xi * xi + xi * gamma)

    wt2 = SAPPHIRE_OMEGA_T**2

    def integrand(xi):
        e_u = 1.0
        e_l = SAPPHIRE_ETA + (SAPPHIRE_EPS0 - SAPPHIRE_ETA) * wt2 / (wt2 + xi * xi + xi * SAPPHIRE_GAMMA)
        coupling = (3.0 * e_u / (2.0 * e_u + 1.0)) * (3.0 * e_l / (2.0 * e_l + 1.0)) / (0.5 * (e_u + e_l))
        return (
            alpha(atom_a["alpha0"], omega, atom_a["gamma"], xi)
            * alpha(atom_b["alpha0"], atom_b["omega0"], atom_b["gamma"], xi)
            * coupling * coupling
        )

    value, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return -3.0 / (2.0 * math.pi * atom_a["dipole_weight"] * atom_b["alpha0"]) * value


# -- output checks ---------------------------------------------------------------


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(got), abs(want))


def _read_table(path: Path, header: list) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",") != header:
        raise CheckFailed(f"{path.name}: header {lines[:1]} != {header}")
    return [line.split(",") for line in lines[1:]]


def _numeric_rows(rows: list, name: str) -> list:
    """Floats of each row; a row is flagged when every value cell is nan."""
    out = []
    for i, row in enumerate(rows):
        vals = [float(c) for c in row]
        finite = [math.isfinite(v) for v in vals[1:]]
        if not math.isfinite(vals[0]) or (not all(finite) and any(finite)):
            raise CheckFailed(f"{name} row {i}: non-finite cell in a row that is not flagged: {row}")
        out.append(vals)
    return out


def _check_spectrum(op: Op) -> list:
    offres = op.config["scan"]["include_offresonant"]
    header = ["omega_over_ref", "u_resonant", "u_resonant_no_lf", "g", "g_no_lf"]
    if offres:
        header.append("u_offresonant")
    rows = _numeric_rows(_read_table(op.outputs["spectrum"], header), "spectrum")
    scan = op.config["scan"]
    n = scan["n_points"]
    if len(rows) != n:
        raise CheckFailed(f"spectrum: {len(rows)} rows, expected {n}")
    # The oracle takes the exact grid frequency: near a narrow atomic line
    # the 12-digit CSV frequency alone moves u by more than RESONANT_RTOL.
    grid = np.linspace(scan["omega_min"], scan["omega_max"], n)
    for i, row in enumerate(rows):
        if not _close(row[0], grid[i], 1e-11):
            raise CheckFailed(f"spectrum row {i}: omega {row[0]} is off the scan grid")
    for i in op.samples:
        row = rows[i]
        omega = float(grid[i])
        want = resonant_oracle(omega, op.config["atom_b"])
        for col, (got, ref) in enumerate(zip(row[1:5], want), start=1):
            if not _close(got, ref, RESONANT_RTOL):
                raise CheckFailed(f"spectrum row {i} {header[col]}: {got!r} != oracle {ref!r}")
        if offres:
            op.offres_samples.append((i, omega, row[5]))
    return rows


def _check_enhancement(op: Op, spectrum_rows: list) -> None:
    rows = _numeric_rows(
        _read_table(op.outputs["enhancement"], ["omega_over_ref", "g", "g_no_lf"]), "enhancement"
    )
    if len(rows) != len(spectrum_rows):
        raise CheckFailed(f"enhancement: {len(rows)} rows, spectrum has {len(spectrum_rows)}")
    for i, (row, spec) in enumerate(zip(rows, spectrum_rows)):
        same = [a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(row, (spec[0], spec[3], spec[4]))]
        if not all(same):
            raise CheckFailed(f"enhancement row {i} {row} disagrees with spectrum row {spec}")


def _check_peaks(op: Op) -> None:
    peaks = json.loads(op.outputs["peaks"].read_text(encoding="utf-8"))
    kinds = {"surface_mode", "cavity_mode", "atomic_resonance", "unclassified"}
    if not any(p.get("kind") == "surface_mode" for p in peaks):
        raise CheckFailed(f"peaks: no surface_mode peak in {peaks}")
    for p in peaks:
        loc, height = p["location"], p["height"]
        if p["kind"] not in kinds or not SCAN_RANGE[0] <= loc <= SCAN_RANGE[1]:
            raise CheckFailed(f"peaks: malformed peak {p}")
        want = abs(resonant_oracle(loc, op.config["atom_b"])[0])
        if not _close(height, want, RESONANT_RTOL):
            raise CheckFailed(f"peaks: height {height!r} at {loc!r} != oracle {want!r}")


def _check_validate(op: Op) -> None:
    rows = _read_table(op.outputs["validate"], ["scale", "component", "ratio_re", "ratio_im"])
    spec = op.config["validate"]
    smallest = min(spec["scales"])
    final = 0
    for row in rows:
        scale, comp, re, im = float(row[0]), row[1], float(row[2]), float(row[3])
        if comp not in COMPONENTS or not (math.isfinite(re) and math.isfinite(im)):
            raise CheckFailed(f"validate: malformed row {row}")
        if not any(_close(scale, s, 1e-11) for s in spec["scales"]):
            raise CheckFailed(f"validate: scale {scale} not in the ladder {spec['scales']}")
        if _close(scale, smallest, 1e-11):
            final += 1
            if abs(complex(re, im) - 1.0) > spec["tolerance"]:
                raise CheckFailed(f"validate: ratio {row} off the near-field limit but exit 0")
    if not final:
        raise CheckFailed("validate: no row at the smallest scale")


def check_offresonant(config: dict, samples: list) -> None:
    """Compare sampled (row, omega, u_offresonant) cells with QUADPACK.

    Kept apart from ``check`` so the workload process never imports
    scipy.integrate, which would inflate its peak memory.
    """
    for i, omega, got in samples:
        ref = offresonant_oracle(omega, config["atom_a"], config["atom_b"])
        if not _close(got, ref, OFFRES_RTOL):
            raise CheckFailed(f"spectrum row {i} u_offresonant: {got!r} != quad {ref!r}")


def _near_field_weights(spec: dict) -> dict:
    """|N_ij| / max|N| per validate component, N = 3 r^ r^T - I.

    Every component of the closed near-field form shares one scalar factor,
    so these are its components relative to its largest one.
    """
    r = np.subtract(spec["r_a"], spec["r_b"])
    r_hat = r / np.linalg.norm(r)
    shape = np.abs(3.0 * np.outer(r_hat, r_hat) - np.eye(3))
    return {name: shape[ij] / shape.max() for name, ij in COMPONENTS.items()}


def known_failure(op: Op, exit_code: int) -> bool:
    """Whether a nonzero exit is one of the program's two known defects.

    * Exit 3 at rho/dz = 5000: the Sommerfeld tail exhausts the panel budget.
    * Exit 4 from validate although the table is right: the pass test takes
      the ratio of each component, so a component that nearly vanishes in
      the closed form turns a tiny retardation correction into a large
      ratio.  Known when every ratio at the smallest scale is within the
      tolerance once weighted by the component's share of the tensor.
    """
    if exit_code == 3:
        return op.exhausts_budget
    if exit_code != 4 or "validate" not in op.commands:
        return False
    spec = op.config["validate"]
    weights = _near_field_weights(spec)
    try:
        rows = _read_table(op.outputs["validate"], ["scale", "component", "ratio_re", "ratio_im"])
    except (CheckFailed, OSError):
        return False
    final = [r for r in rows if _close(float(r[0]), min(spec["scales"]), 1e-11)]
    return bool(final) and all(
        abs(complex(float(r[2]), float(r[3])) - 1.0) * weights[r[1]] <= spec["tolerance"] for r in final
    )


def check(op: Op) -> None:
    """Raise CheckFailed unless every output of a successful op is right.

    Sampled u_offresonant cells are only collected in ``op.offres_samples``
    for ``check_offresonant``.
    """
    op.offres_samples.clear()
    if "validate" in op.commands:
        _check_validate(op)
        return
    spectrum = _check_spectrum(op)
    if "enhancement" in op.outputs:
        _check_enhancement(op, spectrum)
    if "peaks" in op.outputs:
        _check_peaks(op)
