"""Frequency scans of the interaction and resonance-peak extraction.

A scan sweeps the excited atom's transition frequency over a uniform grid
and records the normalized resonant potential together with the enhancement
factors; peaks of |u_resonant| are refined off-grid by golden-section search
and classified against one table of the system's resonances (surface modes
of the two media, Onsager-cavity modes, atomic transition of the
ground-state partner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, _is_count, _is_finite, _shown
from .interaction import Atom, _offresonant_many, _resonant, resonant_terms
from .materials import (
    HalfSpaceSystem,
    MaterialKind,
    _Poles,
    _screening_zeros,
    cavity_mode_frequency,
)
from .quadrature import QuadratureSpec

MAX_SCAN_POINTS = 1_000_000  # bounds the memory of one scan grid


class PeakKind(Enum):
    SURFACE_MODE = "surface_mode"
    CAVITY_MODE = "cavity_mode"
    ATOMIC_RESONANCE = "atomic_resonance"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class ScanSpec:
    """Uniform frequency grid for the excited atom's transition."""

    omega_min: float
    omega_max: float
    n_points: int = 2000
    include_offresonant: bool = False
    include_no_lf_curve: bool = True

    def __post_init__(self):
        if not (0.0 < self.omega_min < self.omega_max):
            raise ParameterError(
                f"need 0 < omega_min < omega_max, got [{_shown(self.omega_min)}, {_shown(self.omega_max)}]",
                "omega_min",
                "omega_max",
            )
        if not _is_finite(self.omega_max):
            raise ParameterError(f"omega_max must be finite, got {_shown(self.omega_max)}", "omega_max")
        if not _is_count(self.n_points, 2, MAX_SCAN_POINTS):
            raise ParameterError(
                f"n_points must be an integer in [2, {MAX_SCAN_POINTS}], got {_shown(self.n_points)}", "n_points"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.n_points)


@dataclass(frozen=True)
class SpectrumRow:
    """One frequency sample of the scan.

    Numeric fields are NaN (and ``error`` holds the reason) when the sample
    hit a pole exactly; the scan continues past such points.
    """

    omega: float
    u_resonant: float
    u_resonant_no_lf: float
    g: float
    g_no_lf: float
    u_offresonant: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class PeakReport:
    location: float
    height: float
    width_fwhm: float
    kind: PeakKind


_BLOCK = 2000  # grid points per block of a scan: bounds the memory of every stage


def _scan_blocks(system: HalfSpaceSystem, scan: ScanSpec, atom_b=None, atom_a=None, quad=None):
    """The scan per block of ``_BLOCK`` points: its columns in :class:`SpectrumRow` field order and its ResonantTerms.

    A block's resonant columns come from one :func:`resonant_terms` call;
    u_resonant and u_resonant_no_lf are NaN without ``atom_b``, and
    u_resonant_no_lf without ``scan.include_no_lf_curve``.  With ``atom_a``
    and ``scan.include_offresonant``, u_offresonant follows: one
    vector-valued integral over the block's unflagged rows.  A row flagged
    at a pole is True in ``terms.flagged``, NaN throughout, and its
    ``terms.errors`` entry is the reason.
    """
    grid = scan.grid()
    for start in range(0, grid.size, _BLOCK):
        terms = resonant_terms(system, grid[start : start + _BLOCK], atom_b)
        u_no_lf = terms.u_no_lf if scan.include_no_lf_curve else np.full(terms.omega.shape, np.nan)
        columns = [terms.omega, terms.u, u_no_lf, terms.g, terms.g_no_lf]
        if atom_a is not None and scan.include_offresonant:
            column, clean = np.full(terms.omega.shape, np.nan), ~terms.flagged
            if clean.any():  # a block flagged throughout runs no integral
                column[clean] = _offresonant_many(system, atom_a, atom_b, terms.omega[clean], quad)[0]
            columns.append(column)
        yield columns, terms


def scan_spectrum(
    system: HalfSpaceSystem,
    atom_a: Atom,
    atom_b: Atom,
    scan: ScanSpec,
    quad: QuadratureSpec | None = None,
) -> list[SpectrumRow]:
    """Sweep the excited atom's transition frequency over the scan grid.

    ``atom_a`` is a template whose ``omega0`` is replaced by each grid
    frequency.  Rows are ordered by frequency; grid points that fall exactly
    on a pole are flagged rather than aborting the scan.  Each block of
    ``_BLOCK`` grid points takes one :func:`resonant_terms` call and, for
    the off-resonant column, one vector-valued integral, one component per
    row.
    """
    return [
        SpectrumRow(
            *cells[:5],
            u_offresonant=cells[5] if scan.include_offresonant and error is None else None,
            error=error,
        )
        for columns, terms in _scan_blocks(system, scan, atom_b, atom_a, quad)
        for cells, error in zip(zip(*(column.tolist() for column in columns)), terms.errors)
    ]


def scan_enhancement(system: HalfSpaceSystem, scan: ScanSpec):
    """Enhancement factors over the scan grid as a list of (omega, g, g_no_lf) rows.

    Rows at a pole carry NaN factors.  ``vdw enhancement`` writes the same
    rows from the same blocks of columns, without building this list.
    """
    blocks = ((terms.omega, terms.g, terms.g_no_lf) for _, terms in _scan_blocks(system, scan))
    return [row for block in blocks for row in zip(*(column.tolist() for column in block))]


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_MIN_REL_TOL = 4.0 * np.finfo(float).eps  # the narrowest bracket golden_section_max resolves


def golden_section_max(f, a: float, b: float, rel_tol: float = 1e-6):
    """Locate the maximum of a unimodal ``f`` on [a, b].

    Returns ``(x, f(x))``; the bracket shrinks until its width is below
    rel_tol relative to the midpoint location.  ``rel_tol`` must be finite
    and at least 4 machine epsilons: a narrower bracket cannot be resolved
    in floating point, and the search would never stop.
    """
    if not (b > a):
        raise ParameterError(f"invalid bracket [{a}, {b}]")
    if not (_is_finite(rel_tol) and rel_tol >= _MIN_REL_TOL):
        raise ParameterError(f"rel_tol must be finite and >= {_MIN_REL_TOL:.3g}, got {_shown(rel_tol)}", "rel_tol")
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-300):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _resonances(system: HalfSpaceSystem, atom_b: Atom) -> list:
    """The system's one resonance table: (frequency, damping, kind) entries.

    The entries are the real zeros of eps_u + eps_l (surface modes, from
    :func:`~vdwsurf.materials._screening_zeros`), the zeros of 2*eps + 1
    of each oscillator medium (cavity modes), each oscillator's omega_t and
    atom B's omega0 (atomic resonance).  Frequencies are those of the
    undamped media; ``kind`` is None for omega_t, a pole that is no
    classified mode.  ``damping`` is 0.0 exactly when the media or the atom
    of the entry are lossless, and then the entry is a pole of the
    evaluator.
    """
    table = [(w, damping, PeakKind.SURFACE_MODE) for w, damping in _screening_zeros(system.upper, system.lower)]
    for m in (system.upper, system.lower):
        if m.kind is MaterialKind.LORENTZ:
            table += [(cavity_mode_frequency(m), m.gamma, PeakKind.CAVITY_MODE), (m.omega_t, m.gamma, None)]
    return table + [(atom_b.omega0, atom_b.gamma, PeakKind.ATOMIC_RESONANCE)]


def _match(table: list, location: float, grid_step: float):
    """The classified entry of ``table`` nearest ``location``, or None if none is within its window.

    An entry's window is twice its damping (the Lorentzian half width of
    the resonance), floored at one grid step so barely resolved features
    still classify.  Of equally near entries the first wins.
    """
    near = [
        (abs(location - freq), i)
        for i, (freq, damping, kind) in enumerate(table)
        if kind is not None and abs(location - freq) < max(2.0 * damping, grid_step)
    ]
    return table[min(near)[1]] if near else None


def find_peaks(
    system: HalfSpaceSystem,
    atom_b: Atom,
    rows: list[SpectrumRow],
    refine_tol: float = 1e-6,
) -> list[PeakReport]:
    """Locate, refine and classify the resonances of a scanned spectrum.

    Strict local maxima of |u_resonant| on the grid are refined by
    golden-section search on the continuous evaluator and classified by
    proximity to the system's resonances: the surface modes, where
    eps_u + eps_l vanishes (two for two oscillator media), each oscillator
    medium's cavity mode, and atom B's transition.  A maximum whose bracket
    between its grid neighbours holds a resonance of lossless media or of
    an undamped atom B (a surface or cavity mode, an oscillator's omega_t,
    atom B's omega0) is left out, as the search would converge onto that
    pole.  Several grid maxima matching the same resonance (e.g. the two
    flanks of a dispersive atomic line) collapse into the single tallest
    report; unclassified peaks are kept individually.  A width is NaN when
    no half-height crossing bounds it on the grid.  Returns peaks ordered
    by location; an empty list for monotone input.
    """
    clean = [row for row in rows if row.error is None]
    omegas = np.array([row.omega for row in clean], dtype=float)
    metric = np.array([abs(row.u_resonant) for row in clean], dtype=float)
    return _find_peaks(system, atom_b, omegas, metric, refine_tol)[0]


def _find_peaks(
    system: HalfSpaceSystem, atom_b: Atom, omegas: np.ndarray, metric: np.ndarray, refine_tol: float = 1e-6
) -> tuple:
    """:func:`find_peaks` on columns, and the number of grid maxima it left out at a pole.

    ``metric`` is |u_resonant| at ``omegas``; both hold the unflagged grid
    points only, in frequency order.  Classification (:func:`_match`), the
    pole rule (an entry of damping 0 in the bracket) and the merge (per
    matched entry) all read the one table of :func:`_resonances`.  The grid
    step is the median step, taken as np.median takes it (the middle of the
    sorted steps, or the mean of the two middle ones) without np.median,
    which loads numpy.ma into the process.
    """
    if len(metric) < 3:
        return [], 0
    steps = np.sort(np.diff(omegas))
    grid_step = float(np.mean(steps[(steps.size - 1) // 2 : steps.size // 2 + 1]))

    def evaluator(w: float) -> float:
        # the arithmetic of resonant_potential at omega0 = w, without building an Atom or a PotentialResult
        return abs(_resonant(system, w, atom_b, _Poles(w, "omega_a"))[2])

    table = _resonances(system, atom_b)
    inner = metric[1:-1]
    maxima = np.flatnonzero((inner > metric[:-2]) & (inner > metric[2:])) + 1

    peaks: list[PeakReport] = []
    merged: dict = {}  # the tallest peak per matched entry
    left_out = 0
    for i in maxima.tolist():
        lo, hi = float(omegas[i - 1]), float(omegas[i + 1])
        if any(damping == 0.0 and lo <= freq <= hi for freq, damping, _ in table):
            left_out += 1
            continue
        loc, height = golden_section_max(evaluator, lo, hi, refine_tol)
        entry = _match(table, loc, grid_step)
        kind = PeakKind.UNCLASSIFIED if entry is None else entry[2]
        peak = PeakReport(location=loc, height=height, width_fwhm=_fwhm(omegas, metric, i, height), kind=kind)
        if entry is None:
            peaks.append(peak)
        elif entry not in merged or height > merged[entry].height:
            merged[entry] = peak
    peaks.extend(merged.values())
    peaks.sort(key=lambda p: p.location)
    return peaks, left_out


def _fwhm(omegas: np.ndarray, metric: np.ndarray, i_peak: int, height: float) -> float:
    """Full width at half maximum from grid crossings, NaN if unbounded.

    NaN too when the grid value at the maximum is not above half the
    refined height: the line is narrower than the grid resolves, and the
    crossings would be extrapolated.
    """
    half = 0.5 * height
    left = right = float("nan")
    if not metric[i_peak] > half:
        return left
    for i in range(i_peak, 0, -1):
        if metric[i - 1] <= half:
            frac = (metric[i] - half) / (metric[i] - metric[i - 1])
            left = omegas[i] + frac * (omegas[i - 1] - omegas[i])
            break
    for i in range(i_peak, len(metric) - 1):
        if metric[i + 1] <= half:
            frac = (metric[i] - half) / (metric[i] - metric[i + 1])
            right = omegas[i] + frac * (omegas[i + 1] - omegas[i])
            break
    return float(right - left)
