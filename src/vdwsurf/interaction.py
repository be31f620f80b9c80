"""Two-atom interaction across the interface.

Outputs are dimensionless: potentials are in units of
U0 = 2*|d_A|^2*alpha_B(0)/R^6, the magnitude of the free-space near-field
value, and hbar = 1 in the imaginary-frequency integral (see
``HBAR_REDUCED``).  The excited atom A sits in the upper medium, the
ground-state atom B in the lower one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._carray import abs_squared, operand
from .errors import (
    ParameterError,
    QuadratureError,
    SingularityError,
    UnsupportedModelError,
    ValidityWarning,
    _check_number,
    _is_finite,
)
from .materials import (
    AtomPositions,
    HalfSpaceSystem,
    Material,
    MaterialKind,
    _coupling,
    _lorentzian,
    _Poles,
    local_field_factor,
    surface_mode_frequency,
)
from .quadrature import QuadratureSpec, adaptive_gauss

#: Reduced Planck constant of the unit system.  Absorbed here (and only
#: here) so that the vacuum-vacuum off-resonant potential reproduces the
#: London integral with the same U0 normalization as the resonant part.
HBAR_REDUCED = 1.0


@dataclass(frozen=True)
class Atom:
    """Isotropic two-level atom.

    ``omega0``/``gamma`` are the transition frequency and linewidth,
    ``alpha0`` the static polarizability and ``dipole_weight`` the squared
    dipole matrix element stand-in, all in reduced units.  ``offres_sign``
    is the sign convention of this atom's imaginary-axis response when it
    plays the excited role in the off-resonant integral: +1 (ground-like,
    the default) or -1 (the excited-state convention).
    """

    omega0: float
    gamma: float = 0.0
    alpha0: float = 1.0
    dipole_weight: float = 1.0
    offres_sign: float = 1.0

    def __post_init__(self):
        for name, rule in (
            ("omega0", "positive"),
            ("gamma", ">= 0"),
            ("alpha0", "positive"),
            ("dipole_weight", "positive"),
            ("offres_sign", "real"),
        ):
            _check_number(getattr(self, name), name, rule)
            object.__setattr__(self, name, float(getattr(self, name)))
        if not _is_finite(self.omega0 * self.omega0):  # omega0**2 enters the polarizability
            raise ParameterError(f"transition frequency must have a finite square, got {self.omega0}", "omega0")
        if self.offres_sign not in (1.0, -1.0):
            raise ParameterError(f"offres_sign must be +1 or -1, got {self.offres_sign}", "offres_sign")


@dataclass(frozen=True)
class PotentialResult:
    """Resonant interaction potential in units of U0, with its enhancement.

    ``g`` is the interface enhancement over free space including the local
    field, ``g_no_localfield`` the same with both Onsager factors removed.
    """

    u_resonant: float
    g: float
    g_no_localfield: float


@dataclass(frozen=True)
class ResonantTerms:
    """Resonant potential and enhancement over an array of transition frequencies.

    Columns are float arrays aligned with ``omega``; ``u`` and ``u_no_lf``
    are NaN when no partner atom was given.  An element that hit a pole is
    True in ``flagged``, NaN in every column, and ``errors`` holds the
    reason for it (None elsewhere), with the thresholds and messages of the
    scalar functions.
    """

    omega: np.ndarray
    u: np.ndarray
    u_no_lf: np.ndarray
    g: np.ndarray
    g_no_lf: np.ndarray
    flagged: np.ndarray
    errors: tuple


def _polarizability(atom: Atom, w2, iw, poles: _Poles | None = None, omega0=None):
    """alpha0*w0^2/(w0^2 - w^2 - i*w*gamma) from w2 = w^2 and iw = i*w, by :func:`_lorentzian`.

    ``omega0``, when given, replaces the atom's w0; an array broadcasts
    against w, so w of shape (n, 1) and omega0 of shape (rows,) give (n, rows).
    """
    w0 = atom.omega0 if omega0 is None else omega0
    return _lorentzian(atom.alpha0, w0, atom.gamma, w2, iw, poles, "undamped polarizability pole at omega = {!r}")


def _resonant(system: HalfSpaceSystem, omega, atom_b: Atom | None, poles: _Poles):
    """(g, g_no_lf, u, u_no_lf) at a real frequency or an array of them.

    ``u`` and ``u_no_lf`` are None without a partner atom.  Both media and
    the polarizability are evaluated once from the same w^2 and i*w, and
    checked against ``poles``.
    """
    w = operand(omega)
    w2, iw = w * w, 1j * w
    e_u, e_l = system.upper._eps(w2, iw, poles), system.lower._eps(w2, iw, poles)
    coupling, coupling_no_lf = _coupling(e_u, e_l, poles)
    g = abs_squared(coupling)
    g_no_lf = abs_squared(coupling_no_lf)
    poles.check_finite("the enhancement", g, g_no_lf)
    if atom_b is None:
        return g, g_no_lf, None, None
    alpha_ratio = _polarizability(atom_b, w2, iw, poles).real / atom_b.alpha0
    u, u_no_lf = -alpha_ratio * g, -alpha_ratio * g_no_lf
    poles.check_finite("the resonant potential", u, u_no_lf)
    return g, g_no_lf, u, u_no_lf


def resonant_terms(system: HalfSpaceSystem, omega, atom_b: Atom | None = None) -> ResonantTerms:
    """Enhancement and, with ``atom_b``, resonant potential over an omega array.

    ``omega`` is the excited atom's transition frequency, a 1-d array of
    positive reals.  Every element equals, bit for bit, what
    :func:`enhancement_factor` and :func:`resonant_potential` return at that
    frequency; where those raise SingularityError the element is flagged
    instead (see :class:`ResonantTerms`).
    """
    _check_number(omega, "omega", "positive")  # before the float conversion, which overflows on 10**400
    omega = np.asarray(omega, dtype=float).reshape(-1)
    poles = _Poles(omega, "omega_a")
    with np.errstate(all="ignore"):  # a value beyond the float range is flagged, not warned of
        g, g_no_lf, u, u_no_lf = _resonant(system, omega, atom_b, poles)
    flagged = poles.flagged

    def column(values):
        if values is None:
            return np.full(omega.shape, np.nan)
        return np.where(flagged, np.nan, values)

    return ResonantTerms(
        omega=omega,
        u=column(u),
        u_no_lf=column(u_no_lf),
        g=column(g),
        g_no_lf=column(g_no_lf),
        flagged=flagged,
        errors=tuple(poles.reasons),
    )


def polarizability(atom: Atom, omega) -> complex:
    """Single-resonance polarizability alpha0*w0^2/(w0^2 - w^2 - i*w*gamma).

    Real on the positive imaginary axis.  An undamped atom evaluated at its
    own transition raises SingularityError.
    """
    _check_number(omega, "omega")
    w = complex(omega)
    return _polarizability(atom, w * w, 1j * w, _Poles(omega, "omega"))


def enhancement_factor(system: HalfSpaceSystem, omega_a: float):
    """Interface enhancement of the near-field interaction over free space.

    Returns ``(g, g_no_localfield)`` evaluated at the excited atom's
    transition frequency:

        g      = |18 e e_m / ((e + e_m)(2e + 1)(2e_m + 1))|^2
        g_nolf = |2 / (e + e_m)|^2

    i.e. the squared magnitude of the screened near-field coupling with and
    without the two Onsager cavity factors.  :func:`resonant_terms`
    evaluates the same over a frequency array.
    """
    _check_number(omega_a, "omega_a", "positive")
    g, g_no_lf, _, _ = _resonant(system, omega_a, None, _Poles(omega_a, "omega_a"))
    return g, g_no_lf


def peak_enhancement_estimate(m: Material) -> float:
    """Small-damping estimate of the enhancement peak at the surface mode.

    For an oscillator medium facing vacuum:

        4*(eps0 - eta)^2 / ((eta + 1)^2 (eps0 + 1)^2) * (w_s/gamma)^2 * |D_m(w_s)|^2

    valid for gamma << w_s.  Raises SingularityError for an undamped model.
    """
    if m.kind is not MaterialKind.LORENTZ:
        raise UnsupportedModelError("peak estimate is defined for the oscillator model")
    if m.gamma == 0.0:
        raise SingularityError("undamped medium has an unbounded enhancement peak")
    w_s = surface_mode_frequency(m)
    d_m = local_field_factor(m.eps(w_s))
    base = 4.0 * (m.eps0 - m.eta) ** 2 / ((m.eta + 1.0) ** 2 * (m.eps0 + 1.0) ** 2)
    return base * (w_s / m.gamma) ** 2 * abs(d_m) ** 2


def resonant_potential(
    system: HalfSpaceSystem,
    atom_a: Atom,
    atom_b: Atom,
    r: float | None = None,
) -> PotentialResult:
    """Resonant part of the interaction in units of U0.

        u = -Re[alpha_B(omega_A)]/alpha_B(0) * g(omega_A)

    The separation never enters the normalized value (the absolute potential
    is u * 2*|d_A|^2*alpha_B(0)/R^6); pass ``r`` to get an advisory warning
    when the geometry strains the near-field regime.
    """
    if r is not None:
        _check_number(r, "r", "positive")
        if r * max(atom_a.omega0, system.omega_max) > 1.0:
            warnings.warn(
                f"separation {r} is not small against 1/omega_max; "
                "near-field result may not apply",
                ValidityWarning,
                stacklevel=2,
            )
    omega = atom_a.omega0
    g, g_no_lf, u, _ = _resonant(system, omega, atom_b, _Poles(omega, "omega_a"))
    return PotentialResult(u_resonant=u, g=g, g_no_localfield=g_no_lf)


def offresonant_potential(
    system: HalfSpaceSystem,
    atom_a: Atom,
    atom_b: Atom,
    r: float | None = None,
    quad: QuadratureSpec | None = None,
    full_output: bool = False,
):
    """Off-resonant (imaginary-frequency) part of the interaction in units of U0.

        u = -3*hbar/(2*pi*d_A*alpha_B(0)) * Int_0^inf dxi
            alpha_A(i xi) alpha_B(i xi) [D*D_m/avg_eps]^2(i xi)

    The R^-6 law is carried entirely by U0, so the normalized value is
    separation-free.  The semi-infinite integral is mapped onto [0, 1) by
    xi = t/(1 - t).  With ``full_output`` the achieved error estimate (same
    units) is returned alongside.  This is the one-row case of a scan's
    off-resonant column (``spectra.scan_spectrum``), so the QuadratureError
    it raises carries its value and estimate as 1-element arrays, in units
    of U0 like the return value; its message keeps the integrator's own
    numbers, those of the integral over t.
    """
    if r is not None:
        _check_number(r, "r", "positive")
    u, err = _offresonant_many(system, atom_a, atom_b, np.array([atom_a.omega0]), quad)
    return (float(u[0]), float(err[0])) if full_output else float(u[0])


def _offresonant_many(system: HalfSpaceSystem, atom_a: Atom, atom_b: Atom, omegas, quad: QuadratureSpec | None):
    """(u, error estimate) arrays of :func:`offresonant_potential` with atom A's omega0 at each of ``omegas``.

    All of ``omegas`` (at least one) are one vector-valued integral, one
    component per omega0, with ``rel_tol`` measured against its largest
    component; a scan passes one block of its grid at a time.  Its
    QuadratureError carries ``value`` and ``error_estimate`` (one per
    omega0) scaled to units of U0 like the results.
    """
    if quad is None:
        quad = QuadratureSpec()

    def integrand(t, w0):
        xi = t / (1.0 - t)
        jac = 1.0 / (1.0 - t) ** 2
        w2, iw = -xi * xi, -xi  # the imaginary axis w = i*xi in real arithmetic
        a_a = _polarizability(atom_a, w2, iw, omega0=w0)
        a_b = _polarizability(atom_b, w2, iw)
        coupling, _ = _coupling(system.upper._eps(w2, iw), system.lower._eps(w2, iw))
        return a_a * a_b * np.real(coupling * coupling) * jac

    prefactor = 3.0 * HBAR_REDUCED / (2.0 * np.pi * atom_a.dipole_weight * atom_b.alpha0)
    scale = -atom_a.offres_sign * prefactor
    # Seed panel edges at the atomic scales, mapped to the unit interval.
    seeds = [w / (1.0 + w) for w in (omegas.min(), omegas.max(), atom_b.omega0)]
    try:
        value, error, _ = adaptive_gauss(lambda t: integrand(t[:, None], omegas), 0.0, 1.0, quad, seeds)
    except QuadratureError as exc:
        if exc.value is not None:  # None when the seeds alone exceed the budget, or on a value not finite
            exc.value, exc.error_estimate = scale * exc.value, prefactor * exc.error_estimate
        raise
    return scale * value, prefactor * error


def force(system: HalfSpaceSystem, atom_a: Atom, atom_b: Atom, pos: AtomPositions):
    """Equal and opposite forces on the two atoms from the resonant potential.

    F_A = -grad U, with U = u*2*|d_A|^2*alpha_B(0)/R^6 the absolute potential
    of :func:`resonant_potential`: 12*u*|d_A|^2*alpha_B(0)/R^7 * rhat with
    rhat = (r_a - r_b)/R.  Returns ``(f_a, f_b)`` with f_b = -f_a exactly;
    attractive (f_a antiparallel to rhat) when u < 0, i.e. Re[alpha_B] > 0.
    ParameterError naming pos where 1/R**7 is beyond the float range; where
    it is below, the force is 0 or the nearest float.
    """
    u = resonant_potential(system, atom_a, atom_b).u_resonant
    dist = np.float64(pos.distance)
    with np.errstate(all="ignore"):  # R**7 overflows to inf (a force of 0) or underflows to 0, raising below
        f_a = (12.0 * u * atom_a.dipole_weight * atom_b.alpha0 / dist**7) * (pos.r_vec / dist)
    if not np.all(np.isfinite(f_a)):
        raise ParameterError(f"the force is not finite at R = {float(dist)!r}: 1/R**7 beyond the float range", "pos")
    return f_a, -f_a
