"""Half-space material response, interface mode frequencies and the two atoms' positions.

Conventions used throughout the package:

* frequencies are in reduced units of a caller-chosen reference omega_ref,
  lengths in units of c/omega_ref (so c = 1 in all kernels);
* the time convention is exp(-i*omega*t), so passive media have
  Im(eps) >= 0 at real positive frequency;
* evaluation on the positive imaginary axis (omega = i*xi, xi >= 0) is the
  standard analytic continuation and yields real response values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._carray import CArray, is_scalar, modulus, operand, to_complex
from .errors import ParameterError, SingularityError, UnsupportedModelError, _check_number, _is_finite, _shown


#: Reason reported when an undamped oscillator is evaluated at its resonance.
RESONANCE_POLE = "undamped oscillator evaluated at its resonance {!r}"


class MaterialKind(Enum):
    VACUUM = "vacuum"
    CONSTANT = "constant"
    LORENTZ = "lorentz"


def _check_oscillator(eta, eps0) -> None:
    if not (_is_finite(eta) and _is_finite(eps0) and eps0 > eta >= 1.0):
        raise ParameterError(
            f"oscillator model needs finite eps0 > eta >= 1, got eta={_shown(eta)}, eps0={_shown(eps0)}",
            "eta",
            "eps0",
        )


@dataclass(frozen=True)
class Material:
    """Homogeneous half-space material model.

    VACUUM and CONSTANT have frequency-independent response.  LORENTZ is the
    single-resonance oscillator

        eps(w) = eta + (eps0 - eta) * w_t**2 / (w_t**2 - w**2 - 1j*w*gamma)

    with background constant ``eta``, static constant ``eps0``, resonance
    frequency ``omega_t`` and damping ``gamma``; its permeability is the
    constant ``mu_const``.
    """

    kind: MaterialKind
    eps_const: complex = 1.0 + 0.0j
    mu_const: complex = 1.0 + 0.0j
    eta: float = 1.0
    eps0: float = 1.0
    omega_t: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("eps_const", "mu_const"):
            _check_number(getattr(self, name), name)
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.kind is MaterialKind.LORENTZ:
            for name, rule in (("eta", "real"), ("eps0", "real"), ("omega_t", "positive"), ("gamma", ">= 0")):
                _check_number(getattr(self, name), name, rule)
                object.__setattr__(self, name, float(getattr(self, name)))
            _check_oscillator(self.eta, self.eps0)
            if not _is_finite(self.omega_t * self.omega_t):  # omega_t**2 enters the oscillator formula
                raise ParameterError(f"oscillator resonance must have a finite square, got {self.omega_t}", "omega_t")
        elif self.kind is MaterialKind.VACUUM:
            if self.eps_const != 1.0 or self.mu_const != 1.0:
                raise ParameterError("vacuum must have eps = mu = 1", "eps_const", "mu_const")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def vacuum() -> "Material":
        return Material(MaterialKind.VACUUM)

    @staticmethod
    def constant(eps: complex, mu: complex = 1.0) -> "Material":
        return Material(MaterialKind.CONSTANT, eps_const=eps, mu_const=mu)

    @staticmethod
    def lorentz(eta: float, eps0: float, omega_t: float, gamma: float, mu: complex = 1.0) -> "Material":
        return Material(
            MaterialKind.LORENTZ,
            mu_const=mu,
            eta=eta,
            eps0=eps0,
            omega_t=omega_t,
            gamma=gamma,
        )

    @staticmethod
    def lorentz_from_surface_mode(
        eta: float, eps0: float, omega_s: float, gamma: float, mu: complex = 1.0
    ) -> "Material":
        """Oscillator model pinned by its vacuum-interface surface-mode frequency.

        The resonance frequency is recovered from
        omega_t = omega_s * sqrt((eta + 1)/(eps0 + 1)); convenient when a
        measurement fixes the surface mode rather than the bulk resonance.
        """
        _check_number(omega_s, "omega_s", "positive")
        _check_oscillator(eta, eps0)  # before the square root below
        omega_t = float(omega_s) * math.sqrt((eta + 1.0) / (eps0 + 1.0))
        return Material.lorentz(eta, eps0, omega_t, gamma, mu=mu)

    # -- evaluation --------------------------------------------------------

    def eps(self, omega):
        """Relative permittivity at frequency ``omega``.

        ``omega`` is a real or complex number, or an array of them (then a
        complex array comes back).  Supported arguments are real
        frequencies and points on the positive imaginary axis; the closed
        form is evaluated as-is for any complex input.  ParameterError
        naming omega where omega, or an element of it, is not finite.  An
        undamped oscillator at (or within roundoff of) its resonance raises
        SingularityError for a scalar and gives NaN in that element of an
        array.
        """
        _check_number(omega, "omega")
        w, poles = operand(omega), _Poles(omega, "omega")
        value = self._eps(w * w, 1j * w, poles)
        return value if poles.flagged is None else np.where(poles.flagged, np.nan, to_complex(value))

    def eps_imag(self, xi):
        """Permittivity on the positive imaginary axis, vectorized over xi >= 0.

        For the oscillator model the continuation is real and strictly
        decreasing from eps0 to eta, ``eps(1j*xi).real`` evaluated in real
        arithmetic:

            eps(i*xi) = eta + (eps0 - eta) * w_t**2 / (w_t**2 + xi**2 + xi*gamma)

        Constant models return their fixed value in an array of xi's shape.
        ParameterError naming xi where xi, or an element of it, is not
        a finite real >= 0.
        """
        _check_number(xi, "xi", ">= 0")  # the positive imaginary axis
        xi = np.asarray(xi, dtype=float)
        return self._eps(-xi * xi, -xi)

    def _eps(self, w2, iw, poles: _Poles | None = None):
        """The permittivity from ``w2`` = omega**2 and ``iw`` = 1j*omega.

        Taking these two lets one expression serve complex omega (scalar or
        CArray) and the imaginary axis omega = i*xi in real arithmetic
        (w2 = -xi**2, iw = -xi).  A constant medium gives ``eps_const`` shaped
        like ``w2`` (a complex, a CArray of scalar parts, or a fresh array).
        ``poles`` checks the oscillator's resonance, see :func:`_lorentzian`.
        """
        if self.kind is MaterialKind.LORENTZ:
            return self.eta + _lorentzian(self.eps0 - self.eta, self.omega_t, self.gamma, w2, iw, poles, RESONANCE_POLE)
        if isinstance(w2, CArray):  # np.float64 parts broadcast, and divide by zero to NaN rather than raise
            return CArray(np.float64(self.eps_const.real), np.float64(self.eps_const.imag))
        return self.eps_const if isinstance(w2, complex) else np.full(np.shape(w2), self.eps_const)

    def mu(self, omega) -> complex:
        """Relative permeability (dispersionless in every supported model)."""
        return self.mu_const


@dataclass(frozen=True)
class HalfSpaceSystem:
    """Two materials joined at the plane z = 0.

    ``upper`` fills z > 0 and ``lower`` fills z < 0.  ``omega_max`` is an
    advisory validity cutoff: near-field results are trustworthy only for
    geometries with distances well below c/omega_max.
    """

    upper: Material
    lower: Material
    omega_max: float = 10.0

    def __post_init__(self):
        _check_number(self.omega_max, "omega_max", "positive")

    def avg_eps(self, omega) -> complex:
        """Average permittivity (eps_upper + eps_lower)/2 of the media in contact."""
        return 0.5 * (self.upper.eps(omega) + self.lower.eps(omega))


def _coordinates(name: str, value) -> np.ndarray:
    """``value`` as three floats; ParameterError naming ``name[i]`` unless each is a real number finite as a float."""
    coords = np.asarray(value, dtype=object).reshape(3)
    for i, x in enumerate(coords):
        _check_number(x, f"{name}[{i}]", "real")
    return coords.astype(float)


def _norm(r_vec):
    """Length of a 3-vector by hypot, which does not overflow; np.linalg.norm would call BLAS."""
    return np.hypot.reduce(r_vec)


@dataclass(frozen=True, eq=False)
class AtomPositions:
    """Positions of the two atoms, strictly on opposite sides of z = 0.

    ``r_a`` must have z > 0 (upper medium), ``r_b`` z < 0 (lower medium).
    Lengths are reduced by c/omega_ref.
    """

    r_a: np.ndarray
    r_b: np.ndarray

    def __post_init__(self):
        for name in ("r_a", "r_b"):
            object.__setattr__(self, name, _coordinates(name, getattr(self, name)))
        if not (self.r_a[2] > 0.0):
            raise ParameterError(f"r_a[2] must be > 0 (upper medium), got {float(self.r_a[2])!r}", "r_a[2]")
        if not (self.r_b[2] < 0.0):
            raise ParameterError(f"r_b[2] must be < 0 (lower medium), got {float(self.r_b[2])!r}", "r_b[2]")

    @property
    def r_vec(self) -> np.ndarray:
        """Separation vector r_a - r_b."""
        return self.r_a - self.r_b

    @property
    def distance(self) -> float:
        return float(_norm(self.r_vec))

    @property
    def rho(self) -> float:
        """In-plane separation."""
        return float(np.hypot(*(self.r_a[:2] - self.r_b[:2])))

    def scaled(self, s: float) -> "AtomPositions":
        _check_number(s, "scale", "positive")
        return AtomPositions(s * self.r_a, s * self.r_b)


# Poles are reported as errors instead of propagating inf; the detection
# window is a small relative neighbourhood so that undamped models evaluated
# at a float approximation of the pole still trip deterministically.
_POLE_RTOL = 1e-12


def local_field_factor(eps) -> complex:
    """Onsager empty-cavity factor 3*eps/(2*eps + 1).

    Raises SingularityError at (or within roundoff of) the cavity pole
    eps = -1/2, and ParameterError naming eps where eps, or the factor,
    is not finite (3*eps and 2*eps + 1 overflow for |eps| near the float
    range).
    """
    _check_number(eps, "eps")
    eps = complex(eps)
    if _cavity_pole(eps, modulus(eps)):
        raise SingularityError(f"local-field factor pole at eps = {eps!r}")
    factor = 3.0 * eps / (2.0 * eps + 1.0)
    if not cmath.isfinite(factor):
        raise ParameterError(f"the local-field factor is not finite at eps = {eps!r}", "eps")
    return factor


def _pole(den, scale):
    """True where the denominator ``den`` is within roundoff of zero against
    the size ``scale`` of its terms (elementwise for arrays and CArrays).

    Never where ``scale`` is infinite: terms beyond the float range make
    a value that is not finite, which :meth:`_Poles.check_finite` flags.
    """
    return (modulus(den) <= _POLE_RTOL * scale) & (scale < math.inf)


def _lorentzian(strength, w0, gamma, w2, iw, poles: _Poles | None, message: str):
    """strength*w0**2/(w0**2 - w**2 - i*w*gamma), the one resonance of the oscillator medium and the atom.

    From ``w2`` = w**2 and ``iw`` = i*w as ``Material._eps`` takes them; ``w0`` may be an array broadcast
    against w2.  ``poles``, when given, checks the pole against w0**2 and reports it with ``message``.
    """
    w02 = w0 * w0
    den = w02 - w2 - iw * gamma
    if poles is not None:
        poles.check(_pole(den, w02), message)
    return strength * w02 / den


def _cavity_pole(eps, size):
    """True where 2*eps + 1 is within roundoff of zero, for ``size`` = |eps| (elementwise for CArrays)."""
    return _pole(2.0 * eps + 1.0, 1.0 + 2.0 * size)


class _Poles:
    """Pole checks of one evaluation of the coupling core and the resonant formulas.

    For a scalar frequency (the resonant functions, the closed-form Green
    tensors, ``force``) the first pole met raises SingularityError.  For an
    array each element keeps the reason of the first pole it met and the
    evaluation carries on; the caller blanks the ``flagged`` elements.
    ``name`` is the caller's name for the frequency, shown in the messages.
    """

    def __init__(self, omega, name: str):
        self.omega, self.name = omega, name
        scalar = is_scalar(omega)
        self.reasons = None if scalar else [None] * np.size(omega)
        self.flagged = None if scalar else np.zeros(np.shape(omega), dtype=bool)

    def check(self, hit, message: str) -> None:
        """Flag where ``hit``; ``message`` is formatted with the frequency and ``name``."""
        if self.reasons is None:
            if hit:
                raise SingularityError(message.format(self.omega, name=self.name))
            return
        for i in np.flatnonzero(hit & ~self.flagged):
            self.reasons[i] = message.format(float(np.ravel(self.omega)[i]), name=self.name)
        self.flagged |= hit

    def check_finite(self, what: str, *values) -> None:
        """Flag (raise for a scalar) like a pole where a value is not finite, its terms beyond the float range."""
        if self.reasons is None:
            hit = not all(map(math.isfinite, values))
        else:
            hit = ~np.isfinite(values).all(axis=0)
        self.check(hit, what + " is not finite at {name} = {}")


def _coupling(e_u, e_l, poles: _Poles | None = None):
    """Screened near-field coupling D*D_m/avg_eps and its no-local-field form.

    Returns ``(18 e e_m / ((e + e_m)(2e + 1)(2e_m + 1)), 2/(e + e_m))`` for
    complex permittivities (scalars or CArrays) or real ones (imaginary
    axis), after checking the screening and Onsager cavity poles; |e| and
    |e_m| are taken once each for both checks.  A medium's own resonance is
    the caller's to check (``Material._eps``), against the same ``poles``.
    """
    s = e_u + e_l
    if poles is not None:
        a_u, a_l = modulus(e_u), modulus(e_l)
        poles.check(_pole(s, a_u + a_l + 1.0), "average permittivity vanishes at {name} = {}")
        poles.check(_cavity_pole(e_u, a_u) | _cavity_pole(e_l, a_l), "Onsager cavity pole at {name} = {}")
    return 18.0 * e_u * e_l / (s * (2.0 * e_u + 1.0) * (2.0 * e_l + 1.0)), 2.0 / s


def _zero(m: Material, c: float) -> float:
    """Frequency where the undamped oscillator ``m`` has eps = -c, for a real constant c.

    The closed form omega_t * sqrt((eps0 + c)/(eta + c)), real when
    (eps0 + c)/(eta + c) > 0: against vacuum (c = 1) the surface mode, for
    the cavity condition 2*eps + 1 = 0 (c = 1/2) the cavity mode.
    """
    return math.sqrt((m.eps0 + c) / (m.eta + c)) * m.omega_t


def _screening_zeros(upper: Material, lower: Material) -> list:
    """(frequency, damping) of each real zero of eps_u + eps_l, the screening pole of :func:`_coupling`.

    Frequencies are those of the undamped media.  An oscillator against a
    constant c has its zero at :func:`_zero` of Re c; its damping is gamma
    plus the width 2 |Im c| / (d eps/d omega) that Im c adds there.  For two
    oscillators x = omega**2 solves

        (eta_u + eta_l) x**2 - (a (eps0_u + eta_l) + b (eps0_l + eta_u)) x + (eps0_u + eps0_l) a b = 0

    with a and b the squared omega_t (scaled by the larger), taken in its
    cancellation-free form: one root lies above max(a, b) and, unless
    a == b, one between them; the damping is the larger gamma.  So the
    damping is 0.0 exactly when both media are lossless.
    """
    u, l = upper, lower
    if u.kind is MaterialKind.LORENTZ and l.kind is MaterialKind.LORENTZ:
        scale = max(u.omega_t, l.omega_t)
        a, b = (u.omega_t / scale) ** 2, (l.omega_t / scale) ** 2
        eta, eps0 = u.eta + l.eta, u.eps0 + l.eps0
        p = a * (u.eps0 + l.eta) + b * (l.eps0 + u.eta)
        q = 0.5 * (p + math.sqrt(max(p * p - 4.0 * eta * eps0 * a * b, 0.0)))
        roots = [q / eta] + ([eps0 * a * b / q] if a != b else [])
        return [(scale * math.sqrt(x), max(u.gamma, l.gamma)) for x in roots]
    for m, other in ((u, l), (l, u)):
        c = other.eps_const
        if m.kind is MaterialKind.LORENTZ and (c.real > -m.eta or c.real < -m.eps0):
            width = abs(c.imag) * (m.eps0 - m.eta) * m.omega_t / abs(m.eta + c.real)
            return [(_zero(m, c.real), m.gamma + width / math.sqrt((m.eps0 + c.real) * (m.eta + c.real)))]
    return []


def surface_mode_frequency(m: Material) -> float:
    """Frequency where the average permittivity against vacuum vanishes.

    For the oscillator model this is :func:`_zero` at c = 1,
    sqrt((eps0 + 1)/(eta + 1)) * omega_t, the interface (surface polariton)
    resonance of a vacuum boundary.
    """
    if m.kind is not MaterialKind.LORENTZ:
        raise UnsupportedModelError("surface-mode frequency is defined for the oscillator model")
    return _zero(m, 1.0)


def cavity_mode_frequency(m: Material) -> float:
    """Frequency of the Onsager-cavity resonance, where 2*eps + 1 vanishes.

    For the oscillator model this is :func:`_zero` at c = 1/2,
    sqrt((eps0 + 1/2)/(eta + 1/2)) * omega_t, which equals
    sqrt((2*eps0 + 1)/(2*eta + 1)) * omega_t bit for bit.
    """
    if m.kind is not MaterialKind.LORENTZ:
        raise UnsupportedModelError("cavity-mode frequency is defined for the oscillator model")
    return _zero(m, 0.5)


def resonant_inv_avg_eps(m: Material, omega) -> complex:
    """Inverse average permittivity of a vacuum/oscillator interface.

    Algebraically identical to 1/((1 + eps(omega))/2) but written as an
    explicit resonance centred on the surface-mode frequency:

        2/(eta+1) * (1 - (eps0-eta)/(eps0+1) * w_s**2/(w_s**2 - w**2 - 1j*w*gamma))

    Useful to read off the resonant structure and as an identity check of the
    direct route.
    """
    if m.kind is not MaterialKind.LORENTZ:
        raise UnsupportedModelError("resonant form is defined for the oscillator model")
    _check_number(omega, "omega")
    w = complex(omega)
    ws2 = surface_mode_frequency(m) ** 2
    return (2.0 / (m.eta + 1.0)) * (
        1.0 - (m.eps0 - m.eta) / (m.eps0 + 1.0) * ws2 / (ws2 - w * w - 1j * w * m.gamma)
    )


#: Absolute surface-mode frequency (s^-1) that the "sapphire-ir" preset is
#: scaled to.  Metadata only: the preset itself uses reduced units with
#: omega_ref equal to the surface-mode frequency.
SAPPHIRE_IR_OMEGA_S = 1.54e14

_PRESETS = {
    # Infrared response of sapphire near its surface polariton; reduced
    # units with omega_ref = surface-mode frequency, so omega_s = 1 here.
    "sapphire-ir": lambda: Material.lorentz_from_surface_mode(
        eta=2.71, eps0=6.57, omega_s=1.0, gamma=0.015
    ),
    "vacuum": Material.vacuum,
}


def preset(name: str) -> Material:
    """Return a named built-in material preset."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise ParameterError(f"unknown material preset {name!r} (known: {known})", "name") from None
    return factory()


def preset_names() -> tuple:
    return tuple(sorted(_PRESETS))
