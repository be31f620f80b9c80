"""Two-point dyadic Green function across a planar interface.

Three evaluation routes are provided for the transmission geometry (source
below the interface, observation point above):

* :func:`kspace_green` - the plane-wave kernel at fixed in-plane wavenumber,
* :func:`sommerfeld_green` - its radial-wavenumber (Bessel kernel) integral,
* :func:`nonretarded_green` - the closed near-field form, an instantaneous
  dipole tensor screened by the average permittivity of the two media.

The closed form is the exact integral of the kernel's large-wavenumber
limit, so :func:`sommerfeld_green` adds it analytically and integrates only
the retardation residual: adaptively up to a few Bessel periods past the
light lines, then as a weighted average of sums over half-periods.

The Green function is normalized to the wave equation with a 4*pi*delta
source, so the free-space near field is (3*RR - R^2 I)/(omega^2 R^5) in the
reduced units of this package (c = 1).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import ParameterError, SingularityError, _check_number
from .materials import (
    AtomPositions,
    HalfSpaceSystem,
    _coordinates,
    _coupling,
    _norm,
    _pole,
    _Poles,
    local_field_factor,
)
from .quadrature import QuadratureSpec, _bisection, _integrate_many, _result, _tail

#: Tensor components that are generally nonzero in the frame whose x axis is
#: the in-plane separation direction (everything else vanishes by symmetry).
COMPONENTS = ("xx", "yy", "zz", "xz", "zx")

_COMPONENT_INDEX = {"xx": (0, 0), "yy": (1, 1), "zz": (2, 2), "xz": (0, 2), "zx": (2, 0)}


#: Layout of the Bessel coefficient table ``data/bessel_j012.npy``, which
#: tools/bessel_table.py writes and documents: polynomials in t on [0, 1],
#: on _NEAR_STEPS intervals per unit of u up to _BESSEL_SPLIT and on
#: _FAR_STEPS intervals of y = (_BESSEL_SPLIT/u)^2 beyond it.
_BESSEL_SPLIT = 8.0
_NEAR_STEPS = 32
_FAR_STEPS = 64
#: Near intervals, the last one [8, 8 + 1/32] is used at u = 8 only.
_N_NEAR = int(_BESSEL_SPLIT) * _NEAR_STEPS + 1


@functools.cache
def _bessel_table() -> np.ndarray:
    """The (degree + 1, 4, intervals) coefficient table, read at first use."""
    with resources.files("vdwsurf").joinpath("data", "bessel_j012.npy").open("rb") as f:
        table = np.load(f)
    table.flags.writeable = False
    return table


def _bessel_j012(u):
    """``(J0(u), J1(u), J2(u))`` on a float array u >= 0, with numpy only.

    Each is within 1e-15 absolute of the exact value, and exactly 1, 0, 0
    at u = 0.  Up to u = 8 the three are polynomial fits on intervals of u.
    Beyond, J0 and J1 come from the Hankel form that tools/bessel_table.py
    documents, with its P and Q fits in (8/u)^2, and J2 = 2*J1/u - J0, which
    does not cancel there.  ``cos u`` and ``sin u`` are taken of u itself:
    rounding u - pi/4 would cost about 4e-15 at u = 1e4.  One gather from
    the table and one Horner pass evaluate every fit at once.
    """
    table = _bessel_table()
    far = u > _BESSEL_SPLIT
    v = np.maximum(u, _BESSEL_SPLIT)
    x = np.where(far, (_BESSEL_SPLIT**2 * _FAR_STEPS) / (v * v), _NEAR_STEPS * u)
    i = x.astype(np.intp)  # x >= 0: the interval, and t = x - i on it
    t = x - i
    c = table.take(i + _N_NEAR * far, axis=2)  # contiguous, unlike table[:, :, ...]
    fits = c[-1] * t
    for ck in c[-2:0:-1]:
        fits += ck
        fits *= t
    fits += c[0]
    if far.any():
        cos, sin = np.cos(v), np.sin(v)
        plus, minus, w, amplitude = cos + sin, sin - cos, 8.0 / v, np.sqrt(1.0 / (np.pi * v))
        p0, q0, p1, q1 = fits
        b0 = amplitude * (p0 * plus - w * q0 * minus)
        b1 = amplitude * (p1 * minus + w * q1 * plus)
        np.copyto(fits[:3], (b0, b1, 2.0 * b1 / v - b0), where=far)
    return fits[0], fits[1], fits[2]


def _upward_root(z):
    """Square root on the branch Im >= 0 (Re >= 0 when the root is real).

    This is the outgoing/decaying-wave branch for the perpendicular
    wavenumbers: transmitted and evanescent waves decay away from the
    interface.
    """
    w = np.sqrt(np.asarray(z, dtype=complex))
    flip = (w.imag < 0.0) | ((w.imag == 0.0) & (w.real < 0.0))
    return np.where(flip, -w, w)


def near_field_tensor(r_vec) -> np.ndarray:
    """Instantaneous dipole tensor (3*rr - I)/r^3 for a separation vector.

    ParameterError naming r_vec where 1/r**3 is beyond the float range;
    where it is below, the tensor is 0 or the nearest floats.
    """
    tensor = _dipole_tensor(_coordinates("r_vec", r_vec))
    if not np.all(np.isfinite(tensor)):
        raise ParameterError("the near-field tensor is not finite: 1/r**3 beyond the float range", "r_vec")
    return tensor


def _dipole_tensor(r_vec) -> np.ndarray:
    """:func:`near_field_tensor` of three floats already checked finite (an AtomPositions separation).

    Not finite, without a warning, where 1/r**3 is beyond the float range: the caller checks.
    """
    r = _norm(r_vec)
    if r == 0.0:
        raise ParameterError("zero separation", "r_vec")
    rhat = r_vec / r
    with np.errstate(all="ignore"):
        return (3.0 * np.outer(rhat, rhat) - np.eye(3)) / r**3


_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal float range


def _check_squares(omega, *indices) -> None:
    """ParameterError naming omega unless |omega|**2 and each nonzero |n*omega|**2 are normal floats.

    complex ** 2 raises OverflowError above them, and below them 1/omega**2
    is beyond the float range or a division by zero.
    """
    w = abs(omega)
    if not all(_TINY <= (x * w) * (x * w) <= _HUGE for x in (1.0, *indices) if x):
        what = "omega**2 and (n*omega)**2" if indices else "omega**2"
        raise ParameterError(f"{what} must be within the float range, got {omega!r}", "omega")


class _Kernel:
    """Plane-wave transmission kernel of one system at one frequency.

    Media constants and refractive indices are evaluated once, here.  A call
    at in-plane wavenumbers ``k`` (float or array) returns
    ``(beta, beta_m, den_p, den_s, p, s)``: the perpendicular wavenumbers,
    the Fresnel denominators, p = 2/(omega^2 den_p) = mu_u t_p/(beta n_u n_l omega^2)
    and s = 2 mu_u mu_l/den_s = mu_u t_s/beta, the transmission coefficients
    with the kernel's 1/beta folded in, finite at beta = 0 and at n = 0.
    """

    def __init__(self, system: HalfSpaceSystem, omega: float):
        _check_number(omega, "omega", "positive")
        self.omega = omega
        self.eps_u, self.eps_l = system.upper.eps(omega), system.lower.eps(omega)
        self.mu_u, self.mu_l = system.upper.mu(omega), system.lower.mu(omega)
        self.n_u = n_u = complex(_upward_root(self.eps_u * self.mu_u))
        self.n_l = n_l = complex(_upward_root(self.eps_l * self.mu_l))
        _check_squares(omega, abs(n_u), abs(n_l))
        self._nw2_u, self._nw2_l = (n_u * omega) ** 2, (n_l * omega) ** 2
        self._p_num, self._s_num = 2.0 / (omega * omega), 2.0 * self.mu_u * self.mu_l
        self.k_breaks = sorted({abs((n_u * omega).real), abs((n_l * omega).real)})
        self.check_p([0.0, *self.k_breaks])

    def __call__(self, k):
        beta = _upward_root(self._nw2_u - k * k)
        beta_m = _upward_root(self._nw2_l - k * k)
        den_p = self.eps_l * beta + self.eps_u * beta_m
        den_s = self.mu_l * beta + self.mu_u * beta_m
        return beta, beta_m, den_p, den_s, self._p_num / den_p, self._s_num / den_s

    def at(self, k: float):
        """``(beta, beta_m, p, s)`` at one k >= 0 as Python complex numbers, off the poles."""
        _check_number(k, "k", ">= 0")
        with np.errstate(all="ignore"):
            beta, beta_m, den_p, den_s, p, s = self(k)
        scale = self.omega * (abs(self.eps_u) + abs(self.eps_l) + abs(self.mu_u) + abs(self.mu_l))
        if _pole(den_p, scale) or _pole(den_s, scale):
            raise SingularityError(f"interface-mode pole hit at omega={self.omega}, k={k}")
        self.check_p([k])
        return complex(beta), complex(beta_m), complex(p), complex(s)

    def check_p(self, ks) -> None:
        """ParameterError naming omega where p is beyond the float range at a wavenumber of ``ks``.

        p grows as 1/omega**3 and is largest where |den_p| is least: at k = 0,
        a light line or the p pole.  It must be a float there, or a tiny omega
        overflows it where the integrand's products of p are finite.  den_p = 0
        (a zero index at k = 0, matched light lines) is the kernel's 1/beta
        peak, finite in those products.
        """
        with np.errstate(all="ignore"):
            _, _, den_p, _, p, _ = self(np.array(ks))
        if not np.all(np.isfinite(p) | (den_p == 0.0)):
            raise ParameterError(f"omega = {self.omega!r} puts p = 2/(omega**2 den_p) beyond the float range", "omega")

    def check_path_poles(self) -> None:
        """Reject lossless media whose interface-mode pole lies on the real-k path."""
        media = (self.eps_u, self.eps_l, self.mu_u, self.mu_l)
        if any(z.imag != 0.0 for z in media):
            return
        for pol, (a, b) in (("p", media[:2]), ("s", media[2:])):
            if a.real * b.real < 0.0 and a.real + b.real < 0.0:
                raise SingularityError(
                    f"lossless interface mode lies on the integration path ({pol} polarization)"
                )


def fresnel_t(system: HalfSpaceSystem, omega: float, k: float):
    """Transmission coefficients (t_p, t_s) through the interface.

    The wave travels from the lower medium into the upper one with in-plane
    wavenumber ``k``; perpendicular wavenumbers use the decaying branch.
    """
    kernel = _Kernel(system, omega)
    beta, _, p, s = kernel.at(k)
    return p * beta * kernel.n_u * kernel.n_l * omega * omega / kernel.mu_u, s * beta / kernel.mu_u


def kspace_green(system: HalfSpaceSystem, omega: float, k: float, z_a: float, z_b: float) -> np.ndarray:
    """Plane-wave transmission kernel at in-plane wavenumber ``k``.

    Returned in the (khat, khat x zhat, zhat) frame:

        2*pi*i*(mu/beta) * [t_p * p_up (x) p_low + t_s * s (x) s] * e^{i beta z_a - i beta_m z_b}

    with p_up = (beta*khat - k*zhat)/(n*omega) and p_low its lower-medium
    counterpart.  The s block occupies only the middle row/column.
    """
    _check_number(z_a, "z_a", "real")
    _check_number(z_b, "z_b", "real")
    if not (z_a > 0.0 > z_b):
        raise ParameterError(f"kernel needs z_a > 0 > z_b, got z_a={z_a}, z_b={z_b}", "z_a", "z_b")
    beta, beta_m, p, s = _Kernel(system, omega).at(k)
    if beta == 0.0:
        raise SingularityError(f"grazing kernel beta = 0 at omega={omega}, k={k}")
    dyad = p * np.outer([beta, 0.0, -k], [beta_m, 0.0, -k])
    dyad[1, 1] = s
    return 2j * np.pi * np.exp(1j * (beta * z_a - beta_m * z_b)) * dyad


def _radial_integrand(kernel: _Kernel, jobs, p0, s0):
    """Vectorized k-integrand of the five independent tensor components
    minus its k -> infinity limit.

    The integrand is the angular integral of :func:`kspace_green` times
    k/(2*pi)^2, in the frame whose x axis is the in-plane separation.  As
    k -> infinity, beta and beta_m tend to ik, p to p0/(ik), s to s0/(ik)
    and the phase to e^{-k dz}; that limit is subtracted from the
    coefficient of each Bessel combination.  p0 = s0 = 0 subtracts nothing.

    ``jobs`` holds one row ``(z_a, z_b, rho, k_lo, k_hi)`` per job;
    ``integrand(k, which)`` takes which[i] as the index of the job that
    k[i] belongs to, and ``integrand(k)`` evaluates at the first.  A job
    with finite ends takes its abscissae in t on [0, 2]: with
    w = (k_hi - k_lo)/2, k = k_lo + w*t^2 up to t = 1 and k_hi - w*(2 - t)^2
    beyond, and its values carry dk/dt.  A square-root branch point of beta
    at either end of the piece (a light line) then leaves the integrand
    smooth in t.  A job with NaN ends is integrated in k.
    """
    z_a, z_b, rho, k_lo, k_hi = np.reshape(jobs, (-1, 5)).T
    dz, width, in_t = z_a - z_b, 0.5 * (k_hi - k_lo), ~np.isnan(k_lo)

    def integrand(k, which=0):
        k, dk = np.asarray(k, dtype=float), 1.0
        mapped = in_t[which]
        if np.any(mapped):  # there k holds t
            w, u = width[which], np.minimum(k, 2.0 - k)  # u: t's distance from the nearer end of its piece
            k = np.where(mapped, np.where(k < 1.0, k_lo[which] + w * u * u, k_hi[which] - w * u * u), k)
            dk = np.where(mapped, 2.0 * w * u, 1.0)
        beta, beta_m, _, _, p, s = kernel(k)
        phase = np.exp(1j * (beta * z_a[which] - beta_m * z_b[which]))
        b0, b1, b2 = (b * dk for b in _bessel_j012(k * rho[which]))  # every component is linear in them
        ik, k2, envelope = 1j * k, k * k, np.exp(-k * dz[which])
        pk2, p0k2 = p * k2 * phase, p0 * k2 * envelope
        cp = 0.5 * (ik * p * beta * beta_m * phase + p0k2)
        cs = 0.5 * (ik * s * phase - s0 * envelope)
        minus, plus = b0 - b2, b0 + b2
        xx = cp * minus + cs * plus
        yy = cp * plus + cs * minus
        zz = (ik * pk2 - p0k2) * b0
        xz = (beta * pk2 - p0k2) * b1
        zx = (beta_m * pk2 - p0k2) * b1
        return np.stack([xx, yy, zz, xz, zx], axis=-1)

    return integrand


def sommerfeld_green(
    system: HalfSpaceSystem,
    omega: float,
    pos: AtomPositions,
    quad: QuadratureSpec | None = None,
    local_field: bool = True,
) -> np.ndarray:
    """Transmission Green function by radial-wavenumber integration.

    The angular integral is done analytically (J0/J1/J2 kernels).  The
    integrand's k -> infinity limit is integrated in closed form (Laplace-
    Hankel integrals): its p part is :func:`nonretarded_green` without local
    fields, its s part s0/2 (1/R +- rho^2/((R + dz)^2 R)) on xx and yy with
    s0 = 2 mu_u mu_l/(mu_u + mu_l).  Only the retardation residual is
    integrated numerically along the real k axis, to ``quad``'s rel_tol
    against the largest component of residual or closed form: adaptively
    over a propagating segment up to the largest Re(n*omega) and a head up
    to K0 = max(20*k_split, 10/rho), whose first panels bracket the zero of
    den_p when it lies there, and beyond K0, while the e^{-k dz}
    envelope has not decayed, as a weighted average of sums over
    half-periods pi/rho, under the remainder model (-1)^n e^{-dz k_n}
    sqrt(k_n) of the residual's form J(k rho) k e^{-k dz} at large k; its
    estimate bounds rule and extrapolation error, but not the residual's
    rounding, (k/omega)^2 eps of it.  The propagating segment is split at
    the light lines Re(n*omega), and each piece [k_lo, k_hi] is integrated
    in a variable t with k - k_lo and k_hi - k proportional to t^2 near
    either end, which removes the square-root branch point of beta at a
    light line.  With ``local_field`` the result carries the Onsager cavity
    factor of each medium.

    Raises QuadratureError when the panel budget is exhausted and, before
    any integral, SingularityError when a lossless interface mode sits on
    the path, at a pole of ``_coupling`` (either way) or of mu_u + mu_l, or
    where ``_coupling`` is beyond the float range, and ParameterError when
    omega or the geometry put the kernel constants or the closed form
    beyond the float range, or leave no head.
    """
    return _sommerfeld_many(system, omega, [pos], quad, local_field)[0][0]


def _sommerfeld_many(
    system: HalfSpaceSystem,
    omega: float,
    positions,
    quad: QuadratureSpec | None = None,
    local_field: bool = True,
    fields=None,
) -> list:
    """Pairs of :func:`sommerfeld_green` and :func:`nonretarded_green` at each of ``positions``, in one loop.

    The kernel depends on omega only, so one residual integrand serves all
    positions.  Each position's head, tail and the pieces of its
    propagating segment between light lines are jobs (``_bisection``,
    ``_tail``, then one ``_bisection`` in t per piece, mapped to k by the
    integrand) of one integration loop, each with the tolerance of its own
    position.  Every tensor, and the error raised (the first in position
    order, and per position head, tail, then the pieces from k = 0 up), is
    what :func:`sommerfeld_green` gives alone.  A position whose closed
    form is beyond the float range raises ParameterError naming its entry
    of ``fields`` ("pos" for each by default) before any integral.
    """
    kernel = _Kernel(system, omega)
    if quad is None:
        quad = QuadratureSpec()
    kernel.check_path_poles()
    near, screening = _near_factors(kernel.eps_u, kernel.eps_l, omega, local_field)
    mu_u, mu_l = kernel.mu_u, kernel.mu_l
    if _pole(mu_u + mu_l, abs(mu_u) + abs(mu_l)):
        raise SingularityError(f"mu_u + mu_l vanishes at omega = {omega!r}")
    # The limits of ik*p and ik*s divide by eps_u + eps_l and mu_u + mu_l, so
    # they are formed here, past both pole checks, not in _Kernel, which
    # fresnel_t and kspace_green also build for media where these vanish.
    p0 = screening / omega**2
    s0 = 2.0 * mu_u * mu_l / (mu_u + mu_l)
    # _coupling has raised at a cavity pole, so both factors are finite
    cavity = local_field_factor(kernel.eps_u) * local_field_factor(kernel.eps_l) if local_field else 1.0
    k_split = max(kernel.k_breaks)
    # The propagating segment: one job per piece between light lines, each
    # in t with the light lines at its ends (see _radial_integrand).  In k,
    # bisection halves toward their square-root branch points one sweep at
    # a time; and under a tolerance shared with the head it crowds into the
    # 1/beta peak of a matched light line.  No piece when k_split = 0.
    edges = sorted({0.0, *kernel.k_breaks})
    pieces = list(zip(edges[:-1], edges[1:]))
    # The p pole, the zero of den_p at k_p = omega sqrt(eps_u eps_l/(eps_u + eps_l))
    # (mu = 1), is a peak of half width |Im k_p| that the head's panels bracket
    # when it lies in (k_split, K0); the edges outside that range are dropped.
    k_p = omega * np.sqrt(kernel.eps_u * kernel.eps_l / (kernel.eps_u + kernel.eps_l))
    kernel.check_p([k_p.real])
    pole_edges = k_p.real + np.array([-8.0, -2.0, -0.5, 0.5, 2.0, 8.0]) * abs(k_p.imag)

    frames, jobs, rows = [], [], []  # per position (closed form, phi, job count); per job
    for pos, field in zip(positions, fields or ["pos"] * len(positions)):
        z_a, z_b, rho = pos.r_a[2], pos.r_b[2], pos.rho
        dz = z_a - z_b
        dist = np.hypot(rho, dz)
        with np.errstate(all="ignore"):  # checked below, a length beyond the float range raising ParameterError
            # the closed form in the frame whose x axis is the in-plane separation
            frame = _dipole_tensor(np.array([rho, 0.0, dz])) * p0
            j2 = rho * rho / ((dist + dz) ** 2 * dist)  # (R - dz)^2/(rho^2 R), 0 on axis
            frame[0, 0] += 0.5 * s0 * (1.0 / dist + j2)
            frame[1, 1] += 0.5 * s0 * (1.0 / dist - j2)
        if not np.all(np.isfinite(frame)):
            raise ParameterError(f"the closed form at {field} is not finite: a length beyond the float range", field)
        spec = replace(quad, abs_tol=quad.abs_tol + quad.rel_tol * np.max(np.abs(frame)))
        # beyond k_end the envelope e^{-k dz} is below eps^2 of its value at k_split
        k_end = k_split - 2.0 * np.log(np.finfo(float).eps) / dz
        k0 = min(max(20.0 * k_split, 10.0 / rho if rho > 0.0 else np.inf), k_end)
        if not k0 > k_split:  # k_split * dz beyond 1/eps: no head to integrate, and no seeds
            message = f"{field} puts the atoms dz = {float(dz)!r} apart, beyond the near field at omega = {omega!r}"
            raise ParameterError(message, field, "omega")
        # panel edges k_split + omega*1e-3*4^j below K0, dense next to the light line
        seeds = k_split + omega * 1e-3 * 4.0 ** np.arange(
            np.log((k0 - k_split) / (omega * 1e-3)) / np.log(4.0)
        )
        own = [_bisection(k_split, k0, spec, [*seeds, *pole_edges])]
        if k0 < k_end:
            own.append(_tail(k0, np.pi / rho, dz, spec))
        rows += [(z_a, z_b, rho, *ends) for ends in [(np.nan, np.nan)] * len(own) + pieces]  # NaN: in k
        own += [_bisection(0.0, 2.0, spec, [1.0]) for _ in pieces]
        jobs += own
        dx, dy = pos.r_a[:2] - pos.r_b[:2]
        # on axis the frame is the lab's: arctan2(-0.0, -0.0) is -pi
        frames.append((frame, np.arctan2(dy, dx) if rho > 0.0 else 0.0, len(own)))
    outcomes = iter(_integrate_many(_radial_integrand(kernel, rows, p0, s0), jobs))

    greens = []
    for pos, (frame, phi, count) in zip(positions, frames):
        flat = np.sum([_result(next(outcomes))[0] for _ in range(count)], axis=0)
        for name, value in zip(COMPONENTS, flat):
            frame[_COMPONENT_INDEX[name]] += value
        # Rotate from the frame aligned with the in-plane separation back to
        # lab axes, R F R^T in numpy's einsum loop rather than BLAS.
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        green = np.einsum("ij,jk,lk->il", rot, frame, rot) * cavity
        if not np.all(np.isfinite(green)):
            raise SingularityError("non-finite Green tensor")
        greens.append((green, _dipole_tensor(pos.r_vec) * near))
    return greens


def transmission_green(
    system: HalfSpaceSystem,
    omega: float,
    r_obs,
    r_src,
    quad: QuadratureSpec | None = None,
    local_field: bool = True,
) -> np.ndarray:
    """Sommerfeld-integrated Green function for either ordering of the atoms.

    Observation above / source below maps directly onto
    :func:`sommerfeld_green`; the opposite ordering is evaluated in the
    mirror system (media swapped, z negated) and conjugated back with
    diag(1, 1, -1).
    """
    r_obs, r_src = _coordinates("r_obs", r_obs), _coordinates("r_src", r_src)
    if r_obs[2] > 0.0 > r_src[2]:
        return sommerfeld_green(system, omega, AtomPositions(r_obs, r_src), quad, local_field)
    if r_src[2] > 0.0 > r_obs[2]:
        mirror = np.array([1.0, 1.0, -1.0])
        flipped = HalfSpaceSystem(
            upper=system.lower, lower=system.upper, omega_max=system.omega_max
        )
        pos = AtomPositions(mirror * r_obs, mirror * r_src)
        # the mirror system has the same two cavity factors, and scalars
        # commute with the mirror conjugation
        green = sommerfeld_green(flipped, omega, pos, quad, local_field)
        return green * np.outer(mirror, mirror)
    raise ParameterError("observation and source must sit on opposite sides of the interface", "r_obs", "r_src")


def nonretarded_green(
    system: HalfSpaceSystem,
    omega,
    pos: AtomPositions,
    local_field: bool = True,
) -> np.ndarray:
    """Closed-form near-field Green function across the interface.

    The instantaneous (c -> infinity) limit of the transmission kernel is
    the free-space dipole tensor screened by the average permittivity of the
    two media:

        G = D * D_m / (omega^2 * avg_eps) * (3*rr - I)/R^3

    with the Onsager factors D, D_m dropped when ``local_field`` is False;
    ``_coupling`` gives both and raises at its poles, or where it is beyond
    the float range, either way.  Accepts complex ``omega`` (imaginary-axis
    evaluation).  ParameterError naming omega where omega**2, or the
    tensor, is beyond the float range.
    """
    _check_number(omega, "omega")
    _check_squares(omega)  # and so nonzero
    w = complex(omega)
    near = _near_factors(system.upper.eps(w), system.lower.eps(w), omega, local_field)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a tensor beyond the float range raises below
        green = _dipole_tensor(pos.r_vec) * near
    if not np.all(np.isfinite(green)):
        message = f"the near-field tensor is not finite at omega = {omega!r}: 1/(omega**2 R**3) beyond the float range"
        raise ParameterError(message, "omega", "pos")
    return green


def _near_factors(eps_u, eps_l, omega, local_field: bool):
    """(D*D_m or 1)/(avg_eps*omega^2) and 1/avg_eps, for an omega that passed :func:`_check_squares`.

    SingularityError at a pole of ``_coupling``, or where either factor is not finite.
    """
    poles, w = _Poles(omega, "omega"), complex(omega)
    coupling, screening = _coupling(eps_u, eps_l, poles)
    near = (coupling if local_field else screening) / (w * w)
    poles.check_finite("the near-field coupling", abs(coupling), abs(screening), abs(near))
    return near, screening


@dataclass(frozen=True)
class LimitRatio:
    """One convergence sample: retarded/nonretarded component ratio at a scale."""

    scale: float
    component: str
    ratio: complex

    @property
    def deviation(self) -> float:
        return abs(self.ratio - 1.0)


@dataclass(frozen=True)
class NonretardedLimitReport:
    """Outcome of shrinking the geometry toward the instantaneous limit."""

    omega: float
    scales: tuple
    rows: tuple

    def at_scale(self, scale: float) -> list:
        return [row for row in self.rows if row.scale == scale]

    def max_deviation(self, scale: float | None = None) -> float:
        rows = self.rows if scale is None else self.at_scale(scale)
        if not rows:
            return float("nan")
        return max(row.deviation for row in rows)

    def passed(self, tol: float = 0.01) -> bool:
        """True when every component ratio at the smallest scale is within tol of 1."""
        if not self.scales:
            return False
        final = self.at_scale(min(self.scales))
        return bool(final) and all(row.deviation <= tol for row in final)

    def convergence_order(self, component: str) -> float:
        """Log-log slope of |ratio - 1| between the two smallest scales."""
        scales = sorted(self.scales)
        if len(scales) < 2:
            return float("nan")
        devs = []
        for s in scales[:2]:
            match = [row for row in self.at_scale(s) if row.component == component]
            if not match:
                return float("nan")
            devs.append(match[0].deviation)
        if devs[0] == 0.0 or devs[1] == 0.0:
            return float("nan")
        return float(np.log(devs[1] / devs[0]) / np.log(scales[1] / scales[0]))


def nonretarded_limit_check(
    system: HalfSpaceSystem,
    omega: float,
    pos: AtomPositions,
    scales,
    quad: QuadratureSpec | None = None,
    local_field: bool = True,
) -> NonretardedLimitReport:
    """Compare the Sommerfeld integral against the closed near-field form.

    The geometry is shrunk by each factor in ``scales``; per component the
    ratio retarded/nonretarded is recorded.  Components that vanish in the
    closed form (relative magnitude below 1e-12) are skipped.  The report
    passes when all ratios at the smallest scale sit within tolerance of 1.
    The Sommerfeld integrals of every scale run in one integration loop; each
    tensor, and any error raised, is that of :func:`sommerfeld_green` at the
    scale, and the first scale's error is raised first.  A closed form of 0
    (eps = 0 in a medium) raises ParameterError naming the smaller |eps|.
    """
    scales = tuple(scales)
    for i, s in enumerate(scales):  # named as in ValidateSpec, and checked before float() overflows
        _check_number(s, f"scales[{i}]", "positive")
    scales = tuple(float(s) for s in scales)
    positions, fields = [pos.scaled(s) for s in scales], [f"scales[{i}]" for i in range(len(scales))]
    tensors = _sommerfeld_many(system, omega, positions, quad, local_field, fields) if scales else []
    rows = []
    for s, (green, closed) in zip(scales, tensors):
        if not closed.any():  # a medium with eps = 0 has an Onsager factor of 0
            eps = {side: abs(getattr(system, side).eps(omega)) for side in ("upper", "lower")}
            side = min(eps, key=eps.get)
            message = f"|system.{side}.eps| = {eps[side]:.3g} at omega = {omega!r}: the near-field closed form is 0"
            raise ParameterError(message, f"system.{side}.eps")
        floor = 1e-12 * np.max(np.abs(closed))
        for name in COMPONENTS:
            idx = _COMPONENT_INDEX[name]
            if abs(closed[idx]) <= floor:
                continue
            rows.append(LimitRatio(scale=s, component=name, ratio=complex(green[idx] / closed[idx])))
    return NonretardedLimitReport(omega=omega, scales=scales, rows=tuple(rows))
