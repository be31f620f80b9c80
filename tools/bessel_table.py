#!/usr/bin/env python3
"""Write the coefficient table of vdwsurf's numpy-only Bessel functions.

    python tools/bessel_table.py      # from the root of a source checkout

needs mpmath (the ``test`` extra) and writes ``src/vdwsurf/data/bessel_j012.npy``,
which ``vdwsurf.greens._bessel_j012`` reads at its first call.  Run it again
after changing ``DEGREE`` or the table layout in ``vdwsurf.greens``
(``_BESSEL_SPLIT``, ``_NEAR_STEPS``, ``_FAR_STEPS``); the output depends on
nothing else, so a rerun writes the same bytes.

Layout: ``table[k, slot, i]`` is the coefficient of t^k on interval i, a
degree-``DEGREE`` polynomial in t on [0, 1].

* Intervals 0 .. 256 split u in [0, 8 + 1/32) into steps of 1/32, with
  x = 32*u and t = x - floor(x); the last one serves u = 8 only.  Slots 0,
  1 and 2 hold J0, J1 and J2 of u; slot 3 is zero.
* Intervals 257 .. 320 split y = 64/u^2 in (0, 1), that is u > 8, with
  x = 4096/u^2 = 64*y and t = x - floor(x).  Slots 0 to 3 hold P0, Q0, P1
  and Q1 of the Hankel form
  (Abramowitz & Stegun 9.2.5; Moshier, Methods and Programs for
  Mathematical Functions, 1989)

      J0(u) = sqrt(1/(pi*u)) * (P0*(cos u + sin u) - (8/u)*Q0*(sin u - cos u))
      J1(u) = sqrt(1/(pi*u)) * (P1*(sin u - cos u) + (8/u)*Q1*(cos u + sin u))

  where P_n + i*(8/u)*Q_n = sqrt(pi*u/2) * H_n(u) * exp(-i*(u - (2n + 1)*pi/4))
  and H_n = J_n + i*Y_n.  P_n and Q_n are smooth in y down to y = 0
  (u = infinity), where they tend to 1, -1/64, 1 and 3/64.

Each fit interpolates its function at Chebyshev points of t with the
constant term fixed to the function's value at t = 0, rounded to float64,
so J0(0), J1(0) and J2(0) come out exactly 1, 0 and 0.

Before it writes, the script evaluates every interval in mpmath with the
coefficients as rounded to float64, at 17 equally spaced t from 0 to 1,
and compares J0, J1 and J2 (J2 = 2*J1/u - J0 above u = 8) with
``mpmath.besselj``.  It writes nothing, and exits 1, unless the worst
absolute difference is at most ``TABLE_TOL``.  That bounds the fits and
the rounding of their coefficients; the float64 evaluation adds a few
units in the last place, which tests/test_greens.py checks against mpmath
to 1e-15 absolute on a dense sweep over [0, 1e4].
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from vdwsurf.greens import _BESSEL_SPLIT, _FAR_STEPS, _N_NEAR, _NEAR_STEPS  # noqa: E402

OUT = ROOT / "src" / "vdwsurf" / "data" / "bessel_j012.npy"
DEGREE = 6
#: Worst absolute error of the rounded table, in exact arithmetic, that the
#: script accepts: one unit in the last place of 1.
TABLE_TOL = 2.0 ** -52
CHECK_POINTS = 17
#: Working precision of the fits and of the check.
DPS = 40


def near(x):
    """(J0, J1, J2) at u = x/32."""
    u = mpmath.mpf(x) / _NEAR_STEPS
    return [mpmath.besselj(n, u) for n in range(3)]


def far(x):
    """(P0, Q0, P1, Q1) at y = x/64, that is u = 8/sqrt(y)."""
    if x == 0:
        return [mpmath.mpf(1), mpmath.mpf(-1) / 64, mpmath.mpf(1), mpmath.mpf(3) / 64]
    u = _BESSEL_SPLIT / mpmath.sqrt(mpmath.mpf(x) / _FAR_STEPS)
    values = []
    for n in (0, 1):
        h = mpmath.besselj(n, u) + 1j * mpmath.bessely(n, u)
        pq = mpmath.sqrt(mpmath.pi * u / 2) * h * mpmath.exp(-1j * (u - (2 * n + 1) * mpmath.pi / 4))
        values += [pq.real, pq.imag * u / 8]
    return values


def fit(function, left):
    """Rounded coefficients of each of ``function``'s values on x in [left, left + 1]."""
    nodes = [(1 - mpmath.cos((2 * j + 1) * mpmath.pi / (2 * DEGREE))) / 2 for j in range(DEGREE)]
    c0 = [mpmath.mpf(float(v)) for v in function(left)]
    samples = [function(left + t) for t in nodes]
    vandermonde = mpmath.matrix([[t**k for k in range(1, DEGREE + 1)] for t in nodes])
    columns = []
    for slot, constant in enumerate(c0):
        rhs = mpmath.matrix([(row[slot] - constant) for row in samples])
        rest = mpmath.lu_solve(vandermonde, rhs)
        columns.append([float(constant)] + [float(c) for c in rest])
    return np.array(columns).T  # (degree + 1, slots)


def horner(coefficients, t):
    value = mpmath.mpf(0)
    for c in reversed(coefficients):
        value = value * t + mpmath.mpf(float(c))
    return value


@mpmath.workdps(DPS)
def worst_error(table):
    """Largest |J_n(table) - besselj(n, u)| over every interval, n = 0, 1, 2, in exact arithmetic."""
    worst = (0.0, None)
    for i in range(table.shape[2]):
        for j in range(CHECK_POINTS):
            t = mpmath.mpf(j) / (CHECK_POINTS - 1)
            poly = [horner(table[:, slot, i], t) for slot in range(4)]
            if i < _N_NEAR:
                u = (i + t) / _NEAR_STEPS
                got = poly[:3]
            else:
                x = i - _N_NEAR + t
                if x == 0:
                    continue
                u = _BESSEL_SPLIT / mpmath.sqrt(x / _FAR_STEPS)
                c, s = mpmath.cos(u) + mpmath.sin(u), mpmath.sin(u) - mpmath.cos(u)
                amplitude, w = mpmath.sqrt(1 / (mpmath.pi * u)), 8 / u
                b0 = amplitude * (poly[0] * c - w * poly[1] * s)
                b1 = amplitude * (poly[2] * s + w * poly[3] * c)
                got = [b0, b1, 2 * b1 / u - b0]
            for n, value in enumerate(got):
                error = float(abs(value - mpmath.besselj(n, u)))
                if error > worst[0]:
                    worst = (error, f"J{n}({float(u)!r})")
    return worst


@mpmath.workdps(DPS)
def build() -> np.ndarray:
    """The table, (degree + 1, 4, intervals)."""
    near_fits = [np.pad(fit(near, i), ((0, 0), (0, 1))) for i in range(_N_NEAR)]
    far_fits = [fit(far, i) for i in range(_FAR_STEPS)]
    return np.stack(near_fits + far_fits, axis=-1)


def main() -> int:
    table = build()
    error, where = worst_error(table)
    print(f"table {table.shape}: worst absolute error {error:.3g} at {where}")
    if not error <= TABLE_TOL:
        print(f"not written: the error exceeds {TABLE_TOL:.3g}", file=sys.stderr)
        return 1
    OUT.parent.mkdir(parents=True, exist_ok=True)
    np.save(OUT, table)
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
