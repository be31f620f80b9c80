"""Complex arithmetic on float arrays that rounds exactly like CPython's.

The resonant formulas (Lorentz permittivity, polarizability, screened
coupling) are written once and evaluated both on Python ``complex`` scalars
and on frequency arrays.  numpy's complex128 ``*``, ``/`` and ``abs`` do not
round like CPython's ``complex`` type: with numpy 2.4 and CPython 3.11 on
x86-64 they differ in the last bit for 35-46 % of random inputs, enough to
change a 12-digit spectrum cell and the full-precision peak report.  So the
array path keeps real and imaginary parts in separate float64 arrays and
spells out each operation the way CPython's ``_Py_c_*`` functions do it:

* a real operand ``x`` takes part as ``x + 0j``;
* product: ``(ac - bd, ad + bc)``;
* quotient: Smith's method, dividing through by the larger part of the
  divisor, as in ``_Py_c_quot``;
* modulus: ``hypot``;
* ``abs(z) ** 2``: libm ``pow``, which ``float.__pow__`` calls and numpy's
  ``**`` replaces by a multiply (1 ulp apart for about 0.1 % of inputs).

Element for element the results then equal the scalar results bit for bit,
so a scan row equals the scalar function at that frequency.
"""

from __future__ import annotations

import numpy as np


class CArray:
    """Complex values as a pair of float arrays, with CPython's arithmetic.

    Supports ``+ - * /`` with another CArray or a real or complex scalar on
    either side, ``abs``, ``.real`` and ``.imag``.  Division by an exact zero
    gives NaN where CPython raises ZeroDivisionError.
    """

    __slots__ = ("real", "imag")
    # make ``ndarray <op> CArray`` defer to the reflected CArray method
    __array_ufunc__ = None

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        br, bi = _parts(other)
        return CArray(self.real + br, self.imag + bi)

    __radd__ = __add__

    def __sub__(self, other):
        br, bi = _parts(other)
        return CArray(self.real - br, self.imag - bi)

    def __rsub__(self, other):
        ar, ai = _parts(other)
        return CArray(ar - self.real, ai - self.imag)

    def __mul__(self, other):
        br, bi = _parts(other)
        return CArray(self.real * br - self.imag * bi, self.real * bi + self.imag * br)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _quot(self.real, self.imag, *_parts(other))

    def __rtruediv__(self, other):
        return _quot(*_parts(other), self.real, self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)


def _parts(x):
    if not isinstance(x, CArray):
        x = complex(x)
    return x.real, x.imag


def _quot(ar, ai, br, bi) -> CArray:
    with np.errstate(divide="ignore", invalid="ignore"):
        by_re = np.abs(br) >= np.abs(bi)
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return CArray(re, im)


def is_scalar(x) -> bool:
    """True for a number, False for an array; ``np.ndim`` is slow on a Python float."""
    return isinstance(x, (float, complex)) or np.ndim(x) == 0


def operand(x):
    """``complex(x)`` for a scalar, a CArray for an array of numbers."""
    if is_scalar(x):
        return complex(x)
    z = np.asarray(x, dtype=complex)
    return CArray(z.real, z.imag)


def to_complex(z):
    """Inverse of :func:`operand`: a complex ndarray for a CArray."""
    if not isinstance(z, CArray):
        return z
    out = np.empty(np.broadcast(z.real, z.imag).shape, dtype=complex)
    out.real = z.real
    out.imag = z.imag
    return out


def modulus(z):
    """``abs(z)`` for a scalar or a CArray, or inf where ``abs`` of a complex raises OverflowError.

    ``abs`` of a complex and ``np.hypot`` (a CArray's ``abs``) both call
    libm's hypot, which ``math.hypot`` does not always equal in the last bit.
    """
    try:
        return abs(z)
    except OverflowError:  # a complex with finite parts whose modulus is beyond the float range
        return np.inf


def abs_squared(z):
    """``abs(z) ** 2`` rounded as CPython rounds it, for scalars and CArrays."""
    if isinstance(z, CArray):
        return np.float_power(abs(z), 2.0)
    return abs(z) ** 2
