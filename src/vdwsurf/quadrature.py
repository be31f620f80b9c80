"""Adaptive panel quadrature for vector-valued (complex) integrands.

A fixed pair of Gauss-Legendre rules (7 and 15 points) is applied per panel;
the difference between the two estimates is the panel's error.  Panels are
bisected in sweeps: each sweep splits, worst first, just enough panels that
the rest already meet the requested tolerance, and evaluates all children
in batched integrand calls, until every component of the integral meets the
tolerance or the panel budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError

_LO_X, _LO_W = np.polynomial.legendre.leggauss(7)
_HI_X, _HI_W = np.polynomial.legendre.leggauss(15)
# Both rules' abscissae on [-1, 1], and the weights that pick each rule out.
_X = np.concatenate([_LO_X, _HI_X])
_W = np.block([[_LO_W, np.zeros(_HI_X.size)], [np.zeros(_LO_X.size), _HI_W]])
_CHUNK = 64  # panels per integrand call: bounds the size of one call's arrays


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one adaptive integration."""

    rel_tol: float = 1e-8
    abs_tol: float = 0.0
    max_panels: int = 10_000

    def __post_init__(self):
        if self.rel_tol < 0.0 or self.abs_tol < 0.0:
            raise ParameterError("tolerances must be >= 0")
        if self.rel_tol == 0.0 and self.abs_tol == 0.0:
            raise ParameterError("at least one of rel_tol/abs_tol must be positive")
        if self.max_panels < 1:
            raise ParameterError("max_panels must be >= 1")


def _panel(f, lefts, rights):
    """Return (high-order value, per-component error) on each [lefts[i], rights[i]].

    ``f`` is called once, on both rules' abscissae of every panel; the
    results have shape (p,) for a scalar integrand and (p, m) otherwise.
    """
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    y = np.asarray(f((mid[:, None] + half[:, None] * _X).ravel()))
    y = y.reshape((lefts.size, _X.size) + y.shape[1:])
    lo, hi = np.tensordot(_W, y, axes=(1, 1)) * half.reshape((-1,) + (1,) * (y.ndim - 2))
    return hi, np.abs(hi - lo)


def adaptive_gauss(f, a, b, spec: QuadratureSpec | None = None, breakpoints=()):
    """Integrate ``f`` over [a, b] adaptively.

    ``f`` maps an abscissa array of shape (n,) to values of shape (n,) or
    (n, m); the m components are integrated together and share panels.
    ``breakpoints`` seeds panel edges at known kinks.

    Returns ``(value, error_estimate, panels)`` where value/error have shape
    (m,) (or are scalars for a scalar integrand).  Raises QuadratureError,
    carrying the best value and achieved estimate, if the budget runs out.
    """
    if spec is None:
        spec = QuadratureSpec()
    a, b = float(a), float(b)
    if not b > a:
        raise ParameterError(f"empty integration interval [{a}, {b}]")

    def evaluate(lefts, rights):
        # (p, m) values and errors, _CHUNK panels per call, and whether f is scalar
        parts = [
            _panel(f, lefts[i : i + _CHUNK], rights[i : i + _CHUNK]) for i in range(0, lefts.size, _CHUNK)
        ]
        val, err = (np.concatenate(x) for x in zip(*parts))
        return val.reshape(lefts.size, -1), err.reshape(lefts.size, -1), val.ndim == 1

    edges = np.array([a] + sorted(p for p in set(float(p) for p in breakpoints) if a < p < b) + [b])
    left, right = edges[:-1], edges[1:]
    val, err, scalar = evaluate(left, right)

    while True:
        # rel_tol is measured against the largest component; cancelling
        # integrals additionally converge at the roundoff floor of their
        # panel-sum magnitude.
        vals, errs = val.sum(axis=0), err.sum(axis=0)
        tol = spec.abs_tol + spec.rel_tol * np.max(np.abs(vals))
        bound = max(tol, 100.0 * np.finfo(float).eps * np.max(np.abs(val).sum(axis=0)))
        if np.all(errs <= bound):
            break
        room = spec.max_panels - left.size
        if room <= 0:
            raise QuadratureError(
                f"no convergence within {spec.max_panels} panels "
                f"(error estimate {errs.max():.3e}, tolerance {bound:.3e})",
                value=vals[0] if scalar else vals,
                error_estimate=errs[0] if scalar else errs,
                panels=left.size,
            )
        # Split the shortest worst-first prefix without which every
        # component would meet the bound, within the remaining budget.
        order = np.argsort(-err.max(axis=1), kind="stable")
        short = np.any(errs - np.cumsum(err[order], axis=0) > bound, axis=1)
        split, keep = np.split(order, [min(np.count_nonzero(short) + 1, room)])
        mid = 0.5 * (left[split] + right[split])
        lefts, rights = np.concatenate([left[split], mid]), np.concatenate([mid, right[split]])
        new_val, new_err, _ = evaluate(lefts, rights)
        left, right = np.concatenate([left[keep], lefts]), np.concatenate([right[keep], rights])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])

    if scalar:
        return vals[0], errs[0], left.size
    return vals, errs, left.size
