"""Adaptive panel quadrature for vector-valued (complex) integrands.

A fixed pair of Gauss-Legendre rules (7 and 15 points) is applied per panel;
the difference between the two estimates is the panel's error.  Panels are
bisected in sweeps: each sweep splits, worst first, just enough panels that
the rest already meet the requested tolerance, and evaluates all children
in batched integrand calls, until every component of the integral meets the
tolerance or the panel budget is exhausted.

Oscillatory integrands on a half-line are summed over half-periods with the
same rule pair, and the partial sums are extrapolated with Wynn's epsilon
algorithm (:func:`oscillatory_tail`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError, _is_count, _is_finite, _shown

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
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (value >= 0.0 and _is_finite(value)):
                raise ParameterError(f"{name} must be >= 0 and finite, got {_shown(value)}", name)
        if self.rel_tol == 0.0 and self.abs_tol == 0.0:
            raise ParameterError("at least one of rel_tol/abs_tol must be positive", "rel_tol", "abs_tol")
        if not _is_count(self.max_panels, 1):
            raise ParameterError(
                f"max_panels must be an integer >= 1, got {_shown(self.max_panels)}", "max_panels"
            )


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
    if edges.size - 1 > spec.max_panels:
        raise QuadratureError(
            f"{edges.size - 1} seeded panels exceed the budget of {spec.max_panels}", panels=0
        )
    left, right = edges[:-1], edges[1:]
    val, err, scalar = evaluate(left, right)

    while True:
        # rel_tol is measured against the largest component; cancelling
        # integrals additionally converge at the roundoff floor of their
        # panel-sum magnitude.
        vals, errs = val.sum(axis=0), err.sum(axis=0)
        bound = _bound(spec, vals, np.abs(val).sum(axis=0))
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


def _bound(spec: QuadratureSpec, value, magnitude) -> float:
    """Error bound for an integral ``value`` whose panel values sum to ``magnitude`` in size."""
    tol = spec.abs_tol + spec.rel_tol * np.max(np.abs(value))
    return max(tol, 100.0 * np.finfo(float).eps * np.max(magnitude))


def _wynn(sums):
    """Last two extrapolants of Wynn's epsilon table over partial sums of shape (n, m).

    Each even column of the table holds extrapolants; the last two entries
    of the deepest column with two finite entries are returned, per
    component (a component whose sums stop changing keeps the shallower
    column that last had them).
    """
    best = sums[-1].copy(), sums[-2].copy()
    odd, even = np.zeros((sums.shape[0] + 1,) + sums.shape[1:], dtype=sums.dtype), sums
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while even.shape[0] >= 4:
            odd = odd[1:-1] + 1.0 / np.diff(even, axis=0)
            even = even[1:-1] + 1.0 / np.diff(odd, axis=0)
            ok = np.all(np.isfinite(even[-2:]), axis=0)
            best[0][ok], best[1][ok] = even[-1, ok], even[-2, ok]
    return best


def oscillatory_tail(f, a, half_period, spec: QuadratureSpec | None = None):
    """Integrate an oscillating ``f`` over [a, inf) by extrapolated half-period sums.

    The half-periods [a + j*half_period, a + (j + 1)*half_period] are
    integrated with the rule pair of :func:`adaptive_gauss`, one panel each,
    in batches of 8, then 16, then 40 more (one integrand call per batch,
    never more panels than ``spec.max_panels``).  The partial sums are
    extrapolated with Wynn's epsilon algorithm; the spread of the last two
    extrapolants is the error estimate, held to the bound of
    :func:`adaptive_gauss`.  ``f`` is called as there.

    Returns ``(value, error_estimate, panels)``.  Raises QuadratureError,
    carrying the last extrapolant and its spread, if the budget runs out.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (0.0 < half_period < np.inf):
        raise ParameterError(f"half_period must be positive and finite, got {half_period}")
    terms, value, err, shape = [], None, None, ()  # half-period integrals
    for batch in (8, 16, 40):
        lefts = a + half_period * np.arange(len(terms), min(len(terms) + batch, spec.max_panels))
        if lefts.size == 0:
            break
        val, _ = _panel(f, lefts, lefts + half_period)
        terms.extend(val)
        if len(terms) < 2:
            continue
        shape, part = val.shape[1:], np.reshape(terms, (len(terms), -1))
        value, previous = _wynn(np.cumsum(part, axis=0))
        err = np.abs(value - previous)
        if np.all(err <= _bound(spec, value, np.abs(part).sum(axis=0))):
            return value.reshape(shape), err.reshape(shape), len(terms)
    raise QuadratureError(
        f"no convergence of the oscillatory tail within {len(terms)} half-periods",
        value=None if value is None else value.reshape(shape),
        error_estimate=None if err is None else err.reshape(shape),
        panels=len(terms),
    )
