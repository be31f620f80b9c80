"""Adaptive panel quadrature for vector-valued (complex) integrands.

A fixed pair of Gauss-Legendre rules (7 and 15 points) is applied per panel;
the difference between the two estimates is the panel's error.  Panels are
bisected in sweeps: each sweep splits, worst first, just enough panels that
the rest already meet the requested tolerance, and evaluates all children
in batched integrand calls, until every component of the integral meets the
tolerance or the panel budget is exhausted.

Oscillatory integrands on a half-line are summed over half-periods with the
same rule pair, and the partial sums are extrapolated with Wynn's epsilon
algorithm (:func:`oscillatory_tail`); such a tail takes its new panels from
a fixed schedule of half-periods instead of from bisection.

One loop carries many independent integrals ("jobs") of one integrand at
once, as vectorized cubature interfaces do: every job, bisected or tail, is
refined by its own tolerance and budget exactly as it would be alone, and
each sweep evaluates the new panels of all unfinished jobs in the same
integrand calls.  The public functions are the one-job case.
"""

from __future__ import annotations

import itertools
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
    Each panel's rule sums are a product of their own, so they come out the
    same whatever other panels share the batch (one matrix product over the
    batch rounds differently from one batch size to the next).
    """
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    y = np.asarray(f((mid[:, None] + half[:, None] * _X).ravel()))
    sums = np.matmul(_W, y.reshape(lefts.size, _X.size, -1)) * half[:, None, None]  # (p, 2, m)
    lo, hi = (sums[:, i].reshape((lefts.size,) + y.shape[1:]) for i in (0, 1))
    return hi, np.abs(hi - lo)


def _evaluate(f, parts):
    """Value shape, and (value, error) of the panels of each part ``(job, lefts, rights)``.

    One ``_panel`` call per ``_CHUNK`` panels, whichever jobs they belong
    to; ``f(x, job)`` receives the job of each abscissa.  Each part's values
    and errors come back as (panels, components) arrays.
    """
    sizes = [lefts.size for _, lefts, _ in parts]
    owner = np.repeat([j for j, _, _ in parts], sizes)
    lefts = np.concatenate([lefts for _, lefts, _ in parts])
    rights = np.concatenate([rights for *_, rights in parts])
    chunks = []
    for i in range(0, lefts.size, _CHUNK):
        jobs = np.repeat(owner[i : i + _CHUNK], _X.size)
        chunks.append(_panel(lambda x: f(x, jobs), lefts[i : i + _CHUNK], rights[i : i + _CHUNK]))
    values, errors = (np.concatenate(x) for x in zip(*chunks))
    shape, values, errors = values.shape[1:], values.reshape(lefts.size, -1), errors.reshape(lefts.size, -1)
    slices, end = [], 0
    for size in sizes:
        start, end = end, end + size
        slices.append((values[start:end], errors[start:end]))
    return shape, slices


def _result(outcome):
    """A job's ``(value, error_estimate, panels)``; raises the QuadratureError it ended with."""
    if isinstance(outcome, QuadratureError):
        raise outcome
    return outcome


def adaptive_gauss(f, a, b, spec: QuadratureSpec | None = None, breakpoints=()):
    """Integrate ``f`` over [a, b] adaptively.

    ``f`` maps an abscissa array of shape (n,) to values of shape (n,) or
    (n, m); the m components are integrated together and share panels.
    ``breakpoints`` seeds panel edges at known kinks.

    Returns ``(value, error_estimate, panels)`` where value/error have shape
    (m,) (or are scalars for a scalar integrand).  Raises QuadratureError,
    carrying the best value and achieved estimate, if the budget runs out.
    """
    # an infinite limit gives NaN panels (and in a job, b = inf marks a tail)
    if np.inf in (abs(a), abs(b)):
        raise ParameterError(f"integration interval [{a}, {b}] must be finite")
    if spec is None:
        spec = QuadratureSpec()
    return _result(_integrate_many(lambda x, job: f(x), [(a, b, spec, breakpoints)])[0])


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
    return _result(_integrate_many(lambda x, job: f(x), [(a, np.inf, spec, half_period)])[0])


_BATCHES = (8, 16, 40)  # half-periods a tail takes in its first, second and third sweep


def _integrate_many(f, jobs):
    """Integrate independent jobs ``(a, b, spec, extra)`` of one integrand in one loop.

    A job with finite ``b`` is bisected from the breakpoints ``extra`` as
    :func:`adaptive_gauss` bisects it alone, so it ends with the same
    panels.  A job with ``b = inf`` is the tail from ``a`` with half-period
    ``extra``: it takes the half-periods of :func:`oscillatory_tail` in
    consecutive sweeps, and after each sweep Wynn's table runs once on the
    partial sums of all tails that hold the same number of terms.
    ``f(x, job)`` maps abscissae of shape (n,), and the index of the job
    each belongs to, to values of shape (n,) or (n, m).  Each sweep
    evaluates the new panels of every unfinished job together.  Returns per
    job ``(value, error_estimate, panels)`` or the QuadratureError that the
    one-job function raises for it alone.
    """
    outcomes = [None] * len(jobs)
    # a bisected job's kept (left, right, val, err) or None and its new
    # (lefts, rights); a tail's half-period integrals
    state = {}
    for j, (a, b, spec, extra) in enumerate(jobs):
        if b == np.inf:
            if not (0.0 < extra < np.inf):
                raise ParameterError(f"half_period must be positive and finite, got {extra}")
            state[j] = np.empty((0, 0))
            continue
        a, b = float(a), float(b)
        if not b > a:
            raise ParameterError(f"empty integration interval [{a}, {b}]")
        edges = np.array([a] + sorted(p for p in set(float(p) for p in extra) if a < p < b) + [b])
        if edges.size - 1 > spec.max_panels:
            outcomes[j] = QuadratureError(
                f"{edges.size - 1} seeded panels exceed the budget of {spec.max_panels}", panels=0
            )
        else:
            state[j] = None, edges[:-1], edges[1:]
    last = {}  # tail -> its last extrapolant and spread
    shape = ()
    for sweep in itertools.count():
        parts = []
        for j, held in state.items():
            if outcomes[j] is not None:
                continue
            a, b, spec, half_period = jobs[j]
            if b < np.inf:
                parts.append((j, *held[1:]))
                continue
            done = len(held)
            batch = _BATCHES[sweep] if sweep < len(_BATCHES) else 0
            left = a + half_period * np.arange(done, min(done + batch, spec.max_panels))
            if left.size:
                parts.append((j, left, left + half_period))
                continue
            # the budget or the schedule is spent
            value, err = last.get(j, (None, None))
            outcomes[j] = QuadratureError(
                f"no convergence of the oscillatory tail within {done} half-periods",
                value=None if value is None else value.reshape(shape),
                error_estimate=None if err is None else err.reshape(shape),
                panels=done,
            )
        if not parts:
            break
        shape, slices = _evaluate(f, parts)
        scalar = shape == ()
        groups = {}  # term count -> tails
        for (j, lefts, rights), (new_val, new_err) in zip(parts, slices):
            spec = jobs[j][2]
            if jobs[j][1] == np.inf:
                state[j] = np.concatenate([state[j], new_val]) if len(state[j]) else new_val
                if len(state[j]) >= 2:
                    groups.setdefault(len(state[j]), []).append(j)
                continue
            kept = state[j][0]
            if kept is None:
                left, right, val, err = lefts, rights, new_val, new_err
            else:
                left, right = np.concatenate([kept[0], lefts]), np.concatenate([kept[1], rights])
                val, err = np.concatenate([kept[2], new_val]), np.concatenate([kept[3], new_err])
            # rel_tol is measured against the largest component; cancelling
            # integrals additionally converge at the roundoff floor of their
            # panel-sum magnitude.
            vals, errs = val.sum(axis=0), err.sum(axis=0)
            bound = _bound(spec, vals, np.abs(val).sum(axis=0))
            if np.all(errs <= bound):
                outcomes[j] = (vals[0], errs[0], left.size) if scalar else (vals, errs, left.size)
                continue
            room = spec.max_panels - left.size
            if room <= 0:
                outcomes[j] = QuadratureError(
                    f"no convergence within {spec.max_panels} panels "
                    f"(error estimate {errs.max():.3e}, tolerance {bound:.3e})",
                    value=vals[0] if scalar else vals,
                    error_estimate=errs[0] if scalar else errs,
                    panels=left.size,
                )
                continue
            # Split the shortest worst-first prefix without which every
            # component would meet the bound, within the remaining budget.
            order = np.argsort(-err.max(axis=1), kind="stable")
            short = np.any(errs - np.cumsum(err[order], axis=0) > bound, axis=1)
            count = min(np.count_nonzero(short) + 1, room)
            split, keep = order[:count], order[count:]
            mid = 0.5 * (left[split] + right[split])
            kept = left[keep], right[keep], val[keep], err[keep]
            state[j] = kept, np.concatenate([left[split], mid]), np.concatenate([mid, right[split]])
        for count, group in groups.items():
            part = np.concatenate([state[j] for j in group], axis=1)
            value, previous = _wynn(np.cumsum(part, axis=0))
            err, magnitude, end = np.abs(value - previous), np.abs(part).sum(axis=0), 0
            for j in group:
                start, end = end, end + state[j].shape[1]
                last[j] = v, e = value[start:end], err[start:end]
                if np.all(e <= _bound(jobs[j][2], v, magnitude[start:end])):
                    outcomes[j] = v.reshape(shape), e.reshape(shape), count
    return outcomes


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
