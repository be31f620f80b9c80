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

Each loop carries many independent integrals ("jobs") of one integrand at
once, as vectorized cubature interfaces do: every job is refined by its own
tolerance and budget exactly as it would be alone, and each sweep evaluates
the new panels of all unfinished jobs in the same integrand calls.  The
public functions are the one-job case.
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


def _evaluate(f, owner, lefts, rights):
    """(value, error) of each panel [lefts[i], rights[i]] of job owner[i].

    One ``_panel`` call per ``_CHUNK`` panels, whichever jobs they belong
    to; ``f(x, job)`` receives the job of each abscissa.
    """
    parts = []
    for i in range(0, lefts.size, _CHUNK):
        jobs = np.repeat(owner[i : i + _CHUNK], _X.size)
        parts.append(_panel(lambda x: f(x, jobs), lefts[i : i + _CHUNK], rights[i : i + _CHUNK]))
    return tuple(np.concatenate(x) for x in zip(*parts))


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
    if spec is None:
        spec = QuadratureSpec()
    return _result(_adaptive_many(lambda x, job: f(x), [(a, b, spec, breakpoints)])[0])


def _adaptive_many(f, jobs):
    """Integrate independent jobs ``(a, b, spec, breakpoints)`` of one integrand in one loop.

    ``f(x, job)`` maps abscissae of shape (n,), and the index of the job each
    belongs to, to values of shape (n,) or (n, m).  Every job is bisected
    by its own bound, budget and split rule, as :func:`adaptive_gauss`
    bisects it alone, so it ends with the same panels; each sweep evaluates
    the new panels of all unfinished jobs together.  Returns per job
    ``(value, error_estimate, panels)`` or the QuadratureError that
    :func:`adaptive_gauss` raises for it alone.
    """
    outcomes = [None] * len(jobs)
    pending = []  # (job, its kept (left, right, val, err) or None, new lefts, new rights)
    for j, (a, b, spec, breakpoints) in enumerate(jobs):
        a, b = float(a), float(b)
        if not b > a:
            raise ParameterError(f"empty integration interval [{a}, {b}]")
        edges = np.array([a] + sorted(p for p in set(float(p) for p in breakpoints) if a < p < b) + [b])
        if edges.size - 1 > spec.max_panels:
            outcomes[j] = QuadratureError(
                f"{edges.size - 1} seeded panels exceed the budget of {spec.max_panels}", panels=0
            )
        else:
            pending.append((j, None, edges[:-1], edges[1:]))

    while pending:
        sizes = [lefts.size for _, _, lefts, _ in pending]
        values, errors = _evaluate(
            f,
            np.repeat([j for j, *_ in pending], sizes),
            np.concatenate([lefts for _, _, lefts, _ in pending]),
            np.concatenate([rights for *_, rights in pending]),
        )
        scalar = values.ndim == 1
        values, errors = values.reshape(sum(sizes), -1), errors.reshape(sum(sizes), -1)
        swept, pending, end = pending, [], 0
        for j, kept, lefts, rights in swept:
            start, end = end, end + lefts.size
            new_val, new_err = values[start:end], errors[start:end]
            if kept is None:
                left, right, val, err = lefts, rights, new_val, new_err
            else:
                left, right = np.concatenate([kept[0], lefts]), np.concatenate([kept[1], rights])
                val, err = np.concatenate([kept[2], new_val]), np.concatenate([kept[3], new_err])
            spec = jobs[j][2]
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
            pending.append((j, kept, np.concatenate([left[split], mid]), np.concatenate([mid, right[split]])))
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
    return _result(_tail_many(lambda x, job: f(x), [(a, half_period, spec)])[0])


def _tail_many(f, jobs):
    """Extrapolated half-period sums of independent jobs ``(a, half_period, spec)`` in one loop.

    ``f`` is called as by :func:`_adaptive_many`.  Each batch of every
    unfinished job goes into the same integrand calls, and Wynn's table runs
    once per batch on the partial sums of all jobs that hold the same number
    of terms.  Returns per job what :func:`oscillatory_tail` returns for it
    alone, or the QuadratureError it raises.
    """
    for _, half_period, _ in jobs:
        if not (0.0 < half_period < np.inf):
            raise ParameterError(f"half_period must be positive and finite, got {half_period}")
    outcomes = [None] * len(jobs)
    terms = [np.empty((0, 0))] * len(jobs)  # (half-periods, components) integrals per job
    last = [(None, None)] * len(jobs)  # last extrapolant and its spread
    shape = ()
    for batch in (8, 16, 40):
        running, lefts = [], []
        for j, (a, half_period, spec) in enumerate(jobs):
            if outcomes[j] is not None:
                continue
            done = len(terms[j])
            left = a + half_period * np.arange(done, min(done + batch, spec.max_panels))
            if left.size:  # else the budget is spent
                running.append(j)
                lefts.append(left)
        if not running:
            break
        sizes = [left.size for left in lefts]
        val, _ = _evaluate(
            f,
            np.repeat(running, sizes),
            np.concatenate(lefts),
            np.concatenate([left + jobs[j][1] for j, left in zip(running, lefts)]),
        )
        shape, val, end = val.shape[1:], val.reshape(sum(sizes), -1), 0
        for j, size in zip(running, sizes):
            start, end = end, end + size
            terms[j] = np.concatenate([terms[j], val[start:end]]) if len(terms[j]) else val[start:end]
        groups = {}  # term count -> jobs
        for j in running:
            if len(terms[j]) >= 2:
                groups.setdefault(len(terms[j]), []).append(j)
        for count, group in groups.items():
            part = np.concatenate([terms[j] for j in group], axis=1)
            value, previous = _wynn(np.cumsum(part, axis=0))
            err, magnitude, end = np.abs(value - previous), np.abs(part).sum(axis=0), 0
            for j in group:
                start, end = end, end + terms[j].shape[1]
                last[j] = v, e = value[start:end], err[start:end]
                if np.all(e <= _bound(jobs[j][2], v, magnitude[start:end])):
                    outcomes[j] = v.reshape(shape), e.reshape(shape), count
    for j, (value, err) in enumerate(last):
        if outcomes[j] is None:
            outcomes[j] = QuadratureError(
                f"no convergence of the oscillatory tail within {len(terms[j])} half-periods",
                value=None if value is None else value.reshape(shape),
                error_estimate=None if err is None else err.reshape(shape),
                panels=len(terms[j]),
            )
    return outcomes
