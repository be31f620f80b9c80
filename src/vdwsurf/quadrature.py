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
once, as vectorized cubature interfaces do.  Each job is a generator that
runs its own one-job algorithm (:func:`_bisection`, :func:`_tail`) on the
values of its own panels only, so it ends exactly as it would alone; the
loop (:func:`_integrate_many`) only batches the panels that unfinished
jobs ask for into shared integrand calls.  The public functions run one job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError, _is_count, _is_finite, _shown

# The 7- and 15-point Gauss-Legendre rules on [-1, 1], written out as
# QUADPACK's qk routines do; each literal is bit for bit the value of
# numpy.polynomial.legendre.leggauss(7) or (15), which would otherwise be
# imported by every process for these 44 numbers.
_LO_X = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_LO_W = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])
_HI_X = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
    -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
    0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
    0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_HI_W = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
    0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
    0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
    0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
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
    batch rounds differently from one batch size to the next).  They are
    formed by numpy's own einsum loops, not by BLAS, whose library would
    add its pages to the process for these 2 x 22 sums; complex values go
    in as (real, imaginary) pairs of floats, on which einsum is 2.5x faster.
    """
    mid = 0.5 * (lefts + rights)
    half = 0.5 * (rights - lefts)
    y = np.asarray(f((mid[:, None] + half[:, None] * _X).ravel()))
    y3, pairs = y.reshape(lefts.size, _X.size, -1), np.iscomplexobj(y)
    if pairs:
        y3 = np.ascontiguousarray(y3, dtype=complex).view(float)
    sums = np.einsum("ij,pjm->pim", _W, y3) * half[:, None, None]  # (p, 2, m), or (p, 2, 2m) of pairs
    if pairs:
        sums = sums.view(complex)
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
    # a value that is not finite ends its job (see _integrate_many), without a warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    return _result(_integrate_many(lambda x, job: f(x), [_bisection(a, b, spec, breakpoints)])[0])


def oscillatory_tail(f, a, half_period, spec: QuadratureSpec | None = None):
    """Integrate an oscillating ``f`` over [a, inf) by extrapolated half-period sums.

    The half-periods [a + j*half_period, a + (j + 1)*half_period] are
    integrated with the rule pair of :func:`adaptive_gauss`, one panel each,
    in batches of 8, then 16, then 40 more (one integrand call per batch,
    never more panels than ``spec.max_panels``).  The partial sums are
    extrapolated with Wynn's epsilon algorithm; the spread of the last two
    extrapolants is the error estimate, held to the bound of
    :func:`adaptive_gauss`.  ``f`` is called as there.

    Returns ``(value, error_estimate, panels)``, value and error shaped as
    in :func:`adaptive_gauss` (NumPy scalars for a scalar integrand).
    Raises QuadratureError, carrying the last extrapolant and its spread,
    if the budget runs out.
    """
    return _result(_integrate_many(lambda x, job: f(x), [_tail(a, half_period, spec)])[0])


def _str(x) -> str:
    """``str(x)`` for a message, or the size of an integer too long to print."""
    return _shown(x) if isinstance(x, int) else str(x)


def _bisection(a, b, spec: QuadratureSpec | None = None, breakpoints=()):
    """:func:`adaptive_gauss` as a job of :func:`_integrate_many`."""
    if spec is None:
        spec = QuadratureSpec()
    # a limit that is not finite as a float gives NaN panels or overflows
    if not (_is_finite(a) and _is_finite(b)):
        raise ParameterError(f"integration interval [{_str(a)}, {_str(b)}] must be finite")
    a, b = float(a), float(b)
    if not b > a:
        raise ParameterError(f"empty integration interval [{a}, {b}]")
    # float() may round an inner point onto a limit, and overflows on one far outside
    edges = np.array([a] + sorted({float(p) for p in breakpoints if a < p < b} - {a, b}) + [b])
    if edges.size - 1 > spec.max_panels:
        return QuadratureError(f"{edges.size - 1} seeded panels exceed the budget of {spec.max_panels}", panels=0)
    left, right = edges[:-1], edges[1:]
    val, err = yield left, right
    while True:
        # rel_tol is measured against the largest component; cancelling
        # integrals additionally converge at the roundoff floor of their
        # panel-sum magnitude.
        vals, errs = val.sum(axis=0), err.sum(axis=0)
        bound = _bound(spec, vals, np.abs(val).sum(axis=0))
        if np.all(errs <= bound):
            return vals, errs, left.size
        room = spec.max_panels - left.size
        if room <= 0:
            message = (
                f"no convergence within {spec.max_panels} panels "
                f"(error estimate {errs.max():.3e}, tolerance {bound:.3e})"
            )
            return QuadratureError(message, value=vals, error_estimate=errs, panels=left.size)
        # Split the shortest worst-first prefix without which every
        # component would meet the bound, within the remaining budget.
        order = np.argsort(-err.max(axis=1), kind="stable")
        short = np.any(errs - np.cumsum(err[order], axis=0) > bound, axis=1)
        count = min(np.count_nonzero(short) + 1, room)
        split, keep = order[:count], order[count:]
        mid = 0.5 * (left[split] + right[split])
        lefts, rights = np.concatenate([left[split], mid]), np.concatenate([mid, right[split]])
        new_val, new_err = yield lefts, rights
        left, right = np.concatenate([left[keep], lefts]), np.concatenate([right[keep], rights])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])


_BATCHES = (8, 16, 40)  # half-periods a tail takes in its first, second and third sweep


def _tail(a, half_period, spec: QuadratureSpec | None = None):
    """:func:`oscillatory_tail` as a job of :func:`_integrate_many`.

    It takes the half-periods of ``_BATCHES`` in turn, within the budget,
    and after each batch runs Wynn's table on its own partial sums.
    """
    if not _is_finite(a):
        raise ParameterError(f"tail start must be finite, got {_str(a)}")
    if not (half_period > 0.0 and _is_finite(half_period)):
        raise ParameterError(f"half_period must be positive and finite, got {_str(half_period)}")
    if spec is None:
        spec = QuadratureSpec()
    # the half-period integrals received and their concatenation; the last extrapolant and spread
    terms, part, value, err = [], np.empty(0), None, None
    for batch in _BATCHES:
        left = a + half_period * np.arange(len(part), min(len(part) + batch, spec.max_panels))
        if not left.size:  # the budget is spent
            break
        new_val, _ = yield left, left + half_period
        terms.append(new_val)
        part = np.concatenate(terms)
        if len(part) >= 2:
            value, previous = _wynn(np.cumsum(part, axis=0))
            err = np.abs(value - previous)
            if np.all(err <= _bound(spec, value, np.abs(part).sum(axis=0))):
                return value, err, len(part)
    message = f"no convergence of the oscillatory tail within {len(part)} half-periods"
    return QuadratureError(message, value=value, error_estimate=err, panels=len(part))


def _integrate_many(f, jobs):
    """Run independent integration jobs of one integrand in one loop.

    Each job is a generator made by :func:`_bisection` or :func:`_tail`
    that runs its own one-job algorithm: it yields the ``(lefts, rights)``
    of the panels it needs next, is sent their ``(values, errors)`` as
    (panels, components) arrays, and returns ``(value, error_estimate,
    panels)`` or a QuadratureError.  The loop only routes panels: it first
    advances every job to its first request, so a ParameterError is raised
    in job order before any integrand call; then each sweep evaluates the
    pending panels of every unfinished job together, in ``_panel`` calls
    of at most ``_CHUNK`` panels, and sends each job its own.  A job sees
    the values of its own panels only, so it ends as it ends alone.  A job
    one of whose panels has a value or error that is not finite ends at
    once, with a QuadratureError that names that panel and carries no value.
    ``f(x, job)`` maps abscissae of shape (n,), and the index of the job
    each belongs to, to values of shape (n,) or (n, m).  Returns per job
    its outcome, value and error in the shape of ``f``'s values (NumPy
    scalars for a scalar integrand).
    """
    outcomes, shape = [None] * len(jobs), ()
    answers = dict.fromkeys(range(len(jobs)))  # unfinished job -> what it is sent next
    while True:
        parts = []
        for j, answer in answers.items():
            try:
                parts.append((j, *jobs[j].send(answer)))
            except StopIteration as stop:
                outcomes[j] = stop.value
        if not parts:
            return [_shaped(outcome, shape) for outcome in outcomes]
        shape, slices = _evaluate(f, parts)
        answers = {}
        for (j, lefts, rights), (values, errors) in zip(parts, slices):
            finite = np.isfinite(values).all(axis=1) & np.isfinite(errors).all(axis=1)
            if finite.all():
                answers[j] = values, errors
            else:
                i = np.argmin(finite)
                outcomes[j] = QuadratureError(f"integrand not finite on the panel [{lefts[i]}, {rights[i]}]")


def _shaped(outcome, shape):
    """A job's outcome, value and error estimate reshaped to ``shape`` (NumPy scalars for ``()``)."""
    if isinstance(outcome, QuadratureError):
        outcome.value, outcome.error_estimate = (
            None if x is None else x.reshape(shape)[()] for x in (outcome.value, outcome.error_estimate)
        )
        return outcome
    value, error, panels = outcome
    return value.reshape(shape)[()], error.reshape(shape)[()], panels


_ROUNDOFF = 100.0 * np.finfo(float).eps  # the roundoff floor of a sum, per unit of its magnitude


def _bound(spec: QuadratureSpec, value, magnitude) -> float:
    """Error bound for an integral ``value`` whose panel values sum to ``magnitude`` in size."""
    tol = spec.abs_tol + spec.rel_tol * np.max(np.abs(value))
    return max(tol, _ROUNDOFF * np.max(magnitude))


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
            odd = odd[1:-1] + 1.0 / (even[1:] - even[:-1])
            even = even[1:-1] + 1.0 / (odd[1:] - odd[:-1])
            ok = np.isfinite(even[-2:]).all(axis=0)
            np.copyto(best[0], even[-1], where=ok)
            np.copyto(best[1], even[-2], where=ok)
    return best
