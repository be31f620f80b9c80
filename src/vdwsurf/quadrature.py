"""Adaptive panel quadrature for vector-valued (complex) integrands.

A fixed pair of Gauss-Legendre rules (7 and 15 points) is applied per panel;
the difference between the two estimates is the panel's error.  Panels are
bisected in sweeps: each sweep splits, worst first, just enough panels that
the rest already meet the requested tolerance, and evaluates all children
in batched integrand calls, until every component of the integral meets the
tolerance or the panel budget is exhausted.

An oscillatory integrand on a half-line (:func:`_tail`) is summed over
half-periods, a fixed schedule of panels, and the partial sums S_n ending
at x_n are averaged linearly, with weights from the remainder model
(-1)^n e^{-dz x_n} sqrt(x_n) of a Bessel oscillation under e^{-dz x}.

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
_CHUNK = 128  # panels per integrand call: a default validate run's first sweep asks for <= 89, an off-resonant one <= 4


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


def _tail(a, half_period, dz, spec: QuadratureSpec):
    """The integral over [a, inf) of an integrand that oscillates with
    ``half_period`` under e^{-dz x}, as a job of :func:`_integrate_many`.

    The half-periods from ``a`` on take one panel each, in the batches of
    ``_BATCHES`` (at most ``spec.max_panels`` in all).  After each batch the
    partial sums S_0, S_1, ... are averaged with the weights of
    :func:`_weights`.  The estimate of the average of S_0 ... S_n is its
    change from that of S_0 ... S_{n-1}, plus the S_i's summed |G15 - G7|
    carried through its weights; the average with the smallest estimate is
    taken, and held to the bound of :func:`_bisection`.  For an integrand
    of the remainder model, the estimate bounds the rule and extrapolation
    error; rounding in the integrand's values it estimates by |G15 - G7|.
    """
    if not (_is_finite(a) and a >= 0.0):
        raise ParameterError(f"tail start must be finite and >= 0, got {_str(a)}")
    if not (half_period > 0.0 and _is_finite(half_period)):
        raise ParameterError(f"half_period must be positive and finite, got {_str(half_period)}")
    if not (dz >= 0.0 and _is_finite(dz)):
        raise ParameterError(f"envelope decay dz must be >= 0 and finite, got {_str(dz)}")
    received, count, value, err = [], 0, None, None  # (values, rule errors) per batch
    for batch in _BATCHES:
        left = a + half_period * np.arange(count, min(count + batch, spec.max_panels))
        if not left.size:  # the budget is spent
            break
        received.append((yield left, left + half_period))
        count += left.size
        if count >= 2:
            part, part_err = (np.concatenate(x) for x in zip(*received))
            # row n: the average of S_0 ... S_n, and the rule errors it carries
            weights = _weights(a + half_period * np.arange(1, count + 1), dz)[:, :, None]
            averages, rule = ((weights * np.cumsum(x, axis=0)).sum(axis=1) for x in (part, part_err))
            estimates = np.abs(averages[1:] - averages[:-1]) + rule[1:]
            best = np.argmin(estimates.max(axis=1))
            value, err = averages[best + 1], estimates[best]
            if np.all(err <= _bound(spec, value, np.abs(part).sum(axis=0))):
                return value, err, count
    message = f"no convergence of the oscillatory tail within {count} half-periods"
    return QuadratureError(message, value=value, error_estimate=err, panels=count)


def _weights(x, dz):
    """Row n: the weights c_i of the average sum(c_i S_i) of partial sums S_0 ... S_n ending at ``x``.

    They are Sidi's W transformation (Math. Comp. 51, 249 (1988)) with the
    remainder model S - S_i ~ w_i = (-1)^i e^{-dz x_i} sqrt(x_i) times a
    series in 1/x_i, that of a Bessel oscillation under x e^{-dz x}
    (Michalski, IEEE Trans. Antennas Propag. 46, 1405 (1998)): its
    recurrence M_k(i) = (M_{k-1}(i+1) - M_{k-1}(i)) / (1/x_{i+k} - 1/x_i)
    from M_0 = S/w, and alike for N from 1/w, gives W = M_n(0)/N_n(0).  For
    equally spaced x, c_i ~ C(n, i) x_i^(n-1) / |w_i|: positive, summing to
    1, and formed in logarithms, which neither overflow nor cancel.
    """
    n, i = np.arange(x.size)[:, None], np.arange(x.size)
    log_factorial = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, x.size)))])
    log_c = (n - 1.5) * np.log(x) + dz * (x - x[0]) - log_factorial[i] - log_factorial[n - i]
    log_c = np.where(i <= n, log_c, -np.inf)  # no weight beyond S_n
    c = np.exp(log_c - log_c.max(axis=1, keepdims=True))
    return c / c.sum(axis=1, keepdims=True)


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
    A job's estimate is its panels' |G15 - G7|, in a tail job carried
    through its weighted average under the remainder model of :func:`_weights`.
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
