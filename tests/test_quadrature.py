import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import mpmath
from scipy.special import itj0y0, j0, j1

from vdwsurf import ParameterError, QuadratureError, QuadratureSpec, adaptive_gauss, quadrature


def test_rules_equal_leggauss_bit_for_bit():
    # the package writes the rules out; only this test imports numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    for n, (x, w) in ((7, (quadrature._LO_X, quadrature._LO_W)), (15, (quadrature._HI_X, quadrature._HI_W))):
        want_x, want_w = leggauss(n)
        assert x.tobytes() == want_x.tobytes() and w.tobytes() == want_w.tobytes()


def test_polynomial_is_exact():
    val, err, panels = adaptive_gauss(lambda x: x**3 - 2 * x, 0.0, 2.0)
    assert_allclose(val, 0.0, atol=1e-13)
    assert panels >= 1


def test_smooth_oscillatory():
    val, err, _ = adaptive_gauss(lambda x: np.sin(40.0 * x), 0.0, np.pi)
    exact = (1.0 - np.cos(40.0 * np.pi)) / 40.0
    assert_allclose(val, exact, rtol=1e-10, atol=1e-12)
    assert abs(val - exact) <= max(err, 1e-12)


def test_vector_components_share_panels():
    def f(x):
        return np.stack([np.exp(-x), np.cos(x), x * 0 + 1.0], axis=-1)

    val, err, _ = adaptive_gauss(f, 0.0, 3.0)
    assert_allclose(val, [1.0 - np.exp(-3.0), np.sin(3.0), 3.0], rtol=1e-10)
    assert val.shape == err.shape == (3,)


def test_complex_integrand():
    val, _, _ = adaptive_gauss(lambda x: np.exp(1j * x), 0.0, np.pi / 2)
    assert_allclose(val, 1.0 + 1j, rtol=1e-12)


def test_sqrt_endpoint_handled_adaptively():
    val, _, _ = adaptive_gauss(lambda x: np.sqrt(x), 0.0, 1.0, QuadratureSpec(rel_tol=1e-10))
    assert_allclose(val, 2.0 / 3.0, rtol=1e-9)

def test_breakpoints_seed_panels():
    def kinked(x):
        return np.abs(x - 0.3)

    val, _, panels_plain = adaptive_gauss(kinked, 0.0, 1.0)
    val_bp, _, panels_bp = adaptive_gauss(kinked, 0.0, 1.0, breakpoints=[0.3])
    exact = 0.5 * (0.3**2 + 0.7**2)
    assert_allclose(val, exact, rtol=1e-8)
    assert_allclose(val_bp, exact, rtol=1e-12)
    assert panels_bp <= panels_plain


def test_budget_exhaustion_carries_estimate():
    spec = QuadratureSpec(rel_tol=1e-14, max_panels=3)
    with pytest.raises(QuadratureError) as excinfo:
        adaptive_gauss(lambda x: np.sin(50 * x) / (1e-3 + x * x), 0.0, 10.0, spec)
    err = excinfo.value
    assert err.value is not None
    assert err.error_estimate > 0
    assert err.panels == 3


def test_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(rel_tol=0.0, abs_tol=0.0)
    with pytest.raises(ParameterError):
        QuadratureSpec(max_panels=0)
    with pytest.raises(ParameterError):
        QuadratureSpec(rel_tol=-1e-8)


def test_empty_interval_rejected():
    with pytest.raises(ParameterError):
        adaptive_gauss(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (np.inf, 1.0)])
def test_infinite_interval_rejected(a, b):
    # bisection of an infinite interval evaluates NaN panels until the budget
    # runs out; a half-line is for quadrature._tail
    with pytest.raises(ParameterError, match="must be finite"):
        adaptive_gauss(lambda x: np.exp(-x * x), a, b)


def _oscillating(x):
    return np.sin(50 * x) / (1e-3 + x * x)


def test_panel_is_looked_up_per_call_and_sees_every_batch(monkeypatch):
    # tracing tools patch quadrature._panel by name, so every batch must go
    # through the module attribute, one integrand call per batch
    batches, calls = [], []
    panel = quadrature._panel

    def counted(f, lefts, rights):
        batches.append(lefts.size)
        return panel(f, lefts, rights)

    def integrand(x):
        calls.append(x.size)
        return _oscillating(x)

    monkeypatch.setattr(quadrature, "_panel", counted)
    _, _, panels = adaptive_gauss(integrand, 0.0, 10.0)
    assert len(batches) == len(calls) > 1
    assert [22 * n for n in batches] == calls
    # every split adds one panel and evaluates two
    assert sum(batches) == 1 + 2 * (panels - 1)


_RNG_VALUES = np.random.default_rng(24).standard_normal((4, 64 * 22, 5)) * np.logspace(-6, 6, 5)


@pytest.mark.parametrize(
    "values",
    [
        lambda i: _RNG_VALUES[0, i, 0],  # a real scalar
        lambda i: _RNG_VALUES[0, i],  # a real vector
        lambda i: _RNG_VALUES[1, i] + 1j * _RNG_VALUES[2, i],  # a complex vector
        lambda i: (_RNG_VALUES[1, i] - 1j * _RNG_VALUES[3, i]).T[::2].T,  # a complex view of every other column
    ],
    ids=["real-scalar", "real-vector", "complex-vector", "non-contiguous"],
)
def test_panel_sums_are_the_panels_own_and_match_a_matrix_product(values):
    # f(x) returns the values stored for the abscissae' indices, so a panel
    # sees the same values alone and inside any batch
    lefts = np.cumsum(np.linspace(0.5, 2.0, 64))
    rights = lefts + np.linspace(0.25, 1.5, 64)
    batch = quadrature._panel(lambda x: values(np.arange(x.size)), lefts, rights)
    for p in range(64):
        own = np.arange(22 * p, 22 * (p + 1))
        alone = quadrature._panel(lambda x: values(own), lefts[p : p + 1], rights[p : p + 1])
        for got, want in zip(alone, batch):
            assert got[0].tobytes() == want[p].tobytes()
    # the rule sums of a matrix product, rounded otherwise, are a few ulp away
    y = np.asarray(values(np.arange(64 * 22))).reshape(64, 22, -1)
    half = (0.5 * (rights - lefts))[:, None]
    lo, hi = np.matmul(quadrature._W, y).transpose(1, 0, 2) * half
    size = np.matmul(quadrature._W, np.abs(y)).max(axis=1) * half  # the magnitude both sums round at
    value, error = (x.reshape(hi.shape) for x in batch)
    assert np.all(np.abs(value - hi) <= 8 * np.finfo(float).eps * size)
    assert np.all(np.abs(error - np.abs(hi - lo)) <= 16 * np.finfo(float).eps * size)


@given(max_panels=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_budget_is_never_exceeded(max_panels):
    with pytest.raises(QuadratureError) as excinfo:
        adaptive_gauss(_oscillating, 0.0, 10.0, QuadratureSpec(rel_tol=1e-14, max_panels=max_panels))
    assert excinfo.value.panels == max_panels
    # an integrand that converges on some budgets: it either converges
    # within the budget or reports the full budget spent
    spec = QuadratureSpec(rel_tol=1e-12, max_panels=max_panels)
    try:
        _, _, panels = adaptive_gauss(lambda x: np.sin(20 * x), 0.0, 3.0, spec)
    except QuadratureError as exc:
        panels = exc.panels
        assert panels == max_panels
    assert 1 <= panels <= max_panels


def test_integrand_calls_are_capped_at_128_panels():
    sizes = []

    def integrand(x):
        sizes.append(x.size)
        return np.sin(500 * x)

    val, _, panels = adaptive_gauss(integrand, 0.0, 10.0, QuadratureSpec(rel_tol=1e-12))
    assert panels > 128
    assert max(sizes) == 128 * 22
    assert_allclose(val, (1.0 - np.cos(5000.0)) / 500.0, rtol=1e-10)


_EXP_TERM = st.tuples(
    st.floats(min_value=0.1, max_value=10.0),  # c
    st.floats(min_value=0.05, max_value=5.0),  # |a|
    st.booleans(),  # sign of a
)



# Polynomial coefficients are zero or far above the underflow threshold: a
# subnormal coefficient makes the float "closed form" itself round (polyint
# turns [0, 0, 5e-324] into zeros, though its integral over [0, 3] is 4.4e-323).
_COEFF = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=10.0))


@given(
    exp_terms=st.lists(_EXP_TERM, min_size=0, max_size=3),
    coeffs=st.lists(_COEFF, min_size=1, max_size=12),
    lo=st.floats(min_value=0.0, max_value=2.0),
    length=st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_closed_forms_within_the_error_estimate(exp_terms, coeffs, lo, length):
    # nonnegative terms, so the exact value carries no cancellation
    hi = lo + length
    terms = [(c, a if positive else -a) for c, a, positive in exp_terms]

    def f(x):
        return sum(c * np.exp(a * x) for c, a in terms) + np.polynomial.polynomial.polyval(x, coeffs)

    exact = sum(c * np.exp(a * lo) * np.expm1(a * length) / a for c, a in terms)
    antiderivative = np.polynomial.polynomial.polyint(coeffs)
    exact += np.polynomial.polynomial.polyval(hi, antiderivative) - np.polynomial.polynomial.polyval(
        lo, antiderivative
    )
    val, err, _ = adaptive_gauss(f, lo, hi)
    assert abs(val - exact) <= max(err, 1e-12 * abs(exact))


@pytest.mark.parametrize("max_panels", [1, 2, 3])
def test_seeded_panels_count_against_the_budget(max_panels):
    # three breakpoints seed four panels: more than the budget allows
    with pytest.raises(QuadratureError) as excinfo:
        adaptive_gauss(
            lambda x: x * x, 0.0, 1.0, QuadratureSpec(max_panels=max_panels), breakpoints=[0.25, 0.5, 0.75]
        )
    assert excinfo.value.panels <= max_panels
    val, _, panels = adaptive_gauss(
        lambda x: x * x, 0.0, 1.0, QuadratureSpec(max_panels=4), breakpoints=[0.25, 0.5, 0.75]
    )
    assert_allclose(val, 1.0 / 3.0, rtol=1e-14)
    assert panels == 4


def _tails(x):
    # Bessel oscillations under e^{-x/10}: the class of the tail's remainder model
    envelope = np.exp(-0.1 * x)
    return np.stack([envelope * j0(x), envelope * j1(x), x * envelope * j0(x)], axis=-1)


def _one_tail(f, *args):
    """``quadrature._tail(*args)`` of ``f`` as the only job: ``(value, error, panels)``, or its QuadratureError."""
    return quadrature._integrate_many(lambda x, which: f(x), [quadrature._tail(*args)])[0]


def test_tail_closed_forms():
    # Laplace transforms of J0, J1 and x J0 at b = 1/10 (dz = b), less
    # their integrals over [0, a] by mpmath
    a, b = 10.0, 0.1
    r = np.sqrt(1.0 + b * b)
    heads = [
        mpmath.quad(lambda x: mpmath.exp(-b * x) * x**m * mpmath.besselj(n, x), mpmath.linspace(0.0, a, 5))
        for n, m in ((0, 0), (1, 0), (0, 1))
    ]
    exact = np.array([1.0 / r, 1.0 - b / r, b / r**3]) - np.array(heads, dtype=float)
    for rel_tol in (1e-6, 1e-8, 1e-10):
        val, err, panels = _one_tail(_tails, a, np.pi, b, QuadratureSpec(rel_tol=rel_tol))
        assert val.shape == err.shape == (3,)
        assert np.all(np.abs(val - exact) <= err)  # the estimate bounds the error
        assert np.all(err <= rel_tol * np.max(np.abs(val)))
        assert panels in (8, 24, 64)
    # J0 alone, without an envelope (dz = 0): 1 - int_0^a J0, and a scalar
    # integrand gives scalars, as adaptive_gauss does
    val, err, _ = _one_tail(j0, a, np.pi, 0.0, QuadratureSpec(rel_tol=1e-8))
    assert np.ndim(val) == np.ndim(err) == 0
    assert 0.0 < abs(val - (1.0 - itj0y0(a)[0])) <= err <= 1e-8 * abs(val)


def test_tail_weights_are_sidis_w_recurrence_on_the_identity():
    # M_0 = diag(1/w), N_0 = 1/w, M_k(i) = (M_{k-1}(i+1) - M_{k-1}(i)) /
    # (1/x_{i+k} - 1/x_i), and W = M/N: row n of _weights is W over S_0 ... S_n
    for a, h, dz in ((10.0, np.pi, 0.1), (100.0, 31.4, 0.0024), (2.0, 1.0, 0.0), (5.0, 0.5, 3.0)):
        x = a + h * np.arange(1, 13)
        weights = quadrature._weights(x, dz)
        w = (-1.0) ** np.arange(x.size) * np.exp(-dz * (x - x[0])) * np.sqrt(x)
        for n in range(x.size):
            m, norm = np.diag(1.0 / w[: n + 1]), 1.0 / w[: n + 1]
            for k in range(1, n + 1):
                step = 1.0 / x[k : n + 1] - 1.0 / x[: n + 1 - k]
                m, norm = (m[1:] - m[:-1]) / step[:, None], (norm[1:] - norm[:-1]) / step
            assert_allclose(weights[n, : n + 1], m[0] / norm[0], rtol=1e-9, atol=1e-15)
            assert np.all(weights[n, n + 1 :] == 0.0)
        assert np.all(weights >= 0.0)
        assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-14)


def test_tail_batches_go_through_panel_within_the_budget(monkeypatch):
    # half-periods are evaluated by quadrature._panel in batches of 8, 16
    # and 40, never past max_panels; rel_tol 1e-14 is below the rule error
    # of a half-period, so the tail takes all 64
    batches = []
    panel = quadrature._panel

    def counted(f, lefts, rights):
        batches.append(lefts.size)
        return panel(f, lefts, rights)

    monkeypatch.setattr(quadrature, "_panel", counted)
    _, _, panels = _one_tail(_tails, 10.0, np.pi, 0.1, QuadratureSpec(rel_tol=1e-8))
    assert batches == [8] and panels == 8
    batches.clear()
    out = _one_tail(_tails, 10.0, np.pi, 0.1, QuadratureSpec(rel_tol=1e-14))
    assert str(out) == "no convergence of the oscillatory tail within 64 half-periods"
    assert batches == [8, 16, 40] and out.panels == 64
    batches.clear()
    out = _one_tail(_tails, 10.0, np.pi, 0.1, QuadratureSpec(rel_tol=1e-14, max_panels=10))
    assert isinstance(out, QuadratureError) and out.panels == sum(batches) == 10
    assert batches == [8, 2]
    assert out.value.shape == out.error_estimate.shape == (3,)


@pytest.mark.parametrize(
    "args",
    [(2.0, half_period, 0.1) for half_period in (0.0, -1.0, np.inf, np.nan)]
    + [(2.0, np.pi, dz) for dz in (-0.1, np.inf, np.nan)]
    + [(-1.0, np.pi, 0.1)],
    ids=[
        "half-period-0", "half-period-neg", "half-period-inf", "half-period-nan", "dz-neg", "dz-inf", "dz-nan", "a-neg",
    ],
)
def test_tail_rejects_bad_half_period_dz_and_start(args):
    with pytest.raises(ParameterError):
        quadrature._tail(*args, QuadratureSpec()).send(None)


def _assert_same_outcome(got, want):
    # bit for bit: a job in the shared loop sees the same abscissae, values
    # and split decisions as it does alone
    assert type(got) is type(want)
    if isinstance(want, QuadratureError):
        assert str(got) == str(want) and got.panels == want.panels
        got, want = (got.value, got.error_estimate), (want.value, want.error_estimate)
    else:
        assert got[2] == want[2]
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b)


def _jobs(described):
    """The job generators of ``described = [(constructor, args), ...]``."""
    return [make(*args) for make, args in described]


def _alone_job(f, j, job):
    """What ``job = (constructor, args)`` of ``f(x, j)`` gives as the only job."""
    make, args = job
    return quadrature._integrate_many(lambda x, which: f(x, np.full(x.shape, j)), [make(*args)])[0]


_TOLERANCES = {
    "rel_tol": st.sampled_from([1e-4, 1e-8, 1e-12, 1e-14]),
    "abs_tol": st.sampled_from([0.0, 1e-12, 1e-3]),
}
_JOB = st.fixed_dictionaries(
    {
        "rate": st.floats(min_value=-3.0, max_value=3.0),
        "freq": st.floats(min_value=0.5, max_value=60.0),
        "lo": st.floats(min_value=-2.0, max_value=2.0),
        "length": st.floats(min_value=0.1, max_value=5.0),
        "max_panels": st.integers(min_value=1, max_value=60),
        "breakpoints": st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
        **_TOLERANCES,
    }
)
# a tail over [lo, inf) in half-periods of its cosine, under a decaying exponential
_TAIL = st.fixed_dictionaries(
    {
        "rate": st.floats(min_value=-3.0, max_value=-0.05),
        "freq": st.floats(min_value=0.5, max_value=60.0),
        "lo": st.floats(min_value=0.0, max_value=2.0),
        "max_panels": st.integers(min_value=1, max_value=70),
        **_TOLERANCES,
    }
)


@given(jobs=st.lists(st.one_of(_JOB, _TAIL), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_many_jobs_equal_each_job_alone(jobs):
    rate = np.array([job["rate"] for job in jobs])
    freq = np.array([job["freq"] for job in jobs])

    def f(x, which):
        return np.stack([np.exp(rate[which] * x), np.cos(freq[which] * x)], axis=-1)

    specs = []
    for job in jobs:
        spec = QuadratureSpec(rel_tol=job["rel_tol"], abs_tol=job["abs_tol"], max_panels=job["max_panels"])
        a = job["lo"]
        if "length" in job:
            b = a + job["length"]
            specs.append((quadrature._bisection, (a, b, spec, [a + t * (b - a) for t in job["breakpoints"]])))
        else:
            specs.append((quadrature._tail, (a, np.pi / job["freq"], -job["rate"], spec)))
    outcomes = quadrature._integrate_many(f, _jobs(specs))
    assert len(outcomes) == len(jobs)
    for j, (outcome, job) in enumerate(zip(outcomes, specs)):
        _assert_same_outcome(outcome, _alone_job(f, j, job))


def test_a_job_out_of_budget_does_not_stop_its_neighbours():
    def f(x, which):
        return np.where(which == 1, _oscillating(x), np.sin(20.0 * x))

    jobs = [
        (quadrature._bisection, (0.0, 3.0, QuadratureSpec(rel_tol=1e-12), ())),
        (quadrature._bisection, (0.0, 10.0, QuadratureSpec(rel_tol=1e-14, max_panels=3), ())),
        (quadrature._bisection, (0.0, 3.0, QuadratureSpec(rel_tol=1e-12), [1.0, 2.0])),
        (quadrature._bisection, (0.0, 1.0, QuadratureSpec(max_panels=1), [0.25, 0.5])),  # seeds over budget
    ]
    outcomes = quadrature._integrate_many(f, _jobs(jobs))
    assert isinstance(outcomes[1], QuadratureError) and outcomes[1].panels == 3
    assert isinstance(outcomes[3], QuadratureError) and outcomes[3].panels == 0
    for j in (0, 2):
        assert_allclose(outcomes[j][0], (1.0 - np.cos(60.0)) / 20.0, rtol=1e-11)
    for j, job in enumerate(jobs):
        _assert_same_outcome(outcomes[j], _alone_job(f, j, job))


def test_a_tail_out_of_budget_does_not_stop_its_neighbours():
    def f(x, which):
        return _tails(x) * np.where(which == 1, 2.0, 1.0)[:, None]

    jobs = [
        (quadrature._tail, (10.0, np.pi, 0.1, QuadratureSpec(rel_tol=1e-10))),
        (quadrature._tail, (10.0, np.pi, 0.1, QuadratureSpec(rel_tol=1e-14, max_panels=10))),
        (quadrature._tail, (11.0, np.pi, 0.1, QuadratureSpec(rel_tol=1e-8))),
        (quadrature._tail, (10.0, np.pi, 0.1, QuadratureSpec(max_panels=1))),  # one term: nothing to average
        (quadrature._bisection, (1.0, 40.0, QuadratureSpec(rel_tol=1e-12), ())),  # bisected in the same sweeps
    ]
    outcomes = quadrature._integrate_many(f, _jobs(jobs))
    assert isinstance(outcomes[1], QuadratureError) and outcomes[1].panels == 10
    assert isinstance(outcomes[3], QuadratureError) and outcomes[3].panels == 1
    assert outcomes[3].value is None
    for j, job in enumerate(jobs):
        _assert_same_outcome(outcomes[j], _alone_job(f, j, job))
    assert not any(isinstance(outcomes[j], QuadratureError) for j in (0, 2, 4))


@pytest.mark.parametrize(
    "integrand", [lambda x: 1.0 / (x - 0.5), lambda x: (x - 0.5) / (x - 0.5)], ids=["inf", "nan"]
)
def test_a_value_not_finite_ends_the_job_after_one_panel_call(monkeypatch, integrand):
    # the midpoint 0.5 is an abscissa of the first panel; such a panel used
    # to stay unsplit while bisection spent the whole budget around it
    count, panel = [0], quadrature._panel

    def counted(*args):
        count[0] += 1
        return panel(*args)

    monkeypatch.setattr(quadrature, "_panel", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning would raise here
        with pytest.raises(QuadratureError, match=r"^integrand not finite on the panel \[0\.0, 1\.0\]$") as info:
            adaptive_gauss(integrand, 0.0, 1.0)
    assert count[0] == 1
    assert info.value.value is None and info.value.error_estimate is None


def test_a_job_not_finite_does_not_stop_its_neighbours():
    def f(x, which):
        return np.where(which == 0, np.sin(20.0 * x), np.log(x - 1.0))  # NaN below x = 1

    jobs = [
        (quadrature._bisection, (0.0, 3.0, QuadratureSpec(rel_tol=1e-12), ())),
        (quadrature._bisection, (0.0, 3.0, QuadratureSpec(rel_tol=1e-12), [2.0])),
        (quadrature._tail, (0.0, 1.0, 0.0, QuadratureSpec(rel_tol=1e-12))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = quadrature._integrate_many(f, _jobs(jobs))
    assert str(outcomes[1]) == "integrand not finite on the panel [0.0, 2.0]"
    assert str(outcomes[2]) == "integrand not finite on the panel [0.0, 1.0]"
    for j, job in enumerate(jobs):
        _assert_same_outcome(outcomes[j], _alone_job(f, j, job))
    assert_allclose(outcomes[0][0], (1.0 - np.cos(60.0)) / 20.0, rtol=1e-11)


def test_many_jobs_share_integrand_calls_of_at_most_128_panels(monkeypatch):
    # every batch goes through quadrature._panel, and one call carries
    # panels of several jobs but never more than 128
    batches, calls = [], []
    panel = quadrature._panel

    def counted(f, lefts, rights):
        batches.append(lefts.size)
        return panel(f, lefts, rights)

    def f(x, which):
        calls.append((x.size, np.unique(which).size))
        return np.sin((100.0 + 100.0 * which) * x)

    monkeypatch.setattr(quadrature, "_panel", counted)
    jobs = [quadrature._bisection(0.0, 10.0, QuadratureSpec(rel_tol=1e-12)) for _ in range(5)]
    outcomes = quadrature._integrate_many(f, jobs)
    panels = [outcome[2] for outcome in outcomes]
    assert [size for size, _ in calls] == [22 * n for n in batches]
    assert max(batches) == 128 and sum(batches) == sum(2 * p - 1 for p in panels)
    assert max(jobs for _, jobs in calls) > 1
    assert len(calls) < sum(len(_alone_calls(j)) for j in range(5))
    for j, outcome in enumerate(outcomes):
        w = 100.0 + 100.0 * j
        assert_allclose(outcome[0], (1.0 - np.cos(10.0 * w)) / w, rtol=1e-10)

    batches.clear()
    jobs = [quadrature._tail(10.0, np.pi, 0.1, QuadratureSpec(rel_tol=1e-14)) for _ in range(3)]
    tails = quadrature._integrate_many(lambda x, which: _tails(x) * (1.0 + which)[:, None], jobs)
    assert [t.panels for t in tails] == [64] * 3  # below the rule error of a half-period
    assert batches == [24, 48, 120]  # 8, 16, then 40 half-periods of each of the three jobs


def test_scalar_tail_returns_the_scalar_type_of_adaptive_gauss():
    spec = QuadratureSpec(rel_tol=1e-10)
    tail = _one_tail(lambda x: np.exp(-0.1 * x) * j0(x), 10.0, np.pi, 0.1, spec)
    head = adaptive_gauss(lambda x: np.exp(-0.1 * x) * j0(x), 0.0, 10.0, spec)
    assert type(tail[0]) is type(head[0]) is np.float64
    assert type(tail[1]) is type(head[1]) is np.float64


def test_bad_job_raises_before_any_integrand_call():
    calls = []

    def f(x, which):
        calls.append(x.size)
        return np.cos(x)

    jobs = [quadrature._bisection(0.0, 1.0), quadrature._tail(0.0, -1.0, 0.0, QuadratureSpec())]
    with pytest.raises(ParameterError, match="half_period"):
        quadrature._integrate_many(f, jobs)
    assert calls == []


@pytest.mark.parametrize(
    "call",
    [
        lambda f: adaptive_gauss(f, 0.0, 10**400),
        lambda f: adaptive_gauss(f, np.nan, 1.0),
        lambda f: _one_tail(f, np.inf, 1.0, 0.0, QuadratureSpec()),
        lambda f: _one_tail(f, np.nan, 1.0, 0.0, QuadratureSpec()),
        lambda f: _one_tail(f, 10**400, 1.0, 0.0, QuadratureSpec()),
        lambda f: _one_tail(f, 0.0, 10**400, 0.0, QuadratureSpec()),
        lambda f: _one_tail(f, 0.0, 1.0, 10**400, QuadratureSpec()),
    ],
    ids=[
        "gauss-b-1e400", "gauss-a-nan", "tail-a-inf", "tail-a-nan", "tail-a-1e400", "tail-half-period-1e400",
        "tail-dz-1e400",
    ],
)
def test_limits_not_finite_as_floats_raise_before_any_integrand_call(call):
    # the tail used to sum 64 half-periods of NaN, and 10**400 overflowed float()
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x)

    with pytest.raises(ParameterError):
        call(f)
    assert calls == []


@pytest.mark.parametrize(
    "call",
    [
        lambda f: adaptive_gauss(f, 0, 10**5000),
        lambda f: _one_tail(f, 0, 10**5000, 0, QuadratureSpec()),
        lambda f: _one_tail(f, 10**5000, 1, 0, QuadratureSpec()),
        lambda f: _one_tail(f, 0, 1, 10**5000, QuadratureSpec()),
    ],
    ids=["gauss-b", "tail-half-period", "tail-a", "tail-dz"],
)
def test_limits_too_long_to_print_raise_parameter_error(call):
    # formatting 10**5000 into the message raised ValueError from str()
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(x)

    with pytest.raises(ParameterError, match="an integer of about 5000 digits"):
        call(f)
    assert calls == []


def test_limit_messages_show_floats_as_str():
    with pytest.raises(ParameterError, match=r"^integration interval \[0\.0, inf\] must be finite$"):
        adaptive_gauss(np.cos, np.float64(0.0), np.inf)
    with pytest.raises(ParameterError, match="^a must be >= 0 and finite, got nan$"):
        _one_tail(np.cos, np.float64(np.nan), 1.0, 0.0, QuadratureSpec())


def test_breakpoints_outside_the_interval_are_dropped_before_float():
    # float(10**400) overflows; a point outside (a, b) seeds nothing anyway
    got = adaptive_gauss(np.cos, 0.0, 1.0, breakpoints=[10**400, -(10**400), 0.5])
    assert got == adaptive_gauss(np.cos, 0.0, 1.0, breakpoints=[0.5])


def test_a_finished_job_is_never_evaluated_again():
    # job 0 is exact on its first panel and job 1 converges on its first 8
    # half-periods; job 2 needs many sweeps.  Each job's abscissae are those
    # of the panels it evaluated (a bisection of one panel evaluates 2p - 1
    # for p kept), and the finished jobs drop out after sweep 1.
    seen = []

    def f(x, which):
        seen.append(which)
        return np.where(which == 0, x**3, np.where(which == 1, np.exp(-x) * np.cos(x), _oscillating(x)))

    jobs = [
        quadrature._bisection(0.0, 1.0),
        quadrature._tail(0.0, np.pi, 1.0, QuadratureSpec(rel_tol=1e-6)),
        quadrature._bisection(0.0, 3.0, QuadratureSpec(rel_tol=1e-12)),
    ]
    outcomes = quadrature._integrate_many(f, jobs)
    assert [outcome[2] for outcome in outcomes[:2]] == [1, 8] and len(seen) > 2
    for j, evaluated in enumerate([1, 8, 2 * outcomes[2][2] - 1]):
        assert sum(np.count_nonzero(which == j) for which in seen) == 22 * evaluated
    assert not any(np.isin(which, (0, 1)).any() for which in seen[1:])


def _alone_calls(j):
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin((100.0 + 100.0 * j) * x)

    adaptive_gauss(f, 0.0, 10.0, QuadratureSpec(rel_tol=1e-12))
    return calls
