import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from vdwsurf import (
    Atom,
    HalfSpaceSystem,
    Material,
    MaterialKind,
    ParameterError,
    SingularityError,
    UnsupportedModelError,
    cavity_mode_frequency,
    local_field_factor,
    polarizability,
    preset,
    preset_names,
    resonant_inv_avg_eps,
    surface_mode_frequency,
)
from vdwsurf._carray import operand
from vdwsurf.interaction import _polarizability
from vdwsurf.materials import _screening_zeros

# Frozen by direct hand evaluation of the oscillator's rational form with
# eta=2.71, eps0=6.57, gamma=0.015 and the surface mode pinned at 1.
EPS_AT_SURFACE_MODE = -0.9967922691838083 + 0.10904307309995373j
AVG_EPS_AT_SURFACE_MODE = 0.0016038654080958725 + 0.054521536549976865j
OMEGA_T = 0.7000660470822813


class TestMaterialEval:
    def test_static_limit(self, sapphire):
        assert_allclose(sapphire.eps(0.0), 6.57, rtol=1e-14)

    def test_background_limit(self, sapphire):
        assert_allclose(sapphire.eps(1e9).real, 2.71, rtol=1e-6)

    def test_value_at_surface_mode(self, sapphire):
        assert_allclose(sapphire.eps(1.0), EPS_AT_SURFACE_MODE, rtol=1e-12)

    def test_vacuum_equals_unit_constant(self):
        vac = Material.vacuum()
        unit = Material.constant(1.0, 1.0)
        for w in (0.0, 0.3, 2.0, 1j * 0.7):
            assert vac.eps(w) == unit.eps(w) == 1.0
            assert vac.mu(w) == unit.mu(w) == 1.0

    def test_constant_mu(self):
        assert Material.constant(4.0, mu=2.0).mu(0.5) == 2.0
        assert Material.vacuum().mu(0.5) == 1.0
        assert preset("sapphire-ir").mu(0.5) == 1.0

    def test_imaginary_axis_is_real(self, sapphire):
        for xi in (0.0, 0.2, 1.0, 7.5):
            val = sapphire.eps(1j * xi)
            assert val.imag == 0.0
            assert_allclose(val.real, sapphire.eps_imag(xi), rtol=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            Material.lorentz(eta=2.0, eps0=1.5, omega_t=1.0, gamma=0.1)  # eps0 <= eta
        with pytest.raises(ParameterError):
            Material.lorentz(eta=0.5, eps0=3.0, omega_t=1.0, gamma=0.1)  # eta < 1
        with pytest.raises(ParameterError):
            Material.lorentz(eta=2.0, eps0=3.0, omega_t=-1.0, gamma=0.1)
        with pytest.raises(ParameterError):
            Material.lorentz(eta=2.0, eps0=3.0, omega_t=1.0, gamma=-0.1)
        with pytest.raises(ParameterError):
            Material.constant(float("inf"))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps0": float("inf")},
            {"gamma": float("inf")},
            {"omega_t": float("inf")},
            {"eta": float("nan")},
        ],
    )
    def test_non_finite_oscillator_parameters_rejected(self, kwargs):
        params = {"eta": 2.0, "eps0": 3.0, "omega_t": 1.0, "gamma": 0.1, **kwargs}
        with pytest.raises(ParameterError):
            Material.lorentz(**params)

    def test_oscillator_resonance_whose_square_overflows_rejected(self):
        with pytest.raises(ParameterError, match="finite square") as info:
            Material.lorentz(eta=2.0, eps0=3.0, omega_t=1e160, gamma=0.1)
        assert info.value.field == "omega_t"

    def test_vacuum_with_other_constants_rejected(self):
        with pytest.raises(ParameterError) as info:
            Material(MaterialKind.VACUUM, eps_const=2.0)
        assert info.value.fields == ("eps_const", "mu_const")

    def test_non_finite_omega_max_rejected(self):
        with pytest.raises(ParameterError):
            HalfSpaceSystem(Material.vacuum(), Material.vacuum(), omega_max=float("inf"))

    def test_eps_over_arrays(self, sapphire):
        omegas = np.array([0.0, 0.5, 1.0, 2.0j, 1.3 + 0.2j])
        vals = sapphire.eps(omegas)
        assert vals.dtype == complex and vals.shape == omegas.shape
        assert [complex(v) for v in vals] == [sapphire.eps(complex(w)) for w in omegas]
        vac = Material.vacuum().eps(omegas.reshape(5, 1))
        assert vac.shape == (5, 1) and np.all(vac == 1.0)

    def test_eps_array_nan_at_exact_resonance(self):
        lossless = Material.lorentz(eta=2.0, eps0=3.0, omega_t=1.0, gamma=0.0)
        with pytest.raises(SingularityError):
            lossless.eps(1.0)
        vals = lossless.eps(np.array([0.5, 1.0, 1.5]))
        assert np.isnan(vals[1]) and np.all(np.isfinite(vals[[0, 2]]))

    @pytest.mark.parametrize(
        "medium",
        [
            Material.constant(2.25 + 0.1j),
            Material.vacuum(),
            Material.lorentz(eta=2.71, eps0=6.57, omega_t=0.7, gamma=0.015),
            Material.lorentz(eta=2.0, eps0=3.0, omega_t=1.0, gamma=0.0),
        ],
        ids=["constant", "vacuum", "damped", "undamped"],
    )
    @pytest.mark.parametrize("shape", ["float", "0-d", "1-d"])
    def test_eps_and_eps_imag_return_contract(self, medium, shape):
        # eps: a Python complex for a scalar, a fresh writable complex128 array
        # of the argument's shape for an array, NaN at an undamped resonance;
        # eps_imag: np.float64 for an oscillator at a 0-d xi, else a writable array
        # of xi's shape, float64 for an oscillator and complex128 for a constant
        omegas = np.array([0.5, 1.0, 1.5])  # 1.0: the undamped resonance
        x = {"float": 0.5, "0-d": np.array(0.5), "1-d": omegas}[shape]
        oscillator = medium.kind is MaterialKind.LORENTZ
        eps = medium.eps(x)
        if shape == "1-d":
            assert type(eps) is np.ndarray and eps.dtype == complex and eps.shape == (3,)
            assert eps.flags.writeable and eps.flags.owndata
            flagged = medium.gamma == 0.0 and oscillator
            assert np.isnan(eps).tolist() == [False, flagged, False]
            assert eps[0] == medium.eps(0.5)
            eps[:] = 0.0  # a fresh array: no later call sees the write
            assert medium.eps(omegas)[0] == medium.eps(0.5)
        else:
            assert type(eps) is complex
        xi = medium.eps_imag(x)
        if oscillator and shape != "1-d":
            assert type(xi) is np.float64
        else:
            assert type(xi) is np.ndarray and xi.shape == np.shape(x) and xi.flags.writeable
            assert xi.dtype == (float if oscillator else complex)
            xi[...] = 0.0
            assert np.all(medium.eps_imag(x) != 0.0)

    @given(st.floats(min_value=1e-3, max_value=3.0))
    def test_passivity_on_real_axis(self, omega):
        m = preset("sapphire-ir")
        assert m.eps(omega).imag > 0.0

    def test_lossless_has_real_response(self):
        m = Material.lorentz(eta=2.0, eps0=4.0, omega_t=1.0, gamma=0.0)
        assert m.eps(0.5).imag == 0.0

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=1e-6, max_value=5.0))
    def test_imaginary_axis_decreasing(self, xi, dxi):
        m = preset("sapphire-ir")
        hi, lo = m.eps_imag(xi), m.eps_imag(xi + dxi)
        assert m.eta <= lo < hi <= m.eps0


@pytest.mark.parametrize("xi", [-1.0, np.array([0.0, 2.0, -0.5])], ids=["scalar", "array"])
def test_eps_imag_rejects_a_negative_xi(sapphire, xi):
    with pytest.raises(ParameterError, match=r"^xi must be >= 0 ") as info:
        sapphire.eps_imag(xi)
    assert info.value.field == "xi"


class TestInterfaceQuantities:
    def test_avg_eps_vacuum(self, vacuum_system):
        assert vacuum_system.avg_eps(0.7) == 1.0

    def test_avg_eps_at_surface_mode(self, sapphire_system):
        assert_allclose(sapphire_system.avg_eps(1.0), AVG_EPS_AT_SURFACE_MODE, rtol=1e-12)

    def test_avg_eps_constant(self):
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(-3.0))
        assert sys_.avg_eps(1.0) == -1.0

    def test_local_field_factor_values(self, sapphire):
        assert local_field_factor(1.0) == 1.0
        assert_allclose(local_field_factor(1e12), 1.5, rtol=1e-11)
        # small damping puts the factor near 3 at the surface mode
        assert abs(abs(local_field_factor(sapphire.eps(1.0))) - 3.0) < 0.1

    def test_local_field_factor_pole(self):
        with pytest.raises(SingularityError):
            local_field_factor(-0.5)

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
    def test_local_field_fixed_point_only_at_unity(self, re, im):
        # the only fixed point with nonzero response is eps = 1 (eps = 0 is
        # the degenerate one)
        eps = complex(re, im)
        if abs(2 * eps + 1) < 1e-6:
            return
        fixed = local_field_factor(eps) == eps
        assert fixed == (eps in (1.0, 0.0))

    def test_mode_frequencies(self, sapphire):
        w_s = surface_mode_frequency(sapphire)
        w_c = cavity_mode_frequency(sapphire)
        # sqrt(7.57/3.71) and sqrt(14.14/6.42) times the resonance
        assert_allclose(w_s, 1.4284366513242235 * sapphire.omega_t, rtol=1e-14)
        assert_allclose(w_c, 1.484079584064819 * sapphire.omega_t, rtol=1e-14)
        assert_allclose(w_c / w_s, 1.04, rtol=5e-3)
        assert sapphire.omega_t < w_s < w_c
        ratio = math.sqrt(
            (2 * sapphire.eps0 + 1) * (sapphire.eta + 1)
            / ((2 * sapphire.eta + 1) * (sapphire.eps0 + 1))
        )
        assert_allclose(w_c / w_s, ratio, rtol=1e-15)

    def test_mode_frequency_degenerate_coupling(self):
        m = Material.lorentz(eta=3.0, eps0=3.0 + 1e-12, omega_t=0.8, gamma=0.0)
        assert_allclose(surface_mode_frequency(m), 0.8, rtol=1e-9)
        assert_allclose(cavity_mode_frequency(m), 0.8, rtol=1e-9)

    def test_mode_frequency_wrong_kind(self):
        with pytest.raises(UnsupportedModelError):
            surface_mode_frequency(Material.vacuum())
        with pytest.raises(UnsupportedModelError):
            cavity_mode_frequency(Material.constant(4.0))

    def test_mode_frequencies_are_the_vacuum_and_cavity_forms_bit_for_bit(self):
        # both are omega_t*sqrt((eps0 + c)/(eta + c)), at c = 1 and c = 1/2
        rng = np.random.default_rng(7)
        for eta, gap, omega_t in zip(rng.uniform(1, 20, 20000), rng.exponential(5, 20000), rng.exponential(1, 20000)):
            m = Material.lorentz(eta=eta, eps0=eta + gap + 1e-9, omega_t=omega_t + 1e-6, gamma=0.0)
            assert surface_mode_frequency(m) == math.sqrt((m.eps0 + 1.0) / (m.eta + 1.0)) * m.omega_t
            assert cavity_mode_frequency(m) == math.sqrt((2.0 * m.eps0 + 1.0) / (2.0 * m.eta + 1.0)) * m.omega_t

    @pytest.mark.parametrize(
        "upper, lower, zeros",
        [
            (Material.vacuum(), Material.constant(2.0), []),
            # eps = -c has no real solution for c in (-eps0, -eta)
            (Material.constant(-4.0), Material.lorentz(2.71, 6.57, 1.0, 0.0), []),
            (Material.constant(-8.0), Material.lorentz(2.71, 6.57, 1.0, 0.0), [math.sqrt(1.43 / 5.29)]),
            # equal omega_t: eps_u + eps_l = 0 only at sqrt((eps0_u + eps0_l)/(eta_u + eta_l)) omega_t
            (Material.lorentz(1.5, 3.0, 1.2, 0.0), Material.lorentz(2.0, 5.0, 1.2, 0.0), [1.2 * math.sqrt(8.0 / 3.5)]),
            # omega_t far below 1e-154 squares to 0 unless scaled
            (
                Material.lorentz(1.5, 3.0, 1e-200, 0.0),
                Material.lorentz(2.0, 5.0, 1e-200, 0.0),
                [1e-200 * math.sqrt(8.0 / 3.5)],
            ),
        ],
    )
    def test_screening_zeros(self, upper, lower, zeros):
        found = _screening_zeros(upper, lower)
        assert_allclose([w for w, _ in found], zeros, rtol=1e-15)
        assert all(damping == 0.0 for _, damping in found)
        assert _screening_zeros(lower, upper) == found

    @pytest.mark.parametrize("omega_t", [(0.6, 1.3), (1.3, 0.6)], ids=["upper-below", "upper-above"])
    def test_two_oscillator_zeros_are_the_roots_mpmath_brackets(self, omega_t):
        # oracle: the sum of the two undamped permittivities rises from -inf to
        # +inf between the resonances and from -inf to eta_u + eta_l above the
        # larger, so it has one zero in each; mpmath finds both by bracketing
        upper = Material.lorentz(1.5, 3.0, omega_t[0], 0.0)
        lower = Material.lorentz(2.0, 5.0, omega_t[1], 0.0)

        def total(w):
            return sum(m.eta + (m.eps0 - m.eta) * m.omega_t**2 / (m.omega_t**2 - w * w) for m in (upper, lower))

        lo, hi = sorted(omega_t)
        with mpmath.workdps(40):
            brackets = [(lo * (1 + mpmath.mpf(1e-12)), hi * (1 - mpmath.mpf(1e-12))), (hi * (1 + mpmath.mpf(1e-12)), 100 * hi)]
            want = sorted(float(mpmath.findroot(total, bracket, solver="anderson")) for bracket in brackets)
        found = _screening_zeros(upper, lower)
        assert_allclose(sorted(w for w, _ in found), want, rtol=1e-14)
        assert _screening_zeros(lower, upper) == found

    @pytest.mark.parametrize("c", [2.25 + 0.002j, -8.0 + 0.002j], ids=["above-eta", "below-eps0"])
    def test_lossy_constant_width_is_newtons_complex_zero(self, c):
        # oracle: Newton's method on the complex eps(omega) + c of the damped
        # oscillator; the zero sits at omega_0 - i*damping/2, which the closed
        # form gives to first order in gamma and Im c
        m = Material.lorentz(2.71, 6.57, 0.7, 1e-3)

        def f(w):
            return m.eta + (m.eps0 - m.eta) * m.omega_t**2 / (m.omega_t**2 - w * w - 1j * w * m.gamma) + c

        def df(w):
            return (m.eps0 - m.eta) * m.omega_t**2 * (2 * w + 1j * m.gamma) / (m.omega_t**2 - w * w - 1j * w * m.gamma) ** 2

        with mpmath.workdps(40):
            w = mpmath.mpc(m.omega_t * math.sqrt((m.eps0 + c.real) / (m.eta + c.real)))
            for _ in range(40):
                w -= f(w) / df(w)
            assert abs(f(w)) < 1e-30
        for found in (_screening_zeros(m, Material.constant(c)), _screening_zeros(Material.constant(c), m)):
            [(frequency, damping)] = found
            assert_allclose(frequency, float(w.real), rtol=1e-5)
            assert_allclose(damping, -2.0 * float(w.imag), rtol=1e-5)

    def test_preset_scaled_to_surface_mode(self, sapphire):
        # the preset derives its resonance from the pinned surface mode
        assert_allclose(surface_mode_frequency(sapphire), 1.0, rtol=1e-14)
        assert_allclose(sapphire.omega_t, OMEGA_T, rtol=1e-14)
        assert sapphire.gamma == 0.015

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="unknown material preset") as excinfo:
            preset("sapphirr")
        assert excinfo.value.fields == ("name",)
        assert "sapphire-ir" in preset_names()


class TestResonantInverseForm:
    def test_static_limit(self, sapphire):
        assert_allclose(resonant_inv_avg_eps(sapphire, 0.0), 2.0 / (6.57 + 1.0), rtol=1e-14)

    def test_high_frequency_limit(self, sapphire):
        assert_allclose(resonant_inv_avg_eps(sapphire, 1e9).real, 2.0 / (2.71 + 1.0), rtol=1e-6)

    @given(st.floats(min_value=0.0, max_value=3.0))
    def test_identity_with_direct_route(self, omega):
        m = preset("sapphire-ir")
        direct = 1.0 / (0.5 * (1.0 + m.eps(omega)))
        resonant = resonant_inv_avg_eps(m, omega)
        assert abs(resonant - direct) <= 1e-12 * abs(direct)

    def test_identity_bulk_random(self, sapphire):
        rng = np.random.default_rng(42)
        omegas = rng.uniform(0.0, 3.0, size=1000)
        for w in omegas:
            direct = 1.0 / (0.5 * (1.0 + sapphire.eps(w)))
            assert abs(resonant_inv_avg_eps(sapphire, w) - direct) <= 1e-12 * abs(direct)

    def test_wrong_kind(self):
        with pytest.raises(UnsupportedModelError):
            resonant_inv_avg_eps(Material.vacuum(), 1.0)


def test_system_validation():
    with pytest.raises(ParameterError):
        HalfSpaceSystem(upper=Material.vacuum(), lower=Material.vacuum(), omega_max=0.0)


def test_material_kind_exposed(sapphire):
    assert sapphire.kind is MaterialKind.LORENTZ
    assert Material.vacuum().kind is MaterialKind.VACUUM


_lorentz_media = st.builds(
    lambda eta, excess, omega_t, gamma: Material.lorentz(eta, eta + excess, omega_t, gamma),
    st.floats(min_value=1.0, max_value=10.0),
    st.floats(min_value=1e-3, max_value=20.0),
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=1e-6, max_value=2.0),
)
_atoms = st.builds(
    Atom,
    omega0=st.floats(min_value=0.05, max_value=10.0),
    gamma=st.floats(min_value=1e-6, max_value=2.0),
    alpha0=st.floats(min_value=0.1, max_value=10.0),
)
_frequencies = st.lists(st.floats(min_value=1e-3, max_value=20.0), min_size=1, max_size=8)


@given(medium=_lorentz_media, atom=_atoms, omegas=_frequencies)
def test_damped_response_is_passive(medium, atom, omegas):
    # Im eps >= 0 and Im alpha >= 0 at real omega > 0 (exp(-i omega t)
    # convention), on the scalar and on the array path
    for w in omegas:
        assert medium.eps(w).imag >= 0.0
        assert polarizability(atom, w).imag >= 0.0
    assert np.all(medium.eps(np.array(omegas)).imag >= 0.0)
    w = operand(np.array(omegas))
    assert np.all(_polarizability(atom, w * w, 1j * w).imag >= 0.0)


@given(medium=_lorentz_media, xis=_frequencies)
def test_imaginary_axis_permittivity_is_real_bounded_and_decreasing(medium, xis):
    xis = sorted([0.0, *xis])
    scalar = np.array([medium.eps(1j * xi) for xi in xis])
    array = medium.eps(1j * np.array(xis))
    slack = 4.0 * np.finfo(float).eps * medium.eps0
    for values in (scalar, array):
        assert np.all(values.imag == 0.0)
        assert np.all(values.real >= medium.eta - slack)
        assert np.all(values.real <= medium.eps0 + slack)
        assert np.all(np.diff(values.real) <= 0.0)
