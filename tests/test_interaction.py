import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from vdwsurf import (
    Atom,
    AtomPositions,
    HalfSpaceSystem,
    Material,
    ParameterError,
    QuadratureError,
    QuadratureSpec,
    SingularityError,
    UnsupportedModelError,
    ValidityWarning,
    enhancement_factor,
    force,
    local_field_factor,
    offresonant_potential,
    peak_enhancement_estimate,
    polarizability,
    resonant_inv_avg_eps,
    resonant_potential,
)
from vdwsurf import greens
from vdwsurf.interaction import resonant_terms

# Frozen by direct hand evaluation of the screened-coupling moduli for the
# sapphire parameters (eta=2.71, eps0=6.57, gamma=0.015, surface mode at 1).
G_AT_SURFACE_MODE = 2939.420916839977
G_NO_LF_AT_SURFACE_MODE = 336.115209686769
G_AT_CAVITY_MODE = 1228.3050679855373
ONSAGER_WEIGHT_AT_CAVITY_MODE = 79.66897405395851
CAVITY_MODE = 1.038953727971774
PEAK_ESTIMATE = 2936.87944216162


class TestPolarizability:
    def test_static_limit(self):
        a = Atom(omega0=0.8, gamma=0.05, alpha0=2.5)
        assert polarizability(a, 0.0) == 2.5

    def test_on_resonance_is_imaginary(self):
        a = Atom(omega0=1.0, gamma=0.1, alpha0=2.0)
        val = polarizability(a, 1.0)
        assert_allclose(val.real, 0.0, atol=1e-14)
        assert_allclose(val.imag, a.alpha0 * a.omega0 / a.gamma, rtol=1e-14)

    def test_imaginary_axis_value(self):
        a = Atom(omega0=0.8, gamma=0.04, alpha0=3.0)
        val = polarizability(a, 1j * a.omega0)
        assert val.imag == 0.0
        assert_allclose(val.real, a.alpha0 / (2.0 + a.gamma / a.omega0), rtol=1e-14)

    def test_undamped_pole(self):
        a = Atom(omega0=1.0, gamma=0.0)
        with pytest.raises(SingularityError):
            polarizability(a, 1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Atom(omega0=0.0)
        with pytest.raises(ParameterError):
            Atom(omega0=1.0, gamma=-0.1)
        with pytest.raises(ParameterError):
            Atom(omega0=1.0, alpha0=0.0)
        with pytest.raises(ParameterError):
            Atom(omega0=1.0, dipole_weight=-2.0)

    @pytest.mark.parametrize("name", ["omega0", "gamma", "alpha0", "dipole_weight", "offres_sign"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_parameters_rejected(self, name, value):
        kwargs = {"omega0": 1.0, name: value}
        with pytest.raises(ParameterError):
            Atom(**kwargs)

    @pytest.mark.parametrize("omega0", [1e160, 10**200, np.float64(1e160)], ids=["float", "int", "float64"])
    def test_transition_frequency_whose_square_overflows_rejected(self, omega0):
        # omega0**2 was inf, and inf - w**2 counted as a polarizability pole at every
        # frequency; a NumPy float was squared as given, with numpy's overflow warning
        with pytest.raises(ParameterError, match="finite square") as info:
            Atom(omega0=omega0)
        assert info.value.field == "omega0"

    @pytest.mark.parametrize("value", [0.0, -0.0, 7.0, -0.5, 2])
    def test_offres_sign_other_than_plus_or_minus_one_rejected(self, value):
        # 0.0 gave a silent -0.0 off-resonant column, 7.0 scaled it sevenfold
        with pytest.raises(ParameterError) as info:
            Atom(omega0=1.0, offres_sign=value)
        assert info.value.field == "offres_sign"


class TestEnhancementFactor:
    def test_sapphire_at_surface_mode(self, sapphire_system):
        g, g_no = enhancement_factor(sapphire_system, 1.0)
        assert_allclose(g, G_AT_SURFACE_MODE, rtol=1e-12)
        assert_allclose(g_no, G_NO_LF_AT_SURFACE_MODE, rtol=1e-12)
        assert 8.5 <= g / g_no <= 9.1

    def test_sapphire_at_cavity_mode(self, sapphire_system):
        g, _ = enhancement_factor(sapphire_system, CAVITY_MODE)
        assert_allclose(g, G_AT_CAVITY_MODE, rtol=1e-12)

    def test_factorized_identity(self, sapphire_system):
        # g equals g_no_lf times both squared Onsager factors
        for w in np.linspace(0.3, 2.0, 40):
            g, g_no = enhancement_factor(sapphire_system, w)
            d_u = local_field_factor(sapphire_system.upper.eps(w))
            d_l = local_field_factor(sapphire_system.lower.eps(w))
            assert abs(g - g_no * abs(d_u * d_l) ** 2) <= 1e-12 * g

    def test_free_space_reduction(self, vacuum_system):
        for w in np.linspace(0.1, 5.0, 1000):
            g, g_no = enhancement_factor(vacuum_system, w)
            assert g == g_no == 1.0

    def test_lossless_surface_mode_singularity(self):
        lossless = Material.lorentz(eta=2.71, eps0=6.57, omega_t=0.7000660470822813, gamma=0.0)
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=lossless)
        with pytest.raises(SingularityError):
            enhancement_factor(sys_, 1.0)

    def test_onsager_weight_at_cavity_mode(self, sapphire_system, sapphire):
        d_u = local_field_factor(1.0)
        d_l = local_field_factor(sapphire.eps(CAVITY_MODE))
        assert_allclose(abs(d_u * d_l) ** 2, ONSAGER_WEIGHT_AT_CAVITY_MODE, rtol=1e-12)


class TestPeakEstimate:
    def test_sapphire_value(self, sapphire, sapphire_system):
        est = peak_enhancement_estimate(sapphire)
        assert_allclose(est, PEAK_ESTIMATE, rtol=1e-12)
        g, _ = enhancement_factor(sapphire_system, 1.0)
        assert abs(est / g - 1.0) < 0.02

    def test_damping_scaling(self):
        half = Material.lorentz_from_surface_mode(eta=2.71, eps0=6.57, omega_s=1.0, gamma=0.015)
        double = Material.lorentz_from_surface_mode(eta=2.71, eps0=6.57, omega_s=1.0, gamma=0.030)
        ratio = peak_enhancement_estimate(double) / peak_enhancement_estimate(half)
        # explicit gamma^-2 scaling; the cavity factor drags it a few percent
        assert_allclose(ratio, 0.25, rtol=0.10)
        exact_quarter = (
            peak_enhancement_estimate(double)
            * abs(local_field_factor(half.eps(1.0))) ** 2
            / abs(local_field_factor(double.eps(1.0))) ** 2
        )
        assert_allclose(exact_quarter / peak_enhancement_estimate(half), 0.25, rtol=1e-12)

    def test_vanishing_oscillator_strength(self):
        m = Material.lorentz(eta=3.0, eps0=3.0 + 1e-13, omega_t=1.0, gamma=0.01)
        assert peak_enhancement_estimate(m) < 1e-20

    def test_errors(self):
        with pytest.raises(UnsupportedModelError):
            peak_enhancement_estimate(Material.vacuum())
        with pytest.raises(SingularityError):
            peak_enhancement_estimate(Material.lorentz(eta=2.0, eps0=4.0, omega_t=1.0, gamma=0.0))


class TestResonantPotential:
    def test_free_space_near_static(self, vacuum_system):
        a = Atom(omega0=0.01)
        b = Atom(omega0=1.0, gamma=1e-4, alpha0=1.0)
        res = resonant_potential(vacuum_system, a, b)
        assert res.g == 1.0
        assert_allclose(res.u_resonant, -1.0, rtol=1e-3)

    def test_r6_law_in_absolute_units(self, sapphire_system, atom_b):
        a = Atom(omega0=0.95, dipole_weight=1.3)
        res = resonant_potential(sapphire_system, a, atom_b)
        u0 = lambda r: 2.0 * a.dipole_weight * atom_b.alpha0 / r**6
        r1, r2 = 0.01, 0.02
        assert_allclose(
            res.u_resonant * u0(r2) * r2**6, res.u_resonant * u0(r1) * r1**6, rtol=1e-14
        )

    def test_depends_only_on_distance(self, sapphire_system, atom_b):
        # the normalized potential carries no geometry at all
        a = Atom(omega0=0.95)
        res1 = resonant_potential(sapphire_system, a, atom_b, r=0.01)
        res2 = resonant_potential(sapphire_system, a, atom_b)
        assert res1 == res2

    def test_validity_warning(self, sapphire_system, atom_b):
        a = Atom(omega0=0.95)
        with pytest.warns(ValidityWarning):
            resonant_potential(sapphire_system, a, atom_b, r=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resonant_potential(sapphire_system, a, atom_b, r=0.01)

    def test_dispersive_feature_at_partner_resonance(self, sapphire_system, atom_b):
        # sign flip of u across omega_b: the atomic line is dispersive
        a_below = Atom(omega0=atom_b.omega0 - 5e-4)
        a_above = Atom(omega0=atom_b.omega0 + 5e-4)
        u_below = resonant_potential(sapphire_system, a_below, atom_b).u_resonant
        u_above = resonant_potential(sapphire_system, a_above, atom_b).u_resonant
        assert u_below < 0.0 < u_above


class TestOffresonantPotential:
    def test_london_reference_case(self, vacuum_system):
        a = Atom(omega0=0.8, alpha0=2.3, dipole_weight=1.7)
        b = Atom(omega0=1.9, alpha0=0.6)
        u = offresonant_potential(vacuum_system, a, b)
        london = (
            -(3.0 / np.pi)
            * a.alpha0
            * b.alpha0
            * (np.pi / 2.0)
            * a.omega0
            * b.omega0
            / (a.omega0 + b.omega0)
        ) / (2.0 * a.dipole_weight * b.alpha0)
        assert_allclose(u, london, rtol=1e-6)

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_london_property(self, wa, wb, alpha_a, weight_a):
        vac = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.vacuum())
        a = Atom(omega0=wa, alpha0=alpha_a, dipole_weight=weight_a)
        b = Atom(omega0=wb, alpha0=1.0)
        u = offresonant_potential(vac, a, b)
        london = -(3.0 / 2.0) * alpha_a * wa * wb / ((wa + wb) * 2.0 * weight_a)
        assert abs(u - london) <= 1e-6 * abs(london)

    def test_vanishing_polarizability_limit(self, vacuum_system):
        # alpha0 = 0 itself is outside the Atom contract; the integral is
        # linear in it, so the value vanishes with the polarizability
        b = Atom(omega0=1.9)
        u_unit = offresonant_potential(vacuum_system, Atom(omega0=0.8, alpha0=1.0), b)
        u_tiny = offresonant_potential(vacuum_system, Atom(omega0=0.8, alpha0=1e-12), b)
        assert_allclose(u_tiny, 1e-12 * u_unit, rtol=1e-9)
        assert abs(u_tiny) < 1e-11

    def test_excited_sign_convention(self, vacuum_system):
        a = Atom(omega0=0.8, offres_sign=-1.0)
        b = Atom(omega0=1.9)
        u_ground = offresonant_potential(vacuum_system, Atom(omega0=0.8), b)
        u_excited = offresonant_potential(vacuum_system, a, b)
        assert_allclose(u_excited, -u_ground, rtol=1e-14)

    def test_error_estimate_bounds_tolerance_change(self, sapphire_system, atom_b):
        from vdwsurf import QuadratureSpec

        a = Atom(omega0=1.0)
        coarse, err = offresonant_potential(
            sapphire_system, a, atom_b, quad=QuadratureSpec(rel_tol=1e-6), full_output=True
        )
        fine = offresonant_potential(
            sapphire_system, a, atom_b, quad=QuadratureSpec(rel_tol=5e-7)
        )
        assert abs(fine - coarse) <= max(err, 1e-6 * abs(coarse))

    def test_budget_error_carries_a_one_row_column(self, sapphire_system, atom_b):
        # the one-row call is a one-component integral: its error's payload is a column of one
        quad = QuadratureSpec(rel_tol=1e-12, max_panels=3)
        with pytest.raises(QuadratureError, match="no convergence within 3 panels") as info:
            offresonant_potential(sapphire_system, Atom(omega0=1.0), atom_b, quad=quad)
        assert info.value.value.shape == info.value.error_estimate.shape == (1,)

    def test_budget_error_payload_is_in_units_of_u0(self, sapphire_system):
        # the payload is scaled like the return value; the message keeps the integral over t
        a, b = Atom(omega0=1.0, dipole_weight=0.5), Atom(omega0=0.9, gamma=1e-3, alpha0=2.0)
        converged, estimate = offresonant_potential(sapphire_system, a, b, full_output=True)
        quad = QuadratureSpec(rel_tol=1e-12, max_panels=3)
        with pytest.raises(QuadratureError, match=r"no convergence within 3 panels \(error estimate 3\.3") as info:
            offresonant_potential(sapphire_system, a, b, quad=quad)
        assert_allclose(info.value.value, [converged], rtol=1e-6)
        assert 0.0 < info.value.error_estimate[0] < 1e-6 * abs(converged)
        assert estimate < info.value.error_estimate[0]

    def test_small_against_resonant_near_surface_mode(self, sapphire_system, atom_b):
        a = Atom(omega0=1.0)
        res = resonant_potential(sapphire_system, a, atom_b)
        u_or = offresonant_potential(sapphire_system, a, atom_b)
        assert abs(u_or) < 1e-3 * abs(res.u_resonant)


class TestForce:
    POS = AtomPositions([0.0, 0.0, 0.004], [0.003, 0.0, -0.002])

    def test_newton_third_law(self, sapphire_system, atom_b):
        f_a, f_b = force(sapphire_system, Atom(omega0=0.95), atom_b, self.POS)
        assert np.array_equal(f_a, -f_b)

    def test_attractive_when_partner_response_positive(self, sapphire_system, atom_b):
        a = Atom(omega0=0.5)  # below the partner resonance: Re alpha_B > 0
        f_a, _ = force(sapphire_system, a, atom_b, self.POS)
        rhat = self.POS.r_vec / self.POS.distance
        assert float(f_a @ rhat) < 0.0

    def test_matches_numeric_gradient(self, sapphire_system, atom_b):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r_a = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.2, 1.0)]) * 1e-2
            r_b = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), -rng.uniform(0.2, 1.0)]) * 1e-2
            pos = AtomPositions(r_a, r_b)
            a = Atom(omega0=rng.uniform(0.4, 1.2), dipole_weight=rng.uniform(0.5, 2.0))
            f_a, _ = force(sapphire_system, a, atom_b, pos)
            res = resonant_potential(sapphire_system, a, atom_b)
            dist = pos.distance

            def u_abs(r):
                return res.u_resonant * 2.0 * a.dipole_weight * atom_b.alpha0 / r**6

            h = 1e-6 * dist
            du = (u_abs(dist + h) - u_abs(dist - h)) / (2.0 * h)
            expected = -du * pos.r_vec / dist
            assert_allclose(f_a, expected, rtol=1e-6)


_POS = AtomPositions([0.0, 0.0, 0.01], [0.02, 0.0, -0.01])
_FREQUENCY_ENTRY_POINTS = {
    "fresnel_t": (lambda system, w: greens.fresnel_t(system, w, 0.5), "omega"),
    "kspace_green": (lambda system, w: greens.kspace_green(system, w, 0.5, 0.01, -0.01), "omega"),
    "sommerfeld_green": (lambda system, w: greens.sommerfeld_green(system, w, _POS), "omega"),
    "nonretarded_limit_check": (lambda system, w: greens.nonretarded_limit_check(system, w, _POS, (0.1,)), "omega"),
    "nonretarded_green": (lambda system, w: greens.nonretarded_green(system, w, _POS), "omega"),
    "enhancement_factor": (lambda system, w: enhancement_factor(system, w), "omega_a"),
    "resonant_terms": (lambda system, w: resonant_terms(system, [0.5, w]), "omega"),
    "polarizability": (lambda system, w: polarizability(Atom(omega0=0.8, gamma=0.0), w), "omega"),
    # the material response: these returned NaN, and ended in an OverflowError for 10**400
    "eps": (lambda system, w: system.lower.eps(w), "omega"),
    "eps_imag": (lambda system, w: system.lower.eps_imag(w), "xi"),
    "avg_eps": (lambda system, w: system.avg_eps(w), "omega"),
    "resonant_inv_avg_eps": (lambda system, w: resonant_inv_avg_eps(system.lower, w), "omega"),
}
_RESPONSE = ("eps", "eps_imag", "avg_eps", "resonant_inv_avg_eps")


_NON_FINITE = [(entry, w) for entry in sorted(_FREQUENCY_ENTRY_POINTS) for w in (np.inf, np.nan)] + [
    ("nonretarded_green", complex(0.0, np.inf)),  # these two accept complex frequencies
    ("polarizability", complex(0.0, np.inf)),
] + [
    pytest.param(entry, w, id=f"{entry}-{name}")
    for entry in _RESPONSE
    for name, w in [
        ("-inf", -np.inf),
        ("1+infj", complex(1.0, np.inf)),
        ("array-with-nan", np.array([0.5, np.nan])),
        ("array-with-1e400", np.array([0.5, 10**400], dtype=object)),
    ]
]


@pytest.mark.parametrize("entry, omega", _NON_FINITE)
def test_non_finite_frequency_rejected(sapphire_system, entry, omega):
    # an infinite frequency used to give all-NaN tensors and coefficients,
    # or errors about abs_tol or an undamped resonance at inf
    run, field = _FREQUENCY_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError) as info:
            run(sapphire_system, omega)
    assert info.value.field == field and field in str(info.value)


@pytest.mark.parametrize("entry", sorted(_FREQUENCY_ENTRY_POINTS))
def test_frequency_beyond_the_float_range_rejected(sapphire_system, entry):
    # an integer beyond the float range used to overflow complex(omega) or
    # the float array of frequencies before the finiteness check
    run, field = _FREQUENCY_ENTRY_POINTS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError) as info:
            run(sapphire_system, 10**400)
    assert info.value.field == field and field in str(info.value)


# the entry points that take a real frequency only
_REAL_FREQUENCY = (
    "enhancement_factor",
    "eps_imag",
    "fresnel_t",
    "kspace_green",
    "nonretarded_limit_check",
    "resonant_terms",
    "sommerfeld_green",
)


@pytest.mark.parametrize("omega", [1.0 + 1.0j, 1.0 + 0.0j], ids=["1+1j", "1+0j"])
@pytest.mark.parametrize("entry", _REAL_FREQUENCY)
def test_complex_frequency_rejected_where_a_real_one_is_needed(sapphire_system, entry, omega):
    # resonant_terms dropped the imaginary part with only a ComplexWarning,
    # and enhancement_factor ended in a TypeError
    run, field = _FREQUENCY_ENTRY_POINTS[entry]
    rule = ">= 0" if field == "xi" else "positive"
    shown = "(0.5+0j)" if entry == "resonant_terms" else repr(omega)  # [0.5, omega] is complex from its first element
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError) as info:
            run(sapphire_system, omega)
    assert str(info.value) == f"{field} must be {rule} and finite, got {shown}" and info.value.field == field


@pytest.mark.parametrize("entry", ["enhancement_factor", "resonant_terms", "eps"])
def test_numpy_scalars_are_shown_as_python_numbers(sapphire_system, entry):
    # messages read "got np.float64(nan)"
    run, field = _FREQUENCY_ENTRY_POINTS[entry]
    rule = "finite" if entry == "eps" else "positive and finite"
    with pytest.raises(ParameterError, match=rf"^{field} must be {rule}, got nan$"):
        run(sapphire_system, np.float64(np.nan))


def test_force_at_separations_beyond_the_float_range(sapphire_system, atom_b):
    # R**7 underflowed to 0 at R = 2e-60 (a ZeroDivisionError) and overflowed
    # at R = 2e50 (an OverflowError)
    atom_a = Atom(omega0=0.8)
    far, near = (AtomPositions([0.0, 0.0, z], [0.0, 0.0, -z]) for z in (1e50, 1e-60))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f_a, f_b = force(sapphire_system, atom_a, atom_b, far)
        assert np.all(f_a == 0.0) and np.all(f_b == 0.0)
        with pytest.raises(ParameterError, match=r"^the force is not finite at R = 2e-60: 1/R\*\*7 beyond") as info:
            force(sapphire_system, atom_a, atom_b, near)
    assert info.value.field == "pos"


@pytest.mark.parametrize("r", [0.0, -1.0, np.inf, np.nan, 10**400], ids=["zero", "negative", "inf", "nan", "1e400"])
@pytest.mark.parametrize("potential", [resonant_potential, offresonant_potential])
def test_separation_must_be_positive_and_finite(sapphire_system, atom_b, potential, r):
    # r = 10**400 overflowed and r = 0 named no field
    with pytest.raises(ParameterError) as info:
        potential(sapphire_system, Atom(omega0=1.0), atom_b, r=r)
    assert info.value.field == "r"
