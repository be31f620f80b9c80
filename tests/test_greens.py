import importlib.util
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import jv

from vdwsurf import (
    AtomPositions,
    HalfSpaceSystem,
    Material,
    NonretardedLimitReport,
    ParameterError,
    QuadratureError,
    QuadratureSpec,
    SingularityError,
    enhancement_factor,
    fresnel_t,
    kspace_green,
    local_field_factor,
    near_field_tensor,
    nonretarded_green,
    nonretarded_limit_check,
    preset,
    resonant_terms,
    sommerfeld_green,
    transmission_green,
)
from vdwsurf.greens import (
    COMPONENTS,
    LimitRatio,
    _COMPONENT_INDEX,
    _Kernel,
    _bessel_j012,
    _bessel_table,
    _radial_integrand,
    _upward_root,
)
from vdwsurf.quadrature import _bisection, _integrate_many, _result, adaptive_gauss


def free_space_green(r_vec, omega):
    """Oracle: textbook retarded dipole tensor for [curl curl - w^2]G = 4*pi*I*delta."""
    r_vec = np.asarray(r_vec, float)
    dist = np.linalg.norm(r_vec)
    rhat = r_vec / dist
    kr = omega * dist
    iso = 1.0 + (1j * kr - 1.0) / kr**2
    rad = (3.0 - 3j * kr - kr**2) / kr**2
    return np.exp(1j * kr) / dist * (iso * np.eye(3) + rad * np.outer(rhat, rhat))


POS = AtomPositions([0.2, 0.1, 0.3], [-0.3, 0.6, -0.4])


class TestAtomPositions:
    def test_geometry_accessors(self):
        pos = AtomPositions([1.0, 2.0, 3.0], [0.0, 2.0, -1.0])
        assert_allclose(pos.r_vec, [1.0, 0.0, 4.0])
        assert_allclose(pos.distance, np.sqrt(17.0))
        assert_allclose(pos.rho, 1.0)
        assert_allclose(pos.scaled(0.5).r_vec, [0.5, 0.0, 2.0])

    @pytest.mark.parametrize(
        "r_a,r_b",
        [([0, 0, -1], [0, 0, -2]), ([0, 0, 1], [0, 0, 2]), ([0, 0, 0], [0, 0, -1])],
    )
    def test_side_invariant(self, r_a, r_b):
        with pytest.raises(ParameterError):
            AtomPositions(r_a, r_b)


class TestBranch:
    @given(
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_upward_root(self, re, im):
        w = complex(_upward_root(complex(re, im)))
        assert w.imag >= 0.0
        if w.imag == 0.0:
            assert w.real >= 0.0
        assert_allclose(w * w, complex(re, im), atol=1e-12)

    def test_evanescent_decay_in_kernel(self, sapphire_system):
        # k beyond every light line: the kernel must decay with height
        omega, k = 0.8, 5.0
        mags = [
            np.max(np.abs(kspace_green(sapphire_system, omega, k, z_a, -0.2)))
            for z_a in (0.1, 0.4, 0.9)
        ]
        assert mags[0] > mags[1] > mags[2]


class TestFresnel:
    def test_matched_interface(self):
        sys_ = HalfSpaceSystem(
            upper=Material.constant(2.0 + 0.1j, mu=1.5),
            lower=Material.constant(2.0 + 0.1j, mu=1.5),
        )
        for k in (0.0, 0.5, 2.0, 7.0):
            tp, ts = fresnel_t(sys_, 1.0, k)
            assert_allclose(tp, 1.0, rtol=1e-14)
            assert_allclose(ts, 1.0, rtol=1e-14)

    def test_normal_incidence_into_dielectric(self):
        # vacuum above, eps=4 below, k=0: beta=w, beta_m=2w
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(4.0))
        tp, ts = fresnel_t(sys_, 1.0, 0.0)
        assert_allclose(ts, 2.0 / 3.0, rtol=1e-14)
        assert_allclose(tp, 2.0 / 3.0, rtol=1e-14)

    def test_evanescent_near_surface_mode_pole(self):
        # eps_m ~ -1 with small loss: |t_p| blows up for k >> w
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(-1.0 + 0.11j))
        tp, _ = fresnel_t(sys_, 1.0, 30.0)
        assert abs(tp) > 10.0

    def test_denominator_within_the_shared_pole_rule_is_rejected(self):
        # vacuum over a lossless eps = -2: den_p vanishes at k = sqrt(2)*omega
        # and grows as about 2.1*(k - sqrt(2)) beside it, against the kernel's
        # scale omega*(|eps_u| + |eps_l| + |mu_u| + |mu_l|) = 5
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(-2.0))
        near = np.sqrt(2.0) + 2.4e-13  # |den_p| about 1e-13 of the scale
        with pytest.raises(SingularityError):
            fresnel_t(sys_, 1.0, near)
        with pytest.raises(SingularityError):
            kspace_green(sys_, 1.0, near, 0.5, -0.5)
        tp, _ = fresnel_t(sys_, 1.0, np.sqrt(2.0) + 1e-11)  # about 4e-12 of the scale
        assert abs(tp) > 1e10

    @pytest.mark.parametrize("lower", [Material.constant(-1.0), Material.constant(2.0 + 0.1j, mu=-1.0)])
    def test_finite_where_the_quasi_static_limit_has_a_pole(self, lower):
        # eps_u + eps_l = 0 or mu_u + mu_l = 0 is a pole of the Sommerfeld
        # integrand's k -> infinity limit only, not of the kernel at finite k
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=lower)
        assert np.all(np.isfinite(fresnel_t(sys_, 1.0, 0.5)))
        assert np.all(np.isfinite(kspace_green(sys_, 1.0, 0.5, 0.3, -0.2)))

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_zero_index_medium_is_the_limit_of_a_small_eps(self, side):
        # eps = 0 gives an index of 0, which the kernel once divided by
        # (ZeroDivisionError); p = 2/(omega^2 den_p) does not
        def system(eps):
            media = {"upper": Material.vacuum(), "lower": Material.constant(2.25 + 0.1j), side: Material.constant(eps)}
            return HalfSpaceSystem(**media)

        zero, small = system(0.0), system(1e-20)
        for k in (0.5, 3.0):
            t = fresnel_t(zero, 1.0, k)
            assert np.all(np.isfinite(t))
            assert_allclose(t, fresnel_t(small, 1.0, k), rtol=1e-9, atol=1e-9)  # t_p ~ sqrt(eps) -> 0
            g = kspace_green(zero, 1.0, k, 0.3, -0.2)
            assert np.all(np.isfinite(g))
            assert_allclose(g, kspace_green(small, 1.0, k, 0.3, -0.2), rtol=1e-9, atol=1e-9 * np.max(np.abs(g)))

    def test_invalid_arguments(self, vacuum_system):
        with pytest.raises(ParameterError):
            fresnel_t(vacuum_system, -1.0, 0.5)
        with pytest.raises(ParameterError):
            fresnel_t(vacuum_system, 1.0, -0.5)


class TestKspaceKernel:
    def test_matched_vacuum_reduces_to_free_space_kernel(self, vacuum_system):
        # t_p = t_s = 1: kernel is the free-space angular-spectrum dyad
        omega, k, z_a, z_b = 1.2, 0.7, 0.4, -0.3
        beta = np.sqrt(complex(omega**2 - k**2))
        p_up = np.array([beta, 0.0, -k]) / omega
        s_dyad = np.zeros((3, 3), complex)
        s_dyad[1, 1] = 1.0
        expected = (
            2j * np.pi / beta
            * np.exp(1j * beta * (z_a - z_b))
            * (np.outer(p_up, p_up) + s_dyad)
        )
        assert_allclose(kspace_green(vacuum_system, omega, k, z_a, z_b), expected, rtol=1e-13)

    def test_s_block_is_transverse(self, sapphire_system):
        g = kspace_green(sapphire_system, 0.9, 1.7, 0.5, -0.2)
        # middle row/column hold only the s contribution; z row/column of it vanish
        assert g[1, 0] == g[0, 1] == g[1, 2] == g[2, 1] == 0.0

    def test_z_ordering_enforced(self, sapphire_system):
        with pytest.raises(ParameterError, match="z_a > 0 > z_b") as excinfo:
            kspace_green(sapphire_system, 0.9, 1.0, -0.5, -0.2)
        assert excinfo.value.fields == ("z_a", "z_b")

    def test_grazing_singularity(self, vacuum_system):
        with pytest.raises(SingularityError):
            kspace_green(vacuum_system, 1.0, 1.0, 0.5, -0.5)

    def test_grazing_upper_wave_over_a_dielectric(self):
        # beta = 0 while beta_m = 1 and the Fresnel denominators stay finite
        sys_ = HalfSpaceSystem(Material.vacuum(), Material.constant(2.0))
        with pytest.raises(SingularityError, match="grazing kernel beta = 0"):
            kspace_green(sys_, 1.0, 1.0, 0.5, -0.5)


class TestNonretarded:
    def test_vacuum_is_free_space_near_field(self, vacuum_system):
        omega = 0.3
        g = nonretarded_green(vacuum_system, omega, POS)
        assert_allclose(g, near_field_tensor(POS.r_vec) / omega**2, rtol=1e-14)

    def test_trace_identity(self, sapphire_system):
        # Tr[(3 rr - I)^2] = 6 fixes the trace of the squared tensor
        omega = 0.5
        g = nonretarded_green(sapphire_system, omega, POS)
        d_u = local_field_factor(sapphire_system.upper.eps(omega))
        d_l = local_field_factor(sapphire_system.lower.eps(omega))
        pref = d_u * d_l / (omega**2 * sapphire_system.avg_eps(omega))
        assert_allclose(np.trace(g @ g), 6.0 * pref**2 / POS.distance**6, rtol=1e-12)

    def test_power_of_two_scaling_is_exact(self, sapphire_system):
        g1 = nonretarded_green(sapphire_system, 0.5, POS)
        g2 = nonretarded_green(sapphire_system, 0.5, POS.scaled(2.0))
        assert np.array_equal(g2, g1 / 8.0)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25)
    def test_inverse_cube_scaling(self, lam):
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(2.0 + 0.3j))
        g1 = nonretarded_green(sys_, 0.5, POS)
        g2 = nonretarded_green(sys_, 0.5, POS.scaled(lam))
        assert_allclose(g2, g1 / lam**3, rtol=1e-12)

    def test_reciprocity_exact(self, sapphire_system):
        omega = 0.8
        g_ab = nonretarded_green(sapphire_system, omega, POS)
        # swapped arguments only flip the separation; the tensor is even in it
        prefactor_tensor = near_field_tensor(-POS.r_vec)
        g_ba = prefactor_tensor / (omega**2 * sapphire_system.avg_eps(omega))
        g_ba = g_ba * (
            local_field_factor(sapphire_system.upper.eps(omega))
            * local_field_factor(sapphire_system.lower.eps(omega))
        )
        trace_forward = np.trace(g_ab @ g_ba)
        trace_backward = np.trace(g_ba @ g_ab)
        assert abs(trace_forward - trace_backward) <= 1e-10 * abs(trace_forward)
        assert_allclose(g_ba, g_ab, rtol=1e-15)

    def test_imaginary_axis(self, sapphire_system):
        g = nonretarded_green(sapphire_system, 1j * 0.4, POS)
        assert_allclose(g.imag, 0.0, atol=1e-15)

    def test_lossless_surface_mode_singularity(self):
        lossless = Material.lorentz(eta=2.71, eps0=6.57, omega_t=0.7000660470822813, gamma=0.0)
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=lossless)
        with pytest.raises(SingularityError):
            nonretarded_green(sys_, 1.0, POS)


class TestSommerfeld:
    def test_matched_vacuum_equals_free_space(self, vacuum_system):
        for omega in (0.4, 1.3):
            got = sommerfeld_green(vacuum_system, omega, POS)
            want = free_space_green(POS.r_vec, omega)
            assert_allclose(got, want, rtol=2e-7, atol=1e-10)

    def test_on_axis_matched_vacuum(self, vacuum_system):
        pos = AtomPositions([0.0, 0.0, 0.35], [0.0, 0.0, -0.35])
        got = sommerfeld_green(vacuum_system, 1.0, pos)
        want = free_space_green([0.0, 0.0, 0.7], 1.0)
        assert_allclose(got, want, rtol=1e-7, atol=1e-10)

    def test_nonretarded_limit_on_axis(self, sapphire_system):
        # |z| n w / c ~ 1e-3: closed form and integral agree per component to 1%
        pos = AtomPositions([0.0, 0.0, 3e-4], [0.0, 0.0, -3e-4])
        got = sommerfeld_green(sapphire_system, 0.5, pos)
        want = nonretarded_green(sapphire_system, 0.5, pos)
        mask = np.abs(want) > 1e-12 * np.max(np.abs(want))
        assert_allclose(got[mask], want[mask], rtol=1e-2)

    def test_local_field_factorization_exact(self, sapphire_system):
        omega = 0.8
        with_lf = sommerfeld_green(sapphire_system, omega, POS)
        without = sommerfeld_green(sapphire_system, omega, POS, local_field=False)
        d_u = local_field_factor(sapphire_system.upper.eps(omega))
        d_l = local_field_factor(sapphire_system.lower.eps(omega))
        assert np.array_equal(with_lf, without * (d_u * d_l))

    def test_reciprocity_via_mirror_path(self, sapphire_system):
        omega = 0.8
        g_ab = transmission_green(sapphire_system, omega, POS.r_a, POS.r_b)
        g_ba = transmission_green(sapphire_system, omega, POS.r_b, POS.r_a)
        assert_allclose(g_ba.T, g_ab, rtol=1e-10)
        tr_ab = np.trace(g_ab @ g_ba)
        tr_ba = np.trace(g_ba @ g_ab)
        assert abs(tr_ab - tr_ba) <= 1e-10 * abs(tr_ab)

    def test_magnetic_media_reciprocity(self):
        sys_ = HalfSpaceSystem(
            upper=Material.constant(1.2 + 0.01j, mu=1.8 + 0.02j),
            lower=Material.constant(3.5 + 0.4j, mu=0.6 + 0.05j),
        )
        g_ab = transmission_green(sys_, 0.9, POS.r_a, POS.r_b)
        g_ba = transmission_green(sys_, 0.9, POS.r_b, POS.r_a)
        assert_allclose(g_ba.T, g_ab, rtol=1e-12)

    def test_magnetic_media_nonretarded_limit(self):
        # permeability must drop out of the instantaneous limit entirely
        sys_ = HalfSpaceSystem(
            upper=Material.constant(1.2 + 0.01j, mu=1.8 + 0.02j),
            lower=Material.constant(3.5 + 0.4j, mu=0.6 + 0.05j),
        )
        report = nonretarded_limit_check(sys_, 0.9, POS, [1e-3])
        assert report.passed(1e-4)

    def test_same_side_rejected(self, sapphire_system):
        with pytest.raises(ParameterError, match="opposite sides") as excinfo:
            transmission_green(sapphire_system, 0.8, [0, 0, 1.0], [0, 0, 2.0])
        assert excinfo.value.fields == ("r_obs", "r_src")

    def test_lossless_interface_mode_rejected(self):
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(-3.0))
        with pytest.raises(SingularityError):
            sommerfeld_green(sys_, 1.0, POS)

    @pytest.mark.parametrize("mu_l", [-1.0, -1.0 - 1e-13, -1.0 + 1e-13])
    def test_permeability_pole_rejected(self, mu_l):
        # mu_u + mu_l within the pole rule of 0: the s part of the
        # quasi-static limit, 2 mu_u mu_l/(mu_u + mu_l), has a pole
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(2.0 + 0.1j, mu=mu_l))
        with pytest.raises(SingularityError):
            sommerfeld_green(sys_, 0.8, POS)

    def test_budget_error_propagates(self, sapphire_system):
        with pytest.raises(QuadratureError):
            sommerfeld_green(
                sapphire_system, 0.5, POS, QuadratureSpec(rel_tol=1e-13, max_panels=2)
            )


def test_inverse_distance_identity():
    # Int_0^inf dk e^{-k dz} J0(k rho) = 1/R: the radial-quadrature identity
    # behind the closed near-field form, checked with the package integrator.
    from scipy.special import j0

    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = rng.uniform(0.05, 2.0)
        dz = rng.uniform(0.05, 2.0)
        dist = np.hypot(rho, dz)
        k_max = 40.0 / dz
        val, err, _ = adaptive_gauss(
            lambda k: np.exp(-k * dz) * j0(k * rho), 0.0, k_max, QuadratureSpec(rel_tol=1e-10)
        )
        assert_allclose(val, 1.0 / dist, rtol=1e-8)


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda system: transmission_green(system, 0.5, [0, 0, 10**400], [0, 0, -1]), "r_obs[2]"),
        (lambda system: transmission_green(system, 0.5, [0, 0, 1], [-(10**5000), 0, -1]), "r_src[0]"),
        (lambda system: near_field_tensor([0, 0, 10**400]), "r_vec[2]"),
        (lambda system: near_field_tensor([float("nan"), 0.0, 1.0]), "r_vec[0]"),
    ],
)
def test_coordinates_beyond_the_float_range_name_the_coordinate(sapphire_system, call, field):
    with pytest.raises(ParameterError) as info:
        call(sapphire_system)
    assert info.value.field == field


def test_nonretarded_green_does_not_recheck_checked_positions(sapphire_system, monkeypatch):
    # AtomPositions checked its coordinates; the public near_field_tensor
    # still checks the ones it is given
    import vdwsurf.greens as greens

    checked, coordinates = [], greens._coordinates

    def recorded(name, value):
        checked.append(name)
        return coordinates(name, value)

    monkeypatch.setattr(greens, "_coordinates", recorded)
    green = nonretarded_green(sapphire_system, 0.5, POS, local_field=False)
    assert checked == []
    assert_allclose(green, near_field_tensor(POS.r_vec) / (0.25 * sapphire_system.avg_eps(0.5)), rtol=1e-15)
    assert checked == ["r_vec"]


class TestLimitCheck:
    def test_vacuum_ratios_are_unity_plus_quadratic(self, vacuum_system):
        report = nonretarded_limit_check(vacuum_system, 0.3, POS, [0.1, 0.01])
        assert report.passed(1e-3)
        for row in report.rows:
            assert row.deviation < (0.3 * row.scale * POS.distance) ** 2 * 10

    def test_sapphire_monotone_convergence(self, sapphire_system):
        scales = [0.1, 0.01, 0.001]
        report = nonretarded_limit_check(sapphire_system, 0.5, POS, scales)
        assert report.passed(0.01)
        for comp in ("xx", "zz"):
            devs = [
                [r for r in report.at_scale(s) if r.component == comp][0].deviation
                for s in scales
            ]
            assert devs[0] > devs[1] > devs[2]
            order = report.convergence_order(comp)
            assert 1.8 < order < 2.2

    def test_empty_scales(self, sapphire_system):
        report = nonretarded_limit_check(sapphire_system, 0.5, POS, [])
        assert report.rows == ()
        assert not report.passed()


def _report(scales, *rows):
    return NonretardedLimitReport(0.5, scales, tuple(LimitRatio(s, c, ratio) for s, c, ratio in rows))


@pytest.mark.parametrize(
    "report, component",
    [
        (_report((0.1,), (0.1, "xx", 1.01)), "xx"),  # a single scale
        (_report((0.1, 0.01), (0.1, "xx", 1.01), (0.01, "zz", 1.001)), "xx"),  # xx missing at 0.01
        (_report((0.1, 0.01), (0.1, "xx", 1.01), (0.01, "xx", 1.0)), "xx"),  # zero deviation
        (_report(()), "xx"),
    ],
    ids=["single-scale", "missing-component", "zero-deviation", "empty"],
)
def test_report_without_a_convergence_order(report, component):
    assert math.isnan(report.convergence_order(component))


def test_report_at_an_absent_scale_and_without_scales():
    report = _report((0.1, 0.01), (0.1, "xx", 1.01), (0.01, "xx", 1.001))
    assert math.isnan(report.max_deviation(0.5))
    assert report.max_deviation() == pytest.approx(0.01)
    assert report.convergence_order("xx") == pytest.approx(1.0)
    assert _report((), (0.1, "xx", 1.0)).passed() is False


def test_zero_separation_names_the_vector():
    with pytest.raises(ParameterError, match="zero separation") as info:
        near_field_tensor([0, 0, 0])
    assert info.value.field == "r_vec"


def test_radial_integrand_is_angular_integral_of_kspace_kernel(sapphire_system):
    # The Sommerfeld integrand at k must be k/(2 pi)^2 times the angular
    # integral of the plane-wave kernel rotated to direction phi, weighted by
    # e^{i k rho cos phi}; 64 equispaced angles integrate it to roundoff.
    omega = 0.8
    pos = AtomPositions([0.0, 0.0, 0.3], [0.7, 0.0, -0.4])
    ks = np.array([0.3, 1.7, 6.0])  # propagating in both media, then evanescent
    row = (pos.r_a[2], pos.r_b[2], pos.rho, np.nan, np.nan)
    got = _radial_integrand(_Kernel(sapphire_system, omega), [row], 0.0, 0.0)(ks)
    n = 64
    for k, row in zip(ks, got):
        kernel = kspace_green(sapphire_system, omega, k, pos.r_a[2], pos.r_b[2])
        ref = np.zeros((3, 3), dtype=complex)
        for phi in 2.0 * np.pi * np.arange(n) / n:
            c, s = np.cos(phi), np.sin(phi)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            ref += rot @ kernel @ rot.T * np.exp(1j * k * pos.rho * c)
        ref *= k / (2.0 * np.pi) ** 2 * (2.0 * np.pi / n)
        want = np.array([ref[_COMPONENT_INDEX[name]] for name in COMPONENTS])
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))


_RECIPROCITY_SYSTEMS = (
    HalfSpaceSystem(upper=Material.vacuum(), lower=preset("sapphire-ir"), omega_max=3.0),
    HalfSpaceSystem(
        upper=Material.constant(1.2 + 0.01j, mu=1.8 + 0.02j),
        lower=Material.constant(3.5 + 0.4j, mu=0.6 + 0.05j),
    ),
)


@given(
    system=st.sampled_from(_RECIPROCITY_SYSTEMS),
    omega=st.floats(min_value=0.3, max_value=1.5),
    z_a=st.floats(min_value=0.05, max_value=1.0),
    z_b=st.floats(min_value=-1.0, max_value=-0.05),
    aspect=st.floats(min_value=0.0, max_value=3.0),
    phi=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
@settings(max_examples=20, deadline=None)
def test_transmission_green_reciprocity_random_geometry(system, omega, z_a, z_b, aspect, phi):
    # G(r_a, r_b) = G(r_b, r_a)^T; the reversed order goes through the mirror system
    rho = aspect * (z_a - z_b)
    r_a = np.array([0.1, -0.2, z_a])
    r_b = r_a - np.array([rho * np.cos(phi), rho * np.sin(phi), z_a - z_b])
    g_ab = transmission_green(system, omega, r_a, r_b)
    g_ba = transmission_green(system, omega, r_b, r_a)
    assert np.max(np.abs(g_ba.T - g_ab)) <= 1e-12 * np.max(np.abs(g_ab))


@pytest.mark.parametrize("delta", [2e-12, 3.5e-12, 4.5e-12])
def test_avg_eps_pole_rule_agrees_with_coupling(delta):
    # eps_u + eps_l = -delta: the closed form and the coupling core must
    # reject the same near-pole media
    sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(-(1.0 + delta)))

    def rejects(f):
        try:
            f()
        except SingularityError:
            return True
        return False

    coupling_rejects = rejects(lambda: enhancement_factor(sys_, 1.0))
    assert rejects(lambda: nonretarded_green(sys_, 1.0, POS)) == coupling_rejects
    assert bool(resonant_terms(sys_, [1.0]).flagged[0]) == coupling_rejects


def _rejects(f) -> bool:
    try:
        f()
    except SingularityError:
        return True
    return False


@pytest.mark.parametrize("x", [0.9e-12, 1.1e-12, 1.4e-12])
def test_cavity_pole_rule_agrees_everywhere(x):
    # 2*eps_l + 1 = -2x: the closed form, the coupling core and the
    # Onsager factor itself must reject the same near-pole medium
    eps = -0.5 - x
    sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(eps))
    verdicts = {
        _rejects(lambda: enhancement_factor(sys_, 1.0)),
        bool(resonant_terms(sys_, [1.0]).flagged[0]),
        _rejects(lambda: nonretarded_green(sys_, 1.0, POS)),
        _rejects(lambda: local_field_factor(eps)),
    }
    assert len(verdicts) == 1


@pytest.mark.parametrize("aspect, omega", [(0.5, 0.8), (5.0, 0.5)])
def test_sommerfeld_green_matches_mpmath_quadrature(sapphire_system, aspect, omega):
    # Independent quadrature of the same radial integrand (tanh-sinh in
    # mpmath, split at the light lines and then every min(pi/rho, 2/dz) out
    # to 50 decades of e^{-k dz}): checks the adaptive rule and the tail cut.
    dz = 0.1
    rho = aspect * dz
    pos = AtomPositions([rho, 0.0, 0.4 * dz], [0.0, 0.0, -0.6 * dz])  # r_a - r_b along +x
    kernel = _Kernel(sapphire_system, omega)
    integrand = _radial_integrand(kernel, [(pos.r_a[2], pos.r_b[2], pos.rho, np.nan, np.nan)], 0.0, 0.0)
    rows = {}

    def row(k):
        if k not in rows:
            rows[k] = integrand(np.array([float(k)]))[0]
        return rows[k]

    k_split = max(kernel.k_breaks)
    k_end = 50.0 * np.log(10.0) / dz
    step = min(np.pi / rho, 2.0 / dz)
    points = [0.0, *kernel.k_breaks, *np.arange(k_split + step, k_end, step), k_end]
    ref, errors = np.zeros(len(COMPONENTS), dtype=complex), []
    for i in range(len(COMPONENTS)):
        value, error = mpmath.quad(lambda k: mpmath.mpc(row(k)[i]), points, maxdegree=10, error=True)
        ref[i] = complex(value)
        errors.append(float(error))
    assert max(errors) <= 1e-12 * np.max(np.abs(ref))  # the reference itself converged

    green = sommerfeld_green(sapphire_system, omega, pos, local_field=False)
    got = np.array([green[_COMPONENT_INDEX[name]] for name in COMPONENTS])
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


def _count_integrand_calls(monkeypatch):
    """Count calls of every Sommerfeld radial integrand built from here on."""
    import vdwsurf.greens as greens

    calls = [0]

    def counted_radial_integrand(*args):
        integrand = _radial_integrand(*args)

        def counted(k, *which):
            calls[0] += 1
            return integrand(k, *which)

        return counted

    monkeypatch.setattr(greens, "_radial_integrand", counted_radial_integrand)
    return calls


@pytest.mark.parametrize("aspect", [0.0, 0.5, 50.0, 500.0])
def test_every_scale_in_one_loop_equals_each_scale_alone(sapphire_system, aspect):
    # nonretarded_limit_check integrates all scales' jobs together; each
    # tensor is the one sommerfeld_green computes for that scale alone, and
    # each closed form, taken from the same pass, is nonretarded_green's
    from vdwsurf.greens import _sommerfeld_many

    if aspect == 0.0:
        pos = AtomPositions([0.0, 0.0, 0.5], [0.0, 0.0, -0.5])
    else:
        pos = AtomPositions([0.0, 0.0, 0.5 / aspect], [0.6, 0.8, -0.5 / aspect])
    scales, omega = (0.1, 0.01, 0.001), 0.5
    shrunk = [pos.scaled(s) for s in scales]
    alone = [sommerfeld_green(sapphire_system, omega, p) for p in shrunk]
    closed = [nonretarded_green(sapphire_system, omega, p) for p in shrunk]
    together = _sommerfeld_many(sapphire_system, omega, shrunk)
    assert len(together) == len(scales)
    for (got, got_closed), want, want_closed in zip(together, alone, closed):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got_closed, want_closed)
    report = nonretarded_limit_check(sapphire_system, omega, pos, scales)
    for row in report.rows:
        i = scales.index(row.scale)
        idx = _COMPONENT_INDEX[row.component]
        assert row.ratio == alone[i][idx] / closed[i][idx]  # bit for bit


@pytest.mark.parametrize("omega", [0.5, 0.9, 1.3])
@pytest.mark.parametrize("local_field", [True, False])
def test_limit_check_closed_form_is_nonretarded_green_bit_for_bit(sapphire_system, omega, local_field):
    # nonretarded_limit_check reads the closed form from the Sommerfeld pass
    # instead of calling nonretarded_green per scale; it is the same tensor
    from vdwsurf import greens

    pos = AtomPositions([0.0, 0.0, 0.05], [0.3, -0.4, -0.02])
    shrunk = [pos.scaled(s) for s in (0.1, 0.01)]
    pairs = greens._sommerfeld_many(sapphire_system, omega, shrunk, local_field=local_field)
    for (green, closed), p in zip(pairs, shrunk):
        assert np.array_equal(green, sommerfeld_green(sapphire_system, omega, p, local_field=local_field))
        assert np.array_equal(closed, nonretarded_green(sapphire_system, omega, p, local_field))


def _count_panel_calls(monkeypatch):
    """Count quadrature._panel calls (one integrand call each) from here on."""
    from vdwsurf import quadrature

    panel, calls = quadrature._panel, [0]

    def counted(f, lefts, rights):
        calls[0] += 1
        return panel(f, lefts, rights)

    monkeypatch.setattr(quadrature, "_panel", counted)
    return calls


def test_fig2_validate_takes_2_integrand_calls_one_per_sweep(monkeypatch):
    # the propagating pieces are integrated in t, with k - k_lo and k_hi - k
    # proportional to t^2 at the light lines, toward whose branch points
    # bisection in k halves one sweep at a time: 11 calls in k.  Each sweep
    # is one integrand call: the first asks for 72 panels, within _CHUNK
    from vdwsurf import greens, quadrature
    from vdwsurf.config import load_config, resolve_config_path
    from vdwsurf.config import ValidateSpec

    cfg = load_config(resolve_config_path("fig2"))
    spec = ValidateSpec()
    calls, sweeps, evaluate = _count_panel_calls(monkeypatch), [0], quadrature._evaluate

    def counted(f, parts):
        sweeps[0] += 1
        return evaluate(f, parts)

    monkeypatch.setattr(quadrature, "_evaluate", counted)
    monkeypatch.setattr(greens, "nonretarded_green", None)  # the closed forms come from the same pass
    pos = AtomPositions(spec.r_a, spec.r_b)
    report = nonretarded_limit_check(cfg.system, spec.omega, pos, spec.scales, cfg.quadrature)
    assert report.passed(spec.tolerance)
    assert calls[0] == sweeps[0] == 2


@pytest.mark.parametrize(
    "scale, most",
    [
        (1.0, 4),  # ROADMAP baseline row, rho = 1, z = +-1e-3: 3 calls (13 in k)
        (1e-3, 2),  # the same aspect ratio shrunk 1000x: 1 call of 26 panels
    ],
    ids=["rho-1", "rho-1e-3"],
)
def test_lateral_tensor_integrand_call_gate(sapphire_system, monkeypatch, scale, most):
    # rho/dz = 500: panels are bisected in batches, the propagating pieces in t
    calls = _count_panel_calls(monkeypatch)
    pos = AtomPositions([0.0, 0.0, 1e-3], [1.0, 0.0, -1e-3]).scaled(scale)
    green = sommerfeld_green(sapphire_system, 0.5, pos)
    assert np.all(np.isfinite(green))
    assert 1 <= calls[0] <= most


def test_reststrahlen_head_brackets_the_p_pole_in_fewer_integrand_calls(sapphire_system, monkeypatch):
    # at omega = 0.9 eps_l is about -3.19 + 0.25i, so den_p vanishes at k_p,
    # about 1.084 + 0.019i, past k_split = 0.9 and within the head.  Panel edges
    # at Re k_p +- (0.5, 2, 8)|Im k_p| bracket its peak from the first sweep:
    # the three scales take 1 integrand call, which took 3 (3 sweeps) with the
    # light-line ladder alone
    omega, scales = 0.9, (0.1, 0.01, 0.001)
    kernel = _Kernel(sapphire_system, omega)
    k_p = omega * np.sqrt(kernel.eps_u * kernel.eps_l / (kernel.eps_u + kernel.eps_l))
    assert max(kernel.k_breaks) < k_p.real - 8.0 * k_p.imag and 0.0 < k_p.imag
    pos = AtomPositions([0.0, 0.0, 0.5], [1.0, 0.0, -0.5])
    calls = _count_panel_calls(monkeypatch)
    report = nonretarded_limit_check(sapphire_system, omega, pos, scales)
    assert calls[0] == 1
    assert report.passed()
    for s in scales:
        shrunk = pos.scaled(s)
        got = sommerfeld_green(sapphire_system, omega, shrunk)
        want = sommerfeld_green(sapphire_system, omega, shrunk, QuadratureSpec(rel_tol=1e-13))
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("omega", [0.5, 0.9], ids=["below-omega_t", "reststrahlen"])
def test_propagating_segment_in_t_matches_mpmath_in_k(sapphire_system, omega):
    # The propagating pieces, each integrated in t with k = k_lo + w*t^2 and
    # k_hi - w*(2 - t)^2, against tanh-sinh on the untransformed k-integrand
    # split at each light line.  Below omega_T the vacuum light line is an
    # interior break; in the reststrahlen band the sapphire one is.
    pos = AtomPositions([0.05, 0.0, 0.04], [0.0, 0.0, -0.06])
    kernel = _Kernel(sapphire_system, omega)
    p0 = 2.0 / (omega**2 * (kernel.eps_u + kernel.eps_l))
    s0 = 2.0 * kernel.mu_u * kernel.mu_l / (kernel.mu_u + kernel.mu_l)
    edges = [0.0, *kernel.k_breaks]
    assert len(edges) == 3 and 0.0 < edges[1] < edges[2]
    pieces = list(zip(edges[:-1], edges[1:]))
    in_t = _radial_integrand(kernel, [(pos.r_a[2], pos.r_b[2], pos.rho, *piece) for piece in pieces], p0, s0)
    jobs = [_bisection(0.0, 2.0, QuadratureSpec(rel_tol=1e-13), [1.0]) for _ in pieces]
    got = sum(_result(outcome)[0] for outcome in _integrate_many(in_t, jobs))

    in_k = _radial_integrand(kernel, [(pos.r_a[2], pos.r_b[2], pos.rho, np.nan, np.nan)], p0, s0)
    ref = np.zeros(len(COMPONENTS), dtype=complex)
    for i in range(len(COMPONENTS)):
        value, error = mpmath.quad(lambda k: mpmath.mpc(in_k(np.array([float(k)]))[0][i]), edges, error=True)
        ref[i] = complex(value)
        assert float(error) <= 1e-12 * abs(ref[i])
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("aspect", [0.5, 5.0])
def test_tail_shares_the_head_sweep_integrand_call(sapphire_system, monkeypatch, aspect):
    # the tail's first half-periods go into the head's first sweep, so a
    # tensor that converges there takes one integrand call (two with a
    # separate tail loop)
    import vdwsurf.greens as greens

    calls = _count_integrand_calls(monkeypatch)
    integrate, jobs = greens._integrate_many, []

    def recorded(f, many):
        jobs.extend(many)
        return integrate(f, many)

    monkeypatch.setattr(greens, "_integrate_many", recorded)
    pos = AtomPositions([0.0, 0.0, 1e-3], [aspect * 2e-3, 0.0, -1e-3])
    green = sommerfeld_green(sapphire_system, 0.5, pos)
    assert np.all(np.isfinite(green))
    assert any(job.__name__ == "_tail" for job in jobs)  # the tensor has a tail
    assert calls[0] == 1


@pytest.mark.parametrize(
    "max_panels, rel_tol, scales",
    [(2, 1e-10, (0.1, 0.01, 0.001)), (12, 1e-12, (0.01, 0.1, 0.001))],
    ids=["2-scales0", "12-scales1"],
)
def test_limit_check_raises_the_first_failing_scale_error(sapphire_system, max_panels, rel_tol, scales):
    # the error raised is the one the first failing scale raises alone:
    # with 2 panels every scale's seeds exceed the budget; with 12 scale
    # 0.01 converges, 0.1 runs out in the loop and 0.001 in its seeds
    pos = AtomPositions([0.0, 0.0, 0.01], [1.0, 0.0, -0.01])
    quad = QuadratureSpec(rel_tol=rel_tol, max_panels=max_panels)
    alone = []
    for s in scales:
        try:
            sommerfeld_green(sapphire_system, 0.5, pos.scaled(s), quad)
        except QuadratureError as exc:
            alone.append(exc)
    assert len(alone) >= 2 and len({str(exc) for exc in alone}) == len(alone)
    with pytest.raises(QuadratureError) as info:
        nonretarded_limit_check(sapphire_system, 0.5, pos, scales, quad)
    first = alone[0]
    assert str(info.value) == str(first) and info.value.panels == first.panels
    assert np.array_equal(info.value.value, first.value) or info.value.value is first.value is None


def test_one_bessel_triple_per_integrand_call(sapphire_system, monkeypatch):
    # the limit is subtracted per coefficient, so J0, J1 and J2 are
    # evaluated once per abscissa, not again for the limit
    import vdwsurf.greens as greens

    calls, bessel = _count_integrand_calls(monkeypatch), [0]

    def counted_bessel(u):
        bessel[0] += 1
        return _bessel_j012(u)

    monkeypatch.setattr(greens, "_bessel_j012", counted_bessel)
    sommerfeld_green(sapphire_system, 0.8, POS)
    assert calls[0] >= 1
    assert bessel[0] == calls[0]


def _quasi_static_integrals(p0, s0, rho, dz):
    """Components of the integral of the quasi-static integrand, from the
    Laplace-Hankel table: int J_n(k rho) e^{-k dz} k^m dk for m = 0, 2."""
    dist = np.hypot(rho, dz)
    i0, i2 = 1.0 / dist, (dist - dz) ** 2 / (rho**2 * dist)
    k0, k1, k2 = (2.0 * dz**2 - rho**2) / dist**5, 3.0 * rho * dz / dist**5, 3.0 * rho**2 / dist**5
    return {
        "xx": 0.5 * (s0 * (i0 + i2) - p0 * (k0 - k2)),
        "yy": 0.5 * (s0 * (i0 - i2) - p0 * (k0 + k2)),
        "zz": p0 * k0,
        "xz": p0 * k1,
        "zx": p0 * k1,
    }


@pytest.mark.parametrize("aspect", [500.0, 5000.0])
def test_lateral_sommerfeld_green_matches_mpmath_quadosc(sapphire_system, aspect):
    # Independent route at large rho/dz: the integrand minus its quasi-static
    # limit, by tanh-sinh up to 10/rho and mpmath.quadosc beyond, plus the
    # limit's integral from the Laplace-Hankel table.
    omega, rho = 0.5, 1e-3
    dz = rho / aspect
    pos = AtomPositions([rho, 0.0, 0.4 * dz], [0.0, 0.0, -0.6 * dz])  # r_a - r_b along +x
    kernel = _Kernel(sapphire_system, omega)
    # ik*p and ik*s of the kernel as k -> infinity
    p0 = 2.0 / (omega**2 * (kernel.eps_u + kernel.eps_l))
    s0 = 2.0 * kernel.mu_u * kernel.mu_l / (kernel.mu_u + kernel.mu_l)
    closed = _quasi_static_integrals(p0, s0, rho, dz)
    residual = _radial_integrand(kernel, [(pos.r_a[2], pos.r_b[2], pos.rho, np.nan, np.nan)], p0, s0)
    # In these units the result is about 1e3, so quadosc's absolute tolerance
    # at 4 digits (about 1e-8) is 1e-11 of it; the residual is about 5e-8 of it.
    unit = 1e-3 * max(abs(v) for v in closed.values())
    rows = {}

    def row(k):
        k = float(k)
        if k not in rows:
            rows[k] = residual(np.array([k]))[0] / unit
        return rows[k]

    k_head = 10.0 / rho
    points = [0.0, *kernel.k_breaks, *np.linspace(max(kernel.k_breaks), k_head, 8)[1:]]
    ref = np.zeros(len(COMPONENTS), dtype=complex)
    for i, name in enumerate(COMPONENTS):
        head = mpmath.quad(lambda k: mpmath.mpc(row(k)[i]), points)
        with mpmath.workdps(4):
            tail = mpmath.quadosc(lambda k: mpmath.mpc(row(k)[i]), [k_head, mpmath.inf], omega=rho)
        ref[i] = closed[name] + (complex(head) + complex(tail)) * unit

    green = sommerfeld_green(sapphire_system, omega, pos, local_field=False)
    got = np.array([green[_COMPONENT_INDEX[name]] for name in COMPONENTS])
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_lateral_sommerfeld_green_at_aspect_1e4(sapphire_system, monkeypatch):
    # rho/dz = 1e4: the closed form carries the near field and the residual
    # tail is extrapolated, in a handful of integrand calls
    calls = _count_integrand_calls(monkeypatch)
    pos = AtomPositions([0.0, 0.0, 0.5e-4], [1.0, 0.0, -0.5e-4]).scaled(1e-3)
    green = sommerfeld_green(sapphire_system, 0.5, pos)
    assert np.all(np.isfinite(green))
    assert calls[0] >= 1
    assert calls[0] <= 10


@pytest.mark.parametrize("aspect", [5000.0, 1e4])
def test_lateral_retardation_falls_as_scale_squared(sapphire_system, aspect):
    # the deviation from the closed near-field form is the retardation
    # correction, of relative size (n omega R)^2
    pos = AtomPositions([0.0, 0.0, 0.5 / aspect], [1.0, 0.0, -0.5 / aspect])
    scales = (1e-2, 1e-3, 1e-4)
    devs = []
    for s in scales:
        shrunk = pos.scaled(s)
        green = sommerfeld_green(sapphire_system, 0.5, shrunk, QuadratureSpec(rel_tol=1e-12))
        closed = nonretarded_green(sapphire_system, 0.5, shrunk)
        devs.append(np.max(np.abs(green - closed)) / np.max(np.abs(closed)))
    orders = np.diff(np.log(devs)) / np.diff(np.log(scales))
    assert np.all(np.abs(orders - 2.0) < 0.01), orders


@pytest.mark.parametrize("aspect", [500.0, 5000.0])
def test_matched_vacuum_at_large_aspect_equals_free_space(vacuum_system, aspect):
    # the tail extrapolation against the textbook retarded tensor
    pos = AtomPositions([0.0, 0.0, 0.5 / aspect], [1.0, 0.0, -0.5 / aspect])
    got = sommerfeld_green(vacuum_system, 0.5, pos)
    want = free_space_green(pos.r_vec, 0.5)
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


def _residual_without_cancellation(kernel: _Kernel, p0, s0, z_a, z_b, rho):
    """Oracle: the integrand of ``_radial_integrand`` (k in k) at large k, written without cancellation.

    There the integrand is the difference of two terms about (k/omega)^2
    times larger, so its float values carry rounding of about that many
    ulps.  Here beta - ik = n^2 omega^2/(beta + ik), the phase over the
    envelope minus 1 is an expm1, and ik*p - p0 and ik*s - s0 are formed
    from the exact differences of the float constants, in mpmath.
    """
    mp = [mpmath.mpc(z) for z in (kernel.mu_u, kernel.mu_l, kernel.eps_u, kernel.eps_l, p0, s0)]
    mu_u, mu_l, eps_u, eps_l, mp0, ms0 = mp
    # ik*p = c_p*ik/den_p: t_p = 2*n_u*mu_l*eps_l*beta/(n_l*mu_u*den_p) and
    # p = mu_u*t_p/(beta*n_u*n_l*omega^2), with n_l^2 = eps_l*mu_l, give c_p = 2/omega^2
    c_p = 2 / mpmath.mpf(kernel.omega) ** 2
    with mpmath.workdps(40):
        d_p = complex(c_p - mp0 * (eps_u + eps_l))
        d_s = complex(2 * mu_u * mu_l - ms0 * (mu_u + mu_l))  # ik*s = 2*mu_u*mu_l*ik/den_s
    c_p, c_s = complex(c_p), 2.0 * kernel.mu_u * kernel.mu_l
    dz = z_a - z_b

    def integrand(k):
        ik, k2, envelope = 1j * k, k * k, np.exp(-k * dz)
        beta, beta_m = _upward_root(kernel._nw2_u - k2), _upward_root(kernel._nw2_l - k2)
        d_u, d_l = kernel._nw2_u / (beta + ik), kernel._nw2_l / (beta_m + ik)  # beta - ik, beta_m - ik
        den_p = ik * (kernel.eps_l + kernel.eps_u) + kernel.eps_l * d_u + kernel.eps_u * d_l
        den_s = ik * (kernel.mu_l + kernel.mu_u) + kernel.mu_l * d_u + kernel.mu_u * d_l
        q, r = c_p * ik / den_p, c_s * ik / den_s  # ik*p, ik*s
        dq = (ik * d_p - p0 * (kernel.eps_l * d_u + kernel.eps_u * d_l)) / den_p  # ik*p - p0
        dr = (ik * d_s - s0 * (kernel.mu_l * d_u + kernel.mu_u * d_l)) / den_s  # ik*s - s0
        phi = np.expm1(1j * (d_u * z_a - d_l * z_b))  # phase/envelope - 1
        core = dq + q * phi  # (ik*p*phase - p0*envelope)/envelope
        cp = 0.5 * envelope * (q * (ik * (d_u + d_l) + d_u * d_l) * (1.0 + phi) - k2 * core)
        cs = 0.5 * envelope * (dr + r * phi)
        b0, b1, b2 = (jv(n, k * rho) for n in range(3))
        p = q / ik
        return np.stack(
            [
                cp * (b0 - b2) + cs * (b0 + b2),
                cp * (b0 + b2) + cs * (b0 - b2),
                k2 * envelope * core * b0,
                k2 * envelope * (core + d_u * p * (1.0 + phi)) * b1,
                k2 * envelope * (core + d_l * p * (1.0 + phi)) * b1,
            ],
            axis=-1,
        )

    return integrand


# Round 0 of the seeded sommerfeld-near benchmark draw (bench/workloads.py,
# seed 1): omega, r_a and r_b of each of its eight validate operations.
_NEAR_SEED_1 = [
    (1.3765768500766051, 0.07408083697016696, (-0.9613755402069943, -0.27524002378235224)),
    (0.7375099095686322, 0.02712070493028859, (0.9558189617556752, 0.2939559700844724)),
    (0.49646675164644516, 0.054786111696037545, (0.8308059973070814, -0.5565621212754115)),
    (0.5402525396938032, 0.45359939383958675, (-0.8396845488275808, -0.5430744502001746)),
    (0.5335532396898074, 0.010364859882933548, (-0.3823358439753939, 0.9240234317438185)),
    (1.096495704304966, 0.30615024402089924, (-0.8547626099494502, 0.5190191524716636)),
    (0.7268435124803472, 0.6503197993553799, (-0.9319863936356358, -0.36249325797598175)),
    (1.2576955637418614, 0.12782947867659672, (0.9890142475546857, -0.14782022234403108)),
]


def test_tail_estimates_bound_their_errors_on_the_seeded_near_draw(sapphire_system, monkeypatch):
    # Each tail job of the draw's 24 tensors (8 geometries at scales 0.1,
    # 0.01, 0.001), with the start, half-period, dz and tolerance that
    # sommerfeld_green gives it, is run on the oracle integrand and checked
    # against the direct sum of its half-periods (Gauss-Legendre, 30 points
    # each) out to where e^{-(k - K0) dz} < eps^2.  Wynn's epsilon table,
    # the tail's former extrapolation, fell short of its error on 6 of
    # these tails and read exactly 0 in some component on 3.
    import vdwsurf.greens as greens

    tails, make = [], greens._tail
    monkeypatch.setattr(greens, "_tail", lambda *args: tails.append(args) or make(*args))
    x, w = np.polynomial.legendre.leggauss(30)
    for omega, half_dz, (bx, by) in _NEAR_SEED_1:
        kernel = _Kernel(sapphire_system, omega)
        p0 = 2.0 / (kernel.eps_u + kernel.eps_l) / omega**2  # as _sommerfeld_many forms it
        s0 = 2.0 * kernel.mu_u * kernel.mu_l / (kernel.mu_u + kernel.mu_l)
        for scale in (0.1, 0.01, 0.001):
            pos = AtomPositions([0.0, 0.0, half_dz], [bx, by, -half_dz]).scaled(scale)
            sommerfeld_green(sapphire_system, omega, pos)
            args, dz = tails[-1], pos.r_a[2] - pos.r_b[2]
            oracle = _residual_without_cancellation(kernel, p0, s0, pos.r_a[2], pos.r_b[2], pos.rho)
            value, err, panels = _result(_integrate_many(lambda k, which: oracle(k), [make(*args)])[0])
            k0, half_period = args[:2]
            lefts = k0 + half_period * np.arange(np.ceil(-2.0 * np.log(np.finfo(float).eps) / (dz * half_period)))
            nodes = (lefts[:, None] + 0.5 * half_period * (x + 1.0)).ravel()
            want = 0.5 * half_period * np.einsum("j,pjm->m", w, oracle(nodes).reshape(lefts.size, x.size, -1))
            assert panels == 8
            assert np.all(err > 0.0)
            assert np.all(np.abs(value - want) <= err), (omega, scale)
    assert len(tails) == 24


def test_one_ulp_of_p0_moves_the_tensor_by_about_one_ulp(sapphire_system, monkeypatch):
    # Operation #2.6 of the seeded sommerfeld-near draw (rho/dz = 25.4,
    # scale 0.1): p0*(1 + 2^-52) in the integrand alone.  The weighted
    # averages are linear with positive weights; Wynn's epsilon table
    # amplified the bump in the tail to 4.8e-14 of the tensor.
    import vdwsurf.greens as greens

    pos = AtomPositions(
        [0.0, 0.0, 0.019716107227750242], [0.9892733458656361, 0.14607616903454726, -0.019716107227750242]
    ).scaled(0.1)
    omega = 0.83819538089477
    base = sommerfeld_green(sapphire_system, omega, pos)
    radial = greens._radial_integrand
    monkeypatch.setattr(
        greens, "_radial_integrand", lambda kernel, jobs, p0, s0: radial(kernel, jobs, p0 * (1.0 + 2.0**-52), s0)
    )
    bumped = sommerfeld_green(sapphire_system, omega, pos)
    assert np.max(np.abs(bumped - base)) <= 1e-14 * np.max(np.abs(base))


def test_seeded_large_aspect_draw_converges_at_rel_tol_1e_12(sapphire_system):
    # 60 geometries with omega*rho <= 0.1 and rho/dz from 1e2 to 3e3; draw 1
    # (omega 1.276, rho/dz 787) ended in "no convergence of the oscillatory
    # tail within 64 half-periods" with Wynn's epsilon table
    rng = np.random.default_rng(0)
    quad = QuadratureSpec(rel_tol=1e-12)
    for _ in range(60):
        omega = rng.uniform(0.3, 1.5)
        rho = 10.0 ** rng.uniform(-3.0, -1.0) / omega
        dz = rho / np.exp(rng.uniform(np.log(1e2), np.log(3e3)))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        pos = AtomPositions([0.0, 0.0, 0.5 * dz], [rho * np.cos(phi), rho * np.sin(phi), -0.5 * dz])
        assert np.all(np.isfinite(sommerfeld_green(sapphire_system, omega, pos, quad)))


def test_tail_takes_the_average_with_the_smallest_estimate(sapphire_system, monkeypatch):
    # rho/dz 1612 and omega*rho 0.09 at rel_tol 1e-12: the average of all 24
    # partial sums carries more of their rule error than the bound allows,
    # while the average of fewer of them meets it
    import vdwsurf.greens as greens

    integrate, outcomes = greens._integrate_many, []

    def recorded(f, jobs):
        names = [job.__name__ for job in jobs]
        outcomes.extend(zip(names, integrate(f, jobs)))
        return [outcome for _, outcome in outcomes[-len(jobs) :]]

    monkeypatch.setattr(greens, "_integrate_many", recorded)
    half_dz = 3.9555982935203246e-05
    pos = AtomPositions([0.0, 0.0, half_dz], [0.12751725073873202, -0.0022858930116776326, -half_dz])
    green = sommerfeld_green(sapphire_system, 0.7061563573320948, pos, QuadratureSpec(rel_tol=1e-12))
    assert np.all(np.isfinite(green))
    assert [outcome[2] for name, outcome in outcomes if name == "_tail"] == [24]


def test_on_axis_sommerfeld_green_matches_mpmath_quadrature(sapphire_system):
    # rho = 0: no Bessel oscillation and no tail extrapolation; the residual
    # runs out to where e^{-k dz} has decayed
    dz, omega = 0.1, 0.8
    pos = AtomPositions([0.0, 0.0, 0.4 * dz], [0.0, 0.0, -0.6 * dz])
    kernel = _Kernel(sapphire_system, omega)
    integrand = _radial_integrand(kernel, [(pos.r_a[2], pos.r_b[2], pos.rho, np.nan, np.nan)], 0.0, 0.0)
    k_split = max(kernel.k_breaks)
    k_end = 50.0 * np.log(10.0) / dz
    points = [0.0, *kernel.k_breaks, *np.arange(k_split + 2.0 / dz, k_end, 2.0 / dz), k_end]
    ref, errors = np.zeros(len(COMPONENTS), dtype=complex), []
    for i in range(len(COMPONENTS)):
        value, error = mpmath.quad(
            lambda k: mpmath.mpc(integrand(np.array([float(k)]))[0][i]), points, maxdegree=10, error=True
        )
        ref[i] = complex(value)
        errors.append(float(error))
    assert max(errors) <= 1e-12 * np.max(np.abs(ref))  # the reference itself converged
    green = sommerfeld_green(sapphire_system, omega, pos, local_field=False)
    got = np.array([green[_COMPONENT_INDEX[name]] for name in COMPONENTS])
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))
    assert green[0, 2] == green[2, 0] == 0.0
    assert green[0, 0] == green[1, 1]


@pytest.mark.parametrize(
    "u",
    [
        0.0,
        5e-324,
        1e-310,
        1e-300,
        1e-8,
        np.nextafter(5e-3, 0.0),
        5e-3,
        np.nextafter(5e-3, 1.0),
        # both sides of the edges of the first and of an inner interval of u
        np.nextafter(1 / 32, 0.0),
        1 / 32,
        np.nextafter(1 / 32, 1.0),
        np.nextafter(2.5, 0.0),
        2.5,
        np.nextafter(2.5, 3.0),
        0.5,
        2.0,
        5.1356,
        # u = 8 splits the fits in u from the Hankel form
        np.nextafter(8.0, 0.0),
        8.0,
        np.nextafter(8.0, 9.0),
        # edges of intervals of (8/u)^2: 1/4 at u = 16, 1/64 at u = 64
        np.nextafter(16.0, 0.0),
        16.0,
        np.nextafter(16.0, 17.0),
        np.nextafter(64.0, 0.0),
        64.0,
        np.nextafter(64.0, 65.0),
        30.0,
        1e3,
        1e4,
        1e6,
    ],
)
def test_bessel_j012_matches_mpmath(u):
    got = [b[0] for b in _bessel_j012(np.array([u]))]
    for n in range(3):
        assert abs(got[n] - float(mpmath.besselj(n, u))) <= 1e-15, n
    if u == 0.0:
        assert got == [1.0, 0.0, 0.0]


def test_bessel_table_is_what_its_generator_builds():
    spec = importlib.util.spec_from_file_location(
        "bessel_table", Path(__file__).resolve().parent.parent / "tools" / "bessel_table.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert np.array_equal(generator.build(), _bessel_table())


def test_bessel_j012_dense_sweep_matches_mpmath():
    # half the points over the polynomial fits and their switch to the
    # Hankel form at u = 8, half over the whole range
    rng = np.random.default_rng(20)
    u = np.concatenate([rng.uniform(0.0, 16.0, 5000), rng.uniform(0.0, 1e4, 5000)])
    got = np.array(_bessel_j012(u))
    with mpmath.workdps(25):
        want = np.array([[float(mpmath.besselj(n, x)) for x in u] for n in range(3)])
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("rho", [1e-320, 1e-310])
def test_subnormal_rho_gives_the_on_axis_tensor(sapphire_system, rho):
    # k*rho is subnormal over the whole path, where J2 must come out ~0
    z_a, z_b, omega = 0.04, -0.06, 0.8
    on_axis = sommerfeld_green(sapphire_system, omega, AtomPositions([0.0, 0.0, z_a], [0.0, 0.0, z_b]))
    got = sommerfeld_green(sapphire_system, omega, AtomPositions([rho, 0.0, z_a], [0.0, 0.0, z_b]))
    assert np.max(np.abs(got - on_axis)) <= 1e-12 * np.max(np.abs(on_axis))


_CAVITY_POLE = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(-0.5))


@pytest.mark.parametrize("closed_form", [nonretarded_green, sommerfeld_green])
def test_cavity_pole_raises_without_local_field(closed_form):
    # 2*eps_l + 1 = 0 is a pole of the coupling core, whose no-local-field
    # form 2/(eps_u + eps_l) both closed forms read: they raise there either
    # way, as resonant_terms flags g_no_lf
    with pytest.raises(SingularityError, match="Onsager cavity pole"):
        closed_form(_CAVITY_POLE, 1.0, POS, local_field=False)


def test_coupling_pole_raises_before_any_integrand_call(monkeypatch):
    # the coupling core runs before any job is built
    calls = _count_panel_calls(monkeypatch)
    with pytest.raises(SingularityError, match="Onsager cavity pole"):
        sommerfeld_green(_CAVITY_POLE, 1.0, POS)
    assert calls[0] == 0


@pytest.mark.parametrize("closed_form", [nonretarded_green, sommerfeld_green])
@pytest.mark.parametrize(
    "eps_l, reason",
    [(-0.5, "Onsager cavity pole at omega = 0.5"), (-1.0, "average permittivity vanishes at omega = 0.5")],
    ids=["cavity", "screening"],
)
def test_green_pole_messages_name_omega(closed_form, eps_l, reason):
    # the Green routes' frequency argument is omega; the resonant routes' is omega_a
    system = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(eps_l))
    with pytest.raises(SingularityError, match=f"^{reason}$"):
        closed_form(system, 0.5, POS)


def test_on_axis_tensor_ignores_the_sign_of_zero_offsets(sapphire_system):
    # on axis the tensor is not rotated: arctan2(-0.0, -0.0) would turn it by -pi
    plus = sommerfeld_green(sapphire_system, 0.8, AtomPositions([0.0, 0.0, 0.04], [0.0, 0.0, -0.06]))
    minus = sommerfeld_green(sapphire_system, 0.8, AtomPositions([-0.0, -0.0, 0.04], [0.0, 0.0, -0.06]))
    assert minus.tobytes() == plus.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan, 10**400], ids=["inf", "nan", "1e400"])
@pytest.mark.parametrize(
    "call, field",
    [
        (lambda system, bad: fresnel_t(system, 0.9, bad), "k"),
        (lambda system, bad: kspace_green(system, 0.9, bad, 0.5, -0.2), "k"),
        (lambda system, bad: kspace_green(system, 0.9, 1.0, bad, -0.2), "z_a"),
        (lambda system, bad: kspace_green(system, 0.9, 1.0, 0.5, -bad), "z_b"),
    ],
    ids=["fresnel_t-k", "kspace_green-k", "kspace_green-z_a", "kspace_green-z_b"],
)
def test_kernel_arguments_must_be_finite(sapphire_system, call, field, bad):
    # k = inf and z_a = inf gave NaN coefficients and tensors; k = 10**400 overflowed
    with pytest.raises(ParameterError) as info:
        call(sapphire_system, bad)
    assert info.value.field == field and field in str(info.value)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 10**400, 0.0], ids=["inf", "nan", "1e400", "zero"])
def test_limit_check_names_the_bad_scale(sapphire_system, bad):
    # 10**400 overflowed float(); every scale is named as ValidateSpec names it
    with pytest.raises(ParameterError) as info:
        nonretarded_limit_check(sapphire_system, 0.5, POS, [0.1, bad])
    assert info.value.field == "scales[1]"


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_limit_check_with_a_zero_permittivity_names_it(sapphire, side):
    # eps = 0 makes that medium's Onsager factor 0, so the closed form is 0 and
    # no ratio can be formed (once a ZeroDivisionError from the kernel, then a
    # report with no rows); without local fields the closed form is 2/eps_other
    # and the Sommerfeld tensor of the zero-index kernel converges to it
    system = HalfSpaceSystem(**{"upper": Material.vacuum(), "lower": sapphire, side: Material.constant(0.0)})
    with pytest.raises(ParameterError, match=rf"^\|system\.{side}\.eps\| = 0 at omega = 0\.5: ") as info:
        nonretarded_limit_check(system, 0.5, POS, [0.1, 0.01])
    assert info.value.fields == (f"system.{side}.eps",)
    assert nonretarded_limit_check(system, 0.5, POS, [0.01], local_field=False).passed(1e-3)


@pytest.mark.parametrize("closed_form", [nonretarded_green, sommerfeld_green])
def test_coupling_beyond_the_float_range_raises(sapphire, closed_form):
    # under a lower eps of -1e300, 18*eps_u*eps_l overflows: the closed form was
    # all NaN, and validate wrote nan ratios with numpy warnings
    system = HalfSpaceSystem(upper=sapphire, lower=Material.constant(-1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularityError, match="^the near-field coupling is not finite at omega = 0.5$"):
            closed_form(system, 0.5, POS)


@pytest.mark.parametrize("omega", [1e-160, 1e-163, 1e-170j])
def test_nonretarded_green_with_omega_squared_below_the_float_range_raises(sapphire_system, omega):
    # once a RuntimeWarning and a NaN tensor at 1e-160, and a ZeroDivisionError
    # from the division by omega**2 at 1e-163 and 1e-170j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=r"^omega\*\*2 must be within the float range, got ") as info:
            nonretarded_green(sapphire_system, omega, POS)
    assert info.value.fields == ("omega",)


def test_nonretarded_tensor_beyond_the_float_range_raises(sapphire_system):
    # 1/(omega**2 R**3) overflows at a short separation though omega**2 is a float
    pos = POS.scaled(1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(nonretarded_green(sapphire_system, 1e-149, pos)))
        with pytest.raises(ParameterError, match="^the near-field tensor is not finite at omega = 1e-150: ") as info:
            nonretarded_green(sapphire_system, 1e-150, pos)
    assert info.value.fields == ("omega", "pos")


def test_dipole_tensor_beyond_the_float_range(sapphire_system):
    # r = 1e-200 gave an inf tensor with divide and invalid warnings, r**3
    # warned of overflow at r = 1e200, and nonretarded_green leaked the first
    # two before its ParameterError at R = 2e-110
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(near_field_tensor([1e200, 0.0, 0.0]) == 0.0)
        with pytest.raises(ParameterError, match=r"^the near-field tensor is not finite: 1/r\*\*3 beyond") as info:
            near_field_tensor([1e-200, 0.0, 0.0])
        assert info.value.field == "r_vec"
        with pytest.raises(ParameterError, match="^the near-field tensor is not finite at omega = 0.5: ") as info:
            nonretarded_green(sapphire_system, 0.5, AtomPositions([0.0, 0.0, 1e-110], [0.0, 0.0, -1e-110]))
        assert info.value.fields == ("omega", "pos")


@pytest.mark.parametrize("lower", [preset("sapphire-ir"), Material.constant(-2.0 + 1e-6j)], ids=["sapphire", "pole"])
@pytest.mark.parametrize("omega", np.geomspace(1e-104, 1e-100, 33).tolist())
def test_kernel_p_beyond_the_float_range_raises_naming_omega(lower, omega):
    # p = 2/(omega^2 den_p) grows as 1/omega^3, most next to the vacuum light line
    # under sapphire (0.85/omega^3) and at the p pole of an interface mode: a tiny
    # omega overflowed it, and the integrand's finite products of p with it, so
    # validate exited 3 with "integrand not finite on the panel"
    system = HalfSpaceSystem(upper=Material.vacuum(), lower=lower)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            green = sommerfeld_green(system, omega, POS)
        except ParameterError as exc:
            assert str(exc) == f"omega = {omega!r} puts p = 2/(omega**2 den_p) beyond the float range"
            assert exc.fields == ("omega",)
        else:
            assert omega > 1e-103 and np.all(np.isfinite(green))
        # at the p pole p overflows first: fresnel_t and kspace_green once warned there
        eps = lower.eps(omega)
        for k in (0.0, omega * np.sqrt(eps / (1.0 + eps)).real):
            try:
                fresnel_t(system, omega, k)
                assert np.all(np.isfinite(kspace_green(system, omega, k, 0.3, -0.2)))
            except ParameterError as exc:
                assert str(exc).startswith(f"omega = {omega!r} puts p")
            else:
                assert omega > 1e-103
