"""The array core of the resonant path against the scalar functions.

Scans evaluate permittivity, coupling and polarizability over a frequency
array, one block of up to ``spectra._BLOCK`` grid points per call; these
tests pin that this changes no output byte and no value, including at
poles.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vdwsurf import (
    Atom,
    HalfSpaceSystem,
    Material,
    MaterialKind,
    ScanSpec,
    SingularityError,
    enhancement_factor,
    polarizability,
    preset,
    resonant_potential,
    resonant_terms,
    scan_enhancement,
    scan_spectrum,
)
from vdwsurf.cli import EXIT_OK, main

# SHA-256 of the bundled fig2 outputs as produced by the scalar code the
# array core replaced (the same values as bench/golden.json).
FIG2_DIGESTS = {
    "spectrum": "760132c283236107eb363c7ed1509eecacb359e335e19c1194d9abe2ff82ebb3",
    "enhancement": "ae9c477f72195eed35513a3e081715e8f2a2ded800f4d2b57b56f5b2837da645",
    "peaks": "cc1dc4862f18b2ed9232eb60b9469a96d632246731cb714de13c4ffc2882bac9",
}


@pytest.mark.parametrize("command", sorted(FIG2_DIGESTS))
def test_fig2_outputs_byte_identical(tmp_path, command):
    out = tmp_path / command
    assert main([command, "--config", "fig2", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG2_DIGESTS[command]


def _assert_rows_match_scalar(system, atom_b, scan):
    """Every scan row equals the scalar wrappers at its frequency (==)."""
    rows = scan_spectrum(system, Atom(omega0=1.0), atom_b, scan)
    enhancement = scan_enhancement(system, scan)
    flagged = []
    for row, (w_e, g_e, g_no_e) in zip(rows, enhancement):
        assert row.omega == w_e
        try:
            res = resonant_potential(system, Atom(omega0=row.omega), atom_b)
        except SingularityError as exc:
            assert row.error == str(exc)
            values = (row.u_resonant, row.u_resonant_no_lf, row.g, row.g_no_lf)
            assert all(math.isnan(v) for v in values)
            flagged.append(row)
        else:
            assert row.error is None
            u_no_lf = -polarizability(atom_b, row.omega).real / atom_b.alpha0 * res.g_no_localfield
            assert (row.u_resonant, row.g, row.g_no_lf) == (res.u_resonant, res.g, res.g_no_localfield)
            assert row.u_resonant_no_lf == u_no_lf
        try:
            g, g_no = enhancement_factor(system, w_e)
        except SingularityError:
            assert math.isnan(g_e) and math.isnan(g_no_e)
        else:
            assert (g_e, g_no_e) == (g, g_no)
    return flagged


def test_fig2_scan_rows_equal_scalar_wrappers(sapphire_system, atom_b):
    scan = ScanSpec(omega_min=0.7, omega_max=1.3, n_points=2000)
    assert _assert_rows_match_scalar(sapphire_system, atom_b, scan) == []


LOSSLESS_AT_1 = Material.lorentz(eta=2.71, eps0=6.57, omega_t=1.0, gamma=0.0)


@pytest.mark.parametrize(
    "system, atom_b, reason",
    [
        (
            HalfSpaceSystem(Material.vacuum(), LOSSLESS_AT_1),
            Atom(omega0=0.9, gamma=1e-3),
            "undamped oscillator evaluated at its resonance 1.0",
        ),
        (
            HalfSpaceSystem(LOSSLESS_AT_1, Material.vacuum()),
            Atom(omega0=0.9, gamma=1e-3),
            "undamped oscillator evaluated at its resonance 1.0",
        ),
        (
            HalfSpaceSystem(Material.vacuum(), Material.constant(-1.0)),
            Atom(omega0=0.9, gamma=1e-3),
            "average permittivity vanishes at omega_a = 1.0",
        ),
        (
            HalfSpaceSystem(Material.vacuum(), Material.constant(-0.5)),
            Atom(omega0=0.9, gamma=1e-3),
            "Onsager cavity pole at omega_a = 1.0",
        ),
        (
            HalfSpaceSystem(Material.vacuum(), preset("sapphire-ir")),
            Atom(omega0=1.0, gamma=0.0),
            "undamped polarizability pole at omega = 1.0",
        ),
    ],
)
def test_pole_grid_point_flagged_with_scalar_reason(system, atom_b, reason):
    scan = ScanSpec(omega_min=0.5, omega_max=1.5, n_points=5)
    flagged = _assert_rows_match_scalar(system, atom_b, scan)
    assert [(row.omega, row.error) for row in flagged if row.omega == 1.0] == [(1.0, reason)]


BEYOND_FLOAT_RANGE = Material.lorentz(eta=2.0, eps0=1e160, omega_t=1.0, gamma=0.01)


@pytest.mark.parametrize(
    "system, atom_b, reason",
    [
        (
            HalfSpaceSystem(Material.vacuum(), BEYOND_FLOAT_RANGE),
            Atom(omega0=0.9, gamma=1e-3),
            "the enhancement is not finite at omega_a = 0.5",
        ),
        (
            HalfSpaceSystem(Material.vacuum(), preset("sapphire-ir")),
            Atom(omega0=1e10, gamma=1e-3, alpha0=1e300),
            "the resonant potential is not finite at omega_a = 0.5",
        ),
        (
            HalfSpaceSystem(Material.vacuum(), Material.constant(1.7e308 + 1.7e308j)),
            Atom(omega0=0.9, gamma=1e-3),
            "the enhancement is not finite at omega_a = 0.5",
        ),
    ],
    ids=["eps0-1e160", "alpha0-1e300", "eps-modulus-beyond-range"],
)
def test_a_value_beyond_the_float_range_is_flagged_with_scalar_reason(system, atom_b, reason):
    # the products of the coupling overflow, or alpha0*omega0**2 does, or |eps| does (the
    # scalar functions once ended in abs()'s OverflowError); no numpy warning is issued
    scan = ScanSpec(omega_min=0.5, omega_max=1.5, n_points=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flagged = _assert_rows_match_scalar(system, atom_b, scan)
    assert flagged[0].omega == 0.5 and flagged[0].error == reason


def test_enhancement_factor_raises_beyond_the_float_range():
    with pytest.raises(SingularityError, match="^the enhancement is not finite at omega_a = 0.7$"):
        enhancement_factor(HalfSpaceSystem(Material.vacuum(), BEYOND_FLOAT_RANGE), 0.7)


def test_terms_mask_and_columns(sapphire_system):
    omega = np.array([0.5, 1.0, 1.5])
    terms = resonant_terms(HalfSpaceSystem(Material.vacuum(), LOSSLESS_AT_1), omega)
    assert terms.flagged.tolist() == [False, True, False]
    assert terms.errors[0] is None and "resonance 1.0" in terms.errors[1]
    assert np.all(np.isnan(terms.u)) and np.all(np.isnan(terms.u_no_lf))
    assert np.isnan(terms.g[1]) and np.isfinite(terms.g[[0, 2]]).all()
    with pytest.raises(ValueError):
        resonant_terms(sapphire_system, np.array([0.5, 0.0]))


@pytest.mark.parametrize("omega", [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)], ids=["below", "above"])
def test_one_ulp_off_an_undamped_resonance_is_its_pole(omega):
    # eps takes the pole rule of the coupling core: within roundoff of
    # omega_t, where it used to return about -8.7e15 and g about 1.2e-31
    reason = f"undamped oscillator evaluated at its resonance {omega!r}"
    system = HalfSpaceSystem(Material.vacuum(), LOSSLESS_AT_1)
    with pytest.raises(SingularityError, match=f"^{reason}$"):
        LOSSLESS_AT_1.eps(omega)
    with pytest.raises(SingularityError, match=f"^{reason}$"):
        enhancement_factor(system, omega)
    terms = resonant_terms(system, np.array([0.5, omega]))
    assert terms.flagged.tolist() == [False, True]
    assert terms.errors == (None, reason)
    assert np.isnan(terms.g[1]) and np.isfinite(terms.g[0])


def test_medium_and_atom_share_one_resonance_window():
    # the medium's eps and the atom's polarizability are one resonance formula
    # with one pole rule: at omega_t = omega0 = 1, undamped, both have their
    # pole at the same grid points around 1, and a scan flags just those rows
    atom = Atom(omega0=1.0, gamma=0.0)
    omegas = 1.0 + np.arange(-8, 9) * 2.5e-13

    def raises(f, omega):
        try:
            f(omega)
        except SingularityError:
            return True
        return False

    atom_poles = [raises(lambda w: polarizability(atom, w), w) for w in omegas]
    assert any(atom_poles) and not all(atom_poles)
    assert [raises(LOSSLESS_AT_1.eps, w) for w in omegas] == atom_poles
    assert np.isnan(LOSSLESS_AT_1.eps(omegas)).tolist() == atom_poles
    terms = resonant_terms(HalfSpaceSystem(Material.vacuum(), LOSSLESS_AT_1), omegas, atom)
    assert terms.flagged.tolist() == atom_poles


# -- the array core against the scalar formulas it replaced ---------------
#
# Written out in plain Python complex arithmetic, as the scalar functions
# had them before the array core.


def _seed_eps(m, omega):
    if m.kind is not MaterialKind.LORENTZ:
        return m.eps_const
    w = complex(omega)
    wt2 = m.omega_t * m.omega_t
    den = wt2 - w * w - 1j * w * m.gamma
    return m.eta + (m.eps0 - m.eta) * wt2 / den


def _seed_eps_imag(m, xi):
    wt2 = m.omega_t * m.omega_t
    return m.eta + (m.eps0 - m.eta) * wt2 / (wt2 + xi * xi + xi * m.gamma)


def _seed_polarizability(atom, omega):
    w = complex(omega)
    w02 = atom.omega0 * atom.omega0
    return atom.alpha0 * w02 / (w02 - w * w - 1j * w * atom.gamma)


def _seed_enhancement(e_u, e_l):
    s = e_u + e_l
    g = abs(18.0 * e_u * e_l / (s * (2.0 * e_u + 1.0) * (2.0 * e_l + 1.0))) ** 2
    return g, abs(2.0 / s) ** 2


def _within_2ulp(a, b):
    a, b = float(a), float(b)
    return a == b or abs(a - b) <= 2 * math.ulp(max(abs(a), abs(b)))


def _complex_within_2ulp(a, b):
    return _within_2ulp(a.real, b.real) and _within_2ulp(a.imag, b.imag)


oscillators = st.builds(
    lambda eta, excess, omega_t, gamma: Material.lorentz(eta, eta + excess, omega_t, gamma),
    st.floats(1.0, 10.0),
    st.floats(1e-3, 30.0),
    st.floats(0.05, 5.0),
    st.floats(1e-6, 1.0),
)
frequencies = st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(oscillators, frequencies, frequencies)
def test_eps_array_matches_scalar_formula(m, re_omegas, xis):
    for omega in (np.array(re_omegas), 1j * np.array(xis)):
        got = m.eps(omega)
        for w, value in zip(omega.tolist(), got.tolist()):
            assert _complex_within_2ulp(value, _seed_eps(m, w))
    got = m.eps_imag(np.array(xis))
    for xi, value in zip(xis, got.tolist()):
        assert _within_2ulp(value, _seed_eps_imag(m, xi))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(Material.vacuum()), oscillators),
    oscillators,
    st.floats(0.05, 5.0),
    st.floats(1e-6, 0.5),
    st.floats(0.1, 10.0),
    frequencies,
)
def test_resonant_terms_match_scalar_formulas(upper, lower, omega0, gamma, alpha0, omegas):
    system = HalfSpaceSystem(upper, lower)
    atom_b = Atom(omega0=omega0, gamma=gamma, alpha0=alpha0)
    terms = resonant_terms(system, np.array(omegas), atom_b)
    for i, w in enumerate(omegas):
        if terms.errors[i] is not None:
            continue
        g, g_no = _seed_enhancement(_seed_eps(upper, w), _seed_eps(lower, w))
        alpha_ratio = _seed_polarizability(atom_b, w).real / alpha0
        assert _within_2ulp(terms.g[i], g) and _within_2ulp(terms.g_no_lf[i], g_no)
        assert _within_2ulp(terms.u[i], -alpha_ratio * g)
        assert _within_2ulp(terms.u_no_lf[i], -alpha_ratio * g_no)
