import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vdwsurf import (
    Atom,
    HalfSpaceSystem,
    Material,
    ParameterError,
    PeakKind,
    QuadratureSpec,
    ScanSpec,
    cavity_mode_frequency,
    enhancement_factor,
    find_peaks,
    golden_section_max,
    interaction,
    offresonant_potential,
    quadrature,
    scan_enhancement,
    scan_spectrum,
    spectra,
    surface_mode_frequency,
)
from vdwsurf.spectra import _scan_blocks

FIG_SCAN = ScanSpec(omega_min=0.7, omega_max=1.3, n_points=2000)


@pytest.fixture(scope="module")
def fig_rows(sapphire_system, atom_b):
    return scan_spectrum(sapphire_system, Atom(omega0=1.0), atom_b, FIG_SCAN)


class TestScanSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ScanSpec(omega_min=0.0, omega_max=1.0)
        with pytest.raises(ParameterError):
            ScanSpec(omega_min=1.0, omega_max=0.5)
        with pytest.raises(ParameterError):
            ScanSpec(omega_min=0.5, omega_max=1.0, n_points=1)

    def test_two_point_grid(self, vacuum_system, atom_b):
        rows = scan_spectrum(
            vacuum_system, Atom(omega0=1.0), atom_b, ScanSpec(0.5, 1.5, n_points=2)
        )
        assert len(rows) == 2
        assert rows[0].omega == 0.5 and rows[1].omega == 1.5


class TestScanSpectrum:
    def test_rows_ordered_and_complete(self, fig_rows):
        omegas = [r.omega for r in fig_rows]
        assert omegas == sorted(omegas)
        assert len(fig_rows) == 2000
        assert all(r.error is None for r in fig_rows)

    def test_no_lf_curve_ratio_is_onsager_weight(self, fig_rows):
        # with both curves present their pointwise ratio is g/g_no_lf exactly
        for r in fig_rows:
            if abs(r.u_resonant_no_lf) > 0.0:
                ratio = r.u_resonant / r.u_resonant_no_lf
                assert abs(ratio - r.g / r.g_no_lf) <= 1e-10 * abs(ratio)

    def test_vacuum_scan_is_free_space(self, vacuum_system, atom_b):
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), atom_b, ScanSpec(0.7, 1.3, 301))
        assert all(r.g == 1.0 and r.g_no_lf == 1.0 for r in rows)

    def test_offresonant_column(self, vacuum_system, atom_b):
        scan = ScanSpec(0.8, 1.0, n_points=3, include_offresonant=True)
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), atom_b, scan)
        assert all(r.u_offresonant is not None and r.u_offresonant < 0.0 for r in rows)

    def test_singular_grid_point_is_flagged_not_fatal(self, atom_b):
        from vdwsurf import HalfSpaceSystem, Material

        # undamped medium: the scan grid hits the surface mode pole exactly
        lossless = Material.lorentz(eta=2.71, eps0=6.57, omega_t=0.7000660470822813, gamma=0.0)
        sys_ = HalfSpaceSystem(upper=Material.vacuum(), lower=lossless)
        w_s = surface_mode_frequency(lossless)
        rows = scan_spectrum(
            sys_, Atom(omega0=1.0), atom_b, ScanSpec(w_s - 0.01, w_s + 0.01, n_points=3)
        )
        flagged = [r for r in rows if r.error is not None]
        assert len(flagged) == 1 and math.isnan(flagged[0].g)
        assert len(rows) == 3


def _spy_integrals(monkeypatch):
    """Record (components, panels) of every integral the column runs."""
    calls = []
    integrate = interaction.adaptive_gauss

    def spy(f, *args):
        value, error, panels = integrate(f, *args)
        calls.append((value.size, panels))
        return value, error, panels

    monkeypatch.setattr(interaction, "adaptive_gauss", spy)
    return calls


def _offresonant_oracle(sapphire, atom_b, omega0):
    """Off-resonant potential of an undamped unit atom A (default Atom fields) by QUADPACK, split at xi = 1."""
    from scipy.integrate import quad

    wt2, b2 = sapphire.omega_t**2, atom_b.omega0**2

    def integrand(xi):
        eps = sapphire.eta + (sapphire.eps0 - sapphire.eta) * wt2 / (wt2 + xi * xi + xi * sapphire.gamma)
        coupling = (3.0 * eps / (2.0 * eps + 1.0)) / (0.5 * (1.0 + eps))  # D = 1 in vacuum
        alpha_a = omega0**2 / (omega0**2 + xi * xi)
        alpha_b = atom_b.alpha0 * b2 / (b2 + xi * xi + xi * atom_b.gamma)
        return alpha_a * alpha_b * coupling * coupling

    pieces = (quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200) for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
    value = sum(piece[0] for piece in pieces)
    return -3.0 / (2.0 * math.pi * atom_b.alpha0) * value


_ORACLE_COLUMNS = {"fig2": np.linspace(0.7, 1.3, 200), "wide": np.geomspace(0.02, 50.0, 200)}


@pytest.fixture(scope="module", params=sorted(_ORACLE_COLUMNS))
def oracle_column(request, sapphire, atom_b):
    omegas = _ORACLE_COLUMNS[request.param]
    return omegas, np.array([_offresonant_oracle(sapphire, atom_b, w) for w in omegas.tolist()])


class TestOffresonantColumn:
    def test_one_integral_per_block(self, sapphire_system, monkeypatch):
        # more points than one block; the undamped partner puts a pole on row 1234
        n = spectra._BLOCK + 37
        scan = ScanSpec(0.7, 1.3, n_points=n, include_offresonant=True)
        partner = Atom(omega0=float(scan.grid()[1234]), alpha0=1.7)
        template = Atom(omega0=1.0, alpha0=2.5, dipole_weight=0.7, offres_sign=-1.0)
        quad = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_panels=500)
        calls = _spy_integrals(monkeypatch)
        blocks = list(_scan_blocks(sapphire_system, scan, partner, template, quad))
        column = np.concatenate([columns[5] for columns, _ in blocks])
        errors = [e for _, terms in blocks for e in terms.errors]
        assert [i for i, e in enumerate(errors) if e is not None] == [1234]
        assert math.isnan(column[1234])
        # one integral per block of the grid, one component per unflagged row of the block
        assert [rows for rows, _ in calls] == [spectra._BLOCK - 1, n - spectra._BLOCK]
        grid = scan.grid()
        for i in [0, 1233, 1235, spectra._BLOCK - 1, spectra._BLOCK, n - 1]:
            u = offresonant_potential(sapphire_system, replace(template, omega0=grid[i]), partner, quad=quad)
            assert abs(column[i] - u) <= 1e-10 * abs(u), i

    def test_all_flagged_grid_runs_no_integral(self, atom_b, monkeypatch):
        # eps_u + eps_l vanishes at every frequency
        system = HalfSpaceSystem(upper=Material.vacuum(), lower=Material.constant(-1.0))

        def refuse(*args, **kwargs):
            raise AssertionError("an integral ran for a flagged row")

        monkeypatch.setattr(interaction, "adaptive_gauss", refuse)
        scan = ScanSpec(0.7, 1.3, n_points=5, include_offresonant=True)
        [(columns, terms)] = _scan_blocks(system, scan, atom_b, Atom(omega0=1.0))
        assert terms.flagged.all() and all(e is not None for e in terms.errors)
        assert np.all(np.isnan(columns[5]))

    def test_fig2_column_is_one_panel_call_on_four_panels(self, sapphire_system, atom_b, monkeypatch):
        # one row at a time, the 200 integrals took 12 _panel calls on 722 panels
        count = [0]
        panel = quadrature._panel

        def counted(*args):
            count[0] += 1
            return panel(*args)

        monkeypatch.setattr(quadrature, "_panel", counted)
        calls = _spy_integrals(monkeypatch)
        scan = ScanSpec(0.7, 1.3, n_points=200, include_offresonant=True)
        scan_spectrum(sapphire_system, Atom(omega0=1.0), atom_b, scan)
        assert count[0] == 1 and calls == [(200, 4)]

    def test_every_row_meets_quadpack_at_the_default_tolerance(self, sapphire_system, atom_b, oracle_column):
        omegas, ref = oracle_column
        u, _ = interaction._offresonant_many(sapphire_system, Atom(omega0=1.0), atom_b, omegas, None)
        assert np.all(np.abs(u - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-3])
    def test_every_row_meets_its_own_tolerance(self, sapphire_system, atom_b, oracle_column, rel_tol):
        # rel_tol is measured against the block's largest row, yet the
        # smaller rows of a wide sweep still come out within it
        omegas, ref = oracle_column
        quad = QuadratureSpec(rel_tol=rel_tol)
        u, _ = interaction._offresonant_many(sapphire_system, Atom(omega0=1.0), atom_b, omegas, quad)
        assert np.all(np.abs(u - ref) <= rel_tol * np.abs(ref))


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_max(lambda x: -(x - 1.3) ** 2 + 2.0, 0.0, 3.0, rel_tol=1e-10)
        assert_allclose(x, 1.3, rtol=1e-8)
        assert_allclose(fx, 2.0, rtol=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(ParameterError):
            golden_section_max(lambda x: x, 1.0, 1.0)


    @staticmethod
    def _peak_at_03(calls):
        def f(x):
            calls.append(x)
            if len(calls) > 10_000:  # the search does not stop
                raise RuntimeError("golden-section search ran past 10,000 evaluations")
            return -((x - 0.3) ** 2)

        return f

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, 1e-16, 1e-20, np.nan, np.inf])
    def test_unresolvable_rel_tol_rejected(self, rel_tol):
        # 0, -1, 1e-16 and 1e-20 used to loop forever; NaN and inf returned
        # the unrefined midpoint 0.5
        calls = []
        with pytest.raises(ParameterError) as info:
            golden_section_max(self._peak_at_03(calls), 0.0, 1.0, rel_tol=rel_tol)
        assert info.value.field == "rel_tol" and "rel_tol" in str(info.value) and calls == []

    def test_smallest_rel_tol_stops(self):
        calls = []
        x, _ = golden_section_max(self._peak_at_03(calls), 0.0, 1.0, rel_tol=4.0 * np.finfo(float).eps)
        assert_allclose(x, 0.3, rtol=1e-6)


class TestFindPeaks:
    def test_three_classified_features(self, sapphire_system, atom_b, fig_rows):
        peaks = find_peaks(sapphire_system, atom_b, fig_rows)
        classified = [p for p in peaks if p.kind is not PeakKind.UNCLASSIFIED]
        kinds = {p.kind for p in classified}
        assert kinds == {
            PeakKind.ATOMIC_RESONANCE,
            PeakKind.SURFACE_MODE,
            PeakKind.CAVITY_MODE,
        }
        assert len(classified) == 3

    def test_classified_locations(self, sapphire_system, sapphire, atom_b, fig_rows):
        peaks = {p.kind: p for p in find_peaks(sapphire_system, atom_b, fig_rows)}
        w_s = surface_mode_frequency(sapphire)
        w_c = cavity_mode_frequency(sapphire)
        assert abs(peaks[PeakKind.ATOMIC_RESONANCE].location - atom_b.omega0) < 2e-3
        assert abs(peaks[PeakKind.SURFACE_MODE].location - w_s) < 2 * sapphire.gamma
        assert abs(peaks[PeakKind.CAVITY_MODE].location - w_c) < 2 * sapphire.gamma

    def test_surface_peak_enhancement_value(self, sapphire_system, atom_b, fig_rows):
        peaks = {p.kind: p for p in find_peaks(sapphire_system, atom_b, fig_rows)}
        g, _ = enhancement_factor(sapphire_system, peaks[PeakKind.SURFACE_MODE].location)
        assert abs(g / 2947.6 - 1.0) < 0.02

    def test_heights_dominate_grid_neighbors(self, sapphire_system, atom_b, fig_rows):
        omegas = np.array([r.omega for r in fig_rows])
        metric = np.array([abs(r.u_resonant) for r in fig_rows])
        for p in find_peaks(sapphire_system, atom_b, fig_rows):
            i = int(np.argmin(np.abs(omegas - p.location)))
            lo, hi = max(i - 1, 0), min(i + 1, len(metric) - 1)
            assert p.height >= metric[lo] and p.height >= metric[hi]

    def test_refinement_builds_no_atom_and_calls_the_resonant_core(
        self, sapphire_system, atom_b, fig_rows, monkeypatch
    ):
        # each golden-section step is one _resonant call: no Atom to validate, no PotentialResult
        want = find_peaks(sapphire_system, atom_b, fig_rows)
        atoms, steps, core = [], [], interaction._resonant

        def refuse(*args, **kwargs):
            raise AssertionError("the refinement called resonant_potential")

        monkeypatch.setattr(interaction.Atom, "__post_init__", lambda atom: atoms.append(atom))
        monkeypatch.setattr(interaction, "resonant_potential", refuse)
        monkeypatch.setattr(spectra, "resonant_potential", refuse, raising=False)
        monkeypatch.setattr(spectra, "_resonant", lambda *args: steps.append(args[1]) or core(*args))
        assert repr(find_peaks(sapphire_system, atom_b, fig_rows)) == repr(want)  # repr: a NaN width is no peak's equal
        assert atoms == [] and len(steps) > 3 * len(want)

    def test_monotone_input_gives_empty_list(self, vacuum_system):
        # partner resonance far outside the window: |u| is monotone there
        far = Atom(omega0=5.0, gamma=1e-3)
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), far, ScanSpec(0.7, 1.3, 200))
        assert find_peaks(vacuum_system, far, rows) == []

    def test_too_few_rows(self, vacuum_system, atom_b):
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), atom_b, ScanSpec(0.7, 1.3, 2))
        assert find_peaks(vacuum_system, atom_b, rows) == []

    def test_a_pole_between_grid_points_is_not_refined_onto(self, vacuum_system):
        # the undamped partner's pole at 1.0 lies between the grid points 0.833
        # and 1.167, which flag nothing; refining their maximum would converge
        # onto it, and an unbounded height is no peak
        undamped, damped = Atom(omega0=1.0, gamma=0.0), Atom(omega0=1.0, gamma=1e-3)
        scan = ScanSpec(0.5, 1.5, 4)
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), undamped, scan)
        assert all(row.error is None for row in rows)
        assert find_peaks(vacuum_system, undamped, rows) == []
        assert spectra._find_peaks(vacuum_system, undamped, scan.grid(), np.array([1.0, 2.0, 1.0, 0.5]))[1] == 1
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), damped, scan)
        assert [p.kind for p in find_peaks(vacuum_system, damped, rows)] == [PeakKind.ATOMIC_RESONANCE]

    def test_vacuum_single_atomic_feature(self, vacuum_system, atom_b):
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), atom_b, ScanSpec(0.7, 1.3, 2000))
        peaks = find_peaks(vacuum_system, atom_b, rows)
        assert [p.kind for p in peaks] == [PeakKind.ATOMIC_RESONANCE]

    def test_refinement_insensitive_to_grid_density(self, sapphire_system, atom_b, fig_rows):
        tol = 1e-6
        dense = scan_spectrum(
            sapphire_system, Atom(omega0=1.0), atom_b, ScanSpec(0.7, 1.3, n_points=4000)
        )
        coarse_peaks = {
            p.kind: p
            for p in find_peaks(sapphire_system, atom_b, fig_rows, refine_tol=tol)
            if p.kind is not PeakKind.UNCLASSIFIED
        }
        dense_peaks = {
            p.kind: p
            for p in find_peaks(sapphire_system, atom_b, dense, refine_tol=tol)
            if p.kind is not PeakKind.UNCLASSIFIED
        }
        assert coarse_peaks.keys() == dense_peaks.keys()
        for kind, peak in coarse_peaks.items():
            shift = abs(peak.location - dense_peaks[kind].location)
            assert shift <= tol * abs(peak.location)

    @pytest.mark.parametrize("n_points", [200, 201, 2000])
    def test_grid_step_is_the_median_step_bit_for_bit(self, vacuum_system, n_points, monkeypatch):
        # the step reaches the classification windows through _match; flagged
        # rows leave gaps, so the steps differ; each round flags 3 more rows,
        # which alternates odd and even step counts
        line = Atom(omega0=1.0, gamma=1e-2)
        rows = scan_spectrum(vacuum_system, Atom(omega0=1.0), line, ScanSpec(0.7, 1.3, n_points))
        steps, match = [], spectra._match

        def spy(table, location, grid_step):
            steps.append(grid_step)
            return match(table, location, grid_step)

        monkeypatch.setattr(spectra, "_match", spy)
        rng = np.random.default_rng(n_points)
        for flagged in range(0, 30, 3):
            marked = set(rng.choice(n_points, flagged, replace=False).tolist())
            scanned = [replace(row, error="pole") if i in marked else row for i, row in enumerate(rows)]
            find_peaks(vacuum_system, line, scanned)
            omegas = [row.omega for i, row in enumerate(rows) if i not in marked]
            assert steps and set(steps) == {float(np.median(np.diff(omegas)))}
            steps.clear()
        # and on uneven grids of 2 to 41 steps, with one maximum each
        for n in range(3, 43):
            omegas = np.cumsum(rng.uniform(0.01, 0.02, n))
            metric = np.zeros(n)
            metric[n // 2] = 1.0
            spectra._find_peaks(vacuum_system, line, omegas, metric)
            assert steps == [float(np.median(np.diff(omegas)))]
            steps.clear()

    def test_widths_resolve_line_scales(self, sapphire_system, sapphire, atom_b, fig_rows):
        peaks = {p.kind: p for p in find_peaks(sapphire_system, atom_b, fig_rows)}
        # atomic line width tracks the partner linewidth, mode widths the damping
        assert peaks[PeakKind.ATOMIC_RESONANCE].width_fwhm < 5 * atom_b.gamma
        assert peaks[PeakKind.SURFACE_MODE].width_fwhm < 5 * sapphire.gamma

    def test_a_line_narrower_than_the_grid_has_no_width(self, sapphire_system):
        # on a 50-point grid the grid value at the atomic maximum is below half
        # the refined height, so the half-height crossings cannot be located
        narrow = Atom(omega0=0.9, gamma=1e-5)
        rows = scan_spectrum(sapphire_system, Atom(omega0=1.0), narrow, ScanSpec(0.7, 1.3, 50))
        peaks = find_peaks(sapphire_system, narrow, rows)
        atomic = [p for p in peaks if p.kind is PeakKind.ATOMIC_RESONANCE]
        assert len(atomic) == 1 and math.isnan(atomic[0].width_fwhm), peaks
        assert all(math.isnan(p.width_fwhm) or p.width_fwhm > 0.0 for p in peaks), peaks


class TestScanEnhancement:
    def test_matches_pointwise_evaluation(self, sapphire_system):
        rows = scan_enhancement(sapphire_system, ScanSpec(0.9, 1.1, n_points=11))
        for w, g, g_no in rows:
            ge, gne = enhancement_factor(sapphire_system, w)
            assert g == ge and g_no == gne

    def test_vacuum_all_ones(self, vacuum_system):
        rows = scan_enhancement(vacuum_system, ScanSpec(0.5, 1.5, n_points=7))
        assert all(g == 1.0 and g_no == 1.0 for _, g, g_no in rows)


_LOWER = Material.lorentz(eta=2.71, eps0=6.57, omega_t=1.0, gamma=0.015)
_UPPER = Material.lorentz(eta=1.5, eps0=3.0, omega_t=1.4, gamma=0.015)


class TestScreeningZeros:
    """The surface modes of two media in contact: eps_u + eps_l = 0, whatever the upper medium."""

    @pytest.mark.parametrize(
        "upper, lower, omega_min, surface, damping",
        [
            (Material.constant(2.25), _LOWER, 1.2335, 1.33350, _LOWER.gamma),
            (_UPPER, _LOWER, 1.0856, 1.18563, _LOWER.gamma),
            # an undamped oscillator against a lossy constant is no pole: the
            # width 2 Im(c)/(d eps/d omega) = 0.00235 takes the place of gamma
            (Material.constant(2.25 + 0.02j), replace(_LOWER, gamma=0.0), 1.2335, 1.33350, 0.00235),
        ],
        ids=["constant-upper", "two-oscillators", "lossy-constant-upper"],
    )
    def test_damped_screening_peak_is_a_surface_mode(self, upper, lower, omega_min, surface, damping):
        system, atom_b = HalfSpaceSystem(upper, lower, omega_max=3.0), Atom(omega0=0.9, gamma=1e-3)
        rows = scan_spectrum(system, Atom(omega0=1.0), atom_b, ScanSpec(omega_min, omega_min + 0.2, 200))
        peaks, left_out = spectra._find_peaks(
            system, atom_b, np.array([r.omega for r in rows]), np.array([abs(r.u_resonant) for r in rows])
        )
        assert [p.kind for p in peaks] == [PeakKind.SURFACE_MODE] and left_out == 0, peaks
        assert abs(peaks[0].location - surface) < 2 * damping
        assert 0.5 * damping < peaks[0].width_fwhm < 2 * damping

    def test_two_oscillators_report_both_surface_modes(self):
        # the merge is per resonance, not per kind: the zero between the two
        # omega_t and the one above both are surface modes
        system, atom_b = HalfSpaceSystem(_UPPER, _LOWER, omega_max=3.0), Atom(omega0=0.9, gamma=1e-3)
        zeros = [w for w, _, kind in spectra._resonances(system, atom_b) if kind is PeakKind.SURFACE_MODE]
        assert_allclose(sorted(zeros), [1.1856277233637502, 1.7803058169395558], rtol=1e-14)
        lossless = HalfSpaceSystem(replace(_UPPER, gamma=0.0), replace(_LOWER, gamma=0.0))
        for w in zeros:
            assert abs(lossless.avg_eps(w)) < 1e-14 * (abs(lossless.upper.eps(w)) + abs(lossless.lower.eps(w)))
        rows = scan_spectrum(system, Atom(omega0=1.0), atom_b, ScanSpec(1.05, 1.95, 600))
        surface = [p.location for p in find_peaks(system, atom_b, rows) if p.kind is PeakKind.SURFACE_MODE]
        assert len(surface) == 2 and all(abs(a - b) < 2 * _LOWER.gamma for a, b in zip(surface, sorted(zeros)))
