import os
import pathlib
import subprocess
import sys
from collections import Counter

import cronlab
import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from cronlab.errors import ParameterError, PreconditionError, StructuralError
from cronlab.gauge import greater_symbol, transverse_inverse_symbol
from cronlab.grid import (FreeFlow, GridSpec, ScalarField, VectorField, inner_product,
                          lebesgue_norm,
                          relative_l2_difference, sobolev_norm, to_physical)
from cronlab.lp import BandRange, SpacetimeField, band_symbol, fit_loglog, spacetime_norm
from cronlab import parametrix as pmx
from cronlab.parametrix import (AnnulusCutoff, DirectionCache, FreeConnection, PhaseFamily,
                                WaveOperator, _ModeKernel, amplitude_residual,
                                bucketing_error, covariant_box_amplitude, covariant_box_direct,
                                decomposable_surrogate, dispersive_scan, match_data,
                                phase_defect, residual_check, split_phase_at)
from cronlab.harness import _parametrix_setup, make_free_connection
from cronlab.random_fields import random_divergence_free, random_field, stream
from conftest import NO_AVX512, nyquist_mask

GRID = GridSpec(2, 64, 8.0)
BAND = BandRange(-3, -2)
CUT = AnnulusCutoff(rho=1.0).validate(GRID)


def connection_data(eps=1e-2, seed=50, grid=GRID):
    """Stacked whole-lattice spectra (a, adot) of a test connection."""
    a = random_divergence_free(grid, stream(seed, 0), 0.12, 0.26)
    ad = random_divergence_free(grid, stream(seed, 1), 0.12, 0.26)
    return tuple(np.stack([c.freq_values for c in v.components]) * eps for v in (a, ad))


def connection(eps=1e-2, seed=50, grid=GRID, band=BAND):
    return FreeConnection(grid, *connection_data(eps, seed, grid), band)


def whole_grid_connection(t, eps=1e-2, seed=50, grid=GRID, band=BAND):
    """The oracle of connection(eps, seed, grid, band) at t: (A_hat, d_t A_hat)
    on the whole lattice, the whole-grid free flow of the same data cut to the
    band's annulus."""
    lo, hi = band.annulus()
    mask = (grid.xi_norm >= lo) & (grid.xi_norm <= hi) & ~nyquist_mask(grid)
    a, ad = (X * mask for X in connection_data(eps, seed, grid))
    flow = FreeFlow(2.0 * np.pi * grid.xi_norm, t)
    return flow.u(a, ad), flow.u_t(a, ad)


def grid_samples(A_hat, grid=GRID):
    """Real samples of stacked whole-lattice spectra, by full-grid inverse FFTs."""
    return (np.fft.ifftn(A_hat, axes=tuple(range(1, grid.n + 1))) / grid.cell_volume).real


def annulus_coeffs(seed=51, grid=GRID, cut=CUT):
    rng = stream(seed, 0)
    return (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) \
        * (cut.symbol(grid) > 0)


def small_cache(grid=GRID, cut=CUT, eta=0.15):
    return DirectionCache.build(grid, cut.modes(grid), policy="bucketed", eta_dir=eta)


def one_direction(conn, omega, sign, sigma):
    """The phase family of one unit direction (not necessarily a lattice one)."""
    return PhaseFamily(conn, sign, sigma, DirectionCache.of_directions(conn.grid, [omega]))


# ---------------------------------------------------------------------------
# free connections

def test_connection_divergence_free_at_all_times(divergence_free):
    conn = connection()
    for t in (0.0, 0.7, 1.9):
        A = conn.samples(t)
        V = VectorField(tuple(ScalarField(GRID, A[j], real_valued=True) for j in range(GRID.n)))
        assert divergence_free(V, 1e-11)


def test_connection_solves_free_wave_exactly():
    conn = connection()
    t = 0.8
    A, _, Att = conn.on_support(t)
    d = 1e-4                             # A_tt as a centered difference of the analytic A_t
    Att_fd = (conn.on_support(t + d)[1] - conn.on_support(t - d)[1]) / (2.0 * d)
    rho = 2.0 * np.pi * GRID.xi_norm.ravel()[conn.support]
    scale = max(np.abs(A).max(), 1e-300)
    for att in (Att, Att_fd):
        box = -att - rho ** 2 * A        # -(A_tt + rho^2 A) = box A
        assert np.abs(box).max() < 1e-8 * scale


def test_connection_requires_divergence_free_data():
    rng = stream(52, 0)
    bad = np.stack([random_field(GRID, rng, 0.12, 0.26).freq_values for _ in range(2)])
    with pytest.raises(PreconditionError):
        FreeConnection(GRID, bad, bad, BAND)


@pytest.mark.parametrize("shape", [(3, 64, 64), (1, 64, 64), (64, 64), (2, 64, 32)])
@pytest.mark.parametrize("which", ["a_hat", "adot_hat"])
def test_connection_rejects_misshapen_data(shape, which):
    good = connection_data()[0]
    data = {"a_hat": good, "adot_hat": good, which: np.ones(shape, dtype=complex)}
    with pytest.raises(StructuralError, match="stacked"):
        FreeConnection(GRID, band_range=BAND, **data)


@pytest.mark.parametrize("grid, band", [
    (GridSpec(3, 8, 1.5), BandRange.widest(GridSpec(3, 8, 1.5))),
    (GridSpec(2, 16, 1.5), BandRange(0, 0))])
def test_connection_rejects_band_range_with_empty_annulus(grid, band):
    # the sphere |xi| = 1 needs |m| = 1.5: no lattice mode, so every phase would vanish
    assert (band.k_min, band.k_max) == (0, 0)
    with pytest.raises(PreconditionError, match=r"annulus \[1, 1\] .* holds no lattice mode"):
        FreeConnection.zero(grid, band)
    # the same band range on the unit box holds the modes |m| = 1
    FreeConnection.zero(GridSpec(grid.n, grid.N, 1.0), band)


# ---------------------------------------------------------------------------
# annulus cutoff

def test_annulus_profile():
    assert CUT(1.0) == 1.0 and CUT(2.0) == 1.0 and CUT(1.5) == 1.0
    assert CUT(0.4) == 0.0 and CUT(3.2) == 0.0
    assert 0.0 < CUT(0.7) < 1.0


def test_annulus_nyquist_validation():
    g = GridSpec(2, 32, 8.0)
    with pytest.raises(ParameterError):
        AnnulusCutoff(rho=1.0).validate(g)   # support reaches 3 > 31/16


# ---------------------------------------------------------------------------
# phase construction

def test_phase_vanishes_without_connection():
    conn = FreeConnection.zero(GRID, BAND)
    fam = one_direction(conn, [1.0, 0.0], +1, 0.25)
    assert np.abs(fam.psi(0.5, 0)).max() == 0.0


def test_sigma_window_enforced_at_high_dimension():
    conn = FreeConnection.zero(GRID, BAND)
    one_direction(conn, [1.0, 0.0], +1, 0.49)
    with pytest.raises(ParameterError):
        one_direction(conn, [1.0, 0.0], +1, 0.6)


def test_single_mode_phase_oracle():
    # one +-mode pair orthogonal to omega: psi_hat follows the hand formula
    grid = GRID
    w = np.array([1.0, 0.0])
    mode = (0, 2)   # xi = (0, 0.25), orthogonal to omega
    F = np.zeros((2,) + grid.shape, dtype=complex)
    idx, ridx = grid.mode_index(mode), grid.mode_index((0, -2))
    F[0][idx] = 1.0   # polarization along x: divergence free for xi along y
    F[0][ridx] = 1.0
    conn = FreeConnection(grid, 1e-2 * F, 0.0 * F, BAND)
    sigma = 0.25
    fam = one_direction(conn, w, +1, sigma)
    t = 0.6
    got = np.fft.fftn(fam.psi(t, 0)) * grid.cell_volume

    rho_mode = 2.0 * np.pi * 0.25
    amp = 1e-2 * np.cos(rho_mode * t)      # closed-form A_hat at the mode
    theta_k = min(2.0 ** (sigma * -2), np.pi / 4)  # the mode sits in band k = -2
    from cronlab.gauge import greater_symbol
    gsym = greater_symbol(grid, w, theta_k)[idx].real
    from cronlab.lp import band_symbol
    psym = sum(band_symbol(grid, k)[idx].real for k in BAND)
    inv = -1.0 / (4.0 * np.pi ** 2 * 0.25 ** 2)   # transverse inverse at angle pi/2
    # L^+ = omega.grad + d_t; the omega.grad part vanishes (xi.omega = 0), and
    # psi_hat = (1/2pi) d_t of inv*proj*(A.omega): A.omega = amp (x-component)
    ddt_amp = 1e-2 * (-rho_mode) * np.sin(rho_mode * t)
    expect = (1.0 / (2.0 * np.pi)) * inv * gsym * psym * ddt_amp
    assert abs(got[idx] - expect) < 1e-10 * max(abs(expect), 1e-300)


def test_phase_realness_invariant():
    conn = connection()
    cache = small_cache()
    for sign in (+1, -1):
        fam = PhaseFamily(conn, sign, 0.25, cache)
        for t in (0.0, 0.9):
            assert fam.imag_defect(t) < 1e-11


# ---------------------------------------------------------------------------
# the defect identity

def test_phase_defect_spectral_precision():
    conn = connection()
    fam = one_direction(conn, [np.cos(0.4), np.sin(0.4)], +1, 0.25)
    assert phase_defect(fam, np.linspace(0.0, 1.8, 5)) < 1e-10


def test_phase_defect_small_angle_mode():
    # a mode close to omega falls fully inside the small-angle projection:
    # psi = 0 there and both sides reduce to A.omega
    grid = GRID
    mode = (2, 0)
    F = np.zeros((2,) + grid.shape, dtype=complex)
    F[1][grid.mode_index(mode)] = 1.0
    F[1][grid.mode_index((-2, 0))] = 1.0
    conn = FreeConnection(grid, 1e-2 * F, 0.0 * F, BAND)
    w = np.array([np.cos(0.02), np.sin(0.02)])  # 0.02 rad off-axis
    fam = one_direction(conn, w, +1, 0.25)
    assert np.abs(fam.psi(0.5, 0)).max() < 1e-18
    assert phase_defect(fam, [0.5]) < 1e-12


# ---------------------------------------------------------------------------
# amplitude

def test_amplitude_leading_order_cancellation():
    # -4 pi |xi| L psi - 2 A.xi equals -2|xi| (defect right-hand side)
    conn = connection()
    mode = (8, 3)
    xi = GRID.mode_frequency(mode)
    w = xi / np.linalg.norm(xi)
    fam = one_direction(conn, w, +1, 0.25)
    t = 0.7
    r = float(np.linalg.norm(xi))
    lead = -4.0 * np.pi * r * fam.opposite_null_derivative(t, 0)
    Ah, _ = whole_grid_connection(t)
    A = grid_samples(Ah)
    lead = lead - 2.0 * sum(A[j] * xi[j] for j in range(2))
    Aw = sum(Ah[j] * w[j] for j in range(2))
    _, S_leq = full_grid_w(fam, w)
    rhs_hat = S_leq * Aw
    rhs = -2.0 * r * np.fft.ifftn(rhs_hat).real / GRID.cell_volume
    scale = max(np.linalg.norm(sum(A[j] * xi[j] for j in range(2))), 1e-300)
    assert np.linalg.norm(lead - rhs) < 1e-10 * scale


# ---------------------------------------------------------------------------
# the wave operator

def test_apply_reduces_to_free_propagator():
    conn = FreeConnection.zero(GRID, BAND)
    cache = small_cache()
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT)
    h = annulus_coeffs()
    t = 0.8
    got = op.apply(t, h)
    coeff = h * CUT.symbol(GRID) * np.exp(2j * np.pi * t * GRID.xi_norm)
    expect = to_physical(ScalarField(GRID, coeff, rep="frequency"))
    assert relative_l2_difference(got, expect) < 1e-10


def test_apply_single_mode_modulus():
    conn = connection()
    mode = (8, 0)
    cache = DirectionCache.build(GRID, np.array([mode]), policy="exact")
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT, check_cover=False)
    h = np.zeros(GRID.shape, dtype=complex)
    h[GRID.mode_index(mode)] = 2.7
    out = op.apply(0.5, h)
    mods = np.abs(out.phys_values)
    a_val = float(CUT(np.linalg.norm(GRID.mode_frequency(mode))))
    expect = 2.7 * a_val / GRID.L ** GRID.n
    assert np.abs(mods - expect).max() < 1e-12 * expect


def test_apply_linearity():
    conn = connection()
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    h1, h2 = annulus_coeffs(60), annulus_coeffs(61)
    t = 0.4
    lhs = op.apply(t, h1 + 2.0 * h2)
    rhs = ScalarField(GRID, op.apply(t, h1).phys_values + 2.0 * op.apply(t, h2).phys_values)
    assert relative_l2_difference(lhs, rhs) < 1e-12
    with pytest.raises(ValueError):
        op.apply(t, h1[:, :10])          # coefficients must cover the lattice


def test_adjoint_identity():
    conn = connection()
    for sign in (+1, -1):
        op = WaveOperator(PhaseFamily(conn, sign, 0.25, small_cache()), CUT)
        h = annulus_coeffs(62)
        f = ScalarField(GRID, stream(63, 0).standard_normal(GRID.shape)
                        + 1j * stream(63, 1).standard_normal(GRID.shape))
        t = 0.6
        lhs = inner_product(op.apply(t, h), f)
        rhs = np.vdot(op.apply_adjoint(t, f), h) / GRID.L ** GRID.n
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_adjoint_free_case_and_boundedness():
    conn = FreeConnection.zero(GRID, BAND)
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    f = ScalarField(GRID, stream(64, 0).standard_normal(GRID.shape))
    t = 0.3
    got = op.apply_adjoint(t, f)
    expect = np.conj(np.exp(2j * np.pi * t * GRID.xi_norm)) * CUT.symbol(GRID) \
        * np.fft.fftn(f.phys_values) * GRID.cell_volume
    assert np.abs(got - expect).max() < 1e-10 * np.abs(expect).max()
    from cronlab.grid import frequency_l2
    assert frequency_l2(GRID, got) <= (1.0 + 1e-12) * lebesgue_norm(f, 2)


def test_operator_norm_free_isometry():
    conn = FreeConnection.zero(GRID, BAND)
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    nrm = op.operator_norm_at(0.5, stream(65, 0), tol=1e-12)
    assert abs(nrm - 1.0) < 1e-10


def test_operator_norm_perturbed_bound():
    eps = 1e-2
    conn = make_free_connection(GRID, BAND, eps, 66)
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    nrm = op.operator_norm_at(0.5, stream(66, 1))
    assert nrm <= 1.0 + 10.0 * eps


def test_derivative_commutation_defects_scale():
    cache = small_cache()
    h = annulus_coeffs(67)
    for eps in (1e-2, 1e-3):
        conn = make_free_connection(GRID, BAND, eps, 67)
        op = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT)
        assert op.gradient_commutation_defect(0.4, h) <= 10.0 * eps
        assert op.time_commutation_defect(0.4, h) <= 10.0 * eps


# ---------------------------------------------------------------------------
# data matching

def test_match_data_free_case_exact():
    conn = FreeConnection.zero(GRID, BAND)
    cache = small_cache()
    op_p = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT)
    op_m = WaveOperator(PhaseFamily(conn, -1, 0.25, cache), CUT)
    f = random_field(GRID, stream(68, 0), CUT.rho, 2 * CUT.rho)
    g = random_field(GRID, stream(68, 1), CUT.rho, 2 * CUT.rho)
    rep = match_data(op_p, op_m, f, g)
    assert rep.position_error < 1e-12
    assert rep.velocity_error < 1e-12


def test_match_data_eps_trend():
    cache = small_cache()
    f = random_field(GRID, stream(69, 0), CUT.rho, 2 * CUT.rho)
    g = random_field(GRID, stream(69, 1), CUT.rho, 2 * CUT.rho)
    epss = [3e-2, 1e-2, 3e-3]
    errs = []
    for eps in epss:
        conn = make_free_connection(GRID, BAND, eps, 69)
        op_p = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT)
        op_m = WaveOperator(PhaseFamily(conn, -1, 0.25, cache), CUT)
        rep = match_data(op_p, op_m, f, g)
        errs.append(rep.position_error + rep.velocity_error)
        assert errs[-1] <= 10.0 * np.sqrt(eps)
    assert fit_loglog(epss, errs) >= 0.5


def test_match_data_forward_wave_suppresses_backward_half():
    # (f, g) built from a single forward free wave leaves h_minus near zero
    eps = 1e-2
    conn = make_free_connection(GRID, BAND, eps, 70)
    cache = small_cache()
    op_p = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT)
    op_m = WaveOperator(PhaseFamily(conn, -1, 0.25, cache), CUT)
    f = random_field(GRID, stream(70, 5), CUT.rho, 2 * CUT.rho)
    g_hat = 2j * np.pi * GRID.xi_norm * f.freq_values
    g = to_physical(ScalarField(GRID, g_hat, rep="frequency"))
    rep = match_data(op_p, op_m, f, g)
    from cronlab.grid import frequency_l2
    assert frequency_l2(GRID, rep.h_minus) <= 5.0 * eps * frequency_l2(GRID, rep.h_plus)


# ---------------------------------------------------------------------------
# residual of the covariant wave operator

def test_residual_zero_for_free_connection():
    conn = FreeConnection.zero(GRID, BAND)
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs(71)
    via = covariant_box_amplitude(op, 0.5, h)
    assert lebesgue_norm(via, 2) == 0.0
    assert amplitude_residual(op, h, [0.5, 1.0]) == 0.0


def test_covariant_box_direct_transforms_u0_once(monkeypatch):
    conn = connection()
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs(74)
    calls = Counter()
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    directs = covariant_box_direct(op, 0.5, h, [0.01, 0.005])
    # U(t)h forward once for both steps; the Laplacian and the two partials back
    # from that spectrum; the connection takes none
    assert len(directs) == 2
    assert calls == {"fftn": 1, "ifftn": 3}


def test_residual_dual_path_second_order():
    conn = connection()
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs(72)
    dts = [0.08, 0.04, 0.02]
    diffs = [np.mean(per_time) for per_time in residual_check(op, h, [0.5, 1.0], dts)]
    assert 1.8 <= fit_loglog(dts, diffs) <= 2.2


def test_residual_check_over_steps_equals_one_call_per_step():
    op = WaveOperator(PhaseFamily(connection(), +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs(72)
    times, dts = [0.5, 1.0], [0.04, 0.02]
    together = residual_check(op, h, times, dts)
    for dt, per_time in zip(dts, together, strict=True):
        assert len(per_time) == len(times)
        assert residual_check(op, h, times, [dt]) == (per_time,)


def test_residual_eps_slope():
    cache = small_cache()
    h = annulus_coeffs(73)
    epss = [3e-2, 1e-2, 3e-3]
    vals = []
    for eps in epss:
        conn = make_free_connection(GRID, BAND, eps, 73)
        op = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT)
        vals.append(amplitude_residual(op, h, [0.4, 0.9]))
    assert abs(fit_loglog(epss, vals) - 1.0) <= 0.1


def test_residual_window_guard():
    conn = connection()
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    with pytest.raises(ParameterError):
        residual_check(op, annulus_coeffs(74), [GRID.L], [0.01])
    # with no finite-difference step the window ends at |t| = L/2
    for t in (GRID.L / 2.0, -GRID.L / 2.0, GRID.L):
        with pytest.raises(ParameterError, match="wrap limit"):
            amplitude_residual(op, annulus_coeffs(74), [0.5, t])


@pytest.mark.parametrize("dts", [[0.02], [0.04, 0.02]])
def test_amplitude_residual_equals_residual_check(dts):
    # amplitude_residual is the L1_t H^{n/2-2} norm of the amplitude path, and
    # residual_check measures the direct path against that same amplitude path
    op = WaveOperator(PhaseFamily(connection(), +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs(72)
    times = [0.5, 1.0]
    n2 = amplitude_residual(op, h, times)
    assert n2 > 0.0
    vias = tuple(covariant_box_amplitude(op, t, h) for t in times)
    sobolev = lambda f: sobolev_norm(f, GRID.n / 2.0 - 2.0, exclude_zero_mode=True)
    assert n2 == spacetime_norm(SpacetimeField(times, vias), 1, sobolev)
    per_time = zip(*residual_check(op, h, times, dts), strict=True)
    for t, via, diffs in zip(times, vias, per_time, strict=True):
        directs = covariant_box_direct(op, t, h, dts)
        assert diffs == tuple(lebesgue_norm(direct - via, 2) for direct in directs)


def test_amplitude_residual_builds_one_table_per_time(monkeypatch):
    op = WaveOperator(PhaseFamily(connection(), +1, 0.25, small_cache()), CUT)
    tables = _counting(monkeypatch, PhaseFamily, "_build_table")

    def direct(*args):
        raise AssertionError("the amplitude residual took the direct path")
    monkeypatch.setattr(pmx, "covariant_box_direct", direct)
    times = [0.2, 0.5, 0.8]
    amplitude_residual(op, annulus_coeffs(), times)
    assert len(tables) == len(times)


# ---------------------------------------------------------------------------
# dispersive scans

def test_free_dispersive_slopes():
    g2 = GridSpec(2, 256, 16.0)
    cut2 = AnnulusCutoff(rho=2.0).validate(g2)
    vals = np.zeros(g2.shape)
    vals[0, 0] = 1.0 / g2.cell_volume
    f = ScalarField(g2, vals)
    taus = np.geomspace(1.0, 4.0, 7)
    scan = dispersive_scan(None, taus, f, grid=g2, cutoff=cut2)
    assert -0.65 <= scan.slope <= -0.35


def test_free_dispersive_scan_builds_the_cutoff_once(monkeypatch):
    g2 = GridSpec(2, 64, 8.0)
    cut2 = AnnulusCutoff(rho=1.0).validate(g2)
    vals = np.zeros(g2.shape)
    vals[0, 0] = 1.0 / g2.cell_volume
    f = ScalarField(g2, vals)
    calls = []
    original = AnnulusCutoff.symbol

    def counted(self, grid):
        calls.append(grid)
        return original(self, grid)

    monkeypatch.setattr(AnnulusCutoff, "symbol", counted)
    scan = dispersive_scan(None, np.geomspace(1.0, 2.0, 5), f, grid=g2, cutoff=cut2)
    assert len(scan.values) == 5
    assert calls == [g2]


def test_dispersive_wrap_guard():
    g2 = GridSpec(2, 64, 8.0)
    cut2 = AnnulusCutoff(rho=1.0).validate(g2)
    f = ScalarField(g2, np.ones(g2.shape))
    with pytest.raises(ParameterError):
        dispersive_scan(None, [1.0, 5.0], f, grid=g2, cutoff=cut2)


def test_perturbed_dispersive_near_free():
    g2 = GridSpec(2, 128, 8.0)
    cut2 = AnnulusCutoff(rho=2.0).validate(g2)
    vals = np.zeros(g2.shape)
    vals[0, 0] = 1.0 / g2.cell_volume
    f = ScalarField(g2, vals)
    taus = np.geomspace(1.0, 2.0, 5)
    free = dispersive_scan(None, taus, f, grid=g2, cutoff=cut2)
    conn = make_free_connection(g2, BAND, 1e-2, 75)
    cache = DirectionCache.build(g2, cut2.modes(g2), policy="bucketed", eta_dir=0.1)
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), cut2)
    pert = dispersive_scan(op, taus, f)
    assert abs(pert.slope - free.slope) <= 0.15


def test_bucketing_error_is_small():
    conn = connection()
    cache = small_cache(eta=0.2)
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, cache), CUT)
    err = bucketing_error(op, 0.5, annulus_coeffs(76), subsample=24)
    assert err < 1e-2


def dispersive_bucketing_error() -> float:
    """bucketing_error as the dispersive suite takes it at seed 7: 256^2,
    196 buckets, eps = 1e-2, 48 coefficients of the annulus cutoff, all tied."""
    grid = GridSpec(2, 256, 8.0)
    _, cut, _, connections, operator = _parametrix_setup(grid, 7, 0.25, eta_dir=0.05)
    op = operator(connections(1e-2), +1)
    return bucketing_error(op, 1.0, cut.symbol(grid) * (1.0 + 0j), subsample=48)


@pytest.mark.skipif(not __cpu_features__["AVX512F"], reason="numpy reports no AVX-512")
def test_bucketing_error_picks_the_same_modes_without_avx512():
    # the subsample is picked among tied weights; a tie rule that the sort
    # implementation decides reads 1.07e-5 here and 9.17e-7 without AVX-512
    src = os.path.dirname(os.path.dirname(os.path.abspath(cronlab.__file__)))
    env = {**os.environ, **NO_AVX512,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import cronlab, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_parametrix import dispersive_bucketing_error; "
            "print(repr(dispersive_bucketing_error()))")
    child = subprocess.run([sys.executable, "-c", code, str(pathlib.Path(__file__).parent)],
                           env=env, capture_output=True, text=True, check=True)
    forced, here = float(child.stdout), dispersive_bucketing_error()
    assert abs(forced - here) <= 1e-9 * here


# ---------------------------------------------------------------------------
# phase split and surrogate

def full_grid_w(fam, w_dir):
    """The reference phase multipliers of direction w_dir, each built on the
    whole grid: W = inv sum_k P_k Pi_{w, > theta_k} and sum_k P_k Pi_{w, <= theta_k}.
    inv, the inverse transverse Laplacian, is zero within min_k theta_k / 4 of
    the axis; that angle is taken here from the thetas, not from the family."""
    grid = fam.grid
    inv = transverse_inverse_symbol(grid, w_dir, min(fam.thetas.values()) / 4.0)
    S_g = np.zeros(grid.shape, dtype=np.complex128)
    S_l = np.zeros(grid.shape, dtype=np.complex128)
    for k in fam.conn.band_range:
        pk, gk = band_symbol(grid, k), greater_symbol(grid, w_dir, fam.thetas[k])
        S_g += pk * gk
        S_l += pk * (1.0 - gk)
    return inv * S_g, S_l


def _full_grid_rows(fam):
    """(W, xi.omega) of each direction of fam from the whole grid, gathered on
    the band support, next to the family's own rows."""
    S = _band_support(fam.grid, fam.conn.band_range)
    assert np.array_equal(fam.conn.support, S)
    assert len(fam._w) == len(fam._xi_dot) == len(fam.cache.directions)
    for b, w_dir in enumerate(fam.cache.directions):
        W, _ = full_grid_w(fam, w_dir)
        dot = np.tensordot(w_dir, fam.grid.xi, axes=(0, 0))
        yield (fam._w[b], W.ravel()[S]), (fam._xi_dot[b], dot.ravel()[S])


def test_phase_multipliers_match_full_grid_evaluation():
    # in 2-D the support evaluation keeps every bit
    fam = PhaseFamily(connection(), +1, 0.25, small_cache())
    for pairs in _full_grid_rows(fam):
        assert all(np.array_equal(got, want) for got, want in pairs)
    # in 3-D the dot products with omega may round differently on the gathered modes
    g3 = GridSpec(3, 32, 8.0)
    dirs = stream(58, 0).standard_normal((6, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fam3 = PhaseFamily(connection(grid=g3), -1, 0.25, DirectionCache.of_directions(g3, dirs))
    for pairs in _full_grid_rows(fam3):
        assert all(np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
                   for got, want in pairs)


def test_split_phase_partition_exact():
    # sigma = 0.45 puts the first dyadic piece of each band below theta* = 1,
    # so both halves of the split are populated
    conn = connection()
    fam = one_direction(conn, [0.6, 0.8], +1, 0.45)
    lo, hi, defect = split_phase_at(fam, 1.0)
    assert defect < 1e-12
    t = 0.7
    psi = fam.psi(t, 0)
    assert np.abs(lo.psi(t, 0) + hi.psi(t, 0) - psi).max() \
        < 1e-12 * max(np.abs(psi).max(), 1e-300)
    assert np.abs(lo.psi(t, 0)).max() > 0
    assert np.abs(hi.psi(t, 0)).max() > 0
    # a threshold below every piece leaves the low half empty but still exact
    lo2, hi2, defect2 = split_phase_at(fam, 0.1)
    assert defect2 < 1e-12
    assert np.abs(lo2.psi(t, 0)).max() == 0.0


def test_transverse_symbol_built_once_per_direction_per_build_or_split(monkeypatch):
    calls = _counting(monkeypatch, pmx, "transverse_inverse_symbol")
    dirs = stream(82, 0).standard_normal((3, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fam = PhaseFamily(connection(), +1, 0.45, DirectionCache.of_directions(GRID, dirs))
    assert len(calls) == 3                      # the multiplier build
    PhaseFamily(connection(3e-2, seed=70), -1, 0.45, fam.cache)
    assert len(calls) == 3                      # multipliers memoized on the cache
    phase_defect(fam, [0.0, 0.7])
    assert len(calls) == 3                      # the defect identity builds none
    split_phase_at(fam, 1.0)
    assert len(calls) == 6                      # the split


def test_surrogate_direction_independent_reduction(count_transforms):
    base = random_field(GRID, stream(77, 0), 1.0, 2.0)      # on the frequency side
    ts = np.linspace(0.0, 1.0, 3)
    B = 24
    dirs = np.stack([[np.cos(2 * np.pi * b / B), np.sin(2 * np.pi * b / B)]
                     for b in range(B)])
    fields = [SpacetimeField(ts, tuple(base for _ in ts)) for _ in range(B)]
    theta = 0.8
    vol = 5.0
    calls = count_transforms()
    val, tail = decomposable_surrogate(dirs, fields, theta, 2, 2, annulus_volume=vol)
    assert calls == {"ifftn": 1}       # the base; every difference is taken on samples
    expect = theta ** (-0.5) * np.sqrt(vol) \
        * spacetime_norm(fields[0], 2, lambda s: lebesgue_norm(s, 2))
    assert abs(val - expect) < 1e-12 * expect
    assert tail == 0.0


def test_surrogate_theta_doubling_window():
    # a fixed family, smooth at unit angular scale: doubling theta moves the
    # surrogate by at most 2^{+-(n-1)/2} x 2
    base = random_field(GRID, stream(79, 0), 1.0, 2.0)
    ts = np.linspace(0.0, 1.0, 3)
    B = 48
    angles = 2 * np.pi * np.arange(B) / B
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    fields = [SpacetimeField(ts, tuple(base * float(np.cos(a)) for _ in ts))
              for a in angles]
    v1, _ = decomposable_surrogate(dirs, fields, 0.5, 2, 2)
    v2, _ = decomposable_surrogate(dirs, fields, 1.0, 2, 2)
    n = GRID.n
    lo = 2.0 ** (-(n - 1) / 2.0) / 2.0
    hi = 2.0 ** ((n - 1) / 2.0) * 2.0
    assert lo <= v2 / v1 <= hi


def test_surrogate_quadrature_spacing_guard():
    ts = np.linspace(0.0, 1.0, 3)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    base = random_field(GRID, stream(78, 0), 1.0, 2.0)
    fields = [SpacetimeField(ts, tuple(base for _ in ts)) for _ in range(2)]
    with pytest.raises(ParameterError):
        decomposable_surrogate(dirs, fields, 0.3, 2, 2)


def test_surrogate_rejects_directions_off_the_plane():
    # a quadrature fine enough for theta, but of directions in R^3
    ts = np.linspace(0.0, 1.0, 3)
    angles = 2 * np.pi * np.arange(48) / 48
    dirs = np.stack([np.cos(angles), np.sin(angles), np.zeros(48)], axis=1)
    base = random_field(GridSpec(3, 8, 4.0), stream(78, 1), 0.5, 1.0)
    fields = [SpacetimeField(ts, tuple(base for _ in ts)) for _ in angles]
    with pytest.raises(ParameterError, match="plane"):
        decomposable_surrogate(dirs, fields, 0.8, 2, 2)


def test_direction_cache_policies():
    modes = CUT.modes(GRID)
    exact = DirectionCache.build(GRID, modes, policy="exact")
    assert exact.num_buckets <= len(modes)
    bucketed = DirectionCache.build(GRID, modes, policy="bucketed", eta_dir=0.3)
    assert bucketed.num_buckets < exact.num_buckets
    with pytest.raises(ParameterError):
        DirectionCache.build(GRID, modes, policy="bucketed")   # eta_dir missing
    with pytest.raises(ParameterError):
        DirectionCache.build(GRID, modes, policy="auto", eta_dir=0.3)   # no such policy


@pytest.mark.parametrize("policy", ["exact", "bucketed"])
def test_direction_cache_rejects_the_zero_mode(policy):
    # the zero mode has no direction: its row of unit vectors was NaN, and
    # under "bucketed" every later mode's argmax landed on it
    with pytest.raises(StructuralError, match="zero mode"):
        DirectionCache.build(GRID, np.array([[0, 0], [1, 0], [2, 0]]), policy=policy,
                             eta_dir=0.3)
    assert DirectionCache.build(GRID, np.array([[1, 0], [2, 0]]), policy=policy,
                                eta_dir=0.3).num_buckets == 1


def test_cache_of_directions_keeps_given_directions():
    dirs = stream(81, 0).standard_normal((3, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cache = DirectionCache.of_directions(GRID, dirs)
    assert cache.num_buckets == 3
    assert cache.directions.tobytes() == dirs.tobytes()
    assert cache.modes.shape == (0, 2) and all(k.index.size == 0 for k in cache.bucket_kernels)
    with pytest.raises(ParameterError):
        DirectionCache.of_directions(GRID, 2.0 * dirs)
    with pytest.raises(StructuralError):
        DirectionCache.of_directions(GRID, dirs[:, :1])


def test_wave_operator_requires_cover():
    conn = connection()
    probe = DirectionCache.build(GRID, CUT.modes(GRID)[:4], policy="exact")
    with pytest.raises(StructuralError):
        WaveOperator(PhaseFamily(conn, +1, 0.25, probe), CUT)


@pytest.mark.parametrize("cache_grid", [GridSpec(2, 64, 16.0), GridSpec(2, 128, 8.0),
                                        GridSpec(2, 32, 8.0)])
def test_phase_family_rejects_cache_on_another_grid(cache_grid):
    # the cache's modes index its own lattice and its transforms scale by its own L
    cache = DirectionCache.build(cache_grid, CUT.modes(GRID), policy="bucketed", eta_dir=0.15)
    with pytest.raises(StructuralError, match="does not match the connection's grid"):
        PhaseFamily(connection(), +1, 0.25, cache)


def test_unitarity_bounds_at_sampled_times():
    eps = 1e-2
    conn = make_free_connection(GRID, BAND, eps, 80)
    op = WaveOperator(PhaseFamily(conn, +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs(80)
    rng = stream(80, 0)
    for t in (0.2, 0.9):
        assert op.operator_norm_at(t, rng) <= 1.0 + 10.0 * eps
        assert op.gradient_commutation_defect(t, h) <= 10.0 * eps
        assert op.time_commutation_defect(t, h) <= 10.0 * eps


# ---------------------------------------------------------------------------
# the per-time phase table

def _counting(monkeypatch, owner, name):
    """Record the input shape of every call to owner.name."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[-1]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _live_buckets(op, h):
    base = (np.asarray(h) * op.a_sym).ravel()
    return sum(1 for k in op.cache.bucket_kernels if base[k.index].any())


def test_repeat_apply_at_same_time_reuses_phases(monkeypatch):
    op = WaveOperator(PhaseFamily(connection(), +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs()
    live = _live_buckets(op, h)
    ffts = [_counting(monkeypatch, np.fft, name) for name in ("fftn", "ifftn")]
    tables = _counting(monkeypatch, PhaseFamily, "_build_table")
    calls = _counting(monkeypatch, _ModeKernel, "synthesize")
    first = op.apply(0.4, h).phys_values
    assert len(tables) == 1              # one phase table for the time
    del calls[:]
    second = op.apply(0.4, h).phys_values
    assert len(tables) == 1
    assert len(calls) == live            # only the bucket transforms
    assert np.array_equal(first, second)
    op.apply(0.5, h)                     # a new time rebuilds the table
    assert len(tables) == 2
    assert ffts == [[], []]              # no full-grid transform anywhere


def test_apply_builds_no_derivative_fields(monkeypatch):
    fam = PhaseFamily(connection(), +1, 0.25, small_cache())
    op = WaveOperator(fam, CUT)
    h = annulus_coeffs()
    tables = _counting(monkeypatch, PhaseFamily, "_build_table")
    calls = _counting(monkeypatch, _ModeKernel, "synthesize")
    op.apply(0.4, h)
    # one table: every bucket's phase row through the support transform in
    # batches, then one transform per live bucket; no psi_t, no grad
    assert len(tables) == 1
    rows = [shape for shape in calls if len(shape) == 2]
    assert all(shape[1] == len(fam.conn.support) for shape in rows)
    assert sum(shape[0] for shape in rows) == fam.cache.num_buckets
    assert len(calls) - len(rows) == _live_buckets(op, h)
    for _ in range(2):                   # recomputed on each call, never cached
        del calls[:]
        fam.grad(0.4, 0)
        assert calls == [(GRID.n, len(fam.conn.support))]  # the n fields in one call
    del calls[:]
    fam.psi_t(0.4, 0)
    assert calls == [(len(fam.conn.support),)]
    assert len(tables) == 1


def test_phase_table_row_equals_single_bucket_synthesis():
    cache = small_cache()
    fam = PhaseFamily(connection(), -1, 0.25, cache)
    rows = PhaseFamily._CHUNK_BYTES // (16 * GRID.num_points)
    assert cache.num_buckets > rows      # the table takes more than one chunk
    for t in (0.4, 0.9):
        defects = []
        for b in range(cache.num_buckets):
            phase = fam.slice_at(t, b)
            psi_hat = pmx._lift(fam._samples, 0, -1, cache.directions[b], fam._xi_dot[b],
                                fam._w[b])
            psi_c = fam.conn.kernel.synthesize(psi_hat)
            assert np.array_equal(fam._psi_hat[b], psi_hat)
            assert np.array_equal(phase, np.exp(2j * np.pi * psi_c.real))
            defects.append(np.abs(psi_c.imag).max() / max(np.abs(psi_c).max(), 1e-300))
        assert fam.imag_defect(t) == max(defects)


def test_lift_readers_build_no_phase_table(monkeypatch):
    cache = small_cache()
    fam = PhaseFamily(connection(), +1, 0.25, cache)
    tables = _counting(monkeypatch, PhaseFamily, "_build_table")
    # each call at a new time: psi, its derivatives and the defect read the lift alone
    fam.psi(0.1, 0)
    fam.psi_t(0.2, 1)
    fam.grad(0.3, 2)
    phase_defect(fam, [0.4])
    fam.imag_defect(0.5)
    assert tables == []
    for b in range(cache.num_buckets):
        assert np.array_equal(fam.slice_at(0.5, b), np.exp(2j * np.pi * fam.psi(0.5, b)))
    assert len(tables) == 1


def test_imag_defect_does_not_depend_on_call_history():
    conn, cache = connection(), small_cache()
    fam = PhaseFamily(conn, -1, 0.25, cache)
    before = fam.imag_defect(0.4)
    for t in (0.9, 0.1):                 # tables built at other times
        fam.slice_at(t, 0)
    assert fam.imag_defect(0.4) == before
    assert PhaseFamily(conn, -1, 0.25, cache).imag_defect(0.4) == before


def test_batched_lift_equals_per_row_lift_past_numpy_elision_size():
    # 127 x 255 > 16,384 elements: there W * (...) would run in place as (...) * W
    rng = stream(71, 0)
    B, S = 127, 255
    cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples = (cplx(2, S), cplx(2, S), cplx(2, S))
    dirs, xi_dot, W = rng.standard_normal((B, 2)), rng.standard_normal((B, S)), cplx(B, S)
    for i in (0, 1):
        rows = [pmx._lift(samples, i, -1, dirs[b], xi_dot[b], W[b]) for b in range(B)]
        assert np.array_equal(pmx._lift(samples, i, -1, dirs, xi_dot, W), np.stack(rows))


def test_lazy_derivative_fields_match_family_defect_identity():
    fam = PhaseFamily(connection(), -1, 0.25, small_cache())
    assert phase_defect(fam, [0.0, 0.7]) < 1e-10
    # the derivative fields are recomputed from the support, never kept
    kept = {name: id(value) for name, value in vars(fam).items()}
    fam.psi(0.7, 1), fam.psi_t(0.7, 1), fam.grad(0.7, 1)
    assert {name: id(value) for name, value in vars(fam).items()} == kept


def test_families_on_one_cache_share_multipliers():
    cache = small_cache()
    fam_a = PhaseFamily(connection(1e-2), +1, 0.25, cache)
    fam_b = PhaseFamily(connection(3e-2, seed=70), -1, 0.25, cache)
    assert np.array_equal(fam_a.conn.support, fam_b.conn.support)
    assert fam_a._w is fam_b._w
    other_sigma = PhaseFamily(connection(), +1, 0.3, cache)
    assert not np.shares_memory(other_sigma._w, fam_a._w)
    assert not np.array_equal(other_sigma._w, fam_a._w)
    own = fam_a.with_multipliers([2.0 * w for w in fam_a._w])
    assert not np.shares_memory(own._w, fam_a._w)
    assert own.conn is fam_a.conn


def _band_support(grid=GRID, band=BAND):
    return np.flatnonzero(sum(band_symbol(grid, k) for k in band) != 0)


def test_multipliers_live_on_band_support():
    cache = small_cache()
    fam = PhaseFamily(connection(), +1, 0.25, cache)
    S = _band_support()
    assert np.array_equal(fam.conn.support, S) and len(S) < GRID.num_points // 50
    assert all(np.array_equal(fam.conn.bands[k], band_symbol(GRID, k).ravel()[S]) for k in BAND)
    assert fam._w.nbytes <= cache.num_buckets * len(S) * 16


def _rel_max(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def test_psi_matches_full_grid_formula():
    conn = connection()
    cache = small_cache()
    t = 0.6
    A, At = whole_grid_connection(t)
    for sign in (+1, -1):
        fam = PhaseFamily(conn, sign, 0.25, cache)
        for b in range(0, cache.num_buckets, 11):
            w_dir = cache.directions[b]
            W, _ = full_grid_w(fam, w_dir)
            off = np.ones(GRID.num_points, dtype=bool)
            off[conn.support] = False
            assert not W.ravel()[off].any()
            assert np.array_equal(fam._w[b], W.ravel()[conn.support])
            dot = np.tensordot(w_dir, GRID.xi, axes=(0, 0))
            Aw = sum(A[j] * w_dir[j] for j in range(GRID.n))
            Atw = sum(At[j] * w_dir[j] for j in range(GRID.n))
            psi_hat = W * (1j * dot * Aw + (sign / (2.0 * np.pi)) * Atw)
            ref = (np.fft.ifftn(psi_hat) / GRID.cell_volume).real
            assert _rel_max(fam.psi(t, b), ref) <= 1e-13


def test_apply_and_adjoint_match_bucket_sum_formula():
    cache = small_cache()
    h = annulus_coeffs(90)
    rng = stream(91, 0)
    f = rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape)
    a = CUT.symbol(GRID)
    t = 0.45
    for sign in (+1, -1):
        fam = PhaseFamily(connection(), sign, 0.25, cache)
        op = WaveOperator(fam, CUT)
        half_wave = np.exp(sign * 2j * np.pi * t * GRID.xi_norm)
        weighted = np.asarray(h, dtype=complex) * a * half_wave
        ref = np.zeros(GRID.shape, dtype=complex)
        ref_adj = np.zeros(GRID.shape, dtype=complex)
        for b, kern in enumerate(cache.bucket_kernels):
            mask = np.zeros(GRID.num_points, dtype=bool)
            mask[kern.index] = True
            mask = mask.reshape(GRID.shape)
            psi = fam.psi(t, b)
            c = np.where(mask, weighted, 0.0)
            ref += np.exp(2j * np.pi * psi) * (np.fft.ifftn(c) / GRID.cell_volume)
            g = np.fft.fftn(np.exp(-2j * np.pi * psi) * f) * GRID.cell_volume
            ref_adj += np.where(mask, g, 0.0)
        ref_adj = np.conj(half_wave) * a * ref_adj
        assert _rel_max(op.apply(t, h).phys_values, ref) <= 1e-13
        assert _rel_max(op.apply_adjoint(t, ScalarField(GRID, f)), ref_adj) <= 1e-13


def test_second_apply_takes_no_full_grid_exponential(monkeypatch):
    op = WaveOperator(PhaseFamily(connection(), +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs()
    op.apply(0.4, h)
    sizes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    op.apply(0.4, h)
    assert sizes and max(sizes) < GRID.num_points


def test_dropped_family_is_freed_without_cycle_collection():
    import gc
    import weakref
    gc.disable()
    try:
        fam = PhaseFamily(connection(), +1, 0.25, small_cache())
        op = WaveOperator(fam, CUT)
        op.apply(0.4, annulus_coeffs())
        fam.grad(0.4, 0)
        ref = weakref.ref(fam)
        del fam, op
        assert ref() is None
    finally:
        gc.enable()


def test_residual_check_builds_three_slice_sets_per_time(monkeypatch):
    op = WaveOperator(PhaseFamily(connection(), +1, 0.25, small_cache()), CUT)
    h = annulus_coeffs()
    tables = _counting(monkeypatch, PhaseFamily, "_build_table")
    times = [0.2, 0.5]
    for dts in ([0.02], [0.02, 0.01]):
        del tables[:]
        residual_check(op, h, times, dts)
        # t - dt and t + dt per step, then t; the amplitude path at t reuses it
        assert len(tables) == (1 + 2 * len(dts)) * len(times)


def test_connection_samples_are_the_whole_grid_field(count_transforms):
    conn = connection()
    times = (0.4, 0.0, 1.3)
    refs = [grid_samples(whole_grid_connection(t)[0]) for t in times]
    transforms = count_transforms()
    for t, ref in zip(times, refs):
        A = conn.samples(t)
        assert A.shape == (GRID.n,) + GRID.shape and A.dtype == np.float64
        assert np.abs(A - ref).max() <= 1e-14 * np.abs(ref).max()
    assert not transforms                # synthesized from the support alone


def test_phase_table_runs_the_free_flow_on_the_band_support(monkeypatch):
    from cronlab import grid as grid_module
    conn = connection()
    fam = PhaseFamily(conn, +1, 0.25, small_cache())
    sizes = []

    class Counted(grid_module.FreeFlow):
        def __init__(self, rho, t):
            sizes.append(np.shape(rho))
            super().__init__(rho, t)
    monkeypatch.setattr(grid_module, "FreeFlow", Counted)
    S = conn.support
    for t in (0.0, 0.35, 1.9):
        del sizes[:]
        fam.slice_at(t, 0)
        assert sizes == [(len(S),)]
        # A and A_t bitwise their values in the whole-grid flow
        for kept, full in zip(fam._samples, whole_grid_connection(t)):
            assert np.array_equal(kept, full.reshape(GRID.n, -1)[:, S])


def _arrays(obj):
    """The arrays an object holds as attributes, also inside tuples."""
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def test_one_dft_table_per_grid_and_connections_keep_only_support_arrays():
    grid = GridSpec(2, 64, 8.0)          # a fresh grid, whose table no kernel has read
    conns = [connection(grid=grid), FreeConnection.zero(grid, BAND)]
    caches = [small_cache(grid=grid), DirectionCache.of_directions(grid, [[0.6, 0.8]])]
    for conn in conns:
        for cache in caches:
            PhaseFamily(conn, -1, 0.25, cache).slice_at(0.3, 0)
    kernels = [conn.kernel for conn in conns] + [k for c in caches for k in c.bucket_kernels]
    assert all(kern._table is grid.dft_table for kern in kernels)
    assert grid.dft_table.shape == (grid.N, grid.N)
    for conn in conns:
        bound = grid.n * len(conn.support)
        held = list(_arrays(conn)) + [a for a in _arrays(conn.kernel) if a is not grid.dft_table]
        assert held and max(a.size for a in held) <= bound < grid.num_points


# ---------------------------------------------------------------------------
# transforms of spectra carried by a few modes

def _kernel_indices(grid, rng):
    """Random flat indices plus the zero mode, the -1 mode and the Nyquist
    index on every axis."""
    N = grid.N
    edges = [(0,) * grid.n, (N - 1,) * grid.n, (N // 2,) + (1,) * (grid.n - 1),
             (N - 1, N // 2) + (0,) * (grid.n - 2)]
    picked = rng.choice(grid.num_points, 40, replace=False)
    edge = np.ravel_multi_index(np.array(edges).T, grid.shape)
    return np.unique(np.concatenate([picked, edge]))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n,N", [(2, 32), (3, 16)])
def test_mode_kernel_synthesis_matches_full_grid_ifft(n, N):
    grid = GridSpec(n, N, 8.0)
    rng = stream(95, n)
    idx = _kernel_indices(grid, rng)
    kern = _ModeKernel(grid, idx)
    vals = _random_complex(rng, len(idx))
    F = np.zeros(grid.num_points, dtype=complex)
    F[idx] = vals
    ref = np.fft.ifftn(F.reshape(grid.shape)) / grid.cell_volume
    assert _rel_max(kern.synthesize(vals), ref) <= 1e-13
    f = _random_complex(rng, grid.shape)
    ref_an = (np.fft.fftn(f) * grid.cell_volume).ravel()[idx]
    assert _rel_max(kern.analyze(f), ref_an) <= 1e-13
    whole = (grid.xi.reshape(n, -1), grid.xi_norm.ravel())
    assert all(np.array_equal(a, w[..., idx]) for a, w in zip(kern.lattice, whole, strict=True))
    # Nyquist modes among them keep the grid's coordinates too
    assert nyquist_mask(grid).ravel()[idx].any()


@pytest.mark.parametrize("n,N", [(2, 32), (3, 16)])
def test_mode_kernel_analysis_is_adjoint_of_synthesis(n, N):
    grid = GridSpec(n, N, 8.0)
    rng = stream(96, n)
    idx = _kernel_indices(grid, rng)
    kern = _ModeKernel(grid, idx)
    c = _random_complex(rng, len(idx))
    f = _random_complex(rng, grid.shape)
    lhs = np.vdot(f, kern.synthesize(c)) * grid.cell_volume
    rhs = np.vdot(kern.analyze(f), c) / grid.L ** n
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


@pytest.mark.parametrize("n,N", [(2, 32), (3, 16)])
def test_mode_kernel_batched_call_equals_per_row_calls(n, N):
    grid = GridSpec(n, N, 8.0)
    rng = stream(97, n)
    kern = _ModeKernel(grid, _kernel_indices(grid, rng))
    rows = PhaseFamily._CHUNK_BYTES // (16 * grid.num_points) + 3   # more than a table chunk
    vals = _random_complex(rng, (rows, len(kern.index)))
    batched = kern.synthesize(vals)
    assert batched.shape == (rows,) + grid.shape
    assert all(np.array_equal(batched[i], kern.synthesize(vals[i])) for i in range(rows))
    fields = _random_complex(rng, (2,) + grid.shape)
    coeffs = kern.analyze(fields)
    assert all(np.array_equal(coeffs[i], kern.analyze(fields[i])) for i in range(2))
