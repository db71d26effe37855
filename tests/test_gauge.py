import numpy as np
import pytest

from cronlab.errors import ParameterError, PreconditionError
from cronlab.gauge import (THETA_MAX, angle_to, coulomb_gain_ratios,
                           covariant_gradient, curvature_from_gradients, current_from_gradient,
                           greater_symbol, leray_project, null_derivative, null_form_check,
                           sector_symbol, transverse_inverse_symbol)
from cronlab.grid import (GridSpec, ScalarField, VectorField, apply_multiplier, constant_field,
                          gradient, inner_product, lebesgue_norm, mode_field, plancherel_l2,
                          relative_l2_difference, to_physical, zero_field)
from cronlab.parametrix import HalfWaveField
from cronlab.random_fields import random_divergence_free, random_field, stream
from conftest import nyquist_mask


def unit(vec):
    v = np.asarray(vec, dtype=float)
    return v / np.linalg.norm(v)


def vec_norm(V):
    return np.sqrt(sum(lebesgue_norm(c, 2) ** 2 for c in V.components))


# ---------------------------------------------------------------------------
# Leray

def test_leray_annihilates_gradients():
    g = GridSpec(3, 16, 2.0)
    chi = random_field(g, stream(20, 0), 0.5, 3.0, real=True)
    V = gradient(chi)
    assert vec_norm(leray_project(V)) < 1e-12 * vec_norm(V)


def test_leray_fixes_divergence_free_fields():
    g = GridSpec(3, 16, 2.0)
    V = random_divergence_free(g, stream(20, 1))
    PV = leray_project(V)
    assert max(relative_l2_difference(a, b)
               for a, b in zip(V.components, PV.components)) < 1e-12


def test_random_divergence_free_is_normed_by_plancherel_without_a_transform(count_transforms):
    g = GridSpec(3, 16, 2.0)
    calls = count_transforms()
    V = random_divergence_free(g, stream(20, 9), 0.5, 3.0)
    assert calls == {}
    assert V.divergence_free
    assert abs(np.sqrt(sum(plancherel_l2(c) ** 2 for c in V.components)) - 1.0) <= 1e-15


def test_leray_idempotent_and_self_adjoint():
    g = GridSpec(2, 32, 2.0)
    V = VectorField(tuple(random_field(g, stream(20, 2 + i), 0.5, 7.0) for i in range(2)))
    W = VectorField(tuple(random_field(g, stream(20, 4 + i), 0.5, 7.0) for i in range(2)))
    PV = leray_project(V)
    assert max(relative_l2_difference(a, b)
               for a, b in zip(PV.components, leray_project(PV).components)) < 1e-12
    lhs = sum(inner_product(a, b) for a, b in zip(PV.components, W.components))
    rhs = sum(inner_product(a, b) for a, b in zip(V.components,
                                                  leray_project(W).components))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_leray_mean_handling():
    g = GridSpec(2, 16, 2.0)
    V = VectorField((constant_field(g, 1.0), constant_field(g, -2.0)))
    with pytest.raises(PreconditionError):
        leray_project(V)
    PV = leray_project(V, keep_mean=True)
    assert max(relative_l2_difference(a, b)
               for a, b in zip(V.components, PV.components)) < 1e-14


# ---------------------------------------------------------------------------
# sector projections

def test_sector_symbol_pointwise_values():
    g = GridSpec(3, 32, 8.0)
    w = unit([1.0, 0.0, 0.0])
    sg = sector_symbol(g, w, 0.2, "greater")
    sl = sector_symbol(g, w, 0.2, "leq")
    on_axis = g.mode_index((4, 0, 0))
    assert sg[on_axis] == 0.0 and sl[on_axis] == 1.0
    anti_axis = g.mode_index((-4, 0, 0))
    assert sg[anti_axis] == 0.0          # both cones included (even symbol)
    orth = g.mode_index((0, 4, 0))
    assert abs(sg[orth] - 1.0) < 1e-15   # far from both cones at theta <= 0.1-ish


def test_sector_partition_and_range():
    g = GridSpec(2, 32, 4.0)
    w = unit([0.6, 0.8])
    for theta in (0.1, 0.3, 0.7):
        sg = sector_symbol(g, w, theta, "greater")
        sl = sector_symbol(g, w, theta, "leq")
        assert np.abs(sg + sl - 1.0).max() < 1e-13
        assert sg.real.min() >= 0.0 and sg.real.max() <= 1.0
    f = random_field(g, stream(21, 0), 0.5, 3.0)
    back = apply_multiplier(f, sector_symbol(g, w, 0.3, "greater")) \
        + apply_multiplier(f, sector_symbol(g, w, 0.3, "leq"))
    assert relative_l2_difference(back, f) < 1e-13


def test_sector_evenness_and_monotonicity():
    g = GridSpec(2, 32, 4.0)
    w = unit([1.0, 2.0])
    idx = g.mode_index((3, -1))
    ridx = g.mode_index((-3, 1))
    prev = None
    for theta in (0.05, 0.1, 0.2, 0.4):
        sl = sector_symbol(g, w, theta, "leq")
        assert abs(sl[idx] - sl[ridx]) < 1e-14
        if prev is not None:
            assert np.all(sl.real >= prev.real - 1e-14)  # leq grows with theta
        prev = sl


def test_sector_theta_validation():
    g = GridSpec(2, 16, 4.0)
    w = unit([1.0, 0.0])
    for theta in (2.0, -0.1, 0.0, THETA_MAX * (1.0 + 1e-12)):
        with pytest.raises(ParameterError, match="outside"):
            sector_symbol(g, w, theta)


@pytest.mark.parametrize("omega, mode, needle", [
    ([1.0, 1.0], "greater", "unit length"),
    ([1.0 + 1e-13, 0.0], "greater", "unit length"),
    ([0.0, 0.0], "leq", "unit length"),
    ([1.0, 0.0], "wider", "unknown sector mode"),
])
def test_sector_symbol_rejects_bad_sectors(omega, mode, needle):
    with pytest.raises(ParameterError, match=needle):
        sector_symbol(GridSpec(2, 16, 4.0), np.array(omega), 0.2, mode)


def test_sector_symbol_admits_its_edges():
    g = GridSpec(2, 16, 4.0)
    w = np.array([1.0 + 5e-15, 0.0])       # unit length within 1e-14
    assert sector_symbol(g, w, THETA_MAX, "band").shape == g.shape
    # omega as any sequence of floats, read as a plain array
    assert np.array_equal(sector_symbol(g, [0.6, 0.8], 0.3), sector_symbol(g, unit([3, 4]), 0.3))


def test_band_sector_is_difference_of_greaters():
    g = GridSpec(2, 32, 4.0)
    w = unit([1.0, 1.0])
    theta = 0.4
    band = sector_symbol(g, w, theta, "band")
    expect = greater_symbol(g, w, theta / 2.0) - greater_symbol(g, w, theta)
    assert np.abs(band - expect).max() < 1e-15


# ---------------------------------------------------------------------------
# null derivatives

def test_null_derivative_annihilates_matched_free_wave():
    # exp(2 pi i(x.xi0 + t|xi0|)) is killed by L^- when xi0 is parallel to omega
    g = GridSpec(2, 32, 8.0)
    mode = (3, 0)
    xi0 = g.mode_frequency(mode)
    rho = float(np.linalg.norm(xi0))
    w = xi0 / rho
    u0 = mode_field(g, mode).values
    u1 = 2j * np.pi * rho * u0
    wave = HalfWaveField(g, u0, u1)     # forward wave: time factor e^{+2 pi i rho t}
    out_minus = null_derivative(wave, w, -1)
    out_plus = null_derivative(wave, w, +1)
    t = 0.42
    assert lebesgue_norm(out_minus.sample(t), 2) < 1e-12 * lebesgue_norm(out_plus.sample(t), 2)
    expect = wave.sample(t) * (4j * np.pi * rho)
    assert relative_l2_difference(out_plus.sample(t), expect) < 1e-12


def test_box_equals_null_frame_composition():
    g = GridSpec(3, 16, 4.0)
    rng = stream(22, 2)
    u0 = random_field(g, rng, 0.5, 1.5)
    u1 = random_field(g, rng, 0.5, 1.5)
    wave = HalfWaveField(g, u0.freq_values, u1.freq_values)
    box = wave.box()
    t = 0.3
    scale = lebesgue_norm(wave.mul_symbol(-4 * np.pi ** 2 * g.xi_norm ** 2).sample(t), 2)
    for i in range(20):
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        lp_ = null_derivative(wave, w, +1)
        lpm = null_derivative(lp_, w, -1)
        sym = -4.0 * np.pi ** 2 * (g.xi_norm ** 2 - np.tensordot(w, g.xi, axes=(0, 0)) ** 2)
        composed = lpm + wave.mul_symbol(sym)
        assert lebesgue_norm(composed.sample(t) - box.sample(t), 2) < 1e-10 * scale


@pytest.mark.parametrize("n,N", [(2, 16), (3, 8)])
def test_free_wave_samples_as_if_its_spectra_had_no_nyquist_rows_or_zero_mode(n, N):
    # the wave keeps the spectra it is given and drops those entries only from
    # the spectrum it synthesizes, so a wave whose spectra carry them samples
    # bit for bit as one whose spectra have them zeroed, through every operation
    g = GridSpec(n, N, 4.0)
    rng = stream(24, n)
    given = [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape) for _ in range(2)]
    zeroed = [X.copy() for X in given]
    for X in zeroed:
        X[nyquist_mask(g)] = 0.0
        X.flat[0] = 0.0
    w = unit(rng.standard_normal(n))
    sym = 2j * np.pi * np.tensordot(w, g.xi, axes=(0, 0))
    ops = {"identity": lambda F: F, "dt": lambda F: F.dt(),
           "mul_symbol": lambda F: F.mul_symbol(sym), "+": lambda F: F + F.dt(),
           "*": lambda F: 0.7 * F, "box": lambda F: F.box(),
           "null_derivative": lambda F: null_derivative(null_derivative(F, w, +1), w, -1)}
    a, b = HalfWaveField(g, *given), HalfWaveField(g, *zeroed)
    for name, op in ops.items():
        for t in (0.0, 0.37):
            assert np.array_equal(op(a).sample(t).values, op(b).sample(t).values), (name, t)


# ---------------------------------------------------------------------------
# transverse Laplacian inverse

def test_transverse_inverse_is_exact_on_sector_support():
    g = GridSpec(3, 16, 4.0)
    w = unit([0.0, 0.0, 1.0])
    f = random_field(g, stream(23, 0), 0.3, 1.5)
    fs = apply_multiplier(f, sector_symbol(g, w, 0.4, "greater"))
    inv = apply_multiplier(fs, transverse_inverse_symbol(g, w, 0.1))
    dot = np.tensordot(w, g.xi, axes=(0, 0))
    transverse_laplacian = -4.0 * np.pi ** 2 * (g.xi_norm ** 2 - dot ** 2)
    assert relative_l2_difference(apply_multiplier(inv, transverse_laplacian), fs) < 1e-12


def test_transverse_inverse_single_equatorial_mode():
    g = GridSpec(2, 32, 4.0)
    w = unit([1.0, 0.0])
    mode = (0, 3)
    rho = float(np.linalg.norm(g.mode_frequency(mode)))
    f = to_physical(mode_field(g, mode))
    out = apply_multiplier(f, transverse_inverse_symbol(g, w, 0.5))
    expect = f * (-1.0 / (4.0 * np.pi ** 2 * rho ** 2))
    assert relative_l2_difference(out, expect) < 1e-13


def test_transverse_inverse_band_symbol_magnitude():
    # on a shell-k, angle-theta band the symbol sits within [c, C] (2 pi 2^k theta)^-2
    g = GridSpec(3, 32, 4.0)
    w = np.array([0.0, 0.0, 1.0])
    k, theta = 1, 0.4
    ang = angle_to(g, w)
    band = (np.abs(sector_symbol(g, w, theta, "band")) > 0.5) \
        & (np.abs(g.xi_norm - 2.0 ** k) < 2.0 ** k * 0.25)
    assert band.sum() > 10
    dot = np.tensordot(w, g.xi, axes=(0, 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = 1.0 / (4.0 * np.pi ** 2 * (g.xi_norm ** 2 - dot ** 2))
    scaled = np.abs(sym[band]) * (2.0 * np.pi * 2.0 ** k * theta) ** 2
    assert scaled.max() / scaled.min() <= 8.0


# ---------------------------------------------------------------------------
# divergence-free angular gain

def test_coulomb_gain_zero_on_axis():
    g = GridSpec(3, 16, 4.0)
    w = unit([1.0, 0.0, 0.0])
    # a single on-axis mode pair: B_hat perpendicular to xi makes B_hat . omega = 0
    F = np.zeros((3,) + g.shape, dtype=complex)
    idx = g.mode_index((2, 0, 0))
    ridx = g.mode_index((-2, 0, 0))
    F[1][idx] = 1.0
    F[1][ridx] = 1.0
    comps = tuple(ScalarField(g, F[j], rep="frequency") for j in range(3))
    B = VectorField(comps, divergence_free=True)
    assert coulomb_gain_ratios(B, [(w, 0.25, sector_symbol(g, w, 0.25, "leq"))]) \
        == [0.0]


def test_coulomb_gain_bounded_over_scan():
    g = GridSpec(3, 16, 4.0)
    rng = stream(24, 0)
    worst = 0.0
    for i in range(5):
        B = random_divergence_free(g, stream(24, 1 + i), 0.5, 1.8)
        for j in range(5):
            v = rng.standard_normal(3)
            w = unit(v)
            sectors = [(w, theta, sector_symbol(g, w, theta, mode))
                       for theta in (0.25, 0.125, 0.0625) for mode in ("leq", "band")]
            worst = max(worst, *coulomb_gain_ratios(B, sectors))
    assert worst <= 4.0


def test_coulomb_gain_needs_certificate():
    g = GridSpec(2, 16, 4.0)
    V = VectorField(tuple(random_field(g, stream(24, 9 + i), 0.5, 1.5) for i in range(2)))
    with pytest.raises(PreconditionError):
        w = unit([1.0, 0.0])
        coulomb_gain_ratios(V, [(w, 0.25, sector_symbol(g, w, 0.25, "leq"))])


def _coulomb_gain_reference(B, w, theta, sym):
    """The per-mode quotient as written out before the symbol was cancelled:
    max over live modes of |sum_j sym c_j w_j| / (theta |sym c|)."""
    hats = [sym * c.freq_values for c in B.in_frequency().components]
    num = np.abs(sum(h * wj for h, wj in zip(hats, w)))
    mag = np.sqrt(sum(np.abs(h) ** 2 for h in hats))
    live = mag > 1e-14 * mag.max()
    live.flat[0] = False
    return float((num[live] / (theta * mag[live])).max(initial=0.0))


@pytest.mark.parametrize("n", [2, 3])
def test_coulomb_gain_ratios_match_the_uncancelled_quotient(n):
    g = GridSpec(n, 16, 4.0)
    rng = stream(31, n)
    for i in range(3):
        B = random_divergence_free(g, stream(31, 10 * n + i), 0.5, 1.8)
        sectors = [(w, theta, sector_symbol(g, w, theta, mode))
                   for w in (unit(rng.standard_normal(n)) for _ in range(3))
                   for theta in (0.5, 0.25, 0.1, 0.0625)
                   for mode in ("leq", "band", "greater")]
        want = [_coulomb_gain_reference(B, *sector) for sector in sectors]
        got = coulomb_gain_ratios(B, sectors)
        assert all(abs(r - v) <= 1e-12 * v for r, v in zip(got, want))
        # a narrow cone can hold no lattice mode; most sectors are live
        assert sum(v > 0.0 for v in want) >= 0.75 * len(want)


def test_sector_symbols_are_real_and_non_negative():
    """coulomb_gain_ratios cancels the symbol from its quotient, which needs
    every sector symbol real and >= 0."""
    rng = stream(32, 0)
    for n in (2, 3):
        g = GridSpec(n, 16, 4.0)
        for _ in range(8):
            w = unit(rng.standard_normal(n))
            for theta in (THETA_MAX, 0.5, 0.3, 0.125, 0.05, 0.01):
                for mode in ("leq", "band", "greater"):
                    sym = sector_symbol(g, w, theta, mode)
                    assert sym.dtype == np.float64 and sym.min() >= 0.0


# ---------------------------------------------------------------------------
# curvature and covariant derivatives

def _random_connection(g, rng, scale=1.0):
    A0 = random_field(g, rng, 0.5, 2.0, real=True) * scale
    A0_t = random_field(g, rng, 0.5, 2.0, real=True) * scale
    Asp = random_divergence_free(g, rng, 0.5, 2.0)
    Asp_t = random_divergence_free(g, rng, 0.5, 2.0)
    return A0, A0_t, Asp, Asp_t


def test_curvature_of_pure_gauge_vanishes():
    g = GridSpec(2, 32, 4.0)
    rng = stream(25, 0)
    chi = random_field(g, rng, 0.5, 2.0, real=True)
    chi_t = random_field(g, rng, 0.5, 2.0, real=True)
    chi_tt = random_field(g, rng, 0.5, 2.0, real=True)
    A0 = chi_t * (-1.0)
    A0_t = chi_tt * (-1.0)
    gch, gch_t = gradient(chi), gradient(chi_t)
    Asp = VectorField(tuple(c * (-1.0) for c in gch.components))
    Asp_t = VectorField(tuple(c * (-1.0) for c in gch_t.components))
    F = curvature_from_gradients(gradient(A0), Asp_t, [gradient(c) for c in Asp.components])
    scale = max(lebesgue_norm(c, 2) for c in gch.components)
    assert max(lebesgue_norm(v, 2) for v in F.values()) < 1e-11 * scale


def test_curvature_antisymmetry():
    g = GridSpec(3, 16, 4.0)
    rng = stream(25, 1)
    A0, A0_t, Asp, Asp_t = _random_connection(g, rng)
    from cronlab.grid import partial_derivative
    for j in range(3):
        for k in range(3):
            Fjk = partial_derivative(Asp.components[k], j) \
                - partial_derivative(Asp.components[j], k)
            Fkj = partial_derivative(Asp.components[j], k) \
                - partial_derivative(Asp.components[k], j)
            diff = Fjk + Fkj
            assert lebesgue_norm(diff, 2) < 1e-13 * max(lebesgue_norm(Fjk, 2), 1e-30)


def test_covariant_gradient_flat_connection():
    # D_j phi = d_j phi when A = 0, for every j
    g = GridSpec(2, 16, 4.0)
    rng = stream(25, 2)
    phi = random_field(g, rng, 0.5, 2.0)
    Z = VectorField(tuple(zero_field(g) for _ in range(2)), divergence_free=True)
    from cronlab.grid import partial_derivative
    cov = covariant_gradient(phi.phys_values, gradient(phi), Z)
    assert len(cov) == 2
    for j in range(2):
        dj = partial_derivative(phi, j)
        assert relative_l2_difference(ScalarField(g, cov[j]), dj) < 1e-14
        assert np.array_equal(cov[j], dj.phys_values)


# ---------------------------------------------------------------------------
# null form structure

def test_null_form_zero_field():
    g = GridSpec(2, 16, 4.0)
    Z = VectorField(tuple(zero_field(g) for _ in range(2)), divergence_free=True)
    r_mod, r_lit = null_form_check(zero_field(g), Z)
    assert r_mod == 0.0 and r_lit == 0.0


def test_null_form_closes_with_modulus_reading():
    g = GridSpec(2, 32, 8.0)
    rng = stream(26, 0)
    phi = random_field(g, rng, 0.2, 0.5)
    Z = VectorField(tuple(zero_field(g) for _ in range(2)), divergence_free=True)
    r_mod, r_lit = null_form_check(phi, Z)
    assert r_mod < 1e-10 and r_lit < 1e-10   # both coincide when A = 0
    A = random_divergence_free(g, rng, 0.2, 0.5)
    r_mod, r_lit = null_form_check(phi, A)
    assert r_mod < 1e-10
    assert r_lit > 1e-3  # the literal phi^2 coupling does not close


def test_current_from_gradient_matches_covariant_form():
    g = GridSpec(2, 16, 4.0)
    rng = stream(26, 1)
    phi = random_field(g, rng, 0.2, 0.5)
    A = random_divergence_free(g, rng, 0.2, 0.5)
    J = current_from_gradient(phi, gradient(phi), A)
    from cronlab.grid import partial_derivative
    for j in range(2):
        # D_j phi summed on phi's (frequency) side, independent of the samples path
        dj = partial_derivative(phi, j) + ScalarField(
            g, 1j * A.components[j].phys_values * phi.phys_values)
        expect = np.imag(phi.phys_values * np.conj(dj.phys_values))
        assert np.abs(J.components[j].phys_values - expect).max() < 1e-13
