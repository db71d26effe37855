import itertools
import re

import numpy as np
import pytest

from cronlab.errors import ParameterError, PreconditionError, SingularSymbolError, StructuralError
from cronlab.grid import (GridSpec, ScalarField, VectorField, apply_multiplier, constant_field,
                          divergence, gradient, inner_product, laplacian, lebesgue_norm,
                          mode_field, plane_wave, sobolev_norm,
                          to_frequency, to_physical, vector_lebesgue_norm, zero_field)
from cronlab.grid import frequency_l2, hermitianize, plancherel_l2, relative_l2_difference
from cronlab.random_fields import random_divergence_free, random_field, stream


def dense_transform(grid, values):
    """Independent oracle: the Riemann-sum transform evaluated as an explicit sum."""
    pts = np.stack([ax.ravel() for ax in grid.x], axis=1)
    out = np.zeros(grid.shape, dtype=complex)
    flat = values.ravel()
    for idx in itertools.product(range(grid.N), repeat=grid.n):
        xi = np.array([grid.freq_1d[i] for i in idx])
        out[idx] = np.sum(flat * np.exp(-2j * np.pi * (pts @ xi))) * grid.cell_volume
    return out


def test_constant_transforms_to_single_coefficient():
    g = GridSpec(2, 16, 4.0)
    F = to_frequency(constant_field(g))
    assert abs(F.values.flat[0] - g.L ** g.n) < 1e-12
    rest = F.values.copy()
    rest.flat[0] = 0.0
    assert np.abs(rest).max() < 1e-12


def test_plane_wave_is_transform_eigenvector():
    g = GridSpec(2, 16, 4.0)
    mode = (3, -2)
    F = to_frequency(plane_wave(g, mode))
    idx = g.mode_index(mode)
    assert abs(F.values[idx] - g.L ** g.n) < 1e-9
    other = F.values.copy()
    other[idx] = 0.0
    assert np.abs(other).max() < 1e-9


def test_plancherel_against_dense_quadrature_oracle():
    for n in (2, 3):
        g = GridSpec(n, 8, 2.0)
        rng = stream(42, n)
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        f = ScalarField(g, vals)
        oracle = dense_transform(g, vals)
        fast = to_frequency(f).values
        assert np.abs(fast - oracle).max() < 1e-10 * np.abs(oracle).max()
        assert abs(lebesgue_norm(f, 2) - frequency_l2(g, fast)) <= 1e-12 * lebesgue_norm(f, 2)


def test_round_trip():
    g = GridSpec(3, 16, 1.0)
    f = random_field(g, stream(1, 0))
    assert relative_l2_difference(f, to_physical(to_frequency(f.in_physical()))) < 1e-12


def test_real_flag_means_conjugate_symmetric():
    g = GridSpec(2, 32, 2.0)
    f = random_field(g, stream(2, 0), real=True)
    F = f.freq_values
    assert np.abs(F - hermitianize(g, F)).max() < 1e-12 * np.abs(F).max()
    assert np.abs(f.phys_values.imag).max() < 1e-12 * np.abs(f.phys_values).max()


def test_real_field_storage_and_transforms():
    g = GridSpec(3, 8, 2.0)
    f = random_field(g, stream(2, 1), real=True)
    x = f.in_physical()
    assert x.values.dtype == np.float64 and x.values.shape == g.shape
    assert x.real_valued and to_frequency(x).real_valued
    assert relative_l2_difference(to_physical(to_frequency(x)), x) < 1e-15
    assert np.abs(f.freq_values - to_frequency(x.as_complex()).values).max() \
        < 1e-13 * np.abs(f.freq_values).max()
    assert (x * 2.0).real_valued and (x + x).real_valued and (x - f).real_valued
    assert not (x * 1j).real_valued and not (x + x.as_complex()).real_valued


@pytest.mark.parametrize("n", [2, 3])
def test_real_path_matches_complex_path(n):
    from cronlab.gauge import leray_project
    from cronlab.lp import besov_norm
    g = GridSpec(n, 16, 4.0)
    rng = stream(60, n)
    reals = [random_field(g, rng, real=True).in_physical() for _ in range(n)]
    comps = [f.as_complex() for f in reals]

    def same_field(a, b):
        assert relative_l2_difference(a, b) <= 1e-13

    def same_number(a, b):
        assert abs(a - b) <= 1e-13 * abs(b)

    f, c = reals[0], comps[0]
    hermitian = np.exp(-np.sum(g.xi ** 2, axis=0)) + 2j * np.pi * g.xi[0]
    out = apply_multiplier(f, hermitian)
    assert out.real_valued and out.values.dtype == np.float64
    same_field(out, apply_multiplier(c, hermitian))
    odd = 1.0 + g.xi[0]   # real but not even: the result is complex
    out = apply_multiplier(f, odd)
    assert not out.real_valued
    same_field(out, apply_multiplier(c, odd))
    for a, b in zip(gradient(f).components, gradient(c).components):
        assert a.real_valued
        same_field(a, b)
    for a, b in zip(leray_project(VectorField(tuple(reals))).components,
                    leray_project(VectorField(tuple(comps))).components):
        assert a.real_valued
        same_field(a, b)
    same_number(frequency_l2(g, f.freq_values), frequency_l2(g, c.freq_values))
    same_number(plancherel_l2(f), plancherel_l2(c))
    same_number(plancherel_l2(f), lebesgue_norm(f, 2))
    same_number(sobolev_norm(f, 1.5), sobolev_norm(c, 1.5))
    same_number(besov_norm(f, 2, 4, 2), besov_norm(c, 2, 4, 2))


def test_multiplier_identity_and_derivative_symbol():
    g = GridSpec(2, 16, 4.0)
    f = random_field(g, stream(3, 0))
    out = apply_multiplier(f, np.ones(g.shape))
    assert relative_l2_difference(f, out) < 1e-14
    pw = plane_wave(g, (2, 1))
    d = apply_multiplier(pw, 2j * np.pi * g.xi[0])
    expect = pw * (2j * np.pi * 2 / g.L)
    assert relative_l2_difference(d, expect) < 1e-13


def test_multiplier_composition_matches_product():
    g = GridSpec(2, 32, 4.0)
    f = random_field(g, stream(4, 0))
    m1 = lambda xi: np.exp(-xi[0] ** 2)
    m2 = lambda xi: 1.0 + xi[1] ** 2
    two_steps = apply_multiplier(apply_multiplier(f, m1(g.xi)), m2(g.xi))
    one_step = apply_multiplier(f, m1(g.xi) * m2(g.xi))
    assert relative_l2_difference(two_steps, one_step) < 1e-13


def test_multiplier_linearity():
    g = GridSpec(2, 16, 4.0)
    f = random_field(g, stream(5, 0))
    h = random_field(g, stream(5, 1))
    m = np.cos(g.xi[0])
    lhs = apply_multiplier(f + h * 2.0, m)
    rhs = apply_multiplier(f, m) + apply_multiplier(h, m) * 2.0
    assert relative_l2_difference(lhs, rhs) < 1e-13


def test_multiplier_takes_only_a_symbol_array_of_grid_shape():
    g = GridSpec(2, 16, 4.0)
    f = plane_wave(g, (1, 0))
    for sym in (np.ones((16, 8)), 2.0, lambda xi: np.ones(xi.shape[1:])):
        with pytest.raises(StructuralError, match="symbol shape"):
            apply_multiplier(f, sym)


def test_singular_symbol_names_the_lattice_point():
    g = GridSpec(2, 16, 4.0)
    f = plane_wave(g, (1, 0))

    def bad(xi):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (xi[0] - 1.0 / g.L)

    with pytest.raises(SingularSymbolError) as err:
        apply_multiplier(f, bad(g.xi))
    assert "(1, 0)" in str(err.value)


def test_singular_symbol_ok_when_unsupported():
    g = GridSpec(2, 16, 4.0)
    f = plane_wave(g, (2, 0))

    def guarded(xi):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / (xi[0] - 1.0 / g.L)

    apply_multiplier(f, guarded(g.xi))  # pole sits on an empty mode


def test_gradient_and_laplacian():
    g = GridSpec(2, 16, 4.0)
    assert all(lebesgue_norm(c, 2) == 0 for c in gradient(constant_field(g)).components)
    pw = plane_wave(g, (3, 1))
    xi0 = g.mode_frequency((3, 1))
    lam = -4.0 * np.pi ** 2 * float(xi0 @ xi0)
    assert relative_l2_difference(laplacian(pw), pw * lam) < 1e-12


def test_div_grad_is_laplacian():
    g = GridSpec(3, 16, 2.0)
    f = random_field(g, stream(6, 0))
    assert relative_l2_difference(divergence(gradient(f)), laplacian(f)) < 1e-12


def test_lebesgue_norms():
    g = GridSpec(2, 16, 4.0)
    one = constant_field(g)
    for p in (1, 2, 4, np.inf):
        expect = 1.0 if p == np.inf else g.L ** (g.n / p)
        assert abs(lebesgue_norm(one, p) - expect) < 1e-12
    # the vector norm is the norm of the pointwise magnitude; both check p
    V = random_divergence_free(g, stream(6, 1), 0.2, 1.0)
    mag = ScalarField(g, np.sqrt(sum(np.abs(c.phys_values) ** 2 for c in V.components)),
                      real_valued=True)
    for p in (1, 2, 4, np.inf):
        assert vector_lebesgue_norm(V, p) == lebesgue_norm(mag, p)
    for p in (0.5, np.nan):
        for norm, arg in ((lebesgue_norm, one), (vector_lebesgue_norm, V)):
            with pytest.raises(ParameterError):
                norm(arg, p)


def test_p4_norm_matches_oversampled_quadrature():
    g = GridSpec(2, 16, 4.0)
    c1, c2 = 1.3 - 0.4j, 0.7 + 0.2j
    m1, m2 = (2, 1), (-1, 3)
    f = plane_wave(g, m1) * c1 + plane_wave(g, m2) * c2
    # oracle: evaluate the two-mode trig polynomial on a 4x finer grid
    fine = GridSpec(2, 64, 4.0)
    ff = plane_wave(fine, m1) * c1 + plane_wave(fine, m2) * c2
    oracle = (np.sum(np.abs(ff.phys_values) ** 4) * fine.cell_volume) ** 0.25
    assert abs(lebesgue_norm(f, 4) - oracle) < 1e-10


def test_sobolev_single_mode():
    g = GridSpec(2, 16, 4.0)
    mode = (2, 0)
    pw = plane_wave(g, mode)
    xi0 = g.mode_frequency(mode)
    s = 1.5
    expect = (2 * np.pi * np.linalg.norm(xi0)) ** s * g.L ** (g.n / 2)
    assert abs(sobolev_norm(pw, s) - expect) < 1e-10 * expect


def test_homogeneous_norm_rejects_nonzero_mean():
    g = GridSpec(2, 16, 4.0)
    f = constant_field(g) + plane_wave(g, (1, 0))
    with pytest.raises(PreconditionError):
        sobolev_norm(f, 1.0)
    sobolev_norm(f, 1.0, exclude_zero_mode=True)


def test_grid_validation():
    with pytest.raises(ParameterError):
        GridSpec(1, 16, 1.0)
    with pytest.raises(ParameterError):
        GridSpec(2, 12, 1.0)
    with pytest.raises(ParameterError):
        GridSpec(2, 16, -1.0)


@pytest.mark.parametrize("L", [1e300, 1e-300])
def test_grid_rejects_a_cell_volume_outside_the_float_range(L):
    # (L/N)^3 overflows at L = 1e300 and underflows to 0 at L = 1e-300
    with pytest.raises(ParameterError, match=re.escape(f"L={L}")):
        GridSpec(3, 32, L)


def test_shape_mismatch_is_structural():
    g = GridSpec(2, 16, 1.0)
    with pytest.raises(StructuralError):
        ScalarField(g, np.zeros((8, 8)))


def test_fields_are_immutable():
    g = GridSpec(2, 16, 1.0)
    f = zero_field(g)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_with_values_takes_over_a_matching_array():
    g = GridSpec(2, 16, 1.0)
    f = random_field(g, stream(8, 2), real=True).in_frequency()
    vals = f.values * 2.0
    h = f.with_values(vals)
    assert h.values is vals and not vals.flags.writeable
    assert (h.rep, h.real_valued) == (f.rep, f.real_valued)
    for bad in (np.zeros(g.shape, dtype=complex), vals.real.copy()):
        with pytest.raises(StructuralError):
            f.with_values(bad)


@pytest.mark.parametrize("real", [False, True])
def test_field_transforms_once_each_way(count_transforms, real):
    g = GridSpec(2, 16, 1.0)
    phys = random_field(g, stream(8, 3), real=real).in_physical()
    freq = random_field(g, stream(8, 4), real=real)
    calls = count_transforms()
    for _ in range(3):
        phys.in_frequency(), phys.freq_values, phys.in_physical(), phys.phys_values
        freq.in_physical(), freq.phys_values, freq.in_frequency(), freq.freq_values
    gradient(phys), laplacian(phys), gradient(freq)
    fwd, inv = ("rfftn", "irfftn") if real else ("fftn", "ifftn")
    # phys forward once and freq inverse once; the gradient and laplacian of
    # phys read its kept spectrum and bring their new spectra to samples (2 + 1)
    assert calls == {fwd: 1, inv: 1 + 2 + 1}
    # the kept arrays are the transforms of the values, bit for bit
    assert np.array_equal(phys.in_frequency().values, to_frequency(phys).values)
    assert np.array_equal(freq.in_physical().values, to_physical(freq).values)


def test_new_fields_start_untransformed(count_transforms):
    g = GridSpec(2, 16, 1.0)
    f = random_field(g, stream(8, 5), real=True).in_physical()
    f.in_frequency()
    calls = count_transforms()
    for new in (f.with_values(f.values * 2.0), f + f, f - f, f * 3.0, f * 1j):
        new.in_frequency()
    assert sum(calls.values()) == 5


def test_transformed_field_holds_no_reference_cycle():
    import gc
    import weakref
    g = GridSpec(2, 16, 1.0)
    gc.disable()
    try:
        for rep in ("frequency", "physical"):
            f = random_field(g, stream(8, 6), real=True)
            f = f.in_frequency() if rep == "frequency" else f.in_physical()
            f.in_frequency().freq_values, f.in_physical().phys_values
            ref = weakref.ref(f)
            del f
            assert ref() is None
    finally:
        gc.enable()


def test_nyquist_rows_zeroed_by_multipliers():
    g = GridSpec(2, 16, 1.0)
    F = np.zeros(g.shape, dtype=complex)
    F[g.N // 2, 1] = 1.0
    f = ScalarField(g, F, rep="frequency")
    out = apply_multiplier(f, np.ones(g.shape))
    assert np.abs(out.values).max() == 0.0


def test_divergence_free_certificate(divergence_free):
    g = GridSpec(2, 32, 2.0)
    V = VectorField(tuple(random_field(g, stream(7, i)) for i in range(2)))
    from cronlab.gauge import leray_project
    assert divergence_free(leray_project(V), 1e-10)


def test_inner_product_conjugation():
    g = GridSpec(2, 16, 1.0)
    f = random_field(g, stream(8, 0))
    h = random_field(g, stream(8, 1))
    assert abs(inner_product(f, h) - np.conj(inner_product(h, f))) < 1e-12


def test_mode_field_matches_plane_wave():
    g = GridSpec(2, 16, 2.0)
    assert relative_l2_difference(to_physical(mode_field(g, (1, -2))),
                                  plane_wave(g, (1, -2))) < 1e-12


def test_grid_symbols_built_once_and_read_only():
    g = GridSpec(3, 16, 4.0)
    syms = [g.laplacian_symbol, g.inverse_laplacian_symbol, g.dealias_symbol,
            *g.derivative_symbols]
    again = [g.laplacian_symbol, g.inverse_laplacian_symbol, g.dealias_symbol,
             *g.derivative_symbols]
    assert all(a is b for a, b in zip(syms, again))
    for sym in syms:
        assert sym.dtype == np.complex128 and sym.shape == g.shape
        with pytest.raises(ValueError):
            sym[(0,) * g.n] = 1.0
    assert np.array_equal(g.derivative_symbols[1], 2j * np.pi * g.xi[1])


def test_registry_takes_only_finite_hermitian_symbols():
    g = GridSpec(2, 16, 4.0)
    with pytest.raises(StructuralError, match="finite and Hermitian"):
        g.symbol(("odd",), lambda: g.xi[0] + 0.0)          # m(-xi) = -m(xi)
    with pytest.raises(StructuralError, match="finite and Hermitian"):
        g.symbol(("pole",), lambda: np.where(g.xi_norm > 0, 1.0, np.inf))
    assert not g._registry
    # a registry symbol takes a real field to a real one without a check
    sym = g.symbol(("even",), lambda: np.exp(-g.xi_norm ** 2))
    f = random_field(g, stream(8, 2), real=True)
    assert g.symbol(("even",), lambda: None) is sym
    assert apply_multiplier(f, sym).real_valued


def test_free_flow_closed_form_and_group_law():
    from cronlab.grid import FreeFlow
    g = GridSpec(2, 16, 4.0)
    rng = stream(91, 0)
    rho = 2.0 * np.pi * g.xi_norm          # rho = 0 at the zero mode, > 0 elsewhere
    u0, u1 = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
              for _ in range(2))
    t = 0.9
    flow = FreeFlow(rho, t)
    live = rho > 0
    r = rho[live]
    u = np.empty(g.shape, dtype=complex)
    u_t = np.empty(g.shape, dtype=complex)
    u[live] = np.cos(r * t) * u0[live] + np.sin(r * t) / r * u1[live]
    u_t[live] = -r * np.sin(r * t) * u0[live] + np.cos(r * t) * u1[live]
    u[~live] = u0[~live] + t * u1[~live]
    u_t[~live] = u1[~live]
    assert np.abs(flow.u(u0, u1) - u).max() <= 1e-14 * np.abs(u).max()
    assert np.abs(flow.u_t(u0, u1) - u_t).max() <= 1e-14 * np.abs(u_t).max()
    assert flow.u(u0, u1)[0, 0] == u0[0, 0] + t * u1[0, 0]
    # flowing for t1 and then t2 is flowing for t1 + t2
    t1, t2 = 0.37, 1.21
    f1, f2, f12 = FreeFlow(rho, t1), FreeFlow(rho, t2), FreeFlow(rho, t1 + t2)
    v, v_t = f1.u(u0, u1), f1.u_t(u0, u1)
    w, w_t = f12.u(u0, u1), f12.u_t(u0, u1)
    assert np.abs(f2.u(v, v_t) - w).max() <= 1e-14 * np.abs(w).max()
    assert np.abs(f2.u_t(v, v_t) - w_t).max() <= 1e-14 * np.abs(w_t).max()
