"""Property tests of grid's storage layout over drawn grids: the half spectrum
of real fields, the kept transforms, Hermitian multipliers, Leray and the free
flow, on n in {2, 3}, N in {8, 16}, any box side, real and complex fields."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from cronlab.gauge import leray_project
from cronlab.grid import (FreeFlow, GridSpec, VectorField, _unfold, apply_multiplier,
                          relative_l2_difference, to_frequency, to_physical)
from cronlab.random_fields import random_field, stream

TOL = 1e-13


@st.composite
def drawn_fields(draw):
    """(grid, real, rng): a drawn geometry, field kind and Philox stream."""
    grid = GridSpec(draw(st.sampled_from([2, 3])), draw(st.sampled_from([8, 16])),
                    draw(st.floats(1.0, 64.0)))
    return grid, draw(st.booleans()), stream(draw(st.integers(0, 2 ** 32)), 0)


def _rel_max(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@settings(max_examples=60, deadline=None)
@given(drawn_fields())
def test_round_trip_and_kept_transforms(drawn):
    grid, real, rng = drawn
    freq = random_field(grid, rng, real=real)
    phys = freq.in_physical()
    assert phys.real_valued == real
    assert relative_l2_difference(to_physical(to_frequency(phys)), phys) <= TOL
    # the kept arrays are the transforms of the values, bit for bit
    assert np.array_equal(phys.in_frequency().values, to_frequency(phys).values)
    assert np.array_equal(freq.in_physical().values, to_physical(freq).values)


@settings(max_examples=60, deadline=None)
@given(drawn_fields())
def test_unfolded_half_spectrum_is_fftn_of_the_samples(drawn):
    grid, _, rng = drawn
    phys = random_field(grid, rng, real=True).in_physical()
    half = to_frequency(phys).values
    assert half.shape == grid._half_shape
    assert _rel_max(_unfold(grid, half), np.fft.fftn(phys.values) * grid.cell_volume) <= TOL


@settings(max_examples=60, deadline=None)
@given(drawn_fields())
def test_hermitian_multiplier_keeps_a_real_field_real(drawn):
    grid, _, rng = drawn
    f = random_field(grid, rng, real=True).in_physical()
    hermitian = np.exp(-np.sum(grid.xi ** 2, axis=0)) + 2j * np.pi * grid.xi[0]
    out = apply_multiplier(f, hermitian)
    assert out.real_valued and out.values.dtype == np.float64
    wide = apply_multiplier(f.as_complex(), hermitian).values
    assert np.abs(wide.imag).max() <= TOL * np.abs(wide).max()
    assert _rel_max(out.values, wide.real) <= TOL


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn_fields())
def test_leray_is_idempotent_and_divergence_free(divergence_free, drawn):
    grid, real, rng = drawn
    V = VectorField(tuple(random_field(grid, rng, real=real).in_physical()
                          for _ in range(grid.n)))
    PV = leray_project(V)
    assert all(c.real_valued == real for c in PV.components)
    assert divergence_free(PV, TOL)
    for a, b in zip(leray_project(PV).components, PV.components):
        assert relative_l2_difference(a, b) <= TOL


@settings(max_examples=60, deadline=None)
@given(drawn_fields(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_free_flow_group_law(drawn, t1, t2):
    grid, _, rng = drawn
    rho = 2.0 * np.pi * grid.xi_norm
    u0, u1 = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
              for _ in range(2))
    f1, f2, f12 = FreeFlow(rho, t1), FreeFlow(rho, t2), FreeFlow(rho, t1 + t2)
    v, v_t = f1.u(u0, u1), f1.u_t(u0, u1)
    assert _rel_max(f2.u(v, v_t), f12.u(u0, u1)) <= TOL
    assert _rel_max(f2.u_t(v, v_t), f12.u_t(u0, u1)) <= TOL
