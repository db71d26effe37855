"""Property tests of the parametrix kernels over drawn grids, index sets,
directions and caches.

The pruned DFT between the grid and spectra carried by a few modes
(``parametrix._ModeKernel``): synthesis is the full-grid inverse FFT of the
scattered spectrum, analysis is its conjugate transpose under the lattice
inner products, and a batched call is bit for bit the per-row calls, with
the batch below and above numpy's 16,384-element temporary-elision size
(n in {2, 3}, N in {8, 16}, any box side).

The phase family and the wave operator: each row of a phase table is bit
for bit the lift, synthesis and ``exp`` of its bucket alone, with the
(B, |S|) lift below and above the elision size, and ``apply_adjoint`` is the
adjoint of ``apply`` on exact and bucketed direction caches."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cronlab.grid import GridSpec, ScalarField, frequency_l2, inner_product, lebesgue_norm
from cronlab.lp import BandRange
from cronlab import parametrix as pmx
from cronlab.parametrix import (AnnulusCutoff, DirectionCache, FreeConnection, PhaseFamily,
                                WaveOperator, _ModeKernel)
from cronlab.random_fields import random_divergence_free, stream

ELISION = 16384     # numpy elides temporaries from 256 KiB on: 16,384 complex128 elements


@st.composite
def drawn_kernels(draw, min_share=0.0):
    """(kernel, rng): a drawn geometry and a random set of at least
    min_share of its lattice's flat indices, with a Philox stream."""
    grid = GridSpec(draw(st.sampled_from([2, 3])), draw(st.sampled_from([8, 16])),
                    draw(st.floats(1.0, 64.0)))
    rng = stream(draw(st.integers(0, 2 ** 32)), 0)
    size = draw(st.integers(max(1, math.ceil(min_share * grid.num_points)), grid.num_points))
    index = np.sort(rng.choice(grid.num_points, size=size, replace=False))
    return _ModeKernel(grid, index), rng


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(drawn_kernels())
def test_synthesis_is_the_full_grid_inverse_transform(drawn):
    kern, rng = drawn
    grid = kern.grid
    vals = _random_complex(rng, len(kern.index))
    F = np.zeros(grid.num_points, dtype=np.complex128)
    F[kern.index] = vals
    ref = np.fft.ifftn(F.reshape(grid.shape)) / grid.cell_volume
    assert np.abs(kern.synthesize(vals) - ref).max() <= 1e-13 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(drawn_kernels())
def test_analysis_is_the_adjoint_of_synthesis(drawn):
    kern, rng = drawn
    grid = kern.grid
    c = _random_complex(rng, len(kern.index))
    f = _random_complex(rng, grid.shape)
    # <f, S c> in L^2(dx^n) against <A f, c> in l^2(1 / L^n), to 1e-12 of
    # ||f|| ||c||, which bounds both (synthesis is a Plancherel isometry)
    lhs = np.vdot(kern.synthesize(c), f) * grid.cell_volume
    rhs = np.vdot(c, kern.analyze(f)) / grid.L ** grid.n
    scale = math.sqrt(np.vdot(f, f).real * grid.cell_volume * np.vdot(c, c).real
                      / grid.L ** grid.n)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(drawn_kernels(min_share=0.25), st.booleans(), st.integers(0, 3))
def test_batched_calls_are_the_per_row_calls_bit_for_bit(drawn, above, extra):
    kern, rng = drawn
    grid = kern.grid
    if above:    # the coefficient batch, and so the grid batch, past the elision size
        rows = ELISION // len(kern.index) + 1 + extra
    else:        # the grid batch, and so the coefficient batch, below it
        rows = max(1, (ELISION - 1) // grid.num_points - extra)
    vals = _random_complex(rng, (rows, len(kern.index)))
    batched = kern.synthesize(vals)
    assert batched.shape == (rows,) + grid.shape
    assert all(_same_bits(batched[i], kern.synthesize(vals[i])) for i in range(rows))
    fields = _random_complex(rng, (rows,) + grid.shape)
    coeffs = kern.analyze(fields)
    assert coeffs.shape == (rows, len(kern.index))
    assert all(_same_bits(coeffs[i], kern.analyze(fields[i])) for i in range(rows))


# ---------------------------------------------------------------------------
# phase tables and the wave operator


def _connection(grid, band, rng, eps):
    """A free connection with random divergence-free data of size eps."""
    a, adot = (random_divergence_free(grid, rng) for _ in range(2))
    stacked = lambda V: eps * np.stack([c.freq_values for c in V.components])
    return FreeConnection(grid, stacked(a), stacked(adot), band)


def _unit_directions(rng, count, n):
    dirs = rng.standard_normal((count, n))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


@st.composite
def drawn_phase_families(draw):
    """(family, t): B random directions and random multipliers on the band
    support S of the widest range (hundreds of modes or more), B |S| below or
    above the elision size, on n = 2 (N = 64) or n = 3 (N = 16)."""
    n = draw(st.sampled_from([2, 3]))
    grid = GridSpec(n, 64 if n == 2 else 16, draw(st.floats(1.0, 4.0)))
    rng = stream(draw(st.integers(0, 2 ** 32)), 0)
    conn = _connection(grid, BandRange.widest(grid), rng, draw(st.floats(1e-3, 1.0)))
    size = conn.support.size
    if draw(st.booleans()):      # above: B |S| > 16,384
        count = ELISION // size + 1 + draw(st.integers(0, 3))
    else:                        # below: B |S| < 16,384
        count = draw(st.integers(1, max(1, (ELISION - 1) // size)))
    cache = DirectionCache.of_directions(grid, _unit_directions(rng, count, n))
    W = _random_complex(rng, (count, size))
    fam = PhaseFamily(conn, draw(st.sampled_from([1, -1])), 0.25, cache).with_multipliers(W)
    return fam, draw(st.floats(0.0, 1.0))


@settings(max_examples=12, deadline=None)
@given(drawn_phase_families())
def test_phase_table_row_is_its_bucket_alone_bit_for_bit(drawn):
    fam, t = drawn
    fam.slice_at(t, 0)
    defects = []
    for b, w_dir in enumerate(fam.cache.directions):
        psi_hat = pmx._lift(fam._samples, 0, fam.sign, w_dir, fam._xi_dot[b], fam._w[b])
        psi_c = fam.conn.kernel.synthesize(psi_hat)
        assert _same_bits(fam._psi_hat[b], psi_hat)
        assert _same_bits(fam.slice_at(t, b), np.exp(2j * np.pi * psi_c.real))
        defects.append(np.abs(psi_c.imag).max() / max(np.abs(psi_c).max(), 1e-300))
    assert fam.imag_defect(t) == max(defects)


@st.composite
def drawn_operators(draw):
    """(operator, t, h, f): a random exact or bucketed cache over a random
    subset of the cutoff's modes, on n = 2 (N = 32) or n = 3 (N = 16)."""
    n = draw(st.sampled_from([2, 3]))
    grid = GridSpec(n, 32 if n == 2 else 16, draw(st.floats(1.0, 4.0)))
    rng = stream(draw(st.integers(0, 2 ** 32)), 0)
    cut = AnnulusCutoff(rho=grid.nyquist / draw(st.floats(3.0, 6.0))).validate(grid)
    modes = cut.modes(grid)
    modes = modes[np.sort(rng.choice(len(modes), size=draw(st.integers(1, min(64, len(modes)))),
                                     replace=False))]
    if draw(st.booleans()):
        cache = DirectionCache.build(grid, modes, "exact")
    else:
        cache = DirectionCache.build(grid, modes, "bucketed", draw(st.floats(0.05, 1.0)))
    band = BandRange.widest(grid)
    conn = _connection(grid, band, rng, draw(st.floats(1e-3, 1.0)))
    fam = PhaseFamily(conn, draw(st.sampled_from([1, -1])), 0.25, cache)
    op = WaveOperator(fam, cut, check_cover=False)
    h = _random_complex(rng, grid.shape)
    f = ScalarField(grid, _random_complex(rng, grid.shape))
    return op, draw(st.floats(-1.0, 1.0)), h, f


@settings(max_examples=12, deadline=None)
@given(drawn_operators())
def test_apply_adjoint_is_the_adjoint_of_apply(drawn):
    op, t, h, f = drawn
    grid = op.grid
    u, g = op.apply(t, h), op.apply_adjoint(t, f)
    # <U h, f> in L^2(dx^n) against <h, U* f> in l^2(1 / L^n), to 1e-12 of
    # the Cauchy-Schwarz bound of either side
    lhs = inner_product(u, f)
    rhs = np.vdot(g, h) / grid.L ** grid.n
    scale = max(lebesgue_norm(u, 2) * lebesgue_norm(f, 2),
                frequency_l2(grid, h) * frequency_l2(grid, g))
    assert scale > 0.0
    assert abs(lhs - rhs) <= 1e-12 * scale
