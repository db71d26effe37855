"""Property tests of the pruned DFT between the grid and spectra carried by a
few modes (``parametrix._ModeKernel``) over drawn grids and index sets:
synthesis is the full-grid inverse FFT of the scattered spectrum, analysis
is its conjugate transpose under the lattice inner products, and a batched
call is bit for bit the per-row calls, with the batch below and above
numpy's 16,384-element temporary-elision size.  n in {2, 3}, N in {8, 16},
any box side."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cronlab.grid import GridSpec
from cronlab.parametrix import _dft_table, _ModeKernel
from cronlab.random_fields import stream

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
    return _ModeKernel(grid, index, _dft_table(grid.N)), rng


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
