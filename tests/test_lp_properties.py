"""Property tests of the Littlewood-Paley cutoffs and the grid's symbol
registry over drawn grids: band symbols are real, in [0, 1] and telescope;
a registry symbol is bit for bit the symbol a fresh evaluation gives, on a
GridSpec and on a support Lattice; the float64 band symbol multiplies a
field bit for bit as its complex128 form does; the Besov norm at p = 2 is
its Lebesgue-norm form.  n in {2, 3}, N in {8, 16}, any box side, real and
complex fields in either representation."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cronlab.grid import GridSpec, Lattice, apply_multiplier, lebesgue_norm
from cronlab.lp import BandRange, DEFAULT_BUMP, band_symbol, besov_norm, leq_symbol, project_band
from cronlab.random_fields import random_field, stream

EPS = np.finfo(float).eps


@st.composite
def drawn_bands(draw):
    """(grid, k): a drawn geometry and a band index from just below the
    lattice's lowest shell to just above its highest."""
    grid = GridSpec(draw(st.sampled_from([2, 3])), draw(st.sampled_from([8, 16])),
                    draw(st.floats(1.0, 64.0)))
    k_lo = math.floor(math.log2(1.0 / grid.L)) - 1
    return grid, draw(st.integers(k_lo, k_lo + int(math.log2(grid.N)) + 2))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b))


def _complex_band(grid: GridSpec, k: int) -> np.ndarray:
    """The band symbol in the complex128 form it had before it was kept as float64."""
    leq = lambda j: np.asarray(DEFAULT_BUMP(grid.xi_norm * 2.0 ** (-j)), dtype=np.complex128)
    return leq(k) - leq(k - 1)


@settings(max_examples=60, deadline=None)
@given(drawn_bands())
def test_band_symbol_is_real_and_in_the_unit_interval(drawn):
    grid, k = drawn
    sym = band_symbol(grid, k)
    assert sym.dtype == np.float64 and sym.shape == grid.shape
    assert sym.min() >= 0.0 and sym.max() <= 1.0


@settings(max_examples=60, deadline=None)
@given(drawn_bands(), st.integers(0, 5))
def test_band_symbols_telescope(drawn, count):
    grid, k_min = drawn
    ks = range(k_min, k_min + count + 1)
    total = sum(band_symbol(grid, k) for k in ks)
    assert np.abs(total - (leq_symbol(grid, ks[-1]) - leq_symbol(grid, k_min - 1))).max() \
        <= len(ks) * EPS


@settings(max_examples=60, deadline=None)
@given(drawn_bands())
def test_registry_symbols_are_fresh_evaluations_bit_for_bit(drawn):
    grid, k = drawn
    fresh = GridSpec(grid.n, grid.N, grid.L)     # an equal grid with an empty registry
    sym = band_symbol(grid, k)
    assert band_symbol(grid, k) is sym
    # read-only, and so is the half-lattice view apply_multiplier takes of it
    assert not sym.flags.writeable and not sym[..., :grid.N // 2 + 1].flags.writeable
    assert _same_bits(sym, _complex_band(fresh, k).real)
    assert not _complex_band(fresh, k).imag.any()
    # the grid's own symbols are complex128, each its expression plus 0j
    with np.errstate(divide="ignore"):
        inv = -1.0 / (4.0 * np.pi ** 2 * fresh.xi_norm ** 2)
    inv.flat[0] = 0.0
    modes = np.rint(fresh.freq_1d * fresh.L).astype(int)
    keep = np.abs(modes) <= fresh.N // 3
    dealias = np.ones(fresh.shape, dtype=bool)
    for axis in range(fresh.n):
        dealias &= keep.reshape([fresh.N if a == axis else 1 for a in range(fresh.n)])
    pairs = [(grid.laplacian_symbol, -4.0 * np.pi ** 2 * fresh.xi_norm ** 2),
             (grid.inverse_laplacian_symbol, inv), (grid.dealias_symbol, dealias)]
    pairs += [(d, 2j * np.pi * fresh.xi[j]) for j, d in enumerate(grid.derivative_symbols)]
    for kept, spec in pairs:
        assert _same_bits(kept, spec + 0j)


@settings(max_examples=60, deadline=None)
@given(drawn_bands(), st.integers(0, 2 ** 32))
def test_support_lattice_symbol_is_the_grid_symbol_there(drawn, seed):
    grid, k = drawn
    rng = stream(seed, 0)
    support = np.sort(rng.choice(grid.num_points, size=rng.integers(1, grid.num_points),
                                 replace=False))
    lat = Lattice(grid.xi.reshape(grid.n, -1)[:, support], grid.xi_norm.ravel()[support])
    on_support = band_symbol(lat, k)
    # a lattice is evaluated, not registered
    assert band_symbol(lat, k) is not on_support and not grid._registry
    assert _same_bits(on_support, band_symbol(grid, k).ravel()[support])


@settings(max_examples=60, deadline=None)
@given(drawn_bands(), st.booleans(), st.booleans(), st.integers(0, 2 ** 32))
def test_float64_band_multiplies_as_its_complex_form(drawn, real, physical, seed):
    grid, k = drawn
    f = random_field(grid, stream(seed, 0), real=real)
    if physical:
        f = f.in_physical()
    kept = apply_multiplier(f, band_symbol(grid, k))
    wide = apply_multiplier(f, grid.symbol(("complex_band", k), lambda: _complex_band(grid, k)))
    assert kept.real_valued == wide.real_valued == real and kept.rep == wide.rep == f.rep
    assert _same_bits(kept.values, wide.values)


@settings(max_examples=60, deadline=None)
@given(drawn_bands(), st.booleans(), st.booleans(), st.sampled_from([2, 3, 4, np.inf]),
       st.sampled_from([1, 2]), st.integers(0, 2 ** 32))
def test_besov_l2_bands_by_plancherel_match_the_lebesgue_norm(drawn, real, physical, q, r,
                                                              seed):
    grid, _ = drawn
    br = BandRange.widest(grid)
    f = random_field(grid, stream(seed, 0), real=real)
    if physical:
        f = f.in_physical()
    terms = [2.0 ** ((grid.n / 2 - grid.n / q) * k)
             * lebesgue_norm(project_band(f.in_frequency(), k, br), 2) for k in br]
    expect = sum(terms) if r == 1 else np.sqrt(sum(t ** 2 for t in terms))
    got = besov_norm(f, 2, q, r, br)
    assert abs(got - expect) <= 1e-13 * expect
