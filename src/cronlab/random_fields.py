"""Seeded random field ensembles.

All experiments draw from Philox4x64-10 counter-based streams
(numpy.random.Philox): stream ``j`` of a master seed ``s`` is
``Philox(key=[s, j])``, so ensembles are reproducible bit-for-bit across runs
and machines for a fixed numpy version, and samples are order-independent.

Two ensemble shapes matter for the measured inequalities:

* random-phase fields (every lattice mode in a region gets an independent
  Gaussian coefficient) - generic fields for identity checks;
* wave-packet fields (one random point source band-projected to a shell) -
  the family that saturates Bernstein-type bounds uniformly in the shell
  index.  A packet is the band kernel, translated and scaled, and Bernstein
  ratios see neither, so the Bernstein scan takes one packet per band.
"""

from __future__ import annotations

import numpy as np

from .grid import (FREQUENCY, GridSpec, ScalarField, VectorField, hermitianize, lebesgue_norm,
                   plancherel_l2)
from .gauge import leray_project
from .lp import BandRange, project_band, restrict_annulus


def stream(seed: int, index: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _gaussian_hat(grid: GridSpec, rng) -> np.ndarray:
    F = np.empty(grid.shape, dtype=np.complex128)
    F.real = rng.standard_normal(grid.shape)
    F.imag = rng.standard_normal(grid.shape)
    return F


def random_field(grid: GridSpec, rng, r_lo=None, r_hi=None, real=False,
                 normalize=True) -> ScalarField:
    """Random-phase field, optionally hard-restricted to r_lo <= |xi| <= r_hi."""
    F = _gaussian_hat(grid, rng)
    if real:
        F = hermitianize(grid, F)
    F.flat[0] = 0.0
    f = ScalarField(grid, F, rep=FREQUENCY, real_valued=real)
    if r_lo is not None or r_hi is not None:
        lo = 0.0 if r_lo is None else r_lo
        hi = np.inf if r_hi is None else r_hi
        f = restrict_annulus(f, lo, hi)
    else:
        f = restrict_annulus(f, 0.0, grid.nyquist)  # drops Nyquist rows
    if normalize:
        scale = plancherel_l2(f)
        if scale > 0:
            f = f * (1.0 / scale)
    return f


def random_band_field(grid: GridSpec, rng, k: int, real=False) -> ScalarField:
    """Random-phase field projected to the dyadic band k, unit L^2 by Plancherel."""
    f = project_band(random_field(grid, rng, real=real, normalize=False), k)
    nrm = plancherel_l2(f)
    return f * (1.0 / nrm) if nrm > 0 else f


def packet_field(grid: GridSpec, rng, k: int) -> ScalarField:
    """A band-k wave packet: a random complex point source band-projected.

    The inverse band kernel around the source is a bump of width ~ 2^{-k}
    modulated at frequency ~ 2^k, the profile that makes Bernstein ratios
    scale-free."""
    vals = np.zeros(grid.shape, dtype=np.complex128)
    idx = tuple(rng.integers(0, grid.N, size=grid.n))
    vals[idx] = rng.standard_normal() + 1j * rng.standard_normal()
    out = project_band(ScalarField(grid, vals), k)
    nrm = lebesgue_norm(out, 2)
    return out * (1.0 / nrm) if nrm > 0 else out


def flat_spectrum_field(grid: GridSpec, rng, band_range: BandRange, real=False) -> ScalarField:
    """Equal L^2 mass in every dyadic band of the range (unit mass per band)."""
    bands = [random_band_field(grid, rng, k, real=real) for k in band_range]
    return sum(bands[1:], bands[0])


def random_divergence_free(grid: GridSpec, rng, r_lo=None, r_hi=None) -> VectorField:
    """Real, zero-mean, divergence-free vector field (Leray of a random draw),
    normalized to unit L^2; the norm is taken by Plancherel, so the field is
    returned as spectra and no transform is made."""
    comps = tuple(random_field(grid, rng, r_lo, r_hi, real=True, normalize=False)
                  for _ in range(grid.n))
    V = leray_project(VectorField(comps))
    scale = np.sqrt(sum(plancherel_l2(c) ** 2 for c in V.components))
    if scale > 0:
        V = VectorField(tuple(c * (1.0 / scale) for c in V.components),
                        divergence_free=True)
    return V
