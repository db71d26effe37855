"""Littlewood-Paley projections, Besov and spacetime norms, and the measured
inequality machinery (Bernstein, commutator, product estimates).

Dyadic bands are indexed by the physical frequency |xi| ~ 2^k (cycles per unit
length, matching the exp(2 pi i x.xi) transform convention of `grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError, StructuralError
from . import grid as gr
from .grid import GridSpec, ScalarField, apply_multiplier, lebesgue_norm


class BumpProfile:
    """Smooth radial cutoff: 1 on [0, 1], 0 on [2, inf), strictly decreasing between.

    The transition is the standard smooth-step quotient
        m(r) = psi(2 - r) / (psi(2 - r) + psi(r - 1)),   psi(u) = exp(-1/u) for u > 0,
    which is C-infinity and monotone.  ``DEFAULT_BUMP`` is the one cutoff of the
    package: dyadic projections, sector profiles and annulus cutoffs all use it.
    """

    lower = 1.0
    upper = 2.0

    @staticmethod
    def _psi(u):
        out = np.zeros_like(u)
        pos = u > 0
        with np.errstate(over="ignore"):
            out[pos] = np.exp(-1.0 / u[pos])
        return out

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        a = self._psi(self.upper - r)
        b = self._psi(r - self.lower)
        with np.errstate(invalid="ignore", divide="ignore"):
            vals = np.where(r <= self.lower, 1.0,
                            np.where(r >= self.upper, 0.0, a / (a + b)))
        return vals if vals.shape else float(vals)

    def eta(self, s):
        """Angle profile: 1 for s < 1/2, 0 for s > 1 (the cutoff rescaled by 2)."""
        return self(2.0 * np.asarray(s, dtype=float))


DEFAULT_BUMP = BumpProfile()


@dataclass(frozen=True)
class BandRange:
    """Dyadic indices k_min..k_max whose shells fit on the grid.

    2^{k_max+1} must clear the Nyquist limit N/(2L) and 2^{k_min} must be at
    least the lattice spacing 1/L, so that a field supported in the annulus
    [2^{k_min}, 2^{k_max}] is reproduced exactly by the telescoped projections.
    """

    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise ParameterError(f"empty band range {self.k_min}..{self.k_max}")

    def validate(self, grid: GridSpec) -> "BandRange":
        if not 2.0 ** (self.k_max + 1) < grid.N / (2.0 * grid.L):
            raise ParameterError(
                f"2^(k_max+1)={2.0**(self.k_max+1)} must stay below Nyquist {grid.N/(2*grid.L)}")
        if not 2.0 ** self.k_min >= 1.0 / grid.L:
            raise ParameterError(
                f"2^k_min={2.0**self.k_min} must be at least one lattice shell 1/L={1/grid.L}")
        return self

    @classmethod
    def widest(cls, grid: GridSpec) -> "BandRange":
        k_max = math.floor(math.log2(grid.N / (2.0 * grid.L))) - 1
        if 2.0 ** (k_max + 1) >= grid.N / (2.0 * grid.L):
            k_max -= 1
        k_min = 1 - math.frexp(grid.L)[1]   # the least k with 2^k >= 1/L; log2 could round
        return cls(k_min, k_max).validate(grid)

    def __iter__(self):
        return iter(range(self.k_min, self.k_max + 1))

    def annulus(self) -> tuple:
        return 2.0 ** self.k_min, 2.0 ** self.k_max


# ---------------------------------------------------------------------------
# projection symbols

def leq_symbol(grid, k: int) -> np.ndarray:
    """The float64 symbol of P_{<=k} on a GridSpec or a Lattice."""
    return DEFAULT_BUMP(grid.xi_norm * 2.0 ** (-k))


def band_symbol(grid, k: int) -> np.ndarray:
    """The float64 symbol of P_k, kept in a GridSpec's registry; on a Lattice, evaluated."""
    band = lambda: leq_symbol(grid, k) - leq_symbol(grid, k - 1)
    return grid.symbol(("band", k), band) if isinstance(grid, GridSpec) else band()


def _check_band(grid: GridSpec, k: int, band_range: BandRange | None):
    br = band_range if band_range is not None else BandRange.widest(grid)
    if not br.k_min <= k <= br.k_max:
        raise ParameterError(f"band index k={k} outside representable range "
                             f"{br.k_min}..{br.k_max}")


def project_band(f: ScalarField, k: int, band_range=None) -> ScalarField:
    _check_band(f.grid, k, band_range)
    return apply_multiplier(f, band_symbol(f.grid, k))


def restrict_annulus(f: ScalarField, r_lo: float, r_hi: float) -> ScalarField:
    """Hard frequency restriction to r_lo <= |xi| <= r_hi (sharp indicator symbol).

    Fields restricted to a BandRange's annulus(), where every telescoped
    projection symbol is exactly 1, are reproduced exactly by the band sums;
    tests pre-project their data this way so dyadic truncation is exact.  Each
    annulus's indicator is kept in the grid's registry under its radii; a grid
    meets a few of them, the disk 0 <= |xi| <= nyquist of every random field
    among them.  The indicator is float64: numpy casts it to complex before it
    multiplies a complex spectrum, so it restricts bit for bit as a complex one."""
    grid = f.grid
    return apply_multiplier(f, grid.symbol(("annulus", r_lo, r_hi), lambda: (
        (grid.xi_norm >= r_lo) & (grid.xi_norm <= r_hi)).astype(np.float64)))


# ---------------------------------------------------------------------------
# Besov norms

def besov_norm(f: ScalarField, p, q, r, band_range=None,
               allow_decreasing=False, exclude_zero_mode=False) -> float:
    """(sum_k (2^{(n/p - n/q) k} ||P_k f||_p)^r)^{1/r} over the band range:
    ``besov_norms`` for the one spec (p, q, r)."""
    return besov_norms(f, [(p, q, r)], band_range, allow_decreasing, exclude_zero_mode)[0]


def besov_norms(f: ScalarField, specs, band_range=None,
                allow_decreasing=False, exclude_zero_mode=False) -> list:
    """The Besov norm of f for each spec (p, q, r) of ``specs``, in order.

    ``allow_decreasing`` admits q < p (negative-regularity weights), which the
    spacetime nonlinearity norms need in low dimension.  With
    ``exclude_zero_mode`` a field with a mean is normed by its mean-free part.
    f is transformed once; each band is projected once from that transform
    and serves every spec, and its piece is transformed back at most once,
    for the specs with p != 2 (at p = 2 its spectrum gives its norm).  One
    piece is alive at a time, and each spec sums its terms in band order.
    """
    for p, q, r in specs:
        if r not in (1, 2):
            raise ParameterError(f"Besov summability r={r} must be 1 or 2")
        if p > q and not allow_decreasing:
            raise ParameterError(f"Besov exponents need p <= q, got p={p}, q={q}")
    grid = f.grid
    f_hat = f.in_frequency()
    F = f_hat.values
    scale = np.abs(F).max()
    if scale > 0 and np.abs(F.flat[0]) > gr.SUPPORT_TOL * scale:
        if not exclude_zero_mode:
            raise PreconditionError("besov_norm needs zero-mean data "
                                    "(or exclude_zero_mode=True)")
        F = F.copy()
        F.flat[0] = 0.0
        f_hat = f_hat.with_values(F)
    br = band_range if band_range is not None else BandRange.widest(grid)
    totals = [0.0] * len(specs)
    for k in br:
        piece = project_band(f_hat, k, br)
        for i, (p, q, r) in enumerate(specs):
            norm = gr.plancherel_l2(piece) if p == 2 else lebesgue_norm(piece, p)
            term = 2.0 ** ((grid.n / p - grid.n / q) * k) * norm
            totals[i] += term if r == 1 else term ** 2
        del piece       # before the next band is projected
    return [total if r == 1 else math.sqrt(total) for total, (_, _, r) in zip(totals, specs)]


# ---------------------------------------------------------------------------
# spacetime fields

@dataclass(frozen=True, eq=False)
class SpacetimeField:
    """A field sampled on sorted time instants; time integrals use the trapezoid rule."""

    times: np.ndarray
    slices: tuple

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise StructuralError("time axis must be a nonempty 1-d array")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise StructuralError("time samples must be strictly increasing")
        sl = tuple(self.slices)
        if len(sl) != t.size:
            raise StructuralError("one slice per time instant required")
        grids = {s.grid for s in sl}
        if len(grids) > 1:
            raise StructuralError("all slices must share one grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "slices", sl)

    @property
    def grid(self) -> GridSpec:
        return self.slices[0].grid


def spacetime_norm(F: SpacetimeField, q_t, spatial_norm) -> float:
    """L^{q_t} in time (trapezoid quadrature; max for q_t = inf) of per-slice
    spatial norms.  ``spatial_norm`` maps one slice to a float."""
    return _time_norm(F.times, [spatial_norm(s) for s in F.slices], q_t)


def _time_norm(times, vals, q_t) -> float:
    """L^{q_t} over ``times`` of the per-slice values ``vals``."""
    vals = np.array(vals, dtype=float)
    if q_t == np.inf:
        return float(vals.max())
    if len(times) < 2:
        raise StructuralError("finite q_t needs at least 2 time samples")
    return float(np.trapezoid(vals ** q_t, times) ** (1.0 / q_t))


# ---------------------------------------------------------------------------
# measured inequalities

def fit_loglog(x, y):
    """Least-squares slope of log(y) against log(x)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ParameterError("log-log fit needs positive data")
    lx = np.log(x)
    if np.ptp(lx) == 0:
        raise ParameterError("log-log fit needs a nondegenerate abscissa range")
    return float(np.polyfit(lx, np.log(y), 1)[0])


def shell_support_defect(f: ScalarField, k: int) -> float:
    """Relative L^2 mass of f outside the band-k symbol footprint."""
    outside = np.abs(band_symbol(f.grid, k)) == 0.0
    F = f.freq_values
    num = np.sqrt(np.sum(np.abs(np.where(outside, F, 0.0)) ** 2))
    den = np.sqrt(np.sum(np.abs(F) ** 2))
    return float(num / den) if den > 0 else 0.0


def bernstein_ratio(f: ScalarField, k: int, p, q) -> float:
    """||f||_q / (2^{n k (1/p - 1/q)} ||f||_p) for a shell-k supported field."""
    if p > q:
        raise ParameterError(f"Bernstein needs p <= q, got p={p}, q={q}")
    if shell_support_defect(f, k) > 1e-8:
        raise PreconditionError(f"field is not supported in the |xi| ~ 2^{k} shell")
    n = f.grid.n
    qinv = 0.0 if q == np.inf else 1.0 / q
    pinv = 0.0 if p == np.inf else 1.0 / p
    return lebesgue_norm(f, q) / (2.0 ** (n * k * (pinv - qinv)) * lebesgue_norm(f, p))


def _commutator(f: ScalarField, g: ScalarField, fg: ScalarField, k: int) -> ScalarField:
    """[P_k, f] g = P_k(f g) - f P_k(g) from the pointwise product fg = f g."""
    return project_band(fg, k) - ScalarField(
        f.grid, f.phys_values * project_band(g, k).phys_values)


def commutator_ratios(f: ScalarField, g: ScalarField, ks, p, q, r) -> list:
    """(||[P_k,f] g||_r, ||[P_k,f] g||_r 2^k / (||grad f||_p ||g||_q)) for each
    band k in ks, under the Hoelder triple; each commutator is built once and
    the two norms of the denominator once for all bands."""
    pinv = 0.0 if p == np.inf else 1.0 / p
    qinv = 0.0 if q == np.inf else 1.0 / q
    rinv = 0.0 if r == np.inf else 1.0 / r
    if abs(pinv + qinv - rinv) > 1e-12:
        raise ParameterError(f"Hoelder triple violated: 1/{p} + 1/{q} != 1/{r}")
    den = gr.vector_lebesgue_norm(gr.gradient(f), p) * lebesgue_norm(g, q)
    fg = ScalarField(f.grid, f.phys_values * g.phys_values)   # transformed once for all bands
    out = []
    for k in ks:
        norm = lebesgue_norm(_commutator(f, g, fg, k), r)
        num = norm * 2.0 ** k
        out.append((norm, num / den if den > 0 else 0.0))
    return out


def spacetime_product_ratio(F: SpacetimeField, G: SpacetimeField, p, q,
                            band_range=None) -> float:
    """Measured ratio for the spacetime bound

        ||FG||_{L1_t B[2,n/2],2} <~ ||F||_{L1_t B[inf,inf],1} ||G||_{Linf_t B[2,n/2],2}
                                   + ||F||_{L2_t B[p,2n],2}   ||G||_{L2_t B[q,2n/3],2}

    with 2 <= p < 2n, p <= 2n/(n-3), 2 <= q < 2n/3 (all checked; the q-window is
    empty below n = 4)."""
    n = F.grid.n
    checks = [
        (n > 3, f"spacetime product bound needs n > 3, got n={n}"),
        (2 <= p < 2 * n, f"2 <= p < 2n fails for p={p}"),
        (n <= 3 or p <= 2 * n / (n - 3), f"p <= 2n/(n-3) fails for p={p}"),
        (2 <= q < 2 * n / 3, f"2 <= q < 2n/3 fails for q={q}"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ParameterError("spacetime product exponents: " + msg)
    if not np.array_equal(F.times, G.times):
        raise StructuralError("spacetime factors must share the time axis")
    half = n / 2.0
    prod = SpacetimeField(F.times, tuple(
        ScalarField(F.grid, a.phys_values * b.phys_values)
        for a, b in zip(F.slices, G.slices)))

    def norms(S: SpacetimeField, *specs):
        # per spec, the norms of S's slices; one band pass a slice serves every spec
        return zip(*(besov_norms(s, specs, band_range, allow_decreasing=True,
                                 exclude_zero_mode=True) for s in S.slices))

    t = F.times
    (prod_2,) = norms(prod, (2, half, 2))
    F_inf, F_p = norms(F, (np.inf, np.inf, 1), (p, 2 * n, 2))
    G_2, G_q = norms(G, (2, half, 2), (q, 2 * n / 3, 2))
    lhs = _time_norm(t, prod_2, 1)
    rhs = (_time_norm(t, F_inf, 1) * _time_norm(t, G_2, np.inf)
           + _time_norm(t, F_p, 2) * _time_norm(t, G_q, 2))
    return lhs / rhs if rhs > 0 else 0.0
