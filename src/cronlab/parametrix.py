"""Distorted plane waves with a null-direction phase correction.

The machinery here builds, for a low-frequency divergence-free free-wave
connection A, the direction-dependent real phase

    psi_s(t, x, omega) = (1/2pi) L_omega^s  Dperp^{-1}  sum_k  Pi_{omega, > theta_k} P_k (A . omega),
    theta_k = 2^{sigma k},  L_omega^s = omega.grad + s d_t,  s = +-1,

and the wave operator

    (U_s(t) h)(x) = sum_xi  e^{2 pi i psi_s(t,x,omega(xi))} e^{2 pi i x.xi} e^{s 2 pi i t |xi|} h(xi) a(xi) / L^n

as a lattice sum, grouped by frequency direction.  Every spectrum here is
carried by a few modes (the band support of the connection, or one
direction bucket), so each goes to the grid through a separable
trigonometric sum over those modes instead of a full-grid FFT.
Everything downstream (defect identity, amplitude, adjoint, data matching,
residuals and decay scans) is built from these two objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, ParameterError, PreconditionError, StructuralError
from . import grid as gr
from .grid import FREQUENCY, GridSpec, ScalarField, lebesgue_norm
from .gauge import THETA_MAX, greater_symbol, transverse_inverse_symbol
from .lp import (BandRange, DEFAULT_BUMP, SpacetimeField, band_symbol, fit_loglog,
                 spacetime_norm)
from .exponents import validate_sigma


# ---------------------------------------------------------------------------
# closed-form free waves

class HalfWaveField:
    """Closed-form scalar free wave: u(t) = IFFT[cos(rho t) u0 + sin(rho t)/rho u1].

    Free waves are closed under time differentiation and Fourier multipliers,
    so null-frame identities can be checked with analytic time derivatives.
    Every operation acts mode by mode, so the wave keeps the whole-lattice
    spectra it is given as they are (no copy) and never writes them; ``sample``
    drops the Nyquist rows and the zero mode from the spectrum it synthesizes.
    """

    def __init__(self, grid: GridSpec, u0_hat, u1_hat):
        self.grid = grid
        self.u0 = np.asarray(u0_hat, dtype=np.complex128)
        self.u1 = np.asarray(u1_hat, dtype=np.complex128)

    @property
    def rho(self) -> np.ndarray:
        return 2.0 * np.pi * self.grid.xi_norm

    def sample(self, t: float) -> ScalarField:
        F = gr.zero_nyquist(gr.FreeFlow(self.rho, t).u(self.u0, self.u1))
        F.flat[0] = 0.0
        return gr.to_physical(gr._wrap(self.grid, F, FREQUENCY, False))

    def dt(self) -> "HalfWaveField":
        return HalfWaveField(self.grid, self.u1, -self.rho ** 2 * self.u0)

    def mul_symbol(self, sym) -> "HalfWaveField":
        return HalfWaveField(self.grid, sym * self.u0, sym * self.u1)

    def __add__(self, other):
        return HalfWaveField(self.grid, self.u0 + other.u0, self.u1 + other.u1)

    def __mul__(self, scalar):
        return HalfWaveField(self.grid, self.u0 * scalar, self.u1 * scalar)

    __rmul__ = __mul__

    def box(self) -> "HalfWaveField":
        return self.mul_symbol(-self.rho ** 2) + self.dt().dt() * -1.0


class FreeConnection:
    """Closed-form spectral evolution of a divergence-free free-wave connection.

    Data (a, adot) are stacked frequency arrays on the whole lattice,
    hard-restricted to the annulus of ``band_range`` at construction (so
    dyadic partitions of the data telescope exactly) and checked divergence
    free; box A = 0 holds per mode.  The connection then keeps them only on
    its band support ``support``: the flat indices where some band symbol
    P_k of the range is nonzero, which carry the annulus.  It is the one
    owner of A: ``on_support(t)`` runs the free flow on those |S| modes, and
    ``samples(t)`` synthesizes A(t) on the grid through ``kernel``, the
    support's transform.  It also owns the band symbols its phase families
    read: ``bands`` maps each k of the range to P_k, evaluated once on the
    support's ``kernel.lattice``.
    """

    def __init__(self, grid: GridSpec, a_hat, adot_hat, band_range: BandRange):
        self.grid = grid
        self.band_range = band_range.validate(grid)
        lo, hi = band_range.annulus()
        mask = gr.zero_nyquist((grid.xi_norm >= lo) & (grid.xi_norm <= hi))
        if not mask.any():
            raise PreconditionError(f"the annulus [{lo:g}, {hi:g}] of band range {band_range} "
                                    f"holds no lattice mode of {grid}")
        if any(np.shape(X) != (grid.n,) + grid.shape for X in (a_hat, adot_hat)):
            raise StructuralError("connection data must be stacked (n,)+grid.shape arrays")
        a_hat = np.asarray(a_hat, dtype=np.complex128) * mask
        adot_hat = np.asarray(adot_hat, dtype=np.complex128) * mask
        self._check_div_free(a_hat, "a")
        self._check_div_free(adot_hat, "adot")
        support = np.flatnonzero(np.logical_or.reduce(
            [band_symbol(grid, k) != 0 for k in band_range]))
        self.kernel = _ModeKernel(grid, support)
        self.bands = {k: band_symbol(self.kernel.lattice, k) for k in band_range}
        self._a, self._adot = (X.reshape(grid.n, -1)[:, support] for X in (a_hat, adot_hat))
        self._rho = 2.0 * np.pi * self.kernel.lattice.xi_norm

    def _check_div_free(self, hat, name):
        dot = sum(self.grid.xi[j] * hat[j] for j in range(self.grid.n))
        scale = max(np.abs(hat).max(), 1e-300)
        if np.abs(dot).max() > 1e-10 * scale:
            raise PreconditionError(f"connection data {name} is not divergence free")

    @property
    def support(self) -> np.ndarray:
        return self.kernel.index

    def on_support(self, t: float) -> tuple:
        """(A, d_t A, d_t^2 A) at t on the support, (n, |S|) each."""
        flow = gr.FreeFlow(self._rho, t)
        A = flow.u(self._a, self._adot)
        return A, flow.u_t(self._a, self._adot), -self._rho ** 2 * A

    def samples(self, t: float) -> np.ndarray:
        """A(t) on the grid, (n,) + grid real samples, with no full-grid transform."""
        return self.kernel.synthesize(self.on_support(t)[0]).real

    @classmethod
    def zero(cls, grid: GridSpec, band_range: BandRange) -> "FreeConnection":
        z = np.zeros((grid.n,) + grid.shape, dtype=np.complex128)
        return cls(grid, z, z, band_range)


# ---------------------------------------------------------------------------
# the frequency annulus of the wave data

@dataclass(frozen=True)
class AnnulusCutoff:
    """Radial cutoff a(|xi|): identically 1 on [rho, 2 rho], smoothly falling to 0
    at rho/2 and 2 rho * 1.5."""

    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ParameterError("annulus cutoff needs rho > 0")

    @property
    def support(self) -> tuple:
        return self.rho / 2.0, 2.0 * self.rho * 1.5

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        lo, hi = self.support
        with np.errstate(invalid="ignore", divide="ignore"):
            up = DEFAULT_BUMP(1.0 + (self.rho - r) / (self.rho - lo))
            down = DEFAULT_BUMP(1.0 + (r - 2.0 * self.rho) / (hi - 2.0 * self.rho))
        return up * down

    def validate(self, grid: GridSpec) -> "AnnulusCutoff":
        if self.support[1] > grid.nyquist:
            raise ParameterError(
                f"annulus support reaches {self.support[1]}, beyond Nyquist {grid.nyquist}")
        return self

    def symbol(self, grid: GridSpec) -> np.ndarray:
        return gr.zero_nyquist(self(grid.xi_norm))

    def modes(self, grid: GridSpec) -> np.ndarray:
        """Integer modes (M, n) carried by the cutoff, ordered lexicographically."""
        sym = self.symbol(grid)
        idx = np.argwhere(sym > 0)
        modes = np.where(idx <= grid.N // 2, idx, idx - grid.N)
        order = np.lexsort(modes.T[::-1])
        return modes[order]


# ---------------------------------------------------------------------------
# transforms of spectra carried by a few modes

def _along(X: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    """X with its axis ``axis`` (counted from the end) multiplied by mat (new, old).

    Leading axes only repeat the same matrix product, so a batched call
    computes each field exactly as a call on that field alone."""
    if axis == -1:
        return X @ mat.T
    a = X.ndim + axis
    Y = mat @ X.reshape((math.prod(X.shape[:a]), X.shape[a], -1))
    return Y.reshape(X.shape[:a] + (len(mat),) + X.shape[a + 1:])


class _ModeKernel:
    """The DFT between the grid and spectra carried by a fixed set of flat
    lattice indices, as a separable trigonometric sum (a pruned DFT: Sorensen
    & Burrus, IEEE Trans. Signal Process. 41, 1993).

    ``synthesize`` maps values v_m on the indices to the grid field
    sum_m v_m e^{2 pi i x.xi_m} / L^n, which is IFFT of the scattered spectrum
    over dx^n, with one small matrix product per axis over that axis's
    distinct indices.  ``analyze`` is its exact conjugate transpose: the
    forward DFT times dx^n, evaluated only at the indices.  Leading axes of
    the input batch several fields in one call.  ``lattice`` holds the
    coordinates of the indices, xi (n, M) and |xi| (M,), so symbols of xi
    are evaluated at these modes alone.  The per-axis
    matrices are rows of the grid's one table ``GridSpec.dft_table``, which
    every kernel on the grid shares; each call gathers the rows it needs.
    """

    def __init__(self, grid: GridSpec, index: np.ndarray):
        self.grid = grid
        self.index = index
        self.lattice = gr.Lattice(grid.xi.reshape(grid.n, -1)[:, index],
                                  grid.xi_norm.ravel()[index])
        per_axis = [np.unique(k, return_inverse=True)
                    for k in np.unravel_index(index, grid.shape)]
        self._rows = tuple(u for u, _ in per_axis)
        self._pos = (Ellipsis,) + tuple(p for _, p in per_axis)
        self._dense = tuple(len(u) for u in self._rows)
        # synthesis widens the axis with the most distinct indices first, so
        # the last product, the one onto the full grid, runs over the fewest
        self._order = tuple(sorted(range(-grid.n, 0), key=lambda axis: -self._dense[axis]))
        self._table = grid.dft_table

    def synthesize(self, vals) -> np.ndarray:
        vals = np.asarray(vals)
        X = np.zeros(vals.shape[:-1] + self._dense, dtype=np.complex128)
        X[self._pos] = vals / self.grid.L ** self.grid.n
        for axis in self._order:
            X = _along(X, axis, self._table[self._rows[axis]].T)
        return X

    def analyze(self, f) -> np.ndarray:
        X = np.asarray(f)
        for axis in reversed(self._order):
            X = _along(X, axis, np.conj(self._table[self._rows[axis]]))
        return X[self._pos] * self.grid.cell_volume


# ---------------------------------------------------------------------------
# direction handling

class DirectionCache:
    """Frequency directions of a mode set, optionally bucketed at an angular scale.

    Exact mode: one direction per primitive integer vector.  Bucketed mode:
    greedy clustering to representatives within eta_dir/2, used when the shell
    carries more distinct directions than per-direction transforms can afford.
    ``bucket_kernels[b]`` is the transform of bucket b's modes; its ``index``
    holds their flat grid indices and its ``lattice`` their coordinates.
    The geometry is read-only after construction; ``multipliers`` memoizes the
    phase multipliers of the families built on the cache.
    """

    def __init__(self, grid, modes, directions, assignment):
        self.grid = grid
        self.modes = modes
        self.directions = directions
        self.multipliers = {}     # (band range, sigma) -> _Multipliers
        self.flat_index = np.ravel_multi_index((modes % grid.N).T, grid.shape)
        self.bucket_kernels = [_ModeKernel(grid, self.flat_index[assignment == b])
                               for b in range(len(directions))]

    @property
    def num_buckets(self) -> int:
        return len(self.directions)

    @classmethod
    def build(cls, grid: GridSpec, modes: np.ndarray, policy: str,
              eta_dir: float | None = None) -> "DirectionCache":
        """policy is "exact" or "bucketed" (which needs eta_dir > 0)."""
        modes = np.asarray(modes, dtype=int)
        if modes.ndim != 2 or modes.shape[1] != grid.n:
            raise StructuralError("modes must be an (M, n) integer array")
        if len(modes) == 0:
            raise StructuralError("direction cache needs at least one mode")
        if not modes.any(axis=1).all():
            raise StructuralError("modes must not hold the zero mode: it has no direction")
        if policy not in ("exact", "bucketed"):
            raise ParameterError(f"unknown direction-cache policy {policy!r}")
        unit = modes / np.linalg.norm(modes, axis=1, keepdims=True)
        if policy == "exact":
            prim = modes // np.gcd.reduce(np.abs(modes), axis=1, keepdims=True).clip(min=1)
            keys = [tuple(row) for row in prim]
            reps = {}
            assignment = np.empty(len(modes), dtype=int)
            directions = []
            for i, key in enumerate(keys):
                if key not in reps:
                    reps[key] = len(directions)
                    directions.append(unit[i])
                assignment[i] = reps[key]
            return cls(grid, modes, np.array(directions), assignment)
        if eta_dir is None or eta_dir <= 0:
            raise ParameterError("bucketed direction cache needs eta_dir > 0")
        reps = []
        assignment = np.empty(len(modes), dtype=int)
        cos_tol = math.cos(eta_dir / 2.0)
        rep_mat = np.zeros((0, grid.n))
        for i in range(len(modes)):
            if len(reps):
                dots = rep_mat @ unit[i]
                j = int(np.argmax(dots))
                if dots[j] >= cos_tol:
                    assignment[i] = j
                    continue
            reps.append(unit[i])
            rep_mat = np.asarray(reps)
            assignment[i] = len(reps) - 1
        return cls(grid, modes, rep_mat, assignment)

    @classmethod
    def of_directions(cls, grid: GridSpec, directions) -> "DirectionCache":
        """One bucket per given unit direction, taken as it is (not renormalized);
        the directions need not be lattice directions.  The buckets carry no
        modes, so the cache serves the phase family (defect identity, phase
        split) but covers no cutoff support."""
        directions = np.asarray(directions, dtype=float)
        if directions.ndim != 2 or directions.shape[1] != grid.n or len(directions) == 0:
            raise StructuralError("directions must be a nonempty (B, n) array")
        if np.abs(np.linalg.norm(directions, axis=1) - 1.0).max() > 1e-12:
            raise ParameterError("directions must be unit vectors")
        return cls(grid, np.zeros((0, grid.n), dtype=int), directions, np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# the phase family

def _dot_omega(stacked, w_dir) -> np.ndarray:
    return sum(stacked[j] * w_dir[j] for j in range(len(w_dir)))


def _opposite_null(w_dir, sign: int, grad, psi_t) -> np.ndarray:
    """L_omega^{-s} psi = omega.grad psi - s d_t psi from the fields of psi."""
    return _dot_omega(grad, w_dir) - sign * psi_t


def _band_sum(pks: dict, weights) -> np.ndarray:
    """sum_k P_k w_k on the band support, added in band order from complex zeros."""
    out = np.zeros(len(next(iter(pks.values()))), dtype=np.complex128)
    for pk, wk in zip(pks.values(), weights):
        out += pk * wk
    return out


class _Multipliers(NamedTuple):
    """The time-independent phase multipliers of one (band range, sigma), one
    row per direction bucket, on the band support of the range's connections
    (``FreeConnection.support``).  W vanishes off it."""

    ws: np.ndarray         # (B, |S|) complex: inv sum_k P_k Pi_{omega, > theta_k}
    xi_dots: np.ndarray    # (B, |S|) real: xi . omega


def _lift(samples, i: int, sign: int, w_dir, xi_dot, W) -> np.ndarray:
    """W (i xi.omega X.omega + (s / 2 pi) Y.omega) for (X, Y) = samples i, i + 1:
    the phase symbol of a field and its time derivative, on the support.  Given
    directions (B, n) and multipliers (B, |S|), it lifts every bucket at once,
    each row bitwise the per-row lift: np.multiply keeps W the first factor,
    which W * (...) does not from 16,384 elements on (numpy elides in place)."""
    X, Y = samples[i], samples[i + 1]
    w = w_dir.T[..., None]
    return np.multiply(W, 1j * xi_dot * _dot_omega(X, w) + sign / (2 * np.pi) * _dot_omega(Y, w))


class PhaseFamily:
    """The per-direction phases psi_s(t, x, omega) of one connection and sign.

    Bands k run over the connection's range with opening angles
    theta_k = min(2^{sigma k}, pi/4) (the cap only matters when the grid packs
    the connection within a few octaves of the data shell; the defect identity
    is exact for any angles).  The time-independent multiplier W (inverse
    transverse Laplacian against the kept sectors) and xi.omega live on the
    connection's band support, are built per direction once for each
    direction cache and are shared by every family on it.  The family reads
    A, the support's transform and the band symbols from its connection
    (``conn.kernel``, ``conn.bands``) and keeps no copy of them.  Per time
    the family keeps two things, for the most recent time only.  The lift,
    which every reader needs: the connection samples on the support and
    psi_hat of every bucket, in one lift.  The phase rows e^{2 pi i psi},
    which only ``slice_at(t, b)`` reads: its first call at a time builds the
    row of every bucket, read or not, in chunks of _CHUNK_BYTES (8 rows at
    64^2, one at 256^2), and returns a view of row b.  ``psi``, ``psi_t``,
    ``grad`` and ``imag_defect`` at a time read its lift alone and build no
    row.  Their fields are not kept: each call recomputes its field from the
    support, one support transform each (grad batches its n fields), so a
    caller binds them once.
    """

    _CHUNK_BYTES = 512 * 1024

    def __init__(self, conn: FreeConnection, sign: int, sigma: float,
                 cache: DirectionCache):
        if sign not in (+1, -1):
            raise ParameterError("sign must be +1 or -1")
        if cache.grid != conn.grid:
            raise StructuralError(f"direction cache on {cache.grid} does not match the "
                                  f"connection's grid {conn.grid}")
        validate_sigma(conn.grid.n, sigma)
        self.conn = conn
        self.grid = conn.grid
        self.sign = sign
        self.sigma = sigma
        self.cache = cache
        self.thetas = {k: min(2.0 ** (sigma * k), THETA_MAX) for k in conn.band_range}
        # the inverse transverse symbol is zero within theta_min of the axis
        self.theta_min = min(self.thetas.values()) / 4.0
        self._w, self._xi_dot = self._shared_multipliers()
        self._t = None
        self._samples = self._psi_hat = None    # the lift at time _t, on the support
        self._phase = None       # the phase rows at time _t, once slice_at asks

    def _shared_multipliers(self) -> _Multipliers:
        key = (self.conn.band_range, self.sigma)
        if key not in self.cache.multipliers:
            ws, dots = [], []
            lat, pks = self.conn.kernel.lattice, self.conn.bands
            for w_dir in self.cache.directions:
                inv = transverse_inverse_symbol(lat, w_dir, self.theta_min)
                gs = [greater_symbol(lat, w_dir, self.thetas[k]) for k in pks]
                ws.append(np.multiply(inv, _band_sum(pks, gs)))
                dots.append(np.tensordot(w_dir, lat.xi, axes=(0, 0)))
            self.cache.multipliers[key] = _Multipliers(np.stack(ws), np.stack(dots))
        return self.cache.multipliers[key]

    def _lift_at(self, t: float):
        """The connection samples (A, A_t, A_tt) on the support at t and psi_hat
        of every bucket."""
        if t != self._t:
            self._phase = None   # the old rows go before the new lift is allocated
            self._t, self._samples = t, self.conn.on_support(t)
            self._psi_hat = _lift(self._samples, 0, self.sign, self.cache.directions,
                                  self._xi_dot, self._w)

    def _psi_chunks(self, t: float):
        """(i, psi) per chunk of buckets i, i + 1, ... at t: the complex
        synthesis of their psi_hat rows, _CHUNK_BYTES at a time."""
        self._lift_at(t)
        rows = max(1, self._CHUNK_BYTES // (16 * self.grid.num_points))
        for i in range(0, len(self._psi_hat), rows):
            yield i, self.conn.kernel.synthesize(self._psi_hat[i:i + rows])

    def _build_table(self, t: float):
        """The phase rows e^{2 pi i psi} of every bucket at t."""
        self._lift_at(t)
        self._phase = np.empty((len(self._psi_hat),) + self.grid.shape, dtype=np.complex128)
        for i, psi_c in self._psi_chunks(t):
            np.exp(2j * np.pi * psi_c.real, out=self._phase[i:i + len(psi_c)])

    def imag_defect(self, t: float) -> float:
        """sup |Im psi| / sup |psi| of the synthesized phases at t, worst over
        buckets: psi is real up to rounding."""
        axes = tuple(range(1, self.grid.n + 1))
        worst = 0.0
        for _, psi_c in self._psi_chunks(t):
            scale = np.maximum(np.abs(psi_c).max(axis=axes), 1e-300)
            worst = max(worst, float((np.abs(psi_c.imag).max(axis=axes) / scale).max()))
        return worst

    def slice_at(self, t: float, b: int) -> np.ndarray:
        """Row b of the phase table at t: the phase factor e^{2 pi i psi} on the grid."""
        if t != self._t or self._phase is None:
            self._build_table(t)
        return self._phase[b]

    def psi(self, t: float, b: int) -> np.ndarray:
        self._lift_at(t)
        return self.conn.kernel.synthesize(self._psi_hat[b]).real

    def psi_t(self, t: float, b: int) -> np.ndarray:
        self._lift_at(t)
        return self.conn.kernel.synthesize(_lift(self._samples, 1, self.sign,
                                                 self.cache.directions[b], self._xi_dot[b],
                                                 self._w[b])).real

    def grad(self, t: float, b: int) -> tuple:
        self._lift_at(t)
        kern = self.conn.kernel
        return tuple(kern.synthesize(2j * np.pi * kern.lattice.xi * self._psi_hat[b]).real)

    def opposite_null_derivative(self, t: float, b: int) -> np.ndarray:
        """L_omega^{-s} psi_s = omega.grad psi - s d_t psi (the defect operator)."""
        return _opposite_null(self.cache.directions[b], self.sign, self.grad(t, b),
                              self.psi_t(t, b))

    def with_multipliers(self, ws) -> "PhaseFamily":
        """The family with its own W rows, given on the band support."""
        fam = PhaseFamily(self.conn, self.sign, self.sigma, self.cache)
        fam._w = np.stack(ws)
        return fam


# ---------------------------------------------------------------------------
# the exact defect identity

def phase_defect(family: PhaseFamily, times) -> float:
    """The worst relative L2 difference, over times and buckets, of the two sides of

        2 pi L^{-s} psi_s + A.omega = sum_k Pi_{omega,<=theta_k} P_k A . omega

    evaluated through independent multiplier paths.  The left side runs
    through the family's stored W and the phase's analytic derivatives; the
    right side builds sum_k P_k Pi_{omega,<=theta_k} here, so a wrong W shows.
    The two sides share only the connection's samples on the band support,
    its band symbols P_k and ``greater_symbol``.
    """
    grid = family.grid
    kernel, pks = family.conn.kernel, family.conn.bands
    leqs = [_band_sum(pks, [1.0 - greater_symbol(kernel.lattice, w_dir, family.thetas[k])
                            for k in pks]) for w_dir in family.cache.directions]
    worst = 0.0
    for t in times:
        A = family.conn.on_support(t)[0]
        for b in range(family.cache.num_buckets):
            w_dir = family.cache.directions[b]
            lhs = 2.0 * np.pi * family.opposite_null_derivative(t, b)
            Aw = _dot_omega(A, w_dir)
            # a full-grid transform of A.omega scattered from the support,
            # independent of the support kernel
            aw_hat = np.zeros(grid.num_points, dtype=np.complex128)
            aw_hat[kernel.index] = Aw
            aw_field = (np.fft.ifftn(aw_hat.reshape(grid.shape)) / grid.cell_volume).real
            lhs = lhs + aw_field
            rhs = kernel.synthesize(leqs[b] * Aw).real
            num = np.linalg.norm(lhs - rhs)
            # both sides can vanish identically (on-axis directions see no
            # small-angle energy); normalize against the driving field too
            den = max(np.linalg.norm(lhs), np.linalg.norm(rhs),
                      np.linalg.norm(aw_field), 1e-300)
            worst = max(worst, num / den)
    return worst


# ---------------------------------------------------------------------------
# the wave operator and its adjoint

class WaveOperator:
    """U_s(t) over a cutoff annulus, its exact discrete adjoint, and d_t U_s(t).

    Coefficient vectors h live on the full frequency lattice (values outside
    the cutoff support are ignored); the coefficient inner product is
    sum h1 conj(h2) / L^n, matching the d(xi) lattice measure.
    """

    def __init__(self, family: PhaseFamily, cutoff: AnnulusCutoff, check_cover: bool = True):
        self.family = family
        self.grid = family.grid
        self.cutoff = cutoff.validate(self.grid)
        self.a_sym = cutoff.symbol(self.grid)
        self.cache = family.cache
        a_flat = self.a_sym.ravel()
        if check_cover:
            covered = np.zeros(self.grid.num_points, dtype=bool)
            covered[self.cache.flat_index] = True
            if np.any((a_flat > 0) & ~covered):
                raise StructuralError("direction cache does not cover the cutoff support; "
                                      "build it from cutoff.modes(grid)")
        # (b, transforms, a(xi), |xi|) per bucket; a(xi) zeroes the others
        self._live = [(b, kern, a_flat[kern.index], kern.lattice.xi_norm)
                      for b, kern in enumerate(self.cache.bucket_kernels)
                      if a_flat[kern.index].any()]

    @property
    def sign(self) -> int:
        return self.family.sign

    def coefficient_norm(self, h: np.ndarray) -> float:
        return gr.frequency_l2(self.grid, h)

    def _half_wave(self, t: float, r) -> np.ndarray:
        return np.exp(self.sign * 2j * np.pi * t * r)

    def _buckets(self, t: float, h):
        """(b, kern, r, c) per direction bucket: its transforms, |xi| on its
        modes and the weighted coefficients c = h a(xi) e^{s 2 pi i t |xi|}
        there; buckets where c vanishes are skipped."""
        h = np.broadcast_to(np.asarray(h, dtype=np.complex128), self.grid.shape).ravel()
        for b, kern, a, r in self._live:
            c = h[kern.index] * a * self._half_wave(t, r)
            if c.any():
                yield b, kern, r, c

    def apply(self, t: float, h: np.ndarray) -> ScalarField:
        grid = self.grid
        out = np.zeros(grid.shape, dtype=np.complex128)
        for b, kern, _, c in self._buckets(t, h):
            out += self.family.slice_at(t, b) * kern.synthesize(c)
        return ScalarField(grid, out)

    def apply_dt(self, t: float, h: np.ndarray) -> ScalarField:
        """Analytic d_t of apply: the phase and half-wave factors differentiate
        in closed form."""
        grid = self.grid
        out = np.zeros(grid.shape, dtype=np.complex128)
        two_pi_i = 2j * np.pi
        for b, kern, r, c in self._buckets(t, h):
            part0, part1 = kern.synthesize(np.stack([c, r * c]))
            phase, psi_t = self.family.slice_at(t, b), self.family.psi_t(t, b)
            out += phase * (two_pi_i * psi_t * part0 + self.sign * two_pi_i * part1)
        return ScalarField(grid, out)

    def apply_adjoint(self, t: float, f: ScalarField) -> np.ndarray:
        """h(xi) = conj(half-wave) a(xi) FFT[e^{-2 pi i psi} f](xi) dx^n per
        bucket, through the transpose of apply's bucket transform; the exact
        adjoint of apply under the lattice inner products."""
        grid = self.grid
        fv = f.phys_values
        out = np.zeros(grid.num_points, dtype=np.complex128)
        for b, kern, a, r in self._live:
            g = kern.analyze(np.conj(self.family.slice_at(t, b)) * fv)
            out[kern.index] += np.conj(self._half_wave(t, r)) * a * g
        return out.reshape(grid.shape)

    def gradient_commutation_defect(self, t: float, h: np.ndarray) -> float:
        """||grad(U h) - U(2 pi i xi h)||_2 / ||h||_2."""
        grid = self.grid
        u = self.apply(t, h)
        parts = []
        for j in range(grid.n):
            lhs = gr.partial_derivative(u, j)
            rhs = self.apply(t, 2j * np.pi * grid.xi[j] * np.asarray(h))
            parts.append(lebesgue_norm(lhs - rhs, 2) ** 2)
        return math.sqrt(sum(parts)) / self.coefficient_norm(h)

    def time_commutation_defect(self, t: float, h: np.ndarray) -> float:
        """||d_t(U h) - s U(2 pi i |xi| h)||_2 / ||h||_2."""
        lhs = self.apply_dt(t, h)
        rhs = self.apply(t, self.sign * 2j * np.pi * self.grid.xi_norm * np.asarray(h))
        return lebesgue_norm(lhs - rhs, 2) / self.coefficient_norm(h)

    def operator_norm_at(self, t: float, rng, tol: float = 1e-6) -> float:
        """||U(t)||_{L2_xi -> L2_x} via power iteration on U* U.

        The start vector lives on the cutoff plateau (a == 1), where the top
        of the spectrum concentrates; the free operator is an exact fixed
        point there, so the isometry case settles immediately."""
        grid = self.grid
        live = self.a_sym >= self.a_sym.max()
        h = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * live
        h /= self.coefficient_norm(h)
        lam_prev = 0.0
        history = []
        for _ in range(100):
            w = self.apply_adjoint(t, self.apply(t, h))
            lam = np.vdot(h.ravel(), w.ravel()).real / grid.L ** grid.n
            nrm = self.coefficient_norm(w)
            if nrm == 0.0:
                return 0.0
            h = w / nrm
            history.append(lam)
            if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
                return math.sqrt(abs(lam))
            lam_prev = lam
        raise ConvergenceError("power iteration did not settle in 100 steps",
                               history=history)


# ---------------------------------------------------------------------------
# data matching

@dataclass(frozen=True, eq=False)
class MatchReport:
    h_plus: np.ndarray
    h_minus: np.ndarray
    position_error: float
    velocity_error: float


def match_data(op_plus: WaveOperator, op_minus: WaveOperator, f: ScalarField,
               g: ScalarField) -> MatchReport:
    """h_pm = (1/2)(U_pm(0)* f pm (2 pi i |xi|)^{-1} U_pm(0)* g) and the measured
    errors of reproducing (f, g) at time zero."""
    grid = f.grid
    a_live = op_plus.a_sym > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_freq = np.where(a_live, 1.0 / (2j * np.pi * grid.xi_norm), 0.0)
    h = {}
    for op, sgn in ((op_plus, +1), (op_minus, -1)):
        uf = op.apply_adjoint(0.0, f)
        ug = op.apply_adjoint(0.0, g)
        h[sgn] = 0.5 * (uf + sgn * inv_freq * ug)
    pos = op_plus.apply(0.0, h[+1]) + op_minus.apply(0.0, h[-1])
    vel = op_plus.apply_dt(0.0, h[+1]) + op_minus.apply_dt(0.0, h[-1])
    return MatchReport(h_plus=h[+1], h_minus=h[-1],
                       position_error=lebesgue_norm(pos - f, 2),
                       velocity_error=lebesgue_norm(vel - g, 2))


# ---------------------------------------------------------------------------
# residual of the covariant wave operator on the parametrix

def covariant_box_direct(op: WaveOperator, t: float, h, dts) -> list:
    """(-d_t^2 + Delta + 2 i A.grad)(U h) with centered second time differences,
    one field per step in dts, A being the connection's samples at t (no
    full-grid transform).  U(t)h and its spatial part are taken once for all
    steps, and last, so the phase table then holds time t for a following
    covariant_box_amplitude."""
    grid = op.grid
    shifted = [(op.apply(t - dt, h).phys_values, op.apply(t + dt, h).phys_values)
               for dt in dts]
    u0 = op.apply(t, h)
    A = op.family.conn.samples(t)
    u0_hat = u0.in_frequency()      # one transform serves the Laplacian and every partial
    lap = gr.laplacian(u0_hat).phys_values
    transport = np.zeros(grid.shape, dtype=np.complex128)
    for j in range(grid.n):
        du0 = gr.partial_derivative(u0_hat, j).phys_values
        transport += A[j] * du0
    transport = 2j * transport
    return [ScalarField(grid, -((up - 2.0 * u0.phys_values + um) / dt ** 2) + lap + transport)
            for dt, (um, up) in zip(dts, shifted)]


def covariant_box_amplitude(op: WaveOperator, t: float, h) -> ScalarField:
    """The same quantity through the order-reduction identity: the U-style sum
    with the extra factor 2 pi Omega_s(t, x, xi), the connection's samples at t
    read with no full-grid transform."""
    grid = op.grid
    fam = op.family
    Avals = fam.conn.samples(t)
    out = np.zeros(grid.shape, dtype=np.complex128)
    for b, kern, r, c in op._buckets(t, h):
        part0, part1, *parts2 = kern.synthesize(np.vstack([c, r * c, kern.lattice.xi * c]))
        phase, grad, psi_t = fam.slice_at(t, b), fam.grad(t, b), fam.psi_t(t, b)
        alpha = (2.0 * np.pi * (psi_t ** 2 - sum(g ** 2 for g in grad))
                 - 2.0 * sum(Avals[j] * grad[j] for j in range(grid.n)))
        beta = -4.0 * np.pi * _opposite_null(fam.cache.directions[b], fam.sign, grad, psi_t)
        acc = alpha * part0 + beta * part1
        for j in range(grid.n):
            acc += -2.0 * Avals[j] * parts2[j]
        out += phase * acc
    return ScalarField(grid, 2.0 * np.pi * out)


def _in_window(grid: GridSpec, times, reach: float = 0.0) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    limit = grid.L / 2.0
    if np.abs(times).max() + reach >= limit:
        raise ParameterError(f"time window exceeds the wrap limit {limit}")
    return times


def residual_check(op: WaveOperator, h, times, dts) -> tuple:
    """||direct - amplitude path||_2 of the covariant box of U h, one tuple
    over times per step in dts (absolute; it decays at the differencing order
    under dt refinement).  U(t)h, its spatial part and the amplitude path
    are computed once per time; per step only U(t +- dt)h.  The connection
    is synthesized from its band support, with no full-grid transform."""
    dts = tuple(dts)
    diffs = []
    for t in _in_window(op.grid, times, max(dts)):
        directs = covariant_box_direct(op, t, h, dts)
        via = covariant_box_amplitude(op, t, h)
        diffs.append([lebesgue_norm(direct - via, 2) for direct in directs])
    return tuple(zip(*diffs))


def amplitude_residual(op: WaveOperator, h, times) -> float:
    """L1_t Sobolev(n/2-2) of the covariant box of U h over times, through the
    amplitude path alone: the nonlinearity norm in its Sobolev normalization
    (it covers the whole lattice, unlike the banded Besov sum, which would
    truncate the data shell).  One phase table and no connection transform
    per time, no U(t +- dt)h."""
    grid = op.grid
    times = _in_window(grid, times)
    slices = tuple(covariant_box_amplitude(op, t, h) for t in times)
    spatial = lambda f: gr.sobolev_norm(f, grid.n / 2.0 - 2.0, exclude_zero_mode=True)
    return spacetime_norm(SpacetimeField(times, slices), 1, spatial)


# ---------------------------------------------------------------------------
# scans

@dataclass(frozen=True)
class DecayScan:
    taus: tuple
    values: tuple
    slope: float


def dispersive_scan(op: WaveOperator | None, taus, f: ScalarField, *, grid=None,
                    cutoff=None) -> DecayScan:
    """||U(t) U(0)* f||_inf / ||f||_1 against tau = t; op=None runs the free
    closed-form propagator (the oracle path), sup_x |U_free(tau) U_free(0)* f|
    through the multiplier a^2 e^{2 pi i tau |xi|}.  All taus must sit below
    the wrap limit L/2."""
    if op is not None:
        grid, cutoff = op.grid, op.cutoff
    taus = _in_window(grid, taus)
    l1 = lebesgue_norm(f, 1)
    vals = []
    if op is None:
        fhat = f.freq_values
        a2 = cutoff.symbol(grid) ** 2
        for tau in taus:
            sym = np.exp(2j * np.pi * tau * grid.xi_norm)
            sym *= a2
            sym *= fhat
            sup = float(np.abs(np.fft.ifftn(sym) / grid.cell_volume).max())
            vals.append(sup / l1)
    else:
        g = op.apply_adjoint(0.0, f)
        for tau in taus:
            vals.append(lebesgue_norm(op.apply(float(tau), g), np.inf) / l1)
    return DecayScan(taus=tuple(taus), values=tuple(vals),
                     slope=fit_loglog(taus, np.asarray(vals)))


def bucketing_error(op: WaveOperator, t: float, h, subsample: int) -> float:
    """Relative L2 difference between the bucketed operator and an exact
    per-mode-direction operator, on the `subsample` largest coefficients
    |h a|, ties in the cache's mode order (a stable sort, the same on any CPU).

    Measures the error committed by the direction-cache bucketing policy."""
    grid = op.grid
    base = np.abs(np.asarray(h) * op.a_sym)
    flat = op.cache.flat_index
    order = np.argsort(-base.ravel()[flat], kind="stable")[:subsample]
    modes = op.cache.modes[order]
    h_sub = np.zeros(grid.shape, dtype=np.complex128)
    h_sub.ravel()[flat[order]] = np.asarray(h).ravel()[flat[order]]
    exact_cache = DirectionCache.build(grid, modes, policy="exact")
    exact_fam = PhaseFamily(op.family.conn, op.family.sign, op.family.sigma, exact_cache)
    exact_op = WaveOperator(exact_fam, op.cutoff, check_cover=False)
    u_bucketed = op.apply(t, h_sub)
    u_exact = exact_op.apply(t, h_sub)
    den = max(lebesgue_norm(u_exact, 2), 1e-300)
    return lebesgue_norm(u_bucketed - u_exact, 2) / den


# ---------------------------------------------------------------------------
# phase split at a working angle

def split_phase_at(family: PhaseFamily, theta_star: float):
    """Split every band's kept sector into dyadic angular pieces below/above
    theta_star.  Returns (family_low, family_high, partition_defect) where the
    defect is the max relative multiplier mismatch of low + high against the
    original (an exact partition up to rounding)."""
    if theta_star <= 0:
        raise ParameterError("theta_star must be positive")
    # each band's edge: the largest theta_k 2^j below theta_star (theta_k if none is)
    edges = {}
    for k, theta_k in family.thetas.items():
        edges[k] = theta_k
        while edges[k] * 2.0 < theta_star:
            edges[k] *= 2.0
    low, high = [], []
    lat, pks = family.conn.kernel.lattice, family.conn.bands
    for w_dir in family.cache.directions:
        inv = transverse_inverse_symbol(lat, w_dir, family.theta_min)
        g_base = [greater_symbol(lat, w_dir, family.thetas[k]) for k in pks]
        g_edge = [g if edges[k] == family.thetas[k] else greater_symbol(lat, w_dir, edges[k])
                  for k, g in zip(pks, g_base)]
        low.append(np.multiply(_band_sum(pks, [g - e for g, e in zip(g_base, g_edge)]), inv))
        high.append(np.multiply(_band_sum(pks, g_edge), inv))
    W = family._w
    scale = np.maximum(np.abs(W).max(axis=1, initial=0.0), 1e-300)
    mismatch = np.abs((np.stack(low) + np.stack(high)) - W).max(axis=1, initial=0.0)
    return (family.with_multipliers(low), family.with_multipliers(high),
            float((mismatch / scale).max()))


# ---------------------------------------------------------------------------
# decomposable-norm surrogate

def decomposable_surrogate(directions, fields, theta: float, q_t, r_x,
                           annulus_volume: float = 1.0):
    """Discretized smoothness-based upper bound for direction-dependent factors:

        sum_{l=0}^{4} (theta^{1-n} int_Sigma ||(theta grad_xi)^l F||^2 dxi)^{1/2}

    in n = 2, with grad_xi realized as centered difference quotients along the
    circle of directions (F homogeneous of degree 0, so only angular
    derivatives survive), each direction weighted annulus_volume / B.  Returns
    (value, tail_ratio) where tail_ratio is the last retained term against the
    total.  The norms read samples, so the differences are taken on samples:
    each given slice is transformed at most once, and no difference at all.
    """
    directions = np.asarray(directions, dtype=float)
    B, n = directions.shape
    if n != 2:
        raise ParameterError(f"surrogate needs directions in the plane, got dimension {n}")
    if B < 2:
        raise ParameterError("surrogate needs at least two directions")
    dots = np.clip(directions @ directions.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    nearest = np.argmax(dots, axis=1)
    gaps = np.arccos(dots[np.arange(B), nearest])
    if gaps.max() > theta / 2.0 + 1e-12:
        raise ParameterError(
            f"direction quadrature too coarse for theta={theta}: max spacing {gaps.max()}")
    weights = np.full(B, annulus_volume / B)

    def st_norm(F):
        return spacetime_norm(F, q_t, lambda s: lebesgue_norm(s, r_x))

    # directions are circularly ordered: centered differences along the circle
    angles = np.arctan2(directions[:, 1], directions[:, 0])
    order = np.argsort(angles)

    def differentiate(level):
        nxt = [None] * B
        for pos in range(B):
            i = int(order[pos])
            ip = int(order[(pos + 1) % B])
            im = int(order[(pos - 1) % B])
            gap = (angles[ip] - angles[im]) % (2.0 * np.pi)
            gap = max(float(gap), 1e-300)
            nxt[i] = SpacetimeField(level[i].times, tuple(
                (a.in_physical() - b.in_physical()) * (theta / gap)
                for a, b in zip(level[ip].slices, level[im].slices)))
        return nxt

    level = list(fields)
    terms = []
    for l in range(5):
        vals = np.array([st_norm(F) for F in level])
        terms.append(math.sqrt(float(theta ** (1 - n) * np.sum(weights * vals ** 2))))
        if l == 4:
            break
        level = differentiate(level)
    total = float(sum(terms))
    tail = terms[-1] / total if total > 0 else 0.0
    return total, tail
